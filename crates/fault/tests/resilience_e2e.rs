//! End-to-end resilience acceptance: a fault-free run and a
//! single-link-failure-then-recover run of the functional MPT trainer
//! produce **bit-identical** final weights, with nonzero recovery
//! activity recorded — crossing fault, noc, core, and obs. Both runs are
//! also held to a direct oracle that never calls `train_resilient` (a
//! `train_step_with` loop and `checkpoint_net`), since a fault-free
//! resilient run is served from the same memoized trajectory the faulty
//! one reads.

use wmpt_core::{checkpoint_net, WinogradNet};
use wmpt_fault::{
    demo_dataset, train_resilient, FaultPlan, GridShape, ResilienceConfig, ResilienceReport,
    Scenario,
};
use wmpt_obs::{MetricKey, Observer};
use wmpt_par::ParPool;

/// The fault-free run, trained step by step: its losses and final
/// checkpoint.
fn direct(iters: usize) -> (Vec<f64>, String) {
    let (x, t) = demo_dataset(77, 8);
    let mut net = WinogradNet::new(55, 2, &[4], true);
    let cfg = ResilienceConfig::small(iters);
    let losses = (0..iters)
        .map(|_| net.train_step_with(&x, &t, cfg.lr, Some(cfg.grid), &ParPool::serial()))
        .collect();
    (losses, checkpoint_net(iters as u64, &net).render())
}

fn run(plan: &FaultPlan, iters: usize) -> (ResilienceReport, Observer) {
    let (x, t) = demo_dataset(77, 8);
    let mut net = WinogradNet::new(55, 2, &[4], true);
    let cfg = ResilienceConfig::small(iters);
    let mut obs = Observer::new();
    let report = train_resilient(&mut net, &x, &t, GridShape::small(), plan, &cfg, &mut obs)
        .expect("resilient run");
    (report, obs)
}

#[test]
fn single_link_recovery_is_bit_identical_to_fault_free() {
    let iters = 6;
    let horizon = ResilienceConfig::small(iters).horizon();
    let shape = GridShape::small();

    let (clean, _) = run(&FaultPlan::empty(horizon), iters);
    let plan = FaultPlan::scenario(Scenario::SingleLink, shape, 7, horizon);
    let (faulty, obs) = run(&plan, iters);

    // Recovery actually happened: the link died, routing re-formed, the
    // iteration in flight was rolled back and replayed.
    assert_eq!(faulty.events_injected, 1);
    assert!(faulty.rollbacks >= 1, "no rollback recorded");
    assert!(faulty.replayed_iterations >= 1, "nothing replayed");
    assert!(faulty.extra_ring_hops > 0, "no reroute penalty");
    assert!(faulty.slowdown() > 1.0, "faults were free");
    assert!(!faulty.grid_changed, "link failure must keep the grid");

    // The acceptance criterion: the serialized final states are the same
    // document, byte for byte — every f32 weight bit-identical.
    assert_eq!(
        clean.final_checkpoint, faulty.final_checkpoint,
        "fault-then-recover diverged from the fault-free run"
    );
    // And every recorded loss matches exactly, not approximately.
    for (i, (a, b)) in clean.losses.iter().zip(&faulty.losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "loss {i} diverged: {a} vs {b}");
    }
    // Both equal the direct loop, which no memo feeds.
    let (direct_losses, direct_ckpt) = direct(iters);
    assert_eq!(
        clean.final_checkpoint, direct_ckpt,
        "fault-free run diverged"
    );
    assert_eq!(
        faulty.fault_free_checkpoint, direct_ckpt,
        "reference diverged"
    );
    for (i, (a, b)) in direct_losses.iter().zip(&faulty.losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "loss {i} diverged from the direct loop"
        );
    }

    // Metrics saw the episode.
    let m = &obs.metrics;
    assert_eq!(m.counter(MetricKey::FaultEventsInjected), 1);
    assert_eq!(m.counter(MetricKey::FaultLinksFailed), 1);
    assert!(m.counter(MetricKey::FaultReroutes) >= 1);
    assert!(m.counter(MetricKey::FaultRollbacks) >= 1);
    assert!(m.counter(MetricKey::FaultRecoveryCycles) > 0);
    let hist = m
        .histogram(MetricKey::HistRecoveryCycles)
        .expect("recovery histogram");
    assert!(hist.percentile(0.95) > 0.0);

    // The fault landed on its own trace track.
    let fault_spans = obs
        .trace
        .spans()
        .iter()
        .filter(|s| obs.trace.track_name(s.track) == "fault")
        .count();
    assert_eq!(fault_spans, 1);
}

#[test]
fn chaos_scenario_recovers_and_still_converges() {
    let iters = 10;
    let horizon = ResilienceConfig::small(iters).horizon();
    let plan = FaultPlan::scenario(Scenario::Chaos, GridShape::small(), 13, horizon);
    let (report, obs) = run(&plan, iters);

    // All five fault kinds fired and training survived them all.
    assert_eq!(report.events_injected, 5);
    assert_eq!(report.events_pending, 0);
    assert!(report.rollbacks >= 2, "link + flip + death each roll back");
    assert!(report.grid_changed, "worker death must remap the grid");
    assert!(report.slowdown() > 1.0);
    assert!(
        report.losses[iters - 1].is_finite() && report.losses[iters - 1] < report.losses[0],
        "training stopped converging: {:?}",
        report.losses
    );
    assert_eq!(obs.metrics.counter(MetricKey::FaultEventsInjected), 5);
    assert_eq!(obs.metrics.counter(MetricKey::FaultWorkersLost), 1);
    assert_eq!(obs.metrics.counter(MetricKey::FaultBitFlipsDetected), 1);
}

#[test]
fn host_flap_stalls_host_stitched_grids_only() {
    let iters = 6;
    let base = ResilienceConfig::small(iters);
    let shape = GridShape::small();
    let plan = FaultPlan::scenario(Scenario::HostFlap, shape, 3, base.horizon());
    let (x, t) = demo_dataset(77, 8);

    // (4, 2): each logical ring is one physical ring — no host hops, no
    // stall. (1, 8): one big ring stitched through the host — stalls.
    let (mut n1, mut n2) = (
        WinogradNet::new(55, 2, &[4], true),
        WinogradNet::new(55, 2, &[4], true),
    );
    let mut obs = Observer::new();
    let no_host = train_resilient(&mut n1, &x, &t, shape, &plan, &base, &mut obs).expect("run");
    let mut host_cfg = base;
    host_cfg.grid = wmpt_noc::ClusterConfig::new(1, 8);
    let with_host =
        train_resilient(&mut n2, &x, &t, shape, &plan, &host_cfg, &mut obs).expect("run");

    assert_eq!(no_host.stall_cycles, 0, "ring-local grid must not stall");
    assert!(with_host.stall_cycles > 0, "host-stitched grid must stall");
    assert_eq!(with_host.rollbacks, 0, "a flap is a stall, not a rollback");
}
