//! Resilient MPT training: run the functional trainer under a
//! [`FaultPlan`], recovering via checkpoint/rollback and degraded-grid
//! remapping, with every fault and recovery observable.
//!
//! The executor interleaves real SGD steps on a [`WinogradNet`] with a
//! virtual clock. After each iteration it drains every plan event whose
//! cycle has passed (an index cursor, so each event fires exactly once
//! even when recovery jumps the clock):
//!
//! * **link-down** — reroute on the degraded network ([`DegradedMapping`]
//!   hop penalty charged per iteration), then roll back to the last
//!   checkpoint and replay; the logical grid is unchanged, so the run
//!   stays bit-identical to the fault-free one.
//! * **worker-down** — remap `(N_g, N_c)` over the survivors with
//!   [`wmpt_core::degraded_grid`], roll back, replay on the new grid.
//! * **bit-flip** — flip the bit in the live Winograd-domain weights,
//!   detect it, roll back, replay (clean state restored exactly).
//! * **straggler** — scale subsequent iteration time by the worst factor.
//! * **host-link-flap** — stall the clock for the outage when the active
//!   grid stitches rings through the host.
//!
//! Fault-free and single-link-failure runs end with bit-identical weights
//! — `crates/fault/tests/resilience_e2e.rs` asserts it on the rendered
//! checkpoints.
//!
//! The report also carries the fault-free run's final checkpoint, without
//! a second run: up to the first event that touches the weights or the
//! grid (link-down, worker-down, bit-flip), the faulty run issues exactly
//! the fault-free run's SGD steps — stragglers and host flaps only move
//! the clock. The executor clones the net just before that event lands
//! and, after the loop, trains the clone through the remaining
//! iterations on the initial grid.

use crate::event::{FaultEvent, FaultState};
use crate::plan::{FaultPlan, GridShape};
use wmpt_core::{checkpoint_net, degraded_grid, restore_net, WinogradNet};
use wmpt_noc::{ClusterConfig, DegradedMapping, NocParams};
use wmpt_obs::{json, MetricKey, Observer};
use wmpt_par::ParPool;
use wmpt_tensor::Tensor4;

/// Knobs of a resilient training run.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Learning rate of every SGD step.
    pub lr: f32,
    /// Initial `(N_g, N_c)` grid (must fit the healthy shape).
    pub grid: ClusterConfig,
    /// Iterations to train.
    pub iters: usize,
    /// Checkpoint cadence in iterations (≥ 1).
    pub checkpoint_every: usize,
    /// Nominal virtual cycles one healthy iteration takes.
    pub cycles_per_iter: u64,
    /// Fixed detect + restore cost charged per rollback, in cycles.
    pub restore_cycles: u64,
}

impl ResilienceConfig {
    /// Small-grid defaults used by tests and the CLI smoke run.
    pub fn small(iters: usize) -> Self {
        ResilienceConfig {
            lr: 0.1,
            grid: ClusterConfig::new(4, 2),
            iters,
            checkpoint_every: 2,
            cycles_per_iter: 10_000,
            restore_cycles: 2_000,
        }
    }

    /// Virtual horizon of the fault-free run (for laying out plans).
    pub fn horizon(&self) -> u64 {
        self.cycles_per_iter * self.iters as u64
    }
}

/// What a resilient run did and what it cost.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Per-iteration batch losses (replayed iterations hold the replayed
    /// values).
    pub losses: Vec<f64>,
    /// Virtual cycles the faulty run took.
    pub final_clock: u64,
    /// Virtual cycles the fault-free run would take.
    pub fault_free_clock: u64,
    /// Fault events injected (events past the final clock stay pending).
    pub events_injected: u64,
    /// Plan events that never fired because the run ended first.
    pub events_pending: usize,
    /// Checkpoints written (including the initial one).
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Iterations replayed across all rollbacks.
    pub replayed_iterations: u64,
    /// Cycles spent restoring and replaying.
    pub recovery_cycles: u64,
    /// Cycles lost to host-link outages.
    pub stall_cycles: u64,
    /// Extra ring hops per lap charged after reroutes.
    pub extra_ring_hops: u64,
    /// The grid training ended on.
    pub final_grid: ClusterConfig,
    /// `true` when a worker loss remapped the grid (bit-identity to the
    /// fault-free run is void; convergence-tolerance checks still hold).
    pub grid_changed: bool,
    /// Rendered [`checkpoint_net`] document of the final state — compare
    /// these strings to assert bit-identical outcomes.
    pub final_checkpoint: String,
    /// The same document for the fault-free run of the same net, data and
    /// config (forked at the first weight- or grid-touching event).
    pub fault_free_checkpoint: String,
}

impl ResilienceReport {
    /// Wall-clock inflation vs. the fault-free run (1.0 = no faults).
    pub fn slowdown(&self) -> f64 {
        self.final_clock as f64 / self.fault_free_clock.max(1) as f64
    }
}

/// Runs `cfg.iters` SGD steps of `net` on `(x, targets)` under `plan`,
/// recovering from every fault. Metrics land in `obs.metrics` (the
/// `fault.*` keys) and every fault/recovery episode becomes a span on a
/// `fault` trace track; iterations land on a `train` track.
///
/// Errors if the grid does not fit the shape or a fault partitions the
/// network beyond recovery.
pub fn train_resilient(
    net: &mut WinogradNet,
    x: &Tensor4,
    targets: &[f32],
    shape: GridShape,
    plan: &FaultPlan,
    cfg: &ResilienceConfig,
    obs: &mut Observer,
) -> Result<ResilienceReport, String> {
    if cfg.grid.workers() != shape.workers() {
        return Err(format!(
            "grid {} covers {} workers but the shape has {}",
            cfg.grid,
            cfg.grid.workers(),
            shape.workers()
        ));
    }
    if cfg.checkpoint_every == 0 || cfg.iters == 0 {
        return Err("iters and checkpoint_every must be >= 1".into());
    }
    let params = NocParams::paper();
    let healthy = shape.build();
    let t2 = net.stages()[0].conv.transform().t().pow(2);
    let batch = targets.len();

    let fault_track = obs.trace.track("fault");
    let train_track = obs.trace.track("train");

    let mut state = FaultState::default();
    let mut cur_grid = cfg.grid;
    let mut grid_changed = false;
    let mut extra_hops: u64 = 0;
    let mut clock: u64 = 0;
    let mut losses = vec![0.0f64; cfg.iters];
    let mut report_rollbacks = 0u64;
    let mut report_replayed = 0u64;
    let mut report_recovery = 0u64;
    let mut report_stalls = 0u64;
    let mut report_injected = 0u64;
    let mut checkpoints = 0u64;

    // Cost of one iteration under the current degradation: nominal time,
    // scaled by the worst straggler, plus the reroute hop penalty.
    let iter_cycles = |state: &FaultState, extra_hops: u64| -> u64 {
        let base = cfg.cycles_per_iter as f64 * state.max_slowdown();
        base.ceil() as u64 + extra_hops * params.hop_latency()
    };

    // Initial checkpoint: iteration 0, pristine weights.
    let mut ckpt_text = checkpoint_net(0, net).render();
    let mut ckpt_iter = 0usize;
    checkpoints += 1;
    obs.metrics.inc(MetricKey::FaultCheckpoints, 1);

    let events = plan.events();
    let mut cursor = 0usize;
    // The fault-free run, forked before the first event that touches the
    // weights or the grid, with the steps it has done.
    let mut fork: Option<(WinogradNet, usize)> = None;

    for it in 0..cfg.iters {
        let t0 = clock;
        losses[it] = net.train_step_with(x, targets, cfg.lr, Some(cur_grid), &ParPool::serial());
        clock += iter_cycles(&state, extra_hops);
        obs.trace.span(train_track, "train", "iter", t0, clock);

        // Drain every event whose cycle has passed; the cursor guarantees
        // exactly-once processing even when recovery advances the clock
        // over later events.
        while cursor < events.len() && events[cursor].0 < clock {
            let (ev_cycle, ev) = &events[cursor];
            cursor += 1;
            report_injected += 1;
            obs.metrics.inc(MetricKey::FaultEventsInjected, 1);
            if fork.is_none() && ev.is_disruptive() {
                fork = Some((net.clone(), it + 1));
            }
            state.apply(ev);

            // Link and worker loss and bit flips roll back and replay;
            // stragglers and host flaps only cost time.
            let rolls_back = match ev {
                FaultEvent::LinkDown { .. } | FaultEvent::WorkerDown { .. } => {
                    let degraded = healthy.degrade(&state.dead_links, &state.dead_workers)?;
                    if let FaultEvent::WorkerDown { .. } = ev {
                        obs.metrics.inc(MetricKey::FaultWorkersLost, 1);
                        let alive = degraded.alive_workers();
                        cur_grid = degraded_grid(alive, t2, batch)
                            .ok_or_else(|| format!("no grid fits {alive} survivors"))?;
                        grid_changed = true;
                    } else {
                        obs.metrics.inc(MetricKey::FaultLinksFailed, 1);
                    }
                    // Re-form the rings and charge the documented hop
                    // penalty to every subsequent iteration. The penalty
                    // is computed on the nominal grid (which covers the
                    // full machine); after worker loss the re-formed rings
                    // simply drop the dead members.
                    let mapping = DegradedMapping::new(&healthy, &degraded, cfg.grid)?;
                    let new_extra = mapping.max_extra_hops() as u64;
                    if new_extra > extra_hops {
                        obs.metrics
                            .inc(MetricKey::FaultExtraRingHops, new_extra - extra_hops);
                        extra_hops = new_extra;
                    }
                    obs.metrics.inc(MetricKey::FaultReroutes, 1);
                    true
                }
                FaultEvent::BitFlip { stage, index, bit } => {
                    flip_weight_bit(net, *stage, *index, *bit);
                    obs.metrics.inc(MetricKey::FaultBitFlipsDetected, 1);
                    true
                }
                FaultEvent::Straggler { .. } => {
                    // Already folded into `state`; it slows every
                    // subsequent iteration via `iter_cycles`.
                    false
                }
                FaultEvent::HostLinkFlap { down_for, .. } => {
                    // Rings stitched through the host stall for the
                    // outage; FBFLY-only grids ride it out.
                    if cur_grid.host_traversals(shape.group_size) > 0 {
                        clock += down_for;
                        report_stalls += down_for;
                    }
                    false
                }
            };
            if rolls_back {
                let spent = rollback_and_replay(
                    net,
                    x,
                    targets,
                    cfg,
                    cur_grid,
                    &state,
                    extra_hops,
                    &ckpt_text,
                    ckpt_iter,
                    it,
                    &mut losses,
                    &mut report_replayed,
                    &iter_cycles,
                )?;
                clock += spent;
                report_rollbacks += 1;
                report_recovery += spent;
                record_recovery(obs, spent);
            }
            obs.trace.span(
                fault_track,
                "fault",
                ev.kind(),
                *ev_cycle,
                clock.max(ev_cycle + 1),
            );
        }

        // Checkpoint cadence (after event handling, so the checkpoint
        // always holds post-recovery state).
        if (it + 1) % cfg.checkpoint_every == 0 {
            ckpt_text = checkpoint_net((it + 1) as u64, net).render();
            ckpt_iter = it + 1;
            checkpoints += 1;
            obs.metrics.inc(MetricKey::FaultCheckpoints, 1);
        }
    }

    let final_checkpoint = checkpoint_net(cfg.iters as u64, net).render();
    let fault_free_checkpoint = match fork {
        None => final_checkpoint.clone(),
        Some((mut clean, done)) => {
            for _ in done..cfg.iters {
                clean.train_step_with(x, targets, cfg.lr, Some(cfg.grid), &ParPool::serial());
            }
            checkpoint_net(cfg.iters as u64, &clean).render()
        }
    };

    obs.metrics.inc(MetricKey::FaultRollbacks, report_rollbacks);
    obs.metrics
        .inc(MetricKey::FaultReplayedIterations, report_replayed);
    obs.metrics
        .inc(MetricKey::FaultRecoveryCycles, report_recovery);

    Ok(ResilienceReport {
        losses,
        final_clock: clock,
        fault_free_clock: cfg.horizon(),
        events_injected: report_injected,
        events_pending: events.len() - cursor,
        checkpoints,
        rollbacks: report_rollbacks,
        replayed_iterations: report_replayed,
        recovery_cycles: report_recovery,
        stall_cycles: report_stalls,
        extra_ring_hops: extra_hops,
        final_grid: cur_grid,
        grid_changed,
        final_checkpoint,
        fault_free_checkpoint,
    })
}

/// Restores the last checkpoint and replays `ckpt_iter..=it` on the
/// current grid; returns the cycles spent (restore + replays).
#[allow(clippy::too_many_arguments)]
fn rollback_and_replay(
    net: &mut WinogradNet,
    x: &Tensor4,
    targets: &[f32],
    cfg: &ResilienceConfig,
    grid: ClusterConfig,
    state: &FaultState,
    extra_hops: u64,
    ckpt_text: &str,
    ckpt_iter: usize,
    it: usize,
    losses: &mut [f64],
    replayed: &mut u64,
    iter_cycles: &dyn Fn(&FaultState, u64) -> u64,
) -> Result<u64, String> {
    let doc = json::parse(ckpt_text).map_err(|e| format!("checkpoint parse: {e}"))?;
    let (saved_iter, restored) = restore_net(&doc)?;
    debug_assert_eq!(saved_iter as usize, ckpt_iter);
    net.clone_from(&restored);
    let mut spent = cfg.restore_cycles;
    for loss in losses.iter_mut().take(it + 1).skip(ckpt_iter) {
        *loss = net.train_step_with(x, targets, cfg.lr, Some(grid), &ParPool::serial());
        spent += iter_cycles(state, extra_hops);
        *replayed += 1;
    }
    Ok(spent)
}

/// Flips one bit of the Winograd-domain weights in place (the injected
/// DRAM corruption). Indices wrap so any `(stage, index, bit)` is valid.
fn flip_weight_bit(net: &mut WinogradNet, stage: usize, index: usize, bit: u8) {
    let depth = net.depth();
    let conv = &mut net.stages_mut()[stage % depth].conv;
    let data = &mut conv.weights_mut().data;
    let i = index % data.len();
    data[i] = f32::from_bits(data[i].to_bits() ^ (1u32 << (bit % 32)));
}

fn record_recovery(obs: &mut Observer, cycles: u64) {
    obs.metrics
        .observe(MetricKey::HistRecoveryCycles, cycles as f64);
}

/// Builds the deterministic dataset the resilience CLI and tests train
/// on: a two-class separable batch, seeded.
pub fn demo_dataset(seed: u64, batch: usize) -> (Tensor4, Vec<f32>) {
    use wmpt_tensor::{DataGen, Shape4};
    let mut g = DataGen::new(seed);
    let mut x = Tensor4::zeros(Shape4::new(batch, 2, 8, 8));
    let mut t = Vec::with_capacity(batch);
    for b in 0..batch {
        let cls = if b % 2 == 0 { 1.0f32 } else { -1.0 };
        t.push(cls);
        for c in 0..2 {
            for h in 0..8 {
                for w in 0..8 {
                    x[(b, c, h, w)] = g.normal(0.3 * cls as f64, 1.0) as f32;
                }
            }
        }
    }
    (x, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Scenario;

    fn run(plan: &FaultPlan, iters: usize) -> (ResilienceReport, WinogradNet) {
        let (x, t) = demo_dataset(9, 8);
        let mut net = WinogradNet::new(44, 2, &[4], true);
        let cfg = ResilienceConfig::small(iters);
        let mut obs = Observer::new();
        let report = train_resilient(&mut net, &x, &t, GridShape::small(), plan, &cfg, &mut obs)
            .expect("resilient run");
        (report, net)
    }

    #[test]
    fn fault_free_run_has_no_recovery_overhead() {
        let cfg = ResilienceConfig::small(4);
        let (report, _) = run(&FaultPlan::empty(cfg.horizon()), 4);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.final_clock, report.fault_free_clock);
        assert_eq!(report.slowdown(), 1.0);
        assert!(!report.grid_changed);
    }

    #[test]
    fn straggler_slows_the_clock_without_rollbacks() {
        let cfg = ResilienceConfig::small(6);
        let plan = FaultPlan::scenario(Scenario::Straggler, GridShape::small(), 3, cfg.horizon());
        let (report, _) = run(&plan, 6);
        assert_eq!(report.rollbacks, 0);
        assert!(report.slowdown() > 1.0, "slowdown {}", report.slowdown());
    }

    #[test]
    fn bit_flip_is_detected_and_rolled_back() {
        let cfg = ResilienceConfig::small(6);
        let plan = FaultPlan::scenario(Scenario::BitFlip, GridShape::small(), 5, cfg.horizon());
        let (faulty, _) = run(&plan, 6);
        let (clean, _) = run(&FaultPlan::empty(cfg.horizon()), 6);
        assert_eq!(faulty.rollbacks, 1);
        assert!(faulty.replayed_iterations >= 1);
        // The corrupted weight was rolled back: outcomes are bit-identical.
        assert_eq!(faulty.final_checkpoint, clean.final_checkpoint);
        for (a, b) in clean.losses.iter().zip(&faulty.losses) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn worker_loss_remaps_the_grid_and_still_trains() {
        let cfg = ResilienceConfig::small(8);
        let plan = FaultPlan::scenario(Scenario::DeadWorker, GridShape::small(), 2, cfg.horizon());
        let (report, _) = run(&plan, 8);
        assert!(report.grid_changed);
        assert!(report.final_grid.workers() < 8);
        assert!(report.rollbacks >= 1);
        // Still converging: late loss beats the first one.
        assert!(report.losses[7] < report.losses[0]);
    }

    #[test]
    fn oversized_grid_is_rejected() {
        let (x, t) = demo_dataset(1, 4);
        let mut net = WinogradNet::new(1, 2, &[4], true);
        let mut cfg = ResilienceConfig::small(2);
        cfg.grid = ClusterConfig::new(16, 16);
        let mut obs = Observer::new();
        let err = train_resilient(
            &mut net,
            &x,
            &t,
            GridShape::small(),
            &FaultPlan::empty(1000),
            &cfg,
            &mut obs,
        );
        assert!(err.is_err());
    }
}
