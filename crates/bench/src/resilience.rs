//! Resilience under injected faults: steady-state slowdown as the fault
//! count grows, and the functional trainer's recovery behaviour per
//! scenario.
//!
//! Upper table: the `wmpt-fault` performance model on the paper's
//! 256-worker machine — faults accumulate (ring links die, workers die),
//! the optimizer remaps `(N_g, N_c)` onto the survivors, rings re-form
//! with their hop penalty, and the weight collective slows down.
//!
//! Lower table: each seeded scenario run end to end through
//! [`wmpt_fault::train_resilient`] on a small functional grid, reporting
//! rollbacks, replays, and recovery-cycle percentiles from the
//! `hist.recovery_cycles` histogram.

use wmpt_core::WinogradNet;
use wmpt_fault::{
    demo_dataset, iteration_under_faults, train_resilient, FaultEvent, FaultPlan, FaultState,
    GridShape, ResilienceConfig, Scenario,
};
use wmpt_noc::NocParams;
use wmpt_obs::{MetricKey, Observer};
use wmpt_tensor::Rng64;

use crate::{f, row};

/// Winograd-domain weight volume of the modelled layer (a late layer).
const WEIGHT_BYTES: u64 = 8 << 20;
/// Ring-link bandwidth in bytes/cycle (two bonded full-width links).
const RING_BW: f64 = 60.0;

/// A deterministic accumulated fault state with `k` faults: ring links
/// and workers die alternately, spread across groups.
fn fault_state(k: usize, shape: GridShape, seed: u64) -> FaultState {
    let mut rng = Rng64::new(seed);
    let mut st = FaultState::default();
    for i in 0..k {
        let g = rng.index(shape.groups);
        let p = rng.index(shape.group_size);
        let a = g * shape.group_size + p;
        if i % 2 == 0 {
            let b = g * shape.group_size + (p + 1) % shape.group_size;
            st.apply(&FaultEvent::LinkDown { a, b });
        } else {
            st.apply(&FaultEvent::WorkerDown { node: a });
        }
    }
    st
}

/// The resilience experiment (marker: "Resilience").
pub fn run() -> String {
    let mut out = String::from("Resilience: MPT under injected faults\n\n");

    // --- Steady-state slowdown vs fault count (paper machine). ---
    let shape = GridShape::paper();
    let params = NocParams::paper();
    out.push_str("slowdown vs fault rate (256 workers, late layer collective)\n");
    out.push_str(&row(
        "faults",
        &["alive", "grid", "extra hops", "rerouted", "slowdown"].map(String::from),
    ));
    for k in [0usize, 1, 2, 4, 8, 16] {
        let st = fault_state(k, shape, 0xBE4C + k as u64);
        let c = iteration_under_faults(shape, &st, &params, WEIGHT_BYTES, RING_BW, 16)
            .expect("model survives the fault set");
        out.push_str(&row(
            &k.to_string(),
            &[
                c.alive.to_string(),
                c.config.to_string(),
                c.extra_ring_hops.to_string(),
                c.rerouted_rings.to_string(),
                format!("{}x", f(c.slowdown())),
            ],
        ));
    }

    // --- Functional recovery per scenario (small grid, real SGD). ---
    let iters = 6;
    let cfg = ResilienceConfig::small(iters);
    let small = GridShape::small();
    let (x, t) = demo_dataset(77, 8);
    out.push_str("\nscenario recovery (8-worker functional grid, 6 iterations, seed 7)\n");
    out.push_str(&row(
        "scenario",
        &[
            "rollbacks",
            "replayed",
            "rec p50",
            "rec p95",
            "slowdown",
            "bit-identical",
        ]
        .map(String::from),
    ));
    for sc in Scenario::ALL {
        let plan = FaultPlan::scenario(sc, small, 7, cfg.horizon());
        let mut net = WinogradNet::new(55, 2, &[4], true);
        let mut obs = Observer::new();
        let rep =
            train_resilient(&mut net, &x, &t, small, &plan, &cfg, &mut obs).expect("scenario run");
        let (p50, p95) = obs
            .metrics
            .histogram(MetricKey::HistRecoveryCycles)
            .map(|h| (h.percentile(0.5), h.percentile(0.95)))
            .unwrap_or((0.0, 0.0));
        let identical = rep.final_checkpoint == rep.fault_free_checkpoint;
        assert_eq!(
            identical,
            sc.keeps_grid(),
            "{sc}: bit-identity must hold exactly for grid-preserving scenarios"
        );
        out.push_str(&row(
            sc.name(),
            &[
                rep.rollbacks.to_string(),
                rep.replayed_iterations.to_string(),
                f(p50),
                f(p95),
                format!("{}x", f(rep.slowdown())),
                identical.to_string(),
            ],
        ));
    }
    out.push_str(
        "\ngrid-preserving faults (link loss, bit flips, stragglers, host flaps) recover\n\
         bit-identically; worker loss remaps the grid and converges within tolerance\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_both_tables_and_monotone_slowdown() {
        let out = run();
        assert!(out.contains("Resilience"));
        assert!(out.contains("slowdown vs fault rate"));
        assert!(out.contains("scenario recovery"));
        for sc in Scenario::ALL {
            assert!(out.contains(sc.name()), "missing scenario {sc}");
        }
        // The fault-free row is the 1x baseline.
        let base = out.lines().find(|l| l.starts_with('0')).expect("k=0 row");
        assert!(base.contains("1.000x"), "baseline not 1x: {base}");
    }

    #[test]
    fn fault_states_are_deterministic_and_sized() {
        let shape = GridShape::paper();
        let a = fault_state(8, shape, 1);
        let b = fault_state(8, shape, 1);
        assert_eq!(a, b);
        assert_eq!(a.dead_links.len() + a.dead_workers.len(), 8);
    }
}
