//! The fault-free reference a resilient run forks off is exact: for every
//! scenario, plan seed, iteration count and checkpoint cadence,
//! `ResilienceReport::fault_free_checkpoint` is byte for byte the final
//! checkpoint of an independent fault-free run of a fresh net on the same
//! data and config.
//!
//! Cases run on the `wmpt-check` harness; failures shrink toward scenario
//! 0, seed 0, one iteration and a one-iteration cadence, and replay via
//! `WMPT_CHECK_REPLAY`.

use wmpt_check::check;
use wmpt_core::WinogradNet;
use wmpt_fault::{demo_dataset, train_resilient, FaultPlan, GridShape, ResilienceConfig, Scenario};
use wmpt_obs::Observer;

#[test]
fn forked_reference_equals_an_independent_fault_free_run() {
    check(
        "forked_reference_equals_an_independent_fault_free_run",
        |c| {
            let sc = Scenario::ALL[c.size(0, Scenario::ALL.len() - 1)];
            let plan_seed = c.u64_in(0, 1 << 16);
            let net_seed = c.u64_in(0, 1 << 16);
            let data_seed = c.u64_in(0, 1 << 16);
            let mut cfg = ResilienceConfig::small(c.size(1, 8));
            cfg.checkpoint_every = c.size(1, 3);
            let shape = GridShape::small();
            let (x, t) = demo_dataset(data_seed, 8);
            let run = |plan: &FaultPlan| {
                let mut net = WinogradNet::new(net_seed, 2, &[4], true);
                let mut obs = Observer::new();
                train_resilient(&mut net, &x, &t, shape, plan, &cfg, &mut obs)
            };
            let plan = FaultPlan::scenario(sc, shape, plan_seed, cfg.horizon());
            let what = format!(
                "{sc} plan seed {plan_seed}, net seed {net_seed}, data seed {data_seed}, \
             {} iters, checkpoint every {}",
                cfg.iters, cfg.checkpoint_every
            );
            let faulty = run(&plan).unwrap_or_else(|e| panic!("{what}: {e}"));
            let clean = run(&FaultPlan::empty(cfg.horizon())).expect("fault-free run");
            assert_eq!(
                faulty.fault_free_checkpoint, clean.final_checkpoint,
                "forked reference diverged: {what}"
            );
            assert_eq!(
                clean.fault_free_checkpoint, clean.final_checkpoint,
                "a run without events is its own reference: {what}"
            );
        },
    );
}
