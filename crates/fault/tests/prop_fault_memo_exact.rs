//! A resilient run served from the process-wide fault-free trajectory is
//! exact: for every scenario (and a plan without events), plan seed,
//! iteration count and checkpoint cadence, `train_resilient` returns the
//! same `ResilienceReport` — every loss bit, clock, counter and both
//! checkpoints — leaves the same net, and renders the same metrics and
//! chrome trace as a frozen copy of the loop that trained every step
//! itself (forking the fault-free reference at the first disruptive
//! event).
//!
//! The cases share one process, so the memo is cold for the first case
//! and warm or partly warm after it; every case also runs twice, the
//! second time on a warm trajectory. The cases interleave keys that differ
//! only in the learning rate, in one target, or in one weight bit, so a
//! key that dropped one of them would hand a run the wrong trajectory.
//!
//! Two thirds of the plans merge one or two more scenario plans into the
//! case's, so events land after a worker loss has remapped the grid —
//! link-downs, flips and second worker-downs on the new grid, also past
//! checkpoints written on it. A quarter
//! of the plans also kill a node the grid does not have; the run fails
//! there, and the net it leaves must hold the same weights.
//!
//! Cases run on the `wmpt-check` harness; failures shrink toward the
//! single-link scenario, seed 0, one iteration, a one-iteration cadence
//! and no merged plan, and replay via `WMPT_CHECK_REPLAY`.

use wmpt_check::check;
use wmpt_core::{checkpoint_net, degraded_grid, restore_net, WinogradNet};
use wmpt_fault::{
    demo_dataset, train_resilient, FaultEvent, FaultPlan, FaultState, GridShape, ResilienceConfig,
    ResilienceReport, Scenario,
};
use wmpt_noc::{DegradedMapping, NocParams};
use wmpt_obs::{json, MetricKey, Observer};
use wmpt_par::ParPool;
use wmpt_tensor::Tensor4;

#[test]
fn memo_served_run_equals_the_frozen_loop() {
    check("memo_served_run_equals_the_frozen_loop", |c| {
        let scenario = c.size(0, Scenario::ALL.len());
        let plan_seed = c.u64_in(0, 1 << 16);
        let mut cfg = ResilienceConfig::small(c.size(1, 8));
        cfg.checkpoint_every = c.size(1, 3);
        let variant = c.size(0, 3);
        let shape = GridShape::small();

        // The served request's net and batch, or a key one field away.
        let (x, mut t) = demo_dataset(77, 8);
        let mut net = WinogradNet::new(55, 2, &[4], true);
        match variant {
            1 => cfg.lr = 0.05,
            2 => t[5] = -t[5],
            3 => {
                let w = &mut net.stages_mut()[0].conv.weights_mut().data[7];
                *w = f32::from_bits(w.to_bits() ^ 1);
            }
            _ => {}
        }
        let mut plan = match Scenario::ALL.get(scenario) {
            Some(&sc) => FaultPlan::scenario(sc, shape, plan_seed, cfg.horizon()),
            None => FaultPlan::empty(cfg.horizon()),
        };
        // Up to two more scenarios merged in: link-downs, flips and second
        // worker-downs after a worker loss has remapped the grid. Recovery
        // pushes the clock past most of the case's horizon, so the merged
        // plans spread over up to twice that horizon.
        for _ in 0..c.size(0, 2) {
            let sc = Scenario::ALL[c.size(0, Scenario::ALL.len() - 1)];
            let horizon = c.u64_in(cfg.horizon() / 2, 2 * cfg.horizon());
            let more = FaultPlan::scenario(sc, shape, c.u64_in(0, 1 << 16), horizon);
            let events = [plan.events(), more.events()].concat();
            plan = FaultPlan::new(plan.horizon, events);
        }
        // Sometimes a worker-down of a node the grid does not have: the run
        // fails there, and the net it leaves holds the live weights.
        if c.size(0, 3) == 0 {
            let mut events = plan.events().to_vec();
            let bad = FaultEvent::WorkerDown { node: 100 };
            events.push((c.u64_in(0, cfg.horizon() - 1), bad));
            plan = FaultPlan::new(plan.horizon, events);
        }
        let what = format!(
            "plan {plan:?}, variant {variant}, {} iters, checkpoint every {}",
            cfg.iters, cfg.checkpoint_every
        );

        let mut want_net = net.clone();
        let mut want_obs = Observer::new();
        let want = frozen_train_resilient(&mut want_net, &x, &t, shape, &plan, &cfg, &mut want_obs);
        for pass in ["first", "warm"] {
            let mut got_net = net.clone();
            let mut got_obs = Observer::new();
            let got = train_resilient(&mut got_net, &x, &t, shape, &plan, &cfg, &mut got_obs);
            let what = format!("{pass} run, {what}");
            match (&got, &want) {
                (Ok(got), Ok(want)) => assert_same_report(got, want, &what),
                (Err(got), Err(want)) => assert_eq!(got, want, "error: {what}"),
                _ => panic!("{what}: got {got:?}, want {want:?}"),
            }
            assert_eq!(
                checkpoint_net(0, &got_net).render(),
                checkpoint_net(0, &want_net).render(),
                "net left behind: {what}"
            );
            assert_eq!(
                got_obs.metrics.to_json().render(),
                want_obs.metrics.to_json().render(),
                "metrics: {what}"
            );
            assert_eq!(
                got_obs.trace.chrome_trace().render(),
                want_obs.trace.chrome_trace().render(),
                "chrome trace: {what}"
            );
        }
    });
}

fn assert_same_report(got: &ResilienceReport, want: &ResilienceReport, what: &str) {
    let bits = |r: &ResilienceReport| r.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "losses: {what}");
    let counters = |r: &ResilienceReport| {
        [
            r.final_clock,
            r.fault_free_clock,
            r.events_injected,
            r.events_pending as u64,
            r.checkpoints,
            r.rollbacks,
            r.replayed_iterations,
            r.recovery_cycles,
            r.stall_cycles,
            r.extra_ring_hops,
        ]
    };
    assert_eq!(counters(got), counters(want), "clocks and counters: {what}");
    assert_eq!(got.final_grid, want.final_grid, "final grid: {what}");
    assert_eq!(got.grid_changed, want.grid_changed, "grid changed: {what}");
    assert_eq!(
        got.final_checkpoint, want.final_checkpoint,
        "final checkpoint: {what}"
    );
    assert_eq!(
        got.fault_free_checkpoint, want.fault_free_checkpoint,
        "fault-free checkpoint: {what}"
    );
}

/// Frozen copy of `train_resilient` as it was before the fault-free
/// trajectory was memoized: every step trained here, the reference forked
/// off just before the first disruptive event and trained to the end.
fn frozen_train_resilient(
    net: &mut WinogradNet,
    x: &Tensor4,
    targets: &[f32],
    shape: GridShape,
    plan: &FaultPlan,
    cfg: &ResilienceConfig,
    obs: &mut Observer,
) -> Result<ResilienceReport, String> {
    assert_eq!(cfg.grid.workers(), shape.workers());
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
    let (mut rollbacks, mut replayed, mut recovery, mut stalls, mut injected) = (0, 0, 0, 0, 0);
    let mut checkpoints = 0u64;

    let iter_cycles = |state: &FaultState, extra_hops: u64| -> u64 {
        let base = cfg.cycles_per_iter as f64 * state.max_slowdown();
        base.ceil() as u64 + extra_hops * params.hop_latency()
    };

    let mut ckpt_text = checkpoint_net(0, net).render();
    let mut ckpt_iter = 0usize;
    checkpoints += 1;
    obs.metrics.inc(MetricKey::FaultCheckpoints, 1);

    let events = plan.events();
    let mut cursor = 0usize;
    let mut fork: Option<(WinogradNet, usize)> = None;

    for it in 0..cfg.iters {
        let t0 = clock;
        losses[it] = net.train_step_with(x, targets, cfg.lr, Some(cur_grid), &ParPool::serial());
        clock += iter_cycles(&state, extra_hops);
        obs.trace.span(train_track, "train", "iter", t0, clock);

        while cursor < events.len() && events[cursor].0 < clock {
            let (ev_cycle, ev) = &events[cursor];
            cursor += 1;
            injected += 1;
            obs.metrics.inc(MetricKey::FaultEventsInjected, 1);
            let disruptive = matches!(
                ev,
                FaultEvent::LinkDown { .. }
                    | FaultEvent::WorkerDown { .. }
                    | FaultEvent::BitFlip { .. }
            );
            if fork.is_none() && disruptive {
                fork = Some((net.clone(), it + 1));
            }
            state.apply(ev);

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
                    let depth = net.depth();
                    let data = &mut net.stages_mut()[stage % depth].conv.weights_mut().data;
                    let i = index % data.len();
                    data[i] = f32::from_bits(data[i].to_bits() ^ (1u32 << (bit % 32)));
                    obs.metrics.inc(MetricKey::FaultBitFlipsDetected, 1);
                    true
                }
                FaultEvent::Straggler { .. } => false,
                FaultEvent::HostLinkFlap { down_for, .. } => {
                    if cur_grid.host_traversals(shape.group_size) > 0 {
                        clock += down_for;
                        stalls += down_for;
                    }
                    false
                }
            };
            if rolls_back {
                let doc = json::parse(&ckpt_text).map_err(|e| format!("checkpoint parse: {e}"))?;
                let (_, restored) = restore_net(&doc)?;
                net.clone_from(&restored);
                let mut spent = cfg.restore_cycles;
                for loss in losses.iter_mut().take(it + 1).skip(ckpt_iter) {
                    *loss =
                        net.train_step_with(x, targets, cfg.lr, Some(cur_grid), &ParPool::serial());
                    spent += iter_cycles(&state, extra_hops);
                    replayed += 1;
                }
                clock += spent;
                rollbacks += 1;
                recovery += spent;
                obs.metrics
                    .observe(MetricKey::HistRecoveryCycles, spent as f64);
            }
            obs.trace.span(
                fault_track,
                "fault",
                ev.kind(),
                *ev_cycle,
                clock.max(ev_cycle + 1),
            );
        }

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

    obs.metrics.inc(MetricKey::FaultRollbacks, rollbacks);
    obs.metrics
        .inc(MetricKey::FaultReplayedIterations, replayed);
    obs.metrics.inc(MetricKey::FaultRecoveryCycles, recovery);

    Ok(ResilienceReport {
        losses,
        final_clock: clock,
        fault_free_clock: cfg.horizon(),
        events_injected: injected,
        events_pending: events.len() - cursor,
        checkpoints,
        rollbacks,
        replayed_iterations: replayed,
        recovery_cycles: recovery,
        stall_cycles: stalls,
        extra_ring_hops: extra_hops,
        final_grid: cur_grid,
        grid_changed,
        final_checkpoint,
        fault_free_checkpoint,
    })
}
