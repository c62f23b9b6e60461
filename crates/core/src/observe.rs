//! Observed full-system simulation: the same closed-form results as
//! [`crate::exec`], plus structured metrics and a span trace of the
//! iteration suitable for Chrome-trace export.
//!
//! [`record_layer`] emits one layer's spans and metrics from a finished
//! [`LayerResult`]: observation only *reads* the breakdown the execution
//! carries on the result, so nothing is simulated twice, and
//! `simulate_layer(..)` and `simulate_layer_observed(..)` (which runs the
//! plain simulation, then records it) return the same value by
//! construction.
//!
//! # Trace layout
//!
//! | track        | category     | spans |
//! |--------------|--------------|-------|
//! | `iter`       | `layer`      | `forward` and `backward` phase windows; their union tiles `[0, total_cycles)` exactly, so the `layer` rollup reconciles with the headline cycle count by construction. |
//! | `worker0`    | `ndp`        | compute stages (`tf_in`, `gemm_f`, …) tiling each phase window proportionally to their busy cycles (resources overlap in reality; spans show shares). |
//! | `noc`        | `noc`        | tile `tile_scatter` / `tile_gather` sub-phases at their modeled durations. |
//! | `noc`        | `idle`       | `noc_idle` filler from the end of a phase's tile transfers to the end of its window (absent when the transfers reach or overflow the window). |
//! | `collective` | `collective` | `reduce` and `broadcast` halves of the weight collective. |
//! | `dram0`      | `dram`       | `stall` tail of each phase window: cycles the DRAM stream overhangs compute in the pipelined cost model (absent for compute-bound phases). |

use wmpt_ndp::{
    dram_stall_cycles, record_dram_profile, record_utilization, record_worker_cost, DramConfig,
};
use wmpt_ndp::{TaskGraph, TaskKind};
use wmpt_noc::{all_to_all_flows, record_collective, record_flows, tile_pair_bytes};
use wmpt_obs::{MetricKey, MetricRegistry, Observer, SpanSink, TrackId};

use crate::config::SystemConfig;
use crate::exec::{simulate_layer, LayerResult, SystemModel};
use wmpt_models::ConvLayerSpec;

/// Observed [`crate::exec::simulate_layer`]: the same search, then spans
/// and metrics for the winning configuration only (candidates are not
/// observed, like the paper's offline dynamic-clustering decision).
pub fn simulate_layer_observed<S: SpanSink>(
    model: &SystemModel,
    layer: &ConvLayerSpec,
    sys: SystemConfig,
    obs: &mut Observer<S>,
) -> LayerResult {
    let res = simulate_layer(model, layer, sys);
    record_layer(model, &res, &mut obs.trace, &mut obs.metrics);
    res
}

/// Emits the spans and metrics of one simulated layer: spans into
/// `trace`, starting at its current `layer`-category extent (so
/// successive layers of a network lay out back to back on the
/// timeline), and metrics into `metrics`. The result is only read, so
/// any [`LayerResult`] — from [`simulate_layer`],
/// [`crate::exec::simulate_layer_with`] or a pool of them — can be
/// recorded after the fact.
pub fn record_layer<S: SpanSink>(
    model: &SystemModel,
    res: &LayerResult,
    trace: &mut S,
    metrics: &mut MetricRegistry,
) {
    let det = &res.detail;
    let base = trace.category_cycles("layer");
    let fwd = res.forward.cycles.round() as u64;
    let total = res.total_cycles().round() as u64;

    // Phase windows: tile [base, base + total) exactly.
    let t_iter = trace.track("iter");
    trace.span(t_iter, "layer", "forward", base, base + fwd);
    trace.span(t_iter, "layer", "backward", base + fwd, base + total);

    // NDP compute stages, proportional within each phase window.
    let t_worker = trace.track("worker0");
    lay_stages(trace, t_worker, base, fwd, &det.fwd_stages);
    lay_stages(trace, t_worker, base + fwd, total - fwd, &det.bwd_stages);

    // DRAM-stall tails: the overhang of the DRAM stream past compute in
    // the pipelined cost model, placed at the end of each phase window
    // (the stream drains last). Clipped to the window — phase cycles can
    // exceed the worker-local pipeline when communication dominates.
    let t_dram = trace.track("dram0");
    for (cost, win_start, win) in [
        (&det.fwd_cost, base, fwd),
        (&det.bwd_cost, base + fwd, total - fwd),
    ] {
        let stall = dram_stall_cycles(&model.ndp, cost).min(win);
        if stall > 0 {
            let end = win_start + win;
            trace.span(t_dram, "dram", "stall", end - stall, end);
        }
    }

    // Tile-transfer sub-phases at their modeled durations, back to back
    // from each phase's start (the model runs scatter then gather). When
    // the transfers end short of the phase window, the remainder is an
    // explicit `idle` span so NoC busy/idle accounting reads off the
    // trace directly; they can also overflow the window (per-class
    // cycles are modeled pre-overlap), in which case there is no idle.
    let t_noc = trace.track("noc");
    let mut cursor = base;
    for ph in &det.fwd_comm {
        let end = cursor + ph.cycles.round() as u64;
        trace.span(t_noc, "noc", ph.class.name(), cursor, end);
        cursor = end;
    }
    if cursor < base + fwd {
        trace.span(t_noc, "idle", "noc_idle", cursor, base + fwd);
    }
    cursor = base + fwd;
    for ph in &det.bwd_comm {
        let end = cursor + ph.cycles.round() as u64;
        trace.span(t_noc, "noc", ph.class.name(), cursor, end);
        cursor = end;
    }
    if cursor < base + total {
        trace.span(t_noc, "idle", "noc_idle", cursor, base + total);
    }

    // Weight collective after the backward tile transfer.
    let c = res.collective;
    let t_coll = trace.track("collective");
    let half = (c.cycles / 2.0).round() as u64;
    trace.span(t_coll, "collective", "reduce", cursor, cursor + half);
    trace.span(
        t_coll,
        "collective",
        "broadcast",
        cursor + half,
        cursor + 2 * half,
    );
    record_collective(metrics, &model.noc, c.msg_bytes, c.ring_len, c.cycles);

    // ---- metrics ----
    let reg = metrics;
    reg.inc(MetricKey::TotalCycles, total);
    reg.inc(
        MetricKey::ComputeCycles,
        (res.forward.compute_cycles + res.backward.compute_cycles).round() as u64,
    );
    reg.inc(
        MetricKey::CommCycles,
        (res.forward.comm_cycles + res.backward.comm_cycles).round() as u64,
    );
    reg.observe(MetricKey::HistPhaseCycles, res.forward.cycles);
    reg.observe(MetricKey::HistPhaseCycles, res.backward.cycles);

    let combined = det.fwd_cost.add(&det.bwd_cost);
    record_worker_cost(reg, &det.fwd_cost);
    record_worker_cost(reg, &det.bwd_cost);
    record_utilization(reg, &combined, total);

    reg.inc(MetricKey::TileBytesFwdTotal, det.tile_bytes_fwd_total);
    reg.inc(MetricKey::TileBytesSavedGather, det.tile_bytes_saved_gather);
    reg.inc(
        MetricKey::TileBytesSavedScatter,
        det.tile_bytes_saved_scatter,
    );

    // Per-class flit/packet accounting of the tile transfers.
    if let Some(cluster) = res.cluster.cluster_topology() {
        let nodes: Vec<usize> = (0..cluster.len()).collect();
        for ph in det.fwd_comm.iter().chain(&det.bwd_comm) {
            let pair = tile_pair_bytes(ph.payload_bytes, res.cluster.n_g);
            if pair == 0 {
                continue;
            }
            let flows = all_to_all_flows(&nodes, pair);
            record_flows(reg, &model.noc, &cluster, &flows, ph.class);
            reg.observe(MetricKey::HistTilePairBytes, pair as f64);
        }
    }

    // Row-buffer behaviour: stream a capped sample of the iteration's
    // per-worker DRAM traffic through the detailed FR-FCFS model.
    record_dram_profile(reg, DramConfig::hmc(), combined.dram_bytes);

    // Drive the per-phase resource pipelining through the event-driven
    // task scheduler (doubles as a kernel cross-check and feeds the
    // sim.events_* counters).
    for cost in [&det.fwd_cost, &det.bwd_cost] {
        let mut g = TaskGraph::new();
        g.add(TaskKind::Gemm, cost.systolic_cycles, &[]);
        g.add(TaskKind::Vector, cost.vector_cycles, &[]);
        g.add(TaskKind::Dma, cost.dram_cycles(&model.ndp), &[]);
        let s = g.execute();
        debug_assert_eq!(s.makespan(), cost.pipelined_cycles(&model.ndp));
        reg.inc(MetricKey::SimEventsPushed, s.events());
        reg.inc(MetricKey::SimEventsPopped, s.events());
    }
}

/// Observed [`crate::network_eval::simulate_network`]: per-layer spans
/// lay out back to back; metrics accumulate across layers.
pub fn simulate_network_observed<S: SpanSink>(
    model: &SystemModel,
    net: &wmpt_models::Network,
    sys: SystemConfig,
    obs: &mut Observer<S>,
) -> crate::network_eval::NetworkResult {
    let layers = net
        .layers
        .iter()
        .map(|l| simulate_layer_observed(model, l, sys, obs))
        .collect();
    crate::network_eval::NetworkResult {
        network: net.name.clone(),
        config: sys,
        layers,
    }
}

/// Tiles `[start, start + window)` with spans proportional to each
/// stage's busy cycles (stages overlap on distinct resources in reality;
/// the spans visualize their shares, and the phase window stays exact).
fn lay_stages<S: SpanSink>(
    trace: &mut S,
    track: TrackId,
    start: u64,
    window: u64,
    stages: &[(&'static str, f64)],
) {
    let sum: f64 = stages.iter().map(|(_, c)| c).sum();
    if sum <= 0.0 || window == 0 {
        return;
    }
    let mut t = start as f64;
    let mut prev = start;
    for (i, (name, cy)) in stages.iter().enumerate() {
        t += cy / sum * window as f64;
        let end = if i + 1 == stages.len() {
            start + window
        } else {
            t.round() as u64
        };
        if end > prev {
            trace.span(track, "ndp", name, prev, end);
            prev = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate_layer, simulate_layer_with};
    use wmpt_models::table2_layers;
    use wmpt_noc::ClusterConfig;
    use wmpt_obs::TrafficClass;

    #[test]
    fn observed_result_matches_unobserved() {
        let m = SystemModel::paper();
        let l = &table2_layers()[2];
        let mut obs = Observer::new();
        let r = simulate_layer_observed(&m, l, SystemConfig::WMpPD, &mut obs);
        let plain = simulate_layer(&m, l, SystemConfig::WMpPD);
        assert_eq!(r.total_cycles(), plain.total_cycles());
        assert_eq!(r.cluster, plain.cluster);
    }

    #[test]
    fn layer_rollup_reconciles_with_total_cycles() {
        let m = SystemModel::paper();
        let mut obs = Observer::new();
        let mut expect = 0.0;
        for l in table2_layers() {
            let r = simulate_layer_observed(&m, &l, SystemConfig::WMpD, &mut obs);
            expect += r.total_cycles();
        }
        let layer_cycles = obs.trace.category_cycles("layer") as f64;
        let err = (layer_cycles - expect).abs() / expect;
        assert!(
            err < 0.01,
            "rollup {layer_cycles} vs total {expect} ({err:.4})"
        );
    }

    #[test]
    fn spans_cover_three_subsystems() {
        let m = SystemModel::paper();
        let l = &table2_layers()[4];
        let mut obs = Observer::new();
        let r = simulate_layer_with(&m, l, SystemConfig::WMp, ClusterConfig::new(16, 16));
        record_layer(&m, &r, &mut obs.trace, &mut obs.metrics);
        for cat in ["layer", "ndp", "noc", "collective"] {
            assert!(
                obs.trace.spans().iter().any(|s| s.cat == cat),
                "missing category {cat}"
            );
        }
    }

    #[test]
    fn metrics_track_traffic_classes_and_dram() {
        let m = SystemModel::paper();
        let l = &table2_layers()[2];
        let mut obs = Observer::new();
        let r = simulate_layer_with(&m, l, SystemConfig::WMpP, ClusterConfig::new(16, 16));
        record_layer(&m, &r, &mut obs.trace, &mut obs.metrics);
        let reg = &obs.metrics;
        assert!(reg.counter(MetricKey::FlitsInjected(TrafficClass::TileScatter)) > 0);
        assert!(reg.counter(MetricKey::FlitsInjected(TrafficClass::Reduce)) > 0);
        assert!(reg.counter(MetricKey::DramRowHits) > 0);
        assert!(reg.counter(MetricKey::SystolicMacs) > 0);
        assert!(reg.counter(MetricKey::TileBytesSavedGather) > 0);
        assert!(reg.counter(MetricKey::SimEventsPushed) == reg.counter(MetricKey::SimEventsPopped));
        assert!(reg.counter(MetricKey::TotalCycles) > 0);
    }

    #[test]
    fn network_observation_accumulates_layers() {
        let m = SystemModel::paper_fp16();
        let net = wmpt_models::resnet34();
        let mut obs = Observer::new();
        let r = simulate_network_observed(&m, &net, SystemConfig::WMpPD, &mut obs);
        assert_eq!(r.layers.len(), net.layers.len());
        let layer_cycles = obs.trace.category_cycles("layer") as f64;
        let err = (layer_cycles - r.total_cycles()).abs() / r.total_cycles();
        assert!(err < 0.01, "network rollup err {err}");
    }
}
