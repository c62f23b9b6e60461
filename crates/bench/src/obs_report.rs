//! Machine-readable observability report (`BENCH_obs.json`).
//!
//! Runs one observed training iteration of a fixed VGG-like layer
//! (256→256 channels, 3×3 kernel, 28×28 maps) on a 16-worker system at
//! `(N_g, N_c) = (4, 4)` and serializes the per-phase cycle rollup, the
//! full metric registry, and the derived `wmpt-analyze` view (critical
//! path attribution + utilization). The fixed workload makes the file
//! diffable across commits: any change to the execution model shows up
//! as a numeric delta here — and `experiments --gate` turns that delta
//! into an exit code via the committed `baselines/`.

use wmpt_analyze::Analysis;
use wmpt_core::{record_layer, simulate_layer_with, LayerResult, SystemConfig, SystemModel};
use wmpt_models::ConvLayerSpec;
use wmpt_noc::ClusterConfig;
use wmpt_obs::json::{num, obj, s, Value};
use wmpt_obs::Observer;

/// The report's fixed workload.
pub fn obs_report_layer() -> ConvLayerSpec {
    ConvLayerSpec::new("vgg_conv4_2-like", 256, 256, 28, 28, 3)
}

/// The report's fixed configuration abbreviation.
const OBS_REPORT_SYS: SystemConfig = SystemConfig::WMpP;

/// The report's fixed worker count.
const OBS_REPORT_WORKERS: usize = 16;

/// Runs the fixed workload through an observed simulation and returns
/// the populated observer plus the layer result — the substrate of the
/// JSON report and of the gate's streaming-vs-batch differential.
pub fn obs_report_observer() -> (Observer, LayerResult) {
    let model = SystemModel {
        workers: OBS_REPORT_WORKERS,
        group_size: 4,
        ..SystemModel::paper()
    };
    let layer = obs_report_layer();
    let cfg = ClusterConfig::new(4, 4);
    let mut obs = Observer::new();
    let r = simulate_layer_with(&model, &layer, OBS_REPORT_SYS, cfg);
    record_layer(&model, &r, &mut obs.trace, &mut obs.metrics);
    (obs, r)
}

/// Builds the report as a JSON value.
pub fn obs_report() -> Value {
    let layer = obs_report_layer();
    let cfg = ClusterConfig::new(4, 4);
    let sys = OBS_REPORT_SYS;
    let (obs, r) = obs_report_observer();

    let phases: Vec<Value> = obs
        .trace
        .rollup()
        .into_iter()
        .map(|((cat, name), (count, cycles))| {
            obj(vec![
                ("cat", s(&cat)),
                ("name", s(&name)),
                ("count", num(count as f64)),
                ("cycles", num(cycles as f64)),
            ])
        })
        .collect();

    // Derived analytics over the same trace: critical-path attribution
    // and per-track utilization, in the flat key space the gate bands.
    let analysis: Vec<(String, Value)> = Analysis::of_trace(&obs.trace)
        .metrics()
        .into_iter()
        .map(|(k, v)| (k, num(v)))
        .collect();

    obj(vec![
        ("layer", s(&layer.name)),
        ("config", s(sys.abbrev())),
        ("cluster", s(&cfg.to_string())),
        ("workers", num(OBS_REPORT_WORKERS as f64)),
        ("total_cycles", num(r.total_cycles())),
        ("forward_cycles", num(r.forward.cycles)),
        ("backward_cycles", num(r.backward.cycles)),
        ("collective_cycles", num(r.collective.cycles)),
        ("tile_comm_cycles", num(r.tile_comm_cycles)),
        ("analysis", Value::Obj(analysis)),
        ("phases", Value::Arr(phases)),
        ("metrics", obs.metrics.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::json::parse;

    #[test]
    fn report_round_trips_and_reconciles() {
        let v = obs_report();
        let text = v.render();
        let back = parse(&text).expect("report is valid JSON");
        let total = back
            .get("total_cycles")
            .and_then(|v| v.as_f64())
            .expect("total");
        assert!(total > 0.0);
        // The `layer`-category rollup must reconcile with the headline.
        let phases = back.get("phases").and_then(|v| v.as_arr()).expect("phases");
        let layer_cycles: f64 = phases
            .iter()
            .filter(|p| p.get("cat").and_then(|c| c.as_str()) == Some("layer"))
            .filter_map(|p| p.get("cycles").and_then(|c| c.as_f64()))
            .sum();
        assert!(
            (layer_cycles - total).abs() / total < 0.01,
            "{layer_cycles} vs {total}"
        );
        // Spans from the three instrumented subsystems are present.
        for cat in ["ndp", "noc", "collective"] {
            assert!(
                phases
                    .iter()
                    .any(|p| p.get("cat").and_then(|c| c.as_str()) == Some(cat)),
                "missing {cat}"
            );
        }
        // The derived critical path reconciles with the headline exactly.
        let analysis = back.get("analysis").expect("analysis section");
        let cp_total = analysis
            .get("critpath.total_cycles")
            .and_then(|v| v.as_f64())
            .expect("critpath total");
        assert_eq!(cp_total, total.round());
        let share: f64 = ["ndp", "dram_stall", "tile_comm", "collective"]
            .iter()
            .filter_map(|c| {
                analysis
                    .get(&format!("critpath.share.{c}"))
                    .and_then(|v| v.as_f64())
            })
            .sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    }
}
