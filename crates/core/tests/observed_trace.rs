//! Golden test of the observability pipeline: a tiny observed simulation
//! must emit Chrome `trace_event` JSON that parses back, contains spans
//! from every instrumented subsystem, and whose per-phase rollup
//! reconciles with the headline cycle count.

use wmpt_core::{record_layer, simulate_layer_with, SystemConfig, SystemModel};
use wmpt_models::ConvLayerSpec;
use wmpt_noc::ClusterConfig;
use wmpt_obs::json::{parse, Value};
use wmpt_obs::{MetricRegistry, Observer};

fn tiny_model(workers: usize, group_size: usize) -> SystemModel {
    SystemModel {
        workers,
        group_size,
        batch: 8,
        ..SystemModel::paper()
    }
}

fn tiny_layer() -> ConvLayerSpec {
    ConvLayerSpec::new("tiny", 16, 16, 8, 8, 3)
}

fn events(trace: &Value) -> &[Value] {
    trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
}

#[test]
fn two_worker_sim_emits_valid_chrome_trace() {
    let model = tiny_model(2, 2);
    let mut obs = Observer::new();
    let r = simulate_layer_with(
        &model,
        &tiny_layer(),
        SystemConfig::WMp,
        ClusterConfig::new(2, 1),
    );
    record_layer(&model, &r, &mut obs.trace, &mut obs.metrics);
    assert!(r.total_cycles() > 0.0);

    let text = obs.trace.chrome_trace().render();
    let back = parse(&text).expect("chrome trace is valid JSON");
    assert_eq!(
        back.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns"),
        "trace header"
    );
    // Every complete event carries the required Chrome fields.
    for e in events(&back) {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        match ph {
            "M" => assert!(e.get("args").and_then(|a| a.get("name")).is_some()),
            "X" => {
                for field in ["name", "cat", "pid", "tid", "ts", "dur"] {
                    assert!(e.get(field).is_some(), "X event missing {field}");
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    // With one cluster of two workers there is tile traffic and compute,
    // but no collective ring (N_c = 1).
    let cats: Vec<&str> = events(&back)
        .iter()
        .filter_map(|e| e.get("cat").and_then(|v| v.as_str()))
        .collect();
    assert!(cats.contains(&"layer") && cats.contains(&"ndp") && cats.contains(&"noc"));
}

#[test]
fn four_worker_sim_covers_all_subsystems_and_reconciles() {
    let model = tiny_model(4, 2);
    let mut obs = Observer::new();
    let r = simulate_layer_with(
        &model,
        &tiny_layer(),
        SystemConfig::WMpP,
        ClusterConfig::new(2, 2),
    );
    record_layer(&model, &r, &mut obs.trace, &mut obs.metrics);

    let back = parse(&obs.trace.chrome_trace().render()).expect("valid JSON");
    let cats: Vec<&str> = events(&back)
        .iter()
        .filter_map(|e| e.get("cat").and_then(|v| v.as_str()))
        .collect();
    for cat in ["layer", "ndp", "noc", "collective"] {
        assert!(cats.contains(&cat), "missing subsystem {cat} in {cats:?}");
    }

    // Rollup reconciliation: the `layer` spans tile the iteration.
    let layer_cycles = obs.trace.category_cycles("layer") as f64;
    let err = (layer_cycles - r.total_cycles()).abs() / r.total_cycles();
    assert!(
        err < 0.01,
        "layer rollup {layer_cycles} vs total {} ",
        r.total_cycles()
    );

    // Cycle payloads survive the μs conversion: args.cycles of layer
    // spans must sum to the same total.
    let args_sum: f64 = events(&back)
        .iter()
        .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some("layer"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("cycles"))
                .and_then(|c| c.as_f64())
        })
        .sum();
    assert_eq!(args_sum, layer_cycles);
}

#[test]
fn metrics_registry_round_trips_through_json() {
    let model = tiny_model(4, 2);
    let mut obs = Observer::new();
    let r = simulate_layer_with(
        &model,
        &tiny_layer(),
        SystemConfig::WMpP,
        ClusterConfig::new(2, 2),
    );
    record_layer(&model, &r, &mut obs.trace, &mut obs.metrics);
    assert!(!obs.metrics.is_empty());
    let text = obs.metrics.to_json().render();
    let back = MetricRegistry::from_json(&parse(&text).expect("valid JSON"))
        .expect("registry parses back");
    assert_eq!(back.to_json().render(), text, "lossless round-trip");
}
