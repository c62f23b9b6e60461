//! End-to-end reconciliation: a trace recorded by the observed simulator
//! analyzes to a critical path whose total equals the simulated cycle
//! count exactly, with attribution summing to 100% — and the same holds
//! after a full Chrome-trace export → parse round trip, which is the
//! `mpt_sim analyze --trace-in` path.

use wmpt_analyze::{Analysis, Category};
use wmpt_core::config::SystemConfig;
use wmpt_core::exec::{simulate_layer_with, SystemModel};
use wmpt_core::observe::{record_layer, simulate_network_observed};
use wmpt_models::table2_layers;
use wmpt_noc::ClusterConfig;
use wmpt_obs::{json, Observer, Tracer};
use wmpt_sim::Time;

#[test]
fn critical_path_total_equals_simulated_cycles() {
    let m = SystemModel::paper();
    let l = &table2_layers()[2];
    let mut obs = Observer::new();
    let res = simulate_layer_with(&m, l, SystemConfig::WMpP, ClusterConfig::new(4, 4));
    record_layer(&m, &res, &mut obs.trace, &mut obs.metrics);
    let cp = Analysis::of_trace(&obs.trace).critical_path;
    assert_eq!(cp.total, res.total_cycles().round() as u64);
    let attr = &cp.attribution;
    assert_eq!(attr.values().sum::<Time>(), cp.total);
    // Something other than pure compute shows up on the path.
    assert!(attr[&Category::TileComm] > 0 || attr[&Category::Collective] > 0);
    let shares: f64 = Category::ALL
        .iter()
        .map(|c| cp.metrics()[&format!("critpath.share.{}", c.name())])
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
}

#[test]
fn analysis_survives_chrome_trace_round_trip() {
    let m = SystemModel::paper();
    let l = &table2_layers()[4];
    let mut obs = Observer::new();
    let r = simulate_layer_with(&m, l, SystemConfig::WMpPD, ClusterConfig::new(16, 16));
    record_layer(&m, &r, &mut obs.trace, &mut obs.metrics);
    let text = obs.trace.chrome_trace().render();
    let back =
        Tracer::from_chrome_trace(&json::parse(&text).expect("parse")).expect("trace re-parses");
    let direct = Analysis::of_trace(&obs.trace);
    let reparsed = Analysis::of_trace(&back);
    assert_eq!(direct.critical_path.total, reparsed.critical_path.total);
    assert_eq!(
        direct.critical_path.attribution,
        reparsed.critical_path.attribution
    );
    assert_eq!(direct.render(), reparsed.render());
}

#[test]
fn network_trace_attributes_across_layers() {
    let m = SystemModel::paper_fp16();
    let net = wmpt_models::resnet34();
    let mut obs = Observer::new();
    let r = simulate_network_observed(&m, &net, SystemConfig::WMpPD, &mut obs);
    let cp = Analysis::of_trace(&obs.trace).critical_path;
    // Layer windows tile back to back, so the path covers the whole run.
    let expect: f64 = r.layers.iter().map(|l| l.total_cycles().round()).sum();
    assert_eq!(cp.total as f64, expect);
    let attr = &cp.attribution;
    assert_eq!(attr.values().sum::<Time>(), cp.total);
    assert!(attr[&Category::Ndp] > 0);
}
