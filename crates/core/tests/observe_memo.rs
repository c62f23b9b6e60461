//! The observer's DRAM row-buffer profile is memoised process-wide. This
//! file holds a single test so its first call really meets a cold memo
//! (each integration-test file is its own process): the observed layer
//! must render byte-identical metrics and Chrome trace cold and warm.

use wmpt_core::{simulate_layer_observed, SystemConfig, SystemModel};
use wmpt_models::table2_layers;
use wmpt_obs::Observer;

#[test]
fn cold_and_warm_memo_render_identical_artifacts() {
    let model = SystemModel::paper();
    let layer = &table2_layers()[2];
    let render = || {
        let mut obs = Observer::new();
        let r = simulate_layer_observed(&model, layer, SystemConfig::WMpPD, &mut obs);
        (
            r.total_cycles(),
            obs.metrics.to_json().render(),
            obs.trace.chrome_trace().render(),
        )
    };
    let cold = render();
    let warm = render();
    assert!(cold.1.contains("ndp.dram_row_hits"), "profile recorded");
    assert_eq!(cold.0, warm.0, "cycles");
    assert_eq!(cold.1, warm.1, "rendered metrics");
    assert_eq!(cold.2, warm.2, "chrome trace");
}
