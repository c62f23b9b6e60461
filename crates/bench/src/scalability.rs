//! NDP strong scaling (supporting §III's scalability argument with the
//! full time model, beyond Fig 7's traffic-only view): iteration time of
//! a mid/late layer as the worker count grows at fixed batch 256, for
//! data parallelism vs the full MPT proposal.
//!
//! Shape to reproduce: data-parallel time flattens once the collective
//! (constant in `p`) dominates; MPT keeps scaling because its collective
//! shrinks with `N_g` and its per-worker batch stays larger.

use wmpt_core::{simulate_layer, SystemConfig, SystemModel};
use wmpt_models::table2_layers;

use crate::{f, report::Table, row};

/// Worker counts of the sweep (perfect squares so `N_g = N_c = √p`).
pub const WORKER_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Iteration cycles of a layer under a config at `p` workers.
pub fn cycles_at(p: usize, layer_idx: usize, sys: SystemConfig) -> f64 {
    let group = (p as f64).sqrt() as usize;
    let model = SystemModel {
        workers: p,
        group_size: group.max(2),
        ..SystemModel::paper()
    };
    simulate_layer(&model, &table2_layers()[layer_idx], sys).total_cycles()
}

/// The scaling table as a machine-readable report.
pub fn table() -> Table {
    let mut t = Table::new(
        "scalability",
        &["p", "late_dp", "late_mpt", "mid_dp", "mid_mpt"],
    );
    for p in WORKER_COUNTS {
        t.push(vec![
            p.to_string(),
            format!("{:.0}", cycles_at(p, 4, SystemConfig::WDp)),
            format!("{:.0}", cycles_at(p, 4, SystemConfig::WMpPD)),
            format!("{:.0}", cycles_at(p, 2, SystemConfig::WDp)),
            format!("{:.0}", cycles_at(p, 2, SystemConfig::WMpPD)),
        ]);
    }
    t
}

/// Runs the experiment and returns the printed data.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("== NDP strong scaling (iteration cycles, batch 256) ==\n");
    out.push_str(&row(
        "p",
        &["Late-2 w_dp", "Late-2 w_mp++", "Mid-2 w_dp", "Mid-2 w_mp++"].map(String::from),
    ));
    for p in WORKER_COUNTS {
        out.push_str(&row(
            &p.to_string(),
            &[
                f(cycles_at(p, 4, SystemConfig::WDp)),
                f(cycles_at(p, 4, SystemConfig::WMpPD)),
                f(cycles_at(p, 2, SystemConfig::WDp)),
                f(cycles_at(p, 2, SystemConfig::WMpPD)),
            ],
        ));
    }
    let dp_gain = cycles_at(64, 4, SystemConfig::WDp) / cycles_at(1024, 4, SystemConfig::WDp);
    let mpt_gain = cycles_at(64, 4, SystemConfig::WMpPD) / cycles_at(1024, 4, SystemConfig::WMpPD);
    out.push_str(&format!(
        "Late-2, 64 -> 1024 workers: w_dp speeds up {dp_gain:.2}x, w_mp++ {mpt_gain:.2}x (16x would be linear)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpt_scales_better_than_dp_on_late_layers() {
        let dp = cycles_at(64, 4, SystemConfig::WDp) / cycles_at(1024, 4, SystemConfig::WDp);
        let mpt = cycles_at(64, 4, SystemConfig::WMpPD) / cycles_at(1024, 4, SystemConfig::WMpPD);
        assert!(mpt > dp, "mpt gain {mpt} should beat dp gain {dp}");
    }

    #[test]
    fn more_workers_never_slow_mpt_down() {
        for w in WORKER_COUNTS.windows(2) {
            let a = cycles_at(w[0], 4, SystemConfig::WMpPD);
            let b = cycles_at(w[1], 4, SystemConfig::WMpPD);
            assert!(b <= a * 1.05, "p {} -> {}: {a} -> {b}", w[0], w[1]);
        }
    }

    #[test]
    fn more_workers_speed_up_late_1() {
        let (few, many) = (
            cycles_at(64, 3, SystemConfig::WMpPD),
            cycles_at(256, 3, SystemConfig::WMpPD),
        );
        assert!(
            many < few,
            "more workers should help Late-1: {few} -> {many}"
        );
    }

    #[test]
    fn report_table_has_all_rows() {
        let t = table();
        assert_eq!(t.rows.len(), WORKER_COUNTS.len());
        assert!(t.to_tsv().starts_with("p\t"));
    }
}
