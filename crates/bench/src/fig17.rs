//! Figure 17: entire-CNN training performance — multi-GPU (DGX-1)
//! scaling vs the 256-worker NDP system, all normalized to one NDP
//! worker (batch 256 everywhere).
//!
//! Paper shapes to reproduce: GPU scaling is sub-linear at fixed batch;
//! `w_mp++` scales better than `w_dp` on the NDP system (paper: 2.7×);
//! the NDP system at 256 workers beats the 8-GPU node by an order of
//! magnitude (paper: 21.6×); FractalNet scales best thanks to the
//! modified join.

use wmpt_core::{simulate_network, SystemConfig, SystemModel};
use wmpt_gpu::{DgxSystem, GpuParams};
use wmpt_models::{fractalnet, resnet34, wrn_40_10, Network};

use crate::{f, row};

const BATCH: usize = 256;

/// Images/second of one NDP configuration.
pub fn ndp_ips(model: &SystemModel, net: &Network, sys: SystemConfig) -> f64 {
    simulate_network(model, net, sys).images_per_second(BATCH)
}

/// The figure's rows for one network: throughputs normalized to 1 NDP.
pub fn network_rows(net: &Network) -> Vec<(String, f64)> {
    let single = ndp_ips(&SystemModel::single_worker(), net, SystemConfig::WDp);
    let m256 = SystemModel::paper_fp16();
    let dgx = DgxSystem::new(GpuParams::v100());
    let mut rows = Vec::new();
    for gpus in [1usize, 2, 4, 8] {
        rows.push((
            format!("{gpus}-GPU"),
            dgx.images_per_second(net, BATCH, gpus) / single,
        ));
    }
    for sys in [
        SystemConfig::WDp,
        SystemConfig::WMp,
        SystemConfig::WMpD,
        SystemConfig::WMpP,
        SystemConfig::WMpPD,
    ] {
        rows.push((
            format!("NDP-256 {}", sys.abbrev()),
            ndp_ips(&m256, net, sys) / single,
        ));
    }
    rows
}

/// Machine-readable table: speedup over a single NDP worker per system.
pub fn table() -> crate::report::Table {
    let nets = [wrn_40_10(), resnet34(), fractalnet()];
    let labels: Vec<String> = network_rows(&nets[0])
        .iter()
        .map(|(l, _)| l.clone())
        .collect();
    let mut cols: Vec<&str> = vec!["network"];
    let owned: Vec<String> = labels;
    for l in &owned {
        cols.push(l.as_str());
    }
    let mut t = crate::report::Table::new("fig17_speedups", &cols);
    for net in &nets {
        let mut row = vec![net.name.clone()];
        row.extend(
            network_rows(net)
                .into_iter()
                .map(|(_, v)| format!("{v:.2}")),
        );
        t.push(row);
    }
    t
}

/// The value of the row whose label ends with `config`.
fn speedup(rows: &[(String, f64)], config: &str) -> f64 {
    rows.iter()
        .find(|(l, _)| l.ends_with(config))
        .unwrap_or_else(|| panic!("no {config} row"))
        .1
}

/// Runs the experiment and returns the printed figure data.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("== Figure 17: entire-CNN speedup over a single NDP worker ==\n");
    let nets = [wrn_40_10(), resnet34(), fractalnet()];
    let labels: Vec<String> = network_rows(&nets[0])
        .iter()
        .map(|(l, _)| l.clone())
        .collect();
    out.push_str(&row("network", &labels));
    let mut avg_ratio = 0.0;
    for net in &nets {
        let rows = network_rows(net);
        out.push_str(&row(
            &net.name,
            &rows.iter().map(|(_, v)| f(*v)).collect::<Vec<_>>(),
        ));
        avg_ratio += speedup(&rows, "w_mp++") / speedup(&rows, "8-GPU");
    }
    avg_ratio /= nets.len() as f64;
    out.push_str(&format!(
        "NDP-256 w_mp++ over the 8-GPU system, fixed batch 256: {avg_ratio:.1}x average (paper 21.6x)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_scaling_is_sublinear() {
        let rows = network_rows(&wrn_40_10());
        let g1 = rows[0].1;
        let g8 = rows[3].1;
        assert!(g8 / g1 < 7.0, "8-GPU scaling {}", g8 / g1);
        assert!(g8 > g1, "more GPUs must help");
    }

    #[test]
    fn full_proposal_scales_best_on_ndp() {
        for net in [wrn_40_10(), fractalnet()] {
            let rows = network_rows(&net);
            let dp = speedup(&rows, "w_dp");
            let full = speedup(&rows, "w_mp++");
            assert!(full > dp, "{}: w_mp++ {full} vs w_dp {dp}", net.name);
        }
        // 256 workers reach O(10-100x) over one worker on WRN-40-10
        // (paper: w_dp 71x, w_mp++ 191x).
        let rows = network_rows(&wrn_40_10());
        assert!(speedup(&rows, "w_dp") > 10.0, "{rows:?}");
        assert!(speedup(&rows, "w_mp++") > 20.0, "{rows:?}");
    }

    #[test]
    fn ndp_256_beats_8_gpus_decisively() {
        let rows = network_rows(&fractalnet());
        let ratio = speedup(&rows, "w_mp++") / speedup(&rows, "8-GPU");
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn fractalnet_gains_most_from_full_mpt() {
        // The modified join cuts tile transfer, so FractalNet's
        // w_mp++/w_dp ratio tops the three networks (paper §VII-C).
        let ratio = |net: &Network| {
            let rows = network_rows(net);
            speedup(&rows, "w_mp++") / speedup(&rows, "w_dp")
        };
        let fr = ratio(&fractalnet());
        let rn = ratio(&resnet34());
        assert!(fr > rn, "FractalNet {fr} should beat ResNet-34 {rn}");
    }
}
