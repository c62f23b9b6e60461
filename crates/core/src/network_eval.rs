//! Whole-CNN evaluation (paper §VII-C, Figures 17–18): iterate a
//! network's layers through the system model and aggregate time, energy
//! and power.
//!
//! The same [`NetworkResult`] is the host's per-layer execution plan
//! (§VI-A): before training starts, the host decides each layer's worker
//! organization offline from the static layer shapes (§IV: "the optimal
//! configuration per layer ... is pre-determined and does not change"),
//! and [`NetworkResult::render`] prints that decision per layer.

use wmpt_energy::EnergyBreakdown;
use wmpt_models::Network;

use crate::config::SystemConfig;
use crate::exec::{simulate_layer, LayerResult, SystemModel};

/// Aggregated result of one training iteration of a whole CNN.
#[derive(Debug, Clone)]
pub struct NetworkResult {
    /// Network name.
    pub network: String,
    /// System configuration.
    pub config: SystemConfig,
    /// Per-layer results in forward order.
    pub layers: Vec<LayerResult>,
}

impl NetworkResult {
    /// Total iteration cycles (layers execute back to back; inter-layer
    /// overlap is already inside each layer's fwd/bwd overlap model).
    pub fn total_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.total_cycles()).sum()
    }

    /// Total iteration energy.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.layers
            .iter()
            .fold(EnergyBreakdown::default(), |acc, l| {
                acc.add(&l.total_energy())
            })
    }

    /// Training throughput in images per second (1 GHz clock).
    pub fn images_per_second(&self, batch: usize) -> f64 {
        batch as f64 / (self.total_cycles() * 1.0e-9)
    }

    /// Average system power, watts.
    pub fn average_power_w(&self) -> f64 {
        self.total_energy().average_power_w(self.total_cycles())
    }

    /// How many layers ran under each worker organization (the dynamic
    /// clustering decision mix).
    pub fn config_histogram(&self) -> Vec<(String, usize)> {
        let mut hist: Vec<(String, usize)> = Vec::new();
        for l in &self.layers {
            let key = l.cluster.to_string();
            if let Some(e) = hist.iter_mut().find(|(k, _)| *k == key) {
                e.1 += 1;
            } else {
                hist.push((key, 1));
            }
        }
        hist
    }

    /// Number of interconnect reconfigurations per iteration (changes of
    /// worker organization between consecutive layers — each is a routing
    /// update, not a data movement, §IV).
    pub fn reconfigurations(&self) -> usize {
        self.layers
            .windows(2)
            .filter(|w| w[0].cluster != w[1].cluster)
            .count()
    }

    /// Fraction of communication cycles spent on the weight collectives
    /// (vs tile transfer).
    pub fn collective_fraction(&self) -> f64 {
        let coll: f64 = self.layers.iter().map(|l| l.collective.cycles).sum();
        let tile: f64 = self.layers.iter().map(|l| l.tile_comm_cycles).sum();
        if coll + tile == 0.0 {
            0.0
        } else {
            coll / (coll + tile)
        }
    }

    /// Renders the per-layer plan as a table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan: {} under {} — {} layers, {} reconfigurations/iter\n",
            self.network,
            self.config,
            self.layers.len(),
            self.reconfigurations()
        );
        out.push_str(&format!(
            "{:<12} {:>12} {:>10} {:>12} {:>12} {:>12}\n",
            "layer", "organization", "transform", "cycles", "collective", "tile comm"
        ));
        for l in &self.layers {
            out.push_str(&format!(
                "{:<12} {:>12} {:>10} {:>12.0} {:>12.0} {:>12.0}\n",
                l.layer,
                l.cluster.to_string(),
                l.transform
                    .map(|(m, t)| format!("F({m},{})", t + 1 - m))
                    .unwrap_or_else(|| "direct".into()),
                l.total_cycles(),
                l.collective.cycles,
                l.tile_comm_cycles,
            ));
        }
        out
    }
}

/// Simulates one training iteration of `net` under `sys`.
pub fn simulate_network(model: &SystemModel, net: &Network, sys: SystemConfig) -> NetworkResult {
    let layers = net
        .layers
        .iter()
        .map(|l| simulate_layer(model, l, sys))
        .collect();
    NetworkResult {
        network: net.name.clone(),
        config: sys,
        layers,
    }
}

/// Speedup of a configuration on `p` workers over the single-NDP-worker
/// reference (Fig 17's y-axis).
pub fn speedup_vs_single(model: &SystemModel, net: &Network, sys: SystemConfig) -> f64 {
    let single = simulate_network(&SystemModel::single_worker(), net, SystemConfig::WDp);
    let multi = simulate_network(model, net, sys);
    single.total_cycles() / multi.total_cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_models::{fractalnet, resnet34, table2_layers, wrn_40_10};

    /// The five Table II layers as one network.
    fn table2_probe() -> Network {
        Network {
            name: "probe".into(),
            dataset: wmpt_models::Dataset::Cifar,
            layers: table2_layers(),
            other_params: 0,
        }
    }

    #[test]
    fn full_proposal_beats_dp_on_every_network() {
        let m = SystemModel::paper_fp16();
        for net in [wrn_40_10(), resnet34(), fractalnet()] {
            let dp = simulate_network(&m, &net, SystemConfig::WDp);
            let full = simulate_network(&m, &net, SystemConfig::WMpPD);
            let gain = dp.total_cycles() / full.total_cycles();
            assert!(gain > 1.2, "{}: gain {gain}", net.name);
        }
    }

    #[test]
    fn plain_mpt_helps_resnet34_least() {
        // §VII-C: applying only MPT can hurt CNNs with many large-feature-
        // map layers (ResNet-34 is their example). Robust form of that
        // claim: plain MPT's gain over w_dp is smaller on ResNet-34 than
        // on the weight-heavy FractalNet.
        let m = SystemModel::paper_fp16();
        let gain = |net: &wmpt_models::Network| {
            let dp = simulate_network(&m, net, SystemConfig::WDp);
            let mp = simulate_network(&m, net, SystemConfig::WMp);
            dp.total_cycles() / mp.total_cycles()
        };
        let g_res = gain(&resnet34());
        let g_fract = gain(&fractalnet());
        assert!(
            g_res < g_fract,
            "ResNet-34 gain {g_res} should trail FractalNet {g_fract}"
        );
    }

    #[test]
    fn scaling_vs_single_worker_is_large() {
        // Fig 17: 256 workers reach O(100x) over one worker.
        let m = SystemModel::paper_fp16();
        let net = wrn_40_10();
        let s_dp = speedup_vs_single(&m, &net, SystemConfig::WDp);
        let s_full = speedup_vs_single(&m, &net, SystemConfig::WMpPD);
        assert!(s_dp > 10.0, "w_dp speedup {s_dp}");
        assert!(
            s_full > s_dp,
            "w_mp++ {s_full} must scale better than w_dp {s_dp}"
        );
        assert!(s_full > 20.0, "w_mp++ speedup {s_full}");
    }

    #[test]
    fn dynamic_clustering_uses_multiple_configs() {
        let m = SystemModel::paper_fp16();
        let res = simulate_network(&m, &fractalnet(), SystemConfig::WMpPD);
        let hist = res.config_histogram();
        assert!(
            hist.len() >= 2,
            "expected a mix of configurations, got {hist:?}"
        );
    }

    #[test]
    fn power_is_in_the_papers_band() {
        // §VII-C compares 256 NDP workers at 1800-2600 W against 8 GPUs.
        let m = SystemModel::paper_fp16();
        let res = simulate_network(&m, &fractalnet(), SystemConfig::WMpPD);
        let w = res.average_power_w();
        assert!((200.0..4000.0).contains(&w), "power {w} W implausible");
    }

    #[test]
    fn throughput_metric_consistent() {
        let m = SystemModel::paper_fp16();
        let res = simulate_network(&m, &wrn_40_10(), SystemConfig::WMpPD);
        let ips = res.images_per_second(256);
        assert!(ips.is_finite() && ips > 0.0);
    }

    #[test]
    fn plan_covers_every_layer() {
        let m = SystemModel::paper_fp16();
        let net = wrn_40_10();
        let plan = simulate_network(&m, &net, SystemConfig::WMpPD);
        assert_eq!(plan.layers.len(), net.layers.len());
        assert!(plan.total_cycles() > 0.0);
    }

    #[test]
    fn static_configs_never_reconfigure() {
        let m = SystemModel::paper_fp16();
        let net = wrn_40_10();
        // w_dp runs everything data-parallel: strictly zero switches.
        let plan = simulate_network(&m, &net, SystemConfig::WDp);
        assert_eq!(plan.reconfigurations(), 0, "w_dp should be static");
        // w_mp is static too, except at boundaries with layers that
        // cannot run in the Winograd domain (strided convs drop to data
        // parallelism).
        let plan = simulate_network(&m, &net, SystemConfig::WMp);
        let non_friendly = net.layers.iter().filter(|l| !l.winograd_friendly()).count();
        assert!(
            plan.reconfigurations() <= 2 * non_friendly,
            "w_mp reconfigured {} times for {} direct layers",
            plan.reconfigurations(),
            non_friendly
        );
    }

    #[test]
    fn dynamic_clustering_reconfigures_between_regimes() {
        let m = SystemModel::paper_fp16();
        let net = wrn_40_10();
        let plan = simulate_network(&m, &net, SystemConfig::WMpPD);
        assert!(
            plan.reconfigurations() > 0,
            "WRN spans early->late regimes; the plan must switch organizations"
        );
        // Reconfigurations are rare relative to layer count (regimes are
        // contiguous).
        assert!(plan.reconfigurations() < plan.layers.len() / 2);
    }

    #[test]
    fn collective_fraction_rises_with_group_count() {
        // Under (16,16) MPT the tile share dominates early nets less than
        // under w_dp where there is no tile traffic at all.
        let m = SystemModel::paper();
        let dp = simulate_network(&m, &table2_probe(), SystemConfig::WDp);
        assert_eq!(dp.collective_fraction(), 1.0, "dp comm is all collective");
        let mp = simulate_network(&m, &table2_probe(), SystemConfig::WMp);
        assert!(mp.collective_fraction() < 1.0);
    }

    #[test]
    fn render_lists_layers() {
        let m = SystemModel::paper();
        let s = simulate_network(&m, &table2_probe(), SystemConfig::WMpPD).render();
        assert!(s.contains("Early") && s.contains("Late-2"));
        assert!(s.contains("reconfigurations"));
    }
}
