//! Communication breakdown of whole-CNN training: how each configuration
//! splits its communication between weight collectives and tile transfer
//! (the trade-off dynamic clustering balances, §IV), from the per-layer
//! network result the host plans with.

use wmpt_core::{simulate_network, SystemConfig, SystemModel};
use wmpt_models::{fractalnet, resnet34, wrn_40_10};

use crate::{f, row};

/// Runs the experiment and returns the printed data.
pub fn run() -> String {
    let model = SystemModel::paper_fp16();
    let mut out = String::new();
    out.push_str("== Communication breakdown (collective vs tile transfer) ==\n");
    out.push_str(&row(
        "network / config",
        &["collective cy", "tile cy", "coll. share", "reconfigs"].map(String::from),
    ));
    for net in [wrn_40_10(), resnet34(), fractalnet()] {
        for sys in [SystemConfig::WDp, SystemConfig::WMp, SystemConfig::WMpPD] {
            let plan = simulate_network(&model, &net, sys);
            let coll: f64 = plan.layers.iter().map(|l| l.collective.cycles).sum();
            let tile: f64 = plan.layers.iter().map(|l| l.tile_comm_cycles).sum();
            out.push_str(&row(
                &format!("{} {}", net.name, sys.abbrev()),
                &[
                    f(coll),
                    f(tile),
                    format!("{:.0}%", 100.0 * plan.collective_fraction()),
                    plan.reconfigurations().to_string(),
                ],
            ));
        }
    }
    out.push_str(
        "w_dp communicates only collectives; fixed MPT trades them for tile transfer;\n\
         dynamic clustering re-balances the two per layer (the §IV trade-off).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_is_all_collective_everywhere() {
        let model = SystemModel::paper_fp16();
        for net in [wrn_40_10(), resnet34()] {
            let plan = simulate_network(&model, &net, SystemConfig::WDp);
            assert_eq!(plan.collective_fraction(), 1.0, "{}", net.name);
        }
    }

    #[test]
    fn mpt_shifts_communication_to_tiles() {
        let model = SystemModel::paper_fp16();
        let plan_dp = simulate_network(&model, &wrn_40_10(), SystemConfig::WDp);
        let plan_mp = simulate_network(&model, &wrn_40_10(), SystemConfig::WMp);
        let coll = |p: &wmpt_core::NetworkResult| -> f64 {
            p.layers.iter().map(|l| l.collective.cycles).sum()
        };
        assert!(
            coll(&plan_mp) < coll(&plan_dp),
            "MPT must shrink the collectives"
        );
        assert!(plan_mp.collective_fraction() < 1.0);
    }

    #[test]
    fn output_covers_three_networks() {
        let out = run();
        for n in ["WRN-40-10", "ResNet-34", "FractalNet(4,4)"] {
            assert!(out.contains(n));
        }
    }
}
