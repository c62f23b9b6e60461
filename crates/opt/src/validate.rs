//! Differential validation of auto-found plans against the event-driven
//! packet simulator — the PR-4 oracle pattern applied to planner output.
//!
//! For every planned layer that runs a weight collective, the collective
//! is rebuilt on a real ring topology ([`wmpt_noc::Topology::ring`]) and
//! simulated flit-by-flit; the closed-form cycles the planner optimized
//! over must agree with the simulated cycles within the same tolerance
//! class `noc/tests/oracle_analytical.rs` pins for the cost model itself
//! (sim/model ratio in `[ORACLE_RATIO_LO, ORACLE_RATIO_HI)`). A plan the
//! analytical search prefers but the event simulator contradicts is a
//! planner bug, not a tie-break.

use std::collections::HashMap;

use wmpt_core::{SystemConfig, SystemModel};
use wmpt_models::ConvLayerSpec;
use wmpt_noc::{
    ring_collective_cycles, simulate_ring_reduce_broadcast, LinkKind, PacketNetwork, Topology,
};

use crate::memo::EvalCache;
use crate::plan::AutoPlan;

/// Lower agreement bound on `sim / model` (inclusive).
pub const ORACLE_RATIO_LO: f64 = 0.5;
/// Upper agreement bound on `sim / model` (exclusive).
pub const ORACLE_RATIO_HI: f64 = 2.0;

/// Messages are capped at this size before event simulation. Both the
/// closed form and the flit simulation are linear in the chunk count
/// beyond pipeline fill, so agreement at the cap implies agreement
/// above it — and capping keeps debug-mode validation of VGG-sized
/// collectives (tens of MB) tractable.
pub const VALIDATE_MSG_CAP_BYTES: u64 = 64 * 1024;

/// One layer's analytical-vs-event comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerAgreement {
    /// Layer name.
    pub layer: String,
    /// Ring membership count of the collective.
    pub ring_len: usize,
    /// Message bytes actually simulated (after the cap).
    pub msg_bytes: u64,
    /// Closed-form cycles for the capped message.
    pub model_cycles: f64,
    /// Event-simulated cycles for the capped message.
    pub sim_cycles: f64,
}

impl LayerAgreement {
    /// `sim / model`.
    pub fn ratio(&self) -> f64 {
        self.sim_cycles / self.model_cycles
    }

    /// Whether the ratio falls in the oracle tolerance class.
    pub fn within_bounds(&self) -> bool {
        (ORACLE_RATIO_LO..ORACLE_RATIO_HI).contains(&self.ratio())
    }
}

/// The outcome of validating one plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// One comparison per layer that runs a weight collective.
    pub checks: Vec<LayerAgreement>,
    /// Layers skipped (degenerate ring or empty message).
    pub skipped: usize,
}

impl ValidationReport {
    /// Whether every checked layer agrees within the oracle bounds.
    pub fn all_within_bounds(&self) -> bool {
        self.checks.iter().all(LayerAgreement::within_bounds)
    }

    /// Worst (most extreme) ratio across the checks, `1.0` when empty.
    pub fn worst_ratio(&self) -> f64 {
        self.checks
            .iter()
            .map(LayerAgreement::ratio)
            .max_by(|a, b| {
                (a.ln().abs())
                    .partial_cmp(&b.ln().abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(1.0)
    }
}

/// The link kind whose bandwidth is nearest the analytical bandwidth —
/// the event simulator speaks link kinds, the cost model bytes/cycle.
fn link_for_bandwidth(bw: f64) -> LinkKind {
    let kinds = [
        LinkKind::Narrow,
        LinkKind::Full,
        LinkKind::FullX2,
        LinkKind::FullX4,
    ];
    kinds
        .into_iter()
        .min_by(|a, b| {
            (a.bytes_per_cycle() - bw)
                .abs()
                .total_cmp(&(b.bytes_per_cycle() - bw).abs())
        })
        .unwrap()
}

/// Cross-validates every layer of `plan` against the event simulator.
///
/// Layers and plan steps are zipped in order (the plan was built from
/// these layers). Identical collectives — same ring length, capped
/// message and link kind — are simulated once and shared, so validating
/// a 16-layer VGG stage costs a handful of event runs, not sixteen. Each
/// ring fabric (its routes) is built once per ring length and link kind;
/// every simulation on it starts from a reset network.
pub fn validate_plan(
    model: &SystemModel,
    sys: SystemConfig,
    layers: &[ConvLayerSpec],
    plan: &AutoPlan,
    cache: &mut EvalCache,
) -> ValidationReport {
    assert_eq!(
        layers.len(),
        plan.steps.len(),
        "plan/layer chain length mismatch"
    );
    let mut report = ValidationReport::default();
    let mut simulated: HashMap<(usize, u64, LinkKind), f64> = HashMap::new();
    let mut rings: HashMap<(usize, LinkKind), PacketNetwork> = HashMap::new();
    for (layer, step) in layers.iter().zip(&plan.steps) {
        let eval = cache.evaluate(model, sys, layer, step.cluster, step.batch_split);
        let coll = eval.collective;
        if coll.ring_len < 2 || coll.msg_bytes == 0 {
            report.skipped += 1;
            continue;
        }
        let msg = coll.msg_bytes.min(VALIDATE_MSG_CAP_BYTES);
        let kind = link_for_bandwidth(coll.bandwidth);
        let sim_cycles = *simulated
            .entry((coll.ring_len, msg, kind))
            .or_insert_with(|| {
                let net = rings.entry((coll.ring_len, kind)).or_insert_with(|| {
                    PacketNetwork::new(Topology::ring(coll.ring_len, kind), model.noc)
                });
                net.reset();
                let ring: Vec<usize> = (0..coll.ring_len).collect();
                simulate_ring_reduce_broadcast(net, &ring, msg, 0) as f64
            });
        let model_cycles =
            ring_collective_cycles(msg, coll.ring_len, kind.bytes_per_cycle(), &model.noc, 0);
        report.checks.push(LayerAgreement {
            layer: layer.name.clone(),
            ring_len: coll.ring_len,
            msg_bytes: msg,
            model_cycles,
            sim_cycles,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{auto_search_layers, PlannerConfig};
    use wmpt_models::table2_layers;

    #[test]
    fn link_kinds_snap_to_the_nearest_bandwidth() {
        assert_eq!(link_for_bandwidth(10.0), LinkKind::Narrow);
        assert_eq!(link_for_bandwidth(31.0), LinkKind::Full);
        assert_eq!(link_for_bandwidth(59.0), LinkKind::FullX2);
        assert_eq!(link_for_bandwidth(500.0), LinkKind::FullX4);
    }

    #[test]
    fn auto_plan_for_table2_validates_within_oracle_bounds() {
        let model = SystemModel::paper_fp16();
        let sys = SystemConfig::WMpPD;
        let layers = table2_layers();
        let mut cache = EvalCache::new();
        let plan = auto_search_layers(
            &model,
            sys,
            "table2",
            &layers,
            &PlannerConfig::default(),
            &mut cache,
        );
        let report = validate_plan(&model, sys, &layers, &plan, &mut cache);
        assert!(
            !report.checks.is_empty(),
            "expected at least one collective to validate"
        );
        for a in &report.checks {
            assert!(
                a.within_bounds(),
                "{}: sim {} vs model {} (ratio {})",
                a.layer,
                a.sim_cycles,
                a.model_cycles,
                a.ratio()
            );
        }
    }

    #[test]
    fn worst_ratio_picks_the_most_extreme_check() {
        let mk = |r: f64| LayerAgreement {
            layer: "x".to_string(),
            ring_len: 4,
            msg_bytes: 1024,
            model_cycles: 100.0,
            sim_cycles: 100.0 * r,
        };
        let report = ValidationReport {
            checks: vec![mk(1.1), mk(0.6), mk(1.5)],
            skipped: 0,
        };
        assert_eq!(report.worst_ratio(), 0.6);
        assert!(report.all_within_bounds());
    }
}
