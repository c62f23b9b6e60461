//! Fig-17-style auto-search sweep (`BENCH_plan.json`): for every zoo
//! network, the `wmpt-opt` DP plan vs the paper's three fixed
//! configurations costed under the same objective.
//!
//! One [`EvalCache`] is shared across the whole sweep, so the report's
//! `opt.*` counters show the memoization actually working (Table II
//! layer shapes recur inside the deeper networks). Every auto plan is
//! cross-validated against the event-driven packet simulator; the
//! report records the agreement and the gate pins `validated` at 1.
//! Everything in the report is deterministic except `opt.search_ms`,
//! which the gate's stable-key filter drops.

use wmpt_core::{SystemConfig, SystemModel};
use wmpt_noc::ClusterConfig;
use wmpt_obs::json::{num, obj, s, Value};
use wmpt_opt::{auto_search, fixed_plan_layers, validate_plan, EvalCache, PlannerConfig};
use wmpt_serve::find_network;

use crate::Output;

/// The zoo networks swept, in report order.
pub const ZOO: [&str; 5] = ["table2", "vgg16", "wrn", "resnet34", "fractalnet"];

/// The system configuration the search runs under: the full MPT stack
/// (`w_mp++`); its decision space subsumes the paper's fixed configs.
const SYS: SystemConfig = SystemConfig::WMpPD;

/// Low 48 bits of a plan key as an exactly-representable f64 — the
/// gate's stable, numeric handle on plan identity.
fn plan_key48(key: u128) -> f64 {
    (key & 0xffff_ffff_ffff) as f64
}

/// Runs the sweep and builds the report document.
pub fn plan_report() -> Value {
    let model = SystemModel::paper_fp16();
    let cfg = PlannerConfig::default();
    let mut cache = EvalCache::new();
    let mut networks = Vec::new();
    let mut all_validated = true;
    let mut any_strictly_better = false;
    for name in ZOO {
        let net = find_network(name).expect("zoo network");
        let auto = auto_search(&model, SYS, &net, &cfg, &mut cache);
        let mut fixed = Vec::new();
        let mut best_fixed = f64::INFINITY;
        for cluster in ClusterConfig::paper_configs() {
            let plan = fixed_plan_layers(
                &model,
                SYS,
                &net.name,
                &net.layers,
                cluster,
                &cfg,
                &mut cache,
            );
            best_fixed = best_fixed.min(plan.total_cycles);
            fixed.push(obj(vec![
                ("n_g", num(cluster.n_g as f64)),
                ("n_c", num(cluster.n_c as f64)),
                ("cycles", num(plan.total_cycles)),
            ]));
        }
        let oracle = validate_plan(&model, SYS, &net.layers, &auto, &mut cache);
        all_validated &= oracle.all_within_bounds();
        any_strictly_better |= auto.total_cycles < best_fixed;
        networks.push(obj(vec![
            ("network", s(name)),
            ("layers", num(net.layers.len() as f64)),
            (
                "auto",
                obj(vec![
                    ("cycles", num(auto.total_cycles)),
                    ("energy_j", num(auto.energy_j)),
                    ("reconfigurations", num(auto.reconfigurations as f64)),
                    ("plan_key48", num(plan_key48(auto.plan_key()))),
                ]),
            ),
            ("fixed", Value::Arr(fixed)),
            ("best_fixed_cycles", num(best_fixed)),
            ("speedup_vs_best_fixed", num(best_fixed / auto.total_cycles)),
            (
                "oracle",
                obj(vec![
                    ("checks", num(oracle.checks.len() as f64)),
                    ("skipped", num(oracle.skipped as f64)),
                    ("worst_ratio", num(oracle.worst_ratio())),
                ]),
            ),
            ("validated", Value::Bool(oracle.all_within_bounds())),
        ]));
    }
    let st = cache.stats;
    obj(vec![
        ("config", s(SYS.abbrev())),
        ("reconfig_cycles", num(cfg.reconfig_cycles)),
        ("networks", Value::Arr(networks)),
        ("all_validated", Value::Bool(all_validated)),
        ("any_strictly_better", Value::Bool(any_strictly_better)),
        (
            "opt",
            obj(vec![
                ("configs_evaluated", num(st.configs_evaluated as f64)),
                ("memo_hits", num(st.memo_hits as f64)),
                ("memo_misses", num(st.memo_misses as f64)),
                ("dp_states", num(st.dp_states as f64)),
                ("search_ms", num(st.search_ms)),
            ]),
        ),
    ])
}

/// Renders a report as the experiment's table.
fn render(report: &Value) -> String {
    let mut out = String::new();
    out.push_str("auto-searched plans vs the paper's fixed configs (w_mp++)\n");
    out.push_str(&crate::row(
        "network",
        &[
            "layers",
            "auto",
            "best fixed",
            "speedup",
            "reconfs",
            "oracle",
        ]
        .iter()
        .map(|h| h.to_string())
        .collect::<Vec<_>>(),
    ));
    for n in report.get("networks").and_then(Value::as_arr).unwrap() {
        let cell = |k: &str| n.get(k).and_then(Value::as_f64).unwrap();
        let auto = n.get("auto").unwrap();
        let a = |k: &str| auto.get(k).and_then(Value::as_f64).unwrap();
        let validated = matches!(n.get("validated"), Some(Value::Bool(true)));
        out.push_str(&crate::row(
            n.get("network").and_then(Value::as_str).unwrap(),
            &[
                format!("{}", cell("layers")),
                crate::f(a("cycles")),
                crate::f(cell("best_fixed_cycles")),
                format!("{:.3}x", cell("speedup_vs_best_fixed")),
                format!("{}", a("reconfigurations")),
                (if validated { "ok" } else { "FAIL" }).to_string(),
            ],
        ));
    }
    let o = report.get("opt").unwrap();
    let n = |k: &str| o.get(k).and_then(Value::as_f64).unwrap();
    out.push_str(&format!(
        "opt: {} evaluations ({} memo hits / {} misses), {} DP states, {:.1} ms searching\n",
        n("configs_evaluated"),
        n("memo_hits"),
        n("memo_misses"),
        n("dp_states"),
        n("search_ms"),
    ));
    out
}

/// Runs the sweep and returns the table with its `BENCH_plan.json`
/// report.
pub fn run() -> Output {
    Output::snapshot("BENCH_plan.json", plan_report(), render)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::json::parse;

    #[test]
    fn auto_plans_beat_fixed_configs_and_validate() {
        let v = plan_report();
        let back = parse(&v.render()).expect("report is valid JSON");
        let nets = back.get("networks").and_then(Value::as_arr).unwrap();
        assert_eq!(nets.len(), ZOO.len());
        for n in nets {
            let auto = n
                .get("auto")
                .and_then(|a| a.get("cycles"))
                .and_then(Value::as_f64)
                .unwrap();
            let best_fixed = n.get("best_fixed_cycles").and_then(Value::as_f64).unwrap();
            let name = n.get("network").and_then(Value::as_str).unwrap();
            assert!(
                auto <= best_fixed,
                "{name}: auto {auto} worse than best fixed {best_fixed}"
            );
            assert_eq!(
                n.get("validated"),
                Some(&Value::Bool(true)),
                "{name}: plan failed event-simulator validation"
            );
        }
        assert_eq!(back.get("all_validated"), Some(&Value::Bool(true)));
        assert_eq!(
            back.get("any_strictly_better"),
            Some(&Value::Bool(true)),
            "auto search should strictly beat the fixed configs somewhere"
        );
        let hits = back
            .get("opt")
            .and_then(|o| o.get("memo_hits"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!(hits > 0.0, "shared cache should see repeated shapes");
    }

    #[test]
    fn report_is_deterministic_modulo_wall_clock() {
        let strip = |v: &Value| {
            let mut flat = wmpt_analyze::flatten_numbers(v);
            flat.retain(|k, _| !k.ends_with("search_ms"));
            flat
        };
        assert_eq!(strip(&plan_report()), strip(&plan_report()));
    }
}
