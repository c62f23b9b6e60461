//! [`SimRequest`]: the serializable description of one simulation job.
//!
//! One type, three constructors' worth of front ends: the `mpt_sim`
//! CLI parses argv into a `SimRequest`, the HTTP server parses a JSON
//! body into the *same* `SimRequest`, and both hand it to
//! [`crate::run_request`] — so a curl body and a shell invocation are
//! interchangeable descriptions of the same deterministic computation,
//! and the content hash of the request (see [`crate::canonical_hash`])
//! addresses its memoized result.
//!
//! Construction validates everything (layer/network/config/scenario
//! names against the model zoo, numeric ranges), so a `SimRequest` that
//! exists can always be executed; malformed submissions fail at the
//! edge with a message instead of deep inside a worker.
//!
//! `all` sweeps are canonicalized at construction: `configs: "all"`
//! expands to the six explicit abbreviations, so a request spelled
//! either way lands on the same cache entry.

use wmpt_core::SystemConfig;
use wmpt_fault::Scenario;
use wmpt_models::{table2_layers, Network};
use wmpt_obs::json::{num, obj, s, Value};

/// Default `--iters` of a faults request, matching the CLI default.
pub const DEFAULT_FAULT_ITERS: usize = 6;
/// Default `--seed` of a faults request, matching the CLI default.
pub const DEFAULT_FAULT_SEED: u64 = 7;
/// Upper bound on a faults request's `iters`. A run costs about 0.6 ms
/// per iteration on a 2-vCPU Xeon, so one request holds a worker for
/// about a second at most.
pub const MAX_FAULT_ITERS: usize = 1024;

/// One simulation job: everything needed to reproduce a result, and
/// nothing else (no output paths, no thread counts — those belong to
/// the execution site, not the content address).
#[derive(Debug, Clone, PartialEq)]
pub enum SimRequest {
    /// One Table-II layer under one or more system configurations.
    Layer {
        /// Table-II layer name (`Early`, `Mid-1`, ...).
        layer: String,
        /// Explicit config abbreviations, in sweep order.
        configs: Vec<String>,
    },
    /// A whole CNN under one or more system configurations.
    Network {
        /// Model-zoo network name (`wrn`, `resnet34`, ...).
        network: String,
        /// Explicit config abbreviations, in sweep order.
        configs: Vec<String>,
    },
    /// Flit-level latency/throughput sweep of a NoC topology.
    Noc {
        /// Topology name (`ring` or `fbfly`).
        topo: String,
        /// Traffic pattern name.
        pattern: String,
    },
    /// The host's per-layer parallelization plan for a network.
    Plan {
        /// Model-zoo network name.
        network: String,
        /// Single config abbreviation.
        config: String,
    },
    /// Auto-searched parallelization plan (`wmpt-opt` DP over the
    /// decision space, validated against the event simulator).
    PlanAuto {
        /// Model-zoo network name.
        network: String,
    },
    /// A seeded fault scenario through the resilient trainer.
    Faults {
        /// Scenario name (see `wmpt-fault`).
        scenario: String,
        /// Fault-plan seed.
        seed: u64,
        /// Training iterations.
        iters: usize,
    },
    /// Critical-path / utilization analysis of an embedded chrome trace.
    Analyze {
        /// Complete chrome `trace_event` JSON document text.
        trace: String,
    },
}

/// The six config abbreviations, in sweep order.
fn all_config_abbrevs() -> Vec<String> {
    SystemConfig::all()
        .iter()
        .map(|c| c.abbrev().to_string())
        .collect()
}

/// Expands `all` / validates a single config selector.
fn parse_configs(sel: &str) -> Result<Vec<String>, String> {
    if sel == "all" {
        return Ok(all_config_abbrevs());
    }
    match SystemConfig::all().iter().find(|c| c.abbrev() == sel) {
        Some(c) => Ok(vec![c.abbrev().to_string()]),
        None => Err(format!("unknown config '{sel}'")),
    }
}

fn validate_config_list(configs: &[String]) -> Result<(), String> {
    if configs.is_empty() {
        return Err("empty config list".to_string());
    }
    for c in configs {
        if !SystemConfig::all().iter().any(|k| k.abbrev() == c) {
            return Err(format!("unknown config '{c}'"));
        }
    }
    Ok(())
}

fn validate_layer(name: &str) -> Result<(), String> {
    if table2_layers().iter().any(|l| l.name == name) {
        Ok(())
    } else {
        Err(format!("unknown layer '{name}'"))
    }
}

/// Resolves a model-zoo network by name — the single registry the CLI,
/// the server, and the runner share.
pub fn find_network(name: &str) -> Option<Network> {
    match name {
        "table2" => Some(wmpt_models::table2_network()),
        "wrn" => Some(wmpt_models::wrn_40_10()),
        "resnet34" => Some(wmpt_models::resnet34()),
        "fractalnet" => Some(wmpt_models::fractalnet()),
        "vgg16" => Some(wmpt_models::vgg16()),
        _ => None,
    }
}

fn validate_network(name: &str) -> Result<(), String> {
    if find_network(name).is_some() {
        Ok(())
    } else {
        Err(format!("unknown network '{name}'"))
    }
}

fn validate_noc(topo: &str, pattern: &str) -> Result<(), String> {
    if !matches!(topo, "ring" | "fbfly") {
        return Err(format!("unknown topology '{topo}'"));
    }
    if !matches!(pattern, "uniform" | "transpose" | "neighbor" | "hotspot") {
        return Err(format!("unknown traffic pattern '{pattern}'"));
    }
    Ok(())
}

impl SimRequest {
    /// A layer sweep; `sel` is one config abbreviation or `all`.
    pub fn layer(name: &str, sel: &str) -> Result<SimRequest, String> {
        validate_layer(name)?;
        Ok(SimRequest::Layer {
            layer: name.to_string(),
            configs: parse_configs(sel)?,
        })
    }

    /// A network sweep; `sel` is one config abbreviation or `all`.
    pub fn network(name: &str, sel: &str) -> Result<SimRequest, String> {
        validate_network(name)?;
        Ok(SimRequest::Network {
            network: name.to_string(),
            configs: parse_configs(sel)?,
        })
    }

    /// A NoC latency/throughput sweep.
    pub fn noc(topo: &str, pattern: &str) -> Result<SimRequest, String> {
        validate_noc(topo, pattern)?;
        Ok(SimRequest::Noc {
            topo: topo.to_string(),
            pattern: pattern.to_string(),
        })
    }

    /// A per-layer parallelization plan.
    pub fn plan(network: &str, config: &str) -> Result<SimRequest, String> {
        validate_network(network)?;
        let configs = parse_configs(config)?;
        if configs.len() != 1 {
            return Err("plan takes a single config, not 'all'".to_string());
        }
        Ok(SimRequest::Plan {
            network: network.to_string(),
            config: configs.into_iter().next().expect("one config"),
        })
    }

    /// An auto-searched parallelization plan (always under the full
    /// `w_mp++` configuration — the search space subsumes the fixed
    /// configs, so there is nothing to select).
    pub fn plan_auto(network: &str) -> Result<SimRequest, String> {
        validate_network(network)?;
        Ok(SimRequest::PlanAuto {
            network: network.to_string(),
        })
    }

    /// A seeded fault scenario.
    pub fn faults(scenario: &str, seed: u64, iters: usize) -> Result<SimRequest, String> {
        if Scenario::parse(scenario).is_none() {
            return Err(format!("unknown scenario '{scenario}'"));
        }
        if iters == 0 {
            return Err("iters must be positive".to_string());
        }
        if iters > MAX_FAULT_ITERS {
            return Err(format!(
                "iters must be at most {MAX_FAULT_ITERS} (got {iters})"
            ));
        }
        Ok(SimRequest::Faults {
            scenario: scenario.to_string(),
            seed,
            iters,
        })
    }

    /// An analysis of an embedded chrome-trace document (validated when
    /// executed; the text is opaque content here).
    pub fn analyze(trace: &str) -> Result<SimRequest, String> {
        if trace.trim().is_empty() {
            return Err("empty trace document".to_string());
        }
        Ok(SimRequest::Analyze {
            trace: trace.to_string(),
        })
    }

    /// The request kind's stable name (`layer`, `network`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            SimRequest::Layer { .. } => "layer",
            SimRequest::Network { .. } => "network",
            SimRequest::Noc { .. } => "noc",
            SimRequest::Plan { .. } => "plan",
            SimRequest::PlanAuto { .. } => "plan_auto",
            SimRequest::Faults { .. } => "faults",
            SimRequest::Analyze { .. } => "analyze",
        }
    }

    /// Serializes to the canonical JSON object (fixed member order; the
    /// content hash is order-independent anyway).
    pub fn to_json(&self) -> Value {
        match self {
            SimRequest::Layer { layer, configs } => obj(vec![
                ("kind", s("layer")),
                ("layer", s(layer)),
                (
                    "configs",
                    Value::Arr(configs.iter().map(|c| s(c)).collect()),
                ),
            ]),
            SimRequest::Network { network, configs } => obj(vec![
                ("kind", s("network")),
                ("network", s(network)),
                (
                    "configs",
                    Value::Arr(configs.iter().map(|c| s(c)).collect()),
                ),
            ]),
            SimRequest::Noc { topo, pattern } => obj(vec![
                ("kind", s("noc")),
                ("topo", s(topo)),
                ("pattern", s(pattern)),
            ]),
            SimRequest::Plan { network, config } => obj(vec![
                ("kind", s("plan")),
                ("network", s(network)),
                ("config", s(config)),
            ]),
            SimRequest::PlanAuto { network } => {
                obj(vec![("kind", s("plan_auto")), ("network", s(network))])
            }
            SimRequest::Faults {
                scenario,
                seed,
                iters,
            } => obj(vec![
                ("kind", s("faults")),
                ("scenario", s(scenario)),
                ("seed", num(*seed as f64)),
                ("iters", num(*iters as f64)),
            ]),
            SimRequest::Analyze { trace } => obj(vec![("kind", s("analyze")), ("trace", s(trace))]),
        }
    }

    /// Parses and validates a request from JSON. Strict: unknown kinds,
    /// unknown member names, missing members, and invalid values are all
    /// errors — a server must not guess.
    pub fn from_json(v: &Value) -> Result<SimRequest, String> {
        let members = v.as_obj().ok_or("request must be a JSON object")?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing string member 'kind'")?;
        let allowed: &[&str] = match kind {
            "layer" => &["kind", "layer", "configs"],
            "network" => &["kind", "network", "configs"],
            "noc" => &["kind", "topo", "pattern"],
            "plan" => &["kind", "network", "config"],
            "plan_auto" => &["kind", "network"],
            "faults" => &["kind", "scenario", "seed", "iters"],
            "analyze" => &["kind", "trace"],
            other => return Err(format!("unknown request kind '{other}'")),
        };
        for (k, _) in members {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown member '{k}' for kind '{kind}'"));
            }
        }
        let str_member = |name: &str| -> Result<&str, String> {
            v.get(name)
                .and_then(Value::as_str)
                .ok_or(format!("missing string member '{name}'"))
        };
        let configs_member = |name: &str| -> Result<Vec<String>, String> {
            let arr = v
                .get(name)
                .and_then(Value::as_arr)
                .ok_or(format!("missing array member '{name}'"))?;
            arr.iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or(format!("'{name}' entries must be strings"))
                })
                .collect()
        };
        match kind {
            "layer" => {
                let layer = str_member("layer")?;
                validate_layer(layer)?;
                let configs = configs_member("configs")?;
                validate_config_list(&configs)?;
                Ok(SimRequest::Layer {
                    layer: layer.to_string(),
                    configs,
                })
            }
            "network" => {
                let network = str_member("network")?;
                validate_network(network)?;
                let configs = configs_member("configs")?;
                validate_config_list(&configs)?;
                Ok(SimRequest::Network {
                    network: network.to_string(),
                    configs,
                })
            }
            "noc" => SimRequest::noc(str_member("topo")?, str_member("pattern")?),
            "plan" => SimRequest::plan(str_member("network")?, str_member("config")?),
            "plan_auto" => SimRequest::plan_auto(str_member("network")?),
            "faults" => {
                let seed = v
                    .get("seed")
                    .map(|x| x.as_u64().ok_or("'seed' must be a non-negative integer"))
                    .transpose()?
                    .unwrap_or(DEFAULT_FAULT_SEED);
                let iters = v
                    .get("iters")
                    .map(|x| x.as_u64().ok_or("'iters' must be a non-negative integer"))
                    .transpose()?
                    .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
                    .unwrap_or(DEFAULT_FAULT_ITERS);
                SimRequest::faults(str_member("scenario")?, seed, iters)
            }
            "analyze" => SimRequest::analyze(str_member("trace")?),
            _ => unreachable!("kind checked above"),
        }
    }

    /// The request's content address: the canonical hash of its JSON.
    pub fn cache_key(&self) -> u128 {
        crate::hash::canonical_hash(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::json::parse;

    #[test]
    fn constructors_validate_names() {
        assert!(SimRequest::layer("Late-2", "w_mp++").is_ok());
        assert!(SimRequest::layer("Nope", "w_mp++").is_err());
        assert!(SimRequest::layer("Late-2", "bogus").is_err());
        assert!(SimRequest::network("wrn", "all").is_ok());
        assert!(SimRequest::network("alexnet", "all").is_err());
        assert!(SimRequest::noc("ring", "uniform").is_ok());
        assert!(SimRequest::noc("mesh", "uniform").is_err());
        assert!(SimRequest::plan("wrn", "all").is_err());
        assert!(SimRequest::plan_auto("table2").is_ok());
        assert!(SimRequest::plan_auto("alexnet").is_err());
        assert!(SimRequest::faults("single-link", 7, 6).is_ok());
        assert!(SimRequest::faults("single-link", 7, 0).is_err());
        assert!(SimRequest::faults("single-link", 7, MAX_FAULT_ITERS).is_ok());
        assert!(SimRequest::faults("gremlins", 7, 6).is_err());
        assert!(SimRequest::analyze("").is_err());
    }

    #[test]
    fn all_expands_to_the_explicit_sweep() {
        let req = SimRequest::layer("Late-2", "all").unwrap();
        let SimRequest::Layer { configs, .. } = &req else {
            panic!("kind");
        };
        assert_eq!(configs.len(), 6);
        // Spelling the sweep explicitly lands on the same cache entry.
        let explicit = parse(
            r#"{"kind":"layer","layer":"Late-2",
                "configs":["d_dp","w_dp","w_mp","w_mp+","w_mp*","w_mp++"]}"#,
        )
        .unwrap();
        let explicit = SimRequest::from_json(&explicit).unwrap();
        assert_eq!(req.cache_key(), explicit.cache_key());
    }

    #[test]
    fn json_round_trips_and_is_strict() {
        let reqs = [
            SimRequest::layer("Mid-1", "all").unwrap(),
            SimRequest::network("resnet34", "w_mp").unwrap(),
            SimRequest::noc("fbfly", "hotspot").unwrap(),
            SimRequest::plan("wrn", "w_mp++").unwrap(),
            SimRequest::plan_auto("vgg16").unwrap(),
            SimRequest::faults("chaos", 99, 4).unwrap(),
            SimRequest::analyze("{\"traceEvents\":[]}").unwrap(),
        ];
        for req in reqs {
            let text = req.to_json().render();
            let back = SimRequest::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, req);
            // render ∘ parse ∘ render is a fixed point.
            assert_eq!(parse(&text).unwrap().render(), text);
        }
        let bad = parse(r#"{"kind":"layer","layer":"Late-2","configs":["w_mp"],"x":1}"#).unwrap();
        assert!(SimRequest::from_json(&bad).is_err(), "unknown member");
        let bad = parse(r#"{"kind":"teapot"}"#).unwrap();
        assert!(SimRequest::from_json(&bad).is_err(), "unknown kind");
    }

    #[test]
    fn faults_members_default_like_the_cli() {
        let v = parse(r#"{"kind":"faults","scenario":"single-link"}"#).unwrap();
        let req = SimRequest::from_json(&v).unwrap();
        assert_eq!(
            req,
            SimRequest::faults("single-link", DEFAULT_FAULT_SEED, DEFAULT_FAULT_ITERS).unwrap()
        );
    }

    #[test]
    fn faults_iters_past_the_bound_are_rejected_with_a_message() {
        let err = SimRequest::faults("single-link", 7, MAX_FAULT_ITERS + 1).unwrap_err();
        assert_eq!(
            err,
            format!("iters must be at most {MAX_FAULT_ITERS} (got 1025)")
        );
        // Through the JSON door too, including counts past usize on
        // narrow targets.
        for iters in ["1025", "18446744073709551615"] {
            let text = format!(r#"{{"kind":"faults","scenario":"chaos","iters":{iters}}}"#);
            let err = SimRequest::from_json(&parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("iters must be at most"), "{err}");
        }
    }

    #[test]
    fn cache_key_ignores_member_order() {
        let a = parse(r#"{"kind":"noc","topo":"ring","pattern":"uniform"}"#).unwrap();
        let b = parse(r#"{"pattern":"uniform","kind":"noc","topo":"ring"}"#).unwrap();
        let (a, b) = (
            SimRequest::from_json(&a).unwrap(),
            SimRequest::from_json(&b).unwrap(),
        );
        assert_eq!(a.cache_key(), b.cache_key());
        let c = SimRequest::noc("ring", "hotspot").unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
