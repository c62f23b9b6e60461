//! Workload inputs, generated from the seed alone.
//!
//! Each stream is built in *blocks* of fixed composition whose order is
//! shuffled by the seed. The seed changes which requests run and in what
//! order, but not the mix of request classes, so percentiles stay inside
//! the same class from seed to seed instead of landing on a boundary
//! between classes.

use wmpt_core::SystemConfig;
use wmpt_models::table2_layers;
use wmpt_serve::SimRequest;

use crate::rng::Rng;

/// Fault scenarios cycled through by the `faults` requests.
pub const FAULT_SCENARIOS: [&str; 6] = [
    "single-link",
    "dead-worker",
    "bit-flip",
    "straggler",
    "host-flap",
    "chaos",
];
/// The two flit-level topologies and four traffic patterns: 8 `noc` keys.
pub const NOC_TOPOS: [&str; 2] = ["ring", "fbfly"];
pub const NOC_PATTERNS: [&str; 4] = ["uniform", "transpose", "neighbor", "hotspot"];
/// The model-zoo networks: 5 `plan_auto` keys.
pub const NETWORKS: [&str; 5] = ["table2", "wrn", "resnet34", "fractalnet", "vgg16"];

/// One slot of a block: which request class fills it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// A Table-II layer under an ordered list of `k` distinct configs.
    Layer(usize),
    /// A fault scenario with a fresh seed.
    Faults,
    /// The next request of the scarce pool (plans, networks, NoC sweeps,
    /// auto-plans: few distinct keys, so each is used at most once).
    Scarce,
    Noc,
    PlanAuto,
    NetworkAll,
}

/// `serve_miss` block: 20 submissions, every one a distinct cache key.
const MISS_BLOCK: [(Slot, usize); 5] = [
    (Slot::Layer(4), 4),
    (Slot::Layer(5), 8),
    (Slot::Layer(6), 4),
    (Slot::Faults, 3),
    (Slot::Scarce, 1),
];

/// `sim_cli` block: every NoC key twice, every auto-plan and each
/// network's six-config sweep once, and four fault runs. The doubled NoC
/// sweeps fill the middle and the top of the latency distribution
/// densely, so the median and p90 do not fall into a gap.
const CLI_BLOCK: [(Slot, usize); 4] = [
    (Slot::Noc, 16),
    (Slot::PlanAuto, 5),
    (Slot::NetworkAll, 5),
    (Slot::Faults, 4),
];

fn config_abbrevs() -> Vec<String> {
    SystemConfig::all()
        .iter()
        .map(|c| c.abbrev().to_string())
        .collect()
}

fn layer_names() -> Vec<String> {
    table2_layers().into_iter().map(|l| l.name).collect()
}

/// Every ordered list of `k` distinct configs.
fn ordered_config_lists(k: usize) -> Vec<Vec<String>> {
    fn extend(acc: &mut Vec<Vec<String>>, cur: &mut Vec<String>, all: &[String], k: usize) {
        if cur.len() == k {
            acc.push(cur.clone());
            return;
        }
        for c in all {
            if !cur.contains(c) {
                cur.push(c.clone());
                extend(acc, cur, all, k);
                cur.pop();
            }
        }
    }
    let mut acc = Vec::new();
    extend(&mut acc, &mut Vec::new(), &config_abbrevs(), k);
    acc
}

fn layer_req(layer: &str, configs: &[String]) -> SimRequest {
    SimRequest::Layer {
        layer: layer.to_string(),
        configs: configs.to_vec(),
    }
}

fn network_req(network: &str, configs: &[String]) -> SimRequest {
    SimRequest::Network {
        network: network.to_string(),
        configs: configs.to_vec(),
    }
}

/// A seeded `faults` request; the fault seed stays below 2^32 so it
/// survives the JSON round trip exactly.
fn faults_req(rng: &mut Rng, i: usize) -> SimRequest {
    let scenario = FAULT_SCENARIOS[i % FAULT_SCENARIOS.len()];
    SimRequest::faults(
        scenario,
        rng.next_u64() >> 32,
        wmpt_serve::DEFAULT_FAULT_ITERS,
    )
    .expect("known scenario")
}

/// Expands a block's slot counts into a seeded order.
fn block_slots(block: &[(Slot, usize)], rng: &mut Rng) -> Vec<Slot> {
    let mut slots: Vec<Slot> = block
        .iter()
        .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
        .collect();
    rng.shuffle(&mut slots);
    slots
}

/// The scarce `serve_miss` pool: `table2` with one or two configs,
/// `vgg16` with one, every single-config `plan`, every NoC key and every
/// auto-plan — 85 keys, shuffled.
fn scarce_pool(rng: &mut Rng) -> Vec<SimRequest> {
    let mut pool = Vec::new();
    for k in 1..=2 {
        for cfgs in ordered_config_lists(k) {
            pool.push(network_req("table2", &cfgs));
        }
    }
    for cfgs in ordered_config_lists(1) {
        pool.push(network_req("vgg16", &cfgs));
    }
    for net in NETWORKS {
        for cfg in config_abbrevs() {
            pool.push(SimRequest::plan(net, &cfg).expect("known plan"));
        }
        pool.push(SimRequest::plan_auto(net).expect("known network"));
    }
    for topo in NOC_TOPOS {
        for pattern in NOC_PATTERNS {
            pool.push(SimRequest::noc(topo, pattern).expect("known noc"));
        }
    }
    rng.shuffle(&mut pool);
    pool
}

/// The `serve_miss` deck: up to `len` submissions with pairwise distinct
/// cache keys. Layer lists are drawn without replacement; fault seeds
/// are fresh; once the scarce pool runs dry its slot takes a fault run.
pub fn serve_miss_deck(seed: u64, len: usize) -> Vec<SimRequest> {
    let mut rng = Rng::new(seed);
    let layers = layer_names();
    let mut layer_pools: Vec<(usize, Vec<SimRequest>)> = [4, 5, 6]
        .into_iter()
        .map(|k| {
            let mut pool: Vec<SimRequest> = ordered_config_lists(k)
                .iter()
                .flat_map(|cfgs| layers.iter().map(move |l| layer_req(l, cfgs)))
                .collect();
            rng.shuffle(&mut pool);
            (k, pool)
        })
        .collect();
    let mut scarce = scarce_pool(&mut rng);
    let mut seen = std::collections::HashSet::new();
    let mut deck = Vec::with_capacity(len);
    let mut faults = 0usize;
    'blocks: while deck.len() < len {
        for slot in block_slots(&MISS_BLOCK, &mut rng) {
            let req = match slot {
                Slot::Layer(k) => {
                    let pool = &mut layer_pools
                        .iter_mut()
                        .find(|(pk, _)| *pk == k)
                        .expect("pool")
                        .1;
                    match pool.pop() {
                        Some(r) => r,
                        None => break 'blocks,
                    }
                }
                Slot::Scarce if !scarce.is_empty() => scarce.pop().expect("non-empty"),
                _ => loop {
                    faults += 1;
                    let r = faults_req(&mut rng, faults);
                    if !seen.contains(&r.cache_key()) {
                        break r;
                    }
                },
            };
            seen.insert(req.cache_key());
            deck.push(req);
            if deck.len() == len {
                break 'blocks;
            }
        }
    }
    deck
}

/// The `sim_cli` stream: `len` direct calls, block by block.
pub fn sim_cli_stream(seed: u64, len: usize) -> Vec<SimRequest> {
    let mut rng = Rng::new(seed ^ 0x51c1);
    let all = config_abbrevs();
    let mut out = Vec::with_capacity(len);
    let mut faults = 0usize;
    while out.len() < len {
        let (mut noc, mut auto, mut nets) = (0usize, 0usize, 0usize);
        let mut order: Vec<usize> = (0..NETWORKS.len()).collect();
        rng.shuffle(&mut order);
        for slot in block_slots(&CLI_BLOCK, &mut rng) {
            let req = match slot {
                Slot::Noc => {
                    noc += 1;
                    let i = (noc - 1) % 8;
                    SimRequest::noc(NOC_TOPOS[i / 4], NOC_PATTERNS[i % 4]).expect("known noc")
                }
                Slot::PlanAuto => {
                    auto += 1;
                    SimRequest::plan_auto(NETWORKS[order[auto - 1]]).expect("known network")
                }
                Slot::NetworkAll => {
                    nets += 1;
                    network_req(NETWORKS[order[nets - 1]], &all)
                }
                _ => {
                    faults += 1;
                    faults_req(&mut rng, faults)
                }
            };
            out.push(req);
            if out.len() == len {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn streams_are_a_function_of_the_seed() {
        assert_eq!(serve_miss_deck(3, 400), serve_miss_deck(3, 400));
        assert_ne!(serve_miss_deck(3, 400), serve_miss_deck(4, 400));
        assert_eq!(sim_cli_stream(3, 100), sim_cli_stream(3, 100));
        assert_ne!(sim_cli_stream(3, 100), sim_cli_stream(4, 100));
    }

    #[test]
    fn serve_miss_keys_are_pairwise_distinct() {
        for seed in [1, 2, 99] {
            let deck = serve_miss_deck(seed, 9000);
            assert_eq!(deck.len(), 9000);
            let keys: HashSet<u128> = deck.iter().map(SimRequest::cache_key).collect();
            assert_eq!(keys.len(), deck.len(), "duplicate cache key at seed {seed}");
        }
    }

    /// Request count per class; `fold` maps a request to its class.
    fn mix(deck: &[SimRequest], fold: fn(&SimRequest) -> String) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for r in deck {
            *m.entry(fold(r)).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn block_mix_does_not_depend_on_the_seed() {
        // serve_miss: layer sweeps by length, fault runs, and one slot of
        // the scarce pool per block.
        let miss = |r: &SimRequest| match r {
            SimRequest::Layer { configs, .. } => format!("layer{}", configs.len()),
            SimRequest::Faults { .. } => "faults".to_string(),
            _ => "scarce".to_string(),
        };
        let (a, b) = (serve_miss_deck(1, 200), serve_miss_deck(2, 200));
        assert_eq!(mix(&a, miss), mix(&b, miss));
        assert_eq!(mix(&a, miss)["layer4"], 40);
        assert_eq!(mix(&a, miss)["scarce"], 10);
        let kind = |r: &SimRequest| r.kind().to_string();
        let (a, b) = (sim_cli_stream(1, 300), sim_cli_stream(2, 300));
        assert_eq!(mix(&a, kind), mix(&b, kind));
        assert_eq!(mix(&a, kind)["noc"], 160);
    }

    #[test]
    fn every_generated_request_validates() {
        let reqs = serve_miss_deck(5, 3000)
            .into_iter()
            .chain(sim_cli_stream(5, 200));
        for r in reqs {
            let back = SimRequest::from_json(&r.to_json()).expect("valid request");
            assert_eq!(back, r);
        }
    }
}
