//! The closed-form phase model walks routes over the routing table into
//! link loads indexed by edge id, and cluster fabrics are memoized per
//! `N_g`.
//! Both are pure speedups: this file holds [`bottleneck_phase`] bitwise
//! to a frozen copy of the original `HashMap`-of-link-loads body that
//! allocated one route per flow, and the memoized fabrics to fresh
//! builds.
//!
//! Cases run on the `wmpt-check` harness (seeded generators, shrinking,
//! `WMPT_CHECK_REPLAY` failure replay). Topologies cover rings, 2-D
//! flattened butterflies, cliques, the 257-node paper network and
//! direction-asymmetric rings (a link's reverse is slower or absent, so
//! a load booked on the wrong direction shows), each optionally degraded
//! by a dead link or a dead node; flow sets include self-flows, zero
//! payloads and repeated pairs.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use wmpt_check::{check, Case};
use wmpt_noc::{
    bottleneck_phase, ClusterConfig, LinkKind, MemoryCentricNetwork, NocParams, PhaseTime, Topology,
};

/// The original `bottleneck_phase` body, frozen as the oracle: link
/// loads keyed in a `HashMap`, one allocated route per flow.
fn oracle_phase(
    topo: &Topology,
    params: &NocParams,
    flows: &[(usize, usize, u64)],
    real_packet: usize,
) -> PhaseTime {
    let mut link_bytes: HashMap<(usize, usize), f64> = HashMap::new();
    let mut bytes_hops = 0.0;
    let mut max_route_lat = 0u64;
    for &(src, dst, payload) in flows {
        if src == dst || payload == 0 {
            continue;
        }
        let wire = params.wire_bytes(payload as usize, real_packet) as f64;
        let route = topo.route(src, dst);
        max_route_lat = max_route_lat.max(route.len() as u64 * params.hop_latency());
        for e in &route {
            *link_bytes.entry((e.from, e.to)).or_default() += wire;
            bytes_hops += wire;
        }
    }
    let mut cycles = 0.0f64;
    let mut max_link = 0.0f64;
    for ((from, to), bytes) in &link_bytes {
        let bw = topo.link_kind(*from, *to).bytes_per_cycle();
        cycles = cycles.max(bytes / bw);
        max_link = max_link.max(*bytes);
    }
    PhaseTime {
        cycles: cycles + max_route_lat as f64,
        max_link_bytes: max_link,
        bytes_hops,
    }
}

const KINDS: [LinkKind; 5] = [
    LinkKind::Full,
    LinkKind::FullX2,
    LinkKind::FullX4,
    LinkKind::Narrow,
    LinkKind::Host,
];

/// The paper's 256-worker network (plus host), built once per process.
fn paper_256() -> &'static Topology {
    static NET: OnceLock<Topology> = OnceLock::new();
    NET.get_or_init(|| MemoryCentricNetwork::paper_256().topology)
}

/// A ring of `n` nodes whose forward links are `kind` and whose
/// backward links are `back` (or absent: a one-way ring).
fn asymmetric_ring(n: usize, kind: LinkKind, back: Option<LinkKind>) -> Topology {
    let mut edges = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        edges.push((i, j, kind));
        if let Some(b) = back {
            edges.push((j, i, b));
        }
    }
    Topology::from_edges(n, &edges)
}

/// A ring, flattened butterfly, clique, the paper network or an
/// asymmetric ring, then optionally degraded by one dead link or one
/// dead node (kept intact when the degradation would partition it).
fn gen_topology(c: &mut Case) -> Topology {
    let kind = *c.pick(&KINDS);
    let base = match c.size(0, 4) {
        0 => Topology::ring(c.size(2, 24), kind),
        1 => {
            let rows = c.size(1, 5);
            let cols = c.size(if rows == 1 { 2 } else { 1 }, 5);
            Topology::flattened_butterfly(rows, cols, kind)
        }
        2 => Topology::fully_connected(c.size(2, 10), kind),
        3 => paper_256().clone(),
        _ => {
            let back = c.bool().then(|| *c.pick(&KINDS));
            asymmetric_ring(c.size(2, 16), kind, back)
        }
    };
    let degraded = match c.size(0, 2) {
        0 => None,
        1 => {
            let edges = base.edges();
            let &(a, b, _) = c.pick(edges);
            base.without_links(&[(a, b)]).ok()
        }
        _ => base.without_nodes(&[c.size(0, base.len() - 1)]).ok(),
    };
    degraded.unwrap_or(base)
}

/// Up to 48 flows between alive nodes: self-flows, zero payloads and
/// repeats of earlier flows all appear.
fn gen_flows(c: &mut Case, topo: &Topology) -> Vec<(usize, usize, u64)> {
    let alive: Vec<usize> = (0..topo.len()).filter(|&v| topo.is_alive(v)).collect();
    let count = c.size(0, 48);
    let mut flows: Vec<(usize, usize, u64)> = Vec::with_capacity(count);
    for _ in 0..count {
        let flow = match c.size(0, 5) {
            0 if !flows.is_empty() => *c.pick(&flows),
            1 => {
                let v = *c.pick(&alive);
                (v, v, c.u64_in(1, 1 << 20))
            }
            2 => (*c.pick(&alive), *c.pick(&alive), 0),
            _ => (*c.pick(&alive), *c.pick(&alive), c.u64_in(1, 1 << 22)),
        };
        flows.push(flow);
    }
    flows
}

fn assert_bits_eq(got: PhaseTime, want: PhaseTime, what: &str) {
    assert_eq!(
        got.cycles.to_bits(),
        want.cycles.to_bits(),
        "{what}: cycles"
    );
    assert_eq!(
        got.max_link_bytes.to_bits(),
        want.max_link_bytes.to_bits(),
        "{what}: max_link_bytes"
    );
    assert_eq!(
        got.bytes_hops.to_bits(),
        want.bytes_hops.to_bits(),
        "{what}: bytes_hops"
    );
}

/// Every field of the table-walked phase equals the frozen oracle's, bit
/// for bit.
#[test]
fn bottleneck_phase_matches_frozen_oracle() {
    let params = NocParams::paper();
    check("bottleneck_phase_matches_frozen_oracle", |c| {
        let topo = gen_topology(c);
        let flows = gen_flows(c, &topo);
        let real_packet = *c.pick(&[16usize, 64, 256]);
        assert_bits_eq(
            bottleneck_phase(&topo, &params, &flows, real_packet),
            oracle_phase(&topo, &params, &flows, real_packet),
            &format!("{} nodes, flows {flows:?}", topo.len()),
        );
    });
}

/// The cluster fabric of `n_g` groups, built afresh.
fn fresh_fabric(n_g: usize) -> Topology {
    let side = (n_g as f64).sqrt().round() as usize;
    if n_g > 4 && side * side == n_g {
        Topology::flattened_butterfly(side, side, LinkKind::Narrow)
    } else {
        Topology::fully_connected(n_g, LinkKind::Narrow)
    }
}

/// The memoized fabric routes every pair exactly like a fresh build,
/// and repeated calls (from any `N_c`) share one allocation.
#[test]
fn memoized_fabrics_match_fresh_builds() {
    assert!(ClusterConfig::new(1, 256).cluster_topology().is_none());
    for n_g in [2, 3, 4, 5, 8, 9, 16, 64] {
        let memo = ClusterConfig::new(n_g, 1)
            .cluster_topology()
            .expect("n_g > 1 has a fabric");
        let again = ClusterConfig::new(n_g, 4).cluster_topology().unwrap();
        assert!(Arc::ptr_eq(&memo, &again), "n_g={n_g}: rebuilt");
        let fresh = fresh_fabric(n_g);
        assert_eq!(memo.edges(), fresh.edges(), "n_g={n_g}");
        for a in 0..n_g {
            for b in 0..n_g {
                assert_eq!(memo.route(a, b), fresh.route(a, b), "n_g={n_g}: {a}->{b}");
            }
        }
    }
}
