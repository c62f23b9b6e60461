//! The packet tier keeps one link timeline per edge id and walks routes
//! over the routing table. That is a pure re-indexing: this file holds
//! [`PacketNetwork`] bitwise to a frozen copy of the original body, which
//! kept its timelines in a `HashMap` keyed by `(from, to)`, allocated one
//! route per transfer and looked each hop's link kind up by pair. It
//! also checks the link numbering itself: every route edge's id names
//! that edge in [`Topology::edges`], and [`Topology::edge_id`] inverts
//! the list.
//!
//! Cases run on the `wmpt-check` harness (seeded generators, shrinking,
//! `WMPT_CHECK_REPLAY` failure replay). Topologies cover rings, 2-D
//! flattened butterflies, cliques, the 257-node paper network and
//! direction-asymmetric rings (a link's reverse is slower or absent, so
//! time booked on the wrong direction shows), each optionally degraded
//! by a dead link or a dead node. Transfer sequences include
//! self-transfers, zero bytes, repeated pairs and mixed real and
//! simulated packet sizes.

use std::collections::HashMap;
use std::sync::OnceLock;

use wmpt_check::{check, Case};
use wmpt_noc::{LinkKind, MemoryCentricNetwork, NocParams, PacketNetwork, Topology};
use wmpt_sim::{serialization_cycles, ResourceTimeline, Time};

/// The original `PacketNetwork` state and `transfer` body, frozen as
/// the oracle: link timelines keyed in a `HashMap`, one allocated route
/// per transfer, each hop's kind looked up by `(from, to)`.
struct OracleNetwork<'t> {
    topo: &'t Topology,
    params: NocParams,
    links: HashMap<(usize, usize), ResourceTimeline>,
    bytes_on_wire: u64,
}

impl<'t> OracleNetwork<'t> {
    fn new(topo: &'t Topology, params: NocParams) -> Self {
        Self {
            topo,
            params,
            links: HashMap::new(),
            bytes_on_wire: 0,
        }
    }

    fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        ready: Time,
        real_packet: usize,
        sim_packet: usize,
    ) -> Time {
        if src == dst || bytes == 0 {
            return ready;
        }
        let route = self.topo.route(src, dst);
        let hop_lat = self.params.hop_latency();
        let wire = self.params.wire_bytes(bytes as usize, real_packet) as u64;
        self.bytes_on_wire += wire * route.len() as u64;
        let sim_packet = sim_packet.max(real_packet) as u64;
        let n_pkts = wire.div_ceil(sim_packet);
        let mut done = ready;
        let mut remaining = wire;
        for _ in 0..n_pkts {
            let pkt_bytes = remaining.min(sim_packet);
            remaining -= pkt_bytes;
            let mut t = ready;
            for e in &route {
                let kind = self.topo.link_kind(e.from, e.to);
                let ser = serialization_cycles(pkt_bytes, kind.bytes_per_cycle());
                let tl = self.links.entry((e.from, e.to)).or_default();
                let (_, end) = tl.reserve(t, ser);
                t = end + hop_lat;
            }
            done = done.max(t);
        }
        done
    }

    fn link_busy(&self, from: usize, to: usize) -> Time {
        self.links
            .get(&(from, to))
            .map(|t| t.busy_cycles())
            .unwrap_or(0)
    }

    fn total_link_busy(&self) -> Time {
        self.links.values().map(|t| t.busy_cycles()).sum()
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
            let &(a, b, _) = c.pick(base.edges());
            base.without_links(&[(a, b)]).ok()
        }
        _ => base.without_nodes(&[c.size(0, base.len() - 1)]).ok(),
    };
    degraded.unwrap_or(base)
}

/// One `transfer` call: `(src, dst, bytes, ready, real_packet,
/// sim_packet)`.
type Transfer = (usize, usize, u64, Time, usize, usize);

/// Up to 40 transfers between alive nodes: self-transfers, zero bytes
/// and repeats of earlier pairs all appear; packet sizes vary per call
/// (a simulation packet smaller than the real one is raised to it).
fn gen_transfers(c: &mut Case, topo: &Topology) -> Vec<Transfer> {
    let alive: Vec<usize> = (0..topo.len()).filter(|&v| topo.is_alive(v)).collect();
    let count = c.size(0, 40);
    let mut out: Vec<Transfer> = Vec::with_capacity(count);
    for _ in 0..count {
        let (src, dst, bytes) = match c.size(0, 5) {
            0 if !out.is_empty() => {
                let &(s, d, ..) = c.pick(&out);
                (s, d, c.u64_in(1, 1 << 16))
            }
            1 => {
                let v = *c.pick(&alive);
                (v, v, c.u64_in(1, 1 << 16))
            }
            2 => (*c.pick(&alive), *c.pick(&alive), 0),
            _ => (*c.pick(&alive), *c.pick(&alive), c.u64_in(1, 1 << 16)),
        };
        let ready = c.u64_in(0, 20_000);
        let real_packet = *c.pick(&[16usize, 64, 256]);
        let sim_packet = *c.pick(&[16usize, 64, 1024, 4096]);
        out.push((src, dst, bytes, ready, real_packet, sim_packet));
    }
    out
}

/// Every returned time, every link's busy cycles (also of pairs that
/// are not links), `bytes_hops` and `total_link_busy` equal the frozen
/// oracle's exactly.
#[test]
fn packet_network_matches_frozen_oracle() {
    let params = NocParams::paper();
    check("packet_network_matches_frozen_oracle", |c| {
        let topo = gen_topology(c);
        let transfers = gen_transfers(c, &topo);
        let mut net = PacketNetwork::new(topo.clone(), params);
        let mut oracle = OracleNetwork::new(&topo, params);
        for (i, &(src, dst, bytes, ready, real, sim)) in transfers.iter().enumerate() {
            assert_eq!(
                net.transfer(src, dst, bytes, ready, real, sim),
                oracle.transfer(src, dst, bytes, ready, real, sim),
                "{} nodes, transfer {i} of {transfers:?}",
                topo.len()
            );
        }
        let what = format!("{} nodes, transfers {transfers:?}", topo.len());
        for &(a, b, _) in topo.edges() {
            assert_eq!(
                net.link_busy(a, b),
                oracle.link_busy(a, b),
                "{what}: {a}->{b}"
            );
        }
        for _ in 0..8 {
            let (a, b) = (c.size(0, topo.len() - 1), c.size(0, topo.len() - 1));
            assert_eq!(
                net.link_busy(a, b),
                oracle.link_busy(a, b),
                "{what}: {a}->{b}"
            );
        }
        assert_eq!(net.bytes_hops(), oracle.bytes_on_wire, "{what}: bytes_hops");
        assert_eq!(
            net.total_link_busy(),
            oracle.total_link_busy(),
            "{what}: total_link_busy"
        );
    });
}

/// Every route edge's id names that edge in `edges()`, with the kind
/// `link_kind` reports; `edge_id` finds every listed link at its
/// position and no unlisted pair.
#[test]
fn route_edge_ids_index_the_link_list() {
    check("route_edge_ids_index_the_link_list", |c| {
        let topo = gen_topology(c);
        let edges = topo.edges();
        for (i, &(a, b, _)) in edges.iter().enumerate() {
            assert_eq!(topo.edge_id(a, b), Some(i), "{a}->{b}");
        }
        for _ in 0..16 {
            let (a, b) = (c.size(0, topo.len() - 1), c.size(0, topo.len() - 1));
            let listed = edges.iter().any(|&(x, y, _)| (x, y) == (a, b));
            assert_eq!(topo.edge_id(a, b).is_some(), listed, "{a}->{b}");
        }
        for (src, dst, ..) in gen_transfers(c, &topo) {
            for e in topo.route_edges(src, dst) {
                assert_eq!(
                    edges[e.id],
                    (e.from, e.to, topo.link_kind(e.from, e.to)),
                    "{src}->{dst}"
                );
            }
        }
    });
}

/// `from_edges` numbers links from-major with `to` ascending, keeping
/// the kind of the first of any repeated pair.
#[test]
fn from_edges_numbers_sorted_first_pairs() {
    check("from_edges_numbers_sorted_first_pairs", |c| {
        let n = c.size(2, 12);
        // A ring keeps the graph strongly connected; extra links, some
        // repeating a pair with another kind, go in shuffled.
        let mut input: Vec<(usize, usize, LinkKind)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .map(|(a, b)| (a, b, *c.pick(&KINDS)))
            .collect();
        for _ in 0..c.size(0, 24) {
            let (a, b) = (c.size(0, n - 1), c.size(0, n - 1));
            if a != b {
                input.push((a, b, *c.pick(&KINDS)));
            }
        }
        for i in (1..input.len()).rev() {
            input.swap(i, c.size(0, i));
        }
        let topo = Topology::from_edges(n, &input);
        let edges = topo.edges();
        assert!(
            edges
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "not strictly sorted: {edges:?}"
        );
        for &(a, b, kind) in edges {
            let first = input.iter().find(|&&(x, y, _)| (x, y) == (a, b));
            assert_eq!(first.map(|l| l.2), Some(kind), "{a}->{b} of {input:?}");
        }
        for &(a, b, _) in &input {
            assert!(topo.edge_id(a, b).is_some(), "{a}->{b} dropped");
        }
    });
}
