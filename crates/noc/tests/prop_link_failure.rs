//! Degraded-topology routing connectivity: the 2-D flattened butterfly +
//! ring hybrid tolerates any single link failure, and randomized
//! multi-failure degradations either partition loudly or keep every
//! surviving pair routable with a simple path.
//!
//! The small-network sweeps stay exhaustive (stronger than sampling); the
//! large-network and multi-failure properties run on the `wmpt-check`
//! harness (seeded generators, shrinking, `WMPT_CHECK_REPLAY`).

use std::collections::HashSet;
use wmpt_check::check;
use wmpt_noc::{MemoryCentricNetwork, Topology};

/// Asserts `route(a, b)` is a valid simple path for one pair.
fn assert_route_ok(t: &Topology, a: usize, b: usize) {
    let route = t.route(a, b);
    assert!(!route.is_empty(), "no route {a} -> {b}");
    assert_eq!(route.first().unwrap().from, a);
    assert_eq!(route.last().unwrap().to, b);
    let mut visited = HashSet::new();
    visited.insert(a);
    for e in &route {
        assert!(
            visited.insert(e.to),
            "route {a} -> {b} revisits node {} (cycle)",
            e.to
        );
        assert!(t.is_alive(e.to), "route {a} -> {b} crosses a dead node");
    }
    for pair in route.windows(2) {
        assert_eq!(pair[0].to, pair[1].from, "route {a} -> {b} tears");
    }
}

/// Asserts every alive ordered pair routes with a simple path.
fn assert_all_pairs_ok(t: &Topology) {
    for a in 0..t.len() {
        if !t.is_alive(a) {
            continue;
        }
        for b in 0..t.len() {
            if a == b || !t.is_alive(b) {
                continue;
            }
            assert_route_ok(t, a, b);
        }
    }
}

/// Undirected edge set of a topology (each pair once).
fn undirected_links(t: &Topology) -> Vec<(usize, usize)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &(a, b, _) in t.edges() {
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

#[test]
fn every_single_link_removal_keeps_small_network_connected() {
    // Exhaustive over all links of a 4-group x 4-worker hybrid (16
    // workers + host): rings, FBFLY rows/columns, host stitches.
    let net = MemoryCentricNetwork::new(4, 4);
    let links = undirected_links(&net.topology);
    assert!(links.len() >= 40, "expected a dense hybrid, got {links:?}");
    for (a, b) in links {
        let degraded = net
            .topology
            .without_links(&[(a, b)])
            .unwrap_or_else(|e| panic!("removing link ({a},{b}) must not partition: {e}"));
        assert_all_pairs_ok(&degraded);
    }
}

#[test]
fn every_single_worker_removal_keeps_small_network_connected() {
    let net = MemoryCentricNetwork::new(4, 4);
    for w in 0..net.workers() {
        let degraded = net
            .topology
            .without_nodes(&[w])
            .unwrap_or_else(|e| panic!("losing worker {w} must not partition: {e}"));
        assert_all_pairs_ok(&degraded);
    }
}

#[test]
fn sampled_single_link_removal_on_paper_network() {
    // The 257-node paper network is too big for the exhaustive sweep in
    // every removal, so: one link per generated case, checking the
    // removed link's own endpoints (the pair most likely to break) plus a
    // sample of pairs. Shrinks toward link 0 and node pair (0, 1).
    let net = MemoryCentricNetwork::paper_256();
    let links = undirected_links(&net.topology);
    check("sampled_single_link_removal_on_paper_network", |c| {
        let (a, b) = *c.pick(&links);
        let degraded = net
            .topology
            .without_links(&[(a, b)])
            .unwrap_or_else(|e| panic!("removing link ({a},{b}) must not partition: {e}"));
        assert_route_ok(&degraded, a, b);
        assert_route_ok(&degraded, b, a);
        for _ in 0..16 {
            let s = c.size(0, degraded.len() - 1);
            let d = c.size(0, degraded.len() - 1);
            if s != d {
                assert_route_ok(&degraded, s, d);
            }
        }
    });
}

#[test]
fn multi_link_removal_routes_or_partitions_loudly() {
    // Removing several random links from a random small hybrid either
    // returns a partition error or a topology in which every surviving
    // pair still routes with a simple path — never a half-connected
    // in-between.
    check("multi_link_removal_routes_or_partitions_loudly", |c| {
        let groups = *c.pick(&[4, 9]); // FBFLY grid needs a perfect square
        let workers = c.size(2, 4);
        let net = MemoryCentricNetwork::new(groups, workers);
        let links = undirected_links(&net.topology);
        let kills: Vec<(usize, usize)> = (0..c.size(1, 3)).map(|_| *c.pick(&links)).collect();
        if let Ok(degraded) = net.topology.without_links(&kills) {
            assert_all_pairs_ok(&degraded);
        }
    });
}

#[test]
fn worker_loss_plus_link_loss_routes_or_partitions_loudly() {
    check(
        "worker_loss_plus_link_loss_routes_or_partitions_loudly",
        |c| {
            let groups = *c.pick(&[4, 9]); // FBFLY grid needs a perfect square
            let workers = c.size(2, 4);
            let net = MemoryCentricNetwork::new(groups, workers);
            let dead = c.size(0, net.workers() - 1);
            let Ok(degraded) = net.topology.without_nodes(&[dead]) else {
                return; // partition reported loudly — acceptable
            };
            let links = undirected_links(&degraded);
            let (a, b) = *c.pick(&links);
            if let Ok(worse) = degraded.without_links(&[(a, b)]) {
                assert_all_pairs_ok(&worse);
            }
        },
    );
}
