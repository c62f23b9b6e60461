//! Topologies of the memory-centric network (paper Fig 9) and minimal
//! routing.
//!
//! The physical substrate is 256 NDP workers arranged as 16 groups × 16
//! positions. Group `g` is a ring of its 16 workers (collective fabric,
//! two bonded full-width links); the 16 workers at position `c` of every
//! group form cluster `c`, interconnected by a 4×4 2-D flattened butterfly
//! of narrow links (tile-transfer fabric). A host node can stitch group
//! rings together, which is how dynamic clustering realizes the (4, 64)
//! and (1, 256) configurations.

use crate::params::LinkKind;

/// A directed edge of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Edge id: the link's position in [`Topology::edges`]. Every
    /// per-link array of the network models is indexed by it.
    pub id: usize,
}

/// A network topology: its directed links, numbered once, plus a
/// precomputed minimal-hop routing table (deterministic tie-breaking).
///
/// # Examples
///
/// ```
/// use wmpt_noc::Topology;
///
/// let ring = Topology::ring(8, wmpt_noc::LinkKind::Full);
/// // Minimal routing goes the short way around.
/// assert_eq!(ring.route(0, 3).len(), 3);
/// assert_eq!(ring.route(0, 6).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    /// Directed links sorted by `(from, to)`, one per pair; a link's
    /// position is its edge id.
    links: Vec<(usize, usize, LinkKind)>,
    /// `links[row[v]..row[v + 1]]` are the links out of node `v`.
    row: Vec<usize>,
    /// `next_edge[cur * n + dst]`: the id of the first link on `cur`'s
    /// minimal route to `dst` (`usize::MAX` on the diagonal and for dead
    /// nodes).
    next_edge: Vec<usize>,
    alive: Vec<bool>,
}

impl Topology {
    /// Builds a topology from directed edges; routing tables are computed
    /// by BFS (minimal hop count, lowest-index tie-breaking). Of a
    /// repeated `(from, to)` pair the first is kept.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or the graph is not
    /// strongly connected.
    pub fn from_edges(n: usize, edges: &[(usize, usize, LinkKind)]) -> Self {
        match Self::try_from_edges(n, edges) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Topology::from_edges`]: returns an error
    /// instead of panicking when an edge is out of range or the graph is
    /// not strongly connected. Fault-injection paths use this to test
    /// whether a degraded network still routes.
    pub fn try_from_edges(n: usize, edges: &[(usize, usize, LinkKind)]) -> Result<Self, String> {
        if let Some((a, b, _)) = edges.iter().find(|(a, b, _)| *a >= n || *b >= n) {
            return Err(format!("edge ({a},{b}) out of range for {n} nodes"));
        }
        let mut links = edges.to_vec();
        links.sort_by_key(|&(a, b, _)| (a, b));
        links.dedup_by_key(|&mut (a, b, _)| (a, b));
        Self::build(n, links, vec![true; n])
    }

    /// Numbers `links` (sorted by `(from, to)`, one per pair) and routes
    /// over them.
    fn build(
        n: usize,
        links: Vec<(usize, usize, LinkKind)>,
        alive: Vec<bool>,
    ) -> Result<Self, String> {
        let mut row = vec![0; n + 1];
        for &(a, _, _) in &links {
            row[a + 1] += 1;
        }
        for v in 0..n {
            row[v + 1] += row[v];
        }
        let next_edge = compute_next_edges(n, &links, &row, &alive)?;
        Ok(Topology {
            n,
            links,
            row,
            next_edge,
            alive,
        })
    }

    /// The topology with the given undirected links removed (both
    /// directions of each `(a, b)` pair) and routes recomputed.
    ///
    /// Errors if a surviving pair of alive nodes can no longer reach each
    /// other — the degraded network would partition and cannot carry the
    /// collectives, so callers must treat it as unrecoverable.
    pub fn without_links(&self, dead: &[(usize, usize)]) -> Result<Topology, String> {
        if let Some((a, b)) = dead.iter().find(|(a, b)| *a >= self.n || *b >= self.n) {
            return Err(format!("link ({a},{b}) out of range for {} nodes", self.n));
        }
        let links = self
            .links
            .iter()
            .filter(|&&(a, b, _)| !dead.iter().any(|&d| d == (a, b) || d == (b, a)))
            .copied()
            .collect();
        Self::build(self.n, links, self.alive.clone())
    }

    /// The topology with the given nodes marked dead: all their links are
    /// removed and routes are recomputed over the survivors.
    ///
    /// Errors if the surviving alive nodes are no longer strongly
    /// connected.
    pub fn without_nodes(&self, dead: &[usize]) -> Result<Topology, String> {
        let mut alive = self.alive.clone();
        for &d in dead {
            if d >= self.n {
                return Err(format!("node {d} out of range for {} nodes", self.n));
            }
            alive[d] = false;
        }
        if alive.iter().filter(|a| **a).count() < 2 {
            return Err("fewer than 2 nodes survive".to_string());
        }
        let links = self
            .links
            .iter()
            .filter(|&&(a, b, _)| alive[a] && alive[b])
            .copied()
            .collect();
        Self::build(self.n, links, alive)
    }

    /// `true` when the node has not been marked dead by
    /// [`Topology::without_nodes`].
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Edge id of the directed link `from → to`, if it exists.
    pub fn edge_id(&self, from: usize, to: usize) -> Option<usize> {
        if from >= self.n {
            return None;
        }
        let (lo, hi) = (self.row[from], self.row[from + 1]);
        self.links[lo..hi]
            .binary_search_by_key(&to, |&(_, b, _)| b)
            .ok()
            .map(|i| lo + i)
    }

    /// Link kind of the directed edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn link_kind(&self, from: usize, to: usize) -> LinkKind {
        match self.edge_id(from, to) {
            Some(id) => self.links[id].2,
            None => panic!("no edge {from} -> {to}"),
        }
    }

    /// All directed links, sorted by `(from, to)`; a link's position is
    /// its edge id ([`Edge::id`]).
    pub fn edges(&self) -> &[(usize, usize, LinkKind)] {
        &self.links
    }

    /// Minimal route from `src` to `dst` as the sequence of edges (empty
    /// when `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a dead node.
    pub fn route(&self, src: usize, dst: usize) -> Vec<Edge> {
        self.route_edges(src, dst).collect()
    }

    /// The edges of [`Topology::route`]`(src, dst)`, walked over the
    /// routing table without allocating.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a dead node.
    // Inlinable across crates: `bottleneck_phase` is generic over its
    // flows, so it is compiled in its callers' crates.
    #[inline]
    pub fn route_edges(&self, src: usize, dst: usize) -> impl Iterator<Item = Edge> + '_ {
        assert!(src < self.n && dst < self.n, "route endpoints out of range");
        assert!(
            self.alive[src] && self.alive[dst],
            "route endpoint is a dead node"
        );
        let mut cur = src;
        std::iter::from_fn(move || {
            (cur != dst).then(|| {
                let id = self.next_edge[cur * self.n + dst];
                let (from, to, _) = self.links[id];
                cur = to;
                Edge { from, to, id }
            })
        })
    }

    /// Hop count of the minimal route.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        self.route_edges(src, dst).count()
    }

    /// A unidirectional-pair ring of `n` nodes (each node links to both
    /// neighbours) with the given link kind.
    pub fn ring(n: usize, kind: LinkKind) -> Self {
        assert!(n >= 2, "ring needs at least 2 nodes");
        let mut edges = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            edges.push((i, j, kind));
            edges.push((j, i, kind));
        }
        Self::from_edges(n, &edges)
    }

    /// A 2-D flattened butterfly: `rows × cols` nodes, every node directly
    /// linked to all nodes in its row and all nodes in its column.
    pub fn flattened_butterfly(rows: usize, cols: usize, kind: LinkKind) -> Self {
        let n = rows * cols;
        assert!(n >= 2, "FBFLY needs at least 2 nodes");
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let a = r * cols + c;
                for c2 in 0..cols {
                    if c2 != c {
                        edges.push((a, r * cols + c2, kind));
                    }
                }
                for r2 in 0..rows {
                    if r2 != r {
                        edges.push((a, r2 * cols + c, kind));
                    }
                }
            }
        }
        Self::from_edges(n, &edges)
    }

    /// A fully connected graph (used for the 4-worker clusters of the
    /// (4, 64) configuration — an FBFLY column).
    pub fn fully_connected(n: usize, kind: LinkKind) -> Self {
        assert!(n >= 2, "clique needs at least 2 nodes");
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    edges.push((i, j, kind));
                }
            }
        }
        Self::from_edges(n, &edges)
    }
}

/// The `next_edge` routing table of `links` (row offsets `row`).
fn compute_next_edges(
    n: usize,
    links: &[(usize, usize, LinkKind)],
    row: &[usize],
    alive: &[bool],
) -> Result<Vec<usize>, String> {
    // Minimal-hop BFS with lowest-index tie-breaking. The host node
    // carries the highest index, so ordinary traffic never detours
    // through it on a tie; configurations that *want* host routing (the
    // dynamically clustered collective rings) name the host as an
    // explicit waypoint instead (see `PhysicalMapping`), mirroring the
    // paper's per-layer route reconfiguration (§IV). Dead nodes are
    // excluded: they neither originate, terminate, nor forward traffic.
    let mut table = vec![usize::MAX; n * n];
    for src in 0..n {
        if !alive[src] {
            continue;
        }
        let mut dist = vec![usize::MAX; n];
        let mut first = vec![usize::MAX; n]; // first link from src toward node
        dist[src] = 0;
        let mut q = std::collections::VecDeque::new();
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for (id, &(_, v, _)) in links.iter().enumerate().take(row[u + 1]).skip(row[u]) {
                if alive[v] && dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    first[v] = if u == src { id } else { first[u] };
                    q.push_back(v);
                }
            }
        }
        for dst in 0..n {
            if dst == src || !alive[dst] {
                continue;
            }
            if dist[dst] == usize::MAX {
                return Err(format!(
                    "topology not strongly connected: no path {src} -> {dst}"
                ));
            }
            table[src * n + dst] = first[dst];
        }
    }
    Ok(table)
}

/// Identifies a worker in the 16 × 16 physical arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId {
    /// Physical group (ring) index, `0..groups`.
    pub group: usize,
    /// Position within the group = physical cluster index, `0..group_size`.
    pub pos: usize,
}

/// The full memory-centric network of Fig 9: `groups` rings of
/// `group_size` workers, FBFLY clusters across groups, and a host node
/// (index `groups * group_size`) linked to every group's ring boundary.
///
/// Workers are numbered `group * group_size + pos`.
#[derive(Debug, Clone)]
pub struct MemoryCentricNetwork {
    /// Number of physical groups (rings).
    pub groups: usize,
    /// Workers per group.
    pub group_size: usize,
    /// The routable topology (workers + host).
    pub topology: Topology,
}

impl MemoryCentricNetwork {
    /// Builds the paper's 256-worker instance (16 groups × 16 workers,
    /// 4×4 FBFLY clusters).
    pub fn paper_256() -> Self {
        Self::new(16, 16)
    }

    /// Builds a scaled instance. `groups` must be a perfect square so the
    /// FBFLY grid is square (the paper's is 4×4 over 16 groups).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is not a perfect square or sizes are < 2.
    pub fn new(groups: usize, group_size: usize) -> Self {
        assert!(groups >= 2 && group_size >= 2, "need at least 2x2 workers");
        let side = (groups as f64).sqrt().round() as usize;
        assert_eq!(
            side * side,
            groups,
            "groups must be a perfect square for the FBFLY grid"
        );
        let n_workers = groups * group_size;
        let host = n_workers;
        let mut edges = Vec::new();
        // Group rings: two bonded full links per direction.
        for g in 0..groups {
            for p in 0..group_size {
                let a = g * group_size + p;
                let b = g * group_size + (p + 1) % group_size;
                edges.push((a, b, LinkKind::FullX2));
                edges.push((b, a, LinkKind::FullX2));
            }
        }
        // FBFLY across groups within each cluster position: grid row/col by
        // group index.
        for p in 0..group_size {
            for g in 0..groups {
                let (r, c) = (g / side, g % side);
                let a = g * group_size + p;
                for c2 in 0..side {
                    if c2 != c {
                        edges.push((a, (r * side + c2) * group_size + p, LinkKind::Narrow));
                    }
                }
                for r2 in 0..side {
                    if r2 != r {
                        edges.push((a, (r2 * side + c) * group_size + p, LinkKind::Narrow));
                    }
                }
            }
        }
        // Host stitches: host <-> first and last worker of each group ring.
        for g in 0..groups {
            for p in [0, group_size - 1] {
                let a = g * group_size + p;
                edges.push((a, host, LinkKind::Host));
                edges.push((host, a, LinkKind::Host));
            }
        }
        let topology = Topology::from_edges(n_workers + 1, &edges);
        Self {
            groups,
            group_size,
            topology,
        }
    }

    /// Total worker count (excluding the host).
    pub fn workers(&self) -> usize {
        self.groups * self.group_size
    }

    /// The host's node index.
    pub fn host(&self) -> usize {
        self.workers()
    }

    /// Node index of a worker.
    pub fn node(&self, w: WorkerId) -> usize {
        assert!(
            w.group < self.groups && w.pos < self.group_size,
            "worker out of range"
        );
        w.group * self.group_size + w.pos
    }

    /// Worker at a node index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the host or out of range.
    pub fn worker(&self, node: usize) -> WorkerId {
        assert!(node < self.workers(), "node {node} is not a worker");
        WorkerId {
            group: node / self.group_size,
            pos: node % self.group_size,
        }
    }

    /// The network after permanent faults: `dead_links` (undirected
    /// pairs) removed and `dead_workers` marked dead, with minimal routes
    /// recomputed over the survivors.
    ///
    /// Errors if the surviving nodes partition (no recovery possible) or
    /// a dead "worker" is actually the host.
    pub fn degrade(
        &self,
        dead_links: &[(usize, usize)],
        dead_workers: &[usize],
    ) -> Result<MemoryCentricNetwork, String> {
        if let Some(w) = dead_workers.iter().find(|w| **w >= self.workers()) {
            return Err(format!("node {w} is not a worker"));
        }
        let topology = self
            .topology
            .without_links(dead_links)?
            .without_nodes(dead_workers)?;
        Ok(MemoryCentricNetwork {
            groups: self.groups,
            group_size: self.group_size,
            topology,
        })
    }

    /// Number of surviving workers (host excluded).
    pub fn alive_workers(&self) -> usize {
        (0..self.workers())
            .filter(|&w| self.topology.is_alive(w))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_take_short_way() {
        let t = Topology::ring(16, LinkKind::Full);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 8), 8);
        assert_eq!(t.hops(0, 15), 1);
        assert_eq!(t.hops(3, 14), 5);
    }

    #[test]
    fn fbfly_4x4_max_two_hops() {
        let t = Topology::flattened_butterfly(4, 4, LinkKind::Narrow);
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    assert!(t.hops(a, b) <= 2, "{a}->{b} took {} hops", t.hops(a, b));
                }
            }
        }
        // Same row: 1 hop.
        assert_eq!(t.hops(0, 3), 1);
        // Different row and column: 2 hops.
        assert_eq!(t.hops(0, 5), 2);
    }

    #[test]
    fn clique_is_single_hop() {
        let t = Topology::fully_connected(4, LinkKind::Narrow);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(t.hops(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn routes_are_edge_consistent() {
        let t = Topology::flattened_butterfly(4, 4, LinkKind::Narrow);
        let route = t.route(1, 14);
        assert_eq!(route.first().map(|e| e.from), Some(1));
        assert_eq!(route.last().map(|e| e.to), Some(14));
        for pair in route.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        for e in &route {
            let _ = t.link_kind(e.from, e.to); // must exist
        }
    }

    #[test]
    #[should_panic(expected = "not strongly connected")]
    fn disconnected_graph_rejected() {
        let _ = Topology::from_edges(3, &[(0, 1, LinkKind::Full), (1, 0, LinkKind::Full)]);
    }

    #[test]
    fn paper_network_has_expected_size() {
        let m = MemoryCentricNetwork::paper_256();
        assert_eq!(m.workers(), 256);
        assert_eq!(m.host(), 256);
        assert_eq!(m.topology.len(), 257);
    }

    #[test]
    fn paper_network_cluster_is_fbfly() {
        let m = MemoryCentricNetwork::paper_256();
        // Workers at position 3 of groups 0 and 1 share an FBFLY row link.
        let a = m.node(WorkerId { group: 0, pos: 3 });
        let b = m.node(WorkerId { group: 1, pos: 3 });
        assert_eq!(m.topology.hops(a, b), 1);
        // Groups 0 and 5 (different row and column): 2 hops.
        let c = m.node(WorkerId { group: 5, pos: 3 });
        assert_eq!(m.topology.hops(a, c), 2);
    }

    #[test]
    fn paper_network_ring_neighbours_adjacent() {
        let m = MemoryCentricNetwork::paper_256();
        let a = m.node(WorkerId { group: 7, pos: 4 });
        let b = m.node(WorkerId { group: 7, pos: 5 });
        assert_eq!(m.topology.hops(a, b), 1);
        assert_eq!(m.topology.link_kind(a, b), LinkKind::FullX2);
    }

    #[test]
    fn host_reachable_from_ring_ends() {
        let m = MemoryCentricNetwork::paper_256();
        let a = m.node(WorkerId { group: 2, pos: 0 });
        assert_eq!(m.topology.hops(a, m.host()), 1);
        let mid = m.node(WorkerId { group: 2, pos: 8 });
        assert!(m.topology.hops(mid, m.host()) > 1);
    }

    #[test]
    fn worker_node_round_trip() {
        let m = MemoryCentricNetwork::new(4, 8);
        for g in 0..4 {
            for p in 0..8 {
                let w = WorkerId { group: g, pos: p };
                assert_eq!(m.worker(m.node(w)), w);
            }
        }
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_groups_rejected() {
        let _ = MemoryCentricNetwork::new(6, 4);
    }

    #[test]
    fn try_from_edges_reports_disconnection() {
        let err = Topology::try_from_edges(3, &[(0, 1, LinkKind::Full), (1, 0, LinkKind::Full)])
            .unwrap_err();
        assert!(err.contains("not strongly connected"), "{err}");
    }

    #[test]
    fn removing_a_ring_link_reroutes_the_long_way() {
        let t = Topology::ring(8, LinkKind::Full);
        assert_eq!(t.hops(0, 1), 1);
        let d = t.without_links(&[(0, 1)]).expect("ring stays connected");
        // 0 -> 1 must now go the other way around: 7 hops.
        assert_eq!(d.hops(0, 1), 7);
        // Unrelated routes keep their length.
        assert_eq!(d.hops(2, 4), 2);
    }

    #[test]
    fn removing_a_bridge_link_is_an_error() {
        // A path graph 0 - 1 - 2: the 0-1 link is a bridge.
        let t = Topology::from_edges(
            3,
            &[
                (0, 1, LinkKind::Full),
                (1, 0, LinkKind::Full),
                (1, 2, LinkKind::Full),
                (2, 1, LinkKind::Full),
            ],
        );
        assert!(t.without_links(&[(0, 1)]).is_err());
    }

    #[test]
    fn dead_node_is_excluded_from_routes() {
        let t = Topology::flattened_butterfly(4, 4, LinkKind::Narrow);
        let d = t.without_nodes(&[5]).expect("fbfly survives one death");
        assert!(!d.is_alive(5));
        assert_eq!(d.alive_count(), 15);
        for a in 0..16 {
            for b in 0..16 {
                if a == b || a == 5 || b == 5 {
                    continue;
                }
                for e in d.route(a, b) {
                    assert_ne!(e.from, 5, "route {a}->{b} crosses dead node");
                    assert_ne!(e.to, 5, "route {a}->{b} crosses dead node");
                }
            }
        }
    }

    #[test]
    fn degrade_keeps_survivors_routable() {
        let m = MemoryCentricNetwork::new(4, 4);
        let a = m.node(WorkerId { group: 0, pos: 0 });
        let b = m.node(WorkerId { group: 0, pos: 1 });
        let w = m.node(WorkerId { group: 2, pos: 2 });
        let d = m.degrade(&[(a, b)], &[w]).expect("network survives");
        assert_eq!(d.alive_workers(), 15);
        assert!(!d.topology.is_alive(w));
        // The broken ring link forces a longer route between its ends.
        assert!(d.topology.hops(a, b) > 1);
    }

    #[test]
    fn degrade_rejects_host_as_dead_worker() {
        let m = MemoryCentricNetwork::new(4, 4);
        assert!(m.degrade(&[], &[m.host()]).is_err());
    }
}
