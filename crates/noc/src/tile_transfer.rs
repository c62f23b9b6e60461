//! Tile gathering/scattering inside clusters (paper §III-C, §VI-C).
//!
//! With intra-tile parallelism, each worker in a cluster owns `1/N_g` of
//! every tile's elements but is the *home* of `1/N_g` of the tile indices.
//! Scatter (fprop/bprop input) and gather (output assembly) are therefore
//! uniform all-to-all exchanges among the `N_g` cluster members, carried
//! by the flattened-butterfly fabric.

use wmpt_sim::Time;

use crate::network::{bottleneck_phase, PacketNetwork, PhaseTime};
use crate::params::NocParams;
use crate::topology::Topology;

/// Builds the flow list of a uniform all-to-all where every ordered pair
/// exchanges `pair_bytes`.
pub fn all_to_all_flows(nodes: &[usize], pair_bytes: u64) -> Vec<(usize, usize, u64)> {
    all_to_all(nodes.iter().copied(), pair_bytes).collect()
}

/// The flows of [`all_to_all_flows`], in its order, without collecting
/// them.
fn all_to_all(
    nodes: impl Iterator<Item = usize> + Clone,
    pair_bytes: u64,
) -> impl Iterator<Item = (usize, usize, u64)> {
    nodes.clone().flat_map(move |a| {
        nodes
            .clone()
            .filter(move |&b| b != a)
            .map(move |b| (a, b, pair_bytes))
    })
}

/// Per-ordered-pair bytes of a tile transfer: the cluster holds
/// `cluster_tile_bytes` of tile data in total; each worker owns
/// `1/N_g` (its elements) and re-homes all but its own share, split
/// evenly over the other members — `cluster_tile_bytes / N_g²` per pair.
pub fn tile_pair_bytes(cluster_tile_bytes: u64, n_g: usize) -> u64 {
    if n_g <= 1 {
        return 0;
    }
    cluster_tile_bytes / (n_g * n_g) as u64
}

/// Closed-form tile-transfer phase time on a cluster topology.
pub fn tile_transfer_phase(
    cluster: &Topology,
    params: &NocParams,
    cluster_tile_bytes: u64,
    n_g: usize,
) -> PhaseTime {
    let flows = all_to_all(0..cluster.len(), tile_pair_bytes(cluster_tile_bytes, n_g));
    bottleneck_phase(cluster, params, flows, params.packet_bytes)
}

/// Event-driven all-to-all on an existing network; returns completion
/// time. `sim_packet` bounds simulation granularity.
pub fn simulate_all_to_all(
    net: &mut PacketNetwork,
    nodes: &[usize],
    pair_bytes: u64,
    start: Time,
    sim_packet: usize,
) -> Time {
    let mut done = start;
    let real_packet = net.params().packet_bytes;
    // Round-robin source order with rotated destinations spreads load the
    // way a real all-to-all schedule does.
    for (i, &src) in nodes.iter().enumerate() {
        for k in 1..nodes.len() {
            let dst = nodes[(i + k) % nodes.len()];
            let t = net.transfer(src, dst, pair_bytes, start, real_packet, sim_packet);
            done = done.max(t);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LinkKind;

    #[test]
    fn flows_cover_all_ordered_pairs() {
        let flows = all_to_all_flows(&[3, 5, 9], 10);
        assert_eq!(flows.len(), 6);
        assert!(flows.contains(&(3, 9, 10)));
        assert!(flows.contains(&(9, 3, 10)));
        assert!(!flows.iter().any(|f| f.0 == f.1));
    }

    #[test]
    fn pair_bytes_formula() {
        assert_eq!(tile_pair_bytes(1600, 4), 100);
        assert_eq!(tile_pair_bytes(1600, 1), 0);
        // 16-worker cluster: 256 pairs-ish shares
        assert_eq!(tile_pair_bytes(256_000, 16), 1000);
    }

    #[test]
    fn fbfly_transfer_beats_ring_transfer() {
        // The paper's motivation for the FBFLY cluster fabric: all-to-all
        // on a low-diameter topology beats the same traffic on a ring of
        // equal per-link bandwidth.
        let p = NocParams::paper();
        let fbfly = Topology::flattened_butterfly(4, 4, LinkKind::Narrow);
        let ring = Topology::ring(16, LinkKind::Narrow);
        let t_f = tile_transfer_phase(&fbfly, &p, 16 << 20, 16);
        let t_r = {
            let nodes: Vec<usize> = (0..16).collect();
            let flows = all_to_all_flows(&nodes, tile_pair_bytes(16 << 20, 16));
            bottleneck_phase(&ring, &p, &flows, p.packet_bytes)
        };
        assert!(
            t_f.cycles < t_r.cycles,
            "FBFLY {} vs ring {}",
            t_f.cycles,
            t_r.cycles
        );
    }

    #[test]
    fn clique_cluster_is_single_hop_fast() {
        let p = NocParams::paper();
        let clique = Topology::fully_connected(4, LinkKind::Narrow);
        let ph = tile_transfer_phase(&clique, &p, 4 << 20, 4);
        // Each pair sends (4 MiB)/16 = 256 KiB (+headers) over its own
        // dedicated link: ~wire/10 cycles.
        let wire = p.wire_bytes(1 << 18, p.packet_bytes) as f64;
        assert!((ph.cycles - (wire / 10.0 + p.hop_latency() as f64)).abs() / ph.cycles < 0.01);
    }

    #[test]
    fn event_sim_close_to_bottleneck_model() {
        let p = NocParams::paper();
        let topo = Topology::flattened_butterfly(2, 2, LinkKind::Narrow);
        let nodes: Vec<usize> = (0..4).collect();
        let pair = 32 * 1024u64;
        let model = {
            let flows = all_to_all_flows(&nodes, pair);
            bottleneck_phase(&topo, &p, &flows, p.packet_bytes)
        };
        let mut net = PacketNetwork::new(topo, p);
        let sim = simulate_all_to_all(&mut net, &nodes, pair, 0, 1024);
        let ratio = sim as f64 / model.cycles;
        assert!(
            (0.5..2.5).contains(&ratio),
            "sim {sim} vs model {}",
            model.cycles
        );
    }

    #[test]
    fn zero_pair_bytes_completes_instantly() {
        let p = NocParams::paper();
        let topo = Topology::fully_connected(4, LinkKind::Narrow);
        let mut net = PacketNetwork::new(topo, p);
        let t = simulate_all_to_all(&mut net, &[0, 1, 2, 3], 0, 77, 64);
        assert_eq!(t, 77);
    }
}
