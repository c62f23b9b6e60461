//! Event-driven, packet-level network simulation.
//!
//! Messages are split into packets; every packet reserves each directed
//! link along its minimal route on that link's [`ResourceTimeline`]
//! (serialization at link bandwidth) and pays the per-hop SerDes + router
//! latency. Packets of one message pipeline across hops naturally because
//! consecutive packets queue behind each other on the first link while
//! earlier packets already occupy later links — the standard
//! store-and-forward pipeline.
//!
//! The paper used a flit-level Booksim model; packet granularity preserves
//! the bandwidth, contention and pipelining effects its results rest on
//! (DESIGN.md substitution 1). For very large transfers the caller may
//! raise the effective packet size to bound event counts; headers are
//! still charged per *real* packet.

use std::borrow::Borrow;

use wmpt_sim::{serialization_cycles, ResourceTimeline, Time};

use crate::params::NocParams;
use crate::topology::Topology;

/// The packet-level simulator state for one topology.
#[derive(Debug)]
pub struct PacketNetwork {
    topo: Topology,
    params: NocParams,
    /// One timeline per directed link, indexed by edge id.
    links: Vec<ResourceTimeline>,
    bytes_on_wire: u64,
}

impl PacketNetwork {
    /// Creates a fresh simulator over `topo`.
    pub fn new(topo: Topology, params: NocParams) -> Self {
        Self {
            links: vec![ResourceTimeline::default(); topo.edges().len()],
            topo,
            params,
            bytes_on_wire: 0,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The network parameters.
    pub fn params(&self) -> &NocParams {
        &self.params
    }

    /// Simulates transferring `bytes` from `src` to `dst`, with the data
    /// available at `ready`. Returns the delivery completion time.
    ///
    /// `sim_packet` is the simulation granularity (≥ the real packet size;
    /// larger values trade fidelity for speed). Header overhead is always
    /// charged per real `real_packet`-sized packet.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` with non-zero bytes is fine (returns
    /// `ready`); panics if node indices are invalid.
    pub fn transfer(
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
        let hop_lat = self.params.hop_latency();
        let wire = self.params.wire_bytes(bytes as usize, real_packet) as u64;
        self.bytes_on_wire += wire * self.topo.hops(src, dst) as u64;
        let sim_packet = sim_packet.max(real_packet) as u64;
        let n_pkts = wire.div_ceil(sim_packet);
        let mut done = ready;
        let mut remaining = wire;
        // Packets are independent events and links serialize them: every
        // packet leaves the source at `ready` (back-to-back injection),
        // and the first link's timeline provides the serialization order.
        for _ in 0..n_pkts {
            let pkt_bytes = remaining.min(sim_packet);
            remaining -= pkt_bytes;
            let mut t = ready;
            for e in self.topo.route_edges(src, dst) {
                let kind = self.topo.edges()[e.id].2;
                let ser = serialization_cycles(pkt_bytes, kind.bytes_per_cycle());
                let (_, end) = self.links[e.id].reserve(t, ser);
                t = end + hop_lat;
            }
            done = done.max(t);
        }
        done
    }

    /// Busy cycles accumulated on a directed link so far (0 if unused).
    pub fn link_busy(&self, from: usize, to: usize) -> Time {
        self.topo
            .edge_id(from, to)
            .map_or(0, |id| self.links[id].busy_cycles())
    }

    /// Total wire bytes × hops transported (for energy accounting).
    pub fn bytes_hops(&self) -> u64 {
        self.bytes_on_wire
    }

    /// Sum of busy cycles over all links.
    pub fn total_link_busy(&self) -> Time {
        self.links.iter().map(|t| t.busy_cycles()).sum()
    }
}

/// A bulk-synchronous communication phase described by its flows; solved
/// with the bottleneck-link model (deterministic closed form).
///
/// For the bulk phases of CNN training (tile scatter/gather, weight
/// rings) every flow is long-lived, so phase time is governed by the most
/// loaded link plus the pipeline latency of the longest route — the same
/// quantities a flit-level simulation converges to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTime {
    /// Completion time in cycles.
    pub cycles: f64,
    /// Wire bytes on the most-loaded link.
    pub max_link_bytes: f64,
    /// Total wire bytes × hops (for link energy).
    pub bytes_hops: f64,
}

/// Evaluates a phase of `(src, dst, payload_bytes)` flows on `topo`.
///
/// Routes are walked over the routing table into per-link wire bytes
/// indexed by edge id; each link sums its flows in flow order.
pub fn bottleneck_phase<F: Borrow<(usize, usize, u64)>>(
    topo: &Topology,
    params: &NocParams,
    flows: impl IntoIterator<Item = F>,
    real_packet: usize,
) -> PhaseTime {
    let mut link_bytes = vec![0.0f64; topo.edges().len()];
    let mut bytes_hops = 0.0;
    let mut max_route_lat = 0u64;
    for flow in flows {
        let (src, dst, payload) = *flow.borrow();
        if src == dst || payload == 0 {
            continue;
        }
        let wire = params.wire_bytes(payload as usize, real_packet) as f64;
        let mut hops = 0u64;
        for e in topo.route_edges(src, dst) {
            link_bytes[e.id] += wire;
            bytes_hops += wire;
            hops += 1;
        }
        max_route_lat = max_route_lat.max(hops * params.hop_latency());
    }
    // Untouched links hold 0 bytes and cannot raise either maximum.
    let mut cycles = 0.0f64;
    let mut max_link = 0.0f64;
    for (&(_, _, kind), &bytes) in topo.edges().iter().zip(&link_bytes) {
        cycles = cycles.max(bytes / kind.bytes_per_cycle());
        max_link = max_link.max(bytes);
    }
    PhaseTime {
        cycles: cycles + max_route_lat as f64,
        max_link_bytes: max_link,
        bytes_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LinkKind;

    fn line3() -> Topology {
        Topology::from_edges(
            3,
            &[
                (0, 1, LinkKind::Full),
                (1, 0, LinkKind::Full),
                (1, 2, LinkKind::Full),
                (2, 1, LinkKind::Full),
            ],
        )
    }

    #[test]
    fn single_packet_latency() {
        let mut net = PacketNetwork::new(line3(), NocParams::paper());
        // 56B payload + 8B header = 64B over 30 B/cycle = 3 cycles/hop,
        // 2 hops, +6 hop latency each.
        let t = net.transfer(0, 2, 56, 0, 64, 64);
        assert_eq!(t, 2 * (3 + 6));
    }

    #[test]
    fn packets_pipeline_across_hops() {
        let mut net = PacketNetwork::new(line3(), NocParams::paper());
        // Two packets: second serializes on link0 while first crosses link1.
        let one = {
            let mut n2 = PacketNetwork::new(line3(), NocParams::paper());
            n2.transfer(0, 2, 56, 0, 64, 64)
        };
        let two = net.transfer(0, 2, 112, 0, 64, 64);
        assert!(
            two < 2 * one,
            "pipelining should beat serial: {two} vs 2x{one}"
        );
        assert!(two > one);
    }

    #[test]
    fn contention_serializes_senders() {
        let mut net = PacketNetwork::new(line3(), NocParams::paper());
        let t1 = net.transfer(0, 1, 56, 0, 64, 64);
        let t2 = net.transfer(0, 1, 56, 0, 64, 64);
        assert!(t2 > t1, "second transfer must queue behind the first");
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut net = PacketNetwork::new(line3(), NocParams::paper());
        assert_eq!(net.transfer(0, 2, 0, 42, 64, 64), 42);
        assert_eq!(net.transfer(1, 1, 100, 42, 64, 64), 42);
        assert_eq!(net.bytes_hops(), 0);
    }

    #[test]
    fn narrow_links_slower_than_full() {
        let ring_full = Topology::ring(4, LinkKind::Full);
        let ring_narrow = Topology::ring(4, LinkKind::Narrow);
        let p = NocParams::paper();
        let tf = PacketNetwork::new(ring_full, p).transfer(0, 1, 4096, 0, 64, 4096);
        let tn = PacketNetwork::new(ring_narrow, p).transfer(0, 1, 4096, 0, 64, 4096);
        assert!(tn > tf);
    }

    #[test]
    fn bottleneck_phase_matches_hand_calc() {
        let topo = line3();
        let p = NocParams::paper();
        // Two flows share link 1->2: 0->2 and 1->2, 3000B payload each.
        let flows = [(0usize, 2usize, 3000u64), (1, 2, 3000)];
        let ph = bottleneck_phase(&topo, &p, flows, 64);
        // wire bytes per flow: 3000 + ceil(3000/64)*8 = 3000 + 47*8 = 3376
        let wire = 3376.0;
        wmpt_check::assert_approx_eq!(ph.max_link_bytes, 2.0 * wire, wmpt_check::Tol::F64_SOLVE);
        // bottleneck: 2*wire / 30 + 2 hops * 6
        let expect = 2.0 * wire / 30.0 + 12.0;
        wmpt_check::assert_approx_eq!(ph.cycles, expect, wmpt_check::Tol::F32_TIGHT);
        wmpt_check::assert_approx_eq!(ph.bytes_hops, 3.0 * wire, wmpt_check::Tol::F64_SOLVE);
    }

    #[test]
    fn bottleneck_phase_agrees_with_event_sim_for_single_flow() {
        let topo = line3();
        let p = NocParams::paper();
        let ph = bottleneck_phase(&topo, &p, [(0, 2, 64_000)], 64);
        // 1 KiB simulation packets avoid the per-packet integer-cycle
        // rounding that inflates 64 B-granularity runs by ~40 %.
        let sim = PacketNetwork::new(line3(), p).transfer(0, 2, 64_000, 0, 64, 1024);
        let ratio = sim as f64 / ph.cycles;
        assert!(
            (0.8..1.3).contains(&ratio),
            "sim {sim} vs model {}",
            ph.cycles
        );
    }

    #[test]
    fn link_busy_tracks_usage() {
        let mut net = PacketNetwork::new(line3(), NocParams::paper());
        net.transfer(0, 2, 56, 0, 64, 64);
        assert!(net.link_busy(0, 1) > 0);
        assert!(net.link_busy(1, 2) > 0);
        assert_eq!(net.link_busy(1, 0), 0);
        assert_eq!(
            net.total_link_busy(),
            net.link_busy(0, 1) + net.link_busy(1, 2)
        );
    }
}
