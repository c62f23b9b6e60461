//! Recording of the closed-form network phases into a
//! [`wmpt_obs::MetricRegistry`]: per-traffic-class packet, flit and
//! byte counters.
//!
//! These helpers only record. The timing comes from the closed forms
//! the execution model already ran (`tile_transfer_phase`,
//! `ring_collective_cycles`), so observing never re-evaluates them.
//! Flit accounting uses the paper's 16 B flit
//! ([`crate::flit::FlitConfig::paper`]), so the counters are comparable
//! with the flit-level microbenchmarks.

use wmpt_obs::{MetricKey, MetricRegistry, TrafficClass};

use crate::flit::FlitConfig;
use crate::params::NocParams;
use crate::topology::Topology;

/// Records the traffic of a flow list under `class`: real packets
/// injected, 16 B flits injected/delivered, and wire bytes × hops.
pub fn record_flows(
    reg: &mut MetricRegistry,
    params: &NocParams,
    topo: &Topology,
    flows: &[(usize, usize, u64)],
    class: TrafficClass,
) {
    let flit = FlitConfig::paper().flit_bytes as u64;
    let mut packets = 0u64;
    let mut flits = 0u64;
    let mut wire_hops = 0u64;
    for &(src, dst, payload) in flows {
        if src == dst || payload == 0 {
            continue;
        }
        let wire = params.wire_bytes(payload as usize, params.packet_bytes) as u64;
        let hops = topo.route(src, dst).len() as u64;
        packets += payload.div_ceil(params.packet_bytes as u64);
        flits += wire.div_ceil(flit);
        wire_hops += wire * hops;
    }
    reg.inc(MetricKey::PacketsInjected(class), packets);
    reg.inc(MetricKey::FlitsInjected(class), flits);
    // A completed bulk-synchronous phase delivers everything it injects.
    reg.inc(MetricKey::FlitsDelivered(class), flits);
    reg.inc(MetricKey::BytesOnWire(class), wire_hops);
}

/// Records a weight collective of `cycles` (the closed-form completion
/// time the execution charged): reduce/broadcast cycle counters and
/// per-phase flit/packet/byte accounting, where each of the
/// `ring_len − 1` hops carries the full `msg_bytes` once per phase. A
/// collective of zero cycles records nothing.
pub fn record_collective(
    reg: &mut MetricRegistry,
    params: &NocParams,
    msg_bytes: u64,
    ring_len: usize,
    cycles: f64,
) {
    if cycles == 0.0 {
        return;
    }
    let half = (cycles / 2.0).round() as u64;
    reg.inc(MetricKey::CollectiveReduceCycles, half);
    reg.inc(MetricKey::CollectiveBroadcastCycles, half);
    reg.inc(MetricKey::CollectiveCycles, cycles.round() as u64);
    let flit = FlitConfig::paper().flit_bytes as u64;
    let chunk = params.collective_chunk_bytes as u64;
    let hops = (ring_len - 1) as u64;
    let wire_msg = params.wire_bytes(msg_bytes as usize, params.collective_chunk_bytes) as u64;
    for class in [TrafficClass::Reduce, TrafficClass::Broadcast] {
        reg.inc(
            MetricKey::PacketsInjected(class),
            msg_bytes.div_ceil(chunk) * hops,
        );
        let flits = wire_msg.div_ceil(flit) * hops;
        reg.inc(MetricKey::FlitsInjected(class), flits);
        reg.inc(MetricKey::FlitsDelivered(class), flits);
        reg.inc(MetricKey::BytesOnWire(class), wire_msg * hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::ring_collective_cycles;
    use crate::params::LinkKind;
    use crate::tile_transfer::{all_to_all_flows, tile_pair_bytes};

    #[test]
    fn tile_flows_count_per_class() {
        let p = NocParams::paper();
        let topo = Topology::flattened_butterfly(4, 4, LinkKind::Narrow);
        let nodes: Vec<usize> = (0..topo.len()).collect();
        let flows = all_to_all_flows(&nodes, tile_pair_bytes(16 << 20, 16));
        let mut reg = MetricRegistry::new();
        record_flows(&mut reg, &p, &topo, &flows, TrafficClass::TileGather);
        assert!(reg.counter(MetricKey::FlitsInjected(TrafficClass::TileGather)) > 0);
        assert_eq!(
            reg.counter(MetricKey::FlitsInjected(TrafficClass::TileGather)),
            reg.counter(MetricKey::FlitsDelivered(TrafficClass::TileGather))
        );
        // Scatter class untouched.
        assert_eq!(
            reg.counter(MetricKey::FlitsInjected(TrafficClass::TileScatter)),
            0
        );
    }

    #[test]
    fn collective_counters_split_into_halves() {
        let p = NocParams::paper();
        let mut reg = MetricRegistry::new();
        let cycles = ring_collective_cycles(8 << 20, 16, 60.0, &p, 0);
        record_collective(&mut reg, &p, 8 << 20, 16, cycles);
        let total = reg.counter(MetricKey::CollectiveCycles);
        assert_eq!(total, cycles.round() as u64);
        let halves = reg.counter(MetricKey::CollectiveReduceCycles)
            + reg.counter(MetricKey::CollectiveBroadcastCycles);
        assert!(total.abs_diff(halves) <= 1);
        assert!(reg.counter(MetricKey::FlitsInjected(TrafficClass::Reduce)) > 0);
        assert_eq!(
            reg.counter(MetricKey::BytesOnWire(TrafficClass::Reduce)),
            reg.counter(MetricKey::BytesOnWire(TrafficClass::Broadcast))
        );
    }

    #[test]
    fn zero_work_records_nothing() {
        let p = NocParams::paper();
        let mut reg = MetricRegistry::new();
        record_collective(&mut reg, &p, 0, 16, 0.0);
        let topo = Topology::fully_connected(2, LinkKind::Narrow);
        record_flows(&mut reg, &p, &topo, &[(0, 1, 0)], TrafficClass::TileScatter);
        assert_eq!(reg.counter(MetricKey::CollectiveCycles), 0);
        assert_eq!(
            reg.counter(MetricKey::PacketsInjected(TrafficClass::TileScatter)),
            0
        );
    }
}
