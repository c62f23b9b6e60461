//! Flit-level wormhole network simulation with virtual channels and
//! credit-based flow control — the Booksim-fidelity tier of the network
//! model (the paper modified Booksim for its evaluation; Table III).
//!
//! Packets are split into 16-byte flits. Each router has per-input
//! per-VC buffers; a head flit allocates a virtual channel on its output
//! port, body/tail flits follow it (wormhole), and flits advance only
//! when the downstream buffer has credits. Switch allocation is
//! round-robin per output port, and link bandwidth limits flits per
//! cycle (a full-width 30 GB/s link moves ~2 flits/cycle; a narrow link
//! moves one flit every ~2 cycles).
//!
//! The coarser [`crate::PacketNetwork`] and the closed-form
//! [`crate::bottleneck_phase`] are validated against this simulator in
//! tests — the three tiers agree on bulk-transfer behaviour, which is
//! what the full-system results rest on.
//!
//! # Deadlock freedom on rings
//!
//! A ring's channel dependency graph is a directed cycle, so wormhole
//! flow control with free-for-all VC allocation can deadlock: every VC
//! on the cycle fills with flits whose next hop is the next full VC.
//! The classic fix (Dally's *dateline*) is applied here: each packet's
//! hops are assigned a VC *class* that increments when the route
//! crosses a wrap-around edge (an edge between non-adjacent node
//! indices), and a packet may only allocate the VC of its class.
//! Class-0 dependencies stop at the dateline and class-1 dependencies
//! start after it, so neither class closes the cycle. With `vcs == 1`
//! there is no second class, and a ring under heavy load can still
//! deadlock — [`try_simulate_flits`] then reports a clean
//! [`FlitSimError`] instead of spinning forever.

use std::collections::VecDeque;
use std::fmt;

use crate::params::NocParams;
use crate::topology::Topology;

/// Flit-level simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlitConfig {
    /// Bytes per flit (phit-equivalent unit of link arbitration).
    pub flit_bytes: usize,
    /// Virtual channels per physical link.
    pub vcs: usize,
    /// Buffer depth per VC, in flits.
    pub vc_depth: usize,
    /// Router pipeline latency in cycles (route + VC alloc + switch).
    pub router_latency: u64,
    /// Per-hop SerDes latency in cycles.
    pub serdes_latency: u64,
    /// Give-up horizon: simulation aborts after this many cycles.
    pub max_cycles: u64,
}

impl FlitConfig {
    /// Defaults matching Table III (16 B flits, 2 VCs, 8-flit buffers).
    pub fn paper() -> Self {
        let p = NocParams::paper();
        Self {
            flit_bytes: 16,
            vcs: 2,
            vc_depth: 8,
            router_latency: p.router_cycles,
            serdes_latency: p.serdes_cycles,
            max_cycles: 50_000_000,
        }
    }
}

/// One packet to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitPacket {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload bytes (headers are added per packet).
    pub bytes: u64,
    /// Injection cycle.
    pub inject_at: u64,
}

/// Per-packet delivery record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Index into the injected packet list.
    pub packet: usize,
    /// Cycle the tail flit arrived.
    pub delivered_at: u64,
}

/// Aggregate results of a flit-level run.
#[derive(Debug, Clone)]
pub struct FlitStats {
    /// Per-packet deliveries (same order as injected packets).
    pub deliveries: Vec<Delivery>,
    /// Cycle the last tail flit arrived.
    pub makespan: u64,
    /// Total flits delivered.
    pub flits: u64,
}

impl FlitStats {
    /// Mean packet latency (delivery − injection).
    pub fn mean_latency(&self, packets: &[FlitPacket]) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        let sum: u64 = self
            .deliveries
            .iter()
            .map(|d| d.delivered_at - packets[d.packet].inject_at)
            .sum();
        sum as f64 / self.deliveries.len() as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Flit {
    packet: usize,
    is_tail: bool,
    /// Remaining route (index into the packet's route edges).
    hop: usize,
}

/// A VC buffer at a router input for one link.
#[derive(Debug, Default)]
struct VcBuf {
    flits: VecDeque<Flit>,
    /// Packet currently owning this VC (wormhole allocation), if any.
    owner: Option<usize>,
}

/// A flit-level run that could not complete within the cycle horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitSimError {
    /// The configured give-up horizon that was reached.
    pub max_cycles: u64,
    /// Flits that had arrived when the simulation gave up.
    pub flits_arrived: u64,
    /// Flits the workload would deliver in total.
    pub total_flits: u64,
}

impl fmt::Display for FlitSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flit simulation exceeded {} cycles (deadlock or overload): \
             {}/{} flits arrived",
            self.max_cycles, self.flits_arrived, self.total_flits
        )
    }
}

impl std::error::Error for FlitSimError {}

/// Runs a flit-level simulation of `packets` over `topo`.
///
/// # Panics
///
/// Panics if the simulation exceeds `config.max_cycles` (overload, or a
/// deadlock-capable configuration such as `vcs == 1` on a ring — a
/// modelling error, not a runtime condition). Use
/// [`try_simulate_flits`] to get the failure as a value instead.
pub fn simulate_flits(
    topo: &Topology,
    params: &NocParams,
    config: &FlitConfig,
    packets: &[FlitPacket],
) -> FlitStats {
    match try_simulate_flits(topo, params, config, packets) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`simulate_flits`]: returns a [`FlitSimError`]
/// instead of panicking when the run exceeds `config.max_cycles`.
pub fn try_simulate_flits(
    topo: &Topology,
    params: &NocParams,
    config: &FlitConfig,
    packets: &[FlitPacket],
) -> Result<FlitStats, FlitSimError> {
    // Precompute routes and flit counts.
    let routes: Vec<Vec<crate::topology::Edge>> =
        packets.iter().map(|p| topo.route(p.src, p.dst)).collect();
    // Dateline VC classes: the class of the VC a packet allocates on
    // route edge `k` is the number of wrap-around edges crossed before
    // `k` (capped at the VC count). On a ring this breaks the cyclic
    // channel dependency; on other topologies routes rarely cross a
    // non-adjacent edge twice, so the cap is never the binding limit.
    let is_wrap = |e: &crate::topology::Edge| e.from.abs_diff(e.to) != 1;
    let classes: Vec<Vec<usize>> = routes
        .iter()
        .map(|route| {
            let mut wraps = 0usize;
            route
                .iter()
                .map(|e| {
                    let class = wraps.min(config.vcs - 1);
                    if is_wrap(e) {
                        wraps += 1;
                    }
                    class
                })
                .collect()
        })
        .collect();
    let flit_counts: Vec<u64> = packets
        .iter()
        .map(|p| {
            let wire = params.wire_bytes(p.bytes as usize, params.packet_bytes) as u64;
            wire.div_ceil(config.flit_bytes as u64).max(1)
        })
        .collect();

    let edges = topo.edges();
    // Link service interval in 1/256 cycle fixed-point: flit_bytes / bw.
    let service: Vec<u64> = edges
        .iter()
        .map(|(_, _, k)| ((config.flit_bytes as f64 / k.bytes_per_cycle()) * 256.0).ceil() as u64)
        .collect();

    // State: per directed edge, `vcs` downstream buffers + credit view.
    let mut bufs: Vec<Vec<VcBuf>> = (0..edges.len())
        .map(|_| (0..config.vcs).map(|_| VcBuf::default()).collect())
        .collect();
    let mut next_free: Vec<u64> = vec![0; edges.len()]; // fixed-point time
    let mut rr: Vec<usize> = vec![0; edges.len()]; // round-robin pointer

    // Source injection queues: remaining flits per packet.
    let mut remaining: Vec<u64> = flit_counts.clone();
    let mut src_started: Vec<bool> = vec![false; packets.len()];

    let mut deliveries = Vec::with_capacity(packets.len());
    let mut delivered_flits = 0u64;
    let mut done = vec![false; packets.len()];
    let total_flits: u64 = flit_counts.iter().sum();

    let mut cycle: u64 = 0;
    let mut flits_arrived = 0u64;
    while flits_arrived < total_flits {
        if cycle >= config.max_cycles {
            return Err(FlitSimError {
                max_cycles: config.max_cycles,
                flits_arrived,
                total_flits,
            });
        }
        let now_fp = cycle * 256;

        // 1. Drain: flits whose next hop is "none" (they sit in the buffer
        //    of the final edge) are consumed by the destination NI.
        for (pi, route) in routes.iter().enumerate() {
            if done[pi] || route.is_empty() {
                continue;
            }
            let last = route[route.len() - 1].id;
            for vc in &mut bufs[last] {
                while let Some(&f) = vc
                    .flits
                    .front()
                    .filter(|f| f.packet == pi && f.hop == route.len())
                {
                    vc.flits.pop_front();
                    delivered_flits += 1;
                    flits_arrived += 1;
                    if f.is_tail {
                        done[pi] = true;
                        deliveries.push(Delivery {
                            packet: pi,
                            delivered_at: cycle,
                        });
                    }
                    if vc.flits.is_empty() {
                        vc.owner = None;
                    }
                }
            }
        }

        // 2. Forward: per edge, move eligible flits toward the next edge's
        //    buffer, respecting wormhole ownership, credits and bandwidth.
        //    Fast links carry more than one flit per cycle; the
        //    fixed-point `next_free` timeline enforces the exact rate.
        let cycle_end = now_fp + 256;
        for ei in 0..edges.len() {
            'edge: loop {
                // Round-robin over VCs for this upstream buffer set.
                for step in 0..config.vcs {
                    let vci = (rr[ei] + step) % config.vcs;
                    // Peek the head flit in this VC.
                    let Some(&f) = bufs[ei][vci].flits.front() else {
                        continue;
                    };
                    let pi = f.packet;
                    let route = &routes[pi];
                    if f.hop >= route.len() {
                        continue; // awaiting drain at destination
                    }
                    let next_edge = route[f.hop].id;
                    // Find (or allocate) the packet's class VC downstream.
                    let Some(nvc) =
                        alloc_vc(&bufs[next_edge], pi, config.vc_depth, classes[pi][f.hop])
                    else {
                        continue;
                    };
                    // Link bandwidth: the next service slot must start
                    // inside this cycle.
                    if next_free[next_edge] >= cycle_end {
                        continue;
                    }
                    // Move it.
                    let mut f = bufs[ei][vci].flits.pop_front().expect("peeked");
                    if bufs[ei][vci].flits.is_empty() {
                        bufs[ei][vci].owner = None;
                    }
                    f.hop += 1;
                    let nb = &mut bufs[next_edge][nvc];
                    nb.owner = Some(pi);
                    nb.flits.push_back(f);
                    next_free[next_edge] = next_free[next_edge].max(now_fp) + service[next_edge];
                    rr[ei] = (vci + 1) % config.vcs;
                    continue 'edge; // try to fill remaining link capacity
                }
                break;
            }
        }

        // 3. Inject: sources push flits into the first edge's buffer.
        for (pi, p) in packets.iter().enumerate() {
            if done[pi] || remaining[pi] == 0 || cycle < p.inject_at {
                continue;
            }
            let route = &routes[pi];
            if route.is_empty() {
                // src == dst: deliver immediately.
                flits_arrived += remaining[pi];
                delivered_flits += remaining[pi];
                remaining[pi] = 0;
                done[pi] = true;
                deliveries.push(Delivery {
                    packet: pi,
                    delivered_at: cycle,
                });
                continue;
            }
            let first = route[0].id;
            // Inject as many flits as the first link's capacity and the
            // downstream buffer allow this cycle.
            while let Some(vc) = alloc_vc(&bufs[first], pi, config.vc_depth, classes[pi][0]) {
                if next_free[first] >= cycle_end || remaining[pi] == 0 {
                    break;
                }
                if !src_started[pi] {
                    src_started[pi] = true;
                }
                remaining[pi] -= 1;
                let f = Flit {
                    packet: pi,
                    is_tail: remaining[pi] == 0,
                    hop: 1,
                };
                let nb = &mut bufs[first][vc];
                nb.owner = Some(pi);
                nb.flits.push_back(f);
                next_free[first] = next_free[first].max(now_fp) + service[first];
            }
        }

        cycle += 1;
    }

    // Charge per-hop pipeline + SerDes latency once per route, post hoc
    // (the cycle loop models occupancy; fixed latencies are additive).
    let per_hop = config.router_latency + config.serdes_latency;
    for d in &mut deliveries {
        d.delivered_at += routes[d.packet].len() as u64 * per_hop;
    }
    let makespan = deliveries.iter().map(|d| d.delivered_at).max().unwrap_or(0);
    deliveries.sort_by_key(|d| d.packet);
    Ok(FlitStats {
        deliveries,
        makespan,
        flits: delivered_flits,
    })
}

/// Finds the VC that packet `pi` may use on a downstream buffer set:
/// its already-owned VC if it has one, otherwise the VC of its dateline
/// `class` when free. Restricting allocation to the class VC (instead
/// of any free VC) is what makes the ring deadlock-free.
fn alloc_vc(bufs: &[VcBuf], pi: usize, depth: usize, class: usize) -> Option<usize> {
    if let Some(i) = bufs.iter().position(|b| b.owner == Some(pi)) {
        return (bufs[i].flits.len() < depth).then_some(i);
    }
    let b = &bufs[class];
    (b.owner.is_none() && b.flits.len() < depth).then_some(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LinkKind;
    use crate::PacketNetwork;

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

    fn run(topo: &Topology, packets: &[FlitPacket]) -> FlitStats {
        simulate_flits(topo, &NocParams::paper(), &FlitConfig::paper(), packets)
    }

    #[test]
    fn single_packet_latency_close_to_ideal() {
        let topo = line3();
        let p = [FlitPacket {
            src: 0,
            dst: 2,
            bytes: 56,
            inject_at: 0,
        }];
        let stats = run(&topo, &p);
        assert_eq!(stats.deliveries.len(), 1);
        // 64 wire bytes = 4 flits; serialization ~0.54 cy/flit on a full
        // link, 2 hops x (1 router + 5 serdes) = 12 cycles of latency.
        let t = stats.deliveries[0].delivered_at;
        assert!((12..=40).contains(&t), "latency {t}");
    }

    #[test]
    fn local_delivery_is_immediate() {
        let topo = line3();
        let p = [FlitPacket {
            src: 1,
            dst: 1,
            bytes: 1024,
            inject_at: 7,
        }];
        let stats = run(&topo, &p);
        assert_eq!(stats.deliveries[0].delivered_at, 7);
    }

    #[test]
    fn bulk_transfer_throughput_matches_link_bandwidth() {
        let topo = line3();
        let bytes = 120_000u64;
        let p = [FlitPacket {
            src: 0,
            dst: 2,
            bytes,
            inject_at: 0,
        }];
        let stats = run(&topo, &p);
        // Full link: 30 B/cycle; wire bytes ~ bytes + headers.
        let wire = NocParams::paper().wire_bytes(bytes as usize, 64) as f64;
        let ideal = wire / 30.0;
        let ratio = stats.makespan as f64 / ideal;
        assert!(
            (0.9..1.6).contains(&ratio),
            "makespan {} vs ideal {ideal}",
            stats.makespan
        );
    }

    #[test]
    fn contention_halves_per_flow_throughput() {
        // Two flows share link 1->2.
        let topo = line3();
        let bytes = 60_000u64;
        let solo = run(
            &topo,
            &[FlitPacket {
                src: 0,
                dst: 2,
                bytes,
                inject_at: 0,
            }],
        )
        .makespan;
        let both = run(
            &topo,
            &[
                FlitPacket {
                    src: 0,
                    dst: 2,
                    bytes,
                    inject_at: 0,
                },
                FlitPacket {
                    src: 1,
                    dst: 2,
                    bytes,
                    inject_at: 0,
                },
            ],
        )
        .makespan;
        let ratio = both as f64 / solo as f64;
        assert!((1.5..2.5).contains(&ratio), "contention ratio {ratio}");
    }

    #[test]
    fn agrees_with_packet_level_model_on_fbfly() {
        let topo = Topology::flattened_butterfly(2, 2, LinkKind::Narrow);
        let params = NocParams::paper();
        let bytes = 16_000u64;
        let packets: Vec<FlitPacket> = (0..4)
            .flat_map(|i| {
                (0..4).filter(move |j| *j != i).map(move |j| FlitPacket {
                    src: i,
                    dst: j,
                    bytes,
                    inject_at: 0,
                })
            })
            .collect();
        let flit = run(&topo, &packets).makespan;
        let mut pkt = PacketNetwork::new(topo, params);
        let mut pkt_done = 0;
        for p in &packets {
            pkt_done = pkt_done.max(pkt.transfer(p.src, p.dst, p.bytes, 0, 64, 1024));
        }
        let ratio = flit as f64 / pkt_done as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "flit {flit} vs packet {pkt_done}"
        );
    }

    #[test]
    fn vc_count_affects_interleaving_not_correctness() {
        let topo = line3();
        let packets = [
            FlitPacket {
                src: 0,
                dst: 2,
                bytes: 6_000,
                inject_at: 0,
            },
            FlitPacket {
                src: 0,
                dst: 1,
                bytes: 6_000,
                inject_at: 0,
            },
        ];
        for vcs in [1usize, 2, 4] {
            let cfg = FlitConfig {
                vcs,
                ..FlitConfig::paper()
            };
            let stats = simulate_flits(&topo, &NocParams::paper(), &cfg, &packets);
            assert_eq!(stats.deliveries.len(), 2, "vcs={vcs}");
        }
    }

    #[test]
    fn ring_collective_pattern_completes() {
        // Neighbour ring traffic, the collective's steady-state pattern.
        let topo = Topology::ring(8, LinkKind::FullX2);
        let packets: Vec<FlitPacket> = (0..8)
            .map(|i| FlitPacket {
                src: i,
                dst: (i + 1) % 8,
                bytes: 8_192,
                inject_at: 0,
            })
            .collect();
        let stats = run(&topo, &packets);
        assert_eq!(stats.deliveries.len(), 8);
        // All transfers are disjoint links: completion near the solo time.
        let solo = run(&topo, &packets[..1]).makespan;
        assert!(
            stats.makespan as f64 <= solo as f64 * 1.5,
            "{} vs solo {solo}",
            stats.makespan
        );
    }

    #[test]
    fn ring_uniform_load_does_not_deadlock() {
        // Regression: the `noc ring uniform` sweep (16-node ring, 12
        // packets per node, wrap-crossing destinations) deadlocked under
        // free-for-all VC allocation. With dateline classes it must
        // complete in thousands of cycles, not hit the 50M-cycle horizon.
        let topo = Topology::ring(16, LinkKind::FullX2);
        for pattern in [
            crate::TrafficPattern::UniformRandom,
            crate::TrafficPattern::Transpose,
        ] {
            let pkts = crate::build_workload(pattern, 16, 12, 256, 8, 42);
            let stats = try_simulate_flits(&topo, &NocParams::paper(), &FlitConfig::paper(), &pkts)
                .expect("ring load must drain");
            assert_eq!(stats.deliveries.len(), pkts.len(), "{pattern:?}");
            assert!(
                stats.makespan < 100_000,
                "{pattern:?} makespan {} suspiciously close to deadlock",
                stats.makespan
            );
        }
    }

    #[test]
    fn exceeding_the_horizon_is_a_clean_error() {
        let topo = Topology::ring(8, LinkKind::FullX2);
        let cfg = FlitConfig {
            max_cycles: 10,
            ..FlitConfig::paper()
        };
        let pkts = [FlitPacket {
            src: 0,
            dst: 4,
            bytes: 1 << 20,
            inject_at: 0,
        }];
        let err = try_simulate_flits(&topo, &NocParams::paper(), &cfg, &pkts)
            .expect_err("horizon too small to finish a 1 MiB transfer");
        assert_eq!(err.max_cycles, 10);
        assert!(err.flits_arrived < err.total_flits);
        let msg = err.to_string();
        assert!(msg.contains("exceeded 10 cycles"), "{msg}");
    }

    #[test]
    fn deliveries_sorted_by_packet_index() {
        let topo = line3();
        let packets = [
            FlitPacket {
                src: 0,
                dst: 2,
                bytes: 12_000,
                inject_at: 0,
            },
            FlitPacket {
                src: 2,
                dst: 0,
                bytes: 100,
                inject_at: 0,
            },
        ];
        let stats = run(&topo, &packets);
        assert_eq!(stats.deliveries[0].packet, 0);
        assert_eq!(stats.deliveries[1].packet, 1);
        // The small opposite-direction packet finishes first.
        assert!(stats.deliveries[1].delivered_at < stats.deliveries[0].delivered_at);
    }

    #[test]
    fn mean_latency_accounts_injection_time() {
        let topo = line3();
        let packets = [FlitPacket {
            src: 0,
            dst: 1,
            bytes: 56,
            inject_at: 100,
        }];
        let stats = run(&topo, &packets);
        let lat = stats.mean_latency(&packets);
        assert!(
            lat < 50.0,
            "latency {lat} should not include the injection delay"
        );
    }
}
