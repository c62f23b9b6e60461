//! The memory-centric network of the MPT architecture (paper §IV, §VI-C,
//! Fig 9, Table III).
//!
//! 256 NDP workers are interconnected as a *hybrid* topology: a ring per
//! group (bonded full-width links) carries the pipelined weight-gradient
//! collectives, and a 2-D flattened butterfly of narrow links inside each
//! cluster carries the all-to-all tile gather/scatter. A host node can
//! stitch group rings together, which is how *dynamic clustering*
//! re-shapes the `(N_g, N_c)` organization per layer without moving data.
//!
//! Modules:
//!
//! * [`params`] — Table III link/packet constants.
//! * [`topology`] — rings, flattened butterflies, cliques, the full
//!   257-node memory-centric network, minimal routing.
//! * [`network`] — event-driven packet-level simulation and the
//!   bottleneck-link closed form it validates.
//! * [`collective`] — pipelined ring reduce+broadcast (event-driven and
//!   closed form).
//! * [`tile_transfer`] — intra-cluster all-to-all.
//! * [`clustering`] — the three `(N_g, N_c)` configurations, the
//!   per-layer dynamic-clustering optimizer, and its degraded-grid
//!   remapping after worker loss.
//! * [`analytical`] — §III-C per-worker volume formulas (Figs 6–7).
//!
//! # Example: dynamic clustering picks per-layer configurations
//!
//! ```
//! use wmpt_noc::{choose_config, ClusterConfig, NocParams};
//!
//! let params = NocParams::paper();
//! // A late layer: heavy weights, light tiles -> many groups win.
//! let cfg = choose_config(
//!     &ClusterConfig::paper_configs(), &params,
//!     /* |W| */ 512 << 20, /* tiles */ 1 << 20,
//!     /* ring bw */ 60.0, /* group size */ 16,
//! );
//! assert_eq!(cfg, ClusterConfig::new(16, 16));
//! ```

#![forbid(unsafe_code)]

pub mod analytical;
pub mod clustering;
pub mod collective;
pub mod flit;
pub mod mapping;
pub mod network;
pub mod observe;
pub mod params;
pub mod tile_transfer;
pub mod topology;
pub mod traffic;

pub use analytical::{data_parallel_comm, mpt_comm, with_transfer_savings, PerWorkerComm};
pub use clustering::{
    choose_config, choose_config_with, choose_degraded_config, degraded_configs, estimate_comm,
    tile_phase_for, ClusterConfig, CommEstimate,
};
pub use collective::{
    best_ring_collective_cycles, ring_allreduce_cycles, ring_collective_cycles,
    simulate_ring_reduce_broadcast,
};
pub use flit::{
    simulate_flits, try_simulate_flits, Delivery, FlitConfig, FlitPacket, FlitSimError, FlitStats,
};
pub use mapping::{DegradedMapping, DegradedRing, PhysicalMapping};
pub use network::{bottleneck_phase, PacketNetwork, PhaseTime};
pub use observe::{
    record_flows, record_network, ring_collective_cycles_observed, tile_transfer_phase_observed,
};
pub use params::{LinkKind, NocParams};
pub use tile_transfer::{
    all_to_all_flows, simulate_all_to_all, tile_pair_bytes, tile_transfer_phase,
};
pub use topology::{Edge, MemoryCentricNetwork, Topology, WorkerId};
pub use traffic::{build_workload, latency_throughput_sweep, LoadPoint, TrafficPattern};
