//! The near-data-processing worker of the MPT architecture (paper §VI,
//! Fig 13).
//!
//! Each worker is the logic layer of a 3-D-stacked memory module:
//!
//! * [`systolic`] — a 64×64 FP32 (or 96×96 FP16) MAC array sized to
//!   balance against the 320 GB/s stacked-DRAM bandwidth; GEMM timing with
//!   double-buffered compute/DMA overlap.
//! * [`vector`] — a scratchpad-based vector processor for Winograd
//!   transforms, ReLU, pooling and join operations.
//! * [`task`] — the control unit: task graphs with update-counter
//!   dependency checking, executed with per-resource serialization.
//! * [`worker`] — composition into per-phase time and energy.
//!
//! Tile transfer and weight collectives are priced on the network by the
//! `wmpt-noc` crate, not here.
//!
//! # Example
//!
//! ```
//! use wmpt_ndp::{gemm, NdpParams};
//!
//! let p = NdpParams::paper_fp32();
//! // One Winograd element-GEMM of a mid layer's per-worker share.
//! let cost = gemm(&p, 1024, 256, 256, 0.5);
//! assert!(cost.cycles >= cost.compute_cycles.min(cost.dram_cycles));
//! ```

#![forbid(unsafe_code)]

pub mod dram;
pub mod observe;
pub mod params;
pub mod systolic;
pub mod task;
pub mod vector;
pub mod worker;

pub use dram::{Dram, DramConfig, DramRequest};
pub use observe::{dram_stall_cycles, record_dram_profile, record_utilization, record_worker_cost};
pub use params::{MacPrecision, NdpParams};
pub use systolic::{gemm, winograd_elementwise_gemms, GemmCost};
pub use task::{Schedule, Task, TaskGraph, TaskId, TaskKind};
pub use vector::{elementwise, transform_1d, transform_2d, VectorCost};
pub use worker::WorkerCost;
