//! # winograd-mpt
//!
//! A Rust reproduction of *"Multi-dimensional Parallel Training of Winograd
//! Layer on Memory-Centric Architecture"* (Hong, Ro, Kim — MICRO 2018).
//!
//! This facade crate re-exports every subsystem of the workspace so that
//! examples and downstream users have a single dependency:
//!
//! * [`tensor`] — dense tensors, matrices, deterministic data generation.
//! * [`winograd`] — Winograd/Cook–Toom transforms, direct & Winograd
//!   convolution, the Winograd layer (Winograd-domain weight updates).
//! * [`predict`] — non-uniform quantization and conservative activation
//!   prediction (no false negatives), zero-skipping.
//! * [`sim`] — discrete-event simulation kernel.
//! * [`noc`] — memory-centric network: rings, flattened butterfly, hybrid
//!   topologies, pipelined collectives, tile transfer, dynamic clustering.
//! * [`ndp`] — near-data-processing worker model (systolic array, HMC DRAM,
//!   vector unit, task graph, per-phase cost and energy).
//! * [`energy`] — compute/SRAM/DRAM/link energy accounting.
//! * [`models`] — CNN zoo (Table II layers, WRN-40-10, ResNet-34,
//!   FractalNet) and workload derivation.
//! * [`gpu`] — the multi-GPU (DGX-1) baseline model.
//! * [`core`] — multi-dimensional parallel training (MPT): worker grids,
//!   communication model, full-system execution simulation, dynamic
//!   clustering, functional distributed trainer.
//! * [`obs`] — observability: typed metric registry, span tracing on the
//!   simulator's virtual clock, Chrome-trace export.
//! * [`analyze`] — derived analytics over traces: critical-path
//!   extraction with category attribution, utilization & bottleneck
//!   reports, self-contained SVG timelines, perf-regression baselines.
//! * [`fault`] — deterministic fault injection and resilient execution:
//!   seeded fault plans, ring re-forming, degraded clustering,
//!   checkpoint/rollback with bit-identical recovery.
//!
//! # Quickstart
//!
//! ```
//! use winograd_mpt::winograd::{WinogradTransform, WinogradConv};
//! use winograd_mpt::tensor::{DataGen, Shape4};
//!
//! // F(2x2, 3x3): 4x4 tiles, the transform the MPT architecture uses.
//! let tf = WinogradTransform::f2x2_3x3();
//! let conv = WinogradConv::new(tf);
//!
//! let mut gen = DataGen::new(1);
//! let x = gen.normal_tensor(Shape4::new(1, 3, 8, 8), 0.0, 1.0);
//! let w = gen.he_weights(Shape4::new(4, 3, 3, 3));
//! let y = conv.fprop(&x, &w);
//! assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8)); // 'same' padding
//! ```

#![forbid(unsafe_code)]

pub use wmpt_analyze as analyze;
pub use wmpt_core as core;
pub use wmpt_energy as energy;
pub use wmpt_fault as fault;
pub use wmpt_gpu as gpu;
pub use wmpt_models as models;
pub use wmpt_ndp as ndp;
pub use wmpt_noc as noc;
pub use wmpt_obs as obs;
pub use wmpt_predict as predict;
pub use wmpt_sim as sim;
pub use wmpt_tensor as tensor;
pub use wmpt_winograd as winograd;
