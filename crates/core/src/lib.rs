//! Multi-dimensional parallel training (MPT) — the paper's primary
//! contribution, assembled from the workspace's substrates.
//!
//! MPT organizes `p` NDP workers as `N_g` groups × `N_c` clusters: the
//! batch splits across clusters (data parallelism) and the `T²` Winograd
//! tile elements split across groups (intra-tile parallelism). Weight
//! gradients then reduce only *within* groups — shrinking the dominant
//! collective of data-parallel training by `N_g` — at the price of a new
//! tile gather/scatter inside clusters, which dynamic clustering and
//! activation prediction keep in check.
//!
//! * [`checkpoint`] — bit-exact JSON checkpoint/restore of a
//!   [`WinogradNet`]'s weights, the checkpoint format of `wmpt-fault`'s
//!   resilient runs.
//! * [`config`] — the Table IV system configurations and §V-B savings.
//! * [`exec`] — full-system per-layer simulation (time + energy) on the
//!   256-worker memory-centric NDP architecture (Figs 15–16).
//! * [`network_eval`] — whole-CNN aggregation (Figs 17–18); the same
//!   result is the host's per-layer execution plan (§VI-A).
//! * [`observe`] — the observed entry points: one simulation, then one
//!   pass recording its spans and metrics.
//! * [`trainer`] — the *functional* distributed trainer: MPT's math
//!   executed with real partitioning and verified bit-for-bit (to FP
//!   tolerance) against centralized training, including the modified join
//!   and lossless prediction-gathering.
//!
//! # Example
//!
//! ```
//! use wmpt_core::{simulate_layer, SystemConfig, SystemModel};
//! use wmpt_models::table2_layers;
//!
//! let model = SystemModel::paper();
//! let late = &table2_layers()[4];
//! let dp = simulate_layer(&model, late, SystemConfig::WDp);
//! let full = simulate_layer(&model, late, SystemConfig::WMpPD);
//! assert!(full.total_cycles() < dp.total_cycles()); // late layers love MPT
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod exec;
pub mod net_trainer;
pub mod network_eval;
pub mod observe;
pub mod progress;
pub mod taskgraph;
pub mod trainer;

pub use checkpoint::{checkpoint_net, restore_net};
pub use config::{PredictionSavings, SystemConfig};
pub use exec::{
    simulate_layer, simulate_layer_with, CollectiveParams, LayerResult, PhaseResult, SystemModel,
};
pub use net_trainer::{Stage, WinogradNet};
pub use network_eval::{simulate_network, NetworkResult};
pub use observe::{record_layer, simulate_layer_observed, simulate_network_observed};
pub use progress::Heartbeat;
pub use taskgraph::{compile_forward, CompiledForward};
pub use trainer::{
    degraded_grid, elem_owner, gather_with_prediction, reduced_gradient_distributed_par,
    train_step_distributed_par, winograd_join,
};
