//! CNN model zoo and workload derivation for the MPT evaluation.
//!
//! * [`ConvLayerSpec`] — static layer descriptions with parameter, MAC,
//!   feature-map and Winograd-tile accounting.
//! * [`table2`] — the five representative layers of the paper's Table II
//!   (reconstructed; see DESIGN.md substitution 4), batch 256.
//! * [`wrn_40_10`], [`resnet34`], [`fractalnet()`] — the three CNNs of
//!   Table I with parameter counts validated against the paper.
//! * [`workload`] — direct vs Winograd computation/memory-access ratios
//!   (Fig 1).
//!
//! # Example
//!
//! ```
//! use wmpt_models::{fig1_ratios, table2_layers};
//!
//! for layer in table2_layers() {
//!     let r = fig1_ratios(&layer, 256, 4, 6); // F(4x4,3x3)
//!     assert!(r.compute_reduction > 1.0);     // Winograd computes less
//!     assert!(r.access_increase > 1.0);       // ... but accesses more
//! }
//! ```

pub mod fractalnet;
pub mod layer;
pub mod network;
pub mod resnet;
pub mod table2;
pub mod vgg;
pub mod workload;
pub mod wrn;

pub use fractalnet::fractalnet;
pub use layer::ConvLayerSpec;
pub use network::{Dataset, Network};
pub use resnet::resnet34;
pub use table2::{table2_layers, table2_layers_5x5, table2_network, TABLE2_BATCH};
pub use vgg::vgg16;
pub use workload::{direct_work, fig1_ratios, winograd_work, PhaseWork, TrainingWork, WorkRatios};
pub use wrn::wrn_40_10;
