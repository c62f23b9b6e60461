//! Activation prediction and zero-skipping for Winograd tile transfer
//! (paper §V).
//!
//! MPT's tile gathering moves Winograd-domain output tiles between workers
//! so the destination can inverse-transform them to spatial neurons. When
//! those neurons are all killed by ReLU anyway, the transfer is wasted.
//! This crate implements the paper's remedy without any accuracy loss:
//!
//! * [`NonUniformQuantizer`] — σ-scaled, region-doubling quantization of
//!   Winograd-domain values (Fig 10); a uniform quantizer is the `R = 1`
//!   special case.
//! * [`IntervalMat`] — propagation of quantization-error intervals through
//!   transform matrix products via sign-split coefficients (§V-A).
//! * [`ActivationPredictor`] — the 1-D-predict and 2-D-predict flows of
//!   Fig 11; **provably conservative** (no false negatives), which the
//!   property tests in `tests/` exercise.
//! * [`stats::measure`] — dead-tile/dead-line ratios, actual vs predicted
//!   (Fig 12 and the §V-B savings percentages).
//! * [`zero_skip`] — zero-skipping of input-tile scattering with
//!   [`ActivationMap`] packing (Fig 13(b)'s packing DMA).
//!
//! # Example: sound prediction
//!
//! ```
//! use wmpt_predict::{ActivationPredictor, PredictMode, QuantizerConfig};
//! use wmpt_winograd::WinogradTransform;
//!
//! let p = ActivationPredictor::new(
//!     WinogradTransform::f2x2_3x3(),
//!     QuantizerConfig::new(64, 4),
//!     1.0,
//! );
//! let tile: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
//! let pred = p.predict(&tile, PredictMode::TwoD);
//! let actual = p.actual(&tile);
//! // Every actual neuron is inside its predicted interval:
//! for ((a, lo), hi) in actual.iter().zip(&pred.lower).zip(&pred.upper) {
//!     assert!(lo - 1e-4 <= *a && *a <= hi + 1e-4);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod bounds;
pub mod observe;
pub mod predictor;
pub mod quantize;
pub mod stats;
pub mod zero_skip;

pub use bounds::IntervalMat;
pub use observe::record_prediction;
pub use predictor::{
    predict_tensor, ActivationPredictor, PredictMode, TensorPrediction, TilePrediction,
};
pub use quantize::{sigma_of, NonUniformQuantizer, Quantized, QuantizerConfig, OVERFLOW_BOUND};
pub use stats::{measure, PredictionStats};
pub use zero_skip::{
    scatter_zero_fraction_1d, scatter_zero_fraction_2d, spatial_zero_fraction, ActivationMap,
};
