//! Winograd-transformed convolution: transforms, tiling, direct-convolution
//! reference, and the Winograd layer with Winograd-domain weight updates.
//!
//! This crate is the *numerical* core of the MICRO 2018 MPT reproduction —
//! it implements §II (Background) of the paper end to end:
//!
//! * [`WinogradTransform`] — coefficient matrices for `F(m×m, r×r)`,
//!   either the exact Lavin–Gray constants the paper uses or generated by
//!   a general Cook–Toom construction (any `m`, `r`).
//! * [`Tiling`], [`WgTensor`], [`WgWeights`] — the element-major Winograd
//!   domain layout whose `T²` independent GEMMs are the *intra-tile
//!   parallelism* MPT distributes across worker groups.
//! * [`DirectConv`] — spatial-domain reference implementation (the `d_dp`
//!   baseline) with all three training phases.
//! * [`WinogradConv`] — Winograd convolution with spatial weights
//!   (Fig 2(a), the `w_dp` baseline).
//! * [`WinogradLayer`] — weights resident and updated in the Winograd
//!   domain (Fig 2(b)), the layer type MPT trains.
//!
//! The transforms, the element-wise GEMMs, ReLU and pooling each have
//! one implementation, which writes into a caller's buffer (the `_into`
//! forms; a training step keeps its buffers and allocates nothing), takes
//! a `wmpt_par::ParPool` where it fans out, and returns the same bits for
//! any job count; pass `ParPool::serial()` to run on the caller's thread.
//! The `_par` forms and [`relu`], [`relu_backward`] and [`Pool2x2`]'s
//! `forward`/`backward` allocate their output and call that body.
//!
//! # Quickstart
//!
//! ```
//! use wmpt_winograd::{DirectConv, WinogradConv, WinogradTransform};
//! use wmpt_tensor::{DataGen, Shape4};
//!
//! let mut g = DataGen::new(0);
//! let x = g.normal_tensor(Shape4::new(1, 3, 8, 8), 0.0, 1.0);
//! let w = g.he_weights(Shape4::new(8, 3, 3, 3));
//!
//! let reference = DirectConv::new(3).fprop(&x, &w);
//! let winograd = WinogradConv::new(WinogradTransform::f4x4_3x3()).fprop(&x, &w);
//! assert!(winograd.max_abs_diff(&reference) < 1e-3);
//! ```

#![forbid(unsafe_code)]

pub mod conv;
pub mod conv1d;
pub mod im2col;
pub mod layer;
pub mod optimizer;
pub mod pool;
pub mod stability;
pub mod tiling;
pub mod transform;

pub use conv::{relu, relu_backward, relu_backward_into, relu_into, DirectConv};
pub use conv1d::{direct_conv1d, winograd_conv1d};
pub use im2col::{conv_gemm, im2col};
pub use layer::{
    elementwise_gemm_bprop_into, elementwise_gemm_bprop_par, elementwise_gemm_into,
    elementwise_gemm_par, elementwise_gemm_wgrad_into, elementwise_gemm_wgrad_par, WinogradConv,
    WinogradLayer,
};
pub use optimizer::MomentumSgd;
pub use pool::{Pool2x2, PoolKind};
pub use stability::{amplification_factor, empirical_error, stability_sweep, StabilityPoint};
pub use tiling::{
    from_winograd_output_into, from_winograd_output_par, input_grad_to_spatial_into,
    input_grad_to_spatial_par, output_grad_to_winograd_into, output_grad_to_winograd_par,
    to_spatial_tiles, to_winograd_input_into, to_winograd_input_par, weights_to_winograd, Tiling,
    WgTensor, WgWeights,
};
pub use transform::{TileScratch, TransformBuildError, WinogradTransform};
