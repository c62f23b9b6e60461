//! Dense tensor and matrix primitives for the `winograd-mpt` workspace.
//!
//! This crate provides the numeric substrate every other crate builds on:
//!
//! * [`Shape4`] / [`Tensor4`] — 4-D `f32` tensors in NCHW layout used for
//!   feature maps, weights and gradients of convolution layers.
//! * [`Matrix`] — a small dense `f64` matrix with the linear-algebra
//!   routines needed to *construct* Winograd transforms (Gaussian
//!   elimination, least squares); numerics of the layers themselves run in
//!   `f32` like the paper's FP32 MAC arrays.
//! * [`ops`] — the shared f32 GEMM (f64 accumulation) and element-wise
//!   maps: one `ParPool`-taking body each, deterministic (bit-identical
//!   results for any job count, `ParPool::serial()` for one thread).
//! * [`gen`] — deterministic, seedable random data generators (uniform and
//!   Box–Muller normal) so every experiment in the workspace is exactly
//!   reproducible.
//! * [`rng`] — the self-contained xoshiro256++ PRNG underneath [`gen`],
//!   also used directly by randomized tests across the workspace (the
//!   build is hermetic: no `rand` crate).
//!
//! # Examples
//!
//! ```
//! use wmpt_tensor::{Shape4, Tensor4};
//!
//! let shape = Shape4::new(1, 2, 4, 4); // batch, channels, height, width
//! let mut t = Tensor4::zeros(shape);
//! t[(0, 1, 2, 3)] = 1.5;
//! assert_eq!(t[(0, 1, 2, 3)], 1.5);
//! assert_eq!(t.shape().len(), 32);
//! ```

#![deny(unsafe_code)]

pub mod fp16;
pub mod gen;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use fp16::{f16_bits_to_f32, f32_to_f16, f32_to_f16_bits, quantize_tensor_f16};
pub use gen::DataGen;
pub use matrix::Matrix;
pub use ops::gemm_f32_par;
pub use rng::Rng64;
pub use shape::Shape4;
pub use tensor::Tensor4;
