//! `wmpt-check`: deterministic property-testing & differential-oracle
//! harness for the Winograd-MPT workspace.
//!
//! The workspace builds hermetically (no crates.io), so `proptest` /
//! `quickcheck` are out of reach; before this crate each `prop_*` test
//! file hand-rolled its own seeded loops with no shrinking and no replay.
//! This crate gives every property in the repo the same three guarantees:
//!
//! 1. **Determinism** — cases are drawn from the in-repo [`Rng64`]
//!    (xoshiro256++) stream; a run is a pure function of its seed.
//! 2. **Shrinking** — a failure is reduced by bounded greedy edits of its
//!    recorded *choice sequence* (delete / zero / binary-minimize), so the
//!    reported case is the simplest one the generators can express that
//!    still fails.
//! 3. **Replay** — the failure report prints a `WMPT_CHECK_REPLAY`
//!    one-liner that rebuilds the minimal case bit-identically, plus the
//!    `WMPT_CHECK_SEED` that reruns the whole stream. `WMPT_CHECK_CASES`
//!    scales the per-property budget (CI runs an elevated budget).
//!
//! # Example
//!
//! ```
//! use wmpt_check::{check, Tol};
//!
//! check("addition_commutes", |c| {
//!     let a = c.f32_pm(100.0);
//!     let b = c.f32_pm(100.0);
//!     wmpt_check::assert_approx_eq!(a + b, b + a, Tol::EXACT);
//! });
//! ```
//!
//! The [`approx`] module additionally centralizes the workspace's
//! floating-point comparisons ([`approx_eq_f32`], [`Tol`], ULP distances)
//! so differential oracles across crates share one tolerance vocabulary.
//!
//! [`Rng64`]: wmpt_tensor::Rng64

#![forbid(unsafe_code)]

pub mod approx;
pub mod case;
pub mod runner;

mod shrink;
mod source;

pub use approx::{
    approx_eq_f32, approx_eq_f64, max_abs_diff, slices_approx_eq_f32, ulp_diff_f32, ulp_diff_f64,
    Tol,
};
pub use case::{Case, FaultPlanSpec, TopoSpec};
pub use runner::{check, check_with, run_check, Config, Failure, DEFAULT_CASES, DEFAULT_SEED};
pub use source::Source;
