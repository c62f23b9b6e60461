//! Deterministic fault injection and resilient MPT execution.
//!
//! The paper's machine is a 256-worker memory-centric grid; at that
//! scale links fail, DIMMs throttle, and bits flip. This crate makes
//! those faults *first-class and reproducible*:
//!
//! * [`FaultEvent`] / [`FaultState`] — the fault vocabulary: permanent
//!   link failure, dead worker, transient DRAM bit flip, straggler
//!   slowdown, host-link flap.
//! * [`FaultPlan`] / [`Scenario`] — seeded scenarios expanded into a
//!   deterministic `(cycle, event)` schedule; same seed, same plan.
//! * [`train_resilient`] — the functional MPT trainer under a fault
//!   plan: checkpoint/rollback via `wmpt_core`'s bit-exact JSON
//!   checkpoints, ring re-forming via `wmpt_noc::DegradedMapping`,
//!   degraded-grid remapping via `wmpt_core::degraded_grid`. Fault-free
//!   and link-failure-with-recovery runs end with **bit-identical**
//!   weights. The fault-free steps a run shares with every other run of
//!   the same net, data and config are computed once per process.
//! * [`iteration_under_faults`] — the steady-state performance model
//!   pricing a degraded iteration (feeds the `resilience` bench table).
//!
//! Everything is observable: fault counts land on the `fault.*` metric
//! keys, recovery episodes on the `hist.recovery_cycles` histogram, and
//! each fault becomes a span on a dedicated `fault` trace track.
//!
//! ```
//! use wmpt_fault::{FaultPlan, GridShape, Scenario};
//!
//! let plan = FaultPlan::scenario(Scenario::SingleLink, GridShape::paper(), 7, 100_000);
//! assert_eq!(plan.len(), 1);
//! assert_eq!(plan, FaultPlan::scenario(Scenario::SingleLink, GridShape::paper(), 7, 100_000));
//! ```

#![forbid(unsafe_code)]

pub mod degraded;
pub mod event;
pub mod plan;
pub mod recovery;
mod trajectory;

pub use degraded::{iteration_under_faults, DegradedIterCost};
pub use event::{FaultEvent, FaultState};
pub use plan::{FaultPlan, GridShape, Scenario};
pub use recovery::{demo_dataset, train_resilient, ResilienceConfig, ResilienceReport};
