//! Layer-wise parallelism auto-search over the analytical cost model —
//! the "generalized dynamic clustering" the ROADMAP names as an open
//! item.
//!
//! The paper hand-picks each layer's `(N_g, N_c)` organization from just
//! three fixed configurations (§III-C, Fig. 17). This crate searches a
//! strictly larger space per layer:
//!
//! * **worker organization** — every `(N_g, N_c)` with `N_g · N_c`
//!   equal to the (sub-)machine size, not just the paper's three;
//! * **batch split** — running `s ∈ {1, 2, 4}` data-parallel replicas
//!   of a `p/s`-worker machine on `B/s` images each, paying an explicit
//!   cross-replica gradient collective;
//! * **backward pipelining** — per layer, whether its weight-gradient
//!   communication overlaps the *previous* layer's backward compute
//!   (the §V-C inter-layer pipeline) or stays serial.
//!
//! The search is a dynamic program over the layer chain
//! ([`auto_search`]): the DP state is the previous layer's decision, the
//! edge cost is the closed-form per-layer cycle estimate plus an
//! explicit reconfiguration charge when consecutive layers change
//! organization. An exhaustive brute force ([`brute_force_layers`])
//! over the same objective serves as the reference for small chains —
//! `prop_planner.rs` pins DP == brute force exactly.
//!
//! Cost-model evaluations are memoized in an [`EvalCache`] keyed by the
//! same canonical content hash the serve tier uses for its result cache
//! ([`wmpt_obs::hash::canonical_hash`], re-exported as `serve::hash`),
//! so repeated sweeps — and the server's `plan_auto` request kind —
//! share one addressing scheme. Search effort is observable through the
//! `opt.*` metric keys ([`SearchStats::record`]).
//!
//! Every chosen plan is cross-validated against the event-driven packet
//! simulator ([`validate_plan`]): the weight collective of each planned
//! layer is rebuilt on a real ring topology and the analytical cycles
//! must agree within the `oracle_analytical.rs` tolerance class
//! (sim/model ratio in `[0.5, 2.0)`).

#![forbid(unsafe_code)]

pub mod memo;
pub mod plan;
pub mod search;
pub mod space;
pub mod validate;

pub use memo::{EvalCache, LayerEval, SearchStats};
pub use plan::{AutoPlan, PlannedStep};
pub use search::{
    auto_search, auto_search_layers, brute_force_layers, edge_cost, fixed_plan_layers,
    PlannerConfig, DEFAULT_RECONFIG_CYCLES,
};
pub use space::{default_decisions, sub_model, Decision, BATCH_SPLITS, GROUP_COUNTS};
pub use validate::{
    validate_plan, LayerAgreement, ValidationReport, ORACLE_RATIO_HI, ORACLE_RATIO_LO,
    VALIDATE_MSG_CAP_BYTES,
};
