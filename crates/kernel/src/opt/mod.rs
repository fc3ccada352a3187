//! Cost-based optimizer.
//!
//! The pieces the paper wires its multilingual operators into (§3.3, §3.4,
//! §5.2):
//!
//! * [`cost`] — PostgreSQL-style cost parameters and formulas; extension
//!   operators contribute their registered per-tuple costs (Table 3's k·l
//!   edit-distance term for ψ, closure costs for Ω).
//! * [`selectivity`] — cardinality estimation: classic estimators for the
//!   built-in comparisons over end-biased histograms, and dispatch to the
//!   registered estimator for extension operators (§3.4's MCV-probing
//!   heuristic for ψ, the f/h heuristics for Ω).
//! * [`planner`] — plan enumeration: access-path selection (seq scan vs.
//!   B-Tree vs. approximate index) and left-deep join ordering, with
//!   PostgreSQL-style `enable_*` session flags so experiments can force
//!   plans (§5.2.1 "forced the optimizer ... by enabling or disabling
//!   different optimizer options").

pub mod cost;
pub mod planner;
pub mod selectivity;

pub use cost::CostParams;
pub use planner::{plan, plan_target_scan};
