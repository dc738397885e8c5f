//! # mrs-baseline — one-dimensional adversary schedulers
//!
//! The comparison points of the paper's Section 6 evaluation plus control
//! baselines for ablations:
//!
//! * [`synchronous`] — **SYNCHRONOUS**: synchronous-execution-time
//!   processor allocation (Hsiao et al. \[HCY94\]) + minimax pipeline-stage
//!   allocation (Lo et al. \[LCRY93\]), scalar work, disjoint processor
//!   sets, extended with shared-nothing redistribution costs.
//! * [`scalar_list`] — TREESCHEDULE with scalar-load packing (isolates the
//!   value of multi-dimensional load vectors).
//! * [`roundrobin`] — TREESCHEDULE with round-robin placement (isolates
//!   the value of load-aware packing altogether).
//!
//! The two TREESCHEDULE variants are per-phase packers run by
//! [`mrs_core::tree::phased_schedule`] at the degrees of
//! [`mrs_core::tree::coarse_degrees`], so they share TREESCHEDULE's
//! shelves, probe ← build home bindings and degree rule exactly and
//! differ only in how a phase's clones are placed. SYNCHRONOUS runs its
//! own wave loop but resolves bindings through the same
//! [`mrs_core::tree::HomeBindings`].
//!
//! All baselines are evaluated with the same multi-dimensional response
//! time model (Equation 3) as TREESCHEDULE.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod roundrobin;
pub mod scalar_list;
pub mod synchronous;

/// One-stop imports.
pub mod prelude {
    pub use crate::alloc::{
        minimax_alloc, proportional_alloc, scalar_optimal_degree, scalar_time, waves_by_demand,
    };
    pub use crate::roundrobin::round_robin_tree_schedule;
    pub use crate::scalar_list::scalar_tree_schedule;
    pub use crate::synchronous::{
        scalar_work, synchronous_schedule, BaselinePhase, BaselineResult,
    };
}
