//! # mrs-core — Multi-dimensional Resource Scheduling for Parallel Queries
//!
//! A from-scratch implementation of the scheduling framework of
//! Garofalakis & Ioannidis, *"Multi-dimensional Resource Scheduling for
//! Parallel Queries"*, SIGMOD 1996.
//!
//! Shared-nothing systems are modeled as `P` identical sites, each a
//! bundle of `d` preemptable resources (CPU, disk, network interface).
//! Query operators are described by [`vector::WorkVector`]s — one busy-time
//! component per resource — and concurrent operators *time-share* a site's
//! resources. Scheduling a set of concurrent operators then becomes a
//! d-dimensional **bin-design** (vector-packing) problem, solved by a
//! provably near-optimal list-scheduling heuristic.
//!
//! ## Map of the crate
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`vector`] | 5.1 | work vectors, `l(W̄)`, `l(S)` |
//! | [`resource`] | 3.1 | resource kinds, site/system specs |
//! | [`model`] | 4.1, EA2 | `T_seq(W̄)` response models (`ε` overlap) |
//! | [`comm`] | 4.2–4.3 | `W_c = αN + βD`, `CG_f`, `N_max` (Prop 4.1) |
//! | [`operator`] | 3.1, 5.1 | operator specs, rooted/floating placement |
//! | [`partition`] | 5.2.1, EA1 | cloning, `T_par` (Eq 1), degree choice |
//! | [`schedule`] | 5.2.2 | schedules, `T_site` (Eq 2), makespan (Eq 3) |
//! | [`list`] | 5.3, Fig 3 | **OperatorSchedule** list heuristic |
//! | [`tasks`] | 3.1, 5.4 | query task graphs, MinShelf levels |
//! | [`tree`] | 5.4, Fig 4 | **TreeSchedule** phased scheduling |
//! | [`malleable`] | 7 | GF candidate sweep, `LB(N)`, Theorem 7.1 |
//! | [`bounds`] | 5.3, 6.2 | Theorem 5.1 ratios, `OPTBOUND` |
//! | [`rng`] | — | seeded SplitMix64 generator (no external deps) |
//! | [`error`] | — | validation errors |
//!
//! ## Quick example
//!
//! ```
//! use mrs_core::prelude::*;
//!
//! // An 8-site machine, each site = {CPU, disk, network}.
//! let sys = SystemSpec::homogeneous(8);
//! let comm = CommModel::paper_defaults();
//! let model = OverlapModel::new(0.5).unwrap(); // 50% resource overlap
//!
//! // Three floating operators with different resource shapes.
//! let ops = vec![
//!     OperatorSpec::floating(OperatorId(0), OperatorKind::Scan,
//!         WorkVector::from_slice(&[2.0, 6.0, 0.0]), 1_000_000.0),
//!     OperatorSpec::floating(OperatorId(1), OperatorKind::Build,
//!         WorkVector::from_slice(&[3.0, 0.0, 0.0]), 1_000_000.0),
//!     OperatorSpec::floating(OperatorId(2), OperatorKind::Scan,
//!         WorkVector::from_slice(&[1.0, 4.0, 0.0]),   500_000.0),
//! ];
//!
//! // Schedule them as one phase of coarse-grain parallel execution.
//! let schedule = operator_schedule(ops, 0.7, &sys, &comm, &model).unwrap();
//! schedule.validate(&sys).unwrap();
//! assert!(schedule.makespan(&sys, &model) > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod comm;
pub mod error;
pub mod list;
pub mod malleable;
pub mod memory;
pub mod model;
pub mod operator;
pub mod partition;
pub mod resource;
pub mod rng;
pub mod schedule;
pub mod shared;
pub mod tasks;
pub mod tree;
pub mod vector;

/// One-stop imports for typical users of the crate.
pub mod prelude {
    pub use crate::bounds::{
        opt_bound, phase_lower_bound, theorem_5_1_ratio_cg, theorem_5_1_ratio_fixed,
    };
    pub use crate::comm::CommModel;
    pub use crate::error::ScheduleError;
    pub use crate::list::{
        operator_schedule, operator_schedule_with_order, pack_clones, pack_clones_in,
        schedule_with_degrees, schedule_with_degrees_in, ListOrder, PackScratch,
    };
    pub use crate::malleable::{
        lb_for_parallelization, malleable_schedule, malleable_schedule_in, MalleableOutcome,
    };
    pub use crate::memory::{
        operator_schedule_with_memory, MemoryDemand, MemoryError, MemorySchedule, MemorySpec,
    };
    pub use crate::model::{OverlapModel, ResponseModel};
    pub use crate::operator::{OperatorId, OperatorKind, OperatorSpec, Placement};
    pub use crate::partition::{
        choose_degree, clone_vectors, clone_work, min_t_par, t_par, CloneWork, DegreeChoice,
        PartitionStrategy,
    };
    pub use crate::resource::{ResourceKind, SiteId, SiteSpec, SystemSpec};
    pub use crate::rng::DetRng;
    pub use crate::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
    pub use crate::shared::{
        subtree_signatures, tree_schedule_shared, FragmentCache, MapFragmentCache,
        ScheduleFragment, SharedStats, SubtreeSig,
    };
    pub use crate::tasks::{HomeBinding, TaskGraph, TaskId, TaskNode};
    pub use crate::tree::{
        coupled_degree, malleable_tree_schedule, tree_schedule, tree_schedule_with, PhasePolicy,
        PhaseResult, PlanOptions, TreeProblem, TreeScheduleResult,
    };
    pub use crate::vector::WorkVector;
}
