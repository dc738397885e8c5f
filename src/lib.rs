//! # mdrs — Multi-dimensional Resource Scheduling for Parallel Queries
//!
//! A production-quality Rust reproduction of Garofalakis & Ioannidis,
//! *"Multi-dimensional Resource Scheduling for Parallel Queries"*,
//! SIGMOD 1996: scheduling bushy hash-join plans on shared-nothing
//! systems whose sites bundle `d` preemptable resources (CPU, disk,
//! network interface), by treating concurrent-operator scheduling as
//! d-dimensional vector packing.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | work vectors, OPERATORSCHEDULE, TREESCHEDULE, malleable scheduling, bounds |
//! | [`plan`] | plan trees, operator trees, query-task decomposition |
//! | [`cost`] | Table 2 parameters, per-operator work vectors |
//! | [`workload`] | seeded random query generation |
//! | [`baseline`] | SYNCHRONOUS and ablation baselines |
//! | [`sim`] | discrete-event fluid execution simulator |
//! | [`opt`] | exact branch-and-bound packing |
//! | [`exp`] | table/figure regeneration harness |
//! | [`runtime`] | online multi-query runtime: admission, event-driven dispatch onto fluid sites |
//! | [`audit`] | paper-invariant auditor, run-trace checker, `mrs-lint` source gate |
//!
//! ## Quickstart
//!
//! ```
//! use mdrs::prelude::*;
//!
//! // A random 10-join query over 10^3..10^5-tuple relations.
//! let query = generate_query(&QueryGenConfig::paper(10), 42);
//!
//! // Derive the multi-dimensional scheduling problem under Table 2 costs.
//! let cost = CostModel::paper_defaults();
//! let problem = problem_from_plan(
//!     &query.plan, &query.catalog, &KeyJoinMax, &cost, &ScanPlacement::Floating,
//! ).unwrap();
//!
//! // Schedule it on 32 three-resource sites with 50% resource overlap.
//! let sys = SystemSpec::homogeneous(32);
//! let model = OverlapModel::new(0.5).unwrap();
//! let comm = cost.params().comm_model();
//! let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
//! assert!(result.response_time > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mrs_audit as audit;
pub use mrs_baseline as baseline;
pub use mrs_core as core;
pub use mrs_cost as cost;
pub use mrs_exp as exp;
pub use mrs_opt as opt;
pub use mrs_plan as plan;
pub use mrs_runtime as runtime;
pub use mrs_sim as sim;
pub use mrs_workload as workload;

/// Everything a typical user needs, flattened.
pub mod prelude {
    pub use mrs_audit::prelude::*;
    pub use mrs_baseline::prelude::*;
    pub use mrs_core::prelude::*;
    pub use mrs_cost::prelude::*;
    pub use mrs_exp::prelude::*;
    pub use mrs_opt::prelude::*;
    pub use mrs_plan::prelude::*;
    pub use mrs_runtime::prelude::*;
    pub use mrs_sim::prelude::*;
    pub use mrs_workload::prelude::*;
}
