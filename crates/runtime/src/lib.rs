//! # mrs-runtime — online multi-query scheduling
//!
//! The paper schedules one query at a time; this crate grows that into an
//! *online* runtime serving a stream of queries:
//!
//! | module | contents |
//! |---|---|
//! | [`job`] | query identity, work volume, lifecycle records |
//! | [`admission`] | the wait queue and its policies (FCFS, smallest-volume-first, round-robin fair) |
//! | [`runtime`] | the deterministic event-driven dispatcher (single-threaded or sharded via `mrs-shardexec`) |
//! | [`cache`] | the plan-signature schedule cache (template memoization as a pure memo) |
//! | [`recovery`] | failure-aware rescheduling: re-packing lost work onto survivors |
//! | [`control`] | adaptive overload control: the parallelism governor and backpressure admission gate |
//! | [`metrics`] | per-query latency and quantiles, per-site utilization, throughput, fault trace, cache stats |
//!
//! Each admitted query is scheduled with the paper's TreeSchedule and its
//! synchronized phases are dispatched *incrementally* onto shared fluid
//! sites ([`mrs_sim::engine::SiteSim`]): a phase's clones are inserted at
//! the current virtual time, the event loop advances to the next clone
//! completion or arrival, and a query's next phase starts only once the
//! previous one drains. Concurrent queries therefore time-share sites
//! under the simulator's discipline, and a query running alone reproduces
//! its standalone TreeSchedule response time exactly (the cross-crate
//! consistency test in `tests/runtime_stream.rs` checks this).
//!
//! ```
//! use mrs_runtime::prelude::*;
//! use mrs_core::prelude::*;
//!
//! let sys = SystemSpec::homogeneous(8);
//! let comm = CommModel::paper_defaults();
//! let model = OverlapModel::new(0.5).unwrap();
//! let mut rt = Runtime::new(sys, comm, model, RuntimeConfig::default());
//!
//! let op = OperatorSpec::floating(
//!     OperatorId(0), OperatorKind::Scan,
//!     WorkVector::from_slice(&[4.0, 2.0, 0.0]), 1_000_000.0,
//! );
//! let problem = TreeProblem {
//!     ops: vec![op],
//!     tasks: TaskGraph::single_task(vec![OperatorId(0)]),
//!     bindings: vec![],
//! };
//! rt.submit_at(0.0, 0, problem);
//! let summary = rt.run_to_completion().unwrap();
//! assert_eq!(summary.completed(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod control;
pub mod job;
pub mod metrics;
pub mod recovery;
pub mod runtime;
mod slots;
pub mod trace;

/// One-stop imports.
pub mod prelude {
    pub use crate::admission::{AdmissionPolicy, AdmissionQueue};
    pub use crate::cache::{schedule_digest, CacheStats, PlanSignature, ScheduleCache};
    pub use crate::control::{
        ControlAction, ControlDecision, Controller, ControllerConfig, PressureSample,
    };
    pub use crate::job::{work_volume, QueryId, QueryOutcome, QueryRecord, ShedReason};
    pub use crate::metrics::{FaultRecord, FaultRecordKind, RunSummary};
    pub use crate::recovery::RecoveryConfig;
    pub use crate::runtime::{Runtime, RuntimeConfig, RuntimeError};
    pub use crate::trace::{
        audit_control_transition, audit_placements_valid, audit_repack_conserves, AuditEvent,
    };
}
