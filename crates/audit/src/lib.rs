#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `mrs-audit`: the paper-invariant auditor and in-repo source lint.
//!
//! Two halves, one goal — every claim the scheduler makes must be
//! checkable from recorded evidence:
//!
//! * **Dynamic audits** — [`invariant::audit_schedule`] /
//!   [`invariant::audit_tree`] verify Definition 5.1's structural
//!   constraints, the `CG_f` degree cap, build/probe co-location, shelf
//!   disjointness, phase-barrier ordering, and the Theorem 5.1
//!   `(2d+1)·LB` makespan certificate on any [`PhaseSchedule`] or
//!   TREESCHEDULE result; [`run::audit_run`] replays a runtime
//!   [`RunSummary`]'s structured trace to verify fluid-sharing
//!   feasibility (peak *and* time-averaged), work conservation through
//!   fault recovery, and memo digest coherence;
//!   [`shard::audit_clone_log`] checks the runtime's clone event log
//!   (every event on a real site, every clone dispatched once and
//!   ended exactly once). All checks collect
//!   machine-readable [`violation::Violation`]s rather than panicking.
//! * **Static lint** — [`lint`] (and the `mrs-lint` binary) scans the
//!   workspace's sources for determinism and hygiene hazards the
//!   compiler cannot see: wall-clock reads, `HashMap` imports in result
//!   paths, `unwrap`/`panic!` in library code, float `==`, and missing
//!   crate-root safety headers. Exceptions live in a committed
//!   allowlist with a reason per entry.
//!
//! [`PhaseSchedule`]: mrs_core::schedule::PhaseSchedule
//! [`RunSummary`]: mrs_runtime::metrics::RunSummary

pub mod invariant;
pub mod lint;
pub mod run;
pub mod shard;
pub mod violation;

/// Convenience re-exports of the whole audit surface.
pub mod prelude {
    pub use crate::invariant::{
        audit_governed_degrees, audit_schedule, audit_tree, AuditOptions, AUDIT_REL_TOL,
    };
    pub use crate::lint::{lint_file, lint_workspace, workspace_sources, Allowlist, LintFinding};
    pub use crate::run::{audit_controller, audit_run};
    pub use crate::shard::audit_clone_log;
    pub use crate::violation::Violation;
}

pub use invariant::{audit_governed_degrees, audit_schedule, audit_tree, AuditOptions};
pub use run::{audit_controller, audit_run};
pub use shard::audit_clone_log;
pub use violation::Violation;
