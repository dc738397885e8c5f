//! Structured audit trace: cheap always-on events the runtime records at
//! its invariant-bearing sites (phase dispatch, recovery re-pack, memo
//! insert/hit), plus the tiny predicates the runtime's `debug_assert!`
//! hooks evaluate inline.
//!
//! The trace exists so that `mrs-audit` (which depends on this crate, not
//! the other way round — no dependency cycle) can *re-check* conservation
//! and coherence after the fact from a [`crate::metrics::RunSummary`]
//! alone: the events carry the aggregate quantities (lost work, expected
//! re-packed work including the EA1 startup surcharge, memo digests) that
//! the coarser [`crate::metrics::FaultRecord`] stream does not.
//!
//! Events are plain values recorded in simulation-event order; the
//! sequence is deterministic for a fixed seed and identical across
//! `--jobs` values (it lives entirely inside one runtime's event loop).

use crate::control::{ControlAction, PressureSample};
use crate::job::QueryId;
use mrs_core::resource::SiteId;
use mrs_core::vector::WorkVector;

/// One entry of the runtime's audit trace. All times are virtual.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditEvent {
    /// A phase of `query` was dispatched (its clone placements were
    /// handed to the site simulators). `phase` is the 0-based phase
    /// index; per query the recorded indices must be strictly
    /// increasing.
    PhaseDispatched {
        /// Virtual dispatch time.
        time: f64,
        /// The owning query.
        query: QueryId,
        /// 0-based phase index within the query's TreeSchedule.
        phase: usize,
    },
    /// Lost work of `query` was successfully re-packed onto survivors.
    ///
    /// Conservation invariant: `placed_total` must equal
    /// `expected_total`, which is the lost work inflated by the rebuild
    /// surcharge plus one EA1 startup cost `α` per degree-1 replacement
    /// clone (see [`crate::recovery::replan_lost`]).
    Repacked {
        /// Virtual re-pack time.
        time: f64,
        /// The recovering query.
        query: QueryId,
        /// Total lost work (already scaled by the unfinished fraction).
        lost_total: f64,
        /// Lost work + rebuild surcharge + per-clone startup `α`.
        expected_total: f64,
        /// Total work actually placed onto alive sites.
        placed_total: f64,
    },
    /// A fresh admission plan was memoized in the schedule cache.
    /// `sig_hash` is [`PlanSignature::hash64`](crate::cache::PlanSignature::hash64)
    /// of its key and `digest` its [`plan_digest`](crate::cache::plan_digest);
    /// together they let the audit replay hit coherence without
    /// shipping the plan itself.
    CacheInsert {
        /// Virtual insert time.
        time: f64,
        /// The query whose plan was computed.
        query: QueryId,
        /// Fold of the plan's signature.
        sig_hash: u64,
        /// Bit-level digest of the memoized plan.
        digest: u64,
    },
    /// An admission plan was served from the schedule cache.
    ///
    /// Coherence invariant (the `cache-digest-mismatch` audit): `digest`
    /// must equal the digest recorded by the [`AuditEvent::CacheInsert`]
    /// for the same `sig_hash` — the served bytes are exactly the
    /// memoized bytes.
    CacheHit {
        /// Virtual hit time.
        time: f64,
        /// The query served from the cache.
        query: QueryId,
        /// Fold of the plan's signature.
        sig_hash: u64,
        /// Digest the cache recorded for this plan at insertion.
        digest: u64,
    },
    /// A freshly computed subtree fragment was memoized by the shared
    /// planner (plan sharing enabled only). `sig_hash` is a 64-bit fold
    /// of the subtree's canonical signature and `digest` the bit-level
    /// digest of the memoized fragment
    /// ([`crate::cache::fragment_digest`]).
    FragmentInsert {
        /// Virtual insert time.
        time: f64,
        /// The query whose planning produced the fragment.
        query: QueryId,
        /// Fold of the subtree's canonical signature.
        sig_hash: u64,
        /// Bit-level digest of the memoized fragment.
        digest: u64,
    },
    /// A cached subtree fragment was spliced into an admission plan.
    ///
    /// Coherence invariant (see the `runtime-mqo` audit family): `digest`
    /// must equal the digest recorded by the [`AuditEvent::FragmentInsert`]
    /// for the same `sig_hash` — the spliced bytes are exactly the
    /// memoized bytes, which the shared planner's determinism ties back
    /// to a fresh computation over the subtree problem.
    FragmentSpliced {
        /// Virtual splice time.
        time: f64,
        /// The query receiving the fragment.
        query: QueryId,
        /// Fold of the subtree's canonical signature.
        sig_hash: u64,
        /// Digest the memo recorded for this fragment at insertion.
        digest: u64,
    },
    /// The overload controller changed state (see [`crate::control`]).
    ///
    /// Replay invariants (checked by `mrs-audit`'s controller-coherence
    /// family): starting from level 0 / gate released, each decision
    /// moves exactly one step consistent with its `action`
    /// ([`audit_control_transition`]), and the recorded signal snapshot
    /// justifies the action under the run's thresholds
    /// ([`ControllerConfig::justifies`](crate::control::ControllerConfig)).
    /// Never recorded while the controller is disabled.
    ControlDecision {
        /// Virtual time of the observation (equals `sample.time`).
        time: f64,
        /// What changed.
        action: ControlAction,
        /// Governor level after the decision.
        level: u32,
        /// Gate state after the decision.
        gate: bool,
        /// The pressure snapshot that justified the decision.
        sample: PressureSample,
    },
}

impl AuditEvent {
    /// The event's virtual timestamp.
    pub fn time(&self) -> f64 {
        match self {
            AuditEvent::PhaseDispatched { time, .. }
            | AuditEvent::Repacked { time, .. }
            | AuditEvent::CacheInsert { time, .. }
            | AuditEvent::CacheHit { time, .. }
            | AuditEvent::FragmentInsert { time, .. }
            | AuditEvent::FragmentSpliced { time, .. }
            | AuditEvent::ControlDecision { time, .. } => *time,
        }
    }
}

/// Relative tolerance for work-conservation comparisons. Re-pack sums
/// the same float quantities in a different order than the expectation
/// (packer order vs. lost-clone order), so bit equality is too strict;
/// anything beyond accumulated rounding noise is a real leak.
pub const CONSERVATION_REL_TOL: f64 = 1e-9;

/// True when the re-packed work equals the expected (surcharged) lost
/// work within [`CONSERVATION_REL_TOL`].
pub fn audit_repack_conserves(expected_total: f64, placed_total: f64) -> bool {
    let scale = expected_total.abs().max(placed_total.abs()).max(1.0);
    (expected_total - placed_total).abs() <= CONSERVATION_REL_TOL * scale
}

/// True when one controller decision is a *structurally* valid step from
/// the replayed `(prev_level, prev_gate)` state: the action matches the
/// recorded post-state and moves exactly one step (level ±1 with the
/// gate unchanged, or the gate flipped with the level unchanged).
/// Threshold justification is a separate, config-aware check
/// ([`ControllerConfig::justifies`](crate::control::ControllerConfig)).
pub fn audit_control_transition(
    prev_level: u32,
    prev_gate: bool,
    action: ControlAction,
    level: u32,
    gate: bool,
) -> bool {
    match action {
        ControlAction::RaiseLevel => level == prev_level + 1 && gate == prev_gate,
        ControlAction::LowerLevel => prev_level > 0 && level == prev_level - 1 && gate == prev_gate,
        ControlAction::EngageGate => !prev_gate && gate && level == prev_level,
        ControlAction::ReleaseGate => prev_gate && !gate && level == prev_level,
    }
}

/// True when every placement names an in-range site and a non-negative
/// work vector of the system's dimensionality — the structural
/// precondition [`crate::runtime::Runtime`] asserts before handing
/// clones to the site simulators.
pub fn audit_placements_valid(placements: &[(SiteId, WorkVector)], sites: usize, d: usize) -> bool {
    placements.iter().all(|(site, work)| {
        site.0 < sites
            && work.dim() == d
            && work.components().iter().all(|c| c.is_finite() && *c >= 0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_tolerates_rounding_noise_only() {
        assert!(audit_repack_conserves(100.0, 100.0 + 1e-8));
        assert!(!audit_repack_conserves(100.0, 100.1));
        assert!(audit_repack_conserves(0.0, 0.0));
    }

    #[test]
    fn placement_validity_checks_site_range_and_shape() {
        let good = vec![(SiteId(0), WorkVector::from_slice(&[1.0, 0.0, 0.0]))];
        assert!(audit_placements_valid(&good, 2, 3));
        assert!(!audit_placements_valid(&good, 0, 3), "site out of range");
        assert!(!audit_placements_valid(&good, 2, 2), "dimension mismatch");
        // Constructors reject negative components, so corrupt one by
        // mutation — the unchecked path this predicate guards against.
        let mut corrupt = WorkVector::zeros(3);
        corrupt[0] = -1.0;
        let bad = vec![(SiteId(0), corrupt)];
        assert!(!audit_placements_valid(&bad, 2, 3), "negative work");
    }

    #[test]
    fn event_time_accessor_covers_all_variants() {
        let ev = AuditEvent::CacheHit {
            time: 2.5,
            query: QueryId(0),
            sig_hash: 1,
            digest: 2,
        };
        assert_eq!(ev.time(), 2.5);
        let ev = AuditEvent::PhaseDispatched {
            time: 1.0,
            query: QueryId(0),
            phase: 0,
        };
        assert_eq!(ev.time(), 1.0);
        let ev = AuditEvent::ControlDecision {
            time: 3.5,
            action: ControlAction::EngageGate,
            level: 0,
            gate: true,
            sample: PressureSample {
                time: 3.5,
                queue_depth: 2,
                retries: 0,
                alive: 4,
                avg_load: 0.9,
            },
        };
        assert_eq!(ev.time(), 3.5);
    }

    #[test]
    fn control_transitions_move_exactly_one_step() {
        use ControlAction::*;
        // Valid single steps.
        assert!(audit_control_transition(0, false, RaiseLevel, 1, false));
        assert!(audit_control_transition(2, true, LowerLevel, 1, true));
        assert!(audit_control_transition(1, false, EngageGate, 1, true));
        assert!(audit_control_transition(1, true, ReleaseGate, 1, false));
        // Level jumps, gate flips on level actions, re-engaging an
        // engaged gate: all tampered traces.
        assert!(!audit_control_transition(0, false, RaiseLevel, 2, false));
        assert!(!audit_control_transition(0, false, RaiseLevel, 1, true));
        assert!(!audit_control_transition(0, false, LowerLevel, 0, false));
        assert!(!audit_control_transition(1, true, EngageGate, 1, true));
        assert!(!audit_control_transition(1, false, ReleaseGate, 1, false));
        assert!(!audit_control_transition(1, true, ReleaseGate, 0, false));
    }
}
