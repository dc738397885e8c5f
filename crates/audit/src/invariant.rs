//! Dynamic invariant checks over schedules and tree-schedule results.
//!
//! * [`audit_schedule`] — Definition 5.1's structural constraints plus
//!   the Theorem 5.1 makespan certificate for one phase.
//! * [`audit_tree`] — everything `audit_schedule` checks per phase, plus
//!   shelf disjointness, phase-barrier ordering, build/probe
//!   co-location, the `CG_f` degree cap, and consistency of the recorded
//!   makespans and response time.
//!
//! All checks *collect* [`Violation`]s instead of stopping at the first
//! failure, so callers see the complete damage.

use crate::violation::Violation;
use mrs_core::bounds::{phase_lower_bound, theorem_5_1_ratio_fixed};
use mrs_core::comm::CommModel;
use mrs_core::model::ResponseModel;
use mrs_core::operator::{OperatorId, OperatorSpec, Placement};
use mrs_core::resource::SystemSpec;
use mrs_core::schedule::PhaseSchedule;
use mrs_core::tree::{TreeProblem, TreeScheduleResult};
use std::collections::HashMap;

/// Relative tolerance for float comparisons of recomputed quantities
/// (makespans, response times, certificate bounds). Recomputation walks
/// the same data in the same order, so disagreement beyond rounding
/// noise is a real inconsistency.
pub const AUDIT_REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= AUDIT_REL_TOL * scale
}

/// What an audit should check beyond the structural constraints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditOptions {
    /// The coarse-grain granularity the schedule was produced under.
    /// `Some(f)` enables the `CG_f` degree-cap check; `None` (malleable
    /// or baseline schedules) skips it.
    pub f: Option<f64>,
    /// Check the Theorem 5.1 certificate `makespan ≤ (2d+1)·LB` per
    /// phase. Sound for any least-loaded list packing (the bound's
    /// argument does not use the consideration order, so it covers the
    /// Arbitrary-order ablation too); disable for baselines that place
    /// clones by other rules (round-robin, scalar resampling).
    pub certificate: bool,
}

impl AuditOptions {
    /// Audit a `CG_f` coarse-grain schedule: cap check + certificate.
    pub fn coarse_grain(f: f64) -> Self {
        AuditOptions {
            f: Some(f),
            certificate: true,
        }
    }

    /// Audit a malleable schedule: no cap (degrees are chosen by the GF
    /// sweep), certificate on.
    pub fn malleable() -> Self {
        AuditOptions {
            f: None,
            certificate: true,
        }
    }

    /// Structural checks only (baselines that do not pack least-loaded).
    pub fn structural() -> Self {
        AuditOptions {
            f: None,
            certificate: false,
        }
    }
}

/// Audits one phase schedule: Definition 5.1's constraints (shape,
/// degree ≥ 1, no clone collision, sites in range, rooted operators at
/// their homes) and — when `certificate` is set — the Theorem 5.1 bound
/// `makespan ≤ (2d+1) · max(l(S)/P, max T_par)`. The phase index `phase`
/// only labels certificate violations.
pub fn audit_schedule<M: ResponseModel>(
    schedule: &PhaseSchedule,
    sys: &SystemSpec,
    model: &M,
    certificate: bool,
    phase: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if schedule.assignment.homes.len() != schedule.ops.len() {
        out.push(Violation::ShapeMismatch {
            detail: format!(
                "assignment covers {} operators, phase has {}",
                schedule.assignment.homes.len(),
                schedule.ops.len()
            ),
        });
        return out;
    }
    for (op, homes) in schedule.ops.iter().zip(&schedule.assignment.homes) {
        if op.degree == 0 {
            out.push(Violation::DegreeZero { op: op.spec.id });
        }
        if homes.len() != op.degree || op.clones.len() != op.degree {
            out.push(Violation::DegreeMismatch {
                op: op.spec.id,
                expected: op.degree,
                actual: homes.len().min(op.clones.len()),
            });
        }
        let mut seen = homes.clone();
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0] == pair[1] {
                out.push(Violation::CloneCollision {
                    op: op.spec.id,
                    site: pair[0],
                });
                break;
            }
        }
        for &site in homes {
            if site.0 >= sys.sites {
                out.push(Violation::SiteOutOfRange {
                    op: op.spec.id,
                    site,
                    sites: sys.sites,
                });
                break;
            }
        }
        if let Placement::Rooted(required) = &op.spec.placement {
            if required != homes {
                out.push(Violation::RootedOffHome { op: op.spec.id });
            }
        }
    }
    // Recomputing a makespan indexes site loads by home: only safe when
    // every home is in range.
    let sites_ok = !out
        .iter()
        .any(|v| matches!(v, Violation::SiteOutOfRange { .. }));
    if certificate && sites_ok && !schedule.ops.is_empty() {
        let lb = phase_lower_bound(&schedule.ops, sys, model);
        let bound = theorem_5_1_ratio_fixed(sys.dim()) * lb;
        let makespan = schedule.makespan(sys, model);
        if makespan > bound * (1.0 + AUDIT_REL_TOL) {
            out.push(Violation::CertificateExceeded {
                phase,
                makespan,
                bound,
            });
        }
    }
    out
}

/// Audits a complete TREESCHEDULE result against its problem: per-phase
/// [`audit_schedule`], shelf disjointness and coverage, phase-barrier
/// ordering of bindings, build/probe co-location, the `CG_f` cap (with
/// binding sources sized by the combined build+probe operator), and
/// consistency of the recorded makespans and response time.
pub fn audit_tree<M: ResponseModel>(
    problem: &TreeProblem,
    result: &TreeScheduleResult,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
    opts: &AuditOptions,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = problem.validate() {
        out.push(Violation::ShapeMismatch {
            detail: format!("problem invalid: {e}"),
        });
        return out;
    }

    // Per-phase structural + certificate checks, makespan consistency.
    let mut phase_sum = 0.0;
    for (idx, phase) in result.phases.iter().enumerate() {
        let phase_violations = audit_schedule(&phase.schedule, sys, model, opts.certificate, idx);
        // Recomputing the makespan of a phase with out-of-range homes
        // would index past the site table.
        let sites_ok = !phase_violations
            .iter()
            .any(|v| matches!(v, Violation::SiteOutOfRange { .. }));
        out.extend(phase_violations);
        if sites_ok {
            let recomputed = phase.schedule.makespan(sys, model);
            if !close(phase.makespan, recomputed) {
                out.push(Violation::MakespanMismatch {
                    phase: idx,
                    recorded: phase.makespan,
                    recomputed,
                });
            }
        }
        phase_sum += phase.makespan;
    }
    if !close(result.response_time, phase_sum) {
        out.push(Violation::ResponseMismatch {
            recorded: result.response_time,
            recomputed: phase_sum,
        });
    }

    // Shelf disjointness + coverage: every operator of the problem in
    // exactly one phase.
    let mut phase_of: HashMap<OperatorId, usize> = HashMap::new();
    for (idx, phase) in result.phases.iter().enumerate() {
        for op in &phase.schedule.ops {
            if phase_of.insert(op.spec.id, idx).is_some() {
                out.push(Violation::ShelfOverlap { op: op.spec.id });
            }
        }
    }
    for op in &problem.ops {
        if !phase_of.contains_key(&op.id) {
            out.push(Violation::OpMissing { op: op.id });
        }
    }

    // Binding propagation: source strictly before dependent, homes
    // identical (Section 5.5).
    for b in &problem.bindings {
        // Missing operators were already reported above.
        if let (Some(&src), Some(&dep)) = (phase_of.get(&b.source), phase_of.get(&b.dependent)) {
            if src >= dep {
                out.push(Violation::PhaseOrderBroken {
                    dependent: b.dependent,
                    source: b.source,
                });
            }
            if result.homes_of(b.source) != result.homes_of(b.dependent) {
                out.push(Violation::CoLocationBroken {
                    dependent: b.dependent,
                    source: b.source,
                });
            }
        }
    }

    // CG_f degree cap for floating operators. Binding dependents are
    // rooted by propagation (their degree is dictated by the source);
    // binding sources are sized by the combined build+probe operator,
    // mirroring `coupled_degree`.
    if let Some(f) = opts.f {
        let dependent_of: HashMap<OperatorId, OperatorId> = problem
            .bindings
            .iter()
            .map(|b| (b.source, b.dependent))
            .collect();
        let rooted_dependents: Vec<OperatorId> =
            problem.bindings.iter().map(|b| b.dependent).collect();
        for op in &problem.ops {
            if !matches!(op.placement, Placement::Floating) {
                continue;
            }
            if rooted_dependents.contains(&op.id) {
                continue;
            }
            let degree = match result.degree_of(op.id) {
                Some(n) => n,
                None => continue,
            };
            let sizing = match dependent_of.get(&op.id) {
                Some(dep) => {
                    let dep_op = &problem.ops[dep.0];
                    OperatorSpec::floating(
                        op.id,
                        op.kind,
                        &op.processing + &dep_op.processing,
                        op.data_volume + dep_op.data_volume,
                    )
                }
                None => op.clone(),
            };
            let cap = comm
                .n_max_coarse_grain(f, sizing.processing_area(), sizing.data_volume)
                .min(sys.sites)
                .max(1);
            if degree > cap {
                out.push(Violation::CoarseGrainCapExceeded {
                    op: op.id,
                    degree,
                    cap,
                });
            }
        }
    }

    out
}

/// Checks a governed TREESCHEDULE result against the overload
/// controller's degree cap: every floating operator (binding dependents
/// included — they inherit the capped source's homes) must run at degree
/// `≤ cap`. Rooted operators are exempt: their pinned homes are a data-
/// placement constraint, not a parallelism choice. Pair with
/// [`audit_tree`] to also prove the governed plan still satisfies the
/// paper's own `CG_f` caps (the governor only ever *lowers* degrees).
pub fn audit_governed_degrees(
    problem: &TreeProblem,
    result: &TreeScheduleResult,
    cap: usize,
) -> Vec<Violation> {
    let cap = cap.max(1);
    let mut out = Vec::new();
    for op in &problem.ops {
        if !matches!(op.placement, Placement::Floating) {
            continue;
        }
        if let Some(degree) = result.degree_of(op.id) {
            if degree > cap {
                out.push(Violation::GovernedDegreeExceeded {
                    op: op.id,
                    degree,
                    cap,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::model::OverlapModel;
    use mrs_core::operator::OperatorKind;
    use mrs_core::tasks::{HomeBinding, TaskGraph, TaskId, TaskNode};
    use mrs_core::tree::tree_schedule;
    use mrs_core::vector::WorkVector;

    fn op(id: usize, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(id),
            OperatorKind::Other,
            WorkVector::from_slice(w),
            data,
        )
    }

    /// scan+build feeding scan+probe, with a probe<-build binding: the
    /// fixture every mutation test corrupts.
    pub(crate) fn join_problem() -> TreeProblem {
        let ops = vec![
            op(0, &[2.0, 4.0, 0.0], 1e6),
            op(1, &[1.0, 0.0, 0.0], 1e6),
            op(2, &[3.0, 6.0, 0.0], 2e6),
            op(3, &[2.5, 0.0, 0.0], 3e6),
        ];
        let tasks = TaskGraph::new(vec![
            TaskNode {
                ops: vec![OperatorId(2), OperatorId(3)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(0), OperatorId(1)],
                parent: Some(TaskId(0)),
            },
        ])
        .unwrap();
        TreeProblem {
            ops,
            tasks,
            bindings: vec![HomeBinding {
                dependent: OperatorId(3),
                source: OperatorId(1),
            }],
        }
    }

    #[test]
    fn clean_tree_schedule_audits_clean() {
        let problem = join_problem();
        let sys = SystemSpec::homogeneous(8);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.5).unwrap();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let v = audit_tree(
            &problem,
            &r,
            &sys,
            &comm,
            &model,
            &AuditOptions::coarse_grain(0.7),
        );
        assert!(v.is_empty(), "clean schedule must audit clean: {v:?}");
    }

    #[test]
    fn response_mismatch_is_reported() {
        let problem = join_problem();
        let sys = SystemSpec::homogeneous(8);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.5).unwrap();
        let mut r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        r.response_time *= 2.0;
        let v = audit_tree(
            &problem,
            &r,
            &sys,
            &comm,
            &model,
            &AuditOptions::coarse_grain(0.7),
        );
        assert!(v.iter().any(|x| x.kind() == "response-mismatch"), "{v:?}");
    }

    #[test]
    fn governed_plans_respect_the_cap_and_the_paper_caps() {
        use mrs_core::tree::{tree_schedule_with, PlanOptions};
        let problem = join_problem();
        let sys = SystemSpec::homogeneous(8);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.5).unwrap();
        for cap in [1usize, 2, 4] {
            let opts = PlanOptions {
                cap: Some(cap),
                ..PlanOptions::default()
            };
            let r = tree_schedule_with(&problem, 0.7, &sys, &comm, &model, opts).unwrap();
            let v = audit_governed_degrees(&problem, &r, cap);
            assert!(v.is_empty(), "cap {cap}: governed plan violates it: {v:?}");
            // The governor only lowers degrees, so the paper's own CG_f
            // caps (and every structural invariant) must still hold.
            let v = audit_tree(
                &problem,
                &r,
                &sys,
                &comm,
                &model,
                &AuditOptions::coarse_grain(0.7),
            );
            assert!(
                v.is_empty(),
                "cap {cap}: governed plan breaks paper caps: {v:?}"
            );
        }
        // An ungoverned plan spreads the outer scan wide: checking it
        // against cap 1 must fire, proving the check has teeth.
        let wide = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        assert!(wide.phases.iter().any(|p| p
            .schedule
            .assignment
            .homes
            .iter()
            .any(|h| h.len() > 1)));
        let v = audit_governed_degrees(&problem, &wide, 1);
        assert!(v.iter().any(|x| x.kind() == "governed-degree"), "{v:?}");
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::tests::join_problem;
    use super::*;
    use mrs_core::model::OverlapModel;
    use mrs_core::resource::SiteId;
    use mrs_core::tree::tree_schedule;
    use proptest::prelude::*;

    proptest! {
        /// Scrambling clone homes to arbitrary in-range sites never
        /// panics the auditor, and a clean schedule stays clean for any
        /// (P, f, eps) in the paper's ranges.
        #[test]
        fn auditor_total_on_scrambled_homes(
            p in 2usize..12,
            f in 0.1f64..1.2,
            eps in 0.0f64..=1.0,
            scramble in proptest::collection::vec(0usize..12, 0..16),
        ) {
            let problem = join_problem();
            let sys = SystemSpec::homogeneous(p);
            let comm = CommModel::paper_defaults();
            let model = OverlapModel::new(eps).expect("eps in range");
            let mut r = tree_schedule(&problem, f, &sys, &comm, &model)
                .expect("fixture always schedules");
            let clean = audit_tree(&problem, &r, &sys, &comm, &model,
                &AuditOptions::coarse_grain(f));
            prop_assert!(clean.is_empty(), "{clean:?}");

            let mut k = 0;
            for phase in &mut r.phases {
                for homes in &mut phase.schedule.assignment.homes {
                    for h in homes.iter_mut() {
                        if k < scramble.len() {
                            *h = SiteId(scramble[k] % p);
                            k += 1;
                        }
                    }
                }
            }
            // Arbitrary in-range scrambles must never panic the audit.
            let _ = audit_tree(&problem, &r, &sys, &comm, &model,
                &AuditOptions::coarse_grain(f));
        }
    }
}
