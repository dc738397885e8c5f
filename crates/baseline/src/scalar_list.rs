//! Scalar-load list scheduling — ablation X1.
//!
//! Identical to TREESCHEDULE in every respect (same phases, same degrees
//! of coarse-grain parallelism, same clone vectors, same sharing of sites
//! among concurrent operators) except for the packing criterion: the
//! "least filled" site is chosen by *total scalar load*
//! `Σ_k Σ_{W ∈ work(s)} W[k]` instead of the multi-dimensional length
//! `l(work(s))`. Comparing the two isolates exactly what the paper's
//! multi-dimensionality buys: balancing each resource dimension rather
//! than total work.
//!
//! The packing is the core list rule ([`pack_clones`]) run on a
//! projection: each clone `W` is replaced by the unit vector
//! `total(W)·e₀`, with the same run counts, and the returned assignment
//! is kept with the original operators. The projection is exact, not an
//! approximation. The length of a unit vector is its one lane, so L is
//! sorted by clone total and a site's length is its lane. That lane is
//! the same left-to-right sum of clone totals a scalar scan keeps: rooted
//! clones first in operator order, then L's order. L's key order (value
//! descending, then operator, then clone) and the site tie-break (lowest
//! index) are the list rule's own. So the scheme's difference from
//! TREESCHEDULE is its packing criterion by construction.

use mrs_core::comm::CommModel;
use mrs_core::error::ScheduleError;
use mrs_core::list::{pack_clones, ListOrder};
use mrs_core::model::ResponseModel;
use mrs_core::partition::CloneWork;
use mrs_core::resource::SystemSpec;
use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
use mrs_core::tree::{
    coarse_degrees, phased_schedule, PhasePolicy, TreeProblem, TreeScheduleResult,
};
use mrs_core::vector::WorkVector;

/// Packs clones choosing the site with the minimum *scalar* load among
/// allowable sites (LPT order on clone scalar totals): the list rule on
/// the scalar projection of the clones (see the module docs).
fn pack_clones_scalar(
    ops: &[ScheduledOperator],
    sys: &SystemSpec,
) -> Result<Assignment, ScheduleError> {
    let d = sys.dim();
    let projected: Vec<ScheduledOperator> = ops
        .iter()
        .map(|op| ScheduledOperator {
            spec: op.spec.clone(),
            degree: op.degree,
            clones: CloneWork::from_runs(
                op.clones
                    .runs()
                    .map(|(w, n)| (WorkVector::unit(d, 0, w.total()), n))
                    .collect(),
            ),
        })
        .collect();
    pack_clones(&projected, sys, ListOrder::LongestFirst)
}

/// TREESCHEDULE with scalar-load packing (see module docs). Same
/// signature and semantics as [`mrs_core::tree::tree_schedule`].
pub fn scalar_tree_schedule<M: ResponseModel>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<TreeScheduleResult, ScheduleError> {
    phased_schedule(problem, sys, model, PhasePolicy::Alap, |phase| {
        let scheduled: Vec<ScheduledOperator> = coarse_degrees(phase, f, sys, comm, model, None)
            .into_iter()
            .map(|(spec, degree)| ScheduledOperator::even(spec, degree, comm, &sys.site))
            .collect();
        let assignment = pack_clones_scalar(&scheduled, sys)?;
        let schedule = PhaseSchedule {
            ops: scheduled,
            assignment,
        };
        schedule.validate(sys)?;
        Ok(schedule)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::model::OverlapModel;
    use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
    use mrs_core::tasks::TaskGraph;
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

    fn problem(ops: Vec<OperatorSpec>) -> TreeProblem {
        let ids: Vec<_> = (0..ops.len()).map(OperatorId).collect();
        TreeProblem {
            ops,
            tasks: TaskGraph::single_task(ids),
            bindings: vec![],
        }
    }

    #[test]
    fn produces_valid_schedules() {
        let sys = SystemSpec::homogeneous(6);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.3).unwrap();
        let p = problem(
            (0..6)
                .map(|i| op(i, &[2.0 + i as f64, 3.0, 0.0], 100_000.0))
                .collect(),
        );
        let r = scalar_tree_schedule(&p, 0.7, &sys, &comm, &model).unwrap();
        for ph in &r.phases {
            ph.schedule.validate(&sys).unwrap();
        }
        assert!(r.response_time > 0.0);
    }

    #[test]
    fn multi_dim_packing_beats_scalar_on_complementary_mix() {
        // Construct a workload where scalar packing is blind: CPU-heavy
        // and disk-heavy operators have identical totals, so scalar load
        // spreads them arbitrarily while vector packing pairs
        // complementary shapes.
        let sys = SystemSpec::homogeneous(4);
        let comm = CommModel::new(1e-6, 0.0).unwrap();
        let model = OverlapModel::perfect(); // T = max → sharing is free
        let mut ops = Vec::new();
        for i in 0..4 {
            ops.push(op(i, &[8.0, 0.0, 0.0], 0.0)); // CPU-bound
        }
        for i in 4..8 {
            ops.push(op(i, &[0.0, 8.0, 0.0], 0.0)); // disk-bound
        }
        let pb = problem(ops);
        let multi = tree_schedule(&pb, 1.0, &sys, &comm, &model).unwrap();
        let scalar = scalar_tree_schedule(&pb, 1.0, &sys, &comm, &model).unwrap();
        assert!(
            multi.response_time <= scalar.response_time + 1e-9,
            "multi {} vs scalar {}",
            multi.response_time,
            scalar.response_time
        );
    }

    #[test]
    fn same_degrees_as_tree_schedule() {
        let sys = SystemSpec::homogeneous(8);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.5).unwrap();
        let pb = problem((0..4).map(|i| op(i, &[3.0, 2.0, 0.0], 250_000.0)).collect());
        let a = tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
        let b = scalar_tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
        for id in 0..4 {
            assert_eq!(
                a.homes_of(OperatorId(id)).unwrap().len(),
                b.homes_of(OperatorId(id)).unwrap().len(),
                "ablation must only change packing, not degrees"
            );
        }
    }
}
