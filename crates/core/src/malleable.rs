//! Malleable operator scheduling (Section 7).
//!
//! Here the scheduler is *not* constrained by a coarse-granularity
//! condition: it freely chooses every floating operator's degree of
//! parallelism to minimize response time over all possible parallel
//! schedules. Following Turek et al. \[TWY92\], a greedy **GF** sweep
//! generates a family of candidate parallelizations:
//!
//! 1. start from the minimum-total-work parallelization `N¹ = (1, …, 1)`;
//! 2. candidate `k` bumps the degree of the operator whose execution time
//!    equals `h(N^{k−1}) = max_i T_par(op_i, N_i)`;
//! 3. stop when no more sites can be allotted to that largest operator.
//!
//! By Lemma 7.2 the family contains a parallelization dominating the
//! optimal one, so picking the candidate minimizing the lower bound
//! `LB(N) = max( l(S(N))/P , h(N) )` and list-scheduling it is within
//! `2d + 1` of the optimal schedule over *all* parallelizations
//! (Theorem 7.1). The only assumption needed is that total work vectors
//! are non-decreasing in `N` — which holds for the `αN + βD` model and is
//! property-tested in [`crate::partition`].

use crate::comm::CommModel;
use crate::error::ScheduleError;
use crate::list::{schedule_with_degrees, ListOrder};
use crate::model::ResponseModel;
use crate::operator::{OperatorSpec, Placement};
use crate::partition::{t_par, total_work_vector};
use crate::resource::SystemSpec;
use crate::schedule::PhaseSchedule;
use crate::vector::WorkVector;

/// `LB(N) = max( l(S(N))/P , h(N) )`: the Section 7 lower bound on the
/// optimal response time for a fixed parallelization `degrees`.
pub fn lb_for_parallelization<M: ResponseModel>(
    ops: &[OperatorSpec],
    degrees: &[usize],
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> f64 {
    assert_eq!(ops.len(), degrees.len(), "one degree per operator");
    let mut sum = WorkVector::zeros(sys.dim());
    let mut h: f64 = 0.0;
    for (op, &n) in ops.iter().zip(degrees) {
        sum.accumulate(&total_work_vector(op, n, comm, &sys.site));
        h = h.max(t_par(op, n, comm, &sys.site, model));
    }
    (sum.length() / sys.sites as f64).max(h)
}

/// Outcome of the malleable scheduler.
#[derive(Clone, Debug)]
pub struct MalleableOutcome {
    /// The selected parallelization `N` (one degree per operator, in input
    /// order). Rooted operators keep their placement-dictated degrees.
    pub degrees: Vec<usize>,
    /// `LB(N)` of the selected parallelization — a lower bound on the
    /// optimal response time over all parallelizations.
    pub lower_bound: f64,
    /// Number of candidate parallelizations examined (≤ `1 + M(P−1)`).
    pub candidates: usize,
    /// The packed schedule for the selected parallelization.
    pub schedule: PhaseSchedule,
}

/// Schedules a set of concurrent operators with scheduler-chosen
/// ("malleable") degrees of parallelism: generates the GF candidate
/// family, picks the candidate minimizing `LB(N)`, and packs it with the
/// list rule. Rooted operators participate in `LB` and `h` but their
/// degrees are fixed; if the binding operator of `h` is rooted or already
/// at `P` sites, the sweep stops (no more sites can be allotted).
///
/// # Errors
/// Propagates packing failures (e.g. malformed rooted placements).
pub fn malleable_schedule<M: ResponseModel>(
    ops: Vec<OperatorSpec>,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<MalleableOutcome, ScheduleError> {
    let (degrees, lower_bound, candidates) = gf_sweep(&ops, sys, comm, model);
    let schedule = schedule_with_degrees(
        ops.into_iter().zip(degrees.iter().copied()).collect(),
        sys,
        comm,
        ListOrder::LongestFirst,
    )?;
    Ok(MalleableOutcome {
        degrees,
        lower_bound,
        candidates,
        schedule,
    })
}

/// The GF sweep of [`malleable_schedule`] without the packing: the
/// selected parallelization (one degree per operator of `ops`), its
/// `LB(N)` and the number of candidates examined. The malleable
/// TreeSchedule sizes each phase with it.
pub(crate) fn gf_sweep<M: ResponseModel>(
    ops: &[OperatorSpec],
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> (Vec<usize>, f64, usize) {
    let m = ops.len();
    let p = sys.sites;
    if m == 0 {
        return (vec![], 0.0, 1);
    }

    let fixed: Vec<Option<usize>> = ops
        .iter()
        .map(|o| match &o.placement {
            Placement::Rooted(homes) => Some(homes.len()),
            Placement::Floating => None,
        })
        .collect();

    let mut degrees: Vec<usize> = fixed.iter().map(|f| f.unwrap_or(1)).collect();
    let mut times: Vec<f64> = ops
        .iter()
        .zip(&degrees)
        .map(|(o, &n)| t_par(o, n, comm, &sys.site, model))
        .collect();
    // Running vector sum of total work vectors for O(1) LB updates.
    let mut sum = WorkVector::zeros(sys.dim());
    for (o, &n) in ops.iter().zip(&degrees) {
        sum.accumulate(&total_work_vector(o, n, comm, &sys.site));
    }

    let lb_of = |sum: &WorkVector, times: &[f64]| -> f64 {
        let h = times.iter().copied().fold(0.0, f64::max);
        (sum.length() / p as f64).max(h)
    };

    let mut best_lb = lb_of(&sum, &times);
    let mut best_degrees = degrees.clone();
    let mut candidates = 1usize;
    let max_candidates = 1 + m * p.saturating_sub(1).max(1);

    while candidates <= max_candidates {
        // Operator defining h(N): max time, smallest index on ties.
        let (argmax, _) =
            times
                .iter()
                .enumerate()
                .fold((0usize, f64::NEG_INFINITY), |(bi, bt), (i, &t)| {
                    if t > bt {
                        (i, t)
                    } else {
                        (bi, bt)
                    }
                });
        if fixed[argmax].is_some() || degrees[argmax] >= p {
            break; // no more sites can be allotted to the largest operator
        }
        // Bump: the divisible work spreads thinner, the startup grows by α.
        sum.remove(&total_work_vector(
            &ops[argmax],
            degrees[argmax],
            comm,
            &sys.site,
        ));
        degrees[argmax] += 1;
        sum.accumulate(&total_work_vector(
            &ops[argmax],
            degrees[argmax],
            comm,
            &sys.site,
        ));
        times[argmax] = t_par(&ops[argmax], degrees[argmax], comm, &sys.site, model);
        candidates += 1;

        let lb = lb_of(&sum, &times);
        if lb < best_lb {
            best_lb = lb;
            best_degrees = degrees.clone();
        }
    }

    (best_degrees, best_lb, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::schedule_with_degrees;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};
    use crate::resource::SiteId;

    fn op(id: usize, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(id),
            OperatorKind::Other,
            WorkVector::from_slice(w),
            data,
        )
    }

    fn setup(p: usize) -> (SystemSpec, CommModel, OverlapModel) {
        (
            SystemSpec::homogeneous(p),
            CommModel::paper_defaults(),
            OverlapModel::new(0.5).unwrap(),
        )
    }

    #[test]
    fn empty_input_is_trivial() {
        let (sys, comm, model) = setup(4);
        let out = malleable_schedule(vec![], &sys, &comm, &model).unwrap();
        assert!(out.degrees.is_empty());
        assert_eq!(out.lower_bound, 0.0);
    }

    #[test]
    fn single_big_operator_gets_parallelized() {
        let (sys, comm, model) = setup(8);
        let out =
            malleable_schedule(vec![op(0, &[80.0, 0.0, 0.0], 0.0)], &sys, &comm, &model).unwrap();
        assert!(out.degrees[0] > 1, "big CPU-bound op should spread out");
        out.schedule.validate(&sys).unwrap();
    }

    #[test]
    fn tiny_operators_stay_sequential() {
        let (sys, comm, model) = setup(8);
        // Work far below α: bumping only raises LB, so (1,1) should win.
        let ops = vec![op(0, &[1e-4, 0.0, 0.0], 0.0), op(1, &[1e-4, 0.0, 0.0], 0.0)];
        let out = malleable_schedule(ops, &sys, &comm, &model).unwrap();
        assert_eq!(out.degrees, vec![1, 1]);
    }

    #[test]
    fn makespan_within_theorem_7_1_bound() {
        let (sys, comm, model) = setup(6);
        let ops: Vec<_> = (0..5)
            .map(|i| op(i, &[3.0 + i as f64, 2.0, 0.0], 500_000.0))
            .collect();
        let out = malleable_schedule(ops, &sys, &comm, &model).unwrap();
        let makespan = out.schedule.makespan(&sys, &model);
        let d = sys.dim() as f64;
        assert!(
            makespan <= (2.0 * d + 1.0) * out.lower_bound + 1e-9,
            "makespan {makespan} vs (2d+1)·LB = {}",
            (2.0 * d + 1.0) * out.lower_bound
        );
        // LB is genuinely a lower bound on what we achieved.
        assert!(makespan + 1e-9 >= out.lower_bound);
    }

    #[test]
    fn rooted_operators_keep_their_degrees() {
        let (sys, comm, model) = setup(4);
        let rooted = OperatorSpec::rooted(
            OperatorId(0),
            OperatorKind::Probe,
            WorkVector::from_slice(&[50.0, 0.0, 0.0]),
            0.0,
            vec![SiteId(0), SiteId(1)],
        );
        let ops = vec![rooted, op(1, &[1.0, 1.0, 0.0], 0.0)];
        let out = malleable_schedule(ops, &sys, &comm, &model).unwrap();
        assert_eq!(out.degrees[0], 2);
        assert_eq!(out.schedule.assignment.homes[0], vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn candidate_count_bounded() {
        let (sys, comm, model) = setup(16);
        let ops: Vec<_> = (0..6).map(|i| op(i, &[10.0, 5.0, 0.0], 0.0)).collect();
        let out = malleable_schedule(ops, &sys, &comm, &model).unwrap();
        assert!(out.candidates <= 1 + 6 * 15 + 1);
    }

    #[test]
    fn lb_matches_direct_computation() {
        let (sys, comm, model) = setup(5);
        let ops: Vec<_> = (0..3).map(|i| op(i, &[4.0, 3.0, 0.0], 100_000.0)).collect();
        let out = malleable_schedule(ops.clone(), &sys, &comm, &model).unwrap();
        let direct = lb_for_parallelization(&ops, &out.degrees, &sys, &comm, &model);
        assert!((out.lower_bound - direct).abs() < 1e-9);
    }

    #[test]
    fn malleable_never_worse_than_all_sequential() {
        let (sys, comm, model) = setup(8);
        let ops: Vec<_> = (0..4).map(|i| op(i, &[6.0, 4.0, 0.0], 200_000.0)).collect();
        let out = malleable_schedule(ops.clone(), &sys, &comm, &model).unwrap();
        let seq = schedule_with_degrees(
            ops.into_iter().map(|o| (o, 1)).collect(),
            &sys,
            &comm,
            ListOrder::LongestFirst,
        )
        .unwrap();
        // Not a theorem (the list rule is heuristic), but holds for this
        // balanced workload and guards against gross regressions.
        assert!(out.schedule.makespan(&sys, &model) <= seq.makespan(&sys, &model) + 1e-9);
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};
    use proptest::prelude::*;

    fn arb_ops() -> impl Strategy<Value = Vec<OperatorSpec>> {
        proptest::collection::vec(
            (proptest::collection::vec(0.0f64..20.0, 3), 0.0f64..1e6),
            1..8,
        )
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (mut w, d))| {
                    w[0] += 1e-3;
                    OperatorSpec::floating(
                        OperatorId(i),
                        OperatorKind::Other,
                        WorkVector::new(w),
                        d,
                    )
                })
                .collect()
        })
    }

    proptest! {
        /// Theorem 7.1: the produced schedule is within (2d+1)·LB, and LB
        /// really lower-bounds the achieved makespan.
        #[test]
        fn theorem_7_1_bound_holds(ops in arb_ops(), p in 1usize..12, eps in 0.0f64..=1.0) {
            let sys = SystemSpec::homogeneous(p);
            let comm = CommModel::paper_defaults();
            let model = OverlapModel::new(eps).unwrap();
            let out = malleable_schedule(ops, &sys, &comm, &model).unwrap();
            let makespan = out.schedule.makespan(&sys, &model);
            let d = sys.dim() as f64;
            prop_assert!(makespan <= (2.0 * d + 1.0) * out.lower_bound + 1e-6);
            prop_assert!(makespan + 1e-9 >= out.lower_bound * (1.0 - 1e-12));
            out.schedule.validate(&sys).unwrap();
        }
    }
}
