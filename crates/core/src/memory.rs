//! Memory as a *non-preemptable* resource — the paper's first open
//! problem (Section 8: "Incorporating nonpreemptable resources such as
//! memory requires an even richer model of parallelization").
//!
//! This module implements the natural first step beyond the paper: each
//! site has a hard memory capacity, operators declare a total memory
//! demand (e.g. a build's hash table, assumed memory-resident by A1),
//! the demand splits evenly across clones (EA1), and
//!
//! * **degree selection** gains a *lower* bound — an operator must be
//!   split at least `⌈demand / capacity⌉` ways for any single clone to
//!   fit on a site; and
//! * the **list rule** gains a feasibility filter — a clone may only be
//!   packed on a site whose residual memory accommodates it. Memory is
//!   consumed, not time-shared: unlike the preemptable work dimensions it
//!   never stretches, it either fits or it does not.
//!
//! Packing with hard capacities can fail even when total memory suffices
//! (this is bin packing); the scheduler reports that explicitly rather
//! than producing an invalid schedule.
//!
//! Both steps are OPERATORSCHEDULE's own code: the degrees are
//! [`coarse_degrees`] raised to the memory lower bound, and the packing
//! is the list rule's run sweep with, before each run of L, every site
//! short of the operator's per-clone share forbidden; the run fails with
//! [`MemoryError::PackingFailed`] when fewer allowable sites remain than
//! it has clones. Free memory only shrinks during packing, so a site
//! short of one operator's share stays short for every later run of that
//! operator; within a run only the picked sites change, and each is then
//! forbidden to the rest of the run. Hence the sweep picks the same
//! sites as a per-clone scan of the feasible sites, and fails exactly
//! where that scan would first find no site.

use crate::comm::CommModel;
use crate::error::ScheduleError;
use crate::list::{prepare_pack, ListOrder, PackScratch};
use crate::model::ResponseModel;
use crate::operator::{OperatorId, OperatorSpec, Placement};
use crate::resource::SystemSpec;
use crate::schedule::{PhaseSchedule, ScheduledOperator};
use crate::tree::coarse_degrees;
use std::fmt;

/// Per-site memory capacity in bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemorySpec {
    /// Usable buffer memory per site.
    pub bytes_per_site: f64,
}

impl MemorySpec {
    /// Creates a memory spec.
    ///
    /// # Errors
    /// Returns a message for non-positive or non-finite capacities.
    pub fn new(bytes_per_site: f64) -> Result<Self, String> {
        if !(bytes_per_site.is_finite() && bytes_per_site > 0.0) {
            return Err(format!(
                "memory capacity must be positive and finite, got {bytes_per_site}"
            ));
        }
        Ok(MemorySpec { bytes_per_site })
    }
}

/// Memory-scheduling failures.
#[derive(Clone, Debug, PartialEq)]
pub enum MemoryError {
    /// Even at degree `P` one clone of the operator exceeds a site's
    /// memory.
    OperatorTooLarge {
        /// The operator.
        op: OperatorId,
        /// Its total demand in bytes.
        demand: f64,
        /// `P × capacity`.
        system_capacity: f64,
    },
    /// The packing could not place a clone without busting a site's
    /// memory (bin-packing failure; total capacity may still suffice).
    PackingFailed {
        /// The operator whose clone had no feasible site.
        op: OperatorId,
    },
    /// An underlying (non-memory) scheduling failure.
    Schedule(ScheduleError),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OperatorTooLarge {
                op,
                demand,
                system_capacity,
            } => write!(
                f,
                "{op} needs {demand} bytes but the whole system only holds {system_capacity}"
            ),
            MemoryError::PackingFailed { op } => {
                write!(f, "no site had enough free memory for a clone of {op}")
            }
            MemoryError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MemoryError {}

impl From<ScheduleError> for MemoryError {
    fn from(e: ScheduleError) -> Self {
        MemoryError::Schedule(e)
    }
}

/// An operator's memory demand in bytes (0 for streaming operators).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryDemand {
    /// Total bytes (split evenly across clones).
    pub total_bytes: f64,
}

impl MemoryDemand {
    /// No resident state.
    pub const ZERO: MemoryDemand = MemoryDemand { total_bytes: 0.0 };

    /// A demand of `bytes`.
    pub fn bytes(bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "memory demand must be finite and non-negative"
        );
        MemoryDemand { total_bytes: bytes }
    }

    /// Per-clone share at degree `n`.
    pub fn per_clone(&self, n: usize) -> f64 {
        self.total_bytes / n as f64
    }

    /// Minimum degree for one clone to fit in `capacity` bytes.
    pub fn min_degree(&self, capacity: f64) -> usize {
        if self.total_bytes <= capacity {
            1
        } else {
            (self.total_bytes / capacity).ceil() as usize
        }
    }
}

/// A memory-feasible schedule plus its per-site memory picture.
#[derive(Clone, Debug)]
pub struct MemorySchedule {
    /// The packed phase.
    pub schedule: PhaseSchedule,
    /// Residual free memory per site after placement.
    pub free_bytes: Vec<f64>,
    /// Chosen degrees (indexable like the input operator list).
    pub degrees: Vec<usize>,
}

/// OPERATORSCHEDULE under per-site memory capacities.
///
/// `demands[i]` pairs with `ops[i]`. Floating degrees are the
/// [`coarse_degrees`] choice raised to `min_degree` (at most `P`, else
/// [`MemoryError::OperatorTooLarge`]); rooted operators keep their homes
/// (their memory still counts and may cause
/// [`MemoryError::PackingFailed`]).
///
/// # Errors
/// See [`MemoryError`].
pub fn operator_schedule_with_memory<M: ResponseModel>(
    ops: Vec<OperatorSpec>,
    demands: &[MemoryDemand],
    memory: MemorySpec,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<MemorySchedule, MemoryError> {
    assert_eq!(ops.len(), demands.len(), "one demand per operator");
    let p = sys.sites;
    let capacity = memory.bytes_per_site;

    // Degrees: OPERATORSCHEDULE's coarse-grain choice raised to the memory
    // lower bound.
    let phase = ops.into_iter().map(|spec| (spec, None)).collect();
    let mut scheduled: Vec<ScheduledOperator> = Vec::with_capacity(demands.len());
    let mut degrees = Vec::with_capacity(demands.len());
    for ((spec, chosen), demand) in coarse_degrees(phase, f, sys, comm, model, None)
        .into_iter()
        .zip(demands)
    {
        let mut degree = chosen;
        if spec.placement.is_floating() {
            let min_n = demand.min_degree(capacity);
            if min_n > p {
                return Err(MemoryError::OperatorTooLarge {
                    op: spec.id,
                    demand: demand.total_bytes,
                    system_capacity: capacity * p as f64,
                });
            }
            degree = degree.max(min_n);
        }
        degrees.push(degree);
        scheduled.push(ScheduledOperator::even(spec, degree, comm, &sys.site));
    }

    let mut scratch = PackScratch::new();
    scratch.reset(sys, scheduled.len());
    let (mut list, mut occupied) = (Vec::new(), Vec::new());
    let mut assignment = prepare_pack(
        &mut scratch,
        &scheduled,
        sys,
        ListOrder::LongestFirst,
        &mut list,
    )?;

    // The rooted clones sit at their homes; their memory must fit there.
    let mut free = vec![capacity; p];
    for (op, demand) in scheduled.iter().zip(demands) {
        if let Placement::Rooted(homes) = &op.spec.placement {
            let share = demand.per_clone(op.degree);
            for site in homes {
                if free[site.0] < share - 1e-9 {
                    return Err(MemoryError::PackingFailed { op: op.spec.id });
                }
                free[site.0] -= share;
            }
        }
    }

    // The list rule's run sweep, forbidding each run the sites that hold
    // a clone of its operator or are short of its share (module docs).
    for run in list.chunk_by(|a, b| a.op == b.op) {
        let i = run[0].op;
        let op = &scheduled[i];
        let share = demands[i].per_clone(op.degree);
        let short = |s: usize| free[s] < share - 1e-9;
        occupied.clear();
        occupied.extend((0..p).filter(|&s| short(s)));
        let placed = assignment.homes[i].iter().map(|h| h.0).filter(|&s| s < p);
        occupied.extend(placed.filter(|&s| !short(s)));
        let clones: usize = run.iter().map(|g| g.end - g.start).sum();
        if p - occupied.len() < clones {
            return Err(MemoryError::PackingFailed { op: op.spec.id });
        }
        let picked = occupied.len();
        scratch.place_run(run, &op.clones, &mut occupied, &mut assignment.homes[i]);
        occupied[picked..].iter().for_each(|&s| free[s] -= share);
    }

    let schedule = PhaseSchedule {
        ops: scheduled,
        assignment,
    };
    schedule.validate(sys)?;
    Ok(MemorySchedule {
        schedule,
        free_bytes: free,
        degrees,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::OperatorKind;
    use crate::partition::{choose_degree, t_par};
    use crate::resource::SiteId;
    use crate::vector::WorkVector;

    fn op(id: usize, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(id),
            OperatorKind::Build,
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
    fn zero_demand_matches_plain_degrees() {
        let (sys, comm, model) = setup(8);
        let ops = vec![op(0, &[5.0, 0.0, 0.0], 500_000.0)];
        let plain = choose_degree(&ops[0], 0.7, 8, &comm, &sys.site, &model).degree;
        let r = operator_schedule_with_memory(
            ops,
            &[MemoryDemand::ZERO],
            MemorySpec::new(1e9).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        assert_eq!(r.degrees[0], plain);
    }

    #[test]
    fn memory_forces_wider_parallelism() {
        let (sys, comm, model) = setup(16);
        // A tiny-work operator that would run at degree ~1, but whose
        // 8 MB hash table only fits in 1 MB sites if split 8 ways.
        let ops = vec![op(0, &[0.01, 0.0, 0.0], 0.0)];
        let r = operator_schedule_with_memory(
            ops,
            &[MemoryDemand::bytes(8e6)],
            MemorySpec::new(1e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        assert!(
            r.degrees[0] >= 8,
            "degree {} must cover the table",
            r.degrees[0]
        );
    }

    #[test]
    fn operator_exceeding_system_memory_rejected() {
        let (sys, comm, model) = setup(4);
        let ops = vec![op(0, &[1.0, 0.0, 0.0], 0.0)];
        let err = operator_schedule_with_memory(
            ops,
            &[MemoryDemand::bytes(10e6)],
            MemorySpec::new(1e6).unwrap(), // 4 MB total < 10 MB demand
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap_err();
        assert!(matches!(err, MemoryError::OperatorTooLarge { .. }));
    }

    #[test]
    fn packing_respects_residual_capacity() {
        let (sys, comm, model) = setup(2);
        // Two operators, each table = 0.6 of a site: they must land on
        // different sites even though load balancing alone might stack
        // them.
        let ops = vec![op(0, &[1.0, 0.0, 0.0], 0.0), op(1, &[1.0, 0.0, 0.0], 0.0)];
        let demands = [MemoryDemand::bytes(0.6e6), MemoryDemand::bytes(0.6e6)];
        let r = operator_schedule_with_memory(
            ops,
            &demands,
            MemorySpec::new(1e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        for f in &r.free_bytes {
            assert!(*f >= -1e-6, "no site may be over-committed: {f}");
        }
        let h0 = r.schedule.assignment.homes[0][0];
        let h1 = r.schedule.assignment.homes[1][0];
        if r.degrees[0] == 1 && r.degrees[1] == 1 {
            assert_ne!(h0, h1, "two 0.6-capacity tables cannot share a site");
        }
    }

    #[test]
    fn packing_failure_detected() {
        let (sys, comm, model) = setup(2);
        // Three degree-1 operators of 0.6 capacity each on two sites:
        // one clone must fail.
        let ops: Vec<_> = (0..3).map(|i| op(i, &[1.0, 0.0, 0.0], 0.0)).collect();
        // Pin degrees at 1 by making work tiny (CG/A4 choice = 1) and
        // demand below one site (min_degree = 1).
        let ops: Vec<_> = ops
            .into_iter()
            .map(|mut o| {
                o.processing = WorkVector::from_slice(&[1e-6, 0.0, 0.0]);
                o
            })
            .collect();
        let demands = [
            MemoryDemand::bytes(0.6e6),
            MemoryDemand::bytes(0.6e6),
            MemoryDemand::bytes(0.6e6),
        ];
        let err = operator_schedule_with_memory(
            ops,
            &demands,
            MemorySpec::new(1e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap_err();
        assert!(matches!(err, MemoryError::PackingFailed { .. }));
    }

    #[test]
    fn schedules_remain_valid_and_memory_consistent() {
        let (sys, comm, model) = setup(6);
        let ops: Vec<_> = (0..5)
            .map(|i| op(i, &[1.0 + i as f64, 2.0, 0.0], 200_000.0))
            .collect();
        let demands: Vec<_> = (0..5)
            .map(|i| MemoryDemand::bytes(0.5e6 * (1 + i % 3) as f64))
            .collect();
        let r = operator_schedule_with_memory(
            ops,
            &demands,
            MemorySpec::new(2e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        r.schedule.validate(&sys).unwrap();
        // Conservation: used + free = capacity per site.
        let total_used: f64 = r.free_bytes.iter().map(|f| 2e6 - f).sum();
        let total_demand: f64 = demands.iter().map(|d| d.total_bytes).sum();
        assert!((total_used - total_demand).abs() < 1.0);
    }

    #[test]
    fn min_degree_math() {
        assert_eq!(MemoryDemand::bytes(0.0).min_degree(1e6), 1);
        assert_eq!(MemoryDemand::bytes(1e6).min_degree(1e6), 1);
        assert_eq!(MemoryDemand::bytes(1e6 + 1.0).min_degree(1e6), 2);
        assert_eq!(MemoryDemand::bytes(7.5e6).min_degree(1e6), 8);
    }

    #[test]
    fn invalid_memory_spec_rejected() {
        assert!(MemorySpec::new(0.0).is_err());
        assert!(MemorySpec::new(-5.0).is_err());
        assert!(MemorySpec::new(f64::NAN).is_err());
    }

    #[test]
    fn rooted_operator_memory_counts() {
        let (sys, comm, model) = setup(2);
        let rooted = OperatorSpec::rooted(
            OperatorId(0),
            OperatorKind::Probe,
            WorkVector::from_slice(&[1.0, 0.0, 0.0]),
            0.0,
            vec![SiteId(0)],
        );
        // The rooted table fills site 0 entirely; a floating table of the
        // same size must go to site 1.
        let floating = op(1, &[1e-6, 0.0, 0.0], 0.0);
        let r = operator_schedule_with_memory(
            vec![rooted, floating],
            &[MemoryDemand::bytes(1e6), MemoryDemand::bytes(1e6)],
            MemorySpec::new(1e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        assert_eq!(r.schedule.assignment.homes[1], vec![SiteId(1)]);
    }

    #[test]
    fn response_time_cost_of_memory_pressure() {
        // Shrinking memory forces wider degrees and more startup: the
        // makespan under pressure is at least the unconstrained one minus
        // rounding.
        let (sys, comm, model) = setup(16);
        // Small work => unconstrained degree ~2; 4 MB tables.
        let ops: Vec<_> = (0..4)
            .map(|i| op(i, &[0.05, 0.02, 0.0], 10_000.0))
            .collect();
        let demands: Vec<_> = (0..4).map(|_| MemoryDemand::bytes(4e6)).collect();
        let roomy = operator_schedule_with_memory(
            ops.clone(),
            &demands,
            MemorySpec::new(64e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        let tight = operator_schedule_with_memory(
            ops,
            &demands,
            // 1.1 MB sites force degree >= 4; 16 x 1.1 MB holds the
            // 16 MB of tables with room to pack.
            MemorySpec::new(1.1e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        assert!(tight.degrees.iter().all(|&n| n >= 4), "{:?}", tight.degrees);
        assert!(roomy.degrees.iter().all(|&n| n < 4), "{:?}", roomy.degrees);
        let (rm, tm) = (
            roomy.schedule.makespan(&sys, &model),
            tight.schedule.makespan(&sys, &model),
        );
        assert!(
            tm >= rm * 0.9,
            "memory pressure should not magically speed things up: {tm} vs {rm}"
        );
    }

    #[test]
    fn memory_t_par_consistency() {
        // The memory-forced degree still produces clones whose T_par is
        // consistent with partition::t_par at that degree.
        let (sys, comm, model) = setup(8);
        let spec = op(0, &[2.0, 1.0, 0.0], 100_000.0);
        let r = operator_schedule_with_memory(
            vec![spec.clone()],
            &[MemoryDemand::bytes(6e6)],
            MemorySpec::new(1e6).unwrap(),
            0.7,
            &sys,
            &comm,
            &model,
        )
        .unwrap();
        let n = r.degrees[0];
        let expected = t_par(&spec, n, &comm, &sys.site, &model);
        let actual = r.schedule.ops[0].t_par(&model);
        assert!((expected - actual).abs() < 1e-9);
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::OperatorKind;
    use crate::vector::WorkVector;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Every successful memory schedule is valid and never
        /// over-commits a site's memory.
        #[test]
        fn memory_schedules_sound(
            raw in proptest::collection::vec(
                (proptest::collection::vec(0.0f64..10.0, 3), 0.0f64..4e6),
                1..8,
            ),
            sites in 1usize..12,
            cap_mb in 0.5f64..32.0,
        ) {
            let sys = SystemSpec::homogeneous(sites);
            let comm = CommModel::paper_defaults();
            let model = OverlapModel::new(0.5).unwrap();
            let capacity = cap_mb * 1e6;
            let (ops, demands): (Vec<_>, Vec<_>) = raw
                .into_iter()
                .enumerate()
                .map(|(i, (mut w, bytes))| {
                    w[0] += 1e-3;
                    (
                        OperatorSpec::floating(
                            OperatorId(i),
                            OperatorKind::Build,
                            WorkVector::new(w),
                            0.0,
                        ),
                        MemoryDemand::bytes(bytes),
                    )
                })
                .unzip();
            match operator_schedule_with_memory(
                ops, &demands, MemorySpec::new(capacity).unwrap(), 0.7, &sys, &comm, &model,
            ) {
                Ok(r) => {
                    r.schedule.validate(&sys).unwrap();
                    for free in &r.free_bytes {
                        prop_assert!(*free >= -1e-6, "over-committed site: {free}");
                    }
                    // Degrees respect the memory lower bound.
                    for (n, d) in r.degrees.iter().zip(&demands) {
                        prop_assert!(d.per_clone(*n) <= capacity * (1.0 + 1e-9));
                    }
                }
                Err(MemoryError::OperatorTooLarge { demand, system_capacity, .. }) => {
                    prop_assert!(demand > system_capacity * (1.0 - 1e-9));
                }
                Err(MemoryError::PackingFailed { .. }) => {
                    // Legitimate bin-packing failure; nothing to check.
                }
                Err(MemoryError::Schedule(e)) => {
                    return Err(TestCaseError::fail(format!("unexpected: {e}")));
                }
            }
        }
    }
}
