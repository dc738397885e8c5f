//! Parallel schedules and their response-time evaluation
//! (Section 5.2, Equations (1)–(3)).
//!
//! A *schedule* maps the `Σ N_i` operator clones of a set of concurrently
//! executing operators onto the `P` sites so that no two clones of one
//! operator share a site (Definition 5.1). Its response time is
//!
//! ```text
//! T_par(SCHED, P) = max_j T_site(s_j)
//! T_site(s_j)     = max( max_{W ∈ work(s_j)} T_seq(W),  l(work(s_j)) )   (2)
//! ```
//!
//! which Equation (3) rewrites as
//! `max( max_i T_par(op_i, N_i), max_j l(work(s_j)) )` — the slowest
//! operator or the most congested resource, whichever is greater.

use crate::comm::CommModel;
use crate::error::ScheduleError;
use crate::model::ResponseModel;
use crate::operator::{OperatorSpec, Placement};
use crate::partition::{clone_work, CloneWork, PartitionStrategy};
use crate::resource::{SiteId, SiteSpec, SystemSpec};
use crate::vector::WorkVector;

/// An operator with its chosen degree of parallelism and per-clone work
/// vectors (clone 0 is the coordinator), stored as runs of equal vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledOperator {
    /// The underlying operator.
    pub spec: OperatorSpec,
    /// Degree of partitioned parallelism `N_i`.
    pub degree: usize,
    /// Per-clone work vectors, `clones.len() == degree`.
    pub clones: CloneWork,
}

impl ScheduledOperator {
    /// Builds the scheduled form of `spec` at degree `n` using the EA1
    /// even partitioning: two runs, the coordinator and the shared `1/n`
    /// share, at any degree.
    pub fn even(spec: OperatorSpec, n: usize, comm: &CommModel, site: &SiteSpec) -> Self {
        let clones = clone_work(&spec, n, comm, site, &PartitionStrategy::Even);
        ScheduledOperator {
            spec,
            degree: n,
            clones,
        }
    }

    /// Builds the scheduled form with an explicit partitioning strategy
    /// (used by the skew extension).
    pub fn with_strategy(
        spec: OperatorSpec,
        n: usize,
        comm: &CommModel,
        site: &SiteSpec,
        strategy: &PartitionStrategy,
    ) -> Self {
        let clones = clone_work(&spec, n, comm, site, strategy);
        ScheduledOperator {
            spec,
            degree: n,
            clones,
        }
    }

    /// `T_par(op, N)` (Equation 1) under `model`: max clone time, one
    /// `t_seq` per run of equal clones.
    pub fn t_par<M: ResponseModel>(&self, model: &M) -> f64 {
        self.clones
            .runs()
            .map(|(w, _)| model.t_seq(w))
            .fold(0.0, f64::max)
    }

    /// The operator's total work vector (sum over clones).
    pub fn total_vector(&self) -> WorkVector {
        WorkVector::vector_sum(self.clones.iter())
            .expect("a scheduled operator has at least one clone")
    }
}

/// A mapping of every operator's clones to sites: `homes[i][k]` is the
/// site of clone `k` of operator `i` (indices into the problem's operator
/// list, not [`crate::operator::OperatorId`] — the two coincide for
/// single-phase problems).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Per-operator clone homes.
    pub homes: Vec<Vec<SiteId>>,
}

impl Assignment {
    /// An empty assignment for `ops` operators.
    pub fn with_capacity(ops: usize) -> Self {
        Assignment {
            homes: vec![Vec::new(); ops],
        }
    }
}

/// A complete schedule for one synchronized phase: the scheduled operators
/// plus the clone→site assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSchedule {
    /// Operators executing concurrently in this phase.
    pub ops: Vec<ScheduledOperator>,
    /// `assignment.homes[i][k]` = site of clone `k` of `ops[i]`.
    pub assignment: Assignment,
}

impl PhaseSchedule {
    /// Validates Definition 5.1's constraints against `sys`:
    ///
    /// * (shape) every operator has exactly `degree` clone work vectors
    ///   and `degree` assigned homes,
    /// * (A) no two clones of one operator share a site,
    /// * (B) rooted operators sit exactly at their required homes,
    /// * all sites are within `0..P`.
    pub fn validate(&self, sys: &SystemSpec) -> Result<(), ScheduleError> {
        if self.assignment.homes.len() != self.ops.len() {
            return Err(ScheduleError::MalformedTaskGraph {
                detail: format!(
                    "assignment covers {} operators, phase has {}",
                    self.assignment.homes.len(),
                    self.ops.len()
                ),
            });
        }
        for (op, homes) in self.ops.iter().zip(&self.assignment.homes) {
            for actual in [homes.len(), op.clones.len()] {
                if actual != op.degree {
                    return Err(ScheduleError::DegreeMismatch {
                        op: op.spec.id,
                        expected: op.degree,
                        actual,
                    });
                }
            }
            let mut seen = homes.clone();
            seen.sort_unstable();
            for pair in seen.windows(2) {
                if pair[0] == pair[1] {
                    return Err(ScheduleError::CloneCollision {
                        op: op.spec.id,
                        site: pair[0],
                    });
                }
            }
            for &site in homes {
                if site.0 >= sys.sites {
                    return Err(ScheduleError::SiteOutOfRange {
                        op: op.spec.id,
                        site,
                        sites: sys.sites,
                    });
                }
            }
            if let Placement::Rooted(required) = &op.spec.placement {
                if required != homes {
                    return Err(ScheduleError::RootedViolation { op: op.spec.id });
                }
            }
        }
        Ok(())
    }

    /// Aggregated work vector per site: `Σ_{W ∈ work(s_j)} W`.
    pub fn site_loads(&self, sys: &SystemSpec) -> Vec<WorkVector> {
        let d = sys.dim();
        let mut loads = vec![WorkVector::zeros(d); sys.sites];
        for (op, homes) in self.ops.iter().zip(&self.assignment.homes) {
            for (&site, w) in homes.iter().zip(&op.clones) {
                loads[site.0].accumulate(w);
            }
        }
        loads
    }

    /// `T_site(s_j)` per Equation (2) for every site. Each run of equal
    /// clones is timed once, so an EA1 operator costs two `t_seq` calls.
    pub fn site_times<M: ResponseModel>(&self, sys: &SystemSpec, model: &M) -> Vec<f64> {
        let loads = self.site_loads(sys);
        let mut slowest_clone = vec![0.0f64; sys.sites];
        for (op, homes) in self.ops.iter().zip(&self.assignment.homes) {
            let mut homes = homes.iter();
            for (w, n) in op.clones.runs() {
                let t = model.t_seq(w);
                for &site in homes.by_ref().take(n) {
                    if t > slowest_clone[site.0] {
                        slowest_clone[site.0] = t;
                    }
                }
            }
        }
        loads
            .iter()
            .zip(&slowest_clone)
            .map(|(load, &slow)| slow.max(load.length()))
            .collect()
    }

    /// Response time `T_par(SCHED, P)`: the max site time (Equation 3,
    /// left form).
    pub fn makespan<M: ResponseModel>(&self, sys: &SystemSpec, model: &M) -> f64 {
        self.site_times(sys, model).into_iter().fold(0.0, f64::max)
    }

    /// Equation (3), right form:
    /// `max( max_i T_par(op_i, N_i), max_j l(work(s_j)) )`. Must equal
    /// [`PhaseSchedule::makespan`]; kept as an independent implementation
    /// for cross-checking (property-tested).
    pub fn makespan_eq3<M: ResponseModel>(&self, sys: &SystemSpec, model: &M) -> f64 {
        let slowest_op = self
            .ops
            .iter()
            .map(|op| op.t_par(model))
            .fold(0.0, f64::max);
        let max_congestion = self
            .site_loads(sys)
            .iter()
            .map(WorkVector::length)
            .fold(0.0, f64::max);
        slowest_op.max(max_congestion)
    }

    /// `max_j l(work(s_j))`: the most congested resource in the system —
    /// the quantity the vector-packing formulation minimizes (Section 5.3,
    /// constraint (C)).
    pub fn max_congestion(&self, sys: &SystemSpec) -> f64 {
        self.site_loads(sys)
            .iter()
            .map(WorkVector::length)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};

    fn mk_op(id: usize, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(id),
            OperatorKind::Other,
            WorkVector::from_slice(w),
            data,
        )
    }

    fn comm() -> CommModel {
        CommModel::new(0.01, 0.0).unwrap()
    }

    /// Hand-built 2-op schedule on 2 sites for direct checking.
    fn sample() -> (PhaseSchedule, SystemSpec, OverlapModel) {
        let sys = SystemSpec::homogeneous(2);
        let site = sys.site.clone();
        let c = comm();
        let op0 = ScheduledOperator::even(mk_op(0, &[2.0, 1.0, 0.0], 0.0), 2, &c, &site);
        let op1 = ScheduledOperator::even(mk_op(1, &[1.0, 3.0, 0.0], 0.0), 1, &c, &site);
        let assignment = Assignment {
            homes: vec![vec![SiteId(0), SiteId(1)], vec![SiteId(1)]],
        };
        (
            PhaseSchedule {
                ops: vec![op0, op1],
                assignment,
            },
            sys,
            OverlapModel::new(0.5).unwrap(),
        )
    }

    #[test]
    fn validate_accepts_good_schedule() {
        let (s, sys, _) = sample();
        assert!(s.validate(&sys).is_ok());
    }

    #[test]
    fn validate_rejects_clone_collision() {
        let (mut s, sys, _) = sample();
        s.assignment.homes[0] = vec![SiteId(1), SiteId(1)];
        assert_eq!(
            s.validate(&sys),
            Err(ScheduleError::CloneCollision {
                op: OperatorId(0),
                site: SiteId(1)
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_site() {
        let (mut s, sys, _) = sample();
        s.assignment.homes[1] = vec![SiteId(7)];
        assert!(matches!(
            s.validate(&sys),
            Err(ScheduleError::SiteOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_degree_mismatch() {
        let (mut s, sys, _) = sample();
        s.assignment.homes[0] = vec![SiteId(0)];
        assert!(matches!(
            s.validate(&sys),
            Err(ScheduleError::DegreeMismatch {
                expected: 2,
                actual: 1,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_clone_count_mismatch() {
        // Homes match the degree, but the clone work does not: dispatch
        // and recovery zip homes with clones and would drop the surplus.
        let (mut s, sys, _) = sample();
        let mut extra: Vec<WorkVector> = s.ops[0].clones.iter().cloned().collect();
        extra.push(extra[1].clone());
        s.ops[0].clones = extra.into();
        assert_eq!(
            s.validate(&sys),
            Err(ScheduleError::DegreeMismatch {
                op: OperatorId(0),
                expected: 2,
                actual: 3,
            })
        );
        s.ops[0].clones = vec![s.ops[0].clones[0].clone()].into();
        assert_eq!(
            s.validate(&sys),
            Err(ScheduleError::DegreeMismatch {
                op: OperatorId(0),
                expected: 2,
                actual: 1,
            })
        );
    }

    #[test]
    fn t_par_and_site_times_match_a_per_clone_evaluation() {
        let (small, _, m) = sample();
        let sys = SystemSpec::homogeneous(8);
        let ops = (0..6)
            .map(|i| (mk_op(i, &[1.0 + i as f64, 0.5, 0.1], 4e5), 1 + i))
            .collect();
        let large = crate::list::schedule_with_degrees(
            ops,
            &sys,
            &comm(),
            crate::list::ListOrder::LongestFirst,
        )
        .unwrap();
        for s in [small, large] {
            check_per_clone(&s, &sys, &m);
        }
    }

    fn check_per_clone(s: &PhaseSchedule, sys: &SystemSpec, m: &OverlapModel) {
        let mut slowest = vec![0.0f64; sys.sites];
        for (op, homes) in s.ops.iter().zip(&s.assignment.homes) {
            let per_clone = op.clones.iter().map(|w| m.t_seq(w)).fold(0.0, f64::max);
            assert_eq!(op.t_par(m).to_bits(), per_clone.to_bits());
            for (site, w) in homes.iter().zip(&op.clones) {
                slowest[site.0] = slowest[site.0].max(m.t_seq(w));
            }
        }
        let loads = s.site_loads(sys);
        for (j, t) in s.site_times(sys, m).into_iter().enumerate() {
            assert_eq!(t.to_bits(), slowest[j].max(loads[j].length()).to_bits());
        }
    }

    #[test]
    fn validate_rejects_rooted_violation() {
        let (mut s, sys, _) = sample();
        s.ops[1].spec.placement = Placement::Rooted(vec![SiteId(0)]);
        assert_eq!(
            s.validate(&sys),
            Err(ScheduleError::RootedViolation { op: OperatorId(1) })
        );
    }

    #[test]
    fn site_loads_accumulate_clone_vectors() {
        let (s, sys, _) = sample();
        let loads = s.site_loads(&sys);
        // Site 0: coordinator clone of op0 = [1 + α, 0.5, α/2]... with
        // α = 0.01 split as 0.005 CPU + 0.005 net on top of [1.0, 0.5, 0].
        assert!((loads[0][0] - 1.01).abs() < 1e-12);
        assert!((loads[0][1] - 0.5).abs() < 1e-12);
        assert!((loads[0][2] - 0.01).abs() < 1e-12);
        // Site 1: op0 clone 1 [1, 0.5, 0] + op1 coordinator [1.005, 3, 0.005].
        assert!((loads[1][0] - 2.005).abs() < 1e-12);
        assert!((loads[1][1] - 3.5).abs() < 1e-12);
        assert!((loads[1][2] - 0.005).abs() < 1e-12);
    }

    #[test]
    fn makespan_equals_eq3_form() {
        let (s, sys, m) = sample();
        let a = s.makespan(&sys, &m);
        let b = s.makespan_eq3(&sys, &m);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn paper_section_5_2_2_example() {
        // Two clones at one site: (22,[10,15]) and (10,[10,5]) pack into
        // T_site = 22; with (10,[5,10]) instead the second resource
        // congests to 25.
        let sys = SystemSpec::new(
            1,
            SiteSpec::new(vec![
                crate::resource::ResourceKind::Cpu,
                crate::resource::ResourceKind::Network,
            ])
            .unwrap(),
        )
        .unwrap();
        // ε chosen so T(W1) = 22: ε·15 + (1−ε)·25 = 22 → ε = 0.3.
        let m = OverlapModel::new(0.3).unwrap();

        let mk = |id: usize, w: &[f64]| ScheduledOperator {
            spec: mk_op(id, w, 0.0),
            degree: 1,
            clones: vec![WorkVector::from_slice(w)].into(),
        };

        let case1 = PhaseSchedule {
            ops: vec![mk(0, &[10.0, 15.0]), mk(1, &[10.0, 5.0])],
            assignment: Assignment {
                homes: vec![vec![SiteId(0)], vec![SiteId(0)]],
            },
        };
        assert!((case1.makespan(&sys, &m) - 22.0).abs() < 1e-9);

        let case2 = PhaseSchedule {
            ops: vec![mk(0, &[10.0, 15.0]), mk(2, &[5.0, 10.0])],
            assignment: Assignment {
                homes: vec![vec![SiteId(0)], vec![SiteId(0)]],
            },
        };
        assert!((case2.makespan(&sys, &m) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_phase_has_zero_makespan() {
        let sys = SystemSpec::homogeneous(3);
        let s = PhaseSchedule {
            ops: vec![],
            assignment: Assignment::with_capacity(0),
        };
        let m = OverlapModel::new(0.5).unwrap();
        assert_eq!(s.makespan(&sys, &m), 0.0);
        assert!(s.validate(&sys).is_ok());
    }

    #[test]
    fn total_vector_sums_clones() {
        let c = comm();
        let site = SiteSpec::cpu_disk_net();
        let op = ScheduledOperator::even(mk_op(0, &[4.0, 2.0, 0.0], 0.0), 4, &c, &site);
        let tv = op.total_vector();
        assert!((tv[0] - (4.0 + 0.02)).abs() < 1e-12);
        assert!((tv[1] - 2.0).abs() < 1e-12);
        assert!((tv[2] - 0.02).abs() < 1e-12);
    }
}
