//! SYNCHRONOUS — the one-dimensional adversary of Section 6.
//!
//! A reconstruction of the "state of the art" 1996 baseline the paper
//! compares against: the *synchronous execution time* processor-allocation
//! scheme of Hsiao et al. \[HCY94\] for independent (bushy) parallelism,
//! combined with the two-phase *minimax* technique of Lo et al. \[LCRY93\]
//! for distributing processors across the stages of a hash-join pipeline,
//! extended — as the paper did — with the `αN + βD` data-redistribution
//! costs of a shared-nothing environment.
//!
//! Defining characteristics (and the source of its disadvantage):
//!
//! * **Scalar cost metric.** Operators are sized by total work
//!   `W_p(op) + βD` with no notion of which resource the work hits.
//! * **No resource sharing.** Concurrent operators receive *disjoint*
//!   processor sets; a site belongs to exactly one operator per phase, so
//!   idle resource dimensions cannot be soaked up by complementary
//!   operators.
//!
//! The produced schedule is evaluated with the same multi-dimensional
//! response-time model (Equation 3) as TREESCHEDULE, so comparisons
//! measure scheduling quality, not modeling differences. Phases follow the
//! same MinShelf decomposition; when a phase's pipelines demand more sites
//! than exist, tasks are serialized into waves (\[HCY94\]'s serialization
//! point).

use crate::alloc::{minimax_alloc, proportional_alloc, waves_by_demand};
use mrs_core::comm::CommModel;
use mrs_core::error::ScheduleError;
use mrs_core::model::ResponseModel;
use mrs_core::operator::{OperatorId, OperatorSpec, Placement};
use mrs_core::resource::{SiteId, SystemSpec};
use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
use mrs_core::tree::{HomeBindings, PhaseResult, TreeProblem, TreeScheduleResult};

/// One executed wave of one phase.
#[derive(Clone, Debug)]
pub struct BaselinePhase {
    /// Task-tree level of the phase.
    pub level: usize,
    /// Wave index within the level (0 unless serialization was needed).
    pub wave: usize,
    /// The wave's packed schedule.
    pub schedule: PhaseSchedule,
    /// The wave's response time.
    pub makespan: f64,
}

/// Result of a SYNCHRONOUS run.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Executed waves in order.
    pub phases: Vec<BaselinePhase>,
    /// Total response time (sum of wave makespans).
    pub response_time: f64,
}

impl BaselineResult {
    /// The home sites assigned to an operator, if it was scheduled.
    pub fn homes_of(&self, op: OperatorId) -> Option<&[SiteId]> {
        for phase in &self.phases {
            for (i, sop) in phase.schedule.ops.iter().enumerate() {
                if sop.spec.id == op {
                    return Some(&phase.schedule.assignment.homes[i]);
                }
            }
        }
        None
    }

    /// The result viewed as a [`TreeScheduleResult`], so the invariant
    /// auditor's *tree-level* checks (per-phase structure, makespan and
    /// response-time recomputation, binding co-location) apply to
    /// SYNCHRONOUS exactly as they do to the multi-dimensional
    /// schedulers. Lossless for auditing purposes: each executed wave
    /// becomes one phase at its task-tree level, makespans are the ones
    /// the baseline recorded (themselves `schedule.makespan(sys, model)`
    /// under the shared response model), and `response_time` is their
    /// sum — the baseline's own accounting identity.
    pub fn to_tree_result(&self) -> TreeScheduleResult {
        TreeScheduleResult {
            phases: self
                .phases
                .iter()
                .map(|p| PhaseResult {
                    level: p.level,
                    schedule: p.schedule.clone(),
                    makespan: p.makespan,
                })
                .collect(),
            response_time: self.response_time,
        }
    }
}

/// The scalar ("one-dimensional") work of an operator: processing area
/// plus redistribution time `βD`.
pub fn scalar_work(op: &OperatorSpec, comm: &CommModel) -> f64 {
    op.processing_area() + comm.transfer_time(op.data_volume)
}

/// Runs the SYNCHRONOUS baseline on a query task tree.
///
/// # Errors
/// Propagates structural validation failures; the internal allocation is
/// total (every operator always receives at least one site).
pub fn synchronous_schedule<M: ResponseModel>(
    problem: &TreeProblem,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<BaselineResult, ScheduleError> {
    let mut bindings = HomeBindings::new(problem)?;
    let p = sys.sites;

    // Lo et al.'s two-phase minimax allocates processors to *joins*: the
    // processors that build a hash table are the ones that later probe
    // it. A build's effective stage work therefore includes its probe's
    // work — otherwise the cheap build phase would get almost no sites
    // and doom the expensive probe phase that inherits its home.
    let effective_work = |bindings: &HomeBindings, spec: &OperatorSpec| -> f64 {
        let own = scalar_work(spec, comm);
        match bindings.dependent(spec.id) {
            Some(probe) => own + scalar_work(probe, comm),
            None => own,
        }
    };

    let mut phases: Vec<BaselinePhase> = Vec::new();
    let mut response_time = 0.0;

    let height = problem.tasks.height();
    for level in (0..=height).rev() {
        // Tasks scheduled in this phase, with per-task resolved specs.
        let mut tasks: Vec<Vec<OperatorSpec>> = Vec::new();
        for (t, node) in problem.tasks.nodes().iter().enumerate() {
            if problem.tasks.depth(mrs_core::tasks::TaskId(t)) != level || node.ops.is_empty() {
                continue;
            }
            let mut specs = Vec::with_capacity(node.ops.len());
            for &id in &node.ops {
                specs.push(bindings.spec(id)?);
            }
            tasks.push(specs);
        }
        if tasks.is_empty() {
            continue;
        }

        // Scalar work and minimum site demand per task (floating ops only
        // — rooted operators already own their sites).
        let task_work: Vec<f64> = tasks
            .iter()
            .map(|ops| {
                ops.iter()
                    .filter(|o| o.is_floating())
                    .map(|o| effective_work(&bindings, o))
                    .sum()
            })
            .collect();
        let min_need: Vec<usize> = tasks
            .iter()
            .map(|ops| ops.iter().filter(|o| o.is_floating()).count().min(p))
            .collect();

        // Serialize tasks into waves when the phase cannot host them all
        // side by side.
        let waves = waves_by_demand(&task_work, &min_need, p);

        for (wave_idx, wave) in waves.iter().enumerate() {
            let works: Vec<f64> = wave.iter().map(|&t| task_work[t]).collect();
            let mins: Vec<usize> = wave.iter().map(|&t| min_need[t]).collect();
            let allocs = proportional_alloc(&works, &mins, p);

            let mut scheduled: Vec<ScheduledOperator> = Vec::new();
            let mut homes: Vec<Vec<SiteId>> = Vec::new();
            let mut cursor = 0usize; // next free site in this wave's pool

            for (&t, &alloc) in wave.iter().zip(&allocs) {
                let ops = &tasks[t];
                let floating: Vec<usize> =
                    (0..ops.len()).filter(|&i| ops[i].is_floating()).collect();

                // Degrees for the pipeline's floating stages.
                let degrees: Vec<usize> = if floating.is_empty() {
                    vec![]
                } else if alloc >= floating.len() {
                    let stage_works: Vec<f64> = floating
                        .iter()
                        .map(|&i| effective_work(&bindings, &ops[i]))
                        .collect();
                    minimax_alloc(&stage_works, comm.alpha, alloc, p)
                        .expect("alloc >= stage count by construction")
                } else {
                    // Forced sharing: more stages than sites in the block.
                    vec![1; floating.len()]
                };

                // Concrete sites: consecutive blocks within the task's
                // allocation, wrapping round-robin when sharing is forced.
                // Tasks without floating operators consume no pool sites.
                let mut per_op_homes: Vec<Option<Vec<SiteId>>> = vec![None; ops.len()];
                if !floating.is_empty() {
                    let block_start = cursor;
                    let block_len = alloc.min(p).max(1);
                    let mut offset = 0usize;
                    for (fi, &i) in floating.iter().enumerate() {
                        let n = degrees[fi];
                        let sites: Vec<SiteId> = (0..n)
                            .map(|k| SiteId((block_start + (offset + k) % block_len) % p))
                            .collect();
                        offset += n;
                        per_op_homes[i] = Some(sites);
                    }
                    cursor = (cursor + block_len).min(p);
                }

                for (i, spec) in ops.iter().enumerate() {
                    let op_homes = match &spec.placement {
                        Placement::Rooted(h) => h.clone(),
                        Placement::Floating => per_op_homes[i]
                            .take()
                            .expect("every floating op received sites"),
                    };
                    let sop =
                        ScheduledOperator::even(spec.clone(), op_homes.len(), comm, &sys.site);
                    scheduled.push(sop);
                    homes.push(op_homes);
                }
            }

            let schedule = PhaseSchedule {
                ops: scheduled,
                assignment: Assignment { homes },
            };
            schedule.validate(sys)?;
            bindings.place(&schedule);
            let makespan = schedule.makespan(sys, model);
            response_time += makespan;
            phases.push(BaselinePhase {
                level,
                wave: wave_idx,
                schedule,
                makespan,
            });
        }
    }

    Ok(BaselineResult {
        phases,
        response_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::model::OverlapModel;
    use mrs_core::operator::OperatorKind;
    use mrs_core::tasks::{HomeBinding, TaskGraph, TaskId, TaskNode};
    use mrs_core::vector::WorkVector;

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

    fn single_phase_problem(ops: Vec<OperatorSpec>) -> TreeProblem {
        let ids: Vec<_> = (0..ops.len()).map(OperatorId).collect();
        TreeProblem {
            ops,
            tasks: TaskGraph::single_task(ids),
            bindings: vec![],
        }
    }

    #[test]
    fn single_task_schedules_validly() {
        let (sys, comm, model) = setup(8);
        let problem = single_phase_problem(vec![
            op(0, &[4.0, 2.0, 0.0], 500_000.0),
            op(1, &[2.0, 6.0, 0.0], 250_000.0),
        ]);
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 1);
        r.phases[0].schedule.validate(&sys).unwrap();
        assert!(r.response_time > 0.0);
    }

    #[test]
    fn concurrent_ops_get_disjoint_sites() {
        let (sys, comm, model) = setup(8);
        let problem = single_phase_problem(vec![
            op(0, &[4.0, 0.0, 0.0], 0.0),
            op(1, &[4.0, 0.0, 0.0], 0.0),
        ]);
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        let h0 = r.homes_of(OperatorId(0)).unwrap();
        let h1 = r.homes_of(OperatorId(1)).unwrap();
        for s in h0 {
            assert!(!h1.contains(s), "SYNCHRONOUS must not share sites");
        }
    }

    #[test]
    fn two_phase_problem_with_binding() {
        let (sys, comm, model) = setup(8);
        let ops = vec![
            op(0, &[1.0, 2.0, 0.0], 100_000.0), // scan inner
            op(1, &[0.5, 0.0, 0.0], 100_000.0), // build
            op(2, &[1.5, 3.0, 0.0], 200_000.0), // scan outer
            op(3, &[1.0, 0.0, 0.0], 300_000.0), // probe
        ];
        let tasks = TaskGraph::new(vec![
            TaskNode {
                ops: vec![OperatorId(0), OperatorId(1)],
                parent: Some(TaskId(1)),
            },
            TaskNode {
                ops: vec![OperatorId(2), OperatorId(3)],
                parent: None,
            },
        ])
        .unwrap();
        let problem = TreeProblem {
            ops,
            tasks,
            bindings: vec![HomeBinding {
                dependent: OperatorId(3),
                source: OperatorId(1),
            }],
        };
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 2);
        assert_eq!(
            r.homes_of(OperatorId(3)).unwrap(),
            r.homes_of(OperatorId(1)).unwrap(),
            "probe inherits the build's home"
        );
    }

    #[test]
    fn serialization_when_tasks_exceed_sites() {
        let (sys, comm, model) = setup(2);
        // Three independent tasks, each demanding 2 sites (2 floating ops).
        let ops: Vec<_> = (0..6).map(|i| op(i, &[1.0, 1.0, 0.0], 0.0)).collect();
        let tasks = TaskGraph::new(vec![
            TaskNode {
                ops: vec![OperatorId(0), OperatorId(1)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(2), OperatorId(3)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(4), OperatorId(5)],
                parent: None,
            },
        ])
        .unwrap();
        let problem = TreeProblem {
            ops,
            tasks,
            bindings: vec![],
        };
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 3, "one wave per task on a 2-site box");
        for ph in &r.phases {
            assert_eq!(ph.level, 0);
        }
        assert_eq!(r.phases.iter().map(|p| p.wave).max(), Some(2));
    }

    #[test]
    fn pipeline_with_more_stages_than_sites_shares_round_robin() {
        let (sys, comm, model) = setup(2);
        // One task with 5 floating ops on 2 sites: forced degree-1 sharing.
        let ops: Vec<_> = (0..5).map(|i| op(i, &[1.0, 0.0, 0.0], 0.0)).collect();
        let problem = single_phase_problem(ops);
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 1);
        let schedule = &r.phases[0].schedule;
        schedule.validate(&sys).unwrap();
        for sop in &schedule.ops {
            assert_eq!(sop.degree, 1);
        }
    }

    #[test]
    fn heavy_op_gets_more_sites_than_light_op() {
        let (sys, comm, model) = setup(12);
        let problem = single_phase_problem(vec![
            op(0, &[20.0, 0.0, 0.0], 0.0),
            op(1, &[1.0, 0.0, 0.0], 0.0),
        ]);
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        let h0 = r.homes_of(OperatorId(0)).unwrap().len();
        let h1 = r.homes_of(OperatorId(1)).unwrap().len();
        assert!(
            h0 > h1,
            "minimax should favour the heavy stage: {h0} vs {h1}"
        );
    }

    #[test]
    fn empty_level_skipped_gracefully() {
        let (sys, comm, model) = setup(4);
        let problem = TreeProblem {
            ops: vec![op(0, &[1.0, 0.0, 0.0], 0.0)],
            tasks: TaskGraph::new(vec![TaskNode {
                ops: vec![OperatorId(0)],
                parent: None,
            }])
            .unwrap(),
            bindings: vec![],
        };
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 1);
    }

    #[test]
    fn tree_view_preserves_every_wave_and_the_response_identity() {
        let (sys, comm, model) = setup(2);
        // Three serialized waves (see serialization_when_tasks_exceed_sites)
        // must each survive the conversion as their own phase.
        let ops: Vec<_> = (0..6).map(|i| op(i, &[1.0, 1.0, 0.0], 0.0)).collect();
        let tasks = TaskGraph::new(vec![
            TaskNode {
                ops: vec![OperatorId(0), OperatorId(1)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(2), OperatorId(3)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(4), OperatorId(5)],
                parent: None,
            },
        ])
        .unwrap();
        let problem = TreeProblem {
            ops,
            tasks,
            bindings: vec![],
        };
        let r = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
        let tree = r.to_tree_result();
        assert_eq!(tree.phases.len(), r.phases.len());
        let summed: f64 = tree.phases.iter().map(|p| p.makespan).sum();
        assert_eq!(summed.to_bits(), tree.response_time.to_bits());
        for (wave, phase) in r.phases.iter().zip(&tree.phases) {
            assert_eq!(wave.level, phase.level);
            assert_eq!(wave.makespan.to_bits(), phase.makespan.to_bits());
            assert_eq!(wave.schedule.assignment, phase.schedule.assignment);
        }
    }

    #[test]
    fn deterministic() {
        let (sys, comm, model) = setup(8);
        let mk = || {
            single_phase_problem(
                (0..5)
                    .map(|i| op(i, &[1.0 + i as f64, 2.0, 0.0], 100_000.0))
                    .collect(),
            )
        };
        let a = synchronous_schedule(&mk(), &sys, &comm, &model).unwrap();
        let b = synchronous_schedule(&mk(), &sys, &comm, &model).unwrap();
        assert_eq!(a.response_time, b.response_time);
        for (x, y) in a.phases.iter().zip(&b.phases) {
            assert_eq!(x.schedule.assignment, y.schedule.assignment);
        }
    }
}
