//! The TREESCHEDULE algorithm (Figure 4, Section 5.4): scheduling a query
//! task tree in synchronized phases.
//!
//! A query task tree is split into *shelves*: each task executes in the
//! phase equal to its depth from the root (MinShelf \[TL93\]); phases run
//! deepest first, and phase `i` starts only after phase `i+1` completes.
//! Within each phase the independent tasks' operators are scheduled with
//! [`operator_schedule`](crate::list::operator_schedule).
//!
//! Scheduling decisions made in earlier (deeper) phases impose data
//! placement constraints on later phases (Section 5.5): a hash-join probe
//! must execute at the home of its build — the sites holding the hash
//! table — with the build's degree of parallelism. These constraints are
//! expressed as [`HomeBinding`]s and turn floating operators into rooted
//! ones as phases complete.

use crate::comm::CommModel;
use crate::error::ScheduleError;
use crate::list::ListOrder;
use crate::model::ResponseModel;
use crate::operator::{OperatorId, OperatorSpec, Placement};

use crate::resource::{SiteId, SystemSpec};
use crate::schedule::PhaseSchedule;
use crate::tasks::{HomeBinding, TaskGraph};

/// A complete TREESCHEDULE input: the plan's operators, its query task
/// graph, and the cross-phase placement bindings.
#[derive(Clone, Debug)]
pub struct TreeProblem {
    /// Operator table; `ops[i].id` must equal `OperatorId(i)`.
    pub ops: Vec<OperatorSpec>,
    /// The query task graph (pipelines + blocking edges).
    pub tasks: TaskGraph,
    /// Placement inheritances (probe ← build).
    pub bindings: Vec<HomeBinding>,
}

impl TreeProblem {
    /// Structural validation: dense operator ids, every task operator
    /// exists, and every binding's source is scheduled strictly before
    /// (deeper than) its dependent.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        for (i, op) in self.ops.iter().enumerate() {
            if op.id.0 != i {
                return Err(ScheduleError::MalformedTaskGraph {
                    detail: format!("operator table not dense: position {i} holds {}", op.id),
                });
            }
        }
        let mut task_of: Vec<Option<usize>> = vec![None; self.ops.len()];
        for (t, node) in self.tasks.nodes().iter().enumerate() {
            for op in &node.ops {
                if op.0 >= self.ops.len() {
                    return Err(ScheduleError::UnknownOperator { op: *op });
                }
                task_of[op.0] = Some(t);
            }
        }
        let task = |op: OperatorId| {
            task_of
                .get(op.0)
                .copied()
                .flatten()
                .ok_or(ScheduleError::UnknownOperator { op })
        };
        for b in &self.bindings {
            let dep_task = task(b.dependent)?;
            let src_task = task(b.source)?;
            let dep_level = self.tasks.depth(crate::tasks::TaskId(dep_task));
            let src_level = self.tasks.depth(crate::tasks::TaskId(src_task));
            if src_level <= dep_level {
                return Err(ScheduleError::MalformedTaskGraph {
                    detail: format!(
                        "binding {} <- {}: source runs at level {src_level}, \
                         not deeper than dependent's level {dep_level}",
                        b.dependent, b.source
                    ),
                });
            }
        }
        Ok(())
    }
}

/// One scheduled phase of a TREESCHEDULE run.
#[derive(Clone, Debug)]
pub struct PhaseResult {
    /// The task-tree level this phase executes (deepest level first in
    /// [`TreeScheduleResult::phases`]).
    pub level: usize,
    /// The packed schedule for the phase.
    pub schedule: PhaseSchedule,
    /// The phase's response time under the run's model.
    pub makespan: f64,
}

/// The result of scheduling a full query task tree.
#[derive(Clone, Debug)]
pub struct TreeScheduleResult {
    /// Phases in execution order (deepest level first).
    pub phases: Vec<PhaseResult>,
    /// Total response time: the sum of the synchronized phases' makespans.
    pub response_time: f64,
}

impl TreeScheduleResult {
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

    /// Degree of parallelism chosen for an operator, if scheduled.
    pub fn degree_of(&self, op: OperatorId) -> Option<usize> {
        self.homes_of(op).map(<[SiteId]>::len)
    }
}

/// The placement state both planners thread through the phases, in
/// dense tables indexed by `OperatorId.0` ([`TreeProblem::validate`]
/// guarantees dense ids): each operator's binding source and dependent,
/// and the homes of every operator placed so far.
struct Placements {
    source_of: Vec<Option<OperatorId>>,
    dependent_of: Vec<Option<OperatorId>>,
    homes: Vec<Option<Vec<SiteId>>>,
}

impl Placements {
    /// Validates `problem` and indexes its bindings.
    fn new(problem: &TreeProblem) -> Result<Self, ScheduleError> {
        problem.validate()?;
        let n = problem.ops.len();
        let mut source_of = vec![None; n];
        let mut dependent_of = vec![None; n];
        for b in &problem.bindings {
            source_of[b.dependent.0] = Some(b.source);
            dependent_of[b.source.0] = Some(b.dependent);
        }
        Ok(Placements {
            source_of,
            dependent_of,
            homes: vec![None; n],
        })
    }

    /// `id`'s spec, rooted at its binding source's homes if it has one.
    fn spec(&self, problem: &TreeProblem, id: OperatorId) -> Result<OperatorSpec, ScheduleError> {
        let mut spec = problem.ops[id.0].clone();
        if let Some(source) = self.source_of[id.0] {
            let Some(homes) = &self.homes[source.0] else {
                return Err(ScheduleError::MalformedTaskGraph {
                    detail: format!(
                        "binding source {source} for {id} was not scheduled in an \
                         earlier phase"
                    ),
                });
            };
            spec.placement = Placement::Rooted(homes.clone());
        }
        Ok(spec)
    }

    /// The operator bound to `id`'s homes, if any.
    fn dependent<'p>(&self, problem: &'p TreeProblem, id: OperatorId) -> Option<&'p OperatorSpec> {
        self.dependent_of[id.0].map(|dep| &problem.ops[dep.0])
    }

    /// Records the homes `schedule` assigned.
    fn place(&mut self, schedule: &PhaseSchedule) {
        for (sop, homes) in schedule.ops.iter().zip(&schedule.assignment.homes) {
            self.homes[sop.spec.id.0] = Some(homes.clone());
        }
    }
}

/// Runs TREESCHEDULE: phases from `height(T)` down to `0`, each scheduled
/// with OPERATORSCHEDULE; probes bound to already-placed builds become
/// rooted (inheriting home and degree) before their phase is packed.
///
/// # Errors
/// Propagates structural problems from [`TreeProblem::validate`] and
/// packing failures from the per-phase scheduler.
pub fn tree_schedule<M: ResponseModel>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<TreeScheduleResult, ScheduleError> {
    tree_schedule_with(problem, f, sys, comm, model, PlanOptions::default())
}

/// Degree of parallelism for a floating operator within a task tree.
///
/// An operator that is the *source* of a home binding (a hash-join build)
/// determines the placement — and hence the parallelism — of its
/// dependent (the probe), which usually carries far more work. Choosing
/// the build's degree from its own tiny work vector would serialize the
/// probe, so the degree decision uses the *combined* operator: summed
/// processing vectors and data volumes. This is exactly the join-stage
/// coupling of Lo et al. \[LCRY93\] (build and probe phases share one
/// processor set), and keeps the A4 speed-down cap meaningful for the
/// pair rather than for the throwaway build alone.
pub fn coupled_degree<M: ResponseModel>(
    spec: &OperatorSpec,
    dependent: Option<&OperatorSpec>,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> usize {
    match dependent {
        None => crate::partition::choose_degree(spec, f, sys.sites, comm, &sys.site, model).degree,
        Some(dep) => {
            let combined = OperatorSpec::floating(
                spec.id,
                spec.kind,
                &spec.processing + &dep.processing,
                spec.data_volume + dep.data_volume,
            );
            crate::partition::choose_degree(&combined, f, sys.sites, comm, &sys.site, model).degree
        }
    }
}

/// How tasks are grouped into synchronized phases (shelves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhasePolicy {
    /// The paper's MinShelf \[TL93\]: each task runs in the phase closest
    /// to the root permitted by the blocking constraints (shelf index =
    /// depth from the root; as-late-as-possible).
    Alap,
    /// As-soon-as-possible: each task runs as early as its blocking
    /// predecessors allow (shelf index = height above the deepest leaf
    /// descendant). Shallow side-branches execute earlier than under
    /// ALAP, changing which tasks share a shelf.
    Asap,
}

/// TREESCHEDULE's knobs beyond the granularity `f`.
/// [`PlanOptions::default`] is the paper's setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// List order for each phase's packing (ablation X2 varies it).
    pub order: ListOrder,
    /// How tasks are grouped into shelves (ablation X11 varies it).
    pub policy: PhasePolicy,
    /// Governed clone-degree cap for every *floating* operator:
    /// `degree = min(coupled_degree, cap)` (clamped to at least 1). The
    /// cap only ever lowers degrees, so the paper's coarse-grain
    /// speed-down constraint stays satisfied; rooted operators keep their
    /// pinned homes untouched (data placement is a correctness
    /// constraint, not a parallelism choice). `None` reproduces
    /// [`tree_schedule`] bit for bit.
    ///
    /// This is the seam the runtime's overload controller actuates: each
    /// governor level shrinks the cap, trading intra-query parallelism
    /// (and its per-clone EA1 startup overhead) for inter-query capacity.
    pub cap: Option<usize>,
}

impl Default for PlanOptions {
    /// `LongestFirst`, `Alap`, no cap.
    fn default() -> Self {
        PlanOptions {
            order: ListOrder::LongestFirst,
            policy: PhasePolicy::Alap,
            cap: None,
        }
    }
}

/// [`tree_schedule`] with explicit [`PlanOptions`]: list order, shelf
/// policy and governed degree cap.
///
/// # Errors
/// As [`tree_schedule`].
pub fn tree_schedule_with<M: ResponseModel>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
    opts: PlanOptions,
) -> Result<TreeScheduleResult, ScheduleError> {
    let PlanOptions { order, policy, cap } = opts;
    let mut placed = Placements::new(problem)?;
    let mut phases = Vec::new();
    let mut response_time = 0.0;

    // Shelf index per task, and the order phases execute in. ALAP runs
    // depth high->low; ASAP runs height low->high. Either way a task's
    // blocking predecessors land in strictly earlier phases.
    let shelf_of: Vec<usize> = match policy {
        PhasePolicy::Alap => (0..problem.tasks.len())
            .map(|t| problem.tasks.depth(crate::tasks::TaskId(t)))
            .collect(),
        PhasePolicy::Asap => problem.tasks.heights_from_leaves(),
    };
    let max_shelf = shelf_of.iter().copied().max().unwrap_or(0);
    let shelf_order: Vec<usize> = match policy {
        PhasePolicy::Alap => (0..=max_shelf).rev().collect(),
        PhasePolicy::Asap => (0..=max_shelf).collect(),
    };

    // One packing scratch reused by every phase (allocation-free after
    // the first shelf).
    let mut scratch = crate::list::PackScratch::new();
    for level in shelf_order {
        let mut op_ids: Vec<OperatorId> = Vec::new();
        for (t, node) in problem.tasks.nodes().iter().enumerate() {
            if shelf_of[t] == level {
                op_ids.extend_from_slice(&node.ops);
            }
        }
        if op_ids.is_empty() {
            continue;
        }
        let mut specs = Vec::with_capacity(op_ids.len());
        for &id in &op_ids {
            let spec = placed.spec(problem, id)?;
            let degree = match &spec.placement {
                Placement::Rooted(homes) => homes.len(),
                Placement::Floating => {
                    let dependent = placed.dependent(problem, id);
                    let chosen = coupled_degree(&spec, dependent, f, sys, comm, model);
                    // The governed cap only ever lowers degrees (CG_f
                    // stays satisfied); rooted placements are exempt.
                    match cap {
                        Some(c) => chosen.min(c.max(1)),
                        None => chosen,
                    }
                }
            };
            specs.push((spec, degree));
        }
        let schedule =
            crate::list::schedule_with_degrees_in(&mut scratch, specs, sys, comm, order)?;
        placed.place(&schedule);
        let makespan = schedule.makespan(sys, model);
        debug_assert!(
            schedule.validate(sys).is_ok(),
            "phase {level} left the pack path invalid: {:?}",
            schedule.validate(sys)
        );
        response_time += makespan;
        phases.push(PhaseResult {
            level,
            schedule,
            makespan,
        });
    }

    Ok(TreeScheduleResult {
        phases,
        response_time,
    })
}

/// TREESCHEDULE with per-phase **malleable** degree selection (Section 7
/// applied inside the phased framework — the paper's closing remark that
/// "the more sophisticated greedy selection technique can be used when
/// the additional scheduling overhead is justified").
///
/// Degrees are not derived from a granularity parameter: each phase runs
/// the GF candidate sweep over its floating operators (binding sources
/// sized by the combined build+probe operator, exactly as
/// [`coupled_degree`] does for the coarse-grain path) and keeps the
/// parallelization minimizing `LB(N)`; the real operators are then
/// list-packed at those degrees. Rooted operators keep their homes.
pub fn malleable_tree_schedule<M: ResponseModel>(
    problem: &TreeProblem,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<TreeScheduleResult, ScheduleError> {
    let mut placed = Placements::new(problem)?;
    let mut phases = Vec::new();
    let mut response_time = 0.0;

    let height = problem.tasks.height();
    // One packing scratch shared by the GF sweep's candidate packing and
    // the final per-phase packing, reused across phases.
    let mut scratch = crate::list::PackScratch::new();
    for level in (0..=height).rev() {
        let op_ids = problem.tasks.ops_at_level(level);
        if op_ids.is_empty() {
            continue;
        }
        // Real specs (scheduled) and sizing specs (drive the GF sweep).
        let mut specs = Vec::with_capacity(op_ids.len());
        let mut sizing = Vec::with_capacity(op_ids.len());
        for &id in &op_ids {
            let spec = placed.spec(problem, id)?;
            let size_spec = match placed.dependent(problem, id) {
                Some(dep_op) if spec.placement.is_floating() => {
                    let mut combined = OperatorSpec::floating(
                        spec.id,
                        spec.kind,
                        &spec.processing + &dep_op.processing,
                        spec.data_volume + dep_op.data_volume,
                    );
                    combined.placement = spec.placement.clone();
                    combined
                }
                _ => spec.clone(),
            };
            specs.push(spec);
            sizing.push(size_spec);
        }
        let outcome =
            crate::malleable::malleable_schedule_in(&mut scratch, sizing, sys, comm, model)?;
        let with_degrees: Vec<(OperatorSpec, usize)> = specs
            .into_iter()
            .zip(outcome.degrees.iter().copied())
            .collect();
        let schedule = crate::list::schedule_with_degrees_in(
            &mut scratch,
            with_degrees,
            sys,
            comm,
            crate::list::ListOrder::LongestFirst,
        )?;
        placed.place(&schedule);
        let makespan = schedule.makespan(sys, model);
        debug_assert!(
            schedule.validate(sys).is_ok(),
            "malleable phase {level} left the pack path invalid: {:?}",
            schedule.validate(sys)
        );
        response_time += makespan;
        phases.push(PhaseResult {
            level,
            schedule,
            makespan,
        });
    }

    Ok(TreeScheduleResult {
        phases,
        response_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::OperatorKind;
    use crate::tasks::{TaskId, TaskNode};
    use crate::vector::WorkVector;

    fn op(id: usize, kind: OperatorKind, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(OperatorId(id), kind, WorkVector::from_slice(w), data)
    }

    fn setup() -> (SystemSpec, CommModel, OverlapModel) {
        (
            SystemSpec::homogeneous(8),
            CommModel::paper_defaults(),
            OverlapModel::new(0.5).unwrap(),
        )
    }

    fn asap() -> PlanOptions {
        PlanOptions {
            policy: PhasePolicy::Asap,
            ..PlanOptions::default()
        }
    }

    fn with_cap(
        problem: &TreeProblem,
        cap: Option<usize>,
    ) -> Result<TreeScheduleResult, ScheduleError> {
        let (sys, comm, model) = setup();
        let opts = PlanOptions {
            cap,
            ..PlanOptions::default()
        };
        tree_schedule_with(problem, 0.7, &sys, &comm, &model, opts)
    }

    /// A single hash join: scan(outer) + scan(inner)+build in one phase
    /// group, probe rooted at the build.
    ///
    /// Task layout (Figure 1 style):
    ///   T0 = {scan_inner, build}       (level 1)
    ///   T1 = {scan_outer, probe}       (level 0, root)
    /// binding: probe <- build.
    fn one_join_problem() -> TreeProblem {
        let ops = vec![
            op(0, OperatorKind::Scan, &[2.0, 4.0, 0.0], 1_000_000.0), // scan inner
            op(1, OperatorKind::Build, &[1.0, 0.0, 0.0], 1_000_000.0), // build
            op(2, OperatorKind::Scan, &[3.0, 6.0, 0.0], 2_000_000.0), // scan outer
            op(3, OperatorKind::Probe, &[2.5, 0.0, 0.0], 3_000_000.0), // probe
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
    fn one_join_schedules_in_two_phases() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].level, 1, "deepest phase first");
        assert_eq!(r.phases[1].level, 0);
        let total: f64 = r.phases.iter().map(|p| p.makespan).sum();
        assert!((r.response_time - total).abs() < 1e-12);
        assert!(r.response_time > 0.0);
    }

    #[test]
    fn probe_runs_at_build_home() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let build_homes = r.homes_of(OperatorId(1)).unwrap().to_vec();
        let probe_homes = r.homes_of(OperatorId(3)).unwrap().to_vec();
        assert_eq!(build_homes, probe_homes);
        assert_eq!(r.degree_of(OperatorId(3)), r.degree_of(OperatorId(1)));
    }

    #[test]
    fn every_phase_is_valid() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        for p in &r.phases {
            p.schedule.validate(&sys).unwrap();
        }
    }

    #[test]
    fn binding_to_same_level_rejected() {
        let (sys, comm, model) = setup();
        let ops = vec![
            op(0, OperatorKind::Build, &[1.0, 0.0, 0.0], 0.0),
            op(1, OperatorKind::Probe, &[1.0, 0.0, 0.0], 0.0),
        ];
        let tasks = TaskGraph::new(vec![TaskNode {
            ops: vec![OperatorId(0), OperatorId(1)],
            parent: None,
        }])
        .unwrap();
        let problem = TreeProblem {
            ops,
            tasks,
            bindings: vec![HomeBinding {
                dependent: OperatorId(1),
                source: OperatorId(0),
            }],
        };
        assert!(matches!(
            tree_schedule(&problem, 0.7, &sys, &comm, &model),
            Err(ScheduleError::MalformedTaskGraph { .. })
        ));
    }

    #[test]
    fn non_dense_operator_table_rejected() {
        let (sys, comm, model) = setup();
        let problem = TreeProblem {
            ops: vec![op(5, OperatorKind::Scan, &[1.0, 0.0, 0.0], 0.0)],
            tasks: TaskGraph::single_task(vec![OperatorId(5)]),
            bindings: vec![],
        };
        assert!(tree_schedule(&problem, 0.7, &sys, &comm, &model).is_err());
    }

    #[test]
    fn unknown_operator_in_task_rejected() {
        let (sys, comm, model) = setup();
        let problem = TreeProblem {
            ops: vec![op(0, OperatorKind::Scan, &[1.0, 0.0, 0.0], 0.0)],
            tasks: TaskGraph::single_task(vec![OperatorId(0), OperatorId(7)]),
            bindings: vec![],
        };
        assert!(matches!(
            tree_schedule(&problem, 0.7, &sys, &comm, &model),
            Err(ScheduleError::UnknownOperator { op: OperatorId(7) })
        ));
    }

    #[test]
    fn independent_tasks_share_a_phase() {
        let (sys, comm, model) = setup();
        // Two root tasks (a forest): both at level 0 → one phase.
        let ops = vec![
            op(0, OperatorKind::Scan, &[1.0, 2.0, 0.0], 0.0),
            op(1, OperatorKind::Scan, &[2.0, 1.0, 0.0], 0.0),
        ];
        let tasks = TaskGraph::new(vec![
            TaskNode {
                ops: vec![OperatorId(0)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(1)],
                parent: None,
            },
        ])
        .unwrap();
        let problem = TreeProblem {
            ops,
            tasks,
            bindings: vec![],
        };
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].schedule.ops.len(), 2);
    }

    #[test]
    fn response_time_le_sum_of_sequential_times() {
        // Sanity: the schedule can never be worse than running everything
        // serially on one site (it could use exactly that schedule).
        // We check the weaker property that it is at most the sum of each
        // op's one-site T_seq plus per-op startup.
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let serial: f64 = problem
            .ops
            .iter()
            .map(|o| crate::partition::t_par(o, 1, &comm, &sys.site, &model))
            .sum();
        assert!(
            r.response_time <= serial + 1e-9,
            "{} vs serial {serial}",
            r.response_time
        );
    }

    #[test]
    fn malleable_tree_schedules_validly() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = malleable_tree_schedule(&problem, &sys, &comm, &model).unwrap();
        assert_eq!(r.phases.len(), 2);
        for p in &r.phases {
            p.schedule.validate(&sys).unwrap();
        }
        // Probe still runs at the build's home.
        assert_eq!(
            r.homes_of(OperatorId(3)).unwrap(),
            r.homes_of(OperatorId(1)).unwrap()
        );
        assert!(r.response_time > 0.0);
    }

    #[test]
    fn malleable_tree_in_same_ballpark_as_coarse_grain() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let cg = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let mal = malleable_tree_schedule(&problem, &sys, &comm, &model).unwrap();
        // Neither strictly dominates; both must land within a small factor.
        let ratio = mal.response_time / cg.response_time;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "malleable {} vs coarse-grain {}",
            mal.response_time,
            cg.response_time
        );
    }

    #[test]
    fn coupled_degree_widens_small_builds() {
        let (sys, comm, model) = setup();
        let build = op(0, OperatorKind::Build, &[0.1, 0.0, 0.0], 100_000.0);
        let probe = op(1, OperatorKind::Probe, &[40.0, 0.0, 0.0], 200_000.0);
        let alone = coupled_degree(&build, None, 0.9, &sys, &comm, &model);
        let coupled = coupled_degree(&build, Some(&probe), 0.9, &sys, &comm, &model);
        assert!(
            coupled > alone,
            "coupling with a heavy probe must widen the build: {alone} -> {coupled}"
        );
    }

    #[test]
    fn asap_policy_schedules_validly() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = tree_schedule_with(&problem, 0.7, &sys, &comm, &model, asap()).unwrap();
        for p in &r.phases {
            p.schedule.validate(&sys).unwrap();
        }
        // Probe still at the build's home.
        assert_eq!(
            r.homes_of(OperatorId(3)).unwrap(),
            r.homes_of(OperatorId(1)).unwrap()
        );
    }

    #[test]
    fn asap_equals_alap_on_balanced_trees() {
        // A single join's task tree has depth == height per task, so the
        // two policies coincide.
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let alap = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let asap = tree_schedule_with(&problem, 0.7, &sys, &comm, &model, asap()).unwrap();
        assert!((alap.response_time - asap.response_time).abs() < 1e-9);
    }

    #[test]
    fn asap_differs_on_unbalanced_trees() {
        // Chain T2 -> T1 -> T0 plus a leaf T3 attached directly to T0:
        // ALAP puts T3 at depth 1 (with T1); ASAP puts it at height 0
        // (with T2).
        let (sys, comm, model) = setup();
        let mk = |id: usize, w: f64| op(id, OperatorKind::Other, &[w, 1.0, 0.0], 50_000.0);
        let ops = vec![mk(0, 2.0), mk(1, 3.0), mk(2, 4.0), mk(3, 5.0)];
        let tasks = TaskGraph::new(vec![
            TaskNode {
                ops: vec![OperatorId(0)],
                parent: None,
            },
            TaskNode {
                ops: vec![OperatorId(1)],
                parent: Some(TaskId(0)),
            },
            TaskNode {
                ops: vec![OperatorId(2)],
                parent: Some(TaskId(1)),
            },
            TaskNode {
                ops: vec![OperatorId(3)],
                parent: Some(TaskId(0)),
            },
        ])
        .unwrap();
        let problem = TreeProblem {
            ops,
            tasks,
            bindings: vec![],
        };
        let heights = problem.tasks.heights_from_leaves();
        assert_eq!(heights, vec![2, 1, 0, 0]);
        let asap = tree_schedule_with(&problem, 0.7, &sys, &comm, &model, asap()).unwrap();
        // ASAP: shelf 0 holds T2 and T3 (two ops), shelf 1 holds T1,
        // shelf 2 holds T0.
        assert_eq!(asap.phases[0].schedule.ops.len(), 2);
        let alap = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        // ALAP: deepest shelf holds only T2.
        assert_eq!(alap.phases[0].schedule.ops.len(), 1);
    }

    #[test]
    fn homes_of_unknown_operator_is_none() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        assert!(r.homes_of(OperatorId(99)).is_none());
        assert!(r.degree_of(OperatorId(99)).is_none());
    }

    #[test]
    fn uncapped_governed_schedule_is_bit_identical() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let base = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let governed = with_cap(&problem, None).unwrap();
        assert_eq!(
            base.response_time.to_bits(),
            governed.response_time.to_bits()
        );
        assert_eq!(base.phases.len(), governed.phases.len());
        for (a, b) in base.phases.iter().zip(&governed.phases) {
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.schedule.assignment.homes, b.schedule.assignment.homes);
        }
        // A cap at the full site count also changes nothing (degrees
        // never exceed P to begin with).
        let wide = with_cap(&problem, Some(sys.sites)).unwrap();
        assert_eq!(base.response_time.to_bits(), wide.response_time.to_bits());
    }

    #[test]
    fn governed_cap_bounds_floating_degrees_only() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let base = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        // The outer scan parallelizes wide at f=0.7 over 8 sites; cap it
        // to 2 and every floating operator must obey.
        let capped = with_cap(&problem, Some(2)).unwrap();
        for id in 0..4 {
            let d = capped.degree_of(OperatorId(id)).unwrap();
            assert!(d <= 2, "op {id} got degree {d} past the cap");
            assert!(d <= base.degree_of(OperatorId(id)).unwrap());
        }
        // The probe is rooted at the build's homes, so its degree equals
        // the (capped) build degree — the binding survives governing.
        assert_eq!(
            capped.homes_of(OperatorId(3)),
            capped.homes_of(OperatorId(1))
        );
        // A degenerate cap of 0 clamps to 1, never to an empty plan.
        let serial = with_cap(&problem, Some(0)).unwrap();
        for id in 0..4 {
            assert_eq!(serial.degree_of(OperatorId(id)), Some(1));
        }
    }
}
