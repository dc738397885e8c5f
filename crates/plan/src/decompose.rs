//! Query-task decomposition: from an operator tree to the query task tree
//! (Figure 1(c)) consumed by TREESCHEDULE.
//!
//! A *query task* is a maximal subgraph of the operator tree containing
//! only pipelining edges (Section 3.1). Tasks are the connected components
//! of the pipeline subgraph; every blocking edge (build → probe) connects
//! the build's task to the probe's task, making the probe's task the
//! parent. The probe itself must later run at the build's home — that
//! data-placement constraint is emitted as a
//! [`HomeBinding`].

use crate::optree::{OpDetail, OperatorTree};
use mrs_core::error::ScheduleError;
use mrs_core::operator::OperatorId;
use mrs_core::tasks::{HomeBinding, TaskGraph, TaskId, TaskNode};

/// The result of decomposing an operator tree.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The query task graph (pipelines + blocking edges).
    pub tasks: TaskGraph,
    /// Probe ← build placement constraints, one per join.
    pub bindings: Vec<HomeBinding>,
    /// `task_of[op.0]` = the task holding each operator.
    pub task_of: Vec<TaskId>,
}

/// Minimal union-find over dense operator indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, keeping task numbering
            // stable across runs.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Decomposes `tree` into its query task graph.
///
/// # Errors
/// [`ScheduleError::MalformedTaskGraph`] if the blocking edges do not form
/// a forest over the pipeline components (cannot happen for trees produced
/// by [`OperatorTree::expand`], but hand-built trees are checked).
pub fn decompose(tree: &OperatorTree) -> Result<Decomposition, ScheduleError> {
    let n = tree.len();
    let mut uf = UnionFind::new(n);
    for (src, dst) in tree.pipeline_edges() {
        uf.union(src.0, dst.0);
    }

    // Dense task ids in order of first appearance (by operator id).
    let mut task_index: Vec<Option<usize>> = vec![None; n];
    let mut roots: Vec<usize> = Vec::new();
    let mut task_of_raw = vec![0usize; n];
    for (op, slot) in task_of_raw.iter_mut().enumerate() {
        let root = uf.find(op);
        let t = match task_index[root] {
            Some(t) => t,
            None => {
                let t = roots.len();
                task_index[root] = Some(t);
                roots.push(root);
                t
            }
        };
        *slot = t;
    }

    let task_count = roots.len();
    let mut ops_per_task: Vec<Vec<OperatorId>> = vec![Vec::new(); task_count];
    for op in 0..n {
        ops_per_task[task_of_raw[op]].push(OperatorId(op));
    }

    // Blocking edges define parents.
    let mut parent: Vec<Option<TaskId>> = vec![None; task_count];
    for (src, dst) in tree.blocking_edges() {
        let (ts, td) = (task_of_raw[src.0], task_of_raw[dst.0]);
        if ts == td {
            return Err(ScheduleError::MalformedTaskGraph {
                detail: format!("blocking edge {src} -> {dst} lies inside one pipeline component"),
            });
        }
        match parent[ts] {
            None => parent[ts] = Some(TaskId(td)),
            Some(existing) if existing == TaskId(td) => {}
            Some(existing) => {
                return Err(ScheduleError::MalformedTaskGraph {
                    detail: format!(
                        "task of {src} blocks both {existing} and T{td}; tasks must form a tree"
                    ),
                });
            }
        }
    }

    let nodes = ops_per_task
        .into_iter()
        .zip(parent)
        .map(|(ops, parent)| TaskNode { ops, parent })
        .collect();
    let tasks = TaskGraph::new(nodes)?;

    let bindings = tree
        .nodes()
        .iter()
        .filter_map(|node| match &node.detail {
            OpDetail::Probe { build, .. } => Some(HomeBinding {
                dependent: node.id,
                source: *build,
            }),
            _ => None,
        })
        .collect();

    let task_of = task_of_raw.into_iter().map(TaskId).collect();
    Ok(Decomposition {
        tasks,
        bindings,
        task_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::KeyJoinMax;
    use crate::optree::OperatorTree;
    use crate::plan::PlanTree;
    use crate::relation::Catalog;
    use mrs_core::operator::OperatorKind;

    fn left_deep_tree(n: usize) -> OperatorTree {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..n)
            .map(|i| c.add_relation(format!("r{i}"), 1_000.0 * (i + 1) as f64))
            .collect();
        let p = PlanTree::left_deep(&ids);
        OperatorTree::expand(&p.annotate(&c, &KeyJoinMax))
    }

    fn right_deep_tree(n: usize) -> OperatorTree {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..n)
            .map(|i| c.add_relation(format!("r{i}"), 1_000.0 * (i + 1) as f64))
            .collect();
        let p = PlanTree::right_deep(&ids);
        OperatorTree::expand(&p.annotate(&c, &KeyJoinMax))
    }

    #[test]
    fn single_scan_is_one_task() {
        let mut c = Catalog::new();
        let r = c.add_relation("solo", 100.0);
        let p = PlanTree::scan_only(r);
        let t = OperatorTree::expand(&p.annotate(&c, &KeyJoinMax));
        let d = decompose(&t).unwrap();
        assert_eq!(d.tasks.len(), 1);
        assert!(d.bindings.is_empty());
    }

    #[test]
    fn one_join_gives_two_tasks() {
        let t = left_deep_tree(2);
        let d = decompose(&t).unwrap();
        // {scan_inner, build} and {scan_outer, probe}.
        assert_eq!(d.tasks.len(), 2);
        assert_eq!(d.tasks.height(), 1);
        assert_eq!(d.bindings.len(), 1);
        // The probe's task is the parent of the build's task.
        let probe = d.bindings[0].dependent;
        let build = d.bindings[0].source;
        let build_task = d.task_of[build.0];
        let probe_task = d.task_of[probe.0];
        assert_eq!(d.tasks.nodes()[build_task.0].parent, Some(probe_task));
        assert_eq!(d.tasks.nodes()[probe_task.0].parent, None);
    }

    #[test]
    fn left_deep_chain_probes_share_one_task() {
        // In a left-deep plan all probes pipeline into each other: J build
        // tasks + 1 probe task.
        let j = 5;
        let t = left_deep_tree(j + 1);
        let d = decompose(&t).unwrap();
        assert_eq!(d.tasks.len(), j + 1);
        assert_eq!(d.tasks.height(), 1, "all builds are direct children");
        // The root task contains all probes plus the outer scan.
        let root_task = d
            .tasks
            .nodes()
            .iter()
            .position(|n| n.parent.is_none())
            .unwrap();
        let probes_in_root = d.tasks.nodes()[root_task]
            .ops
            .iter()
            .filter(|op| t.node(**op).kind == OperatorKind::Probe)
            .count();
        assert_eq!(probes_in_root, j);
    }

    #[test]
    fn right_deep_chain_nests_build_tasks() {
        // With the join result on the *inner* (build) side, every build
        // waits for the probe below it: tasks form a chain of depth J.
        let t = right_deep_tree(6);
        let d = decompose(&t).unwrap();
        assert_eq!(d.tasks.len(), 6);
        assert_eq!(d.tasks.height(), 5);
    }

    #[test]
    fn bushy_plan_nests_tasks() {
        use crate::plan::{PlanNode, PlanNodeId};
        // ((r0 ⋈ r1) ⋈ (r2 ⋈ r3)): the inner join's probe pipelines into
        // the top build (it's the inner side), so its task is a child of
        // the top task at depth 1, and the build tasks of the two lower
        // joins sit at depth 2.
        let mut c = Catalog::new();
        let r: Vec<_> = (0..4)
            .map(|i| c.add_relation(format!("r{i}"), 1_000.0))
            .collect();
        let nodes = vec![
            PlanNode::Scan(r[0]),
            PlanNode::Scan(r[1]),
            PlanNode::Scan(r[2]),
            PlanNode::Scan(r[3]),
            PlanNode::Join {
                outer: PlanNodeId(0),
                inner: PlanNodeId(1),
            },
            PlanNode::Join {
                outer: PlanNodeId(2),
                inner: PlanNodeId(3),
            },
            PlanNode::Join {
                outer: PlanNodeId(4),
                inner: PlanNodeId(5),
            },
        ];
        let p = PlanTree::new(nodes, PlanNodeId(6)).unwrap();
        let t = OperatorTree::expand(&p.annotate(&c, &KeyJoinMax));
        let d = decompose(&t).unwrap();
        assert_eq!(d.tasks.height(), 2);
        assert_eq!(d.bindings.len(), 3);
    }

    #[test]
    fn every_operator_lands_in_exactly_one_task() {
        let t = left_deep_tree(7);
        let d = decompose(&t).unwrap();
        let mut counted = 0usize;
        for node in d.tasks.nodes() {
            counted += node.ops.len();
        }
        assert_eq!(counted, t.len());
        assert_eq!(d.task_of.len(), t.len());
        // task_of agrees with the node lists.
        for (op_idx, task) in d.task_of.iter().enumerate() {
            assert!(d.tasks.nodes()[task.0].ops.contains(&OperatorId(op_idx)));
        }
    }

    #[test]
    fn bindings_cover_every_join() {
        let t = left_deep_tree(9);
        let d = decompose(&t).unwrap();
        assert_eq!(d.bindings.len(), t.joins().len());
        for b in &d.bindings {
            assert_eq!(t.node(b.dependent).kind, OperatorKind::Probe);
            assert_eq!(t.node(b.source).kind, OperatorKind::Build);
        }
    }

    #[test]
    fn edges_per_join_match_structure() {
        let t = left_deep_tree(4);
        assert_eq!(t.pipeline_edges().count(), 6); // 2 per join
        assert_eq!(t.blocking_edges().count(), 3); // 1 per join
    }

    #[test]
    fn decomposition_is_deterministic() {
        let t = left_deep_tree(6);
        let a = decompose(&t).unwrap();
        let b = decompose(&t).unwrap();
        assert_eq!(a.tasks.nodes(), b.tasks.nodes());
        assert_eq!(a.bindings, b.bindings);
    }
}
