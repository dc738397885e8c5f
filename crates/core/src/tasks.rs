//! Query task graphs: the scheduler-facing form of a query task tree
//! (Section 3.1, Figure 1(c)).
//!
//! A *query task* is a maximal pipeline of operators; edges between tasks
//! are *blocking* constraints (a child task must complete before its parent
//! starts). [`TaskGraph`] is a forest of such tasks. The MinShelf phase
//! assignment of Tan & Lu \[TL93\] used by TREESCHEDULE (Section 5.4) places
//! each task in the phase closest to the root that respects the blocking
//! constraints — i.e. phase = depth from the root, executed deepest first.

use crate::error::ScheduleError;
use crate::operator::OperatorId;
use std::fmt;

/// Identifier of a task within a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One query task: a pipeline of concurrently executing operators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskNode {
    /// Operators forming the pipeline.
    pub ops: Vec<OperatorId>,
    /// The task this one blocks (its consumer), or `None` for a root.
    pub parent: Option<TaskId>,
}

/// A forest of query tasks connected by blocking edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
    depths: Vec<usize>,
}

impl TaskGraph {
    /// Builds and validates a task graph.
    ///
    /// # Errors
    /// [`ScheduleError::MalformedTaskGraph`] when a parent pointer is out
    /// of range, points at the node itself, or the parent chain contains a
    /// cycle; also when an operator appears in more than one task.
    pub fn new(nodes: Vec<TaskNode>) -> Result<Self, ScheduleError> {
        let n = nodes.len();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(TaskId(p)) = node.parent {
                if p >= n {
                    return Err(ScheduleError::MalformedTaskGraph {
                        detail: format!("task T{i} has out-of-range parent T{p}"),
                    });
                }
                if p == i {
                    return Err(ScheduleError::MalformedTaskGraph {
                        detail: format!("task T{i} is its own parent"),
                    });
                }
            }
        }
        // Depth from root via an iterative memoized parent walk; each node
        // is visited once, and a node re-encountered while its own chain is
        // still open is a cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unvisited,
            InChain,
            Done,
        }
        let mut state = vec![State::Unvisited; n];
        let mut depths = vec![0usize; n];
        for start in 0..n {
            if state[start] == State::Done {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = start;
            // `base` = depth of the first already-resolved ancestor, or
            // None when the chain reaches a root.
            let base = loop {
                match state[cur] {
                    State::Done => break Some(depths[cur]),
                    State::InChain => {
                        return Err(ScheduleError::MalformedTaskGraph {
                            detail: format!("cycle through task T{cur}"),
                        });
                    }
                    State::Unvisited => {
                        state[cur] = State::InChain;
                        chain.push(cur);
                        match nodes[cur].parent {
                            Some(TaskId(p)) => cur = p,
                            None => break None,
                        }
                    }
                }
            };
            // chain.last() is nearest the root; assign outward.
            let first_depth = base.map_or(0, |b| b + 1);
            for (offset, &t) in chain.iter().rev().enumerate() {
                depths[t] = first_depth + offset;
                state[t] = State::Done;
            }
        }

        // No operator may belong to two tasks.
        let mut seen = std::collections::BTreeSet::new();
        for (i, node) in nodes.iter().enumerate() {
            for op in &node.ops {
                if !seen.insert(*op) {
                    return Err(ScheduleError::MalformedTaskGraph {
                        detail: format!(
                            "operator {op} appears in more than one task (second: T{i})"
                        ),
                    });
                }
            }
        }

        Ok(TaskGraph { nodes, depths })
    }

    /// A graph with a single task holding all of `ops` (a pure
    /// independent-operator problem).
    pub fn single_task(ops: Vec<OperatorId>) -> Self {
        TaskGraph::new(vec![TaskNode { ops, parent: None }]).expect("one root task is always valid")
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tasks.
    pub fn nodes(&self) -> &[TaskNode] {
        &self.nodes
    }

    /// Depth of `t` from its root (roots have depth 0) — the MinShelf
    /// phase index of the task.
    pub fn depth(&self, t: TaskId) -> usize {
        self.depths[t.0]
    }

    /// Height: the maximum depth (0 for an empty graph).
    pub fn height(&self) -> usize {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Tasks grouped by depth: `levels()[d]` holds every task of depth
    /// `d`. TREESCHEDULE executes `levels` from last (deepest) to first.
    pub fn levels(&self) -> Vec<Vec<TaskId>> {
        let mut levels = vec![Vec::new(); self.height() + 1];
        for (i, &d) in self.depths.iter().enumerate() {
            levels[d].push(TaskId(i));
        }
        levels
    }

    /// All operator ids of all tasks at a given depth.
    pub fn ops_at_level(&self, level: usize) -> Vec<OperatorId> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if self.depths[i] == level {
                out.extend_from_slice(&node.ops);
            }
        }
        out
    }

    /// Height of every task above its deepest leaf descendant: leaves are
    /// 0, a parent is `1 + max(children)`. The ASAP shelf index — a task
    /// can run as soon as everything below it has (its height counts the
    /// blocking steps that must precede it).
    pub fn heights_from_leaves(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut heights = vec![0usize; n];
        // Children complete before parents; process deepest-first so every
        // child is final before its parent accumulates it.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(self.depths[t]));
        for &t in &order {
            if let Some(TaskId(p)) = self.nodes[t].parent {
                heights[p] = heights[p].max(heights[t] + 1);
            }
        }
        heights
    }
}

/// A data-placement dependency across phases (Section 5.5): `dependent`
/// (e.g. a hash-join probe) must execute at the home of `source` (the
/// build that produced its hash table), with the same degree of
/// parallelism and per-site partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HomeBinding {
    /// The operator whose placement is dictated (runs in a later phase).
    pub dependent: OperatorId,
    /// The operator whose home is inherited (runs in an earlier phase).
    pub source: OperatorId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<OperatorId> {
        v.iter().map(|&i| OperatorId(i)).collect()
    }

    /// Figure 1(c): tasks T1..T4 feed T5.
    fn figure_1_graph() -> TaskGraph {
        TaskGraph::new(vec![
            TaskNode {
                ops: ids(&[0]),
                parent: Some(TaskId(4)),
            },
            TaskNode {
                ops: ids(&[1]),
                parent: Some(TaskId(4)),
            },
            TaskNode {
                ops: ids(&[2]),
                parent: Some(TaskId(4)),
            },
            TaskNode {
                ops: ids(&[3]),
                parent: Some(TaskId(4)),
            },
            TaskNode {
                ops: ids(&[4, 5]),
                parent: None,
            },
        ])
        .unwrap()
    }

    #[test]
    fn figure_1_has_two_phases() {
        let g = figure_1_graph();
        assert_eq!(g.height(), 1);
        let levels = g.levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0], vec![TaskId(4)]);
        assert_eq!(levels[1], vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn ops_at_level_flattens_tasks() {
        let g = figure_1_graph();
        assert_eq!(g.ops_at_level(0), ids(&[4, 5]));
        assert_eq!(g.ops_at_level(1), ids(&[0, 1, 2, 3]));
    }

    #[test]
    fn chain_depths() {
        let g = TaskGraph::new(vec![
            TaskNode {
                ops: ids(&[0]),
                parent: None,
            },
            TaskNode {
                ops: ids(&[1]),
                parent: Some(TaskId(0)),
            },
            TaskNode {
                ops: ids(&[2]),
                parent: Some(TaskId(1)),
            },
        ])
        .unwrap();
        assert_eq!(g.depth(TaskId(0)), 0);
        assert_eq!(g.depth(TaskId(1)), 1);
        assert_eq!(g.depth(TaskId(2)), 2);
        assert_eq!(g.height(), 2);
    }

    #[test]
    fn forest_allowed() {
        let g = TaskGraph::new(vec![
            TaskNode {
                ops: ids(&[0]),
                parent: None,
            },
            TaskNode {
                ops: ids(&[1]),
                parent: None,
            },
        ])
        .unwrap();
        assert_eq!(g.height(), 0);
        assert_eq!(g.levels()[0].len(), 2);
    }

    #[test]
    fn cycle_detected() {
        let r = TaskGraph::new(vec![
            TaskNode {
                ops: ids(&[0]),
                parent: Some(TaskId(1)),
            },
            TaskNode {
                ops: ids(&[1]),
                parent: Some(TaskId(0)),
            },
        ]);
        assert!(matches!(r, Err(ScheduleError::MalformedTaskGraph { .. })));
    }

    #[test]
    fn self_parent_detected() {
        let r = TaskGraph::new(vec![TaskNode {
            ops: ids(&[0]),
            parent: Some(TaskId(0)),
        }]);
        assert!(matches!(r, Err(ScheduleError::MalformedTaskGraph { .. })));
    }

    #[test]
    fn out_of_range_parent_detected() {
        let r = TaskGraph::new(vec![TaskNode {
            ops: ids(&[0]),
            parent: Some(TaskId(9)),
        }]);
        assert!(matches!(r, Err(ScheduleError::MalformedTaskGraph { .. })));
    }

    #[test]
    fn duplicate_operator_detected() {
        let r = TaskGraph::new(vec![
            TaskNode {
                ops: ids(&[0, 1]),
                parent: None,
            },
            TaskNode {
                ops: ids(&[1]),
                parent: Some(TaskId(0)),
            },
        ]);
        assert!(matches!(r, Err(ScheduleError::MalformedTaskGraph { .. })));
    }

    #[test]
    fn single_task_helper() {
        let g = TaskGraph::single_task(ids(&[0, 1, 2]));
        assert_eq!(g.len(), 1);
        assert_eq!(g.height(), 0);
        assert!(!g.is_empty());
    }

    #[test]
    fn deep_chain_no_stack_overflow_concern() {
        // 10k-deep chain exercises the memoized depth computation.
        let mut nodes = vec![TaskNode {
            ops: vec![],
            parent: None,
        }];
        for i in 1..10_000 {
            nodes.push(TaskNode {
                ops: vec![],
                parent: Some(TaskId(i - 1)),
            });
        }
        // Build with ops empty except uniqueness is trivially satisfied.
        let g = TaskGraph::new(nodes).unwrap();
        assert_eq!(g.height(), 9_999);
    }
}
