//! Cross-query plan sharing: canonical subtree signatures and the
//! fragment-splicing TREESCHEDULE entry point (`tree_schedule_shared`).
//!
//! Template-heavy multi-query workloads overlap at a finer grain than
//! whole `(TreeProblem, f)` pairs: concurrently admitted queries share
//! rooted *subtrees* of their task trees. This module generalizes the
//! whole-plan signature idea to subtrees:
//!
//! * [`SubtreeSig`] is an exact-bits canonical serialization of the task
//!   subtree rooted at one task — operators re-indexed in a canonical
//!   traversal order, children sorted by their own signatures, every
//!   float captured via `to_bits`. Signature equality therefore implies
//!   the two subtrees are *bit-identical scheduling problems* up to
//!   operator renaming, so their sub-schedules are bit-identical too.
//! * [`ScheduleFragment`] is the memoized sub-schedule of one subtree:
//!   one packed [`PhaseSchedule`] per subtree level, operator ids in
//!   canonical form. Splicing a fragment into another query is a pure
//!   id remap — no packing, no degree selection.
//! * [`tree_schedule_shared`] plans a tree bottom-up through a
//!   [`FragmentCache`]: each task subtree is either spliced from the
//!   memo or computed (own pipeline packed alone, children's fragments
//!   concatenated level-wise) and inserted for the next query.
//!
//! ## Relation to `tree_schedule`
//!
//! The shared planner is a *different deterministic strategy*, not a
//! drop-in replay of [`crate::tree::tree_schedule_with`]: the
//! phased scheduler packs all tasks of a shelf level together (one
//! list-scheduling pass over the concatenated operator list), so a
//! subtree's packing depends on its siblings and cannot be reused
//! across queries. The shared planner instead packs each task's
//! pipeline alone and composes phases by concatenation, recomputing
//! each merged level's makespan under the fluid model. Merged phases
//! may time-share sites across fragments — legal under Definition 5.1,
//! which only forbids two clones of *one* operator from sharing a site.
//! The guarantee that matters for correctness is internal consistency:
//! equal signatures yield bit-identical fragments, so a warm cache
//! produces exactly the schedule a cold cache would (swept in
//! `tests/mqo_sharing.rs::warm_splices_reproduce_cold_plans_bit_for_bit`
//! and this module's `warm_cache_splices_and_reproduces_the_cold_schedule`).
//!
//! Signatures deliberately exclude the system spec, communication
//! model, and response model — a [`FragmentCache`] is scoped to one
//! fixed environment, exactly like the runtime's whole-plan signature
//! cache. The granularity `f` and the governed degree cap *are*
//! encoded (`of_capped` discipline), so governed plans never collide
//! with full-width ones.

use crate::comm::CommModel;
use crate::error::ScheduleError;
use crate::list::{schedule_with_degrees_in, ListOrder, PackScratch};
use crate::model::ResponseModel;
use crate::operator::{OperatorId, Placement};
use crate::resource::SystemSpec;
use crate::schedule::{Assignment, PhaseSchedule};
use crate::tree::{coarse_degrees, HomeBindings, TreeProblem, TreeScheduleResult};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;

/// A 64-bit fold of a word sequence, one multiply per word: rotate,
/// xor the word in, multiply by an odd constant (the FxHash step). A
/// byte-wise FNV-1a fold takes eight dependent multiplies per word,
/// which for a cold plan's several thousand words costs a fifth of the
/// planning itself; this costs a few percent. Any single-word change
/// changes the result, since each step is a bijection of the state.
///
/// It folds [`SubtreeSig`]s and the runtime's plan signatures, plan
/// digests and fragment digests, and keys the runtime's memo tables.
/// As a [`Hasher`] it folds bytes in native-endian 8-byte words, the
/// layout `Hash` gives a `u64` slice.
#[derive(Clone, Copy, Debug)]
pub struct WordFold(u64);

impl WordFold {
    /// The empty fold.
    pub fn new() -> Self {
        WordFold(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in.
    #[inline]
    pub fn push(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The fold of `words`.
    pub fn of(words: &[u64]) -> u64 {
        let mut h = WordFold::new();
        words.iter().for_each(|&w| h.push(w));
        h.0
    }
}

impl Default for WordFold {
    fn default() -> Self {
        WordFold::new()
    }
}

impl Hasher for WordFold {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.push(u64::from_ne_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.push(u64::from_ne_bytes(w));
        }
    }
}

/// Exact-bits canonical signature of one task subtree (see module docs).
///
/// Equality implies the subtrees are identical scheduling problems up
/// to operator renaming; the canonical traversal order makes the
/// renaming itself reconstructible, which is what lets a memoized
/// fragment be spliced into a different query.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubtreeSig(Vec<u64>);

impl SubtreeSig {
    /// The raw signature words (for hashing into compact trace fields).
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// The [`WordFold`] of the signature words: a compact 64-bit tag for
    /// audit-trace events, one multiply per word. Collisions only weaken
    /// the audit check, never the cache itself (the cache keys on the
    /// full signature).
    pub fn hash64(&self) -> u64 {
        WordFold::of(&self.0)
    }
}

/// The memoized sub-schedule of one task subtree.
///
/// `levels[k]` is the packed schedule of every subtree task at depth
/// `k` below the subtree root (`levels[0]` is the root task's own
/// pipeline), with descendants concatenated in canonical child order.
/// Operator ids are *canonical*: the position of the operator in the
/// subtree's canonical preorder traversal. Splicing rewrites them to
/// the target query's actual ids and changes nothing else.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleFragment {
    /// Per-subtree-level packings in canonical id space.
    pub levels: Vec<PhaseSchedule>,
}

/// A memo of subtree fragments keyed by canonical signature.
///
/// The runtime implements this over its schedule cache, recording
/// every splice and insert on its audit trace; tests use
/// [`MapFragmentCache`]. A `get` may have side effects (trace
/// recording) — the planner calls it at most once per subtree.
pub trait FragmentCache {
    /// Looks up a fragment; `None` on miss.
    fn get_fragment(&mut self, sig: &SubtreeSig) -> Option<Arc<ScheduleFragment>>;
    /// Memoizes a freshly computed fragment under its signature.
    fn insert_fragment(&mut self, sig: SubtreeSig, fragment: Arc<ScheduleFragment>);
}

/// Plain in-memory fragment memo — for offline MQO planning and tests.
/// The runtime's traced memo lives in `mrs-runtime`.
#[derive(Default, Debug)]
pub struct MapFragmentCache {
    map: BTreeMap<SubtreeSig, Arc<ScheduleFragment>>,
}

impl MapFragmentCache {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized fragments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl FragmentCache for MapFragmentCache {
    fn get_fragment(&mut self, sig: &SubtreeSig) -> Option<Arc<ScheduleFragment>> {
        self.map.get(sig).cloned()
    }

    fn insert_fragment(&mut self, sig: SubtreeSig, fragment: Arc<ScheduleFragment>) {
        self.map.insert(sig, fragment);
    }
}

/// Counters one [`tree_schedule_shared`] call accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Subtree memo hits (one per spliced subtree).
    pub subtree_hits: u64,
    /// Memo lookups that missed (fragmentable subtrees computed fresh).
    pub subtree_misses: u64,
    /// Total phase schedules taken from the memo across all splices.
    pub fragments_spliced: u64,
    /// Task pipelines actually packed by this call — the unit of
    /// planning work sharing avoids (an unshared plan packs every task).
    pub tasks_planned: u64,
}

/// Per-task canonical metadata computed once per problem.
struct SubtreeIndex {
    /// Canonical signature of each task's subtree.
    sigs: Vec<SubtreeSig>,
    /// Whether the subtree may be memoized (no inbound binding whose
    /// source lies outside the subtree).
    fragmentable: Vec<bool>,
    /// Children of each task in canonical order (sorted by child
    /// signature, ties by original index).
    canon_children: Vec<Vec<usize>>,
    /// Actual operator ids of each subtree in canonical preorder — the
    /// id remap table for splicing.
    canon_ops: Vec<Vec<OperatorId>>,
}

/// Placement-aware operator serialization shared by every signature.
fn push_op(out: &mut Vec<u64>, problem: &TreeProblem, op: OperatorId) {
    let spec = &problem.ops[op.0];
    out.push(spec.kind as u64);
    let comps = spec.processing.components();
    out.push(comps.len() as u64);
    for c in comps {
        out.push(c.to_bits());
    }
    out.push(spec.data_volume.to_bits());
    match &spec.placement {
        Placement::Floating => out.push(0),
        Placement::Rooted(homes) => {
            out.push(1 + homes.len() as u64);
            for h in homes {
                out.push(h.0 as u64);
            }
        }
    }
}

/// Marks an operator or task outside the subtree being serialized in
/// [`SubtreeIndex::build`]'s position tables.
const OUTSIDE: u64 = u64::MAX;

impl SubtreeIndex {
    /// Builds signatures bottom-up. `problem` must already validate, so
    /// its operator table is dense and every binding end lies in a task:
    /// the tables below index by operator and task id.
    fn build(problem: &TreeProblem, f: f64, cap: Option<usize>) -> Self {
        let n = problem.tasks.len();
        let nodes = problem.tasks.nodes();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (t, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                children[p.0].push(t);
            }
        }
        // Task owning each operator.
        let mut task_of = vec![usize::MAX; problem.ops.len()];
        for (t, node) in nodes.iter().enumerate() {
            for op in &node.ops {
                task_of[op.0] = t;
            }
        }
        // Each binding's (dependent task, source task), computed once.
        let binding_tasks: Vec<(usize, usize)> = problem
            .bindings
            .iter()
            .map(|b| (task_of[b.dependent.0], task_of[b.source.0]))
            .collect();

        let mut sigs: Vec<Option<SubtreeSig>> = vec![None; n];
        let mut fragmentable = vec![true; n];
        let mut canon_children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut canon_ops: Vec<Vec<OperatorId>> = vec![Vec::new(); n];
        // Per-subtree scratch: each task's and operator's canonical
        // position in the subtree being serialized, `OUTSIDE` for the
        // rest; reset after every subtree.
        let mut task_pos = vec![OUTSIDE; n];
        let mut op_pos = vec![OUTSIDE; problem.ops.len()];
        let mut tasks_pre: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut out: Vec<u64> = Vec::new();
        let mut internal: Vec<(u64, u64)> = Vec::new();
        let mut escaping: Vec<(u64, OperatorId)> = Vec::new();
        let mut inbound: Vec<u64> = Vec::new();
        // Deepest tasks first so every child is resolved before its
        // parent sorts them.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(problem.tasks.depth(crate::tasks::TaskId(t))));
        for &t in &order {
            // Canonical child order: by child signature, ties by index.
            let mut kids = children[t].clone();
            kids.sort_by(|&a, &b| {
                sigs[a]
                    .as_ref()
                    .expect("children resolved before parents")
                    .cmp(sigs[b].as_ref().expect("children resolved before parents"))
                    .then(a.cmp(&b))
            });

            // Canonical preorder: own ops first, then each child's
            // canonical ops.
            let mut ops: Vec<OperatorId> = nodes[t].ops.clone();
            for &c in &kids {
                ops.extend_from_slice(&canon_ops[c]);
            }
            // Canonical preorder of tasks, for parent pointers.
            tasks_pre.clear();
            tasks_pre.push(t);
            stack.extend(kids.iter().rev());
            while let Some(u) = stack.pop() {
                tasks_pre.push(u);
                stack.extend(canon_children[u].iter().rev());
            }
            for (i, &u) in tasks_pre.iter().enumerate() {
                task_pos[u] = i as u64;
            }
            for (i, o) in ops.iter().enumerate() {
                op_pos[o.0] = i as u64;
            }

            out.clear();
            out.push(f.to_bits());
            out.push(cap.map_or(0, |c| c as u64 + 1));
            out.push(tasks_pre.len() as u64);
            for &u in &tasks_pre {
                out.push(if u == t {
                    u64::MAX
                } else {
                    task_pos[nodes[u]
                        .parent
                        .expect("non-root subtree task has a parent")
                        .0]
                });
                out.push(nodes[u].ops.len() as u64);
                for op in &nodes[u].ops {
                    push_op(&mut out, problem, *op);
                }
            }

            // Bindings relative to this subtree. Inside = the operator's
            // task appears in the canonical preorder.
            internal.clear();
            escaping.clear();
            inbound.clear();
            for (b, &(dt, st)) in problem.bindings.iter().zip(&binding_tasks) {
                match (task_pos[dt] != OUTSIDE, task_pos[st] != OUTSIDE) {
                    (true, true) => internal.push((op_pos[b.dependent.0], op_pos[b.source.0])),
                    (false, true) => escaping.push((op_pos[b.source.0], b.dependent)),
                    (true, false) => {
                        // The dependent's placement is dictated by an
                        // operator outside the subtree: its content
                        // cannot determine the sub-schedule, so this
                        // subtree is never memoized. The marker keeps
                        // the serialization deterministic for the
                        // canonical child sort.
                        fragmentable[t] = false;
                        inbound.push(op_pos[b.dependent.0]);
                    }
                    (false, false) => {}
                }
            }
            internal.sort_unstable();
            out.push(internal.len() as u64);
            for &(d, s) in &internal {
                out.push(d);
                out.push(s);
            }
            // An escaping source's degree is sized by the combined
            // build+probe operator (`coupled_degree`), so the outside
            // dependent's work vector and volume are part of the
            // subtree's scheduling content.
            escaping.sort_unstable_by_key(|(s, dep)| (*s, dep.0));
            out.push(escaping.len() as u64);
            for &(s, dep) in &escaping {
                out.push(s);
                push_op(&mut out, problem, dep);
            }
            inbound.sort_unstable();
            out.push(inbound.len() as u64);
            out.extend_from_slice(&inbound);

            for &u in &tasks_pre {
                task_pos[u] = OUTSIDE;
            }
            for o in &ops {
                op_pos[o.0] = OUTSIDE;
            }
            // A subtree containing a non-fragmentable subtree is itself
            // only fragmentable if the offending binding closed inside
            // it — which the (true, false) scan above already decided,
            // so nothing to inherit.
            sigs[t] = Some(SubtreeSig(out.clone()));
            canon_children[t] = kids;
            canon_ops[t] = ops;
        }

        SubtreeIndex {
            sigs: sigs
                .into_iter()
                .map(|s| s.expect("every task visited"))
                .collect(),
            fragmentable,
            canon_children,
            canon_ops,
        }
    }
}

/// The canonical subtree signature of every task of `problem` under
/// granularity `f` and governed cap `cap`, in task-index order. Exposed
/// for workload/overlap diagnostics and property tests; the planner
/// computes the same index internally.
pub fn subtree_signatures(
    problem: &TreeProblem,
    f: f64,
    cap: Option<usize>,
) -> Result<Vec<SubtreeSig>, ScheduleError> {
    problem.validate()?;
    Ok(SubtreeIndex::build(problem, f, cap).sigs)
}

/// Appends `src`'s operators and homes onto level `k` of `levels`,
/// growing it with empty phases as needed.
fn concat_at(levels: &mut Vec<PhaseSchedule>, k: usize, src: PhaseSchedule) {
    while levels.len() <= k {
        levels.push(empty_phase());
    }
    levels[k].ops.extend(src.ops);
    levels[k].assignment.homes.extend(src.assignment.homes);
}

/// An empty packed phase.
fn empty_phase() -> PhaseSchedule {
    PhaseSchedule {
        ops: Vec::new(),
        assignment: Assignment::with_capacity(0),
    }
}

/// TREESCHEDULE with cross-query subtree sharing (see module docs).
///
/// Plans `problem` bottom-up: each task subtree is spliced from
/// `cache` when its canonical signature hits, otherwise computed (the
/// task's own pipeline packed alone at governed degrees, children's
/// fragments concatenated level-wise) and memoized. Phase makespans
/// are evaluated once per merged level; phases run deepest-first and
/// the response time is their sum, exactly as in
/// [`crate::tree::tree_schedule`].
///
/// Determinism: for a fixed problem, environment, and cache *state*,
/// the result is bit-exact; and because signature equality implies
/// bit-identical fragments, the result is the same for ANY cache state
/// — a warm cache only skips work (see the [module
/// docs](crate::shared)). The memo's state moves only what the cache
/// records: which subtrees are spliced or inserted, and the returned
/// [`SharedStats`].
///
/// # Errors
/// Propagates structural problems from [`TreeProblem::validate`] and
/// packing failures. Binding sources must lie inside the subtree of
/// their dependent's root task (true for every plan the workload
/// generators emit); a cross-subtree source that has not been placed
/// when its dependent packs is reported as a malformed task graph.
#[allow(clippy::too_many_arguments)]
pub fn tree_schedule_shared<M: ResponseModel, C: FragmentCache>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
    cap: Option<usize>,
    cache: &mut C,
) -> Result<(TreeScheduleResult, SharedStats), ScheduleError> {
    let mut bindings = HomeBindings::new(problem)?;
    let nodes = problem.tasks.nodes();
    let n = nodes.len();
    let index = SubtreeIndex::build(problem, f, cap);

    // Canonical position of each operator of the subtree being
    // memoized; entries outside it are stale and never read.
    let mut canon_pos: Vec<usize> = vec![0; problem.ops.len()];

    let mut stats = SharedStats::default();
    let mut frags: Vec<Option<Vec<PhaseSchedule>>> = (0..n).map(|_| None).collect();
    let mut scratch = PackScratch::new();

    enum Visit {
        Enter(usize),
        Exit(usize),
    }
    let mut stack: Vec<Visit> = Vec::new();
    let roots: Vec<usize> = (0..n).filter(|&t| nodes[t].parent.is_none()).collect();
    for &r in roots.iter().rev() {
        stack.push(Visit::Enter(r));
    }

    while let Some(v) = stack.pop() {
        match v {
            Visit::Enter(t) => {
                if index.fragmentable[t] {
                    if let Some(frag) = cache.get_fragment(&index.sigs[t]) {
                        // Splice: clone the canonical fragment and remap
                        // canonical operator ids onto this query's ids.
                        let remap = &index.canon_ops[t];
                        let mut levels = frag.levels.clone();
                        for ph in &mut levels {
                            for sop in &mut ph.ops {
                                sop.spec.id = remap[sop.spec.id.0];
                            }
                        }
                        for ph in &levels {
                            bindings.place(ph);
                        }
                        stats.subtree_hits += 1;
                        stats.fragments_spliced += levels.len() as u64;
                        frags[t] = Some(levels);
                        continue;
                    }
                    stats.subtree_misses += 1;
                }
                stack.push(Visit::Exit(t));
                for &c in index.canon_children[t].iter().rev() {
                    stack.push(Visit::Enter(c));
                }
            }
            Visit::Exit(t) => {
                // Own pipeline, packed alone at governed degrees.
                let own = if nodes[t].ops.is_empty() {
                    empty_phase()
                } else {
                    let mut phase = Vec::with_capacity(nodes[t].ops.len());
                    for &id in &nodes[t].ops {
                        phase.push((bindings.spec(id)?, bindings.dependent(id)));
                    }
                    let ph = schedule_with_degrees_in(
                        &mut scratch,
                        coarse_degrees(phase, f, sys, comm, model, cap),
                        sys,
                        comm,
                        ListOrder::LongestFirst,
                    )?;
                    bindings.place(&ph);
                    stats.tasks_planned += 1;
                    ph
                };

                // Merge children level-wise in canonical order.
                let mut levels = vec![own];
                for &c in &index.canon_children[t] {
                    let child = frags[c].take().expect("children exit before parents");
                    for (k, ph) in child.into_iter().enumerate() {
                        concat_at(&mut levels, k + 1, ph);
                    }
                }

                if index.fragmentable[t] {
                    // Canonicalize ids (actual -> preorder position) and
                    // memoize for the next query.
                    for (i, o) in index.canon_ops[t].iter().enumerate() {
                        canon_pos[o.0] = i;
                    }
                    let mut canon = levels.clone();
                    for ph in &mut canon {
                        for sop in &mut ph.ops {
                            sop.spec.id = OperatorId(canon_pos[sop.spec.id.0]);
                        }
                    }
                    cache.insert_fragment(
                        index.sigs[t].clone(),
                        Arc::new(ScheduleFragment { levels: canon }),
                    );
                }
                frags[t] = Some(levels);
            }
        }
    }

    // Merge root fragments into absolute levels (root depth is 0), then
    // evaluate deepest-first.
    let mut by_level: Vec<PhaseSchedule> = Vec::new();
    for &r in &roots {
        let levels = frags[r].take().expect("roots are processed");
        for (k, ph) in levels.into_iter().enumerate() {
            concat_at(&mut by_level, k, ph);
        }
    }

    let mut result = TreeScheduleResult::default();
    for (level, schedule) in by_level.into_iter().enumerate().rev() {
        if !schedule.ops.is_empty() {
            result.push_phase(level, schedule, sys, model);
        }
    }
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorKind, OperatorSpec};
    use crate::rng::DetRng;
    use crate::tasks::{HomeBinding, TaskGraph, TaskId, TaskNode};
    use crate::tree::tree_schedule;
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

    /// scan+build feeding scan+probe (the `tree` module's fixture).
    fn one_join_problem() -> TreeProblem {
        let ops = vec![
            op(0, OperatorKind::Scan, &[2.0, 4.0, 0.0], 1_000_000.0),
            op(1, OperatorKind::Build, &[1.0, 0.0, 0.0], 1_000_000.0),
            op(2, OperatorKind::Scan, &[3.0, 6.0, 0.0], 2_000_000.0),
            op(3, OperatorKind::Probe, &[2.5, 0.0, 0.0], 3_000_000.0),
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

    /// A random chain-of-joins problem whose leaf subtree content is
    /// derived from `leaf_seed` — two problems built from the same leaf
    /// seed share their deepest subtree bit-for-bit.
    fn chain_problem(depth: usize, leaf_seed: u64, top_seed: u64) -> TreeProblem {
        let mut ops = Vec::new();
        let mut tasks = Vec::new();
        let mut bindings = Vec::new();
        let mut rng_leaf = DetRng::seed_from_u64(leaf_seed);
        let mut rng_top = DetRng::seed_from_u64(top_seed);
        // Deepest task first in generation, but task 0 is the root so
        // build parent pointers accordingly: task i's parent is i-1.
        for level in 0..depth {
            let rng = if level + 1 == depth {
                &mut rng_leaf
            } else {
                &mut rng_top
            };
            let a = ops.len();
            let w = rng.gen_range(1.0..4.0f64);
            let v = rng.gen_range(1e5..1e6f64);
            ops.push(op(a, OperatorKind::Scan, &[w, w / 2.0, 0.0], v));
            ops.push(op(a + 1, OperatorKind::Build, &[w / 3.0, 0.0, 0.0], v));
            tasks.push(TaskNode {
                ops: vec![OperatorId(a), OperatorId(a + 1)],
                parent: if level == 0 {
                    None
                } else {
                    Some(TaskId(level - 1))
                },
            });
            if level > 0 {
                // The build at this (deeper) level roots a probe in the
                // parent task; model that with a probe op appended to
                // the parent.
                let parent_probe = ops.len();
                let pw = if level + 1 == depth {
                    2.5
                } else {
                    rng_top.gen_range(1.0..3.0f64)
                };
                ops.push(op(parent_probe, OperatorKind::Probe, &[pw, 0.0, 0.0], v));
                tasks[level - 1].ops.push(OperatorId(parent_probe));
                bindings.push(HomeBinding {
                    dependent: OperatorId(parent_probe),
                    source: OperatorId(a + 1),
                });
            }
        }
        // Re-number operators densely in table order.
        let tasks = TaskGraph::new(tasks).unwrap();
        let p = TreeProblem {
            ops,
            tasks,
            bindings,
        };
        p.validate().unwrap();
        p
    }

    #[test]
    fn cold_shared_schedule_is_valid_and_deterministic() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let mut c1 = MapFragmentCache::new();
        let (r1, s1) =
            tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, None, &mut c1).unwrap();
        assert_eq!(r1.phases.len(), 2);
        assert_eq!(r1.phases[0].level, 1, "deepest phase first");
        for p in &r1.phases {
            p.schedule.validate(&sys).unwrap();
        }
        assert_eq!(s1.subtree_hits, 0);
        assert_eq!(s1.tasks_planned, 2);
        assert!(s1.subtree_misses > 0);
        // Probe co-located with its build.
        assert_eq!(r1.homes_of(OperatorId(3)), r1.homes_of(OperatorId(1)));
        let mut c2 = MapFragmentCache::new();
        let (r2, _) =
            tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, None, &mut c2).unwrap();
        assert_eq!(
            r1.response_time.to_bits(),
            r2.response_time.to_bits(),
            "cold runs are bit-identical"
        );
    }

    #[test]
    fn warm_cache_splices_and_reproduces_the_cold_schedule() {
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let mut cache = MapFragmentCache::new();
        let (cold, _) =
            tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, None, &mut cache).unwrap();
        let (warm, stats) =
            tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, None, &mut cache).unwrap();
        assert!(stats.subtree_hits > 0, "second pass must splice");
        assert_eq!(stats.tasks_planned, 0, "nothing re-packed on a full hit");
        assert_eq!(cold.response_time.to_bits(), warm.response_time.to_bits());
        assert_eq!(cold.phases.len(), warm.phases.len());
        for (a, b) in cold.phases.iter().zip(&warm.phases) {
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.schedule, b.schedule);
        }
    }

    #[test]
    fn shared_leaf_subtrees_splice_across_different_queries() {
        let (sys, comm, model) = setup();
        // Same deep-leaf content, different tops.
        let q1 = chain_problem(3, 7, 100);
        let q2 = chain_problem(3, 7, 200);
        let sig1 = subtree_signatures(&q1, 0.7, None).unwrap();
        let sig2 = subtree_signatures(&q2, 0.7, None).unwrap();
        // The deepest task (index 2 in both) shares content... but its
        // escaping binding context (the parent probe) also matches by
        // construction, so the signatures agree.
        assert_eq!(sig1[2], sig2[2], "shared leaf subtree signs equal");
        assert_ne!(sig1[0], sig2[0], "roots differ");

        let mut cache = MapFragmentCache::new();
        let (r1, s1) =
            tree_schedule_shared(&q1, 0.7, &sys, &comm, &model, None, &mut cache).unwrap();
        assert_eq!(s1.subtree_hits, 0);
        let (r2, s2) =
            tree_schedule_shared(&q2, 0.7, &sys, &comm, &model, None, &mut cache).unwrap();
        assert!(s2.subtree_hits >= 1, "q2 must splice q1's leaf fragment");
        assert!(
            s2.tasks_planned < s1.tasks_planned,
            "splicing must save planning work"
        );
        // The spliced sub-schedule is bit-identical to q1's: compare the
        // deepest phases (leaf ops are ids 0/1 in q1's leaf task vs the
        // same positions in q2).
        let leaf1 = &r1.phases[0];
        let leaf2 = &r2.phases[0];
        assert_eq!(leaf1.makespan.to_bits(), leaf2.makespan.to_bits());
        // And the whole warm q2 equals a cold q2.
        let mut cold_cache = MapFragmentCache::new();
        let (r2_cold, _) =
            tree_schedule_shared(&q2, 0.7, &sys, &comm, &model, None, &mut cold_cache).unwrap();
        assert_eq!(r2.response_time.to_bits(), r2_cold.response_time.to_bits());
        for (a, b) in r2.phases.iter().zip(&r2_cold.phases) {
            assert_eq!(a.schedule, b.schedule, "splice == fresh computation");
        }
    }

    #[test]
    fn equal_signatures_imply_bit_identical_fragments() {
        // Property sweep: random chain problems with overlapping leaf
        // seeds; wherever two subtree signatures collide, their
        // memoized fragments must be bit-identical.
        let (sys, comm, model) = setup();
        let mut frag_of: BTreeMap<SubtreeSig, Arc<ScheduleFragment>> = BTreeMap::new();
        for seed in 0..12u64 {
            let p = chain_problem(2 + (seed as usize % 3), seed % 4, 1000 + seed);
            let mut cache = MapFragmentCache::new();
            tree_schedule_shared(&p, 0.7, &sys, &comm, &model, None, &mut cache).unwrap();
            for (sig, frag) in cache.map {
                if let Some(prev) = frag_of.get(&sig) {
                    assert_eq!(
                        **prev, *frag,
                        "signature equality must imply bit-identical fragments"
                    );
                } else {
                    frag_of.insert(sig, frag);
                }
            }
        }
        assert!(
            frag_of.len() < 12 * 4,
            "the sweep must actually produce signature collisions"
        );
    }

    #[test]
    fn governed_cap_keys_the_signature() {
        let problem = one_join_problem();
        let a = subtree_signatures(&problem, 0.7, None).unwrap();
        let b = subtree_signatures(&problem, 0.7, Some(2)).unwrap();
        let c = subtree_signatures(&problem, 0.5, None).unwrap();
        assert_ne!(a[0], b[0], "cap must key the signature");
        assert_ne!(a[0], c[0], "granularity must key the signature");
        // And capped shared plans respect the cap.
        let (sys, comm, model) = setup();
        let mut cache = MapFragmentCache::new();
        let (capped, _) =
            tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, Some(2), &mut cache).unwrap();
        for id in 0..4 {
            assert!(capped.degree_of(OperatorId(id)).unwrap() <= 2);
        }
    }

    #[test]
    fn shared_response_is_in_the_governed_ballpark() {
        // Not bit-identical (different packing granularity), but the
        // per-task composition cannot be wildly off the phase packing.
        let (sys, comm, model) = setup();
        let problem = one_join_problem();
        let governed = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let mut cache = MapFragmentCache::new();
        let (shared, _) =
            tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, None, &mut cache).unwrap();
        let ratio = shared.response_time / governed.response_time;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "shared {} vs governed {}",
            shared.response_time,
            governed.response_time
        );
    }

    #[test]
    fn every_word_moves_the_fold() {
        let base = WordFold::of(&[1, 2, 3]);
        assert_eq!(base, WordFold::of(&[1, 2, 3]));
        assert_ne!(base, WordFold::of(&[1, 2, 4]));
        assert_ne!(base, WordFold::of(&[2, 1, 3]));
        assert_ne!(base, WordFold::of(&[1, 2, 3, 0]));
    }

    #[test]
    fn a_short_tail_is_zero_padded_into_one_word() {
        let mut tail = WordFold::new();
        tail.write(&[1, 2, 3]);
        assert_eq!(
            tail.finish(),
            WordFold::of(&[u64::from_ne_bytes([1, 2, 3, 0, 0, 0, 0, 0])])
        );
    }

    #[test]
    fn sig_hash_is_stable_and_content_sensitive() {
        let problem = one_join_problem();
        let sigs = subtree_signatures(&problem, 0.7, None).unwrap();
        assert_eq!(sigs[0].hash64(), sigs[0].hash64());
        assert_ne!(sigs[0].hash64(), sigs[1].hash64());
        assert!(!sigs[0].words().is_empty());
    }
}
