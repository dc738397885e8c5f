//! The OPERATORSCHEDULE list-scheduling heuristic (Figure 3, Section 5.3).
//!
//! Scheduling a collection of concurrent operators is an instance of the
//! *d-dimensional bin-design* problem: pack the clone work vectors into `P`
//! d-dimensional bins (sites) minimizing the common bin capacity — the
//! maximum resource usage `max_j l(work(s_j))` — subject to
//!
//! * **(A)** no two clones of one operator in the same bin, and
//! * **(B)** rooted operators sit at their required homes.
//!
//! The list rule: consider floating clone vectors in non-increasing order
//! of their maximum component `l(w̄)`; pack each into the *least filled
//! allowable* site (minimum `l(work(s))` among sites not already holding a
//! clone of the same operator). Theorem 5.1 bounds the resulting makespan
//! within `2d + 1` of the optimum for the given parallelization and within
//! `2d(fd + 1) + 1` of the optimal `CG_f` schedule.
//!
//! The rule is implemented as a *run sweep*: a run is a maximal stretch of
//! consecutive entries of L that belong to one operator, and one ascending
//! pass over the site heap places the whole run. This is exact, not an
//! approximation: placing a clone changes only the chosen site's load, and
//! that site is forbidden for the rest of the run, so the sweep's k-th
//! pick is the least filled allowable site the one-clone-at-a-time rule
//! picks for the run's k-th clone. A site already holding a clone of the
//! operator is therefore skipped once per run rather than once per clone:
//! a run of `m` clones of an operator of degree `N` pops at most `m + N`
//! authoritative heap entries, where placing them one at a time pops up to
//! `m·N`. The list rule stays inside Proposition 5.1's
//! `O(M P (M + log P))` bound and pays its site-skipping term once per run
//! instead of once per clone.
//!
//! Two representations keep the sweep cheap without changing a pick. L is
//! built as groups of consecutive equal-length clones of one operator (an
//! EA1 operator has at most two, the coordinator and the rest), sorted by
//! `(length desc, op, first clone)`; since those keys are distinct, the
//! groups expand to exactly the per-clone list sorted by
//! `(length desc, op, clone)`. And "this site already holds a clone of the
//! operator" is a per-site run stamp, one comparison per popped site.
//!
//! The run sweep is the only code that decides where a clone goes, and
//! [`coarse_degrees`] the only code that decides a degree; the other
//! packers supply only what makes them different. The scalar-load
//! ablation X1 (`mrs-baseline`'s `scalar_list`) packs a projection of
//! its clones onto unit vectors of their totals, and the memory planner
//! X9 ([`crate::memory`]) forbids, before each run, the sites short of
//! the run's per-clone memory share.

use crate::comm::CommModel;
use crate::error::ScheduleError;
use crate::model::ResponseModel;
use crate::operator::{OperatorSpec, Placement};
use crate::partition::CloneWork;
use crate::resource::{SiteId, SystemSpec};
use crate::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
use crate::tree::coarse_degrees;
use crate::vector::WorkVector;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Order in which floating clones are considered by the list rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListOrder {
    /// The paper's rule: non-increasing `l(w̄)` (longest-processing-time
    /// analogue). Required by the Theorem 5.1 proof machinery.
    LongestFirst,
    /// Input order — an ablation knob quantifying how much the LPT
    /// ordering buys (experiment X2).
    Arbitrary,
}

/// `f64` keyed min-heap entry with total ordering.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapKey {
    load: f64,
    site: usize,
}

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load
            .total_cmp(&other.load)
            .then(self.site.cmp(&other.site))
    }
}

/// Consecutive clones `start..end` of operator `op`, all of length
/// `length`: one entry of the list L. Under EA1 an operator has at most
/// two groups (the coordinator and the rest, or one when their lengths
/// tie), so L sorts a few entries per operator rather than one per clone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CloneGroup {
    pub(crate) op: usize,
    pub(crate) start: usize,
    pub(crate) end: usize,
    length: f64,
}

/// Reusable packing state: per-site aggregated load vectors, a lazy
/// min-heap on `l(work(s_j))`, per-site run stamps, and the
/// clone-list/occupancy buffers of [`pack_clones`].
///
/// The heap may hold stale entries (loads only grow); an entry is
/// authoritative only if its key equals the site's current length, and
/// every site always has its authoritative entry in the heap (each load
/// change pushes one), so a stale entry is dropped when popped. A run of
/// `m` clones of an operator of degree `N` pops its `m` picks, at most `N`
/// sites already holding a clone of the operator, and stale entries, each
/// of which is popped once per packing — `O((m + N) log P)` plus the stale
/// entries, against `O(m N log P)` when every clone re-skips the occupied
/// sites. A run never grows the heap: each pick replaces its site's entry.
/// Only rooted pre-placement does, one entry per clone, so the heap is
/// compacted back to one authoritative entry per site before a run
/// whenever it holds more than `2 × sites` entries.
///
/// `stamp[s]` is the number of the last run that marked site `s`. Each
/// run takes a fresh number, marks the sites its operator took in earlier
/// runs (the operator's unsorted occupancy list), then marks every site it
/// picks, so "this site holds a clone of the operator" is one comparison.
/// `list` holds L as `CloneGroup`s.
///
/// Construct one with [`PackScratch::new`] and thread it through
/// [`pack_clones_in`] / [`schedule_with_degrees_in`] to reuse every
/// allocation across phases (as `tree_schedule` and the malleable GF
/// sweep do); the plain [`pack_clones`] entry point allocates a fresh
/// scratch per call.
#[derive(Default)]
pub struct PackScratch {
    loads: Vec<WorkVector>,
    lengths: Vec<f64>,
    heap: BinaryHeap<Reverse<HeapKey>>,
    stash: Vec<Reverse<HeapKey>>,
    stamp: Vec<usize>,
    runs: usize,
    occupancy: Vec<Vec<usize>>,
    list: Vec<CloneGroup>,
    /// Heap pops since construction (test instrumentation for the
    /// run-sweep bound).
    #[cfg(test)]
    pops: usize,
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use and are kept
    /// across calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the scratch for packing `nops` operators onto `sys`,
    /// clearing state while retaining allocations.
    pub(crate) fn reset(&mut self, sys: &SystemSpec, nops: usize) {
        let d = sys.dim();
        self.loads.truncate(sys.sites);
        for load in &mut self.loads {
            if load.dim() == d {
                load.set_zero();
            } else {
                *load = WorkVector::zeros(d);
            }
        }
        while self.loads.len() < sys.sites {
            self.loads.push(WorkVector::zeros(d));
        }
        self.lengths.clear();
        self.lengths.resize(sys.sites, 0.0);
        self.heap.clear();
        for site in 0..sys.sites {
            self.heap.push(Reverse(HeapKey { load: 0.0, site }));
        }
        self.stash.clear();
        self.stamp.clear();
        self.stamp.resize(sys.sites, 0);
        self.runs = 0;
        for occ in &mut self.occupancy {
            occ.clear();
        }
        if self.occupancy.len() < nops {
            self.occupancy.resize_with(nops, Vec::new);
        }
        self.list.clear();
    }

    /// Adds `w` to `site`'s load and returns the site's new authoritative
    /// heap key, which the caller must push (to the heap or the stash).
    fn grow(&mut self, site: usize, w: &WorkVector) -> Reverse<HeapKey> {
        self.loads[site].accumulate(w);
        let load = self.loads[site].length();
        self.lengths[site] = load;
        Reverse(HeapKey { load, site })
    }

    /// Adds `w` to `site`'s load without going through the heap's
    /// selection (used for rooted pre-placement).
    fn place_at(&mut self, site: usize, w: &WorkVector) {
        let key = self.grow(site, w);
        self.heap.push(key);
    }

    /// Rebuilds the heap to exactly one authoritative entry per site.
    ///
    /// Safe for determinism: stale entries always carry an *older*
    /// (smaller-or-equal) load for their site and are dropped by the
    /// authoritative check before they can be selected, so dropping them
    /// early never changes which site a run picks.
    fn compact(&mut self) {
        self.heap.clear();
        for (site, &load) in self.lengths.iter().enumerate() {
            self.heap.push(Reverse(HeapKey { load, site }));
        }
    }

    /// Pops the heap's least entry.
    fn pop(&mut self) -> Option<HeapKey> {
        #[cfg(test)]
        {
            self.pops += 1;
        }
        self.heap.pop().map(|Reverse(entry)| entry)
    }

    /// Places one run of the list L — consecutive groups of a single
    /// operator whose clone work is `clones` — in one ascending sweep
    /// over the heap, recording each pick in `homes[k]` and in `occupied`,
    /// the operator's sites so far.
    ///
    /// Each authoritative entry whose site is not stamped with this run
    /// takes the run's next clone. The chosen site's new key goes to the
    /// stash with the already-occupied sites' entries, since the site is
    /// forbidden for the rest of the run; the stash returns to the heap at
    /// the end.
    pub(crate) fn place_run(
        &mut self,
        run: &[CloneGroup],
        clones: &CloneWork,
        occupied: &mut Vec<usize>,
        homes: &mut [SiteId],
    ) {
        if self.heap.len() > 2 * self.loads.len() {
            self.compact();
        }
        self.runs += 1;
        let mark = self.runs;
        for &site in occupied.iter() {
            self.stamp[site] = mark;
        }
        for k in run.iter().flat_map(|g| g.start..g.end) {
            let site = loop {
                let entry = self
                    .pop()
                    .expect("degree <= P guarantees an allowable site exists");
                if entry.load != self.lengths[entry.site] {
                    // Stale: the site's authoritative entry is still in the
                    // heap or the stash.
                    continue;
                }
                if self.stamp[entry.site] == mark {
                    self.stash.push(Reverse(entry));
                } else {
                    self.stamp[entry.site] = mark;
                    occupied.push(entry.site);
                    break entry.site;
                }
            };
            homes[k] = SiteId(site);
            let key = self.grow(site, &clones[k]);
            self.stash.push(key);
        }
        self.heap.extend(self.stash.drain(..));
    }

    /// Current number of live heap entries (test instrumentation for the
    /// compaction bound).
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

/// Packs the clones of `ops` onto the sites of `sys` with the list rule.
///
/// Rooted operators are pre-placed at their homes (constraint (B)); the
/// remaining floating clones are packed in the requested [`ListOrder`].
/// Ties in clone length break by operator position then clone index; ties
/// in site load break by site index — both choices are deterministic so
/// schedules are reproducible.
///
/// # Errors
/// [`ScheduleError::DegreeExceedsSites`] when an operator has more clones
/// than there are sites, and [`ScheduleError::SiteOutOfRange`] /
/// [`ScheduleError::DegreeMismatch`] for malformed rooted placements.
pub fn pack_clones(
    ops: &[ScheduledOperator],
    sys: &SystemSpec,
    order: ListOrder,
) -> Result<Assignment, ScheduleError> {
    let mut scratch = PackScratch::new();
    pack_clones_in(&mut scratch, ops, sys, order)
}

/// [`pack_clones`] reusing the buffers of `scratch` instead of allocating
/// fresh ones — the allocation-free path for repeated packing (shelf
/// phases in `tree_schedule`, candidate schedules in the malleable GF
/// sweep). Produces exactly the same assignment as [`pack_clones`].
pub fn pack_clones_in(
    scratch: &mut PackScratch,
    ops: &[ScheduledOperator],
    sys: &SystemSpec,
    order: ListOrder,
) -> Result<Assignment, ScheduleError> {
    scratch.reset(sys, ops.len());
    // Detach the occupancy/list buffers so the packer half of the scratch
    // can be borrowed mutably alongside them in each run sweep.
    let mut occupancy = std::mem::take(&mut scratch.occupancy);
    let mut list = std::mem::take(&mut scratch.list);
    let result = pack_clones_impl(scratch, ops, sys, order, &mut occupancy, &mut list);
    scratch.occupancy = occupancy;
    scratch.list = list;
    result
}

fn pack_clones_impl(
    scratch: &mut PackScratch,
    ops: &[ScheduledOperator],
    sys: &SystemSpec,
    order: ListOrder,
    occupancy: &mut [Vec<usize>],
    list: &mut Vec<CloneGroup>,
) -> Result<Assignment, ScheduleError> {
    let mut assignment = prepare_pack(scratch, ops, sys, order, list)?;
    for run in list.chunk_by(|a, b| a.op == b.op) {
        let i = run[0].op;
        scratch.place_run(
            run,
            &ops[i].clones,
            &mut occupancy[i],
            &mut assignment.homes[i],
        );
    }
    Ok(assignment)
}

/// The list rule up to its run sweep, on a freshly reset scratch: checks
/// `ops`, pre-places the rooted clones and builds L into `list`, sorted
/// for `order`. The floating homes are left `usize::MAX` for the sweep.
pub(crate) fn prepare_pack(
    scratch: &mut PackScratch,
    ops: &[ScheduledOperator],
    sys: &SystemSpec,
    order: ListOrder,
    list: &mut Vec<CloneGroup>,
) -> Result<Assignment, ScheduleError> {
    let mut assignment = Assignment::with_capacity(ops.len());

    for (i, op) in ops.iter().enumerate() {
        if op.degree > sys.sites {
            return Err(ScheduleError::DegreeExceedsSites {
                op: op.spec.id,
                degree: op.degree,
                sites: sys.sites,
            });
        }
        if let Placement::Rooted(homes) = &op.spec.placement {
            if homes.len() != op.degree {
                return Err(ScheduleError::DegreeMismatch {
                    op: op.spec.id,
                    expected: op.degree,
                    actual: homes.len(),
                });
            }
            for (&site, w) in homes.iter().zip(&op.clones) {
                if site.0 >= sys.sites {
                    return Err(ScheduleError::SiteOutOfRange {
                        op: op.spec.id,
                        site,
                        sites: sys.sites,
                    });
                }
                scratch.place_at(site.0, w);
            }
            assignment.homes[i] = homes.clone();
        }
    }

    // The floating clone list L of Figure 3, as groups of consecutive
    // equal-length clones of one operator, built from the operator's runs
    // of equal clones (adjacent runs of one length merge).
    for (i, op) in ops.iter().enumerate() {
        if op.spec.placement.is_floating() {
            let mut start = 0;
            for (w, n) in op.clones.runs() {
                let length = w.length();
                let end = start + n;
                match list.last_mut() {
                    Some(g) if g.op == i && g.length.to_bits() == length.to_bits() => g.end = end,
                    _ => list.push(CloneGroup {
                        op: i,
                        start,
                        end,
                        length,
                    }),
                }
                start = end;
            }
            assignment.homes[i] = vec![SiteId(usize::MAX); op.degree];
        }
    }
    if order == ListOrder::LongestFirst {
        // Non-increasing l(w̄), ties by (op, clone) for determinism. The
        // keys are distinct and a group's clones share its length and
        // operator, so the sorted groups expand to exactly the clone list
        // sorted by (l(w̄) desc, op, clone).
        list.sort_unstable_by(|a, b| {
            b.length
                .total_cmp(&a.length)
                .then(a.op.cmp(&b.op))
                .then(a.start.cmp(&b.start))
        });
    }
    Ok(assignment)
}

/// The full OPERATORSCHEDULE algorithm of Figure 3: chooses each floating
/// operator's degree of coarse-grain parallelism with [`coarse_degrees`]
/// (`N_i = min(N_max(op_i, f), P)`, additionally capped at the speed-down
/// point per A4), clones every operator, and packs the clones with the
/// list rule.
///
/// Rooted operators keep their placement-dictated degree and homes.
pub fn operator_schedule<M: ResponseModel>(
    ops: Vec<OperatorSpec>,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<PhaseSchedule, ScheduleError> {
    let phase = ops.into_iter().map(|spec| (spec, None)).collect();
    let ops = coarse_degrees(phase, f, sys, comm, model, None);
    schedule_with_degrees(ops, sys, comm, ListOrder::LongestFirst)
}

/// List-schedules operators whose degrees were fixed externally (used by
/// the malleable scheduler of Section 7 and by bound-(a) experiments).
pub fn schedule_with_degrees(
    ops: Vec<(OperatorSpec, usize)>,
    sys: &SystemSpec,
    comm: &CommModel,
    order: ListOrder,
) -> Result<PhaseSchedule, ScheduleError> {
    let mut scratch = PackScratch::new();
    schedule_with_degrees_in(&mut scratch, ops, sys, comm, order)
}

/// [`schedule_with_degrees`] reusing the packing buffers of `scratch`
/// (see [`PackScratch`]). Produces exactly the same schedule.
pub fn schedule_with_degrees_in(
    scratch: &mut PackScratch,
    ops: Vec<(OperatorSpec, usize)>,
    sys: &SystemSpec,
    comm: &CommModel,
    order: ListOrder,
) -> Result<PhaseSchedule, ScheduleError> {
    let scheduled = ops
        .into_iter()
        .map(|(spec, n)| {
            let n = match &spec.placement {
                Placement::Rooted(homes) => homes.len(),
                Placement::Floating => n,
            };
            ScheduledOperator::even(spec, n, comm, &sys.site)
        })
        .collect::<Vec<_>>();
    let assignment = pack_clones_in(scratch, &scheduled, sys, order)?;
    let schedule = PhaseSchedule {
        ops: scheduled,
        assignment,
    };
    debug_assert!(
        schedule.validate(sys).is_ok(),
        "packer emitted an invalid schedule: {:?}",
        schedule.validate(sys)
    );
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};
    use crate::partition::PartitionStrategy;

    fn floating(id: usize, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(id),
            OperatorKind::Other,
            WorkVector::from_slice(w),
            data,
        )
    }

    fn comm() -> CommModel {
        CommModel::new(0.015, 0.6e-6).unwrap()
    }

    #[test]
    fn single_clone_goes_to_empty_site() {
        let sys = SystemSpec::homogeneous(3);
        let c = comm();
        let op = ScheduledOperator::even(floating(0, &[1.0, 0.0, 0.0], 0.0), 1, &c, &sys.site);
        let a = pack_clones(&[op], &sys, ListOrder::LongestFirst).unwrap();
        assert_eq!(a.homes[0].len(), 1);
    }

    #[test]
    fn clones_of_one_op_spread_across_sites() {
        let sys = SystemSpec::homogeneous(4);
        let c = comm();
        let op = ScheduledOperator::even(floating(0, &[4.0, 0.0, 0.0], 0.0), 4, &c, &sys.site);
        let a = pack_clones(&[op], &sys, ListOrder::LongestFirst).unwrap();
        let mut sites: Vec<_> = a.homes[0].iter().map(|s| s.0).collect();
        sites.sort_unstable();
        assert_eq!(sites, vec![0, 1, 2, 3]);
    }

    #[test]
    fn degree_exceeding_sites_rejected() {
        let sys = SystemSpec::homogeneous(2);
        let c = comm();
        let op = ScheduledOperator::even(floating(0, &[4.0, 0.0, 0.0], 0.0), 3, &c, &sys.site);
        assert!(matches!(
            pack_clones(&[op], &sys, ListOrder::LongestFirst),
            Err(ScheduleError::DegreeExceedsSites {
                degree: 3,
                sites: 2,
                ..
            })
        ));
    }

    #[test]
    fn rooted_ops_stay_at_their_homes() {
        let sys = SystemSpec::homogeneous(4);
        let c = comm();
        let rooted = OperatorSpec::rooted(
            OperatorId(0),
            OperatorKind::Probe,
            WorkVector::from_slice(&[2.0, 0.0, 0.0]),
            0.0,
            vec![SiteId(3), SiteId(1)],
        );
        let sch = ScheduledOperator::even(rooted, 2, &c, &sys.site);
        let a = pack_clones(&[sch], &sys, ListOrder::LongestFirst).unwrap();
        assert_eq!(a.homes[0], vec![SiteId(3), SiteId(1)]);
    }

    #[test]
    fn floating_clones_avoid_loaded_rooted_sites() {
        let sys = SystemSpec::homogeneous(2);
        let c = comm();
        let rooted = OperatorSpec::rooted(
            OperatorId(0),
            OperatorKind::Build,
            WorkVector::from_slice(&[100.0, 0.0, 0.0]),
            0.0,
            vec![SiteId(0)],
        );
        let ops = vec![
            ScheduledOperator::even(rooted, 1, &c, &sys.site),
            ScheduledOperator::even(floating(1, &[1.0, 0.0, 0.0], 0.0), 1, &c, &sys.site),
        ];
        let a = pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap();
        assert_eq!(a.homes[1], vec![SiteId(1)], "clone must dodge the hot site");
    }

    #[test]
    fn list_rule_balances_congestion() {
        // Four unit CPU clones from four different ops on two sites: the
        // list rule should split them 2/2.
        let sys = SystemSpec::homogeneous(2);
        let c = CommModel::new(1e-9, 0.0).unwrap(); // negligible startup
        let ops: Vec<_> = (0..4)
            .map(|i| ScheduledOperator::even(floating(i, &[1.0, 0.0, 0.0], 0.0), 1, &c, &sys.site))
            .collect();
        let a = pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap();
        let per_site0 = a.homes.iter().filter(|h| h[0] == SiteId(0)).count();
        assert_eq!(per_site0, 2);
    }

    #[test]
    fn complementary_vectors_share_a_site() {
        // [1,0] and [0,1] clones: a 1-site system packs both with
        // congestion 1.0 — multi-dimensional sharing in action.
        let sys = SystemSpec::new(
            2,
            crate::resource::SiteSpec::new(vec![
                crate::resource::ResourceKind::Cpu,
                crate::resource::ResourceKind::Network,
            ])
            .unwrap(),
        )
        .unwrap();
        let c = CommModel::new(1e-12, 0.0).unwrap();
        let ops = vec![
            ScheduledOperator::even(
                OperatorSpec::floating(
                    OperatorId(0),
                    OperatorKind::Other,
                    WorkVector::from_slice(&[1.0, 0.0]),
                    0.0,
                ),
                1,
                &c,
                &sys.site,
            ),
            ScheduledOperator::even(
                OperatorSpec::floating(
                    OperatorId(1),
                    OperatorKind::Other,
                    WorkVector::from_slice(&[0.0, 1.0]),
                    0.0,
                ),
                1,
                &c,
                &sys.site,
            ),
        ];
        let a = pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap();
        // Both fit on site 0 (least-filled picks it for the first; the
        // second sees l = 1.0 on site 0 vs 0.0 on site 1, so it goes to
        // site 1 under the list rule — congestion is balanced either way).
        let s = PhaseSchedule { ops, assignment: a };
        assert!(s.max_congestion(&sys) <= 1.0 + 1e-9);
    }

    #[test]
    fn operator_schedule_end_to_end() {
        let sys = SystemSpec::homogeneous(8);
        let c = comm();
        let model = OverlapModel::new(0.5).unwrap();
        let ops: Vec<_> = (0..6)
            .map(|i| floating(i, &[2.0 + i as f64, 1.0, 0.0], 256_000.0))
            .collect();
        let schedule = operator_schedule(ops, 0.7, &sys, &c, &model).unwrap();
        schedule.validate(&sys).unwrap();
        assert!(schedule.makespan(&sys, &model) > 0.0);
        // All degrees at least 1 and at most P.
        for op in &schedule.ops {
            assert!((1..=sys.sites).contains(&op.degree));
        }
    }

    #[test]
    fn schedule_with_degrees_respects_requested_parallelism() {
        let sys = SystemSpec::homogeneous(8);
        let c = comm();
        let ops = vec![
            (floating(0, &[4.0, 0.0, 0.0], 0.0), 4),
            (floating(1, &[2.0, 2.0, 0.0], 0.0), 2),
        ];
        let s = schedule_with_degrees(ops, &sys, &c, ListOrder::LongestFirst).unwrap();
        assert_eq!(s.ops[0].degree, 4);
        assert_eq!(s.ops[1].degree, 2);
        s.validate(&sys).unwrap();
    }

    #[test]
    fn arbitrary_order_is_never_better_on_adversarial_input() {
        // LPT ordering should not lose to input order on a classic
        // adversarial mix (big clones last in input order).
        let sys = SystemSpec::homogeneous(2);
        let c = CommModel::new(1e-12, 0.0).unwrap();
        let model = OverlapModel::perfect();
        let mk = |id: usize, cpu: f64| {
            ScheduledOperator::even(floating(id, &[cpu, 0.0, 0.0], 0.0), 1, &c, &sys.site)
        };
        let ops = vec![mk(0, 1.0), mk(1, 1.0), mk(2, 1.0), mk(3, 3.0)];
        let lpt = pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap();
        let arb = pack_clones(&ops, &sys, ListOrder::Arbitrary).unwrap();
        let ms = |a: Assignment| {
            PhaseSchedule {
                ops: ops.clone(),
                assignment: a,
            }
            .makespan(&sys, &model)
        };
        assert!(ms(lpt) <= ms(arb) + 1e-9);
    }

    #[test]
    fn scratch_reuse_matches_fresh_pack() {
        // One scratch reused across differently-shaped workloads must
        // reproduce the fresh-allocation path bit for bit.
        let c = comm();
        let mut scratch = PackScratch::new();
        for (sites, nops) in [(16usize, 12usize), (4, 9), (24, 30), (16, 12)] {
            let sys = SystemSpec::homogeneous(sites);
            let ops: Vec<_> = (0..nops)
                .map(|i| {
                    ScheduledOperator::even(
                        floating(i, &[1.0 + (i % 7) as f64, (i % 3) as f64, 0.5], 32_000.0),
                        1 + i % sites.min(6),
                        &c,
                        &sys.site,
                    )
                })
                .collect();
            let fresh = pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap();
            let reused = pack_clones_in(&mut scratch, &ops, &sys, ListOrder::LongestFirst).unwrap();
            assert_eq!(fresh, reused, "scratch reuse diverged at P={sites}");
        }
    }

    #[test]
    fn heap_stays_compact_across_phases() {
        // Stale entries must not pile up in the lazy heap: the live
        // entries stay O(sites) no matter how many phases reuse the
        // scratch.
        let sites = 8;
        let sys = SystemSpec::homogeneous(sites);
        let c = comm();
        let mut scratch = PackScratch::new();
        for phase in 0..50 {
            let ops: Vec<_> = (0..40)
                .map(|i| {
                    ScheduledOperator::even(
                        floating(i, &[1.0 + ((i + phase) % 5) as f64, 1.0, 0.0], 0.0),
                        1,
                        &c,
                        &sys.site,
                    )
                })
                .collect();
            pack_clones_in(&mut scratch, &ops, &sys, ListOrder::LongestFirst).unwrap();
            // Compaction triggers at > 2 * sites before each run, and a run
            // never grows the heap: each pick replaces its site's entry.
            assert!(
                scratch.heap_len() <= 2 * sites,
                "heap grew to {} entries in phase {phase}",
                scratch.heap_len()
            );
        }
        // Rooted pre-placement pushes one entry per clone, here on the
        // first half of the sites. Narrow runs (odd phases) fill only the
        // empty half and never reach those stale entries, so the check
        // before the first run must compact them; wide runs (degree up to
        // sites, even phases) must not grow the heap.
        let sites = 24;
        let sys = SystemSpec::homogeneous(sites);
        for phase in 0..20 {
            let mut ops: Vec<_> = (0..4)
                .map(|i| {
                    let spec = rooted(
                        i,
                        &[24.0 * (1 + i) as f64, 0.5, 0.0],
                        (0..sites / 2).map(SiteId).collect(),
                    );
                    ScheduledOperator::even(spec, sites / 2, &c, &sys.site)
                })
                .collect();
            ops.extend((4..10).map(|i| {
                let (cpu, degree) = if phase % 2 == 0 {
                    (2.0 + ((i + phase) % 3) as f64, sites - (i + phase) % 3)
                } else {
                    (0.3, 1 + i % 3)
                };
                ScheduledOperator::even(floating(i, &[cpu, 0.1, 0.0], 0.0), degree, &c, &sys.site)
            }));
            pack_clones_in(&mut scratch, &ops, &sys, ListOrder::LongestFirst).unwrap();
            assert!(
                scratch.heap_len() <= 2 * sites,
                "heap grew to {} entries in rooted phase {phase}",
                scratch.heap_len()
            );
        }
    }

    fn rooted(id: usize, w: &[f64], homes: Vec<SiteId>) -> OperatorSpec {
        OperatorSpec::rooted(
            OperatorId(id),
            OperatorKind::Probe,
            WorkVector::from_slice(w),
            0.0,
            homes,
        )
    }

    /// The one-clone-at-a-time list rule the run sweep replaced: every
    /// clone pops the heap from the bottom, stashing the sites that hold a
    /// clone of its operator, and takes the first allowable site.
    fn place_one(
        scratch: &mut PackScratch,
        w: &WorkVector,
        forbidden: impl Fn(usize) -> bool,
    ) -> usize {
        if scratch.heap.len() > 2 * scratch.loads.len() {
            scratch.compact();
        }
        scratch.stash.clear();
        let mut chosen = None;
        while let Some(entry) = scratch.pop() {
            if entry.load != scratch.lengths[entry.site] {
                scratch.heap.push(Reverse(HeapKey {
                    load: scratch.lengths[entry.site],
                    site: entry.site,
                }));
                continue;
            }
            if forbidden(entry.site) {
                scratch.stash.push(Reverse(entry));
                continue;
            }
            chosen = Some(entry.site);
            break;
        }
        while let Some(e) = scratch.stash.pop() {
            scratch.heap.push(e);
        }
        let site = chosen.expect("degree <= P guarantees an allowable site exists");
        scratch.place_at(site, w);
        site
    }

    /// [`pack_clones_in`] with [`place_one`] per clone (valid input only).
    fn reference_pack(
        scratch: &mut PackScratch,
        ops: &[ScheduledOperator],
        sys: &SystemSpec,
        order: ListOrder,
    ) -> Assignment {
        scratch.reset(sys, ops.len());
        let mut homes = vec![Vec::new(); ops.len()];
        let mut occupancy = vec![Vec::new(); ops.len()];
        let mut list = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match &op.spec.placement {
                Placement::Rooted(h) => {
                    for (k, &site) in h.iter().enumerate() {
                        scratch.place_at(site.0, &op.clones[k]);
                        occupancy[i].push(site.0);
                    }
                    homes[i] = h.clone();
                }
                Placement::Floating => {
                    list.extend(
                        op.clones
                            .iter()
                            .enumerate()
                            .map(|(k, w)| (i, k, w.length())),
                    );
                    homes[i] = vec![SiteId(usize::MAX); op.degree];
                }
            }
        }
        if order == ListOrder::LongestFirst {
            list.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        }
        for (i, k, _) in list {
            let occupied = &occupancy[i];
            let site = place_one(scratch, &ops[i].clones[k], |s| {
                occupied.binary_search(&s).is_ok()
            });
            homes[i][k] = SiteId(site);
            let pos = occupancy[i].binary_search(&site).unwrap_err();
            occupancy[i].insert(pos, site);
        }
        Assignment { homes }
    }

    /// A seeded mix of rooted and floating operators with degrees up to
    /// `sites`, skewed (`Weighted`) partitions, and work drawn from a few
    /// values so that clone lengths tie across operators.
    fn random_shape(
        rng: &mut crate::rng::DetRng,
        sites: usize,
        nops: usize,
    ) -> Vec<ScheduledOperator> {
        let c = comm();
        let site = SystemSpec::homogeneous(sites).site;
        (0..nops)
            .map(|i| {
                let degree = if rng.gen_bool(0.15) {
                    sites
                } else {
                    rng.gen_range(1..=sites)
                };
                let w = [
                    rng.gen_range(1usize..4) as f64,
                    rng.gen_range(0usize..3) as f64,
                    0.5,
                ];
                let spec = if rng.gen_bool(0.25) {
                    let start = rng.gen_range(0..sites);
                    rooted(
                        i,
                        &w,
                        (0..degree).map(|s| SiteId((start + s) % sites)).collect(),
                    )
                } else {
                    floating(i, &w, 16_000.0 * rng.gen_range(0usize..3) as f64)
                };
                if rng.gen_bool(0.3) {
                    let weights = (0..degree)
                        .map(|_| rng.gen_range(1usize..4) as f64)
                        .collect();
                    ScheduledOperator::with_strategy(
                        spec,
                        degree,
                        &c,
                        &site,
                        &PartitionStrategy::Weighted(weights),
                    )
                } else {
                    ScheduledOperator::even(spec, degree, &c, &site)
                }
            })
            .collect()
    }

    /// Equal-length clones of different operators, skewed clones that
    /// split an operator into several runs under LPT, a rooted operator,
    /// a floating operator at degree = P (6 sites), a skewed operator
    /// whose equal-length clones are not adjacent (weights `[2, 1, 2, 1]`
    /// on a disk-bound vector, so the coordinator ties clone 2 and clone 1
    /// ties clone 3), and a floating operator at degree 1.
    fn ties_skew_full_degree_shape() -> Vec<ScheduledOperator> {
        let c = comm();
        let site = SystemSpec::homogeneous(6).site;
        let skew = PartitionStrategy::Weighted(vec![4.0, 1.0, 2.0, 1.0]);
        let mut ops: Vec<_> = (0..4)
            .map(|i| ScheduledOperator::even(floating(i, &[3.0, 1.0, 0.0], 0.0), 3, &c, &site))
            .collect();
        let skewed = floating(4, &[5.0, 2.0, 0.0], 0.0);
        ops.push(ScheduledOperator::with_strategy(
            skewed, 4, &c, &site, &skew,
        ));
        let homes = vec![SiteId(4), SiteId(1)];
        ops.push(ScheduledOperator::even(
            rooted(5, &[2.0, 0.0, 1.0], homes),
            2,
            &c,
            &site,
        ));
        ops.push(ScheduledOperator::even(
            floating(6, &[6.0, 0.0, 0.0], 0.0),
            6,
            &c,
            &site,
        ));
        let alternating = PartitionStrategy::Weighted(vec![2.0, 1.0, 2.0, 1.0]);
        ops.push(ScheduledOperator::with_strategy(
            floating(7, &[1.0, 4.0, 0.0], 0.0),
            4,
            &c,
            &site,
            &alternating,
        ));
        ops.push(ScheduledOperator::even(
            floating(8, &[2.0, 1.0, 0.0], 0.0),
            1,
            &c,
            &site,
        ));
        ops
    }

    #[test]
    fn run_sweep_matches_one_at_a_time_rule() {
        // One scratch reused across a fixed shape, seeded shapes and both
        // orders must reproduce the one-clone-at-a-time rule bit for bit.
        let mut rng = crate::rng::DetRng::seed_from_u64(1996);
        let fixed = ties_skew_full_degree_shape();
        let length = |k: usize| fixed[7].clones[k].length();
        assert_eq!((length(0), length(1)), (length(2), length(3)));
        assert!(length(0) > length(1));
        let mut shapes = vec![(6, fixed)];
        for case in 0..400 {
            let sites = [1, 2, 3, 5, 8, 16, 24, 40][case % 8];
            let nops = rng.gen_range(1..=12);
            shapes.push((sites, random_shape(&mut rng, sites, nops)));
        }
        let mut scratch = PackScratch::new();
        let mut reference = PackScratch::new();
        for (case, (sites, ops)) in shapes.iter().enumerate() {
            let sys = SystemSpec::homogeneous(*sites);
            for order in [ListOrder::LongestFirst, ListOrder::Arbitrary] {
                let expected = reference_pack(&mut reference, ops, &sys, order);
                let swept = pack_clones_in(&mut scratch, ops, &sys, order).unwrap();
                assert_eq!(swept, expected, "case {case} (P={sites}, {order:?})");
                assert_eq!(pack_clones(ops, &sys, order).unwrap(), expected);
            }
        }
    }

    #[test]
    fn run_sweep_pops_linear_in_sites() {
        // Rooted pre-load spreads the site loads as 0, 1, ..., P-1; then
        // one floating operator at degree P with tiny clones. Each clone
        // lands below the next site's load, so placing clones one at a
        // time re-pops every site already used: about P²/2 pops.
        let sites = 140;
        let sys = SystemSpec::homogeneous(sites);
        let c = CommModel::new(1e-12, 0.0).unwrap();
        let mut ops: Vec<_> = (1..sites)
            .map(|s| {
                let spec = rooted(s, &[s as f64, 0.0, 0.0], vec![SiteId(s)]);
                ScheduledOperator::even(spec, 1, &c, &sys.site)
            })
            .collect();
        let tiny = floating(0, &[1e-3 * sites as f64, 0.0, 0.0], 0.0);
        ops.push(ScheduledOperator::even(tiny, sites, &c, &sys.site));
        let mut scratch = PackScratch::new();
        let swept = pack_clones_in(&mut scratch, &ops, &sys, ListOrder::LongestFirst).unwrap();
        assert!(
            scratch.pops <= 3 * sites,
            "run sweep took {} pops",
            scratch.pops
        );
        let mut reference = PackScratch::new();
        assert_eq!(
            reference_pack(&mut reference, &ops, &sys, ListOrder::LongestFirst),
            swept
        );
        assert!(
            reference.pops >= sites * sites / 4,
            "shape is not adversarial: one-at-a-time took {} pops",
            reference.pops
        );
    }

    #[test]
    fn deterministic_output() {
        let sys = SystemSpec::homogeneous(16);
        let c = comm();
        let model = OverlapModel::new(0.3).unwrap();
        let ops: Vec<_> = (0..12)
            .map(|i| floating(i, &[1.0 + (i % 5) as f64, (i % 3) as f64, 0.0], 64_000.0))
            .collect();
        let a = operator_schedule(ops.clone(), 0.5, &sys, &c, &model).unwrap();
        let b = operator_schedule(ops, 0.5, &sys, &c, &model).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};
    use proptest::prelude::*;

    fn arb_specs() -> impl Strategy<Value = Vec<OperatorSpec>> {
        proptest::collection::vec(
            (proptest::collection::vec(0.0f64..50.0, 3), 0.0f64..1e6),
            1..12,
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
        /// Every OperatorSchedule output is a valid schedule, and its two
        /// makespan formulations (Eq 2-based and Eq 3) agree.
        #[test]
        fn operator_schedule_valid_and_consistent(
            specs in arb_specs(),
            sites in 1usize..24,
            f in 0.1f64..1.5,
            eps in 0.0f64..=1.0,
        ) {
            let sys = SystemSpec::homogeneous(sites);
            let c = CommModel::paper_defaults();
            let model = OverlapModel::new(eps).unwrap();
            let s = operator_schedule(specs, f, &sys, &c, &model).unwrap();
            prop_assert!(s.validate(&sys).is_ok());
            let a = s.makespan(&sys, &model);
            let b = s.makespan_eq3(&sys, &model);
            prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0));
        }

        /// The schedule's congestion respects the trivial lower bound
        /// l(S)/P and never exceeds total work.
        #[test]
        fn congestion_sandwich(
            specs in arb_specs(),
            sites in 1usize..24,
            eps in 0.0f64..=1.0,
        ) {
            let sys = SystemSpec::homogeneous(sites);
            let c = CommModel::paper_defaults();
            let model = OverlapModel::new(eps).unwrap();
            let s = operator_schedule(specs, 0.7, &sys, &c, &model).unwrap();
            let total_vec = WorkVector::vector_sum(
                s.ops.iter().map(|o| o.total_vector()).collect::<Vec<_>>().iter()
            ).unwrap();
            let congestion = s.max_congestion(&sys);
            prop_assert!(congestion + 1e-9 >= total_vec.length() / sites as f64);
            prop_assert!(congestion <= total_vec.length() + 1e-9);
        }
    }
}
