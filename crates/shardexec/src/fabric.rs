//! The execution fabric: the runtime's single entry point to the site
//! layer, single-threaded or sharded.
//!
//! [`Fabric::new`] with one shard (the default) builds an inline
//! [`ShardState`] over the whole machine and every call goes straight
//! through — that path *is* the previous single-threaded loop, so
//! `--shards 1` reproduces it bit-for-bit by construction. With more
//! shards, per-site mutations are routed to the owning shard's cell
//! serially, in coordinator order, and only the site-local epoch phases
//! ([`Fabric::next_time`], [`Fabric::advance_due`]) ever involve the
//! pinned [`ShardPool`] — and even those mostly don't:
//!
//! * The fabric caches each shard's earliest pending completion,
//!   dirtied only when the coordinator mutates a site in that shard.
//!   [`Fabric::next_time`] recomputes just the dirty shards (inline,
//!   through the uncontended cell lock) and folds the cached minima in
//!   shard order — zero broadcasts.
//! * [`Fabric::advance_due`] computes the due shard set from the same
//!   cache. No shard due: the call is free. One shard due (the common
//!   case — completion times rarely collide across shards): the advance
//!   runs inline on the coordinator. Two or more due: one barrier round
//!   advances them in parallel — unless the host has no spare core
//!   ([`ShardPool::parallel`]), in which case the due set runs inline
//!   in shard order, since a broadcast there would only time-slice one
//!   CPU through N park/unpark pairs. Either way each shard refreshes
//!   its own
//!   next-event time inside the same round (the fused min-fold), so an
//!   epoch pays at most *one* handshake.
//! * Workers return buffers pre-sorted in the runtime's `(time, tag)`
//!   retirement order; the coordinator k-way merges them
//!   ([`crate::merge`]) instead of re-sorting globally.
//!
//! The reference for all of this is the one-shard layout: any shard
//! count must reproduce it bit for bit.

use crate::merge::merge_sorted_completions;
use crate::plan::ShardPlan;
use crate::pool::{Command, ShardPool};
use crate::segment::ShardSegment;
use crate::state::ShardState;
use mrs_core::resource::SiteId;
use mrs_sim::engine::{Completion, LostClone, SimClone, SiteSim, UtilSample};

/// The site layer's physical layout: one whole-machine shard, or a plan
/// plus a pinned pool.
#[derive(Debug)]
enum Layout {
    /// One shard, executed inline on the coordinator thread (boxed so
    /// the enum stays pointer-sized either way).
    Single(Box<ShardState>),
    /// `N ≥ 2` shards on a pinned worker pool.
    Sharded {
        /// The deterministic site partition.
        plan: ShardPlan,
        /// The workers owning the shard states.
        pool: ShardPool,
    },
}

/// The site layer behind the runtime. See the [module docs](self).
#[derive(Debug)]
pub struct Fabric {
    layout: Layout,
    /// Cached per-shard earliest pending completion, mirroring each
    /// shard's [`ShardState::next`]. Exact whenever the matching `dirty`
    /// bit is clear: the coordinator is the only other mutator, and
    /// every mutation path marks its shard dirty.
    next: Vec<Option<f64>>,
    /// Shards whose cached next-event time is stale.
    dirty: Vec<bool>,
    /// Cached alive-site count (crashes decrement, restores increment).
    alive: usize,
    /// Scratch: indices of shards due at the current epoch.
    due: Vec<usize>,
    /// Scratch: due shards' completion buffers, swapped out of the cells
    /// for the k-way merge (capacities recycle across epochs).
    bufs: Vec<Vec<Completion>>,
}

fn due_at(next: Option<f64>, t: f64) -> bool {
    next.is_some_and(|n| n <= t)
}

impl Fabric {
    /// Builds the fabric over `sims` (global site-index order) with the
    /// requested shard count (clamped by [`ShardPlan::new`]).
    pub fn new(sims: Vec<SiteSim>, dim: usize, shards: usize) -> Self {
        let sites = sims.len();
        let plan = ShardPlan::new(sites, shards);
        let n = plan.shards();
        let layout = if n == 1 {
            Layout::Single(Box::new(ShardState::new(0, 0, sims, dim)))
        } else {
            let mut states = Vec::with_capacity(n);
            let mut rest = sims;
            for s in (0..n).rev() {
                let range = plan.range(s);
                let tail = rest.split_off(range.start);
                states.push(ShardState::new(s, range.start, tail, dim));
            }
            states.reverse();
            Layout::Sharded {
                plan,
                pool: ShardPool::new(states),
            }
        };
        Fabric {
            layout,
            next: vec![None; n],
            dirty: vec![true; n],
            alive: sites,
            due: Vec::new(),
            bufs: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of shards actually running.
    pub fn shards(&self) -> usize {
        match &self.layout {
            Layout::Single(_) => 1,
            Layout::Sharded { pool, .. } => pool.shards(),
        }
    }

    /// Total number of sites.
    pub fn sites(&self) -> usize {
        match &self.layout {
            Layout::Single(st) => st.sites(),
            Layout::Sharded { plan, .. } => plan.sites(),
        }
    }

    /// The shard owning `site`.
    fn shard_of(&self, site: usize) -> usize {
        match &self.layout {
            Layout::Single(_) => 0,
            Layout::Sharded { plan, .. } => plan.shard_of(site),
        }
    }

    /// Marks `site`'s shard as having a stale cached next-event time.
    fn mark_dirty(&mut self, site: usize) {
        let shard = self.shard_of(site);
        self.dirty[shard] = true;
    }

    /// Routes `f` to the shard owning `site` without touching the
    /// next-event cache (for reads and ledger-only mutations).
    fn route<R>(&mut self, site: usize, f: impl FnOnce(&mut ShardState) -> R) -> R {
        match &mut self.layout {
            Layout::Single(st) => f(st),
            Layout::Sharded { plan, pool } => pool.with_cell(plan.shard_of(site), f),
        }
    }

    fn fold<A>(&mut self, mut acc: A, mut f: impl FnMut(&mut A, &mut ShardState)) -> A {
        match &mut self.layout {
            Layout::Single(st) => f(&mut acc, st),
            Layout::Sharded { pool, .. } => {
                for s in 0..pool.shards() {
                    pool.with_cell(s, |st| f(&mut acc, st));
                }
            }
        }
        acc
    }

    /// Brings every dirty shard's cached next-event time up to date,
    /// inline: the dirty shards are exactly the ones the coordinator
    /// just touched.
    fn refresh_next(&mut self) {
        match &mut self.layout {
            Layout::Single(st) => {
                if self.dirty[0] {
                    st.compute_next();
                    self.next[0] = st.next;
                    self.dirty[0] = false;
                }
            }
            Layout::Sharded { pool, .. } => {
                for s in 0..self.next.len() {
                    if self.dirty[s] {
                        self.next[s] = pool.with_cell(s, |st| {
                            st.compute_next();
                            st.next
                        });
                        self.dirty[s] = false;
                    }
                }
            }
        }
    }

    /// Epoch phase 1: the earliest pending completion across all sites —
    /// the per-shard minima folded in shard order, which equals the
    /// global minimum exactly (same multiset of `f64`, `min` is exact).
    pub fn next_time(&mut self) -> Option<f64> {
        self.refresh_next();
        let mut min = None;
        for &next in &self.next {
            min = match (min, next) {
                (Some(a), Some(b)) => Some(f64::min(a, b)),
                (a, b) => a.or(b),
            };
        }
        min
    }

    /// Epoch phase 2: advances every due site to `t`, appending the
    /// surfaced completions to `out` in `(time, tag)` order (per-shard
    /// pre-sorted buffers, k-way merged in shard order — bit-identical
    /// to the serial loop's post-concatenation sort because the key is
    /// total). Shards with no completion due at `t` are never woken; a
    /// single due shard advances inline.
    pub fn advance_due(&mut self, t: f64, out: &mut Vec<Completion>) {
        self.refresh_next();
        match &mut self.layout {
            Layout::Single(st) => {
                if !due_at(self.next[0], t) {
                    return;
                }
                st.advance_due(t);
                self.next[0] = st.next;
                self.dirty[0] = false;
                out.extend_from_slice(&st.buf);
            }
            Layout::Sharded { pool, .. } => {
                self.due.clear();
                for (s, &next) in self.next.iter().enumerate() {
                    if due_at(next, t) {
                        self.due.push(s);
                    }
                }
                match self.due.len() {
                    0 => {}
                    1 => {
                        let s = self.due[0];
                        self.next[s] = pool.with_cell(s, |st| {
                            st.advance_due(t);
                            out.extend_from_slice(&st.buf);
                            st.next
                        });
                    }
                    _ => {
                        if pool.parallel() {
                            pool.run(Command::AdvanceDue(t));
                        } else {
                            // No spare core: a broadcast would only
                            // time-slice one CPU through N park/unpark
                            // pairs. Advance the due shards inline in
                            // shard order — same order, same bytes.
                            for &s in &self.due {
                                pool.with_cell(s, |st| st.advance_due(t));
                            }
                        }
                        // Only the due shards produced completions (and
                        // only their next-event times changed; the rest
                        // recomputed the value already cached).
                        for (i, &s) in self.due.iter().enumerate() {
                            self.next[s] = pool.with_cell(s, |st| {
                                std::mem::swap(&mut st.buf, &mut self.bufs[i]);
                                st.next
                            });
                        }
                        let runs: Vec<&[Completion]> = self.bufs[..self.due.len()]
                            .iter()
                            .map(Vec::as_slice)
                            .collect();
                        merge_sorted_completions(&runs, out);
                    }
                }
            }
        }
    }

    /// Catches `site` up to `clock` (see [`ShardState::catch_up`]).
    pub fn catch_up(&mut self, site: usize, clock: f64, out: &mut Vec<Completion>) {
        if self.route(site, |st| st.catch_up(site, clock, out)) {
            self.mark_dirty(site);
        }
    }

    /// Dispatch: inserts a clone on `site` (see [`ShardState::add_clone`])
    /// and — unless it completed inline — commits `demand` to the owning
    /// ledger slice, all under one cell lock. A zero-duration clone
    /// completes inline, leaves the site untouched and is returned.
    pub fn place_clone(
        &mut self,
        site: usize,
        clone: &SimClone,
        demand: &[f64],
    ) -> Option<Completion> {
        let done = self.route(site, |st| match st.add_clone(site, clone) {
            Some(done) => Some(done),
            None => {
                st.commit(site, demand);
                None
            }
        });
        if done.is_none() {
            self.mark_dirty(site);
        }
        done
    }

    /// Crashes `site` (see [`ShardState::fail_site`]). The caller must
    /// ensure the site is currently alive (the runtime checks
    /// [`Fabric::is_down`] first).
    pub fn fail_site(&mut self, site: usize) -> Vec<LostClone> {
        self.mark_dirty(site);
        self.alive -= 1;
        self.route(site, |st| st.fail_site(site))
    }

    /// Restores a crashed `site`.
    pub fn restore_site(&mut self, site: usize) {
        self.mark_dirty(site);
        self.alive += 1;
        self.route(site, |st| st.restore_site(site));
    }

    /// Evicts the clone tagged `tag` from `site`.
    pub fn remove_clone(&mut self, site: usize, tag: usize) -> Option<LostClone> {
        self.mark_dirty(site);
        self.route(site, |st| st.remove_clone(site, tag))
    }

    /// Whether `site` is currently crashed.
    pub fn is_down(&mut self, site: usize) -> bool {
        self.route(site, |st| st.is_down(site))
    }

    /// The current virtual clock of `site`.
    pub fn now(&mut self, site: usize) -> f64 {
        self.route(site, |st| st.now(site))
    }

    /// Sets the straggler rate of `site`.
    pub fn set_rate(&mut self, site: usize, rate: f64) {
        self.mark_dirty(site);
        self.route(site, |st| st.set_rate(site, rate));
    }

    /// Releases a completed clone's demand at `site`.
    pub fn release(&mut self, site: usize, demand: &[f64]) {
        self.route(site, |st| st.release(site, demand));
    }

    /// Whether `site` is in service.
    pub fn is_alive(&mut self, site: usize) -> bool {
        self.route(site, |st| st.is_alive(site))
    }

    /// The `l_∞` committed demand of `site`.
    pub fn load(&mut self, site: usize) -> f64 {
        self.route(site, |st| st.load(site))
    }

    /// Residual capacity of `site` per resource.
    pub fn residual(&mut self, site: usize) -> Vec<f64> {
        self.route(site, |st| st.residual(site))
    }

    /// Clones currently committed at `site`.
    pub fn resident(&mut self, site: usize) -> usize {
        self.route(site, |st| st.resident(site))
    }

    /// Highest `l_∞` demand `site` ever reached.
    pub fn peak_load(&mut self, site: usize) -> f64 {
        self.route(site, |st| st.peak_load(site))
    }

    /// Mean committed load over the alive sites — the shard ledgers'
    /// order-preserving folds chained in shard order, bit-identical to a
    /// whole-machine [`crate::ledger::SiteLedger::avg_load`].
    pub fn avg_load(&mut self) -> f64 {
        let (acc, alive) = self.fold((0.0f64, 0usize), |(acc, alive), st| {
            st.fold_load(acc, alive);
        });
        if alive == 0 {
            return f64::INFINITY;
        }
        acc / alive as f64
    }

    /// Number of sites currently in service (cached: crashes and
    /// restores maintain the count, so the admission path's
    /// degraded-mode check costs no shard round-trips).
    pub fn alive_sites(&mut self) -> usize {
        let cached = self.alive;
        debug_assert_eq!(
            cached,
            self.fold(0usize, |n, st| *n += st.alive_sites()),
            "cached alive-site count diverged from the ledgers"
        );
        cached
    }

    /// The alive sites in global index order.
    pub fn alive_list(&mut self) -> Vec<SiteId> {
        self.fold(Vec::new(), |out, st| st.push_alive(out))
    }

    /// Total clones committed across all sites.
    pub fn total_resident(&mut self) -> usize {
        self.fold(0usize, |n, st| *n += st.total_resident())
    }

    /// Every site's busy-time vector, in global site order.
    pub fn busy(&mut self) -> Vec<Vec<f64>> {
        self.fold(Vec::new(), |out, st| st.push_busy(out))
    }

    /// Every site's peak-utilization vector, in global site order.
    pub fn peak_util(&mut self) -> Vec<Vec<f64>> {
        self.fold(Vec::new(), |out, st| st.push_peak_util(out))
    }

    /// Every site's exact utilization integral, in global site order.
    pub fn util_integral(&mut self) -> Vec<Vec<f64>> {
        self.fold(Vec::new(), |out, st| st.push_util_integral(out))
    }

    /// Every site's recorded utilization series, in global site order
    /// (empty unless [`Fabric::enable_util_series`] was called).
    pub fn util_series(&mut self) -> Vec<Vec<UtilSample>> {
        self.fold(Vec::new(), |out, st| st.push_util_series(out))
    }

    /// Enables per-step utilization recording on every site.
    pub fn enable_util_series(&mut self) {
        self.fold((), |(), st| st.enable_util_series());
    }

    /// The per-shard audit-trace segments, in shard order.
    pub fn segments(&mut self) -> Vec<ShardSegment> {
        self.fold(Vec::new(), |out, st| out.push(st.segment().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::merge_segments;
    use mrs_core::vector::WorkVector;
    use mrs_sim::engine::SimConfig;

    fn sims(n: usize) -> Vec<SiteSim> {
        (0..n)
            .map(|_| SiteSim::new(SimConfig::default(), 2))
            .collect()
    }

    fn clone(tag: usize, w: &[f64], duration: f64) -> SimClone {
        SimClone {
            tag,
            work: WorkVector::from_slice(w),
            duration,
        }
    }

    /// Drives the same workload through a 1-shard and an N-shard fabric
    /// and asserts every observable is bit-identical.
    fn assert_fabrics_agree(shards: usize) {
        let mut single = Fabric::new(sims(7), 2, 1);
        let mut multi = Fabric::new(sims(7), 2, shards);
        assert_eq!(multi.shards(), shards.clamp(1, 7));
        let work = [
            (0usize, 0usize, [3.0, 1.0], 3.0),
            (3, 1, [2.0, 2.0], 2.0),
            (3, 2, [1.0, 0.5], 1.0),
            (6, 3, [5.0, 0.0], 5.0),
            (1, 4, [0.7, 0.7], 0.7),
        ];
        for f in [&mut single, &mut multi] {
            for (site, tag, w, dur) in work {
                let demand: Vec<f64> = w.iter().map(|x| x / dur).collect();
                assert!(f.place_clone(site, &clone(tag, &w, dur), &demand).is_none());
            }
        }
        loop {
            let (ta, tb) = (single.next_time(), multi.next_time());
            assert_eq!(ta.map(f64::to_bits), tb.map(f64::to_bits));
            let Some(t) = ta else { break };
            let (mut ca, mut cb) = (Vec::new(), Vec::new());
            single.advance_due(t, &mut ca);
            multi.advance_due(t, &mut cb);
            assert_eq!(ca, cb, "same completions in the same order");
        }
        assert_eq!(single.avg_load().to_bits(), multi.avg_load().to_bits());
        assert_eq!(single.total_resident(), multi.total_resident());
        assert_eq!(single.busy(), multi.busy());
        assert_eq!(single.peak_util(), multi.peak_util());
        assert_eq!(single.util_integral(), multi.util_integral());
        assert_eq!(
            merge_segments(&single.segments()),
            merge_segments(&multi.segments()),
            "canonical traces must match"
        );
    }

    #[test]
    fn two_shards_match_single() {
        assert_fabrics_agree(2);
    }

    #[test]
    fn four_shards_match_single() {
        assert_fabrics_agree(4);
    }

    #[test]
    fn oversharded_clamps_and_matches() {
        assert_fabrics_agree(16);
    }

    #[test]
    fn faults_and_aggregates_route_to_owning_shards() {
        let mut f = Fabric::new(sims(6), 2, 3);
        f.place_clone(4, &clone(0, &[2.0, 0.0], 2.0), &[1.0, 0.0]);
        let lost = f.fail_site(4);
        assert_eq!(lost.len(), 1);
        assert!(f.is_down(4));
        assert_eq!(f.alive_sites(), 5);
        let alive: Vec<usize> = f.alive_list().iter().map(|s| s.0).collect();
        assert_eq!(alive, vec![0, 1, 2, 3, 5]);
        f.restore_site(4);
        assert_eq!(f.alive_sites(), 6);
        assert_eq!(f.avg_load(), 0.0);
        assert_eq!(f.next_time(), None, "crash evicted the only clone");
    }

    #[test]
    fn quiet_epochs_skip_the_barrier_entirely() {
        // An advance at a time before any pending completion must be a
        // no-op that surfaces nothing (the fast path returns before any
        // worker wake; this asserts the semantics, not the syscalls).
        let mut f = Fabric::new(sims(4), 2, 2);
        f.place_clone(0, &clone(0, &[4.0, 0.0], 4.0), &[1.0, 0.0]);
        assert_eq!(f.next_time(), Some(4.0));
        let mut out = Vec::new();
        f.advance_due(1.0, &mut out);
        assert!(out.is_empty());
        f.advance_due(4.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.next_time(), None);
    }

    #[test]
    fn simultaneous_cross_shard_completions_batch_into_one_round() {
        // Bit-identical clones on sites in different shards complete at
        // the same instant: the batched barrier must surface both, in
        // tag order, and leave the cached next-times coherent.
        let mut f = Fabric::new(sims(4), 2, 2);
        f.place_clone(0, &clone(1, &[2.0, 0.0], 2.0), &[1.0, 0.0]);
        f.place_clone(3, &clone(0, &[2.0, 0.0], 2.0), &[1.0, 0.0]);
        let t = f.next_time().expect("two clones pending");
        let mut out = Vec::new();
        f.advance_due(t, &mut out);
        let tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1], "(time, tag) merge order");
        assert_eq!(f.next_time(), None);
    }
}
