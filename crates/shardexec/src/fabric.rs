//! The execution fabric: the runtime's single entry point to the site
//! layer.
//!
//! [`Fabric::new`] splits the sites into `N` contiguous shards
//! ([`ShardPlan`]), each an inline [`ShardState`] with its own lazy
//! calendar and audit-trace segment. Every call runs on the caller's
//! thread: a per-site call indexes the owning shard through a lookup
//! table built once, and an aggregate folds the shards in shard order.
//! The shard count only decides how the audit trace is segmented, so
//! any `N` reproduces the one-shard run bit for bit:
//!
//! * The fabric caches each shard's earliest pending completion
//!   ([`ShardState`]'s fused next-event time), dirtied only when a
//!   site in that shard is mutated. [`Fabric::next_time`] recomputes
//!   just the dirty shards and folds the minima in shard order, which
//!   equals the global minimum exactly (same multiset of `f64`).
//! * [`Fabric::advance_due`] advances only the shards whose cached
//!   next-event time is due. Each returns its completions pre-sorted in
//!   the runtime's `(time, tag)` retirement order; when two or more are
//!   due at one instant their buffers are appended in shard order and
//!   the appended range is sorted again. The key is total (tags are
//!   unique per dispatch), so the result is the one-shard sequence.

use crate::merge::sort_completions;
use crate::plan::ShardPlan;
use crate::segment::{EventCounts, ShardSegment};
use crate::state::ShardState;
use mrs_core::resource::SiteId;
use mrs_sim::engine::{Completion, LostClone, SimClone, SiteSim, UtilSample};

/// The site layer behind the runtime. See the [module docs](self).
#[derive(Debug)]
pub struct Fabric {
    /// The shards, in site order.
    states: Vec<ShardState>,
    /// The shard owning each site (built once from the [`ShardPlan`]).
    owner: Vec<usize>,
    /// Shards whose cached next-event time ([`ShardState::next`]) is
    /// stale: every path that mutates a site marks its shard.
    dirty: Vec<bool>,
    /// Cached alive-site count (crashes decrement, restores increment).
    alive: usize,
}

impl Fabric {
    /// Builds the fabric over `sims` (global site-index order) with the
    /// requested shard count (clamped by [`ShardPlan::new`]).
    pub fn new(sims: Vec<SiteSim>, dim: usize, shards: usize) -> Self {
        let sites = sims.len();
        let plan = ShardPlan::new(sites, shards);
        let n = plan.shards();
        let mut owner = Vec::with_capacity(sites);
        let mut states = Vec::with_capacity(n);
        let mut sims = sims.into_iter();
        for s in 0..n {
            let range = plan.range(s);
            owner.resize(range.end, s);
            let slice = sims.by_ref().take(range.len()).collect();
            states.push(ShardState::new(s, range.start, slice, dim));
        }
        Fabric {
            states,
            owner,
            dirty: vec![true; n],
            alive: sites,
        }
    }

    /// Number of shards the sites are split into.
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    /// The shard owning `site`.
    fn shard(&self, site: usize) -> &ShardState {
        &self.states[self.owner[site]]
    }

    /// The shard owning `site`, marked as having a stale next-event
    /// time (for calls that always mutate the site).
    fn dirty_shard(&mut self, site: usize) -> &mut ShardState {
        let s = self.owner[site];
        self.dirty[s] = true;
        &mut self.states[s]
    }

    /// Concatenates each shard's per-site values in shard order, which
    /// is global site order.
    fn per_site<T>(&self, push: impl Fn(&ShardState, &mut Vec<T>)) -> Vec<T> {
        let mut out = Vec::new();
        for st in &self.states {
            push(st, &mut out);
        }
        out
    }

    /// Brings every dirty shard's cached next-event time up to date.
    fn refresh_next(&mut self) {
        for (st, dirty) in self.states.iter_mut().zip(&mut self.dirty) {
            if *dirty {
                st.compute_next();
                *dirty = false;
            }
        }
    }

    /// Epoch phase 1: the earliest pending completion across all sites —
    /// the per-shard minima folded in shard order, which equals the
    /// global minimum exactly (same multiset of `f64`, `min` is exact).
    pub fn next_time(&mut self) -> Option<f64> {
        self.refresh_next();
        let mut min = None;
        for st in &self.states {
            min = match (min, st.next) {
                (Some(a), Some(b)) => Some(f64::min(a, b)),
                (a, b) => a.or(b),
            };
        }
        min
    }

    /// Epoch phase 2: advances every due site to `t`, appending the
    /// surfaced completions to `out` in `(time, tag)` order. Shards with
    /// no completion due at `t` are not touched; each due shard
    /// refreshes its own next-event time as it advances.
    pub fn advance_due(&mut self, t: f64, out: &mut Vec<Completion>) {
        self.refresh_next();
        let start = out.len();
        let mut due = 0;
        for st in &mut self.states {
            if st.next.is_some_and(|next| next <= t) {
                st.advance_due(t);
                out.extend_from_slice(&st.buf);
                due += 1;
            }
        }
        // Each buffer is already sorted; only a run spanning shards can
        // interleave.
        if due > 1 {
            sort_completions(&mut out[start..]);
        }
    }

    /// Catches `site` up to `clock` (see [`ShardState::catch_up`]).
    pub fn catch_up(&mut self, site: usize, clock: f64, out: &mut Vec<Completion>) {
        let s = self.owner[site];
        if self.states[s].catch_up(site, clock, out) {
            self.dirty[s] = true;
        }
    }

    /// Dispatch: inserts a clone on `site` (see [`ShardState::add_clone`]).
    /// A zero-duration clone completes inline, leaves the site untouched
    /// and is returned.
    pub fn place_clone(&mut self, site: usize, clone: &SimClone) -> Option<Completion> {
        let s = self.owner[site];
        let done = self.states[s].add_clone(site, clone);
        self.dirty[s] |= done.is_none();
        done
    }

    /// Crashes `site` (see [`ShardState::fail_site`]). The caller must
    /// ensure the site is currently alive (the runtime checks
    /// [`Fabric::is_down`] first).
    pub fn fail_site(&mut self, site: usize) -> Vec<LostClone> {
        self.alive -= 1;
        self.dirty_shard(site).fail_site(site)
    }

    /// Restores a crashed `site`.
    pub fn restore_site(&mut self, site: usize) {
        self.alive += 1;
        self.dirty_shard(site).restore_site(site);
    }

    /// Evicts the clone tagged `tag` from `site`.
    pub fn remove_clone(&mut self, site: usize, tag: usize) -> Option<LostClone> {
        self.dirty_shard(site).remove_clone(site, tag)
    }

    /// Whether `site` is currently crashed.
    pub fn is_down(&self, site: usize) -> bool {
        self.shard(site).is_down(site)
    }

    /// Mean [`SiteSim::load`] over the alive sites (`+∞` with none): the
    /// shards' folds chained in shard order, so the float sum is
    /// bit-identical for any shard count.
    pub fn avg_load(&self) -> f64 {
        let (mut acc, mut alive) = (0.0f64, 0usize);
        for st in &self.states {
            st.fold_load(&mut acc, &mut alive);
        }
        if alive == 0 {
            return f64::INFINITY;
        }
        acc / alive as f64
    }

    /// Number of sites currently in service (cached: crashes and
    /// restores maintain the count, so the admission path's
    /// degraded-mode check costs no fold over the sites).
    pub fn alive_sites(&self) -> usize {
        debug_assert_eq!(
            self.alive,
            self.alive_list().len(),
            "cached alive-site count diverged from the site simulators"
        );
        self.alive
    }

    /// The alive sites in global index order.
    pub fn alive_list(&self) -> Vec<SiteId> {
        self.per_site(ShardState::push_alive)
    }

    /// Total clones resident across all sites.
    pub fn total_resident(&self) -> usize {
        self.states.iter().map(ShardState::total_resident).sum()
    }

    /// Every site's busy-time vector, in global site order.
    pub fn busy(&self) -> Vec<Vec<f64>> {
        self.per_site(ShardState::push_busy)
    }

    /// Every site's peak-utilization vector, in global site order.
    pub fn peak_util(&self) -> Vec<Vec<f64>> {
        self.per_site(ShardState::push_peak_util)
    }

    /// Every site's exact utilization integral, in global site order.
    pub fn util_integral(&self) -> Vec<Vec<f64>> {
        self.per_site(ShardState::push_util_integral)
    }

    /// Every site's recorded utilization series, in global site order
    /// (empty unless [`Fabric::enable_util_series`] was called).
    pub fn util_series(&self) -> Vec<Vec<UtilSample>> {
        self.per_site(ShardState::push_util_series)
    }

    /// Enables per-step utilization recording on every site.
    pub fn enable_util_series(&mut self) {
        for st in &mut self.states {
            st.enable_util_series();
        }
    }

    /// Every shard's recorded events counted by kind, summed: the
    /// per-kind counts of [`Fabric::segments`] without decoding them.
    pub fn event_counts(&self) -> EventCounts {
        self.states.iter().map(ShardState::event_counts).sum()
    }

    /// The per-shard audit-trace segments, in shard order.
    pub fn segments(&self) -> Vec<ShardSegment> {
        self.states.iter().map(ShardState::segment).collect()
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
        const CRASHED: usize = 5;
        let mut single = Fabric::new(sims(7), 2, 1);
        let mut multi = Fabric::new(sims(7), 2, shards);
        assert_eq!(multi.shards(), shards.clamp(1, 7));
        // Non-dyadic rates, so the summation order shows in the bits.
        let work = [
            (0usize, 0usize, [3.0, 1.0], 7.0),
            (3, 1, [2.0, 2.0], 3.0),
            (3, 2, [1.0, 0.5], 1.1),
            (6, 3, [5.0, 0.0], 9.0),
            (1, 4, [0.7, 0.7], 1.3),
            (CRASHED, 5, [0.2, 0.9], 2.7),
        ];
        for f in [&mut single, &mut multi] {
            for (site, tag, w, dur) in work {
                assert!(f.place_clone(site, &clone(tag, &w, dur)).is_none());
            }
        }
        let mut crashed = false;
        loop {
            // The sliced folds agree after every epoch (after the drain
            // alone they would compare two exact zeros).
            assert_eq!(single.avg_load().to_bits(), multi.avg_load().to_bits());
            assert_eq!(single.alive_list(), multi.alive_list());
            assert_eq!(single.total_resident(), multi.total_resident());
            let (ta, tb) = (single.next_time(), multi.next_time());
            assert_eq!(ta.map(f64::to_bits), tb.map(f64::to_bits));
            let Some(t) = ta else { break };
            let (mut ca, mut cb) = (Vec::new(), Vec::new());
            single.advance_due(t, &mut ca);
            multi.advance_due(t, &mut cb);
            assert_eq!(ca, cb, "same completions in the same order");
            if !crashed {
                // Crash a loaded site part-way through, so the alive-only
                // mean runs across the shard split with a hole in it.
                crashed = true;
                for f in [&mut single, &mut multi] {
                    let mut out = Vec::new();
                    f.catch_up(CRASHED, t, &mut out);
                    assert!(out.is_empty());
                    assert_eq!(f.fail_site(CRASHED).len(), 1);
                }
                assert_eq!(single.alive_list().len(), 6);
                assert!(single.avg_load() > 0.0);
            }
        }
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
        f.place_clone(1, &clone(0, &[0.5, 1.0], 2.0)); // load 0.5
        f.place_clone(4, &clone(1, &[1.5, 0.0], 2.0)); // load 0.75
        assert_eq!(f.avg_load(), 1.25 / 6.0);
        // A crash zeroes the site's load and drops it from the mean's
        // denominator.
        assert_eq!(f.fail_site(4).len(), 1);
        assert!(f.is_down(4));
        assert_eq!(f.alive_sites(), 5);
        let alive: Vec<usize> = f.alive_list().iter().map(|s| s.0).collect();
        assert_eq!(alive, vec![0, 1, 2, 3, 5]);
        assert_eq!(f.total_resident(), 1);
        assert_eq!(f.avg_load(), 0.5 / 5.0);
        // A restore brings the site back empty.
        f.restore_site(4);
        assert_eq!(f.alive_sites(), 6);
        assert_eq!(f.avg_load(), 0.5 / 6.0);
        // With every site down the mean is +inf.
        for site in 0..6 {
            f.fail_site(site);
        }
        assert!(f.alive_list().is_empty());
        assert_eq!(f.avg_load(), f64::INFINITY);
        assert_eq!(f.next_time(), None, "the crashes evicted every clone");
    }

    #[test]
    fn an_advance_before_the_next_completion_surfaces_nothing() {
        let mut f = Fabric::new(sims(4), 2, 2);
        f.place_clone(0, &clone(0, &[4.0, 0.0], 4.0));
        assert_eq!(f.next_time(), Some(4.0));
        let mut out = Vec::new();
        f.advance_due(1.0, &mut out);
        assert!(out.is_empty());
        f.advance_due(4.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.next_time(), None);
    }

    #[test]
    fn simultaneous_cross_shard_completions_surface_in_tag_order() {
        // Bit-identical clones on sites in three shards complete at the
        // same instant, their tags descending in shard order: the
        // appended buffers read [2, 1, 0] until the re-sort.
        let mut f = Fabric::new(sims(6), 2, 3);
        f.place_clone(0, &clone(2, &[2.0, 0.0], 2.0));
        f.place_clone(2, &clone(1, &[2.0, 0.0], 2.0));
        f.place_clone(4, &clone(0, &[2.0, 0.0], 2.0));
        let t = f.next_time().expect("three clones pending");
        let mut out = Vec::new();
        f.advance_due(t, &mut out);
        let tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2], "(time, tag) order");
        assert!(f.states.iter().all(|st| st.next.is_none()));
        assert!(
            !f.dirty.contains(&true),
            "each due shard refreshed its own next"
        );
        assert_eq!(f.next_time(), None);
    }
}
