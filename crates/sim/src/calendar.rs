//! A lazy event calendar over a population of [`SiteSim`]s.
//!
//! The naive online loop asks every site for its next completion time at
//! every global event — an `O(P)` rescan (each involving a speed solve)
//! per event, which dominates the serving hot path at large `P`. The
//! calendar replaces the rescan with a *min-tree* over the sites' cached
//! next completion times, maintained *lazily*:
//!
//! * a leaf per site holds the time the site last reported, as an
//!   integer key in [`f64::total_cmp`] order (an idle site holds a key
//!   after every time), and each inner node holds the smaller of its two
//!   children, so the root is the earliest completion anywhere;
//! * a site is recomputed only when it was marked dirty since the last
//!   query ([`EventCalendar::invalidate`], O(1)), so an untouched site's
//!   time is computed once and reused across arbitrarily many global
//!   events; a recomputed leaf walks up at most `log₂ P` ancestors,
//!   stopping at the first whose minimum does not change.
//!
//! Each site has exactly one leaf, and sites are independent, so the
//! order in which dirty sites are recomputed changes no value: the root
//! is bit for bit the minimum a linear fold over the sites returns.
//!
//! Correctness leans on the fluid engine's invariant that a site's next
//! completion time is exact until its population next changes: the caller
//! must `invalidate` a site on *every* mutation (clone added or removed,
//! crash, restore, or an `advance_to` that decremented remaining work).
//! Between a leaf's computation and its use nothing touches the site,
//! so the stored time is the same value a fresh query would return —
//! determinism is preserved bit for bit.
//!
//! Sites advance lazily too: [`EventCalendar::advance_due`] only advances
//! the sites whose leaves are due at the global event time, in site-index
//! order: it takes the leftmost due leaf from the root, `log₂ P` steps
//! down and up, until the root is no longer due. Sites whose completions
//! lie in the future keep their (lagging) local clocks; the runtime
//! catches them up on demand when it next touches them.

use crate::engine::{Completion, SiteSim};

/// A leaf's key: `time`'s place in the [`f64::total_cmp`] order as an
/// unsigned integer, so the tree's minima are integer minima.
fn key(time: f64) -> u64 {
    let bits = time.to_bits();
    if bits >> 63 == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// The time whose [`key`] is `key`.
fn time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !SIGN } else { !key })
}

const SIGN: u64 = 1 << 63;

/// The key of an idle site: after every time (it is a NaN's key).
const IDLE: u64 = u64::MAX;

/// The lazy site-completion calendar. See the [module docs](self).
#[derive(Debug)]
pub struct EventCalendar {
    /// Leaves in the tree: the site count rounded up to a power of two.
    leaves: usize,
    /// The min-tree of [`key`]s, 1-based: node `i` has children `2i`
    /// and `2i + 1`, and site `s`'s leaf is node `leaves + s`. [`IDLE`]
    /// marks an idle site (and the padding leaves past the last site).
    tree: Vec<u64>,
    /// Sites mutated since the last refresh (deduplicated via `dirty`).
    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
    /// Sites recomputed so far (see [`EventCalendar::refreshes`]).
    refreshes: u64,
}

impl EventCalendar {
    /// A calendar over `sites` sites, all initially dirty (their first
    /// query computes fresh leaves).
    pub fn new(sites: usize) -> Self {
        let leaves = sites.next_power_of_two();
        EventCalendar {
            leaves,
            tree: vec![IDLE; 2 * leaves],
            dirty: vec![true; sites],
            dirty_list: (0..sites).collect(),
            refreshes: 0,
        }
    }

    /// How many times a site's next completion time was recomputed: a
    /// deterministic work counter (each dirty site counts once per
    /// refresh, however often it was invalidated in between).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Marks `site` stale: a fresh leaf is computed on the next query.
    /// Must be called after *every* mutation of the site.
    pub fn invalidate(&mut self, site: usize) {
        if !self.dirty[site] {
            self.dirty[site] = true;
            self.dirty_list.push(site);
        }
    }

    /// Recomputes the leaf of every dirty site and the minima above it.
    /// A walk stops early at an ancestor whose minimum did not change.
    fn refresh(&mut self, sims: &mut [SiteSim]) {
        self.refreshes += self.dirty_list.len() as u64;
        for site in self.dirty_list.drain(..) {
            self.dirty[site] = false;
            let mut node = self.leaves + site;
            self.tree[node] = sims[site].next_completion_time().map_or(IDLE, key);
            while node > 1 {
                node /= 2;
                let min = self.tree[2 * node].min(self.tree[2 * node + 1]);
                if min == self.tree[node] {
                    break;
                }
                self.tree[node] = min;
            }
        }
    }

    /// The earliest completion time across all sites, or `None` when
    /// every site is idle. Identical to folding `next_completion_time`
    /// over all of `sims` (each leaf stores the value the site itself
    /// reported).
    pub fn next_time(&mut self, sims: &mut [SiteSim]) -> Option<f64> {
        self.refresh(sims);
        let root = self.tree[1];
        (root != IDLE).then(|| time(root))
    }

    /// Advances every site whose leaf is due at or before `t` up to `t`
    /// (in site-index order, matching the old advance-everything loop),
    /// appending their completions to `out` and invalidating them. Sites
    /// with leaves beyond `t` — and idle sites — are left untouched.
    /// After each due site advances, `observe(site, slice)` is invoked
    /// with that site's newly appended completions, so the site layer
    /// can attribute completions to their site in its clone event log
    /// without re-deriving the due set.
    pub fn advance_due(
        &mut self,
        t: f64,
        sims: &mut [SiteSim],
        out: &mut Vec<Completion>,
        mut observe: impl FnMut(usize, &[Completion]),
    ) {
        self.refresh(sims);
        if t.is_nan() {
            return;
        }
        // Every leaf is a positive time (`now + dt` with `dt > 0`), on
        // which the key order is the IEEE order, or idle, which is after
        // every `t`.
        let due = key(t);
        // The leftmost due leaf, found from the root each time: a due
        // subtree has a due child, and the left one goes first, so the
        // due sites surface in site order. An advanced site's leaf turns
        // idle until the next refresh recomputes it, so it is visited
        // once even if its next completion rounds to `t` itself.
        while self.tree[1] <= due {
            let mut node = 1;
            while node < self.leaves {
                node = 2 * node + usize::from(self.tree[2 * node] > due);
            }
            let site = node - self.leaves;
            self.tree[node] = IDLE;
            while node > 1 {
                node /= 2;
                self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
            }
            let start = out.len();
            sims[site].advance_to(t, out);
            self.invalidate(site);
            observe(site, &out[start..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimClone, SimConfig};
    use mrs_core::vector::WorkVector;

    fn clone(tag: usize, w: &[f64], duration: f64) -> SimClone {
        SimClone {
            tag,
            work: WorkVector::from_slice(w),
            duration,
        }
    }

    fn sims(n: usize) -> Vec<SiteSim> {
        (0..n)
            .map(|_| SiteSim::new(SimConfig::default(), 2))
            .collect()
    }

    #[test]
    fn empty_calendar_has_no_events() {
        let mut sims = sims(3);
        let mut cal = EventCalendar::new(3);
        assert_eq!(cal.next_time(&mut sims), None);
        let mut out = Vec::new();
        cal.advance_due(10.0, &mut sims, &mut out, |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn next_time_matches_linear_fold() {
        let mut sims = sims(4);
        let mut cal = EventCalendar::new(4);
        sims[2].add_clone(&clone(0, &[4.0, 0.0], 4.0));
        cal.invalidate(2);
        sims[0].add_clone(&clone(1, &[9.0, 0.0], 9.0));
        cal.invalidate(0);
        assert_eq!(
            cal.next_time(&mut sims).map(f64::to_bits),
            fold_next(&mut sims).map(f64::to_bits)
        );
    }

    #[test]
    fn stale_entries_are_discarded() {
        let mut sims = sims(2);
        let mut cal = EventCalendar::new(2);
        sims[0].add_clone(&clone(0, &[2.0, 0.0], 2.0));
        cal.invalidate(0);
        assert_eq!(cal.next_time(&mut sims), Some(2.0));
        // Evict the clone: the queued t=2 entry must not be served.
        sims[0].remove_clone(0);
        cal.invalidate(0);
        assert_eq!(cal.next_time(&mut sims), None);
    }

    #[test]
    fn advance_due_only_touches_due_sites() {
        let mut sims = sims(3);
        let mut cal = EventCalendar::new(3);
        sims[0].add_clone(&clone(0, &[1.0, 0.0], 1.0));
        sims[1].add_clone(&clone(1, &[5.0, 0.0], 5.0));
        cal.invalidate(0);
        cal.invalidate(1);
        let t = cal.next_time(&mut sims).unwrap();
        assert_eq!(t, 1.0);
        let mut out = Vec::new();
        cal.advance_due(t, &mut sims, &mut out, |_, _| {});
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 0);
        // Site 1 was not due: its local clock lags (lazy advancement).
        assert_eq!(sims[1].now(), 0.0);
        assert_eq!(sims[0].now(), 1.0);
        // Its pending completion is still correctly scheduled.
        assert_eq!(cal.next_time(&mut sims), Some(5.0));
    }

    #[test]
    fn simultaneous_completions_all_pop() {
        let mut sims = sims(2);
        let mut cal = EventCalendar::new(2);
        // Identical clones on identical idle sites complete at the same
        // bit-identical instant; both must advance in one call.
        sims[0].add_clone(&clone(0, &[3.0, 0.0], 3.0));
        sims[1].add_clone(&clone(1, &[3.0, 0.0], 3.0));
        cal.invalidate(0);
        cal.invalidate(1);
        let t = cal.next_time(&mut sims).unwrap();
        let mut out = Vec::new();
        cal.advance_due(t, &mut sims, &mut out, |_, _| {});
        let mut tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1]);
        assert_eq!(cal.next_time(&mut sims), None);
    }

    #[test]
    fn the_observer_sees_each_due_site_once_with_its_completions() {
        let mut sims = sims(3);
        let mut cal = EventCalendar::new(3);
        sims[0].add_clone(&clone(0, &[2.0, 0.0], 2.0));
        sims[2].add_clone(&clone(1, &[2.0, 0.0], 2.0));
        cal.invalidate(0);
        cal.invalidate(2);
        let t = cal.next_time(&mut sims).unwrap();
        let mut out = Vec::new();
        let mut seen: Vec<(usize, Vec<usize>)> = Vec::new();
        cal.advance_due(t, &mut sims, &mut out, |site, done| {
            seen.push((site, done.iter().map(|c| c.tag).collect()));
        });
        let tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1]);
        // Each due site reported once, in site-index order, with its own
        // completions.
        assert_eq!(seen, vec![(0, vec![0]), (2, vec![1])]);
    }

    /// Next completion time by a linear fold over every site: the
    /// rescan the calendar replaces.
    fn fold_next(sims: &mut [SiteSim]) -> Option<f64> {
        let mut min: Option<f64> = None;
        for s in sims.iter_mut() {
            if let Some(t) = s.next_completion_time() {
                min = Some(min.map_or(t, |m: f64| m.min(t)));
            }
        }
        min
    }

    /// Catches `site` up to `clock` the way the site layer does,
    /// dropping its completions from `resident`.
    fn catch_up(
        cal: &mut EventCalendar,
        sims: &mut [SiteSim],
        resident: &mut [Vec<usize>],
        site: usize,
        clock: f64,
    ) {
        if sims[site].now() < clock {
            let mut out = Vec::new();
            sims[site].advance_to(clock, &mut out);
            cal.invalidate(site);
            resident[site].retain(|tag| out.iter().all(|c| c.tag != *tag));
        }
    }

    /// A seeded mix of dispatches, evictions, crashes, restores,
    /// catch-ups and advances drives the calendar and a linear fold side
    /// by side: after every step the next time is bit-equal, and every
    /// advance visits exactly the sites due by the fold, in site order.
    #[test]
    fn min_tree_matches_a_linear_fold_under_a_seeded_mix() {
        use mrs_core::rng::DetRng;
        for (p, seed) in [(1, 1), (2, 2), (3, 3), (13, 4), (140, 5), (2048, 6)] {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut sims = sims(p);
            let mut cal = EventCalendar::new(p);
            let mut resident: Vec<Vec<usize>> = vec![Vec::new(); p];
            let (mut clock, mut tag) = (0.0f64, 0usize);
            for step in 0..600 {
                let site = rng.gen_range(0..p);
                match rng.gen_range(0..10usize) {
                    // Dispatch a run of equal clones on consecutive
                    // sites, so completions tie across sites.
                    0..=3 => {
                        let n = rng.gen_range(1..=8usize);
                        let cpu = rng.gen_range(1..=4usize) as f64;
                        let duration = rng.gen_range(1..=4usize) as f64;
                        for s in (site..site + n).map(|s| s % p) {
                            catch_up(&mut cal, &mut sims, &mut resident, s, clock);
                            if !sims[s].is_down() {
                                sims[s].add_clone(&clone(tag, &[cpu, 1.0], duration));
                                cal.invalidate(s);
                                resident[s].push(tag);
                                tag += 1;
                            }
                        }
                    }
                    4 => {
                        catch_up(&mut cal, &mut sims, &mut resident, site, clock);
                        if let Some(&victim) = resident[site].first() {
                            assert!(sims[site].remove_clone(victim).is_some());
                            resident[site].remove(0);
                        }
                        cal.invalidate(site);
                    }
                    5 => {
                        catch_up(&mut cal, &mut sims, &mut resident, site, clock);
                        if sims[site].is_down() {
                            sims[site].restore();
                        } else {
                            sims[site].fail();
                            resident[site].clear();
                        }
                        cal.invalidate(site);
                    }
                    6 => catch_up(&mut cal, &mut sims, &mut resident, site, clock),
                    _ => {
                        let Some(next) = cal.next_time(&mut sims) else {
                            continue;
                        };
                        // Now and then run past the next event, so that
                        // several sites fall due at once.
                        let t = if rng.gen_bool(0.3) {
                            next + rng.gen_f64()
                        } else {
                            next
                        };
                        let expected: Vec<usize> = (0..p)
                            .filter(|&s| sims[s].next_completion_time().is_some_and(|x| x <= t))
                            .collect();
                        let mut out = Vec::new();
                        let mut seen = Vec::new();
                        cal.advance_due(t, &mut sims, &mut out, |s, done| {
                            resident[s].retain(|tag| done.iter().all(|c| c.tag != *tag));
                            seen.push(s);
                        });
                        assert_eq!(seen, expected, "P = {p}, step {step}: due set");
                        clock = t;
                    }
                }
                assert_eq!(
                    cal.next_time(&mut sims).map(f64::to_bits),
                    fold_next(&mut sims).map(f64::to_bits),
                    "P = {p}, step {step}: next time"
                );
            }
            assert!(tag > 0, "P = {p}: the mix dispatched nothing");
        }
    }

    #[test]
    fn repeated_queries_are_stable() {
        let mut sims = sims(2);
        let mut cal = EventCalendar::new(2);
        sims[1].add_clone(&clone(0, &[4.0, 2.0], 6.0));
        cal.invalidate(1);
        let a = cal.next_time(&mut sims).unwrap();
        let b = cal.next_time(&mut sims).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
