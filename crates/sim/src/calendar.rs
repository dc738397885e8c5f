//! A lazy event calendar over a population of [`SiteSim`]s.
//!
//! The naive online loop asks every site for its next completion time at
//! every global event — an `O(P)` rescan (each involving a speed solve)
//! per event, which dominates the serving hot path at large `P`. The
//! calendar replaces the rescan with a [`BinaryHeap`] of
//! `(time, site, generation)` entries, maintained *lazily*:
//!
//! * an entry is pushed only for sites marked dirty since the last query
//!   ([`EventCalendar::invalidate`]), so an untouched site's entry is
//!   computed once and reused across arbitrarily many global events;
//! * invalidation is O(1) — the site's generation counter bumps, and any
//!   queued entry with a stale generation is discarded when it surfaces
//!   at the heap top (the classic lazy-deletion heap).
//!
//! Correctness leans on the fluid engine's invariant that a site's next
//! completion time is exact until its population next changes: the caller
//! must `invalidate` a site on *every* mutation (clone added or removed,
//! crash, restore, or an `advance_to` that decremented remaining work).
//! Between an entry's computation and its pop nothing touches the site,
//! so the stored time is the same value a fresh query would return —
//! determinism is preserved bit for bit.
//!
//! Sites advance lazily too: [`EventCalendar::advance_due`] only advances
//! the sites whose entries are due at the global event time, in site-index
//! order. Sites whose completions lie in the future keep their (lagging)
//! local clocks; the runtime catches them up on demand when it next
//! touches them.

use crate::engine::{Completion, SiteSim};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled site completion. Ordered by `(time, site, generation)`
/// with a total order on time, so heap pops are fully deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    time: f64,
    site: usize,
    generation: u64,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.site.cmp(&other.site))
            .then(self.generation.cmp(&other.generation))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The lazy site-completion calendar. See the [module docs](self).
#[derive(Debug)]
pub struct EventCalendar {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Current generation per site; heap entries from older generations
    /// are stale and discarded on pop.
    generation: Vec<u64>,
    /// Sites mutated since the last refresh (deduplicated via `dirty`).
    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
    /// Scratch for the due-site collection in `advance_due`.
    due_buf: Vec<usize>,
}

impl EventCalendar {
    /// A calendar over `sites` sites, all initially dirty (their first
    /// query computes fresh entries).
    pub fn new(sites: usize) -> Self {
        EventCalendar {
            heap: BinaryHeap::with_capacity(sites + 1),
            generation: vec![0; sites],
            dirty: vec![true; sites],
            dirty_list: (0..sites).collect(),
            due_buf: Vec::new(),
        }
    }

    /// Marks `site` stale: its generation bumps (so any queued entry is
    /// discarded when popped) and a fresh entry is computed on the next
    /// query. Must be called after *every* mutation of the site.
    pub fn invalidate(&mut self, site: usize) {
        self.generation[site] += 1;
        if !self.dirty[site] {
            self.dirty[site] = true;
            self.dirty_list.push(site);
        }
    }

    /// Recomputes entries for every dirty site. Sorted so heap insertion
    /// order — and therefore the heap's internal layout — is a pure
    /// function of the site state, independent of invalidation order.
    fn refresh(&mut self, sims: &mut [SiteSim]) {
        if self.dirty_list.is_empty() {
            return;
        }
        self.dirty_list.sort_unstable();
        for site in self.dirty_list.drain(..) {
            self.dirty[site] = false;
            if let Some(time) = sims[site].next_completion_time() {
                self.heap.push(Reverse(Entry {
                    time,
                    site,
                    generation: self.generation[site],
                }));
            }
        }
    }

    /// The earliest valid completion time across all sites, or `None`
    /// when every site is idle. Identical to folding
    /// `next_completion_time` over all of `sims` (the value each entry
    /// stores is the one the site itself reported).
    pub fn next_time(&mut self, sims: &mut [SiteSim]) -> Option<f64> {
        self.refresh(sims);
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.generation == self.generation[e.site] {
                return Some(e.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Advances every site whose entry is due at or before `t` up to `t`
    /// (in site-index order, matching the old advance-everything loop),
    /// appending their completions to `out` and invalidating them. Sites
    /// with entries beyond `t` — and idle sites — are left untouched.
    pub fn advance_due(&mut self, t: f64, sims: &mut [SiteSim], out: &mut Vec<Completion>) {
        self.advance_due_observed(t, sims, out, |_, _| {});
    }

    /// [`EventCalendar::advance_due`] with an observer: after each due
    /// site advances, `observe(site, slice)` is invoked with that site's
    /// newly appended completions. The observed arithmetic is identical
    /// to the plain variant (which delegates here with a no-op closure);
    /// the hook exists so the site layer can attribute completions to
    /// their site in its clone event log without re-deriving the due
    /// set.
    pub fn advance_due_observed(
        &mut self,
        t: f64,
        sims: &mut [SiteSim],
        out: &mut Vec<Completion>,
        mut observe: impl FnMut(usize, &[Completion]),
    ) {
        self.refresh(sims);
        let mut due = std::mem::take(&mut self.due_buf);
        due.clear();
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.generation != self.generation[e.site] {
                self.heap.pop();
                continue;
            }
            if e.time <= t {
                self.heap.pop();
                due.push(e.site);
            } else {
                break;
            }
        }
        due.sort_unstable();
        due.dedup();
        for &site in &due {
            let start = out.len();
            sims[site].advance_to(t, out);
            self.invalidate(site);
            observe(site, &out[start..]);
        }
        self.due_buf = due;
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
        cal.advance_due(10.0, &mut sims, &mut out);
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
        let fold = {
            let mut min: Option<f64> = None;
            for s in sims.iter_mut() {
                if let Some(t) = s.next_completion_time() {
                    min = Some(min.map_or(t, |m: f64| m.min(t)));
                }
            }
            min
        };
        assert_eq!(
            cal.next_time(&mut sims).map(f64::to_bits),
            fold.map(f64::to_bits)
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
        cal.advance_due(t, &mut sims, &mut out);
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
        cal.advance_due(t, &mut sims, &mut out);
        let mut tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1]);
        assert_eq!(cal.next_time(&mut sims), None);
    }

    #[test]
    fn observed_advance_matches_plain_and_attributes_sites() {
        let drive = |observed: bool| {
            let mut sims = sims(3);
            let mut cal = EventCalendar::new(3);
            sims[0].add_clone(&clone(0, &[2.0, 0.0], 2.0));
            sims[2].add_clone(&clone(1, &[2.0, 0.0], 2.0));
            cal.invalidate(0);
            cal.invalidate(2);
            let t = cal.next_time(&mut sims).unwrap();
            let mut out = Vec::new();
            let mut seen: Vec<(usize, usize)> = Vec::new();
            if observed {
                cal.advance_due_observed(t, &mut sims, &mut out, |site, done| {
                    seen.push((site, done.len()));
                });
            } else {
                cal.advance_due(t, &mut sims, &mut out);
            }
            (
                out.iter()
                    .map(|c| (c.tag, c.time.to_bits()))
                    .collect::<Vec<_>>(),
                seen,
            )
        };
        let (plain, no_obs) = drive(false);
        let (obs, sites) = drive(true);
        assert_eq!(plain, obs, "observer must not perturb the arithmetic");
        assert!(no_obs.is_empty());
        // Each due site reported once, in site-index order, with its own
        // completions.
        assert_eq!(sites, vec![(0, 1), (2, 1)]);
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
