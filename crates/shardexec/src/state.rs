//! A site layer: a run of site simulators, their lazy event calendar,
//! and the clone event log they record into.
//!
//! A [`ShardState`] answers the two questions of the epoch protocol
//! (next completion time; advance the due sites) and takes every
//! per-site mutation. The [`Fabric`](crate::fabric::Fabric) holds one
//! over all sites (base 0); [`ShardPool`](crate::pool::ShardPool) cells
//! hold one per contiguous range. All public methods take *global* site
//! indices; the state translates to its local slice.

use crate::merge::sort_completions;
use crate::segment::{EventCounts, EventLog, ShardEvent, ShardEventKind, MAX_SITES};
use mrs_core::resource::SiteId;
use mrs_sim::calendar::EventCalendar;
use mrs_sim::engine::{Completion, LostClone, SimClone, SiteSim, UtilSample};

/// A run of sites and their event log. See the [module docs](self).
#[derive(Debug)]
pub struct ShardState {
    /// Global index of the first site.
    base: usize,
    /// Site simulators, indexed locally (`global - base`).
    sims: Vec<SiteSim>,
    /// Lazy completion calendar over the local sims.
    calendar: EventCalendar,
    /// Every clone event the sites recorded, in push order.
    events: EventLog,
    /// Completions surfaced by the latest advance command, sorted by
    /// `(time, tag)`: the runtime's canonical retirement order.
    pub(crate) buf: Vec<Completion>,
    /// Earliest pending completion, refreshed by [`ShardState::compute_next`]
    /// and — fused — at the end of every [`ShardState::advance_due`].
    pub(crate) next: Option<f64>,
}

impl ShardState {
    /// The state of sites `base..base + sims.len()` with resource
    /// dimensionality `dim`; `shard` only names it in panic messages.
    ///
    /// # Panics
    /// Panics if any site simulator's dimensionality is not `dim`, or if
    /// the state covers a global site index of `2^30` or more (the event
    /// log stores a site in 30 bits).
    pub fn new(shard: usize, base: usize, sims: Vec<SiteSim>, dim: usize) -> Self {
        assert!(
            sims.iter().all(|sim| sim.dim() == dim),
            "site dimensionality mismatch: shard {shard} expects d = {dim}"
        );
        let end = base.saturating_add(sims.len());
        assert!(
            end <= MAX_SITES,
            "shard {shard} covers sites {base}..{end}: the event log holds at most 2^30 sites"
        );
        let n = sims.len();
        ShardState {
            base,
            calendar: EventCalendar::new(n),
            events: EventLog::default(),
            sims,
            buf: Vec::new(),
            next: None,
        }
    }

    /// Global index of the first site.
    pub fn base(&self) -> usize {
        self.base
    }

    fn local(&self, site: usize) -> usize {
        debug_assert!(
            site >= self.base && site < self.base + self.sims.len(),
            "site {site} outside sites [{}, {})",
            self.base,
            self.base + self.sims.len()
        );
        site - self.base
    }

    fn record(&mut self, time: f64, site: usize, tag: usize, kind: ShardEventKind) {
        self.events.push(ShardEvent {
            time,
            site,
            tag,
            kind,
        });
    }

    /// Epoch step 1: computes the earliest pending completion across
    /// the sites into [`ShardState::next`].
    pub fn compute_next(&mut self) {
        self.next = self.calendar.next_time(&mut self.sims);
    }

    /// Epoch step 2: advances every due site to `t` in site order,
    /// collecting completions into [`ShardState::buf`] (sorted by
    /// `(time, tag)`, the runtime's retirement order) and recording them
    /// in the log. Ends by refreshing [`ShardState::next`] while the
    /// calendar is fresh, so one pool round answers both questions.
    pub fn advance_due(&mut self, t: f64) {
        self.buf.clear();
        let base = self.base;
        let log = &mut self.events;
        self.calendar
            .advance_due_observed(t, &mut self.sims, &mut self.buf, |site, done| {
                for c in done {
                    log.push(ShardEvent {
                        time: c.time,
                        site: base + site,
                        tag: c.tag,
                        kind: ShardEventKind::Completed,
                    });
                }
            });
        sort_completions(&mut self.buf);
        self.next = self.calendar.next_time(&mut self.sims);
    }

    /// Catches a lazily advanced site up to `clock`, appending any
    /// surfaced completions to `out` (and the log). A site already at
    /// or past the clock is left untouched.
    pub fn catch_up(&mut self, site: usize, clock: f64, out: &mut Vec<Completion>) {
        let l = self.local(site);
        if self.sims[l].now() < clock {
            let start = out.len();
            self.sims[l].advance_to(clock, out);
            self.calendar.invalidate(l);
            for &Completion { time, tag, .. } in &out[start..] {
                self.record(time, site, tag, ShardEventKind::Completed);
            }
        }
    }

    /// Inserts a clone on `site` at the site's current clock, recording
    /// the dispatch. A zero-duration clone completes inline: its
    /// completion is returned (and recorded) instead of being tracked.
    pub fn add_clone(&mut self, site: usize, clone: &SimClone) -> Option<Completion> {
        let l = self.local(site);
        match self.sims[l].add_clone(clone) {
            Some(done) => {
                self.record(done.time, site, clone.tag, ShardEventKind::Dispatched);
                self.record(done.time, site, clone.tag, ShardEventKind::Completed);
                Some(done)
            }
            None => {
                self.calendar.invalidate(l);
                let now = self.sims[l].now();
                self.record(now, site, clone.tag, ShardEventKind::Dispatched);
                None
            }
        }
    }

    /// Crashes `site`: evicts and returns its resident clones (recorded
    /// as lost), zeroing its committed load. The caller must have caught
    /// the site up to the clock first.
    pub fn fail_site(&mut self, site: usize) -> Vec<LostClone> {
        let l = self.local(site);
        let lost = self.sims[l].fail();
        self.calendar.invalidate(l);
        let now = self.sims[l].now();
        for lc in &lost {
            self.record(now, site, lc.tag, ShardEventKind::Lost);
        }
        lost
    }

    /// Restores a crashed `site`, empty and idle.
    pub fn restore_site(&mut self, site: usize) {
        let l = self.local(site);
        self.sims[l].restore();
        self.calendar.invalidate(l);
    }

    /// Evicts the clone tagged `tag` from `site` (recorded as evicted if
    /// resident). The calendar entry is invalidated either way,
    /// mirroring the serial loop.
    pub fn remove_clone(&mut self, site: usize, tag: usize) -> Option<LostClone> {
        let l = self.local(site);
        let removed = self.sims[l].remove_clone(tag);
        self.calendar.invalidate(l);
        if removed.is_some() {
            let now = self.sims[l].now();
            self.record(now, site, tag, ShardEventKind::Evicted);
        }
        removed
    }

    /// Whether `site` is currently crashed.
    pub fn is_down(&self, site: usize) -> bool {
        self.sims[self.local(site)].is_down()
    }

    /// Enables per-step utilization series recording on every site.
    pub fn enable_util_series(&mut self) {
        for sim in &mut self.sims {
            sim.enable_util_series();
        }
    }

    /// Mean [`SiteSim::load`] over the alive sites, summed in site
    /// order (`+∞` with none alive).
    pub fn avg_load(&self) -> f64 {
        let (mut acc, mut alive) = (0.0f64, 0usize);
        for sim in self.sims.iter().filter(|sim| !sim.is_down()) {
            acc += sim.load();
            alive += 1;
        }
        if alive == 0 {
            return f64::INFINITY;
        }
        acc / alive as f64
    }

    /// The alive sites as global ids, in site order.
    pub fn alive_list(&self) -> Vec<SiteId> {
        (self.sims.iter().enumerate())
            .filter(|(_, sim)| !sim.is_down())
            .map(|(l, _)| SiteId(self.base + l))
            .collect()
    }

    /// Total clones resident across the sites.
    pub fn total_resident(&self) -> usize {
        self.sims.iter().map(SiteSim::resident).sum()
    }

    /// Every site's busy-time vector, in site order.
    pub fn busy(&self) -> Vec<Vec<f64>> {
        self.sims.iter().map(|s| s.busy().to_vec()).collect()
    }

    /// Every site's peak-utilization vector, in site order.
    pub fn peak_util(&self) -> Vec<Vec<f64>> {
        self.sims.iter().map(|s| s.peak_util().to_vec()).collect()
    }

    /// Every site's exact utilization integral, in site order.
    pub fn util_integral(&self) -> Vec<Vec<f64>> {
        self.sims
            .iter()
            .map(|s| s.util_integral().to_vec())
            .collect()
    }

    /// Every site's recorded utilization series, in site order (empty
    /// vectors when recording was never enabled).
    pub fn util_series(&self) -> Vec<Vec<UtilSample>> {
        self.sims
            .iter()
            .map(|s| {
                s.util_series()
                    .map(<[UtilSample]>::to_vec)
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The events recorded so far, counted by kind (no decoding).
    pub fn event_counts(&self) -> EventCounts {
        self.events.counts()
    }

    /// The events recorded so far, decoded in push order.
    pub fn events(&self) -> Vec<ShardEvent> {
        self.events.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::vector::WorkVector;
    use mrs_sim::engine::SimConfig;

    fn state(shard: usize, base: usize, n: usize) -> ShardState {
        let sims = (0..n)
            .map(|_| SiteSim::new(SimConfig::default(), 2))
            .collect();
        ShardState::new(shard, base, sims, 2)
    }

    fn clone(tag: usize, w: &[f64], duration: f64) -> SimClone {
        SimClone {
            tag,
            work: WorkVector::from_slice(w),
            duration,
        }
    }

    #[test]
    fn lifecycle_events_are_recorded_with_global_sites() {
        use ShardEventKind::*;
        let mut st = state(1, 4, 3); // owns global sites 4..7
        assert!(st.add_clone(5, &clone(0, &[2.0, 0.0], 2.0)).is_none());
        st.compute_next();
        let t = st.next.expect("one clone pending");
        st.advance_due(t);
        assert_eq!(st.buf.len(), 1);
        let kinds: Vec<(usize, ShardEventKind)> =
            st.events().iter().map(|e| (e.site, e.kind)).collect();
        assert_eq!(kinds, vec![(5, Dispatched), (5, Completed)]);
    }

    #[test]
    fn zero_duration_clone_records_dispatch_and_completion() {
        use ShardEventKind::*;
        let mut st = state(0, 0, 1);
        let done = st.add_clone(0, &clone(9, &[0.0, 0.0], 0.0));
        assert!(done.is_some());
        let kinds: Vec<ShardEventKind> = st.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![Dispatched, Completed]);
    }

    #[test]
    fn fail_and_evict_record_terminal_events() {
        use ShardEventKind::*;
        let mut st = state(0, 2, 2);
        st.add_clone(2, &clone(0, &[4.0, 0.0], 4.0));
        st.add_clone(3, &clone(1, &[4.0, 0.0], 4.0));
        let lost = st.fail_site(2);
        assert_eq!(lost.len(), 1);
        assert!(st.is_down(2));
        let evicted = st.remove_clone(3, 1);
        assert!(evicted.is_some());
        assert_eq!(st.remove_clone(3, 1), None, "already gone");
        let kinds: Vec<(usize, ShardEventKind)> =
            st.events().iter().map(|e| (e.site, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![(2, Dispatched), (3, Dispatched), (2, Lost), (3, Evicted)]
        );
        st.restore_site(2);
        assert!(!st.is_down(2));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn site_dimensionality_must_match_the_shard() {
        let sims = vec![SiteSim::new(SimConfig::default(), 3)];
        let _ = ShardState::new(0, 0, sims, 2);
    }

    #[test]
    #[should_panic(expected = "at most 2^30 sites")]
    fn sites_past_the_log_encoding_are_rejected() {
        let _ = state(0, MAX_SITES - 1, 2);
    }

    #[test]
    fn catch_up_skips_current_sites_and_records_completions() {
        let mut st = state(0, 0, 2);
        st.add_clone(0, &clone(0, &[1.0, 0.0], 1.0));
        let mut out = Vec::new();
        st.catch_up(0, 3.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, 1.0);
        // Already at the clock: no-op.
        let before = st.events().len();
        st.catch_up(0, 3.0, &mut out);
        assert_eq!(st.events().len(), before);
    }
}
