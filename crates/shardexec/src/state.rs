//! The site layer: a run of site simulators, their lazy event
//! calendar, and the clone event log they record into.
//!
//! A [`ShardState`] answers the two questions of the epoch protocol
//! (next completion time; advance the due sites) and takes every
//! per-site mutation. The runtime drives one over all sites (base 0) on
//! its event loop's thread; [`ShardPool`](crate::pool::ShardPool) cells
//! hold one per contiguous range. All public methods take *global* site
//! indices; the state translates to its local slice.
//!
//! Every record is per site: the calendar advances the due sites in
//! index order, and dispatch, catch-up, crash and eviction each touch
//! one site. So a slice of the log by site range
//! ([`ShardPlan::split`](crate::plan::ShardPlan::split)) holds its
//! range's events in the order a log of its own would have recorded
//! them.

use crate::merge::sort_completions;
use crate::segment::{EventCounts, EventLog, ShardEvent, ShardEventKind, MAX_SITES};
use mrs_core::resource::SiteId;
use mrs_core::vector::WorkVector;
use mrs_sim::calendar::EventCalendar;
use mrs_sim::engine::{demand_rates, Completion, LostClone, SimClone, SiteSim, UtilSample};

/// Deterministic work counters of the site layer: how much simulation
/// work a run did, whatever the host's speed. Equal counters on two
/// builds mean they simulated the same steps; a wall-clock difference
/// between them is the cost of each step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Sharing-policy solves, summed over the sites
    /// ([`SiteSim::speed_solves`]).
    pub speed_solves: u64,
    /// Constant-speed intervals stepped, summed over the sites
    /// ([`SiteSim::fluid_steps`]).
    pub fluid_steps: u64,
    /// Clones inserted on a site, zero-duration ones included.
    pub clones_placed: u64,
    /// Sites whose next completion time the calendar recomputed
    /// ([`EventCalendar::refreshes`]).
    pub calendar_refreshes: u64,
}

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
    /// Sites in service: crashes decrement it and restores increment
    /// it, so the admission path's degraded-mode check costs no fold
    /// over the sites.
    alive: usize,
    /// Clones inserted so far (see [`SiteCounters::clones_placed`]).
    clones_placed: u64,
    /// Completions surfaced by the latest [`ShardState::advance_due`],
    /// sorted by `(time, tag)`: the runtime's canonical retirement order.
    pub(crate) buf: Vec<Completion>,
    /// Earliest pending completion, refreshed by [`ShardState::next_time`]
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
            alive: sims.iter().filter(|sim| !sim.is_down()).count(),
            clones_placed: 0,
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

    /// Epoch step 1: the earliest pending completion across the sites
    /// (`None` when every site is idle).
    pub fn next_time(&mut self) -> Option<f64> {
        self.next = self.calendar.next_time(&mut self.sims);
        self.next
    }

    /// [`ShardState::next_time`] for a pool round, which reads the
    /// answer from the `next` field.
    pub fn compute_next(&mut self) {
        self.next_time();
    }

    /// Epoch step 2: advances every due site to `t` in site order,
    /// collecting completions (sorted by `(time, tag)`, the runtime's
    /// retirement order; see [`ShardState::take_completions`]) and
    /// recording them in the log. Ends by refreshing the `next` field
    /// while the calendar is fresh, so one pool round answers both
    /// questions.
    pub fn advance_due(&mut self, t: f64) {
        self.buf.clear();
        let base = self.base;
        let log = &mut self.events;
        self.calendar
            .advance_due(t, &mut self.sims, &mut self.buf, |site, done| {
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

    /// Swaps the completions the latest [`ShardState::advance_due`]
    /// surfaced into `out`, whose old contents are dropped and whose
    /// buffer the next advance reuses: nothing is copied or allocated.
    pub fn take_completions(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        std::mem::swap(&mut self.buf, out);
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
        let demand = demand_rates(&clone.work, clone.duration);
        self.insert(site, clone.tag, &demand, clone.duration)
    }

    /// [`ShardState::add_clone`] for a clone given by its tag, demand
    /// rates and duration ([`SiteSim::insert`]): a run of equal clones
    /// shares one demand vector.
    pub fn insert(
        &mut self,
        site: usize,
        tag: usize,
        demand: &WorkVector,
        duration: f64,
    ) -> Option<Completion> {
        let l = self.local(site);
        self.clones_placed += 1;
        match self.sims[l].insert(tag, demand, duration) {
            Some(done) => {
                self.record(done.time, site, tag, ShardEventKind::Dispatched);
                self.record(done.time, site, tag, ShardEventKind::Completed);
                Some(done)
            }
            None => {
                self.calendar.invalidate(l);
                let now = self.sims[l].now();
                self.record(now, site, tag, ShardEventKind::Dispatched);
                None
            }
        }
    }

    /// Crashes `site`: evicts and returns its resident clones (recorded
    /// as lost), zeroing its committed load. The caller must have caught
    /// the site up to the clock first, and the site must be alive.
    pub fn fail_site(&mut self, site: usize) -> Vec<LostClone> {
        let l = self.local(site);
        self.alive -= 1;
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
        self.alive += 1;
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

    /// Number of sites in service (kept as a count, not folded).
    pub fn alive_sites(&self) -> usize {
        debug_assert_eq!(
            self.alive,
            self.alive_list().len(),
            "cached alive-site count diverged from the site simulators"
        );
        self.alive
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

    /// The site layer's work counters so far (see [`SiteCounters`]).
    pub fn counters(&self) -> SiteCounters {
        SiteCounters {
            speed_solves: self.sims.iter().map(SiteSim::speed_solves).sum(),
            fluid_steps: self.sims.iter().map(SiteSim::fluid_steps).sum(),
            clones_placed: self.clones_placed,
            calendar_refreshes: self.calendar.refreshes(),
        }
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
    fn crashes_and_restores_move_the_alive_mean() {
        let mut st = state(0, 0, 6);
        st.add_clone(1, &clone(0, &[0.5, 1.0], 2.0)); // load 0.5
        st.add_clone(4, &clone(1, &[1.5, 0.0], 2.0)); // load 0.75
        assert_eq!(st.avg_load(), 1.25 / 6.0);
        // A crash zeroes the site's load and drops it from the mean's
        // denominator.
        assert_eq!(st.fail_site(4).len(), 1);
        assert!(st.is_down(4));
        assert_eq!(st.alive_sites(), 5);
        let alive: Vec<usize> = st.alive_list().iter().map(|s| s.0).collect();
        assert_eq!(alive, vec![0, 1, 2, 3, 5]);
        assert_eq!(st.total_resident(), 1);
        assert_eq!(st.avg_load(), 0.5 / 5.0);
        // A restore brings the site back empty.
        st.restore_site(4);
        assert_eq!(st.alive_sites(), 6);
        assert_eq!(st.avg_load(), 0.5 / 6.0);
        // With every site down the mean is +inf.
        for site in 0..6 {
            st.fail_site(site);
        }
        assert!(st.alive_list().is_empty());
        assert_eq!(st.alive_sites(), 0);
        assert_eq!(st.avg_load(), f64::INFINITY);
        assert_eq!(st.next_time(), None, "the crashes evicted every clone");
    }

    #[test]
    fn an_advance_before_the_next_completion_surfaces_nothing() {
        let mut st = state(0, 0, 4);
        st.add_clone(0, &clone(0, &[4.0, 0.0], 4.0));
        assert_eq!(st.next_time(), Some(4.0));
        let mut out = Vec::new();
        st.advance_due(1.0);
        st.take_completions(&mut out);
        assert!(out.is_empty());
        st.advance_due(4.0);
        st.take_completions(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(st.next_time(), None);
    }

    #[test]
    fn same_instant_completions_on_different_sites_surface_in_tag_order() {
        use ShardEventKind::*;
        // Bit-identical clones on three sites complete at one instant,
        // their tags descending in site order: the calendar advances
        // the sites in index order, so the log reads [2, 1, 0] while
        // the surfaced completions are sorted by tag.
        let mut st = state(0, 0, 6);
        st.add_clone(0, &clone(2, &[2.0, 0.0], 2.0));
        st.add_clone(2, &clone(1, &[2.0, 0.0], 2.0));
        st.add_clone(4, &clone(0, &[2.0, 0.0], 2.0));
        let t = st.next_time().expect("three clones pending");
        let mut out = Vec::new();
        st.advance_due(t);
        st.take_completions(&mut out);
        let tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2], "(time, tag) order");
        assert_eq!(st.next_time(), None);
        let logged: Vec<(usize, usize, ShardEventKind)> = st
            .events()
            .iter()
            .map(|e| (e.site, e.tag, e.kind))
            .collect();
        assert_eq!(
            logged,
            vec![
                (0, 2, Dispatched),
                (2, 1, Dispatched),
                (4, 0, Dispatched),
                (0, 2, Completed),
                (2, 1, Completed),
                (4, 0, Completed),
            ]
        );
        assert_eq!(st.event_counts().total(), 6);
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
