//! The per-shard executor state: one shard's site simulators, lazy
//! event calendar, and audit-trace event log.
//!
//! A [`ShardState`] owns everything needed to answer the two site-local
//! questions of the epoch protocol (next completion time; advance due
//! sites) without reading any other shard's state, plus the per-site
//! mutation entry points the [`Fabric`](crate::fabric::Fabric) calls on
//! the owning shard. All public methods take *global* site indices; the
//! state translates to its local slice.

use crate::merge::sort_completions;
use crate::segment::{EventCounts, EventLog, ShardEvent, ShardEventKind, ShardSegment, MAX_SITES};
use mrs_core::resource::SiteId;
use mrs_sim::calendar::EventCalendar;
use mrs_sim::engine::{Completion, LostClone, SimClone, SiteSim, UtilSample};

/// One shard's slice of the machine. See the [module docs](self).
#[derive(Debug)]
pub struct ShardState {
    /// Global index of this shard's first site.
    base: usize,
    /// Site simulators, indexed locally (`global - base`).
    sims: Vec<SiteSim>,
    /// Lazy completion calendar over the local sims.
    calendar: EventCalendar,
    /// This shard's index (its segment's `shard`).
    shard: usize,
    /// This shard's audit-trace events.
    events: EventLog,
    /// Completions surfaced by the latest advance command, sorted by
    /// `(time, tag)` — the runtime's canonical retirement order, so the
    /// fabric re-sorts only an instant whose completions span shards.
    pub(crate) buf: Vec<Completion>,
    /// Earliest pending completion, refreshed by [`ShardState::compute_next`]
    /// and — fused — at the end of every [`ShardState::advance_due`].
    pub(crate) next: Option<f64>,
}

impl ShardState {
    /// A shard executor for sites `base..base + sims.len()` with
    /// resource dimensionality `dim`, recording into segment `shard`.
    ///
    /// # Panics
    /// Panics if any site simulator's dimensionality is not `dim`, or if
    /// the shard covers a global site index of `2^30` or more (the event
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
            shard,
            events: EventLog::default(),
            sims,
            buf: Vec::new(),
            next: None,
        }
    }

    /// Global index of this shard's first site.
    pub fn base(&self) -> usize {
        self.base
    }

    fn local(&self, site: usize) -> usize {
        debug_assert!(
            site >= self.base && site < self.base + self.sims.len(),
            "site {site} not owned by shard over [{}, {})",
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

    /// Site-local epoch step 1: computes the earliest pending completion
    /// across this shard's sites into [`ShardState::next`].
    pub fn compute_next(&mut self) {
        self.next = self.calendar.next_time(&mut self.sims);
    }

    /// Site-local epoch step 2: advances every due site to `t`,
    /// collecting completions into [`ShardState::buf`] — sorted by
    /// `(time, tag)`, the runtime's retirement order — and recording
    /// them in the segment. Ends by refreshing [`ShardState::next`]
    /// while the calendar is fresh, so the fabric's next-event cache
    /// stays clean.
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
    /// surfaced completions to `out` (and the segment). Returns whether
    /// the site actually advanced (false for a site already at or past
    /// the clock), so the caller knows to refresh any cached next-event
    /// time.
    pub fn catch_up(&mut self, site: usize, clock: f64, out: &mut Vec<Completion>) -> bool {
        let l = self.local(site);
        if self.sims[l].now() < clock {
            let start = out.len();
            self.sims[l].advance_to(clock, out);
            self.calendar.invalidate(l);
            for &Completion { time, tag, .. } in &out[start..] {
                self.record(time, site, tag, ShardEventKind::Completed);
            }
            return true;
        }
        false
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

    /// Adds each alive site's [`SiteSim::load`] onto `acc` in site order,
    /// counting them into `alive`: chained over the shards in shard
    /// order, the same float additions as one whole-machine shard.
    pub fn fold_load(&self, acc: &mut f64, alive: &mut usize) {
        for sim in self.sims.iter().filter(|sim| !sim.is_down()) {
            *acc += sim.load();
            *alive += 1;
        }
    }

    /// Appends this shard's alive sites to `out` as global ids, in site
    /// order.
    pub fn push_alive(&self, out: &mut Vec<SiteId>) {
        for (l, sim) in self.sims.iter().enumerate() {
            if !sim.is_down() {
                out.push(SiteId(self.base + l));
            }
        }
    }

    /// Total clones resident across this shard's sites.
    pub fn total_resident(&self) -> usize {
        self.sims.iter().map(SiteSim::resident).sum()
    }

    /// Appends each local site's busy-time vector to `out`, in site
    /// order.
    pub fn push_busy(&self, out: &mut Vec<Vec<f64>>) {
        out.extend(self.sims.iter().map(|s| s.busy().to_vec()));
    }

    /// Appends each local site's peak-utilization vector to `out`.
    pub fn push_peak_util(&self, out: &mut Vec<Vec<f64>>) {
        out.extend(self.sims.iter().map(|s| s.peak_util().to_vec()));
    }

    /// Appends each local site's utilization integral to `out`.
    pub fn push_util_integral(&self, out: &mut Vec<Vec<f64>>) {
        out.extend(self.sims.iter().map(|s| s.util_integral().to_vec()));
    }

    /// Appends each local site's recorded utilization series to `out`
    /// (empty vectors when recording was never enabled).
    pub fn push_util_series(&self, out: &mut Vec<Vec<UtilSample>>) {
        out.extend(self.sims.iter().map(|s| {
            s.util_series()
                .map(<[UtilSample]>::to_vec)
                .unwrap_or_default()
        }));
    }

    /// The events this shard has recorded so far, counted by kind (no
    /// decoding).
    pub fn event_counts(&self) -> EventCounts {
        self.events.counts()
    }

    /// This shard's audit-trace segment: the events it has recorded so
    /// far, decoded into one list.
    pub fn segment(&self) -> ShardSegment {
        ShardSegment {
            shard: self.shard,
            sites: (self.base, self.base + self.sims.len()),
            events: self.events.to_vec(),
        }
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
        let kinds: Vec<(usize, ShardEventKind)> = st
            .segment()
            .events
            .iter()
            .map(|e| (e.site, e.kind))
            .collect();
        assert_eq!(kinds, vec![(5, Dispatched), (5, Completed)]);
    }

    #[test]
    fn zero_duration_clone_records_dispatch_and_completion() {
        use ShardEventKind::*;
        let mut st = state(0, 0, 1);
        let done = st.add_clone(0, &clone(9, &[0.0, 0.0], 0.0));
        assert!(done.is_some());
        let kinds: Vec<ShardEventKind> = st.segment().events.iter().map(|e| e.kind).collect();
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
        let kinds: Vec<(usize, ShardEventKind)> = st
            .segment()
            .events
            .iter()
            .map(|e| (e.site, e.kind))
            .collect();
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
        let before = st.segment().events.len();
        st.catch_up(0, 3.0, &mut out);
        assert_eq!(st.segment().events.len(), before);
    }
}
