//! The execution fabric: the runtime's single entry point to the site
//! layer.
//!
//! A [`Fabric`] is one [`ShardState`] over all sites, run on the
//! caller's thread: one lazy calendar, one run-encoded clone event log,
//! and a cached alive-site count. Audit segments are not part of it.
//! They are slices of the one log by site range, cut when read
//! ([`ShardPlan::split`](crate::plan::ShardPlan::split) over
//! [`Fabric::events`]). A slice holds its range's events in the order
//! the sites recorded them, because every record is per site: the
//! calendar advances the due sites in global index order, and dispatch,
//! catch-up, crash and eviction each touch one site.

use crate::segment::{EventCounts, ShardEvent};
use crate::state::ShardState;
use mrs_core::resource::SiteId;
use mrs_sim::engine::{Completion, LostClone, SimClone, SiteSim, UtilSample};

/// The site layer behind the runtime. See the [module docs](self).
#[derive(Debug)]
pub struct Fabric {
    /// Every site, from global index 0.
    state: ShardState,
    /// Cached alive-site count (crashes decrement, restores increment).
    alive: usize,
}

impl Fabric {
    /// Builds the fabric over `sims` (global site-index order).
    pub fn new(sims: Vec<SiteSim>, dim: usize) -> Self {
        let alive = sims.len();
        Fabric {
            state: ShardState::new(0, 0, sims, dim),
            alive,
        }
    }

    /// Epoch phase 1: the earliest pending completion across all sites.
    pub fn next_time(&mut self) -> Option<f64> {
        self.state.compute_next();
        self.state.next
    }

    /// Epoch phase 2: advances every due site to `t`, appending the
    /// surfaced completions to `out` in `(time, tag)` order.
    pub fn advance_due(&mut self, t: f64, out: &mut Vec<Completion>) {
        self.state.advance_due(t);
        out.extend_from_slice(&self.state.buf);
    }

    /// Catches `site` up to `clock` (see [`ShardState::catch_up`]).
    pub fn catch_up(&mut self, site: usize, clock: f64, out: &mut Vec<Completion>) {
        self.state.catch_up(site, clock, out);
    }

    /// Dispatch: inserts a clone on `site` (see [`ShardState::add_clone`]).
    /// A zero-duration clone completes inline, leaves the site untouched
    /// and is returned.
    pub fn place_clone(&mut self, site: usize, clone: &SimClone) -> Option<Completion> {
        self.state.add_clone(site, clone)
    }

    /// Crashes `site` (see [`ShardState::fail_site`]). The caller must
    /// ensure the site is currently alive (the runtime checks
    /// [`Fabric::is_down`] first).
    pub fn fail_site(&mut self, site: usize) -> Vec<LostClone> {
        self.alive -= 1;
        self.state.fail_site(site)
    }

    /// Restores a crashed `site`.
    pub fn restore_site(&mut self, site: usize) {
        self.alive += 1;
        self.state.restore_site(site);
    }

    /// Evicts the clone tagged `tag` from `site`.
    pub fn remove_clone(&mut self, site: usize, tag: usize) -> Option<LostClone> {
        self.state.remove_clone(site, tag)
    }

    /// Whether `site` is currently crashed.
    pub fn is_down(&self, site: usize) -> bool {
        self.state.is_down(site)
    }

    /// Mean [`SiteSim::load`] over the alive sites (`+∞` with none).
    pub fn avg_load(&self) -> f64 {
        self.state.avg_load()
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
        self.state.alive_list()
    }

    /// Total clones resident across all sites.
    pub fn total_resident(&self) -> usize {
        self.state.total_resident()
    }

    /// Every site's busy-time vector, in global site order.
    pub fn busy(&self) -> Vec<Vec<f64>> {
        self.state.busy()
    }

    /// Every site's peak-utilization vector, in global site order.
    pub fn peak_util(&self) -> Vec<Vec<f64>> {
        self.state.peak_util()
    }

    /// Every site's exact utilization integral, in global site order.
    pub fn util_integral(&self) -> Vec<Vec<f64>> {
        self.state.util_integral()
    }

    /// Every site's recorded utilization series, in global site order
    /// (empty unless [`Fabric::enable_util_series`] was called).
    pub fn util_series(&self) -> Vec<Vec<UtilSample>> {
        self.state.util_series()
    }

    /// Enables per-step utilization recording on every site.
    pub fn enable_util_series(&mut self) {
        self.state.enable_util_series();
    }

    /// The recorded events counted by kind, without decoding the log.
    pub fn event_counts(&self) -> EventCounts {
        self.state.event_counts()
    }

    /// Every recorded clone event, decoded in push order.
    pub fn events(&self) -> Vec<ShardEvent> {
        self.state.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ShardEventKind;
    use mrs_core::vector::WorkVector;
    use mrs_sim::engine::SimConfig;

    fn fabric(n: usize) -> Fabric {
        let sims = (0..n)
            .map(|_| SiteSim::new(SimConfig::default(), 2))
            .collect();
        Fabric::new(sims, 2)
    }

    fn clone(tag: usize, w: &[f64], duration: f64) -> SimClone {
        SimClone {
            tag,
            work: WorkVector::from_slice(w),
            duration,
        }
    }

    #[test]
    fn crashes_and_restores_move_the_alive_mean() {
        let mut f = fabric(6);
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
        let mut f = fabric(4);
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
    fn same_instant_completions_on_different_sites_surface_in_tag_order() {
        use ShardEventKind::*;
        // Bit-identical clones on three sites complete at one instant,
        // their tags descending in site order: the calendar advances
        // the sites in index order, so the log reads [2, 1, 0] while
        // the surfaced completions are sorted by tag.
        let mut f = fabric(6);
        f.place_clone(0, &clone(2, &[2.0, 0.0], 2.0));
        f.place_clone(2, &clone(1, &[2.0, 0.0], 2.0));
        f.place_clone(4, &clone(0, &[2.0, 0.0], 2.0));
        let t = f.next_time().expect("three clones pending");
        let mut out = Vec::new();
        f.advance_due(t, &mut out);
        let tags: Vec<usize> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2], "(time, tag) order");
        assert_eq!(f.next_time(), None);
        let logged: Vec<(usize, usize, ShardEventKind)> =
            f.events().iter().map(|e| (e.site, e.tag, e.kind)).collect();
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
        assert_eq!(f.event_counts().total(), 6);
    }
}
