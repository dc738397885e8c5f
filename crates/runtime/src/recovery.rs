//! Failure-aware rescheduling: re-packing lost clones' unfinished work
//! onto the surviving site set.
//!
//! When a site crashes mid-phase, its resident clones are evicted with
//! their remaining intrinsic time. The runtime scales each lost clone's
//! work vector by its unfinished fraction, inflates it with a *rebuild
//! surcharge* (re-reading the partition from a replica and re-shipping
//! it costs extra disk and network work — the data-placement constraint
//! that pinned the clone to the dead site is migrated, not ignored), and
//! hands the batch to [`replan_lost`], which runs the paper's
//! multi-dimensional LPT list rule (`schedule_with_degrees`, the packing
//! half of Figure 3's OPERATORSCHEDULE) over a [`SystemSpec`] shrunk to
//! the alive sites — degree selection is *not* re-run, because a lost
//! clone's parallelism was already chosen at admission (re-widening
//! every remnant would multiply the clone population under repeated
//! crashes). The multi-resource list rule re-applies unchanged when the
//! machine set changes (Perotin et al., arXiv:2106.07059), which is
//! exactly what makes crash recovery a re-run of the packer rather than
//! a special code path.
//!
//! If nothing is alive (or packing fails), the runtime parks the work on
//! a capped exponential-backoff retry; exhausting the cap aborts the
//! query with [`RuntimeError::Aborted`](crate::runtime::RuntimeError).
//!
//! Every loss re-applies the surcharge to the already inflated remnant,
//! and each re-pack starts a fresh retry count, so work that is lost
//! often enough grows without bound. Recovery is therefore bounded by
//! the query's own scale: a re-packed clone longer than
//! [`MAX_REPACK_STRETCH`] times its query's standalone TreeSchedule
//! response ([`QueryRecord::standalone_response`]) aborts the query
//! ([`repack_out_of_bounds`]). Unbounded, such remnants reach 10^26 s
//! and more, site clocks follow them, and an ordinary clone's
//! completion then rounds to the clock itself, so the run can no longer
//! advance. [`MAX_REPACKED_DURATION`] sits in the same predicate and
//! keeps a remnant from overflowing the site simulator's arithmetic
//! even for a query whose standalone response is itself huge.
//!
//! [`QueryRecord::standalone_response`]: crate::job::QueryRecord::standalone_response

use mrs_core::comm::CommModel;
use mrs_core::error::ScheduleError;
use mrs_core::list::{schedule_with_degrees, ListOrder};
use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
use mrs_core::resource::{SiteId, SiteSpec, SystemSpec};
use mrs_core::vector::WorkVector;

/// Knobs of the recovery loop.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Rebuild surcharge: for each unit of lost work volume, this much
    /// extra work is added to the re-packed vectors, split evenly between
    /// the disk and network dimensions (all of it on the network for
    /// diskless layouts). Models re-reading the lost partition from a
    /// replica and re-shipping it.
    pub rebuild_factor: f64,
    /// Maximum recovery attempts per query before it is aborted.
    pub max_retries: u32,
    /// Base delay of the capped exponential retry backoff
    /// (`base · 2^attempt`, in virtual seconds).
    pub backoff_base: f64,
    /// Ceiling of the retry backoff delay.
    pub backoff_cap: f64,
    /// Graceful degradation: when `alive_sites / total_sites` falls
    /// below this fraction, new arrivals are shed instead of queued —
    /// the admission gate tightens rather than letting a shrunken
    /// machine drown. `0.0` (the default) never sheds.
    pub degrade_threshold: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            rebuild_factor: 0.1,
            max_retries: 5,
            backoff_base: 1.0,
            backoff_cap: 64.0,
            degrade_threshold: 0.0,
        }
    }
}

/// The longest re-packed clone (virtual seconds) the runtime dispatches.
/// The fluid speed solve sums `remaining × demand` over a site's
/// residents, each product at most the clone's duration; under this
/// bound (below `√f64::MAX ≈ 1.3e154`) that sum stays finite for any
/// resident count a run can reach, and a longer clone would never
/// finish anyway.
pub const MAX_REPACKED_DURATION: f64 = 1e150;

/// The longest re-packed clone, as a multiple of its query's standalone
/// TreeSchedule response: recovery that would run longer than a hundred
/// undisturbed runs of the whole query gives up instead.
pub const MAX_REPACK_STRETCH: f64 = 100.0;

/// Whether a re-packed clone of intrinsic `duration` breaks the recovery
/// bound of a query whose standalone response is `standalone`: it is
/// NaN, longer than [`MAX_REPACKED_DURATION`], or longer than
/// [`MAX_REPACK_STRETCH`] × `standalone`. Such a clone aborts its query.
pub fn repack_out_of_bounds(duration: f64, standalone: f64) -> bool {
    !(duration <= MAX_REPACKED_DURATION && duration <= MAX_REPACK_STRETCH * standalone)
}

/// The capped exponential backoff delay before retry `attempt`
/// (0-based): `min(base · 2^attempt, cap)`.
pub fn backoff_delay(cfg: &RecoveryConfig, attempt: u32) -> f64 {
    let exp = 2.0f64.powi(attempt.min(62) as i32);
    (cfg.backoff_base * exp).min(cfg.backoff_cap)
}

/// Adds the rebuild surcharge to one lost work vector: `factor · total`
/// extra work, split between disk and network (all on the network if the
/// layout has no disk).
pub fn rebuild_inflated(work: &WorkVector, site: &SiteSpec, factor: f64) -> WorkVector {
    let mut w = work.clone();
    if factor <= 0.0 {
        return w;
    }
    let extra = factor * work.total();
    match site.disk_dim() {
        Some(disk) => {
            w.add_at(disk, 0.5 * extra);
            w.add_at(site.net_dim(), 0.5 * extra);
        }
        None => w.add_at(site.net_dim(), extra),
    }
    w
}

/// Re-packs `lost` work vectors onto the `alive` sites, returning the
/// new clone placements as `(site, work)` pairs in the *full* system's
/// site numbering.
///
/// Each lost vector becomes one floating operator *pinned to degree 1*:
/// a lost clone is the remnant of an operator whose parallelism was
/// already chosen at admission, so re-running `choose_degree` on it
/// would double-dip — and, under repeated crashes, multiply the clone
/// population without bound (every loss re-widened into several clones,
/// each loss of those re-widened again). The remnants are inflated by
/// [`rebuild_inflated`] and packed with the paper's multi-dimensional
/// LPT list rule (`schedule_with_degrees`) over a system of
/// `alive.len()` sites; packed site `k` maps back to `alive[k]`. One
/// lost clone therefore yields exactly one replacement clone.
///
/// # Panics
/// Panics if `alive` is empty (callers park the work on a retry
/// instead) or `lost` is empty.
pub fn replan_lost(
    lost: &[WorkVector],
    alive: &[SiteId],
    site: &SiteSpec,
    comm: &CommModel,
    rebuild_factor: f64,
) -> Result<Vec<(SiteId, WorkVector)>, ScheduleError> {
    assert!(!alive.is_empty(), "replan needs at least one alive site");
    assert!(!lost.is_empty(), "replan needs lost work");
    let ops: Vec<(OperatorSpec, usize)> = lost
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let spec = OperatorSpec::floating(
                OperatorId(i),
                OperatorKind::Other,
                rebuild_inflated(w, site, rebuild_factor),
                // The rebuild traffic is already charged explicitly on
                // the vectors; no additional repartitioning volume.
                0.0,
            );
            (spec, 1)
        })
        .collect();
    let survivors =
        SystemSpec::new(alive.len(), site.clone()).expect("non-empty alive set forms a system");
    let schedule = schedule_with_degrees(ops, &survivors, comm, ListOrder::LongestFirst)?;
    let mut placements = Vec::new();
    for (op, homes) in schedule.ops.iter().zip(&schedule.assignment.homes) {
        for (home, work) in homes.iter().zip(&op.clones) {
            placements.push((alive[home.0], work.clone()));
        }
    }
    Ok(placements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RecoveryConfig {
            backoff_base: 0.5,
            backoff_cap: 3.0,
            ..RecoveryConfig::default()
        };
        assert_eq!(backoff_delay(&cfg, 0), 0.5);
        assert_eq!(backoff_delay(&cfg, 1), 1.0);
        assert_eq!(backoff_delay(&cfg, 2), 2.0);
        assert_eq!(backoff_delay(&cfg, 3), 3.0, "capped");
        assert_eq!(backoff_delay(&cfg, 40), 3.0, "still capped");
    }

    #[test]
    fn the_repack_bound_scales_with_the_query() {
        assert!(!repack_out_of_bounds(100.0, 1.0), "at the bound");
        assert!(repack_out_of_bounds(100.5, 1.0));
        assert!(!repack_out_of_bounds(1e6, 1e4));
        assert!(repack_out_of_bounds(f64::NAN, 1.0));
        // The overflow guard holds whatever the query's scale.
        assert!(repack_out_of_bounds(2e150, 1e149));
        assert!(!repack_out_of_bounds(1e150, 1e149));
    }

    #[test]
    fn rebuild_surcharge_lands_on_disk_and_net() {
        let site = SiteSpec::cpu_disk_net();
        let w = WorkVector::from_slice(&[10.0, 4.0, 6.0]);
        let inflated = rebuild_inflated(&w, &site, 0.1);
        // total 20 → surcharge 2, split 1 disk + 1 net.
        let disk = site.disk_dim().unwrap();
        let net = site.net_dim();
        let cpu = site.cpu_dim();
        assert_eq!(inflated[cpu], w[cpu]);
        assert!((inflated[disk] - (w[disk] + 1.0)).abs() < 1e-12);
        assert!((inflated[net] - (w[net] + 1.0)).abs() < 1e-12);
        // Zero factor is the identity.
        assert_eq!(rebuild_inflated(&w, &site, 0.0), w);
    }

    #[test]
    fn replan_places_everything_on_alive_sites_only() {
        let site = SiteSpec::cpu_disk_net();
        let comm = CommModel::paper_defaults();
        let lost = vec![
            WorkVector::from_slice(&[8.0, 3.0, 0.0]),
            WorkVector::from_slice(&[2.0, 1.0, 0.0]),
        ];
        // Survivors are a non-contiguous subset of a 6-site machine.
        let alive = vec![SiteId(1), SiteId(3), SiteId(4)];
        let placements = replan_lost(&lost, &alive, &site, &comm, 0.1).expect("packable");
        // Degree is pinned: one replacement clone per lost clone.
        assert_eq!(placements.len(), lost.len());
        for (s, w) in &placements {
            assert!(alive.contains(s), "placement on dead site {s:?}");
            assert!(w.total() > 0.0);
        }
        // Work is conserved and the rebuild surcharge added: the
        // placements sum to at least the unfinished work.
        let lost_total: f64 = lost.iter().map(WorkVector::total).sum();
        let placed_total: f64 = placements.iter().map(|(_, w)| w.total()).sum();
        assert!(
            placed_total >= lost_total - 1e-9,
            "placed {placed_total} < lost {lost_total}"
        );
    }

    #[test]
    fn replan_is_deterministic() {
        let site = SiteSpec::cpu_disk_net();
        let comm = CommModel::paper_defaults();
        let lost = vec![WorkVector::from_slice(&[5.0, 5.0, 1.0])];
        let alive = vec![SiteId(0), SiteId(2)];
        let a = replan_lost(&lost, &alive, &site, &comm, 0.2).unwrap();
        let b = replan_lost(&lost, &alive, &site, &comm, 0.2).unwrap();
        assert_eq!(a.len(), b.len());
        for ((sa, wa), (sb, wb)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert_eq!(wa, wb);
        }
    }

    #[test]
    #[should_panic(expected = "alive site")]
    fn replan_refuses_empty_survivor_set() {
        let site = SiteSpec::cpu_disk_net();
        let comm = CommModel::paper_defaults();
        let lost = vec![WorkVector::from_slice(&[1.0, 0.0, 0.0])];
        let _ = replan_lost(&lost, &[], &site, &comm, 0.1);
    }
}
