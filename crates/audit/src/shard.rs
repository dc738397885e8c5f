//! Trace-merge checker for the serving fabric's audit segments.
//!
//! The `mrs-shardexec` fabric records one site-level clone event log,
//! read as one segment per site range
//! (`mrs_runtime::runtime::Runtime::shard_segments`);
//! [`audit_shard_segments`] verifies the evidence those segments
//! constitute:
//!
//! 1. **partition** — the segments' site ranges tile `0..P` contiguously
//!    in shard order;
//! 2. **ownership** — every event names a site inside its segment's
//!    claimed range (the slicer put it in the right segment);
//! 3. **conservation** — across the canonical merged trace, every clone
//!    tag is dispatched exactly once, ends in exactly one terminal event
//!    (completion, crash loss, or eviction), and never terminates before
//!    (or without) its dispatch. A dispatch with no terminal is a clone
//!    the trace lost, so the check expects a drained run: every caller
//!    audits the segments after `run_to_completion`.
//!
//! The checks are segment-count-invariant by construction: they accept
//! the one segment of a `shards = 1` run and the N-way split of the
//! same run equally, and the determinism tests additionally assert the
//! two merge to identical canonical traces.

use crate::violation::Violation;
use mrs_shardexec::segment::{merge_segments, ShardEventKind, ShardSegment};
use std::collections::BTreeMap;

/// Per-tag lifecycle accumulator for the conservation check.
#[derive(Default)]
struct Lifecycle {
    dispatches: usize,
    dispatch_time: Option<f64>,
    terminals: usize,
}

/// Audits the trace segments of one run over `sites` sites.
/// Returns every violation found (empty = clean). See the
/// [module docs](self).
pub fn audit_shard_segments(segments: &[ShardSegment], sites: usize) -> Vec<Violation> {
    let mut out = Vec::new();

    // 1. The claimed ranges must tile 0..sites in shard order.
    let mut expected_start = 0usize;
    for seg in segments {
        let (lo, hi) = seg.sites;
        if lo != expected_start || hi < lo {
            out.push(Violation::ShardRangeBroken {
                shard: seg.shard,
                claimed: seg.sites,
                expected_start,
            });
        }
        expected_start = hi.max(expected_start);
    }
    if expected_start != sites {
        out.push(Violation::ShardRangeBroken {
            shard: segments.len(),
            claimed: (expected_start, expected_start),
            expected_start: sites,
        });
    }

    // 2. Every event must name a site the recording shard owns.
    for seg in segments {
        let (lo, hi) = seg.sites;
        for ev in &seg.events {
            if ev.site < lo || ev.site >= hi {
                out.push(Violation::ShardSiteOutOfRange {
                    shard: seg.shard,
                    site: ev.site,
                    range: seg.sites,
                });
            }
        }
    }

    // 3. Clone conservation over the canonical merged trace. BTreeMap
    //    keeps the per-tag reports in tag order (deterministic output).
    let merged = merge_segments(segments);
    let mut tags: BTreeMap<usize, Lifecycle> = BTreeMap::new();
    for ev in &merged {
        let life = tags.entry(ev.tag).or_default();
        match ev.kind {
            ShardEventKind::Dispatched => {
                life.dispatches += 1;
                if life.dispatch_time.is_none() {
                    life.dispatch_time = Some(ev.time);
                }
            }
            ShardEventKind::Completed | ShardEventKind::Lost | ShardEventKind::Evicted => {
                life.terminals += 1;
                match life.dispatch_time {
                    None => out.push(Violation::ShardConservationBroken {
                        tag: ev.tag,
                        detail: format!(
                            "{} at t={} with no prior dispatch",
                            ev.kind.label(),
                            ev.time
                        ),
                    }),
                    Some(d) if ev.time < d => out.push(Violation::ShardConservationBroken {
                        tag: ev.tag,
                        detail: format!(
                            "{} at t={} precedes its dispatch at t={d}",
                            ev.kind.label(),
                            ev.time
                        ),
                    }),
                    Some(_) => {}
                }
            }
        }
    }
    for (tag, life) in tags {
        if life.dispatches != 1 {
            out.push(Violation::ShardConservationBroken {
                tag,
                detail: format!(
                    "dispatched {} times (must be exactly once)",
                    life.dispatches
                ),
            });
        }
        if life.terminals != 1 {
            out.push(Violation::ShardConservationBroken {
                tag,
                detail: format!("{} terminal events (must be exactly one)", life.terminals),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_shardexec::segment::ShardEvent;
    use ShardEventKind::{Completed, Dispatched, Lost};

    fn ev(time: f64, site: usize, tag: usize, kind: ShardEventKind) -> ShardEvent {
        ShardEvent {
            time,
            site,
            tag,
            kind,
        }
    }

    fn seg(shard: usize, lo: usize, hi: usize, events: Vec<ShardEvent>) -> ShardSegment {
        ShardSegment {
            shard,
            sites: (lo, hi),
            events,
        }
    }

    fn clean_pair() -> Vec<ShardSegment> {
        vec![
            seg(
                0,
                0,
                2,
                vec![ev(0.0, 0, 0, Dispatched), ev(3.0, 0, 0, Completed)],
            ),
            seg(
                1,
                2,
                4,
                vec![ev(0.0, 3, 1, Dispatched), ev(1.0, 3, 1, Lost)],
            ),
        ]
    }

    #[test]
    fn clean_segments_pass() {
        assert!(audit_shard_segments(&clean_pair(), 4).is_empty());
    }

    #[test]
    fn range_gap_is_reported() {
        let mut segs = clean_pair();
        segs[1].sites = (3, 4); // leaves site 2 unowned
        let v = audit_shard_segments(&segs, 4);
        assert!(v.iter().any(|x| x.kind() == "shard-range"), "{v:?}");
    }

    #[test]
    fn short_coverage_is_reported() {
        let v = audit_shard_segments(&clean_pair(), 5);
        assert!(v.iter().any(|x| x.kind() == "shard-range"), "{v:?}");
    }

    #[test]
    fn foreign_site_is_reported() {
        let mut segs = clean_pair();
        segs[0].events.push(ev(1.0, 3, 7, Dispatched));
        let v = audit_shard_segments(&segs, 4);
        assert!(v.iter().any(|x| x.kind() == "shard-site"), "{v:?}");
    }

    #[test]
    fn double_dispatch_and_orphan_terminal_are_reported() {
        let mut segs = clean_pair();
        // Tag 0 dispatched a second time, tag 9 completes undispatched.
        segs[0].events.push(ev(4.0, 1, 0, Dispatched));
        segs[1].events.push(ev(5.0, 2, 9, Completed));
        let v = audit_shard_segments(&segs, 4);
        // Three breaches: tag 0 dispatched twice, tag 9's orphan
        // completion, and tag 9's zero-dispatch lifecycle.
        let conservation: Vec<_> = v
            .iter()
            .filter(|x| x.kind() == "shard-conservation")
            .collect();
        assert_eq!(conservation.len(), 3, "{v:?}");
    }

    #[test]
    fn a_dispatch_without_a_terminal_is_reported() {
        let mut segs = clean_pair();
        segs[0].events.pop(); // tag 0's completion
        let v = audit_shard_segments(&segs, 4);
        let kinds: Vec<&str> = v.iter().map(|x| x.kind()).collect();
        assert_eq!(kinds, vec!["shard-conservation"], "{v:?}");
        assert!(format!("{v:?}").contains("0 terminal events"), "{v:?}");
    }

    #[test]
    fn double_terminal_and_time_travel_are_reported() {
        let mut segs = clean_pair();
        segs[0].events.push(ev(3.5, 1, 0, Lost)); // second terminal for tag 0
        segs[1].events[1].time = -1.0; // loss before its own dispatch
        let v = audit_shard_segments(&segs, 4);
        assert!(
            v.iter()
                .filter(|x| x.kind() == "shard-conservation")
                .count()
                >= 2,
            "{v:?}"
        );
    }
}
