//! Clone-log checker for the runtime's site-level event log.
//!
//! The `mrs-shardexec` site layer records one log of every clone
//! dispatch, completion, crash loss and eviction
//! (`mrs_runtime::runtime::Runtime::clone_events`). [`audit_clone_log`]
//! reads it once, in push order, and verifies the evidence it holds:
//!
//! 1. **sites** — every event names a site below `P`;
//! 2. **conservation** — every clone tag is dispatched exactly once,
//!    ends in exactly one terminal event (completion, crash loss, or
//!    eviction), and no terminal comes before its dispatch, in the log
//!    or in virtual time. A dispatch with no terminal is a clone the log
//!    lost, so the check expects a drained run: every caller audits the
//!    log after `run_to_completion`.
//!
//! The log is the run's, whatever `RuntimeConfig::shards` says: the
//! segments `Runtime::shard_segments` returns are slices of it, cut when
//! read.

use crate::violation::Violation;
use mrs_shardexec::segment::{ShardEvent, ShardEventKind};
use std::collections::BTreeMap;

/// Per-tag lifecycle accumulator for the conservation check.
#[derive(Default)]
struct Lifecycle {
    dispatches: usize,
    dispatch_time: Option<f64>,
    terminals: usize,
}

/// Audits the clone event log of one run over `sites` sites, in push
/// order. Returns every violation found (empty = clean). See the
/// [module docs](self).
pub fn audit_clone_log(events: &[ShardEvent], sites: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    // BTreeMap keeps the per-tag reports in tag order (deterministic
    // output).
    let mut tags: BTreeMap<usize, Lifecycle> = BTreeMap::new();
    for ev in events {
        if ev.site >= sites {
            out.push(Violation::CloneSiteOutOfRange {
                tag: ev.tag,
                site: ev.site,
                sites,
            });
        }
        let life = tags.entry(ev.tag).or_default();
        if ev.kind == ShardEventKind::Dispatched {
            life.dispatches += 1;
            life.dispatch_time.get_or_insert(ev.time);
            continue;
        }
        life.terminals += 1;
        let detail = match life.dispatch_time {
            None => format!(
                "{} at t={} with no prior dispatch",
                ev.kind.label(),
                ev.time
            ),
            Some(d) if ev.time < d => format!(
                "{} at t={} precedes its dispatch at t={d}",
                ev.kind.label(),
                ev.time
            ),
            Some(_) => continue,
        };
        out.push(Violation::CloneConservationBroken {
            tag: ev.tag,
            detail,
        });
    }
    for (tag, life) in tags {
        if life.dispatches != 1 {
            out.push(Violation::CloneConservationBroken {
                tag,
                detail: format!(
                    "dispatched {} times (must be exactly once)",
                    life.dispatches
                ),
            });
        }
        if life.terminals != 1 {
            out.push(Violation::CloneConservationBroken {
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
    use ShardEventKind::{Completed, Dispatched, Lost};

    fn ev(time: f64, site: usize, tag: usize, kind: ShardEventKind) -> ShardEvent {
        ShardEvent {
            time,
            site,
            tag,
            kind,
        }
    }

    /// Two clones on 4 sites: tag 0 completes, tag 1 is lost in a crash.
    fn clean_log() -> Vec<ShardEvent> {
        vec![
            ev(0.0, 0, 0, Dispatched),
            ev(0.0, 3, 1, Dispatched),
            ev(1.0, 3, 1, Lost),
            ev(3.0, 0, 0, Completed),
        ]
    }

    fn kinds(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(Violation::kind).collect()
    }

    #[test]
    fn a_clean_log_passes() {
        assert!(audit_clone_log(&clean_log(), 4).is_empty());
    }

    #[test]
    fn an_event_naming_a_site_at_or_past_p_is_reported() {
        let v = audit_clone_log(&clean_log(), 3);
        assert_eq!(kinds(&v), vec!["clone-site", "clone-site"], "{v:?}");
        assert!(v[0].to_string().contains("site 3"), "{v:?}");
    }

    #[test]
    fn double_dispatch_and_orphan_terminal_are_reported() {
        let mut log = clean_log();
        // Tag 0 dispatched a second time, tag 9 completes undispatched.
        log.push(ev(4.0, 1, 0, Dispatched));
        log.push(ev(5.0, 2, 9, Completed));
        let v = audit_clone_log(&log, 4);
        // Three breaches: tag 9's orphan completion, tag 0 dispatched
        // twice, and tag 9's zero-dispatch lifecycle.
        assert_eq!(kinds(&v), vec!["clone-conservation"; 3], "{v:?}");
        assert!(v[0].to_string().contains("no prior dispatch"), "{v:?}");
    }

    #[test]
    fn a_terminal_before_its_dispatch_in_the_log_is_reported() {
        let mut log = clean_log();
        log.swap(0, 3); // tag 0 completes before it is dispatched
        let v = audit_clone_log(&log, 4);
        assert_eq!(kinds(&v), vec!["clone-conservation"], "{v:?}");
        assert!(v[0].to_string().contains("no prior dispatch"), "{v:?}");
    }

    #[test]
    fn a_dispatch_without_a_terminal_is_reported() {
        let mut log = clean_log();
        log.pop(); // tag 0's completion
        let v = audit_clone_log(&log, 4);
        assert_eq!(kinds(&v), vec!["clone-conservation"], "{v:?}");
        assert!(format!("{v:?}").contains("0 terminal events"), "{v:?}");
    }

    #[test]
    fn double_terminal_and_time_travel_are_reported() {
        let mut log = clean_log();
        log.push(ev(3.5, 1, 0, Lost)); // second terminal for tag 0
        log[2].time = -1.0; // tag 1's loss before its own dispatch
        let v = audit_clone_log(&log, 4);
        assert_eq!(kinds(&v), vec!["clone-conservation"; 2], "{v:?}");
        assert!(v[0].to_string().contains("precedes its dispatch"), "{v:?}");
        assert!(v[1].to_string().contains("2 terminal events"), "{v:?}");
    }
}
