//! Per-shard audit-trace segments and their canonical merge.
//!
//! Each shard records every site-level clone event it owns — dispatch,
//! completion, crash loss, eviction — into its own [`ShardSegment`].
//! Segments are the evidence the trace-merge checker audits: they must
//! partition the site range, conserve every dispatched clone (exactly
//! one terminal event per tag), and re-sort to a single canonical global
//! trace that is identical for any shard count.

/// What happened to one clone at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardEventKind {
    /// The clone was placed on the site.
    Dispatched,
    /// The clone ran to completion.
    Completed,
    /// The clone was evicted by a site crash.
    Lost,
    /// The clone was evicted by the runtime (abort/deadline).
    Evicted,
}

impl ShardEventKind {
    /// Stable rank used by the canonical merge order: a dispatch sorts
    /// before its own same-instant terminal (a zero-duration clone is
    /// dispatched and completed at the same time with the same tag).
    pub fn rank(self) -> u8 {
        match self {
            ShardEventKind::Dispatched => 0,
            ShardEventKind::Completed => 1,
            ShardEventKind::Lost => 2,
            ShardEventKind::Evicted => 3,
        }
    }

    /// Short stable label (for diagnostics and CSVs).
    pub fn label(self) -> &'static str {
        match self {
            ShardEventKind::Dispatched => "dispatched",
            ShardEventKind::Completed => "completed",
            ShardEventKind::Lost => "lost",
            ShardEventKind::Evicted => "evicted",
        }
    }
}

/// One site-level clone event, stamped with virtual time, the *global*
/// site index, and the runtime's (globally unique) clone tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardEvent {
    /// Virtual time of the event.
    pub time: f64,
    /// Global site index where it happened.
    pub site: usize,
    /// The clone's runtime tag (unique per dispatch; re-packs mint new
    /// tags).
    pub tag: usize,
    /// What happened.
    pub kind: ShardEventKind,
}

/// A shard's recorded events as it keeps them during a run: an
/// append-only list in fixed-size chunks, so that it grows without ever
/// copying what it holds. A run records up to a million events per
/// shard; a `Vec` doubling to 32 MB copies everything at each step and
/// leaves each old buffer behind as a hole in the heap, and whether the
/// last step could grow in place depended on the heap's layout, so the
/// serving benchmark's peak RSS moved in 16 MiB steps from one process
/// to the next. [`EventLog::to_vec`] makes the contiguous list a
/// [`ShardSegment`] holds.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventLog {
    chunks: Vec<Vec<ShardEvent>>,
}

impl EventLog {
    /// Events per chunk (64 KiB).
    const CHUNK: usize = 2048;

    /// Appends `event`.
    pub(crate) fn push(&mut self, event: ShardEvent) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(event),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(event);
                self.chunks.push(chunk);
            }
        }
    }

    /// Every event, in the order they were pushed.
    pub(crate) fn to_vec(&self) -> Vec<ShardEvent> {
        self.chunks.concat()
    }
}

/// One shard's slice of the run's site-level trace: the contiguous site
/// range it owns and the events it recorded, in the order the shard
/// applied them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSegment {
    /// The owning shard's index.
    pub shard: usize,
    /// The half-open global site range `[lo, hi)` this shard owns.
    pub sites: (usize, usize),
    /// Recorded events; times are non-decreasing only per site, not
    /// globally (lazy catch-up can append an older-stamped completion
    /// after a newer event on another site of the same shard).
    pub events: Vec<ShardEvent>,
}

/// The canonical event comparator: `(time, tag, kind rank, site)` with a
/// total order on time. Tags are unique per dispatch and a tag meets
/// each kind at most once, so the order is total.
pub fn event_order(a: &ShardEvent, b: &ShardEvent) -> std::cmp::Ordering {
    a.time
        .total_cmp(&b.time)
        .then(a.tag.cmp(&b.tag))
        .then(a.kind.rank().cmp(&b.kind.rank()))
        .then(a.site.cmp(&b.site))
}

/// The canonical global trace: all shard events re-sorted into
/// [`event_order`] — two runs whose merged traces are equal recorded the
/// same physical events, whatever the shard count. Each segment is
/// sorted independently (segments only guarantee per-site monotone
/// times), then the pre-sorted runs are k-way merged; because the key is
/// total this equals the old concatenate-and-sort exactly, while the
/// cross-segment work drops to a linear merge.
pub fn merge_segments(segments: &[ShardSegment]) -> Vec<ShardEvent> {
    let mut runs: Vec<Vec<ShardEvent>> = segments.iter().map(|s| s.events.clone()).collect();
    for run in &mut runs {
        run.sort_by(event_order);
    }
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heads = vec![0usize; runs.len()];
    for _ in 0..total {
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            let Some(e) = run.get(heads[r]) else { continue };
            best = match best {
                Some(b) if event_order(&runs[b][heads[b]], e) != std::cmp::Ordering::Greater => {
                    Some(b)
                }
                _ => Some(r),
            };
        }
        let Some(b) = best else { break };
        out.push(runs[b][heads[b]]);
        heads[b] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, site: usize, tag: usize, kind: ShardEventKind) -> ShardEvent {
        ShardEvent {
            time,
            site,
            tag,
            kind,
        }
    }

    #[test]
    fn event_log_keeps_push_order_across_chunks() {
        let events: Vec<ShardEvent> = (0..2 * EventLog::CHUNK + 5)
            .map(|i| ev(i as f64, i % 7, i, ShardEventKind::Dispatched))
            .collect();
        let mut log = EventLog::default();
        assert!(log.to_vec().is_empty());
        for &e in &events {
            log.push(e);
        }
        assert_eq!(log.chunks.len(), 3, "full chunks are never grown");
        assert_eq!(log.to_vec(), events);
    }

    #[test]
    fn merge_is_partition_invariant() {
        use ShardEventKind::*;
        // The same physical events split 1-way and 2-way must merge to
        // the same canonical trace.
        let one = vec![ShardSegment {
            shard: 0,
            sites: (0, 4),
            events: vec![
                ev(0.0, 0, 0, Dispatched),
                ev(0.0, 3, 1, Dispatched),
                ev(2.0, 3, 1, Completed),
                ev(5.0, 0, 0, Completed),
            ],
        }];
        let two = vec![
            ShardSegment {
                shard: 0,
                sites: (0, 2),
                events: vec![ev(0.0, 0, 0, Dispatched), ev(5.0, 0, 0, Completed)],
            },
            ShardSegment {
                shard: 1,
                sites: (2, 4),
                events: vec![ev(0.0, 3, 1, Dispatched), ev(2.0, 3, 1, Completed)],
            },
        ];
        assert_eq!(merge_segments(&one), merge_segments(&two));
    }

    #[test]
    fn dispatch_sorts_before_same_instant_completion() {
        use ShardEventKind::*;
        let seg = vec![ShardSegment {
            shard: 0,
            sites: (0, 1),
            events: vec![ev(1.0, 0, 7, Completed), ev(1.0, 0, 7, Dispatched)],
        }];
        let merged = merge_segments(&seg);
        assert_eq!(merged[0].kind, Dispatched);
        assert_eq!(merged[1].kind, Completed);
    }
}
