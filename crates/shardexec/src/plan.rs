//! Deterministic partitioning of site indices into audit segments.
//!
//! Range partitioning (contiguous balanced slices) rather than hashing:
//! concatenating the segments in shard order reproduces the global
//! site-index order. The fabric records one event log over all sites;
//! [`ShardPlan::split`] slices it by these ranges when it is read.

use crate::segment::{ShardEvent, ShardSegment};

/// A deterministic partition of `sites` site indices into at most
/// `shards` contiguous, balanced ranges.
///
/// The plan is a pure function of `(sites, shards)`: the first
/// `sites % shards` ranges get one extra site. Requesting more shards
/// than sites clamps to one site per shard; zero shards clamps to one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards + 1` range boundaries: shard `s` owns
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `sites` site indices into `shards` contiguous ranges
    /// (clamped to `1..=max(sites, 1)`).
    pub fn new(sites: usize, shards: usize) -> Self {
        let n = shards.clamp(1, sites.max(1));
        let base = sites / n;
        let extra = sites % n;
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0);
        let mut at = 0;
        for s in 0..n {
            at += base + usize::from(s < extra);
            bounds.push(at);
        }
        debug_assert_eq!(at, sites, "ranges must partition the site set");
        ShardPlan { bounds }
    }

    /// Total number of sites partitioned.
    pub fn sites(&self) -> usize {
        *self.bounds.last().expect("bounds holds at least [0]")
    }

    /// Number of shards (after clamping).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The contiguous site range owned by `shard`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// Slices one event log over sites `0..self.sites()` into one
    /// segment per range, in shard order. Each segment keeps its sites'
    /// events in log order.
    pub fn split(&self, events: Vec<ShardEvent>) -> Vec<ShardSegment> {
        let mut segments: Vec<ShardSegment> = (0..self.shards())
            .map(|shard| {
                let range = self.range(shard);
                ShardSegment {
                    shard,
                    sites: (range.start, range.end),
                    events: Vec::new(),
                }
            })
            .collect();
        if let [one] = segments.as_mut_slice() {
            one.events = events;
        } else {
            for e in events {
                let shard = self.bounds.partition_point(|&b| b <= e.site) - 1;
                segments[shard].events.push(e);
            }
        }
        segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ShardEventKind;

    #[test]
    fn ranges_partition_and_balance() {
        let plan = ShardPlan::new(10, 4);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.sites(), 10);
        // 10 = 3 + 3 + 2 + 2, contiguous.
        let lens: Vec<usize> = (0..4).map(|s| plan.range(s).len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        let mut covered = Vec::new();
        for s in 0..4 {
            covered.extend(plan.range(s));
        }
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn plan_is_stable() {
        assert_eq!(ShardPlan::new(140, 8), ShardPlan::new(140, 8));
    }

    #[test]
    fn clamps_degenerate_requests() {
        assert_eq!(ShardPlan::new(3, 100).shards(), 3);
        assert_eq!(ShardPlan::new(3, 0).shards(), 1);
        let empty = ShardPlan::new(0, 4);
        assert_eq!(empty.shards(), 1);
        assert_eq!(empty.sites(), 0);
    }

    #[test]
    fn split_slices_by_range_in_log_order() {
        let ev = |site, tag| ShardEvent {
            time: 1.0,
            site,
            tag,
            kind: ShardEventKind::Dispatched,
        };
        let log = vec![ev(4, 0), ev(0, 1), ev(2, 2), ev(3, 3), ev(1, 4), ev(4, 5)];
        let segments = ShardPlan::new(5, 3).split(log.clone());
        let cut: Vec<((usize, usize), Vec<usize>)> = segments
            .iter()
            .map(|s| (s.sites, s.events.iter().map(|e| e.tag).collect()))
            .collect();
        assert_eq!(
            cut,
            vec![
                ((0, 2), vec![1, 4]),
                ((2, 4), vec![2, 3]),
                ((4, 5), vec![0, 5])
            ]
        );
        let whole = ShardPlan::new(5, 1).split(log.clone());
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].sites, &whole[0].events), ((0, 5), &log));
    }
}
