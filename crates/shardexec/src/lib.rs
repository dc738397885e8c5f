//! # mrs-shardexec — the site fabric, split into audit segments
//!
//! The runtime's event loop interleaves two kinds of step:
//!
//! * **site-local** steps — computing each site's next completion time
//!   and advancing the sites whose completions are due — which touch one
//!   site at a time and never read another site's state;
//! * **epoch-global** steps — retiring completions, applying faults,
//!   firing retries, admitting queries — which read and write cross-site
//!   state (the admission queue, the clone table, the schedule cache).
//!
//! This crate owns the site-local steps. A [`ShardPlan`](plan::ShardPlan) partitions the
//! `P` site indices into `N` contiguous, balanced ranges (a pure
//! function of `(P, N)`, so it is stable for a given seed and config).
//! Each shard is a segment of one inline site layer: it owns its slice
//! of the site simulators, its own lazy
//! [`EventCalendar`](mrs_sim::calendar::EventCalendar), and its own
//! audit-trace [`ShardSegment`](segment::ShardSegment); each site's committed load lives in its
//! own simulator ([`SiteSim::load`](mrs_sim::engine::SiteSim::load)).
//! The [`Fabric`](fabric::Fabric) holds every shard and runs them all on the event-loop
//! thread. No shard has a thread: one epoch advances about two dozen
//! clones, a few microseconds of work that no barrier round pays for.
//!
//! ## Why any shard count is byte-identical
//!
//! Between population changes, a site's trajectory is a pure function
//! of its own state. The epoch protocol only ever asks shards two
//! questions, both site-local:
//!
//! 1. *next completion time* — the fabric folds the per-shard minima in
//!    shard order, which equals the global minimum exactly (same
//!    multiset of `f64` values, `min` is associative on them);
//! 2. *advance your due sites to `t`* — each shard advances its due
//!    sites in local index order and sorts its completion buffer into
//!    the runtime's canonical `(time, tag)` retirement order; when
//!    several shards are due at once the fabric appends their buffers
//!    and sorts the appended range ([`merge`]), which gives the
//!    one-shard sequence because the key is total (tags are unique per
//!    dispatch).
//!
//! Every float operation therefore happens on the same operands in the
//! same order whatever the shard count. The fabric caches each
//! shard's next-event time, dirtied only when a site in that shard is
//! mutated, so an epoch recomputes only the shards it touched.
//!
//! The per-shard [`ShardSegment`](segment::ShardSegment) traces are
//! the observable evidence: `mrs-audit`'s merge checker verifies that
//! the segments partition the site range, conserve every dispatched
//! clone, and re-sort to one canonical global trace that is identical
//! for any shard count.
//!
//! ## Threads
//!
//! [`ahead::Ahead`] is the crate's one concurrency primitive in use:
//! one worker computes a fixed list of jobs in index order, a bounded
//! window ahead of a consumer that takes their results. The runtime
//! uses it to plan queued arrivals on the spare core while its event
//! loop runs; it only moves work between threads and never changes
//! what the consumer sees. [`pool`] and its barrier [`gate`] are no
//! longer used by the runtime; they stay for the barrier-cost probes
//! until the next benchmark change retires them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ahead;
pub mod fabric;
pub mod gate;
pub mod merge;
pub mod plan;
pub mod pool;
pub mod segment;
pub mod state;
pub mod sync;

/// One-stop imports.
pub mod prelude {
    pub use crate::fabric::Fabric;
    pub use crate::merge::sort_completions;
    pub use crate::plan::ShardPlan;
    pub use crate::segment::{merge_segments, ShardEvent, ShardEventKind, ShardSegment};
    pub use crate::state::ShardState;
}
