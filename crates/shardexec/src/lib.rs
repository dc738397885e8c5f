//! # mrs-shardexec — the sharded multi-core serving fabric
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
//! This crate parallelizes exactly the site-local steps. A [`ShardPlan`]
//! partitions the `P` site indices into `N` contiguous, balanced ranges
//! (a pure function of `(P, N)`, so it is stable for a given seed and
//! config). Each shard owns its slice of the site simulators, its own
//! lazy [`EventCalendar`](mrs_sim::calendar::EventCalendar), and its own
//! audit-trace [`ShardSegment`]; each site's committed load lives in its
//! own simulator ([`SiteSim::load`](mrs_sim::engine::SiteSim::load)). A
//! pinned worker pool (one persistent thread per shard) advances the
//! shards independently between *epoch boundaries* — the global event
//! times the coordinator picks — and every cross-shard effect (a query's
//! clones spanning shards, a crash/restore re-pack)
//! is applied by the coordinator serially, in the same canonical order
//! the single-threaded loop uses.
//!
//! ## Why the merge is byte-identical
//!
//! Determinism does not come from synchronization tricks; it comes from
//! the fluid engine's independence property: between population changes,
//! a site's trajectory is a pure function of its own state. The epoch
//! protocol only ever asks shards two questions, both site-local:
//!
//! 1. *next completion time* — the coordinator folds the per-shard
//!    minima in shard order, which equals the global minimum exactly
//!    (same multiset of `f64` values, `min` is associative on them);
//! 2. *advance your due sites to `t`* — each shard advances its due
//!    sites in local index order and sorts its completion buffer into
//!    the runtime's canonical `(time, tag)` retirement order; the
//!    coordinator k-way merges the pre-sorted buffers ([`merge`]),
//!    which reproduces the serial loop's globally sorted sequence
//!    because the key is total (tags are unique per dispatch).
//!
//! Every float operation therefore happens on the same operands in the
//! same order as the single-threaded loop, and [`Fabric::new`] with one
//! shard short-circuits to an inline [`ShardState`] that *is* the
//! single-threaded loop.
//!
//! ## Amortized coordination
//!
//! The [`Fabric`] keeps a per-shard cache of next-event times, dirtied
//! only when the coordinator mutates a site in that shard, so the
//! next-time question usually costs zero broadcasts — each advance
//! barrier refreshes the answer as it runs (the fused min-fold). An
//! advance whose due set is a single shard bypasses the barrier
//! entirely and runs inline through the (uncontended) cell lock, so on
//! a quiet machine a sharded epoch costs about what a single-threaded
//! epoch does. The barrier itself ([`pool`]) is a sense-reversing
//! spin-then-park gate on atomics — no condvar, no mutex on the
//! broadcast path.
//!
//! The per-shard [`ShardSegment`] traces are the observable evidence:
//! `mrs-audit`'s merge checker verifies that the segments partition the
//! site range, conserve every dispatched clone, and re-sort to one
//! canonical global trace that is identical for any shard count.
//!
//! ## Look-ahead
//!
//! [`ahead::Ahead`] is the crate's other concurrency primitive: one
//! worker computes a fixed list of jobs in index order, a bounded
//! window ahead of a consumer that takes their results. The runtime
//! uses it to plan queued arrivals on the spare core while its event
//! loop runs; like the pool, it only moves work between threads and
//! never changes what the consumer sees.

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
    pub use crate::merge::{merge_sorted_completions, sort_completions};
    pub use crate::plan::ShardPlan;
    pub use crate::segment::{merge_segments, ShardEvent, ShardEventKind, ShardSegment};
    pub use crate::state::ShardState;
}
