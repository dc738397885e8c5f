//! # mrs-shardexec — the site layer and its clone event log
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
//! This crate owns the site-local steps. The runtime drives one
//! [`ShardState`](state::ShardState) over all `P` sites on its event
//! loop's thread: the site simulators (each holding its own committed
//! load, [`SiteSim::load`](mrs_sim::engine::SiteSim::load)), one lazy
//! [`EventCalendar`](mrs_sim::calendar::EventCalendar), the alive-site
//! count, and one run-encoded log of every clone dispatch, completion,
//! loss and eviction. Nothing runs on another thread: one epoch
//! advances about two dozen clones, a few microseconds of work that no
//! barrier round pays for.
//!
//! ## The clone event log
//!
//! `mrs-audit` reads the decoded log in push order and checks that
//! every clone is dispatched once and ends in exactly one terminal
//! event. A [`ShardPlan`](plan::ShardPlan) partitions the site indices
//! into `N` contiguous, balanced ranges (a pure function of `(P, N)`),
//! and [`ShardPlan::split`](plan::ShardPlan::split) slices the decoded
//! log into one [`ShardSegment`](segment::ShardSegment) per range,
//! keeping log order inside each. The run itself never sees `N`, so
//! every output is the same for any `N`.
//!
//! ## Threads
//!
//! [`ahead::Ahead`] is the crate's one concurrency primitive in use:
//! one worker computes a fixed list of jobs in index order, a bounded
//! window ahead of a consumer that takes their results. The runtime
//! uses it to plan queued arrivals on the spare core while its event
//! loop runs; it only moves work between threads and never changes
//! what the consumer sees. [`pool`] is not used by the runtime; it
//! stays for the end-to-end benchmark's barrier-cost probe until a
//! benchmark change retires it. Both are one `std` mutex over their shared state
//! plus condition variables, imported through [`sync`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ahead;
pub mod merge;
pub mod plan;
pub mod pool;
pub mod segment;
pub mod state;
pub mod sync;

/// One-stop imports.
pub mod prelude {
    pub use crate::merge::sort_completions;
    pub use crate::plan::ShardPlan;
    pub use crate::segment::{ShardEvent, ShardEventKind, ShardSegment};
    pub use crate::state::{ShardState, SiteCounters};
}
