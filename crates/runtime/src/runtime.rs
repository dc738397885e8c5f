//! The event-driven online scheduler.
//!
//! [`Runtime`] admits a stream of [`TreeProblem`]s, queues them under an
//! [`AdmissionPolicy`](crate::admission::AdmissionPolicy), and dispatches
//! each admitted query's TreeSchedule *phase by phase* onto `P` shared
//! fluid sites ([`SiteSim`]). Virtual time advances from event to event —
//! the next arrival, the earliest clone completion anywhere, the next
//! scheduled fault, the next recovery retry, or the next deadline — so
//! concurrent queries genuinely time-share sites: a site running clones
//! of two queries stretches both according to the simulator's sharing
//! discipline, and the runtime observes the stretched completion times.
//!
//! Under a [`FaultPlan`] the runtime is *fault-tolerant*: a site crash
//! evicts the resident clones, whose unfinished work vectors are
//! re-packed with the paper's `operator_schedule` onto the surviving
//! sites (see [`crate::recovery`]); when nothing is packable the work
//! parks on a capped exponential-backoff retry, and exhaustion (or a
//! per-query deadline) aborts the query with [`RuntimeError::Aborted`].
//! Every submitted query terminates in exactly one
//! [`QueryOutcome`] — completed, aborted, or shed — never silently lost.
//!
//! Determinism: every queue decision is tie-broken by submission sequence
//! numbers, completions are processed in `(time, tag)` order, fault
//! events in plan order, retries in `(time, query)` order, and sites are
//! advanced in index order. Two runs over the same submissions and plan
//! produce identical traces.
//!
//! The serving hot path is indexed and memoized: the per-event linear
//! scan over all sites is replaced by a lazy min-tree
//! [`EventCalendar`](mrs_sim::calendar::EventCalendar) (sites advance
//! only at their own events, or on demand when the runtime next touches
//! them — see `Runtime::touch_site`), and admission TreeSchedules are
//! memoized by plan signature in a [`ScheduleCache`](crate::cache), a
//! pure memo that no fault invalidates (a plan depends on neither the
//! sites that are up nor the clock). Retries stay
//! sorted by `(time, query)` and pending deadlines are tracked by a
//! cursor over the time-sorted arrivals, so picking the next event costs
//! O(1) instead of a fold per epoch. Per-clone and per-query state sits
//! in dense slot tables indexed by clone tag and query id (`slots.rs`),
//! and demand vectors are inline, so a clone's whole lifecycle —
//! dispatch, placement, retirement, loss, eviction — neither hashes nor
//! (for `d ≤ 4`) allocates. A phase dispatches its clones as runs of
//! equal clones: each run's `t_seq` and demand rates are computed once
//! and every clone of the run is inserted with them
//! ([`ShardState::insert`]).
//!
//! The site layer is one `mrs-shardexec` [`ShardState`] over all sites,
//! driven inline on this event loop's thread: one calendar, the
//! alive-site count and one clone event log
//! ([`Runtime::clone_events`]). [`RuntimeConfig::shards`] plays no part
//! in the run: it only decides how many site ranges
//! [`Runtime::shard_segments`] slices the log into when it is read.
//!
//! **Progress.** Virtual time never moves backwards, and every arrival,
//! fault, retry and deadline at or before `t` is consumed on the first
//! iteration at `t`. Each iteration's `t` is at most the sites' next
//! completion, so the sites advance to `t` and surface completions
//! stamped `t` alone, retired in tag order; a catch-up surfaces
//! completions stamped at the clock. A later iteration at the same `t`
//! whose sites surface no completion, with no retry due, can only have
//! come from a site whose next completion rounds to its own clock
//! (`now + dt == now`): no iteration can ever pass `t` again. The loop
//! returns [`RuntimeError::Stalled`] there instead of spinning. Recovery
//! cannot drive the clock there (a re-packed clone longer than
//! [`MAX_REPACK_STRETCH`] standalone responses aborts its query), so
//! the error is left for inputs that start past what the clock
//! resolves.
//!
//! **Plan-ahead.** Every arrival is submitted before the run starts,
//! and an uncapped plan depends only on its problem, so the spare core
//! plans ahead: [`Runtime::run_to_completion`] numbers the distinct
//! uncapped plan signatures in arrival order and starts an
//! `mrs-shardexec` [`Ahead`] worker that packs their cold TreeSchedules
//! at most [`WINDOW`] signatures ahead of the event loop. An uncapped
//! cache miss takes its signature's slot instead of planning inline,
//! waiting for the worker if it has not finished that plan yet; every
//! capped miss plans inline as before. Cache lookups and inserts, the
//! audit trace and every counter stay on the loop in the same order,
//! so the worker changes which thread computed a plan and nothing
//! else. It is not started on a one-core host, nor with plan sharing
//! on: a shared plan is the same whatever the fragment memo holds, but
//! the splices and inserts it records on the trace, and the sharing
//! counters, depend on what the memo holds when it plans, so planning
//! ahead of the loop would move them.

use crate::admission::AdmissionQueue;
use crate::cache::{number_signatures, plan_digest, PlanSignature, ScheduleCache};
use crate::control::{Controller, ControllerConfig, PressureSample};
use crate::job::{work_volume, QueryId, QueryOutcome, QueryRecord, ShedReason};
use crate::metrics::{FaultRecord, FaultRecordKind, RunSummary};
use crate::recovery::{
    backoff_delay, rebuild_inflated, repack_out_of_bounds, replan_lost, RecoveryConfig,
    MAX_REPACK_STRETCH,
};
use crate::slots::{CloneWindow, QueryTable};
use crate::trace::{audit_placements_valid, audit_repack_conserves, AuditEvent};
use mrs_core::comm::CommModel;
use mrs_core::error::ScheduleError;
use mrs_core::model::ResponseModel;
use mrs_core::resource::{SiteId, SystemSpec};
use mrs_core::shared::{
    tree_schedule_shared, FragmentCache, MapFragmentCache, ScheduleFragment, SharedStats,
    SubtreeSig,
};
use mrs_core::tree::{tree_schedule_with, PlanOptions, TreeProblem, TreeScheduleResult};
use mrs_core::vector::WorkVector;
use mrs_shardexec::ahead::{Ahead, WINDOW};
use mrs_shardexec::plan::ShardPlan;
use mrs_shardexec::segment::{EventCounts, ShardEvent, ShardSegment};
use mrs_shardexec::state::{ShardState, SiteCounters};
use mrs_shardexec::sync::available_parallelism;
use mrs_sim::engine::{demand_rates, Completion, SimConfig, SiteSim};
use mrs_sim::fault::{FaultKind, FaultPlan, FaultTimeline};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Why a runtime run (or one of its queries) failed.
///
/// Marked `#[non_exhaustive]`: the fault model will keep growing failure
/// modes, so downstream matches must carry a wildcard arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A query could not be scheduled at admission time.
    Schedule {
        /// The query whose TreeSchedule failed.
        query: QueryId,
        /// The underlying scheduling error.
        source: ScheduleError,
    },
    /// The runtime gave up on a query: its deadline expired or its
    /// recovery retries were exhausted.
    Aborted {
        /// The aborted query.
        query: QueryId,
        /// Human-readable cause.
        reason: String,
    },
    /// Load-shedding refused a query at arrival — too few alive sites
    /// (graceful degradation) or an overload-controller last resort.
    Shed {
        /// The shed query.
        query: QueryId,
        /// Which admission gate refused it.
        reason: ShedReason,
    },
    /// Virtual time can no longer advance: a site's next completion
    /// rounds to its own clock, so the run would revisit `time` forever
    /// (see the [module docs](self)).
    Stalled {
        /// The instant the run is stuck at.
        time: f64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Schedule { query, source } => {
                write!(f, "scheduling {query} at admission failed: {source}")
            }
            RuntimeError::Aborted { query, reason } => {
                write!(f, "{query} aborted: {reason}")
            }
            RuntimeError::Shed { query, reason } => {
                write!(f, "{query} shed at arrival: {}", reason.label())
            }
            RuntimeError::Stalled { time } => write!(
                f,
                "virtual clock stalled at t={time:e}: a site's next completion \
                 rounds to its own clock"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Runtime configuration knobs.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Granularity parameter `f` passed to TreeSchedule at admission.
    pub f: f64,
    /// Admission-queue ordering.
    pub policy: crate::admission::AdmissionPolicy,
    /// Multiprogramming level: max queries executing concurrently.
    /// Must be at least 1.
    pub max_in_flight: usize,
    /// Fluid-site sharing discipline and overhead.
    pub sim: SimConfig,
    /// Deterministic site crash/recover schedule and straggler factors.
    /// The empty plan (the default) is bit-exact fault-free execution.
    pub faults: FaultPlan,
    /// Per-query deadline: a query not finished within this many virtual
    /// seconds of its arrival is aborted. `None` (default) disables.
    pub deadline: Option<f64>,
    /// Recovery-loop knobs (rebuild surcharge, retry backoff, shedding).
    pub recovery: RecoveryConfig,
    /// Retired: the run never reads it. It only sets how many contiguous
    /// site ranges [`Runtime::shard_segments`] slices the clone event log
    /// into (clamped to `1..=sites`; `1` is the default).
    pub shards: usize,
    /// Adaptive overload controller (see [`crate::control`]). Disabled
    /// by default: the controller is then never consulted and the run is
    /// byte-identical to the pre-controller runtime.
    pub controller: ControllerConfig,
    /// Batch (MQO) admission window. `0` (the default) admits queries
    /// one at a time as before. With `N ≥ 1`, queued arrivals are
    /// *released* in batches: once `N` queries are queued (or the
    /// arrival stream is exhausted, which flushes a partial window),
    /// the window is drained in policy order, every member is planned
    /// up front — sharing common subtrees when [`Self::plan_sharing`]
    /// is on — and the planned batch then dispatches through the usual
    /// MPL and backpressure gates in the same deterministic order.
    pub batch_window: usize,
    /// Cross-query subtree plan sharing (see [`mrs_core::shared`]).
    /// When on, cache-missing admissions are planned by
    /// `tree_schedule_shared` against a subtree-fragment memo keyed by
    /// canonical signature: subtrees already planned for another query
    /// of the window (or any earlier arrival) are spliced instead of
    /// re-packed. Off by default — and with it off, runs are
    /// byte-identical to the pre-MQO runtime.
    pub plan_sharing: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            f: 0.7,
            policy: crate::admission::AdmissionPolicy::Fcfs,
            max_in_flight: 4,
            sim: SimConfig::default(),
            faults: FaultPlan::none(),
            deadline: None,
            recovery: RecoveryConfig::default(),
            shards: 1,
            controller: ControllerConfig::default(),
            batch_window: 0,
            plan_sharing: false,
        }
    }
}

struct ArrivalEvent {
    time: f64,
    id: QueryId,
    /// Taken (exactly once) when the arrival fires; shared with the
    /// plan-ahead worker until then.
    problem: Option<Arc<TreeProblem>>,
}

struct RunningQuery {
    /// Shared with the schedule cache: templated streams reuse one
    /// allocation across every arrival of the template.
    schedule: Arc<TreeScheduleResult>,
    /// Index of the next phase to dispatch.
    next_phase: usize,
    /// Clones of the current phase still executing.
    outstanding: usize,
    /// Lost-work batches of the current phase waiting on a retry event.
    /// The phase cannot complete while any work is parked.
    parked: usize,
}

/// A run of equal clones to dispatch: their shared work vector, its
/// `t_seq` and its demand rates (each computed once per run), and where
/// its sites sit in the batch's site list.
struct DispatchRun {
    work: WorkVector,
    /// `work.rates(duration)`; a zero-duration run completes inline and
    /// never reads it.
    demand: WorkVector,
    duration: f64,
    /// The run's sites in [`Placements::sites`].
    sites: Range<usize>,
}

/// The clones of one dispatch: runs of equal clones over their sites,
/// both in placement order.
#[derive(Default)]
struct Placements {
    runs: Vec<DispatchRun>,
    sites: Vec<SiteId>,
}

impl Placements {
    fn clear(&mut self) {
        self.runs.clear();
        self.sites.clear();
    }

    /// Closes a run of `work` over the sites pushed since the previous
    /// run; with none pushed there is no run.
    fn close_run(&mut self, work: &WorkVector, duration: f64) {
        let start = self.runs.last().map_or(0, |run| run.sites.end);
        if self.sites.len() > start {
            self.runs.push(DispatchRun {
                work: work.clone(),
                demand: demand_rates(work, duration),
                duration,
                sites: start..self.sites.len(),
            });
        }
    }
}

struct CloneInfo {
    query: QueryId,
    site: SiteId,
    /// The clone's work vector (to scale by the unfinished fraction on
    /// loss).
    work: WorkVector,
    /// Intrinsic full-speed duration (the fraction's denominator).
    duration: f64,
}

/// A parked batch of lost work awaiting a recovery retry.
struct RetryEvent {
    time: f64,
    query: QueryId,
    /// 0-based attempt counter carried into the next `handle_lost`.
    attempt: u32,
    works: Vec<WorkVector>,
}

/// The online multi-query scheduler. See the [module docs](self).
pub struct Runtime<M: ResponseModel> {
    sys: SystemSpec,
    comm: CommModel,
    model: M,
    cfg: RuntimeConfig,
    clock: f64,
    queue: AdmissionQueue,
    arrivals: Vec<ArrivalEvent>,
    pending: QueryTable<Arc<TreeProblem>>,
    /// The site layer: simulators, calendar, alive count and clone
    /// event log (see the [module docs](self)).
    sites: ShardState,
    /// The site ranges [`Runtime::shard_segments`] slices the log into.
    segments: ShardPlan,
    running: QueryTable<RunningQuery>,
    /// The executing clones by tag; also mints the tags.
    clones: CloneWindow<CloneInfo>,
    /// Scratch reused across phases: the live placements of the phase
    /// being dispatched (see [`Runtime::advance_query`]).
    live_buf: Placements,
    records: Vec<QueryRecord>,
    depth_trace: Vec<(f64, usize)>,
    faults: FaultTimeline,
    /// Parked retries, kept sorted by `(time, query)` (insertion is an
    /// upper-bound binary search), so the hot loop reads the next retry
    /// time from the front instead of folding over all of them.
    retries: Vec<RetryEvent>,
    fault_trace: Vec<FaultRecord>,
    /// Plan-signature memo table for admission TreeSchedules.
    cache: ScheduleCache,
    /// Scratch for epsilon-completions swept while catching a lazily
    /// advanced site up to the clock (see [`Runtime::touch_site`]).
    touch_buf: Vec<Completion>,
    /// Cursor into the sorted `arrivals` list (avoids O(n) front
    /// removals).
    arrivals_next: usize,
    /// Cursor into the sorted `arrivals` list pointing at the earliest
    /// query not yet terminal. With a uniform deadline offset, the
    /// earliest pending deadline is this query's `arrival + d`, so the
    /// hot loop skips the per-epoch fold over every record. Terminality
    /// is monotone, so the cursor only advances.
    deadline_cursor: usize,
    /// Structured audit trace (see [`crate::trace`]): appended at phase
    /// dispatch, recovery re-pack, cache and memo hit/insert, and
    /// controller decisions; surfaced on the [`RunSummary`] for
    /// `mrs-audit`.
    audit_trace: Vec<AuditEvent>,
    /// The adaptive overload controller (see [`crate::control`]). Never
    /// consulted while disabled.
    controller: Controller,
    /// Batch-mode staging area: queries released from the queue and
    /// planned (as one MQO batch), awaiting dispatch capacity. Drained
    /// front-first, preserving the policy order the release popped.
    /// Always empty with `batch_window == 0`.
    released: VecDeque<(QueryId, Arc<TreeScheduleResult>)>,
    /// Batch-release occupancy counters: windows released and total
    /// members across them.
    batches_released: u64,
    batch_members: u64,
    /// The plan-ahead worker while a run is in progress (see the
    /// [module docs](self)); `None` when it is not started.
    ahead: Option<PlanAhead>,
}

/// Uncapped cold plans packed ahead of the event loop: one look-ahead
/// slot per distinct uncapped plan signature, in arrival order.
struct PlanAhead {
    slots: Ahead<Result<TreeScheduleResult, ScheduleError>>,
    /// Each query's slot, indexed by query id.
    slot_of: Vec<usize>,
}

impl PlanAhead {
    /// `id`'s uncapped plan from the worker (`None` if its slot was
    /// taken before or the worker stopped), cloned on the calling
    /// thread: the plans the cache keeps live in the event loop's
    /// malloc arena, and the worker drops its own copy.
    fn take(&self, id: QueryId) -> Option<Result<TreeScheduleResult, ScheduleError>> {
        self.slots.take(self.slot_of[id.0], Clone::clone)
    }
}

/// [`FragmentCache`] adapter over the runtime's [`ScheduleCache`]: every
/// splice and insert is recorded on the audit trace
/// ([`AuditEvent::FragmentSpliced`] / [`AuditEvent::FragmentInsert`]),
/// so `mrs-audit` can replay sharing coherence offline.
struct TracedFragmentCache<'a> {
    cache: &'a mut ScheduleCache,
    trace: &'a mut Vec<AuditEvent>,
    time: f64,
    query: QueryId,
}

impl FragmentCache for TracedFragmentCache<'_> {
    fn get_fragment(&mut self, sig: &SubtreeSig) -> Option<Arc<ScheduleFragment>> {
        let (frag, digest) = self.cache.fragment_get(sig)?;
        self.trace.push(AuditEvent::FragmentSpliced {
            time: self.time,
            query: self.query,
            sig_hash: sig.hash64(),
            digest,
        });
        Some(frag)
    }

    fn insert_fragment(&mut self, sig: SubtreeSig, fragment: Arc<ScheduleFragment>) {
        let sig_hash = sig.hash64();
        let digest = self.cache.fragment_insert(sig, fragment);
        self.trace.push(AuditEvent::FragmentInsert {
            time: self.time,
            query: self.query,
            sig_hash,
            digest,
        });
    }
}

impl<M: ResponseModel + Clone + Send + 'static> Runtime<M> {
    /// A fresh runtime over `sys` with the given communication and
    /// response-time models. Straggler factors from `cfg.faults` are
    /// applied to the site simulators up front.
    ///
    /// # Panics
    /// If `cfg.max_in_flight == 0` (nothing could ever run), or the fault
    /// plan names a site outside `sys`.
    pub fn new(sys: SystemSpec, comm: CommModel, model: M, cfg: RuntimeConfig) -> Self {
        assert!(cfg.max_in_flight >= 1, "max_in_flight must be at least 1");
        let d = sys.dim();
        let mut sims: Vec<SiteSim> = (0..sys.sites).map(|_| SiteSim::new(cfg.sim, d)).collect();
        for (site, factor) in cfg.faults.slowdowns() {
            assert!(*site < sys.sites, "straggler site {site} out of range");
            sims[*site].set_rate(*factor);
        }
        for ev in cfg.faults.events() {
            assert!(ev.site < sys.sites, "fault site {} out of range", ev.site);
        }
        let segments = ShardPlan::new(sys.sites, cfg.shards);
        let sites = ShardState::new(0, 0, sims, d);
        let queue = AdmissionQueue::new(cfg.policy);
        let faults = FaultTimeline::new(&cfg.faults);
        let controller = Controller::new(cfg.controller.clone());
        Runtime {
            sys,
            comm,
            model,
            cfg,
            clock: 0.0,
            queue,
            arrivals: Vec::new(),
            pending: QueryTable::new(),
            sites,
            segments,
            running: QueryTable::new(),
            clones: CloneWindow::new(),
            live_buf: Placements::default(),
            records: Vec::new(),
            depth_trace: Vec::new(),
            faults,
            retries: Vec::new(),
            fault_trace: Vec::new(),
            cache: ScheduleCache::default(),
            touch_buf: Vec::new(),
            arrivals_next: 0,
            deadline_cursor: 0,
            audit_trace: Vec::new(),
            controller,
            released: VecDeque::new(),
            batches_released: 0,
            batch_members: 0,
            ahead: None,
        }
    }

    /// Whether the backpressure gate is currently deferring admissions.
    pub fn gate_engaged(&self) -> bool {
        self.controller.gate_engaged()
    }

    /// The pressure signals as the controller would observe them right
    /// now (see [`PressureSample`]).
    pub fn pressure_sample(&self) -> PressureSample {
        PressureSample {
            time: self.clock,
            queue_depth: self.queue.len() + self.released.len(),
            retries: self.retries.len(),
            alive: self.sites.alive_sites(),
            avg_load: self.sites.avg_load(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Total clones currently resident across all sites (zero once a
    /// run fully drains).
    pub fn total_resident(&self) -> usize {
        self.sites.total_resident()
    }

    /// Number of segments [`Runtime::shard_segments`] returns:
    /// [`RuntimeConfig::shards`] clamped to the site count.
    pub fn shards(&self) -> usize {
        self.segments.shards()
    }

    /// Every clone event the sites recorded so far, decoded in push
    /// order: the evidence `mrs-audit`'s clone-log checker reads.
    pub fn clone_events(&self) -> Vec<ShardEvent> {
        self.sites.events()
    }

    /// [`Runtime::clone_events`] sliced into one segment per
    /// [`RuntimeConfig::shards`] site range, each in log order.
    pub fn shard_segments(&self) -> Vec<ShardSegment> {
        self.segments.split(self.clone_events())
    }

    /// The events [`Runtime::clone_events`] would return, counted by
    /// kind, without decoding the log: one
    /// `dispatched` per clone placed on a site, and one terminal
    /// (`completed`, `lost` or `evicted`) per clone that left it.
    pub fn segment_event_counts(&self) -> EventCounts {
        self.sites.event_counts()
    }

    /// The site layer's deterministic work counters so far: speed
    /// solves, fluid steps, clones placed and calendar refreshes. They
    /// explain a wall-clock difference without host noise, and enter
    /// neither [`RunSummary::digest`] nor any report.
    pub fn site_counters(&self) -> SiteCounters {
        self.sites.counters()
    }

    /// Submits `problem` from `client`, arriving at virtual time
    /// `arrival` (must not precede the current clock). Returns the dense
    /// query id.
    pub fn submit_at(&mut self, arrival: f64, client: usize, problem: TreeProblem) -> QueryId {
        assert!(
            arrival >= self.clock,
            "arrival {arrival} precedes current virtual time {}",
            self.clock
        );
        let id = QueryId(self.records.len());
        let volume = work_volume(&problem);
        self.records
            .push(QueryRecord::new(id, client, volume, arrival));
        self.arrivals.push(ArrivalEvent {
            time: arrival,
            id,
            problem: Some(Arc::new(problem)),
        });
        id
    }

    /// Schedule-cache counters so far (hits and fresh plans).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Runs the event loop until every submitted query has reached a
    /// terminal [`QueryOutcome`], then returns the aggregated
    /// [`RunSummary`]. Per-query failures (aborts, sheds) do *not* fail
    /// the run — they are recorded on the summary and retrievable as
    /// typed errors via [`RunSummary::failures`].
    ///
    /// # Errors
    /// [`RuntimeError::Schedule`] if a query's TreeSchedule fails at
    /// admission (e.g. a malformed task graph); queries admitted before
    /// the failure keep their partial progress.
    pub fn run_to_completion(&mut self) -> Result<RunSummary, RuntimeError> {
        self.run(true)
    }

    /// [`Runtime::run_to_completion`], with the plan-ahead worker
    /// allowed to start or not; the tests compare the two.
    fn run(&mut self, plan_ahead: bool) -> Result<RunSummary, RuntimeError> {
        // Arrivals in (time, id) order; ids are dense so ties (equal
        // times) resolve in submission order.
        self.arrivals
            .sort_by(|a, b| a.time.total_cmp(&b.time).then(a.id.cmp(&b.id)));
        self.arrivals_next = 0;
        self.ahead = if plan_ahead { self.plan_ahead() } else { None };
        let run = self.event_loop();
        // Stops and joins the worker, also when a schedule error ended
        // the loop early.
        self.ahead = None;
        run?;
        debug_assert!(
            self.clones.is_empty() && self.running.is_empty(),
            "run drained with clones or queries still tracked"
        );
        Ok(self.summary())
    }

    /// Starts the plan-ahead worker over the distinct uncapped plan
    /// signatures of the submitted arrivals, in arrival order, or
    /// returns `None` where it must not run: with plan sharing on or on
    /// a one-core host (see the [module docs](self)).
    fn plan_ahead(&self) -> Option<PlanAhead> {
        if self.cfg.plan_sharing || available_parallelism() < 2 {
            return None;
        }
        let queued: Vec<(QueryId, &Arc<TreeProblem>)> = self
            .arrivals
            .iter()
            .filter_map(|a| Some((a.id, a.problem.as_ref()?)))
            .collect();
        let (numbers, firsts) = number_signatures(queued.iter().map(|&(_, p)| &**p), self.cfg.f);
        let mut slot_of = vec![0; self.records.len()];
        for ((id, _), slot) in queued.iter().zip(numbers) {
            slot_of[id.0] = slot;
        }
        let problems: Vec<Arc<TreeProblem>> =
            firsts.iter().map(|&k| Arc::clone(queued[k].1)).collect();
        let (f, sys, comm, model) = (self.cfg.f, self.sys.clone(), self.comm, self.model.clone());
        let slots = Ahead::new(problems.len(), WINDOW, move |i| {
            plan_unshared(&problems[i], f, &sys, &comm, &model, None)
        });
        Some(PlanAhead { slots, slot_of })
    }

    /// The event loop of [`Runtime::run_to_completion`]: runs until
    /// every submitted query is terminal.
    fn event_loop(&mut self) -> Result<(), RuntimeError> {
        let mut completions: Vec<Completion> = Vec::new();
        // The previous iteration's instant (see the progress rule in the
        // module docs).
        let mut last: Option<f64> = None;

        loop {
            let work_left = self.arrivals_next < self.arrivals.len()
                || !self.queue.is_empty()
                || !self.released.is_empty()
                || !self.running.is_empty()
                || !self.retries.is_empty();
            let next_arrival = self.arrivals.get(self.arrivals_next).map(|a| a.time);
            let next_completion = self.sites.next_time();
            // Fault events only matter while there is work they could
            // affect; once the last query terminates, the remaining
            // schedule is irrelevant and must not stretch the horizon.
            let next_fault = if work_left {
                self.faults.peek_time()
            } else {
                None
            };
            // Retries are kept sorted by (time, query): the earliest is
            // at the front.
            let next_retry = self.retries.first().map(|r| r.time);
            // Arrivals are sorted by (time, id) and terminality is
            // monotone, so the earliest pending deadline belongs to the
            // first non-terminal query in arrival order.
            let next_deadline = self.cfg.deadline.and_then(|d| {
                while self
                    .arrivals
                    .get(self.deadline_cursor)
                    .is_some_and(|a| self.records[a.id.0].outcome.is_some())
                {
                    self.deadline_cursor += 1;
                }
                self.arrivals.get(self.deadline_cursor).map(|a| a.time + d)
            });
            let t = [
                next_arrival,
                next_completion,
                next_fault,
                next_retry,
                next_deadline,
            ]
            .into_iter()
            .flatten()
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            });
            let t = match t {
                Some(t) => t,
                None => break,
            };

            // 1. Advance only the sites with a completion due at t (the
            //    calendar knows which); every other site stays lazily
            //    behind and catches up when next touched. A completion
            //    strictly before t cannot exist: t is the global minimum.
            self.clock = t;
            self.sites.advance_due(t, &mut completions);
            // The sites surface completions stamped t in tag order: the
            // (time, tag) retirement order.
            debug_assert!(
                completions.iter().all(|c| c.time.to_bits() == t.to_bits()),
                "the sites surfaced a completion away from t = {t}"
            );
            let revisit = last.is_some_and(|last| t <= last);
            if revisit && completions.is_empty() && next_retry.is_none_or(|r| r > t) {
                return Err(RuntimeError::Stalled { time: t });
            }
            last = Some(t);

            // 2. Retire completed clones; queries whose phase drained
            //    (and has no parked lost work) dispatch their next phase
            //    or finish. Completions beat same-instant faults and
            //    deadlines: work that was done *is* done.
            for done in completions.drain(..) {
                self.retire(done);
            }

            // 3. Apply fault events due at t, in plan order.
            while let Some(ev) = self.faults.pop_due(t) {
                self.apply_fault(ev.site, ev.kind);
            }

            // 4. Fire recovery retries due at t, in (time, query) order.
            self.fire_due_retries(t);

            // 5. Enqueue arrivals due at t — or shed them when too few
            //    sites are alive (graceful degradation).
            while self
                .arrivals
                .get(self.arrivals_next)
                .is_some_and(|a| a.time <= t)
            {
                let idx = self.arrivals_next;
                self.arrivals_next += 1;
                let (id, problem) = {
                    let ev = &mut self.arrivals[idx];
                    (
                        ev.id,
                        ev.problem.take().expect("arrival consumed exactly once"),
                    )
                };
                let alive_frac = self.sites.alive_sites() as f64 / self.sys.sites as f64;
                let shed_reason = if alive_frac < self.cfg.recovery.degrade_threshold {
                    Some(ShedReason::AliveCount)
                } else if self.controller.enabled() {
                    // Controller last resort: hard bounds only; plain
                    // overload defers through the gate instead.
                    let sample = self.pressure_sample();
                    self.controller.last_resort_shed(&sample)
                } else {
                    None
                };
                if let Some(reason) = shed_reason {
                    self.records[id.0].outcome = Some(QueryOutcome::Shed { reason });
                    self.fault_trace.push(FaultRecord {
                        time: t,
                        kind: FaultRecordKind::Shed { query: id, reason },
                    });
                    continue;
                }
                let rec = &self.records[id.0];
                self.queue.push(id, rec.client, rec.volume);
                self.pending.insert(id, problem);
            }

            // 6. Expire deadlines: queued or running queries whose
            //    arrival + deadline has passed are aborted, in query-id
            //    order. Arrivals are time-sorted, so the candidates are
            //    a prefix starting at the deadline cursor — no scan over
            //    every record.
            if let Some(d) = self.cfg.deadline {
                let mut expired: Vec<QueryId> = self.arrivals[self.deadline_cursor..]
                    .iter()
                    .take_while(|a| a.time + d <= t)
                    .filter(|a| self.records[a.id.0].outcome.is_none())
                    .map(|a| a.id)
                    .collect();
                expired.sort_unstable();
                for id in expired {
                    self.abort_query(id, "deadline expired");
                }
            }

            // 6½. Feed the controller one pressure observation, after
            //     every state change at t and before admission, so the
            //     gate and governor act on this epoch's admissions. The
            //     disabled controller is never consulted at all.
            if self.controller.enabled() {
                let sample = self.pressure_sample();
                for d in self.controller.observe(sample) {
                    self.audit_trace.push(AuditEvent::ControlDecision {
                        time: t,
                        action: d.action,
                        level: d.level,
                        gate: d.gate,
                        sample: d.sample,
                    });
                }
            }

            // 7. Admit while capacity allows.
            self.try_admit()?;

            self.depth_trace
                .push((t, self.queue.len() + self.released.len()));
        }
        Ok(())
    }

    /// Retires one completed clone and, if its query's phase has fully
    /// drained, advances the query.
    fn retire(&mut self, done: Completion) {
        let info = self
            .clones
            .remove(done.tag)
            .expect("completion for unknown clone tag");
        let rq = self
            .running
            .get_mut(info.query)
            .expect("completion for query not running");
        rq.outstanding -= 1;
        if rq.outstanding == 0 && rq.parked == 0 {
            self.advance_query(info.query);
        }
    }

    /// Catches a lazily advanced site up to the current clock before the
    /// runtime mutates it (dispatch, crash, eviction). The calendar keeps
    /// sites frozen between their own events, so any interaction with a
    /// site *must* route through here first — otherwise the mutation
    /// would apply at a stale local time. Advancing can surface clones
    /// whose residual work rounds to zero at the clock; those retire
    /// through the normal completion path (in tag order: they are all
    /// stamped at the clock) so their queries observe them as finished,
    /// not evicted.
    fn touch_site(&mut self, site: usize) {
        let mut buf = std::mem::take(&mut self.touch_buf);
        self.sites.catch_up(site, self.clock, &mut buf);
        if !buf.is_empty() {
            // The engine's sweep emits in active-array order, not tag
            // order.
            debug_assert!(
                buf.iter().all(|c| c.time.to_bits() == self.clock.to_bits()),
                "a catch-up surfaced a completion away from the clock {}",
                self.clock
            );
            buf.sort_unstable_by_key(|c| c.tag);
            for done in buf.drain(..) {
                self.retire(done);
            }
        }
        self.touch_buf = buf;
    }

    /// Applies one fault event to the site simulators and any affected
    /// queries. The schedule cache is untouched: a cached plan
    /// stays the correct admission plan across any fault (see
    /// [`crate::cache`]).
    fn apply_fault(&mut self, site: usize, kind: FaultKind) {
        match kind {
            FaultKind::Crash => {
                if self.sites.is_down(site) {
                    return;
                }
                self.touch_site(site);
                // Evicts the residents (zeroing the site's committed
                // load) and invalidates the calendar entry.
                let lost = self.sites.fail_site(site);
                self.fault_trace.push(FaultRecord {
                    time: self.clock,
                    kind: FaultRecordKind::SiteDown {
                        site,
                        clones_lost: lost.len(),
                    },
                });
                // Scale each lost clone's work vector by its unfinished
                // fraction and group by owning query (residency order →
                // deterministic).
                let mut by_query: Vec<(QueryId, Vec<WorkVector>)> = Vec::new();
                for lc in lost {
                    let info = self
                        .clones
                        .remove(lc.tag)
                        .expect("lost clone was not tracked");
                    let frac = lc.remaining / info.duration;
                    let rem = info.work.scaled(frac);
                    self.fault_trace.push(FaultRecord {
                        time: self.clock,
                        kind: FaultRecordKind::CloneLost { query: info.query },
                    });
                    match by_query.iter_mut().find(|(q, _)| *q == info.query) {
                        Some((_, works)) => works.push(rem),
                        None => by_query.push((info.query, vec![rem])),
                    }
                }
                for (query, works) in by_query {
                    let rq = self
                        .running
                        .get_mut(query)
                        .expect("lost clones belong to a running query");
                    rq.outstanding -= works.len();
                    self.handle_lost(query, works, 0);
                    self.maybe_advance(query);
                }
            }
            FaultKind::Recover => {
                if !self.sites.is_down(site) {
                    return;
                }
                // A down site is idle (no completions to sweep), so the
                // restore needs no catch-up; the site's clock fast-forwards
                // at its next touch.
                self.sites.restore_site(site);
                self.fault_trace.push(FaultRecord {
                    time: self.clock,
                    kind: FaultRecordKind::SiteUp { site },
                });
            }
        }
    }

    /// Pops and runs every retry due at or before `t`, in `(time, query)`
    /// order — the list's standing sort order, so the due set is a
    /// front prefix.
    fn fire_due_retries(&mut self, t: f64) {
        if self.retries.first().is_none_or(|r| r.time > t) {
            return;
        }
        let split = self.retries.partition_point(|r| r.time <= t);
        let due: Vec<RetryEvent> = self.retries.drain(..split).collect();
        for ev in due {
            // The query may have been aborted since parking; abort_query
            // purges its retries, so reaching here means it still runs.
            let rq = self
                .running
                .get_mut(ev.query)
                .expect("retry for query not running");
            rq.parked -= 1;
            self.handle_lost(ev.query, ev.works, ev.attempt);
            self.maybe_advance(ev.query);
        }
    }

    /// Recovery entry point: re-packs `works` (lost work vectors of
    /// `query`) onto the surviving sites, or parks them on a backoff
    /// retry, or — past the retry cap — aborts the query.
    fn handle_lost(&mut self, query: QueryId, works: Vec<WorkVector>, attempt: u32) {
        let alive: Vec<SiteId> = self.sites.alive_list();
        let replanned = if alive.is_empty() {
            None
        } else {
            replan_lost(
                &works,
                &alive,
                &self.sys.site,
                &self.comm,
                self.cfg.recovery.rebuild_factor,
            )
            .ok()
        };
        // Every re-packed clone is a run of its own.
        let replanned = replanned.map(|replaced| {
            let mut placements = Placements::default();
            for (site, work) in replaced {
                placements.sites.push(site);
                placements.close_run(&work, self.model.t_seq(&work));
            }
            placements
        });
        let standalone = self.records[query.0].standalone_response;
        match replanned {
            // Compounded rebuild surcharges (see `crate::recovery`).
            Some(placements)
                if (placements.runs.iter())
                    .any(|run| repack_out_of_bounds(run.duration, standalone)) =>
            {
                self.abort_query(
                    query,
                    &format!(
                        "re-packed work exceeds {MAX_REPACK_STRETCH}x the query's \
                         standalone response"
                    ),
                );
            }
            Some(placements) => {
                // Work conservation through recovery (Repacked audit
                // event): the re-pack must place exactly the lost work,
                // inflated by the rebuild surcharge, plus one EA1
                // startup cost α per degree-1 replacement clone.
                let lost_total: f64 = works.iter().map(WorkVector::total).sum();
                let expected_total: f64 = works
                    .iter()
                    .map(|w| {
                        rebuild_inflated(w, &self.sys.site, self.cfg.recovery.rebuild_factor)
                            .total()
                            + self.comm.alpha
                    })
                    .sum();
                let placed_total: f64 = placements.runs.iter().map(|run| run.work.total()).sum();
                debug_assert!(
                    audit_repack_conserves(expected_total, placed_total),
                    "recovery re-pack leaked work for {query}: expected {expected_total}, \
                     placed {placed_total}"
                );
                self.audit_trace.push(AuditEvent::Repacked {
                    time: self.clock,
                    query,
                    lost_total,
                    expected_total,
                    placed_total,
                });
                // Hold the phase barrier while dispatching: catching a
                // target site up to the clock can retire this query's
                // last outstanding clone, and without the guard that
                // would advance the phase before the re-packed work is
                // counted.
                self.running
                    .get_mut(query)
                    .expect("re-pack for query not running")
                    .parked += 1;
                let dispatched = self.dispatch_placements(query, &placements);
                let rq = self
                    .running
                    .get_mut(query)
                    .expect("re-pack for query not running");
                rq.parked -= 1;
                rq.outstanding += dispatched;
                self.fault_trace.push(FaultRecord {
                    time: self.clock,
                    kind: FaultRecordKind::Repacked {
                        query,
                        clones: placements.sites.len(),
                    },
                });
            }
            None => {
                if attempt >= self.cfg.recovery.max_retries {
                    self.abort_query(query, "recovery retries exhausted");
                } else {
                    let at = self.clock + backoff_delay(&self.cfg.recovery, attempt);
                    // Upper-bound insertion keeps the list sorted by
                    // (time, query) with equal keys in insertion order —
                    // the same order the old stable sort produced.
                    let pos = self.retries.partition_point(|r| {
                        r.time.total_cmp(&at).then(r.query.cmp(&query))
                            != std::cmp::Ordering::Greater
                    });
                    self.retries.insert(
                        pos,
                        RetryEvent {
                            time: at,
                            query,
                            attempt: attempt + 1,
                            works,
                        },
                    );
                    self.running
                        .get_mut(query)
                        .expect("parked query not running")
                        .parked += 1;
                    self.fault_trace.push(FaultRecord {
                        time: self.clock,
                        kind: FaultRecordKind::RetryScheduled {
                            query,
                            attempt: attempt + 1,
                            at,
                        },
                    });
                }
            }
        }
    }

    /// Aborts `query` wherever it currently lives (queued or running):
    /// evicts its executing clones, purges its retries, and records the
    /// terminal outcome.
    fn abort_query(&mut self, id: QueryId, reason: &str) {
        if self.records[id.0].outcome.is_some() {
            return;
        }
        // First catch the hosting sites up to the clock (in index order,
        // for determinism). Catch-up can complete *this* query — its last
        // clones may finish within float noise of the abort instant — and
        // a completion beats a same-instant abort.
        let mut sites: Vec<usize> = self
            .clones
            .iter()
            .filter(|(_, c)| c.query == id)
            .map(|(_, c)| c.site.0)
            .collect();
        sites.sort_unstable();
        sites.dedup();
        for site in sites {
            self.touch_site(site);
        }
        if self.records[id.0].outcome.is_some() {
            return;
        }
        // Evict the surviving clones in tag order (the window's order) so
        // the simulators' float state evolves identically run to run.
        let tags: Vec<usize> = self
            .clones
            .iter()
            .filter(|(_, c)| c.query == id)
            .map(|(tag, _)| tag)
            .collect();
        for tag in tags {
            let info = self.clones.remove(tag).expect("tag collected above");
            let _ = self.sites.remove_clone(info.site.0, tag);
        }
        self.retries.retain(|r| r.query != id);
        self.running.remove(id);
        self.queue.remove(id);
        self.pending.remove(id);
        self.released.retain(|(q, _)| *q != id);
        self.records[id.0].outcome = Some(QueryOutcome::Aborted {
            reason: reason.to_owned(),
        });
        self.fault_trace.push(FaultRecord {
            time: self.clock,
            kind: FaultRecordKind::Aborted { query: id },
        });
    }

    /// Advances `id` if its current phase has fully drained (no executing
    /// clones and no parked lost work). No-op for terminated queries.
    fn maybe_advance(&mut self, id: QueryId) {
        if let Some(rq) = self.running.get(id) {
            if rq.outstanding == 0 && rq.parked == 0 {
                self.advance_query(id);
            }
        }
    }

    /// Inserts clones at the given placements; returns how many are
    /// actually executing (zero-duration clones complete inline).
    fn dispatch_placements(&mut self, id: QueryId, placements: &Placements) -> usize {
        debug_assert!(
            audit_placements_valid(
                placements.runs.iter().flat_map(|run| {
                    placements.sites[run.sites.clone()]
                        .iter()
                        .map(move |site| (site, &run.work))
                }),
                self.sys.sites,
                self.sys.dim()
            ),
            "dispatch for {id} carries an out-of-range site or malformed work vector"
        );
        let mut dispatched = 0usize;
        for run in &placements.runs {
            // One clone at a time: catching a site up can retire another
            // query's last clone and dispatch its next phase, which mints
            // tags between this run's clones.
            for &site in &placements.sites[run.sites.clone()] {
                // Lazy calendar discipline: the site must be at the
                // current clock before a clone lands on it.
                self.touch_site(site.0);
                let tag = self.clones.next_tag();
                let done = self.sites.insert(site.0, tag, &run.demand, run.duration);
                debug_assert_eq!(
                    done.is_some(),
                    run.duration <= 0.0,
                    "only zero-duration clones complete inline"
                );
                if run.duration <= 0.0 {
                    // The site completed it inline; it commits no load
                    // and is never tracked.
                    self.clones.push(None);
                    continue;
                }
                self.clones.push(Some(CloneInfo {
                    query: id,
                    site,
                    work: run.work.clone(),
                    duration: run.duration,
                }));
                dispatched += 1;
            }
        }
        dispatched
    }

    /// Dispatches phases of `id` starting at `next_phase` until one has
    /// executing (or parked) clones or the query finishes. Phases whose
    /// clones all have zero duration complete inline at the current
    /// clock. Placements pinned to a crashed site are *displaced*: their
    /// work is migrated through the recovery path (rebuild surcharge
    /// included) instead of being dispatched onto the dead site.
    fn advance_query(&mut self, id: QueryId) {
        // Dispatch re-enters here for other queries (touching a site can
        // retire another query's last clone), so the buffer is taken, not
        // borrowed: a nested call starts with a fresh one.
        let mut live = std::mem::take(&mut self.live_buf);
        // `None`: aborted while displaced work was being recovered.
        while let Some(rq) = self.running.get_mut(id) {
            if rq.next_phase == rq.schedule.phases.len() {
                let rec = &mut self.records[id.0];
                rec.finish = Some(self.clock);
                rec.outcome = Some(QueryOutcome::Completed);
                self.running.remove(id);
                break;
            }
            let phase_idx = rq.next_phase;
            rq.next_phase += 1;
            self.audit_trace.push(AuditEvent::PhaseDispatched {
                time: self.clock,
                query: id,
                phase: phase_idx,
            });

            // Split the phase's clone placements in one pass into live
            // ones and work displaced from crashed sites (data-placement
            // constraints migrate through the recovery re-pack). Clones
            // in one run share their work vector, so each run is timed
            // and its demand rates computed once.
            live.clear();
            let mut displaced: Vec<WorkVector> = Vec::new();
            let phase = &rq.schedule.phases[phase_idx].schedule;
            for (op, homes) in phase.ops.iter().zip(&phase.assignment.homes) {
                let mut homes = homes.iter();
                for (work, n) in op.clones.runs() {
                    for &site in homes.by_ref().take(n) {
                        if !self.sites.is_down(site.0) {
                            live.sites.push(site);
                        } else {
                            displaced.push(work.clone());
                        }
                    }
                    live.close_run(work, self.model.t_seq(work));
                }
            }

            let dispatched = self.dispatch_placements(id, &live);
            self.running
                .get_mut(id)
                .expect("query not running")
                .outstanding += dispatched;
            if !displaced.is_empty() {
                for _ in &displaced {
                    self.fault_trace.push(FaultRecord {
                        time: self.clock,
                        kind: FaultRecordKind::CloneLost { query: id },
                    });
                }
                self.handle_lost(id, displaced, 0);
            }
            if self
                .running
                .get(id)
                .is_none_or(|rq| rq.outstanding > 0 || rq.parked > 0)
            {
                break;
            }
            // All-zero phase: fall through and dispatch the next one at
            // the same instant.
        }
        self.live_buf = live;
    }

    /// Whether one more query may start right now: below the MPL cap
    /// and, for a busy system, past the controller's backpressure gate.
    /// The gate never applies to an idle system, so admission cannot
    /// deadlock.
    fn admission_open(&mut self) -> bool {
        if self.running.len() >= self.cfg.max_in_flight {
            return false;
        }
        if !self.running.is_empty() {
            // Backpressure: an engaged gate defers every queued
            // arrival until the load falls back through the low
            // watermark.
            if self.controller.enabled() && self.controller.gate_engaged() {
                return false;
            }
        }
        true
    }

    /// Moves a planned query into execution at the current clock.
    fn start_query(&mut self, id: QueryId, schedule: Arc<TreeScheduleResult>) {
        let rec = &mut self.records[id.0];
        rec.start = Some(self.clock);
        rec.phases = schedule.phases.len();
        rec.standalone_response = schedule.response_time;
        self.running.insert(
            id,
            RunningQuery {
                schedule,
                next_phase: 0,
                outstanding: 0,
                parked: 0,
            },
        );
        self.advance_query(id);
    }

    /// Admits queued queries while the MPL cap (and, for a busy system,
    /// the controller's backpressure gate) allows. With
    /// [`RuntimeConfig::batch_window`] set, queries
    /// are first *released* from the queue in MQO batches and planned
    /// together ([`Runtime::try_admit_batched`]).
    fn try_admit(&mut self) -> Result<(), RuntimeError> {
        if self.cfg.batch_window > 0 {
            return self.try_admit_batched();
        }
        while !self.queue.is_empty() && self.admission_open() {
            let id = self.queue.pop().expect("queue checked non-empty");
            let problem = self
                .pending
                .remove(id)
                .expect("admitted query has no pending problem");
            let schedule = self.plan(id, &problem)?;
            self.start_query(id, schedule);
        }
        Ok(())
    }

    /// Batch (MQO) admission: whenever the staging area is empty and a
    /// full window is queued — or the arrival stream is exhausted, which
    /// flushes a partial window — pops `batch_window` queries in policy
    /// order and plans them all up front, so with plan sharing on, the
    /// batch's common subtrees are packed once and spliced by every
    /// later member ("build once, probe many"). The planned batch then
    /// dispatches through the same gates as singleton admission, in the
    /// release order. Deterministic: release instants depend only on
    /// queue/arrival state, and both the release and the drain preserve
    /// the policy's documented order.
    fn try_admit_batched(&mut self) -> Result<(), RuntimeError> {
        loop {
            if self.released.is_empty() {
                let window = self.cfg.batch_window;
                let arrivals_done = self.arrivals_next >= self.arrivals.len();
                if self.queue.is_empty() || (self.queue.len() < window && !arrivals_done) {
                    return Ok(());
                }
                let take = window.min(self.queue.len());
                let mut batch = Vec::with_capacity(take);
                for _ in 0..take {
                    batch.push(self.queue.pop().expect("queue checked non-empty"));
                }
                self.batches_released += 1;
                self.batch_members += batch.len() as u64;
                for id in batch {
                    let problem = self
                        .pending
                        .remove(id)
                        .expect("released query has no pending problem");
                    let schedule = self.plan(id, &problem)?;
                    self.released.push_back((id, schedule));
                }
            }
            while !self.released.is_empty() && self.admission_open() {
                let (id, schedule) = self.released.pop_front().expect("checked non-empty");
                self.start_query(id, schedule);
            }
            // Blocked mid-batch (MPL or a gate): wait for capacity.
            // Fully drained with more queued: release the next window.
            if !self.released.is_empty() || self.queue.is_empty() {
                return Ok(());
            }
        }
    }

    /// Produces the admission TreeSchedule for `problem`: a hit from the
    /// plan-signature cache, or a [`cold_plan`] that is then memoized.
    /// An uncapped miss takes the plan-ahead worker's plan, waiting for
    /// it if need be; it counts as the miss it replaces.
    /// [`Runtime::replay_cache_hits`] re-plans every recorded hit cold.
    ///
    /// The controller's governed degree cap is part of the plan's
    /// identity: signatures key on the cap, so a template planned at
    /// level 2 and the same template at level 0 coexist in the cache and
    /// each admission is served the plan matching the *current* level.
    fn plan(
        &mut self,
        id: QueryId,
        problem: &TreeProblem,
    ) -> Result<Arc<TreeScheduleResult>, RuntimeError> {
        let cap = self.controller.degree_cap(self.sys.sites);
        let sig = PlanSignature::of_capped(problem, self.cfg.f, cap);
        let schedule_error = |source| RuntimeError::Schedule { query: id, source };
        if let Some(hit) = self.cache.get(&sig) {
            self.audit_trace.push(AuditEvent::CacheHit {
                time: self.clock,
                query: id,
                sig_hash: hit.sig_hash,
                digest: hit.digest,
            });
            return Ok(hit.schedule);
        }
        let prefetched = match (&self.ahead, cap) {
            (Some(ahead), None) => ahead.take(id),
            _ => None,
        };
        let (fresh, stats) = match prefetched {
            Some(planned) => planned.map(|plan| (plan, unshared_stats(problem))),
            None => {
                let mut memo = TracedFragmentCache {
                    cache: &mut self.cache,
                    trace: &mut self.audit_trace,
                    time: self.clock,
                    query: id,
                };
                cold_plan(
                    problem,
                    &self.cfg,
                    &self.sys,
                    &self.comm,
                    &self.model,
                    cap,
                    &mut memo,
                )
            }
        }
        .map_err(schedule_error)?;
        let fresh = Arc::new(fresh);
        self.cache.absorb_shared(&stats);
        let plan = self.cache.insert(sig, Arc::clone(&fresh), Vec::new());
        self.audit_trace.push(AuditEvent::CacheInsert {
            time: self.clock,
            query: id,
            sig_hash: plan.sig_hash,
            digest: plan.digest,
        });
        Ok(fresh)
    }

    fn summary(&mut self) -> RunSummary {
        let horizon = self.clock;
        let mut s = RunSummary::new(
            self.cfg.policy.label(),
            horizon,
            self.records.clone(),
            self.sites.busy(),
            self.depth_trace.clone(),
            self.fault_trace.clone(),
        );
        s.cache = self.cache.stats();
        s.cache.batches_released = self.batches_released;
        s.cache.batch_members = self.batch_members;
        s.trace = self.audit_trace.clone();
        s.site_peak_util = self.sites.peak_util();
        s.site_util_integral = self.sites.util_integral();
        s
    }

    /// Replays the schedule cache's hits in `summary` (a run of this
    /// runtime) from recorded evidence. Walking the trace, it tracks the
    /// governor level from each [`AuditEvent::ControlDecision`] and
    /// re-plans each [`AuditEvent::CacheHit`]'s query cold, from
    /// `problems` (indexed by [`QueryId`]), at that level's
    /// [`ControllerConfig::degree_cap`] against an empty fragment memo.
    /// It returns every hit whose recorded digest differs from the cold
    /// plan's [`plan_digest`]: empty when the cache served each hit the
    /// bytes a fresh plan would have (see [`crate::cache`]).
    ///
    /// # Panics
    /// If a hit's query has no entry in `problems`.
    pub fn replay_cache_hits(
        &self,
        summary: &RunSummary,
        problems: &[TreeProblem],
    ) -> Vec<UnreproducedHit> {
        let mut level = 0;
        let mut out = Vec::new();
        for ev in &summary.trace {
            let (query, recorded) = match *ev {
                AuditEvent::ControlDecision { level: l, .. } => {
                    level = l;
                    continue;
                }
                AuditEvent::CacheHit { query, digest, .. } => (query, digest),
                _ => continue,
            };
            let cap = self.cfg.controller.degree_cap(level, self.sys.sites);
            let cold = cold_plan(
                &problems[query.0],
                &self.cfg,
                &self.sys,
                &self.comm,
                &self.model,
                cap,
                &mut MapFragmentCache::new(),
            )
            .ok()
            .map(|(plan, _)| plan_digest(&plan));
            if cold != Some(recorded) {
                out.push(UnreproducedHit {
                    query,
                    cap,
                    recorded,
                    cold,
                });
            }
        }
        out
    }
}

/// A whole-plan cache hit that a cold re-plan does not reproduce (see
/// [`Runtime::replay_cache_hits`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnreproducedHit {
    /// The query the hit served.
    pub query: QueryId,
    /// The governed degree cap the hit was re-planned at.
    pub cap: Option<usize>,
    /// The digest the trace recorded for the hit.
    pub recorded: u64,
    /// The cold plan's digest; `None` when cold planning failed.
    pub cold: Option<u64>,
}

/// Plans `problem` from scratch under the governed degree `cap`: the
/// shared planner over `memo` with [`RuntimeConfig::plan_sharing`] on,
/// the joint per-level packer otherwise (`memo` unused). The stats count
/// the packing work either way, so shared and unshared runs compare.
fn cold_plan<M: ResponseModel>(
    problem: &TreeProblem,
    cfg: &RuntimeConfig,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
    cap: Option<usize>,
    memo: &mut impl FragmentCache,
) -> Result<(TreeScheduleResult, SharedStats), ScheduleError> {
    if cfg.plan_sharing {
        return tree_schedule_shared(problem, cfg.f, sys, comm, model, cap, memo);
    }
    let plan = plan_unshared(problem, cfg.f, sys, comm, model, cap)?;
    Ok((plan, unshared_stats(problem)))
}

/// The joint per-level packer under the governed degree `cap`: the
/// unshared half of [`cold_plan`], and the plan-ahead worker's job.
fn plan_unshared<M: ResponseModel>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
    cap: Option<usize>,
) -> Result<TreeScheduleResult, ScheduleError> {
    let opts = PlanOptions {
        cap,
        ..PlanOptions::default()
    };
    tree_schedule_with(problem, f, sys, comm, model, opts)
}

/// The planning work an unshared cold plan counts: every task packed.
fn unshared_stats(problem: &TreeProblem) -> SharedStats {
    SharedStats {
        tasks_planned: problem.tasks.len() as u64,
        ..SharedStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::cache::schedule_digest;
    use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
    use mrs_core::prelude::OverlapModel;
    use mrs_core::tasks::TaskGraph;
    use mrs_sim::fault::FaultEvent;

    fn one_op_problem(cpu: f64) -> TreeProblem {
        let op = OperatorSpec::floating(
            OperatorId(0),
            OperatorKind::Scan,
            WorkVector::from_slice(&[cpu, cpu / 2.0, 0.0]),
            1_000_000.0,
        );
        TreeProblem {
            ops: vec![op],
            tasks: TaskGraph::single_task(vec![OperatorId(0)]),
            bindings: vec![],
        }
    }

    fn runtime(policy: AdmissionPolicy, mpl: usize) -> Runtime<OverlapModel> {
        runtime_with(RuntimeConfig {
            policy,
            max_in_flight: mpl,
            ..RuntimeConfig::default()
        })
    }

    fn runtime_with(cfg: RuntimeConfig) -> Runtime<OverlapModel> {
        Runtime::new(
            SystemSpec::homogeneous(4),
            CommModel::paper_defaults(),
            OverlapModel::new(0.5).unwrap(),
            cfg,
        )
    }

    fn crash(time: f64, site: usize) -> FaultEvent {
        FaultEvent {
            time,
            site,
            kind: FaultKind::Crash,
        }
    }

    fn recover(time: f64, site: usize) -> FaultEvent {
        FaultEvent {
            time,
            site,
            kind: FaultKind::Recover,
        }
    }

    #[test]
    fn empty_run_completes_immediately() {
        let mut rt = runtime(AdmissionPolicy::Fcfs, 2);
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.completed(), 0);
        assert_eq!(summary.horizon, 0.0);
    }

    #[test]
    fn single_query_runs_and_finishes() {
        let mut rt = runtime(AdmissionPolicy::Fcfs, 2);
        let id = rt.submit_at(1.0, 0, one_op_problem(10.0));
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.completed(), 1);
        let rec = &summary.queries[id.0];
        assert_eq!(rec.start, Some(1.0));
        assert!(rec.finish.unwrap() > 1.0);
        assert!((rec.service().unwrap() - rec.standalone_response).abs() < 1e-9);
        assert_eq!(rec.outcome, Some(QueryOutcome::Completed));
        // Every site drained.
        assert_eq!(rt.total_resident(), 0);
    }

    #[test]
    fn mpl_cap_queues_excess_queries() {
        let mut rt = runtime(AdmissionPolicy::Fcfs, 1);
        let a = rt.submit_at(0.0, 0, one_op_problem(10.0));
        let b = rt.submit_at(0.0, 0, one_op_problem(10.0));
        let summary = rt.run_to_completion().unwrap();
        let (ra, rb) = (&summary.queries[a.0], &summary.queries[b.0]);
        // b waited for a to finish.
        assert_eq!(rb.start, ra.finish);
        assert!(rb.wait().unwrap() > 0.0);
        assert_eq!(summary.max_queue_depth(), 1);
    }

    #[test]
    fn late_arrival_respected() {
        let mut rt = runtime(AdmissionPolicy::Fcfs, 4);
        let id = rt.submit_at(100.0, 0, one_op_problem(5.0));
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.queries[id.0].start, Some(100.0));
    }

    #[test]
    #[should_panic(expected = "max_in_flight")]
    fn zero_mpl_rejected() {
        let cfg = RuntimeConfig {
            max_in_flight: 0,
            ..RuntimeConfig::default()
        };
        let _ = Runtime::new(
            SystemSpec::homogeneous(2),
            CommModel::paper_defaults(),
            OverlapModel::new(0.5).unwrap(),
            cfg,
        );
    }

    #[test]
    fn runtime_error_display_is_stable() {
        let abort = RuntimeError::Aborted {
            query: QueryId(3),
            reason: "deadline expired".to_owned(),
        };
        assert_eq!(format!("{abort}"), "q3 aborted: deadline expired");
        let shed = RuntimeError::Shed {
            query: QueryId(7),
            reason: ShedReason::AliveCount,
        };
        assert_eq!(format!("{shed}"), "q7 shed at arrival: alive-count");
        let stalled = RuntimeError::Stalled { time: 1e18 };
        assert_eq!(
            format!("{stalled}"),
            "virtual clock stalled at t=1e18: a site's next completion rounds to its own clock"
        );
        // Clone + PartialEq let tests compare whole failure lists.
        assert_eq!(abort.clone(), abort);
        assert_ne!(abort, shed);
    }

    #[test]
    fn a_clock_that_cannot_advance_is_a_typed_error() {
        // At t = 1e18 an ulp is 128 s, so every clone of a 60 s operator
        // finishes at `now + dt == now`: the site can never retire it
        // and the loop would revisit t forever.
        let mut rt = runtime(AdmissionPolicy::Fcfs, 4);
        rt.submit_at(1e18, 0, one_op_problem(60.0));
        assert_eq!(
            rt.run_to_completion().unwrap_err(),
            RuntimeError::Stalled { time: 1e18 }
        );
        // Ten times earlier the clock resolves the clones and the run
        // completes.
        let mut rt = runtime(AdmissionPolicy::Fcfs, 4);
        let id = rt.submit_at(1e17, 0, one_op_problem(60.0));
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.queries[id.0].outcome, Some(QueryOutcome::Completed));
    }

    #[test]
    fn retries_due_at_a_revisited_instant_are_not_a_stall() {
        // With no backoff every failed retry re-parks at the clock
        // itself, so the loop revisits t = 1 with no completion until
        // the retries run out: progress, not a stall.
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted((0..4).map(|site| crash(1.0, site)).collect()),
            recovery: RecoveryConfig {
                max_retries: 3,
                backoff_base: 0.0,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let id = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let summary = rt.run_to_completion().unwrap();
        assert!(matches!(
            &summary.queries[id.0].outcome,
            Some(QueryOutcome::Aborted { reason }) if reason.contains("retries exhausted")
        ));
        assert_eq!(summary.horizon, 1.0);
    }

    #[test]
    fn crash_mid_phase_repacks_onto_survivors() {
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![crash(1.0, 0)]),
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        // Big enough to still be running at t=1 and spread over sites.
        let id = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.queries[id.0].outcome, Some(QueryOutcome::Completed));
        assert_eq!(summary.sites_failed(), 1);
        // The lost work made the run strictly longer than fault-free.
        let mut baseline = runtime(AdmissionPolicy::Fcfs, 4);
        baseline.submit_at(0.0, 0, one_op_problem(40.0));
        let base = baseline.run_to_completion().unwrap();
        if summary.clones_lost() > 0 {
            assert!(summary.repacks() > 0, "lost clones must be re-packed");
            assert!(summary.horizon > base.horizon);
        }
        assert_eq!(rt.total_resident(), 0);
    }

    #[test]
    fn total_outage_parks_work_until_recovery() {
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![
                crash(1.0, 0),
                crash(1.0, 1),
                crash(1.0, 2),
                crash(1.0, 3),
                recover(2.0, 0),
                recover(2.0, 1),
                recover(2.0, 2),
                recover(2.0, 3),
            ]),
            recovery: RecoveryConfig {
                backoff_base: 2.0,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let id = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let summary = rt.run_to_completion().unwrap();
        let rec = &summary.queries[id.0];
        assert_eq!(rec.outcome, Some(QueryOutcome::Completed));
        // All four sites died at t=1 with the query in flight: the work
        // parked (retry at 1 + 2.0 = 3.0, after recovery at 2.0) and then
        // re-packed; the finish lands after the retry fired.
        assert_eq!(summary.sites_failed(), 4);
        assert!(summary.clones_lost() > 0);
        assert!(summary.repacks() > 0);
        assert!(rec.finish.unwrap() > 3.0);
        assert_eq!(rt.total_resident(), 0);
    }

    #[test]
    fn exhausted_retries_abort_the_query() {
        // Sites never come back and retries cap out fast.
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![
                crash(1.0, 0),
                crash(1.0, 1),
                crash(1.0, 2),
                crash(1.0, 3),
            ]),
            recovery: RecoveryConfig {
                max_retries: 2,
                backoff_base: 0.5,
                backoff_cap: 1.0,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let id = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let summary = rt.run_to_completion().unwrap();
        match &summary.queries[id.0].outcome {
            Some(QueryOutcome::Aborted { reason }) => {
                assert!(reason.contains("retries exhausted"), "{reason}");
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(summary.aborted(), 1);
        let failures = summary.failures();
        assert_eq!(failures.len(), 1);
        assert!(matches!(&failures[0], RuntimeError::Aborted { query, .. } if *query == id));
        assert_eq!(rt.total_resident(), 0);
    }

    #[test]
    fn compounding_rebuild_work_aborts_instead_of_overflowing() {
        // Two sites crashing in turn: each crash loses the remnants the
        // other site was handed, and every loss re-inflates a remnant.
        // At a rebuild factor of 2 it takes a few re-packs before one
        // outgrows 100 standalone responses (about 25 s here); at 1e30
        // the first re-pack already does, long before the remnant could
        // overflow the site simulator's arithmetic.
        for (factor, repacks) in [(2.0, 4), (1e30, 0)] {
            let faults = (0..20)
                .flat_map(|k| {
                    let t = 1.0 + f64::from(k);
                    let site = (k % 2) as usize;
                    [crash(t, site), recover(t + 0.5, site)]
                })
                .collect();
            let cfg = RuntimeConfig {
                faults: FaultPlan::scripted(faults),
                recovery: RecoveryConfig {
                    rebuild_factor: factor,
                    ..RecoveryConfig::default()
                },
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(
                SystemSpec::homogeneous(2),
                CommModel::paper_defaults(),
                OverlapModel::new(0.5).unwrap(),
                cfg,
            );
            let id = rt.submit_at(0.0, 0, one_op_problem(40.0));
            let summary = rt.run_to_completion().unwrap();
            match &summary.queries[id.0].outcome {
                Some(QueryOutcome::Aborted { reason }) => {
                    assert_eq!(
                        reason,
                        "re-packed work exceeds 100x the query's standalone response"
                    );
                }
                other => panic!("factor {factor}: expected a bound abort, got {other:?}"),
            }
            assert_eq!(
                summary.repacks(),
                repacks,
                "factor {factor}: re-packs before the abort"
            );
            assert_eq!(rt.total_resident(), 0);
        }
    }

    #[test]
    fn deadline_aborts_a_slow_query() {
        let cfg = RuntimeConfig {
            deadline: Some(0.5),
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let id = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let summary = rt.run_to_completion().unwrap();
        match &summary.queries[id.0].outcome {
            Some(QueryOutcome::Aborted { reason }) => {
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
        // The run ends at the deadline, not at the query's natural end.
        assert!((summary.horizon - 0.5).abs() < 1e-12);
        assert_eq!(rt.total_resident(), 0);
    }

    #[test]
    fn same_instant_completion_crash_and_deadline_share_one_epoch() {
        // Queries rooted on disjoint sites: co-resident clones under
        // demand-proportional sharing drain together, so contention
        // would collapse the two finish times onto one instant.
        use mrs_core::operator::Placement;
        let rooted = |cpu: f64, site: usize| {
            let mut p = one_op_problem(cpu);
            p.ops[0].placement = Placement::Rooted(vec![SiteId(site)]);
            p
        };

        // Stage 1: run both queries cleanly and capture the short
        // query's exact finish float.
        let mut probe = runtime(AdmissionPolicy::Fcfs, 2);
        let short = probe.submit_at(0.0, 0, rooted(10.0, 0));
        let long = probe.submit_at(0.0, 0, rooted(40.0, 1));
        let clean = probe.run_to_completion().unwrap();
        let t = clean.queries[short.0].finish.unwrap();
        assert!(clean.queries[long.0].finish.unwrap() > t);

        // Stage 2: a scripted crash on the long query's site and the
        // long query's deadline both land on that exact instant, so a
        // single epoch carries a completion, a fault, and a deadline
        // expiry at once. The completion retires first, then the crash
        // and the deadline kill the survivor — at every shard count.
        let run = |shards: usize| {
            let cfg = RuntimeConfig {
                faults: FaultPlan::scripted(vec![crash(t, 1)]),
                deadline: Some(t),
                shards,
                ..RuntimeConfig::default()
            };
            let mut rt = runtime_with(cfg);
            rt.submit_at(0.0, 0, rooted(10.0, 0));
            rt.submit_at(0.0, 0, rooted(40.0, 1));
            rt.run_to_completion().unwrap()
        };
        let base = run(1);
        assert_eq!(
            base.queries[short.0].finish,
            Some(t),
            "the same-instant crash must not disturb the completion"
        );
        assert_eq!(base.queries[short.0].outcome, Some(QueryOutcome::Completed));
        match &base.queries[long.0].outcome {
            Some(QueryOutcome::Aborted { reason }) => {
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
        assert_eq!(base.sites_failed(), 1);
        // All three events share one instant: the run ends there.
        assert_eq!(base.horizon.to_bits(), t.to_bits());
        let base_digest = base.digest();
        for shards in [2usize, 4] {
            assert_eq!(
                run(shards).digest(),
                base_digest,
                "diverged at shards={shards}"
            );
        }
    }

    #[test]
    fn degraded_mode_sheds_arrivals() {
        // Three of four sites die before the query arrives; with a 0.9
        // threshold the survivor fraction 0.25 sheds the arrival.
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![crash(0.5, 0), crash(0.5, 1), crash(0.5, 2)]),
            recovery: RecoveryConfig {
                degrade_threshold: 0.9,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let id = rt.submit_at(1.0, 0, one_op_problem(10.0));
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(
            summary.queries[id.0].outcome,
            Some(QueryOutcome::Shed {
                reason: ShedReason::AliveCount
            })
        );
        assert_eq!(summary.completed(), 0);
        assert_eq!(summary.shed(), 1);
        assert_eq!(summary.shed_for(ShedReason::AliveCount), 1);
        assert!(matches!(
            &summary.failures()[0],
            RuntimeError::Shed { query, reason: ShedReason::AliveCount } if *query == id
        ));
    }

    /// Runs `cfg` with 1 and 4 shards and asserts byte-identical
    /// summaries; returns the 1-shard summary.
    fn shard_invariant(
        cfg: RuntimeConfig,
        submit: impl Fn(&mut Runtime<OverlapModel>),
    ) -> RunSummary {
        let mut base = None;
        for shards in [1usize, 4] {
            let mut rt = runtime_with(RuntimeConfig {
                shards,
                ..cfg.clone()
            });
            submit(&mut rt);
            let s = rt.run_to_completion().unwrap();
            match &base {
                None => base = Some(s),
                Some(b) => {
                    assert_eq!(b.digest(), s.digest(), "diverged at shards={shards}");
                    assert_eq!(
                        b.faults, s.faults,
                        "fault trace diverged at shards={shards}"
                    );
                }
            }
        }
        base.unwrap()
    }

    #[test]
    fn retry_at_the_exact_deadline_instant_loses_to_the_deadline() {
        // Crash everything at t=1; backoff_base 2.0 parks the lost work
        // with a retry at exactly t=3.0, which is also the query's
        // deadline instant (arrival 0 + deadline 3). The event order at
        // the shared instant is fixed: the retry fires first (step 4,
        // re-packing onto the recovered sites), the deadline expires
        // after (step 6) — so the trace shows a re-pack and then the
        // abort at the same instant, identically at every shard count.
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![
                crash(1.0, 0),
                crash(1.0, 1),
                crash(1.0, 2),
                crash(1.0, 3),
                recover(2.5, 0),
                recover(2.5, 1),
                recover(2.5, 2),
                recover(2.5, 3),
            ]),
            deadline: Some(3.0),
            recovery: RecoveryConfig {
                backoff_base: 2.0,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let summary = shard_invariant(cfg, |rt| {
            rt.submit_at(0.0, 0, one_op_problem(40.0));
        });
        match &summary.queries[0].outcome {
            Some(QueryOutcome::Aborted { reason }) => {
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
        // The retry's re-pack and the abort share t=3.0, in that order.
        let at_deadline: Vec<&FaultRecordKind> = summary
            .faults
            .iter()
            .filter(|r| r.time == 3.0)
            .map(|r| &r.kind)
            .collect();
        assert!(
            matches!(at_deadline.first(), Some(FaultRecordKind::Repacked { .. })),
            "{at_deadline:?}"
        );
        assert!(
            matches!(at_deadline.last(), Some(FaultRecordKind::Aborted { .. })),
            "{at_deadline:?}"
        );
        assert!((summary.horizon - 3.0).abs() < 1e-12);
    }

    #[test]
    fn retry_into_a_momentarily_empty_alive_set_reparks_and_recovers() {
        // The first retry (t=1.5) fires while every site is still down:
        // nothing is packable, so the work re-parks with a doubled
        // backoff (next at t=2.5) instead of aborting. The fleet comes
        // back at t=2.0 and the second retry lands the re-pack.
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![
                crash(1.0, 0),
                crash(1.0, 1),
                crash(1.0, 2),
                crash(1.0, 3),
                recover(2.0, 0),
                recover(2.0, 1),
                recover(2.0, 2),
                recover(2.0, 3),
            ]),
            recovery: RecoveryConfig {
                backoff_base: 0.5,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let summary = shard_invariant(cfg, |rt| {
            rt.submit_at(0.0, 0, one_op_problem(40.0));
        });
        assert_eq!(summary.queries[0].outcome, Some(QueryOutcome::Completed));
        let retries: Vec<f64> = summary
            .faults
            .iter()
            .filter_map(|r| match r.kind {
                FaultRecordKind::RetryScheduled { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![1.5, 2.5], "re-park doubles the backoff");
        assert!(summary.repacks() > 0);
        assert!(summary.queries[0].finish.unwrap() > 2.5);
    }

    #[test]
    fn backoff_exhaustion_one_event_before_the_restore_still_aborts() {
        // max_retries 1: the lost work parks once (retry at t=1.5), and
        // that retry fires into a dead fleet with the cap exhausted —
        // abort at 1.5. The restore at t=1.6 is one event too late, and
        // must not resurrect the aborted query (its retries are purged).
        let cfg = RuntimeConfig {
            faults: FaultPlan::scripted(vec![
                crash(1.0, 0),
                crash(1.0, 1),
                crash(1.0, 2),
                crash(1.0, 3),
                recover(1.6, 0),
                recover(1.6, 1),
                recover(1.6, 2),
                recover(1.6, 3),
            ]),
            recovery: RecoveryConfig {
                max_retries: 1,
                backoff_base: 0.5,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let summary = shard_invariant(cfg, |rt| {
            rt.submit_at(0.0, 0, one_op_problem(40.0));
        });
        match &summary.queries[0].outcome {
            Some(QueryOutcome::Aborted { reason }) => {
                assert!(reason.contains("retries exhausted"), "{reason}");
            }
            other => panic!("expected exhaustion abort, got {other:?}"),
        }
        let abort_time = summary
            .faults
            .iter()
            .find_map(|r| match r.kind {
                FaultRecordKind::Aborted { .. } => Some(r.time),
                _ => None,
            })
            .expect("abort recorded");
        assert!((abort_time - 1.5).abs() < 1e-12);
        // The run ends at the abort: with no live work left, the
        // scripted restores never stretch the horizon.
        assert!((summary.horizon - 1.5).abs() < 1e-12);
    }

    fn overload_controller() -> ControllerConfig {
        ControllerConfig {
            enabled: true,
            load_high: 0.05,
            load_low: 0.01,
            backlog_high: 3,
            backlog_low: 0,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn adaptive_controller_defers_and_governs_under_overload() {
        use crate::control::ControlAction;
        use crate::trace::audit_control_transition;
        let cfg = RuntimeConfig {
            max_in_flight: 2,
            controller: overload_controller(),
            ..RuntimeConfig::default()
        };
        let summary = shard_invariant(cfg.clone(), |rt| {
            for q in 0..12 {
                rt.submit_at(q as f64 * 0.2, q % 3, one_op_problem(20.0));
            }
        });
        // Backpressure defers, never sheds: everything completes.
        assert_eq!(summary.completed(), 12);
        assert_eq!(summary.shed(), 0);
        // The controller actually moved: the gate engaged and the
        // governor raised at least one level.
        let decisions: Vec<_> = summary
            .trace
            .iter()
            .filter_map(|ev| match ev {
                AuditEvent::ControlDecision {
                    action,
                    level,
                    gate,
                    sample,
                    ..
                } => Some((*action, *level, *gate, *sample)),
                _ => None,
            })
            .collect();
        assert!(
            decisions
                .iter()
                .any(|(a, ..)| *a == ControlAction::EngageGate),
            "gate never engaged: {decisions:?}"
        );
        assert!(
            decisions
                .iter()
                .any(|(a, ..)| *a == ControlAction::RaiseLevel),
            "governor never raised: {decisions:?}"
        );
        // In-crate replay: every decision is one valid hysteresis step
        // from the replayed state AND justified by its own snapshot.
        let (mut level, mut gate) = (0u32, false);
        for (action, rec_level, rec_gate, sample) in &decisions {
            assert!(
                audit_control_transition(level, gate, *action, *rec_level, *rec_gate),
                "invalid step {action:?} from level {level}"
            );
            assert!(
                cfg.controller.justifies(*action, sample, level),
                "unjustified {action:?} at {sample:?}"
            );
            level = *rec_level;
            gate = *rec_gate;
        }
        // The governed cap re-keys the cache: one template planned at
        // more than one level means more than one miss.
        assert!(
            summary.cache.misses > 1,
            "expected per-level plans, got {:?}",
            summary.cache
        );
        assert_eq!(summary.cache.hits + summary.cache.misses, 12);
    }

    /// Whether a runtime with `shards` segments plans ahead on this
    /// host.
    fn plans_ahead(shards: usize) -> bool {
        let rt = runtime_with(RuntimeConfig {
            shards,
            ..RuntimeConfig::default()
        });
        rt.plan_ahead().is_some()
    }

    #[test]
    fn plan_ahead_starts_at_any_shard_count_on_a_multicore_host() {
        for shards in [1, 2] {
            assert_eq!(
                plans_ahead(shards),
                available_parallelism() >= 2,
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn a_malformed_query_fails_alike_with_and_without_plan_ahead() {
        // An operator the table does not hold: TreeSchedule rejects the
        // problem, on the worker or inline.
        let malformed = TreeProblem {
            tasks: TaskGraph::single_task(vec![OperatorId(5)]),
            ..one_op_problem(1.0)
        };
        for shards in [1usize, 2] {
            let errors = [true, false].map(|plan_ahead| {
                let mut rt = runtime_with(RuntimeConfig {
                    shards,
                    ..RuntimeConfig::default()
                });
                for q in 0..12 {
                    let problem = if q == 6 {
                        malformed.clone()
                    } else {
                        one_op_problem(2.0 + q as f64)
                    };
                    rt.submit_at(q as f64 * 0.5, q % 3, problem);
                }
                // Returning at all shows the worker was stopped and
                // joined with later slots still queued.
                rt.run(plan_ahead)
                    .expect_err("the malformed query fails its admission")
            });
            assert!(
                matches!(
                    errors[0],
                    RuntimeError::Schedule {
                        query: QueryId(6),
                        ..
                    }
                ),
                "unexpected error at shards = {shards}: {}",
                errors[0]
            );
            assert_eq!(errors[0], errors[1], "shards = {shards}");
        }
    }

    #[test]
    fn a_capped_miss_plans_inline_and_leaves_the_uncapped_slot() {
        let mut rt = runtime_with(RuntimeConfig {
            controller: overload_controller(),
            ..RuntimeConfig::default()
        });
        let problem = one_op_problem(20.0);
        rt.submit_at(0.0, 0, problem.clone());
        let pressure = |backlog, avg_load| PressureSample {
            time: 0.0,
            queue_depth: backlog,
            retries: 0,
            alive: 4,
            avg_load,
        };
        rt.controller.observe(pressure(3, 1.0));
        let cap = rt.controller.degree_cap(4);
        assert!(cap.is_some(), "the governor must have raised a level");
        // The query's uncapped slot holds a marker plan, which any take
        // of the slot returns.
        let marker = TreeScheduleResult {
            phases: vec![],
            response_time: 1e9,
        };
        let job_plan = marker.clone();
        let slots = Ahead::new(1, WINDOW, move |_| Ok(job_plan.clone()));
        rt.ahead = Some(PlanAhead {
            slots,
            slot_of: vec![0],
        });
        let capped = rt.plan(QueryId(0), &problem).unwrap();
        let inline = plan_unshared(&problem, rt.cfg.f, &rt.sys, &rt.comm, &rt.model, cap).unwrap();
        assert_eq!(schedule_digest(&capped), schedule_digest(&inline));
        // Back at level 0, the uncapped miss is served the slot.
        rt.controller.observe(pressure(0, 0.0));
        assert_eq!(rt.controller.degree_cap(4), None);
        let uncapped = rt.plan(QueryId(0), &problem).unwrap();
        assert_eq!(schedule_digest(&uncapped), schedule_digest(&marker));
        assert_eq!(rt.cache_stats().misses, 2, "each plan counts as a miss");
    }

    #[test]
    fn plan_ahead_never_serves_an_uncapped_plan_at_a_capped_level() {
        // Four templates, each first arriving four queries after the
        // last, under an overload controller: the later ones first miss
        // at a governed level, while their uncapped slots are still
        // untaken. A capped miss must plan inline at its own cap;
        // serving it the worker's uncapped plan would memoize a wrong
        // plan, which the cold replay of its next hit flags, and would
        // move the trace off the run without a worker.
        let problems: Vec<TreeProblem> = (0..16)
            .map(|q| one_op_problem(20.0 + (q / 4) as f64))
            .collect();
        let run = |shards, plan_ahead| {
            let mut rt = runtime_with(RuntimeConfig {
                shards,
                max_in_flight: 2,
                controller: overload_controller(),
                ..RuntimeConfig::default()
            });
            for (q, problem) in problems.iter().enumerate() {
                rt.submit_at(q as f64 * 0.2, q % 3, problem.clone());
            }
            let summary = rt.run(plan_ahead).unwrap();
            assert_eq!(rt.replay_cache_hits(&summary, &problems), vec![]);
            summary
        };
        for shards in [1, 2] {
            let (ahead, inline) = (run(shards, true), run(shards, false));
            // At least one hit is replayed at a governed cap.
            let mut level = 0;
            let capped_hits = ahead.trace.iter().filter(|ev| match ev {
                AuditEvent::ControlDecision { level: l, .. } => {
                    level = *l;
                    false
                }
                AuditEvent::CacheHit { .. } => overload_controller().degree_cap(level, 4).is_some(),
                _ => false,
            });
            assert!(capped_hits.count() > 0, "no hit replays at a governed cap");
            assert_eq!(ahead.digest(), inline.digest(), "shards = {shards}");
            assert_eq!(ahead.trace, inline.trace, "shards = {shards}");
        }
    }

    #[test]
    fn controller_last_resort_sheds_with_the_recorded_reason() {
        let cfg = RuntimeConfig {
            max_in_flight: 1,
            controller: ControllerConfig {
                shed_queue: Some(3),
                ..overload_controller()
            },
            ..RuntimeConfig::default()
        };
        let summary = shard_invariant(cfg, |rt| {
            for q in 0..10 {
                rt.submit_at(q as f64 * 0.1, 0, one_op_problem(20.0));
            }
        });
        assert!(summary.shed() > 0, "queue bound must fire");
        assert_eq!(
            summary.shed(),
            summary.shed_for(ShedReason::ControllerLastResort),
            "every shed carries the controller reason"
        );
        assert!(summary.failures().iter().any(|f| matches!(
            f,
            RuntimeError::Shed {
                reason: ShedReason::ControllerLastResort,
                ..
            }
        )));
        // The fault trace records the reason too.
        assert!(summary.faults.iter().any(|r| matches!(
            r.kind,
            FaultRecordKind::Shed {
                reason: ShedReason::ControllerLastResort,
                ..
            }
        )));
        // Completed + shed partition the stream.
        assert_eq!(summary.completed() + summary.shed(), 10);
    }

    #[test]
    fn disabled_controller_leaves_no_trace() {
        // Same overload, controller off: no decisions, no governed
        // plans (one template = one miss), nothing shed.
        let cfg = RuntimeConfig {
            max_in_flight: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        for q in 0..12 {
            rt.submit_at(q as f64 * 0.2, q % 3, one_op_problem(20.0));
        }
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.completed(), 12);
        assert!(
            !summary
                .trace
                .iter()
                .any(|ev| matches!(ev, AuditEvent::ControlDecision { .. })),
            "disabled controller recorded a decision"
        );
        assert_eq!(summary.cache.misses, 1, "one template, one plan");
    }

    #[test]
    fn straggler_site_stretches_service() {
        let fast = {
            let mut rt = Runtime::new(
                SystemSpec::homogeneous(1),
                CommModel::paper_defaults(),
                OverlapModel::new(0.5).unwrap(),
                RuntimeConfig::default(),
            );
            rt.submit_at(0.0, 0, one_op_problem(10.0));
            rt.run_to_completion().unwrap()
        };
        let slow = {
            let cfg = RuntimeConfig {
                faults: FaultPlan::none().with_slowdown(0, 0.5),
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(
                SystemSpec::homogeneous(1),
                CommModel::paper_defaults(),
                OverlapModel::new(0.5).unwrap(),
                cfg,
            );
            rt.submit_at(0.0, 0, one_op_problem(10.0));
            rt.run_to_completion().unwrap()
        };
        let f = fast.queries[0].service().unwrap();
        let s = slow.queries[0].service().unwrap();
        assert!(
            (s - 2.0 * f).abs() < 1e-9,
            "half-speed site must double service: fast {f}, slow {s}"
        );
    }

    #[test]
    fn templated_stream_hits_the_schedule_cache() {
        let mut rt = runtime(AdmissionPolicy::Fcfs, 2);
        for q in 0..6 {
            rt.submit_at(q as f64 * 5.0, 0, one_op_problem(10.0));
        }
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.completed(), 6);
        // One template: the first admission plans, the other five hit.
        assert_eq!(summary.cache.misses, 1);
        assert_eq!(summary.cache.hits, 5);
        assert_eq!(summary.plans_computed(), 1);
        assert!((summary.cache_hit_rate() - 5.0 / 6.0).abs() < 1e-12);
    }

    /// Runs `(arrival, problem)` pairs as client 0 to completion and
    /// asserts that the run hit the schedule cache and that a cold
    /// re-plan reproduces every hit's recorded digest.
    fn run_replayed(
        mut rt: Runtime<OverlapModel>,
        arrivals: Vec<(f64, TreeProblem)>,
    ) -> RunSummary {
        let (times, problems): (Vec<f64>, Vec<TreeProblem>) = arrivals.into_iter().unzip();
        for (&t, problem) in times.iter().zip(&problems) {
            rt.submit_at(t, 0, problem.clone());
        }
        let summary = rt.run_to_completion().unwrap();
        assert!(summary.cache.hits >= 1, "the replay needs hits to check");
        assert_eq!(rt.replay_cache_hits(&summary, &problems), vec![]);
        summary
    }

    #[test]
    fn cache_hits_are_bit_identical_to_fresh_plans() {
        let arrivals = (0..5).map(|q| (q as f64 * 3.0, one_op_problem(8.0)));
        let summary = run_replayed(runtime_with(RuntimeConfig::default()), arrivals.collect());
        assert_eq!(summary.completed(), 5);
    }

    #[test]
    fn crash_inside_the_footprint_keeps_the_cached_plan() {
        // Same template before and after a crash of a site in the plan's
        // footprint (the floating plan spreads over every site, so site
        // 3 is in it). The plan depends on neither the live site set nor
        // the clock, so the post-crash admission hits, and its cold
        // replay proves the served plan equal to a fresh one.
        let cfg = RuntimeConfig {
            max_in_flight: 1,
            faults: FaultPlan::scripted(vec![crash(1.0, 3)]),
            ..RuntimeConfig::default()
        };
        let arrivals = vec![(0.0, one_op_problem(10.0)), (0.5, one_op_problem(10.0))];
        let summary = run_replayed(runtime_with(cfg), arrivals);
        assert_eq!(summary.sites_failed(), 1);
        assert_eq!(summary.completed(), 2);
        // The second query was queued behind MPL=1 and only admitted
        // after the crash.
        assert!(summary.queries[1].start.unwrap() > 1.0);
        assert_eq!(summary.cache.misses, 1, "one template, one cold plan");
        assert_eq!(summary.cache.hits, 1, "the post-crash admission hits");
        assert_eq!(summary.cache.epoch_bumps, 0, "retired counter");
        assert_eq!(summary.cache.stale_evictions, 0, "retired counter");
    }

    #[test]
    fn crash_of_a_rooted_home_keeps_the_cached_plan() {
        // A plan rooted on site 0, which then crashes: the post-crash
        // admission still hits, and dispatch migrates the clone whose
        // home is down onto a survivor.
        use mrs_core::operator::Placement;
        let rooted = |cpu: f64| {
            let mut p = one_op_problem(cpu);
            p.ops[0].placement = Placement::Rooted(vec![SiteId(0)]);
            p
        };
        let cfg = RuntimeConfig {
            max_in_flight: 1,
            faults: FaultPlan::scripted(vec![crash(1.0, 0)]),
            ..RuntimeConfig::default()
        };
        let summary = run_replayed(
            runtime_with(cfg),
            vec![(0.0, rooted(10.0)), (0.5, rooted(10.0))],
        );
        assert_eq!(summary.sites_failed(), 1);
        assert_eq!(summary.completed(), 2);
        assert!(summary.queries[1].start.unwrap() > 1.0);
        assert_eq!(summary.cache.misses, 1, "one template, one cold plan");
        assert_eq!(summary.cache.hits, 1, "the post-crash admission hits");
        assert_eq!(summary.repacks(), 2, "both queries re-pack off site 0");
    }

    #[test]
    fn every_query_reaches_a_terminal_outcome() {
        let cfg = RuntimeConfig {
            faults: FaultPlan::seeded(4, 200.0, 8.0, 2.0, 42),
            deadline: Some(200.0),
            recovery: RecoveryConfig {
                max_retries: 3,
                degrade_threshold: 0.3,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        for q in 0..8 {
            rt.submit_at(q as f64 * 2.0, q % 3, one_op_problem(6.0 + q as f64));
        }
        let summary = rt.run_to_completion().unwrap();
        for rec in &summary.queries {
            assert!(rec.outcome.is_some(), "{} has no terminal outcome", rec.id);
        }
        assert_eq!(
            summary.completed() + summary.aborted() + summary.shed(),
            summary.queries.len(),
            "outcomes must partition the query set"
        );
        assert_eq!(rt.total_resident(), 0);
    }

    #[test]
    fn segments_are_the_one_log_sliced_by_site_range() {
        use mrs_shardexec::segment::ShardEventKind;
        let run = |shards| {
            let mut rt = Runtime::new(
                SystemSpec::homogeneous(13),
                CommModel::paper_defaults(),
                OverlapModel::new(0.5).unwrap(),
                RuntimeConfig {
                    faults: FaultPlan::seeded(13, 200.0, 8.0, 2.0, 42),
                    shards,
                    ..RuntimeConfig::default()
                },
            );
            for q in 0..8 {
                rt.submit_at(q as f64 * 2.0, q % 3, one_op_problem(60.0 + q as f64));
            }
            rt.run_to_completion().unwrap();
            rt
        };
        let one = run(1);
        let whole = one.shard_segments();
        assert_eq!(whole.len(), 1);
        let log = &whole[0].events;
        assert_eq!(log, &one.clone_events());
        assert!(
            log.iter().any(|e| e.kind == ShardEventKind::Lost),
            "the crashes must hit resident clones"
        );
        let plan = ShardPlan::new(13, 3);
        let expected: Vec<ShardSegment> = (0..plan.shards())
            .map(|shard| {
                let range = plan.range(shard);
                ShardSegment {
                    shard,
                    sites: (range.start, range.end),
                    events: log
                        .iter()
                        .filter(|e| range.contains(&e.site))
                        .copied()
                        .collect(),
                }
            })
            .collect();
        let three = run(3);
        assert_eq!(three.shards(), 3);
        assert_eq!(three.shard_segments(), expected);
    }

    /// A three-task probe chain whose deepest task's work is drawn from
    /// `leaf_seed` and the rest from `top_seed`: two problems sharing
    /// `leaf_seed` share the deepest subtree's signature bit-for-bit
    /// while differing above it.
    fn chain_problem(leaf_seed: u64, top_seed: u64) -> TreeProblem {
        use mrs_core::rng::DetRng;
        use mrs_core::tasks::{HomeBinding, TaskId, TaskNode};
        let depth = 3usize;
        let mut ops: Vec<OperatorSpec> = Vec::new();
        let mut tasks = Vec::new();
        let mut bindings = Vec::new();
        let mut rng_leaf = DetRng::seed_from_u64(leaf_seed);
        let mut rng_top = DetRng::seed_from_u64(top_seed);
        for level in 0..depth {
            let rng = if level + 1 == depth {
                &mut rng_leaf
            } else {
                &mut rng_top
            };
            let a = ops.len();
            let w = rng.gen_range(1.0..4.0f64);
            let v = rng.gen_range(1e5..1e6f64);
            ops.push(OperatorSpec::floating(
                OperatorId(a),
                OperatorKind::Scan,
                WorkVector::from_slice(&[w, w / 2.0, 0.0]),
                v,
            ));
            ops.push(OperatorSpec::floating(
                OperatorId(a + 1),
                OperatorKind::Build,
                WorkVector::from_slice(&[w / 3.0, 0.0, 0.0]),
                v,
            ));
            tasks.push(TaskNode {
                ops: vec![OperatorId(a), OperatorId(a + 1)],
                parent: if level == 0 {
                    None
                } else {
                    Some(TaskId(level - 1))
                },
            });
            if level > 0 {
                let probe = ops.len();
                let pw = if level + 1 == depth {
                    2.5
                } else {
                    rng_top.gen_range(1.0..3.0f64)
                };
                ops.push(OperatorSpec::floating(
                    OperatorId(probe),
                    OperatorKind::Probe,
                    WorkVector::from_slice(&[pw, 0.0, 0.0]),
                    v,
                ));
                tasks[level - 1].ops.push(OperatorId(probe));
                bindings.push(HomeBinding {
                    dependent: OperatorId(probe),
                    source: OperatorId(a + 1),
                });
            }
        }
        let p = TreeProblem {
            ops,
            tasks: TaskGraph::new(tasks).unwrap(),
            bindings,
        };
        p.validate().unwrap();
        p
    }

    #[test]
    fn batch_window_releases_full_windows_and_flushes_the_tail() {
        let cfg = RuntimeConfig {
            batch_window: 3,
            max_in_flight: 8,
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let ids: Vec<_> = (0..5)
            .map(|q| rt.submit_at(0.0, q % 2, one_op_problem(10.0 + q as f64)))
            .collect();
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.completed(), 5);
        // One full window of 3, then the 2-query tail flushed because
        // the arrival stream was exhausted.
        assert_eq!(summary.cache.batches_released, 2);
        assert_eq!(summary.cache.batch_members, 5);
        // FCFS release keeps submission order: starts are non-decreasing
        // in id order.
        let starts: Vec<f64> = ids
            .iter()
            .map(|id| summary.queries[id.0].start.unwrap())
            .collect();
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "batched FCFS must preserve submission order: {starts:?}"
        );
    }

    #[test]
    fn batch_window_waits_for_the_window_before_releasing() {
        // Window of 2 and one query in flight at a time: the second
        // arrival completes the window, so neither starts before t=5.
        let cfg = RuntimeConfig {
            batch_window: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let a = rt.submit_at(0.0, 0, one_op_problem(10.0));
        let b = rt.submit_at(5.0, 0, one_op_problem(10.0));
        let summary = rt.run_to_completion().unwrap();
        assert_eq!(summary.completed(), 2);
        assert_eq!(summary.queries[a.0].start, Some(5.0), "held for the window");
        assert_eq!(summary.queries[b.0].start, Some(5.0));
        assert_eq!(summary.cache.batches_released, 1);
        assert_eq!(summary.cache.batch_members, 2);
    }

    #[test]
    fn plan_sharing_splices_common_subtrees_across_a_batch() {
        let run = |plan_sharing: bool| {
            let cfg = RuntimeConfig {
                batch_window: 4,
                plan_sharing,
                max_in_flight: 8,
                ..RuntimeConfig::default()
            };
            let mut rt = runtime_with(cfg);
            // Four distinct templates sharing one deep subtree: the
            // whole-plan cache never hits, so sharing is the only
            // source of reuse.
            for q in 0..4u64 {
                rt.submit_at(0.0, q as usize % 2, chain_problem(11, 100 + q));
            }
            rt.run_to_completion().unwrap()
        };
        let shared = run(true);
        let unshared = run(false);
        assert_eq!(shared.completed(), 4);
        assert_eq!(shared.cache.hits, 0, "templates differ above the leaf");
        assert!(
            shared.cache.subtree_hits >= 3,
            "later members must splice the shared leaf subtree: {:?}",
            shared.cache
        );
        assert!(shared.cache.fragments_spliced > 0);
        // Sharing strictly reduces the pipelines actually packed.
        assert!(
            shared.cache.tasks_planned < unshared.cache.tasks_planned,
            "shared {} vs unshared {}",
            shared.cache.tasks_planned,
            unshared.cache.tasks_planned
        );
        assert_eq!(unshared.cache.subtree_hits, 0);
        assert_eq!(unshared.cache.fragments_spliced, 0);
        // The audit trace records every splice and fragment insert.
        let splices = shared
            .trace
            .iter()
            .filter(|e| matches!(e, AuditEvent::FragmentSpliced { .. }))
            .count() as u64;
        assert_eq!(splices, shared.cache.subtree_hits);
        assert!(!unshared.trace.iter().any(|e| matches!(
            e,
            AuditEvent::FragmentSpliced { .. } | AuditEvent::FragmentInsert { .. }
        )));
    }

    #[test]
    fn shared_plans_are_bit_identical_warm_or_cold() {
        // The replay re-plans every whole-plan hit with a cold fragment
        // cache, so an empty replay asserts warm == cold bit-for-bit.
        let cfg = RuntimeConfig {
            batch_window: 3,
            plan_sharing: true,
            max_in_flight: 8,
            ..RuntimeConfig::default()
        };
        // Two whole-plan templates, so the second batch hits the
        // whole-plan cache and exercises the shared-mode replay.
        let arrivals = (0..6u64).map(|q| (q as f64, chain_problem(7, 50 + q % 2)));
        let summary = run_replayed(runtime_with(cfg), arrivals.collect());
        assert_eq!(summary.completed(), 6);
        assert!(summary.cache.subtree_hits >= 1);
    }

    #[test]
    fn batched_sharing_is_shard_invariant() {
        let cfg = RuntimeConfig {
            batch_window: 3,
            plan_sharing: true,
            max_in_flight: 2,
            ..RuntimeConfig::default()
        };
        let summary = shard_invariant(cfg, |rt| {
            for q in 0..6u64 {
                rt.submit_at(
                    (q / 3) as f64 * 2.0,
                    q as usize % 3,
                    chain_problem(5, 30 + q % 3),
                );
            }
        });
        assert_eq!(summary.completed(), 6);
        assert!(summary.cache.subtree_hits > 0);
    }

    #[test]
    fn deadline_aborts_released_but_unstarted_queries() {
        // MPL 1: the second query is released (planned) with the first
        // but cannot start until the first finishes, which is past its
        // deadline — it must abort cleanly out of the staging buffer.
        let cfg = RuntimeConfig {
            batch_window: 2,
            max_in_flight: 1,
            deadline: Some(1.0),
            ..RuntimeConfig::default()
        };
        let mut rt = runtime_with(cfg);
        let a = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let b = rt.submit_at(0.0, 0, one_op_problem(40.0));
        let summary = rt.run_to_completion().unwrap();
        let (ra, rb) = (&summary.queries[a.0], &summary.queries[b.0]);
        assert!(
            matches!(ra.outcome, Some(QueryOutcome::Aborted { .. })),
            "a exceeds 1.0 too: {:?}",
            ra.outcome
        );
        assert!(
            matches!(rb.outcome, Some(QueryOutcome::Aborted { .. })),
            "{:?}",
            rb.outcome
        );
        assert!(rb.start.is_none(), "b never left the staging buffer");
        assert_eq!(rt.total_resident(), 0);
    }
}
