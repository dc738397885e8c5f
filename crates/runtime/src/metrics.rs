//! Aggregated metrics of one runtime run: per-query latency statistics,
//! per-site realized utilization (from the simulator's busy-time
//! integrals, not the sites' committed load), queue-depth trace,
//! throughput, and — under fault injection — the structured fault trace
//! (site crashes, lost clones, re-packs, retries, aborts, sheds).

use crate::cache::CacheStats;
use crate::job::{QueryId, QueryOutcome, QueryRecord, ShedReason};
use crate::runtime::RuntimeError;
use crate::trace::AuditEvent;

/// One entry of the run's fault/recovery event trace. Records derive
/// `PartialEq` so determinism tests can compare whole traces.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Virtual time of the event.
    pub time: f64,
    /// What happened.
    pub kind: FaultRecordKind,
}

/// The kinds of fault/recovery events a run can log.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultRecordKind {
    /// A site crashed, evicting `clones_lost` resident clones.
    SiteDown {
        /// The crashed site index.
        site: usize,
        /// Clones evicted by the crash.
        clones_lost: usize,
    },
    /// A crashed site came back, empty.
    SiteUp {
        /// The recovered site index.
        site: usize,
    },
    /// One clone of `query` was lost to a crash (or displaced from a
    /// dead site at dispatch).
    CloneLost {
        /// The owning query.
        query: QueryId,
    },
    /// Lost work of `query` was re-packed onto `clones` new clones on
    /// the surviving sites.
    Repacked {
        /// The recovered query.
        query: QueryId,
        /// Number of replacement clones dispatched.
        clones: usize,
    },
    /// Recovery could not place `query`'s lost work; a retry is
    /// scheduled.
    RetryScheduled {
        /// The waiting query.
        query: QueryId,
        /// Which retry attempt this will be (1-based).
        attempt: u32,
        /// Virtual time the retry fires.
        at: f64,
    },
    /// `query` was aborted (deadline or retries exhausted).
    Aborted {
        /// The aborted query.
        query: QueryId,
    },
    /// `query` was shed at arrival.
    Shed {
        /// The shed query.
        query: QueryId,
        /// Which admission gate fired.
        reason: ShedReason,
    },
}

/// Everything measured over one [`Runtime`](crate::runtime::Runtime) run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Label of the admission policy that produced this run.
    pub policy: &'static str,
    /// Virtual time of the last event (the run's makespan).
    pub horizon: f64,
    /// Per-query lifecycle records, indexed by query id.
    pub queries: Vec<QueryRecord>,
    /// `site_busy[j][i]` = total busy time of resource `i` at site `j`
    /// (the simulator's integral of realized demand).
    pub site_busy: Vec<Vec<f64>>,
    /// `(time, queue depth)` after each event.
    pub depth_trace: Vec<(f64, usize)>,
    /// Time-ordered fault/recovery trace (empty for a fault-free run).
    pub faults: Vec<FaultRecord>,
    /// Schedule-cache counters: admission hits and fresh plans computed.
    /// All-zero with no admissions.
    pub cache: CacheStats,
    /// Structured audit trace (see [`crate::trace`]): phase dispatches,
    /// re-pack conservation quantities, memo digests. Checked end-to-end
    /// by `mrs-audit`'s `audit_run`.
    pub trace: Vec<AuditEvent>,
    /// `site_peak_util[j][i]` = peak normalized utilization of resource
    /// `i` at site `j` over the run (realized demand over effective
    /// capacity; feasible fluid sharing keeps this ≤ 1).
    pub site_peak_util: Vec<Vec<f64>>,
    /// `site_util_integral[j][i]` = exact integral over virtual time of
    /// the normalized utilization of resource `i` at site `j`, so
    /// `site_util_integral[j][i] / horizon` is the site's *average*
    /// utilization. Always recorded; lets `mrs-audit` bound average (not
    /// just peak) over-commitment.
    pub site_util_integral: Vec<Vec<f64>>,
}

impl RunSummary {
    pub(crate) fn new(
        policy: &'static str,
        horizon: f64,
        queries: Vec<QueryRecord>,
        site_busy: Vec<Vec<f64>>,
        depth_trace: Vec<(f64, usize)>,
        faults: Vec<FaultRecord>,
    ) -> Self {
        RunSummary {
            policy,
            horizon,
            queries,
            site_busy,
            depth_trace,
            faults,
            cache: CacheStats::default(),
            trace: Vec::new(),
            site_peak_util: Vec::new(),
            site_util_integral: Vec::new(),
        }
    }

    /// Average (time-mean) normalized utilization of resource `i` at
    /// site `j`: the exact utilization integral over the horizon. Zero
    /// for a zero-length run.
    pub fn avg_site_utilization(&self, site: usize, resource: usize) -> f64 {
        if self.horizon > 0.0 {
            self.site_util_integral[site][resource] / self.horizon
        } else {
            0.0
        }
    }

    /// Fraction of admissions whose schedule came from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Number of fresh `tree_schedule` computations (admissions not
    /// served from the cache).
    pub fn plans_computed(&self) -> u64 {
        self.cache.misses
    }

    /// Task pipelines actually packed over the run — the planning-work
    /// metric the MQO experiments compare across shared and unshared
    /// modes (unshared plans charge every task of every computed plan;
    /// spliced subtrees charge nothing).
    pub fn tasks_planned(&self) -> u64 {
        self.cache.tasks_planned
    }

    /// Number of queries that finished.
    pub fn completed(&self) -> usize {
        self.queries.iter().filter(|q| q.finish.is_some()).count()
    }

    /// Number of queries aborted (deadline or exhausted recovery).
    pub fn aborted(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| matches!(q.outcome, Some(QueryOutcome::Aborted { .. })))
            .count()
    }

    /// Number of queries shed at arrival (any gate).
    pub fn shed(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| matches!(q.outcome, Some(QueryOutcome::Shed { .. })))
            .count()
    }

    /// Number of queries shed by the given gate.
    pub fn shed_for(&self, reason: ShedReason) -> usize {
        self.queries
            .iter()
            .filter(|q| q.outcome == Some(QueryOutcome::Shed { reason }))
            .count()
    }

    /// The per-query failures of this run as typed errors:
    /// [`RuntimeError::Aborted`] / [`RuntimeError::Shed`], in query-id
    /// order. Empty when every query completed.
    pub fn failures(&self) -> Vec<RuntimeError> {
        self.queries
            .iter()
            .filter_map(|q| match &q.outcome {
                Some(QueryOutcome::Aborted { reason }) => Some(RuntimeError::Aborted {
                    query: q.id,
                    reason: reason.clone(),
                }),
                Some(QueryOutcome::Shed { reason }) => Some(RuntimeError::Shed {
                    query: q.id,
                    reason: *reason,
                }),
                _ => None,
            })
            .collect()
    }

    /// Number of site-crash events observed.
    pub fn sites_failed(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.kind, FaultRecordKind::SiteDown { .. }))
            .count()
    }

    /// Total clones lost to crashes and dead-site displacement.
    pub fn clones_lost(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.kind, FaultRecordKind::CloneLost { .. }))
            .count()
    }

    /// Number of successful lost-work re-packs.
    pub fn repacks(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.kind, FaultRecordKind::Repacked { .. }))
            .count()
    }

    /// Completed queries per unit virtual time.
    pub fn throughput(&self) -> f64 {
        if self.horizon > 0.0 {
            self.completed() as f64 / self.horizon
        } else {
            0.0
        }
    }

    /// Realized utilization of resource `i` at site `j`:
    /// `busy[j][i] / horizon`.
    pub fn utilization(&self, site: usize, resource: usize) -> f64 {
        if self.horizon > 0.0 {
            self.site_busy[site][resource] / self.horizon
        } else {
            0.0
        }
    }

    /// Mean utilization of resource `i` across all sites.
    pub fn avg_utilization(&self, resource: usize) -> f64 {
        if self.site_busy.is_empty() {
            return 0.0;
        }
        let total: f64 = (0..self.site_busy.len())
            .map(|j| self.utilization(j, resource))
            .sum();
        total / self.site_busy.len() as f64
    }

    /// Mean time spent in the admission queue (admitted queries).
    pub fn mean_wait(&self) -> f64 {
        mean(self.queries.iter().filter_map(QueryRecord::wait))
    }

    /// Mean arrival-to-finish latency (completed queries).
    pub fn mean_latency(&self) -> f64 {
        mean(self.queries.iter().filter_map(QueryRecord::latency))
    }

    /// Median arrival-to-finish latency (completed queries).
    pub fn p50_latency(&self) -> f64 {
        percentile(self.queries.iter().filter_map(QueryRecord::latency), 0.50)
    }

    /// 95th-percentile arrival-to-finish latency (completed queries).
    pub fn p95_latency(&self) -> f64 {
        percentile(self.queries.iter().filter_map(QueryRecord::latency), 0.95)
    }

    /// 99th-percentile arrival-to-finish latency (completed queries).
    pub fn p99_latency(&self) -> f64 {
        percentile(self.queries.iter().filter_map(QueryRecord::latency), 0.99)
    }

    /// Arrival-to-finish latency at an arbitrary quantile `p ∈ (0, 1]`
    /// (completed queries; ceiling-rank convention, `0.0` with none).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(self.queries.iter().filter_map(QueryRecord::latency), p)
    }

    /// Mean slowdown relative to standalone schedules (completed queries
    /// with a positive standalone response).
    pub fn mean_slowdown(&self) -> f64 {
        mean(self.queries.iter().filter_map(QueryRecord::slowdown))
    }

    /// Deepest the admission queue ever got.
    pub fn max_queue_depth(&self) -> usize {
        self.depth_trace.iter().map(|(_, d)| *d).max().unwrap_or(0)
    }

    /// FNV-1a digest over *every* field of the summary (floats by their
    /// exact bit patterns). Two summaries digest equal iff the runs were
    /// byte-identical — this is what the shard-invariance harness
    /// compares across `RuntimeConfig::shards` values.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(self.policy);
        h.f64(self.horizon);
        h.usize(self.queries.len());
        for q in &self.queries {
            h.usize(q.id.0);
            h.usize(q.client);
            h.f64(q.volume);
            h.f64(q.arrival);
            h.opt_f64(q.start);
            h.opt_f64(q.finish);
            h.usize(q.phases);
            h.f64(q.standalone_response);
            match &q.outcome {
                None => h.u8(0),
                Some(QueryOutcome::Completed) => h.u8(1),
                Some(QueryOutcome::Aborted { reason }) => {
                    h.u8(2);
                    h.str(reason);
                }
                Some(QueryOutcome::Shed { reason }) => {
                    h.u8(3);
                    h.u8(reason.discriminant());
                }
            }
        }
        h.mat(&self.site_busy);
        h.usize(self.depth_trace.len());
        for (t, d) in &self.depth_trace {
            h.f64(*t);
            h.usize(*d);
        }
        h.usize(self.faults.len());
        for f in &self.faults {
            h.f64(f.time);
            match &f.kind {
                FaultRecordKind::SiteDown { site, clones_lost } => {
                    h.u8(0);
                    h.usize(*site);
                    h.usize(*clones_lost);
                }
                FaultRecordKind::SiteUp { site } => {
                    h.u8(1);
                    h.usize(*site);
                }
                FaultRecordKind::CloneLost { query } => {
                    h.u8(2);
                    h.usize(query.0);
                }
                FaultRecordKind::Repacked { query, clones } => {
                    h.u8(3);
                    h.usize(query.0);
                    h.usize(*clones);
                }
                FaultRecordKind::RetryScheduled { query, attempt, at } => {
                    h.u8(4);
                    h.usize(query.0);
                    h.u64(u64::from(*attempt));
                    h.f64(*at);
                }
                FaultRecordKind::Aborted { query } => {
                    h.u8(5);
                    h.usize(query.0);
                }
                FaultRecordKind::Shed { query, reason } => {
                    h.u8(6);
                    h.usize(query.0);
                    h.u8(reason.discriminant());
                }
            }
        }
        h.u64(self.cache.hits);
        h.u64(self.cache.misses);
        h.usize(self.trace.len());
        for ev in &self.trace {
            match ev {
                AuditEvent::PhaseDispatched { time, query, phase } => {
                    h.u8(0);
                    h.f64(*time);
                    h.usize(query.0);
                    h.usize(*phase);
                }
                AuditEvent::Repacked {
                    time,
                    query,
                    lost_total,
                    expected_total,
                    placed_total,
                } => {
                    h.u8(1);
                    h.f64(*time);
                    h.usize(query.0);
                    h.f64(*lost_total);
                    h.f64(*expected_total);
                    h.f64(*placed_total);
                }
                AuditEvent::CacheInsert {
                    time,
                    query,
                    sig_hash,
                    digest,
                } => memo_event(&mut h, 2, *time, *query, *sig_hash, *digest),
                AuditEvent::CacheHit {
                    time,
                    query,
                    sig_hash,
                    digest,
                } => memo_event(&mut h, 3, *time, *query, *sig_hash, *digest),
                AuditEvent::FragmentInsert {
                    time,
                    query,
                    sig_hash,
                    digest,
                } => memo_event(&mut h, 6, *time, *query, *sig_hash, *digest),
                AuditEvent::FragmentSpliced {
                    time,
                    query,
                    sig_hash,
                    digest,
                } => memo_event(&mut h, 7, *time, *query, *sig_hash, *digest),
                AuditEvent::ControlDecision {
                    time,
                    action,
                    level,
                    gate,
                    sample,
                } => {
                    h.u8(5);
                    h.f64(*time);
                    h.u8(action.discriminant());
                    h.u64(u64::from(*level));
                    h.u8(u8::from(*gate));
                    h.f64(sample.time);
                    h.usize(sample.queue_depth);
                    h.usize(sample.retries);
                    h.usize(sample.alive);
                    h.f64(sample.avg_load);
                }
            }
        }
        h.mat(&self.site_peak_util);
        h.mat(&self.site_util_integral);
        // The retired utilization series' empty length keeps old digests.
        h.usize(0);
        h.finish()
    }
}

/// Folds one memo insert/hit event (see [`AuditEvent::CacheHit`]) into
/// `h` under its discriminant `tag`.
fn memo_event(h: &mut Fnv, tag: u8, time: f64, query: QueryId, sig_hash: u64, digest: u64) {
    h.u8(tag);
    h.f64(time);
    h.usize(query.0);
    h.u64(sig_hash);
    h.u64(digest);
}

/// Minimal FNV-1a accumulator for [`RunSummary::digest`], whose bits
/// the committed digests pin; every plan signature and plan digest
/// folds with `mrs_core::shared::WordFold` instead. Not a general hasher:
/// field framing (length prefixes, enum discriminants) is the caller's
/// job.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.u8(b);
        }
    }

    fn mat(&mut self, m: &[Vec<f64>]) {
        self.usize(m.len());
        for row in m {
            self.usize(row.len());
            for v in row {
                self.f64(*v);
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

fn percentile(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::QueryId;

    fn record(arrival: f64, start: f64, finish: f64) -> QueryRecord {
        let mut r = QueryRecord::new(QueryId(0), 0, 1.0, arrival);
        r.start = Some(start);
        r.finish = Some(finish);
        r.standalone_response = finish - start;
        r.outcome = Some(QueryOutcome::Completed);
        r
    }

    fn summary() -> RunSummary {
        RunSummary::new(
            "fcfs",
            10.0,
            vec![record(0.0, 0.0, 4.0), record(0.0, 2.0, 10.0)],
            vec![vec![5.0, 2.5, 0.0], vec![10.0, 0.0, 0.0]],
            vec![(0.0, 2), (4.0, 0)],
            Vec::new(),
        )
    }

    #[test]
    fn aggregates() {
        let s = summary();
        assert_eq!(s.completed(), 2);
        assert_eq!(s.aborted(), 0);
        assert_eq!(s.shed(), 0);
        assert!(s.failures().is_empty());
        assert!((s.throughput() - 0.2).abs() < 1e-12);
        assert!((s.utilization(0, 0) - 0.5).abs() < 1e-12);
        assert!((s.avg_utilization(0) - 0.75).abs() < 1e-12);
        assert!((s.mean_wait() - 1.0).abs() < 1e-12);
        assert!((s.mean_latency() - 7.0).abs() < 1e-12);
        assert!((s.p95_latency() - 10.0).abs() < 1e-12);
        assert!((s.mean_slowdown() - 1.0).abs() < 1e-12);
        assert_eq!(s.max_queue_depth(), 2);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = RunSummary::new("fcfs", 0.0, vec![], vec![], vec![], vec![]);
        assert_eq!(s.completed(), 0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.p95_latency(), 0.0);
        assert_eq!(s.max_queue_depth(), 0);
        assert_eq!(s.sites_failed(), 0);
        assert_eq!(s.clones_lost(), 0);
        assert_eq!(s.repacks(), 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.plans_computed(), 0);
    }

    #[test]
    fn cache_stats_surface_through_summary() {
        let mut s = summary();
        s.cache = CacheStats {
            hits: 6,
            misses: 2,
            ..CacheStats::default()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.plans_computed(), 2);
    }

    #[test]
    fn outcome_counters_and_failures() {
        let mut aborted = QueryRecord::new(QueryId(1), 0, 1.0, 0.0);
        aborted.outcome = Some(QueryOutcome::Aborted {
            reason: "deadline".to_owned(),
        });
        let mut shed = QueryRecord::new(QueryId(2), 0, 1.0, 0.0);
        shed.outcome = Some(QueryOutcome::Shed {
            reason: ShedReason::AliveCount,
        });
        let s = RunSummary::new(
            "fcfs",
            5.0,
            vec![record(0.0, 0.0, 2.0), aborted, shed],
            vec![],
            vec![],
            vec![
                FaultRecord {
                    time: 1.0,
                    kind: FaultRecordKind::SiteDown {
                        site: 0,
                        clones_lost: 2,
                    },
                },
                FaultRecord {
                    time: 1.0,
                    kind: FaultRecordKind::CloneLost { query: QueryId(1) },
                },
                FaultRecord {
                    time: 1.5,
                    kind: FaultRecordKind::Repacked {
                        query: QueryId(1),
                        clones: 3,
                    },
                },
                FaultRecord {
                    time: 2.0,
                    kind: FaultRecordKind::SiteUp { site: 0 },
                },
            ],
        );
        assert_eq!(s.completed(), 1);
        assert_eq!(s.aborted(), 1);
        assert_eq!(s.shed(), 1);
        assert_eq!(s.shed_for(ShedReason::AliveCount), 1);
        assert_eq!(s.shed_for(ShedReason::MeanLoad), 0);
        assert_eq!(s.sites_failed(), 1);
        assert_eq!(s.clones_lost(), 1);
        assert_eq!(s.repacks(), 1);
        let failures = s.failures();
        assert_eq!(failures.len(), 2);
        assert!(
            matches!(&failures[0], RuntimeError::Aborted { query, reason }
                if *query == QueryId(1) && reason == "deadline")
        );
        assert!(matches!(&failures[1], RuntimeError::Shed { query, reason }
            if *query == QueryId(2) && *reason == ShedReason::AliveCount));
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let a = summary();
        assert_eq!(a.digest(), summary().digest(), "same data, same digest");
        let mut horizon = summary();
        horizon.horizon += 1.0;
        assert_ne!(a.digest(), horizon.digest());
        let mut cache = summary();
        cache.cache.hits = 1;
        assert_ne!(a.digest(), cache.digest());
        let mut util = summary();
        util.site_util_integral = vec![vec![1.0]];
        assert_ne!(a.digest(), util.digest());
        let mut outcome = summary();
        outcome.queries[0].outcome = Some(QueryOutcome::Shed {
            reason: ShedReason::AliveCount,
        });
        assert_ne!(a.digest(), outcome.digest());
        // The shed *reason* is part of the digest too.
        let mut other_reason = summary();
        other_reason.queries[0].outcome = Some(QueryOutcome::Shed {
            reason: ShedReason::MeanLoad,
        });
        assert_ne!(outcome.digest(), other_reason.digest());
    }

    #[test]
    fn avg_site_utilization_reads_the_integral() {
        let mut s = summary();
        s.site_util_integral = vec![vec![5.0, 2.5, 0.0], vec![10.0, 0.0, 0.0]];
        assert!((s.avg_site_utilization(0, 0) - 0.5).abs() < 1e-12);
        assert!((s.avg_site_utilization(1, 0) - 1.0).abs() < 1e-12);
        s.horizon = 0.0;
        assert_eq!(s.avg_site_utilization(0, 0), 0.0);
    }

    #[test]
    fn percentile_picks_ceiling_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(v.iter().copied(), 0.5), 2.0);
        assert_eq!(percentile(v.iter().copied(), 0.95), 4.0);
        assert_eq!(percentile(v.iter().copied(), 0.25), 1.0);
    }

    #[test]
    fn latency_quantiles_match_a_hand_checked_stream() {
        // Twenty completions with latencies 1..=20 (arrival 0, finish k),
        // submitted out of order to prove the quantile sorts. Ceiling
        // rank: p50 -> rank 10 (value 10), p95 -> rank 19 (value 19),
        // p99 -> rank ceil(19.8) = 20 (value 20).
        let latencies = [
            13.0, 2.0, 20.0, 7.0, 11.0, 4.0, 18.0, 1.0, 9.0, 15.0, 6.0, 19.0, 3.0, 12.0, 8.0, 16.0,
            5.0, 14.0, 10.0, 17.0,
        ];
        let queries: Vec<QueryRecord> = latencies
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut r = QueryRecord::new(QueryId(i), 0, 1.0, 0.0);
                r.start = Some(0.0);
                r.finish = Some(*l);
                r.standalone_response = *l;
                r.outcome = Some(QueryOutcome::Completed);
                r
            })
            .collect();
        let depth_trace = vec![(0.0, 3), (1.0, 7), (2.0, 5), (3.0, 0)];
        let s = RunSummary::new("fcfs", 20.0, queries, vec![], depth_trace, vec![]);
        assert_eq!(s.p50_latency(), 10.0);
        assert_eq!(s.p95_latency(), 19.0);
        assert_eq!(s.p99_latency(), 20.0);
        assert_eq!(s.latency_percentile(0.05), 1.0);
        assert_eq!(s.latency_percentile(1.0), 20.0);
        assert_eq!(s.max_queue_depth(), 7);
        // An incomplete query contributes no latency: quantiles are over
        // completions only.
        let mut with_queued = s.clone();
        with_queued
            .queries
            .push(QueryRecord::new(QueryId(20), 0, 1.0, 0.0));
        assert_eq!(with_queued.p99_latency(), 20.0);
    }
}
