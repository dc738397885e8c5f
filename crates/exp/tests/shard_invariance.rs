//! End-to-end shard-invariance of the serving runtime: a run at
//! `RuntimeConfig::shards = N` must reproduce the one-segment run
//! bit-for-bit for every `N`,
//! under clean plans and under seeded crash/recovery plans, and every
//! run's trace evidence must audit clean.
//!
//! Identity is asserted three ways per run pair:
//!
//! * equal [`RunSummary`] FNV digests (the digest folds in every field,
//!   including the audit trace and the utilization series),
//! * equal `Debug` renderings of the whole summary (floats print their
//!   shortest round-trip form, so equal strings mean equal bits),
//! * equal clone event logs ([`Runtime::clone_events`]).
//!
//! [`RunSummary`]: mrs_runtime::metrics::RunSummary
//! [`Runtime::clone_events`]: mrs_runtime::runtime::Runtime::clone_events

use mrs_audit::prelude::{audit_clone_log, audit_run};
use mrs_core::tree::TreeProblem;
use mrs_cost::prelude::CostModel;
use mrs_exp::prelude::query_problem;
use mrs_exp::serving::Harness;
use mrs_runtime::metrics::RunSummary;
use mrs_runtime::prelude::{AdmissionPolicy, RuntimeConfig};
use mrs_shardexec::segment::{EventCounts, ShardEvent};
use mrs_workload::prelude::{generate_query, QueryGenConfig};

/// A small deterministic stream: 10 mixed-size queries over 13 sites
/// (prime, so every shard count tested produces uneven site ranges).
const SITES: usize = 13;
const QUERIES: usize = 10;
const SEED: u64 = 0x0051_ADE5;

fn stream() -> Vec<TreeProblem> {
    let cost = CostModel::paper_defaults();
    (0..QUERIES)
        .map(|i| {
            let joins = 6 + (i % 5);
            let q = generate_query(&QueryGenConfig::paper(joins), SEED ^ (i as u64) << 4);
            query_problem(&q, &cost)
        })
        .collect()
}

/// Runs the stream at `shards`, returning the summary and the clone
/// event log.
fn run(shards: usize, faulty: bool) -> (RunSummary, Vec<ShardEvent>) {
    let problems = stream();
    let h = Harness::calibrate(SITES, &problems);
    let r = h.mean_standalone;
    let arrivals = h.poisson(h.rate(1.5, 4), QUERIES, SEED);
    let mtbf = if faulty { 4.0 * r } else { 0.0 };
    let cfg = RuntimeConfig {
        f: h.f,
        policy: AdmissionPolicy::Fcfs,
        max_in_flight: 4,
        faults: h.faults(60.0 * r, mtbf, 0.3 * r, SEED),
        deadline: faulty.then_some(60.0 * r),
        recovery: h.recovery(4),
        shards,
        ..RuntimeConfig::default()
    };
    let mut rt = h.runtime(cfg, &problems, &arrivals);
    let summary = rt
        .run_to_completion()
        .expect("generated plans always schedule");
    let segments = rt.shard_segments();
    let decoded: EventCounts = segments.iter().map(|s| EventCounts::of(&s.events)).sum();
    assert_eq!(
        rt.segment_event_counts(),
        decoded,
        "shards={shards} faulty={faulty}: the counters must count what the segments hold"
    );
    let events = rt.clone_events();
    let violations = audit_clone_log(&events, SITES);
    assert!(
        violations.is_empty(),
        "shards={shards} faulty={faulty}: {violations:?}"
    );
    let violations = audit_run(&summary);
    assert!(
        violations.is_empty(),
        "shards={shards} faulty={faulty}: {violations:?}"
    );
    (summary, events)
}

fn assert_shard_invariant(faulty: bool) {
    let (base_summary, base_trace) = run(1, faulty);
    assert!(base_summary.completed() > 0, "stream must make progress");
    assert!(
        !base_trace.is_empty(),
        "single-shard runs must record the site-level trace too"
    );
    let base_digest = base_summary.digest();
    let base_debug = format!("{base_summary:?}");
    // Every shard count must reproduce the single-shard run exactly.
    for shards in [2usize, 4, 8] {
        let (summary, trace) = run(shards, faulty);
        assert_eq!(
            summary.digest(),
            base_digest,
            "digest diverged at shards={shards} faulty={faulty}"
        );
        assert_eq!(
            format!("{summary:?}"),
            base_debug,
            "summary fields diverged at shards={shards} faulty={faulty}"
        );
        assert_eq!(
            trace, base_trace,
            "clone event log diverged at shards={shards} faulty={faulty}"
        );
    }
}

#[test]
fn clean_runs_are_byte_identical_across_shard_counts() {
    assert_shard_invariant(false);
}

#[test]
fn faulty_runs_are_byte_identical_across_shard_counts() {
    assert_shard_invariant(true);
}

#[test]
fn oversharding_clamps_to_one_site_per_shard() {
    let (base_summary, base_trace) = run(1, false);
    // More shards than sites: the plan clamps to SITES single-site
    // shards and the run is still bit-identical.
    let (summary, trace) = run(64, false);
    assert_eq!(summary.digest(), base_summary.digest());
    assert_eq!(trace, base_trace);
}

#[test]
fn event_counters_match_the_decoded_faulted_segments() {
    // `run` asserts the counters equal the segments' per-kind counts;
    // here the faulted stream must also record crash losses, and the
    // split must not change a count.
    let counts: Vec<EventCounts> = [1, 3]
        .into_iter()
        .map(|shards| {
            let (_, trace) = run(shards, true);
            EventCounts::of(&trace)
        })
        .collect();
    assert_eq!(counts[0], counts[1]);
    let c = counts[0];
    assert!(c.lost > 0, "the faulted stream must lose clones: {c:?}");
    assert_eq!(c.dispatched, c.completed + c.lost + c.evicted, "{c:?}");
}
