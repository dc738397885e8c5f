//! Cross-crate serving-hot-path tests: the schedule cache must be an
//! invisible optimization (hits that replay to cold plans, balanced plan
//! accounting) that keeps serving its plans across site failures.

use mdrs::exp::serving::{cycled, spaced, submit};
use mdrs::prelude::*;
use mdrs::runtime::cache::schedule_footprint;

fn template(joins: usize, seed: u64, cost: &CostModel) -> TreeProblem {
    let q = generate_query(&QueryGenConfig::paper(joins), seed);
    query_problem(&q, cost)
}

/// A templated stream: `n` plans cycling through three generated query
/// templates, so most admissions should hit the cache.
fn templated_stream(n: usize, cost: &CostModel) -> Vec<TreeProblem> {
    let templates = [
        template(8, 41, cost),
        template(12, 42, cost),
        template(10, 43, cost),
    ];
    cycled(&templates, n)
}

/// The cold replay of a hit-heavy faulted run's cache hits finds none
/// that differs from a fresh computation, so each served schedule is
/// byte-identical to it. Every admission is either a hit or a miss, and
/// only misses plan.
#[test]
fn cache_hits_survive_shadow_verification() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();
    let cfg = RuntimeConfig {
        max_in_flight: 3,
        faults: FaultPlan::scripted(vec![FaultEvent {
            time: 250.0,
            site: 7,
            kind: FaultKind::Crash,
        }]),
        ..RuntimeConfig::default()
    };
    let stream = templated_stream(12, &cost);
    let rt = Runtime::new(sys.clone(), comm, model, cfg);
    let mut rt = submit(rt, &stream, &spaced(12, 6.0));
    let summary = rt.run_to_completion().unwrap();
    assert!(summary.cache.hits > 0, "nothing was replayed");
    assert_eq!(rt.replay_cache_hits(&summary, &stream), vec![]);
    let admissions = summary.queries.iter().filter(|q| q.start.is_some()).count();
    assert_eq!(
        summary.cache.hits + summary.cache.misses,
        admissions as u64,
        "every admission is one lookup"
    );
    assert_eq!(summary.plans_computed(), summary.cache.misses);
}

/// A crash mid-stream inside the plan's footprint leaves the cached
/// plan servable: the post-crash arrival of an already-cached template
/// hits, and its cold replay proves it equal to a fresh plan.
#[test]
fn crash_mid_stream_keeps_cached_plans_servable() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();

    // One template, three arrivals at once; at MPL 1 the crash lands
    // between the second and third admissions.
    let p = template(10, 99, &cost);
    let standalone = tree_schedule(&p, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let crash_at = 1.5 * standalone;
    let crashed = 15;
    assert!(
        schedule_footprint(&tree_schedule(&p, 0.7, &sys, &comm, &model).unwrap())
            .contains(&crashed),
        "the crashed site must be in the plan's footprint"
    );
    let cfg = RuntimeConfig {
        max_in_flight: 1,
        faults: FaultPlan::scripted(vec![FaultEvent {
            time: crash_at,
            site: crashed,
            kind: FaultKind::Crash,
        }]),
        ..RuntimeConfig::default()
    };
    let stream = vec![p; 3];
    let rt = Runtime::new(sys.clone(), comm, model, cfg);
    let mut rt = submit(rt, &stream, &spaced(3, 1e-3));
    let summary = rt.run_to_completion().unwrap();
    assert_eq!(summary.sites_failed(), 1);
    assert_eq!(summary.completed(), 3);
    assert!(
        summary.queries[2].start.unwrap() > crash_at,
        "the third admission must come after the crash"
    );
    // One template: the first admission plans cold, both later ones
    // (one of them after the crash) hit.
    assert_eq!(summary.cache.misses, 1, "misses = distinct templates");
    assert_eq!(summary.cache.hits, 2, "the post-crash admission hits");
    assert_eq!(rt.replay_cache_hits(&summary, &stream), vec![]);
}
