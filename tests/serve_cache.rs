//! Cross-crate serving-hot-path tests: the schedule cache must be an
//! invisible optimization (shadow-verified hits, balanced plan
//! accounting) and its epoch must react to site failures mid-stream.

use mdrs::prelude::*;

fn template(joins: usize, seed: u64, cost: &CostModel) -> TreeProblem {
    let q = generate_query(&QueryGenConfig::paper(joins), seed);
    query_problem(&q, cost)
}

/// Submits a templated stream: `n` arrivals cycling through three
/// generated query templates, so most admissions should hit the cache.
fn submit_stream(rt: &mut Runtime<OverlapModel>, n: usize, cost: &CostModel) {
    let templates = [
        template(8, 41, cost),
        template(12, 42, cost),
        template(10, 43, cost),
    ];
    for i in 0..n {
        rt.submit_at(
            6.0 * i as f64,
            i % 3,
            templates[i % templates.len()].clone(),
        );
    }
}

/// `verify_cache` shadow-computes every hit and panics on a digest
/// mismatch, so completing a hit-heavy faulted run under it proves each
/// served schedule byte-identical to a fresh computation. Every
/// admission is either a hit or a miss, and only misses plan.
#[test]
fn cache_hits_survive_shadow_verification() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();
    let cfg = RuntimeConfig {
        max_in_flight: 3,
        verify_cache: true,
        faults: FaultPlan::scripted(vec![FaultEvent {
            time: 250.0,
            site: 7,
            kind: FaultKind::Crash,
        }]),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
    submit_stream(&mut rt, 12, &cost);
    let summary = rt.run_to_completion().unwrap();
    assert!(summary.cache.hits > 0, "nothing was shadow-verified");
    let admissions = summary.queries.iter().filter(|q| q.start.is_some()).count();
    assert_eq!(
        summary.cache.hits + summary.cache.misses,
        admissions as u64,
        "every admission is one lookup"
    );
    assert_eq!(summary.plans_computed(), summary.cache.misses);
}

/// A crash mid-stream bumps the cache epoch, and the next arrival of an
/// already-cached template re-plans instead of hitting.
#[test]
fn crash_mid_stream_forces_replanning() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();

    // One template, three spaced arrivals; a crash lands between the
    // second and third admissions.
    let p = template(10, 99, &cost);
    let standalone = tree_schedule(&p, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let crash_at = 1.5 * standalone;
    let cfg = RuntimeConfig {
        max_in_flight: 1,
        faults: FaultPlan::scripted(vec![FaultEvent {
            time: crash_at,
            site: 15,
            kind: FaultKind::Crash,
        }]),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
    for i in 0..3 {
        rt.submit_at(i as f64 * 1e-3, 0, p.clone());
    }
    let summary = rt.run_to_completion().unwrap();
    assert_eq!(summary.sites_failed(), 1);
    assert_eq!(summary.cache.epoch_bumps, 1, "crash must bump the epoch");
    // Admission 1 misses (cold), admission 2 hits (same epoch), the
    // crash clears the cache, admission 3 misses again.
    assert_eq!(summary.cache.misses, 2, "post-crash admission must re-plan");
    assert_eq!(summary.cache.hits, 1);
}
