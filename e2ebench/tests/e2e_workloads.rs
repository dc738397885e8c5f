//! Smoke test of the benchmark's workloads and statistics helpers, on the
//! bench target's own modules.
//!
//! At 40 queries per workload: two runs give the same digest, query
//! outcomes are conserved, the digest is the same at one and two shards,
//! and different seeds give different inputs.

#[allow(dead_code)]
#[path = "../benches/e2e/stats.rs"]
mod stats;
#[allow(dead_code)]
#[path = "../benches/e2e/workload.rs"]
mod workload;

use stats::{median, percentile, quartiles, tail_percentile};
use workload::{Inputs, Workload};

const QUERIES: usize = 40;

fn inputs(w: Workload, seed: u64) -> Inputs {
    Inputs::generate(w, seed, 1, QUERIES)
}

#[test]
fn runs_are_deterministic_conserving_and_shard_invariant() {
    for w in Workload::ALL {
        let served = &inputs(w, 1996).served[0];
        let a = served.run(w.shards()).expect("first run");
        let b = served.run(w.shards()).expect("second run");
        assert_eq!(a.digest(), b.digest(), "{}: two runs differ", w.name());
        assert_eq!(a.queries.len(), QUERIES, "{}", w.name());
        assert_eq!(
            a.completed() + a.aborted() + a.shed(),
            QUERIES,
            "{}: outcomes not conserved",
            w.name()
        );
        assert_eq!(a.completed(), QUERIES, "{}: a query failed", w.name());
        for shards in [1, 2] {
            let s = served.run(shards).expect("run at another shard count");
            assert_eq!(s.digest(), a.digest(), "{} at {shards} shards", w.name());
        }
    }
}

#[test]
fn seeds_make_different_inputs() {
    for w in Workload::ALL {
        let (a, b) = (inputs(w, 1996), inputs(w, 7));
        assert_ne!(a.served[0].arrivals, b.served[0].arrivals, "{}", w.name());
        assert_eq!(
            a.served[0].arrivals,
            inputs(w, 1996).served[0].arrivals,
            "{}: a seed must give the same inputs",
            w.name()
        );
    }
}

#[test]
fn every_workload_has_a_unique_name() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("all"), None);
}

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn fifty_runs_support_p80() {
    assert_eq!(tail_percentile(50, 10), Some(0.8));
    assert_eq!(percentile(&ramp(50), 0.8), 40.0);
}

#[test]
fn four_hundred_queries_support_p975() {
    assert_eq!(tail_percentile(400, 10), Some(0.975));
    assert_eq!(percentile(&ramp(400), 0.975), 390.0);
    assert_eq!(tail_percentile(10, 10), None);
}

#[test]
fn percentile_uses_nearest_rank() {
    let v = ramp(4);
    assert_eq!(percentile(&v, 0.5), 2.0);
    assert_eq!(percentile(&v, 0.51), 3.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 1.0), 4.0);
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
