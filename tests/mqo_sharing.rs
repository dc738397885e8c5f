//! Cross-crate MQO sharing tests: the subtree-fragment memo must be an
//! invisible planning optimization. Splicing a fragment planned for one
//! query into another query with an equal canonical signature must
//! reproduce, bit for bit, what a cold planner would have packed — and
//! the batched runtime must stay shard-invariant and `--jobs`-invariant
//! with sharing on.

use mdrs::exp::serving::{cycled, overlap_stream, spaced, submit};
use mdrs::prelude::*;

/// The sharing soundness property, swept over seeds and overlaps:
/// planning a member against a memo warmed by its batch-mates splices
/// fragments whose signatures match, and the spliced result is
/// bit-identical to a cold plan of the same member. Signature equality
/// must imply digest-identical sub-schedules — that is the exact-bits
/// discipline [`SubtreeSig`] promises.
#[test]
fn warm_splices_reproduce_cold_plans_bit_for_bit() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(20);
    let model = OverlapModel::new(0.5).unwrap();
    let f = 0.7;
    let mut spliced_anywhere = false;
    for seed in [7u64, 1996, 40_971] {
        for overlap in [0.5, 0.8, 1.0] {
            let batch = overlap_batch(&QueryGenConfig::paper(10), overlap, 4, seed);
            let mut warm = MapFragmentCache::new();
            for q in &batch {
                let p = query_problem(q, &cost);
                let (shared, stats) =
                    tree_schedule_shared(&p, f, &sys, &comm, &model, None, &mut warm).unwrap();
                let (cold, _) = tree_schedule_shared(
                    &p,
                    f,
                    &sys,
                    &comm,
                    &model,
                    None,
                    &mut MapFragmentCache::new(),
                )
                .unwrap();
                assert_eq!(
                    schedule_digest(&shared),
                    schedule_digest(&cold),
                    "seed {seed} overlap {overlap}: splice drifted from a cold plan"
                );
                spliced_anywhere |= stats.subtree_hits > 0;
            }
        }
    }
    assert!(spliced_anywhere, "the sweep never exercised a splice");
}

/// Signature equality is meaningful across members: every batch member
/// shares canonical subtree signatures with its batch-mates at full
/// overlap, and members of *different* batches (different cores) share
/// none of the deeper core signatures.
#[test]
fn overlap_batches_share_canonical_signatures() {
    let cost = CostModel::paper_defaults();
    let batch = overlap_batch(&QueryGenConfig::paper(12), 1.0, 3, 5);
    let sigs: Vec<Vec<SubtreeSig>> = batch
        .iter()
        .map(|q| subtree_signatures(&query_problem(q, &cost), 0.7, None).unwrap())
        .collect();
    // Full overlap: identical templates, identical signature multisets.
    assert_eq!(sigs[0], sigs[1]);
    assert_eq!(sigs[1], sigs[2]);
    // A different batch seed draws a different core: no signature of its
    // members matches any of the first batch's.
    let other = overlap_batch(&QueryGenConfig::paper(12), 1.0, 3, 6);
    let other_sigs = subtree_signatures(&query_problem(&other[0], &cost), 0.7, None).unwrap();
    assert!(
        other_sigs.iter().all(|s| !sigs[0].contains(s)),
        "distinct cores must not collide"
    );
}

/// The batched runtime's whole-plan hits, replayed with the *shared*
/// planner against a cold memo, must digest-match, even while a site
/// crashes and recovers mid-stream. The memo keeps splicing across the
/// fault pair.
#[test]
fn batched_sharing_survives_shadow_verification_under_faults() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();
    // Twelve overlapped queries, then the same twelve again: the second
    // round is served from the whole-plan cache.
    let round = overlap_stream(9, 0.8, 4, 3, 1996);
    let stream = cycled(&round, 2 * round.len());
    // All 24 queries arrive up front; at MPL 3 the first round alone
    // lasts about four standalone times, so a crash at 1.5x lands
    // mid-stream.
    let standalone = tree_schedule(&stream[0], 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let crash_at = 1.5 * standalone;
    let cfg = RuntimeConfig {
        max_in_flight: 3,
        batch_window: 4,
        plan_sharing: true,
        faults: FaultPlan::scripted(vec![
            FaultEvent {
                time: crash_at,
                site: 5,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                time: 2.0 * standalone,
                site: 5,
                kind: FaultKind::Recover,
            },
        ]),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(sys.clone(), comm, model, cfg);
    let mut rt = submit(rt, &stream, &spaced(stream.len(), 1e-3));
    let summary = rt.run_to_completion().unwrap();
    assert!(
        summary.cache.subtree_hits > 0,
        "the overlapped stream never spliced"
    );
    assert!(summary.cache.hits > 0, "nothing was replayed");
    assert_eq!(rt.replay_cache_hits(&summary, &stream), vec![]);
    assert_eq!(summary.sites_failed(), 1);
    // No fault invalidates the memo: fragments memoized before the
    // crash are still spliced after it.
    assert!(
        summary.trace.iter().any(|ev| matches!(
            ev,
            AuditEvent::FragmentSpliced { time, .. } if *time >= crash_at
        )),
        "splices must continue across the fault pair"
    );
}

/// `--batch` composes with any audit-segment count: the full summary
/// digest (trajectories, traces, counters) is invariant in the shard
/// count.
#[test]
fn batched_sharing_is_byte_identical_across_shards() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(12);
    let model = OverlapModel::new(0.5).unwrap();
    let stream = overlap_stream(8, 0.9, 3, 3, 42);
    let arrivals = spaced(stream.len(), 8.0);
    let run = |shards: usize| {
        let cfg = RuntimeConfig {
            max_in_flight: 2,
            batch_window: 3,
            plan_sharing: true,
            shards,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(sys.clone(), comm, model, cfg);
        submit(rt, &stream, &arrivals).run_to_completion().unwrap()
    };
    let s1 = run(1);
    assert!(s1.cache.subtree_hits > 0, "no sharing exercised");
    for shards in [2, 4] {
        let sn = run(shards);
        assert_eq!(
            s1.digest(),
            sn.digest(),
            "batched summary must be shard-invariant at {shards} shards"
        );
    }
}

/// The X16 experiment is `--jobs`-invariant: the worker-pool split must
/// never leak into the emitted table.
#[test]
fn mqo_experiment_is_jobs_invariant() {
    let serial = mqo(&ExpConfig {
        fast: true,
        jobs: 1,
        ..Default::default()
    });
    let parallel = mqo(&ExpConfig {
        fast: true,
        jobs: 4,
        ..Default::default()
    });
    assert_eq!(serial.table.to_csv(), parallel.table.to_csv());
}
