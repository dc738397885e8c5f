//! Chaos serving: the same mixed query stream as `query_stream`, but
//! sites crash and recover on a scripted schedule while one straggler
//! runs at half speed. The runtime evicts the lost clones, re-packs
//! their unfinished work onto the survivors (with a rebuild surcharge),
//! parks un-placeable work on capped exponential retries, aborts queries
//! past their deadline, and sheds arrivals when too few sites are alive.
//!
//! The example ends by asserting the runtime's "no silent drop"
//! invariant: every admitted query terminates in exactly one of
//! Completed, Aborted, or Shed.
//!
//! ```text
//! cargo run --release --example chaos_stream
//! ```

use mdrs::exp::serving;
use mdrs::prelude::*;

fn main() {
    // --- 1. The machine and models ---------------------------------------
    let sys = SystemSpec::homogeneous(16);
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();

    // --- 2. A mixed stream of 10 queries ----------------------------------
    let mut rng = DetRng::seed_from_u64(2026);
    let problems: Vec<TreeProblem> = (0..10)
        .map(|i| {
            let q = match i % 3 {
                0 => generate_query(
                    &QueryGenConfig::paper(rng.gen_range(6..=14usize)),
                    rng.gen_range(0..1_000_000u64),
                ),
                1 => {
                    let dims: Vec<f64> = (0..6).map(|_| rng.gen_range(1.0e3..5.0e4)).collect();
                    star_query(rng.gen_range(2.0e4..1.0e5), &dims)
                }
                _ => {
                    let sizes: Vec<f64> = (0..8).map(|_| rng.gen_range(1.0e3..1.0e5)).collect();
                    chain_query(&sizes)
                }
            };
            query_problem(&q, &cost)
        })
        .collect();
    let arrivals = poisson_arrivals(0.25, problems.len(), 7);

    // --- 3. The fault script ----------------------------------------------
    // A rolling outage: three sites die early and come back much later;
    // site 15 is a permanent half-speed straggler. Times are virtual
    // seconds on the same clock as the arrivals above.
    let crash = |time, site| FaultEvent {
        time,
        site,
        kind: FaultKind::Crash,
    };
    let recover = |time, site| FaultEvent {
        time,
        site,
        kind: FaultKind::Recover,
    };
    let faults = FaultPlan::scripted(vec![
        crash(20.0, 0),
        crash(25.0, 1),
        crash(30.0, 2),
        recover(120.0, 0),
        recover(140.0, 1),
        recover(160.0, 2),
        crash(200.0, 5),
        recover(400.0, 5),
    ])
    .with_slowdown(15, 0.5);

    // --- 4. Serve the stream through the chaos -----------------------------
    let cfg = RuntimeConfig {
        policy: AdmissionPolicy::Fcfs,
        max_in_flight: 3,
        faults,
        deadline: Some(2000.0),
        recovery: RecoveryConfig {
            rebuild_factor: 0.1,
            max_retries: 4,
            backoff_base: 5.0,
            backoff_cap: 80.0,
            degrade_threshold: 0.25,
        },
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(sys.clone(), comm, model, cfg);
    let summary = serving::submit(rt, &problems, &arrivals)
        .run_to_completion()
        .expect("stream plans always schedule");

    // --- 5. Per-query lifecycle -------------------------------------------
    println!(
        "{:<5} {:>6} {:>9} {:>9} {:>9}  outcome",
        "query", "client", "arrival", "latency", "slowdown"
    );
    for q in &summary.queries {
        let outcome = match &q.outcome {
            Some(QueryOutcome::Completed) => "completed".to_owned(),
            Some(QueryOutcome::Aborted { reason }) => format!("aborted ({reason})"),
            Some(QueryOutcome::Shed { reason }) => format!("shed ({})", reason.label()),
            None => "UNRESOLVED".to_owned(),
        };
        println!(
            "{:<5} {:>6} {:>9.1} {:>9.1} {:>9.2}  {outcome}",
            q.id.to_string(),
            q.client,
            q.arrival,
            q.latency().unwrap_or(f64::NAN),
            q.slowdown().unwrap_or(f64::NAN),
        );
    }

    // --- 6. The fault/recovery trace ---------------------------------------
    println!("\nfault trace:");
    for rec in &summary.faults {
        println!("  t={:<8.1} {:?}", rec.time, rec.kind);
    }
    println!(
        "\n{} completed, {} aborted, {} shed of {} in {:.1}s — \
         {} site failures, {} clones lost, {} re-packs",
        summary.completed(),
        summary.aborted(),
        summary.shed(),
        summary.queries.len(),
        summary.horizon,
        summary.sites_failed(),
        summary.clones_lost(),
        summary.repacks()
    );

    // --- 7. The no-silent-drop invariant ------------------------------------
    assert!(
        summary.sites_failed() > 0,
        "the script must actually crash sites"
    );
    for q in &summary.queries {
        assert!(
            matches!(
                q.outcome,
                Some(QueryOutcome::Completed)
                    | Some(QueryOutcome::Aborted { .. })
                    | Some(QueryOutcome::Shed { .. })
            ),
            "{}: query left without a terminal outcome",
            q.id
        );
    }
    assert_eq!(
        summary.completed() + summary.aborted() + summary.shed(),
        summary.queries.len(),
        "outcomes must partition the admitted queries"
    );
    println!("\nevery admitted query reached a terminal outcome ✓");
}
