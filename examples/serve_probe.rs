//! Serving hot-path probe: drive the exact templated stream the
//! `serve_stream` bench group uses, and report the event and plan counts
//! the BENCH_PR4 events/sec and queries/sec figures derive from.
//!
//! ```text
//! cargo run --release --example serve_probe [sites] [--faults]
//! ```
//!
//! Wall-clock timing belongs to the bench harness (`cargo bench -p
//! mrs-bench --bench runtime -- serve_stream`); this probe prints the
//! per-run denominators — processed events (event-loop iterations),
//! served queries, plans computed vs. cache hits — so throughput numbers
//! can be reproduced as `events / bench_seconds`.

use mdrs::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sites: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(140);
    let with_faults = args.iter().any(|a| a == "--faults");

    // Mirror crates/bench/benches/runtime.rs `serve_stream` exactly.
    let queries = 42;
    let mpl = 4;
    let load = 1.5;
    let f = 0.7;
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(sites);

    let templates: Vec<TreeProblem> = (0..6)
        .map(|s: u64| {
            let q = generate_query(&QueryGenConfig::paper(8 + (s as usize % 5)), 7 * s + 1);
            query_problem(&q, &cost)
        })
        .collect();
    let mean_standalone: f64 = templates
        .iter()
        .map(|p| {
            tree_schedule(p, f, &sys, &comm, &model)
                .expect("templates always schedule")
                .response_time
        })
        .sum::<f64>()
        / templates.len() as f64;
    let rate = load * mpl as f64 / mean_standalone;
    let arrivals = poisson_arrivals(rate, queries, 0xA11C_E5ED ^ sites as u64);
    let plan_horizon = arrivals.last().copied().unwrap_or(0.0) + 50.0 * mean_standalone;

    let faults = if with_faults {
        FaultPlan::seeded(
            sites,
            plan_horizon,
            3.0 * mean_standalone,
            0.75 * mean_standalone,
            0x0FA7_0FA7 ^ sites as u64,
        )
    } else {
        FaultPlan::none()
    };
    let cfg = RuntimeConfig {
        f,
        max_in_flight: mpl,
        faults,
        recovery: RecoveryConfig {
            backoff_base: 0.1 * mean_standalone,
            backoff_cap: 2.0 * mean_standalone,
            degrade_threshold: 0.25,
            ..RecoveryConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(sys, comm, model, cfg);
    for (i, t) in arrivals.iter().enumerate() {
        rt.submit_at(*t, i % 3, templates[i % templates.len()].clone());
    }
    let summary = rt.run_to_completion().expect("stream always schedules");

    // One depth-trace entry per event-loop iteration: the processed-event
    // count the events/sec figure divides by.
    println!(
        "serve_stream probe: P={sites} faults={} — {} events, {} queries served \
         ({} completed, {} aborted, {} shed) over {:.1} virtual s",
        with_faults,
        summary.depth_trace.len(),
        summary.queries.len(),
        summary.completed(),
        summary.aborted(),
        summary.shed(),
        summary.horizon
    );
    println!(
        "plans: {} computed, {} cache hits ({:.0}% hit rate)",
        summary.plans_computed(),
        summary.cache.hits,
        100.0 * summary.cache_hit_rate()
    );
}
