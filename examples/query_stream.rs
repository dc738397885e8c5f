//! Online serving: a Poisson stream of mixed star / linear / bushy
//! queries flows through the multi-query runtime, which admits them
//! under a policy, schedules each with TREESCHEDULE at admission, and
//! time-shares the fluid sites among whatever is running.
//!
//! ```text
//! cargo run --release --example query_stream
//! ```

use mdrs::exp::serving;
use mdrs::prelude::*;

fn main() {
    // --- 1. The machine and models ---------------------------------------
    let sys = SystemSpec::homogeneous(24);
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();

    // --- 2. A mixed stream of 12 queries ----------------------------------
    // Cycle bushy (random), star, and linear (chain) shapes across three
    // submitting clients; everything is seeded and reproducible.
    let mut rng = DetRng::seed_from_u64(2026);
    let problems: Vec<TreeProblem> = (0..12)
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

    // Poisson arrivals at a rate that keeps roughly MPL queries in flight.
    let arrivals = poisson_arrivals(0.25, problems.len(), 7);

    // --- 3. Serve the stream ----------------------------------------------
    let cfg = RuntimeConfig {
        policy: AdmissionPolicy::Fcfs,
        max_in_flight: 3,
        ..RuntimeConfig::default()
    };
    // Query i arrives at arrivals[i] from client i % 3.
    let rt = Runtime::new(sys.clone(), comm, model, cfg);
    let summary = serving::submit(rt, &problems, &arrivals)
        .run_to_completion()
        .expect("stream plans always schedule");

    // --- 4. Per-query lifecycle -------------------------------------------
    println!(
        "{:<5} {:>6} {:>9} {:>8} {:>9} {:>9}",
        "query", "client", "arrival", "wait", "latency", "slowdown"
    );
    for q in &summary.queries {
        println!(
            "{:<5} {:>6} {:>9.1} {:>8.1} {:>9.1} {:>9.2}",
            q.id.to_string(),
            q.client,
            q.arrival,
            q.wait().unwrap_or(f64::NAN),
            q.latency().unwrap_or(f64::NAN),
            q.slowdown().unwrap_or(f64::NAN),
        );
    }

    // --- 5. System-level metrics ------------------------------------------
    let cpu = sys.site.cpu_dim();
    let disk = sys.site.disk_dim().expect("paper layout has a disk");
    let net = sys.site.net_dim();
    println!(
        "\n{} queries in {:.1}s — throughput {:.4}/s, mean wait {:.1}s, \
         mean latency {:.1}s, p95 {:.1}s, max queue depth {}",
        summary.completed(),
        summary.horizon,
        summary.throughput(),
        summary.mean_wait(),
        summary.mean_latency(),
        summary.p95_latency(),
        summary.max_queue_depth()
    );
    println!(
        "mean realized utilization: cpu {:.3}, disk {:.3}, net {:.3}",
        summary.avg_utilization(cpu),
        summary.avg_utilization(disk),
        summary.avg_utilization(net)
    );
}
