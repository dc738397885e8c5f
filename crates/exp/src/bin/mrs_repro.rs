//! `mrs-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! mrs-repro [--seed N] [--fast] [--jobs N] [--csv DIR] <experiment>... | all | list
//! mrs-repro schedule [--seed N] [--joins J] [--sites P] [--eps E] [--f F]
//! mrs-repro serve [--seed N] [--queries N] [--sites P] [--mpl M]
//!                 [--load X] [--policy fcfs|svf|rr-fair]
//!                 [--mtbf T] [--deadline D] [--templates K]
//!                 [--adaptive] [--batch W] [--no-share]
//! ```
//!
//! Counts and seeds (`--seed`, `--queries`, `--sites`, `--mpl`,
//! `--templates`, `--batch`, `--joins`) must be non-negative
//! integers; `--load`, `--mtbf`, `--deadline`, `--eps` and `--f` take
//! decimals, and `--mtbf`/`--deadline` must be finite and non-negative
//! (`0`, the default, turns them off). A `--mtbf` so small that the
//! crash schedule would hold more than [`MAX_EXPECTED_CRASHES`] crashes
//! is rejected before the schedule is drawn.
//!
//! Experiments: table2, fig5a, fig5b, fig6a, fig6b, ablation-dims,
//! ablation-order, malleable, planopt, pipecheck, memcheck, dimcheck,
//! shelfcheck, optgap, simcheck, skew, throughput, faults, saturation,
//! mqo, audit.
//!
//! `serve --mtbf T` injects a seeded site crash/recover schedule with
//! mean time between failures `T` virtual seconds per site (MTTR is
//! `T/4`); `--deadline D` aborts queries not finished within `D` seconds
//! of arrival. `--templates K` draws the stream from `K` recurring query
//! templates instead of all-distinct plans, exercising the plan-signature
//! schedule cache (the printed cache line shows the amortization).
//! `--adaptive` turns on the feedback overload controller
//! ([`ControllerConfig::adaptive`]): a backpressure gate defers
//! admissions while the sites are saturated and a parallelism governor
//! caps clone degrees under backlog; off (the default) the controller is
//! never consulted and the output is byte-identical to a build without
//! it. `--batch W` switches admission to batched (MQO) mode: arrivals
//! are released in windows of `W`, each window is planned up front with
//! cross-query subtree sharing (common rooted subtrees are packed once
//! and spliced into every later member — "build once, probe many"), and
//! the report grows an `mqo:` line with the sharing counters. `--no-share` keeps the batched release discipline but plans
//! every member independently, isolating the window effect from the
//! sharing effect; without `--batch` the flag is a no-op and the output
//! stays byte-identical to the pre-MQO serve path.
//!
//! [`ControllerConfig::adaptive`]: mrs_runtime::prelude::ControllerConfig::adaptive

use mrs_exp::config::ExpConfig;
use mrs_exp::{all_experiments, experiment_by_id};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// The most site crashes `serve` will schedule: `--mtbf` is rejected
/// when `sites × plan horizon / mtbf` exceeds this, because the seeded
/// schedule holds every crash in memory at once.
const MAX_EXPECTED_CRASHES: f64 = 1e6;

fn usage() -> &'static str {
    "usage: mrs-repro [--seed N] [--fast] [--jobs N] [--csv DIR] <experiment>... | all | list\n\
       or: mrs-repro schedule [--seed N] [--joins J] [--sites P] [--eps E] [--f F]\n\
       or: mrs-repro serve [--seed N] [--queries N] [--sites P] [--mpl M] [--load X] \
     [--policy fcfs|svf|rr-fair] [--mtbf T] [--deadline D] [--templates K] \
     [--adaptive] [--batch W] [--no-share]\n\
     experiments: table2 fig5a fig5b fig6a fig6b ablation-dims ablation-order \
     malleable planopt pipecheck memcheck dimcheck shelfcheck optgap simcheck skew throughput \
     faults saturation mqo audit"
}

/// Parses the argument after a flag into `target`. `false` when it is
/// missing or not a `T`, leaving `target` unchanged.
fn grab<T: FromStr>(it: &mut std::slice::Iter<'_, String>, target: &mut T) -> bool {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => {
            *target = v;
            true
        }
        None => false,
    }
}

/// `mrs-repro serve`: run a Poisson stream of generated queries through
/// the online runtime and print per-query and per-site statistics.
fn run_serve_demo(args: &[String]) -> ExitCode {
    use mrs_core::rng::DetRng;
    use mrs_cost::prelude::CostModel;
    use mrs_exp::prelude::query_problem;
    use mrs_exp::serving::{cycled, Harness};
    use mrs_runtime::prelude::{AdmissionPolicy, AuditEvent, ControllerConfig, RuntimeConfig};
    use mrs_workload::prelude::{generate_query, QueryGenConfig};

    let mut seed = 1996u64;
    let mut queries = 12usize;
    let mut sites = 24usize;
    let mut mpl = 4usize;
    let mut load = 1.5f64;
    let mut mtbf = 0.0f64;
    let mut deadline = 0.0f64;
    let mut templates = 0usize;
    let mut adaptive = false;
    let mut batch = 0usize;
    let mut share = true;
    let mut policy = AdmissionPolicy::Fcfs;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--adaptive" {
            adaptive = true;
            continue;
        }
        if arg == "--no-share" {
            // Batched release without cross-query sharing: every window
            // member is planned independently. Isolates the admission
            // window's effect from the subtree memo's.
            share = false;
            continue;
        }
        if arg == "--policy" {
            policy = match it.next().map(String::as_str) {
                Some("fcfs") => AdmissionPolicy::Fcfs,
                Some("svf") => AdmissionPolicy::SmallestVolumeFirst,
                Some("rr-fair") => AdmissionPolicy::RoundRobinFair,
                other => {
                    let got = other.unwrap_or("nothing");
                    eprintln!("--policy must be fcfs, svf, or rr-fair, got {got:?}");
                    return ExitCode::FAILURE;
                }
            };
            continue;
        }
        let ok = match arg.as_str() {
            "--seed" => grab(&mut it, &mut seed),
            "--queries" => grab(&mut it, &mut queries),
            "--sites" => grab(&mut it, &mut sites),
            "--mpl" => grab(&mut it, &mut mpl),
            "--load" => grab(&mut it, &mut load),
            "--mtbf" => grab(&mut it, &mut mtbf),
            "--deadline" => grab(&mut it, &mut deadline),
            "--templates" => grab(&mut it, &mut templates),
            "--batch" => grab(&mut it, &mut batch),
            other => {
                eprintln!("unknown serve option {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        if !ok {
            eprintln!("{arg} needs a numeric argument\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    if queries == 0 || sites == 0 || mpl == 0 || !(load.is_finite() && load > 0.0) {
        eprintln!("--queries, --sites, --mpl, and --load must be positive");
        return ExitCode::FAILURE;
    }
    if !(mtbf.is_finite() && mtbf >= 0.0 && deadline.is_finite() && deadline >= 0.0) {
        eprintln!(
            "--mtbf and --deadline must be finite and non-negative (0 = off)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }

    let cost = CostModel::paper_defaults();

    let mut rng = DetRng::seed_from_u64(seed);
    // With --templates K, draw K plans and cycle them across the stream
    // (a recurring-template workload); otherwise every query is distinct.
    let distinct = if templates > 0 {
        templates.min(queries)
    } else {
        queries
    };
    let base: Vec<_> = (0..distinct)
        .map(|_| {
            let joins = rng.gen_range(6..=14usize);
            let q = generate_query(
                &QueryGenConfig::paper(joins),
                rng.gen_range(0..1_000_000u64),
            );
            query_problem(&q, &cost)
        })
        .collect();
    let problems = cycled(&base, queries);
    let h = Harness::calibrate(sites, &problems);
    let (sys, mean_standalone) = (&h.sys, h.mean_standalone);
    let rate = h.rate(load, mpl);
    let arrivals = h.poisson(rate, queries, seed);

    // Let the failure schedule outlast even a heavily stretched run.
    let plan_horizon = arrivals.last().copied().unwrap_or(0.0) + 50.0 * mean_standalone;
    if mtbf > 0.0 {
        let crashes = sites as f64 * plan_horizon / mtbf;
        if crashes > MAX_EXPECTED_CRASHES {
            eprintln!(
                "--mtbf {mtbf} would schedule about {crashes:.3e} site crashes over the \
                 {plan_horizon:.1} s horizon (at most {MAX_EXPECTED_CRASHES:.0e}); \
                 use a larger --mtbf"
            );
            return ExitCode::FAILURE;
        }
    }
    let cfg = RuntimeConfig {
        f: h.f,
        policy,
        max_in_flight: mpl,
        faults: h.faults(plan_horizon, mtbf, mtbf / 4.0, seed),
        deadline: (deadline > 0.0).then_some(deadline),
        batch_window: batch,
        plan_sharing: batch > 0 && share,
        controller: if adaptive {
            ControllerConfig::adaptive()
        } else {
            ControllerConfig::default()
        },
        recovery: h.recovery(5),
        ..RuntimeConfig::default()
    };
    let mut rt = h.runtime(cfg, &problems, &arrivals);
    let summary = match rt.run_to_completion() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runtime failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "serving {queries} queries on P={sites} at MPL {mpl}, policy {}, λ={rate:.5}/s \
         (offered load {load}x, mean standalone {mean_standalone:.1}s)\n",
        policy.label()
    );
    println!(
        "{:<6} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "query", "client", "arrival", "wait", "latency", "slowdown"
    );
    for q in &summary.queries {
        println!(
            "{:<6} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>9.3}",
            q.id.to_string(),
            q.client,
            q.arrival,
            q.wait().unwrap_or(f64::NAN),
            q.latency().unwrap_or(f64::NAN),
            q.slowdown().unwrap_or(f64::NAN),
        );
    }
    let (cpu, net) = (sys.site.cpu_dim(), sys.site.net_dim());
    let disk = sys.site.disk_dim().expect("paper layout has a disk");
    println!(
        "\ncompleted {} / {queries} in {:.1}s — throughput {:.4}/s, mean latency {:.1}s, \
         p95 {:.1}s, max queue depth {}",
        summary.completed(),
        summary.horizon,
        summary.throughput(),
        summary.mean_latency(),
        summary.p95_latency(),
        summary.max_queue_depth()
    );
    if summary.aborted() > 0 || summary.shed() > 0 || summary.sites_failed() > 0 {
        println!(
            "faults: {} site failures, {} clones lost, {} re-packs — {} aborted, {} shed",
            summary.sites_failed(),
            summary.clones_lost(),
            summary.repacks(),
            summary.aborted(),
            summary.shed()
        );
    }
    println!(
        "mean site utilization: cpu {:.3}, disk {:.3}, net {:.3}",
        summary.avg_utilization(cpu),
        summary.avg_utilization(disk),
        summary.avg_utilization(net)
    );
    println!(
        "schedule cache: {} plans computed, {} hits ({:.0}% hit rate)",
        summary.plans_computed(),
        summary.cache.hits,
        100.0 * summary.cache_hit_rate()
    );
    // Only printed under --batch: the default output must stay
    // byte-identical to the pre-MQO serve path.
    if batch > 0 {
        let occupancy = if summary.cache.batches_released == 0 {
            0.0
        } else {
            summary.cache.batch_members as f64 / summary.cache.batches_released as f64
        };
        println!(
            "mqo: {} batches (mean occupancy {:.1}), {} subtree hits, {} phase schedules \
             spliced, {} pipelines packed",
            summary.cache.batches_released,
            occupancy,
            summary.cache.subtree_hits,
            summary.cache.fragments_spliced,
            summary.tasks_planned()
        );
    }
    // Only printed under --adaptive: the default output must stay
    // byte-identical to a controller-less build.
    if adaptive {
        let mut counts = [0usize; 4];
        for ev in &summary.trace {
            if let AuditEvent::ControlDecision { action, .. } = ev {
                counts[action.discriminant() as usize] += 1;
            }
        }
        println!(
            "overload control: {} decisions — {} raise, {} lower, {} engage, {} release",
            counts.iter().sum::<usize>(),
            counts[0],
            counts[1],
            counts[2],
            counts[3]
        );
    }
    ExitCode::SUCCESS
}

/// `mrs-repro schedule`: generate one query, schedule it with both
/// algorithms, and print a full schedule report.
fn run_schedule_demo(args: &[String]) -> ExitCode {
    use mrs_baseline::prelude::synchronous_schedule;
    use mrs_core::bounds::opt_bound;
    use mrs_core::model::OverlapModel;
    use mrs_core::resource::SystemSpec;
    use mrs_core::tree::tree_schedule;
    use mrs_cost::prelude::{problem_from_plan, CostModel, ScanPlacement};
    use mrs_exp::render::tree_report;
    use mrs_plan::prelude::KeyJoinMax;
    use mrs_workload::prelude::{generate_query, QueryGenConfig};

    let mut seed = 1996u64;
    let mut joins = 12usize;
    let mut sites = 24usize;
    let mut eps = 0.5f64;
    let mut f = 0.7f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let ok = match arg.as_str() {
            "--seed" => grab(&mut it, &mut seed),
            "--joins" => grab(&mut it, &mut joins),
            "--sites" => grab(&mut it, &mut sites),
            "--eps" => grab(&mut it, &mut eps),
            "--f" => grab(&mut it, &mut f),
            other => {
                eprintln!("unknown schedule option {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        if !ok {
            eprintln!("{arg} needs a numeric argument\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    if joins == 0 || sites == 0 {
        eprintln!("--joins and --sites must be positive");
        return ExitCode::FAILURE;
    }
    let Ok(model) = OverlapModel::new(eps) else {
        eprintln!("--eps must lie in [0, 1]");
        return ExitCode::FAILURE;
    };

    let q = generate_query(&QueryGenConfig::paper(joins), seed);
    let cost = CostModel::paper_defaults();
    let problem = problem_from_plan(
        &q.plan,
        &q.catalog,
        &KeyJoinMax,
        &cost,
        &ScanPlacement::Floating,
    )
    .expect("generated plans always assemble");
    let sys = SystemSpec::homogeneous(sites);
    let comm = cost.params().comm_model();

    println!("query: {joins} joins (seed {seed}), machine: {sites} sites, eps={eps}, f={f}\n");
    let result = tree_schedule(&problem, f, &sys, &comm, &model).expect("valid problem");
    println!("=== TREESCHEDULE ===");
    println!("{}", tree_report(&result, &sys, &model));
    let sync = synchronous_schedule(&problem, &sys, &comm, &model).expect("valid problem");
    let bound = opt_bound(&problem, f, &sys, &comm, &model);
    println!("SYNCHRONOUS baseline: {:.2}s", sync.response_time);
    println!(
        "OPTBOUND: {:.2}s (TreeSchedule within {:.3}x; speedup over Synchronous {:.2}x)",
        bound,
        result.response_time / bound,
        sync.response_time / result.response_time
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("schedule") {
        return run_schedule_demo(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("serve") {
        return run_serve_demo(&raw[1..]);
    }

    let mut cfg = ExpConfig::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut requested: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => cfg.seed = seed,
                None => {
                    eprintln!("--seed needs an integer argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fast" => cfg.fast = true,
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(jobs) => cfg.jobs = jobs,
                None => {
                    eprintln!("--jobs needs an integer argument (0 = auto)\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv needs a directory argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => requested.push(other.to_owned()),
        }
    }

    if requested.iter().any(|r| r == "list") {
        for (id, _) in all_experiments() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if requested.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let run_all = requested.iter().any(|r| r == "all");
    let plan: Vec<(&'static str, mrs_exp::Experiment)> = if run_all {
        all_experiments()
    } else {
        let mut plan = Vec::new();
        for id in &requested {
            match experiment_by_id(id) {
                Some(f) => {
                    // Recover the 'static id from the registry.
                    let sid = all_experiments()
                        .into_iter()
                        .find(|(name, _)| name == id)
                        .map(|(name, _)| name)
                        .expect("registry lookup succeeded");
                    plan.push((sid, f));
                }
                None => {
                    eprintln!("unknown experiment {id:?}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
        plan
    };

    println!(
        "# Multi-dimensional Resource Scheduling for Parallel Queries (SIGMOD 1996)\n\
         # seed={} mode={}\n",
        cfg.seed,
        if cfg.fast {
            "fast"
        } else {
            "full (paper sweeps)"
        }
    );
    for (id, f) in plan {
        let start = std::time::Instant::now();
        let report = f(&cfg);
        println!("{}", report.render());
        println!("[{} finished in {:.1?}]\n", id, start.elapsed());
        if let Some(dir) = &csv_dir {
            match report.write_csv(dir) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write CSV for {id}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
