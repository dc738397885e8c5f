//! Hot-path micro-benchmarks for the online runtime: admission decisions
//! (policy-driven queue pops), end-to-end stream and serve runs, the
//! overload controller on and off, and the shard barrier.

use mrs_bench::harness::Bench;
use mrs_core::prelude::*;
use mrs_runtime::prelude::*;
use std::hint::black_box;

fn bench_admission(b: &mut Bench) {
    let mut g = b.group("admission");
    let mut rng = DetRng::seed_from_u64(7);
    let entries: Vec<(usize, f64)> = (0..256)
        .map(|_| (rng.gen_range(0..8usize), rng.gen_range(1.0..100.0f64)))
        .collect();

    for policy in [
        AdmissionPolicy::Fcfs,
        AdmissionPolicy::SmallestVolumeFirst,
        AdmissionPolicy::RoundRobinFair,
    ] {
        g.bench_batched(
            &format!("drain_256_{}", policy.label()),
            || {
                let mut q = AdmissionQueue::new(policy);
                for (i, (client, volume)) in entries.iter().enumerate() {
                    q.push(QueryId(i), *client, *volume);
                }
                q
            },
            |mut q| {
                while let Some(id) = q.pop() {
                    black_box(id);
                }
            },
        );
    }
    g.finish();
}

fn bench_stream(b: &mut Bench) {
    use mrs_cost::prelude::*;
    use mrs_exp::prelude::query_problem;
    use mrs_workload::prelude::*;

    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.3).unwrap();
    let queries: Vec<_> = (0..8u64)
        .map(|s| {
            let q = generate_query(&QueryGenConfig::paper(8), s);
            query_problem(&q, &cost)
        })
        .collect();

    let mut g = b.group("stream");
    g.sample_size(10);
    g.bench_batched(
        "eight_queries_p16_fcfs",
        || {
            let cfg = RuntimeConfig {
                max_in_flight: 4,
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(SystemSpec::homogeneous(16), comm, model, cfg);
            for (i, p) in queries.iter().enumerate() {
                rt.submit_at(i as f64 * 10.0, i % 4, p.clone());
            }
            rt
        },
        |mut rt| {
            black_box(rt.run_to_completion().unwrap());
        },
    );
    g.finish();
}

fn bench_serve_stream(b: &mut Bench) {
    use mrs_core::tree::tree_schedule;
    use mrs_cost::prelude::*;
    use mrs_exp::prelude::query_problem;
    use mrs_sim::fault::FaultPlan;
    use mrs_workload::prelude::*;

    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let f = 0.7;
    // A templated workload: six distinct plans cycled over the stream, the
    // regime where a plan-signature cache pays off.
    let templates: Vec<_> = (0..6u64)
        .map(|s| {
            let q = generate_query(&QueryGenConfig::paper(8 + (s as usize % 5)), 7 * s + 1);
            query_problem(&q, &cost)
        })
        .collect();
    let queries = 42usize;
    let mpl = 4usize;
    let load = 1.5f64;

    let mut g = b.group("serve_stream");
    g.sample_size(5);
    for sites in [64usize, 140] {
        let sys = SystemSpec::homogeneous(sites);
        let mean_standalone: f64 = templates
            .iter()
            .map(|p| {
                tree_schedule(p, f, &sys, &comm, &model)
                    .expect("template plans always schedule")
                    .response_time
            })
            .sum::<f64>()
            / templates.len() as f64;
        let rate = load * mpl as f64 / mean_standalone;
        let arrivals = poisson_arrivals(rate, queries, 0xA11C_E5ED ^ sites as u64);
        let plan_horizon = arrivals.last().copied().unwrap_or(0.0) + 50.0 * mean_standalone;

        for faulty in [false, true] {
            let faults = if faulty {
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
            let id = format!("p{sites}{}", if faulty { "_faults" } else { "" });
            g.bench_batched(
                &id,
                || {
                    let cfg = RuntimeConfig {
                        f,
                        max_in_flight: mpl,
                        faults: faults.clone(),
                        recovery: RecoveryConfig {
                            backoff_base: 0.1 * mean_standalone,
                            backoff_cap: 2.0 * mean_standalone,
                            degrade_threshold: 0.25,
                            ..RecoveryConfig::default()
                        },
                        ..RuntimeConfig::default()
                    };
                    let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
                    for (i, t) in arrivals.iter().enumerate() {
                        rt.submit_at(*t, i % 3, templates[i % templates.len()].clone());
                    }
                    rt
                },
                |mut rt| {
                    black_box(rt.run_to_completion().unwrap());
                },
            );
        }

        // Shard-count sweep (clean plan only): the sharded fabric must
        // produce the identical run, so this measures pure execution
        // cost — barrier overhead on few cores, parallel speedup on
        // many. On a single-core host expect s1 to win; record the
        // numbers honestly either way.
        if sites == 140 {
            for n_shards in [1usize, 2, 4, 8] {
                g.bench_batched(
                    &format!("p{sites}_s{n_shards}"),
                    || {
                        let cfg = RuntimeConfig {
                            f,
                            max_in_flight: mpl,
                            shards: n_shards,
                            recovery: RecoveryConfig {
                                backoff_base: 0.1 * mean_standalone,
                                backoff_cap: 2.0 * mean_standalone,
                                degrade_threshold: 0.25,
                                ..RecoveryConfig::default()
                            },
                            ..RuntimeConfig::default()
                        };
                        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
                        for (i, t) in arrivals.iter().enumerate() {
                            rt.submit_at(*t, i % 3, templates[i % templates.len()].clone());
                        }
                        rt
                    },
                    |mut rt| {
                        black_box(rt.run_to_completion().unwrap());
                    },
                );
            }

            // MQO pair: the same overlap-templated stream served with
            // batched admission, once planning every window member
            // independently and once splicing shared subtrees through
            // the fragment memo. The delta is the price the runtime
            // pays (or wins back) for "build once, probe many" at high
            // template overlap; the plans-computed ratio itself is
            // gated by X16 in CI, this records the wall-clock side.
            let window = 6usize;
            let mqo_stream: Vec<_> = (0..queries / window)
                .flat_map(|batch| {
                    overlap_batch(
                        &QueryGenConfig::paper(10),
                        0.9,
                        window,
                        0x3160_3160 ^ batch as u64,
                    )
                    .iter()
                    .map(|q| query_problem(q, &cost))
                    .collect::<Vec<_>>()
                })
                .collect();
            let mqo_standalone: f64 = mqo_stream
                .iter()
                .map(|p| {
                    tree_schedule(p, f, &sys, &comm, &model)
                        .expect("overlap plans always schedule")
                        .response_time
                })
                .sum::<f64>()
                / mqo_stream.len() as f64;
            let mqo_rate = load * mpl as f64 / mqo_standalone;
            let mqo_arrivals =
                poisson_arrivals(mqo_rate, mqo_stream.len(), 0xA11C_E5ED ^ sites as u64);
            for (id, sharing) in [("mqo_p140_unshared", false), ("mqo_p140_shared", true)] {
                g.bench_batched(
                    id,
                    || {
                        let cfg = RuntimeConfig {
                            f,
                            max_in_flight: mpl,
                            batch_window: window,
                            plan_sharing: sharing,
                            recovery: RecoveryConfig {
                                backoff_base: 0.1 * mqo_standalone,
                                backoff_cap: 2.0 * mqo_standalone,
                                degrade_threshold: 0.25,
                                ..RecoveryConfig::default()
                            },
                            ..RuntimeConfig::default()
                        };
                        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
                        for (i, (p, t)) in mqo_stream.iter().zip(&mqo_arrivals).enumerate() {
                            rt.submit_at(*t, i % 3, p.clone());
                        }
                        rt
                    },
                    |mut rt| {
                        black_box(rt.run_to_completion().unwrap());
                    },
                );
            }
        }
    }
    g.finish();
}

fn bench_control(b: &mut Bench) {
    use mrs_core::tree::tree_schedule;
    use mrs_cost::prelude::*;
    use mrs_exp::prelude::query_problem;
    use mrs_workload::prelude::*;

    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let f = 0.7;
    let templates: Vec<_> = (0..6u64)
        .map(|s| {
            let q = generate_query(&QueryGenConfig::paper(8 + (s as usize % 5)), 7 * s + 1);
            query_problem(&q, &cost)
        })
        .collect();
    let queries = 42usize;
    let mpl = 4usize;
    let sites = 64usize;
    let sys = SystemSpec::homogeneous(sites);
    let mean_standalone: f64 = templates
        .iter()
        .map(|p| {
            tree_schedule(p, f, &sys, &comm, &model)
                .expect("template plans always schedule")
                .response_time
        })
        .sum::<f64>()
        / templates.len() as f64;
    // Well past the knee: the adaptive run actually makes decisions, so
    // the on/off delta prices the controller machinery under fire, not
    // just the disabled-path guard.
    let rate = 4.0 * mpl as f64 / mean_standalone;
    let arrivals = poisson_arrivals(rate, queries, 0xA11C_E5ED ^ sites as u64);

    let mut g = b.group("control");
    g.sample_size(5);
    for (id, ctl) in [
        ("off_p64", ControllerConfig::default()),
        ("adaptive_p64", ControllerConfig::adaptive()),
    ] {
        g.bench_batched(
            id,
            || {
                let cfg = RuntimeConfig {
                    f,
                    max_in_flight: mpl,
                    controller: ctl.clone(),
                    recovery: RecoveryConfig {
                        backoff_base: 0.1 * mean_standalone,
                        backoff_cap: 2.0 * mean_standalone,
                        degrade_threshold: 0.25,
                        ..RecoveryConfig::default()
                    },
                    ..RuntimeConfig::default()
                };
                let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
                for (i, t) in arrivals.iter().enumerate() {
                    rt.submit_at(*t, i % 3, templates[i % templates.len()].clone());
                }
                rt
            },
            |mut rt| {
                black_box(rt.run_to_completion().unwrap());
            },
        );
    }
    g.finish();
}

fn bench_barrier(b: &mut Bench) {
    use mrs_shardexec::pool::{Command, ShardPool};
    use mrs_shardexec::prelude::ShardState;
    use mrs_sim::engine::{SimConfig, SiteSim};

    // The gate in isolation: one NextTime broadcast + completion wait
    // per round, measured as 100-round batches so a single park/unpark
    // pair is resolvable above timer noise. Workers have 4 idle sites
    // each, so the round is almost pure barrier cost. On a single-core
    // host ShardPool::new picks spin budget 0 (cores <= shards), so
    // every round takes the full park path — the worst case the
    // relaxed orderings have to pay for.
    let mut g = b.group("barrier");
    g.sample_size(5);
    for n_shards in [1usize, 4, 8] {
        g.bench_batched(
            &format!("roundtrip100_s{n_shards}"),
            || {
                let states = (0..n_shards)
                    .map(|s| {
                        let sims = (0..4)
                            .map(|_| SiteSim::new(SimConfig::default(), 1))
                            .collect();
                        ShardState::new(s, s * 4, sims, 1)
                    })
                    .collect();
                ShardPool::new(states)
            },
            |pool| {
                for _ in 0..100 {
                    pool.run(Command::NextTime);
                }
            },
        );
    }
    g.finish();
}

fn main() {
    let mut b = Bench::from_args();
    bench_admission(&mut b);
    bench_stream(&mut b);
    bench_serve_stream(&mut b);
    bench_barrier(&mut b);
    bench_control(&mut b);
    b.finish();
}
