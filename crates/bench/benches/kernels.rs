//! Micro-benchmarks of the scheduling kernels: the vector-packing list
//! rule, degree selection, the cold TreeSchedule of generated plans, the
//! shared planner over one MQO overlap window, the malleable GF sweep, plan expansion and decomposition, the fluid
//! simulator, the crash-recovery re-pack, and the exact branch-and-bound
//! solver.

use mrs_bench::harness::Bench;
use mrs_core::prelude::*;
use mrs_core::rng::DetRng;
use mrs_cost::prelude::*;
use mrs_opt::prelude::*;
use mrs_plan::prelude::*;
use mrs_sim::prelude::*;
use mrs_workload::prelude::*;
use std::hint::black_box;

fn synthetic_ops(count: usize, seed: u64) -> Vec<OperatorSpec> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            OperatorSpec::floating(
                OperatorId(i),
                OperatorKind::Other,
                WorkVector::from_slice(&[rng.gen_range(0.5..20.0), rng.gen_range(0.0..20.0), 0.0]),
                rng.gen_range(0.0..4e6),
            )
        })
        .collect()
}

fn bench_pack_clones(bench: &mut Bench) {
    let comm = CommModel::paper_defaults();
    let mut g = bench.group("pack_clones");
    for &(m, p) in &[(32usize, 16usize), (128, 64), (512, 140)] {
        let sys = SystemSpec::homogeneous(p);
        let ops: Vec<ScheduledOperator> = synthetic_ops(m, 3)
            .into_iter()
            .enumerate()
            .map(|(i, o)| ScheduledOperator::even(o, 1 + i % p.min(8), &comm, &sys.site))
            .collect();
        g.bench_function(&format!("lpt/{m}ops_{p}sites"), || {
            black_box(pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap());
        });
    }
    // Wide degrees over a spread pre-load: rooted clones leave site s at
    // load s/2, then 24 floating operators of degree 140 down to 25 whose
    // clones are far smaller than the load gaps, so each operator's clones
    // climb the sites in load order.
    let (m, p) = (24usize, 140usize);
    let sys = SystemSpec::homogeneous(p);
    let mut ops: Vec<ScheduledOperator> = synthetic_ops(m, 5)
        .into_iter()
        .enumerate()
        .map(|(i, o)| ScheduledOperator::even(o, p - 5 * i, &comm, &sys.site))
        .collect();
    ops.extend((0..p).map(|s| {
        let w = WorkVector::from_slice(&[0.5 * s as f64, 0.0, 0.0]);
        let spec = OperatorSpec::rooted(
            OperatorId(m + s),
            OperatorKind::Probe,
            w,
            0.0,
            vec![SiteId(s)],
        );
        ScheduledOperator::even(spec, 1, &comm, &sys.site)
    }));
    g.bench_function(&format!("lpt/wide_{m}ops_{p}sites"), || {
        black_box(pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap());
    });
    g.finish();
}

fn bench_makespan(bench: &mut Bench) {
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let mut g = bench.group("makespan");
    for &(m, p) in &[(32usize, 16usize), (128, 64), (512, 140)] {
        let sys = SystemSpec::homogeneous(p);
        let ops: Vec<ScheduledOperator> = synthetic_ops(m, 13)
            .into_iter()
            .enumerate()
            .map(|(i, o)| ScheduledOperator::even(o, 1 + i % p.min(8), &comm, &sys.site))
            .collect();
        let assignment = pack_clones(&ops, &sys, ListOrder::LongestFirst).unwrap();
        let phase = PhaseSchedule { ops, assignment };
        g.bench_function(&format!("{m}ops_{p}sites"), || {
            black_box(phase.makespan(&sys, &model));
        });
    }
    g.finish();
}

fn bench_choose_degree(bench: &mut Bench) {
    let comm = CommModel::paper_defaults();
    let site = SiteSpec::cpu_disk_net();
    let model = OverlapModel::new(0.5).unwrap();
    let op = synthetic_ops(1, 5).pop().unwrap();
    let mut g = bench.group("choose_degree");
    g.sample_size(20);
    for p in [20usize, 140] {
        g.bench_function(&format!("p{p}"), || {
            black_box(choose_degree(&op, 0.7, p, &comm, &site, &model));
        });
    }
    g.finish();
}

fn bench_tree_schedule(bench: &mut Bench) {
    // The cold plan behind the serving benchmark's `core.plan_us_p50`:
    // 24 generated plans of 6–14 joins at P = 140, f = 0.7, ε = 0.5, all
    // planned from scratch on every iteration.
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(140);
    let mut rng = DetRng::seed_from_u64(1996);
    let problems: Vec<TreeProblem> = (0..24)
        .map(|k| {
            let q = generate_query(&QueryGenConfig::paper(6 + k * 9 / 24), rng.next_u64());
            mrs_exp::prelude::query_problem(&q, &cost)
        })
        .collect();
    // The shared planner behind `mqo_overload`'s cold plans: one window
    // of six 10-join queries sharing a 9-join core (overlap 0.9),
    // planned at the governed cap 17 through a fresh fragment memo, so
    // later members splice what earlier ones memoized.
    let window: Vec<TreeProblem> = overlap_batch(&QueryGenConfig::paper(10), 0.9, 6, 1996)
        .iter()
        .map(|q| mrs_exp::prelude::query_problem(q, &cost))
        .collect();
    let mut g = bench.group("tree_schedule");
    g.sample_size(20);
    g.bench_function("cold_p140", || {
        for problem in &problems {
            black_box(tree_schedule(problem, 0.7, &sys, &comm, &model).unwrap());
        }
    });
    g.bench_function("shared_window_p140", || {
        let mut memo = MapFragmentCache::new();
        for problem in &window {
            black_box(
                tree_schedule_shared(problem, 0.7, &sys, &comm, &model, Some(17), &mut memo)
                    .unwrap(),
            );
        }
    });
    g.finish();
}

fn bench_malleable(bench: &mut Bench) {
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let mut g = bench.group("malleable_gf_sweep");
    g.sample_size(20);
    for &(m, p) in &[(16usize, 32usize), (64, 140)] {
        let sys = SystemSpec::homogeneous(p);
        let ops = synthetic_ops(m, 11);
        g.bench_batched(
            &format!("{m}ops_{p}sites"),
            || ops.clone(),
            |ops| {
                black_box(malleable_schedule(ops, &sys, &comm, &model).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_plan_pipeline(bench: &mut Bench) {
    let mut g = bench.group("plan_pipeline");
    for joins in [10usize, 50] {
        let q = generate_query(&QueryGenConfig::paper(joins), 2);
        let cost = CostModel::paper_defaults();
        g.bench_function(&format!("generate_{joins}j"), || {
            black_box(generate_query(&QueryGenConfig::paper(joins), 2));
        });
        g.bench_function(&format!("expand_decompose_cost_{joins}j"), || {
            black_box(
                problem_from_plan(
                    &q.plan,
                    &q.catalog,
                    &KeyJoinMax,
                    &cost,
                    &ScanPlacement::Floating,
                )
                .unwrap(),
            );
        });
    }
    g.finish();
}

fn bench_simulator(bench: &mut Bench) {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(40);
    let q = generate_query(&QueryGenConfig::paper(30), 4);
    let problem = problem_from_plan(
        &q.plan,
        &q.catalog,
        &KeyJoinMax,
        &cost,
        &ScanPlacement::Floating,
    )
    .unwrap();
    let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    let phase = &result.phases[0].schedule;

    let mut g = bench.group("simulator");
    g.bench_function("equal_finish_phase", || {
        black_box(simulate_phase(phase, &sys, &model, &SimConfig::default()));
    });
    let fair = SimConfig {
        policy: SharingPolicy::FairShare,
        timeshare_overhead: 0.1,
    };
    g.bench_function("fair_share_phase", || {
        black_box(simulate_phase(phase, &sys, &model, &fair));
    });
    g.finish();
}

fn bench_branch_and_bound(bench: &mut Bench) {
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(3);
    let ops: Vec<ScheduledOperator> = synthetic_ops(8, 21)
        .into_iter()
        .map(|o| ScheduledOperator::even(o, 1, &comm, &sys.site))
        .collect();
    let mut g = bench.group("branch_and_bound");
    g.sample_size(20);
    g.bench_function("8clones_3sites", || {
        black_box(optimal_pack(&ops, &sys, &model, 10_000_000).unwrap());
    });
    g.finish();
}

fn bench_memory_scheduler(bench: &mut Bench) {
    use mrs_core::memory::{operator_schedule_with_memory, MemoryDemand, MemorySpec};
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(40);
    let ops = synthetic_ops(24, 31);
    let demands: Vec<MemoryDemand> = (0..24)
        .map(|i| MemoryDemand::bytes(0.5e6 * (1 + i % 8) as f64))
        .collect();
    let mut g = bench.group("memory_scheduler");
    g.bench_batched(
        "24ops_40sites",
        || ops.clone(),
        |ops| {
            black_box(
                operator_schedule_with_memory(
                    ops,
                    &demands,
                    MemorySpec::new(4e6).unwrap(),
                    0.7,
                    &sys,
                    &comm,
                    &model,
                )
                .unwrap(),
            );
        },
    );
    g.finish();
}

fn bench_pipelined_simulator(bench: &mut Bench) {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(40);
    let q = generate_query(&QueryGenConfig::paper(30), 4);
    let annotated = q.plan.annotate(&q.catalog, &KeyJoinMax);
    let optree = OperatorTree::expand(&annotated);
    let edges: Vec<_> = optree.pipeline_edges().collect();
    let problem = problem_from_optree(&optree, &cost, &ScanPlacement::Floating).unwrap();
    let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    let phase = &result.phases[0].schedule;
    let mut g = bench.group("simulator");
    g.bench_function("tight_pipeline_phase", || {
        black_box(simulate_phase_pipelined(
            phase,
            &edges,
            &sys,
            &model,
            &SimConfig::default(),
        ));
    });
    g.finish();
}

fn bench_recovery(bench: &mut Bench) {
    use mrs_runtime::recovery::{rebuild_inflated, replan_lost};
    let comm = CommModel::paper_defaults();
    let site = SiteSpec::cpu_disk_net();
    let mut rng = DetRng::seed_from_u64(17);
    let mut g = bench.group("recovery");
    for &(lost_n, alive_n) in &[(8usize, 12usize), (64, 48)] {
        let lost: Vec<WorkVector> = (0..lost_n)
            .map(|_| {
                WorkVector::from_slice(&[
                    rng.gen_range(0.5..20.0),
                    rng.gen_range(0.0..20.0),
                    rng.gen_range(0.0..10.0),
                ])
            })
            .collect();
        // A non-contiguous survivor set, as a real crash would leave.
        let alive: Vec<SiteId> = (0..alive_n).map(|i| SiteId(2 * i)).collect();
        g.bench_function(&format!("replan/{lost_n}lost_{alive_n}alive"), || {
            black_box(replan_lost(&lost, &alive, &site, &comm, 0.1).unwrap());
        });
    }
    let w = WorkVector::from_slice(&[10.0, 4.0, 6.0]);
    g.bench_function("rebuild_inflate", || {
        black_box(rebuild_inflated(&w, &site, 0.1));
    });
    g.finish();
}

fn bench_optimizers(bench: &mut Bench) {
    let q = generate_query(&QueryGenConfig::paper(12), 9);
    let mut g = bench.group("join_order");
    g.sample_size(20);
    g.bench_function("greedy_12_joins", || {
        black_box(optimize_greedy(&q.catalog, &q.graph_edges, &KeyJoinMax).unwrap());
    });
    g.bench_function("dp_12_joins", || {
        black_box(optimize_dp(&q.catalog, &q.graph_edges, &KeyJoinMax).unwrap());
    });
    g.finish();
}

fn main() {
    let mut b = Bench::from_args();
    bench_pack_clones(&mut b);
    bench_makespan(&mut b);
    bench_choose_degree(&mut b);
    bench_tree_schedule(&mut b);
    bench_malleable(&mut b);
    bench_plan_pipeline(&mut b);
    bench_simulator(&mut b);
    bench_branch_and_bound(&mut b);
    bench_memory_scheduler(&mut b);
    bench_pipelined_simulator(&mut b);
    bench_recovery(&mut b);
    bench_optimizers(&mut b);
    b.finish();
}
