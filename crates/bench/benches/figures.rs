//! One bench per paper table/figure: measures the cost of regenerating
//! each experiment (scheduling work dominates; the fast configuration
//! keeps iterations tractable while sweeping the same parameter axes as
//! the paper).

use mrs_bench::harness::Bench;
use mrs_exp::prelude::*;
use std::hint::black_box;

fn cfg() -> ExpConfig {
    ExpConfig {
        seed: 1996,
        fast: true,
        jobs: 1,
    }
}

fn bench_figures(b: &mut Bench) {
    let mut g = b.group("figures");
    g.sample_size(10);
    g.bench_function("table2", || {
        black_box(table2(&cfg()));
    });
    g.bench_function("fig5a_granularity_sweep", || {
        black_box(fig5a(&cfg()));
    });
    g.bench_function("fig5b_overlap_sweep", || {
        black_box(fig5b(&cfg()));
    });
    g.bench_function("fig6a_query_size_sweep", || {
        black_box(fig6a(&cfg()));
    });
    g.bench_function("fig6b_optbound_comparison", || {
        black_box(fig6b(&cfg()));
    });
    g.finish();
}

fn bench_single_points(b: &mut Bench) {
    // The atomic unit behind every figure: scheduling one 40-join query.
    use mrs_baseline::prelude::*;
    use mrs_core::prelude::*;
    use mrs_cost::prelude::*;
    use mrs_workload::prelude::*;

    let q = generate_query(&QueryGenConfig::paper(40), 7);
    let cost = CostModel::paper_defaults();
    let problem = query_problem(&q, &cost);
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.3).unwrap();

    let mut g = b.group("single_query_40_joins");
    for sites in [20usize, 80, 140] {
        let sys = SystemSpec::homogeneous(sites);
        g.bench_batched(
            &format!("tree_schedule_p{sites}"),
            || problem.clone(),
            |p| {
                black_box(tree_schedule(&p, 0.7, &sys, &comm, &model).unwrap());
            },
        );
        g.bench_batched(
            &format!("synchronous_p{sites}"),
            || problem.clone(),
            |p| {
                black_box(synchronous_schedule(&p, &sys, &comm, &model).unwrap());
            },
        );
    }
    g.finish();
}

fn main() {
    let mut b = Bench::from_args();
    bench_figures(&mut b);
    bench_single_points(&mut b);
    b.finish();
}
