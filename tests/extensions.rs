//! Cross-crate integration tests for the beyond-the-paper extensions:
//! unary plan operators, the join-order optimizer, memory capacities,
//! pipelined simulation, and shelf policies — exercised together, through
//! the public facade.

use mdrs::prelude::*;
use mrs_core::memory::{operator_schedule_with_memory, MemoryDemand, MemorySpec};

fn scheduling_env(sites: usize) -> (SystemSpec, CommModel, OverlapModel, CostModel) {
    (
        SystemSpec::homogeneous(sites),
        CommModel::paper_defaults(),
        OverlapModel::new(0.5).unwrap(),
        CostModel::paper_defaults(),
    )
}

#[test]
fn optimizer_plans_schedule_end_to_end() {
    let (sys, comm, model, cost) = scheduling_env(16);
    let q = generate_query(&QueryGenConfig::paper(10), 77);
    for plan in [
        optimize_greedy(&q.catalog, &q.graph_edges, &KeyJoinMax).unwrap(),
        optimize_dp(&q.catalog, &q.graph_edges, &KeyJoinMax).unwrap(),
    ] {
        let problem = problem_from_plan(
            &plan,
            &q.catalog,
            &KeyJoinMax,
            &cost,
            &ScanPlacement::Floating,
        )
        .unwrap();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        assert!(r.response_time > 0.0);
        for p in &r.phases {
            p.schedule.validate(&sys).unwrap();
        }
    }
}

#[test]
fn aggregated_and_sorted_plans_simulate_correctly() {
    let (sys, _, model, cost) = scheduling_env(12);
    let comm = cost.params().comm_model();
    let q = generate_query(&QueryGenConfig::paper(8), 3);
    for kind in [
        UnaryKind::HashAggregate {
            output_fraction: 0.1,
        },
        UnaryKind::Sort,
    ] {
        let plan = q.plan.with_unary_root(kind);
        let problem = problem_from_plan(
            &plan,
            &q.catalog,
            &KeyJoinMax,
            &cost,
            &ScanPlacement::Floating,
        )
        .unwrap();
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        // The fluid simulator agrees with the analytic model for unary
        // operators too.
        let sim = simulate_tree(&r, &sys, &model, &SimConfig::default());
        assert!((sim - r.response_time).abs() <= 1e-9 * r.response_time);
        // The unary operator runs in the last phase, alone at the top.
        let last = r.phases.last().unwrap();
        assert_eq!(last.level, 0);
        assert!(last
            .schedule
            .ops
            .iter()
            .any(|o| matches!(o.spec.kind, OperatorKind::Aggregate | OperatorKind::Sort)));
    }
}

#[test]
fn shelf_policies_agree_on_shape_constraints() {
    use mrs_core::tree::{tree_schedule_with, PhasePolicy, PlanOptions};
    let (sys, _, model, cost) = scheduling_env(24);
    let comm = cost.params().comm_model();
    for seed in 0..4u64 {
        let q = generate_query(&QueryGenConfig::paper(14), 900 + seed);
        let problem = problem_from_plan(
            &q.plan,
            &q.catalog,
            &KeyJoinMax,
            &cost,
            &ScanPlacement::Floating,
        )
        .unwrap();
        for policy in [PhasePolicy::Alap, PhasePolicy::Asap] {
            let opts = PlanOptions {
                policy,
                ..PlanOptions::default()
            };
            let r = tree_schedule_with(&problem, 0.7, &sys, &comm, &model, opts).unwrap();
            // Same shelf count either way; all bindings honoured.
            assert_eq!(r.phases.len(), problem.tasks.height() + 1);
            for b in &problem.bindings {
                assert_eq!(
                    r.homes_of(b.dependent).unwrap(),
                    r.homes_of(b.source).unwrap(),
                    "policy {policy:?} broke a binding"
                );
            }
        }
    }
}

#[test]
fn memory_constrained_schedule_simulates() {
    let (sys, comm, model, _) = scheduling_env(10);
    // Builds with resident tables, scheduled under memory, then run
    // through the simulator: the whole chain composes.
    let ops: Vec<OperatorSpec> = (0..5)
        .map(|i| {
            OperatorSpec::floating(
                OperatorId(i),
                OperatorKind::Build,
                WorkVector::from_slice(&[1.0 + i as f64, 0.5, 0.0]),
                250_000.0,
            )
        })
        .collect();
    let demands: Vec<MemoryDemand> = (0..5)
        .map(|i| MemoryDemand::bytes(1e6 * (1 + i) as f64))
        .collect();
    let r = operator_schedule_with_memory(
        ops,
        &demands,
        MemorySpec::new(2e6).unwrap(),
        0.7,
        &sys,
        &comm,
        &model,
    )
    .unwrap();
    let analytic = r.schedule.makespan(&sys, &model);
    let sim = simulate_phase(&r.schedule, &sys, &model, &SimConfig::default());
    assert!((sim.makespan - analytic).abs() <= 1e-9 * analytic.max(1.0));
}

#[test]
fn structured_shapes_compose_with_everything() {
    let (sys, _, model, cost) = scheduling_env(12);
    let comm = cost.params().comm_model();
    // A star query with a final aggregation, planned by the DP optimizer,
    // scheduled, and simulated.
    let star = star_query(8e4, &[1e3, 3e3, 6e2, 2e3]);
    let optimized = optimize_dp(&star.catalog, &star.graph_edges, &KeyJoinMax)
        .unwrap()
        .with_unary_root(UnaryKind::HashAggregate {
            output_fraction: 0.05,
        });
    let problem = problem_from_plan(
        &optimized,
        &star.catalog,
        &KeyJoinMax,
        &cost,
        &ScanPlacement::Floating,
    )
    .unwrap();
    let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    let sim = simulate_tree(&r, &sys, &model, &SimConfig::default());
    assert!((sim - r.response_time).abs() <= 1e-9 * r.response_time);
    // And the OPTBOUND lower bound still holds.
    let bound = opt_bound(&problem, 0.7, &sys, &comm, &model);
    assert!(bound <= r.response_time + 1e-9);
}

#[test]
fn pipelined_simulation_brackets_queries_with_aggregates() {
    let (sys, _, model, cost) = scheduling_env(16);
    let comm = cost.params().comm_model();
    let q = generate_query(&QueryGenConfig::paper(10), 44);
    let plan = q.plan.with_unary_root(UnaryKind::Sort);
    let annotated = plan.annotate(&q.catalog, &KeyJoinMax);
    let optree = OperatorTree::expand(&annotated);
    let edges: Vec<_> = optree.pipeline_edges().collect();
    let problem = problem_from_optree(&optree, &cost, &ScanPlacement::Floating).unwrap();
    let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    for phase in &r.phases {
        let free = simulate_phase(&phase.schedule, &sys, &model, &SimConfig::default()).makespan;
        let tight =
            simulate_phase_pipelined(&phase.schedule, &edges, &sys, &model, &SimConfig::default())
                .makespan;
        assert!(tight + 1e-9 * tight.max(1.0) >= free);
    }
}
