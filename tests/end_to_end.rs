//! End-to-end integration: random workloads through plan expansion, cost
//! derivation, and every scheduler in the workspace.

use mdrs::prelude::*;

fn assemble(joins: usize, seed: u64) -> (GeneratedQuery, TreeProblem, CostModel) {
    let q = generate_query(&QueryGenConfig::paper(joins), seed);
    let cost = CostModel::paper_defaults();
    let problem = problem_from_plan(
        &q.plan,
        &q.catalog,
        &KeyJoinMax,
        &cost,
        &ScanPlacement::Floating,
    )
    .unwrap();
    (q, problem, cost)
}

#[test]
fn operator_count_matches_join_count() {
    for joins in [1usize, 5, 15, 30] {
        let (_, problem, _) = assemble(joins, 1);
        // J joins → 2J (build+probe) + (J+1) scans.
        assert_eq!(problem.ops.len(), 3 * joins + 1);
        assert_eq!(problem.bindings.len(), joins);
    }
}

#[test]
fn tree_schedule_produces_valid_phases_across_sizes() {
    let model = OverlapModel::new(0.5).unwrap();
    for (joins, sites) in [(5usize, 4usize), (10, 20), (25, 60), (40, 140)] {
        let (_, problem, cost) = assemble(joins, joins as u64);
        let sys = SystemSpec::homogeneous(sites);
        let comm = cost.params().comm_model();
        let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        assert!(result.response_time > 0.0);
        for phase in &result.phases {
            phase.schedule.validate(&sys).unwrap();
        }
        // Every operator scheduled exactly once.
        let scheduled: usize = result.phases.iter().map(|p| p.schedule.ops.len()).sum();
        assert_eq!(scheduled, problem.ops.len());
    }
}

#[test]
fn probe_homes_always_match_build_homes() {
    let model = OverlapModel::new(0.3).unwrap();
    let (_, problem, cost) = assemble(20, 99);
    let sys = SystemSpec::homogeneous(32);
    let comm = cost.params().comm_model();
    let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    for binding in &problem.bindings {
        let probe = result.homes_of(binding.dependent).expect("probe scheduled");
        let build = result.homes_of(binding.source).expect("build scheduled");
        assert_eq!(probe, build, "binding violated for {}", binding.dependent);
    }
}

#[test]
fn every_scheduler_beats_serial_execution() {
    let model = OverlapModel::new(0.5).unwrap();
    let (_, problem, cost) = assemble(12, 5);
    let sys = SystemSpec::homogeneous(24);
    let comm = cost.params().comm_model();
    // Serial: every operator alone on one site, all phases summed.
    let serial: f64 = problem
        .ops
        .iter()
        .map(|o| t_par(o, 1, &comm, &sys.site, &model))
        .sum();

    let ts = tree_schedule(&problem, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let sync = synchronous_schedule(&problem, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let scalar = scalar_tree_schedule(&problem, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let rr = round_robin_tree_schedule(&problem, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    for (name, t) in [("TS", ts), ("SYNC", sync), ("1D", scalar), ("RR", rr)] {
        assert!(
            t < serial,
            "{name} ({t:.2}s) should beat serial execution ({serial:.2}s)"
        );
    }
}

#[test]
fn tree_schedule_wins_on_the_paper_workload() {
    // The headline comparison over a small version of the paper's suite.
    let model = OverlapModel::new(0.3).unwrap();
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(40);
    let s = suite(20, 8, 2024);
    let (mut ts_total, mut sync_total) = (0.0f64, 0.0f64);
    for q in &s.queries {
        let problem = problem_from_plan(
            &q.plan,
            &q.catalog,
            &KeyJoinMax,
            &cost,
            &ScanPlacement::Floating,
        )
        .unwrap();
        ts_total += tree_schedule(&problem, 0.7, &sys, &comm, &model)
            .unwrap()
            .response_time;
        sync_total += synchronous_schedule(&problem, &sys, &comm, &model)
            .unwrap()
            .response_time;
    }
    assert!(
        ts_total < sync_total,
        "TreeSchedule ({ts_total:.1}s) must beat Synchronous ({sync_total:.1}s) on average"
    );
}

#[test]
fn opt_bound_below_every_algorithm() {
    let model = OverlapModel::new(0.5).unwrap();
    for seed in 0..6u64 {
        let (_, problem, cost) = assemble(10, seed);
        let sys = SystemSpec::homogeneous(16);
        let comm = cost.params().comm_model();
        let f = 0.7;
        let bound = opt_bound(&problem, f, &sys, &comm, &model);
        let ts = tree_schedule(&problem, f, &sys, &comm, &model)
            .unwrap()
            .response_time;
        let sync = synchronous_schedule(&problem, &sys, &comm, &model)
            .unwrap()
            .response_time;
        assert!(
            bound <= ts + 1e-9,
            "seed {seed}: OPTBOUND {bound} > TS {ts}"
        );
        assert!(
            bound <= sync + 1e-9,
            "seed {seed}: OPTBOUND {bound} > SYNC {sync}"
        );
    }
}

#[test]
fn rooted_scan_placement_round_trips() {
    let q = generate_query(&QueryGenConfig::paper(8), 3);
    let cost = CostModel::paper_defaults();
    let sys = SystemSpec::homogeneous(12);
    let problem = problem_from_plan(
        &q.plan,
        &q.catalog,
        &KeyJoinMax,
        &cost,
        &ScanPlacement::RoundRobin {
            degree: 3,
            sites: 12,
        },
    )
    .unwrap();
    let model = OverlapModel::new(0.5).unwrap();
    let comm = cost.params().comm_model();
    let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    // Every rooted scan ended up exactly at its required homes.
    for op in &problem.ops {
        if let Some(required) = op.rooted_homes() {
            assert_eq!(result.homes_of(op.id).unwrap(), required);
        }
    }
}

#[test]
fn single_site_system_degenerates_gracefully() {
    let model = OverlapModel::new(0.5).unwrap();
    let (_, problem, cost) = assemble(5, 8);
    let sys = SystemSpec::homogeneous(1);
    let comm = cost.params().comm_model();
    let ts = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    let sync = synchronous_schedule(&problem, &sys, &comm, &model).unwrap();
    // Everything runs serially on the lone site; both algorithms validate.
    for p in &ts.phases {
        for op in &p.schedule.ops {
            assert_eq!(op.degree, 1);
        }
    }
    assert!(ts.response_time > 0.0);
    assert!(sync.response_time > 0.0);
}

#[test]
fn scan_only_query_schedules() {
    let mut catalog = Catalog::new();
    let r = catalog.add_relation("solo", 50_000.0);
    let plan = PlanTree::scan_only(r);
    let cost = CostModel::paper_defaults();
    let problem = problem_from_plan(
        &plan,
        &catalog,
        &KeyJoinMax,
        &cost,
        &ScanPlacement::Floating,
    )
    .unwrap();
    let sys = SystemSpec::homogeneous(8);
    let model = OverlapModel::new(0.5).unwrap();
    let comm = cost.params().comm_model();
    let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    assert_eq!(result.phases.len(), 1);
    assert_eq!(result.phases[0].schedule.ops.len(), 1);
}

/// Footprint guard for memoized plans: the 64 cold plans of
/// `planner_golden.rs` (6–14 joins, P = 140) store every EA1 operator's
/// clone work as at most two vectors, the coordinator and the shared
/// `1/N` share, however many clones it has.
#[test]
fn cold_plans_store_at_most_two_work_vectors_per_operator() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(140);
    let mut rng = DetRng::seed_from_u64(1996);
    let (mut clones, mut stored) = (0usize, 0usize);
    for k in 0..64 {
        let joins = 6 + k * 9 / 64;
        let q = generate_query(&QueryGenConfig::paper(joins), rng.next_u64());
        let problem = query_problem(&q, &cost);
        let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        for op in result.phases.iter().flat_map(|p| &p.schedule.ops) {
            let runs = op.clones.runs().len();
            assert!(
                runs <= 2 && op.clones.len() == op.degree,
                "plan {k}: {:?} at degree {} stores {runs} vectors",
                op.spec.id,
                op.degree
            );
            clones += op.degree;
            stored += runs;
        }
    }
    assert!(
        clones > 10 * stored,
        "{clones} clones in {stored} stored vectors"
    );
}
