//! Golden digest of the cold TreeSchedule: a fixed set of generated plans
//! must keep producing exactly the same phases, degrees, clone vectors,
//! homes and response times. Any change to the planner's arithmetic or
//! tie-breaking moves the digest, so a speed-up that claims "same plans"
//! is checked here without running the serving benchmark.

use mdrs::prelude::*;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(result: &TreeScheduleResult, h: &mut Fnv) {
    h.f64(result.response_time);
    h.usize(result.phases.len());
    for phase in &result.phases {
        h.usize(phase.level);
        h.f64(phase.makespan);
        h.usize(phase.schedule.ops.len());
        for (op, homes) in phase
            .schedule
            .ops
            .iter()
            .zip(&phase.schedule.assignment.homes)
        {
            h.usize(op.spec.id.0);
            h.usize(op.degree);
            for w in &op.clones {
                for &c in w.components() {
                    h.f64(c);
                }
            }
            for site in homes {
                h.usize(site.0);
            }
        }
    }
}

/// 64 generated plans of 6–14 joins (spread evenly, as the serving
/// benchmark's distinct streams), planned cold at P = 140, f = 0.7,
/// ε = 0.5 with the paper's cost constants.
#[test]
fn cold_tree_schedules_match_the_golden_digest() {
    const PLANS: usize = 64;
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(140);
    let mut rng = DetRng::seed_from_u64(1996);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for k in 0..PLANS {
        let joins = 6 + k * 9 / PLANS;
        let q = generate_query(&QueryGenConfig::paper(joins), rng.next_u64());
        let problem = query_problem(&q, &cost);
        let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        digest(&result, &mut h);
    }
    assert_eq!(
        h.0, 0xb15c_4e55_3886_6e05,
        "cold TreeSchedule output changed: digest {:#018x}",
        h.0
    );
}

/// Three `mqo_overload`-shaped windows (six 10-join queries sharing a
/// 9-join core, overlap 0.9) planned by the shared planner through one
/// fragment memo, uncapped and at the governed cap 17, at P = 140,
/// f = 0.7, ε = 0.5. The digest folds every plan, every call's sharing
/// counters and every canonical subtree-signature word, so it pins the
/// splice/insert pattern and the signature encoding as well as the
/// schedules themselves.
#[test]
fn shared_window_plans_match_the_golden_digest() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(140);
    let mut memo = MapFragmentCache::new();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for cap in [None, Some(17)] {
        let mut hits = 0;
        for seed in [1996u64, 7, 40_971] {
            for q in overlap_batch(&QueryGenConfig::paper(10), 0.9, 6, seed) {
                let problem = query_problem(&q, &cost);
                for sig in subtree_signatures(&problem, 0.7, cap).unwrap() {
                    h.usize(sig.words().len());
                    sig.words().iter().for_each(|&w| h.u64(w));
                }
                let (result, stats) =
                    tree_schedule_shared(&problem, 0.7, &sys, &comm, &model, cap, &mut memo)
                        .unwrap();
                digest(&result, &mut h);
                h.u64(stats.subtree_hits);
                h.u64(stats.subtree_misses);
                h.u64(stats.fragments_spliced);
                h.u64(stats.tasks_planned);
                hits += stats.subtree_hits;
            }
        }
        assert!(hits > 0, "cap {cap:?}: the windows never spliced");
    }
    assert_eq!(
        h.0, 0xc8d6_953a_ec45_d911,
        "shared planner output changed: digest {:#018x}",
        h.0
    );
}

/// Every phased planner over one set of 16 generated plans of 6–14
/// joins at P = 140, f = 0.7, ε = 0.5 with the paper's cost constants,
/// each folded into its own digest: `tree_schedule_with` at three
/// option sets (list order, shelf policy, governed cap), the malleable
/// TreeSchedule, the scalar-load and round-robin baselines and
/// SYNCHRONOUS. They share the shelf loop, the probe ← build bindings
/// and the coarse degree rule, so this pins each one's plans through
/// any change to that shared machinery.
#[test]
fn phased_planners_match_the_golden_digests() {
    const PLANS: usize = 16;
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let sys = SystemSpec::homogeneous(140);
    let mut rng = DetRng::seed_from_u64(1996);
    let problems: Vec<TreeProblem> = (0..PLANS)
        .map(|k| {
            let joins = 6 + k * 9 / PLANS;
            let q = generate_query(&QueryGenConfig::paper(joins), rng.next_u64());
            query_problem(&q, &cost)
        })
        .collect();
    let fold = |plan: &dyn Fn(&TreeProblem) -> TreeScheduleResult| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for problem in &problems {
            digest(&plan(problem), &mut h);
        }
        h.0
    };
    let with = |order, policy, cap| {
        let opts = PlanOptions { order, policy, cap };
        fold(&|p| tree_schedule_with(p, 0.7, &sys, &comm, &model, opts).unwrap())
    };
    let digests = [
        with(ListOrder::Arbitrary, PhasePolicy::Alap, None),
        with(ListOrder::LongestFirst, PhasePolicy::Asap, None),
        with(ListOrder::LongestFirst, PhasePolicy::Alap, Some(17)),
        fold(&|p| malleable_tree_schedule(p, &sys, &comm, &model).unwrap()),
        fold(&|p| scalar_tree_schedule(p, 0.7, &sys, &comm, &model).unwrap()),
        fold(&|p| round_robin_tree_schedule(p, 0.7, &sys, &comm, &model).unwrap()),
        fold(&|p| {
            synchronous_schedule(p, &sys, &comm, &model)
                .unwrap()
                .to_tree_result()
        }),
    ];
    assert_eq!(
        digests,
        [
            0x8a1f_6757_b8ed_9b05,
            0x8039_c4ed_2c55_8937,
            0xd334_bbf9_1301_d6b4,
            0xf53e_9af3_b766_68dc,
            0xbb83_76d2_7bc1_ee03,
            0x6a76_8041_758c_9a17,
            0xf8db_e668_05c5_3a99,
        ],
        "a phased planner's output changed: digests {digests:#018x?}"
    );
}

/// Every task-tree level of 20 generated 10-join queries as one phase
/// (106 phases), with its operators renumbered densely and each hash
/// table build demanding `in_tuples × tuple_bytes` of memory, under the
/// paper's cost constants.
fn level_phases() -> Vec<(Vec<OperatorSpec>, Vec<MemoryDemand>)> {
    let cost = CostModel::paper_defaults();
    let mut phases = Vec::new();
    for q in &suite(10, 20, 1996).queries {
        let optree = OperatorTree::expand(&q.plan.annotate(&q.catalog, &KeyJoinMax));
        let problem = query_problem(q, &cost);
        for level in 0..=problem.tasks.height() {
            let (specs, demands) = problem
                .tasks
                .ops_at_level(level)
                .into_iter()
                .enumerate()
                .map(|(dense, id)| {
                    let mut spec = problem.ops[id.0].clone();
                    spec.id = OperatorId(dense);
                    let demand = match &optree.node(id).detail {
                        OpDetail::Build { in_tuples, .. } => {
                            MemoryDemand::bytes(in_tuples * cost.params().tuple_bytes)
                        }
                        _ => MemoryDemand::ZERO,
                    };
                    (spec, demand)
                })
                .unzip();
            phases.push((specs, demands));
        }
    }
    phases
}

/// OPERATORSCHEDULE on its own and under per-site memory capacities:
/// every level phase of [`level_phases`] at P = 13 and P = 40 (212
/// phase plans), f = 0.7,
/// ε = 0.5, through `operator_schedule` (fold A) and through
/// `operator_schedule_with_memory` at 4, 1, 0.25 and 0.1 MB per site
/// (fold B, which also folds each failure's message). Pins both packers'
/// degrees, homes and residual memory bit for bit, and the split of the
/// memory planner's outcomes.
#[test]
fn operator_schedules_match_the_golden_digests() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(0.5).unwrap();
    let phases = level_phases();
    assert_eq!(phases.len(), 106);
    let mut a = Fnv(0xcbf2_9ce4_8422_2325);
    let mut b = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut ok, mut packing_failed, mut too_large) = (0, 0, 0);
    for sites in [13, 40] {
        let sys = SystemSpec::homogeneous(sites);
        for (specs, _) in &phases {
            let s = operator_schedule(specs.clone(), 0.7, &sys, &comm, &model).unwrap();
            a.f64(s.makespan(&sys, &model));
            for (op, homes) in s.ops.iter().zip(&s.assignment.homes) {
                a.usize(op.degree);
                homes.iter().for_each(|site| a.usize(site.0));
            }
        }
        for mb in [4.0, 1.0, 0.25, 0.1] {
            let memory = MemorySpec::new(mb * 1e6).unwrap();
            for (specs, demands) in &phases {
                match operator_schedule_with_memory(
                    specs.clone(),
                    demands,
                    memory,
                    0.7,
                    &sys,
                    &comm,
                    &model,
                ) {
                    Ok(r) => {
                        ok += 1;
                        b.f64(r.schedule.makespan(&sys, &model));
                        for homes in &r.schedule.assignment.homes {
                            homes.iter().for_each(|site| b.usize(site.0));
                        }
                        r.degrees.iter().for_each(|&n| b.usize(n));
                        r.free_bytes.iter().for_each(|&free| b.f64(free));
                    }
                    Err(e) => {
                        match e {
                            MemoryError::PackingFailed { .. } => packing_failed += 1,
                            MemoryError::OperatorTooLarge { .. } => too_large += 1,
                            MemoryError::Schedule(e) => panic!("unexpected failure: {e}"),
                        }
                        e.to_string().bytes().for_each(|c| b.u64(u64::from(c)));
                    }
                }
            }
        }
    }
    assert_eq!(
        (a.0, b.0),
        (0xfe21_bed9_c031_9805, 0xf191_a6c3_66e3_f6d0),
        "an OPERATORSCHEDULE planner's output changed: digests {:#018x?}",
        (a.0, b.0)
    );
    assert_eq!((ok, packing_failed, too_large), (557, 51, 240));
}
