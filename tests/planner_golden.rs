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
