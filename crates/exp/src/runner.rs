//! Common experiment executor: schedule generated queries under a chosen
//! algorithm and aggregate response times.

use mrs_baseline::prelude::{
    round_robin_tree_schedule, scalar_tree_schedule, synchronous_schedule,
};
use mrs_core::list::ListOrder;
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::tree::{
    malleable_tree_schedule, tree_schedule, tree_schedule_with, PlanOptions, TreeProblem,
};
use mrs_cost::prelude::{problem_from_plan, CostModel, ScanPlacement};
use mrs_plan::cardinality::KeyJoinMax;
use mrs_workload::gen::GeneratedQuery;

/// The scheduling algorithm under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// TREESCHEDULE with coarse-grain granularity `f`.
    Tree {
        /// Granularity parameter.
        f: f64,
    },
    /// TREESCHEDULE with arbitrary (input-order) packing — ablation X2.
    TreeArbitraryOrder {
        /// Granularity parameter.
        f: f64,
    },
    /// TREESCHEDULE with per-phase malleable degree selection (Sec 7).
    TreeMalleable,
    /// The SYNCHRONOUS one-dimensional baseline.
    Synchronous,
    /// Scalar-load list packing — ablation X1.
    ScalarList {
        /// Granularity parameter.
        f: f64,
    },
    /// Round-robin placement — ablation control.
    RoundRobin {
        /// Granularity parameter.
        f: f64,
    },
}

impl Algo {
    /// Short display label ("TS f=0.7", "SYNC", ...).
    pub fn label(&self) -> String {
        match self {
            Algo::Tree { f } => format!("TS f={f}"),
            Algo::TreeMalleable => "TS-malleable".to_owned(),
            Algo::TreeArbitraryOrder { f } => format!("TS-unord f={f}"),
            Algo::Synchronous => "SYNC".to_owned(),
            Algo::ScalarList { f } => format!("1D-list f={f}"),
            Algo::RoundRobin { f } => format!("RR f={f}"),
        }
    }
}

/// Builds the scheduling problem of a generated query under the paper's
/// cost model (floating base scans; see DESIGN.md).
pub fn query_problem(q: &GeneratedQuery, cost: &CostModel) -> TreeProblem {
    problem_from_plan(
        &q.plan,
        &q.catalog,
        &KeyJoinMax,
        cost,
        &ScanPlacement::Floating,
    )
    .expect("generated plans always assemble")
}

/// Response time of one query under one algorithm.
pub fn query_response(
    q: &GeneratedQuery,
    algo: &Algo,
    sys: &SystemSpec,
    epsilon: f64,
    cost: &CostModel,
) -> f64 {
    let problem = query_problem(q, cost);
    problem_response(&problem, algo, sys, epsilon, cost)
}

/// Response time of an assembled problem under one algorithm.
pub fn problem_response(
    problem: &TreeProblem,
    algo: &Algo,
    sys: &SystemSpec,
    epsilon: f64,
    cost: &CostModel,
) -> f64 {
    let model = OverlapModel::new(epsilon).expect("epsilon validated by caller");
    let comm = cost.params().comm_model();
    match algo {
        Algo::Tree { f } => {
            tree_schedule(problem, *f, sys, &comm, &model)
                .expect("valid problem")
                .response_time
        }
        Algo::TreeArbitraryOrder { f } => {
            let opts = PlanOptions {
                order: ListOrder::Arbitrary,
                ..PlanOptions::default()
            };
            tree_schedule_with(problem, *f, sys, &comm, &model, opts)
                .expect("valid problem")
                .response_time
        }
        Algo::TreeMalleable => {
            malleable_tree_schedule(problem, sys, &comm, &model)
                .expect("valid problem")
                .response_time
        }
        Algo::Synchronous => {
            synchronous_schedule(problem, sys, &comm, &model)
                .expect("valid problem")
                .response_time
        }
        Algo::ScalarList { f } => {
            scalar_tree_schedule(problem, *f, sys, &comm, &model)
                .expect("valid problem")
                .response_time
        }
        Algo::RoundRobin { f } => {
            round_robin_tree_schedule(problem, *f, sys, &comm, &model)
                .expect("valid problem")
                .response_time
        }
    }
}

/// Deterministic parallel map: applies `f` to every item of `items` on up
/// to `jobs` worker threads and returns the results **in input order**.
///
/// This is the engine of the `--jobs` experiment driver. Determinism
/// argument: each item is an independent sweep cell whose computation is
/// internally serial (same summation order as a serial run), workers pull
/// cells from a shared atomic counter, and each result lands in the slot
/// of its input index — so the output vector, and therefore every CSV
/// rendered from it, is byte-identical for any `jobs` value.
///
/// `jobs <= 1` (or fewer than two items) short-circuits to a plain serial
/// map with no thread overhead.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::OnceLock<R>> = (0..items.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let _ = slots[i].set(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled by a worker"))
        .collect()
}

/// Mean response time over a batch of queries.
pub fn mean_response(
    queries: &[GeneratedQuery],
    algo: &Algo,
    sys: &SystemSpec,
    epsilon: f64,
    cost: &CostModel,
) -> f64 {
    assert!(!queries.is_empty(), "cannot average over zero queries");
    let sum: f64 = queries
        .iter()
        .map(|q| query_response(q, algo, sys, epsilon, cost))
        .sum();
    sum / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_workload::gen::{generate_query, QueryGenConfig};

    fn queries(n: usize, joins: usize) -> Vec<GeneratedQuery> {
        (0..n as u64)
            .map(|s| generate_query(&QueryGenConfig::paper(joins), s))
            .collect()
    }

    #[test]
    fn all_algorithms_produce_positive_times() {
        let qs = queries(2, 6);
        let sys = SystemSpec::homogeneous(12);
        let cost = CostModel::paper_defaults();
        for algo in [
            Algo::Tree { f: 0.7 },
            Algo::TreeMalleable,
            Algo::TreeArbitraryOrder { f: 0.7 },
            Algo::Synchronous,
            Algo::ScalarList { f: 0.7 },
            Algo::RoundRobin { f: 0.7 },
        ] {
            let t = mean_response(&qs, &algo, &sys, 0.5, &cost);
            assert!(t > 0.0, "{algo:?} gave {t}");
        }
    }

    #[test]
    fn tree_schedule_beats_synchronous_on_average() {
        // The paper's headline result, in miniature.
        let qs = queries(6, 10);
        let sys = SystemSpec::homogeneous(20);
        let cost = CostModel::paper_defaults();
        let ts = mean_response(&qs, &Algo::Tree { f: 0.7 }, &sys, 0.3, &cost);
        let sync = mean_response(&qs, &Algo::Synchronous, &sys, 0.3, &cost);
        assert!(
            ts < sync,
            "TreeSchedule ({ts:.2}s) should beat Synchronous ({sync:.2}s)"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Algo::Tree { f: 0.7 }.label(), "TS f=0.7");
        assert_eq!(Algo::Synchronous.label(), "SYNC");
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..57).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for jobs in [1, 2, 4, 16] {
            assert_eq!(par_map(jobs, &items, |&x| x * x), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map(4, &[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(4, &[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_matches_serial_on_real_workload() {
        let qs = queries(3, 6);
        let sys = SystemSpec::homogeneous(12);
        let cost = CostModel::paper_defaults();
        let cells: Vec<Algo> = vec![
            Algo::Tree { f: 0.7 },
            Algo::Synchronous,
            Algo::ScalarList { f: 0.7 },
        ];
        let serial = par_map(1, &cells, |a| mean_response(&qs, a, &sys, 0.5, &cost));
        let parallel = par_map(4, &cells, |a| mean_response(&qs, a, &sys, 0.5, &cost));
        assert_eq!(serial, parallel, "bit-identical across jobs");
    }
}
