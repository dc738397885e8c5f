//! The online-serving harness every served stream shares.
//!
//! X12–X16, the `audit` runtime families, `mrs-repro serve`, the runtime
//! benches and the serving tests and examples all set a stream up the
//! same way: measure the mean standalone TreeSchedule response `R̄` over
//! a plan list, fix Poisson arrivals at `λ = load · MPL / R̄`, scale the
//! recovery config and the seeded crash schedule to `R̄`, then submit the
//! stream and run it. This module is that set-up, written once; each
//! caller keeps its own plans, seeds, loads and recovery values.
//!
//! Query `i` of a stream arrives at `arrivals[i]` from client
//! `i % CLIENTS`; a stream is as long as the shorter of its plan and
//! arrival lists.

use crate::runner::query_problem;
use mrs_core::comm::CommModel;
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::rng::DetRng;
use mrs_core::tree::{tree_schedule, TreeProblem};
use mrs_cost::prelude::CostModel;
use mrs_runtime::prelude::{RecoveryConfig, RunSummary, Runtime, RuntimeConfig};
use mrs_sim::fault::FaultPlan;
use mrs_workload::prelude::{
    chain_query, generate_query, overlap_batch, poisson_arrivals, star_query, QueryGenConfig,
};

/// Submitting clients a stream cycles over.
pub const CLIENTS: usize = 3;
/// Salt turning a stream seed into its arrival-process seed.
pub const ARRIVALS: u64 = 0xA11C_E5ED;
/// Salt turning a stream seed into its crash-schedule seed.
pub const FAULTS: u64 = 0x0FA7_0FA7;

/// The paper machine a stream is served on — `P` sites, Table 2 costs,
/// `ε = 0.5`, `f = 0.7` — with `R̄` calibrated over a plan list.
#[derive(Clone, Debug)]
pub struct Harness {
    /// The machine.
    pub sys: SystemSpec,
    /// Communication model of the Table 2 cost parameters.
    pub comm: CommModel,
    /// Resource-overlap model (`ε = 0.5`).
    pub model: OverlapModel,
    /// Coarse-grain parameter the plans are scheduled with.
    pub f: f64,
    /// `R̄`: the mean standalone TreeSchedule response of the
    /// calibration plans.
    pub mean_standalone: f64,
}

impl Harness {
    /// The paper machine with `sites` sites, `R̄` measured over `plans`
    /// (summed in list order).
    pub fn calibrate(sites: usize, plans: &[TreeProblem]) -> Self {
        let comm = CostModel::paper_defaults().params().comm_model();
        let model = OverlapModel::new(0.5).expect("paper epsilon is valid");
        let sys = SystemSpec::homogeneous(sites);
        let f = 0.7;
        let mean_standalone = plans
            .iter()
            .map(|p| {
                tree_schedule(p, f, &sys, &comm, &model)
                    .expect("stream plans always schedule")
                    .response_time
            })
            .sum::<f64>()
            / plans.len() as f64;
        Harness {
            sys,
            comm,
            model,
            f,
            mean_standalone,
        }
    }

    /// `λ = load · mpl / R̄`: an offered load of `load` relative to what
    /// `mpl` concurrent queries of response `R̄` could serve.
    pub fn rate(&self, load: f64, mpl: usize) -> f64 {
        load * mpl as f64 / self.mean_standalone
    }

    /// `n` Poisson arrivals at `rate`, seeded `seed ^ ARRIVALS`.
    pub fn poisson(&self, rate: f64, n: usize, seed: u64) -> Vec<f64> {
        poisson_arrivals(rate, n, seed ^ ARRIVALS)
    }

    /// The `R̄`-scaled recovery stack: 10% rebuild surcharge,
    /// `max_retries` retries backing off from `0.1·R̄` capped at `2·R̄`,
    /// shedding below 25% alive sites.
    pub fn recovery(&self, max_retries: u32) -> RecoveryConfig {
        RecoveryConfig {
            rebuild_factor: 0.1,
            max_retries,
            backoff_base: 0.1 * self.mean_standalone,
            backoff_cap: 2.0 * self.mean_standalone,
            degrade_threshold: 0.25,
        }
    }

    /// Seeded crash/recover renewal schedule over every site up to
    /// `horizon` (seed `seed ^ FAULTS`); `mtbf = 0` means no faults.
    pub fn faults(&self, horizon: f64, mtbf: f64, mttr: f64, seed: u64) -> FaultPlan {
        if mtbf > 0.0 {
            FaultPlan::seeded(self.sys.sites, horizon, mtbf, mttr, seed ^ FAULTS)
        } else {
            FaultPlan::none()
        }
    }

    /// A runtime on this machine with the stream submitted, ready to run.
    pub fn runtime(
        &self,
        cfg: RuntimeConfig,
        plans: &[TreeProblem],
        arrivals: &[f64],
    ) -> Runtime<OverlapModel> {
        let rt = Runtime::new(self.sys.clone(), self.comm, self.model, cfg);
        submit(rt, plans, arrivals)
    }

    /// Serves the stream to completion.
    pub fn serve(&self, cfg: RuntimeConfig, plans: &[TreeProblem], arrivals: &[f64]) -> RunSummary {
        self.runtime(cfg, plans, arrivals)
            .run_to_completion()
            .expect("stream plans always schedule")
    }
}

/// Submits query `i` (`plans[i]` at `arrivals[i]`, client `i % CLIENTS`)
/// to `rt` and hands it back ready to run.
pub fn submit(
    mut rt: Runtime<OverlapModel>,
    plans: &[TreeProblem],
    arrivals: &[f64],
) -> Runtime<OverlapModel> {
    for (i, (p, t)) in plans.iter().zip(arrivals).enumerate() {
        rt.submit_at(*t, i % CLIENTS, p.clone());
    }
    rt
}

/// `n` plans cycling through `templates` (a recurring-template stream).
pub fn cycled(templates: &[TreeProblem], n: usize) -> Vec<TreeProblem> {
    (0..n)
        .map(|i| templates[i % templates.len()].clone())
        .collect()
}

/// `n` arrivals `gap` apart, from time zero.
pub fn spaced(n: usize, gap: f64) -> Vec<f64> {
    (0..n).map(|i| gap * i as f64).collect()
}

/// The X12 stream: a deterministic mix of bushy (random), star and
/// linear (chain) plans, in that rotation.
pub fn mixed_stream(n: usize, seed: u64) -> Vec<TreeProblem> {
    let cost = CostModel::paper_defaults();
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let q = match i % 3 {
                0 => {
                    let joins = rng.gen_range(6..=14usize);
                    generate_query(
                        &QueryGenConfig::paper(joins),
                        rng.gen_range(0..1_000_000u64),
                    )
                }
                1 => {
                    let dims: Vec<f64> = (0..rng.gen_range(4..=8usize))
                        .map(|_| rng.gen_range(1.0e3..5.0e4))
                        .collect();
                    star_query(rng.gen_range(2.0e4..1.0e5), &dims)
                }
                _ => {
                    let sizes: Vec<f64> = (0..rng.gen_range(5..=10usize))
                        .map(|_| rng.gen_range(1.0e3..1.0e5))
                        .collect();
                    chain_query(&sizes)
                }
            };
            query_problem(&q, &cost)
        })
        .collect()
}

/// The X16 stream: `batches` overlap-templated batches of `window`
/// `joins`-join queries each, flattened in arrival order. Each batch
/// draws a fresh core (seed offset by the batch index), so sharing is
/// within-batch by construction.
pub fn overlap_stream(
    joins: usize,
    overlap: f64,
    window: usize,
    batches: usize,
    seed: u64,
) -> Vec<TreeProblem> {
    let cost = CostModel::paper_defaults();
    let gen_cfg = QueryGenConfig::paper(joins);
    (0..batches)
        .flat_map(|b| {
            overlap_batch(
                &gen_cfg,
                overlap,
                window,
                seed ^ (b as u64).wrapping_mul(0xB10C),
            )
        })
        .map(|q| query_problem(&q, &cost))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_as_long_as_their_shorter_list() {
        let plans = mixed_stream(4, 7);
        let h = Harness::calibrate(8, &plans);
        assert!(h.mean_standalone > 0.0);
        let arrivals = h.poisson(h.rate(1.5, 4), 3, 7);
        let summary = h.serve(RuntimeConfig::default(), &plans, &arrivals);
        let clients: Vec<usize> = summary.queries.iter().map(|q| q.client).collect();
        assert_eq!(clients, [0, 1, 2]);
        assert_eq!(summary.completed(), 3);
    }

    #[test]
    fn zero_mtbf_means_no_faults() {
        let h = Harness::calibrate(8, &mixed_stream(3, 7));
        let r = h.mean_standalone;
        assert!(h.faults(60.0 * r, 0.0, 0.3 * r, 7).is_empty());
        assert!(!h.faults(60.0 * r, r, 0.3 * r, 7).is_empty());
    }
}
