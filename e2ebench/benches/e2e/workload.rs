//! The benchmark's four serving workloads, generated from a seed.
//!
//! Every workload serves generated query streams on the same machine:
//! P = 140 homogeneous sites, MPL 4, f = 0.7, ε = 0.5, FCFS admission,
//! clients `i % 3`, and the recovery settings of `mrs-repro serve`.
//! Arrivals are Poisson in virtual time at λ = ρ·MPL / (mean standalone
//! TreeSchedule response of the workload's distinct plans), fixed before
//! the run: the load is an open loop in virtual time, and latency counts
//! from the due arrival.
//!
//! A seed makes several independent streams. Each run serves one of
//! them, so one seed's run times do not hang on one stream's plan mix,
//! and the virtual metrics pool every stream of their fixed seed.

use mrs_core::comm::CommModel;
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::rng::DetRng;
use mrs_core::tree::{tree_schedule, TreeProblem, TreeScheduleResult};
use mrs_cost::prelude::CostModel;
use mrs_exp::prelude::query_problem;
use mrs_runtime::prelude::{
    ControllerConfig, RecoveryConfig, RunSummary, Runtime, RuntimeConfig, RuntimeError,
};
use mrs_sim::fault::FaultPlan;
use mrs_workload::prelude::{generate_query, overlap_batch, poisson_arrivals, QueryGenConfig};

/// Homogeneous sites.
pub const SITES: usize = 140;
/// Multiprogramming level.
pub const MPL: usize = 4;
/// TreeSchedule granularity.
pub const F: f64 = 0.7;
/// Resource overlap of the response-time model.
pub const EPSILON: f64 = 0.5;
/// Queries per stream.
pub const QUERIES: usize = 200;
/// Recurring templates of a templated stream.
const TEMPLATES: usize = 12;
/// MQO window: overlap batches are generated and admitted in sixes.
const WINDOW: usize = 6;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Recurring templates below the knee: the whole-plan cache works.
    TemplatedSteady,
    /// All-distinct queries at the same load: every admission plans cold.
    DistinctSteady,
    /// The templated streams under site crashes on two shards.
    FaultsSharded,
    /// Overlapping MQO windows past the knee, sharing and controller on.
    MqoOverload,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::TemplatedSteady,
        Workload::DistinctSteady,
        Workload::FaultsSharded,
        Workload::MqoOverload,
    ];

    /// The name the command line and the output use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TemplatedSteady => "templated_steady",
            Workload::DistinctSteady => "distinct_steady",
            Workload::FaultsSharded => "faults_sharded",
            Workload::MqoOverload => "mqo_overload",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shard executors the workload's runs use.
    pub fn shards(self) -> usize {
        match self {
            Workload::FaultsSharded => 2,
            _ => 1,
        }
    }

    /// Independent streams a seed makes. Pooling them keeps one stream's
    /// plan mix and arrival bursts from moving the metrics; the
    /// all-distinct workloads plan every query at set-up, so they stop at
    /// 16 streams to bound set-up time.
    pub fn streams(self) -> usize {
        match self {
            Workload::TemplatedSteady | Workload::FaultsSharded => 32,
            Workload::DistinctSteady | Workload::MqoOverload => 16,
        }
    }

    /// Offered load ρ: arrivals per mean standalone response, per MPL slot.
    fn rho(self) -> f64 {
        match self {
            Workload::MqoOverload => 4.0,
            _ => 0.25,
        }
    }
}

/// The machine and models every workload runs on.
pub fn system() -> (SystemSpec, CommModel, OverlapModel) {
    let cost = CostModel::paper_defaults();
    let model = OverlapModel::new(EPSILON).expect("ε = 0.5 lies in [0, 1]");
    (
        SystemSpec::homogeneous(SITES),
        cost.params().comm_model(),
        model,
    )
}

/// One generated query stream: its distinct plans and, per query, the
/// index of the plan it submits.
pub struct Stream {
    /// Seed of this stream's arrivals and faults.
    pub seed: u64,
    /// Distinct plans of the stream.
    pub plans: Vec<TreeProblem>,
    /// `order[i]` = the plan query `i` submits.
    pub order: Vec<usize>,
}

/// Generates `workload`'s streams from `seed`: `streams` streams of
/// `queries` queries each.
pub fn streams(workload: Workload, seed: u64, streams: usize, queries: usize) -> Vec<Stream> {
    let mut seeds = DetRng::seed_from_u64(seed);
    (0..streams)
        .map(|_| one_stream(workload, seeds.next_u64(), queries))
        .collect()
}

fn one_stream(workload: Workload, seed: u64, queries: usize) -> Stream {
    let cost = CostModel::paper_defaults();
    let plans: Vec<TreeProblem> = match workload {
        Workload::TemplatedSteady | Workload::FaultsSharded | Workload::DistinctSteady => {
            // As `mrs-repro serve [--templates K]`, except that the 6–14
            // joins are spread evenly over the plans instead of drawn, so
            // every seed has the same mix of plan sizes.
            let distinct = if workload == Workload::DistinctSteady {
                queries
            } else {
                TEMPLATES.min(queries)
            };
            let mut rng = DetRng::seed_from_u64(seed);
            (0..distinct)
                .map(|k| {
                    let joins = 6 + k * 9 / distinct;
                    let q = generate_query(&QueryGenConfig::paper(joins), rng.next_u64());
                    query_problem(&q, &cost)
                })
                .collect()
        }
        Workload::MqoOverload => {
            // As the `mqo` experiment: windows of 10-join queries sharing
            // a 9-join core (overlap 0.9).
            let gen = QueryGenConfig::paper(10);
            let mut plans: Vec<TreeProblem> = (0..queries.div_ceil(WINDOW))
                .flat_map(|b| {
                    overlap_batch(&gen, 0.9, WINDOW, seed ^ (b as u64).wrapping_mul(0xB10C))
                        .iter()
                        .map(|q| query_problem(q, &cost))
                        .collect::<Vec<_>>()
                })
                .collect();
            plans.truncate(queries);
            plans
        }
    };
    let distinct = plans.len();
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED_0DE5);
    let mut order: Vec<usize> = (0..queries).map(|i| i % distinct).collect();
    if workload != Workload::MqoOverload {
        // Join counts rise with the plan index: shuffle the arrival order.
        // MQO windows must stay contiguous.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
    }
    Stream { seed, plans, order }
}

/// The standalone TreeSchedule of `plan` on the benchmark's machine.
pub fn plan(plan: &TreeProblem) -> TreeScheduleResult {
    let (sys, comm, model) = system();
    tree_schedule(plan, F, &sys, &comm, &model).expect("generated plans schedule")
}

/// Standalone response of every stream's distinct plans — the rate
/// calibration's work. Keeps no schedule, so set-up memory stays small.
pub fn calibrate(streams: &[Stream]) -> Vec<f64> {
    streams
        .iter()
        .flat_map(|s| &s.plans)
        .map(|p| plan(p).response_time)
        .collect()
}

/// `count` Poisson arrivals at `rate`, conditioned on the stream filling
/// exactly `count / rate` virtual seconds: the normalized partial sums of
/// `count + 1` exponential gaps are the order statistics of `count`
/// uniform points, as in a Poisson process given its count. Conditioning
/// keeps one stream's length from moving the virtual throughput.
fn arrivals(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut t = poisson_arrivals(rate, count + 1, seed);
    let end = t.pop().expect("count + 1 ≥ 1 arrivals");
    let scale = (count + 1) as f64 / rate / end;
    t.iter_mut().for_each(|x| *x *= scale);
    t
}

/// One stream, ready to serve: the queries, their arrival times and the
/// runtime configuration.
pub struct Served {
    /// The query stream.
    pub stream: Stream,
    /// Arrival time of each query (virtual seconds).
    pub arrivals: Vec<f64>,
    /// Runtime configuration at the workload's own shard count.
    pub cfg: RuntimeConfig,
}

impl Served {
    /// An empty runtime with `shards` shard executors.
    pub fn runtime(&self, shards: usize) -> Runtime<OverlapModel> {
        let (sys, comm, model) = system();
        let cfg = RuntimeConfig {
            shards,
            ..self.cfg.clone()
        };
        Runtime::new(sys, comm, model, cfg)
    }

    /// Submits every query of the stream to `rt`.
    pub fn submit(&self, rt: &mut Runtime<OverlapModel>) {
        for (i, (&plan, &t)) in self.stream.order.iter().zip(&self.arrivals).enumerate() {
            rt.submit_at(t, i % 3, self.stream.plans[plan].clone());
        }
    }

    /// One run: a fresh runtime, every submission, and the event loop.
    pub fn run(&self, shards: usize) -> Result<RunSummary, RuntimeError> {
        let mut rt = self.runtime(shards);
        self.submit(&mut rt);
        rt.run_to_completion()
    }

    /// Queries one run submits.
    pub fn queries(&self) -> usize {
        self.arrivals.len()
    }
}

/// Everything the runs of one workload and seed need, fixed before the
/// first run.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The streams, each served by its own runs.
    pub served: Vec<Served>,
}

impl Inputs {
    /// Generates and calibrates `workload`'s inputs from `seed`:
    /// `n_streams` streams of `queries` queries.
    pub fn generate(workload: Workload, seed: u64, n_streams: usize, queries: usize) -> Inputs {
        let streams = streams(workload, seed, n_streams, queries);
        let responses = calibrate(&streams);
        Inputs::new(workload, streams, &responses)
    }

    /// Fixes arrivals and runtime configurations from the streams and
    /// the standalone responses of their distinct plans.
    pub fn new(workload: Workload, streams: Vec<Stream>, responses: &[f64]) -> Inputs {
        let mean_standalone = responses.iter().sum::<f64>() / responses.len() as f64;
        let rate = workload.rho() * MPL as f64 / mean_standalone;
        let served = streams
            .into_iter()
            .map(|stream| serve(workload, stream, rate, mean_standalone))
            .collect();
        Inputs { workload, served }
    }
}

fn serve(workload: Workload, stream: Stream, rate: f64, mean_standalone: f64) -> Served {
    let arrivals = arrivals(rate, stream.order.len(), stream.seed ^ 0xA11C_E5ED);
    let mut cfg = RuntimeConfig {
        f: F,
        max_in_flight: MPL,
        shards: workload.shards(),
        recovery: RecoveryConfig {
            backoff_base: 0.1 * mean_standalone,
            backoff_cap: 2.0 * mean_standalone,
            degrade_threshold: 0.25,
            ..RecoveryConfig::default()
        },
        ..RuntimeConfig::default()
    };
    match workload {
        Workload::TemplatedSteady | Workload::DistinctSteady => {}
        Workload::FaultsSharded => {
            // Frequent short outages: every crash invalidates the cached
            // plans it touches and re-packs the clones it kills, while no
            // query misses a deadline or is shed. Longer outages make the
            // latency tail swing with where the crashes land.
            let horizon = arrivals.last().copied().unwrap_or(0.0) + 50.0 * mean_standalone;
            cfg.faults = FaultPlan::seeded(
                SITES,
                horizon,
                1000.0 * mean_standalone,
                2.0 * mean_standalone,
                stream.seed ^ 0x0FA7_0FA7,
            );
        }
        Workload::MqoOverload => {
            cfg.batch_window = WINDOW;
            cfg.plan_sharing = true;
            cfg.controller = ControllerConfig::adaptive();
        }
    }
    Served {
        stream,
        arrivals,
        cfg,
    }
}
