//! Hot-path micro-benchmarks for the online runtime: admission decisions
//! (policy-driven queue pops), end-to-end stream and serve runs, and the
//! overload controller on and off.

use mrs_bench::harness::{Bench, Group};
use mrs_core::prelude::*;
use mrs_cost::prelude::CostModel;
use mrs_exp::prelude::query_problem;
use mrs_exp::serving::{cycled, spaced, Harness};
use mrs_runtime::prelude::*;
use mrs_workload::prelude::{generate_query, overlap_batch, QueryGenConfig};
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

/// Arrivals per served stream.
const QUERIES: usize = 42;
/// Multiprogramming level of every served group.
const MPL: usize = 4;

/// The recurring-template workload every served group replays: six
/// generated plans cycled over the stream, the regime where the
/// plan-signature cache pays off.
fn templates() -> Vec<TreeProblem> {
    let cost = CostModel::paper_defaults();
    (0..6u64)
        .map(|s| {
            let q = generate_query(&QueryGenConfig::paper(8 + (s as usize % 5)), 7 * s + 1);
            query_problem(&q, &cost)
        })
        .collect()
}

/// Times one full run of the stream per sample; building the runtime
/// and submitting the stream is untimed set-up.
fn bench_serve(
    g: &mut Group<'_>,
    id: &str,
    h: &Harness,
    cfg: RuntimeConfig,
    plans: &[TreeProblem],
    arrivals: &[f64],
) {
    g.bench_batched(
        id,
        || h.runtime(cfg.clone(), plans, arrivals),
        |mut rt| {
            black_box(rt.run_to_completion().unwrap());
        },
    );
}

fn bench_stream(b: &mut Bench) {
    // The first eight template arrivals, ten virtual seconds apart.
    let templates = templates();
    let h = Harness::calibrate(16, &templates);
    let cfg = RuntimeConfig {
        max_in_flight: MPL,
        ..RuntimeConfig::default()
    };
    let mut g = b.group("stream");
    g.sample_size(10);
    let stream = cycled(&templates, 8);
    bench_serve(
        &mut g,
        "eight_queries_p16_fcfs",
        &h,
        cfg,
        &stream,
        &spaced(8, 10.0),
    );
    g.finish();
}

fn bench_serve_stream(b: &mut Bench) {
    let sites = 140;
    let templates = templates();
    let stream = cycled(&templates, QUERIES);
    let h = Harness::calibrate(sites, &templates);
    let arrivals = h.poisson(h.rate(1.5, MPL), QUERIES, sites as u64);

    let mut g = b.group("serve_stream");
    g.sample_size(5);
    // Clean plan. The id keeps the `_s1` of the former segment-count
    // sweep, so recorded numbers stay comparable.
    let cfg = RuntimeConfig {
        max_in_flight: MPL,
        recovery: h.recovery(5),
        ..RuntimeConfig::default()
    };
    bench_serve(&mut g, "p140_s1", &h, cfg, &stream, &arrivals);

    // MQO pair: an overlap-templated stream served with batched
    // admission, once planning every window member independently and
    // once splicing shared subtrees through the fragment memo. The delta
    // is the price the runtime pays (or wins back) for "build once,
    // probe many" at high template overlap; the plans-computed ratio
    // itself is gated by X16 in CI, this records the wall-clock side.
    let window = 6usize;
    let cost = CostModel::paper_defaults();
    let mqo_stream: Vec<TreeProblem> = (0..QUERIES / window)
        .flat_map(|batch| {
            overlap_batch(
                &QueryGenConfig::paper(10),
                0.9,
                window,
                0x3160_3160 ^ batch as u64,
            )
        })
        .map(|q| query_problem(&q, &cost))
        .collect();
    let mqo = Harness::calibrate(sites, &mqo_stream);
    let mqo_arrivals = mqo.poisson(mqo.rate(1.5, MPL), mqo_stream.len(), sites as u64);
    for (id, sharing) in [("mqo_p140_unshared", false), ("mqo_p140_shared", true)] {
        let cfg = RuntimeConfig {
            max_in_flight: MPL,
            batch_window: window,
            plan_sharing: sharing,
            recovery: mqo.recovery(5),
            ..RuntimeConfig::default()
        };
        bench_serve(&mut g, id, &mqo, cfg, &mqo_stream, &mqo_arrivals);
    }
    g.finish();
}

fn bench_control(b: &mut Bench) {
    let sites = 64;
    let templates = templates();
    let stream = cycled(&templates, QUERIES);
    let h = Harness::calibrate(sites, &templates);
    // Well past the knee: the adaptive run actually makes decisions, so
    // the on/off delta prices the controller machinery under fire, not
    // just the disabled-path guard.
    let arrivals = h.poisson(h.rate(4.0, MPL), QUERIES, sites as u64);

    let mut g = b.group("control");
    g.sample_size(5);
    for (id, controller) in [
        ("off_p64", ControllerConfig::default()),
        ("adaptive_p64", ControllerConfig::adaptive()),
    ] {
        let cfg = RuntimeConfig {
            max_in_flight: MPL,
            controller,
            recovery: h.recovery(5),
            ..RuntimeConfig::default()
        };
        bench_serve(&mut g, id, &h, cfg, &stream, &arrivals);
    }
    g.finish();
}

fn main() {
    let mut b = Bench::from_args();
    bench_admission(&mut b);
    bench_stream(&mut b);
    bench_serve_stream(&mut b);
    bench_control(&mut b);
    b.finish();
}
