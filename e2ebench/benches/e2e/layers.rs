//! The traced run: per-layer metrics.
//!
//! Spans are recorded in this file, around the benchmark's own calls into
//! each layer's public functions, on the workload's own inputs: the
//! set-up (`mrs-workload`, `mrs-core`'s planner), one traced round over
//! every stream (`mrs-runtime`), and one probe per layer (shared planner,
//! plan signatures and the whole-plan cache, the admission queue, the
//! shard barrier, the site simulator). Counts are summed over the traced
//! round's `RunSummary`s and `Runtime::shard_segments`.

use crate::workload::{self, Inputs, Workload, F, QUERIES, SITES};
use crate::{stats, Measurement, Metric};
use mrs_core::shared::{tree_schedule_shared, MapFragmentCache};
use mrs_core::tree::TreeScheduleResult;
use mrs_runtime::cache::schedule_footprint;
use mrs_runtime::prelude::{
    work_volume, AdmissionPolicy, AdmissionQueue, AuditEvent, CacheStats, ControlAction,
    PlanSignature, QueryId, RunSummary, ScheduleCache,
};
use mrs_shardexec::pool::{Command, ShardPool};
use mrs_shardexec::segment::{ShardEventKind, ShardSegment};
use mrs_shardexec::state::ShardState;
use mrs_sim::engine::{SimConfig, SiteSim};
use mrs_sim::phase::simulate_tree;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Barrier round trips the fabric probe times.
const BARRIER_ROUNDS: usize = 2000;

/// One timed interval.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    /// The stream the span worked on.
    run: usize,
}

/// In-memory span recorder, written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its id.
    fn open(&mut self, name: &'static str, parent: Option<usize>, run: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let r = f();
        self.close(id);
        r
    }

    /// Durations (ms) of every span called `name`, in recording order.
    fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.ms(name).iter().sum()
    }

    /// Every span as JSON: name, start and end (ns from the trace's
    /// start), parent span index and run.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"run\": {}}}",
                    s.name,
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.run
                )
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// The set-up, traced: stream generation, then calibration with one span
/// per standalone TreeSchedule. Returns the inputs and every stream's
/// standalone schedules.
pub fn traced_setup(
    tr: &mut Tracer,
    w: Workload,
    seed: u64,
) -> (Inputs, Vec<Vec<TreeScheduleResult>>) {
    let streams = tr.time("workload.gen", None, 0, || {
        workload::streams(w, seed, w.streams(), QUERIES)
    });
    let calibrate = tr.open("workload.calibrate", None, 0);
    let mut schedules = Vec::new();
    for (k, s) in streams.iter().enumerate() {
        let mut stream = Vec::new();
        for p in &s.plans {
            stream.push(tr.time("core.tree_schedule", Some(calibrate), k, || {
                workload::plan(p)
            }));
        }
        schedules.push(stream);
    }
    tr.close(calibrate);
    let responses: Vec<f64> = schedules
        .iter()
        .flatten()
        .map(|s| s.response_time)
        .collect();
    (Inputs::new(w, streams, &responses), schedules)
}

/// Counts summed over the traced round.
#[derive(Default)]
struct Counts {
    cache: CacheStats,
    max_queue_depth: usize,
    wait_sum: f64,
    waits: usize,
    decisions: usize,
    max_level: u32,
    gate_engages: usize,
    sites_failed: usize,
    clones_lost: usize,
    repacks: usize,
    aborted: usize,
    events: usize,
    trace_events: usize,
    segment_events: usize,
    clones_dispatched: usize,
    util: [f64; 3],
    runs: usize,
}

impl Counts {
    fn add(&mut self, s: &RunSummary, segments: &[ShardSegment]) {
        let c = &s.cache;
        self.cache.hits += c.hits;
        self.cache.misses += c.misses;
        self.cache.epoch_bumps += c.epoch_bumps;
        self.cache.stale_evictions += c.stale_evictions;
        self.cache.subtree_hits += c.subtree_hits;
        self.cache.subtree_misses += c.subtree_misses;
        self.cache.fragments_spliced += c.fragments_spliced;
        self.cache.tasks_planned += c.tasks_planned;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth());
        for w in s.queries.iter().filter_map(|q| q.wait()) {
            self.wait_sum += w;
            self.waits += 1;
        }
        for ev in &s.trace {
            if let AuditEvent::ControlDecision { action, level, .. } = ev {
                self.decisions += 1;
                self.max_level = self.max_level.max(*level);
                self.gate_engages += usize::from(*action == ControlAction::EngageGate);
            }
        }
        self.sites_failed += s.sites_failed();
        self.clones_lost += s.clones_lost();
        self.repacks += s.repacks();
        self.aborted += s.aborted();
        self.events += s.depth_trace.len();
        self.trace_events += s.trace.len();
        for seg in segments {
            self.segment_events += seg.events.len();
            self.clones_dispatched += seg
                .events
                .iter()
                .filter(|e| e.kind == ShardEventKind::Dispatched)
                .count();
        }
        let (sys, _, _) = workload::system();
        let disk = sys.site.disk_dim().expect("the paper's sites have a disk");
        for (u, dim) in self
            .util
            .iter_mut()
            .zip([sys.site.cpu_dim(), disk, sys.site.net_dim()])
        {
            *u += s.avg_utilization(dim);
        }
        self.runs += 1;
    }
}

/// An untraced round's wall time (ms): each stream's median run, summed.
fn untraced_round_ms(m: &Measurement, streams: usize) -> f64 {
    (0..streams)
        .map(|k| {
            let runs: Vec<f64> = m.run_ms.iter().skip(k).step_by(streams).copied().collect();
            stats::median(&runs)
        })
        .sum()
}

/// The traced round, the single-shard round of a sharded workload, and
/// one probe per layer; every traced run is checked against the untraced
/// reference of its stream.
pub fn per_layer(
    tr: &mut Tracer,
    inputs: &Inputs,
    schedules: Vec<Vec<TreeScheduleResult>>,
    m: &mut Measurement,
) -> Result<Vec<Metric>, String> {
    let w = inputs.workload;
    let shards = w.shards();
    let (sys, comm, model) = workload::system();
    let mut c = Counts::default();
    for (k, served) in inputs.served.iter().enumerate() {
        let run = tr.open("runtime.serve", None, k);
        let mut rt = tr.time("runtime.new", Some(run), k, || served.runtime(shards));
        tr.time("runtime.submit", Some(run), k, || served.submit(&mut rt));
        let summary = tr.time("runtime.run_to_completion", Some(run), k, || {
            rt.run_to_completion()
        });
        tr.close(run);
        let summary = summary.map_err(|e| format!("traced run of stream {k}: {e}"))?;
        m.check_digest(k, Ok(&summary), shards);
        if rt.shards() != shards {
            m.errors.push(format!(
                "stream {k} ran on {} shards, not {shards}",
                rt.shards()
            ));
        }
        c.add(&summary, &rt.shard_segments());
    }
    let untraced = untraced_round_ms(m, inputs.served.len());

    let speedup = if shards == 1 {
        1.0
    } else {
        for (k, served) in inputs.served.iter().enumerate() {
            let run = tr.time("fabric.serve_one_shard", None, k, || served.run(1));
            m.check_digest(k, run.as_ref().map_err(|e| e.to_string()), 1);
        }
        tr.total_ms("fabric.serve_one_shard") / untraced
    };

    let mut queries = 0usize;
    let mut clones = 0usize;
    for (k, (served, scheds)) in inputs.served.iter().zip(schedules).enumerate() {
        let (plans, order) = (&served.stream.plans, &served.stream.order);
        queries += order.len();

        let mut memo = MapFragmentCache::new();
        for &p in order {
            tr.time("core.tree_schedule_shared", None, k, || {
                tree_schedule_shared(&plans[p], F, &sys, &comm, &model, None, &mut memo)
            })
            .map_err(|e| format!("shared planner on stream {k}: {e}"))?;
        }

        let sigs: Vec<PlanSignature> = tr.time("cache.signature", None, k, || {
            order
                .iter()
                .map(|&p| PlanSignature::of(&plans[p], F))
                .collect()
        });

        let footprints: Vec<Vec<usize>> = scheds.iter().map(schedule_footprint).collect();
        let scheds: Vec<Arc<TreeScheduleResult>> = scheds.into_iter().map(Arc::new).collect();
        tr.time("cache.lookup", None, k, || {
            let mut cache = ScheduleCache::new(SITES);
            for (sig, &p) in sigs.into_iter().zip(order) {
                if cache.get(&sig).is_none() {
                    cache.insert(sig, Arc::clone(&scheds[p]), footprints[p].clone());
                }
            }
            black_box(cache.stats());
        });

        let volumes: Vec<f64> = order.iter().map(|&p| work_volume(&plans[p])).collect();
        tr.time("admission.push_pop", None, k, || {
            let mut queue = AdmissionQueue::new(AdmissionPolicy::Fcfs);
            for (i, v) in volumes.iter().enumerate() {
                queue.push(QueryId(i), i % 3, *v);
            }
            while let Some(id) = queue.pop() {
                black_box(id);
            }
        });

        clones += scheds
            .iter()
            .flat_map(|s| &s.phases)
            .flat_map(|p| &p.schedule.assignment.homes)
            .map(Vec::len)
            .sum::<usize>();
        tr.time("sim.simulate_tree", None, k, || {
            for s in &scheds {
                black_box(simulate_tree(s, &sys, &model, &SimConfig::default()));
            }
        });
    }

    let per_shard = SITES / shards;
    let states = (0..shards)
        .map(|s| {
            let sims = (0..per_shard)
                .map(|_| SiteSim::new(SimConfig::default(), sys.dim()))
                .collect();
            ShardState::new(s, s * per_shard, sims, sys.dim())
        })
        .collect();
    let pool = ShardPool::new(states);
    tr.time("fabric.barrier", None, 0, || {
        for _ in 0..BARRIER_ROUNDS {
            pool.run(Command::NextTime);
        }
    });
    drop(pool);

    let serve_ms = tr.ms("runtime.serve");
    let run_ms = tr.ms("runtime.run_to_completion");
    let n = c.runs as f64;
    let cache = c.cache;
    let subtree_lookups = cache.subtree_hits + cache.subtree_misses;
    let per_query_ns = |span: &str| tr.total_ms(span) * 1e6 / queries as f64;
    Ok(vec![
        Metric::new("workload.gen_ms", tr.total_ms("workload.gen"), "ms"),
        Metric::new(
            "workload.calibrate_ms",
            tr.total_ms("workload.calibrate"),
            "ms",
        ),
        Metric::new(
            "core.plan_us_p50",
            stats::median(&tr.ms("core.tree_schedule")) * 1e3,
            "us",
        ),
        Metric::new(
            "core.shared_plan_us_p50",
            stats::median(&tr.ms("core.tree_schedule_shared")) * 1e3,
            "us",
        ),
        Metric::new("core.plans_computed", cache.misses as f64, "count"),
        Metric::new("core.tasks_planned", cache.tasks_planned as f64, "count"),
        Metric::new("cache.hits", cache.hits as f64, "count"),
        Metric::new("cache.misses", cache.misses as f64, "count"),
        Metric::new("cache.hit_ratio", cache.hit_rate(), "ratio"),
        Metric::new("cache.epoch_bumps", cache.epoch_bumps as f64, "count"),
        Metric::new(
            "cache.stale_evictions",
            cache.stale_evictions as f64,
            "count",
        ),
        Metric::new("cache.signature_ns", per_query_ns("cache.signature"), "ns"),
        Metric::new("cache.lookup_ns", per_query_ns("cache.lookup"), "ns"),
        Metric::new("cache.subtree_hits", cache.subtree_hits as f64, "count"),
        Metric::new("cache.subtree_misses", cache.subtree_misses as f64, "count"),
        Metric::new(
            "cache.subtree_hit_ratio",
            cache.subtree_hits as f64 / subtree_lookups.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "cache.fragments_spliced",
            cache.fragments_spliced as f64,
            "count",
        ),
        Metric::new("admission.pop_ns", per_query_ns("admission.push_pop"), "ns"),
        Metric::new(
            "admission.max_queue_depth",
            c.max_queue_depth as f64,
            "count",
        ),
        Metric::new(
            "admission.mean_wait_s",
            c.wait_sum / c.waits as f64,
            "virt_s",
        ),
        Metric::new("control.decisions", c.decisions as f64, "count"),
        Metric::new("control.max_level", f64::from(c.max_level), "count"),
        Metric::new("control.gate_engages", c.gate_engages as f64, "count"),
        Metric::new("recovery.sites_failed", c.sites_failed as f64, "count"),
        Metric::new("recovery.clones_lost", c.clones_lost as f64, "count"),
        Metric::new("recovery.repacks", c.repacks as f64, "count"),
        Metric::new("recovery.aborted", c.aborted as f64, "count"),
        Metric::new("runtime.new_ms", stats::median(&tr.ms("runtime.new")), "ms"),
        Metric::new(
            "runtime.submit_ms",
            stats::median(&tr.ms("runtime.submit")),
            "ms",
        ),
        Metric::new("runtime.run_ms", stats::median(&run_ms), "ms"),
        Metric::new("runtime.events", c.events as f64, "count"),
        Metric::new(
            "runtime.events_per_s",
            c.events as f64 / (run_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        Metric::new("runtime.trace_events", c.trace_events as f64, "count"),
        Metric::new(
            "fabric.barrier_us",
            tr.total_ms("fabric.barrier") * 1e3 / BARRIER_ROUNDS as f64,
            "us",
        ),
        Metric::new("fabric.segment_events", c.segment_events as f64, "count"),
        Metric::new("fabric.speedup_vs_s1", speedup, "x"),
        Metric::new("sim.clones_dispatched", c.clones_dispatched as f64, "count"),
        Metric::new(
            "sim.events_per_clone",
            c.events as f64 / c.clones_dispatched as f64,
            "ratio",
        ),
        Metric::new(
            "sim.us_per_clone",
            tr.total_ms("sim.simulate_tree") * 1e3 / clones as f64,
            "us",
        ),
        Metric::new("sim.avg_cpu_util", c.util[0] / n, "ratio"),
        Metric::new("sim.avg_disk_util", c.util[1] / n, "ratio"),
        Metric::new("sim.avg_net_util", c.util[2] / n, "ratio"),
        Metric::new(
            "trace.overhead_pct",
            (serve_ms.iter().sum::<f64>() / untraced - 1.0) * 100.0,
            "%",
        ),
    ])
}
