//! `e2e` — the repository's end-to-end serving benchmark.
//!
//! ```text
//! cargo bench -q --offline --manifest-path e2ebench/Cargo.toml --bench e2e -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation generates a workload's inputs from the seed, drives
//! the public `Runtime` API (`Runtime::new`, `submit_at`,
//! `run_to_completion`) in whole rounds over the workload's streams for
//! at least `--seconds` seconds, checks every run's output, and prints
//! each metric as `name value unit`. The virtual metrics come from one
//! untimed round over the streams of a fixed seed, so they compare
//! exactly across invocations. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! separate traced round. README.md lists the workloads and metrics.

mod layers;
mod stats;
mod workload;

use mrs_runtime::prelude::{QueryOutcome, RunSummary};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload, QUERIES};

const DEFAULT_SEED: u64 = 1996;
/// Seed of the streams the virtual metrics are measured on, whatever
/// `--seed` is: on fixed inputs a change's schedules compare with its
/// parent's exactly, and the metrics read the same on every run.
const QUALITY_SEED: u64 = 1996;
/// Streams the virtual metrics pool: 1600 queries, 40 beyond the p97.5.
const QUALITY_STREAMS: usize = 8;
/// Timed seconds per invocation unless `--seconds` says otherwise.
const DEFAULT_SECONDS: u64 = 12;
/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed runs: with 50, `run_ms_p80` has 10 runs beyond it.
const MIN_RUNS: usize = 50;
/// Where each invocation writes its record: the package's own target
/// directory, whichever directory the benchmark runs from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/e2e");
/// The repository's git directory, one level above this package.
const GIT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name` with `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2e --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            // `cargo bench` appends this to every bench target's arguments.
            "--bench" => {}
            "--workload" => {
                let name = value()?;
                workload = Some(if name == "all" {
                    None
                } else {
                    Some(
                        Workload::from_name(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    )
                });
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("bad --seconds {v:?}: want a positive integer"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: want 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of this binary, one at a time,
/// so each reports its own peak memory.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e: workload {} failed: {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: cannot start workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one stream's run produced, kept to check later runs against and
/// to pool the virtual metrics.
pub struct Outcome {
    /// `RunSummary::digest` of the run.
    pub digest: u64,
    /// Queries submitted.
    pub submitted: usize,
    /// Queries that completed.
    pub completed: usize,
    /// Virtual time of the run's last event.
    pub horizon: f64,
    /// Arrival-to-finish latency of every completed query.
    pub latencies: Vec<f64>,
}

impl Outcome {
    /// Summarizes `summary`, or explains why its query outcomes do not
    /// account for every submitted query.
    pub fn of(summary: &RunSummary, submitted: usize) -> Result<Outcome, String> {
        let completed = summary.completed();
        let (aborted, shed) = (summary.aborted(), summary.shed());
        let consistent = summary.queries.iter().all(|q| {
            q.outcome.is_some()
                && (q.outcome == Some(QueryOutcome::Completed)) == q.finish.is_some()
        });
        if summary.queries.len() != submitted
            || completed + aborted + shed != submitted
            || !consistent
        {
            return Err(format!(
                "outcomes not conserved: {submitted} submitted, {} recorded, {completed} \
                 completed + {aborted} aborted + {shed} shed",
                summary.queries.len()
            ));
        }
        Ok(Outcome {
            digest: summary.digest(),
            submitted,
            completed,
            horizon: summary.horizon,
            latencies: summary.queries.iter().filter_map(|q| q.latency()).collect(),
        })
    }
}

/// The untraced timed runs of one invocation and what checking them
/// found.
pub struct Measurement {
    /// Wall time of every timed run (ms); run `i` served stream
    /// `i % streams`.
    pub run_ms: Vec<f64>,
    /// Each stream's reference outcome (its first run).
    pub outcomes: Vec<Option<Outcome>>,
    /// Every correctness failure.
    pub errors: Vec<String>,
    /// Queries submitted over the timed runs.
    pub attempted: usize,
    /// Timed-run queries that did not complete.
    pub failed: usize,
}

impl Measurement {
    /// Runs one warm-up run, then whole rounds over every stream until
    /// `seconds` have passed and `MIN_RUNS` runs are done, checking each
    /// run against its stream's first; then serves stream 0 at the other
    /// shard count.
    fn take(inputs: &Inputs, seconds: u64) -> Measurement {
        let shards = inputs.workload.shards();
        let mut m = Measurement {
            run_ms: Vec::new(),
            outcomes: inputs.served.iter().map(|_| None).collect(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        let warm = inputs.served[0].run(shards);
        m.record(
            0,
            warm.map_err(|e| e.to_string()),
            inputs.served[0].queries(),
        );
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        while m.run_ms.len() < MIN_RUNS || start.elapsed() < budget {
            for (k, served) in inputs.served.iter().enumerate() {
                let t = Instant::now();
                let result = served.run(shards);
                m.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
                m.attempted += served.queries();
                m.failed += match &result {
                    Ok(s) => s.queries.len() - s.completed(),
                    Err(_) => served.queries(),
                };
                m.record(k, result.map_err(|e| e.to_string()), served.queries());
            }
        }
        let other = if shards == 1 { 2 } else { 1 };
        let run = inputs.served[0].run(other);
        m.check_digest(0, run.as_ref().map_err(|e| e.to_string()), other);
        m
    }

    /// Records stream `k`'s run: the first becomes the reference, and
    /// later ones must reproduce it.
    fn record(&mut self, k: usize, run: Result<RunSummary, String>, submitted: usize) {
        let outcome = match run.and_then(|s| Outcome::of(&s, submitted)) {
            Ok(o) => o,
            Err(e) => return self.errors.push(format!("stream {k}: {e}")),
        };
        if let Some(first) = &self.outcomes[k] {
            if outcome.digest != first.digest {
                let e = format!(
                    "stream {k}: digest {:016x} differs from the first run's {:016x}",
                    outcome.digest, first.digest
                );
                self.errors.push(e);
            }
        } else {
            self.outcomes[k] = Some(outcome);
        }
    }

    /// Checks that a run of stream `k` at `shards` shards reproduced the
    /// stream's reference digest.
    pub fn check_digest(&mut self, k: usize, run: Result<&RunSummary, String>, shards: usize) {
        let expected = self.outcomes[k].as_ref().map(|o| o.digest);
        match run {
            Ok(s) if Some(s.digest()) == expected => {}
            Ok(s) => self.errors.push(format!(
                "stream {k} at {shards} shards: digest {:016x} differs from the reference",
                s.digest()
            )),
            Err(e) => self
                .errors
                .push(format!("stream {k} at {shards} shards: {e}")),
        }
    }

    /// The FNV-1a fold of every stream's reference digest, in stream
    /// order.
    fn digest(&self) -> u64 {
        self.outcomes
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325, |h, o| {
                (h ^ o.digest).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// Generates the inputs `SETUP_REPEATS` times; returns the last and every
/// set-up time (seconds).
fn setup(w: Workload, seed: u64) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let generated = std::hint::black_box(Inputs::generate(w, seed, w.streams(), QUERIES));
        times.push(t.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    (inputs.expect("SETUP_REPEATS ≥ 1"), times)
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Serves every stream of `QUALITY_SEED`'s inputs once, untimed, at the
/// workload's shard count: the outcomes the virtual metrics pool.
fn quality_outcomes(w: Workload) -> Result<Vec<Outcome>, String> {
    let inputs = Inputs::generate(w, QUALITY_SEED, QUALITY_STREAMS, QUERIES);
    inputs
        .served
        .iter()
        .enumerate()
        .map(|(k, served)| {
            served
                .run(w.shards())
                .map_err(|e| e.to_string())
                .and_then(|s| Outcome::of(&s, served.queries()))
                .map_err(|e| format!("quality stream {k}: {e}"))
        })
        .collect()
}

fn end_to_end(m: &Measurement, setup_s: &[f64], w: Workload) -> Result<Vec<Metric>, String> {
    let mut run_ms = m.run_ms.clone();
    run_ms.sort_by(f64::total_cmp);
    let run_p50 = stats::percentile(&run_ms, 0.5);
    // Before the quality streams add their own inputs.
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let outcomes = quality_outcomes(w)?;
    let mut latencies: Vec<f64> = outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let completed: usize = outcomes.iter().map(|o| o.completed).sum();
    let submitted: usize = outcomes.iter().map(|o| o.submitted).sum();
    let horizon: f64 = outcomes.iter().map(|o| o.horizon).sum();
    Ok(vec![
        Metric::new("setup_s", stats::median(setup_s), "s"),
        Metric::new(
            "queries_per_s",
            QUERIES as f64 / (run_p50 / 1e3),
            "queries/s",
        ),
        Metric::new("run_ms_p50", run_p50, "ms"),
        Metric::new("run_ms_p80", stats::percentile(&run_ms, 0.8), "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new(
            "virt_latency_p50",
            stats::percentile(&latencies, 0.5),
            "virt_s",
        ),
        Metric::new(
            "virt_latency_p975",
            stats::percentile(&latencies, 0.975),
            "virt_s",
        ),
        Metric::new(
            "virt_throughput",
            completed as f64 / horizon,
            "queries/virt_s",
        ),
        Metric::new(
            "completed_frac",
            completed as f64 / submitted as f64,
            "ratio",
        ),
    ])
}

fn run_workload(w: Workload, args: &Args) -> ExitCode {
    let mut tracer = layers::Tracer::new();
    let (inputs, setup_s, schedules) = if args.trace {
        let (inputs, schedules) = layers::traced_setup(&mut tracer, w, args.seed);
        (inputs, Vec::new(), schedules)
    } else {
        let (inputs, setup_s) = setup(w, args.seed);
        (inputs, setup_s, Vec::new())
    };
    let mut m = Measurement::take(&inputs, args.seconds);
    let metrics = if args.trace {
        layers::per_layer(&mut tracer, &inputs, schedules, &mut m)
    } else {
        end_to_end(&m, &setup_s, w)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        m.errors.push(e);
        Vec::new()
    });
    for bad in metrics.iter().filter(|x| !x.value.is_finite()) {
        m.errors
            .push(format!("metric {} is not a number", bad.name));
    }
    let correct = m.errors.is_empty() && m.outcomes.iter().all(Option::is_some);
    for e in &m.errors {
        eprintln!("e2e: {}: {e}", w.name());
    }

    println!(
        "workload {} seed {} shards {} streams {} queries/stream {} runs {} digest {:016x}",
        w.name(),
        args.seed,
        w.shards(),
        w.streams(),
        QUERIES,
        m.run_ms.len(),
        m.digest()
    );
    for x in &metrics {
        println!("{} {} {}", x.name, x.value, x.unit);
    }
    let stem = format!("{}-{}", w.name(), args.seed);
    let record = record_json(w, args, &m, &setup_s, &metrics, correct);
    let files = if args.trace {
        vec![
            (format!("{stem}.layers.json"), record),
            (format!("{stem}.trace.json"), tracer.to_json()),
        ]
    } else {
        vec![(format!("{stem}.json"), record)]
    };
    for (file, text) in files {
        if let Err(e) = write_out(&file, &text) {
            eprintln!("e2e: {e}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    std::fs::write(dir.join(file), text).map_err(|e| format!("cannot write {OUT_DIR}/{file}: {e}"))
}

/// A JSON number, or `null` for a value JSON cannot hold.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn list_json(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// The invocation's record: host, revision, settings, every sample and
/// every metric.
fn record_json(
    w: Workload,
    args: &Args,
    m: &Measurement,
    setup_s: &[f64],
    metrics: &[Metric],
    correct: bool,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let quartiles = stats::quartiles(&m.run_ms).map_or("null".to_owned(), |q| list_json(&q));
    // The highest percentile of the runs with 10 runs beyond it.
    let tail = stats::tail_percentile(m.run_ms.len(), 10).map_or("null".to_owned(), num);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", w.name());
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"trace\": {},", args.trace);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"shards\": {},", w.shards());
    let _ = writeln!(out, "  \"streams\": {},", w.streams());
    let _ = writeln!(out, "  \"queries_per_stream\": {QUERIES},");
    let _ = writeln!(out, "  \"reps\": {},", m.run_ms.len());
    let _ = writeln!(out, "  \"digest\": \"{:016x}\",", m.digest());
    let _ = writeln!(out, "  \"correct\": {correct},");
    let _ = writeln!(out, "  \"errors\": {},", m.errors.len());
    let _ = writeln!(out, "  \"setup_s\": {},", list_json(setup_s));
    let _ = writeln!(out, "  \"run_ms\": {},", list_json(&m.run_ms));
    let _ = writeln!(out, "  \"run_ms_quartiles\": {quartiles},");
    let _ = writeln!(out, "  \"run_ms_tail_percentile\": {tail},");
    let _ = writeln!(out, "  \"metrics\": {}", metrics_json(metrics));
    out.push_str("}\n");
    out
}

/// The checked-out commit, read from the repository's `.git`;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(GIT_DIR).join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
