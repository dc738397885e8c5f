//! # mrs-bench — self-contained micro-benchmarks
//!
//! Benches live in `benches/`:
//! * `figures` — one bench per paper table/figure (fast sweeps), plus the
//!   per-query scheduling cost underlying every figure.
//! * `kernels` — micro-benchmarks of the packing list rule, degree
//!   selection, malleable GF sweep, plan expansion, simulator, and the
//!   exact branch-and-bound solver.
//! * `runtime` — the online runtime's hot path: admission decisions,
//!   stream serving and the overload controller (the perf baseline for
//!   scaling work).
//!
//! Run with `cargo bench -p mrs-bench` (optionally passing a substring
//! filter: `cargo bench -p mrs-bench --bench kernels -- pack`).
//!
//! The [`harness`] module is a tiny Criterion-style measurement loop kept
//! in-repo so benchmarks work in network-restricted builds with no
//! registry dependencies: warmup, auto-sized iteration batches, and
//! min/median/mean reporting per benchmark id.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness {
    //! A minimal benchmark runner: Criterion-flavoured reporting without
    //! the dependency.
    //!
    //! Two environment variables extend the plain-text output:
    //!
    //! * `MRS_BENCH_JSON=<path>` — on exit, write every measured result
    //!   as a JSON array (`id`, `min_ns`, `median_ns`, `mean_ns`,
    //!   `samples`, `batch`) to `<path>`. This is how the repo's
    //!   `BENCH_*.json` perf-trajectory files are produced (see
    //!   EXPERIMENTS.md).
    //! * `MRS_BENCH_FAST=1` — 1-sample smoke mode: one measured sample
    //!   per benchmark and a tiny batch-sizing target, so the whole
    //!   suite finishes in seconds (used by CI to keep benches honest
    //!   without paying full measurement time).

    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// Target wall time per measurement sample.
    const TARGET_SAMPLE: Duration = Duration::from_millis(2);
    /// Target wall time per sample in `MRS_BENCH_FAST` mode.
    const TARGET_SAMPLE_FAST: Duration = Duration::from_micros(200);
    /// Default number of measured samples per benchmark.
    const DEFAULT_SAMPLES: usize = 30;

    /// One measured benchmark result, kept for JSON emission.
    #[derive(Clone, Debug)]
    pub struct Measurement {
        /// Full benchmark id (`group/bench`).
        pub id: String,
        /// Fastest observed per-iteration time, seconds.
        pub min: f64,
        /// Median per-iteration time, seconds.
        pub median: f64,
        /// Mean per-iteration time, seconds.
        pub mean: f64,
        /// Number of measured samples.
        pub samples: usize,
        /// Iterations per sample batch.
        pub batch: usize,
    }

    /// Top-level bench context: owns the CLI filter, collects results,
    /// and prints them (plus optional JSON on drop).
    pub struct Bench {
        filter: Option<String>,
        fast: bool,
        json_path: Option<PathBuf>,
        results: Vec<Measurement>,
    }

    impl Bench {
        /// Builds the context from `std::env::args`, treating the first
        /// free argument as a substring filter on benchmark ids.
        /// Harness flags Cargo forwards (e.g. `--bench`) are ignored.
        /// `MRS_BENCH_JSON` / `MRS_BENCH_FAST` are read from the
        /// environment (see the module docs).
        pub fn from_args() -> Self {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            let fast = std::env::var("MRS_BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
            let json_path = std::env::var_os("MRS_BENCH_JSON").map(PathBuf::from);
            Bench {
                filter,
                fast,
                json_path,
                results: Vec::new(),
            }
        }

        /// Opens a named benchmark group.
        pub fn group(&mut self, name: &str) -> Group<'_> {
            let samples = if self.fast { 1 } else { DEFAULT_SAMPLES };
            Group {
                name: name.to_owned(),
                samples,
                bench: self,
            }
        }

        fn matches(&self, id: &str) -> bool {
            match self.filter.as_deref() {
                None => true,
                Some(f) => id.contains(f),
            }
        }

        /// The filter, if one was given and no benchmark id matched it
        /// (every matched id records a measurement).
        fn unmatched_filter(&self) -> Option<&str> {
            self.filter.as_deref().filter(|_| self.results.is_empty())
        }

        /// Ends the run, exiting with status 1 if a filter was given and
        /// no benchmark id matched it: a stale filter must not pass by
        /// measuring nothing. Call it last in a bench `main`.
        pub fn finish(self) {
            if let Some(filter) = self.unmatched_filter() {
                eprintln!("error: no benchmark id matches the filter {filter:?}");
                std::process::exit(1);
            }
        }

        fn target_sample(&self) -> Duration {
            if self.fast {
                TARGET_SAMPLE_FAST
            } else {
                TARGET_SAMPLE
            }
        }

        fn record(&mut self, m: Measurement) {
            println!(
                "{:<56} min {:>10}  median {:>10}  mean {:>10}   ({} samples x {} iters)",
                m.id,
                fmt_time(m.min),
                fmt_time(m.median),
                fmt_time(m.mean),
                m.samples,
                m.batch,
            );
            self.results.push(m);
        }

        /// Serializes every recorded measurement as a JSON array.
        pub fn to_json(&self) -> String {
            let mut out = String::from("[\n");
            for (i, m) in self.results.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&format!(
                    "  {{\"id\": {:?}, \"min_ns\": {:.1}, \"median_ns\": {:.1}, \
                     \"mean_ns\": {:.1}, \"samples\": {}, \"batch\": {}}}",
                    m.id,
                    m.min * 1e9,
                    m.median * 1e9,
                    m.mean * 1e9,
                    m.samples,
                    m.batch,
                ));
            }
            out.push_str("\n]\n");
            out
        }
    }

    impl Default for Bench {
        fn default() -> Self {
            Bench::from_args()
        }
    }

    impl Drop for Bench {
        fn drop(&mut self) {
            if let Some(path) = self.json_path.take() {
                match std::fs::write(&path, self.to_json()) {
                    Ok(()) => println!("wrote bench JSON to {}", path.display()),
                    Err(e) => eprintln!("failed to write bench JSON {}: {e}", path.display()),
                }
            }
        }
    }

    /// A group of related benchmarks sharing a sample budget.
    pub struct Group<'a> {
        bench: &'a mut Bench,
        name: String,
        samples: usize,
    }

    impl Group<'_> {
        /// Overrides the number of measured samples (for slow routines).
        /// Ignored in `MRS_BENCH_FAST` mode, which always takes one.
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            if !self.bench.fast {
                self.samples = n.max(5);
            }
            self
        }

        /// Measures `routine` under `<group>/<id>`.
        pub fn bench_function<F: FnMut()>(&mut self, id: &str, mut routine: F) -> &mut Self {
            let full = format!("{}/{id}", self.name);
            if !self.bench.matches(&full) {
                return self;
            }
            // Warmup doubles as batch sizing: grow the batch until one
            // batch takes at least the per-sample target (or a cap is
            // reached).
            let target = self.bench.target_sample();
            let mut batch = 1usize;
            loop {
                let start = Instant::now();
                for _ in 0..batch {
                    routine();
                }
                let took = start.elapsed();
                if took >= target || batch >= 1 << 20 {
                    break;
                }
                batch = (batch * 4).min(1 << 20);
            }

            let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
            for _ in 0..self.samples {
                let start = Instant::now();
                for _ in 0..batch {
                    routine();
                }
                per_iter.push(start.elapsed().as_secs_f64() / batch as f64);
            }
            let m = summarize(&full, &mut per_iter, self.samples, batch);
            self.bench.record(m);
            self
        }

        /// Measures `routine(input)` where `input` is rebuilt by `setup`
        /// outside the timed region (Criterion's `iter_batched`).
        pub fn bench_batched<T, S: FnMut() -> T, F: FnMut(T)>(
            &mut self,
            id: &str,
            mut setup: S,
            mut routine: F,
        ) -> &mut Self {
            let full = format!("{}/{id}", self.name);
            if !self.bench.matches(&full) {
                return self;
            }
            let warmups = if self.bench.fast { 1 } else { 3 };
            for _ in 0..warmups {
                routine(setup());
            }
            let mut timed = Vec::with_capacity(self.samples);
            for _ in 0..self.samples {
                let input = setup();
                let start = Instant::now();
                routine(input);
                timed.push(start.elapsed().as_secs_f64());
            }
            let m = summarize(&full, &mut timed, self.samples, 1);
            self.bench.record(m);
            self
        }

        /// Ends the group (kept for call-site symmetry with Criterion).
        pub fn finish(&mut self) {}
    }

    fn summarize(id: &str, per_iter: &mut [f64], samples: usize, batch: usize) -> Measurement {
        per_iter.sort_by(f64::total_cmp);
        Measurement {
            id: id.to_owned(),
            min: per_iter[0],
            median: per_iter[per_iter.len() / 2],
            mean: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
            samples,
            batch,
        }
    }

    fn fmt_time(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:.1}ns", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:.2}us", secs * 1e6)
        } else if secs < 1.0 {
            format!("{:.2}ms", secs * 1e3)
        } else {
            format!("{secs:.3}s")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formats_scale() {
            assert!(fmt_time(5e-9).ends_with("ns"));
            assert!(fmt_time(5e-6).ends_with("us"));
            assert!(fmt_time(5e-3).ends_with("ms"));
            assert!(fmt_time(5.0).ends_with('s'));
        }

        fn bare(filter: Option<&str>) -> Bench {
            Bench {
                filter: filter.map(str::to_owned),
                fast: false,
                json_path: None,
                results: Vec::new(),
            }
        }

        #[test]
        fn filter_matching() {
            let b = bare(Some("pack"));
            assert!(b.matches("kernels/pack_clones"));
            assert!(!b.matches("kernels/degree"));
            let all = bare(None);
            assert!(all.matches("anything"));
        }

        #[test]
        fn unmatched_filter_is_reported_until_a_bench_runs() {
            let mut b = bare(Some("avg_load"));
            b.group("g").bench_batched("other", || (), |()| ());
            assert_eq!(b.unmatched_filter(), Some("avg_load"));
            b.group("g").bench_batched("avg_load", || (), |()| ());
            assert_eq!(b.unmatched_filter(), None);
            assert_eq!(bare(None).unmatched_filter(), None, "no filter, no error");
        }

        #[test]
        fn json_output_is_well_formed() {
            let mut b = bare(None);
            b.results.push(Measurement {
                id: "g/a".into(),
                min: 1.5e-6,
                median: 2e-6,
                mean: 2.1e-6,
                samples: 30,
                batch: 64,
            });
            b.results.push(Measurement {
                id: "g/b".into(),
                min: 3e-3,
                median: 3e-3,
                mean: 3e-3,
                samples: 5,
                batch: 1,
            });
            let json = b.to_json();
            assert!(json.starts_with("[\n"));
            assert!(json.trim_end().ends_with(']'));
            assert!(json.contains("\"id\": \"g/a\""));
            assert!(json.contains("\"min_ns\": 1500.0"));
            assert!(json.contains("\"samples\": 5"));
            // Exactly two records, comma-separated.
            assert_eq!(json.matches("\"id\"").count(), 2);
        }

        #[test]
        fn summarize_orders_statistics() {
            let mut xs = vec![3.0, 1.0, 2.0];
            let m = summarize("g/x", &mut xs, 3, 10);
            assert_eq!(m.min, 1.0);
            assert_eq!(m.median, 2.0);
            assert!((m.mean - 2.0).abs() < 1e-12);
            assert_eq!(m.batch, 10);
        }
    }
}
