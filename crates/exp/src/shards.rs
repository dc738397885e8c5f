//! X14 — shard-count invariance sweep for the serving runtime.
//!
//! The fabric's contract is *byte-identity*: `serve --shards N`, which
//! splits the sites into `N` audit segments, must produce exactly the
//! run that one segment produces, for any `N`. This experiment drives the throughput experiment's mixed
//! Poisson stream ([`serving`](crate::serving)) through the runtime at every swept shard count — under
//! a clean plan and under a seeded crash/recovery plan — and compares
//! each run against the `shards = 1` baseline of its scenario on two
//! axes:
//!
//! * the [`RunSummary`] FNV digest, which folds in every field of the
//!   summary (outcomes, horizons, busy integrals, utilization series,
//!   fault records, and the full audit trace), and
//! * the canonical merged shard trace ([`merge_segments`]), which
//!   re-sorts the per-shard site-level segments into the global
//!   `(time, tag, kind, site)` order.
//!
//! Every row must report `identical = yes`; the emitted CSV
//! (`results/shards.csv`) is itself byte-stable across reruns and across
//! host parallelism.
//!
//! [`RunSummary`]: mrs_runtime::metrics::RunSummary
//! [`merge_segments`]: mrs_shardexec::segment::merge_segments

use crate::config::ExpConfig;
use crate::report::Report;
use crate::serving::{mixed_stream, Harness};
use crate::tablefmt::Table;
use mrs_runtime::prelude::{AdmissionPolicy, RuntimeConfig};
use mrs_shardexec::segment::{merge_segments, ShardEvent};

/// The `shards` experiment (see the module docs).
pub fn shards(cfg: &ExpConfig) -> Report {
    let mpl = 4;
    let offered_load = 1.5;
    let (sites, n_queries) = if cfg.fast { (16, 9) } else { (140, 42) };
    let shard_counts: &[usize] = if cfg.fast { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let stream = mixed_stream(n_queries, cfg.seed);
    let h = Harness::calibrate(sites, &stream);
    let (f, mean_standalone) = (h.f, h.mean_standalone);
    let arrivals = h.poisson(h.rate(offered_load, mpl), n_queries, cfg.seed);

    let mut table = Table::new(vec![
        "shards",
        "scenario",
        "completed",
        "horizon",
        "site_events",
        "digest",
        "identical",
    ]);
    let mut notes: Vec<String> = Vec::new();
    let mut mismatches = 0usize;

    for scenario in ["clean", "faults"] {
        // The shards = 1 run of each scenario is the ground truth the
        // sharded runs must reproduce bit-for-bit.
        let mut baseline: Option<(u64, Vec<ShardEvent>)> = None;
        for &n_shards in shard_counts {
            let faulty = scenario == "faults";
            let mtbf = if faulty { 4.0 * mean_standalone } else { 0.0 };
            let rt_cfg = RuntimeConfig {
                f,
                policy: AdmissionPolicy::Fcfs,
                max_in_flight: mpl,
                faults: h.faults(
                    60.0 * mean_standalone,
                    mtbf,
                    0.3 * mean_standalone,
                    cfg.seed,
                ),
                deadline: faulty.then_some(60.0 * mean_standalone),
                recovery: h.recovery(4),
                shards: n_shards,
                util_series: true,
                ..RuntimeConfig::default()
            };
            let mut rt = h.runtime(rt_cfg, &stream, &arrivals);
            let summary = rt
                .run_to_completion()
                .expect("stream plans always schedule");
            let merged = merge_segments(&rt.shard_segments());
            let digest = summary.digest();
            let identical = match &baseline {
                None => {
                    baseline = Some((digest, merged.clone()));
                    true
                }
                Some((base_digest, base_trace)) => *base_digest == digest && *base_trace == merged,
            };
            if !identical {
                mismatches += 1;
            }
            table.push_row(vec![
                n_shards.to_string(),
                scenario.to_owned(),
                summary.completed().to_string(),
                format!("{:.3}", summary.horizon),
                merged.len().to_string(),
                format!("{digest:016x}"),
                (if identical { "yes" } else { "no" }).to_owned(),
            ]);
        }
    }

    notes.push(if mismatches == 0 {
        "every shard count reproduces the shards=1 run bit-for-bit: equal RunSummary \
         digests (all fields incl. trace + utilization series) and equal canonical \
         merged shard traces"
            .to_owned()
    } else {
        format!("{mismatches} runs diverged from their shards=1 baseline — the epoch-barrier merge broke determinism")
    });
    notes.push(
        "shard count is an execution knob, never a semantic one: rows differ only in \
         the `shards` column"
            .to_owned(),
    );

    Report {
        id: "shards",
        title: "Shard-count invariance of the serving runtime (X14)".to_owned(),
        params: format!(
            "P={sites} n={n_queries} mpl={mpl} load={offered_load} f={f} eps=0.5 \
             shards={shard_counts:?} scenarios=clean+faults seed={}",
            cfg.seed
        ),
        table,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> ExpConfig {
        ExpConfig {
            fast: true,
            jobs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn fast_sweep_is_shard_invariant() {
        let report = shards(&fast_cfg());
        assert_eq!(report.table.rows.len(), 6, "3 shard counts x 2 scenarios");
        for row in &report.table.rows {
            assert_eq!(
                row[6], "yes",
                "shards={} scenario={} diverged from baseline",
                row[0], row[1]
            );
        }
        // Within a scenario every digest must be the same string.
        for scenario in ["clean", "faults"] {
            let digests: Vec<_> = report
                .table
                .rows
                .iter()
                .filter(|r| r[1] == scenario)
                .map(|r| r[5].clone())
                .collect();
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = shards(&fast_cfg()).table.to_csv();
        let b = shards(&fast_cfg()).table.to_csv();
        assert_eq!(a, b);
    }
}
