//! Online-runtime throughput experiment: the three admission policies
//! serving an identical Poisson stream of mixed-shape queries.
//!
//! A fixed machine serves `n` queries — a deterministic mix of bushy
//! (random), star, and linear (chain) plans ([`mixed_stream`]) —
//! arriving as a Poisson process whose rate is calibrated to the
//! workload by the [`serving`](crate::serving) harness: `λ = load · MPL / R̄`, i.e. an
//! offered load of `load` relative to what the multiprogramming level
//! could serve if every query took the mean standalone response `R̄`.
//!
//! The emitted table is long-format (one file drives all plots): per
//! policy a `summary` row, one `query` row per query (wait, latency,
//! slowdown), and one `site` row per site (realized per-resource
//! utilization from the simulator's busy integrals).

use crate::config::ExpConfig;
use crate::report::Report;
use crate::serving::{mixed_stream, Harness, CLIENTS};
use crate::tablefmt::Table;
use mrs_runtime::prelude::{AdmissionPolicy, RuntimeConfig};

/// The `throughput` experiment (see the module docs).
pub fn throughput(cfg: &ExpConfig) -> Report {
    let (sites, n_queries) = if cfg.fast { (16, 9) } else { (32, 42) };
    let mpl = 4;
    let offered_load = 1.5;

    let stream = mixed_stream(n_queries, cfg.seed);
    let h = Harness::calibrate(sites, &stream);
    let (sys, f, mean_standalone) = (&h.sys, h.f, h.mean_standalone);
    let rate = h.rate(offered_load, mpl);
    let arrivals = h.poisson(rate, n_queries, cfg.seed);

    let mut table = Table::new(vec![
        "policy",
        "kind",
        "id",
        "client",
        "arrival",
        "wait",
        "latency",
        "slowdown",
        "cpu_util",
        "disk_util",
        "net_util",
    ]);
    let mut notes: Vec<String> = Vec::new();

    let (cpu, net) = (sys.site.cpu_dim(), sys.site.net_dim());
    let disk = sys.site.disk_dim().expect("paper layout has a disk");

    for policy in [
        AdmissionPolicy::Fcfs,
        AdmissionPolicy::SmallestVolumeFirst,
        AdmissionPolicy::RoundRobinFair,
    ] {
        let rt_cfg = RuntimeConfig {
            f,
            policy,
            max_in_flight: mpl,
            ..RuntimeConfig::default()
        };
        let summary = h.serve(rt_cfg, &stream, &arrivals);

        table.push_row(vec![
            policy.label().to_owned(),
            "summary".to_owned(),
            "all".to_owned(),
            String::new(),
            format!("{:.2}", summary.horizon),
            format!("{:.2}", summary.mean_wait()),
            format!("{:.2}", summary.mean_latency()),
            format!("{:.3}", summary.mean_slowdown()),
            format!("{:.3}", summary.avg_utilization(cpu)),
            format!("{:.3}", summary.avg_utilization(disk)),
            format!("{:.3}", summary.avg_utilization(net)),
        ]);
        for q in &summary.queries {
            table.push_row(vec![
                policy.label().to_owned(),
                "query".to_owned(),
                q.id.to_string(),
                q.client.to_string(),
                format!("{:.2}", q.arrival),
                format!("{:.2}", q.wait().unwrap_or(f64::NAN)),
                format!("{:.2}", q.latency().unwrap_or(f64::NAN)),
                format!("{:.3}", q.slowdown().unwrap_or(f64::NAN)),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for j in 0..sites {
            table.push_row(vec![
                policy.label().to_owned(),
                "site".to_owned(),
                format!("s{j}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                format!("{:.3}", summary.utilization(j, cpu)),
                format!("{:.3}", summary.utilization(j, disk)),
                format!("{:.3}", summary.utilization(j, net)),
            ]);
        }
        notes.push(format!(
            "{}: {} completed, throughput {:.4}/s, p95 latency {:.1}s, max queue depth {}, \
             {} plans computed ({:.0}% cache hits)",
            policy.label(),
            summary.completed(),
            summary.throughput(),
            summary.p95_latency(),
            summary.max_queue_depth(),
            summary.plans_computed(),
            100.0 * summary.cache_hit_rate(),
        ));
    }

    notes.push(format!(
        "offered load {offered_load}x at MPL {mpl}: λ = {rate:.5}/s against mean standalone \
         response {mean_standalone:.1}s"
    ));
    notes.push(
        "summary rows: arrival column holds the run horizon; wait/latency/slowdown are means; \
         utilization columns are site averages"
            .to_owned(),
    );

    Report {
        id: "throughput",
        title: "Online runtime: admission policies under a Poisson stream".to_owned(),
        params: format!(
            "P={sites} d=3 eps=0.5 f={f} MPL={mpl} n={n_queries} clients={CLIENTS} \
             seed={}",
            cfg.seed
        ),
        table,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_throughput_runs_and_serves_everything() {
        let cfg = ExpConfig {
            fast: true,
            ..Default::default()
        };
        let report = throughput(&cfg);
        // 3 policies x (1 summary + 9 queries + 16 sites).
        assert_eq!(report.table.rows.len(), 3 * (1 + 9 + 16));
        for note in &report.notes[..3] {
            assert!(note.contains("9 completed"), "unexpected note: {note}");
        }
    }

    #[test]
    fn throughput_is_deterministic() {
        let cfg = ExpConfig {
            fast: true,
            ..Default::default()
        };
        let a = throughput(&cfg).table.to_csv();
        let b = throughput(&cfg).table.to_csv();
        assert_eq!(a, b);
    }
}
