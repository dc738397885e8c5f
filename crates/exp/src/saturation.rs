//! X15 — saturation sweep: where the knee is, and what adaptive
//! overload control buys past it.
//!
//! The same mixed stream as `throughput`/`faults`
//! ([`serving`](crate::serving)) is served at a swept Poisson arrival
//! rate (offered load as a multiple of the machine's
//! nominal capacity `MPL / R̄`), once with the feedback controller off
//! (*static*) and once with it on (*adaptive*,
//! [`ControllerConfig::adaptive`]). Each (load, mode) cell runs twice:
//! *clean*, and under the same seeded MTBF/MTTR fault schedule as X13
//! (*faults*), so the controller is also measured while recovery churn
//! is eating capacity. Two extra rows per mode replay a bursty arrival
//! process ([`burst_arrivals`]) whose time-averaged rate sits below the
//! knee but whose on-phase rate is far above it — the case hysteresis
//! exists for.
//!
//! The sweep runs with a non-zero `timeshare_overhead` (relaxed
//! assumption A2): every extra clone resident at a site multiplies its
//! effective capacity by `1/(1 + ovh·(n-1))`. That is what bends the
//! throughput curve into a knee at all — under A2 proper the fluid
//! machine is work-conserving and over-admission would cost nothing.
//! Past the knee the static rows keep stuffing the machine: more
//! resident clones, less effective capacity, longer horizons, fatter
//! tails. The adaptive rows fight exactly that waste on both axes — the
//! backpressure gate defers admissions while committed load says the
//! sites are already oversubscribed (fewer queries resident at once),
//! and the parallelism governor caps clone degrees below the
//! paper-optimal point (fewer clones per admitted query), trading a
//! slightly slower standalone response for more effective capacity
//! system-wide. `decisions` counts recorded
//! [`ControlDecision`](mrs_runtime::prelude::AuditEvent) events — static
//! rows are structurally zero, which is the "off = byte-identical"
//! guarantee in table form. `maxq` is the high-water admission-queue
//! depth; the shed column stays 0 in every cell because the controller
//! defers rather than sheds (no `shed_queue` bound is set here).

use crate::config::ExpConfig;
use crate::report::Report;
use crate::runner::par_map;
use crate::serving::{mixed_stream, Harness, ARRIVALS, CLIENTS};
use crate::tablefmt::Table;
use mrs_runtime::prelude::{AdmissionPolicy, AuditEvent, ControllerConfig, RuntimeConfig};
use mrs_sim::engine::{SharingPolicy, SimConfig};
use mrs_workload::prelude::burst_arrivals;

/// One sweep cell, kept numeric for the knee post-pass.
struct Cell {
    load: String,
    load_mult: f64,
    mode: &'static str,
    scenario: &'static str,
    completed: usize,
    aborted: usize,
    shed: usize,
    throughput: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max_queue: usize,
    decisions: usize,
}

/// The `saturation` experiment (see the module docs).
pub fn saturation(cfg: &ExpConfig) -> Report {
    let (sites, n_queries) = if cfg.fast { (16, 12) } else { (32, 42) };
    let mpl = 4;
    let mtbf_mult = 2.0;
    let mttr_mult = 0.3;
    // Relaxed assumption A2: each extra resident clone shaves effective
    // site capacity (`1/(1 + ovh·(n-1))`). This is what bends the
    // throughput curve into a knee — under A2 proper the fluid machine
    // is work-conserving and over-admission would be free.
    let overhead = 0.1;
    let loads: Vec<f64> = if cfg.fast {
        vec![0.4, 1.2, 2.4]
    } else {
        vec![0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    };

    // Offered load 1.0 means arrivals match the machine's nominal drain
    // rate MPL / R̄.
    let stream = mixed_stream(n_queries, cfg.seed);
    let h = Harness::calibrate(sites, &stream);
    let (f, mean_standalone) = (h.f, h.mean_standalone);
    let nominal = h.rate(1.0, mpl);
    let plan_horizon = 120.0 * mean_standalone;

    // The adaptive gate targets true oversubscription: committed l_∞
    // load above 1.0 means the sites are already stretching every
    // resident clone, so deferring the next admission costs no idle
    // capacity. The stock `adaptive()` band (0.85/0.55) is tuned for
    // "keep a safety margin"; here the sweep wants the knee itself.
    let adaptive = ControllerConfig {
        load_high: 1.15,
        load_low: 0.95,
        backlog_high: 4,
        ..ControllerConfig::adaptive()
    };
    let modes: [(&'static str, ControllerConfig); 2] = [
        ("static", ControllerConfig::default()),
        ("adaptive", adaptive),
    ];
    let scenarios: [&'static str; 2] = ["clean", "faults"];

    // (load label, multiplier-or-0-for-burst, mode, controller, scenario)
    let mut cells: Vec<(String, f64, &'static str, ControllerConfig, &'static str)> = Vec::new();
    for (mode, ctl) in &modes {
        for scenario in &scenarios {
            for mult in &loads {
                cells.push((format!("{mult:.1}"), *mult, mode, ctl.clone(), scenario));
            }
        }
        // Bursty rows: mean rate ~0.9x nominal, on-phase 4x.
        cells.push(("burst".to_owned(), 0.0, mode, ctl.clone(), "clean"));
    }

    let results: Vec<Cell> = par_map(
        cfg.effective_jobs(),
        &cells,
        |(label, mult, mode, ctl, scenario)| {
            let arrivals = if label == "burst" {
                burst_arrivals(
                    0.4 * nominal,
                    4.0 * nominal,
                    4.0 * mean_standalone,
                    0.25,
                    n_queries,
                    cfg.seed ^ ARRIVALS,
                )
            } else {
                h.poisson(mult * nominal, n_queries, cfg.seed)
            };
            let mtbf = if *scenario == "faults" {
                mtbf_mult * mean_standalone
            } else {
                0.0
            };
            let rt_cfg = RuntimeConfig {
                f,
                policy: AdmissionPolicy::Fcfs,
                max_in_flight: mpl,
                sim: SimConfig {
                    policy: SharingPolicy::EqualFinish,
                    timeshare_overhead: overhead,
                },
                faults: h.faults(plan_horizon, mtbf, mttr_mult * mean_standalone, cfg.seed),
                recovery: h.recovery(4),
                controller: ctl.clone(),
                ..RuntimeConfig::default()
            };
            let summary = h.serve(rt_cfg, &stream, &arrivals);
            let decisions = summary
                .trace
                .iter()
                .filter(|ev| matches!(ev, AuditEvent::ControlDecision { .. }))
                .count();
            Cell {
                load: label.clone(),
                load_mult: *mult,
                mode,
                scenario,
                completed: summary.completed(),
                aborted: summary.aborted(),
                shed: summary.shed(),
                throughput: summary.throughput(),
                p50: summary.p50_latency(),
                p95: summary.p95_latency(),
                p99: summary.p99_latency(),
                max_queue: summary.max_queue_depth(),
                decisions,
            }
        },
    );

    let mut table = Table::new(vec![
        "load",
        "mode",
        "scenario",
        "completed",
        "aborted",
        "shed",
        "throughput",
        "p50",
        "p95",
        "p99",
        "maxq",
        "decisions",
    ]);
    for cell in &results {
        table.push_row(vec![
            cell.load.clone(),
            cell.mode.to_owned(),
            cell.scenario.to_owned(),
            cell.completed.to_string(),
            cell.aborted.to_string(),
            cell.shed.to_string(),
            format!("{:.5}", cell.throughput),
            format!("{:.2}", cell.p50),
            format!("{:.2}", cell.p95),
            format!("{:.2}", cell.p99),
            cell.max_queue.to_string(),
            cell.decisions.to_string(),
        ]);
        assert_eq!(
            cell.completed + cell.aborted + cell.shed,
            n_queries,
            "every query must reach a terminal outcome"
        );
    }

    let mut notes: Vec<String> = Vec::new();
    notes.push(format!(
        "offered load = arrival rate / (MPL/R̄), R̄ = {mean_standalone:.1}s; no deadline (the \
         sweep isolates capacity, not admission-age policy); faults scenario: MTBF {mtbf_mult}·R̄, \
         MTTR {mttr_mult}·R̄ (X13 schedule); burst rows: mean 0.9x nominal, on-phase 4x, \
         period 4·R̄, duty 0.25"
    ));
    notes.push(
        "knee reading: walk the static/clean column upward in load until throughput stops \
         rising — past that point compare modes at equal load: adaptive must hold throughput \
         at or above static with a lower p99, paid for with deferred admissions (maxq) and \
         governed (lower-degree) plans"
            .to_owned(),
    );
    // Knee post-pass over the Poisson clean rows.
    let knee = |mode: &str| -> Option<&Cell> {
        results
            .iter()
            .filter(|c| c.mode == mode && c.scenario == "clean" && c.load != "burst")
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
    };
    if let (Some(s), Some(a)) = (knee("static"), knee("adaptive")) {
        notes.push(format!(
            "clean knees: static peaks at load {:.1} ({:.5} q/s), adaptive at load {:.1} \
             ({:.5} q/s)",
            s.load_mult, s.throughput, a.load_mult, a.throughput
        ));
    }
    if let Some(top) = loads.last() {
        let at = |mode: &str, scenario: &str| {
            results
                .iter()
                .find(|c| c.mode == mode && c.scenario == scenario && c.load_mult == *top)
        };
        for scenario in &scenarios {
            if let (Some(s), Some(a)) = (at("static", scenario), at("adaptive", scenario)) {
                notes.push(format!(
                    "past the knee ({scenario}, load {top:.1}): throughput {:.5} -> {:.5}, \
                     p99 {:.1}s -> {:.1}s, aborted {} -> {} (static -> adaptive, {} control \
                     decisions)",
                    s.throughput, a.throughput, s.p99, a.p99, s.aborted, a.aborted, a.decisions
                ));
            }
        }
    }

    Report {
        id: "saturation",
        title: "Saturation sweep: static vs adaptive overload control across the knee".to_owned(),
        params: format!(
            "P={sites} d=3 eps=0.5 f={f} MPL={mpl} n={n_queries} clients={CLIENTS} seed={}",
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
    fn fast_saturation_covers_the_sweep_and_conserves_queries() {
        let report = saturation(&fast_cfg());
        // 2 modes x (3 loads x 2 scenarios + 1 burst row).
        assert_eq!(report.table.rows.len(), 14);
        for row in &report.table.rows {
            let completed: usize = row[3].parse().unwrap();
            let aborted: usize = row[4].parse().unwrap();
            let shed: usize = row[5].parse().unwrap();
            assert_eq!(completed + aborted + shed, 12, "outcome conservation");
            assert_eq!(shed, 0, "no shed bound is configured: defer, don't drop");
        }
        // Static rows never record a control decision; the overloaded
        // adaptive cells must record at least one.
        for row in &report.table.rows {
            if row[1] == "static" {
                assert_eq!(row[11], "0", "static rows must be controller-silent");
            }
        }
        let adaptive_decisions: usize = report
            .table
            .rows
            .iter()
            .filter(|r| r[1] == "adaptive")
            .map(|r| r[11].parse::<usize>().unwrap())
            .sum();
        assert!(
            adaptive_decisions > 0,
            "the adaptive sweep never engaged the controller"
        );
    }

    #[test]
    fn saturation_is_deterministic() {
        let a = saturation(&fast_cfg()).table.to_csv();
        let b = saturation(&fast_cfg()).table.to_csv();
        assert_eq!(a, b);
    }
}
