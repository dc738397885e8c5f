//! X13 — fault tolerance: throughput and tail latency under site
//! failures, and what recovery costs.
//!
//! The same Poisson stream as the `throughput` experiment (both set up
//! by the [`serving`](crate::serving) harness) is served while sites
//! crash and recover on a seeded MTBF/MTTR renewal schedule
//! ([`FaultPlan::seeded`](mrs_sim::fault::FaultPlan::seeded)). The MTBF is swept as a multiple of the
//! workload's mean standalone response `R̄` (from `8·R̄`, rare failures,
//! down to `1·R̄`, a crash roughly every query); `0.0` is the fault-free
//! baseline the recovery overhead is measured against. Both the FCFS and
//! smallest-volume-first admission policies face the *same* failure
//! schedule per MTBF cell, so the policy comparison is apples to apples.
//!
//! Each run has the full recovery stack on: lost work re-packed onto
//! survivors with a rebuild surcharge, capped exponential retries, a
//! per-query deadline, and degraded-mode shedding. Every query therefore
//! terminates as completed, aborted, or shed — the row's `completed +
//! aborted + shed` always equals `n`.
//!
//! The `overhead` column is the run's horizon relative to the same
//! policy's fault-free horizon: how much longer the machine was busy
//! because work was lost, rebuilt, and re-packed. The `plans` and
//! `cache_hits` columns expose the scheduling cost itself: admission
//! TreeSchedules computed fresh vs. served from the plan-signature
//! cache (this stream's plans are all distinct, so hits stay 0 and
//! `plans` counts admissions — a templated stream amortizes them; see
//! the `serve` mode and the `serve_stream` bench group).

use crate::config::ExpConfig;
use crate::report::Report;
use crate::runner::par_map;
use crate::serving::{mixed_stream, Harness, CLIENTS};
use crate::tablefmt::Table;
use mrs_runtime::prelude::{AdmissionPolicy, RuntimeConfig};

/// One sweep cell's measurements (kept numeric so the overhead
/// post-pass can divide horizons before formatting).
struct Cell {
    policy: &'static str,
    mtbf_mult: f64,
    horizon: f64,
    completed: usize,
    aborted: usize,
    shed: usize,
    throughput: f64,
    mean_latency: f64,
    p95_latency: f64,
    sites_failed: usize,
    clones_lost: usize,
    repacks: usize,
    plans: u64,
    cache_hits: u64,
}

/// The `faults` experiment (see the module docs).
pub fn faults(cfg: &ExpConfig) -> Report {
    let (sites, n_queries) = if cfg.fast { (16, 9) } else { (32, 42) };
    let mpl = 4;
    let offered_load = 1.5;
    let mttr_mult = 0.3;
    // Generous: the fault-free baseline must complete everything, so
    // aborts in faulty cells are attributable to the faults.
    let deadline_mult = 60.0;

    // The X12 stream and arrivals, so the two experiments' fault-free
    // rows describe the same run.
    let stream = mixed_stream(n_queries, cfg.seed);
    let h = Harness::calibrate(sites, &stream);
    let (f, mean_standalone) = (h.f, h.mean_standalone);
    let arrivals = h.poisson(h.rate(offered_load, mpl), n_queries, cfg.seed);
    // Generous plan horizon: the renewal schedule must outlast the run
    // even when recovery stretches it.
    let plan_horizon = 60.0 * mean_standalone;

    let policies = [AdmissionPolicy::Fcfs, AdmissionPolicy::SmallestVolumeFirst];
    let mults = cfg.mtbf_multipliers();
    let cells: Vec<(AdmissionPolicy, f64)> = policies
        .iter()
        .flat_map(|p| mults.iter().map(move |m| (*p, *m)))
        .collect();

    let results: Vec<Cell> = par_map(cfg.effective_jobs(), &cells, |(policy, mult)| {
        // The plan seed does not depend on the policy: both policies
        // face the identical failure schedule per MTBF cell.
        let faults = h.faults(
            plan_horizon,
            mult * mean_standalone,
            mttr_mult * mean_standalone,
            cfg.seed,
        );
        let rt_cfg = RuntimeConfig {
            f,
            policy: *policy,
            max_in_flight: mpl,
            faults,
            deadline: Some(deadline_mult * mean_standalone),
            recovery: h.recovery(4),
            ..RuntimeConfig::default()
        };
        let summary = h.serve(rt_cfg, &stream, &arrivals);
        Cell {
            policy: policy.label(),
            mtbf_mult: *mult,
            horizon: summary.horizon,
            completed: summary.completed(),
            aborted: summary.aborted(),
            shed: summary.shed(),
            throughput: summary.throughput(),
            mean_latency: summary.mean_latency(),
            p95_latency: summary.p95_latency(),
            sites_failed: summary.sites_failed(),
            clones_lost: summary.clones_lost(),
            repacks: summary.repacks(),
            plans: summary.plans_computed(),
            cache_hits: summary.cache.hits,
        }
    });

    let mut table = Table::new(vec![
        "policy",
        "mtbf",
        "completed",
        "aborted",
        "shed",
        "throughput",
        "mean_latency",
        "p95_latency",
        "sites_failed",
        "clones_lost",
        "repacks",
        "overhead",
        "plans",
        "cache_hits",
    ]);
    let mut notes: Vec<String> = Vec::new();

    for cell in &results {
        // Recovery overhead vs the same policy's fault-free horizon.
        let baseline = results
            .iter()
            .find(|c| c.policy == cell.policy && c.mtbf_mult == 0.0)
            .expect("sweep always contains the fault-free baseline");
        let overhead = if baseline.horizon > 0.0 {
            cell.horizon / baseline.horizon
        } else {
            f64::NAN
        };
        table.push_row(vec![
            cell.policy.to_owned(),
            if cell.mtbf_mult > 0.0 {
                format!("{:.1}", cell.mtbf_mult * mean_standalone)
            } else {
                "inf".to_owned()
            },
            cell.completed.to_string(),
            cell.aborted.to_string(),
            cell.shed.to_string(),
            format!("{:.5}", cell.throughput),
            format!("{:.2}", cell.mean_latency),
            format!("{:.2}", cell.p95_latency),
            cell.sites_failed.to_string(),
            cell.clones_lost.to_string(),
            cell.repacks.to_string(),
            format!("{:.3}", overhead),
            cell.plans.to_string(),
            cell.cache_hits.to_string(),
        ]);
        assert_eq!(
            cell.completed + cell.aborted + cell.shed,
            n_queries,
            "every query must reach a terminal outcome"
        );
    }

    notes.push(format!(
        "MTBF swept as multiples {:?} of the mean standalone response R̄ = {mean_standalone:.1}s \
         (mult 0 = fault-free baseline); MTTR = {mttr_mult}·R̄, deadline = {deadline_mult}·R̄",
        mults
    ));
    notes.push(
        "recovery: rebuild surcharge 10%, 4 retries with exponential backoff, shedding below \
         25% alive sites; overhead = horizon / same-policy fault-free horizon"
            .to_owned(),
    );
    if let Some(worst) = results
        .iter()
        .filter(|c| c.mtbf_mult > 0.0)
        .max_by(|a, b| a.p95_latency.total_cmp(&b.p95_latency))
    {
        notes.push(format!(
            "worst tail: {} at MTBF {:.1}·R̄ — p95 {:.1}s, {} aborted, {} shed, {} re-packs",
            worst.policy,
            worst.mtbf_mult,
            worst.p95_latency,
            worst.aborted,
            worst.shed,
            worst.repacks
        ));
    }

    Report {
        id: "faults",
        title: "Fault tolerance: throughput and tails vs MTBF, with recovery overhead".to_owned(),
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
    fn fast_faults_covers_the_sweep_and_conserves_queries() {
        let report = faults(&fast_cfg());
        // 2 policies x 3 MTBF multipliers.
        assert_eq!(report.table.rows.len(), 6);
        for row in &report.table.rows {
            let completed: usize = row[2].parse().unwrap();
            let aborted: usize = row[3].parse().unwrap();
            let shed: usize = row[4].parse().unwrap();
            assert_eq!(completed + aborted + shed, 9, "outcome conservation");
        }
        // Baseline rows are failure-free and overhead-1.
        for row in report.table.rows.iter().filter(|r| r[1] == "inf") {
            assert_eq!(row[8], "0", "baseline must see no site failures");
            assert_eq!(row[11], "1.000", "baseline overhead is unity");
        }
        // Every admission planned (all-distinct stream: no cache hits).
        for row in &report.table.rows {
            let plans: u64 = row[12].parse().unwrap();
            assert!(plans > 0, "a served stream computes plans");
            assert_eq!(row[13], "0", "distinct plans cannot hit the cache");
        }
        // Faulty rows actually exercised the fault path.
        assert!(
            report
                .table
                .rows
                .iter()
                .filter(|r| r[1] != "inf")
                .any(|r| r[8].parse::<usize>().unwrap() > 0),
            "no faulty cell saw a site failure"
        );
    }

    /// The fault-free FCFS row is the X12 FCFS run: same stream,
    /// arrivals, machine and MPL, and a deadline no query reaches.
    #[test]
    fn fault_free_row_is_the_throughput_run() {
        let x12 = crate::throughput::throughput(&fast_cfg());
        let x13 = faults(&fast_cfg());
        let summary = x12
            .table
            .rows
            .iter()
            .find(|r| r[0] == "fcfs" && r[1] == "summary")
            .expect("X12 has an FCFS summary row");
        let baseline = x13
            .table
            .rows
            .iter()
            .find(|r| r[0] == "fcfs" && r[1] == "inf")
            .expect("X13 has a fault-free FCFS row");
        assert_eq!(summary[6], baseline[6], "mean latency");
        // X12 prints its throughput to four places in its FCFS note.
        let x12_throughput: f64 = x12.notes[0]
            .split("throughput ")
            .nth(1)
            .and_then(|rest| rest.split("/s").next())
            .expect("X12's FCFS note reports throughput")
            .parse()
            .expect("throughput is a number");
        let x13_throughput: f64 = baseline[5].parse().expect("throughput is a number");
        assert!(
            (x12_throughput - x13_throughput).abs() < 1e-4,
            "throughput: X12 {x12_throughput} vs X13 {x13_throughput}"
        );
    }

    #[test]
    fn faults_is_deterministic() {
        let a = faults(&fast_cfg()).table.to_csv();
        let b = faults(&fast_cfg()).table.to_csv();
        assert_eq!(a, b);
    }
}
