//! Fault-plan integration audit (satellite of the `mrs-audit` PR):
//! X13-style served streams — both admission policies, a swept MTBF,
//! crashes, recoveries, re-packs — must produce runs that `audit_run`
//! certifies clean, with byte-identical audit traces for any `--jobs`
//! fan-out of the sweep cells.

use mdrs::prelude::*;
use mrs_exp::runner::par_map;
use mrs_exp::serving::{Harness, ARRIVALS, FAULTS};
use mrs_runtime::metrics::RunSummary;

const SITES: usize = 12;
const N_QUERIES: usize = 6;
const SEED: u64 = 0xA0D1_7001;
/// This stream's own arrival (`SEED ^ 0xBEEF`) and crash
/// (`SEED ^ 0x0FA7`) seeds, pre-XORed with the salts the harness applies.
const ARRIVAL_SEED: u64 = SEED ^ 0xBEEF ^ ARRIVALS;
const FAULT_SEED: u64 = SEED ^ 0x0FA7 ^ FAULTS;

fn stream() -> Vec<mrs_core::tree::TreeProblem> {
    let cost = CostModel::paper_defaults();
    (0..N_QUERIES)
        .map(|i| {
            let q = generate_query(&QueryGenConfig::paper(10), SEED ^ i as u64);
            query_problem(&q, &cost)
        })
        .collect()
}

/// Runs one sweep cell: a Poisson stream under `policy` with crashes at
/// the given MTBF multiple of the mean standalone response (`0.0` =
/// fault-free).
fn run_cell(policy: AdmissionPolicy, mtbf_mult: f64) -> RunSummary {
    let problems = stream();
    let h = Harness::calibrate(SITES, &problems);
    let r = h.mean_standalone;
    let arrivals = h.poisson(2.0 / r, N_QUERIES, ARRIVAL_SEED);
    let cfg = RuntimeConfig {
        f: h.f,
        policy,
        max_in_flight: 3,
        faults: h.faults(60.0 * r, mtbf_mult * r, 0.3 * r, FAULT_SEED),
        deadline: Some(60.0 * r),
        recovery: h.recovery(4),
        ..RuntimeConfig::default()
    };
    h.serve(cfg, &problems, &arrivals)
}

fn cells() -> Vec<(AdmissionPolicy, f64)> {
    let policies = [AdmissionPolicy::Fcfs, AdmissionPolicy::SmallestVolumeFirst];
    let mults = [0.0, 2.0, 1.0];
    policies
        .iter()
        .flat_map(|p| mults.iter().map(move |m| (*p, *m)))
        .collect()
}

#[test]
fn faulted_runs_audit_clean_for_both_policies() {
    let summaries = par_map(1, &cells(), |(policy, mult)| run_cell(*policy, *mult));
    let mut saw_repack = false;
    for (summary, (policy, mult)) in summaries.iter().zip(&cells()) {
        let v = audit_run(summary);
        assert!(
            v.is_empty(),
            "{policy:?} at MTBF {mult}xR must audit clean: {v:?}"
        );
        saw_repack |= summary.repacks() > 0;
    }
    assert!(
        saw_repack,
        "the sweep must actually exercise recovery re-packing"
    );
}

#[test]
fn audit_traces_are_identical_across_jobs() {
    let serial = par_map(1, &cells(), |(policy, mult)| run_cell(*policy, *mult));
    let fanned = par_map(4, &cells(), |(policy, mult)| run_cell(*policy, *mult));
    for ((a, b), (policy, mult)) in serial.iter().zip(&fanned).zip(&cells()) {
        assert_eq!(
            a.trace, b.trace,
            "{policy:?} at MTBF {mult}xR: trace must not depend on --jobs"
        );
        assert_eq!(a.horizon.to_bits(), b.horizon.to_bits());
        assert_eq!(a.site_peak_util, b.site_peak_util);
    }
}
