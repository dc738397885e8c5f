//! The `audit` experiment: every experiment family re-run in fast shape
//! under the paper-invariant auditor (`mrs-audit`).
//!
//! Each row re-creates the schedules (or runtime runs) of one family of
//! experiments — the same generators, cost model, and algorithms, at the
//! fast-mode sweep density — and pushes every artifact through
//! [`audit_tree`] / [`audit_run`]. The `violations` column must be zero
//! everywhere: a non-zero count means a scheduler path emitted something
//! that breaks Definition 5.1, the `CG_f` cap, placement propagation,
//! the Theorem 5.1 certificate, fluid feasibility, work conservation
//! through recovery, or memo coherence. Every `runtime-*` family also
//! replays its run's cache hits ([`Runtime::replay_cache_hits`]): each
//! hit is re-planned cold at the governed cap in force and must match
//! its recorded digest bit for bit.
//!
//! Family → experiment-id coverage:
//!
//! * `paper-tree` — `table2`, `fig5a`, `fig5b`, `fig6a`, `fig6b`,
//!   `simcheck`, `skew` (all drive plain TREESCHEDULE over the paper
//!   workload; full certificate + `CG_f` audit).
//! * `arbitrary-order` — `ablation-order` (the Theorem 5.1 argument is
//!   order-independent, so the certificate must hold here too).
//! * `shelves-asap` — `shelfcheck` (the ASAP phase policy).
//! * `malleable` — `malleable`, `planopt`, `optgap` (per-phase GF degree
//!   sweep; certificate on, no `CG_f` cap).
//! * `eps-sweep` — `pipecheck`, `memcheck`, `dimcheck`,
//!   `ablation-dims` (the overlap-model extremes `ε ∈ {0, 0.5, 1}`).
//! * `baselines` — the SYNC / scalar-list / round-robin comparators in
//!   `table2`/`fig5a`/ablations (structural audit only: they do not
//!   pack least-loaded, so Theorem 5.1 makes no promise for them).
//! * `runtime-clean` — `throughput` (fault-free served stream under
//!   both admission policies, trace + feasibility audit).
//! * `runtime-faults` — `faults` (the X13 crash/recovery sweep; work
//!   conservation and cache digest coherence audited from the trace).
//! * `runtime-cache` — the templated `serve` stream (every plan
//!   submitted twice), clean and under seeded crashes: every hit must
//!   replay its insert-time digest and equal a cold plan, including
//!   hits served after a crash.
//! * `runtime-log` — the served stream's clone event log, clean and
//!   faulty: every event must name a real site, and every clone must be
//!   dispatched once and end in exactly one terminal event.
//! * `runtime-controller` — the X15 overload runs (ramp and burst
//!   arrival processes, shards 1 and 4) with the feedback controller
//!   on, the stream served twice): every recorded control decision
//!   must replay (one hysteresis step, justified by its own pressure
//!   snapshot), governed plans must respect both the controller's cap
//!   and the paper's `CG_f` caps, and each cell must hit a whole plan
//!   at a governed level, which the cold replay re-plans at that cap.
//! * `runtime-mqo` — the X16 batched-admission runs (overlap-templated
//!   batches, sharing on, clean and faulty, each batch served twice):
//!   every fragment splice must reproduce its insert-time digest
//!   bit-for-bit, and every whole-plan hit must equal a cold shared
//!   plan; a clean cell must both splice and hit.
//! * `source-lint` — the `mrs-lint` scanner over the committed tree
//!   itself: the determinism rules plus the `atomics` family (raw
//!   primitives, ordering tokens, and thread spawns are confined to the
//!   `shardexec::sync` re-exports and the allowlisted
//!   `par_map`). A cell is a scanned source file; a violation is an
//!   unwaived finding.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::runner::query_problem;
use crate::serving::{cycled, mixed_stream, Harness, ARRIVALS};
use crate::tablefmt::Table;
use mrs_audit::lint::{lint_workspace, workspace_sources, Allowlist};
use mrs_audit::prelude::{
    audit_clone_log, audit_controller, audit_governed_degrees, audit_run, audit_tree, AuditOptions,
    Violation,
};
use mrs_baseline::prelude::{
    round_robin_tree_schedule, scalar_tree_schedule, synchronous_schedule,
};
use mrs_core::list::ListOrder;
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::tree::{
    malleable_tree_schedule, tree_schedule, tree_schedule_with, PhasePolicy, PlanOptions,
    TreeProblem,
};
use mrs_cost::prelude::CostModel;
use mrs_runtime::prelude::{
    AdmissionPolicy, AuditEvent, ControllerConfig, FaultRecordKind, RunSummary, Runtime,
    RuntimeConfig,
};
use mrs_workload::prelude::{
    burst_arrivals, generate_query, overlap_batch, ramp_arrivals, QueryGenConfig,
};

/// One family's audit outcome.
struct FamilyResult {
    family: &'static str,
    covers: &'static str,
    cells: usize,
    violations: Vec<Violation>,
}

/// Serves `plans` (query `i` at `arrivals[i]`) and audits the run into
/// `violations`: the trace audit plus the cold replay of every cache
/// hit. Returns the finished runtime and its summary.
fn serve_audited(
    h: &Harness,
    rt_cfg: RuntimeConfig,
    plans: &[TreeProblem],
    arrivals: &[f64],
    violations: &mut Vec<Violation>,
) -> (Runtime<OverlapModel>, RunSummary) {
    let mut rt = h.runtime(rt_cfg, plans, arrivals);
    let summary = rt
        .run_to_completion()
        .expect("stream plans always schedule");
    violations.extend(audit_run(&summary));
    let replay = rt.replay_cache_hits(&summary, plans);
    violations.extend(replay.into_iter().map(Violation::CacheHitNotReproduced));
    (rt, summary)
}

/// The paper workload at the experiment sweep densities.
fn paper_problems(cfg: &ExpConfig, cost: &CostModel) -> Vec<TreeProblem> {
    let mut out = Vec::new();
    for &joins in &cfg.query_sizes() {
        for q in 0..cfg.queries_per_size() {
            let query = generate_query(
                &QueryGenConfig::paper(joins),
                cfg.seed ^ (joins as u64) << 8 ^ q as u64,
            );
            out.push(query_problem(&query, cost));
        }
    }
    out
}

/// The `audit` experiment (see the module docs).
pub fn audit(cfg: &ExpConfig) -> Report {
    let f = 0.7;
    let eps = 0.5;
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(eps).expect("paper epsilon is valid");
    let problems = paper_problems(cfg, &cost);
    let sweep = cfg.site_sweep();

    let mut families: Vec<FamilyResult> = Vec::new();

    // paper-tree: plain TREESCHEDULE over every (P, query) cell.
    {
        let mut violations = Vec::new();
        let mut cells = 0;
        for &sites in &sweep {
            let sys = SystemSpec::homogeneous(sites);
            for problem in &problems {
                let r = tree_schedule(problem, f, &sys, &comm, &model)
                    .expect("paper workload always schedules");
                violations.extend(audit_tree(
                    problem,
                    &r,
                    &sys,
                    &comm,
                    &model,
                    &AuditOptions::coarse_grain(f),
                ));
                cells += 1;
            }
        }
        families.push(FamilyResult {
            family: "paper-tree",
            covers: "table2 fig5a fig5b fig6a fig6b simcheck skew",
            cells,
            violations,
        });
    }

    // arbitrary-order: the X2 ablation still owes the certificate.
    {
        let sys = SystemSpec::homogeneous(sweep[sweep.len() / 2]);
        let mut violations = Vec::new();
        for problem in &problems {
            let opts = PlanOptions {
                order: ListOrder::Arbitrary,
                ..PlanOptions::default()
            };
            let r = tree_schedule_with(problem, f, &sys, &comm, &model, opts)
                .expect("paper workload always schedules");
            violations.extend(audit_tree(
                problem,
                &r,
                &sys,
                &comm,
                &model,
                &AuditOptions::coarse_grain(f),
            ));
        }
        families.push(FamilyResult {
            family: "arbitrary-order",
            covers: "ablation-order",
            cells: problems.len(),
            violations,
        });
    }

    // shelves-asap: the ASAP phase policy of shelfcheck.
    {
        let sys = SystemSpec::homogeneous(sweep[0]);
        let mut violations = Vec::new();
        for problem in &problems {
            let opts = PlanOptions {
                policy: PhasePolicy::Asap,
                ..PlanOptions::default()
            };
            let r = tree_schedule_with(problem, f, &sys, &comm, &model, opts)
                .expect("paper workload always schedules");
            violations.extend(audit_tree(
                problem,
                &r,
                &sys,
                &comm,
                &model,
                &AuditOptions::coarse_grain(f),
            ));
        }
        families.push(FamilyResult {
            family: "shelves-asap",
            covers: "shelfcheck",
            cells: problems.len(),
            violations,
        });
    }

    // malleable: the Section 7 GF degree sweep (no CG_f cap by design).
    {
        let sys = SystemSpec::homogeneous(sweep[0]);
        let mut violations = Vec::new();
        for problem in &problems {
            let r = malleable_tree_schedule(problem, &sys, &comm, &model)
                .expect("paper workload always schedules");
            violations.extend(audit_tree(
                problem,
                &r,
                &sys,
                &comm,
                &model,
                &AuditOptions::malleable(),
            ));
        }
        families.push(FamilyResult {
            family: "malleable",
            covers: "malleable planopt optgap",
            cells: problems.len(),
            violations,
        });
    }

    // eps-sweep: the overlap-model extremes.
    {
        let sys = SystemSpec::homogeneous(sweep[0]);
        let mut violations = Vec::new();
        let mut cells = 0;
        for &e in &[0.0, 0.5, 1.0] {
            let m = OverlapModel::new(e).expect("sweep epsilons are valid");
            for problem in &problems {
                let r = tree_schedule(problem, f, &sys, &comm, &m)
                    .expect("paper workload always schedules");
                violations.extend(audit_tree(
                    problem,
                    &r,
                    &sys,
                    &comm,
                    &m,
                    &AuditOptions::coarse_grain(f),
                ));
                cells += 1;
            }
        }
        families.push(FamilyResult {
            family: "eps-sweep",
            covers: "pipecheck memcheck dimcheck ablation-dims",
            cells,
            violations,
        });
    }

    // baselines: structural audit only (no least-loaded packing).
    {
        let sys = SystemSpec::homogeneous(sweep[0]);
        let mut violations = Vec::new();
        let mut cells = 0;
        for problem in &problems {
            for r in [
                scalar_tree_schedule(problem, f, &sys, &comm, &model),
                round_robin_tree_schedule(problem, f, &sys, &comm, &model),
            ] {
                let r = r.expect("paper workload always schedules");
                violations.extend(audit_tree(
                    problem,
                    &r,
                    &sys,
                    &comm,
                    &model,
                    &AuditOptions::structural(),
                ));
                cells += 1;
            }
            // SYNC: audit the whole result at tree level through its
            // TreeScheduleResult view — per-wave structure plus the
            // makespan/response recomputation and binding co-location
            // checks the per-wave audit_schedule pass could not see.
            let sync = synchronous_schedule(problem, &sys, &comm, &model)
                .expect("paper workload always schedules");
            violations.extend(audit_tree(
                problem,
                &sync.to_tree_result(),
                &sys,
                &comm,
                &model,
                &AuditOptions::structural(),
            ));
            cells += 1;
        }
        families.push(FamilyResult {
            family: "baselines",
            covers: "table2 fig5a ablation-dims (comparators)",
            cells,
            violations,
        });
    }

    // Runtime families share the throughput experiment's served stream.
    let (sites, n_queries) = if cfg.fast { (16, 9) } else { (32, 42) };
    let stream = mixed_stream(n_queries, cfg.seed);
    let h = Harness::calibrate(sites, &stream);
    let (sys, mean_standalone) = (&h.sys, h.mean_standalone);
    let arrivals = h.poisson(h.rate(1.5, 4), n_queries, cfg.seed);
    let policies = [AdmissionPolicy::Fcfs, AdmissionPolicy::SmallestVolumeFirst];
    // The seeded crash schedule every faulted runtime cell uses, with a
    // mean time between failures of `mtbf` standalone responses (0 =
    // fault-free), and the deadline that goes with it.
    let seeded_faults = |mtbf: f64| {
        h.faults(
            60.0 * mean_standalone,
            mtbf * mean_standalone,
            0.3 * mean_standalone,
            cfg.seed,
        )
    };
    let deadline = |faulty: bool| faulty.then_some(60.0 * mean_standalone);
    // Every runtime cell: MPL 4, R̄-scaled recovery.
    let base = RuntimeConfig {
        f,
        max_in_flight: 4,
        recovery: h.recovery(4),
        ..RuntimeConfig::default()
    };

    // runtime-clean: fault-free served stream under both policies.
    {
        let mut violations = Vec::new();
        for policy in policies {
            let rt_cfg = RuntimeConfig {
                policy,
                ..base.clone()
            };
            serve_audited(&h, rt_cfg, &stream, &arrivals, &mut violations);
        }
        families.push(FamilyResult {
            family: "runtime-clean",
            covers: "throughput",
            cells: policies.len(),
            violations,
        });
    }

    // runtime-faults: the X13 crash/recovery sweep.
    {
        let mut violations = Vec::new();
        let mut cells = 0;
        for policy in policies {
            for mult in [4.0, 1.0] {
                let rt_cfg = RuntimeConfig {
                    policy,
                    faults: seeded_faults(mult),
                    deadline: deadline(true),
                    ..base.clone()
                };
                serve_audited(&h, rt_cfg, &stream, &arrivals, &mut violations);
                cells += 1;
            }
        }
        families.push(FamilyResult {
            family: "runtime-faults",
            covers: "faults",
            cells,
            violations,
        });
    }

    // runtime-cache: every plan submitted twice — a templated stream
    // must actually hit, and the replay re-plans every hit cold. The
    // faulted cell (the seeded crashes of runtime-log) serves hits
    // across crashes.
    {
        let mut violations = Vec::new();
        let mut cells = 0;
        let doubled: Vec<TreeProblem> =
            stream.iter().flat_map(|p| [p.clone(), p.clone()]).collect();
        let doubled_arrivals: Vec<f64> = arrivals.iter().flat_map(|t| [*t, *t]).collect();
        for faulty in [false, true] {
            let rt_cfg = RuntimeConfig {
                faults: seeded_faults(if faulty { 4.0 } else { 0.0 }),
                deadline: deadline(faulty),
                ..base.clone()
            };
            let (_, summary) =
                serve_audited(&h, rt_cfg, &doubled, &doubled_arrivals, &mut violations);
            if summary.cache.hits == 0 {
                violations.push(Violation::ShapeMismatch {
                    detail: "templated stream produced no cache hits".to_owned(),
                });
            }
            let first_crash = summary
                .faults
                .iter()
                .find(|r| matches!(r.kind, FaultRecordKind::SiteDown { .. }))
                .map(|r| r.time);
            let hit_after_crash = first_crash.is_some_and(|t| {
                summary
                    .trace
                    .iter()
                    .any(|ev| matches!(ev, AuditEvent::CacheHit { time, .. } if *time > t))
            });
            if faulty && !hit_after_crash {
                violations.push(Violation::ShapeMismatch {
                    detail: "faulted cache cell served no hit after a crash".to_owned(),
                });
            }
            cells += 1;
        }
        families.push(FamilyResult {
            family: "runtime-cache",
            covers: "throughput (serve mode)",
            cells,
            violations,
        });
    }

    // runtime-log: the clone event log, clean and under seeded crashes.
    {
        let mut violations = Vec::new();
        let mut cells = 0;
        for faulty in [false, true] {
            let rt_cfg = RuntimeConfig {
                faults: seeded_faults(if faulty { 4.0 } else { 0.0 }),
                deadline: deadline(faulty),
                ..base.clone()
            };
            let (rt, _) = serve_audited(&h, rt_cfg, &stream, &arrivals, &mut violations);
            violations.extend(audit_clone_log(&rt.clone_events(), sites));
            cells += 1;
        }
        families.push(FamilyResult {
            family: "runtime-log",
            covers: "throughput (clone event log)",
            cells,
            violations,
        });
    }

    // runtime-controller: the X15 overload runs. Ramp and burst arrival
    // processes push the stream well past the knee so the controller
    // actually moves; every decision it records must then replay against
    // the config, and capped offline plans must satisfy both the
    // governed cap and the paper caps. The stream is served twice, so
    // its second round hits whole plans while the governor is engaged
    // (guard), and the cold replay re-plans them at the governed cap.
    {
        let mut violations = Vec::new();
        let mut cells = 0;
        let ctl = ControllerConfig::adaptive();
        let peak = h.rate(4.0, 4);
        let twice = cycled(&stream, 2 * n_queries);
        let arrival_sets = [
            ramp_arrivals(
                0.25 * peak,
                peak,
                8.0 * mean_standalone,
                2 * n_queries,
                cfg.seed ^ ARRIVALS,
            ),
            burst_arrivals(
                0.1 * peak,
                peak,
                4.0 * mean_standalone,
                0.25,
                2 * n_queries,
                cfg.seed ^ ARRIVALS,
            ),
        ];
        for arrivals in &arrival_sets {
            for n_shards in [1usize, 4] {
                let rt_cfg = RuntimeConfig {
                    controller: ctl.clone(),
                    shards: n_shards,
                    ..base.clone()
                };
                let (_, summary) = serve_audited(&h, rt_cfg, &twice, arrivals, &mut violations);
                if !summary
                    .trace
                    .iter()
                    .any(|ev| matches!(ev, AuditEvent::ControlDecision { .. }))
                {
                    violations.push(Violation::ShapeMismatch {
                        detail: "overload stream never engaged the controller".to_owned(),
                    });
                }
                let mut level = 0;
                let governed_hit = summary.trace.iter().any(|ev| {
                    if let AuditEvent::ControlDecision { level: l, .. } = *ev {
                        level = l;
                    }
                    matches!(ev, AuditEvent::CacheHit { .. }) && level > 0
                });
                if !governed_hit {
                    violations.push(Violation::ShapeMismatch {
                        detail: "overload stream served twice hit no plan at a governed level"
                            .to_owned(),
                    });
                }
                violations.extend(audit_controller(&summary, &ctl));
                cells += 1;
            }
        }
        // Governed offline plans: the controller's cap composes with the
        // paper caps instead of replacing them.
        for cap in [2usize, 4] {
            for q in &stream {
                let opts = PlanOptions {
                    cap: Some(cap),
                    ..PlanOptions::default()
                };
                let r = tree_schedule_with(q, f, sys, &comm, &model, opts)
                    .expect("stream plans always schedule");
                violations.extend(audit_governed_degrees(q, &r, cap));
                violations.extend(audit_tree(
                    q,
                    &r,
                    sys,
                    &comm,
                    &model,
                    &AuditOptions::coarse_grain(f),
                ));
                cells += 1;
            }
        }
        families.push(FamilyResult {
            family: "runtime-controller",
            covers: "saturation",
            cells,
            violations,
        });
    }

    // runtime-mqo: batched admission with cross-query plan sharing.
    // Overlap-templated batches planned under a batch window with
    // sharing on must actually splice subtree fragments (guard), and
    // every recorded splice must replay digest-identical against its
    // FragmentInsert. Each batch is served twice, its second round
    // arriving after the first: the clean cell must then serve
    // whole-plan hits (guard), which the cold replay re-plans through
    // the shared planner.
    {
        let mut violations = Vec::new();
        let mut cells = 0;
        let (joins, n_batch) = if cfg.fast { (8, 6) } else { (12, 10) };
        let twice_arrivals = h.poisson(h.rate(1.5, 4), 2 * n_batch, cfg.seed);
        for (w, &overlap) in [0.5, 0.9].iter().enumerate() {
            let batch: Vec<TreeProblem> = overlap_batch(
                &QueryGenConfig::paper(joins),
                overlap,
                n_batch,
                cfg.seed ^ 0x3160_3160 ^ w as u64,
            )
            .iter()
            .map(|q| query_problem(q, &cost))
            .collect();
            for faulty in [false, true] {
                let rt_cfg = RuntimeConfig {
                    faults: seeded_faults(if faulty { 4.0 } else { 0.0 }),
                    deadline: deadline(faulty),
                    batch_window: n_batch,
                    plan_sharing: true,
                    ..base.clone()
                };
                let (_, summary) = serve_audited(
                    &h,
                    rt_cfg,
                    &cycled(&batch, 2 * n_batch),
                    &twice_arrivals,
                    &mut violations,
                );
                let traced = |hit: fn(&AuditEvent) -> bool| summary.trace.iter().any(hit);
                if !faulty && !traced(|ev| matches!(ev, AuditEvent::FragmentSpliced { .. })) {
                    violations.push(Violation::ShapeMismatch {
                        detail: format!("overlap-{overlap} batch produced no fragment splices"),
                    });
                }
                if !faulty && !traced(|ev| matches!(ev, AuditEvent::CacheHit { .. })) {
                    violations.push(Violation::ShapeMismatch {
                        detail: format!("overlap-{overlap} batch served twice hit no whole plan"),
                    });
                }
                cells += 1;
            }
        }
        families.push(FamilyResult {
            family: "runtime-mqo",
            covers: "mqo",
            cells,
            violations,
        });
    }

    // source-lint: the scanner is part of the reproduction contract —
    // concurrency primitives outside the sync shim (or any
    // determinism-rule violation) is an audit failure, not just a CI
    // failure. The root is resolved relative to this crate so the
    // family works from any working directory.
    {
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let allow = Allowlist::load(&root.join("lint-allow.txt"));
        let cells = workspace_sources(root).len();
        let violations: Vec<Violation> = lint_workspace(root, &allow)
            .into_iter()
            .filter(|f| !f.waived)
            .map(|f| Violation::ShapeMismatch {
                detail: format!("lint: {f}"),
            })
            .collect();
        families.push(FamilyResult {
            family: "source-lint",
            covers: "mrs-lint (determinism + atomics rule families)",
            cells,
            violations,
        });
    }

    let mut table = Table::new(vec!["family", "covers", "cells", "violations"]);
    let mut notes = Vec::new();
    let mut total = 0;
    for fam in &families {
        table.push_row(vec![
            fam.family.to_owned(),
            fam.covers.to_owned(),
            fam.cells.to_string(),
            fam.violations.len().to_string(),
        ]);
        total += fam.violations.len();
        for v in fam.violations.iter().take(5) {
            notes.push(format!("{}: [{}] {v}", fam.family, v.kind()));
        }
    }
    notes.push(if total == 0 {
        "all families audit clean: Definition 5.1, CG_f cap, co-location, shelf order, \
         Theorem 5.1 certificates, fluid feasibility, conservation, cache coherence, \
         clone log conservation, source lint"
            .to_owned()
    } else {
        format!("{total} violations — the scheduler broke a paper invariant (see rows above)")
    });

    Report {
        id: "audit",
        title: "Paper-invariant audit of every experiment family".to_owned(),
        params: format!(
            "f={f} eps={eps} sweeps={}x{} queries, runtime P={sites} n={n_queries} seed={}",
            sweep.len(),
            problems.len(),
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
    fn fast_audit_is_clean_everywhere() {
        let report = audit(&ExpConfig {
            fast: true,
            jobs: 1,
            ..Default::default()
        });
        assert_eq!(report.table.rows.len(), 13, "thirteen families");
        for row in &report.table.rows {
            assert_eq!(row[3], "0", "family {} must audit clean", row[0]);
        }
    }
}
