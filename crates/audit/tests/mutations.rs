//! Auditor self-tests: every seeded invariant break must be caught with
//! the *right* [`Violation`] kind, and the untouched artifacts must
//! audit clean. This is the evidence that the auditor has teeth — a
//! checker that passes everything would pass these mutants too, and
//! these tests would fail.

use mrs_audit::prelude::*;
use mrs_core::comm::CommModel;
use mrs_core::model::OverlapModel;
use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
use mrs_core::resource::{SiteId, SystemSpec};
use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
use mrs_core::tasks::{HomeBinding, TaskGraph, TaskId, TaskNode};
use mrs_core::tree::{tree_schedule, TreeProblem, TreeScheduleResult};
use mrs_core::vector::WorkVector;
use mrs_runtime::prelude::{AdmissionPolicy, AuditEvent, RecoveryConfig, Runtime, RuntimeConfig};
use mrs_shardexec::segment::ShardEventKind;
use mrs_sim::fault::{FaultEvent, FaultKind, FaultPlan};

fn op(id: usize, w: &[f64], data: f64) -> OperatorSpec {
    OperatorSpec::floating(
        OperatorId(id),
        OperatorKind::Other,
        WorkVector::from_slice(w),
        data,
    )
}

/// The scan+build / scan+probe join fixture (same shape as the
/// in-crate invariant tests): two shelves, one probe<-build binding.
fn join_problem() -> TreeProblem {
    let ops = vec![
        op(0, &[2.0, 4.0, 0.0], 1e6),
        op(1, &[1.0, 0.0, 0.0], 1e6),
        op(2, &[3.0, 6.0, 0.0], 2e6),
        op(3, &[2.5, 0.0, 0.0], 3e6),
    ];
    let tasks = TaskGraph::new(vec![
        TaskNode {
            ops: vec![OperatorId(2), OperatorId(3)],
            parent: None,
        },
        TaskNode {
            ops: vec![OperatorId(0), OperatorId(1)],
            parent: Some(TaskId(0)),
        },
    ])
    .unwrap();
    TreeProblem {
        ops,
        tasks,
        bindings: vec![HomeBinding {
            dependent: OperatorId(3),
            source: OperatorId(1),
        }],
    }
}

struct Fixture {
    problem: TreeProblem,
    sys: SystemSpec,
    comm: CommModel,
    model: OverlapModel,
    result: TreeScheduleResult,
}

fn fixture() -> Fixture {
    let problem = join_problem();
    let sys = SystemSpec::homogeneous(8);
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let result = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
    Fixture {
        problem,
        sys,
        comm,
        model,
        result,
    }
}

fn audit(fx: &Fixture, opts: &AuditOptions) -> Vec<Violation> {
    audit_tree(&fx.problem, &fx.result, &fx.sys, &fx.comm, &fx.model, opts)
}

fn kinds(v: &[Violation]) -> Vec<&'static str> {
    v.iter().map(Violation::kind).collect()
}

/// `(phase index, op index)` of `id` in the result.
fn locate(result: &TreeScheduleResult, id: OperatorId) -> (usize, usize) {
    for (p, phase) in result.phases.iter().enumerate() {
        for (i, sop) in phase.schedule.ops.iter().enumerate() {
            if sop.spec.id == id {
                return (p, i);
            }
        }
    }
    panic!("{id:?} not scheduled");
}

#[test]
fn untouched_fixture_audits_clean() {
    let fx = fixture();
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(v.is_empty(), "clean schedule must audit clean: {v:?}");
}

#[test]
fn clone_collision_is_caught() {
    let mut fx = fixture();
    // The big join op parallelizes; collapse all of its clone homes
    // onto site 0.
    let (p, i) = locate(&fx.result, OperatorId(2));
    let homes = &mut fx.result.phases[p].schedule.assignment.homes[i];
    assert!(homes.len() >= 2, "fixture op 2 must parallelize");
    for h in homes.iter_mut() {
        *h = SiteId(0);
    }
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"clone-collision"), "{v:?}");
}

#[test]
fn site_out_of_range_is_caught() {
    let mut fx = fixture();
    let (p, i) = locate(&fx.result, OperatorId(0));
    fx.result.phases[p].schedule.assignment.homes[i][0] = SiteId(fx.sys.sites + 5);
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"site-out-of-range"), "{v:?}");
}

#[test]
fn degree_zero_is_caught() {
    let mut fx = fixture();
    let (p, i) = locate(&fx.result, OperatorId(0));
    fx.result.phases[p].schedule.ops[i].degree = 0;
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"degree-zero"), "{v:?}");
}

#[test]
fn degree_mismatch_is_caught() {
    let mut fx = fixture();
    let (p, i) = locate(&fx.result, OperatorId(2));
    fx.result.phases[p].schedule.assignment.homes[i].pop();
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"degree-mismatch"), "{v:?}");
}

#[test]
fn probe_moved_off_build_home_is_caught() {
    let mut fx = fixture();
    // Rotate every home of the probe one site over: still distinct,
    // still in range, but no longer the build's homes.
    let (p, i) = locate(&fx.result, OperatorId(3));
    let sites = fx.sys.sites;
    let homes = &mut fx.result.phases[p].schedule.assignment.homes[i];
    let before = homes.clone();
    for h in homes.iter_mut() {
        *h = SiteId((h.0 + 1) % sites);
    }
    assert_ne!(*homes, before);
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"co-location"), "{v:?}");
}

#[test]
fn n_max_cap_excess_is_caught() {
    let mut fx = fixture();
    // Rebuild the standalone scan at degree 2 on two distinct sites —
    // structurally fine — then audit under f = 0 where N_max caps every
    // floating operator at 1.
    let (p, i) = locate(&fx.result, OperatorId(0));
    let spec = fx.result.phases[p].schedule.ops[i].spec.clone();
    fx.result.phases[p].schedule.ops[i] = ScheduledOperator::even(spec, 2, &fx.comm, &fx.sys.site);
    fx.result.phases[p].schedule.assignment.homes[i] = vec![SiteId(0), SiteId(1)];
    let v = audit(
        &fx,
        &AuditOptions {
            f: Some(0.0),
            certificate: false,
        },
    );
    assert!(kinds(&v).contains(&"coarse-grain-cap"), "{v:?}");
}

#[test]
fn shelf_overlap_and_missing_op_are_caught() {
    let mut fx = fixture();
    // Copy the build (phase 0) into the root phase as well: scheduled
    // twice.
    let (p, i) = locate(&fx.result, OperatorId(1));
    let dup = fx.result.phases[p].schedule.ops[i].clone();
    let dup_homes = fx.result.phases[p].schedule.assignment.homes[i].clone();
    let last = fx.result.phases.len() - 1;
    fx.result.phases[last].schedule.ops.push(dup);
    fx.result.phases[last]
        .schedule
        .assignment
        .homes
        .push(dup_homes);
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"shelf-overlap"), "{v:?}");

    // Drop an operator (and its homes) entirely: never scheduled.
    let mut fx = fixture();
    let (p, i) = locate(&fx.result, OperatorId(0));
    fx.result.phases[p].schedule.ops.remove(i);
    fx.result.phases[p].schedule.assignment.homes.remove(i);
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"op-missing"), "{v:?}");
}

#[test]
fn phase_barrier_inversion_is_caught() {
    let mut fx = fixture();
    // Execute the root shelf before the build shelf: the binding's
    // source no longer strictly precedes its dependent.
    fx.result.phases.reverse();
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    assert!(kinds(&v).contains(&"phase-order"), "{v:?}");
}

#[test]
fn makespan_tampering_is_caught() {
    let mut fx = fixture();
    fx.result.phases[0].makespan *= 0.5;
    let v = audit(&fx, &AuditOptions::coarse_grain(0.7));
    let k = kinds(&v);
    assert!(k.contains(&"makespan-mismatch"), "{v:?}");
    assert!(
        k.contains(&"response-mismatch"),
        "phase sum no longer matches: {v:?}"
    );
}

#[test]
fn certificate_catches_an_overloaded_site() {
    let sys = SystemSpec::homogeneous(8);
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let specs: Vec<OperatorSpec> = (0..40).map(|i| op(i, &[1.0, 1.0, 0.5], 1e5)).collect();
    let ops: Vec<ScheduledOperator> = specs
        .into_iter()
        .map(|s| ScheduledOperator::even(s, 1, &comm, &sys.site))
        .collect();

    // Spread across the machine: within the Theorem 5.1 envelope.
    let spread = PhaseSchedule {
        ops: ops.clone(),
        assignment: Assignment {
            homes: (0..40).map(|i| vec![SiteId(i % 8)]).collect(),
        },
    };
    let v = audit_schedule(&spread, &sys, &model, true, 0);
    assert!(
        v.is_empty(),
        "spread layout satisfies the certificate: {v:?}"
    );

    // Pile all forty sequential ops onto one site: the makespan grows
    // like 40·T while the certificate allows (2·3+1)·max(40·T/8, T_par).
    let piled = PhaseSchedule {
        ops,
        assignment: Assignment {
            homes: (0..40).map(|_| vec![SiteId(0)]).collect(),
        },
    };
    let v = audit_schedule(&piled, &sys, &model, true, 0);
    assert!(kinds(&v).contains(&"certificate"), "{v:?}");
}

#[test]
fn rooted_operator_off_its_home_is_caught() {
    let sys = SystemSpec::homogeneous(4);
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let spec = OperatorSpec::rooted(
        OperatorId(0),
        OperatorKind::Other,
        WorkVector::from_slice(&[1.0, 0.5, 0.0]),
        1e5,
        vec![SiteId(2)],
    );
    let sop = ScheduledOperator::even(spec, 1, &comm, &sys.site);
    let schedule = PhaseSchedule {
        ops: vec![sop],
        assignment: Assignment {
            homes: vec![vec![SiteId(3)]],
        },
    };
    let v = audit_schedule(&schedule, &sys, &model, false, 0);
    assert!(kinds(&v).contains(&"rooted-off-home"), "{v:?}");
}

/// Runs a templated two-query stream into a scripted mid-flight crash:
/// the trace must contain real `Repacked` and `CacheHit` events, the
/// honest summary must audit clean, and corrupting either event must be
/// caught with the right kind.
#[test]
fn recovery_and_cache_trace_mutations_are_caught() {
    let problem = join_problem();
    let sys = SystemSpec::homogeneous(4);
    let comm = CommModel::paper_defaults();
    let model = OverlapModel::new(0.5).unwrap();
    let standalone = tree_schedule(&problem, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;

    let crash_time = 0.25 * standalone;
    let faults = FaultPlan::scripted(
        (0..sys.sites)
            .map(|site| FaultEvent {
                time: crash_time + 0.01 * standalone * site as f64,
                site,
                kind: FaultKind::Crash,
            })
            .take(2)
            .collect(),
    );
    let cfg = RuntimeConfig {
        f: 0.7,
        policy: AdmissionPolicy::Fcfs,
        max_in_flight: 4,
        faults,
        recovery: RecoveryConfig {
            rebuild_factor: 0.1,
            max_retries: 4,
            backoff_base: 0.05 * standalone,
            backoff_cap: standalone,
            degrade_threshold: 0.25,
        },
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(sys, comm, model, cfg);
    // Identical plans: the second admission must hit the schedule cache.
    rt.submit_at(0.0, 0, problem.clone());
    rt.submit_at(0.0, 1, problem.clone());
    let mut summary = rt.run_to_completion().expect("fixture always schedules");

    let has_repack = summary
        .trace
        .iter()
        .any(|e| matches!(e, AuditEvent::Repacked { .. }));
    let has_hit = summary
        .trace
        .iter()
        .any(|e| matches!(e, AuditEvent::CacheHit { .. }));
    assert!(
        has_repack,
        "crash must trigger a re-pack: {:?}",
        summary.trace
    );
    assert!(
        has_hit,
        "templated stream must hit the cache: {:?}",
        summary.trace
    );
    let v = audit_run(&summary);
    assert!(v.is_empty(), "honest run must audit clean: {v:?}");

    // Drop half the re-packed work on the floor.
    let mut tampered = summary.clone();
    for ev in &mut tampered.trace {
        if let AuditEvent::Repacked { placed_total, .. } = ev {
            *placed_total *= 0.5;
        }
    }
    let v = audit_run(&tampered);
    assert!(kinds(&v).contains(&"conservation"), "{v:?}");

    // Serve bytes other than the ones the cache memoized.
    for ev in &mut summary.trace {
        if let AuditEvent::CacheHit { digest, .. } = ev {
            *digest ^= 1;
        }
    }
    let v = audit_run(&summary);
    assert!(kinds(&v).contains(&"cache-digest-mismatch"), "{v:?}");
}

/// A real run's clone event log must audit clean, and losing one
/// recorded completion from it (what a faulty log encoding would do)
/// must be caught as a clone with no terminal event.
#[test]
fn a_dropped_completion_is_caught() {
    let sys = SystemSpec::homogeneous(5);
    let cfg = RuntimeConfig {
        f: 0.7,
        ..RuntimeConfig::default()
    };
    let model = OverlapModel::new(0.5).unwrap();
    let mut rt = Runtime::new(sys, CommModel::paper_defaults(), model, cfg);
    for client in 0..3 {
        rt.submit_at(0.0, client, join_problem());
    }
    rt.run_to_completion().expect("fixture always schedules");
    let mut events = rt.clone_events();
    let v = audit_clone_log(&events, 5);
    assert!(v.is_empty(), "the honest log must audit clean: {v:?}");

    let i = events
        .iter()
        .rposition(|e| e.kind == ShardEventKind::Completed)
        .expect("the run completes clones");
    let dropped = events.remove(i);
    let v = audit_clone_log(&events, 5);
    assert_eq!(kinds(&v), vec!["clone-conservation"], "{v:?}");
    assert!(
        v[0].to_string()
            .contains(&format!("clone tag {}:", dropped.tag)),
        "{v:?}"
    );
}
