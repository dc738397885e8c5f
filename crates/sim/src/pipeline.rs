//! Pipelined execution simulation — stress-testing assumption A3.
//!
//! The paper's model (A3: uniform resource usage) lets every operator of
//! a pipeline progress independently; the analytic site time (Equation 2)
//! follows. Real pipelines are *coupled*: a probe can only consume tuples
//! as fast as its producer emits them. This module simulates the
//! pessimistic extreme — a **tightly coupled, unbuffered** pipeline where
//! a consumer's progress rate never exceeds the progress rate of any of
//! its live producers — and thereby brackets reality between the paper's
//! analytic model (free-running, optimistic) and lockstep execution
//! (pessimistic).
//!
//! Mechanics: clones get *base* speeds from the per-site sharing policy,
//! solved by the engine's own solver over each site's live clones (see
//! [`crate::engine`]); a global pass in topological producer→consumer
//! order then caps each consumer clone's speed so the operator's
//! *fractional* progress rate (`speed / duration`, taken as the minimum
//! over the operator's clones — the slowest clone gates the stream) does
//! not exceed its producers'. Completed producers stop constraining.
//! Since every operator starts at progress 0 and consumer rates never
//! exceed producer rates, `progress(consumer) ≤ progress(producer)` holds
//! invariantly and the only events are clone completions.
//!
//! The one-pass cap is conservative: capacity freed by throttled
//! consumers is not redistributed to other clones on the same site, so
//! reported makespans are upper bounds for the coupled discipline.

use crate::engine::{speeds_into, Active, SimConfig};
use mrs_core::model::ResponseModel;
use mrs_core::operator::OperatorId;
use mrs_core::resource::SystemSpec;
use mrs_core::schedule::PhaseSchedule;
use mrs_core::vector::WorkVector;
use std::collections::HashMap;

/// Result of a pipelined phase simulation.
#[derive(Clone, Debug)]
pub struct PipelineSimResult {
    /// Simulated phase makespan under tight coupling.
    pub makespan: f64,
    /// Completion time of every operator (when its last clone finishes).
    pub op_finish: Vec<(OperatorId, f64)>,
    /// Number of speed-recomputation events processed.
    pub events: usize,
}

struct CloneState {
    op: usize, // dense index into the phase's op list
    site: usize,
    demand: WorkVector,
    duration: f64,
    remaining: f64,
}

/// Simulates one phase under tightly coupled pipelines.
///
/// `pipeline_edges` lists `(producer, consumer)` operator pairs; pairs
/// whose endpoints are not both in this phase are ignored (cross-phase
/// edges are blocking by construction).
///
/// # Panics
/// Panics if the pipeline edges within the phase contain a cycle (operator
/// trees never do).
pub fn simulate_phase_pipelined<M: ResponseModel>(
    schedule: &PhaseSchedule,
    pipeline_edges: &[(OperatorId, OperatorId)],
    sys: &SystemSpec,
    model: &M,
    config: &SimConfig,
) -> PipelineSimResult {
    let d = sys.dim();
    let op_index: HashMap<OperatorId, usize> = schedule
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| (op.spec.id, i))
        .collect();
    let m = schedule.ops.len();

    // Producers per op (dense indices), restricted to this phase.
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (src, dst) in pipeline_edges {
        if let (Some(&s), Some(&t)) = (op_index.get(src), op_index.get(dst)) {
            producers[t].push(s);
            consumers[s].push(t);
        }
    }
    // Topological order (Kahn).
    let mut indegree: Vec<usize> = producers.iter().map(Vec::len).collect();
    let mut topo: Vec<usize> = (0..m).filter(|&i| indegree[i] == 0).collect();
    let mut head = 0;
    while head < topo.len() {
        let u = topo[head];
        head += 1;
        for &v in &consumers[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                topo.push(v);
            }
        }
    }
    assert_eq!(
        topo.len(),
        m,
        "pipeline edges within a phase must be acyclic"
    );

    // Clone states.
    let mut clones: Vec<CloneState> = Vec::new();
    let mut finished_at = vec![0.0f64; m];
    let mut live_clones = vec![0usize; m];
    for (i, op) in schedule.ops.iter().enumerate() {
        for (k, &site) in schedule.assignment.homes[i].iter().enumerate() {
            let w = &op.clones[k];
            let duration = model.t_seq(w);
            if duration <= 0.0 {
                continue;
            }
            live_clones[i] += 1;
            clones.push(CloneState {
                op: i,
                site: site.0,
                demand: w.rates(duration),
                duration,
                remaining: duration,
            });
        }
    }

    let mut now = 0.0f64;
    let mut events = 0usize;
    let (mut resident, mut site_speeds, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    while clones.iter().any(|c| c.remaining > 0.0) {
        events += 1;
        // --- base speeds per site: the engine's sharing solve over the
        //     site's live clones, in clone-index order ---
        let mut speed: Vec<f64> = vec![0.0; clones.len()];
        for site in 0..sys.sites {
            resident.clear();
            resident.extend(
                (clones.iter().enumerate())
                    .filter(|(_, c)| c.site == site && c.remaining > 0.0)
                    .map(|(ci, c)| Active {
                        tag: ci,
                        demand: c.demand.clone(),
                        remaining: c.remaining,
                    }),
            );
            if resident.is_empty() {
                continue;
            }
            speeds_into(&resident, config, d, &mut site_speeds, &mut scratch);
            for (a, &sc) in resident.iter().zip(&site_speeds) {
                speed[a.tag] = sc;
            }
        }

        // --- pipeline coupling pass: cap consumer fractional rates ---
        // rate(op) = min over live clones of speed/duration; ops with no
        // live clones are done and unconstraining.
        let mut op_rate = vec![f64::INFINITY; m];
        for &u in &topo {
            // Cap this op's clones by its producers first.
            let bound = producers[u]
                .iter()
                .map(|&p| op_rate[p])
                .fold(f64::INFINITY, f64::min);
            let mut rate = f64::INFINITY;
            for (ci, c) in clones.iter().enumerate() {
                if c.op != u || c.remaining <= 0.0 {
                    continue;
                }
                if bound.is_finite() {
                    speed[ci] = speed[ci].min(bound * c.duration);
                }
                rate = rate.min(speed[ci] / c.duration);
            }
            if live_clones[u] > 0 {
                op_rate[u] = rate;
            } // else stays INFINITY: completed producers don't constrain
        }

        // --- advance to the next completion ---
        let mut dt = f64::INFINITY;
        for (ci, c) in clones.iter().enumerate() {
            if c.remaining > 0.0 && speed[ci] > 0.0 {
                dt = dt.min(c.remaining / speed[ci]);
            }
        }
        assert!(
            dt.is_finite() && dt > 0.0,
            "pipelined simulation stalled (all live clones throttled to zero)"
        );
        now += dt;
        for (ci, c) in clones.iter_mut().enumerate() {
            if c.remaining <= 0.0 {
                continue;
            }
            c.remaining -= speed[ci] * dt;
            if c.remaining <= 1e-12 * now.max(1.0) {
                c.remaining = 0.0;
                live_clones[c.op] -= 1;
                if live_clones[c.op] == 0 {
                    finished_at[c.op] = now;
                }
            }
        }
    }

    let op_finish = schedule
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| (op.spec.id, finished_at[i]))
        .collect();
    PipelineSimResult {
        makespan: now,
        op_finish,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::simulate_phase;
    use mrs_core::comm::CommModel;
    use mrs_core::list::operator_schedule;
    use mrs_core::model::OverlapModel;
    use mrs_core::operator::{OperatorKind, OperatorSpec};
    use mrs_core::vector::WorkVector;

    fn two_op_pipeline(
        producer_w: &[f64],
        consumer_w: &[f64],
        sites: usize,
    ) -> (
        PhaseSchedule,
        SystemSpec,
        OverlapModel,
        Vec<(OperatorId, OperatorId)>,
    ) {
        let sys = SystemSpec::homogeneous(sites);
        let comm = CommModel::new(1e-9, 0.0).unwrap();
        let model = OverlapModel::new(0.5).unwrap();
        let ops = vec![
            OperatorSpec::floating(
                OperatorId(0),
                OperatorKind::Scan,
                WorkVector::from_slice(producer_w),
                0.0,
            ),
            OperatorSpec::floating(
                OperatorId(1),
                OperatorKind::Probe,
                WorkVector::from_slice(consumer_w),
                0.0,
            ),
        ];
        let schedule = operator_schedule(ops, 5.0, &sys, &comm, &model).unwrap();
        (schedule, sys, model, vec![(OperatorId(0), OperatorId(1))])
    }

    #[test]
    fn uncoupled_ops_match_plain_simulation() {
        let (schedule, sys, model, _) = two_op_pipeline(&[4.0, 0.0, 0.0], &[2.0, 0.0, 0.0], 4);
        let plain = simulate_phase(&schedule, &sys, &model, &SimConfig::default());
        let piped = simulate_phase_pipelined(&schedule, &[], &sys, &model, &SimConfig::default());
        assert!(
            (piped.makespan - plain.makespan).abs() <= 1e-9 * plain.makespan.max(1.0),
            "no edges => identical behaviour: {} vs {}",
            piped.makespan,
            plain.makespan
        );
    }

    #[test]
    fn slow_producer_throttles_fast_consumer() {
        // Producer is 4x the consumer's duration; tightly coupled, the
        // consumer must stretch to the producer's finish time.
        let (schedule, sys, model, edges) = two_op_pipeline(&[8.0, 0.0, 0.0], &[1.0, 0.0, 0.0], 8);
        let plain = simulate_phase(&schedule, &sys, &model, &SimConfig::default());
        let piped =
            simulate_phase_pipelined(&schedule, &edges, &sys, &model, &SimConfig::default());
        assert!(
            piped.makespan >= plain.makespan - 1e-9,
            "coupling can only slow things down"
        );
        // The consumer finishes with (not before) the producer.
        let finish: HashMap<OperatorId, f64> = piped.op_finish.iter().copied().collect();
        assert!(
            finish[&OperatorId(1)] >= finish[&OperatorId(0)] - 1e-9,
            "consumer cannot finish before its producer under tight coupling"
        );
    }

    #[test]
    fn coupling_never_speeds_up_real_phases() {
        use mrs_core::tasks::TaskGraph;
        use mrs_core::tree::{tree_schedule, TreeProblem};
        let sys = SystemSpec::homogeneous(6);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.4).unwrap();
        let ops: Vec<_> = (0..5)
            .map(|i| {
                OperatorSpec::floating(
                    OperatorId(i),
                    OperatorKind::Other,
                    WorkVector::from_slice(&[1.0 + i as f64, 2.0, 0.0]),
                    100_000.0,
                )
            })
            .collect();
        let ids: Vec<_> = (0..5).map(OperatorId).collect();
        let problem = TreeProblem {
            ops,
            tasks: TaskGraph::single_task(ids),
            bindings: vec![],
        };
        let r = tree_schedule(&problem, 0.7, &sys, &comm, &model).unwrap();
        let phase = &r.phases[0];
        // Chain all five ops into one pipeline.
        let edges: Vec<_> = (0..4).map(|i| (OperatorId(i), OperatorId(i + 1))).collect();
        let plain = simulate_phase(&phase.schedule, &sys, &model, &SimConfig::default());
        let piped =
            simulate_phase_pipelined(&phase.schedule, &edges, &sys, &model, &SimConfig::default());
        assert!(piped.makespan + 1e-9 >= plain.makespan);
    }

    #[test]
    fn completed_producer_stops_constraining() {
        // Producer much shorter than consumer: once it drains, the
        // consumer runs at full speed; total ≈ consumer's own time.
        let (schedule, sys, model, edges) = two_op_pipeline(&[0.5, 0.0, 0.0], &[8.0, 0.0, 0.0], 8);
        let plain = simulate_phase(&schedule, &sys, &model, &SimConfig::default());
        let piped =
            simulate_phase_pipelined(&schedule, &edges, &sys, &model, &SimConfig::default());
        // Consumer rate-capped only while the producer lives; since the
        // producer's fractional rate >= consumer's anyway, no slowdown.
        assert!((piped.makespan - plain.makespan).abs() <= 0.6 + 1e-9);
    }

    #[test]
    fn cross_phase_edges_ignored() {
        let (schedule, sys, model, _) = two_op_pipeline(&[4.0, 0.0, 0.0], &[2.0, 0.0, 0.0], 4);
        // An edge naming an operator not in this phase must be ignored.
        let edges = vec![(OperatorId(7), OperatorId(1))];
        let piped =
            simulate_phase_pipelined(&schedule, &edges, &sys, &model, &SimConfig::default());
        assert!(piped.makespan > 0.0);
    }

    #[test]
    fn event_count_is_reported() {
        let (schedule, sys, model, edges) = two_op_pipeline(&[8.0, 0.0, 0.0], &[1.0, 0.0, 0.0], 4);
        let piped =
            simulate_phase_pipelined(&schedule, &edges, &sys, &model, &SimConfig::default());
        assert!(piped.events >= 1);
    }
}
