//! X11 — shelf policy: the paper's ALAP/MinShelf phase assignment
//! ([TL93]'s "phase closest to the root") vs an ASAP alternative (each
//! task runs as early as its blocking predecessors allow).
//!
//! On balanced bushy trees the two coincide; on unbalanced trees they
//! group different tasks onto a shelf, changing the per-phase resource
//! mixes the vector packer sees.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::runner::query_problem;
use crate::tablefmt::{ratio, secs, Table};
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::tree::{tree_schedule_with, PhasePolicy, PlanOptions};
use mrs_cost::prelude::CostModel;
use mrs_workload::suite::suite;

/// Runs the shelf-policy experiment.
pub fn shelfcheck(cfg: &ExpConfig) -> Report {
    let eps = 0.5;
    let f = 0.7;
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(eps).expect("paper epsilon is valid");
    let asap_opts = PlanOptions {
        policy: PhasePolicy::Asap,
        ..PlanOptions::default()
    };

    let mut table = Table::new(vec![
        "joins".to_owned(),
        "sites".to_owned(),
        "ALAP (paper)".to_owned(),
        "ASAP".to_owned(),
        "ASAP/ALAP".to_owned(),
    ]);
    for joins in cfg.query_sizes() {
        let s = suite(joins, cfg.queries_per_size(), cfg.seed);
        for sites in [20usize, 80] {
            let sys = SystemSpec::homogeneous(sites);
            let (mut alap, mut asap) = (0.0f64, 0.0f64);
            for q in &s.queries {
                let problem = query_problem(q, &cost);
                alap +=
                    tree_schedule_with(&problem, f, &sys, &comm, &model, PlanOptions::default())
                        .expect("paper workload always schedules")
                        .response_time;
                asap += tree_schedule_with(&problem, f, &sys, &comm, &model, asap_opts)
                    .expect("paper workload always schedules")
                    .response_time;
            }
            let n = s.queries.len() as f64;
            table.push_row(vec![
                joins.to_string(),
                sites.to_string(),
                secs(alap / n),
                secs(asap / n),
                ratio(asap / alap),
            ]);
        }
    }
    Report {
        id: "shelfcheck",
        title: "X11: Shelf policy - ALAP (MinShelf, the paper) vs ASAP phases".into(),
        params: format!(
            "epsilon={eps}, f={f}, {} queries per size",
            cfg.queries_per_size()
        ),
        table,
        notes: vec![
            "Both policies produce the same number of shelves on these task trees; they \
             differ in *which* shelf an off-critical-path task joins. Ratios near 1 say \
             the paper's simple MinShelf choice leaves little on the table for random \
             bushy plans."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shelfcheck_ratios_sane() {
        let cfg = ExpConfig {
            seed: 12,
            fast: true,
            jobs: 1,
        };
        let r = shelfcheck(&cfg);
        for row in &r.table.rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "implausible ASAP/ALAP ratio {ratio}"
            );
        }
    }
}
