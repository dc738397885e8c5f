//! # mrs-exp — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 6) plus the ablation and extension experiments indexed in
//! DESIGN.md. Each experiment is a pure function from an [`ExpConfig`] to
//! a [`Report`] (a results table + interpretation notes); the `mrs-repro`
//! binary prints them and optionally writes CSVs.
//!
//! ```no_run
//! use mrs_exp::prelude::*;
//!
//! let cfg = ExpConfig { fast: true, ..Default::default() };
//! let report = fig5a(&cfg);
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod auditcheck;
pub mod config;
pub mod dimcheck;
pub mod extensions;
pub mod faultcheck;
pub mod figures;
pub mod memcheck;
pub mod mqo;
pub mod pipecheck;
pub mod planopt;
pub mod render;
pub mod report;
pub mod runner;
pub mod saturation;
pub mod serving;
pub mod shelfcheck;
pub mod stats;
pub mod tablefmt;
pub mod throughput;

use config::ExpConfig;
use report::Report;

/// An experiment entry point: pure function from config to report.
pub type Experiment = fn(&ExpConfig) -> Report;

/// All experiments by id, in presentation order.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("table2", figures::table2 as Experiment),
        ("fig5a", figures::fig5a),
        ("fig5b", figures::fig5b),
        ("fig6a", figures::fig6a),
        ("fig6b", figures::fig6b),
        ("ablation-dims", ablations::ablation_dims),
        ("ablation-order", ablations::ablation_order),
        ("malleable", extensions::malleable),
        ("planopt", planopt::planopt),
        ("pipecheck", pipecheck::pipecheck),
        ("memcheck", memcheck::memcheck),
        ("dimcheck", dimcheck::dimcheck),
        ("shelfcheck", shelfcheck::shelfcheck),
        ("optgap", extensions::optgap),
        ("simcheck", extensions::simcheck),
        ("skew", extensions::skew),
        ("throughput", throughput::throughput),
        ("faults", faultcheck::faults),
        ("saturation", saturation::saturation),
        ("mqo", mqo::mqo),
        ("audit", auditcheck::audit),
    ]
}

/// Looks an experiment up by id.
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    all_experiments()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f)
}

/// One-stop imports.
pub mod prelude {
    pub use crate::ablations::{ablation_dims, ablation_order};
    pub use crate::auditcheck::audit;
    pub use crate::config::ExpConfig;
    pub use crate::dimcheck::dimcheck;
    pub use crate::extensions::{malleable, optgap, simcheck, skew};
    pub use crate::faultcheck::faults;
    pub use crate::figures::{fig5a, fig5b, fig6a, fig6b, table2};
    pub use crate::memcheck::memcheck;
    pub use crate::mqo::mqo;
    pub use crate::pipecheck::pipecheck;
    pub use crate::planopt::planopt;
    pub use crate::render::{phase_heatmap, tree_report};
    pub use crate::report::Report;
    pub use crate::runner::{mean_response, problem_response, query_problem, query_response, Algo};
    pub use crate::saturation::saturation;
    pub use crate::shelfcheck::shelfcheck;
    pub use crate::stats::{percentile, Summary};
    pub use crate::tablefmt::{ratio, secs, Table};
    pub use crate::throughput::throughput;
    pub use crate::{all_experiments, experiment_by_id};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_have_unique_ids() {
        let ids: Vec<_> = all_experiments().into_iter().map(|(id, _)| id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert_eq!(ids.len(), 21);
    }

    #[test]
    fn lookup_works() {
        assert!(experiment_by_id("fig5a").is_some());
        assert!(experiment_by_id("nope").is_none());
    }
}
