//! `mrs-repro serve` and `mrs-repro schedule` parse counts and seeds as
//! integers: a decimal or negative value is a usage error, never a
//! silently truncated run.

use std::process::{Command, Output};

fn mrs_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrs-repro"))
        .args(args)
        .output()
        .expect("mrs-repro runs")
}

fn assert_rejected(args: &[&str]) {
    let out = mrs_repro(args);
    assert!(!out.status.success(), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("needs a numeric argument"),
        "{args:?} printed {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

#[test]
fn decimal_counts_and_seeds_are_rejected() {
    assert_rejected(&["serve", "--seed", "1.5"]);
    assert_rejected(&["serve", "--shards", "2.9"]);
    assert_rejected(&["serve", "--sites", "-4"]);
    assert_rejected(&["schedule", "--joins", "2.5"]);
    assert_rejected(&["schedule", "--seed", "1e3"]);
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
