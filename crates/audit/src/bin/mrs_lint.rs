//! `mrs-lint` — the workspace source gate.
//!
//! Usage: `mrs-lint [--root DIR] [--allowlist FILE] [--out FILE]`
//!
//! Scans every `.rs` file under `--root` (default: current directory)
//! against the rules in `mrs_audit::lint`, waiving findings listed in
//! the committed allowlist (default: `ROOT/lint-allow.txt`). Prints each
//! finding, optionally writes the full report to `--out`, and exits
//! non-zero when any unwaived finding remains or an allowlist entry
//! waives no finding.

use mrs_audit::lint::{lint_workspace, Allowlist};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().expect("--root needs a directory")),
            "--allowlist" => {
                allowlist = Some(PathBuf::from(
                    args.next().expect("--allowlist needs a file"),
                ))
            }
            "--out" => out_path = Some(PathBuf::from(args.next().expect("--out needs a file"))),
            other => {
                eprintln!("mrs-lint: unknown argument {other}");
                eprintln!("usage: mrs-lint [--root DIR] [--allowlist FILE] [--out FILE]");
                return ExitCode::from(2);
            }
        }
    }
    let allow_path = allowlist.unwrap_or_else(|| root.join("lint-allow.txt"));
    let allow = Allowlist::load(&allow_path);

    let findings = lint_workspace(&root, &allow);
    let mut report = String::new();
    let mut unwaived = 0usize;
    let mut waived = 0usize;
    for f in &findings {
        if f.waived {
            waived += 1;
        } else {
            unwaived += 1;
            println!("{f}");
        }
        report.push_str(&f.to_string());
        report.push('\n');
    }
    let stale = allow.unused(&findings);
    for (rule, prefix, _) in &stale {
        let line = format!("{}: unused waiver: {rule} {prefix}", allow_path.display());
        println!("{line}");
        report.push_str(&line);
        report.push('\n');
    }
    report.push_str(&format!(
        "total {} findings: {unwaived} unwaived, {waived} waived; {} unused waivers\n",
        findings.len(),
        stale.len()
    ));
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("mrs-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "mrs-lint: {} findings ({unwaived} unwaived, {waived} waived by {}), {} unused waivers",
        findings.len(),
        allow_path.display(),
        stale.len()
    );
    if unwaived > 0 || !stale.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
