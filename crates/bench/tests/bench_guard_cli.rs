//! The `bench_guard` binary driven through its command line.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `bench_guard` from the workspace root with `args`.
fn bench_guard(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_bench_guard"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("bench_guard runs")
}

#[test]
fn a_flag_without_a_value_prints_usage_and_exits_1() {
    let output = bench_guard(&["--current"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("missing value for --current"), "{stderr}");
    assert!(stderr.contains("usage: bench_guard"), "{stderr}");
}

#[test]
fn a_baseline_recorded_before_the_probe_is_refused() {
    let output = bench_guard(&["--baseline", "BENCH_15.json", "--current", "BENCH_15.json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("re-record it with --emit"), "{stderr}");
}
