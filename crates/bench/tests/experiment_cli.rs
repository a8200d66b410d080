//! The experiment binaries' count argument, driven through their command
//! lines: a count that is not a positive integer is refused with the usage
//! line instead of running the default or an empty experiment.

use std::process::{Command, Output};

/// The three binaries that take a graph count, with their usage lines.
const BINARIES: [(&str, &str); 3] = [
    (
        env!("CARGO_BIN_EXE_fig5_increase"),
        "usage: fig5_increase [graphs_per_size]",
    ),
    (
        env!("CARGO_BIN_EXE_fig6_runtime"),
        "usage: fig6_runtime [graphs_per_size]",
    ),
    (
        env!("CARGO_BIN_EXE_ablation_policy"),
        "usage: ablation_policy [graphs]",
    ),
];

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("experiment binary runs")
}

#[test]
fn counts_that_are_not_one_positive_integer_print_usage_and_exit_1() {
    for (binary, usage) in BINARIES {
        for args in [&["0"][..], &["fourteen"], &["-2"], &["1", "1"]] {
            let output = run(binary, args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{binary} {args:?}: {stderr}");
            assert!(stderr.contains(usage), "{binary} {args:?}: {stderr}");
            assert!(
                output.stdout.is_empty(),
                "{binary} {args:?} printed a report"
            );
        }
    }
}

#[test]
fn a_positive_count_runs_the_experiment() {
    for (binary, _) in BINARIES {
        let output = run(binary, &["1"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{binary} 1: {stderr}");
        assert!(!output.stdout.is_empty(), "{binary} 1 printed nothing");
    }
}
