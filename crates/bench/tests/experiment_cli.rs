//! The experiment binaries' count argument, driven through their command
//! lines: a count that is not a positive integer is refused with the usage
//! line instead of running the default or an empty experiment. Also pins
//! `table_probe 12` to a committed golden file, so a change that alters any
//! merge decision on those systems has to say so by regenerating it.

use std::process::{Command, Output};

/// The four binaries that take a graph count, with their usage lines.
const BINARIES: [(&str, &str); 4] = [
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
    (
        env!("CARGO_BIN_EXE_table_probe"),
        "usage: table_probe [graphs_per_size]",
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

/// `table_probe 12` (the first 36 suite systems and the deep nests with
/// `j < 12`) prints exactly the committed lines. A change that means to alter
/// merge decisions regenerates the file with
/// `cargo run --release -p cpg-bench --bin table_probe 12 > crates/bench/tests/table_probe_12.txt`.
#[test]
fn table_probe_12_matches_the_golden_file() {
    let output = run(env!("CARGO_BIN_EXE_table_probe"), &["12"]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let expected = include_str!("table_probe_12.txt");
    let actual = String::from_utf8(output.stdout).expect("utf-8 output");
    assert_eq!(expected.lines().count(), 72);
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {} of table_probe 12 differs", line + 1);
    }
    assert_eq!(
        actual, expected,
        "table_probe 12 printed extra or missing lines"
    );
}
