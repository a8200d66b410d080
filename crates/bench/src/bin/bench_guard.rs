//! Benchmark regression gate, normalized by the criterion shim's speed
//! probe so it is independent of the absolute speed of the machine.
//!
//! Compares a fresh criterion-shim measurement (the JSON-lines file produced
//! by running `cargo bench` with `CRITERION_JSON=<path>`) against a committed
//! baseline (by default `DEFAULT_BASELINE`) and fails when any gated row
//! (`schedule_merging_serial/*`, `merge_walk/*`, `merge_rewalk/*`, `sim/*`,
//! `verify/*`, `delay/*`, `dispatch/*`, `pipeline/*` and
//! `path_list_scheduling/*` — single-threaded, so their cost is
//! core-count-independent) regresses by more than the allowed percentage;
//! every other row is reported for information (see `GATED_PREFIXES`).
//!
//! A gated group must be *present* on both sides: a gated prefix with no row
//! in the current measurement means the bench run was misconfigured, and one
//! with no row in the baseline means the baseline predates the group — both
//! fail hard instead of silently gating nothing (a renamed or dropped gated
//! group used to pass the guard without measuring anything).
//!
//! The gated number of a row is its `probe_ratio`: the shim runs a fixed
//! fill-and-sort probe just before every sample and records the median over
//! the samples of `sample ns/iter ÷ probe ns`. A runner that is uniformly
//! slower than the recording machine, or loaded by other work, slows the
//! probe in step with the row, so the ratio cancels the difference out. A
//! gated row fails when its current ratio exceeds the baseline's by more
//! than `ALLOWED_REGRESSION_PERCENT`. A baseline without ratios (one
//! recorded before the probe: `BENCH_15.json` and older) fails the gate
//! instead of being compared in absolute, machine-dependent nanoseconds.
//! `median_ns_per_iter` is printed for humans only.
//!
//! ```text
//! CRITERION_JSON=$PWD/bench_current.json cargo bench \
//!     --bench merge_time --bench path_schedule_time --bench sim_time
//! cargo run --release -p cpg-bench --bin bench_guard -- --current bench_current.json
//! ```
//!
//! `--current` may be given several times, one file per bench run: the guard
//! then gates (and emits) the per-row median over the runs, so a single noisy
//! run cannot fail the gate on its own.
//!
//! `--emit <path> --label <name>` additionally writes the current
//! measurements as a composed baseline document (the format of the committed
//! `BENCH_*.json` files), which is how new baselines are produced.
//!
//! Both the appended JSON-lines format and the composed baseline document are
//! accepted as input: the parser reads each `"benchmark"` string with the
//! `"median_ns_per_iter"` and `"probe_ratio"` numbers that follow it.

use std::fmt::Write as _;
use std::process::ExitCode;

/// The baseline gated against when `--baseline` is not given.
const DEFAULT_BASELINE: &str = "BENCH_18.json";

const USAGE: &str = "usage: bench_guard --current <json> [--current <json>...] \
                     [--baseline <json>] [--emit <json> --label <name>]";

/// Benchmarks whose regression fails the gate; everything else is reported
/// for information only. The gated groups are the full merge, the
/// deep-condition-nest walk (`merge_walk/`, where the decision-tree walk
/// dominates), the incremental re-merge (`merge_rewalk/`, whose `warm/*`
/// rows hold the session's cached-replay speedup and whose `cold/*` rows
/// anchor the ratio), the run-time simulator (`sim/`), the table
/// checks every merge is followed by (`verify/`, `delay/`), the split into
/// per-processor dispatch tables (`dispatch/`), the whole
/// expand → tracks → merge → verify → delay → simulate pipeline
/// (`pipeline/`) and the path scheduler (`path_list_scheduling/`, whose
/// `all_tracks/*` rows build the graph tables and every track's context the
/// way a cold merge does before its walk, whose `runs/*` rows time the
/// scheduling kernel alone on prebuilt contexts, and whose `refresh/*` rows
/// re-time prebuilt contexts the way a warm session merge does). All of them run on one thread,
/// like the speed probe they are divided by. Rows that only an older
/// baseline carries (such as the retired default-parallelism and
/// four-thread walk groups of `BENCH_7.json`) are reported for information.
const GATED_PREFIXES: &[&str] = &[
    "schedule_merging_serial/",
    "merge_walk/",
    "merge_rewalk/",
    "sim/",
    "verify/",
    "delay/",
    "dispatch/",
    "pipeline/",
    "path_list_scheduling/",
];

/// Rows under a gated prefix that are reported for information only:
/// `merge_rewalk/undo/*` times a WCET probe and its undo on every process
/// of the rewalk systems, to show the session layer a change touched next
/// to the end-to-end benchmark, not to hold a bound.
const INFORMATIONAL_PREFIXES: &[&str] = &["merge_rewalk/undo/"];

/// Allowed regression of a gated row's probe ratio, in percent.
const ALLOWED_REGRESSION_PERCENT: f64 = 25.0;

fn is_gated(name: &str) -> bool {
    let under = |prefixes: &[&str]| prefixes.iter().any(|prefix| name.starts_with(prefix));
    under(GATED_PREFIXES) && !under(INFORMATIONAL_PREFIXES)
}

/// One measured benchmark: the median time per iteration, for humans, and
/// the probe ratio the gate compares (absent from files recorded before the
/// shim measured it).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    median_ns: f64,
    probe_ratio: Option<f64>,
}

/// The outcome of comparing a current measurement against a baseline:
/// everything the binary prints, separated by stream, plus the verdict.
#[derive(Debug, Default)]
struct GateReport {
    /// Human-readable comparison table (stdout).
    lines: Vec<String>,
    /// Failure explanations (stderr).
    complaints: Vec<String>,
    /// Number of gate failures; non-zero fails the run.
    failures: usize,
}

impl GateReport {
    fn fail(&mut self, message: String) {
        self.complaints.push(message);
        self.failures += 1;
    }
}

/// The entire comparison logic of the guard, pure over the parsed
/// measurement rows so the gating rules are unit-testable: requires every
/// gated prefix to be populated and every gated row to carry a probe ratio
/// on *both* sides, and flags every gated row whose ratio regressed beyond
/// [`ALLOWED_REGRESSION_PERCENT`] or that went missing.
fn run_gate(baseline: &[(String, Row)], current: &[(String, Row)]) -> GateReport {
    let mut report = GateReport::default();

    // A gated prefix with no row on a side means nothing under it can be
    // compared: the guard would "pass" while gating nothing. Fail loudly —
    // an absent group is a misconfigured bench run (current side) or a
    // baseline that predates the group and must be re-recorded (baseline
    // side).
    for prefix in GATED_PREFIXES {
        if !baseline.iter().any(|(n, _)| n.starts_with(prefix)) {
            report.fail(format!(
                "gated prefix \"{prefix}\" has no benchmarks in the baseline; \
                 re-record the baseline with --emit so the group is gated"
            ));
        }
        if !current.iter().any(|(n, _)| n.starts_with(prefix)) {
            report.fail(format!(
                "gated prefix \"{prefix}\" has no benchmarks in the current \
                 measurement; run cargo bench with the benches that produce it"
            ));
        }
    }

    // Without ratios the comparison would be of absolute, machine-dependent
    // nanoseconds: exactly the spurious failures (and passes) the probe
    // exists to prevent.
    let unratioed = |rows: &[(String, Row)]| {
        rows.iter()
            .filter(|(n, row)| is_gated(n) && row.probe_ratio.is_none())
            .count()
    };
    let (base_missing, current_missing) = (unratioed(baseline), unratioed(current));
    if base_missing > 0 {
        report.fail(format!(
            "{base_missing} gated row(s) of the baseline carry no probe_ratio; \
             it predates the speed probe: re-record it with --emit"
        ));
    }
    if current_missing > 0 {
        report.fail(format!(
            "{current_missing} gated row(s) of the current measurement carry no \
             probe_ratio; re-run cargo bench with this workspace's criterion shim"
        ));
    }
    if base_missing + current_missing > 0 {
        return report;
    }

    report.lines.push(format!(
        "{:<36} {:>14} {:>14} {:>12}  gate",
        "benchmark", "baseline (ns)", "current (ns)", "ratio change"
    ));
    for (name, base) in baseline {
        let gated = is_gated(name);
        let Some((_, now)) = current.iter().find(|(n, _)| n == name) else {
            report.lines.push(format!(
                "{name:<36} {:>14.0} {:>14} {:>12}  MISSING",
                base.median_ns, "-", "-"
            ));
            if gated {
                report.failures += 1;
            }
            continue;
        };
        let change = base
            .probe_ratio
            .zip(now.probe_ratio)
            .map(|(before, after)| (after - before) / before * 100.0);
        let verdict = match change {
            _ if !gated => "info",
            Some(change) if change > ALLOWED_REGRESSION_PERCENT => {
                report.failures += 1;
                "FAIL"
            }
            _ => "ok",
        };
        let change = change.map_or_else(|| "-".to_owned(), |change| format!("{change:+.1}%"));
        report.lines.push(format!(
            "{name:<36} {:>14.0} {:>14.0} {change:>12}  {verdict}",
            base.median_ns, now.median_ns
        ));
    }
    // Rows the baseline predates (a group added since it was recorded) are
    // listed for information.
    for (name, now) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            report.lines.push(format!(
                "{name:<36} {:>14} {:>14.0} {:>12}  new (info)",
                "-", now.median_ns, "-"
            ));
        }
    }
    report
}

/// The per-row median over several measurement runs, in order of first
/// appearance: of the times and, separately, of the probe ratios. A row
/// missing from some runs (or a ratio missing from some rows) takes the
/// median of the runs that have it; an even count averages the two middle
/// values.
fn median_rows(runs: &[Vec<(String, Row)>]) -> Vec<(String, Row)> {
    let mut names: Vec<&str> = Vec::new();
    for (name, _) in runs.iter().flatten() {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let rows: Vec<Row> = runs
                .iter()
                .flatten()
                .filter(|(n, _)| n == name)
                .map(|&(_, row)| row)
                .collect();
            let row = Row {
                median_ns: median(rows.iter().map(|row| row.median_ns))
                    .expect("every name comes from some run"),
                probe_ratio: median(rows.iter().filter_map(|row| row.probe_ratio)),
            };
            (name.to_owned(), row)
        })
        .collect()
}

/// The median of `values`, averaging the two middle ones of an even count;
/// `None` for no values.
fn median(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => None,
        n if n % 2 == 0 => Some((values[mid - 1] + values[mid]) / 2.0),
        _ => Some(values[mid]),
    }
}

/// Prints `message` and the usage line; the exit code of a bad command line.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut baseline_path = String::from(DEFAULT_BASELINE);
    let mut current_paths = Vec::new();
    let mut emit_path = None;
    let mut label = String::from("BENCH_CURRENT");

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if !matches!(
            flag.as_str(),
            "--baseline" | "--current" | "--emit" | "--label"
        ) {
            return usage_error(&format!("unknown argument {flag}"));
        }
        let Some(value) = args.next() else {
            return usage_error(&format!("missing value for {flag}"));
        };
        match flag.as_str() {
            "--baseline" => baseline_path = value,
            "--current" => current_paths.push(value),
            "--emit" => emit_path = Some(value),
            _ => label = value,
        }
    }
    if current_paths.is_empty() {
        return usage_error(
            "--current <json> is required (the CRITERION_JSON output of cargo bench)",
        );
    }

    let mut runs = Vec::new();
    for current_path in &current_paths {
        match read_benchmarks(current_path) {
            Ok(rows) if !rows.is_empty() => runs.push(rows),
            Ok(_) => {
                eprintln!("no benchmarks found in {current_path}");
                return ExitCode::FAILURE;
            }
            Err(error) => {
                eprintln!("cannot read {current_path}: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    if runs.len() > 1 {
        println!("gating the per-row median of {} runs", runs.len());
    }
    let current = median_rows(&runs);

    if let Some(emit_path) = emit_path {
        let doc = compose_baseline(&label, &current);
        if let Err(error) = std::fs::write(&emit_path, doc) {
            eprintln!("cannot write {emit_path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} benchmarks to {emit_path}", current.len());
    }

    let baseline = match read_benchmarks(&baseline_path) {
        Ok(rows) => rows,
        Err(error) => {
            eprintln!("cannot read baseline {baseline_path}: {error}");
            return ExitCode::FAILURE;
        }
    };

    let report = run_gate(&baseline, &current);
    for line in &report.lines {
        println!("{line}");
    }
    for complaint in &report.complaints {
        eprintln!("{complaint}");
    }
    if report.failures > 0 {
        eprintln!(
            "{} gated benchmark(s) regressed more than {ALLOWED_REGRESSION_PERCENT}% \
             (probe ratio), went missing, or had nothing to compare against \
             {baseline_path}",
            report.failures
        );
        return ExitCode::FAILURE;
    }
    println!("benchmark gate passed against {baseline_path}");
    ExitCode::SUCCESS
}

/// Extracts the benchmark rows of either the appended JSON-lines format of
/// the criterion shim or a composed baseline document: each `"benchmark"`
/// name with the `"median_ns_per_iter"` and `"probe_ratio"` numbers that
/// follow it before the next name.
///
/// The shim *appends* to `CRITERION_JSON`, so a file left over from an
/// earlier `cargo bench` run contains multiple entries per benchmark; the
/// newest (last) measurement wins and a warning is printed, so the gate and
/// `--emit` never silently act on stale numbers.
fn read_benchmarks(path: &str) -> Result<Vec<(String, Row)>, std::io::Error> {
    let text = std::fs::read_to_string(path)?;
    let mut rows: Vec<(String, Row)> = Vec::new();
    let mut duplicates = 0usize;
    for record in text.split("\"benchmark\"").skip(1) {
        let number = |key: &str| {
            let at = record.find(&format!("\"{key}\""))?;
            extract_number(&record[at + key.len() + 2..])
        };
        let (Some(name), Some(median_ns)) = (extract_string(record), number("median_ns_per_iter"))
        else {
            continue;
        };
        let row = Row {
            median_ns,
            probe_ratio: number("probe_ratio"),
        };
        if let Some(seen) = rows.iter_mut().find(|(n, _)| *n == name) {
            duplicates += 1;
            seen.1 = row;
        } else {
            rows.push((name, row));
        }
    }
    if duplicates > 0 {
        eprintln!(
            "warning: {path} contains {duplicates} repeated benchmark entr{} \
             (appended by successive cargo bench runs); using the newest of each",
            if duplicates == 1 { "y" } else { "ies" }
        );
    }
    Ok(rows)
}

/// The first JSON string value after a `:` in `text`.
fn extract_string(text: &str) -> Option<String> {
    let start = text.find('"')?;
    let rest = &text[start + 1..];
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

/// The first JSON number after a `:` in `text`.
fn extract_number(text: &str) -> Option<f64> {
    let colon = text.find(':')?;
    let rest = text[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders the composed baseline document committed as `BENCH_*.json`.
fn compose_baseline(label: &str, rows: &[(String, Row)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"baseline\": \"{label}\",");
    let _ = writeln!(
        out,
        "  \"command\": \"CRITERION_JSON=<path> cargo bench --bench merge_time --bench path_schedule_time --bench sim_time\","
    );
    let _ = writeln!(
        out,
        "  \"units\": \"median_ns_per_iter: median nanoseconds per iteration; \
         probe_ratio: median over samples of sample ns/iter over speed-probe ns\","
    );
    let _ = writeln!(out, "  \"benchmarks\": [");
    for (i, (name, row)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"benchmark\": \"{name}\",");
        match row.probe_ratio {
            Some(ratio) => {
                let _ = writeln!(out, "      \"median_ns_per_iter\": {},", row.median_ns);
                let _ = writeln!(out, "      \"probe_ratio\": {ratio:e}");
            }
            None => {
                let _ = writeln!(out, "      \"median_ns_per_iter\": {}", row.median_ns);
            }
        }
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows with the given ratios; every time is the ratio times a probe of
    /// 1 ms.
    fn rows(entries: &[(&str, f64)]) -> Vec<(String, Row)> {
        entries
            .iter()
            .map(|&(name, ratio)| {
                let row = Row {
                    median_ns: ratio * 1e6,
                    probe_ratio: Some(ratio),
                };
                (name.to_owned(), row)
            })
            .collect()
    }

    /// Rows covering every gated prefix plus an ungated one.
    fn full_side(serial: f64, walk: f64) -> Vec<(String, Row)> {
        rows(&[
            ("schedule_merging_serial/60x12", serial),
            ("merge_walk/depth24", walk),
            ("merge_rewalk/cold/24", 4e-3),
            ("merge_rewalk/warm/24", 4e-4),
            ("sim/walk_40", 1.5e-3),
            ("verify/walk_40", 7e-4),
            ("delay/walk_40", 6e-4),
            ("dispatch/walk_40", 4e-4),
            ("pipeline/walk_40", 9e-3),
            ("schedule_merging/60x12", 5e-4),
            ("path_list_scheduling/60", 3e-4),
        ])
    }

    fn scaled(side: &[(String, Row)], prefix: &str, factor: f64) -> Vec<(String, Row)> {
        side.iter()
            .map(|(name, row)| {
                let mut row = *row;
                if name.starts_with(prefix) {
                    row.median_ns *= factor;
                    row.probe_ratio = row.probe_ratio.map(|ratio| ratio * factor);
                }
                (name.clone(), row)
            })
            .collect()
    }

    #[test]
    fn identical_measurements_pass() {
        let side = full_side(1e-3, 2e-3);
        let report = run_gate(&side, &side);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
    }

    #[test]
    fn gated_regression_beyond_threshold_fails() {
        let baseline = full_side(1e-3, 2e-3);
        // A gated ratio 30% up is over the 25%.
        let report = run_gate(&baseline, &full_side(1.3e-3, 2e-3));
        assert_eq!(report.failures, 1, "{:?}", report.complaints);
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("schedule_merging_serial/60x12") && l.ends_with("FAIL")));
        // 20% stays under the threshold.
        let report = run_gate(&baseline, &full_side(1.2e-3, 2e-3));
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
        // The path scheduler is gated like every other group.
        let current = scaled(&baseline, "path_list_scheduling/", 1.3);
        assert_eq!(run_gate(&baseline, &current).failures, 1);
    }

    #[test]
    fn undo_rows_of_the_rewalk_group_are_informational() {
        let mut baseline = full_side(1e-3, 2e-3);
        baseline.extend(rows(&[("merge_rewalk/undo/24", 8e-4)]));
        // Twice as slow is reported, not gated.
        let report = run_gate(&baseline, &scaled(&baseline, "merge_rewalk/undo/", 2.0));
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("merge_rewalk/undo/24") && l.ends_with("info")));
        // The rest of the group stays gated.
        let report = run_gate(&baseline, &scaled(&baseline, "merge_rewalk/warm/", 1.3));
        assert_eq!(report.failures, 1, "{:?}", report.complaints);
    }

    #[test]
    fn calibration_normalizes_out_a_uniformly_slower_machine() {
        // Every raw time doubles, and so does the probe: the ratios hold.
        let baseline = full_side(1e-3, 2e-3);
        let current: Vec<(String, Row)> = baseline
            .iter()
            .map(|(name, row)| {
                let row = Row {
                    median_ns: row.median_ns * 2.0,
                    ..*row
                };
                (name.clone(), row)
            })
            .collect();
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
        // Raw times equal to the baseline's with a gated ratio 2x up fail:
        // the probe ran twice as fast around that row's samples.
        let mut current = baseline.clone();
        let (_, sim) = current
            .iter_mut()
            .find(|(n, _)| n == "sim/walk_40")
            .unwrap();
        sim.probe_ratio = sim.probe_ratio.map(|ratio| ratio * 2.0);
        assert_eq!(run_gate(&baseline, &current).failures, 1);
    }

    #[test]
    fn gated_row_missing_from_current_fails() {
        let baseline = full_side(1e-3, 2e-3);
        let mut current = full_side(1e-3, 2e-3);
        current.retain(|(n, _)| n != "schedule_merging_serial/60x12");
        // The prefix is still populated (only one row of it vanished), so
        // this exercises the per-row MISSING path, not the group check.
        let second_row = rows(&[("schedule_merging_serial/80x18", 1.5e-3)]);
        let baseline = [baseline, second_row.clone()].concat();
        let current = [current, second_row].concat();
        assert_eq!(run_gate(&baseline, &current).failures, 1);
    }

    #[test]
    fn gated_prefixes_name_whole_groups() {
        // Without the slash, "sim" would also gate a `simfoo/*` group.
        for prefix in GATED_PREFIXES {
            assert!(prefix.ends_with('/'), "{prefix:?} must end with '/'");
        }
    }

    #[test]
    fn gated_group_absent_from_baseline_fails() {
        // The whole merge_walk/ group is missing from the baseline: the old
        // guard silently gated nothing; now it is a hard failure telling the
        // operator to re-record.
        let mut baseline = full_side(1e-3, 2e-3);
        baseline.retain(|(n, _)| !n.starts_with("merge_walk/"));
        let current = full_side(1e-3, 2e-3);
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 1);
        assert!(report
            .complaints
            .iter()
            .any(|c| c.contains("merge_walk/") && c.contains("baseline")));
    }

    #[test]
    fn gated_group_absent_from_current_fails() {
        let baseline = full_side(1e-3, 2e-3);
        let mut current = full_side(1e-3, 2e-3);
        current.retain(|(n, _)| !n.starts_with("merge_walk/"));
        let report = run_gate(&baseline, &current);
        // One failure for the empty group, one per-row MISSING failure.
        assert_eq!(report.failures, 2);
        assert!(report
            .complaints
            .iter()
            .any(|c| c.contains("merge_walk/") && c.contains("current")));
    }

    #[test]
    fn ungated_rows_never_fail() {
        let baseline = full_side(1e-3, 2e-3);
        let current = scaled(&baseline, "schedule_merging/", 10.0);
        assert_eq!(run_gate(&baseline, &current).failures, 0);
    }

    #[test]
    fn rows_the_baseline_predates_are_listed_but_never_fail() {
        let baseline = full_side(1e-3, 2e-3);
        let mut current = full_side(1e-3, 2e-3);
        current.extend(rows(&[("expand/walk_40", 1e3)]));
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("expand/walk_40") && l.ends_with("new (info)")));
    }

    #[test]
    fn probe_ratio_missing_from_current_fails() {
        let baseline = full_side(1e-3, 2e-3);
        let mut current = full_side(1e-3, 2e-3);
        current[0].1.probe_ratio = None;
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 1, "{:?}", report.complaints);
        assert!(report.complaints[0].contains("current measurement"));
    }

    #[test]
    fn uncalibrated_baseline_fails() {
        // A baseline recorded before the speed probe carries times only
        // (as BENCH_15.json does), so the gate refuses it.
        let baseline: Vec<(String, Row)> = full_side(1e-3, 2e-3)
            .into_iter()
            .map(|(name, row)| {
                let row = Row {
                    probe_ratio: None,
                    ..row
                };
                (name, row)
            })
            .collect();
        let report = run_gate(&baseline, &full_side(1e-3, 2e-3));
        assert_eq!(report.failures, 1, "{:?}", report.complaints);
        assert!(
            report.complaints[0].contains("re-record it with --emit"),
            "{:?}",
            report.complaints
        );
    }

    #[test]
    fn several_runs_gate_their_per_row_median() {
        let baseline = full_side(1e-3, 2e-3);
        // One run regressed 60% on the serial merge; the other two did not,
        // so the median passes. A row only some runs carry keeps its median
        // over those runs.
        let spike = [full_side(1.6e-3, 2e-3), rows(&[("expand/walk_40", 3e-5)])].concat();
        let quiet = [full_side(1e-3, 2e-3), rows(&[("expand/walk_40", 1e-5)])].concat();
        let runs = [full_side(1.1e-3, 2e-3), spike, quiet];
        let current = median_rows(&runs);
        let row = |name: &str| current.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            row("schedule_merging_serial/60x12").probe_ratio,
            Some(1.1e-3)
        );
        assert_eq!(row("schedule_merging_serial/60x12").median_ns, 1.1e3);
        assert_eq!(row("expand/walk_40").probe_ratio, Some(2e-5));
        assert_eq!(current.len(), full_side(0.0, 0.0).len() + 1);
        assert_eq!(run_gate(&baseline, &current).failures, 0);
        // Two regressed runs out of three fail.
        let runs = [
            full_side(1.6e-3, 2e-3),
            full_side(1.7e-3, 2e-3),
            full_side(1e-3, 2e-3),
        ];
        assert_eq!(run_gate(&baseline, &median_rows(&runs)).failures, 1);
    }

    /// Parses `text` through a file named after the calling test.
    fn parse(test: &str, text: &str) -> Vec<(String, Row)> {
        let path =
            std::env::temp_dir().join(format!("bench_guard_{test}_{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let parsed = read_benchmarks(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        parsed
    }

    #[test]
    fn parser_reads_composed_baseline_documents() {
        let mut side = full_side(1e-3, 2e-3);
        side.extend(rows(&[("cube_excludes", 5.123_456_789_012_345e-7)]));
        let doc = compose_baseline("BENCH_TEST", &side);
        assert_eq!(parse("composed", &doc), side);
    }

    #[test]
    fn parser_reads_probe_ratios_from_json_lines() {
        let text = "{\"benchmark\": \"sim/walk_40\", \"median_ns_per_iter\": 450881.3, \
                    \"probe_ratio\": 1.6698937e-1}\n\
                    {\"benchmark\": \"verify/walk_40\", \"median_ns_per_iter\": 149274.9}\n\
                    {\"benchmark\": \"cube_excludes\", \"median_ns_per_iter\": 1.5, \
                    \"probe_ratio\": 5.5E-7}\n";
        let parsed = parse("lines", text);
        let ratios: Vec<(&str, Option<f64>)> = parsed
            .iter()
            .map(|(name, row)| (name.as_str(), row.probe_ratio))
            .collect();
        assert_eq!(
            ratios,
            [
                ("sim/walk_40", Some(0.166_989_37)),
                // A line without a ratio does not borrow the next line's.
                ("verify/walk_40", None),
                ("cube_excludes", Some(5.5e-7)),
            ]
        );
        assert_eq!(parsed[0].1.median_ns, 450_881.3);
    }
}
