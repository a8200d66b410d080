//! Benchmark regression gate, normalized by code-stable calibration
//! benchmarks so it is independent of the absolute speed of the machine.
//!
//! Compares a fresh criterion-shim measurement (the JSON-lines file produced
//! by running `cargo bench` with `CRITERION_JSON=<path>`) against a committed
//! baseline (`BENCH_8.json`) and fails when any gated median
//! (`schedule_merging_serial/*`, `merge_walk/*`, `merge_rewalk/*` and
//! `sim/*` — single-threaded, so their cost is core-count-independent)
//! regresses by more than the allowed percentage; every other row is
//! reported for information (see `GATED_PREFIXES`).
//!
//! A gated group must be *present* on both sides: a gated prefix with no row
//! in the current measurement means the bench run was misconfigured, and one
//! with no row in the baseline means the baseline predates the group — both
//! fail hard instead of silently gating nothing (a renamed or dropped gated
//! group used to pass the guard without measuring anything).
//!
//! Both files must contain the `calibration/spin` benchmark (a fixed integer
//! workload that never changes with the scheduler code, see
//! `benches/calibration.rs`): every current median is divided by the machine
//! scale `current calibration / baseline calibration` before comparing:
//! a runner that is uniformly 2× slower than the recording machine measures
//! a 2× slower calibration spin too, and the gated ratios cancel the
//! difference out. Benches listed in `MEM_SENSITIVE_PREFIXES` are normalized
//! by the memory-bound `calibration/chase` probe instead (dependent pointer
//! chasing through a cache-busting buffer): their cost tracks memory latency
//! rather than ALU speed, which `spin` is blind to. Both probes are required
//! in both files: a baseline without them (such as the pre-calibration
//! `BENCH_1.json`) fails the gate instead of being compared in absolute,
//! machine-dependent nanoseconds.
//!
//! A gated row *fails* only when it is beyond the threshold under **both**
//! probes' scales: a genuine code regression reproduces under either
//! normalization (the two scales differ only by machine factors), while a
//! row that regresses under exactly one probe is a machine-profile shift —
//! a runner whose memory is slower relative to its ALU than the recording
//! machine's inflates every memory-touching median in a way the
//! compute-only spin scale cannot correct (and vice versa). Such rows pass
//! with an `ok (shift)` verdict and a stderr warning.
//!
//! ```text
//! CRITERION_JSON=bench_current.json cargo bench --bench calibration \
//!     --bench merge_time --bench path_schedule_time --bench sim_time
//! cargo run --release -p cpg-bench --bin bench_guard -- \
//!     --baseline BENCH_8.json --current bench_current.json
//! ```
//!
//! `--emit <path> --label <name>` additionally writes the current
//! measurements as a composed baseline document (the format of the committed
//! `BENCH_*.json` files), which is how new baselines are produced.
//!
//! Both the appended JSON-lines format and the composed baseline document are
//! accepted as input: the parser simply pairs `"benchmark"` strings with the
//! `"median_ns_per_iter"` numbers that follow them.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;

/// Benchmarks whose regression fails the gate; everything else is reported
/// for information only. The gated groups are the full merge, the
/// deep-condition-nest walk (`merge_walk/`, where the decision-tree walk
/// dominates), the incremental re-merge (`merge_rewalk/`, whose `warm/*`
/// rows hold the session's cached-replay speedup and whose `cold/*` rows
/// anchor the ratio) and the run-time simulator (`sim/`). All of them run
/// on one thread, so both single-threaded calibration probes can normalize
/// them. Rows that only an older baseline carries (such as the retired
/// default-parallelism and four-thread walk groups of `BENCH_7.json`) are
/// reported for information.
const GATED_PREFIXES: &[&str] = &[
    "schedule_merging_serial/",
    "merge_walk/",
    "merge_rewalk/",
    "sim/",
];

/// The code-stable compute-bound calibration benchmark used to normalize out
/// clock/IPC differences between machines.
const CALIBRATION_BENCH: &str = "calibration/spin";

/// The code-stable memory-bound calibration benchmark (dependent pointer
/// chasing through a cache-busting buffer) used to normalize the
/// memory-sensitive benches below.
const MEM_CALIBRATION_BENCH: &str = "calibration/chase";

/// Benchmarks whose cost tracks memory latency rather than ALU speed: they
/// are normalized by [`MEM_CALIBRATION_BENCH`]. The single-path list
/// scheduler walks dense per-track state end to end with almost no
/// arithmetic per touched cell, which makes it the canonical memory-bound
/// workload of this suite.
const MEM_SENSITIVE_PREFIXES: &[&str] = &["path_list_scheduling/"];

/// Allowed regression of a gated calibration-normalized median, in percent.
const ALLOWED_REGRESSION_PERCENT: f64 = 25.0;

fn matches_any(name: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|prefix| name.starts_with(prefix))
}

/// The outcome of comparing a current measurement against a baseline:
/// everything the binary prints, separated by stream, plus the verdict.
#[derive(Debug, Default)]
struct GateReport {
    /// Human-readable comparison table and calibration lines (stdout).
    lines: Vec<String>,
    /// Warnings and failure explanations (stderr).
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
/// measurement rows so the gating rules are unit-testable: resolves the
/// calibration scales, requires every gated prefix to be populated on *both*
/// sides, and flags every gated median that regressed beyond
/// [`ALLOWED_REGRESSION_PERCENT`] or went missing.
fn run_gate(baseline: &[(String, f64)], current: &[(String, f64)]) -> GateReport {
    let mut report = GateReport::default();

    // A gated prefix with no row on a side means nothing under it can be
    // compared: the guard would "pass" while gating nothing. Fail loudly —
    // an absent group is a misconfigured bench run (current side) or a
    // baseline that predates the group and must be re-recorded (baseline
    // side).
    for prefix in GATED_PREFIXES {
        if !baseline.iter().any(|(n, _)| matches_any(n, &[prefix])) {
            report.fail(format!(
                "gated prefix \"{prefix}\" has no benchmarks in the baseline; \
                 re-record the baseline with --emit so the group is gated"
            ));
        }
        if !current.iter().any(|(n, _)| matches_any(n, &[prefix])) {
            report.fail(format!(
                "gated prefix \"{prefix}\" has no benchmarks in the current \
                 measurement; run cargo bench with the benches that produce it"
            ));
        }
    }

    // Machine scales: how much slower (or faster) this run's hardware is
    // than the machine that recorded the baseline, measured by the
    // code-stable calibration benchmarks present in both files — one probe
    // for compute speed, one for memory latency.
    let calibration_of = |rows: &[(String, f64)], name: &str| {
        rows.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
            .filter(|&m| m > 0.0)
    };
    // Both probes are required on both sides: without them the comparison
    // would be of absolute, machine-dependent nanoseconds — exactly the
    // spurious failures (and passes) the calibration exists to prevent.
    let mut scale_of = |probe: &str, kind: &str| match (
        calibration_of(baseline, probe),
        calibration_of(current, probe),
    ) {
        (Some(base_cal), Some(current_cal)) => {
            let scale = current_cal / base_cal;
            report.lines.push(format!(
                "calibration ({probe}): baseline {base_cal:.0} ns, \
                     current {current_cal:.0} ns -> {kind} scale {scale:.3}"
            ));
            Some(scale)
        }
        (None, _) => {
            report.fail(format!(
                "\"{probe}\" is missing from the baseline; gate only against a \
                     calibrated baseline (re-record it with --emit)"
            ));
            None
        }
        (Some(_), None) => {
            report.fail(format!(
                "\"{probe}\" is in the baseline but missing from the current \
                     measurement; run cargo bench with --bench calibration"
            ));
            None
        }
    };
    let (Some(scale), Some(mem_scale)) = (
        scale_of(CALIBRATION_BENCH, "compute"),
        scale_of(MEM_CALIBRATION_BENCH, "memory"),
    ) else {
        return report;
    };

    report.lines.push(format!(
        "{:<36} {:>14} {:>14} {:>9}  gate",
        "benchmark", "baseline (ns)", "normalized (ns)", "change"
    ));
    for (name, base_median) in baseline {
        if name == CALIBRATION_BENCH || name == MEM_CALIBRATION_BENCH {
            continue;
        }
        let Some((_, current_median)) = current.iter().find(|(n, _)| n == name) else {
            report.lines.push(format!(
                "{name:<36} {base_median:>14.0} {:>14} {:>9}  MISSING",
                "-", "-"
            ));
            if matches_any(name, GATED_PREFIXES) {
                report.failures += 1;
            }
            continue;
        };
        let mem_sensitive = matches_any(name, MEM_SENSITIVE_PREFIXES);
        let (row_scale, other_scale) = if mem_sensitive {
            (mem_scale, scale)
        } else {
            (scale, mem_scale)
        };
        let change_under =
            |scale: f64| (current_median / scale - base_median) / base_median * 100.0;
        let normalized = current_median / row_scale;
        let change = change_under(row_scale);
        // A genuine code regression reproduces under *both* calibration
        // models (the scales differ only by machine factors), so a gated row
        // fails only when it is beyond the threshold under its primary probe
        // AND under the other one. A row beyond the threshold under exactly
        // one model is a machine-profile shift — e.g. a runner whose memory
        // is much slower relative to its ALU than the baseline machine's
        // inflates every memory-heavy median that spin-normalization cannot
        // correct — and passes with a warning instead of failing spuriously.
        let over = change > ALLOWED_REGRESSION_PERCENT;
        let over_everywhere = over && change_under(other_scale) > ALLOWED_REGRESSION_PERCENT;
        let gated = matches_any(name, GATED_PREFIXES);
        let verdict = match (gated, over, over_everywhere) {
            (false, ..) if mem_sensitive => "info (mem)",
            (false, ..) => "info",
            (true, _, true) => {
                report.failures += 1;
                "FAIL"
            }
            (true, true, false) => {
                report.complaints.push(format!(
                    "warning: {name} regressed {change:+.1}% under its primary \
                     calibration probe but not under the other one; treating the \
                     difference as a machine-profile shift, not a code regression"
                ));
                "ok (shift)"
            }
            (true, false, _) => "ok",
        };
        report.lines.push(format!(
            "{name:<36} {base_median:>14.0} {normalized:>14.0} {change:>+8.1}%  {verdict}"
        ));
    }
    // Rows the baseline predates (a group added since it was recorded) are
    // listed for information, normalized like every other row.
    for (name, current_median) in current {
        if baseline.iter().any(|(n, _)| n == name) {
            continue;
        }
        let row_scale = if matches_any(name, MEM_SENSITIVE_PREFIXES) {
            mem_scale
        } else {
            scale
        };
        report.lines.push(format!(
            "{name:<36} {:>14} {:>14.0} {:>9}  new (info)",
            "-",
            current_median / row_scale,
            "-"
        ));
    }
    report
}

fn main() -> ExitCode {
    let mut baseline_path = String::from("BENCH_8.json");
    let mut current_path = None;
    let mut emit_path = None;
    let mut label = String::from("BENCH_CURRENT");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = value("--baseline"),
            "--current" => current_path = Some(value("--current")),
            "--emit" => emit_path = Some(value("--emit")),
            "--label" => label = value("--label"),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: bench_guard --current <json> [--baseline <json>] \
                     [--emit <json> --label <name>]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(current_path) = current_path else {
        eprintln!("--current <json> is required (the CRITERION_JSON output of cargo bench)");
        return ExitCode::FAILURE;
    };

    let current = match read_benchmarks(&current_path) {
        Ok(rows) if !rows.is_empty() => rows,
        Ok(_) => {
            eprintln!("no benchmarks found in {current_path}");
            return ExitCode::FAILURE;
        }
        Err(error) => {
            eprintln!("cannot read {current_path}: {error}");
            return ExitCode::FAILURE;
        }
    };

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
             (calibration-normalized), went missing, or had no gated group to compare \
             against {baseline_path}",
            report.failures
        );
        return ExitCode::FAILURE;
    }
    println!("benchmark gate passed against {baseline_path}");
    ExitCode::SUCCESS
}

/// Extracts `(benchmark, median_ns_per_iter)` pairs from either the appended
/// JSON-lines format of the criterion shim or a composed baseline document.
///
/// The shim *appends* to `CRITERION_JSON`, so a file left over from an
/// earlier `cargo bench` run contains multiple entries per benchmark; the
/// newest (last) measurement wins and a warning is printed, so the gate and
/// `--emit` never silently act on stale numbers.
fn read_benchmarks(path: &str) -> Result<Vec<(String, f64)>, std::io::Error> {
    let text = std::fs::read_to_string(path)?;
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut duplicates = 0usize;
    let mut rest = text.as_str();
    while let Some(pos) = rest.find("\"benchmark\"") {
        rest = &rest[pos + "\"benchmark\"".len()..];
        let Some(name) = extract_string(rest) else {
            break;
        };
        let Some(pos) = rest.find("\"median_ns_per_iter\"") else {
            break;
        };
        rest = &rest[pos + "\"median_ns_per_iter\"".len()..];
        let Some(median) = extract_number(rest) else {
            break;
        };
        if let Some(row) = rows.iter_mut().find(|(n, _)| *n == name) {
            duplicates += 1;
            row.1 = median;
        } else {
            rows.push((name, median));
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
fn compose_baseline(label: &str, rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"baseline\": \"{label}\",");
    let _ = writeln!(
        out,
        "  \"command\": \"CRITERION_JSON=<path> cargo bench --bench calibration --bench merge_time --bench path_schedule_time --bench sim_time\","
    );
    let _ = writeln!(out, "  \"units\": \"median nanoseconds per iteration\",");
    let _ = writeln!(out, "  \"benchmarks\": [");
    for (i, (name, median)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"benchmark\": \"{name}\",");
        let _ = writeln!(out, "      \"median_ns_per_iter\": {median}");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows covering every gated prefix plus both calibration probes.
    fn rows(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries
            .iter()
            .map(|&(name, median)| (name.to_owned(), median))
            .collect()
    }

    fn full_side(serial: f64, walk: f64) -> Vec<(String, f64)> {
        rows(&[
            ("calibration/spin", 100.0),
            ("calibration/chase", 200.0),
            ("schedule_merging_serial/60x12", serial),
            ("merge_walk/depth24", walk),
            ("merge_rewalk/cold/24", 4000.0),
            ("merge_rewalk/warm/24", 400.0),
            ("sim/walk_40", 1500.0),
            ("schedule_merging/60x12", 500.0),
            ("path_list_scheduling/60", 300.0),
        ])
    }

    #[test]
    fn identical_measurements_pass() {
        let side = full_side(1000.0, 2000.0);
        let report = run_gate(&side, &side);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
    }

    #[test]
    fn gated_regression_beyond_threshold_fails() {
        let baseline = full_side(1000.0, 2000.0);
        // 30% up on a gated row with identical calibration: over the 25%.
        let current = full_side(1300.0, 2000.0);
        assert_eq!(run_gate(&baseline, &current).failures, 1);
        // 20% stays under the threshold.
        let current = full_side(1200.0, 2000.0);
        assert_eq!(run_gate(&baseline, &current).failures, 0);
    }

    #[test]
    fn machine_profile_shift_does_not_fail_the_gate() {
        // The current machine's memory (chase) is 2x slower while its ALU
        // (spin) is unchanged; the gated serial merge touches memory, so its
        // raw median is up 30%. Under the spin scale that is a >25% "regression",
        // but under the chase scale it is a 35% improvement: one probe
        // disagreeing means machine profile, not code, so the gate passes.
        let baseline = full_side(1000.0, 2000.0);
        let mut current = full_side(1300.0, 2000.0);
        for (name, median) in &mut current {
            if name == "calibration/chase" {
                *median *= 2.0;
            }
        }
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
        assert!(report
            .complaints
            .iter()
            .any(|c| c.contains("machine-profile shift")));

        // A real code regression shows under both probes: 2.8x raw is +180%
        // under spin and +40% under the doubled chase scale -> FAIL.
        let mut current = full_side(2800.0, 2000.0);
        for (name, median) in &mut current {
            if name == "calibration/chase" {
                *median *= 2.0;
            }
        }
        assert_eq!(run_gate(&baseline, &current).failures, 1);
    }

    #[test]
    fn calibration_normalizes_out_a_uniformly_slower_machine() {
        let baseline = full_side(1000.0, 2000.0);
        // Everything (calibration included) is 2x slower: no regression.
        let current: Vec<(String, f64)> =
            baseline.iter().map(|(n, m)| (n.clone(), m * 2.0)).collect();
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
    }

    #[test]
    fn gated_row_missing_from_current_fails() {
        let baseline = full_side(1000.0, 2000.0);
        let mut current = full_side(1000.0, 2000.0);
        current.retain(|(n, _)| n != "schedule_merging_serial/60x12");
        // The prefix is still populated (only one row of it vanished), so
        // this exercises the per-row MISSING path, not the group check.
        let with_second_row = |mut side: Vec<(String, f64)>| {
            side.push(("schedule_merging_serial/80x18".to_owned(), 1500.0));
            side
        };
        let baseline = with_second_row(baseline);
        let current = with_second_row(current);
        assert_eq!(run_gate(&baseline, &current).failures, 1);
    }

    #[test]
    fn gated_group_absent_from_baseline_fails() {
        // The whole merge_walk/ group is missing from the baseline: the old
        // guard silently gated nothing; now it is a hard failure telling the
        // operator to re-record.
        let mut baseline = full_side(1000.0, 2000.0);
        baseline.retain(|(n, _)| !n.starts_with("merge_walk/"));
        let current = full_side(1000.0, 2000.0);
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 1);
        assert!(report
            .complaints
            .iter()
            .any(|c| c.contains("merge_walk/") && c.contains("baseline")));
    }

    #[test]
    fn gated_group_absent_from_current_fails() {
        let baseline = full_side(1000.0, 2000.0);
        let mut current = full_side(1000.0, 2000.0);
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
        let baseline = full_side(1000.0, 2000.0);
        let mut current = full_side(1000.0, 2000.0);
        for (name, median) in &mut current {
            if name.starts_with("schedule_merging/") || name.starts_with("path_list_scheduling/") {
                *median *= 10.0;
            }
        }
        assert_eq!(run_gate(&baseline, &current).failures, 0);
    }

    #[test]
    fn rows_the_baseline_predates_are_listed_but_never_fail() {
        let baseline = full_side(1000.0, 2000.0);
        let mut current = full_side(1000.0, 2000.0);
        current.push(("delay/walk_40".to_owned(), 1e9));
        let report = run_gate(&baseline, &current);
        assert_eq!(report.failures, 0, "{:?}", report.complaints);
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("delay/walk_40") && l.ends_with("new (info)")));
    }

    #[test]
    fn compute_calibration_missing_from_current_fails() {
        let baseline = full_side(1000.0, 2000.0);
        let mut current = full_side(1000.0, 2000.0);
        current.retain(|(n, _)| n != "calibration/spin");
        assert!(run_gate(&baseline, &current).failures > 0);
    }

    #[test]
    fn uncalibrated_baseline_fails() {
        // A baseline without either probe (such as the pre-calibration
        // BENCH_1.json, or the pre-chase BENCH_2.json) cannot be compared
        // machine-independently, so the gate refuses it.
        for probe in ["calibration/spin", "calibration/chase"] {
            let mut baseline = full_side(1000.0, 2000.0);
            baseline.retain(|(n, _)| n != probe);
            let current = full_side(1000.0, 2000.0);
            let report = run_gate(&baseline, &current);
            assert_eq!(report.failures, 1, "{probe}: {:?}", report.complaints);
            assert!(report
                .complaints
                .iter()
                .any(|c| c.contains(probe) && c.contains("calibrated baseline")));
        }
    }

    #[test]
    fn parser_reads_composed_baseline_documents() {
        let doc = compose_baseline("BENCH_TEST", &full_side(1000.0, 2000.0));
        let dir = std::env::temp_dir().join("bench_guard_test_roundtrip.json");
        std::fs::write(&dir, doc).unwrap();
        let parsed = read_benchmarks(dir.to_str().unwrap()).unwrap();
        std::fs::remove_file(&dir).ok();
        assert_eq!(parsed, full_side(1000.0, 2000.0));
    }
}
