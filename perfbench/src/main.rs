//! Command-line entry point:
//!
//! ```text
//! cpg-perfbench --workload <paper_suite|deep_nest|wcet_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints an information line, then as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer ones). A traced run also writes its
//! spans to `perfbench/out/trace-<workload>-<seed>.jsonl`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use cpg_arch::Time;
use cpg_merge::threads_from_env;
use cpg_perfbench::calib::REFERENCE_MS;
use cpg_perfbench::pipeline::merge_config;
use cpg_perfbench::run::{run, Metric, Options, Report};
use cpg_perfbench::workload::{Scale, Workload, DEEP_NEST_FAILURES, SUITE_FAILURES};

/// Seed on which a claimed gain must also hold, besides the seeds it was
/// measured on.
const HELD_OUT_SEED: u64 = 0x5EED_0D0E;

/// Thread-count variables that would change how the pipeline runs.
const PINNED_VARS: [&str; 2] = ["CPG_MERGE_THREADS", "CPG_SUITE_THREADS"];

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(parse_u64(value).ok_or_else(|| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
    })
}

fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn info_json(options: &Options, report: &Report, trace_file: Option<&str>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let threads = merge_config(Time::new(1)).effective_threads();
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| {
            format!(
                "{{\"key\": {}, \"reason\": {}}}",
                json_str(&f.key),
                json_str(&f.reason)
            )
        })
        .collect();
    let left_out: &[u64] = match options.workload {
        Workload::PaperSuite => &SUITE_FAILURES,
        Workload::DeepNest => &DEEP_NEST_FAILURES,
        Workload::WcetSweep => &[],
    };
    let known: Vec<String> = left_out.iter().map(|s| format!("\"{s:#x}\"")).collect();
    format!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {}, \"nproc\": {nproc}, \
         \"effective_threads\": {threads}, \"items_per_pass\": {}, \"timed_items\": {}, \
         \"reference_probe_ms\": {REFERENCE_MS}, \"probe_ms\": {}, \"setup_measured_s\": [{}], \
         \"known_failures_left_out\": [{}], \"trace_file\": {}, \"failures\": [{}]}}}}",
        json_str(options.workload.name()),
        options.seed,
        HELD_OUT_SEED,
        report.quality.len(),
        report.untraced.latencies_ms.len(),
        json_num(report.untraced.probes.median_ms()),
        report
            .setup_s
            .iter()
            .map(|&s| json_num(s))
            .collect::<Vec<_>>()
            .join(", "),
        known.join(", "),
        trace_file.map_or_else(|| "null".to_string(), json_str),
        failures.join(", ")
    )
}

fn write_trace(options: &Options, report: &Report) -> Result<Option<String>, String> {
    let Some((_, tracer, _)) = &report.traced else {
        return Ok(None);
    };
    let dir = Path::new("perfbench/out");
    let file = dir.join(format!(
        "trace-{}-{}.jsonl",
        options.workload.name(),
        options.seed
    ));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, tracer.write_jsonl()))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    Ok(Some(file.display().to_string()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: cpg-perfbench --workload <paper_suite|deep_nest|wcet_sweep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_VARS.iter().find(|v| threads_from_env(v).is_some()) {
        eprintln!("error: {var} is set; the benchmark fixes its own thread count, unset it");
        return ExitCode::from(2);
    }
    let report = match run(options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_file = match write_trace(&options, &report) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if options.trace {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    println!("{}", info_json(&options, &report, trace_file.as_deref()));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
