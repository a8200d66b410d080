//! `cpg-fuzz` — CLI driver for the adversarial workload fuzzer.
//!
//! All knobs are flags (the fuzzer reads no environment variables):
//!
//! ```text
//! cpg-fuzz [--seed N] [--iterations N] [--max-seconds N] [--bank DIR]
//! cpg-fuzz --replay FILE...
//! ```
//!
//! With `--bank DIR`, every distinct behavior signature's representative is
//! shrunk and written as a corpus entry under `DIR`. The process exits
//! nonzero when any oracle failed.

use std::path::PathBuf;
use std::process::ExitCode;

use cpg_fuzz::{corpus, fuzz, shrink_preserving_signature, FuzzConfig, Signature};

struct CliArgs {
    config: FuzzConfig,
    bank: Option<PathBuf>,
    replay: Vec<PathBuf>,
}

fn parse_args() -> Result<CliArgs, String> {
    let mut config = FuzzConfig::new(0x5eed, 200);
    let mut bank = None;
    let mut replay = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => config.seed = parse_seed(&value("--seed")?)?,
            "--iterations" => config.iterations = parse(&value("--iterations")?)?,
            "--max-seconds" => config.max_seconds = Some(parse(&value("--max-seconds")?)?),
            "--bank" => bank = Some(PathBuf::from(value("--bank")?)),
            "--replay" => replay.push(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                println!(
                    "usage: cpg-fuzz [--seed N] [--iterations N] [--max-seconds N] [--bank DIR]\n\
                     \x20      cpg-fuzz --replay FILE..."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(CliArgs {
        config,
        bank,
        replay,
    })
}

fn parse<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("malformed numeric value {value:?}"))
}

/// Seeds are printed in hex (`Found by cpg-fuzz --seed 0x…`), so the flag
/// accepts both hex and decimal to keep those lines replayable verbatim.
fn parse_seed(value: &str) -> Result<u64, String> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| format!("malformed seed {value:?}")),
        None => parse(value),
    }
}

fn hex(signature: Signature) -> String {
    signature.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// Replays banked corpus entries through the full oracle battery.
fn replay_entries(paths: &[PathBuf]) -> ExitCode {
    let mut failures = 0usize;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("cpg-fuzz: cannot read {}: {error}", path.display());
                return ExitCode::from(2);
            }
        };
        let workload = match cpg_fuzz::corpus::parse_entry(&text) {
            Ok(workload) => workload,
            Err(error) => {
                eprintln!("cpg-fuzz: {}: {error}", path.display());
                return ExitCode::from(2);
            }
        };
        let system = match workload.materialize() {
            Ok(system) => system,
            Err(error) => {
                eprintln!(
                    "cpg-fuzz: {}: does not materialize: {error}",
                    path.display()
                );
                failures += 1;
                continue;
            }
        };
        match cpg_fuzz::run_oracles(&workload, &system) {
            Ok(vector) => {
                println!(
                    "{}: ok, behavior {}",
                    path.display(),
                    hex(vector.signature())
                );
            }
            Err(failure) => {
                eprintln!("{}: FAILURE [{failure}]", path.display());
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cpg-fuzz: {message}");
            return ExitCode::from(2);
        }
    };

    if !args.replay.is_empty() {
        return replay_entries(&args.replay);
    }

    println!(
        "cpg-fuzz: seed {:#x}, {} iterations{}",
        args.config.seed,
        args.config.iterations,
        args.config
            .max_seconds
            .map(|s| format!(", {s}s cutoff"))
            .unwrap_or_default()
    );
    let report = fuzz(&args.config);
    println!(
        "ran {} iterations: {} behavior signatures, \
         {} benign constructor rejections, {} oracle failures",
        report.iterations,
        report.behaviors.len(),
        report.benign_rejections,
        report.failures.len()
    );

    for entry in &report.behaviors {
        println!(
            "  behavior {}: gen seed {:#x}, {} ops, {} edits \
             (nodes {}, depth {}, repairs {}, slips {}, rejection {})",
            hex(entry.vector.signature()),
            entry.workload.config.seed(),
            entry.workload.ops.len(),
            entry.workload.edits.len(),
            entry.vector.stats.tree_nodes,
            entry.vector.stats.max_walk_depth,
            entry.vector.stats.conflicts_repaired,
            entry.vector.stats.lock_slips,
            entry.vector.rejection,
        );
    }

    for failure in &report.failures {
        // The printed seed plus the encoded entry reproduce the offender
        // without the fuzzer: paste the entry into a corpus file and replay.
        eprintln!(
            "FAILURE [{}] gen seed {:#x}\n{}",
            failure.failure,
            failure.workload.config.seed(),
            corpus::encode_entry(
                &failure.workload,
                &[format!("offender: {}", failure.failure)]
            )
        );
    }

    if let Some(bank) = args.bank {
        if let Err(error) = std::fs::create_dir_all(&bank) {
            eprintln!("cpg-fuzz: cannot create {}: {error}", bank.display());
            return ExitCode::from(2);
        }
        for (index, entry) in report.behaviors.iter().enumerate() {
            let signature = entry.vector.signature();
            let shrunk = shrink_preserving_signature(&entry.workload, signature);
            let comments = vec![
                format!(
                    "Adversarial workload {index:02}: behavior signature {}.",
                    hex(signature)
                ),
                format!(
                    "tree_nodes={} adjustments={} conflicts_repaired={} unrepaired={} \
                     slip_repairs={} lock_slips={} max_walk_depth={} repair_rounds={} \
                     tracks={} rejection={} degraded={}",
                    entry.vector.stats.tree_nodes,
                    entry.vector.stats.adjustments,
                    entry.vector.stats.conflicts_repaired,
                    entry.vector.stats.unrepaired_conflicts,
                    entry.vector.stats.slip_repairs,
                    entry.vector.stats.lock_slips,
                    entry.vector.stats.max_walk_depth,
                    entry.vector.stats.repair_rounds,
                    entry.vector.tracks,
                    entry.vector.rejection,
                    entry.vector.degraded,
                ),
                format!(
                    "Found by cpg-fuzz --seed {:#x}; shrunk with ddmin.",
                    args.config.seed
                ),
            ];
            let path = bank.join(format!("w{index:02}_{}.txt", &hex(signature)[..8]));
            if let Err(error) = std::fs::write(&path, corpus::encode_entry(&shrunk, &comments)) {
                eprintln!("cpg-fuzz: cannot write {}: {error}", path.display());
                return ExitCode::from(2);
            }
            println!("banked {}", path.display());
        }
    }

    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
