//! On-disk corpus format for banked adversarial workloads.
//!
//! `#` comment lines followed by `key: value` lines. A workload entry
//! records the generator configuration and the encoded mutation/edit
//! sequences — never a materialized graph — so replaying an entry
//! re-derives the exact system via the deterministic generator.
//!
//! ```text
//! # Adversarial workload: degraded outcome with surviving lock slips.
//! nodes: 24
//! paths: 4
//! processors: 3
//! buses: 2
//! max_comm: 5
//! seed: 12345
//! ops: exec:3:400 procs:1
//! edits: exec:0:9
//! ```

use cpg_gen::{GeneratorConfig, Workload};

/// Serializes a workload as a corpus entry. `comments` become leading `#`
/// lines (one per element, without the marker).
#[must_use]
pub fn encode_entry(workload: &Workload, comments: &[String]) -> String {
    let mut out = String::new();
    for comment in comments {
        out.push_str("# ");
        out.push_str(comment);
        out.push('\n');
    }
    let config = &workload.config;
    out.push_str(&format!("nodes: {}\n", config.nodes()));
    out.push_str(&format!("paths: {}\n", config.target_paths()));
    out.push_str(&format!("processors: {}\n", config.processors()));
    out.push_str(&format!("buses: {}\n", config.buses()));
    out.push_str(&format!("max_comm: {}\n", config.max_comm_time()));
    out.push_str(&format!("seed: {}\n", config.seed()));
    if !workload.ops.is_empty() {
        out.push_str(&format!("ops: {}\n", workload.encode_ops()));
    }
    if !workload.edits.is_empty() {
        out.push_str(&format!("edits: {}\n", workload.encode_edits()));
    }
    out
}

/// Parses a corpus entry back into a workload.
///
/// Returns `Err` with a description of the first malformed or missing key.
/// Unknown keys are rejected so that typos in banked entries fail loudly.
pub fn parse_entry(text: &str) -> Result<Workload, String> {
    let mut nodes = None;
    let mut paths = None;
    let mut processors = None;
    let mut buses = None;
    let mut max_comm = None;
    let mut seed = None;
    let mut ops = Vec::new();
    let mut edits = Vec::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed line {line:?}"))?;
        let value = value.trim();
        let parse_usize = |value: &str| {
            value
                .parse::<usize>()
                .map_err(|_| format!("bad value {value:?}"))
        };
        match key.trim() {
            "nodes" => nodes = Some(parse_usize(value)?),
            "paths" => paths = Some(parse_usize(value)?),
            "processors" => processors = Some(parse_usize(value)?),
            "buses" => buses = Some(parse_usize(value)?),
            "max_comm" => {
                max_comm = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad value {value:?}"))?,
                );
            }
            "seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad value {value:?}"))?,
                );
            }
            "ops" => {
                ops = Workload::parse_ops(value).ok_or_else(|| format!("bad ops {value:?}"))?;
            }
            "edits" => {
                edits =
                    Workload::parse_edits(value).ok_or_else(|| format!("bad edits {value:?}"))?;
            }
            other => return Err(format!("unknown corpus key {other:?}")),
        }
    }

    let nodes = nodes.ok_or("missing key `nodes`")?;
    let paths = paths.ok_or("missing key `paths`")?;
    let mut config =
        GeneratorConfig::new(nodes, paths).with_seed(seed.ok_or("missing key `seed`")?);
    if let Some(processors) = processors {
        config = config.with_processors(processors);
    }
    if let Some(buses) = buses {
        config = config.with_buses(buses);
    }
    if let Some(max_comm) = max_comm {
        config = config.with_max_comm_time(max_comm);
    }
    let mut workload = Workload::new(config);
    workload.ops = ops;
    workload.edits = edits;
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg_gen::{EditOp, WorkloadOp};

    #[test]
    fn entries_round_trip() {
        let mut workload =
            Workload::new(GeneratorConfig::new(24, 4).with_processors(2).with_seed(99));
        workload.ops = vec![
            WorkloadOp::ExecTime {
                slot: 3,
                units: 400,
            },
            WorkloadOp::SqueezeProcessors { processors: 1 },
        ];
        workload.edits = vec![EditOp::ExecTime { slot: 0, units: 9 }];
        let encoded = encode_entry(&workload, &["an offender".to_owned()]);
        let decoded = parse_entry(&encoded).unwrap();
        assert_eq!(decoded, workload);
    }

    #[test]
    fn empty_sequences_are_omitted_and_restored() {
        let workload = Workload::new(GeneratorConfig::new(12, 2).with_seed(7));
        let encoded = encode_entry(&workload, &[]);
        assert!(!encoded.contains("ops:"));
        assert!(!encoded.contains("edits:"));
        let decoded = parse_entry(&encoded).unwrap();
        assert_eq!(decoded, workload);
    }

    #[test]
    fn unknown_keys_fail_loudly() {
        assert!(parse_entry("nodes: 10\npaths: 2\nseed: 1\nbogus: 3").is_err());
        assert!(parse_entry("nodes: 10\npaths: 2").is_err());
        assert!(parse_entry("nodes: ten\npaths: 2\nseed: 1").is_err());
    }
}
