//! The coverage-driven fuzzing loop and the offender reducer.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cpg_gen::{EditOp, GeneratorConfig, Workload, WorkloadOp};
use proptest::shrink::minimize_list;

use crate::behavior::{BehaviorVector, NoveltyArchive, Signature};
use crate::oracle::{run_oracles, OracleFailure};

/// Fuzzing-run parameters. All knobs are explicit CLI/test inputs — the
/// fuzzer reads no environment variables, so runs are reproducible from the
/// printed seed alone.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every generated workload derives from it.
    pub seed: u64,
    /// Mutation iterations to run.
    pub iterations: usize,
    /// Wall-clock safety cutoff (`None` = run all iterations).
    pub max_seconds: Option<u64>,
}

impl FuzzConfig {
    /// A config running `iterations` mutations from `seed`, no time bound.
    #[must_use]
    pub fn new(seed: u64, iterations: usize) -> Self {
        FuzzConfig {
            seed,
            iterations,
            max_seconds: None,
        }
    }
}

/// A retained behavior representative: the first workload that landed in a
/// fresh deterministic-signature cell.
#[derive(Debug, Clone)]
pub struct BehaviorEntry {
    /// The workload (not yet shrunk — see [`shrink_preserving_signature`]).
    pub workload: Workload,
    /// Its behavior vector.
    pub vector: BehaviorVector,
}

/// A confirmed oracle violation, already shrunk.
#[derive(Debug, Clone)]
pub struct FailureEntry {
    /// The minimized offending workload.
    pub workload: Workload,
    /// The violation it reproduces.
    pub failure: OracleFailure,
}

/// What a fuzzing run produced.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Workloads the constructors rejected before any merge ran.
    pub benign_rejections: usize,
    /// One representative per deterministic behavior signature, in
    /// discovery order.
    pub behaviors: Vec<BehaviorEntry>,
    /// Shrunk oracle violations (empty on a healthy tree).
    pub failures: Vec<FailureEntry>,
}

/// Base configurations the mutation search grows from: small systems across
/// the conditional-structure and architecture-pressure axes, so the first
/// generation already spans several behavior cells.
fn seed_workloads(rng: &mut StdRng) -> Vec<Workload> {
    [
        (16usize, 2usize, 2usize, 1usize),
        (24, 4, 3, 2),
        (28, 6, 2, 2),
        (32, 8, 4, 2),
    ]
    .iter()
    .map(|&(nodes, paths, processors, buses)| {
        Workload::new(
            GeneratorConfig::new(nodes, paths)
                .with_processors(processors)
                .with_buses(buses)
                .with_seed(rng.random_range(0..u64::MAX)),
        )
    })
    .collect()
}

fn random_op(rng: &mut StdRng) -> WorkloadOp {
    match rng.random_range(0..8u32) {
        0 => WorkloadOp::ExecTime {
            slot: rng.random_range(0..64),
            units: rng.random_range(1..500),
        },
        1 => WorkloadOp::Remap {
            slot: rng.random_range(0..64),
            pe_slot: rng.random_range(0..8),
        },
        2 => WorkloadOp::SqueezeProcessors {
            processors: rng.random_range(0..6),
        },
        3 => WorkloadOp::SqueezeBuses {
            buses: rng.random_range(0..4),
        },
        4 => WorkloadOp::DropProcessingElements {
            keep: rng.random_range(0..12),
        },
        5 => WorkloadOp::AddDependency {
            from_slot: rng.random_range(0..64),
            to_slot: rng.random_range(0..64),
            comm: rng.random_range(0..10),
        },
        6 => WorkloadOp::RemoveDependency {
            slot: rng.random_range(0..64),
        },
        _ => WorkloadOp::RenestGuard {
            slot: rng.random_range(0..64),
            cond_slot: rng.random_range(0..8),
            value: rng.random_bool(0.5),
        },
    }
}

fn random_edit(rng: &mut StdRng) -> EditOp {
    match rng.random_range(0..3u32) {
        0 => EditOp::ExecTime {
            slot: rng.random_range(0..64),
            units: rng.random_range(1..500),
        },
        1 => EditOp::Remap {
            slot: rng.random_range(0..64),
            pe_slot: rng.random_range(0..8),
        },
        _ => EditOp::TightenGuard {
            slot: rng.random_range(0..64),
            cond_slot: rng.random_range(0..8),
            value: rng.random_bool(0.5),
        },
    }
}

/// Caps that keep mutated workloads shrinkable and materialization cheap.
const MAX_OPS: usize = 24;
const MAX_EDITS: usize = 6;

fn mutate(parent: &Workload, rng: &mut StdRng) -> Workload {
    let mut child = parent.clone();
    for _ in 0..rng.random_range(1..=3u32) {
        let roll: f64 = rng.random();
        if roll < 0.60 {
            child.ops.push(random_op(rng));
        } else if roll < 0.75 {
            child.edits.push(random_edit(rng));
        } else if roll < 0.85 && !child.ops.is_empty() {
            let index = rng.random_range(0..child.ops.len());
            child.ops.remove(index);
        } else if roll < 0.95 {
            // Fresh base graph under the same mutation history.
            child.config = child
                .config
                .clone()
                .with_seed(rng.random_range(0..u64::MAX));
        } else if !child.edits.is_empty() {
            let index = rng.random_range(0..child.edits.len());
            child.edits.remove(index);
        } else {
            child.edits.push(random_edit(rng));
        }
    }
    while child.ops.len() > MAX_OPS {
        child.ops.remove(0);
    }
    while child.edits.len() > MAX_EDITS {
        child.edits.remove(0);
    }
    child
}

/// Runs the coverage-driven mutation loop.
///
/// Every iteration mutates a workload from the interesting pool,
/// materializes it (constructor rejections are counted as benign), runs the
/// oracle battery, and keeps the child when its behavior vector lands in a
/// fresh novelty cell. Oracle violations are shrunk with
/// [`shrink_failure`] before being reported.
#[must_use]
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pool = seed_workloads(&mut rng);
    let mut archive = NoveltyArchive::new();
    let mut report = FuzzReport::default();

    let observe = |workload: &Workload,
                   report: &mut FuzzReport,
                   archive: &mut NoveltyArchive|
     -> Option<bool> {
        let Ok(system) = workload.materialize() else {
            report.benign_rejections += 1;
            return None;
        };
        match run_oracles(workload, &system) {
            Ok(vector) => {
                let novel = archive.observe(&vector);
                if novel {
                    report.behaviors.push(BehaviorEntry {
                        workload: workload.clone(),
                        vector,
                    });
                }
                Some(novel)
            }
            Err(failure) => {
                let workload = shrink_failure(workload);
                report.failures.push(FailureEntry { workload, failure });
                Some(false)
            }
        }
    };

    // The seed pool is observed first so the archive starts populated.
    for workload in pool.clone() {
        observe(&workload, &mut report, &mut archive);
    }

    for _ in 0..config.iterations {
        if let Some(max_seconds) = config.max_seconds {
            if started.elapsed().as_secs() >= max_seconds {
                break;
            }
        }
        report.iterations += 1;
        let parent = &pool[rng.random_range(0..pool.len())];
        let child = mutate(parent, &mut rng);
        if observe(&child, &mut report, &mut archive) == Some(true) {
            pool.push(child);
        }
    }

    report
}

/// Minimizes an offending workload: drops every mutation op and edit whose
/// removal keeps *some* oracle failing (the failure may legitimately shift
/// between oracles while shrinking — any violation is worth keeping).
#[must_use]
pub fn shrink_failure(workload: &Workload) -> Workload {
    let still_fails = |candidate: &Workload| match candidate.materialize() {
        Ok(system) => run_oracles(candidate, &system).is_err(),
        Err(_) => false,
    };
    shrink_with(workload, still_fails)
}

/// Minimizes a behavior representative while preserving its deterministic
/// signature, so banked corpus entries carry only the mutations that
/// actually produce their behavior cell.
#[must_use]
pub fn shrink_preserving_signature(workload: &Workload, signature: Signature) -> Workload {
    let still_matches = |candidate: &Workload| match candidate.materialize() {
        Ok(system) => {
            run_oracles(candidate, &system).is_ok_and(|vector| vector.signature() == signature)
        }
        Err(_) => false,
    };
    shrink_with(workload, still_matches)
}

fn shrink_with(workload: &Workload, predicate: impl Fn(&Workload) -> bool) -> Workload {
    let base = workload.clone();
    let ops = minimize_list(&base.ops, |ops| {
        let mut candidate = base.clone();
        candidate.ops = ops.to_vec();
        predicate(&candidate)
    });
    let mut current = base;
    current.ops = ops;
    let with_ops = current.clone();
    current.edits = minimize_list(&with_ops.edits, |edits| {
        let mut candidate = with_ops.clone();
        candidate.edits = edits.to_vec();
        predicate(&candidate)
    });
    current
}
