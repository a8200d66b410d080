//! The differential oracle battery every fuzzer-generated system runs
//! through.
//!
//! A workload only counts as *behavior* once every oracle agrees the merger
//! handled it correctly:
//!
//! 1. **No panic** — the whole battery runs under `catch_unwind`; any panic
//!    anywhere in the merge stack is a failure (validated inputs must merge,
//!    pathological inputs must be rejected with a typed error).
//! 2. **Input validation** — systems [`validate_system`] rejects must also
//!    be rejected by the `try_` entry points (and vice versa never merged).
//! 3. **Cloning walk** — the chain walk must match the clone-based
//!    reference walk (table, schedules, steps, stats).
//! 4. **Warm vs cold** — a [`MergeSession`] replaying the workload's edit
//!    sequence must produce, after every edit, the same result as a cold
//!    merge (a fresh session's first merge) of an identically edited graph.
//! 5. **Simulates clean** — running the walk table (the table the merge
//!    judges, before compaction) on every alternative path with the
//!    run-time simulator must agree with the merge's verdict: a
//!    `Realizable` table runs clean on every path, a clean table without
//!    unrepaired conflicts is `Realizable`, and `lock_slips` is exactly the
//!    simulated violation total. The published, compacted table must
//!    simulate the same delays with no more violations.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cpg::Cpg;
use cpg_arch::Architecture;
use cpg_gen::{GeneratedSystem, Workload};
use cpg_merge::{
    generate_schedule_table, generate_schedule_table_cloning, generate_walk_table,
    try_generate_schedule_table, validate_system, MergeConfig, MergeOutcome, MergeResult,
    MergeSession,
};
use cpg_sim::{SimulationReport, Simulator};

use crate::behavior::BehaviorVector;

/// Which oracle flagged a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Something in the merge stack panicked.
    NoPanic,
    /// `validate_system` and the `try_` entry points disagreed.
    InputValidation,
    /// The chain walk diverged from the clone-based walk.
    CloningWalk,
    /// A warm session merge diverged from the cold merge of the same system.
    WarmVsCold,
    /// The merge's verdict disagrees with a simulation of its table.
    SimulatesClean,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OracleKind::NoPanic => "no-panic",
            OracleKind::InputValidation => "input-validation",
            OracleKind::CloningWalk => "cloning-walk",
            OracleKind::WarmVsCold => "warm-vs-cold",
            OracleKind::SimulatesClean => "simulates-clean",
        })
    }
}

/// A confirmed oracle violation for one workload.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The oracle that flagged the workload.
    pub oracle: OracleKind,
    /// Human-readable divergence description.
    pub detail: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.oracle, self.detail)
    }
}

/// Runs a materialized workload through the full oracle battery.
///
/// Returns the behavior vector when every oracle passes, or the first
/// violation. Panics anywhere in the battery are caught and reported as
/// [`OracleKind::NoPanic`] failures.
pub fn run_oracles(
    workload: &Workload,
    system: &GeneratedSystem,
) -> Result<BehaviorVector, OracleFailure> {
    match catch_unwind(AssertUnwindSafe(|| run_oracles_inner(workload, system))) {
        Ok(result) => result,
        Err(payload) => Err(OracleFailure {
            oracle: OracleKind::NoPanic,
            detail: panic_message(&payload),
        }),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn run_oracles_inner(
    workload: &Workload,
    system: &GeneratedSystem,
) -> Result<BehaviorVector, OracleFailure> {
    let cpg = system.cpg();
    let arch = system.arch();
    let config = MergeConfig::new(system.broadcast_time());

    // Oracle 2: typed rejection of pathological systems.
    if let Err(error) = validate_system(cpg, arch) {
        if try_generate_schedule_table(cpg, arch, &config).is_ok() {
            return Err(OracleFailure {
                oracle: OracleKind::InputValidation,
                detail: format!(
                    "try_generate_schedule_table accepted a system rejected as {error}"
                ),
            });
        }
        if MergeSession::try_new(cpg, arch, &config).is_ok() {
            return Err(OracleFailure {
                oracle: OracleKind::InputValidation,
                detail: format!("MergeSession::try_new accepted a system rejected as {error}"),
            });
        }
        return Ok(BehaviorVector::from_rejection(&error));
    }
    if let Err(error) = try_generate_schedule_table(cpg, arch, &config).map(drop) {
        return Err(OracleFailure {
            oracle: OracleKind::InputValidation,
            detail: format!("try entry point rejected a validated system: {error}"),
        });
    }

    let baseline = generate_schedule_table(cpg, arch, &config);
    let vector = BehaviorVector::from_result(&baseline);

    // Oracle 3: chain walk vs clone-based walk, the decision-tree visit
    // order included (every merge returns its step trace).
    let cloning = generate_schedule_table_cloning(cpg, arch, &config);
    if let Some(divergence) = divergence(&baseline, &cloning) {
        return Err(OracleFailure {
            oracle: OracleKind::CloningWalk,
            detail: divergence,
        });
    }

    // Oracle 4: warm session replay vs cold merges, through the workload's
    // edit sequence. A cold merge is a fresh session's first merge, so the
    // initial session merge is held against the independent cloning walk;
    // after every edit, the warm merge replays cached chains where the cold
    // merge of the edited graph walks them all.
    let mut session = MergeSession::new(cpg, arch, &config);
    if let Some(divergence) = divergence(&cloning, &session.merge()) {
        return Err(OracleFailure {
            oracle: OracleKind::WarmVsCold,
            detail: format!("initial session merge: {divergence}"),
        });
    }
    let mut edited = cpg.clone();
    for (step, edit) in workload.session_edits(system).iter().enumerate() {
        let cold_applied = edit.apply(&mut edited);
        let warm_applied = session.apply_edit(edit);
        if cold_applied.is_err() != warm_applied.is_err() {
            return Err(OracleFailure {
                oracle: OracleKind::WarmVsCold,
                detail: format!(
                    "edit {step} ({edit}) accepted by one side only: \
                     cold {cold_applied:?}, warm {warm_applied:?}"
                ),
            });
        }
        if cold_applied.is_err() {
            continue;
        }
        let cold = generate_schedule_table(&edited, arch, &config);
        let warm = session.merge();
        if let Some(divergence) = divergence(&cold, &warm) {
            return Err(OracleFailure {
                oracle: OracleKind::WarmVsCold,
                detail: format!("edit {step} ({edit}): {divergence}"),
            });
        }
    }

    // Oracle 5: the verdict is what running the walk table shows.
    simulates_clean(cpg, arch, &config, &baseline)?;

    Ok(vector)
}

/// The "simulates clean" oracle on its own: `result`, the merge of `cpg` on
/// `arch` under `config`, must give the verdict that running its walk table
/// (the table the merge judges, before compaction) on every alternative
/// path shows, and the published table, its compaction, must run no worse.
///
/// # Errors
///
/// Returns an [`OracleKind::SimulatesClean`] failure on the first
/// disagreement.
pub fn simulates_clean(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
    result: &MergeResult,
) -> Result<(), OracleFailure> {
    let simulate = |table| {
        let simulator = Simulator::new(cpg, arch, table, config.broadcast_time());
        let reports = simulator.run_all(result.tracks());
        let delays: Vec<_> = reports.iter().map(SimulationReport::delay).collect();
        let violations: usize = reports.iter().map(|report| report.violations().len()).sum();
        (violations, delays)
    };
    let walked = generate_walk_table(cpg, arch, config);
    let (violations, delays) = simulate(walked.table());
    let clean = violations == 0;
    // An unrepaired conflict degrades the outcome even where no path's run
    // happens to trip over it.
    let agrees = if result.outcome() == MergeOutcome::Realizable {
        clean
    } else {
        !clean || result.stats().unrepaired_conflicts > 0
    };
    if !agrees {
        return Err(OracleFailure {
            oracle: OracleKind::SimulatesClean,
            detail: format!(
                "outcome {:?} but the simulation reports {violations} violation(s)",
                result.outcome()
            ),
        });
    }
    if violations != result.stats().lock_slips {
        return Err(OracleFailure {
            oracle: OracleKind::SimulatesClean,
            detail: format!(
                "{violations} simulated violation(s) but {} counted",
                result.stats().lock_slips
            ),
        });
    }
    let (published, published_delays) = simulate(result.table());
    if published > violations || published_delays != delays {
        return Err(OracleFailure {
            oracle: OracleKind::SimulatesClean,
            detail: format!(
                "the published table simulates {published} violation(s) against the walk \
                 table's {violations}, or other delays"
            ),
        });
    }
    Ok(())
}

/// First observable difference between two merge results, if any.
#[must_use]
pub fn divergence(expected: &MergeResult, actual: &MergeResult) -> Option<String> {
    if expected.table() != actual.table() {
        return Some("schedule tables differ".to_owned());
    }
    if expected.tracks() != actual.tracks() {
        return Some("track sets differ".to_owned());
    }
    if expected.path_schedules() != actual.path_schedules() {
        return Some("path schedules differ".to_owned());
    }
    if expected.delta_m() != actual.delta_m() || expected.delta_max() != actual.delta_max() {
        return Some(format!(
            "delays differ: δ_M {}/{} δ_max {}/{}",
            expected.delta_m(),
            actual.delta_m(),
            expected.delta_max(),
            actual.delta_max()
        ));
    }
    if expected.steps() != actual.steps() {
        return Some("step traces differ".to_owned());
    }
    let (a, b) = (expected.stats(), actual.stats());
    if a != b {
        return Some(format!("stats differ: {a:?} vs {b:?}"));
    }
    None
}
