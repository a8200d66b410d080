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
//!    merge of an identically edited graph.
//! 5. **Reference realizability** — replaying the final table through the
//!    naive reference scheduler must reproduce exactly the surviving-slip
//!    count the merge reported.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cpg::{Assignment, Cpg};
use cpg_arch::{Architecture, PeId, Time};
use cpg_gen::{GeneratedSystem, Workload};
use cpg_merge::{
    generate_schedule_table, generate_schedule_table_cloning, try_generate_schedule_table,
    validate_system, MergeConfig, MergeResult, MergeSession,
};
use cpg_path_sched::{reference, Job};

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
    /// The final table is not realizable exactly as its stats report.
    ReferenceRealizability,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OracleKind::NoPanic => "no-panic",
            OracleKind::InputValidation => "input-validation",
            OracleKind::CloningWalk => "cloning-walk",
            OracleKind::WarmVsCold => "warm-vs-cold",
            OracleKind::ReferenceRealizability => "reference-realizability",
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

    // Oracle 3: chain walk vs clone-based walk.
    let cloning = generate_schedule_table_cloning(cpg, arch, &config);
    if let Some(divergence) = divergence(&baseline, &cloning) {
        return Err(OracleFailure {
            oracle: OracleKind::CloningWalk,
            detail: divergence,
        });
    }

    // Oracle 4: warm session replay vs cold merges, through the workload's
    // edit sequence.
    let mut session = MergeSession::new(cpg, arch, &config);
    if let Some(divergence) = divergence(&baseline, &session.merge()) {
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

    // Oracle 5: every tabled activation time is realizable, or counted.
    let replayed = replayed_slips(cpg, arch, system.broadcast_time(), &baseline);
    if replayed != baseline.stats().lock_slips {
        return Err(OracleFailure {
            oracle: OracleKind::ReferenceRealizability,
            detail: format!(
                "{replayed} unrealizable activation time(s) but {} counted",
                baseline.stats().lock_slips
            ),
        });
    }

    Ok(vector)
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

/// Replays the final table through the naive reference scheduler: every job
/// locked at its applicable tabled time on its recorded resource. Returns
/// the number of locks the reference scheduler could not honour.
fn replayed_slips(cpg: &Cpg, arch: &Architecture, tau0: Time, result: &MergeResult) -> usize {
    let table = result.table();
    let mut replayed = 0usize;
    for track in result.tracks().iter() {
        let assignment = Assignment::from_cube(&track.label());
        let mut locks: HashMap<Job, (Time, Option<PeId>)> = HashMap::new();
        let jobs = track
            .processes()
            .iter()
            .filter(|&&p| !cpg.process(p).kind().is_dummy())
            .map(|&p| Job::Process(p))
            .chain(track.determined_conditions().map(Job::Broadcast));
        for job in jobs {
            if let Some(time) = table.activation_time(job, &assignment) {
                locks.insert(job, (time, table.activation_resource(job, &assignment)));
            }
        }
        let original = reference::schedule_track(cpg, arch, tau0, track);
        let replay = reference::reschedule(cpg, arch, tau0, track, &original, &locks);
        replayed += replay.slipped_locks().len();
    }
    replayed
}
