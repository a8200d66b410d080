//! Replays the banked adversarial corpus (`tests/corpus/adversarial/`)
//! through the full differential-oracle battery, and proves every oracle
//! non-vacuous by re-running the corpus under each sabotage mutant of
//! `cpg_merge::sabotage`.
//!
//! Each corpus entry is a fuzzer-found workload (generator configuration
//! plus mutation ops), ddmin-shrunk while preserving its behavior
//! signature. The entries replay *green*: they are regression inputs that
//! once drove the merger into a distinct behavior cell (deep walks, repair
//! storms, degraded outcomes, typed rejections), not stored failures —
//! a healthy tree passes every oracle on all of them. The sabotage tests
//! then flip one protocol switch at a time and assert the battery still
//! notices, so a green corpus run cannot be a vacuous oracle. A mutant no
//! entry reaches is shown on a crafted input instead: the skipped slip
//! repair on `cpg::examples::slipping`, the session mutants on
//! edit-carrying workloads.
//!
//! Every test takes [`lock`]: the sabotage switches and the silenced panic
//! hook of [`run_sabotaged`] are process-global, so a replay running next to
//! an engaged saboteur would both see the injected fault and lose its own
//! failure message.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cpg_fuzz::corpus::{encode_entry, parse_entry};
use cpg_fuzz::{
    run_oracles, shrink_preserving_signature, simulates_clean, FuzzConfig, OracleFailure,
    OracleKind,
};
use cpg_gen::Workload;
use cpg_merge::{generate_schedule_table, sabotage, MergeConfig, MergeOutcome};

/// Serializes every test of this suite: the sabotage switches and the
/// silenced panic hook are process-global state, and an engaged saboteur
/// would corrupt a concurrently running replay.
static SABOTAGE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SABOTAGE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/adversarial")
}

fn load_corpus() -> Vec<(PathBuf, Workload)> {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|entry| entry.expect("corpus entry readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "the adversarial corpus must not be empty"
    );
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("corpus file readable");
            let workload =
                parse_entry(&text).unwrap_or_else(|error| panic!("{}: {error}", path.display()));
            (path, workload)
        })
        .collect()
}

/// Runs the corpus under an engaged saboteur, returning every (entry name,
/// failure) pair the battery reports. The default panic hook is silenced
/// while the saboteur is live so intentional panics don't spam the test log.
fn run_sabotaged(engage: impl Fn() -> Box<dyn std::any::Any>) -> Vec<(String, OracleFailure)> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut caught = Vec::new();
    for (path, workload) in load_corpus() {
        let Ok(system) = workload.materialize() else {
            continue;
        };
        let saboteur = engage();
        let outcome = run_oracles(&workload, &system);
        drop(saboteur);
        if let Err(failure) = outcome {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            caught.push((name, failure));
        }
    }
    std::panic::set_hook(hook);
    caught
}

fn assert_caught_by(caught: &[(String, OracleFailure)], oracle: OracleKind, mutant: &str) {
    assert!(
        caught.iter().any(|(_, failure)| failure.oracle == oracle),
        "no corpus entry caught the {mutant} mutant via the {oracle} oracle: {:?}",
        caught
            .iter()
            .map(|(name, failure)| format!("{name}: {}", failure.oracle))
            .collect::<Vec<_>>()
    );
    let (name, failure) = caught
        .iter()
        .find(|(_, failure)| failure.oracle == oracle)
        .unwrap();
    println!("{mutant} caught by {oracle} on {name}: {failure}");
}

#[test]
fn banked_corpus_replays_green_with_distinct_behaviors() {
    let _lock = lock();
    let corpus = load_corpus();
    let mut signatures = std::collections::HashSet::new();
    for (path, workload) in &corpus {
        let system = workload
            .materialize()
            .unwrap_or_else(|error| panic!("{}: does not materialize: {error}", path.display()));
        let vector = run_oracles(workload, &system)
            .unwrap_or_else(|failure| panic!("{}: {failure}", path.display()));
        let hex: String = vector
            .signature()
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect();
        // The file name carries the first signature bytes, so a stale bank
        // (signature drifted after a merger change) fails loudly here.
        let stem = path.file_stem().unwrap().to_string_lossy();
        if let Some((_, tag)) = stem.rsplit_once('_') {
            assert_eq!(
                &hex[..8],
                tag,
                "{}: behavior signature drifted from the banked one \
                 (re-bank with `cargo run -p cpg-fuzz -- --bank`)",
                path.display()
            );
        }
        signatures.insert(vector.signature());
    }
    assert!(
        signatures.len() >= 8,
        "the corpus must cover at least 8 distinct behavior signatures, got {}",
        signatures.len()
    );
}

#[test]
fn injected_walk_panic_is_caught_by_the_no_panic_oracle() {
    let _lock = lock();
    let caught = run_sabotaged(|| Box::new(sabotage::InjectWalkPanic::engage()));
    assert_caught_by(&caught, OracleKind::NoPanic, "inject-walk-panic");
}

#[test]
fn injected_walk_panic_also_panics_a_session_merge() {
    let _lock = lock();
    let system = cpg::examples::fig1();
    let config = cpg_merge::MergeConfig::new(system.broadcast_time());
    let mut session = cpg_merge::MergeSession::new(system.cpg(), system.arch(), &config);
    session.merge();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let saboteur = sabotage::InjectWalkPanic::engage();
    // A warm merge: every cached chain would replay, yet the hook fires.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.merge()));
    drop(saboteur);
    std::panic::set_hook(hook);
    assert!(
        outcome.is_err(),
        "a session merge ignored the injected walk panic"
    );
}

#[test]
fn dirty_lock_reuse_is_caught_by_the_cloning_oracle() {
    let _lock = lock();
    let caught = run_sabotaged(|| Box::new(sabotage::DirtyLockReuse::engage()));
    assert_caught_by(&caught, OracleKind::CloningWalk, "dirty-lock-reuse");
}

#[test]
fn skipped_slip_repair_is_caught_by_the_simulation_oracle() {
    let _lock = lock();
    // No banked entry repairs a slip, the crafted slipping system does: its
    // merge repairs one, and without the repair the table it still calls
    // `Realizable` runs into a violation.
    let system = cpg::examples::slipping();
    let (cpg, arch) = (system.unexpanded(), system.arch());
    let config = MergeConfig::new(system.broadcast_time());
    let healthy = generate_schedule_table(cpg, arch, &config);
    assert!(healthy.stats().slip_repairs > 0, "{:?}", healthy.stats());
    simulates_clean(cpg, arch, &config, &healthy).unwrap();

    let saboteur = sabotage::SkipSlipRepair::engage();
    let sabotaged = generate_schedule_table(cpg, arch, &config);
    let outcome = simulates_clean(cpg, arch, &config, &sabotaged);
    drop(saboteur);
    assert_eq!(sabotaged.outcome(), MergeOutcome::Realizable);
    let failure = outcome.expect_err("the unrepaired slip must show in the simulation");
    assert_eq!(failure.oracle, OracleKind::SimulatesClean, "{failure}");
    println!("skip-slip-repair caught on the slipping system: {failure}");
}

#[test]
fn skipped_entry_validation_is_caught_by_the_no_panic_net() {
    let _lock = lock();
    // Every pathological system the corpus carries panics the merge once
    // `validate_system` is skipped — the typed rejection is precisely the
    // panic barrier, so removing it is caught by the no-panic oracle (the
    // input-validation oracle's `try_*` probes are what trip the panics).
    let caught = run_sabotaged(|| Box::new(sabotage::SkipEntryValidation::engage()));
    assert_caught_by(&caught, OracleKind::NoPanic, "skip-entry-validation");
}

/// Replays the edit-carrying workload `entry` healthy (it must pass every
/// oracle), then under the saboteur `engage` starts, where the warm-vs-cold
/// oracle must flag it.
fn assert_warm_vs_cold_catches(
    entry: &str,
    engage: impl Fn() -> Box<dyn std::any::Any>,
    mutant: &str,
) {
    let workload = parse_entry(entry).unwrap();
    let system = workload.materialize().unwrap();
    run_oracles(&workload, &system).unwrap();
    let saboteur = engage();
    let outcome = run_oracles(&workload, &system);
    drop(saboteur);
    let failure = outcome.expect_err("the mutant must diverge warm from cold");
    assert_eq!(
        failure.oracle,
        OracleKind::WarmVsCold,
        "expected the warm-vs-cold oracle for {mutant}, got: {failure}"
    );
    println!("{mutant} caught: {failure}");
}

/// Splice validation only matters on a warm session replaying edits, and
/// signature-preserving shrinking strips edits from banked entries (the
/// signature is a function of the unedited baseline), so the session
/// mutants get dedicated edit-carrying workloads. This one was found by
/// running the fuzzer under the engaged splice mutant (`cpg-fuzz --seed
/// 0x9002`); its WCET edit also dirties tracks whose kept contexts the
/// stale-context mutant leaves with the old execution time.
const SPLICE_WORKLOAD: &str = "nodes: 32\n\
                               paths: 8\n\
                               processors: 4\n\
                               buses: 2\n\
                               max_comm: 5\n\
                               seed: 4047189490510347694\n\
                               ops: rmdep:62 rmdep:15\n\
                               edits: exec:19:416\n";

#[test]
fn skipped_splice_validation_is_caught_by_the_warm_vs_cold_oracle() {
    let _lock = lock();
    assert_warm_vs_cold_catches(
        SPLICE_WORKLOAD,
        || Box::new(sabotage::SkipSpliceValidation::engage()),
        "skip-splice-validation",
    );
}

#[test]
fn stale_contexts_are_caught_by_the_warm_vs_cold_oracle() {
    let _lock = lock();
    assert_warm_vs_cold_catches(
        SPLICE_WORKLOAD,
        || Box::new(sabotage::StaleContexts::engage()),
        "stale-contexts",
    );
}

// The next three workloads are a ±1 WCET probe and its undo, the
// `wcet_sweep` traffic, each found by a search over generator seeds and
// processes for a probe the engaged mutant diverges on.

#[test]
fn replayed_impure_chains_are_caught_by_the_warm_vs_cold_oracle() {
    let _lock = lock();
    // The probe leaves some dirty tracks' optimal schedules placing alike,
    // but their cached chains rescheduled around inherited locks with the
    // old execution time.
    assert_warm_vs_cold_catches(
        "nodes: 32\npaths: 8\nprocessors: 4\nbuses: 2\nmax_comm: 5\n\
         seed: 1591719\nedits: exec:10:4 exec:10:5\n",
        || Box::new(sabotage::ReplayImpureChains::engage()),
        "replay-impure-chains",
    );
}

#[test]
fn ignored_knowledge_times_are_caught_by_the_warm_vs_cold_oracle() {
    let _lock = lock();
    // The probe moves when a disjunction process completes but no job's
    // start or resource, so a replayed chain reports stale resolution
    // times.
    assert_warm_vs_cold_catches(
        "nodes: 24\npaths: 4\nprocessors: 2\nbuses: 1\nmax_comm: 5\n\
         seed: 855252\nedits: exec:5:3 exec:5:2\n",
        || Box::new(sabotage::IgnoreKnowledgeTimes::engage()),
        "ignore-knowledge-times",
    );
}

#[test]
fn stale_compactions_are_caught_by_the_warm_vs_cold_oracle() {
    let _lock = lock();
    assert_warm_vs_cold_catches(
        "nodes: 32\npaths: 8\nprocessors: 4\nbuses: 2\nmax_comm: 5\n\
         seed: 7919\nedits: exec:0:15 exec:0:14\n",
        || Box::new(sabotage::StaleCompaction::engage()),
        "stale-compaction",
    );
}

/// Regenerates the banked corpus. Run with
/// `cargo test --test adversarial_corpus -- --ignored --nocapture
/// regenerate_corpus` and paste each printed block into its named file
/// under `tests/corpus/adversarial/` — or run
/// `cargo run -p cpg-fuzz -- --seed 0x5eed --iterations 150 --bank
/// tests/corpus/adversarial` for the same result straight to disk.
#[test]
#[ignore = "corpus regeneration helper, not a check"]
fn regenerate_corpus() {
    let _lock = lock();
    let report = cpg_fuzz::fuzz(&FuzzConfig::new(0x5eed, 150));
    assert!(
        report.failures.is_empty(),
        "cannot bank while oracles fail: {:?}",
        report
            .failures
            .iter()
            .map(|failure| failure.failure.to_string())
            .collect::<Vec<_>>()
    );
    for (index, entry) in report.behaviors.iter().enumerate() {
        let signature = entry.vector.signature();
        let hex: String = signature.iter().map(|byte| format!("{byte:02x}")).collect();
        let shrunk = shrink_preserving_signature(&entry.workload, signature);
        println!("# --- w{index:02}_{}.txt ---", &hex[..8]);
        print!(
            "{}",
            encode_entry(
                &shrunk,
                &[
                    format!("Adversarial workload {index:02}: behavior signature {hex}."),
                    "Found by cpg-fuzz --seed 0x5eed; shrunk with ddmin.".to_owned(),
                ],
            )
        );
    }
}
