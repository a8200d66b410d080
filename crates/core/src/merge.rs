//! The table-generation (schedule merging) algorithm — Sections 4 and 5 of
//! the paper.
//!
//! Scheduling of a conditional process graph is performed in two steps:
//!
//! 1. every alternative path is scheduled individually (the `cpg-path-sched`
//!    crate);
//! 2. the individual schedules are merged into the global schedule table —
//!    this module.
//!
//! The merge proceeds along the binary decision tree spanned by the condition
//! values, explored depth-first. The nodes of the tree are the moments at
//! which a disjunction process of the *current* schedule terminates and a new
//! condition value becomes known. The algorithm follows the four rules of
//! Section 5.1:
//!
//! 1. start times are fixed in the table according, with priority, to the
//!    reachable path with the largest delay;
//! 2. each start time is placed in the column headed by the conjunction of
//!    the condition values known at that moment on the processing element
//!    that executes the process;
//! 3. after a back-step the newly selected schedule is *adjusted*: processes
//!    whose activation time was already fixed in a column that depends only
//!    on conditions decided at ancestor tree nodes are locked to that time
//!    and the remaining processes are rescheduled around them;
//! 4. conflicts with requirement 2 of Section 3 are repaired by moving the
//!    process to one of the previously tabled activation times (the loop
//!    justified by Theorem 2).
//!
//! Every merge runs through one function, [`merge_tracks`], over a
//! [`MergeCache`]: a [`MergeSession`](crate::MergeSession) passes the cache
//! its last merge left behind, and the one-shot entry points
//! ([`generate_schedule_table`] and its variants) pass an empty one, so a
//! one-shot merge is a fresh session's first merge. The merge decides once
//! whether it is warm ([`MergeCache::is_warm`]): a cold merge builds every
//! track's scheduling context and schedules every track, a warm one
//! refreshes and re-schedules the dirty tracks only. Everything after that
//! — the walk, the judge, the compaction — runs the same code either way.
//!
//! The walk is one function, [`MergeShared::walk_chain`]. It walks one
//! **forward chain** of the decision tree — the run of nodes that keeps the
//! same current schedule — and then recurses into the chain's back-step
//! children, deepest resolution first. Every chain writes straight into the
//! [`ScheduleTable`] through a [`RecordingView`], which also logs the
//! chain's writes and a digest of every row it touches; the session's
//! [`Rewalk`] keeps the logs and replays a cached chain instead of walking
//! it while it is still valid. The finished tree of chains is also the
//! merge's record: the step trace and the counters are folded from it once
//! ([`SessionChain::record`]). The decided conditions live in one [`Cube`]
//! (the same type as the track labels and the table's columns) mutated in
//! place, and the lock sets and schedules are pooled, so the walk is
//! allocation-free after warm-up.
//!
//! After the walk, one simulation judges the walk table
//! ([`simulate_tracks`]): every track is executed by the run-time simulator
//! of `cpg-sim`, and that single run yields `δ_max`, the count of run-time
//! violations ([`MergeStats::lock_slips`]) and with it the
//! [`MergeOutcome`](crate::MergeOutcome). Then
//! [`ScheduleTable::compact`] removes the entries the walk wrote redundantly
//! (one time in sibling columns `X∧c` and `X∧¬c`, or in `X∧c` beside an
//! equal entry in `X`), and the compacted table is the one published. Every
//! merge compacts through the cache's
//! [`CompactionMemo`](cpg_table::CompactionMemo)
//! ([`ScheduleTable::compact_reusing`]): a cold merge fills it, and a warm
//! merge compacts only the rows its walk changed.
//!
//! The judge runs before compaction on purpose. A warm merge reuses a clean
//! track's last run when no changed column of the *walk* table is
//! compatible with its label. On a compacted table that key would not be
//! enough: a change in `X∧¬c` can stop `X∧c` and `X∧¬c` from merging, which
//! moves a clean `c`-label's selecting column from `X` to `X∧c` and can add
//! a requirement-4 violation the reused run would miss. Judging the walk
//! table keeps the reuse sound and keeps `δ_max`, the counters, the steps
//! and the outcome bit-identical to an uncompacted merge. The judgment is
//! still a sound bound for the published table: compaction keeps every
//! label's activation time and resource, and only coarsens the columns
//! that select them, so requirement-4 violations can only fall. Sessions,
//! one-shot merges and the cloning oracle all compact the same walk table
//! in the same call, so a warm merge still equals a cold one; the session's
//! chain logs and row digests keep describing the walk table, which every
//! merge rebuilds from scratch.
//!
//! The whole merge runs on the calling thread: the initial per-path
//! schedules are a plain loop over the tracks that shares the walk's one
//! scheduler scratch arena. The original clone-per-node recursion is kept
//! behind the `test-util` feature as a differential-test oracle
//! ([`generate_schedule_table_cloning`]).

use cpg::{enumerate_tracks, CondId, Cpg, Cube, Track, TrackSet};
use cpg_arch::{Architecture, PeId, Time};
use cpg_path_sched::{
    Job, ListScheduler, LockSet, PathSchedule, RunScratch, ScheduledJob, SlippedLock, TrackContext,
};
use cpg_sim::{SimScratch, Simulator};
use cpg_table::{RecordingView, ScheduleTable};

use crate::config::{MergeConfig, SelectionPolicy};
#[cfg(any(test, feature = "test-util"))]
use crate::result::MergeStep;
use crate::result::{MergeResult, MergeStats};
use crate::session::{Edited, MergeCache, ReuseStats, Rewalk, SessionChain};

/// Test-only fault injection: deliberately broken variants of the merge
/// protocol, each proving a differential oracle non-vacuous. Every switch is
/// an RAII guard (`engage()` sets a process-global flag, dropping the guard
/// restores the correct protocol), so tests using one must serialize.
///
/// * [`InjectWalkPanic`](crate::sabotage::InjectWalkPanic) — panics at the
///   top of every merge, one-shot or session; caught by the no-panic oracle.
/// * [`DirtyLockReuse`](crate::sabotage::DirtyLockReuse) — recycles a pooled
///   chain lock set without clearing it, so stale locks from a previously
///   walked chain leak into the new chain's placements; caught by the
///   cloning-oracle differential (the oracle allocates a fresh lock set per
///   back-step).
/// * [`SkipSlipRepair`](crate::sabotage::SkipSlipRepair) — drops the
///   Theorem-2 slip-repair loop *and* the in-merge violation count,
///   publishing stale intended times as a realizable table; caught by the
///   simulation oracle, which runs the table itself.
/// * [`SkipSpliceValidation`](crate::sabotage::SkipSpliceValidation) —
///   replays cached session chains without checking their row snapshots
///   (the column-creation guard stays); caught by the warm-vs-cold oracle.
/// * [`StaleContexts`](crate::sabotage::StaleContexts) — skips the refresh
///   of the dirty tracks' cached scheduling contexts, so a warm merge
///   schedules them with the execution times and mappings of before the
///   edit; caught by the warm-vs-cold oracle.
/// * [`ReplayImpureChains`](crate::sabotage::ReplayImpureChains) — lets a
///   warm merge replay a cached chain of a dirty track that rescheduled
///   around its locks, with the timing of before the edit, as long as the
///   track's new optimal schedule places like the old one; caught by the
///   warm-vs-cold oracle.
/// * [`IgnoreKnowledgeTimes`](crate::sabotage::IgnoreKnowledgeTimes) —
///   compares a dirty track's new optimal schedule with the cached one by
///   its jobs' starts and resources only, so a chain whose conditions now
///   become known at other times replays; caught by the warm-vs-cold oracle.
/// * [`StaleCompaction`](crate::sabotage::StaleCompaction) — applies a
///   session's kept compaction of a row to that row even after the row
///   changed; caught by the warm-vs-cold oracle.
/// * [`SkipEntryValidation`](crate::sabotage::SkipEntryValidation) — drops
///   the `validate_system` call from the `try_` entry points, accepting
///   pathological systems; caught by the input-validation oracle.
#[cfg(any(test, feature = "test-util"))]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    macro_rules! switch {
        ($(#[$doc:meta])* $flag:ident, $guard:ident, $probe:ident) => {
            static $flag: AtomicBool = AtomicBool::new(false);

            $(#[$doc])*
            #[derive(Debug)]
            pub struct $guard {
                _not_send: std::marker::PhantomData<*const ()>,
            }

            impl $guard {
                /// Engages the fault; dropping the guard disengages it.
                #[must_use]
                pub fn engage() -> Self {
                    $flag.store(true, Ordering::SeqCst);
                    $guard {
                        _not_send: std::marker::PhantomData,
                    }
                }
            }

            impl Drop for $guard {
                fn drop(&mut self) {
                    $flag.store(false, Ordering::SeqCst);
                }
            }

            pub(crate) fn $probe() -> bool {
                $flag.load(Ordering::SeqCst)
            }
        };
    }

    switch!(
        /// Guard that makes the merge panic on entry while alive.
        INJECT_WALK_PANIC,
        InjectWalkPanic,
        inject_walk_panic
    );
    switch!(
        /// Guard that keeps the walk recycling pooled chain lock sets without
        /// clearing their stale contents while alive.
        DIRTY_LOCK_REUSE,
        DirtyLockReuse,
        dirty_lock_reuse
    );
    switch!(
        /// Guard that skips the Theorem-2 slip-repair loop (and the count
        /// of the simulated violations it leaves behind) while alive.
        SKIP_SLIP_REPAIR,
        SkipSlipRepair,
        skip_slip_repair
    );
    switch!(
        /// Guard that lets session replays splice cached chain logs without
        /// checking their row snapshots while alive.
        SKIP_SPLICE_VALIDATION,
        SkipSpliceValidation,
        skip_splice_validation
    );
    switch!(
        /// Guard that makes warm merges keep the stale timing of the dirty
        /// tracks' cached contexts while alive.
        STALE_CONTEXTS,
        StaleContexts,
        stale_contexts
    );
    switch!(
        /// Guard that lets warm merges replay schedule-impure chains of dirty
        /// tracks while alive.
        REPLAY_IMPURE_CHAINS,
        ReplayImpureChains,
        replay_impure_chains
    );
    switch!(
        /// Guard that makes warm merges compare a dirty track's optimal
        /// schedules by starts and resources only, ignoring when conditions
        /// become known, while alive.
        IGNORE_KNOWLEDGE_TIMES,
        IgnoreKnowledgeTimes,
        ignore_knowledge_times
    );
    switch!(
        /// Guard that makes session merges apply the kept compaction of a row
        /// that changed since while alive.
        STALE_COMPACTION,
        StaleCompaction,
        stale_compaction
    );
    switch!(
        /// Guard that makes the `try_` entry points skip their
        /// [`validate_system`](crate::validate_system) call while alive.
        SKIP_ENTRY_VALIDATION,
        SkipEntryValidation,
        skip_entry_validation
    );
}

/// Generates the schedule table of a conditional process graph.
///
/// The graph must already contain its communication processes (see
/// [`cpg::expand_communications`]); `arch` is the target architecture the
/// processes are mapped on and `config` carries the condition-broadcast time
/// `τ0` and the path-selection policy.
///
/// The returned [`MergeResult`] bundles the table, the individual per-path
/// schedules, the lower bound `δ_M`, the simulated worst-case delay `δ_max`
/// and statistics about the merge.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_merge::{generate_schedule_table, MergeConfig};
///
/// let system = examples::fig1();
/// let result = generate_schedule_table(
///     system.cpg(),
///     system.arch(),
///     &MergeConfig::new(system.broadcast_time()),
/// );
/// assert_eq!(result.tracks().len(), 6);
/// assert!(result.delta_max() >= result.delta_m());
/// result
///     .table()
///     .verify(system.cpg(), result.tracks())
///     .expect("the generated table satisfies requirements 1-3");
/// ```
#[must_use]
pub fn generate_schedule_table(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
) -> MergeResult {
    let tracks = enumerate_tracks(cpg);
    generate_schedule_table_for_tracks(cpg, arch, config, tracks)
}

/// Variant of [`generate_schedule_table`] that reuses already enumerated
/// tracks (useful when the caller needs the track set for other purposes and
/// wants to avoid enumerating it twice).
#[must_use]
pub fn generate_schedule_table_for_tracks(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
    tracks: TrackSet,
) -> MergeResult {
    merge_tracks(cpg, arch, config, tracks, &mut MergeCache::default())
}

/// Variant of [`generate_schedule_table`] that drives the merge with the
/// original clone-per-node recursive decision-tree walk instead of the
/// chain walk. The two walks make identical decisions; this one exists
/// purely as a reference oracle for the differential tests that pin the
/// chain walk's output, and only compiles with the `test-util` feature.
#[cfg(any(test, feature = "test-util"))]
#[must_use]
pub fn generate_schedule_table_cloning(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
) -> MergeResult {
    let tracks = enumerate_tracks(cpg);
    let mut cache = MergeCache {
        cloning_oracle: true,
        ..MergeCache::default()
    };
    merge_tracks(cpg, arch, config, tracks, &mut cache)
}

/// Variant of [`generate_schedule_table`] that publishes the walk table as
/// the walk left it, without [`ScheduleTable::compact`]. Everything else —
/// `δ_max`, the counters, the steps, the outcome — is the same, since the
/// merge judges the walk table either way. It exists as the reference the
/// compaction property tests compare the published table against, and
/// only compiles with the `test-util` feature.
#[cfg(any(test, feature = "test-util"))]
#[must_use]
pub fn generate_walk_table(cpg: &Cpg, arch: &Architecture, config: &MergeConfig) -> MergeResult {
    let tracks = enumerate_tracks(cpg);
    let mut cache = MergeCache {
        uncompacted: true,
        ..MergeCache::default()
    };
    merge_tracks(cpg, arch, config, tracks, &mut cache)
}

/// The one merge: schedules every alternative path, walks the decision tree
/// into the table, judges the table by simulating it on every track, and
/// publishes it compacted ([`ScheduleTable::compact_reusing`]).
///
/// `cache` is what the previous merge of the same system left behind (see
/// [`MergeCache`]); an empty cache makes this a cold merge. A warm merge
/// re-schedules the dirty tracks only, replays every cached chain that is
/// still valid and re-simulates only the tracks the changed table cells can
/// reach. The result is bit-identical either way. The merge leaves its
/// decision tree, simulated runs and reuse counters in `cache`, clears the
/// dirty marks, and moves `tracks` and the optimal schedules into the
/// result, so a caller that merges again must put the schedules back.
pub(crate) fn merge_tracks(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
    tracks: TrackSet,
    cache: &mut MergeCache,
) -> MergeResult {
    // Mutation self-test hook: the no-panic oracle must flag a merge that
    // dies instead of returning (tests/adversarial_corpus.rs).
    #[cfg(any(test, feature = "test-util"))]
    assert!(
        !sabotage::inject_walk_panic(),
        "sabotage: injected walk panic"
    );
    // The scheduler gathers the graph tables once per merge. Every track's
    // dense scheduling context is derived from them and reused across the
    // initial per-path schedules and every adjustment/repair of the walk.
    // A cold merge builds every context and schedules every track; a warm
    // merge takes over the contexts and schedules the last merge left,
    // re-times the dirty contexts, re-schedules the dirty tracks only (a
    // clean track's optimal schedule cannot have changed) and notes which
    // of them still place like their cached schedule.
    let scheduler = ListScheduler::new(cpg, arch, config.broadcast_time());
    let mut state = WalkState::new();
    let warm = cache.is_warm();
    let mut contexts = std::mem::take(&mut cache.contexts);
    let mut optimal = std::mem::take(&mut cache.optimal);
    let edited: Vec<Edited> = if warm {
        let mut edited = vec![Edited::Clean; tracks.len()];
        for idx in (0..tracks.len()).filter(|&idx| cache.dirty[idx]) {
            // Mutation self-test hook: a warm merge that keeps the stale
            // timing of dirty contexts must diverge from a cold one
            // (tests/adversarial_corpus.rs).
            #[cfg(any(test, feature = "test-util"))]
            let refresh = !sabotage::stale_contexts();
            #[cfg(not(any(test, feature = "test-util")))]
            let refresh = true;
            if refresh {
                scheduler.refresh(&mut contexts[idx]);
            }
            let fresh = contexts[idx].schedule_with(&mut state.scratch);
            edited[idx] = if places_like(&fresh, &optimal[idx]) {
                Edited::PlacesAlike
            } else {
                Edited::Replaced
            };
            optimal[idx] = fresh;
        }
        edited
    } else {
        contexts = tracks
            .iter()
            .map(|track| scheduler.context(track))
            .collect();
        optimal = contexts
            .iter()
            .map(|context| context.schedule_with(&mut state.scratch))
            .collect();
        vec![Edited::Replaced; tracks.len()]
    };
    let delta_m = optimal
        .iter()
        .map(PathSchedule::delay)
        .max()
        .unwrap_or(Time::ZERO);

    let shared = MergeShared {
        cpg,
        config,
        contexts: &contexts,
        tracks: &tracks,
        optimal: &optimal,
    };
    let mut rewalk = Rewalk::new(&edited, warm);
    let mut table = ScheduleTable::new();
    // The differential oracle walks the same tree cloning at every node,
    // counting and tracing as it goes, and leaves no chains behind.
    #[cfg(any(test, feature = "test-util"))]
    let oracle = cache
        .cloning_oracle
        .then(|| shared.walk_cloning_tree(&mut state, &mut table));
    #[cfg(not(any(test, feature = "test-util")))]
    let oracle = None;
    // Otherwise the decision tree is the merge's record: the steps, the work
    // counters and the reuse counters are one fold over its chains,
    // replayed or walked.
    let (steps, mut stats, mut reuse) = match oracle {
        Some((steps, stats)) => (steps, stats, ReuseStats::default()),
        None => {
            let root = shared.walk_tree(&mut rewalk, &mut state, &mut table, cache.root.take());
            let record = root.record(&tracks);
            cache.root = Some(root);
            record
        }
    };

    // The re-walk noted the column of every cell that may differ from the
    // previous table; clean tracks with no compatible changed column keep
    // last merge's run (see [`MergeCache::track_runs`] for why that is
    // sound).
    let mut changed_columns = std::mem::take(&mut rewalk.changed);
    changed_columns.sort_unstable();
    changed_columns.dedup();
    let cached_runs = std::mem::take(&mut cache.track_runs);
    cache.track_runs = simulate_tracks(cpg, arch, config, &table, &tracks, |idx| {
        let label = tracks.tracks()[idx].label();
        let reusable =
            warm && !cache.dirty[idx] && !changed_columns.iter().any(|col| col.compatible(&label));
        reusable.then(|| cached_runs[idx])
    });
    let delta_max = judge(&cache.track_runs, &mut stats);
    // The judge ran on the walk table (see [`judge`]); the published table
    // is the compacted one. Every merge compacts through the cache's memo,
    // so a warm merge compacts again only the rows its walk changed.
    #[cfg(any(test, feature = "test-util"))]
    let compact = !cache.uncompacted;
    #[cfg(not(any(test, feature = "test-util")))]
    let compact = true;
    if compact {
        // Mutation self-test hook: reuse the kept compaction of rows that
        // changed. The warm-vs-cold oracle must flag it
        // (tests/adversarial_corpus.rs).
        #[cfg(any(test, feature = "test-util"))]
        cache
            .compaction
            .trust_stale_rows(sabotage::stale_compaction());
        reuse.compactions_reused = table.compact_reusing(cpg, &mut cache.compaction);
    }
    cache.reuse = reuse;
    cache.dirty.fill(false);
    cache.contexts = contexts;

    MergeResult {
        table,
        tracks,
        path_schedules: optimal,
        delta_m,
        delta_max,
        steps,
        stats,
    }
}

/// What one simulated run of the finished table reports for a track: its
/// delay and the number of run-time violations.
pub(crate) type TrackRun = (Time, usize);

/// The merge's one realizability check: executes the finished table on
/// every track with the run-time simulator, in track order. `reuse` may
/// hand back a track's run from the previous merge instead (the cache's
/// per-track runs); a cold merge reuses nothing. The tracks left to
/// simulate go through [`Simulator::run_each`] together, so their rows are
/// resolved once per block of labels.
///
/// The simulated delay of a track is bit-identical to
/// [`ScheduleTable::track_delay`]: both take the same activation lookups
/// over the processes whose guard the label implies, plus their execution
/// times.
fn simulate_tracks(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
    table: &ScheduleTable,
    tracks: &TrackSet,
    reuse: impl FnMut(usize) -> Option<TrackRun>,
) -> Vec<TrackRun> {
    let mut runs: Vec<Option<TrackRun>> = (0..tracks.len()).map(reuse).collect();
    let (pending, labels): (Vec<usize>, Vec<Cube>) = runs
        .iter()
        .enumerate()
        .filter(|(_, run)| run.is_none())
        .map(|(idx, _)| (idx, tracks.tracks()[idx].label()))
        .unzip();
    let simulator = Simulator::new(cpg, arch, table, config.broadcast_time());
    simulator.run_each(&labels, &mut SimScratch::new(), |at, report| {
        runs[pending[at]] = Some((report.delay(), report.violations().len()));
    });
    runs.into_iter()
        .map(|run| run.expect("every track is reused or simulated"))
        .collect()
}

/// Folds the simulated runs into the merge's verdict: the violation total
/// becomes [`MergeStats::lock_slips`] (and with it the
/// [`MergeOutcome`](crate::MergeOutcome)), and the largest simulated delay,
/// `δ_max`, is returned.
///
/// The runs are those of the walk table, before [`ScheduleTable::compact`]:
/// the warm merge's run reuse is keyed to the walk table's changed columns
/// (see the module docs). The verdict holds for the published table too —
/// compaction keeps every activation time and resource and only coarsens
/// selecting columns, so the delays are equal and the violations can only
/// fall.
fn judge(runs: &[TrackRun], stats: &mut MergeStats) -> Time {
    let violations = runs.iter().map(|&(_, violations)| violations).sum();
    // Mutation self-test hook: the slip-repair mutant models losing the
    // repair *and* its accounting, so the table is published as realizable;
    // the simulation oracle must catch it (tests/adversarial_corpus.rs).
    #[cfg(any(test, feature = "test-util"))]
    let violations = if sabotage::skip_slip_repair() {
        0
    } else {
        violations
    };
    stats.lock_slips = violations;
    runs.iter()
        .map(|&(delay, _)| delay)
        .max()
        .unwrap_or(Time::ZERO)
}

/// Whether a dirty track's new optimal schedule `fresh` places like its
/// cached one ([`PathSchedule::places_like`]), so that its schedule-pure
/// cached chains may replay (see the [`session`](crate::session) docs).
fn places_like(fresh: &PathSchedule, cached: &PathSchedule) -> bool {
    // Mutation self-test hook: compare the starts and resources alone, so a
    // chain replays although its conditions now become known at other
    // times. The warm-vs-cold oracle must flag it
    // (tests/adversarial_corpus.rs).
    #[cfg(any(test, feature = "test-util"))]
    if sabotage::ignore_knowledge_times() {
        let placed = |schedule: &PathSchedule| {
            let jobs = schedule.jobs().iter();
            jobs.map(|sj| (sj.job(), sj.start(), sj.pe()))
                .collect::<Vec<_>>()
        };
        return placed(fresh) == placed(cached);
    }
    fresh.places_like(cached)
}

/// Variant of [`generate_schedule_table`] that validates the system first
/// and returns a typed [`MergeError`](crate::MergeError) instead of hitting
/// an index panic deep inside the scheduler on pathological inputs (see
/// [`validate_system`](crate::validate_system) for the checks).
pub fn try_generate_schedule_table(
    cpg: &Cpg,
    arch: &Architecture,
    config: &MergeConfig,
) -> Result<MergeResult, crate::MergeError> {
    crate::error::validate_entry(cpg, arch)?;
    Ok(generate_schedule_table(cpg, arch, config))
}

/// Outcome of placing one activation time into the table.
enum Placement {
    /// The activation time was placed (or was already present) at the
    /// schedule's own start time, on the recorded resource.
    Kept(Option<PeId>),
    /// A conflict forced the process to a previously tabled activation time
    /// (carrying the resource recorded for that entry); the current schedule
    /// must be re-adjusted around the new time.
    Moved(Time, Option<PeId>),
}

/// Upper bound on reschedule → re-place rounds per adjustment. Every round
/// either moves a slipped lock to its strictly later achievable start or to a
/// previously tabled candidate, so the loop converges quickly in practice;
/// the cap only guards against pathological oscillation between candidates.
const SLIP_REPAIR_ROUNDS: usize = 16;

/// The immutable inputs of the decision-tree walk.
pub(crate) struct MergeShared<'a> {
    pub(crate) cpg: &'a Cpg,
    pub(crate) config: &'a MergeConfig,
    pub(crate) contexts: &'a [TrackContext],
    pub(crate) tracks: &'a TrackSet,
    pub(crate) optimal: &'a [PathSchedule],
}

/// Walk state: the repair counters of the chain being walked plus the
/// reusable buffers that make the traversal allocation-free after warm-up.
pub(crate) struct WalkState {
    /// Repair counters since the last committed chain (the clone-per-node
    /// oracle counts every node here instead).
    pub(crate) stats: MergeStats,
    /// Decision-tree nodes visited by the clone-per-node oracle, in visit
    /// order.
    #[cfg(any(test, feature = "test-util"))]
    steps: Vec<MergeStep>,
    /// Scratch arena for every scheduler run of the merge: the initial
    /// schedules, adjustments and repairs.
    pub(crate) scratch: RunScratch,
    /// Reusable buffers of the repair loops.
    slip_buf: Vec<SlippedLock>,
    stale_buf: Vec<Cube>,
    frontier_buf: Vec<Cube>,
    fresh_buf: Vec<Cube>,
    candidates_buf: Vec<(Time, u32, Option<PeId>)>,
    /// Pools: dead schedules and lock sets are recycled instead of freed.
    schedule_pool: Vec<PathSchedule>,
    lock_pool: Vec<LockSet>,
    /// Swap target of `place_phase` repairs.
    spare: PathSchedule,
    /// Whether an adjustment since the last committed chain rescheduled its
    /// track instead of keeping the optimal schedule.
    rescheduled: bool,
    /// The resolutions of every forward chain on the current tree path,
    /// stacked: a chain pushes its own above its ancestors' and truncates
    /// back once its children are walked.
    pub(crate) resolutions: Vec<Resolution>,
}

impl WalkState {
    pub(crate) fn new() -> Self {
        WalkState {
            stats: MergeStats::default(),
            #[cfg(any(test, feature = "test-util"))]
            steps: Vec::new(),
            scratch: RunScratch::new(),
            slip_buf: Vec::new(),
            stale_buf: Vec::new(),
            frontier_buf: Vec::new(),
            fresh_buf: Vec::new(),
            candidates_buf: Vec::new(),
            schedule_pool: Vec::new(),
            lock_pool: Vec::new(),
            spare: PathSchedule::default(),
            rescheduled: false,
            resolutions: Vec::new(),
        }
    }
}

/// One condition resolution of a forward chain: the condition, its value on
/// the chain's current path and the time it became known.
pub(crate) type Resolution = (CondId, bool, Time);

impl MergeShared<'_> {
    /// Adjusts a track to the locked activation times (rule 3 of the paper's
    /// table generation algorithm).
    ///
    /// When the track's optimal schedule already
    /// [honours](PathSchedule::honours) every lock, it is the adjustment: no
    /// schedule meeting the locks is shorter, and it cannot slip against
    /// itself. Otherwise the track is re-scheduled around the locks, feeding
    /// every slipped lock back through the Theorem-2 re-placement loop: the
    /// stale intended time is dropped from the table, the job is re-placed at
    /// the start it can actually achieve (or moved to a previously tabled
    /// time by the conflict repair), the lock is updated, and the track is
    /// re-adjusted — until no lock slips or the round cap is reached.
    ///
    /// The adjusted schedule is rebuilt into `out` (previous content
    /// discarded, buffers reused): the walk pools its schedules, so repeated
    /// adjustments stop touching the allocator once the pool is warm.
    fn adjust_into(
        &self,
        state: &mut WalkState,
        view: &mut RecordingView<'_>,
        track_idx: usize,
        locks: &mut LockSet,
        decided: &Cube,
        out: &mut PathSchedule,
    ) {
        let optimal = &self.optimal[track_idx];
        if optimal.honours(locks) {
            out.clone_from(optimal);
            return;
        }
        state.rescheduled = true;
        self.contexts[track_idx].reschedule_into(&mut state.scratch, optimal, locks, out);
        // Mutation self-test hook: publish the stale intended times without
        // repairing the slip, so the table keeps activation times no
        // dispatcher can honour ([`judge`] drops their count too). The
        // simulation oracle must catch the divergence
        // (tests/adversarial_corpus.rs).
        #[cfg(any(test, feature = "test-util"))]
        if sabotage::skip_slip_repair() {
            return;
        }
        let mut rounds = 0;
        while !out.slipped_locks().is_empty() && rounds < SLIP_REPAIR_ROUNDS {
            state.stats.repair_rounds += 1;
            let mut slips = std::mem::take(&mut state.slip_buf);
            slips.clear();
            slips.extend_from_slice(out.slipped_locks());
            let mut progressed = false;
            for slip in &slips {
                progressed |= self.repair_slip(state, view, out, decided, slip, locks);
            }
            state.slip_buf = slips;
            if !progressed {
                break;
            }
            self.contexts[track_idx].reschedule_into(&mut state.scratch, optimal, locks, out);
            rounds += 1;
        }
    }

    /// [`adjust_into`](Self::adjust_into) allocating a fresh schedule per
    /// call — the clone-per-node discipline of the oracle walk.
    #[cfg(any(test, feature = "test-util"))]
    fn adjust(
        &self,
        state: &mut WalkState,
        view: &mut RecordingView<'_>,
        track_idx: usize,
        locks: &mut LockSet,
        decided: &Cube,
    ) -> PathSchedule {
        let mut out = PathSchedule::default();
        self.adjust_into(state, view, track_idx, locks, decided, &mut out);
        out
    }

    /// Repairs one slipped lock by re-timing the stale tabled entries the
    /// lock was derived from.
    ///
    /// The stale entries are every tabled time of the job equal to the
    /// slipped intended time in a column compatible with the conditions
    /// decided on this tree path. They are updated *in their own columns*
    /// rather than removed: a lock inherited at a back-step always comes from
    /// an ancestor-dependent column that also covers the sibling subtrees, so
    /// dropping the entry (or refining its column with conditions unknown at
    /// activation time) would strip those subtrees of their activation or
    /// violate requirement 4. The replacement time follows the Theorem-2
    /// discipline: one of the previously tabled activation times of the job
    /// that the adjusted schedule can actually reach, falling back to the
    /// start the schedule achieved when no tabled time is achievable. The
    /// caller re-runs the scheduler with the updated lock; a repair that is
    /// still too early slips again and is re-timed in the next round.
    ///
    /// Returns `false` when no stale entry could be located (the slip then
    /// survives as-is and shows up when the finished table is simulated).
    // lint: hot-path (Theorem-2 conflict repair runs inside the walk's inner loop)
    fn repair_slip(
        &self,
        state: &mut WalkState,
        view: &mut RecordingView<'_>,
        schedule: &PathSchedule,
        decided: &Cube,
        slip: &SlippedLock,
        locks: &mut LockSet,
    ) -> bool {
        let job = slip.job();
        let mut stale = std::mem::take(&mut state.stale_buf);
        stale.clear();
        // Entries at exactly the intended time; only their cubes are tested
        // against the decided context. `stale` is sorted below, so the scan
        // order is immaterial.
        stale.extend(
            view.keyed_entries(job)
                .filter(|&(_, column, time, _)| {
                    time == slip.intended() && column.compatible(decided)
                })
                .map(|(_, column, _, _)| column),
        );
        if stale.is_empty() {
            state.stale_buf = stale;
            return false;
        }
        // Closure over compatible same-time columns: an execution can satisfy
        // a stale column together with any column compatible with it, so
        // every entry at the intended time that overlaps the rewritten set
        // must move along or requirement 2 (one time per execution) breaks.
        // `stale` is kept sorted so membership is a binary search, and each
        // round only tests candidates against the columns added by the
        // previous round (a column compatible with an older member joined the
        // set the round after that member did), so every (entry, stale
        // column) pair is examined at most once.
        stale.sort_unstable();
        let mut frontier = std::mem::take(&mut state.frontier_buf);
        let mut fresh = std::mem::take(&mut state.fresh_buf);
        frontier.clear();
        frontier.extend_from_slice(&stale);
        while !frontier.is_empty() {
            fresh.clear();
            fresh.extend(
                view.keyed_entries(job)
                    .filter(|&(_, column, time, _)| {
                        time == slip.intended()
                            && stale.binary_search(&column).is_err()
                            && frontier.iter().any(|s| s.compatible(&column))
                    })
                    .map(|(_, column, _, _)| column),
            );
            for &column in &fresh {
                let at = stale
                    .binary_search(&column)
                    .expect_err("fresh columns are not yet stale");
                stale.insert(at, column);
            }
            std::mem::swap(&mut frontier, &mut fresh);
        }
        frontier.clear();
        fresh.clear();
        state.frontier_buf = frontier;
        state.fresh_buf = fresh;

        // Theorem 2: prefer one of the previously tabled activation times of
        // this job that the adjusted schedule can reach; invent a new time
        // only when none is achievable.
        let mut target = slip.actual();
        let mut target_pe = schedule.entry(job).and_then(|sj| sj.pe());
        // The earliest reachable tabled time wins; the lowest column key
        // breaks ties: the first-wins scan in serial entry order, stated
        // independently of the scan order.
        let reachable = view.keyed_entries(job).filter(|&(_, column, time, _)| {
            column.compatible(decided) && time >= slip.actual() && time != slip.intended()
        });
        let tabled = reachable.min_by_key(|&(key, _, time, _)| (time, key));
        if let Some((_, _, time, resource)) = tabled {
            target = time;
            target_pe = resource.or(target_pe);
        }

        for column in &stale {
            view.set_on(job, *column, target, target_pe);
        }
        stale.clear();
        state.stale_buf = stale;
        locks.insert_pinned(job, target, target_pe);
        state.stats.slip_repairs += 1;
        true
    }

    /// Picks the reachable path used as the current schedule at a decision
    /// tree node (rule 1 / the selection policy of the configuration).
    pub(crate) fn select_track(&self, decided: &Cube) -> Option<usize> {
        let reachable = self
            .tracks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.label().compatible(decided));
        match self.config.selection() {
            SelectionPolicy::LongestDelayFirst => reachable
                .max_by_key(|(i, _)| (self.optimal[*i].delay(), usize::MAX - *i))
                .map(|(i, _)| i),
            SelectionPolicy::ShortestDelayFirst => reachable
                .min_by_key(|(i, _)| (self.optimal[*i].delay(), *i))
                .map(|(i, _)| i),
            SelectionPolicy::EnumerationOrder => reachable.map(|(i, _)| i).next(),
        }
    }

    /// Walks the whole decision tree from its root chain, replaying the
    /// cached tree `cached` wherever it is still valid, and returns the
    /// tree's chains.
    fn walk_tree(
        &self,
        rec: &mut Rewalk<'_>,
        st: &mut WalkState,
        table: &mut ScheduleTable,
        cached: Option<Box<SessionChain>>,
    ) -> Box<SessionChain> {
        let mut decided = Cube::top();
        let root = self
            .select_track(&decided)
            .expect("a valid graph has at least one alternative path");
        self.walk_chain(rec, st, table, cached, None, root, &mut decided)
    }

    /// Walks one forward chain of the decision tree and, recursively, its
    /// back-step children: the depth-first `BuildScheduleTable` procedure of
    /// the paper's Fig. 3, one chain per call.
    ///
    /// The chain keeps one current schedule. At a back-step entry the newly
    /// selected schedule first inherits the ancestor locks from the table
    /// (rule 3) and is adjusted; then activation times are placed segment by
    /// segment until the schedule ends, each resolved condition taking the
    /// value of the current path. After that every resolution is flipped in
    /// turn, deepest first: a new current schedule is selected among the
    /// paths reachable under the flipped value and its chain is walked by a
    /// recursive call (each level decides one more condition, so the
    /// recursion is at most [`MAX_CONDITIONS`](cpg::MAX_CONDITIONS) deep).
    ///
    /// `flipped` is the condition a back-step entry flipped (`None` for the
    /// root chain, whose current schedule is its track's optimal schedule
    /// with no inherited locks). `rec` records every walked chain with its
    /// resolutions and repair counters, and replays the cached chain
    /// (`cached`) instead of walking it when it is still valid (see
    /// [`Rewalk`]). `decided` must be at the chain's entry state and is
    /// returned to it. The decided conditions live in that one [`Cube`], and
    /// lock sets and schedules come from the pools of `st`, so the walk is
    /// allocation-free after warm-up; its visit order, every placement
    /// decision and the produced [`MergeResult`] are identical to the
    /// clone-per-node recursion (kept as [`walk_cloning`](Self::walk_cloning)
    /// for the differential tests).
    // lint: hot-path (the one decision-tree walk)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn walk_chain(
        &self,
        rec: &mut Rewalk<'_>,
        st: &mut WalkState,
        table: &mut ScheduleTable,
        cached: Option<Box<SessionChain>>,
        flipped: Option<CondId>,
        track_idx: usize,
        decided: &mut Cube,
    ) -> Box<SessionChain> {
        let base = st.resolutions.len();
        let mut chain = match rec.replay(st, table, cached, track_idx, decided) {
            Ok(chain) => chain,
            Err(stale) => {
                let label = self.tracks.tracks()[track_idx].label();
                let mut fixed = st
                    .lock_pool
                    .pop()
                    .unwrap_or_else(|| LockSet::for_graph(self.cpg));
                // Mutation self-test hook: recycle the pooled set with its
                // stale contents, so locks of a previously walked chain leak
                // into this chain's placements. The cloning oracle allocates
                // a fresh set per back-step, so the differential suite must
                // flag the divergence (tests/adversarial_corpus.rs).
                #[cfg(any(test, feature = "test-util"))]
                if !sabotage::dirty_lock_reuse() {
                    fixed.clear();
                }
                #[cfg(not(any(test, feature = "test-util")))]
                fixed.clear();
                let mut schedule = st.schedule_pool.pop().unwrap_or_default();

                let mut view = rec.open(table);
                // The inherited locks and the adjustment read the table
                // through the chain's view, so a recorded chain's log covers
                // them and a replay revalidates them. The root chain inherits
                // no lock and so keeps the optimal schedule.
                if let Some(condition) = flipped {
                    self.locks_from_table_into(
                        &mut view, &mut fixed, track_idx, decided, condition,
                    );
                }
                self.adjust_into(st, &mut view, track_idx, &mut fixed, decided, &mut schedule);
                // Place segment by segment; at each resolution the condition
                // takes the value of the current path (no back-step). End of
                // schedule: every condition of this path has been decided
                // and all activation times are placed.
                while let Some((condition, resolved_at)) =
                    self.place_phase(st, &mut view, track_idx, &mut schedule, decided, &mut fixed)
                {
                    let value = label
                        .polarity_of(condition)
                        .expect("a condition resolved on a path appears in its label");
                    st.resolutions.push((condition, value, resolved_at));
                    decided.assign(condition, value);
                }
                let log = rec.finish(view);
                st.schedule_pool.push(schedule);
                st.lock_pool.push(fixed);
                // The chain's own placements are over (its children are
                // walked below), so the counters and the reschedule flag
                // since the last commit are exactly its own.
                let work = std::mem::take(&mut st.stats);
                let pure = !std::mem::take(&mut st.rescheduled);
                rec.commit(log, stale, track_idx, &st.resolutions[base..], work, pure)
            }
        };

        // Back-steps, deepest resolution first: the condition takes the
        // opposite value; a new current schedule is selected among the
        // reachable paths and its chain walked.
        for i in (base..st.resolutions.len()).rev() {
            let (condition, value, _) = st.resolutions[i];
            decided.assign(condition, !value);
            let cached = chain.children[i - base].take();
            match self.select_track(decided) {
                Some(back_idx) => {
                    let child =
                        self.walk_chain(rec, st, table, cached, Some(condition), back_idx, decided);
                    chain.children[i - base] = Some(child);
                }
                None => rec.drop_child(cached),
            }
            *decided = decided.without(condition);
        }
        st.resolutions.truncate(base);
        chain
    }

    /// The placement phase of one decision-tree node: fixes activation times
    /// of `schedule` in the table until the next undecided condition is
    /// resolved (or the schedule ends), re-adjusting the schedule in place
    /// when a conflict repair moves a process. Returns the next undecided
    /// condition resolution, if any.
    fn place_phase(
        &self,
        state: &mut WalkState,
        view: &mut RecordingView<'_>,
        track_idx: usize,
        schedule: &mut PathSchedule,
        decided: &Cube,
        fixed: &mut LockSet,
    ) -> Option<(CondId, Time)> {
        let mut spare = std::mem::take(&mut state.spare);
        let next = loop {
            // The scheduler caches the resolutions sorted by (time, cond),
            // so the first undecided one is the earliest.
            let next = schedule
                .resolutions()
                .iter()
                .copied()
                .find(|(c, _)| !decided.mentions(*c));
            let horizon = next.map(|(_, t)| t);

            let mut repaired = false;
            // Indexed scan: repairs replace `schedule` and restart the loop,
            // so no snapshot of the job list is needed.
            for i in 0..schedule.len() {
                let sj = schedule.jobs()[i];
                if let Some(h) = horizon {
                    if sj.start() >= h {
                        break;
                    }
                }
                if fixed.contains(sj.job()) {
                    continue;
                }
                if let Some(pid) = sj.job().as_process() {
                    if self.cpg.process(pid).kind().is_dummy() {
                        fixed.insert(sj.job(), sj.start());
                        continue;
                    }
                }
                match self.place(state, view, schedule, decided, sj) {
                    Placement::Kept(resource) => {
                        fixed.insert_pinned(sj.job(), sj.start(), resource);
                    }
                    Placement::Moved(new_time, resource) => {
                        fixed.insert_pinned(sj.job(), new_time, resource);
                        // The re-adjusted schedule lands in `spare`, which
                        // then swaps with the (dead) current schedule — the
                        // old buffer becomes the next repair's target.
                        self.adjust_into(state, view, track_idx, fixed, decided, &mut spare);
                        std::mem::swap(schedule, &mut spare);
                        repaired = true;
                        break;
                    }
                }
            }
            if !repaired {
                break next;
            }
        };
        state.spare = spare;
        next
    }

    /// [`walk_tree`](Self::walk_tree) by the clone-per-node oracle walk,
    /// through one throwaway recording view; returns the steps and counters
    /// the oracle recorded node by node.
    #[cfg(any(test, feature = "test-util"))]
    fn walk_cloning_tree(
        &self,
        state: &mut WalkState,
        table: &mut ScheduleTable,
    ) -> (Vec<MergeStep>, MergeStats) {
        let decided = Cube::top();
        let root = self
            .select_track(&decided)
            .expect("a valid graph has at least one alternative path");
        let mut view = RecordingView::new(table, cpg_table::RecordScratch::default());
        self.walk_cloning(
            state,
            &mut view,
            root,
            self.optimal[root].clone(),
            decided,
            LockSet::for_graph(self.cpg),
        );
        (std::mem::take(&mut state.steps), state.stats)
    }

    /// The original recursive clone-per-node decision-tree walk, kept as the
    /// reference oracle for the differential tests of the production walks:
    /// the decided conditions, the lock set and (on repairs and back-steps)
    /// the current schedule are cloned at every node instead of shared and
    /// pooled.
    #[cfg(any(test, feature = "test-util"))]
    fn walk_cloning(
        &self,
        state: &mut WalkState,
        view: &mut RecordingView<'_>,
        track_idx: usize,
        schedule: PathSchedule,
        decided: Cube,
        mut fixed: LockSet,
    ) {
        let mut schedule = schedule;
        let label = self.tracks.tracks()[track_idx].label();

        // Place activation times until the next undecided condition is
        // resolved (or the schedule ends). Conflict repairs re-adjust the
        // schedule, in which case the placement scan restarts.
        let next = loop {
            let next = schedule
                .resolutions()
                .iter()
                .copied()
                .find(|(c, _)| !decided.mentions(*c));
            let horizon = next.map(|(_, t)| t);

            let mut repaired = false;
            for i in 0..schedule.len() {
                let sj = schedule.jobs()[i];
                if let Some(h) = horizon {
                    if sj.start() >= h {
                        break;
                    }
                }
                if fixed.contains(sj.job()) {
                    continue;
                }
                if let Some(pid) = sj.job().as_process() {
                    if self.cpg.process(pid).kind().is_dummy() {
                        fixed.insert(sj.job(), sj.start());
                        continue;
                    }
                }
                match self.place(state, view, &schedule, &decided, sj) {
                    Placement::Kept(resource) => {
                        fixed.insert_pinned(sj.job(), sj.start(), resource);
                    }
                    Placement::Moved(new_time, resource) => {
                        fixed.insert_pinned(sj.job(), new_time, resource);
                        schedule = self.adjust(state, view, track_idx, &mut fixed, &decided);
                        repaired = true;
                        break;
                    }
                }
            }
            if !repaired {
                break next;
            }
        };

        // End of schedule: every condition of this path has been decided and
        // all activation times are placed.
        let Some((condition, resolved_at)) = next else {
            return;
        };

        let value = label
            .polarity_of(condition)
            .expect("a condition resolved on a path appears in its label");

        // Continue with the same schedule: the condition takes the value of
        // the current path (no back-step).
        state.stats.tree_nodes += 1;
        state.stats.max_walk_depth = state.stats.max_walk_depth.max(decided.len() + 1);
        state.steps.push(MergeStep {
            decided,
            condition,
            resolved_at,
            current_path: label,
            back_step: false,
        });
        let mut decided_fwd = decided;
        decided_fwd.assign(condition, value);
        self.walk_cloning(state, view, track_idx, schedule, decided_fwd, fixed.clone());

        // Back-step: the condition takes the opposite value; a new current
        // schedule is selected among the reachable paths and adjusted.
        let mut decided_back = decided;
        decided_back.assign(condition, !value);
        let Some(new_idx) = self.select_track(&decided_back) else {
            return;
        };
        let mut locks = LockSet::for_graph(self.cpg);
        self.locks_from_table_into(view, &mut locks, new_idx, &decided_back, condition);
        let adjusted = self.adjust(state, view, new_idx, &mut locks, &decided_back);
        state.stats.tree_nodes += 1;
        state.stats.max_walk_depth = state.stats.max_walk_depth.max(decided_back.len());
        state.stats.adjustments += 1;
        state.steps.push(MergeStep {
            decided,
            condition,
            resolved_at,
            current_path: self.tracks.tracks()[new_idx].label(),
            back_step: true,
        });
        self.walk_cloning(state, view, new_idx, adjusted, decided_back, locks);
    }

    /// Rule 3: activation times already fixed in columns that depend only on
    /// conditions decided at ancestor tree nodes are enforced on the newly
    /// selected schedule, pinned to the resource recorded when the time was
    /// tabled — a lock inherited from another path's adjusted schedule must
    /// occupy the bus that schedule used, not a track-local guess.
    ///
    /// `decided` is the assignment *including* the condition `resolved` that
    /// the back-step flipped; the ancestor conditions are exactly the decided
    /// ones other than `resolved`. The locks land in the caller-provided
    /// (pooled, cleared) set; every row probe resolves through the view's
    /// dense per-job index.
    fn locks_from_table_into(
        &self,
        view: &mut RecordingView<'_>,
        locks: &mut LockSet,
        track_idx: usize,
        decided: &Cube,
        resolved: CondId,
    ) {
        let track = &self.tracks.tracks()[track_idx];
        let resolved_bit = 1u64 << resolved.index();
        for job in self.track_jobs(track) {
            // An implied column is never excluded by the deciding cube, so
            // compatibility is a sound prefilter; implication plus "does not
            // mention `resolved`" is the ancestors-only check (implication
            // already confines the column to decided conditions). Highest
            // specificity wins and the lowest column key breaks ties — the
            // deterministic equivalent of a first-wins scan in serial entry
            // order.
            let mut best: Option<(usize, u32, Time, Option<PeId>)> = None;
            for (key, column, time, resource) in view.keyed_entries(job) {
                if column.compatible(decided)
                    && column.mention_mask() & resolved_bit == 0
                    && decided.implies(&column)
                {
                    let specificity = column.len();
                    if best.is_none_or(|(len, at, _, _)| {
                        specificity > len || (specificity == len && key < at)
                    }) {
                        best = Some((specificity, key, time, resource));
                    }
                }
            }
            if let Some((_, _, time, resource)) = best {
                locks.insert_pinned(job, time, resource);
            }
        }
    }

    /// The jobs that can appear on a track: its processes (except the
    /// dummies) and the broadcasts of the conditions it determines.
    fn track_jobs<'t>(&'t self, track: &'t Track) -> impl Iterator<Item = Job> + 't {
        track
            .processes()
            .iter()
            .filter(|&&p| !self.cpg.process(p).kind().is_dummy())
            .map(|&p| Job::Process(p))
            .chain(track.determined_conditions().map(Job::Broadcast))
    }

    /// Rules 2 and 4: place one activation time, repairing conflicts by the
    /// Theorem-2 loop when necessary.
    // lint: hot-path (one table placement per node visit)
    fn place(
        &self,
        state: &mut WalkState,
        view: &mut RecordingView<'_>,
        schedule: &PathSchedule,
        decided: &Cube,
        sj: ScheduledJob,
    ) -> Placement {
        let (job, start, pe) = (sj.job(), sj.start(), sj.pe());
        let column = self.column_for(schedule, decided, pe, start);
        let mut candidates = std::mem::take(&mut state.candidates_buf);
        candidates.clear();
        // One pass over the row collects the conflicting entries, the cell
        // already tabled at `start` in the exact column, and the resource to
        // adopt otherwise. Compatible cells at the same time must agree on
        // the recorded resource: an execution satisfying two compatible
        // columns dispatches the activation once, on one resource, so the
        // first recorded provenance wins over the track-local choice of
        // later schedules; the row is scanned in column-key order, so the
        // first one met has the lowest key.
        let mut exact: Option<Option<PeId>> = None;
        let mut adopted: Option<PeId> = None;
        for (key, existing, t, resource) in view.keyed_entries(job) {
            if !existing.compatible(&column) {
                continue;
            }
            if t != start {
                candidates.push((t, key, resource));
                continue;
            }
            if existing == column {
                exact = Some(resource);
            }
            adopted = adopted.or(resource);
        }

        if candidates.is_empty() {
            state.candidates_buf = candidates;
            let resource = match exact {
                Some(recorded) => recorded.or(pe),
                None => {
                    let resource = adopted.or(pe);
                    view.set_on(job, column, start, resource);
                    resource
                }
            };
            return Placement::Kept(resource);
        }

        // Theorem 2: one of the previously tabled activation times of this
        // process avoids every conflict. Moving to a tabled time also adopts
        // the resource recorded for it — that is where the job proved to fit.
        // Sorting by (time, key) before the per-time dedup keeps the
        // lowest-key provenance per candidate time, which is the entry the
        // old serial-order scan would have kept.
        candidates.sort_unstable_by_key(|&(t, key, _)| (t, key));
        candidates.dedup_by_key(|&mut (t, _, _)| t);
        for at in 0..candidates.len() {
            let (candidate, _, resource) = candidates[at];
            let moved_column = self.column_for(schedule, decided, pe, candidate);
            let still_conflicts = view
                .keyed_entries(job)
                .any(|(_, existing, t, _)| existing.compatible(&moved_column) && t != candidate);
            if !still_conflicts {
                if view.get(job, &moved_column) != Some(candidate) {
                    view.set_on(job, moved_column, candidate, resource);
                }
                state.stats.conflicts_repaired += 1;
                state.candidates_buf = candidates;
                return Placement::Moved(candidate, resource);
            }
        }
        state.candidates_buf = candidates;

        // Should not happen for well-formed inputs (Theorem 2); keep the
        // original time and record the requirement-2 violation.
        state.stats.unrepaired_conflicts += 1;
        view.set_on(job, column, start, pe);
        Placement::Kept(pe)
    }

    /// Rule 2: the column of an activation at time `t` on processing element
    /// `pe` is the conjunction of the condition values that are known on `pe`
    /// at `t` according to the current schedule, restricted to the conditions
    /// already decided along the current tree path.
    fn column_for(
        &self,
        schedule: &PathSchedule,
        decided: &Cube,
        pe: Option<PeId>,
        t: Time,
    ) -> Cube {
        schedule
            .known_conditions(pe, t)
            .restricted_to(decided.mention_mask())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cpg::examples;

    fn merge(system: &examples::ExampleSystem) -> MergeResult {
        generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        )
    }

    #[test]
    fn diamond_table_is_correct_and_tight() {
        let system = examples::diamond();
        let result = merge(&system);
        result
            .table()
            .verify(system.cpg(), result.tracks())
            .unwrap();
        assert_eq!(result.tracks().len(), 2);
        assert!(result.delta_max() >= result.delta_m());
        assert_eq!(result.stats().unrepaired_conflicts, 0);
        // The longest path keeps exactly its optimal delay (the guarantee of
        // the merging strategy).
        let longest = result
            .path_schedules()
            .iter()
            .map(PathSchedule::delay)
            .max()
            .unwrap();
        assert_eq!(result.delta_m(), longest);
        let worst_track = result
            .tracks()
            .iter()
            .map(|t| result.table().track_delay(system.cpg(), &t.label()))
            .max()
            .unwrap();
        assert_eq!(worst_track, result.delta_max());
    }

    #[test]
    fn sensor_actuator_table_is_correct() {
        let system = examples::sensor_actuator();
        let result = merge(&system);
        result
            .table()
            .verify(system.cpg(), result.tracks())
            .unwrap();
        assert_eq!(result.tracks().len(), 3);
        assert_eq!(result.stats().unrepaired_conflicts, 0);
        assert!(result.delta_max() >= result.delta_m());
    }

    #[test]
    fn fig1_reproduces_the_papers_headline_behaviour() {
        let system = examples::fig1();
        let result = merge(&system);
        result
            .table()
            .verify(system.cpg(), result.tracks())
            .unwrap();
        assert_eq!(result.tracks().len(), 6);
        assert_eq!(result.stats().unrepaired_conflicts, 0);
        // For the Fig. 1 example the paper obtains delta_max = delta_M = 39:
        // the table's worst case equals the longest individual path. The
        // reconstruction should also achieve (near-)zero overhead.
        assert!(result.delta_max() >= result.delta_m());
        assert!(
            result.overhead_percent() <= 10.0,
            "overhead {:.2}% unexpectedly large",
            result.overhead_percent()
        );
        // Unconditionally activated processes sit in the `true` column.
        let p1 = system.cpg().process_by_name("P1").unwrap();
        assert!(result
            .table()
            .entries(Job::Process(p1))
            .any(|(col, _)| col.is_top()));
    }

    #[test]
    fn fig1_publishes_the_compacted_walk_table() {
        let system = examples::fig1();
        let (cpg, arch) = (system.cpg(), system.arch());
        let config = MergeConfig::new(system.broadcast_time());
        let walked = generate_walk_table(cpg, arch, &config);
        let published = merge(&system);
        let counts = |result: &MergeResult| {
            let table = result.table();
            (table.num_entries(), table.num_columns())
        };
        assert_eq!(counts(&walked), (71, 11));
        assert_eq!(counts(&published), (55, 14));
        let mut compacted = walked.table().clone();
        compacted.compact(cpg);
        assert_eq!(&compacted, published.table());
        // The verdict is the walk table's: everything but the table agrees.
        assert_eq!(walked.delta_max(), published.delta_max());
        assert_eq!(walked.stats(), published.stats());
        assert_eq!(walked.steps(), published.steps());
        // P16 (guard D) ran at 30 in the four columns of D; one entry in D
        // now does the same.
        let p16 = Job::Process(cpg.process_by_name("P16").unwrap());
        let d = Cube::from(system.condition("D").unwrap().is_true());
        let row: Vec<(Cube, Time)> = published.table().entries(p16).collect();
        assert_eq!(row, [(d, Time::new(30))]);
    }

    #[test]
    fn fig1_longest_path_keeps_its_optimal_delay() {
        let system = examples::fig1();
        let result = merge(&system);
        // The strategy guarantees the longest path executes in exactly
        // delta_M time.
        let (longest_label, longest_delay) = result
            .path_schedules()
            .iter()
            .map(|s| (s.label(), s.delay()))
            .max_by_key(|&(_, d)| d)
            .unwrap();
        assert_eq!(longest_delay, result.delta_m());
        assert_eq!(
            result.table().track_delay(system.cpg(), &longest_label),
            result.delta_m()
        );
    }

    #[test]
    fn decision_tree_has_one_forward_and_one_back_step_per_node() {
        let system = examples::fig1();
        let result = merge(&system);
        let forward = result.steps().iter().filter(|s| !s.back_step).count();
        let back = result.steps().iter().filter(|s| s.back_step).count();
        assert_eq!(forward, back);
        // A binary tree with N_alt = 6 leaves has 5 internal nodes, each
        // visited once in each direction.
        assert_eq!(forward, result.tracks().len() - 1);
        assert_eq!(result.stats().tree_nodes, forward + back);
        assert_eq!(result.stats().adjustments, back);
    }

    #[test]
    fn every_track_has_an_activation_for_each_of_its_processes() {
        let system = examples::fig1();
        let result = merge(&system);
        let table = result.table();
        for track in result.tracks().iter() {
            for &pid in track.processes() {
                if system.cpg().process(pid).kind().is_dummy() {
                    continue;
                }
                assert!(
                    table
                        .activation(Job::Process(pid), &track.label())
                        .is_some(),
                    "{} missing on {}",
                    system.cpg().process(pid).name(),
                    track.label()
                );
            }
        }
    }

    #[test]
    fn broadcast_rows_exist_for_every_condition() {
        let system = examples::fig1();
        let result = merge(&system);
        for cond in system.cpg().conditions() {
            assert!(
                result.table().contains_job(Job::Broadcast(cond)),
                "broadcast row for {} missing",
                system.cpg().condition_name(cond)
            );
        }
    }

    #[test]
    fn selection_policies_affect_quality_but_not_correctness() {
        let system = examples::fig1();
        let base = MergeConfig::new(system.broadcast_time());
        let policies = [
            SelectionPolicy::LongestDelayFirst,
            SelectionPolicy::ShortestDelayFirst,
            SelectionPolicy::EnumerationOrder,
        ];
        for policy in policies {
            let result =
                generate_schedule_table(system.cpg(), system.arch(), &base.with_selection(policy));
            // Every policy produces a correct table; only the delay differs.
            result
                .table()
                .verify(system.cpg(), result.tracks())
                .unwrap();
            assert_eq!(result.stats().unrepaired_conflicts, 0);
        }
        // The paper's policy guarantees the longest path keeps its optimal
        // delay, i.e. zero overhead for the Fig. 1 example (the paper reports
        // delta_max = delta_M = 39 for its exact graph).
        let paper_policy = generate_schedule_table(system.cpg(), system.arch(), &base);
        assert!(paper_policy.is_zero_overhead());
    }

    /// Crafted system where an inherited lock *must* slip: `victim` runs
    /// early on the longest path (tabled in the `true` column before the
    /// condition resolves), but on the opposite branch it additionally
    /// consumes the output of `slow`, which can only start after `!C` is
    /// known — long after the tabled time. The merge has to feed the slipped
    /// entry back through the repair loop: the final table may not keep the
    /// stale early time. Merge it with `τ0 = 2`.
    pub(crate) fn slipping_system() -> (Architecture, Cpg) {
        use cpg::CpgBuilder;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus")
            .build()
            .unwrap();
        let cpu0 = arch.pe_by_name("cpu0").unwrap();
        let cpu1 = arch.pe_by_name("cpu1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let root = b.process("root", Time::new(10), cpu0);
        let quick = b.process("quick", Time::new(1), cpu1);
        let victim = b.process("victim", Time::new(2), cpu1);
        let slow = b.process("slow", Time::new(3), cpu1);
        let tail = b.process("tail", Time::new(20), cpu0);
        b.simple_edge(quick, victim, Time::ZERO);
        b.conditional_edge(root, slow, c.is_false(), Time::ZERO);
        b.conditional_edge(root, tail, c.is_true(), Time::ZERO);
        b.simple_edge(slow, victim, Time::ZERO);
        // `victim` joins the two alternatives: it executes on every path and
        // waits for `slow` only where `slow` runs.
        b.mark_conjunction(victim);
        let cpg = b.build(&arch).unwrap();
        (arch, cpg)
    }

    #[test]
    fn inherited_lock_that_must_slip_is_repaired_in_the_table() {
        use cpg_path_sched::LockSet;
        let (arch, cpg) = slipping_system();
        let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(Time::new(2)));
        let stats = result.stats();
        assert!(
            stats.slip_repairs > 0,
            "the crafted lock never slipped: {stats:?}"
        );
        assert_eq!(
            stats.lock_slips,
            0,
            "a slip survived repair: {stats:?}\n{}",
            result.table().render(&cpg)
        );

        // The stale early activation is gone: on every path the tabled time
        // of `victim` is at or after the moment its inputs can arrive on the
        // slow branch.
        let victim = Job::Process(cpg.process_by_name("victim").unwrap());
        let slow = Job::Process(cpg.process_by_name("slow").unwrap());
        let table = result.table();
        table.verify(&cpg, result.tracks()).unwrap();
        let not_c = result
            .tracks()
            .iter()
            .find(|t| t.processes().contains(&slow.as_process().unwrap()))
            .unwrap()
            .label();
        let victim_at = table.activation(victim, &not_c).unwrap().time;
        let slow_at = table.activation(slow, &not_c).unwrap().time;
        assert!(
            victim_at >= slow_at + cpg.exec_time(slow.as_process().unwrap()),
            "victim tabled at {victim_at} before slow completes"
        );

        // Replaying the final table through the per-track scheduler honours
        // every activation time: the table is realizable end to end.
        let scheduler = ListScheduler::new(&cpg, &arch, Time::new(2));
        for track in result.tracks().iter() {
            let label = track.label();
            let mut locks = LockSet::for_graph(&cpg);
            for job in table.jobs() {
                if let Some(activation) = table.activation(job, &label) {
                    locks.insert_pinned(job, activation.time, activation.resource);
                }
            }
            let ctx = scheduler.context(track);
            let replay = ctx.reschedule(&ctx.schedule(), &locks);
            assert!(
                replay.slipped_locks().is_empty(),
                "table not realizable on {}: {:?}",
                track.label(),
                replay.slipped_locks()
            );
        }
    }

    /// Field-wise comparison of the chain walk against the clone-per-node
    /// oracle (the broad random coverage lives in the workspace-level
    /// differential proptest; this pins the crafted examples), the
    /// step-by-step visit order included.
    fn assert_walks_identical(cpg: &Cpg, arch: &Architecture, config: &MergeConfig) {
        let undo = generate_schedule_table(cpg, arch, config);
        let oracle = generate_schedule_table_cloning(cpg, arch, config);
        assert_eq!(undo.table(), oracle.table());
        assert_eq!(undo.tracks(), oracle.tracks());
        assert_eq!(undo.path_schedules(), oracle.path_schedules());
        assert_eq!(undo.delta_m(), oracle.delta_m());
        assert_eq!(undo.delta_max(), oracle.delta_max());
        assert_eq!(undo.steps(), oracle.steps());
        assert_eq!(undo.stats(), oracle.stats());
    }

    #[test]
    fn undo_log_walk_matches_the_cloning_oracle_on_the_examples() {
        for system in [
            examples::diamond(),
            examples::sensor_actuator(),
            examples::fig1(),
        ] {
            let config = MergeConfig::new(system.broadcast_time());
            assert_walks_identical(system.cpg(), system.arch(), &config);
        }
    }

    #[test]
    fn undo_log_walk_matches_the_cloning_oracle_when_locks_slip() {
        let (arch, cpg) = slipping_system();
        let config = MergeConfig::new(Time::new(2));
        // Sanity: this system forces the repair loop.
        let result = generate_schedule_table(&cpg, &arch, &config);
        assert!(result.stats().slip_repairs > 0);
        assert_walks_identical(&cpg, &arch, &config);
    }

    #[test]
    fn undo_log_walk_matches_the_cloning_oracle_under_every_policy() {
        // LongestDelayFirst (the default) is covered by `when_locks_slip`.
        let (arch, cpg) = slipping_system();
        for policy in [
            SelectionPolicy::ShortestDelayFirst,
            SelectionPolicy::EnumerationOrder,
        ] {
            assert_walks_identical(
                &cpg,
                &arch,
                &MergeConfig::new(Time::new(2)).with_selection(policy),
            );
        }
        let system = examples::fig1();
        for policy in [
            SelectionPolicy::ShortestDelayFirst,
            SelectionPolicy::EnumerationOrder,
        ] {
            assert_walks_identical(
                system.cpg(),
                system.arch(),
                &MergeConfig::new(system.broadcast_time()).with_selection(policy),
            );
        }
    }

    /// Adjusts track `track` of `cpg` through `adjust_into`, against an empty
    /// table and with no condition decided, under the locks `lock` derives
    /// from the track's optimal schedule. Returns the optimal schedule, the
    /// adjustment, and what a plain reschedule makes of the same locks.
    fn adjust_track(
        cpg: &Cpg,
        arch: &Architecture,
        track: usize,
        lock: impl FnOnce(&PathSchedule, &mut LockSet),
    ) -> (PathSchedule, PathSchedule, PathSchedule) {
        let config = MergeConfig::new(Time::new(1));
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, arch, config.broadcast_time());
        let contexts: Vec<TrackContext> = tracks.iter().map(|t| scheduler.context(t)).collect();
        let optimal: Vec<PathSchedule> = contexts.iter().map(TrackContext::schedule).collect();
        let shared = MergeShared {
            cpg,
            config: &config,
            contexts: &contexts,
            tracks: &tracks,
            optimal: &optimal,
        };
        let mut locks = LockSet::for_graph(cpg);
        lock(&optimal[track], &mut locks);
        let rescheduled = contexts[track].reschedule(&optimal[track], &locks);
        let mut table = ScheduleTable::new();
        let mut state = WalkState::new();
        let mut view = RecordingView::new(&mut table, cpg_table::RecordScratch::default());
        let mut adjusted = PathSchedule::default();
        shared.adjust_into(
            &mut state,
            &mut view,
            track,
            &mut locks,
            &Cube::top(),
            &mut adjusted,
        );
        (optimal[track].clone(), adjusted, rescheduled)
    }

    #[test]
    fn an_adjustment_keeps_the_optimal_schedule_when_it_honours_every_lock() {
        let system = examples::diamond();
        let cpg = system.cpg();
        for track in 0..enumerate_tracks(cpg).len() {
            let (optimal, adjusted, _) =
                adjust_track(cpg, system.arch(), track, |optimal, locks| {
                    for sj in optimal.jobs() {
                        locks.insert_pinned(sj.job(), sj.start(), sj.pe());
                    }
                    // A lock on a job of the other path is ignored.
                    let absent = cpg
                        .schedulable_processes()
                        .map(Job::Process)
                        .find(|&job| !optimal.contains(job))
                        .expect("the other branch is not on this path");
                    locks.insert(absent, optimal.delay() + Time::new(3));
                });
            assert_eq!(adjusted, optimal);
        }
    }

    #[test]
    fn a_broadcast_pinned_to_another_bus_forces_a_reschedule() {
        use cpg::CpgBuilder;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus0")
            .bus("bus1")
            .build()
            .unwrap();
        let cpu0 = arch.pe_by_name("cpu0").unwrap();
        let cpu1 = arch.pe_by_name("cpu1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let root = b.process("decide", Time::new(2), cpu0);
        let hot = b.process("hot", Time::new(4), cpu1);
        let cold = b.process("cold", Time::new(3), cpu0);
        let join = b.process("join", Time::new(1), cpu0);
        b.conditional_edge(root, hot, c.is_true(), Time::ZERO);
        b.conditional_edge(root, cold, c.is_false(), Time::ZERO);
        b.simple_edge(hot, join, Time::ZERO);
        b.simple_edge(cold, join, Time::ZERO);
        b.mark_conjunction(join);
        let cpg = b.build(&arch).unwrap();

        let broadcast = Job::Broadcast(c);
        let mut pinned = None;
        let (optimal, adjusted, rescheduled) = adjust_track(&cpg, &arch, 0, |optimal, locks| {
            let entry = optimal.entry(broadcast).expect("the path broadcasts C");
            // Same start, the other bus.
            let other = arch
                .broadcast_buses()
                .find(|&bus| Some(bus) != entry.pe())
                .unwrap();
            pinned = Some(other);
            locks.insert_pinned(broadcast, entry.start(), Some(other));
        });
        assert_ne!(adjusted, optimal);
        assert_eq!(adjusted, rescheduled);
        assert_eq!(adjusted.entry(broadcast).unwrap().pe(), pinned);
    }

    /// Places the first mapped process of the diamond's first optimal
    /// schedule into `table` with no condition decided (so its column is
    /// `true`, compatible with every entry), through a fresh recording view.
    /// Returns the job's scheduled entry, the placement, the chain's write
    /// count and the walk statistics.
    fn place_into(
        table: &mut ScheduleTable,
        tabled: impl FnOnce(&mut ScheduleTable, ScheduledJob),
    ) -> (ScheduledJob, Placement, usize, MergeStats) {
        let system = examples::diamond();
        let (cpg, arch) = (system.cpg(), system.arch());
        let config = MergeConfig::new(system.broadcast_time());
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, arch, config.broadcast_time());
        let contexts: Vec<TrackContext> = tracks.iter().map(|t| scheduler.context(t)).collect();
        let optimal: Vec<PathSchedule> = contexts.iter().map(TrackContext::schedule).collect();
        let shared = MergeShared {
            cpg,
            config: &config,
            contexts: &contexts,
            tracks: &tracks,
            optimal: &optimal,
        };
        let schedule = &optimal[0];
        let sj = *schedule
            .jobs()
            .iter()
            .find(|sj| sj.job().as_process().is_some() && sj.pe().is_some())
            .expect("the diamond schedules a mapped process");
        tabled(table, sj);
        let mut state = WalkState::new();
        let mut view = RecordingView::new(table, cpg_table::RecordScratch::default());
        let placement = shared.place(&mut state, &mut view, schedule, &Cube::top(), sj);
        let (log, _) = view.finish();
        (sj, placement, log.written_columns().count(), state.stats)
    }

    #[test]
    fn the_fused_placement_scan_covers_every_outcome() {
        let (c0, c1) = (CondId::new(0), CondId::new(1));
        let bus = |i| Some(PeId::from_index(i));

        // A fresh cell adopts the resource of the lowest-key same-time entry
        // that records one.
        let mut table = ScheduleTable::new();
        let (sj, placement, writes, _) = place_into(&mut table, |table, sj| {
            table.set_on(sj.job(), Cube::from(c0.is_true()), sj.start(), None);
            table.set_on(sj.job(), Cube::from(c0.is_false()), sj.start(), bus(7));
            table.set_on(sj.job(), Cube::from(c1.is_true()), sj.start(), bus(8));
        });
        assert!(matches!(placement, Placement::Kept(pe) if pe == bus(7)));
        assert_eq!(writes, 1);
        assert_eq!(table.get(sj.job(), &Cube::top()), Some(sj.start()));
        assert_eq!(table.resource(sj.job(), &Cube::top()), bus(7));

        // An existing exact same-time cell is kept as it is: its own
        // resource, not the lower-key one, and no write.
        let mut table = ScheduleTable::new();
        let (sj, placement, writes, _) = place_into(&mut table, |table, sj| {
            table.set_on(sj.job(), Cube::from(c0.is_true()), sj.start(), bus(7));
            table.set_on(sj.job(), Cube::top(), sj.start(), bus(8));
        });
        assert!(matches!(placement, Placement::Kept(pe) if pe == bus(8)));
        assert_eq!(writes, 0);
        assert_eq!(table.num_entries(), 2);
        assert_eq!(table.resource(sj.job(), &Cube::top()), bus(8));

        // With no resource on the exact cell, the schedule's own wins.
        let mut table = ScheduleTable::new();
        let (sj, placement, writes, _) = place_into(&mut table, |table, sj| {
            table.set_on(sj.job(), Cube::from(c0.is_true()), sj.start(), bus(7));
            table.set_on(sj.job(), Cube::top(), sj.start(), None);
        });
        assert!(matches!(placement, Placement::Kept(pe) if pe == sj.pe()));
        assert_eq!(writes, 0);

        // A conflicting entry moves the job to the tabled time (Theorem 2),
        // adopting the resource recorded with it.
        let mut table = ScheduleTable::new();
        let (sj, placement, writes, stats) = place_into(&mut table, |table, sj| {
            table.set_on(
                sj.job(),
                Cube::from(c0.is_true()),
                sj.start() + Time::new(7),
                bus(9),
            );
        });
        let moved = sj.start() + Time::new(7);
        assert!(matches!(placement, Placement::Moved(t, pe) if t == moved && pe == bus(9)));
        assert_eq!(writes, 1);
        assert_eq!(stats.conflicts_repaired, 1);
        assert_eq!(table.get(sj.job(), &Cube::top()), Some(moved));
    }

    #[test]
    fn unconditional_graph_produces_a_single_column_table() {
        use cpg::CpgBuilder;
        use cpg_arch::Architecture;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus")
            .build()
            .unwrap();
        let cpu0 = arch.pe_by_name("cpu0").unwrap();
        let cpu1 = arch.pe_by_name("cpu1").unwrap();
        let mut b = CpgBuilder::new();
        let a = b.process("a", Time::new(2), cpu0);
        let c = b.process("c", Time::new(3), cpu1);
        b.simple_edge(a, c, Time::new(1));
        let cpg = b.build(&arch).unwrap();
        let cpg = cpg::expand_communications(&cpg, &arch, cpg::BusPolicy::FirstBus).unwrap();
        let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(Time::new(1)));
        assert_eq!(result.tracks().len(), 1);
        assert_eq!(result.table().num_columns(), 1);
        assert!(result.table().columns()[0].is_top());
        assert!(result.is_zero_overhead());
        assert_eq!(result.delta_m(), Time::new(6));
    }
}
