//! Incremental re-merge sessions: edit-scoped subtree invalidation and
//! cached-log replay over the merge stack.
//!
//! A [`MergeSession`] owns a system (graph + architecture + configuration)
//! and keeps the explored decision tree of its last merge as a cache. The
//! cache unit is the **forward chain**: the maximal run of decision-tree
//! nodes that keeps the same current schedule (a back-step selects a new
//! track and therefore starts a new chain). Per chain the session retains
//!
//! * the committed [`TxnLog`] of every placement segment (the writes between
//!   two condition resolutions, plus the content-based read set the segment
//!   observed while producing them),
//! * the per-segment work counters and traced steps, and
//! * a [`FrontierHasher`] fingerprint of the chain's track frontier (label,
//!   delay and every scheduled job of the individual optimal schedule).
//!
//! After a [`SystemEdit`] the session re-merges *incrementally*
//! ([`MergeSession::merge`]): the table is rebuilt from scratch, but a chain
//! whose track is outside the edit scope ([`SystemEdit::scope`]), whose
//! frontier hash is unchanged and whose cached logs still validate against
//! the partially rebuilt table is **replayed** — its writes are spliced into
//! the table column-wise ([`ScheduleTable::splice_log`]) without running
//! the scheduler at all. Only the invalidated region of the tree is
//! re-walked, by the cold merge's own walk
//! ([`MergeShared::walk_chain`](crate::merge::MergeShared::walk_chain)) with
//! the session's recording [`ChainRecorder`].
//! Every validation failure degrades to a re-walk, never to a wrong table:
//! the result is bit-identical to a cold
//! [`generate_schedule_table`](crate::generate_schedule_table) of the edited
//! system.
//!
//! Why replay is sound: a cached segment log replays the exact writes the
//! recording merge committed at that point of the serial order. Its read set
//! is validated content-wise against the table rebuilt so far, so if every
//! ancestor segment replayed or re-recorded to identical content (induction
//! over the serial order, base case: the empty table), the recorded decisions
//! are the decisions a cold walk would take and the spliced writes land
//! byte-identically — including the column creation order, which
//! [`TxnLog`] captures as write order.

use std::hash::{Hash, Hasher};

use cpg::{
    enumerate_tracks, Assignment, Cpg, Cube, EditError, EditScope, FrontierHasher, SystemEdit,
    Track, TrackSet,
};
use cpg_arch::{Architecture, Time};
use cpg_path_sched::{ListScheduler, LockSet, PathSchedule};
use cpg_table::{ScheduleTable, TableTxn, TxnLog};

use crate::config::MergeConfig;
use crate::merge::{ChainEntry, ChainRecorder, ContextCache, MergeShared, Resolution, WalkState};
use crate::result::{MergeResult, MergeStats, MergeStep};

/// Counters describing how much of the cached decision tree the last
/// [`MergeSession::merge`] reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ReuseStats {
    /// Forward chains replayed from their cached logs (no scheduler runs).
    pub chains_replayed: usize,
    /// Forward chains recorded by walking the decision tree.
    pub chains_recorded: usize,
    /// Placement segments spliced from cached logs.
    pub segments_replayed: usize,
    /// Placement segments recorded by running the placement phase.
    pub segments_recorded: usize,
}

/// One placement segment of a forward chain: the walk outputs produced
/// between two condition resolutions. The table effects of all segments live
/// in the chain-level [`SessionChain::log`] — replay is all-or-nothing per
/// chain, so per-segment write logs would only multiply the row bookkeeping.
struct ChainSeg {
    /// Work-counter delta of the segment.
    stats: MergeStats,
    /// Traced steps of the segment (empty unless tracing is on).
    steps: Vec<MergeStep>,
    /// Whether an adjustment inside the segment reported a slipped lock.
    saw_slip: bool,
    /// The condition resolution that ended the segment; `None` for the last
    /// segment of the chain (the schedule ran out).
    resolution: Option<Resolution>,
}

/// A cached forward chain of the decision tree: the maximal run of nodes
/// sharing one current schedule, plus the back-step children hanging off its
/// resolutions (deepest first in walk order).
struct SessionChain {
    /// The track whose schedule is current along this chain.
    track_idx: usize,
    /// Frontier fingerprint of the track at record time (label, delay and
    /// scheduled jobs of the individual optimal schedule).
    track_hash: u64,
    /// The chain's writes and content-based reads, recorded in one
    /// transaction spanning every segment: reads are base observations at
    /// first touch (a later segment reading what an earlier one wrote hits
    /// the overlay and records nothing), so the log validates directly
    /// against the table state at the chain's serial entry point.
    log: TxnLog,
    /// The placement segments, in serial order. The last has no resolution.
    segs: Vec<ChainSeg>,
    /// Back-step subtree per resolution (`children[i]` flips the `i`-th
    /// resolution); `None` when no reachable path takes the flipped value.
    children: Vec<Option<Box<SessionChain>>>,
}

/// The session's [`ChainRecorder`]: records every walked chain through a
/// [`TableTxn`] and replays cached chains that are still valid, carrying the
/// invalidation state of one merge.
struct Rewalk<'a> {
    /// Frontier hash per track, recomputed from this merge's optimal
    /// schedules.
    track_hashes: &'a [u64],
    /// Tracks inside the scope of an edit applied since the last merge.
    dirty: &'a [bool],
    /// `false` while every chain visited so far (in serial order) replayed
    /// its cached log; flips to `true` at the first re-record. While clear,
    /// the rebuilt table is byte-identical to the recording merge's table at
    /// the current serial point (induction over the deterministic splice), so
    /// replays skip content validation entirely.
    diverged: bool,
    /// Whether to accumulate `changed`: off when no per-track delay cache
    /// exists to invalidate (the first merge and after structural edits).
    note_changes: bool,
    /// Column cubes of every table cell that may differ from the previous
    /// merge's table: the writes of re-recorded chains (old and new) and of
    /// dropped subtrees. Replayed chains splice byte-identical content and
    /// note nothing. The per-track delay cache invalidates exactly the
    /// tracks whose label is compatible with a noted column.
    changed: Vec<Cube>,
    reuse: ReuseStats,
    /// The segments recorded so far of the chain being walked.
    segs: Vec<ChainSeg>,
    /// Counters, step count and slip flag of the walk when the open segment
    /// started; the flag is cleared for the segment and restored after it.
    seg_start: (MergeStats, usize, bool),
}

impl Rewalk<'_> {
    /// Notes the columns a write log touches (cells added, replaced or
    /// dropped versus the previous merge's table). Over-approximation is
    /// sound.
    fn note_changed_log(&mut self, log: &TxnLog) {
        if self.note_changes {
            self.changed.extend(log.written_columns());
        }
    }

    /// Notes every column a dropped subtree wrote: its cells were in the
    /// previous merge's table and are absent from the rebuilt one (until a
    /// re-record happens to restore them — which notes its own columns).
    fn note_changed_chain(&mut self, chain: &SessionChain) {
        if !self.note_changes {
            return;
        }
        self.note_changed_log(&chain.log);
        for child in chain.children.iter().flatten() {
            self.note_changed_chain(child);
        }
    }

    /// Whether a cached chain for `track_idx` still holds at this serial
    /// point: its track is clean, its frontier hash unchanged and (once an
    /// earlier chain re-recorded) its cached reads still match `table`.
    fn still_valid(&self, table: &ScheduleTable, chain: &SessionChain, track_idx: usize) -> bool {
        if chain.track_idx != track_idx
            || self.dirty[track_idx]
            || self.track_hashes[track_idx] != chain.track_hash
        {
            return false;
        }
        // Serial-order fast path: no chain before this one (in serial order)
        // re-recorded, so the rebuilt table is byte-identical to the
        // recording merge's table at this point and every cached read would
        // validate by construction.
        if !self.diverged {
            return true;
        }
        // The chain log's reads are base observations at the chain's serial
        // entry point, so it validates directly against the rebuilt table.
        let valid = chain.log.validate(table);
        // Mutation self-test hook: splice the stale cached chain anyway. The
        // warm-vs-cold oracle must flag the diverging re-merge
        // (tests/adversarial_corpus.rs).
        #[cfg(any(test, feature = "test-util"))]
        let valid = valid || crate::merge::sabotage::skip_splice_validation();
        valid
    }
}

impl ChainRecorder for Rewalk<'_> {
    /// One transaction spans the whole chain: later segments read earlier
    /// segments' writes through the overlay (recording no base dependency on
    /// them), so the detached log validates — and splices — against the
    /// table exactly as per-segment commits would, while the row bookkeeping
    /// is paid once per chain instead of once per segment.
    type View<'t> = TableTxn<'t>;
    type Log = TxnLog;
    type Chain = Box<SessionChain>;

    fn replay(
        &mut self,
        st: &mut WalkState,
        table: &mut ScheduleTable,
        cached: Option<Box<SessionChain>>,
        track_idx: usize,
        decided: &mut Assignment,
    ) -> Result<Box<SessionChain>, Option<Box<SessionChain>>> {
        let Some(chain) = cached else {
            return Err(None);
        };
        if !self.still_valid(table, &chain, track_idx) {
            return Err(Some(chain));
        }
        table.splice_log(&chain.log);
        for seg in &chain.segs {
            st.stats.absorb(seg.stats);
            st.saw_slip |= seg.saw_slip;
            st.steps.extend(seg.steps.iter().cloned());
            if let Some(resolution) = seg.resolution {
                st.resolutions.push(resolution);
                decided.assign(resolution.0, resolution.1);
            }
        }
        self.reuse.chains_replayed += 1;
        self.reuse.segments_replayed += chain.segs.len();
        Ok(chain)
    }

    fn open(table: &mut ScheduleTable) -> TableTxn<'_> {
        TableTxn::new(table)
    }

    fn begin_segment(&mut self, st: &mut WalkState) {
        self.seg_start = (st.stats, st.steps.len(), st.saw_slip);
        st.saw_slip = false;
    }

    fn end_segment(&mut self, st: &mut WalkState, depth: usize, resolution: Option<Resolution>) {
        let (stats_before, steps_before, slip_outer) = self.seg_start;
        let mut stats = stats_delta(stats_before, st.stats);
        // Depths are absolute (decided conditions at the node), so caching
        // the segment's own maximum — instead of the meaningless delta of a
        // running maximum — lets a replay absorb it by `max` in any order
        // and still reconstruct the cold walk's value exactly.
        stats.max_walk_depth = depth;
        self.segs.push(ChainSeg {
            stats,
            steps: st.steps[steps_before..].to_vec(),
            saw_slip: st.saw_slip,
            resolution,
        });
        st.saw_slip |= slip_outer;
    }

    fn finish(view: TableTxn<'_>) -> TxnLog {
        view.into_log()
    }

    fn commit(
        &mut self,
        table: &mut ScheduleTable,
        log: TxnLog,
        stale: Option<Box<SessionChain>>,
        track_idx: usize,
        resolutions: &[Resolution],
    ) -> Box<SessionChain> {
        table.splice_log(&log);
        // From this serial point on, the rebuilt table may differ from the
        // recording merge's: every later replay must validate its reads.
        self.diverged = true;
        self.note_changed_log(&log);
        let segs = std::mem::take(&mut self.segs);
        self.reuse.chains_recorded += 1;
        self.reuse.segments_recorded += segs.len();

        let mut children: Vec<Option<Box<SessionChain>>> = Vec::new();
        children.resize_with(resolutions.len(), || None);
        // A re-recorded chain does not orphan its cached subtrees: wherever
        // the fresh chain resolves the same condition to the same value at
        // the same position, the stale chain's child sits at the same
        // decision node and stays a replay candidate (it re-validates on its
        // own when visited).
        if let Some(stale) = stale {
            // The stale chain's own cells are replaced.
            self.note_changed_log(&stale.log);
            let stale_resolutions = stale.segs.iter().filter_map(|seg| seg.resolution);
            for (i, (child, old)) in stale
                .children
                .into_iter()
                .zip(stale_resolutions)
                .enumerate()
            {
                let matched = resolutions
                    .get(i)
                    .is_some_and(|new| (new.0, new.1) == (old.0, old.1));
                match child {
                    Some(child) if matched => children[i] = Some(child),
                    // The subtree hangs off a resolution the fresh chain no
                    // longer makes: its cells are gone from the table.
                    Some(child) => self.note_changed_chain(&child),
                    None => {}
                }
            }
        }
        Box::new(SessionChain {
            track_idx,
            track_hash: self.track_hashes[track_idx],
            log,
            segs,
            children,
        })
    }

    fn take_child(chain: &mut Box<SessionChain>, i: usize) -> Option<Box<SessionChain>> {
        chain.children[i].take()
    }

    fn set_child(chain: &mut Box<SessionChain>, i: usize, child: Box<SessionChain>) {
        chain.children[i] = Some(child);
    }

    fn drop_child(&mut self, child: Option<Box<SessionChain>>) {
        // A cached subtree here is dead and its cells leave the table.
        if let Some(old) = child {
            self.note_changed_chain(&old);
        }
    }
}

/// Field-wise difference of two counter snapshots (`after - before`).
///
/// Meaningful for the summable counters only: `max_walk_depth` is a running
/// maximum, so [`end_segment`](ChainRecorder::end_segment) overwrites it with
/// the segment's absolute maximum after taking the delta.
fn stats_delta(before: MergeStats, after: MergeStats) -> MergeStats {
    MergeStats {
        tree_nodes: after.tree_nodes - before.tree_nodes,
        adjustments: after.adjustments - before.adjustments,
        conflicts_repaired: after.conflicts_repaired - before.conflicts_repaired,
        unrepaired_conflicts: after.unrepaired_conflicts - before.unrepaired_conflicts,
        slip_repairs: after.slip_repairs - before.slip_repairs,
        lock_slips: after.lock_slips - before.lock_slips,
        max_walk_depth: after.max_walk_depth - before.max_walk_depth,
        repair_rounds: after.repair_rounds - before.repair_rounds,
    }
}

/// Frontier fingerprint of a track: its label plus the complete individual
/// optimal schedule (job, start, end and resource of every scheduled job,
/// and the condition resolutions). Start/end pairs pin the execution times
/// of every process on the track and the resources pin the mapping, so an
/// unchanged hash means the chain's own scheduling inputs are unchanged.
fn track_hash(track: &Track, optimal: &PathSchedule) -> u64 {
    let mut h = FrontierHasher::new();
    track.label().hash(&mut h);
    optimal.delay().hash(&mut h);
    for sj in optimal.jobs() {
        sj.job().hash(&mut h);
        sj.start().hash(&mut h);
        sj.end().hash(&mut h);
        sj.pe().hash(&mut h);
    }
    for &(condition, time) in optimal.resolutions() {
        condition.hash(&mut h);
        time.hash(&mut h);
    }
    h.finish()
}

/// A persistent, incrementally re-mergeable scheduling session.
///
/// The session owns a copy of the system and caches the decision tree its
/// last merge explored. [`apply_edit`](Self::apply_edit) mutates the system
/// and marks the alternative paths inside the edit's scope; the next
/// [`merge`](Self::merge) replays every cached subtree the edit provably
/// cannot affect (validating its recorded reads against the rebuilt table)
/// and re-walks only the invalidated region. The produced [`MergeResult`]
/// is bit-identical to a cold merge of the edited system.
///
/// # Example
///
/// ```
/// use cpg_arch::Time;
/// use cpg::{examples, SystemEdit};
/// use cpg_merge::{generate_schedule_table, MergeConfig, MergeSession};
///
/// let system = examples::fig1();
/// let config = MergeConfig::new(system.broadcast_time());
/// let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
/// let first = session.merge();
///
/// // Tweak one worst-case execution time and re-merge incrementally.
/// let p = system.cpg().ordinary_processes().next().unwrap();
/// session
///     .apply_edit(&SystemEdit::ExecTime { process: p, time: Time::new(9) })
///     .unwrap();
/// let warm = session.merge();
///
/// // The warm result is identical to a cold merge of the edited system.
/// let mut edited = system.cpg().clone();
/// edited.set_exec_time(p, Time::new(9)).unwrap();
/// let cold = generate_schedule_table(&edited, system.arch(), &config);
/// assert_eq!(warm.table(), cold.table());
/// assert_eq!(warm.delta_max(), cold.delta_max());
/// assert!(first.delta_max() >= first.delta_m());
/// ```
pub struct MergeSession {
    cpg: Cpg,
    arch: Architecture,
    config: MergeConfig,
    tracks: TrackSet,
    /// Tracks inside the scope of an edit applied since the last merge.
    dirty: Vec<bool>,
    /// A structural (guard) edit invalidates the whole cache and the track
    /// enumeration itself.
    structural: bool,
    /// The cached decision tree of the last merge (`None` before the first).
    root: Option<Box<SessionChain>>,
    /// Per-track optimal schedules of the last merge, aligned with `tracks`
    /// (empty before the first merge). A clean track's individual schedule
    /// depends only on its own jobs' execution times and mappings — which the
    /// dirty set covers by construction — so a re-merge re-schedules dirty
    /// tracks only.
    optimal: Vec<PathSchedule>,
    /// Frontier hashes aligned with `optimal`.
    track_hashes: Vec<u64>,
    /// Cached residual (realizability-sweep) replays, aligned with `tracks`:
    /// per track, the fingerprint of the final tabled locks the replay was
    /// computed under, plus the realized schedule. A replay depends only on
    /// the track's optimal schedule and those locks, so a clean track with an
    /// unchanged lock fingerprint reuses it without running the scheduler.
    realized: Vec<Option<(u64, PathSchedule)>>,
    /// Per-track worst-case delays of the last merge's table, aligned with
    /// `tracks` (empty before the first merge). A track's delay reads only
    /// the table cells whose column is compatible with its label, plus the
    /// execution times of its own processes — so a clean track with no
    /// compatible changed column reuses the cached value and `delta_max`
    /// costs nothing on a pure replay.
    track_delays: Vec<Time>,
    /// Reuse counters of the last merge.
    reuse: ReuseStats,
}

impl MergeSession {
    /// Creates a session for the given system. The graph must already
    /// contain its communication processes (see
    /// [`cpg::expand_communications`]); the session clones the inputs so
    /// later edits do not alias the caller's graph.
    #[must_use]
    pub fn new(cpg: &Cpg, arch: &Architecture, config: &MergeConfig) -> Self {
        let tracks = enumerate_tracks(cpg);
        let num_tracks = tracks.len();
        MergeSession {
            cpg: cpg.clone(),
            arch: arch.clone(),
            config: *config,
            tracks,
            dirty: vec![false; num_tracks],
            structural: false,
            root: None,
            optimal: Vec::new(),
            track_hashes: Vec::new(),
            realized: Vec::new(),
            track_delays: Vec::new(),
            reuse: ReuseStats::default(),
        }
    }

    /// The session's current (edited) graph.
    #[must_use]
    pub fn cpg(&self) -> &Cpg {
        &self.cpg
    }

    /// The target architecture.
    #[must_use]
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The merge configuration the session was created with.
    #[must_use]
    pub fn config(&self) -> &MergeConfig {
        &self.config
    }

    /// The alternative paths of the current graph.
    #[must_use]
    pub fn tracks(&self) -> &TrackSet {
        &self.tracks
    }

    /// How much of the cached decision tree the last [`merge`](Self::merge)
    /// reused. All zeros before the first merge.
    #[must_use]
    pub fn reuse_stats(&self) -> ReuseStats {
        self.reuse
    }

    /// Applies an edit to the session's graph and widens the invalidation
    /// scope of the next [`merge`](Self::merge) accordingly. Returns the
    /// edit's scope.
    ///
    /// # Errors
    ///
    /// Returns an error when the edit cannot be applied (unknown process,
    /// dummy source/sink, unmapped process); the session is unchanged then.
    pub fn apply_edit(&mut self, edit: &SystemEdit) -> Result<EditScope, EditError> {
        // Scope against the pre-edit graph (the guard consulted for
        // WCET/mapping scoping is not changed by those edits).
        let scope = edit.scope(&self.cpg, &self.tracks);
        edit.apply(&mut self.cpg)?;
        match &scope {
            EditScope::Structural => self.structural = true,
            EditScope::Tracks(affected) => {
                for &idx in affected {
                    self.dirty[idx] = true;
                }
            }
        }
        Ok(scope)
    }

    /// Drops the cached decision tree, schedules and residual replays: the
    /// next [`merge`](Self::merge) is a full cold walk.
    pub fn invalidate_all(&mut self) {
        self.root = None;
        self.optimal.clear();
        self.track_hashes.clear();
        self.realized.clear();
        self.track_delays.clear();
    }

    /// Re-merges the (possibly edited) system, replaying every cached
    /// decision subtree the edits since the last merge provably cannot
    /// affect. The result is bit-identical to
    /// [`generate_schedule_table`](crate::generate_schedule_table) on the
    /// current graph.
    pub fn merge(&mut self) -> MergeResult {
        if self.structural {
            // A guard edit may have changed the set of alternative paths:
            // nothing survives.
            self.tracks = enumerate_tracks(&self.cpg);
            self.root = None;
            self.optimal.clear();
            self.track_hashes.clear();
            self.realized.clear();
            self.track_delays.clear();
            self.structural = false;
            self.dirty = vec![false; self.tracks.len()];
        }
        let dirty = std::mem::take(&mut self.dirty);
        let cached_root = self.root.take();
        // A dirty track's optimal schedule is about to change, so any cached
        // residual replay of it is stale — even if this merge ends up never
        // running the realizability sweep.
        if self.realized.len() == self.tracks.len() {
            for (idx, is_dirty) in dirty.iter().enumerate() {
                if *is_dirty {
                    self.realized[idx] = None;
                }
            }
        } else {
            self.realized = vec![None; self.tracks.len()];
        }

        let scheduler = ListScheduler::new(&self.cpg, &self.arch, self.config.broadcast_time());
        // Contexts are built lazily: a warm merge only needs them for the
        // tracks it re-schedules, re-walks or re-sweeps; a merge that replays
        // everything needs none at all. (The cold path eagerly prefills the
        // same cache with its initial schedules.)
        let contexts = ContextCache::new(scheduler, &self.tracks);
        let mut state = WalkState::new();
        // Optimal schedules are the scheduling inputs the frontier hashes
        // fingerprint; a clean track's schedule cannot have changed, so only
        // the dirty tracks are re-run. The first merge (and the one after a
        // structural edit) rebuilds every track, like the cold path.
        let (optimal, track_hashes) = if self.optimal.len() == self.tracks.len() {
            let mut optimal = std::mem::take(&mut self.optimal);
            let mut hashes = std::mem::take(&mut self.track_hashes);
            for (idx, track) in self.tracks.tracks().iter().enumerate() {
                if dirty[idx] {
                    optimal[idx] = contexts.get(idx).schedule_with(&mut state.scratch);
                    hashes[idx] = track_hash(track, &optimal[idx]);
                }
            }
            (optimal, hashes)
        } else {
            let optimal: Vec<PathSchedule> = (0..self.tracks.len())
                .map(|idx| contexts.get(idx).schedule_with(&mut state.scratch))
                .collect();
            let hashes = self
                .tracks
                .tracks()
                .iter()
                .zip(&optimal)
                .map(|(track, schedule)| track_hash(track, schedule))
                .collect();
            (optimal, hashes)
        };
        let delta_m = optimal
            .iter()
            .map(PathSchedule::delay)
            .max()
            .unwrap_or(Time::ZERO);

        let shared = MergeShared {
            cpg: &self.cpg,
            config: &self.config,
            contexts: &contexts,
            tracks: &self.tracks,
            optimal: &optimal,
        };
        let have_delays = self.track_delays.len() == self.tracks.len();
        let mut rewalk = Rewalk {
            track_hashes: &track_hashes,
            dirty: &dirty,
            diverged: false,
            note_changes: have_delays,
            changed: Vec::new(),
            reuse: ReuseStats::default(),
            segs: Vec::new(),
            seg_start: (MergeStats::default(), 0, false),
        };

        let mut table = ScheduleTable::new();
        let mut decided = Assignment::new();
        let root_idx = shared
            .select_track(&decided)
            .expect("a valid graph has at least one alternative path");
        let new_root = shared.walk_chain(
            &mut rewalk,
            &mut state,
            &mut table,
            cached_root,
            ChainEntry::Root,
            root_idx,
            &mut decided,
        );

        let mut stats = state.stats;
        let realized = if state.needs_sweep() {
            // Same realizability sweep as the cold path
            // ([`MergeShared::residual_replays`]), with a per-track replay
            // cache: the replay is a function of the track's optimal schedule
            // and its final tabled locks, so a clean track whose lock
            // fingerprint is unchanged reuses the cached schedule instead of
            // re-running the scheduler. (Dirty tracks had their cache entry
            // cleared above.)
            let cached = std::mem::take(&mut self.realized);
            let mut locks = LockSet::for_graph(&self.cpg);
            let replays: Vec<(u64, PathSchedule)> = self
                .tracks
                .iter()
                .enumerate()
                .map(|(idx, track)| {
                    locks.clear();
                    shared.final_locks_into(&table, track, &mut locks);
                    let mut h = FrontierHasher::new();
                    for lock in locks.iter_pinned() {
                        lock.hash(&mut h);
                    }
                    let fingerprint = h.finish();
                    if let Some((fp, schedule)) = &cached[idx] {
                        if *fp == fingerprint {
                            return (fingerprint, schedule.clone());
                        }
                    }
                    let replay = contexts.get(idx).reschedule_with(
                        &mut state.scratch,
                        &optimal[idx],
                        &locks,
                    );
                    (fingerprint, replay)
                })
                .collect();
            stats.lock_slips = replays
                .iter()
                .map(|(_, replay)| replay.slipped_locks().len())
                .sum();
            self.realized = replays
                .iter()
                .map(|(fp, schedule)| Some((*fp, schedule.clone())))
                .collect();
            Some(
                replays
                    .into_iter()
                    .map(|(_, schedule)| schedule)
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };
        // `worst_case_delay` decomposes as a max of per-track delays, and a
        // track's delay reads only the cells in columns compatible with its
        // label plus the execution times of its own processes (guard-implied
        // by the label, so the dirty set covers every edit to them). The
        // re-walk noted the column of every cell that may differ from the
        // previous table; clean tracks with no compatible changed column
        // keep last merge's value.
        let cached_delays = std::mem::take(&mut self.track_delays);
        let mut changed_columns = std::mem::take(&mut rewalk.changed);
        changed_columns.sort_unstable();
        changed_columns.dedup();
        // Union masks over the changed columns: when nothing in the changed
        // set can exclude a label (the same aggregate test the table's
        // partition index uses per row), `any(compatible)` is simply
        // non-emptiness and the per-track scan is skipped; only labels some
        // changed column *can* exclude fall back to the linear test.
        let (mut changed_pos, mut changed_neg) = (0u64, 0u64);
        for col in &changed_columns {
            changed_pos |= col.positive_mask();
            changed_neg |= col.negative_mask();
        }
        let any_changed_compatible = |label: &Cube| {
            if changed_columns.is_empty() {
                return false;
            }
            if label.positive_mask() & changed_neg == 0 && label.negative_mask() & changed_pos == 0
            {
                return true;
            }
            changed_columns.iter().any(|col| col.compatible(label))
        };
        self.track_delays = self
            .tracks
            .tracks()
            .iter()
            .enumerate()
            .map(|(idx, track)| {
                let label = track.label();
                if have_delays && !dirty[idx] && !any_changed_compatible(&label) {
                    cached_delays[idx]
                } else {
                    table.track_delay(&self.cpg, &label)
                }
            })
            .collect();
        let delta_max = self
            .track_delays
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO);

        self.reuse = rewalk.reuse;
        self.root = Some(new_root);
        self.dirty = vec![false; self.tracks.len()];
        self.optimal = optimal;
        self.track_hashes = track_hashes;

        MergeResult {
            table,
            tracks: self.tracks.clone(),
            path_schedules: match realized {
                Some(replays) => replays,
                None => self.optimal.clone(),
            },
            delta_m,
            delta_max,
            steps: state.steps,
            stats,
        }
    }

    /// Variant of [`MergeSession::new`] that validates the system first and
    /// returns a typed [`MergeError`](crate::MergeError) instead of hitting
    /// an index panic on the first merge of a pathological input (see
    /// [`validate_system`](crate::validate_system) for the checks).
    pub fn try_new(
        cpg: &Cpg,
        arch: &Architecture,
        config: &MergeConfig,
    ) -> Result<Self, crate::MergeError> {
        // Same entry-validation mutant bypass as
        // [`try_generate_schedule_table`](crate::try_generate_schedule_table).
        #[cfg(any(test, feature = "test-util"))]
        let checked = !crate::merge::sabotage::skip_entry_validation();
        #[cfg(not(any(test, feature = "test-util")))]
        let checked = true;
        if checked {
            crate::error::validate_system(cpg, arch)?;
        }
        Ok(MergeSession::new(cpg, arch, config))
    }

    /// Variant of [`merge`](Self::merge) that re-validates the (edited)
    /// system before walking. [`apply_edit`](Self::apply_edit) keeps a
    /// well-formed system well-formed, but a session built with
    /// [`MergeSession::new`] on unvalidated input — or one whose
    /// architecture the caller constructed smaller than the graph's mappings
    /// — fails here with a typed error instead of panicking mid-walk.
    pub fn try_merge(&mut self) -> Result<MergeResult, crate::MergeError> {
        crate::error::validate_system(&self.cpg, &self.arch)?;
        Ok(self.merge())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_schedule_table;
    use cpg::examples;
    use cpg::Guard;

    fn assert_identical(a: &MergeResult, b: &MergeResult, context: &str) {
        assert_eq!(a.table(), b.table(), "table diverged ({context})");
        assert_eq!(a.tracks(), b.tracks(), "tracks diverged ({context})");
        assert_eq!(
            a.path_schedules(),
            b.path_schedules(),
            "path schedules diverged ({context})"
        );
        assert_eq!(a.delta_m(), b.delta_m(), "delta_m diverged ({context})");
        assert_eq!(
            a.delta_max(),
            b.delta_max(),
            "delta_max diverged ({context})"
        );
        assert_eq!(a.steps(), b.steps(), "steps diverged ({context})");
        assert_eq!(a.stats(), b.stats(), "stats diverged ({context})");
    }

    #[test]
    fn cold_session_merge_matches_the_production_walk() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time()).with_trace(true);
        let cold = generate_schedule_table(system.cpg(), system.arch(), &config);
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        let first = session.merge();
        assert_identical(&cold, &first, "cold session merge");
        assert!(session.reuse_stats().chains_recorded > 0);
        assert_eq!(session.reuse_stats().chains_replayed, 0);
    }

    #[test]
    fn editless_remerge_replays_the_whole_tree() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        let first = session.merge();
        let second = session.merge();
        assert_identical(&first, &second, "edit-less re-merge");
        let reuse = session.reuse_stats();
        assert_eq!(
            reuse.chains_recorded, 0,
            "an unchanged system must replay every chain: {reuse:?}"
        );
        assert!(reuse.chains_replayed > 0);
    }

    #[test]
    fn warm_merge_after_a_wcet_edit_matches_a_cold_merge() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time()).with_trace(true);
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();

        // Edit a guarded process (so the scope excludes some tracks).
        let p = system
            .cpg()
            .ordinary_processes()
            .find(|&p| !system.cpg().guard(p).is_true())
            .expect("fig1 has guarded processes");
        let edit = SystemEdit::ExecTime {
            process: p,
            time: Time::new(11),
        };
        let scope = session.apply_edit(&edit).unwrap();
        assert!(matches!(scope, EditScope::Tracks(_)));
        let warm = session.merge();

        let mut edited = system.cpg().clone();
        edited.set_exec_time(p, Time::new(11)).unwrap();
        let cold = generate_schedule_table(&edited, system.arch(), &config);
        assert_identical(&cold, &warm, "warm re-merge after WCET edit");
    }

    #[test]
    fn structural_edits_drop_the_cache_and_still_match_cold() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();

        // Tighten a guard: a structural edit, the track set may change.
        let p = system
            .cpg()
            .ordinary_processes()
            .find(|&p| !system.cpg().guard(p).is_true())
            .unwrap();
        let guard = system.cpg().guard(p).clone();
        let edit = SystemEdit::Guard { process: p, guard };
        assert_eq!(session.apply_edit(&edit).unwrap(), EditScope::Structural);
        let warm = session.merge();
        assert_eq!(session.reuse_stats().chains_replayed, 0);

        let mut edited = system.cpg().clone();
        edited.set_guard(p, system.cpg().guard(p).clone()).unwrap();
        let cold = generate_schedule_table(&edited, system.arch(), &config);
        assert_identical(&cold, &warm, "re-merge after structural edit");
    }

    #[test]
    fn rejected_edits_leave_the_session_untouched() {
        let system = examples::diamond();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        let first = session.merge();
        let err = session
            .apply_edit(&SystemEdit::ExecTime {
                process: session.cpg().source(),
                time: Time::new(1),
            })
            .unwrap_err();
        assert!(matches!(err, EditError::DummyProcess(_)));
        let second = session.merge();
        assert_identical(&first, &second, "re-merge after rejected edit");
        assert_eq!(session.reuse_stats().chains_recorded, 0);
    }

    #[test]
    fn invalidate_all_forces_a_full_record() {
        let system = examples::diamond();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        let first = session.merge();
        session.invalidate_all();
        let second = session.merge();
        assert_identical(&first, &second, "re-merge after invalidate_all");
        assert_eq!(session.reuse_stats().chains_replayed, 0);
        assert!(session.reuse_stats().chains_recorded > 0);
    }

    #[test]
    fn mapping_edits_re_merge_identically_to_cold() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();

        let p = system.cpg().ordinary_processes().next().unwrap();
        let old = system.cpg().mapping(p).unwrap();
        let target = system
            .arch()
            .processors()
            .find(|&pe| pe != old)
            .expect("fig1 has several processors");
        session
            .apply_edit(&SystemEdit::Mapping {
                process: p,
                pe: target,
            })
            .unwrap();
        let warm = session.merge();

        let mut edited = system.cpg().clone();
        edited.set_mapping(p, target).unwrap();
        let cold = generate_schedule_table(&edited, system.arch(), &config);
        assert_identical(&cold, &warm, "warm re-merge after mapping edit");
    }

    #[test]
    fn a_session_survives_a_sequence_of_edits() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();
        let mut reference = system.cpg().clone();

        let processes: Vec<_> = system.cpg().ordinary_processes().take(4).collect();
        for (step, &p) in processes.iter().enumerate() {
            let time = Time::new(3 + step as u64);
            session
                .apply_edit(&SystemEdit::ExecTime { process: p, time })
                .unwrap();
            reference.set_exec_time(p, time).unwrap();
            let warm = session.merge();
            let cold = generate_schedule_table(&reference, system.arch(), &config);
            assert_identical(&cold, &warm, &format!("edit step {step}"));
        }
    }

    #[test]
    fn never_guard_edit_keeps_session_and_cold_in_lockstep() {
        // A guard that can never fire removes the process from every track:
        // the structural path must re-enumerate and still match cold.
        let system = examples::sensor_actuator();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();

        let p = system
            .cpg()
            .ordinary_processes()
            .find(|&p| !system.cpg().guard(p).is_true())
            .expect("sensor_actuator has guarded processes");
        session
            .apply_edit(&SystemEdit::Guard {
                process: p,
                guard: Guard::never(),
            })
            .unwrap();
        let warm = session.merge();

        let mut edited = system.cpg().clone();
        edited.set_guard(p, Guard::never()).unwrap();
        let cold = generate_schedule_table(&edited, system.arch(), &config);
        assert_identical(&cold, &warm, "never-guard structural edit");
    }
}
