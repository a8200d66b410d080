//! Incremental re-merge sessions: edit-scoped subtree invalidation and
//! cached-log replay over the merge stack.
//!
//! A [`MergeSession`] owns a system (graph + architecture + configuration)
//! and keeps the explored decision tree of its last merge as a cache. The
//! cache unit is the **forward chain**: the maximal run of decision-tree
//! nodes that keeps the same current schedule (a back-step selects a new
//! track and therefore starts a new chain). Per chain the session retains
//!
//! * the chain's [`ChainLog`]: its writes, the columns it created and a
//!   digest of every table row it touched, as the row stood at the chain's
//!   entry; and
//! * the chain's condition resolutions and the repair counters of its own
//!   placements.
//!
//! That tree is also the merge's record: [`SessionChain::record`] folds it
//! once, at the end of every merge, into the step trace, the [`MergeStats`]
//! counters and the [`ReuseStats`] counters, so a replayed chain reports
//! exactly what the walk that recorded it did.
//!
//! Besides the tree, the session's [`MergeCache`] keeps what the last merge
//! computed per track and an edit can only change on the tracks it reaches:
//! each track's optimal schedule, its simulated run of the finished table
//! and its scheduling context. A warm merge re-schedules the dirty tracks
//! only, refreshes the timing of their contexts instead of building them
//! again ([`ListScheduler::refresh`](cpg_path_sched::ListScheduler::refresh)),
//! and re-simulates only the tracks the changed table cells can reach.
//!
//! Every merge records: the one walk
//! ([`MergeShared::walk_chain`](crate::merge::MergeShared::walk_chain))
//! runs every chain through a [`RecordingView`], which writes straight into
//! the table and logs beside it. A one-shot
//! [`generate_schedule_table`](crate::generate_schedule_table) is a fresh
//! session's first merge: the same [`merge_tracks`] over an empty
//! [`MergeCache`], which it fills like any cold merge and drops afterwards.
//! Whether a merge is warm is decided once, by [`MergeCache::is_warm`]: a
//! cold merge builds and schedules every track, a warm one refreshes and
//! re-schedules the dirty ones.
//!
//! After a [`SystemEdit`] the session re-merges *incrementally*
//! ([`MergeSession::merge`]): the table is rebuilt from scratch, but a chain
//! whose cached log still validates against the partially rebuilt table is
//! **replayed** — its writes are spliced into the table column-wise
//! ([`ScheduleTable::splice_log`]) without running the scheduler at all.
//! A chain qualifies when its track is outside the edit scope
//! ([`SystemEdit::scope`]), or inside it with a new optimal schedule that
//! places like the cached one ([`PathSchedule::places_like`]) while the
//! chain is *schedule-pure*: every adjustment of its placements kept the
//! optimal schedule, so no reschedule read the track's edited timing.
//! Only the invalidated region of the tree is re-walked and re-recorded.
//! Every validation failure degrades to a re-walk, never to a wrong table:
//! the result is bit-identical to a fresh session's first merge of the
//! edited system, and to the clone-per-node oracle walk.
//!
//! Why replay is sound: a cached log replays the exact writes the recording
//! merge made at that point of the serial order. The walk decides from its
//! track's optimal schedule and the rows it reads, and from the track's
//! scheduling context whenever an adjustment reschedules. Every chain in
//! the cache was visited by the last merge, which recorded it or replayed
//! it with the track's cached optimal schedule, or with one that places
//! alike. A clean track is not re-scheduled, so its schedule and context
//! are the ones the chain was recorded with. A dirty track's context is
//! re-timed, but a pure chain never read it, and its new schedule agrees
//! with the cached one in every field a placement without reschedule reads
//! (the jobs' order, starts and resources, and when each condition becomes
//! known where). So if the table up to this serial point matches a fresh
//! walk's (induction over the serial order, base case: the empty table) and
//! every row the chain touched digests as it did at record time, the
//! recorded decisions are the decisions a fresh walk would take and the
//! spliced writes land byte-identically — including the column creation
//! order, which [`ChainLog::created_columns_absent`] guards.
//!
//! The finished walk table is compacted through the cache's
//! [`CompactionMemo`]: a row the walk left as the last merge's walk did
//! takes the last merge's compaction of that row
//! ([`ScheduleTable::compact_reusing`]). A cold merge fills the memo from
//! nothing, the same way.

use cpg::{enumerate_tracks, CondId, Cpg, Cube, EditError, EditScope, SystemEdit, TrackSet};
use cpg_arch::{Architecture, Time};
use cpg_path_sched::{PathSchedule, TrackContext};
use cpg_table::{ChainLog, CompactionMemo, RecordScratch, RecordingView, ScheduleTable};

use crate::config::MergeConfig;
use crate::merge::{merge_tracks, Resolution, TrackRun, WalkState};
use crate::result::{MergeResult, MergeStats, MergeStep};

/// Counters describing how much of the cached decision tree and of the
/// cached compaction the last [`MergeSession::merge`] reused, and why the
/// rest was done again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ReuseStats {
    /// Forward chains replayed from their cached logs (no scheduler runs).
    pub chains_replayed: usize,
    /// Forward chains recorded by walking the decision tree.
    pub chains_recorded: usize,
    /// Placement segments spliced from cached logs. A chain has one segment
    /// per condition resolution plus the last one, which ends its schedule.
    pub segments_replayed: usize,
    /// Placement segments recorded by running the placement phase.
    pub segments_recorded: usize,
    /// Of the replayed chains, those of a track an edit reached: the chain
    /// never rescheduled its track, and the track's new optimal schedule
    /// places like the old one ([`PathSchedule::places_like`]).
    pub dirty_chains_replayed: usize,
    /// Recorded chains whose cached chain was refused because an edit
    /// changed how its track's optimal schedule places.
    pub rewalked_schedule_changed: usize,
    /// Recorded chains whose cached chain was refused because its track is
    /// dirty and the chain rescheduled it, with the timing of before the
    /// edit, although the optimal schedule places alike.
    pub rewalked_impure: usize,
    /// Recorded chains whose cached chain was refused because a row it
    /// touched changed before it in the serial order.
    pub rewalked_rows_changed: usize,
    /// Recorded chains whose cached chain was refused because a column it
    /// created exists already. The recorded chains the four counters above
    /// leave out had no cached chain of their track at their decision node.
    pub rewalked_column_created: usize,
    /// Table rows whose compaction was taken from the last merge's, since
    /// the walk left them as the last merge's walk did.
    pub compactions_reused: usize,
}

/// A cached forward chain of the decision tree: the maximal run of nodes
/// sharing one current schedule, plus the back-step children hanging off its
/// resolutions (deepest first in walk order).
pub(crate) struct SessionChain {
    /// The track whose schedule is current along this chain.
    track_idx: usize,
    /// The chain's writes, created columns and touched-row digests, recorded
    /// in one view spanning every segment. A row is digested at its first
    /// touch, before the chain wrote to it, so the log validates directly
    /// against the table state at the chain's serial entry point.
    log: ChainLog,
    /// The chain's condition resolutions, in serial order: one
    /// forward-step node each.
    resolutions: Box<[Resolution]>,
    /// The repair counters of the chain's own placements
    /// (`conflicts_repaired`, `unrepaired_conflicts`, `slip_repairs` and
    /// `repair_rounds`; the others stay zero).
    work: MergeStats,
    /// Whether every adjustment of the chain's own placements kept its
    /// track's optimal schedule, so no reschedule read the track's timing.
    /// The chain's writes then follow from the optimal schedule's
    /// placement-relevant fields and the rows it read alone.
    pure: bool,
    /// How the last merge came by this chain.
    origin: Origin,
    /// Back-step subtree per resolution (`children[i]` flips the `i`-th
    /// resolution); `None` when no reachable path takes the flipped value.
    pub(crate) children: Vec<Option<Box<SessionChain>>>,
}

/// How the last merge came by a chain of its decision tree: replayed from
/// the cached chain at its decision node, or walked, and then why the
/// cached chain was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// Replayed; its track is clean.
    Replayed,
    /// Replayed although an edit reached its track: the chain is pure and
    /// the track's optimal schedule places alike ([`Edited::PlacesAlike`]).
    ReplayedDirty,
    /// Walked: no cached chain of its track sat at its decision node.
    Uncached,
    /// Walked: its track's optimal schedule places differently
    /// ([`Edited::Replaced`]).
    ScheduleChanged,
    /// Walked: its track places alike, but the cached chain rescheduled it.
    Impure,
    /// Walked: a row the cached chain touched no longer digests as recorded.
    RowsChanged,
    /// Walked: a column the cached chain created exists already.
    ColumnCreated,
}

/// A cached chain a merge refused to replay (if there was one), handed back
/// to [`Rewalk::commit`] with the reason.
pub(crate) type Stale = (Option<Box<SessionChain>>, Origin);

/// What the edits since the last merge did to a track, as the walk sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edited {
    /// Outside every edit's scope: its optimal schedule is the cached one.
    Clean,
    /// Inside an edit's scope, but its new optimal schedule places like the
    /// cached one ([`PathSchedule::places_like`]).
    PlacesAlike,
    /// Inside an edit's scope with a schedule that places differently, or
    /// nothing cached to compare with.
    Replaced,
}

/// What one merge leaves for the next merge of the same system, plus the
/// edits since. A [`MergeSession`] keeps it across merges; a one-shot merge
/// starts from [`MergeCache::default`] (nothing cached, nothing dirty),
/// fills it like every cold merge does and drops it afterwards.
///
/// Every merge fills all of it, aligned with the tracks, and a structural
/// edit drops all of it, so one test tells a warm merge from a cold one
/// ([`is_warm`](Self::is_warm)).
#[derive(Default)]
pub(crate) struct MergeCache {
    /// The decision tree of the last merge (`None` before the first).
    pub(crate) root: Option<Box<SessionChain>>,
    /// Per-track optimal schedules of the last merge, aligned with the
    /// tracks (empty before the first merge). A clean track's individual
    /// schedule depends only on its own jobs' execution times and mappings
    /// — which the dirty set covers by construction — so a re-merge
    /// re-schedules dirty tracks only.
    pub(crate) optimal: Vec<PathSchedule>,
    /// The simulated run of each track on the last merge's table — its
    /// delay and violation count — aligned with the tracks (empty before the
    /// first merge). A run reads only the table cells whose column is
    /// satisfied by the track's label (so compatible with it), plus the
    /// execution times and mappings of the track's own processes, which are
    /// guard-implied by the label and so covered by the dirty set. A clean
    /// track with no compatible changed column therefore reuses the cached
    /// run, and the realizability check costs nothing on a pure replay.
    pub(crate) track_runs: Vec<TrackRun>,
    /// The scheduling context of each track, aligned with the tracks
    /// (empty before the first merge). An edit of execution times or
    /// mappings changes no context's structure, and the timing only of the
    /// dirty tracks' contexts, so the next merge refreshes those
    /// ([`ListScheduler::refresh`](cpg_path_sched::ListScheduler::refresh))
    /// and builds none again.
    pub(crate) contexts: Vec<TrackContext>,
    /// The compaction of every row of the last merge's walk table, which
    /// the next merge applies again to each row the walk leaves as it was
    /// ([`ScheduleTable::compact_reusing`]).
    pub(crate) compaction: CompactionMemo,
    /// Tracks inside the scope of an edit applied since the last merge;
    /// aligned with the tracks whenever anything above is cached.
    pub(crate) dirty: Vec<bool>,
    /// Reuse counters of the last merge.
    pub(crate) reuse: ReuseStats,
    /// Walk with the clone-per-node oracle instead of the chain walk
    /// ([`generate_schedule_table_cloning`](crate::generate_schedule_table_cloning)).
    #[cfg(any(test, feature = "test-util"))]
    pub(crate) cloning_oracle: bool,
    /// Publish the walk table as walked, without
    /// [`ScheduleTable::compact`](cpg_table::ScheduleTable::compact)
    /// ([`generate_walk_table`](crate::generate_walk_table)).
    #[cfg(any(test, feature = "test-util"))]
    pub(crate) uncompacted: bool,
}

impl MergeCache {
    /// An empty session cache for a system with `num_tracks` alternative
    /// paths.
    fn new(num_tracks: usize) -> Self {
        MergeCache {
            dirty: vec![false; num_tracks],
            ..MergeCache::default()
        }
    }

    /// Whether a previous merge of the same system filled the cache, so the
    /// next merge may reuse it. Every merge leaves a context per track (a
    /// valid graph has at least one), and only a fresh cache has none.
    pub(crate) fn is_warm(&self) -> bool {
        !self.contexts.is_empty()
    }
}

/// The walk's chain recorder: records every walked chain through a
/// [`RecordingView`] and replays cached chains that are still valid,
/// carrying the invalidation state of one merge.
pub(crate) struct Rewalk<'a> {
    /// Per track, what the edits since the last merge did to it.
    edited: &'a [Edited],
    /// `false` while every chain visited so far (in serial order) replayed
    /// its cached log; flips to `true` at the first re-record. While clear,
    /// the rebuilt table is byte-identical to the recording merge's table at
    /// the current serial point (induction over the deterministic splice), so
    /// replays skip content validation entirely.
    diverged: bool,
    /// Whether to accumulate `changed`: only a warm merge has per-track
    /// simulated runs to invalidate.
    note_changes: bool,
    /// Column cubes of every table cell that may differ from the previous
    /// merge's table: the writes of re-recorded chains (old and new) and of
    /// dropped subtrees. Replayed chains splice byte-identical content and
    /// note nothing. The per-track simulation cache invalidates exactly the
    /// tracks whose label is compatible with a noted column.
    pub(crate) changed: Vec<Cube>,
    /// The buffers every recorded chain reuses.
    scratch: RecordScratch,
}

impl<'a> Rewalk<'a> {
    /// A recorder for one merge: nothing replayed or recorded yet. Changed
    /// columns are noted only when `note_changes` (the merge is warm).
    pub(crate) fn new(edited: &'a [Edited], note_changes: bool) -> Self {
        Rewalk {
            edited,
            diverged: false,
            note_changes,
            changed: Vec::new(),
            scratch: RecordScratch::default(),
        }
    }

    /// Notes the columns a write log touches (cells added, replaced or
    /// dropped versus the previous merge's table). Over-approximation is
    /// sound.
    fn note_changed_log(&mut self, log: &ChainLog) {
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
    /// point: its track is clean, or dirty but placing alike with a pure
    /// chain, and (once an earlier chain re-recorded) every row it touched
    /// still digests as recorded and none of the columns it created exists
    /// yet. Returns how the chain replays, or why it does not.
    fn validate(
        &self,
        table: &ScheduleTable,
        chain: &SessionChain,
        track_idx: usize,
    ) -> Result<Origin, Origin> {
        if chain.track_idx != track_idx {
            return Err(Origin::Uncached);
        }
        // Mutation self-test hook: replay impure chains of dirty tracks
        // with their stale reschedules. The warm-vs-cold oracle must flag
        // the diverging re-merge (tests/adversarial_corpus.rs).
        #[cfg(any(test, feature = "test-util"))]
        let pure = chain.pure || crate::merge::sabotage::replay_impure_chains();
        #[cfg(not(any(test, feature = "test-util")))]
        let pure = chain.pure;
        let origin = match self.edited[track_idx] {
            Edited::Clean => Origin::Replayed,
            Edited::PlacesAlike if pure => Origin::ReplayedDirty,
            Edited::PlacesAlike => return Err(Origin::Impure),
            Edited::Replaced => return Err(Origin::ScheduleChanged),
        };
        // Serial-order fast path: no chain before this one (in serial order)
        // re-recorded, so the rebuilt table is byte-identical to the
        // recording merge's table at this point and every cached read would
        // validate by construction.
        if !self.diverged {
            return Ok(origin);
        }
        // The row digests describe the table at the chain's serial entry
        // point, so the log validates directly against the rebuilt table.
        let rows_match = chain.log.rows_match(table);
        // Mutation self-test hook: splice the stale cached chain whatever
        // its rows hold now. The warm-vs-cold oracle must flag the
        // diverging re-merge (tests/adversarial_corpus.rs).
        #[cfg(any(test, feature = "test-util"))]
        let rows_match = rows_match || crate::merge::sabotage::skip_splice_validation();
        if !rows_match {
            Err(Origin::RowsChanged)
        } else if !chain.log.created_columns_absent(table) {
            Err(Origin::ColumnCreated)
        } else {
            Ok(origin)
        }
    }

    /// Replays `cached` at this point of the walk instead of walking it. On
    /// success the chain's writes are in `table` and its resolutions are
    /// pushed onto [`WalkState::resolutions`] and assigned in `decided`; its
    /// counters stay in the chain for [`record`](SessionChain::record).
    /// Otherwise nothing changed and the stale chain (if any) is handed back
    /// with the reason for [`commit`](Self::commit).
    pub(crate) fn replay(
        &mut self,
        st: &mut WalkState,
        table: &mut ScheduleTable,
        cached: Option<Box<SessionChain>>,
        track_idx: usize,
        decided: &mut Cube,
    ) -> Result<Box<SessionChain>, Stale> {
        let Some(mut chain) = cached else {
            return Err((None, Origin::Uncached));
        };
        match self.validate(table, &chain, track_idx) {
            Ok(origin) => chain.origin = origin,
            Err(why) => return Err((Some(chain), why)),
        }
        table.splice_log(&chain.log);
        for &(condition, value, _) in &chain.resolutions {
            decided.assign(condition, value);
        }
        st.resolutions.extend_from_slice(&chain.resolutions);
        Ok(chain)
    }

    /// Opens the view of a chain about to be walked. One view spans the
    /// whole chain, so a row is digested once per chain however many
    /// segments touch it.
    pub(crate) fn open<'t>(&mut self, table: &'t mut ScheduleTable) -> RecordingView<'t> {
        RecordingView::new(table, std::mem::take(&mut self.scratch))
    }

    /// Closes the view of a chain whose last activation is placed.
    pub(crate) fn finish(&mut self, view: RecordingView<'_>) -> ChainLog {
        let (log, scratch) = view.finish();
        self.scratch = scratch;
        log
    }

    /// Builds the record of a walked chain, whose writes are in the table;
    /// `stale` is the cached chain it replaces (if any) and why, and
    /// `resolutions`, `work` and `pure` are the chain's own resolutions,
    /// repair counters and whether it kept the optimal schedule throughout.
    pub(crate) fn commit(
        &mut self,
        log: ChainLog,
        (stale, origin): Stale,
        track_idx: usize,
        resolutions: &[Resolution],
        work: MergeStats,
        pure: bool,
    ) -> Box<SessionChain> {
        // From this serial point on, the rebuilt table may differ from the
        // recording merge's: every later replay must validate its log.
        self.diverged = true;
        self.note_changed_log(&log);

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
            for (i, (child, old)) in stale
                .children
                .into_iter()
                .zip(stale.resolutions.iter())
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
            log,
            resolutions: resolutions.into(),
            work,
            pure,
            origin,
            children,
        })
    }

    /// A cached child is dropped: no reachable path takes the flipped value,
    /// so the subtree is dead and its cells leave the table.
    pub(crate) fn drop_child(&mut self, child: Option<Box<SessionChain>>) {
        if let Some(old) = child {
            self.note_changed_chain(&old);
        }
    }
}

impl SessionChain {
    /// The merge's record, folded over the decision tree rooted at this
    /// chain: the visited nodes in walk order, the work counters
    /// (`lock_slips` is left to the simulation of the finished table) and
    /// how many chains and segments the merge replayed or recorded.
    ///
    /// A chain contributes its back-step entry node (unless it is the root),
    /// then one forward node per resolution, then its children, deepest
    /// resolution first: the depth-first order of the paper's Fig. 3. The
    /// shape counters follow from the steps: a node is one step, a back step
    /// is one adjustment, and a node's depth is its decided-condition count.
    pub(crate) fn record(&self, tracks: &TrackSet) -> (Vec<MergeStep>, MergeStats, ReuseStats) {
        let mut steps = Vec::new();
        let mut stats = MergeStats::default();
        let mut reuse = ReuseStats::default();
        self.record_into(
            tracks,
            None,
            &mut Cube::top(),
            &mut steps,
            &mut stats,
            &mut reuse,
        );
        stats.tree_nodes = steps.len();
        stats.adjustments = steps.iter().filter(|step| step.back_step).count();
        stats.max_walk_depth = steps
            .iter()
            .map(|step| step.decided.len() + 1)
            .max()
            .unwrap_or(0);
        (steps, stats, reuse)
    }

    /// [`record`](Self::record) of one chain and its subtree. `entered` is
    /// the back-step into this chain (the tree path to the node without the
    /// flipped condition, the condition and when it resolved); `decided`
    /// holds the chain's entry state and is returned to it.
    fn record_into(
        &self,
        tracks: &TrackSet,
        entered: Option<(Cube, CondId, Time)>,
        decided: &mut Cube,
        steps: &mut Vec<MergeStep>,
        stats: &mut MergeStats,
        reuse: &mut ReuseStats,
    ) {
        let current_path = tracks.tracks()[self.track_idx].label();
        let mut step = |decided: Cube, condition: CondId, resolved_at: Time, back_step: bool| {
            steps.push(MergeStep {
                decided,
                condition,
                resolved_at,
                current_path,
                back_step,
            });
        };
        if let Some((node, condition, resolved_at)) = entered {
            step(node, condition, resolved_at, true);
        }
        for &(condition, value, resolved_at) in &self.resolutions {
            step(*decided, condition, resolved_at, false);
            decided.assign(condition, value);
        }
        stats.conflicts_repaired += self.work.conflicts_repaired;
        stats.unrepaired_conflicts += self.work.unrepaired_conflicts;
        stats.slip_repairs += self.work.slip_repairs;
        stats.repair_rounds += self.work.repair_rounds;
        let segments = self.resolutions.len() + 1;
        match self.origin {
            Origin::Replayed | Origin::ReplayedDirty => {
                reuse.chains_replayed += 1;
                reuse.segments_replayed += segments;
            }
            _ => {
                reuse.chains_recorded += 1;
                reuse.segments_recorded += segments;
            }
        }
        match self.origin {
            Origin::ReplayedDirty => reuse.dirty_chains_replayed += 1,
            Origin::ScheduleChanged => reuse.rewalked_schedule_changed += 1,
            Origin::Impure => reuse.rewalked_impure += 1,
            Origin::RowsChanged => reuse.rewalked_rows_changed += 1,
            Origin::ColumnCreated => reuse.rewalked_column_created += 1,
            Origin::Replayed | Origin::Uncached => {}
        }
        for (child, &(condition, value, resolved_at)) in
            self.children.iter().zip(self.resolutions.iter()).rev()
        {
            *decided = decided.without(condition);
            if let Some(child) = child {
                let node = *decided;
                decided.assign(condition, !value);
                child.record_into(
                    tracks,
                    Some((node, condition, resolved_at)),
                    decided,
                    steps,
                    stats,
                    reuse,
                );
                *decided = decided.without(condition);
            }
        }
    }
}

/// A persistent, incrementally re-mergeable scheduling session.
///
/// The session owns a copy of the system and caches the decision tree its
/// last merge explored. [`apply_edit`](Self::apply_edit) mutates the system
/// and marks the alternative paths inside the edit's scope; the next
/// [`merge`](Self::merge) replays every cached subtree the edit provably
/// cannot affect (validating its recorded reads against the rebuilt table)
/// and re-walks only the invalidated region. The produced [`MergeResult`]
/// is bit-identical to a fresh session's first merge of the edited system,
/// which is what [`generate_schedule_table`](crate::generate_schedule_table)
/// runs.
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
    /// A structural (guard) edit invalidates the whole cache and the track
    /// enumeration itself.
    structural: bool,
    /// What the last merge left for the next one, and the dirty marks of
    /// the edits since.
    cache: MergeCache,
}

impl MergeSession {
    /// Creates a session for the given system. The graph must already
    /// contain its communication processes (see
    /// [`cpg::expand_communications`]); the session clones the inputs so
    /// later edits do not alias the caller's graph.
    #[must_use]
    pub fn new(cpg: &Cpg, arch: &Architecture, config: &MergeConfig) -> Self {
        let tracks = enumerate_tracks(cpg);
        MergeSession {
            cpg: cpg.clone(),
            arch: arch.clone(),
            config: *config,
            cache: MergeCache::new(tracks.len()),
            tracks,
            structural: false,
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
        self.cache.reuse
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
                    self.cache.dirty[idx] = true;
                }
            }
        }
        Ok(scope)
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
            self.cache = MergeCache::new(self.tracks.len());
            self.structural = false;
        }
        let result = merge_tracks(
            &self.cpg,
            &self.arch,
            &self.config,
            self.tracks.clone(),
            &mut self.cache,
        );
        // The result took the optimal schedules; the next merge re-runs the
        // dirty tracks of this copy.
        self.cache.optimal = result.path_schedules.clone();
        result
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
        crate::error::validate_entry(cpg, arch)?;
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
    use crate::merge::tests::slipping_system;
    use crate::merge::MergeShared;
    use crate::{generate_schedule_table, generate_schedule_table_cloning};
    use cpg::{examples, CondId, Guard, ProcessId, MAX_CONDITIONS};
    use cpg_arch::Time;
    use cpg_path_sched::Job;

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
    fn first_session_merge_matches_the_cloning_oracle() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let oracle = generate_schedule_table_cloning(system.cpg(), system.arch(), &config);
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        let first = session.merge();
        assert_identical(&oracle, &first, "first session merge");
        assert!(session.reuse_stats().chains_recorded > 0);
        assert_eq!(session.reuse_stats().chains_replayed, 0);
    }

    #[test]
    fn editless_remerge_replays_the_whole_tree() {
        let fig1 = examples::fig1();
        // The slip-forcing system makes the repair counters non-zero, so the
        // replay pins the counters each cached chain carries.
        let (slip_arch, slip_cpg) = slipping_system();
        let systems = [
            (fig1.cpg(), fig1.arch(), fig1.broadcast_time(), false),
            (&slip_cpg, &slip_arch, Time::new(2), true),
        ];
        for (cpg, arch, broadcast_time, repairs) in systems {
            let config = MergeConfig::new(broadcast_time);
            let mut session = MergeSession::new(cpg, arch, &config);
            let first = session.merge();
            let second = session.merge();
            assert_identical(&first, &second, "edit-less re-merge");
            let reuse = session.reuse_stats();
            assert_eq!(
                reuse.chains_recorded, 0,
                "an unchanged system must replay every chain: {reuse:?}"
            );
            assert!(reuse.chains_replayed > 0);
            // One segment per forward node plus one per chain, and every
            // chain but the root is entered by a back-step node.
            assert_eq!(reuse.segments_replayed, second.stats().tree_nodes + 1);
            let stats = second.stats();
            if repairs {
                assert!(
                    stats.slip_repairs > 0 && stats.repair_rounds > 0,
                    "{stats:?}"
                );
            }
        }
    }

    #[test]
    fn warm_merge_after_a_wcet_edit_matches_a_cold_merge() {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();
        // The merge left one scheduling context per track for the next.
        assert!(session.cache.is_warm());
        assert_eq!(session.cache.contexts.len(), session.tracks.len());

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

    /// Replays a freshly merged fig1 session's cached tree over `seed` (a
    /// table already holding a cell no chain wrote), validating every chain
    /// as after a diverged re-record. Returns whether the cached root alone
    /// replays over `seed`, the reuse counters of the whole walk, and its
    /// table next to that of a walk with no cached tree over the same seed.
    fn rewalk_over(
        seed: impl Fn(&[Cube]) -> ScheduleTable,
    ) -> (bool, ReuseStats, ScheduleTable, ScheduleTable) {
        let system = examples::fig1();
        let config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &config);
        session.merge();
        let root = session.cache.root.take().expect("the session merged");
        // The table is empty at the root chain's entry, so every column it
        // writes is one it created, in first-write order.
        let mut created: Vec<Cube> = Vec::new();
        for column in root.log.written_columns() {
            if !created.contains(&column) {
                created.push(column);
            }
        }
        let seed = seed(&created);

        let shared = MergeShared {
            cpg: &session.cpg,
            config: &session.config,
            contexts: &session.cache.contexts,
            tracks: &session.tracks,
            optimal: &session.cache.optimal,
        };
        let clean = vec![Edited::Clean; session.tracks.len()];
        let recorder = || Rewalk {
            diverged: true,
            ..Rewalk::new(&clean, false)
        };
        let root_idx = shared
            .select_track(&Cube::top())
            .expect("a valid graph has at least one alternative path");

        let (root_replays, root) = match recorder().replay(
            &mut WalkState::new(),
            &mut seed.clone(),
            Some(root),
            root_idx,
            &mut Cube::top(),
        ) {
            Ok(root) => (true, root),
            Err((root, _)) => (false, root.expect("the cached root is handed back")),
        };
        let mut warm = seed.clone();
        let tree = shared.walk_chain(
            &mut recorder(),
            &mut WalkState::new(),
            &mut warm,
            Some(root),
            None,
            root_idx,
            &mut Cube::top(),
        );
        let mut cold = seed;
        shared.walk_chain(
            &mut Rewalk::new(&clean, false),
            &mut WalkState::new(),
            &mut cold,
            None,
            None,
            root_idx,
            &mut Cube::top(),
        );
        let (_, _, reuse) = tree.record(&session.tracks);
        (root_replays, reuse, warm, cold)
    }

    #[test]
    fn a_chain_whose_created_column_already_exists_is_re_walked() {
        // A row of no process of the graph, so no chain ever touches it.
        let stranger = Job::Process(ProcessId::from_index(examples::fig1().cpg().len()));

        // The root chain's second created column is already tabled: its
        // rows all match (none exists yet), but a replay would give that
        // column an index before the root's first one.
        let (root_replays, reuse, warm, cold) = rewalk_over(|created: &[Cube]| {
            assert!(created.len() >= 2, "fig1's root chain creates columns");
            let mut seed = ScheduleTable::new();
            seed.set(stranger, created[1], Time::ZERO);
            seed
        });
        assert!(!root_replays, "the column-creation guard must refuse");
        assert!(reuse.chains_recorded > 0);
        assert_eq!(warm, cold);

        // Control: a column the root never writes keeps the root replayable.
        let (root_replays, reuse, warm, cold) = rewalk_over(|created: &[Cube]| {
            let unwritten = Cube::from(CondId::new(MAX_CONDITIONS - 1).is_true());
            assert!(!created.contains(&unwritten));
            let mut seed = ScheduleTable::new();
            seed.set(stranger, unwritten, Time::ZERO);
            seed
        });
        assert!(root_replays);
        assert!(reuse.chains_replayed > 0);
        assert_eq!(warm, cold);
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
