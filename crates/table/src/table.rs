//! The schedule table produced by the merging algorithm.

use std::collections::HashMap;
use std::fmt;

use cpg::{Assignment, CondId, Cpg, Cube, ProcessId, Track, TrackSet};
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;

use crate::block::{bits, BlockFold, LabelBlock, ResolvedActivation};
use crate::error::TableViolation;
use crate::ChainLog;

/// One cell of the table: the activation time of a job under a column
/// expression, together with the resource the job occupied in the schedule
/// that tabled the time (its *provenance*).
///
/// The resource matters for condition broadcasts: their bus is chosen at
/// scheduling time, so a later adjustment that inherits the tabled activation
/// time as a lock must pin the broadcast to the bus recorded here rather than
/// re-deriving a track-local guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    time: Time,
    resource: Option<PeId>,
}

/// The activation of a job applicable under a complete condition
/// assignment, as resolved by [`ScheduleTable::activation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    /// The tabled activation time.
    pub time: Time,
    /// The column whose expression selects the time: the most specific
    /// satisfied column.
    pub column: Cube,
    /// The resource recorded with the most specific satisfied column that
    /// carries one.
    pub resource: Option<PeId>,
}

/// Keeps the time of the first satisfied entry in `time` and flags a later
/// satisfied entry carrying a different time.
#[inline]
fn note_time(time: &mut Option<Time>, conflict: &mut bool, cell: Cell) {
    match *time {
        None => *time = Some(cell.time),
        Some(existing) => *conflict |= existing != cell.time,
    }
}

/// Keeps in `best` the resource of the most specific satisfied column
/// carrying one, the lowest column index breaking ties — exactly what a
/// first-wins scan in column-insertion order selects.
#[inline]
fn note_resource(best: &mut Option<(usize, u32, PeId)>, key: u32, column: Cube, cell: Cell) {
    if let Some(pe) = cell.resource {
        let specificity = column.len();
        if best.is_none_or(|(len, at, _)| specificity > len || (specificity == len && key < at)) {
            *best = Some((specificity, key, pe));
        }
    }
}

/// Sentinel for "job has no row yet" in the dense per-job row index.
const ABSENT: u32 = u32::MAX;

/// Multiplier of the word mix behind [`ScheduleTable::row_digest`].
const DIGEST_K: u64 = 0x517c_c1b7_2722_0a95;

/// One step `h' = (rotl(h, 5) ^ word) * K` of the row digest. It is a
/// bijection of `h` for a fixed word and of the word for a fixed `h` (`K`
/// is odd).
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(DIGEST_K)
}

/// The digest term of one row entry: its column index and recorded
/// resource, its column cube and its time, mixed word by word.
#[inline]
fn entry_hash(index: u32, column: Cube, cell: Cell) -> u64 {
    let resource = cell.resource.map_or(0, |pe| pe.index() as u64 + 1);
    let h = mix(0, u64::from(index) | resource << 32);
    let h = mix(h, column.positive_mask());
    let h = mix(h, column.negative_mask());
    mix(h, cell.time.as_u64())
}

/// One row of the table: the job and its `(column index, column cube,
/// cell)` entries, sorted by column index (the table-wide insertion order
/// of the columns). The cube is stored inline so a scan never indirects
/// through the column list.
///
/// `digest_sum` is the wrapping sum of [`entry_hash`] over the entries,
/// kept up to date by every write and removal; it is a function of
/// `entries`, so the derived equality compares the row content only.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    job: Job,
    entries: Vec<(u32, Cube, Cell)>,
    digest_sum: u64,
}

impl Row {
    /// Position of the entry under column index `index` (`Err` is the
    /// insertion slot).
    #[inline]
    fn find(&self, index: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&index, |&(i, _, _)| i)
    }
}

/// The schedule table: one row per process (and per condition broadcast), one
/// column per conjunction of condition values, and in each cell the activation
/// time of the row's job when the column's expression holds.
///
/// The table is the artefact a distributed run-time scheduler executes: on
/// every processing element a trivial non-preemptive scheduler activates a
/// process at the tabled time as soon as the column expression is satisfied by
/// the condition values it has seen so far (Section 3 of the paper).
///
/// # Example
///
/// ```
/// use cpg::{Cube, CondId, ProcessId};
/// use cpg_arch::Time;
/// use cpg_path_sched::Job;
/// use cpg_table::ScheduleTable;
///
/// let mut table = ScheduleTable::new();
/// let p1 = Job::Process(ProcessId::from_index(1));
/// let c = CondId::new(0);
///
/// table.set(p1, Cube::top(), Time::new(0));
/// table.set(p1, Cube::from(c.is_true()), Time::new(5));
/// assert_eq!(table.get(p1, &Cube::top()), Some(Time::new(0)));
/// assert_eq!(table.num_columns(), 2);
/// assert_eq!(table.num_rows(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScheduleTable {
    columns: Vec<Cube>,
    /// Column cube -> its index in `columns`. Columns are only ever
    /// appended, so every lookup of a column by its cube is one hash probe.
    column_ids: HashMap<Cube, u32>,
    /// Rows sorted by [`Job`], so iteration order matches the old map-based
    /// representation; the dense indices below make row lookup O(1).
    rows: Vec<Row>,
    /// Process index -> position in `rows` ([`ABSENT`] when the process has
    /// no row), grown on demand. The merge algorithm resolves every
    /// `entries`/`entries_on` probe of its repair and locking loops through
    /// this index, so it is a dense array rather than a search.
    process_rows: Vec<u32>,
    /// Condition index -> position in `rows` of the condition's broadcast
    /// row, grown on demand.
    broadcast_rows: Vec<u32>,
}

// The column index is derived from `columns`, and the dense row indices from
// `rows` (their length additionally depends on the largest identifier ever
// probed), so equality compares the observable table content only.
impl PartialEq for ScheduleTable {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl Eq for ScheduleTable {}

impl ScheduleTable {
    /// Creates an empty schedule table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of columns (distinct condition-value expressions).
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows (jobs with at least one activation time).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total number of activation times stored in the table.
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.rows.iter().map(|row| row.entries.len()).sum()
    }

    /// `true` when the table holds no activation time at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column expressions, in insertion order.
    #[must_use]
    pub fn columns(&self) -> &[Cube] {
        &self.columns
    }

    /// Iterates over the rows (jobs) of the table, in ascending [`Job`]
    /// order.
    pub fn jobs(&self) -> impl Iterator<Item = Job> + '_ {
        self.rows.iter().map(|row| row.job)
    }

    /// The position of the row of `job` in the dense index, if the job has
    /// one.
    #[inline]
    fn row_position(&self, job: Job) -> Option<usize> {
        let (index, slot) = match job {
            Job::Process(pid) => (&self.process_rows, pid.index()),
            Job::Broadcast(cond) => (&self.broadcast_rows, cond.index()),
        };
        index
            .get(slot)
            .copied()
            .filter(|&position| position != ABSENT)
            .map(|position| position as usize)
    }

    #[inline]
    fn row(&self, job: Job) -> Option<&Row> {
        self.row_position(job).map(|position| &self.rows[position])
    }

    /// Points the dense index entry of `job` at `position` (growing the
    /// index when the identifier is larger than anything seen so far).
    fn index_row(&mut self, job: Job, position: u32) {
        let (index, slot) = match job {
            Job::Process(pid) => (&mut self.process_rows, pid.index()),
            Job::Broadcast(cond) => (&mut self.broadcast_rows, cond.index()),
        };
        if index.len() <= slot {
            index.resize(slot + 1, ABSENT);
        }
        index[slot] = position;
    }

    /// The position of the row of `job`, inserting an empty row (keeping
    /// `rows` sorted by job and the dense indices consistent) when absent.
    fn row_position_or_insert(&mut self, job: Job) -> usize {
        if let Some(position) = self.row_position(job) {
            return position;
        }
        let position = self.rows.partition_point(|row| row.job < job);
        self.rows.insert(
            position,
            Row {
                job,
                entries: Vec::new(),
                digest_sum: 0,
            },
        );
        // Rows after the insertion point shifted by one; re-point their
        // index entries. Rows are inserted once per job, so this stays cheap.
        for shifted in position..self.rows.len() {
            let shifted_job = self.rows[shifted].job;
            self.index_row(shifted_job, shifted as u32);
        }
        position
    }

    /// Records the activation time of `job` in the column headed by `column`,
    /// creating the column when it does not exist yet, without resource
    /// provenance. Returns the previously stored time for that cell, if any.
    ///
    /// Tables consumed by the merge/dispatch pipeline should prefer
    /// [`ScheduleTable::set_on`], which records the resource the job occupied
    /// when the time was tabled.
    pub fn set(&mut self, job: Job, column: Cube, time: Time) -> Option<Time> {
        self.set_on(job, column, time, None)
    }

    /// Records the activation time of `job` in the column headed by `column`
    /// together with the resource the job occupied in the schedule that
    /// produced the time (`None` for dummy jobs, which consume no resource).
    /// Creates the column when it does not exist yet and returns the
    /// previously stored time for that cell, if any.
    #[inline]
    pub fn set_on(
        &mut self,
        job: Job,
        column: Cube,
        time: Time,
        resource: Option<PeId>,
    ) -> Option<Time> {
        let index = self.column_index_or_insert(column);
        let position = self.row_position_or_insert(job);
        self.write_cell(position, index, column, Cell { time, resource })
            .map(|cell| cell.time)
    }

    /// Writes `cell` into the row at `position` under the column at table
    /// index `index` (headed by `column`), keeping the entry list sorted and
    /// the row's digest sum current. Returns the replaced cell, if the write
    /// overwrote one.
    #[inline]
    fn write_cell(
        &mut self,
        position: usize,
        index: u32,
        column: Cube,
        cell: Cell,
    ) -> Option<Cell> {
        let row = &mut self.rows[position];
        let added = entry_hash(index, column, cell);
        match row.find(index) {
            Ok(at) => {
                let previous = std::mem::replace(&mut row.entries[at].2, cell);
                row.digest_sum = row
                    .digest_sum
                    .wrapping_sub(entry_hash(index, column, previous))
                    .wrapping_add(added);
                Some(previous)
            }
            Err(at) => {
                row.entries.insert(at, (index, column, cell));
                row.digest_sum = row.digest_sum.wrapping_add(added);
                None
            }
        }
    }

    /// Grafts a column into the table: returns the insertion-order index of
    /// the column headed by `column`, appending a fresh column past the
    /// current column count when the cube is not tabled yet.
    ///
    /// This is the renumbering primitive behind
    /// [`splice_log`](ScheduleTable::splice_log): a retained column keeps its
    /// index, a column the recorded chain created is appended at the next
    /// free index, and because logs replay in their original write order
    /// the relative order of spliced columns — and hence the serial entry
    /// order inside every row — is preserved.
    pub fn graft_column(&mut self, column: Cube) -> usize {
        self.column_index_or_insert(column) as usize
    }

    /// Replays the writes of a recorded chain ([`ChainLog`]) in write order,
    /// each column grafted by [`graft_column`](ScheduleTable::graft_column).
    ///
    /// Observably identical to the [`ScheduleTable::set_on`] calls the
    /// chain made while it was recorded, one per write in order.
    pub fn splice_log(&mut self, log: &ChainLog) {
        for write in &log.writes {
            self.set_on(write.job, write.column, write.time, write.resource);
        }
    }

    /// Removes the activation time of `job` in the column headed by `column`,
    /// returning it if it was present.
    pub fn remove(&mut self, job: Job, column: &Cube) -> Option<Time> {
        let index = self.column_index(column)?;
        let position = self.row_position(job)?;
        let row = &mut self.rows[position];
        let at = row.find(index).ok()?;
        let (_, _, cell) = row.entries.remove(at);
        row.digest_sum = row
            .digest_sum
            .wrapping_sub(entry_hash(index, *column, cell));
        if row.entries.is_empty() {
            self.rows.remove(position);
            self.index_row(job, ABSENT);
            for shifted in position..self.rows.len() {
                let shifted_job = self.rows[shifted].job;
                self.index_row(shifted_job, shifted as u32);
            }
        }
        Some(cell.time)
    }

    /// The cell of `job` under the exact column index, if present.
    #[inline]
    fn cell(&self, job: Job, index: u32) -> Option<&Cell> {
        let row = self.row(job)?;
        let at = row.find(index).ok()?;
        Some(&row.entries[at].2)
    }

    /// The activation time of `job` in the column headed exactly by `column`.
    #[must_use]
    #[inline]
    pub fn get(&self, job: Job, column: &Cube) -> Option<Time> {
        let index = self.column_index(column)?;
        self.cell(job, index).map(|cell| cell.time)
    }

    /// The resource recorded for `job` in the column headed exactly by
    /// `column`, when the cell exists and carries provenance.
    #[must_use]
    #[inline]
    pub fn resource(&self, job: Job, column: &Cube) -> Option<PeId> {
        let index = self.column_index(column)?;
        self.cell(job, index).and_then(|cell| cell.resource)
    }

    /// Iterates over the `(column, activation time)` entries of a row.
    pub fn entries(&self, job: Job) -> impl Iterator<Item = (Cube, Time)> + '_ {
        self.entries_on(job).map(|(column, time, _)| (column, time))
    }

    /// Iterates over the `(column, activation time, recorded resource)`
    /// entries of a row. The row is resolved through the dense per-job
    /// index, so probing a job is O(1) plus the iteration itself.
    pub fn entries_on(&self, job: Job) -> impl Iterator<Item = (Cube, Time, Option<PeId>)> + '_ {
        self.row(job).into_iter().flat_map(move |row| {
            row.entries
                .iter()
                .map(|&(_, column, cell)| (column, cell.time, cell.resource))
        })
    }

    /// Iterates over every `(job, column, time)` entry of the table.
    pub fn all_entries(&self) -> impl Iterator<Item = (Job, Cube, Time)> + '_ {
        self.all_entries_on()
            .map(|(job, column, time, _)| (job, column, time))
    }

    /// Iterates over every `(job, column, time, recorded resource)` entry of
    /// the table.
    pub fn all_entries_on(&self) -> impl Iterator<Item = (Job, Cube, Time, Option<PeId>)> + '_ {
        self.rows.iter().flat_map(move |row| {
            row.entries
                .iter()
                .map(move |&(_, column, cell)| (row.job, column, cell.time, cell.resource))
        })
    }

    /// `true` when the row for `job` contains at least one activation time.
    #[must_use]
    pub fn contains_job(&self, job: Job) -> bool {
        self.row_position(job).is_some()
    }

    /// The entries of a row that are *compatible* with (not excluded by) the
    /// given column expression — the potential conflicts examined by the
    /// table-generation algorithm before placing a new activation time —
    /// in column insertion order.
    pub fn compatible_entries<'a>(
        &'a self,
        job: Job,
        column: &'a Cube,
    ) -> impl Iterator<Item = (Cube, Time)> + 'a {
        self.row(job).into_iter().flat_map(move |row| {
            row.entries
                .iter()
                .filter(move |(_, existing, _)| existing.compatible(column))
                .map(|&(_, existing, cell)| (existing, cell.time))
        })
    }

    /// Calls `visit(column index, column, cell)` for every entry of `row`
    /// whose column is satisfied by a complete condition assignment, in
    /// column insertion order.
    #[inline]
    fn for_each_satisfied(
        row: &Row,
        assignment: &Assignment,
        mut visit: impl FnMut(u32, Cube, Cell),
    ) {
        for &(key, column, cell) in &row.entries {
            if column.satisfied_by(assignment) {
                visit(key, column, cell);
            }
        }
    }

    /// The activation time applicable during an execution described by a
    /// complete condition assignment: the entry of the row whose column
    /// expression is satisfied by the assignment.
    ///
    /// When the table satisfies requirement 2 the applicable time is unique;
    /// if several satisfied columns carry *different* times, `None` is
    /// returned (callers that need to diagnose this use
    /// [`ScheduleTable::verify`]).
    #[must_use]
    pub fn activation_time(&self, job: Job, assignment: &Assignment) -> Option<Time> {
        let mut time = None;
        let mut conflict = false;
        Self::for_each_satisfied(self.row(job)?, assignment, |_, _, cell| {
            note_time(&mut time, &mut conflict, cell);
        });
        time.filter(|_| !conflict)
    }

    /// The resource recorded for the activation of `job` applicable during an
    /// execution described by a complete condition assignment: the provenance
    /// of the most specific satisfied column that carries one.
    ///
    /// This is the bus a locked condition broadcast must occupy when the
    /// tabled time is enforced on another path's schedule, and the resource
    /// the dispatcher/simulator charge the activation to.
    #[must_use]
    pub fn activation_resource(&self, job: Job, assignment: &Assignment) -> Option<PeId> {
        let mut best = None;
        Self::for_each_satisfied(self.row(job)?, assignment, |key, column, cell| {
            note_resource(&mut best, key, column, cell);
        });
        best.map(|(_, _, pe)| pe)
    }

    /// Everything a run-time scheduler needs about the activation of `job`
    /// during an execution described by a complete condition assignment,
    /// resolved in one pass over the row: the time of
    /// [`ScheduleTable::activation_time`] (`None` exactly when that is), the
    /// column that selects it and the resource of
    /// [`ScheduleTable::activation_resource`].
    ///
    /// The selecting column is the most specific satisfied column; among
    /// equally specific ones, the last in column-insertion order.
    #[must_use]
    pub fn activation(&self, job: Job, assignment: &Assignment) -> Option<Activation> {
        let mut time: Option<Time> = None;
        let mut conflict = false;
        let mut column: Option<(usize, u32, Cube)> = None;
        let mut resource = None;
        Self::for_each_satisfied(self.row(job)?, assignment, |key, satisfied, cell| {
            note_time(&mut time, &mut conflict, cell);
            let specificity = satisfied.len();
            if column.is_none_or(|(len, at, _)| (specificity, key) > (len, at)) {
                column = Some((specificity, key, satisfied));
            }
            note_resource(&mut resource, key, satisfied, cell);
        });
        let (_, _, column) = column?;
        Some(Activation {
            time: time.filter(|_| !conflict)?,
            column,
            resource: resource.map(|(_, _, pe)| pe),
        })
    }

    /// [`ScheduleTable::activation`] of `job` on every label of `block`
    /// whose bit is set in `wanted`, resolved in one pass over the row.
    ///
    /// Writes `out[t]` for every label `t` of `wanted` (the column held by
    /// its index in [`ScheduleTable::columns`]) and leaves the other slots
    /// untouched. Returns the mask of the labels of `wanted` the table
    /// activates the job on. Each entry costs one
    /// [`LabelBlock::satisfying`] test plus one fold step per satisfied
    /// wanted label, so a block of labels pays for one row scan instead of
    /// one per label.
    ///
    /// # Panics
    ///
    /// Panics when `out` has no slot for some label of `wanted`.
    // lint: hot-path
    pub fn resolve_block(
        &self,
        job: Job,
        block: &LabelBlock,
        wanted: u64,
        out: &mut [ResolvedActivation],
    ) -> u64 {
        let mut fold = BlockFold::new(out);
        if let Some(row) = self.row(job).filter(|_| wanted != 0) {
            for &(key, column, cell) in &row.entries {
                let labels = block.satisfying(&column) & wanted;
                if labels != 0 {
                    fold.note(labels, key, &column, cell.time, cell.resource);
                }
            }
        }
        fold.finish(wanted)
    }

    /// The activation time applicable on the alternative path labelled
    /// `label` (shorthand for [`ScheduleTable::activation_time`] with the
    /// label converted to an assignment).
    #[must_use]
    pub fn activation_on_track(&self, job: Job, label: &Cube) -> Option<Time> {
        self.activation_time(job, &Assignment::from_cube(label))
    }

    /// The delay of the system on the alternative path labelled `label`: the
    /// latest completion time (activation + execution) over every process
    /// activated on that path according to this table.
    #[must_use]
    pub fn track_delay(&self, cpg: &Cpg, label: &Cube) -> Time {
        let assignment = Assignment::from_cube(label);
        let mut delay = Time::ZERO;
        for job in self.jobs() {
            let Job::Process(pid) = job else { continue };
            if !cpg.guard(pid).implied_by(label) {
                continue;
            }
            if let Some(start) = self.activation_time(job, &assignment) {
                delay = delay.max(start + cpg.exec_time(pid));
            }
        }
        delay
    }

    /// The worst-case delay `δ_max` guaranteed by this table: the maximum of
    /// [`ScheduleTable::track_delay`] over every alternative path.
    ///
    /// Evaluated one [`LabelBlock`] of tracks at a time: each process row is
    /// resolved once per block over the labels on which its guard holds.
    #[must_use]
    pub fn worst_case_delay(&self, cpg: &Cpg, tracks: &TrackSet) -> Time {
        let mut resolved = [ResolvedActivation::NONE; LabelBlock::WIDTH];
        let mut delay = Time::ZERO;
        for chunk in tracks.tracks().chunks(LabelBlock::WIDTH) {
            let labels: Vec<Cube> = chunk.iter().map(Track::label).collect();
            let block = LabelBlock::new(&labels);
            for job in self.jobs() {
                let Job::Process(pid) = job else { continue };
                let holds = block.holding(cpg.guard(pid));
                for t in bits(self.resolve_block(job, &block, holds, &mut resolved)) {
                    delay = delay.max(resolved[t].time + cpg.exec_time(pid));
                }
            }
        }
        delay
    }

    /// Checks the table against requirements 1–3 of Section 3 of the paper:
    ///
    /// 1. every activation time sits in a column that implies the guard of
    ///    its process;
    /// 2. alternative activation times of the same process sit in mutually
    ///    exclusive columns;
    /// 3. every process receives an activation time on every alternative path
    ///    on which its guard holds.
    ///
    /// Requirement 4 (activation decisions use only condition values already
    /// known on the local processing element) is about the run-time behaviour
    /// of the table and is checked by the simulator of the `cpg-sim` crate.
    ///
    /// # Errors
    ///
    /// Returns every violation found (empty result means the table is
    /// correct).
    pub fn verify(&self, cpg: &Cpg, tracks: &TrackSet) -> Result<(), Vec<TableViolation>> {
        let mut violations = Vec::new();

        // Requirement 1 + sanity of row keys.
        for (job, column, _) in self.all_entries() {
            let guard = match job {
                Job::Process(pid) => {
                    if pid.index() >= cpg.len() {
                        violations.push(TableViolation::UnknownJob { job });
                        continue;
                    }
                    cpg.guard(pid)
                }
                Job::Broadcast(cond) => {
                    if cond.index() >= cpg.num_conditions() {
                        violations.push(TableViolation::UnknownJob { job });
                        continue;
                    }
                    cpg.guard(cpg.disjunction_of(cond))
                }
            };
            if !guard.implied_by(&column) {
                violations.push(TableViolation::GuardViolated { job, column });
            }
        }

        // Requirement 2.
        let mut entries: Vec<(Cube, Time)> = Vec::new();
        for job in self.jobs() {
            entries.clear();
            entries.extend(self.entries(job));
            for (i, &(first, first_time)) in entries.iter().enumerate() {
                for &(second, second_time) in entries.iter().skip(i + 1) {
                    if first_time != second_time && first.compatible(&second) {
                        violations.push(TableViolation::Nondeterministic {
                            job,
                            first,
                            second,
                            first_time,
                            second_time,
                        });
                    }
                }
            }
        }

        // Requirement 3, one block of tracks at a time: per job slot (the
        // processes, then one broadcast slot per condition), the mask of the
        // labels that need an activation, narrowed by one row pass to those
        // missing one; then each track reports in track order.
        let broadcast_slot = |cond: CondId| cpg.len() + cond.index();
        let job_of = |slot: usize| match slot.checked_sub(cpg.len()) {
            None => Job::Process(ProcessId::from_index(slot)),
            Some(cond) => Job::Broadcast(CondId::new(cond)),
        };
        let mut missing: Vec<u64> = vec![0; cpg.len() + cpg.num_conditions()];
        let mut resolved = [ResolvedActivation::NONE; LabelBlock::WIDTH];
        for chunk in tracks.tracks().chunks(LabelBlock::WIDTH) {
            let labels: Vec<Cube> = chunk.iter().map(Track::label).collect();
            let block = LabelBlock::new(&labels);
            missing.fill(0);
            for (t, track) in chunk.iter().enumerate() {
                for &pid in track.processes() {
                    if !cpg.process(pid).kind().is_dummy() {
                        missing[pid.index()] |= 1 << t;
                    }
                }
            }
            for cond in (0..cpg.num_conditions()).map(CondId::new) {
                if self.contains_job(Job::Broadcast(cond)) {
                    missing[broadcast_slot(cond)] = block.mentioning(cond);
                }
            }
            for (slot, mask) in missing.iter_mut().enumerate() {
                if *mask != 0 {
                    *mask &= !self.resolve_block(job_of(slot), &block, *mask, &mut resolved);
                }
            }
            for (t, track) in chunk.iter().enumerate() {
                let processes = track.processes().iter().map(|pid| pid.index());
                let broadcasts = track.determined_conditions().map(broadcast_slot);
                for slot in processes.chain(broadcasts) {
                    if missing[slot] & (1 << t) != 0 {
                        violations.push(TableViolation::MissingActivation {
                            job: job_of(slot),
                            track: track.label(),
                        });
                    }
                }
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Renders the table in the style of the paper's Table 1: one row per
    /// job, one column per condition expression (named with the graph's
    /// condition names), cells holding activation times.
    #[must_use]
    pub fn render(&self, cpg: &Cpg) -> String {
        let mut columns: Vec<(usize, &Cube)> = self.columns.iter().enumerate().collect();
        columns.sort_by_key(|(_, cube)| (cube.len(), format!("{cube}")));

        let job_name = |job: Job| -> String {
            match job {
                Job::Process(pid) => cpg.process(pid).name().to_owned(),
                Job::Broadcast(cond) => format!("{} (broadcast)", cpg.condition_name(cond)),
            }
        };

        let mut header = vec!["process".to_owned()];
        header.extend(columns.iter().map(|(_, cube)| cpg.display_cube(cube)));
        let mut table_rows: Vec<Vec<String>> = vec![header];

        // Ordinary and communication processes first (by id), then broadcasts.
        let mut jobs: Vec<Job> = self.jobs().collect();
        jobs.sort_by_key(|job| match job {
            Job::Process(pid) => (0, pid.index()),
            Job::Broadcast(cond) => (1, cond.index()),
        });
        for job in jobs {
            let mut row = vec![job_name(job)];
            for &(index, _) in &columns {
                let cell = self
                    .cell(job, index as u32)
                    .map_or(String::new(), |cell| cell.time.to_string());
                row.push(cell);
            }
            table_rows.push(row);
        }

        // Column widths.
        let width: Vec<usize> = (0..table_rows[0].len())
            .map(|c| table_rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in table_rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{cell:>width$}", width = width[c]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
            if i == 0 {
                let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("-+-"));
                out.push('\n');
            }
        }
        out
    }

    /// The insertion-order index of `column`, if the table has that column.
    #[inline]
    pub(crate) fn column_index(&self, column: &Cube) -> Option<u32> {
        self.column_ids.get(column).copied()
    }

    /// Word-level digest of the row of `job`: its entry count and the
    /// column index, column cube, time and resource of every entry —
    /// everything a scan of the row can observe. An absent row digests like
    /// an empty one. O(1): the row keeps the sum of its entry terms current.
    ///
    /// The digest is `mix(mix(0, len), Σ entry_hash)` with a wrapping sum.
    /// Every step of [`mix`] is a bijection in each of its arguments, so two
    /// rows of equal length that differ in a single word of one entry have
    /// different entry terms, different sums and never collide.
    pub(crate) fn row_digest(&self, job: Job) -> u64 {
        self.row(job).map_or(0, |row| {
            mix(mix(0, row.entries.len() as u64), row.digest_sum)
        })
    }

    /// [`ScheduleTable::row_digest`] folded from the row's entries instead
    /// of read from its running sum.
    #[cfg(test)]
    fn folded_digest(&self, job: Job) -> u64 {
        self.row(job).map_or(0, |row| {
            let sum = row
                .entries
                .iter()
                .fold(0u64, |sum, &(index, column, cell)| {
                    sum.wrapping_add(entry_hash(index, column, cell))
                });
            mix(mix(0, row.entries.len() as u64), sum)
        })
    }

    /// Visits the entries of the row of `job` whose column is *compatible*
    /// with `probe`, in column insertion order, passing the table-wide
    /// column index as a stable key.
    // lint: hot-path
    #[inline]
    pub(crate) fn visit_compatible_entries(
        &self,
        job: Job,
        probe: &Cube,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        let Some(row) = self.row(job) else { return };
        for &(key, column, cell) in &row.entries {
            if column.compatible(probe) {
                visit(u64::from(key), column, cell.time, cell.resource);
            }
        }
    }

    /// Visits the entries of the row of `job` tabled at exactly `time`, in
    /// column insertion order, passing the table-wide column index as a
    /// stable key.
    // lint: hot-path
    #[inline]
    pub(crate) fn visit_entries_at(
        &self,
        job: Job,
        time: Time,
        visit: &mut dyn FnMut(u64, Cube, Option<PeId>),
    ) {
        let Some(row) = self.row(job) else { return };
        for &(key, column, cell) in &row.entries {
            if cell.time == time {
                visit(u64::from(key), column, cell.resource);
            }
        }
    }

    #[inline]
    fn column_index_or_insert(&mut self, column: Cube) -> u32 {
        let fresh = self.columns.len() as u32;
        let index = *self.column_ids.entry(column).or_insert(fresh);
        if index == fresh {
            self.columns.push(column);
        }
        index
    }
}

impl fmt::Display for ScheduleTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule table with {} rows, {} columns, {} entries",
            self.num_rows(),
            self.num_columns(),
            self.num_entries()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecordScratch, RecordingView};
    use cpg::{enumerate_tracks, examples, CondId, ProcessId};

    fn c(i: usize) -> CondId {
        CondId::new(i)
    }

    fn p(i: usize) -> Job {
        Job::Process(ProcessId::from_index(i))
    }

    #[test]
    fn set_get_remove_round_trip() {
        let mut table = ScheduleTable::new();
        assert!(table.is_empty());
        assert_eq!(table.set(p(1), Cube::top(), Time::new(0)), None);
        assert_eq!(
            table.set(p(1), Cube::top(), Time::new(2)),
            Some(Time::new(0))
        );
        assert_eq!(table.get(p(1), &Cube::top()), Some(Time::new(2)));
        assert_eq!(table.get(p(2), &Cube::top()), None);
        assert_eq!(table.remove(p(1), &Cube::top()), Some(Time::new(2)));
        assert!(table.is_empty());
        assert_eq!(table.remove(p(1), &Cube::top()), None);
    }

    #[test]
    fn columns_are_shared_between_rows() {
        let mut table = ScheduleTable::new();
        let col = Cube::from(c(0).is_true());
        table.set(p(1), col, Time::new(1));
        table.set(p(2), col, Time::new(2));
        table.set(p(2), Cube::top(), Time::new(0));
        assert_eq!(table.num_columns(), 2);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.num_entries(), 3);
        assert_eq!(table.entries(p(2)).count(), 2);
        assert_eq!(table.jobs().count(), 2);
        assert!(table.contains_job(p(1)));
        assert!(!table.contains_job(p(9)));
        assert!(table.to_string().contains("3 entries"));
    }

    #[test]
    fn cells_carry_resource_provenance() {
        use cpg_arch::PeId;
        let mut table = ScheduleTable::new();
        let bus1 = PeId::from_index(3);
        let b = Job::Broadcast(c(0));
        let col = Cube::from(c(1).is_true());
        assert_eq!(table.set_on(b, col, Time::new(4), Some(bus1)), None);
        assert_eq!(table.get(b, &col), Some(Time::new(4)));
        assert_eq!(table.resource(b, &col), Some(bus1));
        // `set` records no provenance.
        table.set(b, Cube::from(c(1).is_false()), Time::new(9));
        assert_eq!(table.resource(b, &Cube::from(c(1).is_false())), None);
        let on: Vec<_> = table.entries_on(b).collect();
        assert_eq!(on.len(), 2);
        assert!(on.contains(&(col, Time::new(4), Some(bus1))));
        assert_eq!(table.all_entries_on().count(), 2);
        // The applicable resource follows the satisfied column.
        let mut asg = Assignment::new();
        asg.assign(c(1), true);
        assert_eq!(table.activation_resource(b, &asg), Some(bus1));
        asg.assign(c(1), false);
        assert_eq!(table.activation_resource(b, &asg), None);
    }

    #[test]
    fn activation_time_selects_the_satisfied_column() {
        let mut table = ScheduleTable::new();
        let dck: Cube = [c(0).is_true(), c(1).is_true(), c(2).is_true()]
            .into_iter()
            .collect();
        let dck_not: Cube = [c(0).is_true(), c(1).is_true(), c(2).is_false()]
            .into_iter()
            .collect();
        table.set(p(14), dck, Time::new(24));
        table.set(p(14), dck_not, Time::new(35));

        let mut asg = Assignment::new();
        asg.assign(c(0), true);
        asg.assign(c(1), true);
        asg.assign(c(2), true);
        assert_eq!(table.activation_time(p(14), &asg), Some(Time::new(24)));
        asg.assign(c(2), false);
        assert_eq!(table.activation_time(p(14), &asg), Some(Time::new(35)));
        asg.assign(c(1), false);
        assert_eq!(table.activation_time(p(14), &asg), None);
    }

    #[test]
    fn ambiguous_activation_yields_none() {
        let mut table = ScheduleTable::new();
        table.set(p(3), Cube::from(c(0).is_true()), Time::new(5));
        table.set(p(3), Cube::from(c(1).is_true()), Time::new(9));
        let mut asg = Assignment::new();
        asg.assign(c(0), true);
        asg.assign(c(1), true);
        assert_eq!(table.activation_time(p(3), &asg), None);
        // Same time in compatible columns is fine.
        let mut table = ScheduleTable::new();
        table.set(p(3), Cube::from(c(0).is_true()), Time::new(5));
        table.set(p(3), Cube::from(c(1).is_true()), Time::new(5));
        assert_eq!(table.activation_time(p(3), &asg), Some(Time::new(5)));
    }

    #[test]
    fn compatible_entries_reports_potential_conflicts() {
        let mut table = ScheduleTable::new();
        let d = Cube::from(c(1).is_true());
        let not_d = Cube::from(c(1).is_false());
        table.set(p(5), d, Time::new(3));
        table.set(p(5), not_d, Time::new(8));
        let probe = Cube::from(c(0).is_true());
        let conflicts: Vec<_> = table.compatible_entries(p(5), &probe).collect();
        assert_eq!(conflicts.len(), 2);
        let probe: Cube = [c(0).is_true(), c(1).is_true()].into_iter().collect();
        let conflicts: Vec<_> = table.compatible_entries(p(5), &probe).collect();
        assert_eq!(conflicts, vec![(d, Time::new(3))]);
    }

    #[test]
    fn verify_detects_guard_and_determinism_violations() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let cond = system.condition("C").unwrap();
        let hot = cpg.process_by_name("hot").unwrap();

        // Guard violation: `hot` (guard C) activated unconditionally.
        let mut table = ScheduleTable::new();
        table.set(Job::Process(hot), Cube::top(), Time::new(0));
        let violations = table.verify(cpg, &tracks).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, TableViolation::GuardViolated { .. })));

        // Determinism violation: two different times in compatible columns.
        let decide = cpg.process_by_name("decide").unwrap();
        let mut table = ScheduleTable::new();
        table.set(Job::Process(decide), Cube::top(), Time::new(0));
        table.set(
            Job::Process(decide),
            Cube::from(cond.is_true()),
            Time::new(4),
        );
        let violations = table.verify(cpg, &tracks).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, TableViolation::Nondeterministic { .. })));
    }

    #[test]
    fn verify_detects_missing_activations() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let table = ScheduleTable::new();
        let violations = table.verify(cpg, &tracks).unwrap_err();
        // Every schedulable process of every track is missing.
        assert!(violations
            .iter()
            .all(|v| matches!(v, TableViolation::MissingActivation { .. })));
        assert!(!violations.is_empty());
    }

    #[test]
    fn verify_accepts_a_complete_consistent_table() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let cond = system.condition("C").unwrap();
        let mut table = ScheduleTable::new();
        // Hand-written consistent table for the diamond example.
        for track in tracks.iter() {
            for &pid in track.processes() {
                if cpg.process(pid).kind().is_dummy() {
                    continue;
                }
                let column = if cpg.guard(pid).is_true() {
                    Cube::top()
                } else {
                    track.label()
                };
                // Use deterministic times: same process, same time everywhere.
                table.set(Job::Process(pid), column, Time::new(pid.index() as u64));
            }
        }
        table.verify(cpg, &tracks).unwrap();
        let delay = table.worst_case_delay(cpg, &tracks);
        assert!(delay > Time::ZERO);
        let _ = cond;
    }

    #[test]
    fn track_delay_uses_execution_times() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let decide = cpg.process_by_name("decide").unwrap();
        let mut table = ScheduleTable::new();
        table.set(Job::Process(decide), Cube::top(), Time::new(10));
        let label = tracks.tracks()[0].label();
        // decide takes 2 time units.
        assert_eq!(table.track_delay(cpg, &label), Time::new(12));
    }

    #[test]
    fn render_contains_headers_rows_and_times() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let cond = system.condition("C").unwrap();
        let decide = cpg.process_by_name("decide").unwrap();
        let hot = cpg.process_by_name("hot").unwrap();
        let mut table = ScheduleTable::new();
        table.set(Job::Process(decide), Cube::top(), Time::new(0));
        table.set(Job::Process(hot), Cube::from(cond.is_true()), Time::new(3));
        table.set(Job::Broadcast(cond), Cube::top(), Time::new(2));
        let rendered = table.render(cpg);
        assert!(rendered.contains("true"));
        assert!(rendered.contains('C'));
        assert!(rendered.contains("decide"));
        assert!(rendered.contains("hot"));
        assert!(rendered.contains("C (broadcast)"));
        assert!(rendered.contains('3'));
    }

    #[test]
    fn unknown_jobs_are_reported() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let mut table = ScheduleTable::new();
        table.set(p(999), Cube::top(), Time::new(0));
        let violations = table.verify(cpg, &tracks).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, TableViolation::UnknownJob { .. })));
    }

    /// The running digest of every row equals the digest folded from the
    /// row's entries.
    fn digests_are_current(table: &ScheduleTable) -> bool {
        (0..PROCS).all(|i| table.row_digest(p(i)) == table.folded_digest(p(i)))
    }

    const PROCS: usize = 4;

    /// `(process, cube choices over three conditions, time, resource)`.
    type RawWrite = (usize, Vec<Option<bool>>, u64, usize);

    fn raw_write() -> impl proptest::Strategy<Value = RawWrite> {
        (
            0..PROCS,
            proptest::collection::vec(proptest::any::<Option<bool>>(), 3),
            0u64..6,
            0usize..3,
        )
    }

    fn decode(
        &(process, ref choices, time, resource): &RawWrite,
    ) -> (Job, Cube, Time, Option<PeId>) {
        let cube = choices
            .iter()
            .enumerate()
            .filter_map(|(i, value)| value.map(|value| c(i).literal(value)))
            .collect();
        let resource = (resource < 2).then(|| PeId::from_index(resource));
        (p(process), cube, Time::new(time), resource)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 128,
            max_shrink_iters: 0,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn running_digest_matches_the_fold_after_any_edit_sequence(
            ops in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(raw_write(), 1..4)),
                0..40,
            ),
        ) {
            let mut table = ScheduleTable::new();
            for (kind, writes) in &ops {
                let (job, column, time, resource) = decode(&writes[0]);
                match kind {
                    // A plain write: a fresh entry or an overwrite.
                    0 => {
                        table.set_on(job, column, time, resource);
                    }
                    // An overwrite of an existing entry with a new cell.
                    1 => {
                        let existing = table.entries(job).nth(writes.len() - 1);
                        if let Some((column, old)) = existing {
                            table.set_on(job, column, old + Time::new(1), resource);
                        }
                    }
                    2 => {
                        let existing = table.entries(job).next().map(|(column, _)| column);
                        table.remove(job, &existing.unwrap_or(column));
                    }
                    // A recorded chain spliced into the table it started from.
                    _ => {
                        let mut recorded = table.clone();
                        let mut view = RecordingView::new(&mut recorded, RecordScratch::default());
                        for write in writes {
                            let (job, column, time, resource) = decode(write);
                            view.set_on(job, column, time, resource);
                        }
                        let (log, _) = view.finish();
                        table.splice_log(&log);
                        proptest::prop_assert_eq!(&table, &recorded);
                    }
                }
                proptest::prop_assert!(digests_are_current(&table));
            }
        }
    }

    /// The hashed column index maps every column, and nothing else, to its
    /// position in the column list.
    fn column_index_is_current(table: &ScheduleTable) -> bool {
        table.column_ids.len() == table.columns.len()
            && table
                .columns
                .iter()
                .enumerate()
                .all(|(i, column)| table.column_index(column) == Some(i as u32))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 128,
            max_shrink_iters: 0,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn column_index_matches_the_column_list_after_any_edit_sequence(
            ops in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(raw_write(), 1..4)),
                0..40,
            ),
        ) {
            let mut table = ScheduleTable::new();
            for (kind, writes) in &ops {
                let (job, column, time, resource) = decode(&writes[0]);
                match kind {
                    0 => {
                        table.set_on(job, column, time, resource);
                    }
                    1 => {
                        let index = table.graft_column(column);
                        proptest::prop_assert_eq!(table.columns()[index], column);
                    }
                    2 => {
                        let existing = table.entries(job).next().map(|(column, _)| column);
                        table.remove(job, &existing.unwrap_or(column));
                    }
                    _ => {
                        let mut recorded = table.clone();
                        let mut view = RecordingView::new(&mut recorded, RecordScratch::default());
                        for write in writes {
                            let (job, column, time, resource) = decode(write);
                            view.set_on(job, column, time, resource);
                        }
                        let (log, _) = view.finish();
                        table.splice_log(&log);
                        proptest::prop_assert!(column_index_is_current(&recorded));
                    }
                }
                proptest::prop_assert!(column_index_is_current(&table));
            }
            // The index is derived data: a clone carries a current index and
            // compares equal, and so does a table that reaches the same
            // columns and rows with every column grafted up front.
            let copy = table.clone();
            proptest::prop_assert!(column_index_is_current(&copy));
            proptest::prop_assert_eq!(&copy, &table);
            let mut rebuilt = ScheduleTable::new();
            for &column in table.columns() {
                rebuilt.graft_column(column);
            }
            for (job, column, time, resource) in table.all_entries_on() {
                rebuilt.set_on(job, column, time, resource);
            }
            proptest::prop_assert!(column_index_is_current(&rebuilt));
            proptest::prop_assert_eq!(&rebuilt, &table);
        }
    }

    #[test]
    fn changing_one_entry_changes_the_digest_and_restoring_it_restores_it() {
        let bus = |i| Some(PeId::from_index(i));
        let (col0, col1) = (Cube::from(c(0).is_true()), Cube::from(c(0).is_false()));
        let mut table = ScheduleTable::new();
        table.set_on(p(1), Cube::top(), Time::new(2), bus(0));
        table.set_on(p(1), col0, Time::new(5), bus(1));
        let original = table.row_digest(p(1));
        assert_ne!(original, 0);

        // Time, then resource, of one entry.
        table.set_on(p(1), col0, Time::new(6), bus(1));
        assert_ne!(table.row_digest(p(1)), original);
        table.set_on(p(1), col0, Time::new(5), bus(1));
        assert_eq!(table.row_digest(p(1)), original);
        table.set_on(p(1), col0, Time::new(5), bus(0));
        assert_ne!(table.row_digest(p(1)), original);
        table.set_on(p(1), col0, Time::new(5), None);
        assert_ne!(table.row_digest(p(1)), original);
        table.set_on(p(1), col0, Time::new(5), bus(1));
        assert_eq!(table.row_digest(p(1)), original);

        // One entry added, then removed.
        table.set_on(p(1), col1, Time::new(5), bus(1));
        assert_ne!(table.row_digest(p(1)), original);
        assert_eq!(table.remove(p(1), &col1), Some(Time::new(5)));
        assert_eq!(table.row_digest(p(1)), original);

        // One entry removed, then restored.
        table.remove(p(1), &Cube::top());
        assert_ne!(table.row_digest(p(1)), original);
        table.set_on(p(1), Cube::top(), Time::new(2), bus(0));
        assert_eq!(table.row_digest(p(1)), original);

        // A removed row digests like an absent one; the digests stay folds.
        table.remove(p(1), &Cube::top());
        table.remove(p(1), &col0);
        assert_eq!(table.row_digest(p(1)), 0);
        assert!(digests_are_current(&table));
    }
}
