//! The schedule table produced by the merging algorithm.

use std::collections::HashMap;
use std::fmt;

use cpg::{CondId, Cpg, Cube, ProcessId, Track, TrackSet};
use cpg_arch::{PeId, Time};
use cpg_path_sched::{Job, JobSlots};

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

/// The activation of a job applicable on an alternative path (a complete
/// condition assignment), as resolved by [`ScheduleTable::activation`].
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

/// One row of the table: the `(column index, column cube, cell)` entries
/// of one job, sorted by column index (the table-wide insertion order of
/// the columns). The cube is stored inline so a scan never indirects
/// through the column list. A row without entries is an absent row.
///
/// `digest_sum` is the wrapping sum of [`entry_hash`] over the entries,
/// kept up to date by every write and removal; it is a function of
/// `entries`, so the derived equality compares the row content only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Row {
    entries: Vec<(u32, Cube, Cell)>,
    digest_sum: u64,
}

/// The row every absent job reads as.
static EMPTY_ROW: Row = Row {
    entries: Vec::new(),
    digest_sum: 0,
};

impl Row {
    /// The `(column index, column, time, recorded resource)` entries, in
    /// column-insertion order.
    #[inline]
    fn keyed(&self) -> impl Iterator<Item = (u32, Cube, Time, Option<PeId>)> + '_ {
        self.entries
            .iter()
            .map(|&(key, column, cell)| (key, column, cell.time, cell.resource))
    }

    /// Position of the entry under column index `index` (`Err` is the
    /// insertion slot).
    #[inline]
    fn find(&self, index: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&index, |&(i, _, _)| i)
    }

    /// Writes `cell` under the column at table index `index` (headed by
    /// `column`), keeping the entries sorted and the digest sum current.
    /// Returns the replaced cell, if the write overwrote one.
    #[inline]
    fn write(&mut self, index: u32, column: Cube, cell: Cell) -> Option<Cell> {
        let added = entry_hash(index, column, cell);
        match self.find(index) {
            Ok(at) => {
                let previous = std::mem::replace(&mut self.entries[at].2, cell);
                self.digest_sum = self
                    .digest_sum
                    .wrapping_sub(entry_hash(index, column, previous))
                    .wrapping_add(added);
                Some(previous)
            }
            Err(at) => {
                self.entries.insert(at, (index, column, cell));
                self.digest_sum = self.digest_sum.wrapping_add(added);
                None
            }
        }
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
/// The table is built without a graph, so it keeps its rows in two vectors
/// indexed by process and by condition index, grown on demand; a row without
/// entries is an absent row. Rows are listed in ascending [`Job`] order:
/// the process rows, then the broadcast rows.
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
    /// By process index, the row of the process, grown on demand. The merge
    /// algorithm probes rows in every repair and locking loop, so a row is
    /// one array read away.
    process_rows: Vec<Row>,
    /// By condition index, the row of the condition's broadcast, grown on
    /// demand.
    broadcast_rows: Vec<Row>,
}

// The column index is derived from `columns`, and the row vectors' lengths
// from the largest identifier ever written, so equality compares the
// columns and the non-empty rows: the observable table content only.
impl PartialEq for ScheduleTable {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows().eq(other.rows())
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
        self.rows().count()
    }

    /// Total number of activation times stored in the table.
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.rows().map(|(_, row)| row.entries.len()).sum()
    }

    /// `true` when the table holds no activation time at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows().next().is_none()
    }

    /// The column expressions, in insertion order.
    #[must_use]
    pub fn columns(&self) -> &[Cube] {
        &self.columns
    }

    /// Iterates over the rows (jobs) of the table, in ascending [`Job`]
    /// order.
    pub fn jobs(&self) -> impl Iterator<Item = Job> + '_ {
        self.rows().map(|(job, _)| job)
    }

    /// The non-empty rows with their jobs, in ascending [`Job`] order: the
    /// process rows, then the broadcast rows.
    fn rows(&self) -> impl Iterator<Item = (Job, &Row)> + '_ {
        let processes = self.process_rows.iter().enumerate();
        let processes = processes.map(|(i, row)| (Job::Process(ProcessId::from_index(i)), row));
        let broadcasts = self.broadcast_rows.iter().enumerate();
        let broadcasts = broadcasts.map(|(i, row)| (Job::Broadcast(CondId::new(i)), row));
        processes
            .chain(broadcasts)
            .filter(|(_, row)| !row.entries.is_empty())
    }

    /// The row of `job`, if it holds an entry.
    #[inline]
    fn row(&self, job: Job) -> Option<&Row> {
        match job {
            Job::Process(pid) => self.process_rows.get(pid.index()),
            Job::Broadcast(cond) => self.broadcast_rows.get(cond.index()),
        }
        .filter(|row| !row.entries.is_empty())
    }

    /// The row vector of `job`'s kind and the job's index in it.
    #[inline]
    fn rows_of(&mut self, job: Job) -> (&mut Vec<Row>, usize) {
        match job {
            Job::Process(pid) => (&mut self.process_rows, pid.index()),
            Job::Broadcast(cond) => (&mut self.broadcast_rows, cond.index()),
        }
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
        let (rows, at) = self.rows_of(job);
        if rows.len() <= at {
            rows.resize_with(at + 1, Row::default);
        }
        rows[at]
            .write(index, column, Cell { time, resource })
            .map(|cell| cell.time)
    }

    /// Replays the writes of a recorded chain ([`ChainLog`]) in write order
    /// by re-issuing its [`ScheduleTable::set_on`] calls.
    ///
    /// A column the table already holds keeps its index and a column the
    /// chain created is appended at the next free index; because the writes
    /// replay in their original order, the relative order of the spliced
    /// columns, and hence the serial entry order inside every row, is the
    /// recorded one.
    pub fn splice_log(&mut self, log: &ChainLog) {
        for write in &log.writes {
            self.set_on(write.job, write.column, write.time, write.resource);
        }
    }

    /// Removes the activation time of `job` in the column headed by `column`,
    /// returning it if it was present.
    pub fn remove(&mut self, job: Job, column: &Cube) -> Option<Time> {
        let index = self.column_index(column)?;
        let (rows, at) = self.rows_of(job);
        let row = rows.get_mut(at)?;
        let (_, _, cell) = row.entries.remove(row.find(index).ok()?);
        row.digest_sum = row
            .digest_sum
            .wrapping_sub(entry_hash(index, *column, cell));
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
        self.keyed_entries(job)
            .map(|(_, column, time, resource)| (column, time, resource))
    }

    /// The `(column index, column, time, recorded resource)` entries of the
    /// row of `job`, in column-insertion order, the column index being the
    /// column's position in [`ScheduleTable::columns`]. This is the one row
    /// scan; only the exact-column lookups bypass it. Callers filter it
    /// inline (compatible with a probe, satisfied by a label, tabled at one
    /// time) and break ties by the index.
    // lint: hot-path
    #[inline]
    pub(crate) fn keyed_entries(
        &self,
        job: Job,
    ) -> impl Iterator<Item = (u32, Cube, Time, Option<PeId>)> + '_ {
        self.row(job).unwrap_or(&EMPTY_ROW).keyed()
    }

    /// Iterates over every `(job, column, time)` entry of the table.
    pub fn all_entries(&self) -> impl Iterator<Item = (Job, Cube, Time)> + '_ {
        self.all_entries_on()
            .map(|(job, column, time, _)| (job, column, time))
    }

    /// Iterates over every `(job, column, time, recorded resource)` entry of
    /// the table.
    pub fn all_entries_on(&self) -> impl Iterator<Item = (Job, Cube, Time, Option<PeId>)> + '_ {
        self.rows().flat_map(|(job, row)| {
            row.keyed()
                .map(move |(_, column, time, resource)| (job, column, time, resource))
        })
    }

    /// `true` when the row for `job` contains at least one activation time.
    #[must_use]
    pub fn contains_job(&self, job: Job) -> bool {
        self.row(job).is_some()
    }

    /// The activation of `job` on the alternative path labelled `label` (any
    /// complete condition assignment of an execution), resolved from the
    /// entries of the row whose column expression the label implies: the
    /// one per-label resolver, and the reference
    /// [`ScheduleTable::resolve_block`] is held against.
    ///
    /// * The time is that of the satisfied entries. When the table satisfies
    ///   requirement 2 it is unique; if several satisfied columns carry
    ///   *different* times, `None` is returned (callers that need to
    ///   diagnose this use [`ScheduleTable::verify`]).
    /// * The column is the most specific satisfied column; among equally
    ///   specific ones, the last in column-insertion order.
    /// * The resource is the one recorded with the most specific satisfied
    ///   column that carries one; among equally specific ones, the first.
    ///   This is the bus a locked condition broadcast must occupy when the
    ///   tabled time is enforced on another path's schedule, and the
    ///   resource the dispatcher and the simulator charge the activation to.
    #[must_use]
    pub fn activation(&self, job: Job, label: &Cube) -> Option<Activation> {
        // The activation so far, with the specificities of its column and
        // of its resource's column.
        let mut found: Option<(Activation, usize, usize)> = None;
        let mut conflict = false;
        for (_, column, time, resource) in self.keyed_entries(job).filter(|e| label.implies(&e.1)) {
            let len = column.len();
            let (best, column_len, resource_len) = found.get_or_insert((
                Activation {
                    time,
                    column,
                    resource: None,
                },
                len,
                0,
            ));
            conflict |= best.time != time;
            if len >= *column_len {
                (best.column, *column_len) = (column, len);
            }
            if resource.is_some() && (best.resource.is_none() || len > *resource_len) {
                (best.resource, *resource_len) = (resource, len);
            }
        }
        found
            .filter(|_| !conflict)
            .map(|(activation, _, _)| activation)
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
            for (key, column, time, resource) in row.keyed() {
                let labels = block.satisfying(&column) & wanted;
                if labels != 0 {
                    fold.note(labels, key, &column, time, resource);
                }
            }
        }
        fold.finish(wanted)
    }

    /// The delay of the system on the alternative path labelled `label`: the
    /// latest completion time (activation + execution) over every process
    /// activated on that path according to this table.
    #[must_use]
    pub fn track_delay(&self, cpg: &Cpg, label: &Cube) -> Time {
        let mut delay = Time::ZERO;
        for job in self.jobs() {
            let Job::Process(pid) = job else { continue };
            if !cpg.guard(pid).implied_by(label) {
                continue;
            }
            if let Some(activation) = self.activation(job, label) {
                delay = delay.max(activation.time + cpg.exec_time(pid));
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
        let slots = JobSlots::for_graph(cpg);

        // Requirement 1 + sanity of row keys.
        for (job, column, _) in self.all_entries() {
            if slots.slot(job).is_none() {
                violations.push(TableViolation::UnknownJob { job });
                continue;
            }
            let guard = match job {
                Job::Process(pid) => cpg.guard(pid),
                Job::Broadcast(cond) => cpg.guard(cpg.disjunction_of(cond)),
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

        // Requirement 3, one block of tracks at a time: by job slot, the mask
        // of the labels that need an activation, narrowed by one row pass to
        // those missing one; then each track reports in track order.
        let slot = |job: Job| slots.slot(job).expect("tracks hold jobs of the graph");
        let mut missing: Vec<u64> = vec![0; slots.len()];
        let mut resolved = [ResolvedActivation::NONE; LabelBlock::WIDTH];
        for chunk in tracks.tracks().chunks(LabelBlock::WIDTH) {
            let labels: Vec<Cube> = chunk.iter().map(Track::label).collect();
            let block = LabelBlock::new(&labels);
            missing.fill(0);
            for (t, track) in chunk.iter().enumerate() {
                for &pid in track.processes() {
                    if !cpg.process(pid).kind().is_dummy() {
                        missing[slot(Job::Process(pid))] |= 1 << t;
                    }
                }
            }
            for cond in cpg.conditions() {
                let job = Job::Broadcast(cond);
                if self.contains_job(job) {
                    missing[slot(job)] = block.mentioning(cond);
                }
            }
            for (at, mask) in missing.iter_mut().enumerate() {
                if *mask != 0 {
                    *mask &= !self.resolve_block(slots.job(at), &block, *mask, &mut resolved);
                }
            }
            for (t, track) in chunk.iter().enumerate() {
                let processes = track.processes().iter().map(|&pid| Job::Process(pid));
                let broadcasts = track.determined_conditions().map(Job::Broadcast);
                for job in processes.chain(broadcasts) {
                    if missing[slot(job)] & (1 << t) != 0 {
                        violations.push(TableViolation::MissingActivation {
                            job,
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

        // Processes first (by id), then broadcasts: `Job` order.
        for (job, row) in self.rows() {
            let mut line = vec![job_name(job)];
            for &(index, _) in &columns {
                let cell = row.find(index as u32).ok().map(|at| row.entries[at].2);
                line.push(cell.map_or(String::new(), |cell| cell.time.to_string()));
            }
            table_rows.push(line);
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
        let mut asg = Cube::top();
        asg.assign(c(1), true);
        let resource = |asg: &Cube| table.activation(b, asg).map(|a| a.resource);
        assert_eq!(resource(&asg), Some(Some(bus1)));
        asg.assign(c(1), false);
        assert_eq!(resource(&asg), Some(None));
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

        let mut asg = Cube::top();
        asg.assign(c(0), true);
        asg.assign(c(1), true);
        asg.assign(c(2), true);
        assert_eq!(
            table.activation(p(14), &asg).map(|a| a.time),
            Some(Time::new(24))
        );
        asg.assign(c(2), false);
        assert_eq!(
            table.activation(p(14), &asg).map(|a| a.time),
            Some(Time::new(35))
        );
        asg.assign(c(1), false);
        assert_eq!(table.activation(p(14), &asg).map(|a| a.time), None);
    }

    #[test]
    fn ambiguous_activation_yields_none() {
        let mut table = ScheduleTable::new();
        table.set(p(3), Cube::from(c(0).is_true()), Time::new(5));
        table.set(p(3), Cube::from(c(1).is_true()), Time::new(9));
        let mut asg = Cube::top();
        asg.assign(c(0), true);
        asg.assign(c(1), true);
        assert_eq!(table.activation(p(3), &asg).map(|a| a.time), None);
        // Same time in compatible columns is fine.
        let mut table = ScheduleTable::new();
        table.set(p(3), Cube::from(c(0).is_true()), Time::new(5));
        table.set(p(3), Cube::from(c(1).is_true()), Time::new(5));
        assert_eq!(
            table.activation(p(3), &asg).map(|a| a.time),
            Some(Time::new(5))
        );
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

    /// Jobs of the row-model test: `0..MODEL_PROCS` are processes, the rest
    /// broadcasts.
    const MODEL_PROCS: usize = 12;
    const MODEL_JOBS: usize = 18;

    fn model_job(index: usize) -> Job {
        if index < MODEL_PROCS {
            p(index)
        } else {
            Job::Broadcast(c(index - MODEL_PROCS))
        }
    }

    /// A [`RawWrite`] whose first field picks one of the [`MODEL_JOBS`].
    fn model_write() -> impl proptest::Strategy<Value = RawWrite> {
        (
            0..MODEL_JOBS,
            proptest::collection::vec(proptest::any::<Option<bool>>(), 3),
            0u64..6,
            0usize..3,
        )
    }

    fn decode_model(write: &RawWrite) -> (Job, Cube, Time, Option<PeId>) {
        let (_, column, time, resource) = decode(write);
        (model_job(write.0), column, time, resource)
    }

    type RowModel = std::collections::BTreeMap<(Job, Cube), (Time, Option<PeId>)>;

    /// The table holds exactly the model's entries, its rows in ascending
    /// [`Job`] order.
    fn rows_match(table: &ScheduleTable, model: &RowModel) -> Result<(), String> {
        let mut jobs: Vec<Job> = model.keys().map(|&(job, _)| job).collect();
        jobs.dedup();
        let listed: Vec<Job> = table.jobs().collect();
        if listed != jobs {
            return Err(format!("jobs {listed:?}, model {jobs:?}"));
        }
        let mut entries: Vec<(Job, Cube, Time, Option<PeId>)> = table.all_entries_on().collect();
        if !entries.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err(format!("entries out of job order: {entries:?}"));
        }
        entries.sort_unstable();
        let expected: Vec<_> = model
            .iter()
            .map(|(&(job, column), &(time, resource))| (job, column, time, resource))
            .collect();
        let counts = (table.num_rows(), table.num_entries(), table.is_empty());
        let absent = (0..MODEL_JOBS + 2)
            .map(model_job)
            .find(|&job| table.contains_job(job) != jobs.contains(&job));
        if entries != expected {
            Err(format!("entries {entries:?}, model {expected:?}"))
        } else if counts != (jobs.len(), model.len(), model.is_empty()) {
            Err(format!("counts {counts:?} for {} rows", jobs.len()))
        } else if let Some(job) = absent {
            Err(format!("contains_job({job}) disagrees with the model"))
        } else {
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 128,
            max_shrink_iters: 0,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn rows_match_a_job_map_after_any_edit_sequence(
            ops in proptest::collection::vec(
                (0usize..3, proptest::collection::vec(model_write(), 1..4)),
                0..60,
            ),
        ) {
            let mut table = ScheduleTable::new();
            let mut model = RowModel::new();
            for (kind, writes) in &ops {
                let (job, column, time, resource) = decode_model(&writes[0]);
                match kind {
                    0 => {
                        let previous = table.set_on(job, column, time, resource);
                        let modelled = model.insert((job, column), (time, resource));
                        proptest::prop_assert_eq!(previous, modelled.map(|(time, _)| time));
                    }
                    // Mostly a removal of an entry the row holds, so rows
                    // empty out.
                    1 => {
                        let existing = table.entries(job).next().map(|(column, _)| column);
                        let column = existing.unwrap_or(column);
                        let removed = model.remove(&(job, column)).map(|(time, _)| time);
                        proptest::prop_assert_eq!(table.remove(job, &column), removed);
                    }
                    _ => {
                        let mut recorded = table.clone();
                        let mut view = RecordingView::new(&mut recorded, RecordScratch::default());
                        for write in writes {
                            let (job, column, time, resource) = decode_model(write);
                            view.set_on(job, column, time, resource);
                            model.insert((job, column), (time, resource));
                        }
                        let (log, _) = view.finish();
                        table.splice_log(&log);
                    }
                }
                if let Err(message) = rows_match(&table, &model) {
                    return Err(proptest::test_runner::TestCaseError::fail(message));
                }
            }

            // A row written then emptied digests as 0 and leaves the table
            // equal, both ways, to one that never held it: for a job the
            // model has no row for, and for two beyond every identifier so
            // far, which grow the row vectors.
            let unheld = (0..MODEL_JOBS).map(model_job).find(|&job| !table.contains_job(job));
            let beyond = [p(MODEL_PROCS + 20), Job::Broadcast(c(MODEL_JOBS))];
            for job in unheld.into_iter().chain(beyond) {
                let Some(&column) = table.columns().first() else { break };
                let mut emptied = table.clone();
                emptied.set(job, column, Time::new(1));
                proptest::prop_assert!(emptied.contains_job(job));
                emptied.remove(job, &column);
                proptest::prop_assert_eq!(emptied.row_digest(job), 0);
                proptest::prop_assert!(!emptied.contains_job(job));
                proptest::prop_assert_eq!(&emptied, &table);
                proptest::prop_assert_eq!(&table, &emptied);
            }

            // A table holding only the model's entries, over the same
            // columns, is equal both ways, whatever rows either once held.
            let mut rebuilt = ScheduleTable::new();
            for &column in table.columns() {
                add_column(&mut rebuilt, column);
            }
            for (&(job, column), &(time, resource)) in &model {
                rebuilt.set_on(job, column, time, resource);
            }
            proptest::prop_assert_eq!(&rebuilt, &table);
            proptest::prop_assert_eq!(&table, &rebuilt);
        }
    }

    /// Appends `column` to the column list (if absent) without changing any
    /// row: a write to a job no test row uses, then its removal. Columns are
    /// only ever appended, so the column stays.
    fn add_column(table: &mut ScheduleTable, column: Cube) {
        let outsider = p(PROCS);
        table.set(outsider, column, Time::ZERO);
        table.remove(outsider, &column);
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
                        add_column(&mut table, column);
                        let index = table.column_index(&column).expect("the column is tabled");
                        proptest::prop_assert_eq!(table.columns()[index as usize], column);
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
            // columns and rows with every column added up front.
            let copy = table.clone();
            proptest::prop_assert!(column_index_is_current(&copy));
            proptest::prop_assert_eq!(&copy, &table);
            let mut rebuilt = ScheduleTable::new();
            for &column in table.columns() {
                add_column(&mut rebuilt, column);
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
