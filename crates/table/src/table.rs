//! The schedule table produced by the merging algorithm.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use cpg::{CondId, Cpg, Cube, Guard, ProcessId, Track, TrackSet};
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
///
/// [`ScheduleTable::compact`] keeps the time and the resource of every
/// activation; the column may become a coarser one (a subset of its
/// literals), which is what lets a compacted row hold fewer entries.
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
/// resource, its column cube and its time, mixed word by word, then
/// avalanched. Without the avalanche the last word would only be XORed in
/// before one multiplication, so one time change on two entries could
/// cancel in the sum: `t → t + 1` from an even `t` moves each term by `±K`,
/// with opposite signs when the two entries' mixes differ in bit 0.
#[inline]
fn entry_hash(index: u32, column: Cube, cell: Cell) -> u64 {
    let resource = cell.resource.map_or(0, |pe| pe.index() as u64 + 1);
    let h = mix(0, u64::from(index) | resource << 32);
    let h = mix(h, column.positive_mask());
    let h = mix(h, column.negative_mask());
    avalanche(mix(h, cell.time.as_u64()))
}

/// The 64-bit finalizer of MurmurHash3: a bijection whose every output bit
/// depends on every input bit.
#[inline]
fn avalanche(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The hasher of the column index: one [`mix`] step per word of the key (a
/// cube is two masks), then a final avalanche so the low bits that pick a
/// bucket depend on every condition. Deterministic, and far cheaper than
/// the standard hasher for a two-word key, which matters when
/// [`ScheduleTable::compact`] looks up every merged column.
#[derive(Debug, Clone, Copy, Default)]
struct CubeHasher(u64);

impl Hasher for CubeHasher {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }
}

/// Column cube -> its index in the column list.
type ColumnIds = HashMap<Cube, u32, BuildHasherDefault<CubeHasher>>;

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

    /// The row's [`ScheduleTable::row_digest`]; an empty row digests to 0.
    #[inline]
    fn digest(&self) -> u64 {
        mix(mix(0, self.entries.len() as u64), self.digest_sum)
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
/// The merge publishes its table compacted ([`ScheduleTable::compact`]):
/// within a row, no entry's column implies another's with the same time and
/// resource where dropping it is invisible, and no two such sibling columns
/// `X∧c`, `X∧¬c` are left where one entry in `X` does the same. So each
/// dispatcher stores fewer entries than the walk wrote.
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
    column_ids: ColumnIds,
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
            self.set_on(write.job(), write.column, write.time, write.resource());
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

    /// Removes the redundant entries of every row, so the table stores
    /// fewer activation times for the same run-time behaviour.
    ///
    /// Within each row, among the entries that share a time and a resource,
    /// the pass repeats two rules until neither applies:
    ///
    /// * **absorb** — an entry whose column implies another entry's column
    ///   is dropped;
    /// * **merge** — two entries whose columns differ only in the polarity
    ///   of one condition are replaced by one entry in the column without
    ///   that condition, when that column implies the guard of the row's job
    ///   (of its disjunction process, for a broadcast row) under
    ///   [`Guard::implied_by`], the test of requirement 1 in
    ///   [`ScheduleTable::verify`].
    ///
    /// A rule applies only where no label can see the difference:
    /// [`ScheduleTable::activation`] keeps its time and resource, and the
    /// column it selects keeps a subset of its literals, on every complete
    /// condition assignment and — when the table satisfies requirements 1–3
    /// of [`ScheduleTable::verify`] — on every track label its job is active
    /// on. (A merged column also covers labels that leave the merged
    /// condition open; requirements 1 and 3 make the job active there with
    /// the same time already.) So such a table still satisfies
    /// requirements 1–3, its worst-case delay is unchanged, and the run-time
    /// simulator sees the same activations with no more requirement-4
    /// violations. Concretely, an entry is left in place when another entry
    /// of its row compatible with its column
    ///
    /// * records a different resource (or none): the resource goes to the
    ///   most specific satisfied column that carries one, so the coarser
    ///   column could hand a label another resource;
    /// * is as specific as the coarser column but no more specific than the
    ///   entry, without being implied by the entry: it could become the
    ///   selecting column of a label the entry used to select on;
    /// * in a merge, does not mention the merged condition and is less
    ///   specific than the merged column: it could lose the selection on a
    ///   label that leaves the condition open to the merged column.
    ///
    /// Columns left without an entry are dropped; the others keep their
    /// insertion order, and a merged column that is new is appended. Rows of
    /// jobs outside `cpg` are left as they are. The pass never adds an entry,
    /// and a second pass changes nothing.
    pub fn compact(&mut self, cpg: &Cpg) {
        self.compact_reusing(cpg, &mut CompactionMemo::default());
    }

    /// [`ScheduleTable::compact`] reusing the last compaction of the same
    /// system kept in `memo`, and keeping this one there. Returns how many
    /// rows took their compaction from `memo`.
    ///
    /// What the pass does to a row is a function of the row's entries (their
    /// column indices, columns, times and resources) and of the guard of its
    /// job. So a row whose digest (the one a [`ChainLog`] keeps of the rows
    /// a chain touched) equals that of the row the memo planned on gets the
    /// memo's edits: its dropped positions and
    /// lifted columns, applied in the planned order. A lifted column is
    /// looked up by its cube, or appended, in that order too, so the columns
    /// end up in the order a plain `compact` gives them and the table is the
    /// same. The other rows are compacted and their edits kept.
    ///
    /// A memo holds for one system as long as the guards of its processes
    /// do not change; after a guard edit, start from an empty one.
    pub fn compact_reusing(&mut self, cpg: &Cpg, memo: &mut CompactionMemo) -> usize {
        let ScheduleTable {
            columns,
            column_ids,
            process_rows,
            broadcast_rows,
        } = self;
        let mut scratch = CompactScratch::default();
        let mut changed = false;
        let mut reused = 0;
        memo.rows
            .resize_with(cpg.len() + cpg.num_conditions(), MemoRow::default);
        let processes = process_rows
            .iter_mut()
            .take(cpg.len())
            .enumerate()
            .map(|(i, row)| (i, cpg.guard(ProcessId::from_index(i)), row));
        let broadcasts = broadcast_rows
            .iter_mut()
            .take(cpg.num_conditions())
            .enumerate()
            .map(|(i, row)| {
                let guard = cpg.guard(cpg.disjunction_of(CondId::new(i)));
                (cpg.len() + i, guard, row)
            });
        for (slot, guard, row) in processes.chain(broadcasts) {
            if row.entries.is_empty() {
                continue;
            }
            let kept = &mut memo.rows[slot];
            let digest = row.digest();
            // Mutation self-test hook: take the kept edits of a row whatever
            // it holds now (those that still point into it). The
            // warm-vs-cold oracle must flag the stale compaction
            // (tests/adversarial_corpus.rs).
            #[cfg(feature = "test-util")]
            if memo.trust_stale_rows && kept.digest.is_some_and(|kept| kept != digest) {
                let len = row.entries.len();
                kept.changes.retain(|w| (w.at as usize) < len);
                kept.digest = Some(digest);
            }
            if kept.digest == Some(digest) {
                reused += 1;
            } else {
                plan_row(&row.entries, guard, &mut scratch, column_ids);
                kept.digest = Some(digest);
                kept.changes.clone_from(&scratch.changes);
            }
            changed |= apply_row(&mut row.entries, &kept.changes, columns, column_ids);
        }
        if changed {
            self.drop_empty_columns();
        }
        reused
    }

    /// Drops the columns no row holds an entry in, renumbers the others in
    /// their insertion order and recomputes every row digest.
    fn drop_empty_columns(&mut self) {
        let mut remap = vec![u32::MAX; self.columns.len()];
        let rows = self.process_rows.iter().chain(&self.broadcast_rows);
        for &(index, _, _) in rows.flat_map(|row| &row.entries) {
            remap[index as usize] = 0;
        }
        let mut kept = 0;
        for index in &mut remap {
            if *index == 0 {
                (*index, kept) = (kept, kept + 1);
            }
        }
        let mut at = 0;
        self.columns.retain(|_| {
            at += 1;
            remap[at - 1] != u32::MAX
        });
        self.column_ids
            .retain(|_, index| remap[*index as usize] != u32::MAX);
        for index in self.column_ids.values_mut() {
            *index = remap[*index as usize];
        }
        for row in self.process_rows.iter_mut().chain(&mut self.broadcast_rows) {
            row.digest_sum = 0;
            for (index, column, cell) in &mut row.entries {
                *index = remap[*index as usize];
                row.digest_sum = row
                    .digest_sum
                    .wrapping_add(entry_hash(*index, *column, *cell));
            }
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
        self.row(job).map_or(0, Row::digest)
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
        column_index_or_insert(&mut self.columns, &mut self.column_ids, column)
    }
}

/// The index of `column` in `columns`, appending it (and indexing it in
/// `ids`) when it is new.
#[inline]
fn column_index_or_insert(columns: &mut Vec<Cube>, ids: &mut ColumnIds, column: Cube) -> u32 {
    let fresh = columns.len() as u32;
    let index = *ids.entry(column).or_insert(fresh);
    if index == fresh {
        columns.push(column);
    }
    index
}

/// One row entry as [`ScheduleTable::compact`] works on it: its position
/// in the row, its column and cell, whether the pass has dropped it yet,
/// and whether its column is a merged one.
#[derive(Debug, Clone, Copy)]
struct Work {
    at: u32,
    column: Cube,
    cell: Cell,
    alive: bool,
    lifted: bool,
}

/// The buffers [`ScheduleTable::compact`] reuses across rows.
#[derive(Debug, Default)]
struct CompactScratch {
    /// The row's entry positions in [`plan_row`]'s order, first as packed
    /// sort keys.
    order: Vec<u64>,
    /// The entries of the run of one time being compacted, in that order.
    work: Vec<Work>,
    /// The entries of the row's compacted runs that were dropped or merged.
    changes: Vec<Work>,
}

/// The compactions of the rows of a system's last walk table, for
/// [`ScheduleTable::compact_reusing`] to reuse on the next one. Per row
/// slot (the processes of the graph, then its conditions' broadcasts) it
/// keeps the digest of the walk row it planned on and the edits it made:
/// the dropped entries and the lifted columns, in order.
#[derive(Debug, Clone, Default)]
pub struct CompactionMemo {
    rows: Vec<MemoRow>,
    /// Fault injection: reuse kept edits on rows that changed since.
    #[cfg(feature = "test-util")]
    trust_stale_rows: bool,
}

impl CompactionMemo {
    /// Makes [`ScheduleTable::compact_reusing`] apply the kept edits of a
    /// row even when the row changed since (only those that still point
    /// into it): a deliberately broken memo, for proving that the
    /// differential oracles catch a stale compaction.
    #[cfg(feature = "test-util")]
    pub fn trust_stale_rows(&mut self, on: bool) {
        self.trust_stale_rows = on;
    }
}

/// One row slot of a [`CompactionMemo`].
#[derive(Debug, Clone, Default)]
struct MemoRow {
    /// The digest of the walk row `changes` were planned on; `None` before
    /// the first plan.
    digest: Option<u64>,
    /// The planned edits, in [`apply_row`] order.
    changes: Vec<Work>,
}

/// The index a dropped entry carries until the row drops it.
const DROPPED: u32 = u32::MAX;

/// Plans [`ScheduleTable::compact`] on the entries of one row whose job has
/// the guard `guard`: leaves in `scratch.changes` every entry the pass drops
/// or lifts into a merged column, in the order [`apply_row`] applies them.
/// `ids` is the table's column index.
///
/// The row is grouped into runs of one time, and each of those into
/// classes of one resource, by one sort of the entry positions by `(time,
/// resource, position)` (position order is column-index order). Only
/// entries of one time can tell a rule's effect apart: an entry of another
/// time compatible with a column makes every label satisfying both
/// conflict, before and after. So only runs of two or more entries are
/// copied out, and each class is compacted against its run.
// lint: hot-path
fn plan_row(
    entries: &[(u32, Cube, Cell)],
    guard: &Guard,
    scratch: &mut CompactScratch,
    ids: &ColumnIds,
) {
    let CompactScratch {
        order,
        work,
        changes,
    } = scratch;
    changes.clear();
    sort_positions(entries, order);
    let mut run = 0;
    while run < order.len() {
        let time = entries[order[run] as usize].2.time;
        let run_end = run
            + order[run..]
                .iter()
                .take_while(|&&at| entries[at as usize].2.time == time)
                .count();
        if run_end - run > 1 {
            work.clear();
            work.extend(order[run..run_end].iter().map(|&at| {
                let (_, column, cell) = entries[at as usize];
                Work {
                    at: at as u32,
                    column,
                    cell,
                    alive: true,
                    lifted: false,
                }
            }));
            let row = RowView {
                entries,
                changes,
                ids,
            };
            let mut class = 0;
            while class < work.len() {
                let cell = work[class].cell;
                let class_end = class + work[class..].iter().take_while(|w| w.cell == cell).count();
                if class_end - class > 1 {
                    compact_class(work, class..class_end, &row, guard);
                }
                class = class_end;
            }
            changes.extend(work.iter().filter(|w| !w.alive || w.lifted));
        }
        run = run_end;
    }
}

/// Fills `order` with the positions of `entries` sorted by `(time,
/// resource, position)`, a resource being its index plus one (0 for none):
/// one integer sort of `time | resource | position` keys when the three
/// fit in 64 bits together, a tuple sort of the positions otherwise.
// lint: hot-path
fn sort_positions(entries: &[(u32, Cube, Cell)], order: &mut Vec<u64>) {
    let resource = |cell: Cell| cell.resource.map_or(0, |pe| pe.index() as u64 + 1);
    let (times, resources) = entries.iter().fold((0, 0), |(times, resources), entry| {
        (times | entry.2.time.as_u64(), resources | resource(entry.2))
    });
    let bits = |word: u64| u64::BITS - word.leading_zeros();
    let (resource_bits, at_bits) = (bits(resources), bits(entries.len() as u64));
    order.clear();
    if bits(times) + resource_bits + at_bits <= u64::BITS {
        let cells = entries.iter().map(|&(_, _, cell)| cell).enumerate();
        order.extend(cells.map(|(at, cell)| {
            (cell.time.as_u64() << resource_bits | resource(cell)) << at_bits | at as u64
        }));
        order.sort_unstable();
        let mask = (1 << at_bits) - 1;
        for key in order.iter_mut() {
            *key &= mask;
        }
    } else {
        order.extend(0..entries.len() as u64);
        order.sort_unstable_by_key(|&at| {
            let cell = entries[at as usize].2;
            (cell.time, resource(cell), at)
        });
    }
}

/// Applies planned edits to a row: a lifted entry takes the index of its
/// merged column (looked up in, or appended to, `columns` and `ids`, in
/// the order of `changes`), a dropped entry leaves. Returns whether the
/// row changed; a changed row's digest is left stale.
// lint: hot-path
fn apply_row(
    entries: &mut Vec<(u32, Cube, Cell)>,
    changes: &[Work],
    columns: &mut Vec<Cube>,
    ids: &mut ColumnIds,
) -> bool {
    if changes.is_empty() {
        return false;
    }
    for w in changes {
        entries[w.at as usize] = if w.alive {
            let index = column_index_or_insert(columns, ids, w.column);
            (index, w.column, w.cell)
        } else {
            (DROPPED, w.column, w.cell)
        };
    }
    entries.retain(|&(index, _, _)| index != DROPPED);
    entries.sort_unstable_by_key(|&(index, _, _)| index);
    true
}

/// What [`compact_class`] reads of the row beyond the run it works on.
struct RowView<'a> {
    /// The row as it stood before the pass, sorted by column index.
    entries: &'a [(u32, Cube, Cell)],
    /// The dropped and merged entries of the runs compacted so far.
    changes: &'a [Work],
    /// The table's column index.
    ids: &'a ColumnIds,
}

impl RowView<'_> {
    /// `true` when an entry of another time than `time` sits in `column`:
    /// an untouched entry of the row, or a merged one.
    fn holds(&self, column: Cube, time: Time) -> bool {
        let untouched = self.ids.get(&column).is_some_and(|&index| {
            let found = self.entries.binary_search_by_key(&index, |&(i, _, _)| i);
            found.is_ok_and(|at| {
                self.entries[at].2.time != time && !self.changes.iter().any(|w| w.at as usize == at)
            })
        });
        untouched || self.changes.iter().any(|w| w.alive && w.column == column)
    }
}

/// Applies the absorb and merge rules of [`ScheduleTable::compact`] to the
/// class `class` of `run` (the row's entries of one time, in key order:
/// the class holds those of one resource) until neither applies. A merge
/// writes its column into one sibling's slot. `row` shows the entries of
/// other times.
// lint: hot-path
fn compact_class(
    run: &mut [Work],
    class: std::ops::Range<usize>,
    row: &RowView<'_>,
    guard: &Guard,
) {
    let (start, end) = (class.start, class.end);
    let time = run[start].cell.time;
    loop {
        let mut stepped = false;
        for e in start..end {
            if !run[e].alive {
                continue;
            }
            let from = run[e].column;
            // Absorb: `f` absorbs `e` when `f`'s literals are among `e`'s.
            let absorbed = (start..end).any(|f| {
                let to = run[f].column;
                f != e
                    && run[f].alive
                    && to.mention_mask() & !from.mention_mask() == 0
                    && from.positive_mask() & to.mention_mask() == to.positive_mask()
                    && keeps_resolution(run, e, f, to, 0)
            });
            if absorbed {
                run[e].alive = false;
                stepped = true;
                continue;
            }
            // Merge: a sibling has the same conditions and differs in the
            // polarity of exactly one.
            for s in start..end {
                let sibling = run[s].column;
                let flipped = from.positive_mask() ^ sibling.positive_mask();
                if s == e
                    || !run[s].alive
                    || sibling.mention_mask() != from.mention_mask()
                    || flipped.count_ones() != 1
                {
                    continue;
                }
                let to = from.restricted_to(!flipped);
                if !guard.implied_by(&to)
                    || !keeps_resolution(run, e, s, to, flipped)
                    || !keeps_resolution(run, s, e, to, flipped)
                    || run.iter().any(|w| w.alive && w.column == to)
                    || row.holds(to, time)
                {
                    continue;
                }
                (run[e].column, run[e].lifted) = (to, true);
                run[s].alive = false;
                stepped = true;
                break;
            }
        }
        if !stepped {
            return;
        }
    }
}

/// `true` when replacing entry `e` of `run` (the row's entries of its time)
/// by the same cell in the coarser column `to` — absorbed by `partner`, or
/// merged with its sibling `partner` over the condition bit `merged` —
/// leaves every label's resolution as [`ScheduleTable::compact`] requires.
/// `merged` is 0 for an absorption.
// lint: hot-path
fn keeps_resolution(run: &[Work], e: usize, partner: usize, to: Cube, merged: u64) -> bool {
    let (from, resource) = (run[e].column, run[e].cell.resource);
    let (low, high) = (to.len(), from.len());
    run.iter().enumerate().all(|(g, other)| {
        if g == e || g == partner || !other.alive || !other.column.compatible(&from) {
            return true;
        }
        let len = other.column.len();
        let same_resource = resource.is_none() || other.cell.resource == resource;
        let may_select = (low..=high).contains(&len) && !from.implies(&other.column);
        let may_lose = other.column.mention_mask() & merged == 0 && merged != 0 && len < low;
        same_resource && !may_select && !may_lose
    })
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

    #[test]
    fn shifting_the_time_of_several_entries_alike_changes_the_digest() {
        // An edit moves many activations by the same amount. The row of a
        // compacted fig1-like system that once collided: two entries of
        // one time and resource, both moved from 30 to 23.
        let bus = Some(PeId::from_index(3));
        let columns = [
            cube(&[c(0).is_true(), c(1).is_true()]),
            cube(&[c(0).is_false(), c(1).is_true()]),
        ];
        for (from, to) in [(30, 23), (30, 31), (2, 3), (7, 8), (100, 101)] {
            let mut table = ScheduleTable::new();
            for column in columns {
                table.set_on(p(1), column, Time::new(from), bus);
            }
            let before = table.row_digest(p(1));
            for column in columns {
                table.set_on(p(1), column, Time::new(to), bus);
            }
            assert_ne!(table.row_digest(p(1)), before, "{from} -> {to}");
        }
        // Every pair of entries of a 16-column row, moved by one.
        let columns: Vec<Cube> = (0..16usize)
            .map(|bits| (0..4).map(|i| c(i).literal(bits >> i & 1 == 1)).collect())
            .collect();
        for (i, j) in (0..16).flat_map(|i| (i + 1..16).map(move |j| (i, j))) {
            for time in 0..8 {
                let mut table = ScheduleTable::new();
                for &column in &columns {
                    table.set_on(p(1), column, Time::new(time), bus);
                }
                let before = table.row_digest(p(1));
                table.set_on(p(1), columns[i], Time::new(time + 1), bus);
                table.set_on(p(1), columns[j], Time::new(time + 1), bus);
                assert_ne!(table.row_digest(p(1)), before, "{i}, {j} at {time}");
            }
        }
    }

    /// The cube of the given literals.
    fn cube(literals: &[cpg::Literal]) -> Cube {
        literals.iter().copied().collect()
    }

    /// The diamond example (condition C, processes `decide`, `hot` with
    /// guard C, `cold`, `join`) and the job of one of its processes.
    fn diamond_job(name: &str) -> (examples::ExampleSystem, Job) {
        let system = examples::diamond();
        let pid = system.cpg().process_by_name(name).unwrap();
        (system, Job::Process(pid))
    }

    #[test]
    fn compact_merges_siblings_and_absorbs_implied_columns() {
        let (system, decide) = diamond_job("decide");
        let (x, y) = (c(1), c(2));
        let mut table = ScheduleTable::new();
        table.set(decide, cube(&[x.is_true(), y.is_true()]), Time::new(4));
        table.set(decide, cube(&[x.is_true(), y.is_false()]), Time::new(4));
        table.set(decide, cube(&[x.is_false(), y.is_true()]), Time::new(4));
        table.set(decide, cube(&[x.is_false()]), Time::new(4));
        table.compact(system.cpg());
        // x∧y and x∧¬y merge into x, ¬x absorbs ¬x∧y, and x and ¬x merge
        // into true.
        let row: Vec<(Cube, Time)> = table.entries(decide).collect();
        assert_eq!(row, [(Cube::top(), Time::new(4))]);
        assert_eq!(table.columns(), [Cube::top()]);
        assert_eq!(table.row_digest(decide), table.folded_digest(decide));
        let again = table.clone();
        table.compact(system.cpg());
        assert_eq!(table, again);
    }

    #[test]
    fn compact_keeps_rows_of_different_times_and_renumbers_columns() {
        let (system, decide) = diamond_job("decide");
        let x = c(1);
        let (pos, neg) = (Cube::from(x.is_true()), Cube::from(x.is_false()));
        let mut table = ScheduleTable::new();
        table.set(decide, pos, Time::new(1));
        table.set(decide, neg, Time::new(2));
        table.set(p(9), Cube::top(), Time::new(0));
        let before = table.clone();
        table.compact(system.cpg());
        // Different times never merge, and the row of a job outside the
        // graph is left alone.
        assert_eq!(table, before);

        let mut table = ScheduleTable::new();
        table.set(decide, pos, Time::new(1));
        table.set(decide, neg, Time::new(1));
        table.set(p(9), pos, Time::new(0));
        table.compact(system.cpg());
        // ¬x empties and is dropped; true is appended after x.
        assert_eq!(table.columns(), [pos, Cube::top()]);
        assert_eq!(table.get(decide, &Cube::top()), Some(Time::new(1)));
        assert_eq!(table.get(p(9), &pos), Some(Time::ZERO));
        assert!(column_index_is_current(&table));
        assert_eq!(table.row_digest(p(9)), table.folded_digest(p(9)));
    }

    #[test]
    fn compact_reusing_matches_compact_and_reuses_unchanged_rows() {
        let (system, decide) = diamond_job("decide");
        let cpg = system.cpg();
        let source = Job::Process(cpg.source());
        let x = c(1);
        let (pos, neg) = (Cube::from(x.is_true()), Cube::from(x.is_false()));
        // Two rows whose sibling entries merge into a new column `true`.
        let walk = |source_time: u64| {
            let mut table = ScheduleTable::new();
            table.set(decide, pos, Time::new(1));
            table.set(decide, neg, Time::new(1));
            table.set(source, neg, Time::new(source_time));
            table.set(source, pos, Time::new(source_time));
            table
        };
        let mut memo = CompactionMemo::default();
        for (source_time, reused) in [(5, 0), (5, 2), (6, 1), (6, 2), (5, 1)] {
            let mut cold = walk(source_time);
            cold.compact(cpg);
            let mut warm = walk(source_time);
            assert_eq!(warm.compact_reusing(cpg, &mut memo), reused);
            assert_eq!(warm, cold, "source at {source_time}");
            assert_eq!(warm.columns(), [Cube::top()]);
            assert!(column_index_is_current(&warm));
            assert!(digests_are_current(&warm));
        }
    }

    #[test]
    fn compact_never_merges_into_a_column_that_breaks_the_guard() {
        let (system, hot) = diamond_job("hot");
        let cond = system.condition("C").unwrap();
        let x = c(1);
        let mut table = ScheduleTable::new();
        table.set(hot, cube(&[cond.is_true(), x.is_true()]), Time::new(3));
        table.set(hot, cube(&[cond.is_true(), x.is_false()]), Time::new(3));
        table.compact(system.cpg());
        // C implies the guard of `hot`, so the siblings merge into C ...
        let row: Vec<(Cube, Time)> = table.entries(hot).collect();
        assert_eq!(row, [(Cube::from(cond.is_true()), Time::new(3))]);
        // ... but C and ¬C do not merge into true, which does not.
        let mut table = ScheduleTable::new();
        table.set(hot, Cube::from(cond.is_true()), Time::new(3));
        table.set(hot, Cube::from(cond.is_false()), Time::new(3));
        let before = table.clone();
        table.compact(system.cpg());
        assert_eq!(table, before);
    }

    #[test]
    fn compact_keeps_an_entry_whose_drop_would_hand_a_label_another_resource() {
        let system = examples::diamond();
        let broadcast = Job::Broadcast(system.condition("C").unwrap());
        let (x, y) = (c(1), c(2));
        let (bus_a, bus_b) = (Some(PeId::from_index(0)), Some(PeId::from_index(1)));
        let mut table = ScheduleTable::new();
        table.set_on(broadcast, Cube::from(y.is_true()), Time::new(2), bus_b);
        table.set_on(
            broadcast,
            cube(&[x.is_true(), y.is_true()]),
            Time::new(2),
            bus_a,
        );
        table.set_on(broadcast, Cube::from(x.is_true()), Time::new(2), bus_a);
        // On x∧y the most specific column x∧y gives bus A. Were x to absorb
        // it, x and y would tie and the first, y, would give bus B.
        let label = cube(&[x.is_true(), y.is_true()]);
        let resource =
            |table: &ScheduleTable| table.activation(broadcast, &label).unwrap().resource;
        assert_eq!(resource(&table), bus_a);
        let before = table.clone();
        table.compact(system.cpg());
        assert_eq!(table, before);
        assert_eq!(resource(&table), bus_a);
    }

    #[test]
    fn compact_keeps_an_entry_whose_drop_would_hand_its_selection_to_another_column() {
        let (system, decide) = diamond_job("decide");
        let (x, y, z, w) = (c(1), c(2), c(3), c(4));
        // On x∧y∧z, x∧y selects; without it, x and z would tie.
        let mut table = ScheduleTable::new();
        table.set(decide, cube(&[x.is_true(), y.is_true()]), Time::new(5));
        table.set(decide, Cube::from(x.is_true()), Time::new(5));
        table.set(decide, Cube::from(z.is_true()), Time::new(5));
        let before = table.clone();
        table.compact(system.cpg());
        assert_eq!(table, before);
        // On x∧w∧z (y open), z selects; merging x∧w∧y and x∧w∧¬y into x∧w
        // would hand that label to the more specific x∧w.
        let mut table = ScheduleTable::new();
        table.set(
            decide,
            cube(&[x.is_true(), w.is_true(), y.is_true()]),
            Time::new(5),
        );
        table.set(
            decide,
            cube(&[x.is_true(), w.is_true(), y.is_false()]),
            Time::new(5),
        );
        table.set(decide, Cube::from(z.is_true()), Time::new(5));
        let before = table.clone();
        table.compact(system.cpg());
        assert_eq!(table, before);
    }
}
