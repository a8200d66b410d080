//! The schedule table produced by the merging algorithm.

use std::fmt;

use cpg::{Assignment, Cpg, Cube, TrackSet};
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;

use crate::error::TableViolation;

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

/// Metadata of one mention-mask partition of a row's entries: every member
/// in the group's `RowIndex::members` range has a column cube mentioning
/// exactly the conditions in `mask` (with either polarity).
///
/// The partition is what turns the merge walk's per-row compatibility scans
/// into group lookups: a probe whose mention mask is disjoint from `mask` is
/// compatible with *every* member (compatibility can only fail on a condition
/// both cubes mention), and more generally a probe that the member union
/// masks cannot exclude (`probe.positive ∩ neg = ∅ ∧ probe.negative ∩ pos =
/// ∅`) is compatible with the whole group without testing a single cube.
#[derive(Debug, Clone)]
struct GroupMeta {
    /// Mention mask (`positive | negative`) shared by every member's column.
    mask: u64,
    /// Union of the members' positive masks.
    pos: u64,
    /// Union of the members' negative masks.
    neg: u64,
    /// Start of the group's run in [`RowIndex::members`]; the run ends where
    /// the next group's starts (or at `members.len()` for the last group).
    start: u32,
}

/// The condition-partition index of one row: entries grouped by the mention
/// mask of their column cube, plus aggregate union masks and a per-time
/// bucketing. Fully derived from the row's entries (and the table's columns);
/// it takes no part in row equality.
///
/// Both views are *flat* vectors delimited by metadata (CSR-style) rather
/// than nested per-group/per-bucket vectors: the warm re-merge path splices
/// whole chain logs through this index cell by cell, and a nested layout
/// would allocate on most of those writes (deep-nest rows put nearly every
/// entry in its own group), while flat inserts stay amortized
/// allocation-free.
///
/// Maintenance is *deferred across log splices*: `splice_log` replays a
/// whole chain's worth of cells into a row, and paying a sorted insert into
/// `members` and `times` per spliced cell dominates the warm re-merge cost.
/// A splice therefore only updates the serial entry list and marks the index
/// `stale`; every query on a stale row falls back to the linear entry scan
/// (the exact pre-index behaviour), and the next direct `set_on` to the row
/// rebuilds the whole index in one pass (capacity reused, so the rebuild is
/// allocation-free after warm-up). The serial walk never splices, so its
/// probes always see a fresh index.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    /// Union of the positive masks over every column tabled in the row.
    pos_union: u64,
    /// Union of the negative masks over every column tabled in the row.
    neg_union: u64,
    /// `(column index, column cube, cell)` sorted by (mention mask, column
    /// index); group `i` owns `members[groups[i].start..groups[i + 1].start]`.
    members: Vec<(u32, Cube, Cell)>,
    /// Group metadata, sorted by mention mask.
    groups: Vec<GroupMeta>,
    /// `(tabled time, column index, column cube, recorded resource)` sorted
    /// by (time, column index). Serves the "entries at exactly time T"
    /// probes of the repair loops as one binary search.
    times: Vec<(Time, u32, Cube, Option<PeId>)>,
    /// `true` after a log splice deferred maintenance: the vectors above are
    /// outdated and queries must scan the row's serial entries instead. The
    /// next direct write rebuilds the index and clears the flag.
    stale: bool,
}

impl RowIndex {
    /// The `members` range owned by group `group`.
    fn group_range(&self, group: usize) -> (usize, usize) {
        let start = self.groups[group].start as usize;
        let end = self
            .groups
            .get(group + 1)
            .map_or(self.members.len(), |next| next.start as usize);
        (start, end)
    }

    /// Registers a fresh cell under the column at table-wide index `col`.
    fn insert(&mut self, col: u32, column: Cube, cell: Cell) {
        let (pos, neg) = (column.positive_mask(), column.negative_mask());
        self.pos_union |= pos;
        self.neg_union |= neg;
        let mask = pos | neg;
        let group = match self.groups.binary_search_by_key(&mask, |g| g.mask) {
            Ok(at) => at,
            Err(at) => {
                let start = self
                    .groups
                    .get(at)
                    .map_or(self.members.len(), |next| next.start as usize);
                self.groups.insert(
                    at,
                    GroupMeta {
                        mask,
                        pos: 0,
                        neg: 0,
                        start: start as u32,
                    },
                );
                at
            }
        };
        self.groups[group].pos |= pos;
        self.groups[group].neg |= neg;
        let (start, end) = self.group_range(group);
        let slot = match self.members[start..end].binary_search_by_key(&col, |&(i, _, _)| i) {
            Ok(offset) => {
                debug_assert!(false, "insert of an already-indexed column");
                offset
            }
            Err(offset) => offset,
        };
        self.members.insert(start + slot, (col, column, cell));
        for later in &mut self.groups[group + 1..] {
            later.start += 1;
        }
        let bucket = self.time_slot(cell.time, col).unwrap_err();
        self.times
            .insert(bucket, (cell.time, col, column, cell.resource));
    }

    /// Updates the indexed copies of a cell that was overwritten in place.
    /// The column (and hence every mask) is unchanged; only the time
    /// bucketing and the cached cells can move.
    fn overwrite(&mut self, col: u32, column: Cube, old: Cell, new: Cell) {
        let mask = column.mention_mask();
        let group = self
            .groups
            .binary_search_by_key(&mask, |g| g.mask)
            .expect("overwrite of an unindexed column");
        let (start, end) = self.group_range(group);
        let slot = self.members[start..end]
            .binary_search_by_key(&col, |&(i, _, _)| i)
            .expect("overwrite of an unindexed column");
        self.members[start + slot].2 = new;
        if old.time == new.time {
            if old.resource != new.resource {
                let bucket = self
                    .time_slot(old.time, col)
                    .expect("time slot of an indexed cell");
                self.times[bucket].3 = new.resource;
            }
        } else {
            let bucket = self
                .time_slot(old.time, col)
                .expect("time slot of an indexed cell");
            self.times.remove(bucket);
            let bucket = self.time_slot(new.time, col).unwrap_err();
            self.times
                .insert(bucket, (new.time, col, column, new.resource));
        }
    }

    /// Unregisters the cell of the column at index `col`. Union masks are
    /// recomputed exactly, so the index stays a pure function of the
    /// remaining entries.
    fn remove(&mut self, col: u32, column: Cube, cell: Cell) {
        let mask = column.mention_mask();
        if let Ok(group) = self.groups.binary_search_by_key(&mask, |g| g.mask) {
            let (start, end) = self.group_range(group);
            if let Ok(slot) = self.members[start..end].binary_search_by_key(&col, |&(i, _, _)| i) {
                self.members.remove(start + slot);
                for later in &mut self.groups[group + 1..] {
                    later.start -= 1;
                }
                if end - start == 1 {
                    self.groups.remove(group);
                } else {
                    let (start, end) = self.group_range(group);
                    let (mut pos, mut neg) = (0, 0);
                    for &(_, c, _) in &self.members[start..end] {
                        pos |= c.positive_mask();
                        neg |= c.negative_mask();
                    }
                    self.groups[group].pos = pos;
                    self.groups[group].neg = neg;
                }
            }
        }
        self.pos_union = 0;
        self.neg_union = 0;
        for group in &self.groups {
            self.pos_union |= group.pos;
            self.neg_union |= group.neg;
        }
        if let Ok(bucket) = self.time_slot(cell.time, col) {
            self.times.remove(bucket);
        }
    }

    /// Position of `(time, col)` in the flat time bucketing (`Err` is the
    /// insertion slot).
    fn time_slot(&self, time: Time, col: u32) -> Result<usize, usize> {
        self.times
            .binary_search_by(|&(t, i, _, _)| (t, i).cmp(&(time, col)))
    }

    /// Recomputes the whole index from the row's serial entries after a
    /// splice deferred maintenance. One pass plus two in-place sorts; the
    /// vector capacities survive the `clear`, so a rebuild allocates nothing
    /// once the row has been rebuilt at its high-water size before.
    fn rebuild(&mut self, entries: &[(u32, Cell)], columns: &[Cube]) {
        self.members.clear();
        self.groups.clear();
        self.times.clear();
        self.pos_union = 0;
        self.neg_union = 0;
        for &(col, cell) in entries {
            let column = columns[col as usize];
            self.members.push((col, column, cell));
            self.times.push((cell.time, col, column, cell.resource));
        }
        self.members
            .sort_unstable_by_key(|&(col, column, _)| (column.mention_mask(), col));
        self.times
            .sort_unstable_by_key(|&(time, col, ..)| (time, col));
        for (at, &(_, column, _)) in self.members.iter().enumerate() {
            let (pos, neg) = (column.positive_mask(), column.negative_mask());
            self.pos_union |= pos;
            self.neg_union |= neg;
            let mask = pos | neg;
            match self.groups.last_mut() {
                Some(last) if last.mask == mask => {
                    last.pos |= pos;
                    last.neg |= neg;
                }
                _ => self.groups.push(GroupMeta {
                    mask,
                    pos,
                    neg,
                    start: at as u32,
                }),
            }
        }
        self.stale = false;
    }
}

/// One row of the table: the job and its `(column index, cell)` entries,
/// sorted by column index (the table-wide insertion order of the columns),
/// plus the derived condition-partition index over those entries.
#[derive(Debug, Clone)]
struct Row {
    job: Job,
    entries: Vec<(u32, Cell)>,
    index: RowIndex,
}

// The partition index is derived from `entries` (and the shared column
// list), so equality compares the observable row content only.
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.job == other.job && self.entries == other.entries
    }
}

impl Eq for Row {}

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

// The dense row indices are derived from `rows` (their length additionally
// depends on the largest identifier ever probed), so equality compares the
// observable table content only.
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
                index: RowIndex::default(),
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
        let index = self.column_index_or_insert(column) as u32;
        let position = self.row_position_or_insert(job);
        self.write_cell(position, index, column, Cell { time, resource })
            .map(|cell| cell.time)
    }

    /// Writes `cell` into the row at `position` under the column at table
    /// index `index`, keeping the sorted entry list and the row's partition
    /// index in sync. Returns the replaced cell, if the write overwrote one.
    ///
    /// A row left stale by a [`splice`](ScheduleTable::splice_log) is
    /// rebuilt here in one pass before the incremental update, so direct
    /// writers always leave a fresh index behind.
    #[inline]
    fn write_cell(
        &mut self,
        position: usize,
        index: u32,
        column: Cube,
        cell: Cell,
    ) -> Option<Cell> {
        let row = &mut self.rows[position];
        if row.index.stale {
            let previous = Self::write_entry(&mut row.entries, index, cell);
            row.index.rebuild(&row.entries, &self.columns);
            return previous;
        }
        match row.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => {
                let previous = std::mem::replace(&mut row.entries[at].1, cell);
                row.index.overwrite(index, column, previous, cell);
                Some(previous)
            }
            Err(at) => {
                row.entries.insert(at, (index, cell));
                row.index.insert(index, column, cell);
                None
            }
        }
    }

    /// Writes `cell` into the sorted serial entry list alone, returning the
    /// replaced cell if any.
    #[inline]
    fn write_entry(entries: &mut Vec<(u32, Cell)>, index: u32, cell: Cell) -> Option<Cell> {
        match entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => Some(std::mem::replace(&mut entries[at].1, cell)),
            Err(at) => {
                entries.insert(at, (index, cell));
                None
            }
        }
    }

    /// Writes `cell` into the row at `position` with index maintenance
    /// *deferred*: only the serial entry list is updated and the row's
    /// partition index is marked stale. Queries on a stale row fall back to
    /// the linear entry scan, and the next [`write_cell`] rebuilds the index.
    ///
    /// This is the splice path's write primitive: a warm re-merge replays
    /// whole chain logs cell by cell, and per-cell sorted inserts into the
    /// index would dominate its cost.
    #[inline]
    fn write_cell_deferred(&mut self, position: usize, index: u32, cell: Cell) -> Option<Cell> {
        let row = &mut self.rows[position];
        row.index.stale = true;
        Self::write_entry(&mut row.entries, index, cell)
    }

    /// Grafts a column into the table: returns the insertion-order index of
    /// the column headed by `column`, appending a fresh column past the
    /// current column count when the cube is not tabled yet.
    ///
    /// This is the renumbering primitive behind
    /// [`splice_log`](ScheduleTable::splice_log): a retained
    /// column keeps its index, a transaction-local column key is renumbered
    /// to the next free index, and because logs replay in their original
    /// write order the relative order of spliced columns — and hence the
    /// serial entry order inside every row — is preserved.
    pub fn graft_column(&mut self, column: Cube) -> usize {
        self.column_index_or_insert(column)
    }

    /// Replays a recorded transaction log ([`crate::TxnLog`]) with each
    /// distinct column resolved to its grafted index exactly once, writing
    /// cells by direct index.
    ///
    /// Observably identical to [`TxnLog::commit_into`](crate::TxnLog::commit_into)
    /// (a [`ScheduleTable::set_on`] per write); it only skips the repeated column lookups and defers
    /// partition-index maintenance on the touched rows (queries on a stale
    /// row serve the same entries from the linear scan until the next direct
    /// write rebuilds the index).
    pub fn splice_log(&mut self, log: &crate::TxnLog) {
        let mut grafted: Vec<(Cube, u32)> = Vec::new();
        for write in &log.writes {
            let index = match grafted.binary_search_by(|&(c, _)| c.cmp(&write.column)) {
                Ok(at) => grafted[at].1,
                Err(at) => {
                    let index = self.column_index_or_insert(write.column) as u32;
                    grafted.insert(at, (write.column, index));
                    index
                }
            };
            let position = self.row_position_or_insert(write.job);
            let cell = Cell {
                time: write.time,
                resource: write.resource,
            };
            self.write_cell_deferred(position, index, cell);
        }
    }

    /// Removes the activation time of `job` in the column headed by `column`,
    /// returning it if it was present.
    pub fn remove(&mut self, job: Job, column: &Cube) -> Option<Time> {
        let index = self.column_index(column)? as u32;
        let position = self.row_position(job)?;
        let entries = &mut self.rows[position].entries;
        let at = entries.binary_search_by_key(&index, |&(i, _)| i).ok()?;
        let (_, cell) = entries.remove(at);
        let row = &mut self.rows[position];
        if row.entries.is_empty() {
            self.rows.remove(position);
            self.index_row(job, ABSENT);
            for shifted in position..self.rows.len() {
                let shifted_job = self.rows[shifted].job;
                self.index_row(shifted_job, shifted as u32);
            }
        } else if !row.index.stale {
            row.index.remove(index, *column, cell);
        }
        Some(cell.time)
    }

    /// The cell of `job` under the exact column index, if present.
    #[inline]
    fn cell(&self, job: Job, index: usize) -> Option<&Cell> {
        let row = self.row(job)?;
        let at = row
            .entries
            .binary_search_by_key(&(index as u32), |&(i, _)| i)
            .ok()?;
        Some(&row.entries[at].1)
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
                .map(|&(i, cell)| (self.columns[i as usize], cell.time, cell.resource))
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
            row.entries.iter().map(move |&(i, cell)| {
                (row.job, self.columns[i as usize], cell.time, cell.resource)
            })
        })
    }

    /// `true` when the row for `job` contains at least one activation time.
    #[must_use]
    pub fn contains_job(&self, job: Job) -> bool {
        self.row_position(job).is_some()
    }

    /// The entries of a row that are *compatible* with (not excluded by) the
    /// given column expression — the potential conflicts examined by the
    /// table-generation algorithm before placing a new activation time.
    ///
    /// Served from the row's condition-partition index, so entries come out
    /// in mention-mask group order rather than column insertion order; a
    /// group whose union masks cannot exclude `column` is yielded without
    /// testing any member cube. A row whose index is stale (maintenance was
    /// deferred by a log splice) is scanned linearly instead, in column
    /// insertion order.
    pub fn compatible_entries<'a>(
        &'a self,
        job: Job,
        column: &'a Cube,
    ) -> impl Iterator<Item = (Cube, Time)> + 'a {
        let (probe_pos, probe_neg) = (column.positive_mask(), column.negative_mask());
        let row = self.row(job);
        let fresh = row.filter(|row| !row.index.stale);
        let stale = row.filter(|row| row.index.stale);
        let indexed = fresh.into_iter().flat_map(move |row| {
            let index = &row.index;
            (0..index.groups.len()).flat_map(move |group| {
                let meta = &index.groups[group];
                let whole_group = probe_pos & meta.neg == 0 && probe_neg & meta.pos == 0;
                let (start, end) = index.group_range(group);
                index.members[start..end]
                    .iter()
                    .filter(move |&&(_, existing, _)| whole_group || existing.compatible(column))
                    .map(|&(_, existing, cell)| (existing, cell.time))
            })
        });
        let linear = stale.into_iter().flat_map(move |row| {
            row.entries
                .iter()
                .map(move |&(key, cell)| (self.columns[key as usize], cell.time))
                .filter(move |(existing, _)| existing.compatible(column))
        });
        indexed.chain(linear)
    }

    /// Calls `visit(column index, column, cell)` for every entry of `row`
    /// whose column is satisfied by a complete condition assignment, in an
    /// unspecified order. Served from the row's index, where groups
    /// mentioning an unassigned condition are skipped wholesale (such a
    /// column cannot be satisfied); a stale row is scanned linearly.
    #[inline]
    fn for_each_satisfied(
        &self,
        row: &Row,
        assignment: &Assignment,
        mut visit: impl FnMut(u32, Cube, Cell),
    ) {
        let index = &row.index;
        if index.stale {
            for &(key, cell) in &row.entries {
                let column = self.columns[key as usize];
                if column.satisfied_by(assignment) {
                    visit(key, column, cell);
                }
            }
            return;
        }
        let assigned = assignment.assigned_mask();
        for group in 0..index.groups.len() {
            if index.groups[group].mask & !assigned != 0 {
                continue;
            }
            let (start, end) = index.group_range(group);
            for &(key, column, cell) in &index.members[start..end] {
                if column.satisfied_by(assignment) {
                    visit(key, column, cell);
                }
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
        self.for_each_satisfied(self.row(job)?, assignment, |_, _, cell| {
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
        self.for_each_satisfied(self.row(job)?, assignment, |key, column, cell| {
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
        self.for_each_satisfied(self.row(job)?, assignment, |key, satisfied, cell| {
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
    #[must_use]
    pub fn worst_case_delay(&self, cpg: &Cpg, tracks: &TrackSet) -> Time {
        tracks
            .iter()
            .map(|t| self.track_delay(cpg, &t.label()))
            .max()
            .unwrap_or(Time::ZERO)
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
                    cpg.guard(pid).clone()
                }
                Job::Broadcast(cond) => {
                    if cond.index() >= cpg.num_conditions() {
                        violations.push(TableViolation::UnknownJob { job });
                        continue;
                    }
                    cpg.guard(cpg.disjunction_of(cond)).clone()
                }
            };
            if !guard.implied_by(&column) {
                violations.push(TableViolation::GuardViolated { job, column });
            }
        }

        // Requirement 2.
        for job in self.jobs() {
            let entries: Vec<(Cube, Time)> = self.entries(job).collect();
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

        // Requirement 3.
        for track in tracks.iter() {
            let assignment = Assignment::from_cube(&track.label());
            for &pid in track.processes() {
                if cpg.process(pid).kind().is_dummy() {
                    continue;
                }
                let job = Job::Process(pid);
                if self.activation_time(job, &assignment).is_none() {
                    violations.push(TableViolation::MissingActivation {
                        job,
                        track: track.label(),
                    });
                }
            }
            for cond in track.determined_conditions() {
                let job = Job::Broadcast(cond);
                if self.contains_job(job) && self.activation_time(job, &assignment).is_none() {
                    violations.push(TableViolation::MissingActivation {
                        job,
                        track: track.label(),
                    });
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
                    .cell(job, index)
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

    #[inline]
    fn column_index(&self, column: &Cube) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    /// The insertion-order index of `column`, if the table has that column.
    #[inline]
    pub(crate) fn column_position(&self, column: &Cube) -> Option<usize> {
        self.column_index(column)
    }

    /// Visits the entries of the row of `job` in column-index order, passing
    /// the table-wide column index as a stable sort key.
    ///
    /// `#[inline]` (like on the other probe methods) so the merge walk's
    /// monomorphized hot loops can inline the scan across the crate boundary
    /// and devirtualize the visitor closure, matching the cost of direct
    /// slice iteration.
    #[inline]
    pub(crate) fn visit_keyed_entries(
        &self,
        job: Job,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        if let Some(row) = self.row(job) {
            for &(index, cell) in &row.entries {
                visit(
                    u64::from(index),
                    self.columns[index as usize],
                    cell.time,
                    cell.resource,
                );
            }
        }
    }

    /// Visits the entries of the row of `job` whose column is *compatible*
    /// with `probe`, passing the table-wide column index as a stable key.
    ///
    /// Served from the row's condition-partition index, so iteration order is
    /// mention-mask group order, not serial entry order — callers must either
    /// be order-independent or re-establish a deterministic order from the
    /// keys. A row whose aggregate union masks cannot exclude the probe is
    /// visited without testing a single cube; otherwise each group is either
    /// all-compatible (its union masks cannot exclude the probe) or tested
    /// member by member with the two-AND cube test.
    // lint: hot-path
    #[inline]
    pub(crate) fn visit_compatible_entries(
        &self,
        job: Job,
        probe: &Cube,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        let Some(row) = self.row(job) else { return };
        let index = &row.index;
        if index.stale {
            // A splice deferred index maintenance on this row: serve the
            // scan linearly from the serial entries, exactly as before the
            // index existed.
            for &(key, cell) in &row.entries {
                let column = self.columns[key as usize];
                if column.compatible(probe) {
                    visit(u64::from(key), column, cell.time, cell.resource);
                }
            }
            return;
        }
        let (probe_pos, probe_neg) = (probe.positive_mask(), probe.negative_mask());
        if probe_pos & index.neg_union == 0 && probe_neg & index.pos_union == 0 {
            // Nothing in the row can exclude the probe: visit everything.
            for &(key, column, cell) in &index.members {
                visit(u64::from(key), column, cell.time, cell.resource);
            }
            return;
        }
        for group in 0..index.groups.len() {
            let meta = &index.groups[group];
            let (start, end) = index.group_range(group);
            if probe_pos & meta.neg == 0 && probe_neg & meta.pos == 0 {
                for &(key, column, cell) in &index.members[start..end] {
                    visit(u64::from(key), column, cell.time, cell.resource);
                }
            } else {
                for &(key, column, cell) in &index.members[start..end] {
                    if column.compatible(probe) {
                        visit(u64::from(key), column, cell.time, cell.resource);
                    }
                }
            }
        }
    }

    /// Visits the entries of the row of `job` tabled at exactly `time`,
    /// passing the table-wide column index as a stable key. Served from the
    /// row's time bucketing: a direct binary search instead of a full-row
    /// filter. Iteration order within the bucket is column-index order.
    // lint: hot-path
    #[inline]
    pub(crate) fn visit_entries_at(
        &self,
        job: Job,
        time: Time,
        visit: &mut dyn FnMut(u64, Cube, Option<PeId>),
    ) {
        let Some(row) = self.row(job) else { return };
        if row.index.stale {
            for &(key, cell) in &row.entries {
                if cell.time == time {
                    visit(u64::from(key), self.columns[key as usize], cell.resource);
                }
            }
            return;
        }
        let times = &row.index.times;
        let start = times.partition_point(|&(t, ..)| t < time);
        for &(t, key, column, resource) in &times[start..] {
            if t != time {
                break;
            }
            visit(u64::from(key), column, resource);
        }
    }

    #[inline]
    fn column_index_or_insert(&mut self, column: Cube) -> usize {
        match self.column_index(&column) {
            Some(index) => index,
            None => {
                self.columns.push(column);
                self.columns.len() - 1
            }
        }
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
}
