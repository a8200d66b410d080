//! Write transactions over a [`ScheduleTable`]: the recording layer of
//! incremental re-merge.
//!
//! A `MergeSession` (crate `cpg-merge`) records every forward chain of the
//! decision tree through a [`TableTxn`]: a write overlay over the table as
//! it stood at the chain's serial entry point, buffering the chain's
//! `place`/`repair_slip` writes together with a content-based read set. The
//! detached [`TxnLog`] is spliced into the table at once and cached; a later
//! re-merge replays it only after [`TxnLog::validate`] proves the rebuilt
//! table would still serve every recorded read verbatim, so the recorded
//! decisions are the ones a cold walk would take.
//!
//! Two ingredients make the validation sound:
//!
//! * **Content-based read dependencies**: a point probe ([`TableView::get`] /
//!   [`TableView::resource`]) records the exact `(job, column)` cell and the
//!   value it observed; a row scan ([`TableView::for_each_keyed_entry_on`])
//!   records an order-sensitive FNV fingerprint of the full keyed entry list.
//!   [`TxnLog::validate`] re-probes the table and succeeds only if every
//!   recorded observation would be reproduced verbatim: rewriting a cell with
//!   the same value, or writing a *different* cell of a row that was only
//!   point-probed, keeps the log valid, while an entry added to a scanned row
//!   invalidates it (the fingerprint covers keys, so ordering changes are
//!   caught too).
//! * **Column-creation tracking**: a transaction that creates a column keys
//!   it past the table's column count, preserving the relative entry order a
//!   serial replay would produce. If the table meanwhile holds the *same*
//!   column cube, the global column order (and hence row-entry iteration
//!   order) would differ from the recording, so [`TxnLog::validate`] also
//!   fails when any transaction-created column already exists.
//!
//! A validated log is replayed with [`ScheduleTable::splice_log`]: every
//! distinct column cube of the log is grafted (found-or-appended,
//! renumbering the transaction-local keys past the table's current column
//! count) exactly once, then the cells are written by direct column index in
//! chronological order, preserving the serial entry order inside every row.

use std::cell::RefCell;
use std::hash::Hash;

use cpg::{Cube, FrontierHasher};
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;

use crate::ScheduleTable;

/// Order-sensitive FNV-1a fingerprint of the keyed entry list of one row.
///
/// Two views whose rows fingerprint equal would feed a scan the exact same
/// `(key, column, time, resource)` sequence; [`TxnLog::validate`] uses this
/// to re-check recorded row scans by content instead of by write version.
#[must_use]
pub fn row_fingerprint<V: TableView + ?Sized>(view: &V, job: Job) -> u64 {
    let mut hasher = FrontierHasher::new();
    let mut entries = 0u64;
    view.for_each_keyed_entry_on(job, &mut |key, column, time, resource| {
        entries += 1;
        (key, column, time, resource).hash(&mut hasher);
    });
    entries.hash(&mut hasher);
    std::hash::Hasher::finish(&hasher)
}

/// The table operations the merge walk needs, abstracted so the walk can
/// write straight into the real [`ScheduleTable`] (cold merges) or through a
/// recording [`TableTxn`] overlay (the chains of a `MergeSession`).
///
/// The trait deliberately excludes `remove`: the walk only ever adds or
/// overwrites activation times.
pub trait TableView {
    /// The activation time of `job` in the column headed exactly by `column`.
    fn get(&self, job: Job, column: &Cube) -> Option<Time>;

    /// The resource recorded for `job` in the column headed exactly by
    /// `column`, when the cell exists and carries provenance.
    fn resource(&self, job: Job, column: &Cube) -> Option<PeId>;

    /// Records the activation time of `job` under `column` together with the
    /// resource provenance, creating the column when absent, and returns the
    /// previously stored time for that cell, if any.
    fn set_on(
        &mut self,
        job: Job,
        column: Cube,
        time: Time,
        resource: Option<PeId>,
    ) -> Option<Time>;

    /// Visits the `(key, column, time, resource)` entries of the row of
    /// `job`, ordered by `key` — a view-wide stand-in for the column
    /// insertion index, chosen so that the iteration order matches what the
    /// serial walk would observe on the real table.
    fn for_each_keyed_entry_on(
        &self,
        job: Job,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    );

    /// Visits the `(column, time, resource)` entries of the row of `job` in
    /// the view's column order.
    #[inline]
    fn for_each_entry_on(&self, job: Job, visit: &mut dyn FnMut(Cube, Time, Option<PeId>)) {
        self.for_each_keyed_entry_on(job, &mut |_, column, time, resource| {
            visit(column, time, resource);
        });
    }

    /// Visits the `(key, column, time, resource)` entries of the row of `job`
    /// whose column is *compatible* with (not excluded by) `probe`.
    ///
    /// **Iteration order is unspecified** — [`ScheduleTable`] serves this
    /// from its per-row condition-partition index in mention-mask group
    /// order. Callers must be order-independent or re-establish a
    /// deterministic order from the keys. The default filters a keyed scan,
    /// so it visits in key order and records the same read dependencies a
    /// keyed scan would.
    #[inline]
    fn for_each_compatible_entry_on(
        &self,
        job: Job,
        probe: &Cube,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        self.for_each_keyed_entry_on(job, &mut |key, column, time, resource| {
            if column.compatible(probe) {
                visit(key, column, time, resource);
            }
        });
    }

    /// Visits the `(key, column, resource)` entries of the row of `job`
    /// tabled at exactly `time`.
    ///
    /// **Iteration order is unspecified** — [`ScheduleTable`] serves this
    /// from its per-row time bucketing. The default filters a keyed scan.
    #[inline]
    fn for_each_entry_at_on(
        &self,
        job: Job,
        time: Time,
        visit: &mut dyn FnMut(u64, Cube, Option<PeId>),
    ) {
        self.for_each_keyed_entry_on(job, &mut |key, column, tabled, resource| {
            if tabled == time {
                visit(key, column, resource);
            }
        });
    }

    /// The write version of the row of `job` (0 when never written).
    fn row_version(&self, job: Job) -> u64;
}

// The impl methods are `#[inline]`: the walk is monomorphized over
// `V = ScheduleTable`, and without cross-crate inlining every row probe of
// its hot loops would pay an opaque call plus a virtual visitor dispatch per
// entry (the closures devirtualize once the scan is inlined to where the
// concrete closure type is visible).
impl TableView for ScheduleTable {
    #[inline]
    fn get(&self, job: Job, column: &Cube) -> Option<Time> {
        ScheduleTable::get(self, job, column)
    }

    #[inline]
    fn resource(&self, job: Job, column: &Cube) -> Option<PeId> {
        ScheduleTable::resource(self, job, column)
    }

    #[inline]
    fn set_on(
        &mut self,
        job: Job,
        column: Cube,
        time: Time,
        resource: Option<PeId>,
    ) -> Option<Time> {
        ScheduleTable::set_on(self, job, column, time, resource)
    }

    #[inline]
    fn for_each_keyed_entry_on(
        &self,
        job: Job,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        self.visit_keyed_entries(job, visit);
    }

    #[inline]
    fn for_each_compatible_entry_on(
        &self,
        job: Job,
        probe: &Cube,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        self.visit_compatible_entries(job, probe, visit);
    }

    #[inline]
    fn for_each_entry_at_on(
        &self,
        job: Job,
        time: Time,
        visit: &mut dyn FnMut(u64, Cube, Option<PeId>),
    ) {
        self.visit_entries_at(job, time, visit);
    }

    #[inline]
    fn row_version(&self, job: Job) -> u64 {
        ScheduleTable::row_version(self, job)
    }
}

/// One buffered write of a transaction, replayed verbatim on commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write {
    pub(crate) job: Job,
    pub(crate) column: Cube,
    pub(crate) time: Time,
    pub(crate) resource: Option<PeId>,
}

/// The content-based read set of a transaction: what was observed, so
/// validation can re-check that the table would still serve the same answers.
#[derive(Debug, Default)]
struct ReadSet {
    /// `(job, column, observed time)` for every point probe of a row the
    /// transaction never wrote, sorted by `(job, column)`, first probe wins
    /// (the base is frozen, so later probes observe the same value).
    time_probes: Vec<(Job, Cube, Option<Time>)>,
    /// `(job, column, observed resource)` for every resource probe of an
    /// unwritten row, sorted like `time_probes`.
    resource_probes: Vec<(Job, Cube, Option<PeId>)>,
    /// `(job, fingerprint)` for every row the transaction scanned (or cloned
    /// into its overlay on first write), sorted by job.
    row_scans: Vec<(Job, u64)>,
}

impl ReadSet {
    fn note_time(&mut self, job: Job, column: Cube, observed: Option<Time>) {
        if let Err(at) = self
            .time_probes
            .binary_search_by(|&(j, c, _)| (j, c).cmp(&(job, column)))
        {
            self.time_probes.insert(at, (job, column, observed));
        }
    }

    fn note_resource(&mut self, job: Job, column: Cube, observed: Option<PeId>) {
        if let Err(at) = self
            .resource_probes
            .binary_search_by(|&(j, c, _)| (j, c).cmp(&(job, column)))
        {
            self.resource_probes.insert(at, (job, column, observed));
        }
    }

    fn has_row_scan(&self, job: Job) -> bool {
        self.row_scans
            .binary_search_by_key(&job, |&(j, _)| j)
            .is_ok()
    }

    fn note_row_scan(&mut self, job: Job, fingerprint: u64) {
        if let Err(at) = self.row_scans.binary_search_by_key(&job, |&(j, _)| j) {
            self.row_scans.insert(at, (job, fingerprint));
        }
    }
}

/// One overlay row: the merged `(key, column, time, resource)` entries of the
/// base row plus this transaction's writes, sorted by key, together with the
/// number of writes the transaction applied to the row.
///
/// The union masks are the transaction-local delta of the base table's
/// condition-partition index: they are kept current as base entries are
/// cloned in and overlay writes land, so a compatibility scan over the
/// overlay can take the same "nothing here can exclude the probe" fast path
/// the indexed base row takes.
#[derive(Debug)]
struct TxnRow {
    job: Job,
    written: u64,
    entries: Vec<(u64, Cube, Time, Option<PeId>)>,
    /// Union of the positive masks over every column of the merged row.
    pos_union: u64,
    /// Union of the negative masks over every column of the merged row.
    neg_union: u64,
}

/// A recording write overlay over a frozen [`ScheduleTable`].
///
/// Reads fall through to the base until the transaction first writes a row,
/// at which point the base row is cloned into the overlay (recording a
/// content fingerprint of the base row); point probes of unwritten rows
/// record the observed value per `(job, column)` cell. Fresh columns are
/// keyed past the base's column count in first-write order, which is exactly
/// the insertion order a serial replay of the write log produces.
pub struct TableTxn<'b> {
    base: &'b ScheduleTable,
    /// Column count of the base at creation time.
    base_bound: u64,
    /// Column cubes this transaction created, in first-write order.
    new_columns: Vec<Cube>,
    /// Overlay rows, sorted by job.
    rows: Vec<TxnRow>,
    /// Content-based read dependencies, recorded through `&self` reads.
    reads: RefCell<ReadSet>,
    /// Chronological write log, replayed by [`ScheduleTable::splice_log`].
    writes: Vec<Write>,
}

impl<'b> TableTxn<'b> {
    /// Opens a transaction over `base`, which must not change while the
    /// transaction records — the read set records observations at first
    /// touch.
    #[must_use]
    pub fn new(base: &'b ScheduleTable) -> Self {
        Self {
            base_bound: base.num_columns() as u64,
            base,
            new_columns: Vec::new(),
            rows: Vec::new(),
            reads: RefCell::new(ReadSet::default()),
            writes: Vec::new(),
        }
    }

    /// Records a scan dependency on the base row of `job`, fingerprinting it
    /// unless a scan was already recorded.
    fn note_base_row_scan(&self, job: Job) {
        if self.reads.borrow().has_row_scan(job) {
            return;
        }
        let fingerprint = row_fingerprint(self.base, job);
        self.reads.borrow_mut().note_row_scan(job, fingerprint);
    }

    fn overlay(&self, job: Job) -> Option<&TxnRow> {
        self.rows
            .binary_search_by_key(&job, |row| row.job)
            .ok()
            .map(|at| &self.rows[at])
    }

    /// The key of `column` in this view: the base's column index when the
    /// base has the column, else the transaction-local key when this
    /// transaction created it.
    fn key_of(&self, column: &Cube) -> Option<u64> {
        self.base
            .column_position(column)
            .map(|index| index as u64)
            .or_else(|| {
                self.new_columns
                    .iter()
                    .position(|c| c == column)
                    .map(|at| self.base_bound + at as u64)
            })
    }

    fn key_or_insert(&mut self, column: Cube) -> u64 {
        match self.key_of(&column) {
            Some(key) => key,
            None => {
                self.new_columns.push(column);
                self.base_bound + (self.new_columns.len() - 1) as u64
            }
        }
    }

    /// Number of buffered writes.
    #[must_use]
    pub fn num_writes(&self) -> usize {
        self.writes.len()
    }

    /// Detaches the transaction from its base, yielding an owned log that
    /// can be validated against and spliced into the (now again mutable)
    /// table.
    #[must_use]
    pub fn into_log(self) -> TxnLog {
        TxnLog {
            reads: self.reads.into_inner(),
            new_columns: self.new_columns,
            writes: self.writes,
        }
    }
}

impl TableView for TableTxn<'_> {
    #[inline]
    fn get(&self, job: Job, column: &Cube) -> Option<Time> {
        match self.overlay(job) {
            // Overlay rows need no recording: the base row was fingerprinted
            // when it was cloned in, and the overlay itself is private.
            Some(row) => {
                let key = self.key_of(column)?;
                row.entries
                    .binary_search_by_key(&key, |&(k, ..)| k)
                    .ok()
                    .map(|at| row.entries[at].2)
            }
            None => {
                let observed = self.base.get(job, column);
                self.reads.borrow_mut().note_time(job, *column, observed);
                observed
            }
        }
    }

    #[inline]
    fn resource(&self, job: Job, column: &Cube) -> Option<PeId> {
        match self.overlay(job) {
            Some(row) => {
                let key = self.key_of(column)?;
                row.entries
                    .binary_search_by_key(&key, |&(k, ..)| k)
                    .ok()
                    .and_then(|at| row.entries[at].3)
            }
            None => {
                let observed = self.base.resource(job, column);
                self.reads
                    .borrow_mut()
                    .note_resource(job, *column, observed);
                observed
            }
        }
    }

    #[inline]
    fn set_on(
        &mut self,
        job: Job,
        column: Cube,
        time: Time,
        resource: Option<PeId>,
    ) -> Option<Time> {
        let key = self.key_or_insert(column);
        let at = match self.rows.binary_search_by_key(&job, |row| row.job) {
            Ok(at) => at,
            Err(at) => {
                // First write to this row: clone the base row into the
                // overlay so later reads see a complete merged row, and
                // record a content dependency on the base state that was
                // cloned (fingerprinted in the same pass). The union masks
                // of the cloned columns are accumulated in the same pass,
                // seeding the overlay's index delta.
                let mut entries = Vec::new();
                let mut pos_union = 0u64;
                let mut neg_union = 0u64;
                let mut hasher = FrontierHasher::new();
                self.base.visit_keyed_entries(job, &mut |k, c, t, r| {
                    (k, c, t, r).hash(&mut hasher);
                    pos_union |= c.positive_mask();
                    neg_union |= c.negative_mask();
                    entries.push((k, c, t, r));
                });
                (entries.len() as u64).hash(&mut hasher);
                self.reads
                    .get_mut()
                    .note_row_scan(job, std::hash::Hasher::finish(&hasher));
                self.rows.insert(
                    at,
                    TxnRow {
                        job,
                        written: 0,
                        entries,
                        pos_union,
                        neg_union,
                    },
                );
                at
            }
        };
        self.writes.push(Write {
            job,
            column,
            time,
            resource,
        });
        let row = &mut self.rows[at];
        row.written += 1;
        row.pos_union |= column.positive_mask();
        row.neg_union |= column.negative_mask();
        match row.entries.binary_search_by_key(&key, |&(k, ..)| k) {
            Ok(slot) => {
                let previous = row.entries[slot].2;
                row.entries[slot] = (key, column, time, resource);
                Some(previous)
            }
            Err(slot) => {
                row.entries.insert(slot, (key, column, time, resource));
                None
            }
        }
    }

    #[inline]
    fn for_each_keyed_entry_on(
        &self,
        job: Job,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        match self.overlay(job) {
            Some(row) => {
                for &(key, column, time, resource) in &row.entries {
                    visit(key, column, time, resource);
                }
            }
            None if self.reads.borrow().has_row_scan(job) => {
                self.base.visit_keyed_entries(job, visit);
            }
            None => {
                // Fingerprint the base row in the same pass that serves the
                // scan.
                let mut hasher = FrontierHasher::new();
                let mut entries = 0u64;
                self.base.visit_keyed_entries(job, &mut |k, c, t, r| {
                    entries += 1;
                    (k, c, t, r).hash(&mut hasher);
                    visit(k, c, t, r);
                });
                entries.hash(&mut hasher);
                self.reads
                    .borrow_mut()
                    .note_row_scan(job, std::hash::Hasher::finish(&hasher));
            }
        }
    }

    #[inline]
    fn for_each_compatible_entry_on(
        &self,
        job: Job,
        probe: &Cube,
        visit: &mut dyn FnMut(u64, Cube, Time, Option<PeId>),
    ) {
        match self.overlay(job) {
            Some(row) => {
                // Same fast path as the indexed base row: when the merged
                // row's union masks cannot exclude the probe, every entry is
                // compatible and no cube is tested.
                if probe.positive_mask() & row.neg_union == 0
                    && probe.negative_mask() & row.pos_union == 0
                {
                    for &(key, column, time, resource) in &row.entries {
                        visit(key, column, time, resource);
                    }
                } else {
                    for &(key, column, time, resource) in &row.entries {
                        if column.compatible(probe) {
                            visit(key, column, time, resource);
                        }
                    }
                }
            }
            None if self.reads.borrow().has_row_scan(job) => {
                // Scan dependency already recorded: serve straight from the
                // base's indexed scan.
                self.base.visit_compatible_entries(job, probe, visit);
            }
            None => {
                // Which entries qualify is a function of the whole row, so
                // the dependency is the full row fingerprint — recorded in
                // the same pass that serves the scan, exactly like a keyed
                // scan would.
                let mut hasher = FrontierHasher::new();
                let mut entries = 0u64;
                self.base.visit_keyed_entries(job, &mut |k, c, t, r| {
                    entries += 1;
                    (k, c, t, r).hash(&mut hasher);
                    if c.compatible(probe) {
                        visit(k, c, t, r);
                    }
                });
                entries.hash(&mut hasher);
                self.reads
                    .borrow_mut()
                    .note_row_scan(job, std::hash::Hasher::finish(&hasher));
            }
        }
    }

    #[inline]
    fn for_each_entry_at_on(
        &self,
        job: Job,
        time: Time,
        visit: &mut dyn FnMut(u64, Cube, Option<PeId>),
    ) {
        match self.overlay(job) {
            Some(row) => {
                for &(key, column, tabled, resource) in &row.entries {
                    if tabled == time {
                        visit(key, column, resource);
                    }
                }
            }
            None if self.reads.borrow().has_row_scan(job) => {
                self.base.visit_entries_at(job, time, visit);
            }
            None => {
                let mut hasher = FrontierHasher::new();
                let mut entries = 0u64;
                self.base.visit_keyed_entries(job, &mut |k, c, t, r| {
                    entries += 1;
                    (k, c, t, r).hash(&mut hasher);
                    if t == time {
                        visit(k, c, r);
                    }
                });
                entries.hash(&mut hasher);
                self.reads
                    .borrow_mut()
                    .note_row_scan(job, std::hash::Hasher::finish(&hasher));
            }
        }
    }

    #[inline]
    fn row_version(&self, job: Job) -> u64 {
        // Version numbers leak write history, not content; treat the call as
        // a full row dependency so validation stays conservative here.
        self.note_base_row_scan(job);
        self.base.row_version(job) + self.overlay(job).map_or(0, |row| row.written)
    }
}

/// The owned outcome of a [`TableTxn`]: its read set, created columns and
/// chronological write log.
#[derive(Debug)]
pub struct TxnLog {
    reads: ReadSet,
    new_columns: Vec<Cube>,
    pub(crate) writes: Vec<Write>,
}

impl TxnLog {
    /// The column cubes this log writes under, in write order (duplicates
    /// possible). An incremental re-merge uses them to bound which
    /// alternative paths a changed table region can affect.
    pub fn written_columns(&self) -> impl Iterator<Item = Cube> + '_ {
        self.writes.iter().map(|write| write.column)
    }

    /// `true` when the recording still holds against `table`: every point
    /// probe would observe the value it recorded, every scanned row still
    /// fingerprints to the recorded content, and no column the transaction
    /// created exists in the table yet (which would give the replayed
    /// entries a different global order than the recording assumed).
    #[must_use]
    pub fn validate(&self, table: &ScheduleTable) -> bool {
        self.reads
            .time_probes
            .iter()
            .all(|&(job, column, observed)| table.get(job, &column) == observed)
            && self
                .reads
                .resource_probes
                .iter()
                .all(|&(job, column, observed)| table.resource(job, &column) == observed)
            && self
                .reads
                .row_scans
                .iter()
                .all(|&(job, fingerprint)| row_fingerprint(table, job) == fingerprint)
            && self
                .new_columns
                .iter()
                .all(|column| table.column_position(column).is_none())
    }

    /// Replays the buffered writes into `view` one by one, in their original
    /// order — the reference semantics [`ScheduleTable::splice_log`] must
    /// reproduce.
    pub fn commit_into<V: TableView + ?Sized>(&self, view: &mut V) {
        for write in &self.writes {
            view.set_on(write.job, write.column, write.time, write.resource);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{CondId, ProcessId};

    fn p(i: usize) -> Job {
        Job::Process(ProcessId::from_index(i))
    }

    fn c(i: usize) -> CondId {
        CondId::new(i)
    }

    fn cube_t(i: usize) -> Cube {
        Cube::from(c(i).is_true())
    }

    fn cube_f(i: usize) -> Cube {
        Cube::from(c(i).is_false())
    }

    #[test]
    fn row_versions_count_writes_and_survive_removal() {
        let mut table = ScheduleTable::new();
        assert_eq!(table.row_version(p(1)), 0);
        table.set(p(1), Cube::top(), Time::new(1));
        assert_eq!(table.row_version(p(1)), 1);
        // Overwriting with the identical value still counts as a write.
        table.set(p(1), Cube::top(), Time::new(1));
        assert_eq!(table.row_version(p(1)), 2);
        table.remove(p(1), &Cube::top());
        assert!(!table.contains_job(p(1)));
        assert_eq!(table.row_version(p(1)), 3);
        // Removing an absent entry is not a write.
        table.remove(p(1), &Cube::top());
        assert_eq!(table.row_version(p(1)), 3);
        // Versions are bookkeeping, not content: a table with a different
        // write history but the same cells compares equal.
        let mut other = ScheduleTable::new();
        other.set(p(1), Cube::top(), Time::new(1));
        other.remove(p(1), &Cube::top());
        assert_eq!(table, other);
        assert_ne!(table.row_version(p(1)), other.row_version(p(1)));
    }

    #[test]
    fn reads_fall_through_and_writes_overlay() {
        let mut table = ScheduleTable::new();
        table.set_on(p(1), Cube::top(), Time::new(4), Some(PeId::from_index(0)));
        let mut txn = TableTxn::new(&table);
        // Read-through.
        assert_eq!(txn.get(p(1), &Cube::top()), Some(Time::new(4)));
        assert_eq!(txn.resource(p(1), &Cube::top()), Some(PeId::from_index(0)));
        assert_eq!(txn.get(p(2), &Cube::top()), None);
        // Overlay write: visible in the txn, invisible in the base.
        assert_eq!(
            txn.set_on(p(1), Cube::top(), Time::new(9), None),
            Some(Time::new(4))
        );
        assert_eq!(txn.get(p(1), &Cube::top()), Some(Time::new(9)));
        assert_eq!(txn.set_on(p(2), cube_t(0), Time::new(7), None), None);
        assert_eq!(txn.num_writes(), 2);
        assert_eq!(
            ScheduleTable::get(&table, p(1), &Cube::top()),
            Some(Time::new(4))
        );

        let log = txn.into_log();
        assert!(log.validate(&table));
        log.commit_into(&mut table);
        assert_eq!(
            ScheduleTable::get(&table, p(1), &Cube::top()),
            Some(Time::new(9))
        );
        assert_eq!(
            ScheduleTable::get(&table, p(2), &cube_t(0)),
            Some(Time::new(7))
        );
    }

    #[test]
    fn overlay_iteration_order_matches_a_serial_replay() {
        // Base has columns [top, c0]; the txn writes a fresh column c1 and
        // then another base column. After commit the real table's row must
        // iterate in the same relative order the overlay showed.
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        table.set(p(1), cube_t(0), Time::new(1));
        let mut txn = TableTxn::new(&table);
        txn.set_on(p(1), cube_t(1), Time::new(2), None);
        txn.set_on(p(1), cube_f(1), Time::new(3), None);
        let mut overlay_order = Vec::new();
        txn.for_each_entry_on(p(1), &mut |column, time, _| {
            overlay_order.push((column, time));
        });
        let log = txn.into_log();
        log.commit_into(&mut table);
        let replayed: Vec<_> = table.entries(p(1)).collect();
        assert_eq!(overlay_order, replayed);
    }

    #[test]
    fn validation_is_per_cell_and_content_based() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let txn = TableTxn::new(&table);
        // A point probe (even of an absent cell) is a dependency on that
        // cell's content.
        assert_eq!(txn.get(p(1), &Cube::top()), Some(Time::new(0)));
        assert_eq!(txn.get(p(2), &Cube::top()), None);
        let log = txn.into_log();
        assert!(log.validate(&table));
        // Another chain writing a *different* cell of a probed row keeps the
        // recording valid.
        table.set(p(2), cube_t(0), Time::new(5));
        assert!(log.validate(&table));
        // Neither does rewriting a probed cell with the same value.
        table.set(p(1), Cube::top(), Time::new(0));
        assert!(log.validate(&table));
        // Changing the probed value does.
        table.set(p(1), Cube::top(), Time::new(9));
        assert!(!log.validate(&table));
    }

    #[test]
    fn validation_fails_when_a_probed_absent_cell_appears() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let txn = TableTxn::new(&table);
        assert_eq!(txn.get(p(2), &Cube::top()), None);
        let log = txn.into_log();
        assert!(log.validate(&table));
        table.set(p(2), Cube::top(), Time::new(5));
        assert!(!log.validate(&table));
    }

    #[test]
    fn validation_fails_when_a_scanned_row_gains_an_entry() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let txn = TableTxn::new(&table);
        let mut seen = 0;
        txn.for_each_entry_on(p(1), &mut |_, _, _| seen += 1);
        assert_eq!(seen, 1);
        let log = txn.into_log();
        assert!(log.validate(&table));
        // Same content rewrite of the scanned row: fingerprint unchanged.
        table.set(p(1), Cube::top(), Time::new(0));
        assert!(log.validate(&table));
        // A new entry in the scanned row changes what the scan would feed.
        table.set(p(1), cube_t(0), Time::new(3));
        assert!(!log.validate(&table));
    }

    #[test]
    fn validation_fails_when_a_sibling_creates_the_same_column() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let mut txn = TableTxn::new(&table);
        // The txn creates column c0 and only touches row p(2).
        txn.set_on(p(2), cube_t(0), Time::new(3), None);
        let log = txn.into_log();
        assert!(log.validate(&table));
        // Another chain creates the *same* column in a row the txn never
        // read: no cell the txn saw changed, but the global column order now
        // differs from what the recording assumed.
        table.set(p(3), cube_t(0), Time::new(8));
        assert!(!log.validate(&table));
    }

    #[test]
    fn splice_log_matches_a_write_by_write_commit() {
        let mut seed = ScheduleTable::new();
        seed.set(p(1), Cube::top(), Time::new(0));
        seed.set(p(1), cube_t(0), Time::new(1));
        let mut spliced = seed.clone();
        let mut replayed = seed.clone();

        let mut txn = TableTxn::new(&seed);
        // Fresh columns, an overwrite of a retained column, and an
        // interleaved second fresh column exercise the graft/renumber path.
        txn.set_on(p(2), cube_t(1), Time::new(2), Some(PeId::from_index(0)));
        txn.set_on(p(1), cube_t(0), Time::new(7), None);
        txn.set_on(p(2), cube_f(1), Time::new(3), None);
        txn.set_on(p(3), cube_t(1), Time::new(4), None);
        let log = txn.into_log();

        log.commit_into(&mut replayed);
        spliced.splice_log(&log);
        assert_eq!(spliced, replayed);
        let order: Vec<_> = spliced.entries(p(2)).collect();
        let replayed_order: Vec<_> = replayed.entries(p(2)).collect();
        assert_eq!(order, replayed_order);
        for job in [p(1), p(2), p(3)] {
            assert_eq!(spliced.row_version(job), replayed.row_version(job));
        }
    }

    #[test]
    fn graft_column_retains_and_renumbers() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        table.set(p(1), cube_t(0), Time::new(1));
        // Retained columns keep their index; a fresh cube is appended past
        // the current bound.
        assert_eq!(table.graft_column(Cube::top()), 0);
        assert_eq!(table.graft_column(cube_t(0)), 1);
        assert_eq!(table.graft_column(cube_t(1)), 2);
        assert_eq!(table.graft_column(cube_t(1)), 2);
        assert_eq!(table.num_columns(), 3);
    }

    #[test]
    fn row_version_of_a_txn_reflects_its_own_writes() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let mut txn = TableTxn::new(&table);
        assert_eq!(TableView::row_version(&txn, p(1)), 1);
        txn.set_on(p(1), cube_t(0), Time::new(3), None);
        assert_eq!(TableView::row_version(&txn, p(1)), 2);
        assert_eq!(TableView::row_version(&txn, p(9)), 0);
    }
}
