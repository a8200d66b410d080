//! Chain recording over a [`ScheduleTable`]: the table access layer of the
//! merge walk.
//!
//! The merge (crate `cpg-merge`) walks every forward chain of the decision
//! tree through a [`RecordingView`]; a one-shot merge is a fresh session's
//! first merge. The view reads and writes straight through to the real
//! table (a read is an exact-column [`RecordingView::get`] or a
//! [`RecordingView::keyed_entries`] scan of a row) and keeps a [`ChainLog`]
//! beside it:
//!
//! * the chain's writes, in order;
//! * the columns the chain created;
//! * for every row the chain touches, a snapshot of that row as it stood at
//!   the chain's entry: the row's word-level digest, read at the first touch
//!   (read or write). The table keeps each row's digest as a running sum
//!   over its entries, so the read is O(1). Only the chain writes while it
//!   is walked, so the row at first touch *is* the row at entry.
//!
//! A later re-merge replays the cached log instead of walking the chain
//! when the table rebuilt so far would feed the chain the same reads:
//!
//! * [`ChainLog::rows_match`] re-reads the digest of every snapshotted row.
//!   The digest covers the entry count and the column index, cube, time and
//!   resource of every entry, so an entry added, removed or changed
//!   invalidates the log — including a row the chain found absent and that
//!   exists now.
//! * [`ChainLog::created_columns_absent`] guards column creation: the chain
//!   appended its fresh columns past the table's column count, in write
//!   order. If the table meanwhile holds the *same* cube, the replayed
//!   writes would reuse its earlier index and order the row entries
//!   differently from the recording.
//!
//! A validated log is replayed with [`ScheduleTable::splice_log`]: the
//! writes are re-issued in write order, each column found or appended
//! through the table's hashed column index, which is what the recorded
//! `set_on` calls produced.

use cpg::Cube;
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;

use crate::ScheduleTable;

/// One recorded write, replayed verbatim by [`ScheduleTable::splice_log`].
///
/// A session keeps every chain's writes between merges, so a write is
/// packed into 32 bytes (a plain `Job` and `Option<PeId>` take 56): the job
/// as its [`Job::code`], the resource as its [`PeId::pack`] code.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write {
    pub(crate) column: Cube,
    pub(crate) time: Time,
    job: u32,
    resource: u32,
}

impl Write {
    fn new(job: Job, column: Cube, time: Time, resource: Option<PeId>) -> Self {
        Write {
            column,
            time,
            job: job.code(),
            resource: PeId::pack(resource),
        }
    }

    /// The written job.
    pub(crate) fn job(&self) -> Job {
        Job::from_code(self.job)
    }

    /// The written resource provenance.
    pub(crate) fn resource(&self) -> Option<PeId> {
        PeId::unpack(self.resource)
    }
}

/// The log of one recorded chain: its writes in order, the columns it
/// created and a snapshot of every row it touched as the row stood at the
/// chain's entry.
#[derive(Debug)]
pub struct ChainLog {
    pub(crate) writes: Box<[Write]>,
    created: Box<[Cube]>,
    /// `(`[`Job::code`]`, row digest)` per touched row, in first-touch
    /// order.
    rows: Box<[(u32, u64)]>,
}

impl ChainLog {
    /// The column cubes this log writes under, in write order (duplicates
    /// possible). An incremental re-merge uses them to bound which
    /// alternative paths a changed table region can affect.
    pub fn written_columns(&self) -> impl Iterator<Item = Cube> + '_ {
        self.writes.iter().map(|write| write.column)
    }

    /// `true` when every row the chain touched still has, in `table`, the
    /// content it had at the chain's entry.
    #[must_use]
    pub fn rows_match(&self, table: &ScheduleTable) -> bool {
        self.rows
            .iter()
            .all(|&(job, digest)| table.row_digest(Job::from_code(job)) == digest)
    }

    /// `true` when no column the chain created exists in `table`, so a
    /// replay appends them in the recorded order.
    #[must_use]
    pub fn created_columns_absent(&self, table: &ScheduleTable) -> bool {
        self.created
            .iter()
            .all(|column| table.column_index(column).is_none())
    }
}

/// The reusable buffers of a [`RecordingView`]. A recorder hands the same
/// scratch from chain to chain, so recording a chain allocates only the
/// exact-size [`ChainLog`] it keeps.
#[derive(Debug, Default)]
pub struct RecordScratch {
    /// `touched[job.code()]` once the row of `job` is snapshotted; all
    /// clear between chains.
    touched: Vec<bool>,
    writes: Vec<Write>,
    rows: Vec<(u32, u64)>,
}

/// A write-through recording view over a [`ScheduleTable`]: every read and
/// write goes straight to the table, and the writes, the created columns
/// and the first-touch row snapshots are logged beside it.
pub struct RecordingView<'t> {
    table: &'t mut ScheduleTable,
    /// Column count of the table when the view opened.
    bound: usize,
    scratch: RecordScratch,
}

// Every method is `#[inline]`: the walk calls the reads and writes on its
// hottest edge from another crate, and without cross-crate inlining every
// row probe of its loops would pay an opaque call, and every entry of a
// scan an opaque `next`.
impl<'t> RecordingView<'t> {
    /// Opens a recording view over `table` at a chain's entry.
    #[inline]
    #[must_use]
    pub fn new(table: &'t mut ScheduleTable, scratch: RecordScratch) -> Self {
        RecordingView {
            bound: table.num_columns(),
            table,
            scratch,
        }
    }

    /// Snapshots the row of `job` on its first touch.
    #[inline]
    fn touch(&mut self, job: Job) {
        let code = job.code();
        let slot = code as usize;
        let touched = &mut self.scratch.touched;
        if touched.get(slot) == Some(&true) {
            return;
        }
        if touched.len() <= slot {
            touched.resize(slot + 1, false);
        }
        touched[slot] = true;
        self.scratch.rows.push((code, self.table.row_digest(job)));
    }

    /// The activation time of `job` in the column headed exactly by `column`.
    #[inline]
    pub fn get(&mut self, job: Job, column: &Cube) -> Option<Time> {
        self.touch(job);
        self.table.get(job, column)
    }

    /// Records the activation time of `job` under `column` together with the
    /// resource provenance, creating the column when absent, and returns the
    /// previously stored time for that cell, if any. The view never removes
    /// a cell: the walk only adds or overwrites activation times.
    #[inline]
    pub fn set_on(
        &mut self,
        job: Job,
        column: Cube,
        time: Time,
        resource: Option<PeId>,
    ) -> Option<Time> {
        self.touch(job);
        self.scratch
            .writes
            .push(Write::new(job, column, time, resource));
        self.table.set_on(job, column, time, resource)
    }

    /// The `(key, column, time, resource)` entries of the row of `job`, the
    /// key being the column's insertion index, in key order: one linear
    /// scan of the row, which the caller filters inline.
    // `always`: with `#[inline]` alone the walk's six scans share one
    // out-of-line copy, which cost ≈3% of a `wcet_sweep` item.
    #[inline(always)]
    pub fn keyed_entries(
        &mut self,
        job: Job,
    ) -> impl Iterator<Item = (u32, Cube, Time, Option<PeId>)> + '_ {
        self.touch(job);
        self.table.keyed_entries(job)
    }

    /// Closes the view, yielding the chain's log and the scratch for the
    /// next chain.
    #[inline]
    #[must_use]
    pub fn finish(self) -> (ChainLog, RecordScratch) {
        let mut scratch = self.scratch;
        for &(code, _) in &scratch.rows {
            scratch.touched[code as usize] = false;
        }
        let log = ChainLog {
            writes: scratch.writes.as_slice().into(),
            created: self.table.columns()[self.bound..].into(),
            rows: scratch.rows.as_slice().into(),
        };
        scratch.writes.clear();
        scratch.rows.clear();
        (log, scratch)
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

    fn valid(log: &ChainLog, table: &ScheduleTable) -> bool {
        log.rows_match(table) && log.created_columns_absent(table)
    }

    #[test]
    fn logged_writes_are_packed_and_decode_to_what_was_written() {
        assert_eq!(std::mem::size_of::<Write>(), 32);
        let pinned = Write::new(p(3), cube_t(1), Time::new(5), Some(PeId::from_index(2)));
        assert_eq!(pinned.job(), p(3));
        assert_eq!(pinned.resource(), Some(PeId::from_index(2)));
        let unpinned = Write::new(Job::Broadcast(c(4)), cube_f(0), Time::new(6), None);
        assert_eq!(unpinned.job(), Job::Broadcast(c(4)));
        assert_eq!(unpinned.resource(), None);
    }

    #[test]
    fn reads_and_writes_go_straight_to_the_table() {
        let mut table = ScheduleTable::new();
        table.set_on(p(1), Cube::top(), Time::new(4), Some(PeId::from_index(0)));
        let entry = table.clone();
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        assert_eq!(view.get(p(1), &Cube::top()), Some(Time::new(4)));
        assert_eq!(view.get(p(2), &Cube::top()), None);
        assert_eq!(
            view.set_on(p(1), Cube::top(), Time::new(9), None),
            Some(Time::new(4))
        );
        assert_eq!(view.set_on(p(2), cube_t(0), Time::new(7), None), None);
        assert_eq!(view.get(p(1), &Cube::top()), Some(Time::new(9)));
        let (log, _) = view.finish();
        assert_eq!(log.writes.len(), 2);
        assert_eq!(*log.created, [cube_t(0)]);
        assert_eq!(table.get(p(1), &Cube::top()), Some(Time::new(9)));
        assert_eq!(table.get(p(2), &cube_t(0)), Some(Time::new(7)));
        // The snapshots describe the rows as they stood at the entry.
        assert!(valid(&log, &entry));
        assert!(!log.rows_match(&table));
    }

    #[test]
    fn splicing_the_log_reproduces_the_recorded_table() {
        // Entry table with columns [top, c0]; the chain writes a fresh
        // column c1 and then overwrites a retained column. Splicing the log
        // into a copy of the entry table must reproduce the recorded table,
        // row order included.
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        table.set(p(1), cube_t(0), Time::new(1));
        let mut spliced = table.clone();
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        view.set_on(p(1), cube_t(1), Time::new(2), None);
        view.set_on(p(1), cube_f(1), Time::new(3), None);
        view.set_on(p(1), cube_t(0), Time::new(5), None);
        let (log, _) = view.finish();
        spliced.splice_log(&log);
        assert_eq!(spliced, table);
        let order: Vec<_> = spliced.entries(p(1)).collect();
        let recorded: Vec<_> = table.entries(p(1)).collect();
        assert_eq!(order, recorded);
    }

    #[test]
    fn validation_is_per_row_and_content_based() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        // A point probe (even of an absent cell) snapshots the whole row.
        assert_eq!(view.get(p(1), &Cube::top()), Some(Time::new(0)));
        assert_eq!(view.get(p(2), &Cube::top()), None);
        let (log, _) = view.finish();
        assert!(valid(&log, &table));
        // Rewriting a probed cell with the same value keeps it valid, and
        // so does a write to a row the chain never touched.
        table.set(p(1), Cube::top(), Time::new(0));
        table.set(p(3), cube_t(0), Time::new(5));
        assert!(valid(&log, &table));
        // Any other change to a touched row invalidates it.
        let mut other_cell = table.clone();
        other_cell.set(p(1), cube_f(0), Time::new(0));
        assert!(!valid(&log, &other_cell));
        table.set(p(1), Cube::top(), Time::new(9));
        assert!(!valid(&log, &table));
    }

    #[test]
    fn a_reused_scratch_snapshots_every_chain_afresh() {
        let mut table = ScheduleTable::new();
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        view.set_on(p(1), Cube::top(), Time::new(0), None);
        let (first, scratch) = view.finish();
        // The next chain touches the same row: it is snapshotted again, as
        // it stands now, and the first chain's writes are not repeated.
        let mut view = RecordingView::new(&mut table, scratch);
        assert_eq!(view.get(p(1), &Cube::top()), Some(Time::new(0)));
        let (second, _) = view.finish();
        assert_eq!(first.rows.len(), 1);
        assert_eq!(second.rows.len(), 1);
        assert_ne!(first.rows[0], second.rows[0]);
        assert!(second.writes.is_empty());
        assert!(second.rows_match(&table));
    }

    #[test]
    fn validation_fails_when_a_probed_absent_cell_appears() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        assert_eq!(view.get(p(2), &Cube::top()), None);
        let (log, _) = view.finish();
        assert!(valid(&log, &table));
        table.set(p(2), Cube::top(), Time::new(5));
        assert!(!valid(&log, &table));
    }

    #[test]
    fn validation_fails_when_a_scanned_row_gains_an_entry() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        assert_eq!(view.keyed_entries(p(1)).count(), 1);
        let (log, _) = view.finish();
        assert!(valid(&log, &table));
        // Same content rewrite of the scanned row: digest unchanged.
        table.set(p(1), Cube::top(), Time::new(0));
        assert!(valid(&log, &table));
        // A new entry in the scanned row changes what the scan would feed.
        table.set(p(1), cube_t(0), Time::new(3));
        assert!(!valid(&log, &table));
    }

    #[test]
    fn validation_fails_when_a_sibling_creates_the_same_column() {
        let mut table = ScheduleTable::new();
        table.set(p(1), Cube::top(), Time::new(0));
        let entry = table.clone();
        let mut view = RecordingView::new(&mut table, RecordScratch::default());
        // The chain creates column c0 and only touches row p(2).
        view.set_on(p(2), cube_t(0), Time::new(3), None);
        let (log, _) = view.finish();
        let mut rebuilt = entry;
        assert!(valid(&log, &rebuilt));
        // Another chain creates the *same* column in a row this chain never
        // touched: no row it saw changed, but the global column order now
        // differs from what the recording assumed.
        rebuilt.set(p(3), cube_t(0), Time::new(8));
        assert!(log.rows_match(&rebuilt));
        assert!(!log.created_columns_absent(&rebuilt));
    }

    #[test]
    fn splice_log_matches_a_write_by_write_commit() {
        let mut seed = ScheduleTable::new();
        seed.set(p(1), Cube::top(), Time::new(0));
        seed.set(p(1), cube_t(0), Time::new(1));
        let mut recorded = seed.clone();
        let mut spliced = seed.clone();

        let mut view = RecordingView::new(&mut recorded, RecordScratch::default());
        // Fresh columns, an overwrite of a retained column, and an
        // interleaved second fresh column exercise the graft/renumber path.
        view.set_on(p(2), cube_t(1), Time::new(2), Some(PeId::from_index(0)));
        view.set_on(p(1), cube_t(0), Time::new(7), None);
        view.set_on(p(2), cube_f(1), Time::new(3), None);
        view.set_on(p(3), cube_t(1), Time::new(4), None);
        let (log, _) = view.finish();

        let mut replayed = seed;
        for write in &log.writes {
            replayed.set_on(write.job(), write.column, write.time, write.resource());
        }
        spliced.splice_log(&log);
        assert_eq!(spliced, replayed);
        assert_eq!(spliced, recorded);
        let order: Vec<_> = spliced.entries(p(2)).collect();
        let replayed_order: Vec<_> = replayed.entries(p(2)).collect();
        assert_eq!(order, replayed_order);
    }
}
