// A TableView impl where one method lost its #[inline] attribute. The
// shapes mirror crates/table/src/txn.rs: inherent impls and non-TableView
// trait impls must not be flagged.

impl ScheduleTable {
    // Inherent impl: no inline requirement.
    fn not_checked(&self) -> usize {
        0
    }
}

impl TableView for ScheduleTable {
    #[inline]
    fn get(&self, job: &Job, column: &Cube) -> Option<Time> {
        self.lookup(job, column)
    }

    fn set_on(&mut self, job: Job, column: Cube, time: Time) {
        self.place(job, column, time);
    }

    #[inline]
    #[allow(clippy::needless_lifetimes)]
    pub(crate) fn resource(&self, job: &Job) -> PeId {
        self.pe_of(job)
    }
}

impl Display for ScheduleTable {
    // Different trait: no inline requirement.
    fn fmt(&self, f: &mut Formatter<'_>) -> Result {
        Ok(())
    }
}

impl TableView for RecordingView<'_> {
    #[inline]
    fn get(&mut self, job: &Job, column: &Cube) -> Option<Time> {
        self.table.get(job, column)
    }

    fn row_digest(&mut self, job: &Job) -> u64 {
        self.table.row_digest(job)
    }
}
