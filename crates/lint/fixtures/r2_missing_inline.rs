// Inherent RecordingView impls where two methods lost their #[inline]
// attribute and one is #[inline(never)]. The shapes mirror crates/table/src/txn.rs: inherent impls of
// other types and trait impls for RecordingView must not be flagged.

impl ScheduleTable {
    // Another type's inherent impl: no inline requirement.
    fn not_checked(&self) -> usize {
        0
    }
}

impl<'t> RecordingView<'t> {
    #[inline]
    #[must_use]
    pub fn new(table: &'t mut ScheduleTable) -> Self {
        RecordingView { table }
    }

    #[inline]
    pub fn get(&mut self, job: Job, column: &Cube) -> Option<Time> {
        self.table.get(job, column)
    }

    pub fn set_on(&mut self, job: Job, column: Cube, time: Time) {
        self.table.set_on(job, column, time);
    }

    #[inline(always)]
    #[allow(clippy::needless_lifetimes)]
    pub(crate) fn resource(&mut self, job: &Job) -> PeId {
        self.table.pe_of(job)
    }
}

impl Debug for RecordingView<'_> {
    // Trait impl: no inline requirement.
    fn fmt(&self, f: &mut Formatter<'_>) -> Result {
        Ok(())
    }
}

impl RecordingView<'_> {
    #[inline]
    fn touch(&mut self, job: Job) {
        self.table.row_digest(job);
    }

    #[inline(never)]
    fn never_inlined(&mut self, job: Job) {
        self.table.row_digest(job);
    }

    fn for_each_entry_at_on(&mut self, job: Job, visit: &mut dyn FnMut(u64)) {
        self.table.visit_entries_at(job, visit);
    }
}
