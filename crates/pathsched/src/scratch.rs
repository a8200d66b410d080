//! Reusable scratch arena for the dense scheduler core.
//!
//! Every [`TrackContext`](crate::TrackContext) run needs the same family of
//! dense per-job state: start/end times, resource assignments, placement
//! flags, a working indegree copy, the binary-heap ready queue, one
//! [`Calendar`] per exclusive resource, the sort keys that order the
//! produced schedule and a slip buffer. Allocating those on
//! every call is what dominated the allocator traffic of the merge algorithm,
//! which re-runs the scheduler once per alternative path and again at every
//! back-step adjustment and conflict repair.
//!
//! [`RunScratch`] owns all of that state *outside* the context, so one arena
//! can serve any number of runs — and, because a context only borrows the
//! arena for the duration of a call, any number of *contexts*: the merge
//! keeps exactly one `RunScratch` and schedules every track through it. [`RunScratch::reset`] clears every
//! buffer without releasing its storage, so after the first run on the
//! largest track the scheduler's working state is allocation-free (the
//! returned [`PathSchedule`](crate::PathSchedule) still owns its entries —
//! that is the output, not scratch).

use std::collections::BinaryHeap;

use cpg_arch::{PeId, Time};

use crate::calendar::Calendar;
use crate::schedule::SlippedLock;

/// The per-run dense state of the scheduler core, reusable across runs and
/// across tracks.
///
/// Build one with [`RunScratch::new`] (or `Default`), hand it to
/// [`TrackContext::schedule_with`](crate::TrackContext::schedule_with) /
/// [`TrackContext::reschedule_into`](crate::TrackContext::reschedule_into),
/// and keep reusing it: every run resets the arena before touching it, so no
/// state leaks from one run into the next and a reused arena produces
/// bit-identical schedules to a fresh one.
///
/// # Example
///
/// ```
/// use cpg::{enumerate_tracks, examples};
/// use cpg_path_sched::{ListScheduler, RunScratch};
///
/// let system = examples::fig1();
/// let tracks = enumerate_tracks(system.cpg());
/// let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
///
/// // One arena serves every track.
/// let mut scratch = RunScratch::new();
/// for track in tracks.iter() {
///     let via_scratch = scheduler.context(track).schedule_with(&mut scratch);
///     assert_eq!(via_scratch, scheduler.schedule_track(track));
/// }
/// ```
#[derive(Debug, Default)]
pub struct RunScratch {
    /// One occupancy calendar per processing element of the architecture
    /// (indexed by `PeId`), cleared capacity-preservingly between runs.
    pub(crate) calendars: Vec<Calendar>,
    pub(crate) starts: Vec<Time>,
    pub(crate) ends: Vec<Time>,
    pub(crate) pes: Vec<Option<PeId>>,
    pub(crate) placed: Vec<bool>,
    /// Each job's count of uncommitted predecessors, consumed by the run.
    pub(crate) indegree: Vec<u32>,
    /// Max-heap of packed `priority << 32 | !dense index` keys: the highest
    /// priority pops first and, among equal priorities, the smallest dense
    /// index (the order of `(priority, Reverse(dense index))`).
    pub(crate) ready: BinaryHeap<u128>,
    /// The run's jobs in the order of the produced schedule, as
    /// [`sort_by_fields`](crate::sort_by_fields) leaves them.
    pub(crate) keys: Vec<u64>,
    pub(crate) slipped: Vec<SlippedLock>,
    /// Reschedule-order priorities derived from the original schedule
    /// (unused by plain `schedule` runs, which read the context's
    /// precomputed critical-path priorities instead).
    pub(crate) priorities: Vec<u64>,
}

impl RunScratch {
    /// An empty arena; buffers grow on first use and are retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Clears every buffer without freeing its storage. Runs call this on
    /// entry, so explicit resets are only needed to drop stale data early.
    pub fn reset(&mut self) {
        for calendar in &mut self.calendars {
            calendar.clear();
        }
        self.starts.clear();
        self.ends.clear();
        self.pes.clear();
        self.placed.clear();
        self.indegree.clear();
        self.ready.clear();
        self.keys.clear();
        self.slipped.clear();
        self.priorities.clear();
    }

    /// Resets and sizes the arena for a run over `jobs` dense jobs on an
    /// architecture with `pes` processing elements, deriving each job's
    /// indegree from the row offsets of the context's predecessor lists
    /// (`jobs + 1` of them).
    pub(crate) fn prepare(&mut self, jobs: usize, pes: usize, pred_offsets: &[u32]) {
        self.reset();
        // Truncating when a smaller architecture follows a larger one is
        // fine: the dropped calendars are empty.
        self.calendars.resize_with(pes, Calendar::default);
        self.starts.resize(jobs, Time::ZERO);
        self.ends.resize(jobs, Time::ZERO);
        self.pes.resize(jobs, None);
        self.placed.resize(jobs, false);
        debug_assert_eq!(pred_offsets.len(), jobs + 1);
        self.indegree
            .extend(pred_offsets.windows(2).map(|row| row[1] - row[0]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{enumerate_tracks, examples};

    // `RunScratch` owns its buffers outright, so an arena can move to
    // whichever thread runs the scheduler.
    fn assert_send<T: Send>() {}

    #[test]
    fn scratch_is_send_and_resets_to_empty() {
        assert_send::<RunScratch>();
        let mut scratch = RunScratch::new();
        scratch.prepare(5, 3, &[0, 0, 1, 3, 3, 4]);
        assert_eq!(scratch.starts.len(), 5);
        assert_eq!(scratch.calendars.len(), 3);
        assert_eq!(scratch.indegree, vec![0, 1, 2, 0, 1]);
        scratch.reset();
        assert!(scratch.starts.is_empty());
        assert!(scratch.indegree.is_empty());
        assert!(scratch.ready.is_empty());
        // Prepared again for a smaller run: sizes follow the run, capacity
        // stays from the larger one.
        let starts_capacity = scratch.starts.capacity();
        scratch.prepare(2, 1, &[0, 0, 0]);
        assert_eq!(scratch.starts.len(), 2);
        assert_eq!(scratch.calendars.len(), 1);
        assert!(scratch.starts.capacity() >= starts_capacity.min(5));
    }

    #[test]
    fn a_reused_scratch_matches_a_fresh_one_on_every_track() {
        // The scratch-reuse contract of the merge: one arena,
        // sequentially reused across all tracks and across repeated
        // schedule/reschedule runs, produces exactly the schedules a fresh
        // arena per run produces.
        let system = examples::fig1();
        let tracks = enumerate_tracks(system.cpg());
        let scheduler =
            crate::ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        let mut reused = RunScratch::new();
        for track in tracks.iter() {
            let ctx = scheduler.context(track);
            let fresh = ctx.schedule_with(&mut RunScratch::new());
            let second = ctx.schedule_with(&mut reused);
            assert_eq!(fresh, second, "schedule diverged on {}", track.label());

            // Reschedule through the same arena, with a lock that moves work.
            let mut locks = crate::LockSet::for_graph(system.cpg());
            if let Some(sj) = fresh.jobs().iter().find(|sj| {
                sj.job().as_process().is_some_and(|p| {
                    !system.cpg().process(p).kind().is_dummy() && system.cpg().mapping(p).is_some()
                })
            }) {
                locks.insert(sj.job(), sj.start() + cpg_arch::Time::new(2));
            }
            let fresh_adj = ctx.reschedule(&fresh, &locks);
            let mut reused_adj = crate::PathSchedule::default();
            ctx.reschedule_into(&mut reused, &fresh, &locks, &mut reused_adj);
            assert_eq!(
                fresh_adj,
                reused_adj,
                "reschedule diverged on {}",
                track.label()
            );
        }
    }
}
