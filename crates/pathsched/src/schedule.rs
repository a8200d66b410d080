//! The schedule of one alternative path.

use std::fmt;

use cpg::{CondId, Cpg, Cube};
use cpg_arch::{Architecture, PeId, Time};

use crate::context::LockSet;
use crate::job::{Job, JobSlots, ScheduledJob};

/// Sentinel for "job not scheduled on this path" in the job-slot index.
const ABSENT: u32 = u32::MAX;

/// A lock that could not be honoured by the scheduler: the job was asked to
/// start exactly at `intended` (its activation time fixed in the schedule
/// table), but its data dependencies or guard conditions were only satisfied
/// at the later `actual` start.
///
/// The merge algorithm (rule 3 of the paper's Section 5.1) locks only
/// activation times placed in columns that depend exclusively on conditions
/// decided at ancestor decision-tree nodes, so for well-formed inputs no lock
/// should slip; a slipped lock therefore signals a violated invariant of
/// `MergeShared::locks_from_table_into` and is surfaced here instead of being
/// silently absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlippedLock {
    pub(crate) job: Job,
    pub(crate) intended: Time,
    pub(crate) actual: Time,
}

impl SlippedLock {
    /// The locked job that slipped.
    #[must_use]
    pub const fn job(&self) -> Job {
        self.job
    }

    /// The activation time the lock asked for.
    #[must_use]
    pub const fn intended(&self) -> Time {
        self.intended
    }

    /// The activation time the job actually received.
    #[must_use]
    pub const fn actual(&self) -> Time {
        self.actual
    }
}

impl fmt::Display for SlippedLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} locked at {} but started at {}",
            self.job, self.intended, self.actual
        )
    }
}

/// When the value of one condition resolved on a path becomes known, as
/// recorded by the scheduler run that produced the schedule: the processing
/// element and completion time of the condition's disjunction process, and
/// the completion of the condition's broadcast (`None` when the path
/// broadcasts nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Knowledge {
    pub(crate) cond: CondId,
    pub(crate) pe: Option<PeId>,
    pub(crate) computed: Time,
    pub(crate) broadcast: Option<Time>,
}

impl Knowledge {
    /// The moment the value is known on `pe`: the disjunction's completion
    /// on its own processing element and for jobs without a resource
    /// (`None`), the broadcast's completion everywhere else (the
    /// disjunction's completion again when nothing is broadcast).
    #[inline]
    fn known_on(&self, pe: Option<PeId>) -> Time {
        match pe {
            Some(pe) if self.pe != Some(pe) => self.broadcast.unwrap_or(self.computed),
            _ => self.computed,
        }
    }
}

/// The (near-)optimal schedule of one alternative path `G_k` of a conditional
/// process graph: a start time for every process activated on the path and
/// for every condition broadcast issued on it.
///
/// Produced by [`ListScheduler`](crate::ListScheduler); consumed by the
/// schedule-merging algorithm of the `cpg-merge` crate. Looking a job up is
/// one array read: the schedule keeps, by the job's [`JobSlots`] slot, its
/// position in [`jobs`](Self::jobs).
#[derive(Debug, Clone, Default)]
pub struct PathSchedule {
    label: Cube,
    jobs: Vec<ScheduledJob>,
    /// The numbering of the graph's jobs that `index` is indexed by.
    slots: JobSlots,
    /// [`JobSlots`] slot -> position in `jobs`, [`ABSENT`] when the job is
    /// not scheduled on this path.
    index: Vec<u32>,
    delay: Time,
    /// When each condition resolved on the path becomes known, sorted by
    /// `(computed, cond)`. `known_conditions` reads only this, so the
    /// merge's per-placement column query needs no graph.
    knowledge: Vec<Knowledge>,
    /// Condition resolutions `(cond, completion of its disjunction process)`:
    /// the `(cond, computed)` pairs of `knowledge`, in the same order.
    resolutions: Vec<(CondId, Time)>,
    /// Locks that could not be honoured during a
    /// [`reschedule`](crate::TrackContext::reschedule) call, in commit order.
    slipped: Vec<SlippedLock>,
}

impl PathSchedule {
    #[cfg(test)]
    pub(crate) fn new(label: Cube, jobs: Vec<ScheduledJob>, delay: Time) -> Self {
        // Tests build schedules without a graph: size the slot space from the
        // largest identifiers present.
        let processes = jobs
            .iter()
            .filter_map(|j| j.job().as_process())
            .map(|p| p.index() + 1)
            .max()
            .unwrap_or(0);
        let conditions = jobs
            .iter()
            .filter_map(|j| j.job().as_broadcast())
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0);
        let slots = JobSlots::new(processes, conditions);
        Self::new_detailed(label, jobs, delay, Vec::new(), Vec::new(), slots)
    }

    #[cfg(any(test, feature = "test-util"))]
    pub(crate) fn new_detailed(
        label: Cube,
        mut jobs: Vec<ScheduledJob>,
        delay: Time,
        knowledge: Vec<Knowledge>,
        slipped: Vec<SlippedLock>,
        slots: JobSlots,
    ) -> Self {
        jobs.sort_unstable_by_key(|j| (j.start(), j.end(), j.job()));
        let mut schedule = PathSchedule::default();
        schedule.rebuild_from_parts(
            label,
            delay,
            slots,
            jobs.into_iter(),
            knowledge.into_iter(),
            &slipped,
        );
        schedule
    }

    /// Refills this schedule in place from the raw outputs of one scheduler
    /// run, reusing the existing buffers. This is what makes the merge
    /// algorithm's decision-tree walk allocation-free after warm-up: the walk
    /// pools `PathSchedule`s and every adjustment rebuilds one through
    /// [`TrackContext::reschedule_into`](crate::TrackContext::reschedule_into)
    /// instead of allocating a fresh schedule.
    ///
    /// `jobs` must arrive in ascending `(start, end, job)` order, the order
    /// [`jobs`](Self::jobs) lists them in: the scheduler run sorts its jobs
    /// by one packed integer key, which is cheaper than sorting the
    /// `ScheduledJob`s here.
    // lint: hot-path (once per scheduler run, into a pooled schedule)
    pub(crate) fn rebuild_from_parts(
        &mut self,
        label: Cube,
        delay: Time,
        slots: JobSlots,
        jobs: impl Iterator<Item = ScheduledJob>,
        knowledge: impl Iterator<Item = Knowledge>,
        slipped: &[SlippedLock],
    ) {
        self.label = label;
        self.delay = delay;
        self.slots = slots;
        self.jobs.clear();
        self.jobs.extend(jobs);
        debug_assert!(
            self.jobs
                .windows(2)
                .all(|w| (w[0].start(), w[0].end(), w[0].job())
                    < (w[1].start(), w[1].end(), w[1].job())),
            "jobs arrive in (start, end, job) order"
        );
        self.index.clear();
        self.index.resize(slots.len(), ABSENT);
        for (position, sj) in self.jobs.iter().enumerate() {
            let slot = slots
                .slot(sj.job())
                .expect("scheduled jobs belong to the graph");
            self.index[slot] = position as u32;
        }
        self.knowledge.clear();
        self.knowledge.extend(knowledge);
        self.knowledge
            .sort_unstable_by_key(|known| (known.computed, known.cond));
        self.resolutions.clear();
        self.resolutions.extend(
            self.knowledge
                .iter()
                .map(|known| (known.cond, known.computed)),
        );
        self.slipped.clear();
        self.slipped.extend_from_slice(slipped);
    }

    /// The label `L_k` of the alternative path this schedule belongs to.
    #[must_use]
    pub const fn label(&self) -> Cube {
        self.label
    }

    /// The delay of the path under this schedule: the activation time of the
    /// dummy sink process, i.e. the completion time of the whole path.
    #[must_use]
    pub const fn delay(&self) -> Time {
        self.delay
    }

    /// The scheduled jobs in ascending start-time order.
    #[must_use]
    pub fn jobs(&self) -> &[ScheduledJob] {
        &self.jobs
    }

    /// Number of scheduled jobs (processes plus condition broadcasts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the schedule contains no job.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The scheduled entry of a job, if the job is part of this path.
    #[must_use]
    pub fn entry(&self, job: Job) -> Option<&ScheduledJob> {
        let position = self.index[self.slots.slot(job)?];
        (position != ABSENT).then(|| &self.jobs[position as usize])
    }

    /// The start time of a job, if the job is part of this path.
    #[must_use]
    pub fn start(&self, job: Job) -> Option<Time> {
        self.entry(job).map(ScheduledJob::start)
    }

    /// The completion time of a job, if the job is part of this path.
    #[must_use]
    pub fn end(&self, job: Job) -> Option<Time> {
        self.entry(job).map(ScheduledJob::end)
    }

    /// `true` when the job is scheduled on this path.
    #[must_use]
    pub fn contains(&self, job: Job) -> bool {
        self.entry(job).is_some()
    }

    /// The condition resolutions recorded by the scheduler, sorted by
    /// `(time, condition)`: one `(condition, completion time of its
    /// disjunction process)` entry per condition determined on this path.
    ///
    /// These are the moments at which new condition values become available
    /// and therefore the nodes of the decision tree explored during schedule
    /// merging; the merge reads them here instead of re-deriving them from
    /// the graph on every repair restart.
    #[must_use]
    pub fn resolutions(&self) -> &[(CondId, Time)] {
        &self.resolutions
    }

    /// The locks that could not be honoured when this schedule was produced
    /// by [`reschedule`](crate::TrackContext::reschedule): jobs whose
    /// activation time was fixed by the caller but whose data dependencies or
    /// guard conditions forced a later start. Empty for schedules built
    /// without locks and for well-formed merge inputs.
    #[must_use]
    pub fn slipped_locks(&self) -> &[SlippedLock] {
        &self.slipped
    }

    /// `true` when this schedule already meets every lock of `locks`: each
    /// locked job of the path starts at its locked time and, when the lock
    /// pins a resource, occupies that resource. Locks on jobs that are not
    /// part of this path are ignored, as
    /// [`reschedule`](crate::TrackContext::reschedule) ignores them.
    ///
    /// The merge algorithm adjusts a track's optimal schedule to the locks
    /// inherited from the schedule table; when the optimal schedule honours
    /// them all, it is itself the adjusted schedule with the least delay, so
    /// the merge keeps it and runs no reschedule.
    ///
    /// # Example
    ///
    /// ```
    /// use cpg::{enumerate_tracks, examples};
    /// use cpg_path_sched::{Job, ListScheduler, LockSet};
    ///
    /// let system = examples::diamond();
    /// let cpg = system.cpg();
    /// let tracks = enumerate_tracks(cpg);
    /// let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
    /// let schedule = scheduler.schedule_track(&tracks.tracks()[0]);
    ///
    /// // Every job locked at its own start and resource.
    /// let mut locks = LockSet::for_graph(cpg);
    /// for sj in schedule.jobs() {
    ///     locks.insert_pinned(sj.job(), sj.start(), sj.pe());
    /// }
    /// assert!(schedule.honours(&locks));
    ///
    /// // A lock on the other branch's process is ignored.
    /// let [hot, cold] = ["hot", "cold"].map(|name| Job::Process(cpg.process_by_name(name).unwrap()));
    /// let absent = if schedule.contains(hot) { cold } else { hot };
    /// locks.insert(absent, schedule.delay() + cpg_arch::Time::new(100));
    /// assert!(schedule.honours(&locks));
    ///
    /// // A later time, or another resource, is not met.
    /// let decide = Job::Process(cpg.process_by_name("decide").unwrap());
    /// let entry = *schedule.entry(decide).unwrap();
    /// locks.insert(decide, entry.start() + cpg_arch::Time::new(1));
    /// assert!(!schedule.honours(&locks));
    /// let cpu1 = system.arch().pe_by_name("cpu1").unwrap();
    /// assert_ne!(entry.pe(), Some(cpu1));
    /// locks.insert_pinned(decide, entry.start(), Some(cpu1));
    /// assert!(!schedule.honours(&locks));
    /// ```
    #[must_use]
    pub fn honours(&self, locks: &LockSet) -> bool {
        self.jobs.iter().all(|sj| match locks.get(sj.job()) {
            None => true,
            Some(time) => {
                time == sj.start()
                    && locks
                        .pinned_pe(sj.job())
                        .is_none_or(|pe| sj.pe() == Some(pe))
            }
        })
    }

    /// `true` when `other` agrees with this schedule in everything the
    /// merge's placement of a schedule reads: the same path, the same jobs in
    /// the same order with the same starts and resources, and the same
    /// condition knowledge (where and when each condition is computed and
    /// when its broadcast completes). Durations, and with them the delay,
    /// may differ.
    ///
    /// The merge walk places a schedule that it did not reschedule by these
    /// fields alone ([`known_conditions`](Self::known_conditions),
    /// [`resolutions`](Self::resolutions), [`honours`](Self::honours) and
    /// the job list), so a merge session may replay a cached chain of an
    /// edited track whose new schedule places like the old one.
    #[must_use]
    pub fn places_like(&self, other: &PathSchedule) -> bool {
        self.label == other.label
            && self.knowledge == other.knowledge
            && self.jobs.len() == other.jobs.len()
            && self
                .jobs
                .iter()
                .zip(&other.jobs)
                .all(|(a, b)| (a.job(), a.start(), a.pe()) == (b.job(), b.start(), b.pe()))
    }

    /// The conditions (with the polarity given by the path label) whose value
    /// is known on `pe` at time `t` under this schedule, as a cube. Jobs
    /// without a resource (`None`: the dummy processes) see a condition as
    /// soon as it is computed anywhere.
    ///
    /// This is the expression that heads the schedule-table column in which an
    /// activation at time `t` on `pe` is placed (rule 2 of the paper's table
    /// generation algorithm).
    #[must_use]
    pub fn known_conditions(&self, pe: Option<PeId>, t: Time) -> Cube {
        let mut known = 0u64;
        for entry in &self.knowledge {
            if entry.known_on(pe) <= t {
                known |= 1 << entry.cond.index();
            }
        }
        self.label.restricted_to(known)
    }

    /// Verifies the structural sanity of the schedule: data dependencies and
    /// resource exclusiveness are respected and every job of the path is
    /// placed. Returns a human-readable description of the first violation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint. Used by tests
    /// and property-based tests; a schedule produced by
    /// [`ListScheduler`](crate::ListScheduler) never fails this check.
    pub fn verify(&self, cpg: &Cpg, arch: &Architecture) -> Result<(), String> {
        // Dependencies among processes that are part of the path.
        for sj in &self.jobs {
            let Some(pid) = sj.job().as_process() else {
                continue;
            };
            for edge in cpg.in_edges(pid) {
                let pred = Job::Process(edge.from());
                if let Some(pred_end) = self.end(pred) {
                    let transmits = edge.condition().is_none_or(|lit| self.label.contains(lit));
                    if transmits && pred_end > sj.start() {
                        return Err(format!(
                            "dependency violated: {} ends at {} but {} starts at {}",
                            cpg.process(edge.from()).name(),
                            pred_end,
                            cpg.process(pid).name(),
                            sj.start()
                        ));
                    }
                }
            }
        }
        // Broadcasts start only after their disjunction process completed.
        for sj in &self.jobs {
            if let Some(cond) = sj.job().as_broadcast() {
                let disjunction = Job::Process(cpg.disjunction_of(cond));
                match self.end(disjunction) {
                    Some(done) if done <= sj.start() => {}
                    Some(done) => {
                        return Err(format!(
                            "broadcast of {cond} starts at {} before its disjunction process completes at {done}",
                            sj.start()
                        ))
                    }
                    None => {
                        return Err(format!(
                            "broadcast of {cond} scheduled but its disjunction process is not"
                        ))
                    }
                }
            }
        }
        // Resource exclusiveness.
        for (i, a) in self.jobs.iter().enumerate() {
            for b in self.jobs.iter().skip(i + 1) {
                let (Some(pa), Some(pb)) = (a.pe(), b.pe()) else {
                    continue;
                };
                if pa != pb || !arch.is_exclusive(pa) {
                    continue;
                }
                let overlap = a.start() < b.end() && b.start() < a.end();
                if overlap && a.duration() > Time::ZERO && b.duration() > Time::ZERO {
                    return Err(format!(
                        "jobs {} and {} overlap on exclusive resource {}",
                        a.job(),
                        b.job(),
                        arch.pe(pa).name()
                    ));
                }
            }
        }
        Ok(())
    }
}

// The slot index is derived from `jobs` (its layout additionally depends on
// the graph's `JobSlots`) and the resolutions from `knowledge`, so equality
// compares the observable schedule only.
impl PartialEq for PathSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.jobs == other.jobs
            && self.delay == other.delay
            && self.knowledge == other.knowledge
            && self.slipped == other.slipped
    }
}

impl Eq for PathSchedule {}

impl fmt::Display for PathSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule of path {} ({} jobs, delay {})",
            self.label,
            self.len(),
            self.delay
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::ProcessId;

    fn job(idx: usize, start: u64, end: u64) -> ScheduledJob {
        ScheduledJob::new(
            Job::Process(ProcessId::from_index(idx)),
            Time::new(start),
            Time::new(end),
            None,
        )
    }

    #[test]
    fn jobs_are_sorted_by_start_time() {
        let schedule = PathSchedule::new(
            Cube::top(),
            vec![job(2, 10, 12), job(1, 0, 3), job(3, 5, 9)],
            Time::new(12),
        );
        let starts: Vec<u64> = schedule.jobs().iter().map(|j| j.start().as_u64()).collect();
        assert_eq!(starts, vec![0, 5, 10]);
        assert_eq!(schedule.len(), 3);
        assert!(!schedule.is_empty());
        assert_eq!(schedule.delay(), Time::new(12));
    }

    #[test]
    fn lookup_by_job() {
        let schedule = PathSchedule::new(Cube::top(), vec![job(1, 0, 3)], Time::new(3));
        let j = Job::Process(ProcessId::from_index(1));
        assert_eq!(schedule.start(j), Some(Time::ZERO));
        assert_eq!(schedule.end(j), Some(Time::new(3)));
        assert!(schedule.contains(j));
        assert!(!schedule.contains(Job::Process(ProcessId::from_index(9))));
        assert!(schedule.to_string().contains("delay 3"));
    }

    #[test]
    fn placing_alike_ignores_durations_but_not_order_or_knowledge() {
        let cond = CondId::new(0);
        let slots = JobSlots::new(4, 1);
        let known = |computed: u64, broadcast: Option<u64>| Knowledge {
            cond,
            pe: None,
            computed: Time::new(computed),
            broadcast: broadcast.map(Time::new),
        };
        let schedule = |jobs: Vec<ScheduledJob>, delay: u64, knowledge: Knowledge| {
            let label = Cube::from(cond.is_true());
            let (delay, knowledge) = (Time::new(delay), vec![knowledge]);
            PathSchedule::new_detailed(label, jobs, delay, knowledge, Vec::new(), slots)
        };
        let base = schedule(vec![job(1, 0, 3), job(2, 3, 5)], 5, known(3, Some(4)));
        // A longer last job moves the delay only.
        let longer = schedule(vec![job(1, 0, 3), job(2, 3, 9)], 9, known(3, Some(4)));
        assert!(base.places_like(&longer) && longer.places_like(&base));
        assert_ne!(base, longer);
        // Two jobs starting together swap order when the first one ends
        // later, and the walk places them in that order.
        let tied = schedule(vec![job(1, 0, 3), job(2, 0, 5)], 5, known(3, None));
        let swapped = schedule(vec![job(1, 0, 6), job(2, 0, 5)], 6, known(3, None));
        assert_eq!(tied.jobs()[0].job(), swapped.jobs()[1].job());
        assert!(!tied.places_like(&swapped));
        // Same starts, but the condition is computed, or broadcast, later.
        for knowledge in [known(4, Some(4)), known(3, Some(5)), known(3, None)] {
            let later = schedule(vec![job(1, 0, 3), job(2, 3, 5)], 5, knowledge);
            assert!(!base.places_like(&later), "{knowledge:?}");
        }
        // Another start, or another resource.
        let moved = schedule(vec![job(1, 0, 3), job(2, 4, 6)], 6, known(3, Some(4)));
        assert!(!base.places_like(&moved));
        let pe = Some(PeId::from_index(1));
        let elsewhere = ScheduledJob::new(
            Job::Process(ProcessId::from_index(2)),
            Time::new(3),
            Time::new(5),
            pe,
        );
        let remapped = schedule(vec![job(1, 0, 3), elsewhere], 5, known(3, Some(4)));
        assert!(!base.places_like(&remapped));
    }
}
