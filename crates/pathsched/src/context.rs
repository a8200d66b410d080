//! Dense, indexed per-track scheduling core.
//!
//! [`ListScheduler`](crate::ListScheduler) resolves every scheduling decision
//! against graph-level data (edges, guards, mappings) that is identical for
//! every `schedule`/`reschedule` call on the same track. The merge algorithm
//! of `cpg-merge` re-runs the list scheduler once per alternative path and
//! again at every back-step adjustment and conflict repair, so this module
//! hoists all of that per-track work into a reusable [`TrackContext`]:
//!
//! * jobs get *dense indices* `0..n` (the track's processes in ascending
//!   identifier order, then its condition broadcasts), so every piece of
//!   per-job scheduler state lives in a `Vec` instead of a `HashMap`;
//! * predecessor/successor adjacency and indegree counts are precomputed in
//!   compressed (CSR) form, and eligibility is driven by a binary-heap ready
//!   queue keyed by priority — the serial schedule-generation scheme commits
//!   jobs in exactly the same order as a full rescan of the remaining jobs,
//!   without the O(n²) rescan;
//! * guard requirements (the conditions a processing element must know before
//!   activating the job) and partial-critical-path priorities are computed
//!   once per track;
//! * locked activation times are passed as a dense [`LockSet`], cheap to
//!   clone along the decision tree of the merge algorithm.

use std::cmp::Reverse;

use cpg::{CondId, Cpg, Cube, ProcessId, Track};
use cpg_arch::{Architecture, PeId, Time};

use crate::calendar::Calendar;
use crate::job::{Job, ScheduledJob};
use crate::schedule::{PathSchedule, SlippedLock};
use crate::scratch::RunScratch;

/// Sentinel for "job not part of this track" in dense index tables.
const ABSENT: u32 = u32::MAX;

/// Compressed adjacency: `items[offsets[i]..offsets[i + 1]]` are the
/// neighbours of dense job `i`.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut items = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in lists {
            items.extend_from_slice(list);
            offsets.push(items.len() as u32);
        }
        Csr { offsets, items }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One locked activation: the fixed start time and, when the lock was derived
/// from a schedule-table entry with resource provenance, the resource the job
/// must occupy (the bus recorded when a broadcast's time was tabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lock {
    time: Time,
    pe: Option<PeId>,
}

/// A set of locked activation times, dense over the job space of one graph
/// (process slots first, then one broadcast slot per condition).
///
/// Functionally a `HashMap<Job, Time>`, but cloning is a flat memcpy and
/// lookups are array reads — the scheduler probes the set for every job it
/// commits. A lock may additionally *pin* the resource the job occupies (see
/// [`LockSet::insert_pinned`]): locks inherited from the schedule table carry
/// the bus recorded when the time was tabled, so a locked broadcast lands on
/// that bus instead of a track-local guess.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_path_sched::{Job, LockSet};
/// use cpg_arch::Time;
///
/// let system = examples::diamond();
/// let mut locks = LockSet::for_graph(system.cpg());
/// let decide = system.cpg().process_by_name("decide").unwrap();
/// locks.insert(Job::Process(decide), Time::new(7));
/// assert_eq!(locks.get(Job::Process(decide)), Some(Time::new(7)));
/// assert_eq!(locks.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSet {
    /// Number of process slots (`cpg.len()`); broadcast slots follow.
    processes: usize,
    slots: Vec<Option<Lock>>,
    len: usize,
}

impl LockSet {
    /// An empty lock set sized for the jobs of `cpg` (all its processes plus
    /// one broadcast per condition).
    #[must_use]
    pub fn for_graph(cpg: &Cpg) -> Self {
        LockSet {
            processes: cpg.len(),
            slots: vec![None; cpg.len() + cpg.num_conditions()],
            len: 0,
        }
    }

    fn slot(&self, job: Job) -> Option<usize> {
        match job {
            Job::Process(pid) => (pid.index() < self.processes).then_some(pid.index()),
            Job::Broadcast(cond) => {
                let slot = self.processes + cond.index();
                (slot < self.slots.len()).then_some(slot)
            }
        }
    }

    /// Locks `job` to start exactly at `time` without pinning a resource;
    /// returns the previous locked time.
    pub fn insert(&mut self, job: Job, time: Time) -> Option<Time> {
        self.insert_pinned(job, time, None)
    }

    /// Locks `job` to start exactly at `time` on resource `pe` (the resource
    /// recorded when the time was tabled; `None` leaves the resource to the
    /// scheduler's track-local choice). Returns the previous locked time.
    pub fn insert_pinned(&mut self, job: Job, time: Time, pe: Option<PeId>) -> Option<Time> {
        let slot = self.slot(job).expect("job belongs to a different graph");
        let previous = self.slots[slot].replace(Lock { time, pe });
        if previous.is_none() {
            self.len += 1;
        }
        previous.map(|lock| lock.time)
    }

    /// Removes every lock, keeping the slot capacity: a cleared set is ready
    /// for reuse on the same graph without reallocating (the merge walk pools
    /// lock sets this way).
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.len = 0;
    }

    /// The locked activation time of `job`, if any.
    #[must_use]
    pub fn get(&self, job: Job) -> Option<Time> {
        self.slot(job)
            .and_then(|slot| self.slots[slot])
            .map(|lock| lock.time)
    }

    /// The resource the lock of `job` pins it to, when the lock exists and
    /// carries provenance.
    #[must_use]
    pub fn pinned_pe(&self, job: Job) -> Option<PeId> {
        self.slot(job)
            .and_then(|slot| self.slots[slot])
            .and_then(|lock| lock.pe)
    }

    /// `true` when `job` is locked.
    #[must_use]
    pub fn contains(&self, job: Job) -> bool {
        self.get(job).is_some()
    }

    /// Number of locked jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no job is locked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the locked jobs and their activation times.
    pub fn iter(&self) -> impl Iterator<Item = (Job, Time)> + '_ {
        self.iter_pinned().map(|(job, time, _)| (job, time))
    }

    /// Iterates over the locked jobs with their activation times and pinned
    /// resources.
    pub fn iter_pinned(&self) -> impl Iterator<Item = (Job, Time, Option<PeId>)> + '_ {
        self.slots.iter().enumerate().filter_map(|(slot, lock)| {
            let job = if slot < self.processes {
                Job::Process(ProcessId::from_index(slot))
            } else {
                Job::Broadcast(CondId::new(slot - self.processes))
            };
            lock.map(|lock| (job, lock.time, lock.pe))
        })
    }
}

impl Extend<(Job, Time)> for LockSet {
    fn extend<I: IntoIterator<Item = (Job, Time)>>(&mut self, iter: I) {
        for (job, time) in iter {
            self.insert(job, time);
        }
    }
}

/// The precomputed scheduling context of one alternative path: dense job
/// indices, adjacency, guard requirements and priorities, ready to run the
/// serial schedule-generation scheme any number of times.
///
/// Build one with [`ListScheduler::context`](crate::ListScheduler::context);
/// the merge algorithm builds one context per track up front and reuses it
/// across every adjustment and conflict repair.
///
/// # Example
///
/// ```
/// use cpg::{enumerate_tracks, examples};
/// use cpg_path_sched::{ListScheduler, LockSet};
///
/// let system = examples::fig1();
/// let tracks = enumerate_tracks(system.cpg());
/// let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
///
/// let ctx = scheduler.context(&tracks.tracks()[0]);
/// let schedule = ctx.schedule();
/// // Rescheduling with an empty lock set reproduces the schedule.
/// let again = ctx.reschedule(&schedule, &LockSet::for_graph(system.cpg()));
/// assert_eq!(again.delay(), schedule.delay());
/// ```
#[derive(Debug, Clone)]
pub struct TrackContext<'a> {
    cpg: &'a Cpg,
    arch: &'a Architecture,
    label: Cube,
    broadcast_time: Time,
    needs_broadcast: bool,
    broadcast_buses: Vec<PeId>,
    /// Dense index -> job, in [`Job`] order (processes ascending, then
    /// broadcasts ascending), so dense-index tie-breaks equal job tie-breaks.
    jobs: Vec<Job>,
    /// Graph-wide job slot (process index, then `cpg.len() + cond`) -> dense
    /// index, [`ABSENT`] when the job is not part of this track.
    dense_of_slot: Vec<u32>,
    durations: Vec<Time>,
    /// The resource of each job as far as it is fixed a priori: the mapping
    /// for processes (`None` for the dummies), `None` for broadcasts (their
    /// bus is chosen at placement time).
    mapped_pe: Vec<Option<PeId>>,
    preds: Csr,
    succs: Csr,
    indegree: Vec<u32>,
    /// Conditions each job's guard depends on (cheapest cube satisfied on
    /// this path), in CSR form.
    guard_offsets: Vec<u32>,
    guard_conds: Vec<CondId>,
    /// Partial-critical-path priorities (broadcasts pinned to `u64::MAX`).
    priorities: Vec<u64>,
    /// Per condition: dense index of its disjunction process / broadcast job.
    disj_dense: Vec<u32>,
    bcast_dense: Vec<u32>,
    /// Per condition: the processing element computing it.
    disj_pe: Vec<Option<PeId>>,
    /// Dense indices of the processes that compute a condition, for the
    /// resolution cache attached to every produced schedule.
    computers: Vec<(u32, CondId)>,
    sink_dense: u32,
}

impl<'a> TrackContext<'a> {
    pub(crate) fn new(
        cpg: &'a Cpg,
        arch: &'a Architecture,
        broadcast_time: Time,
        track: &Track,
    ) -> Self {
        let needs_broadcast = arch.needs_broadcast();
        let broadcast_buses: Vec<PeId> = arch.broadcast_buses().collect();
        let label = track.label();

        // Dense job table: processes in ascending identifier order (the order
        // `Track::processes` guarantees), then broadcasts in ascending
        // condition order — exactly the `Ord` of `Job`.
        let mut jobs: Vec<Job> = track.processes().iter().map(|&p| Job::Process(p)).collect();
        if needs_broadcast {
            let mut conds: Vec<CondId> = track.determined_conditions().collect();
            conds.sort_unstable();
            jobs.extend(conds.into_iter().map(Job::Broadcast));
        }
        let n = jobs.len();

        let mut dense_of_slot = vec![ABSENT; cpg.len() + cpg.num_conditions()];
        for (dense, &job) in jobs.iter().enumerate() {
            dense_of_slot[job_slot(cpg, job)] = dense as u32;
        }
        let dense_of = |job: Job| dense_of_slot[job_slot(cpg, job)];

        // Dependencies: a process waits for every input it actually receives
        // on this path; a broadcast waits for its disjunction process.
        let mut pred_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut succ_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (dense, &job) in jobs.iter().enumerate() {
            let preds: Vec<u32> = match job {
                Job::Process(pid) => cpg
                    .in_edges(pid)
                    .filter(|edge| {
                        track.contains(edge.from())
                            && edge.condition().is_none_or(|lit| label.contains(lit))
                    })
                    .map(|edge| dense_of(Job::Process(edge.from())))
                    .collect(),
                Job::Broadcast(cond) => vec![dense_of(Job::Process(cpg.disjunction_of(cond)))],
            };
            for &p in &preds {
                succ_lists[p as usize].push(dense as u32);
            }
            pred_lists[dense] = preds;
        }
        let indegree: Vec<u32> = pred_lists.iter().map(|l| l.len() as u32).collect();

        // Guard availability: the run-time scheduler of a processing element
        // can only activate a job once every condition of the job's guard is
        // known locally. The per-job requirement is the cheapest guard cube
        // satisfied on this path.
        let mut guard_offsets = Vec::with_capacity(n + 1);
        let mut guard_conds = Vec::new();
        guard_offsets.push(0);
        for &job in &jobs {
            let guard = match job {
                Job::Process(pid) => cpg.guard(pid),
                Job::Broadcast(cond) => cpg.guard(cpg.disjunction_of(cond)),
            };
            let cube = guard
                .cubes()
                .iter()
                .filter(|cube| label.implies(cube))
                .min_by_key(|cube| cube.len())
                .copied()
                .unwrap_or(Cube::top());
            guard_conds.extend(cube.conditions());
            guard_offsets.push(guard_conds.len() as u32);
        }

        // Partial-critical-path priorities: longest chain of execution times
        // to the sink, restricted to the track; broadcasts are issued as soon
        // as their disjunction process terminates.
        let mut lengths: Vec<u64> = vec![0; cpg.len()];
        for &pid in cpg.topological_order().iter().rev() {
            if !track.contains(pid) {
                continue;
            }
            let downstream = cpg
                .out_edges(pid)
                .filter(|edge| {
                    track.contains(edge.to())
                        && edge.condition().is_none_or(|lit| label.contains(lit))
                })
                .map(|edge| lengths[edge.to().index()])
                .max()
                .unwrap_or(0);
            lengths[pid.index()] = downstream + cpg.exec_time(pid).as_u64();
        }
        let priorities: Vec<u64> = jobs
            .iter()
            .map(|&job| match job {
                Job::Process(pid) => lengths[pid.index()],
                Job::Broadcast(_) => u64::MAX,
            })
            .collect();

        let durations: Vec<Time> = jobs
            .iter()
            .map(|&job| match job {
                Job::Process(pid) => cpg.exec_time(pid),
                Job::Broadcast(_) => broadcast_time,
            })
            .collect();
        let mapped_pe: Vec<Option<PeId>> = jobs
            .iter()
            .map(|&job| match job {
                Job::Process(pid) => cpg.mapping(pid),
                Job::Broadcast(_) => None,
            })
            .collect();

        let mut disj_dense = vec![ABSENT; cpg.num_conditions()];
        let mut bcast_dense = vec![ABSENT; cpg.num_conditions()];
        let mut disj_pe = vec![None; cpg.num_conditions()];
        for cond in cpg.conditions() {
            let disjunction = cpg.disjunction_of(cond);
            disj_dense[cond.index()] = dense_of(Job::Process(disjunction));
            bcast_dense[cond.index()] = dense_of_slot[cpg.len() + cond.index()];
            disj_pe[cond.index()] = cpg.mapping(disjunction);
        }
        let computers: Vec<(u32, CondId)> = jobs
            .iter()
            .enumerate()
            .filter_map(|(dense, &job)| {
                let pid = job.as_process()?;
                let cond = cpg.process(pid).computes()?;
                Some((dense as u32, cond))
            })
            .collect();

        TrackContext {
            cpg,
            arch,
            label,
            broadcast_time,
            needs_broadcast,
            broadcast_buses,
            sink_dense: dense_of_slot[cpg.sink().index()],
            jobs,
            dense_of_slot,
            durations,
            mapped_pe,
            preds: Csr::from_lists(&pred_lists),
            succs: Csr::from_lists(&succ_lists),
            indegree,
            guard_offsets,
            guard_conds,
            priorities,
            disj_dense,
            bcast_dense,
            disj_pe,
            computers,
        }
    }

    /// The label `L_k` of the track this context belongs to.
    #[must_use]
    pub fn label(&self) -> Cube {
        self.label
    }

    /// Number of jobs (processes plus condition broadcasts) of the track.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the track has no jobs (never the case for contexts built
    /// from enumerated tracks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The condition broadcast time `τ0`.
    #[must_use]
    pub fn broadcast_time(&self) -> Time {
        self.broadcast_time
    }

    /// Schedules the track with the partial-critical-path priority (longest
    /// remaining path to the sink first). Equivalent to
    /// [`ListScheduler::schedule_track`](crate::ListScheduler::schedule_track).
    ///
    /// Allocates a fresh [`RunScratch`] per call; callers that schedule
    /// repeatedly should reuse one arena through
    /// [`schedule_with`](Self::schedule_with).
    #[must_use]
    pub fn schedule(&self) -> PathSchedule {
        self.schedule_with(&mut RunScratch::new())
    }

    /// [`schedule`](Self::schedule) through a reusable scratch arena: the
    /// run's dense working state lives in `scratch`, which is reset on entry
    /// and reusable for any later run on any context, so repeated scheduling
    /// is allocation-free after warm-up.
    #[must_use]
    pub fn schedule_with(&self, scratch: &mut RunScratch) -> PathSchedule {
        self.run(scratch, &self.priorities, None)
    }

    /// Re-schedules the track after some activation times were fixed in the
    /// schedule table (the *adjustment* step of the merge algorithm).
    ///
    /// Locked jobs keep exactly their fixed start time — and, for condition
    /// broadcasts, the bus the lock pins (recorded in the schedule table when
    /// the time was tabled) or, for unpinned locks, the bus `original`
    /// assigned to them; every other job moves to the earliest moment allowed
    /// by data dependencies and resource availability, preserving the
    /// relative activation order of `original`.
    /// Locks that cannot be honoured are reported through
    /// [`PathSchedule::slipped_locks`]. Locks for jobs that are not part of
    /// this track are ignored: processes of other alternative paths never
    /// execute on this one, so their tabled times do not occupy resources
    /// here.
    #[must_use]
    pub fn reschedule(&self, original: &PathSchedule, locks: &LockSet) -> PathSchedule {
        self.reschedule_with(&mut RunScratch::new(), original, locks)
    }

    /// [`reschedule`](Self::reschedule) through a reusable scratch arena (see
    /// [`schedule_with`](Self::schedule_with) for the arena contract).
    #[must_use]
    pub fn reschedule_with(
        &self,
        scratch: &mut RunScratch,
        original: &PathSchedule,
        locks: &LockSet,
    ) -> PathSchedule {
        let mut out = PathSchedule::default();
        self.reschedule_into(scratch, original, locks, &mut out);
        out
    }

    /// [`reschedule`](Self::reschedule) that writes the result into `out`,
    /// reusing its buffers in addition to the scratch arena's: callers that
    /// re-adjust schedules in a loop — the decision-tree walk of the merge
    /// algorithm — pool `PathSchedule`s and rebuild them in place, so the
    /// whole walk touches the allocator only until the pools are warm. The
    /// previous content of `out` is discarded; the rebuilt schedule is
    /// bit-identical to what [`reschedule_with`](Self::reschedule_with)
    /// returns.
    pub fn reschedule_into(
        &self,
        scratch: &mut RunScratch,
        original: &PathSchedule,
        locks: &LockSet,
        out: &mut PathSchedule,
    ) {
        // Priority: earlier original start  =>  scheduled earlier. The
        // priority buffer is moved out of the arena for the duration of the
        // run (`run_into` borrows the rest of the arena mutably) and handed
        // back with its storage intact afterwards.
        let mut priorities = std::mem::take(&mut scratch.priorities);
        priorities.clear();
        priorities.extend(self.jobs.iter().map(|&job| {
            original
                .start(job)
                .map_or(0, |start| u64::MAX - start.as_u64())
        }));
        self.run_into(scratch, &priorities, Some((locks, original)), out);
        scratch.priorities = priorities;
    }

    /// The conditions the guard of dense job `i` depends on.
    fn guard_requirements(&self, i: usize) -> &[CondId] {
        &self.guard_conds[self.guard_offsets[i] as usize..self.guard_offsets[i + 1] as usize]
    }

    /// The resource a *locked* job occupies: its mapping for processes; for
    /// broadcasts the bus the lock pins (recorded when the activation time
    /// was tabled, possibly by another path's adjusted schedule), then the
    /// bus assigned by the original schedule, then the first broadcast bus.
    fn locked_pe(&self, dense: usize, locks: &LockSet, original: &PathSchedule) -> Option<PeId> {
        let job = self.jobs[dense];
        match job {
            Job::Process(_) => self.mapped_pe[dense],
            Job::Broadcast(_) => locks
                .pinned_pe(job)
                .or_else(|| original.entry(job).and_then(ScheduledJob::pe))
                .or_else(|| self.broadcast_buses.first().copied()),
        }
    }

    /// The moment the value of `cond` becomes available to the run-time
    /// scheduler of `pe` under the partially built schedule: the completion
    /// of the disjunction process on its own processing element, the
    /// completion of the broadcast everywhere else. Jobs without a resource
    /// (broadcasts whose bus is chosen later, the dummy processes)
    /// conservatively use the broadcast completion as well.
    fn condition_available(
        &self,
        cond: CondId,
        pe: Option<PeId>,
        ends: &[Time],
        placed: &[bool],
    ) -> Time {
        let disj = self.disj_dense[cond.index()] as usize;
        let computed = if disj != ABSENT as usize && placed[disj] {
            ends[disj]
        } else {
            Time::ZERO
        };
        match pe {
            Some(pe) if self.disj_pe[cond.index()] == Some(pe) => computed,
            _ => {
                let bcast = self.bcast_dense[cond.index()] as usize;
                if bcast != ABSENT as usize && placed[bcast] {
                    ends[bcast]
                } else {
                    computed
                }
            }
        }
    }

    /// Chooses the resource and earliest feasible start for an unlocked job.
    fn placement(
        &self,
        dense: usize,
        data_ready: Time,
        duration: Time,
        calendars: &[Calendar],
    ) -> Option<(PeId, Time)> {
        let fit = |pe: PeId| -> Time {
            if self.arch.is_exclusive(pe) {
                calendars[pe.index()].earliest_fit(data_ready, duration)
            } else {
                data_ready
            }
        };
        match self.jobs[dense] {
            Job::Process(_) => self.mapped_pe[dense].map(|pe| (pe, fit(pe))),
            Job::Broadcast(_) => self
                .broadcast_buses
                .iter()
                .map(|&bus| (bus, fit(bus)))
                .min_by_key(|&(bus, start)| (start, bus)),
        }
    }

    /// Serial schedule-generation scheme on the dense representation: commits
    /// eligible jobs in priority order to the earliest feasible slot of their
    /// resource, driving eligibility with an indegree-counting ready queue.
    ///
    /// All working state lives in `scratch` (reset and sized on entry), so
    /// after one run on the largest track of the graph, further runs through
    /// the same arena touch the allocator only for the returned schedule.
    // lint: hot-path (list scheduling of one path; arena-backed, no fresh buffers)
    fn run(
        &self,
        scratch: &mut RunScratch,
        priorities: &[u64],
        locking: Option<(&LockSet, &PathSchedule)>,
    ) -> PathSchedule {
        let mut out = PathSchedule::default();
        self.run_into(scratch, priorities, locking, &mut out);
        out
    }

    /// [`run`](Self::run) writing the produced schedule into `out` (cleared
    /// and refilled, buffers reused).
    // lint: hot-path (same discipline as run, writing into a reused schedule)
    fn run_into(
        &self,
        scratch: &mut RunScratch,
        priorities: &[u64],
        locking: Option<(&LockSet, &PathSchedule)>,
        out: &mut PathSchedule,
    ) {
        let n = self.jobs.len();
        scratch.prepare(n, self.arch.len(), &self.indegree);

        // Pre-reserve every locked interval on the resource the locked job
        // actually occupies, so unlocked jobs are placed around them even
        // before the locked job itself is committed.
        if let Some((locks, original)) = locking {
            for dense in 0..n {
                if let Some(start) = locks.get(self.jobs[dense]) {
                    if let Some(pe) = self.locked_pe(dense, locks, original) {
                        if self.arch.is_exclusive(pe) {
                            scratch.calendars[pe.index()].reserve(start, self.durations[dense]);
                        }
                    }
                }
            }
        }

        // Max-heap on (priority, smallest dense index) — dense indices are in
        // `Job` order, so ties break exactly like the reference rescan.
        for (dense, &deg) in scratch.indegree.iter().enumerate() {
            if deg == 0 {
                scratch
                    .ready
                    .push((priorities[dense], Reverse(dense as u32)));
            }
        }

        let mut committed = 0usize;
        while let Some((_, Reverse(dense))) = scratch.ready.pop() {
            let dense = dense as usize;
            let job = self.jobs[dense];

            let mut data_ready = self
                .preds
                .row(dense)
                .iter()
                .map(|&p| scratch.ends[p as usize])
                .max()
                .unwrap_or(Time::ZERO);
            // The guard of the job must be decidable on its processing
            // element before it can be activated (requirement 4 of the
            // paper's Section 3, applied while building the path schedule).
            if self.needs_broadcast {
                let local_pe = self.mapped_pe[dense];
                for &cond in self.guard_requirements(dense) {
                    data_ready = data_ready.max(self.condition_available(
                        cond,
                        local_pe,
                        &scratch.ends,
                        &scratch.placed,
                    ));
                }
            }

            let duration = self.durations[dense];
            let lock = locking.and_then(|(locks, _)| locks.get(job));
            let (start, pe) = if let Some(lock) = lock {
                // Locked jobs keep the activation time fixed in the table (on
                // the resource the original schedule assigned). A lock that
                // data dependencies push past its fixed time has *slipped*:
                // record it and reserve the interval it really occupies, so
                // jobs committed later are placed around it. (Unlocked jobs
                // committed *before* the slip was detected only saw the
                // pre-reservation at the intended time — a slip therefore
                // always signals a violated caller invariant, which is
                // exactly why it is surfaced instead of silently absorbed.)
                let start = lock.max(data_ready);
                let (locks, original) = locking.expect("locking is Some");
                let pe = self.locked_pe(dense, locks, original);
                if start != lock {
                    scratch.slipped.push(SlippedLock {
                        job,
                        intended: lock,
                        actual: start,
                    });
                    if let Some(pe) = pe {
                        if self.arch.is_exclusive(pe) {
                            scratch.calendars[pe.index()].reserve(start, duration);
                        }
                    }
                }
                (start, pe)
            } else {
                match self.placement(dense, data_ready, duration, &scratch.calendars) {
                    Some((pe, start)) => {
                        if self.arch.is_exclusive(pe) {
                            scratch.calendars[pe.index()].reserve(start, duration);
                        }
                        (start, Some(pe))
                    }
                    // Dummy source/sink: no resource.
                    None => (data_ready, None),
                }
            };

            scratch.starts[dense] = start;
            scratch.ends[dense] = start + duration;
            scratch.pes[dense] = pe;
            scratch.placed[dense] = true;
            committed += 1;

            for &succ in self.succs.row(dense) {
                let succ = succ as usize;
                scratch.indegree[succ] -= 1;
                if scratch.indegree[succ] == 0 {
                    scratch.ready.push((priorities[succ], Reverse(succ as u32)));
                }
            }
        }
        debug_assert_eq!(committed, n, "acyclic tracks commit every job");

        let delay = if self.sink_dense == ABSENT {
            Time::ZERO
        } else {
            scratch.starts[self.sink_dense as usize]
        };
        // The schedule owns a copy of the slip buffer; extending an empty
        // buffer (the common, no-slip case) does not allocate, and the arena
        // keeps its capacity for the next slipping run either way.
        out.rebuild_from_parts(
            self.label,
            delay,
            self.cpg.len(),
            self.cpg.num_conditions(),
            (0..n).map(|dense| ScheduledJob {
                job: self.jobs[dense],
                start: scratch.starts[dense],
                end: scratch.ends[dense],
                pe: scratch.pes[dense],
            }),
            self.computers
                .iter()
                .map(|&(dense, cond)| (cond, scratch.ends[dense as usize])),
            &scratch.slipped,
        );
    }

    /// The dense index of a job on this track, if the job is part of it.
    /// Exposed for the differential test harness.
    #[doc(hidden)]
    #[must_use]
    pub fn dense_index(&self, job: Job) -> Option<usize> {
        let dense = self.dense_of_slot[job_slot(self.cpg, job)];
        (dense != ABSENT).then_some(dense as usize)
    }
}

/// Graph-wide slot of a job: processes first, then one slot per condition.
fn job_slot(cpg: &Cpg, job: Job) -> usize {
    match job {
        Job::Process(pid) => pid.index(),
        Job::Broadcast(cond) => cpg.len() + cond.index(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{enumerate_tracks, examples};

    #[test]
    fn lock_set_behaves_like_a_map() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let mut locks = LockSet::for_graph(cpg);
        assert!(locks.is_empty());
        let p = Job::Process(cpg.process_by_name("P1").unwrap());
        let b = Job::Broadcast(system.condition("C").unwrap());
        assert_eq!(locks.insert(p, Time::new(3)), None);
        assert_eq!(locks.insert(b, Time::new(5)), None);
        assert_eq!(locks.insert(p, Time::new(4)), Some(Time::new(3)));
        assert_eq!(locks.len(), 2);
        assert_eq!(locks.get(p), Some(Time::new(4)));
        assert!(locks.contains(b));
        let collected: Vec<(Job, Time)> = locks.iter().collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.contains(&(p, Time::new(4))));
        assert!(collected.contains(&(b, Time::new(5))));
    }

    #[test]
    fn reschedule_into_reuses_buffers_and_matches_reschedule() {
        let system = examples::fig1();
        let tracks = enumerate_tracks(system.cpg());
        let scheduler =
            crate::ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        let mut scratch = RunScratch::new();
        let mut pooled = PathSchedule::default();
        for track in tracks.iter() {
            let ctx = scheduler.context(track);
            let original = ctx.schedule_with(&mut scratch);
            let mut locks = LockSet::for_graph(system.cpg());
            if let Some(sj) = original.jobs().iter().find(|sj| sj.pe().is_some()) {
                locks.insert(sj.job(), sj.start() + Time::new(3));
            }
            let fresh = ctx.reschedule_with(&mut RunScratch::new(), &original, &locks);
            // The pooled schedule is rebuilt in place across every track and
            // must match a freshly allocated one each time.
            ctx.reschedule_into(&mut scratch, &original, &locks, &mut pooled);
            assert_eq!(fresh, pooled, "reschedule_into diverged on {}", ctx.label());
        }
    }

    #[test]
    fn context_schedule_matches_scheduler_entry_point() {
        let system = examples::fig1();
        let tracks = enumerate_tracks(system.cpg());
        let scheduler =
            crate::ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let ctx = scheduler.context(track);
            assert_eq!(ctx.label(), track.label());
            assert!(!ctx.is_empty());
            assert_eq!(ctx.broadcast_time(), system.broadcast_time());
            let direct = scheduler.schedule_track(track);
            let via_ctx = ctx.schedule();
            assert_eq!(direct, via_ctx);
            assert_eq!(ctx.len(), via_ctx.len());
            // The resolution cache matches the graph-derived list.
            assert_eq!(
                via_ctx.resolutions(),
                via_ctx.condition_resolutions(system.cpg()).as_slice()
            );
        }
    }
}
