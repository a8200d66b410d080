//! Dense, indexed per-track scheduling core.
//!
//! [`ListScheduler`](crate::ListScheduler) resolves every scheduling decision
//! against graph-level data (edges, guards, mappings) that is identical for
//! every `schedule`/`reschedule` call on the same track. The merge algorithm
//! of `cpg-merge` re-runs the list scheduler once per alternative path and
//! again at every back-step adjustment and conflict repair, so this module
//! splits that work in two. The track-independent graph tables (in-edges
//! with their condition literals, execution times, mappings, disjunction
//! processes, broadcast buses) are gathered once per scheduler; each
//! track's reusable [`TrackContext`] is derived from them:
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

use cpg::{CondId, Cpg, Cube, Literal, ProcessId, Track};
use cpg_arch::{Architecture, PeId, Time};

use crate::calendar::Calendar;
use crate::job::{Job, JobSlots, ScheduledJob};
use crate::schedule::{Knowledge, PathSchedule, SlippedLock};
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
    /// The reverse adjacency over `n` nodes, by a counting pass over the
    /// rows: each reversed row lists its neighbours in ascending order.
    fn transpose(&self, n: usize) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for &j in &self.items {
            offsets[j as usize] += 1;
        }
        let mut total = 0;
        for offset in &mut offsets {
            total += *offset;
            *offset = total;
        }
        // `offsets[j]` is the end of row `j`; filling every row back to
        // front from the highest source down leaves it at the row's start.
        let mut items = vec![0u32; self.items.len()];
        for i in (0..n).rev() {
            for &j in self.row(i).iter().rev() {
                offsets[j as usize] -= 1;
                items[offsets[j as usize] as usize] = i as u32;
            }
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

/// A set of locked activation times, one entry per [`JobSlots`] slot of one
/// graph.
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
    slots: JobSlots,
    /// By job slot, the lock of the job.
    locks: Vec<Option<Lock>>,
    len: usize,
}

impl LockSet {
    /// An empty lock set sized for the jobs of `cpg` (all its processes plus
    /// one broadcast per condition).
    #[must_use]
    pub fn for_graph(cpg: &Cpg) -> Self {
        let slots = JobSlots::for_graph(cpg);
        LockSet {
            slots,
            locks: vec![None; slots.len()],
            len: 0,
        }
    }

    fn lock(&self, job: Job) -> Option<Lock> {
        self.slots.slot(job).and_then(|slot| self.locks[slot])
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
        let slot = self
            .slots
            .slot(job)
            .expect("job belongs to a different graph");
        let previous = self.locks[slot].replace(Lock { time, pe });
        if previous.is_none() {
            self.len += 1;
        }
        previous.map(|lock| lock.time)
    }

    /// Removes every lock, keeping the slot capacity: a cleared set is ready
    /// for reuse on the same graph without reallocating (the merge walk pools
    /// lock sets this way).
    pub fn clear(&mut self) {
        self.locks.fill(None);
        self.len = 0;
    }

    /// The locked activation time of `job`, if any.
    #[must_use]
    pub fn get(&self, job: Job) -> Option<Time> {
        self.lock(job).map(|lock| lock.time)
    }

    /// The resource the lock of `job` pins it to, when the lock exists and
    /// carries provenance.
    #[must_use]
    pub fn pinned_pe(&self, job: Job) -> Option<PeId> {
        self.lock(job).and_then(|lock| lock.pe)
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
        self.locks
            .iter()
            .enumerate()
            .filter_map(|(slot, lock)| lock.map(|lock| (self.slots.job(slot), lock.time, lock.pe)))
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
    /// condition-knowledge times attached to every produced schedule.
    computers: Vec<(u32, CondId)>,
    sink_dense: u32,
    /// Every duration fits in 32 bits, so a run orders its produced schedule
    /// by one packed integer key per job (see [`schedule_key`]).
    narrow_durations: bool,
}

/// The ready-queue key of dense job `dense` at `priority`: ascending keys
/// are ascending `(priority, Reverse(dense))`, so the max-heap pops the
/// highest priority first and breaks ties towards the smallest dense index.
fn ready_key(priority: u64, dense: usize) -> u128 {
    u128::from(priority) << 32 | u128::from(!(dense as u32))
}

/// The dense index of a [`ready_key`].
fn ready_dense(key: u128) -> usize {
    !(key as u32) as usize
}

/// The schedule-order key of dense job `dense` starting at `start` for
/// `duration`, which must fit in 32 bits: ascending keys are ascending
/// `(start, end, dense)`, and dense order is [`Job`] order.
fn schedule_key(start: Time, duration: Time, dense: usize) -> u128 {
    u128::from(start.as_u64()) << 64 | u128::from(duration.as_u64()) << 32 | dense as u128
}

/// The track-independent graph data every [`TrackContext`] is built from,
/// gathered once per [`ListScheduler`](crate::ListScheduler): the merge
/// builds one scheduler per merge and derives all of its track contexts
/// from these tables instead of walking the graph once per track.
#[derive(Debug, Clone)]
pub(crate) struct GraphTables {
    /// In-edges of every process, in [`Cpg::in_edges`] order:
    /// `in_edges[in_offsets[p]..in_offsets[p + 1]]` holds the producer of
    /// each edge into process `p` and the literal the edge transmits under
    /// (`None` for simple edges).
    in_offsets: Vec<u32>,
    in_edges: Vec<(u32, Option<Literal>)>,
    exec_time: Vec<Time>,
    mapping: Vec<Option<PeId>>,
    computes: Vec<Option<CondId>>,
    /// Per condition: the disjunction process computing it.
    disjunction: Vec<ProcessId>,
    needs_broadcast: bool,
    broadcast_buses: Vec<PeId>,
}

impl GraphTables {
    pub(crate) fn new(cpg: &Cpg, arch: &Architecture) -> Self {
        let mut in_offsets = Vec::with_capacity(cpg.len() + 1);
        let mut in_edges = Vec::with_capacity(cpg.edges().len());
        in_offsets.push(0);
        for pid in cpg.process_ids() {
            in_edges.extend(
                cpg.in_edges(pid)
                    .map(|edge| (edge.from().index() as u32, edge.condition())),
            );
            in_offsets.push(in_edges.len() as u32);
        }
        GraphTables {
            in_offsets,
            in_edges,
            exec_time: cpg.process_ids().map(|pid| cpg.exec_time(pid)).collect(),
            mapping: cpg.process_ids().map(|pid| cpg.mapping(pid)).collect(),
            computes: cpg
                .process_ids()
                .map(|pid| cpg.process(pid).computes())
                .collect(),
            disjunction: cpg.conditions().map(|c| cpg.disjunction_of(c)).collect(),
            needs_broadcast: arch.needs_broadcast(),
            broadcast_buses: arch.broadcast_buses().collect(),
        }
    }

    fn in_edges(&self, pid: ProcessId) -> &[(u32, Option<Literal>)] {
        let i = pid.index();
        &self.in_edges[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }
}

impl<'a> TrackContext<'a> {
    pub(crate) fn new(
        cpg: &'a Cpg,
        arch: &'a Architecture,
        broadcast_time: Time,
        tables: &GraphTables,
        track: &Track,
    ) -> Self {
        let label = track.label();
        let processes = track.processes();
        let n_processes = processes.len();

        // Dense job table: processes in ascending identifier order (the order
        // `Track::processes` guarantees), then broadcasts in ascending
        // condition order (the order `Cube::conditions` yields) — exactly
        // the `Ord` of `Job`.
        let broadcasts = if tables.needs_broadcast {
            label.len()
        } else {
            0
        };
        let mut jobs: Vec<Job> = Vec::with_capacity(n_processes + broadcasts);
        jobs.extend(processes.iter().map(|&p| Job::Process(p)));
        if tables.needs_broadcast {
            jobs.extend(label.conditions().map(Job::Broadcast));
        }
        let n = jobs.len();

        // Process index -> dense index, `ABSENT` off the track.
        let mut dense_of = vec![ABSENT; cpg.len()];
        for (dense, &pid) in processes.iter().enumerate() {
            dense_of[pid.index()] = dense as u32;
        }

        // Dependencies: a process waits for every input it actually receives
        // on this path; a broadcast waits for its disjunction process.
        let mut preds = Csr {
            offsets: Vec::with_capacity(n + 1),
            items: Vec::new(),
        };
        preds.offsets.push(0);
        let mut durations = Vec::with_capacity(n);
        let mut mapped_pe = Vec::with_capacity(n);
        let mut computers = Vec::new();
        for (dense, &pid) in processes.iter().enumerate() {
            for &(from, literal) in tables.in_edges(pid) {
                let from = dense_of[from as usize];
                if from != ABSENT && literal.is_none_or(|lit| label.contains(lit)) {
                    preds.items.push(from);
                }
            }
            preds.offsets.push(preds.items.len() as u32);
            durations.push(tables.exec_time[pid.index()]);
            mapped_pe.push(tables.mapping[pid.index()]);
            if let Some(cond) = tables.computes[pid.index()] {
                computers.push((dense as u32, cond));
            }
        }
        let mut bcast_dense = vec![ABSENT; cpg.num_conditions()];
        for (dense, &job) in jobs.iter().enumerate().skip(n_processes) {
            let cond = job.as_broadcast().expect("broadcasts follow the processes");
            bcast_dense[cond.index()] = dense as u32;
            preds
                .items
                .push(dense_of[tables.disjunction[cond.index()].index()]);
            preds.offsets.push(preds.items.len() as u32);
            durations.push(broadcast_time);
            mapped_pe.push(None);
        }
        let indegree: Vec<u32> = preds.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let succs = preds.transpose(n);

        // Guard availability: the run-time scheduler of a processing element
        // can only activate a job once every condition of the job's guard is
        // known locally. The per-job requirement is the cheapest guard cube
        // satisfied on this path.
        let mut guard_offsets = Vec::with_capacity(n + 1);
        let mut guard_conds = Vec::new();
        guard_offsets.push(0);
        for &job in &jobs {
            let pid = match job {
                Job::Process(pid) => pid,
                Job::Broadcast(cond) => tables.disjunction[cond.index()],
            };
            let cube = cpg
                .guard(pid)
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
        // to the sink over the track's own successor rows, in reverse
        // topological order; broadcasts are issued as soon as their
        // disjunction process terminates.
        let mut priorities = vec![u64::MAX; n];
        for &pid in cpg.topological_order().iter().rev() {
            let dense = dense_of[pid.index()] as usize;
            if dense == ABSENT as usize {
                continue;
            }
            let downstream = succs
                .row(dense)
                .iter()
                .filter(|&&succ| (succ as usize) < n_processes)
                .map(|&succ| priorities[succ as usize])
                .max()
                .unwrap_or(0);
            priorities[dense] = downstream + durations[dense].as_u64();
        }

        let disj_dense = tables
            .disjunction
            .iter()
            .map(|&pid| dense_of[pid.index()])
            .collect();
        let disj_pe = tables
            .disjunction
            .iter()
            .map(|&pid| tables.mapping[pid.index()])
            .collect();

        let narrow_durations = durations
            .iter()
            .all(|duration| duration.as_u64() <= u64::from(u32::MAX));

        TrackContext {
            cpg,
            arch,
            label,
            broadcast_time,
            needs_broadcast: tables.needs_broadcast,
            broadcast_buses: tables.broadcast_buses.clone(),
            sink_dense: dense_of[cpg.sink().index()],
            jobs,
            durations,
            mapped_pe,
            preds,
            succs,
            indegree,
            guard_offsets,
            guard_conds,
            priorities,
            disj_dense,
            bcast_dense,
            disj_pe,
            computers,
            narrow_durations,
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
    ///
    /// When `original` already [honours](PathSchedule::honours) every lock,
    /// it is the adjusted schedule with the least delay; the merge keeps it
    /// and calls no reschedule.
    #[must_use]
    pub fn reschedule(&self, original: &PathSchedule, locks: &LockSet) -> PathSchedule {
        let mut out = PathSchedule::default();
        self.reschedule_into(&mut RunScratch::new(), original, locks, &mut out);
        out
    }

    /// [`reschedule`](Self::reschedule) through a reusable scratch arena (see
    /// [`schedule_with`](Self::schedule_with) for the arena contract) that
    /// writes the result into `out`, reusing its buffers too: callers that
    /// re-adjust schedules in a loop — the decision-tree walk of the merge
    /// algorithm — pool `PathSchedule`s and rebuild them in place, so the
    /// whole walk touches the allocator only until the pools are warm. The
    /// previous content of `out` is discarded; the rebuilt schedule is
    /// bit-identical to what [`reschedule`](Self::reschedule) returns.
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
                scratch.ready.push(ready_key(priorities[dense], dense));
            }
        }

        let mut committed = 0usize;
        while let Some(key) = scratch.ready.pop() {
            let dense = ready_dense(key);
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
                    scratch.ready.push(ready_key(priorities[succ], succ));
                }
            }
        }
        debug_assert_eq!(committed, n, "acyclic tracks commit every job");

        let delay = if self.sink_dense == ABSENT {
            Time::ZERO
        } else {
            scratch.starts[self.sink_dense as usize]
        };
        // The schedule lists its jobs in `(start, end, job)` order: one
        // integer sort of packed keys, or a tuple sort of dense indices
        // when a duration needs more than 32 bits. The low 32 bits of
        // either key are the dense index.
        let (starts, ends, keys) = (&scratch.starts, &scratch.ends, &mut scratch.keys);
        if self.narrow_durations {
            keys.extend(
                (0..n).map(|dense| schedule_key(starts[dense], self.durations[dense], dense)),
            );
            keys.sort_unstable();
        } else {
            keys.extend((0..n).map(|dense| dense as u128));
            keys.sort_unstable_by_key(|&dense| {
                let dense = dense as usize;
                (starts[dense], ends[dense], dense)
            });
        }
        // The schedule owns a copy of the slip buffer; extending an empty
        // buffer (the common, no-slip case) does not allocate, and the arena
        // keeps its capacity for the next slipping run either way.
        out.rebuild_from_parts(
            self.label,
            delay,
            JobSlots::for_graph(self.cpg),
            scratch.keys.iter().map(|&key| {
                let dense = key as u32 as usize;
                ScheduledJob {
                    job: self.jobs[dense],
                    start: scratch.starts[dense],
                    end: scratch.ends[dense],
                    pe: scratch.pes[dense],
                }
            }),
            self.computers.iter().map(|&(dense, cond)| {
                let bcast = self.bcast_dense[cond.index()];
                Knowledge {
                    cond,
                    pe: self.disj_pe[cond.index()],
                    computed: scratch.ends[dense as usize],
                    broadcast: (bcast != ABSENT).then(|| scratch.ends[bcast as usize]),
                }
            }),
            &scratch.slipped,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{enumerate_tracks, examples};

    #[test]
    fn transpose_lists_each_row_in_ascending_order() {
        // Rows 0..4 with a repeated edge (3 -> 1 twice) and an empty row.
        let preds = Csr {
            offsets: vec![0, 0, 1, 2, 5],
            items: vec![0, 1, 1, 0, 1],
        };
        let succs = preds.transpose(4);
        assert_eq!(succs.row(0), &[1, 3]);
        assert_eq!(succs.row(1), &[2, 3, 3]);
        assert_eq!(succs.row(2), &[] as &[u32]);
        assert_eq!(succs.row(3), &[] as &[u32]);
    }

    #[test]
    fn an_input_edge_that_does_not_transmit_on_the_track_is_no_dependency() {
        // `join` is a conjunction of `decide --C--> join` and `early -->
        // join`: on the ¬C track both endpoints of the conditional edge run,
        // but the edge transmits nothing, so `join` must not wait for
        // `decide`.
        use cpg::CpgBuilder;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus")
            .build()
            .unwrap();
        let cpu0 = arch.pe_by_name("cpu0").unwrap();
        let cpu1 = arch.pe_by_name("cpu1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let decide = b.process("decide", Time::new(10), cpu0);
        let other = b.process("other", Time::new(2), cpu0);
        let early = b.process("early", Time::new(1), cpu1);
        let join = b.process("join", Time::new(1), cpu1);
        b.conditional_edge(decide, join, c.is_true(), Time::ZERO);
        b.conditional_edge(decide, other, c.is_false(), Time::ZERO);
        b.simple_edge(early, join, Time::ZERO);
        b.mark_conjunction(join);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        let scheduler = crate::ListScheduler::new(&cpg, &arch, Time::new(1));
        let not_c = tracks.by_label(&Cube::from(c.is_false())).unwrap();
        assert!(not_c.contains(decide) && not_c.contains(join));
        let schedule = scheduler.schedule_track(not_c);
        assert_eq!(schedule.start(Job::Process(join)), Some(Time::new(1)));
        assert_eq!(
            schedule,
            crate::reference::schedule_track(&cpg, &arch, Time::new(1), not_c)
        );
        let on_c = tracks.by_label(&Cube::from(c.is_true())).unwrap();
        let schedule = scheduler.schedule_track(on_c);
        assert!(schedule.start(Job::Process(join)) >= Some(Time::new(10)));
    }

    #[test]
    fn durations_beyond_32_bits_order_the_schedule_like_the_reference() {
        // Durations of 2³² and more cannot be packed into the 32-bit field
        // of the schedule key, so these contexts sort `(start, end, dense)`
        // tuples. `long` starts at 0 with 2³² + 7 time units; `late` starts
        // at 1 with 3, so a duration truncated into the key would misplace
        // one of them. Four jobs tie at start 0 on the hardware processor.
        use cpg::CpgBuilder;
        use std::collections::HashMap;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .hardware("asic")
            .bus("bus")
            .build()
            .unwrap();
        let pe = |name| arch.pe_by_name(name).unwrap();
        let wide = |units: u64| Time::new((1 << 32) + units);
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let decide = b.process("decide", wide(1 << 20), pe("cpu0"));
        let x = b.process("x", Time::new(3), pe("cpu1"));
        let y = b.process("y", wide(0), pe("cpu1"));
        b.conditional_edge(decide, x, c.is_true(), Time::ZERO);
        b.conditional_edge(decide, y, c.is_false(), Time::ZERO);
        b.process("long", wide(7), pe("asic"));
        b.process("short", Time::new(3), pe("asic"));
        b.process("tie", Time::new(3), pe("asic"));
        let first = b.process("first", Time::new(1), pe("cpu1"));
        let late = b.process("late", Time::new(3), pe("asic"));
        b.simple_edge(first, late, Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        let broadcast = wide(3);
        let scheduler = crate::ListScheduler::new(&cpg, &arch, broadcast);
        for track in tracks.iter() {
            let ctx = scheduler.context(track);
            assert!(!ctx.narrow_durations);
            let schedule = ctx.schedule();
            assert_eq!(
                schedule,
                crate::reference::schedule_track(&cpg, &arch, broadcast, track)
            );
            assert_eq!(schedule.start(Job::Process(late)), Some(Time::new(1)));
            let tied = schedule
                .jobs()
                .iter()
                .filter(|sj| sj.start() == Time::ZERO && sj.pe().is_some())
                .count();
            assert!(tied >= 4, "only {tied} jobs start at 0");

            // A reschedule around a lock far beyond 32 bits.
            let mut locks = LockSet::for_graph(&cpg);
            let mut map = HashMap::new();
            locks.insert(Job::Process(first), wide(9));
            map.insert(Job::Process(first), (wide(9), None));
            assert_eq!(
                ctx.reschedule(&schedule, &locks),
                crate::reference::reschedule(&cpg, &arch, broadcast, track, &schedule, &map)
            );
        }
    }

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
            let fresh = ctx.reschedule(&original, &locks);
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
