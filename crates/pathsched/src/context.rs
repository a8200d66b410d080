//! Dense, indexed per-track scheduling core.
//!
//! [`ListScheduler`](crate::ListScheduler) resolves every scheduling decision
//! against graph-level data (edges, guards, mappings) that is identical for
//! every `schedule`/`reschedule` call on the same track. The merge algorithm
//! of `cpg-merge` re-runs the list scheduler once per alternative path and
//! again at every back-step adjustment and conflict repair, so this module
//! splits that work in two. The track-independent [`GraphTables`] (per job
//! slot the in-edges with their condition literals, the duration and the
//! mapping; the disjunction processes, the broadcast buses) are gathered
//! once per scheduler; each track's reusable [`TrackContext`] is derived
//! from them:
//!
//! * jobs get *dense indices* `0..n` (the track's processes in ascending
//!   identifier order, then its condition broadcasts), so every piece of
//!   per-job scheduler state lives in a `Vec` instead of a `HashMap`;
//! * predecessor/successor adjacency is precomputed in compressed (CSR)
//!   form, and eligibility is driven by a binary-heap ready queue keyed by
//!   priority — the serial schedule-generation scheme commits jobs in
//!   exactly the same order as a full rescan of the remaining jobs, without
//!   the O(n²) rescan;
//! * guard requirements (the conditions a processing element must know before
//!   activating the job) and partial-critical-path priorities are computed
//!   once per track;
//! * locked activation times are passed as a dense [`LockSet`], cheap to
//!   clone along the decision tree of the merge algorithm.
//!
//! A context has two halves. Its *structure* — the dense jobs, the
//! adjacency, the guard requirements, the condition tables and its own
//! reverse topological order — follows from the graph's edges and guards
//! alone. Its *timing* — durations, mapped resources, the resource that
//! computes each condition, priorities — follows from the execution times
//! and mappings, and one function writes it, [`TrackContext::refresh`]: a
//! new context is its structure plus one refresh. The context owns both
//! halves and borrows nothing, so a merge session keeps its contexts across
//! merges and, after an edit of execution times or mappings, refreshes only
//! the timing of the tracks the edit reaches.

use cpg::{CondId, Cpg, Cube, Literal, ProcessId, Track};
use cpg_arch::{Architecture, PeId, Time};

use crate::calendar::Calendar;
use crate::job::{sort_by_fields, Job, JobSlots, ScheduledJob};
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

    /// The lock of the job at [`JobSlots`] slot `slot`.
    fn at(&self, slot: u32) -> Option<Lock> {
        self.locks[slot as usize]
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
/// Build one with [`ListScheduler::context`](crate::ListScheduler::context).
/// A context owns everything it reads, so it can outlive the scheduler that
/// built it: a merge session keeps every track's context across merges and,
/// after an edit of execution times or mappings, re-times the contexts of
/// the affected tracks with [`ListScheduler::refresh`](crate::ListScheduler::refresh)
/// instead of building them again.
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
pub struct TrackContext {
    // Structure: fixed by the graph's edges and guards, the track and the
    // architecture. An edit of execution times or mappings changes none of
    // it.
    label: Cube,
    /// The numbering of the graph's jobs: lock sets and the produced
    /// schedules are indexed by it.
    slots: JobSlots,
    /// By processing element: whether it executes one job at a time.
    exclusive: Vec<bool>,
    needs_broadcast: bool,
    broadcast_buses: Vec<PeId>,
    /// Dense index -> the job's [`JobSlots`] slot, in [`Job`] order
    /// (processes ascending, then broadcasts ascending), so dense-index
    /// tie-breaks equal job tie-breaks. The processes come first:
    /// dense index `i` is a process iff `i < order.len()`.
    jobs: Vec<u32>,
    /// The dense indices of the track's processes in reverse topological
    /// order, the order [`refresh`](Self::refresh) derives priorities in.
    order: Vec<u32>,
    preds: Csr,
    succs: Csr,
    /// Conditions each job's guard depends on (cheapest cube satisfied on
    /// this path), in CSR form.
    guard_offsets: Vec<u32>,
    guard_conds: Vec<CondId>,
    /// Per condition: dense index of its disjunction process / broadcast job.
    disj_dense: Vec<u32>,
    bcast_dense: Vec<u32>,
    /// Dense indices of the processes that compute a condition, for the
    /// condition-knowledge times attached to every produced schedule.
    computers: Vec<(u32, CondId)>,
    sink_dense: u32,
    // Timing: derived from the execution times, the mappings and `τ0` by
    // `refresh`, the one place that writes it.
    broadcast_time: Time,
    durations: Vec<Time>,
    /// The resource of each job as far as it is fixed a priori, as a
    /// [`PeId::pack`] code: the mapping for processes (none for the
    /// dummies), none for broadcasts (their bus is chosen at placement
    /// time).
    mapped_pe: Vec<u32>,
    /// Per condition: the processing element computing it.
    disj_pe: Vec<Option<PeId>>,
    /// Partial-critical-path priorities (broadcasts pinned to `u64::MAX`).
    priorities: Vec<u64>,
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

/// The graph and architecture as dense tables, indexed by [`JobSlots`]
/// slot (processes, then one broadcast per condition) unless noted: the
/// one per-slot view of a graph that the path scheduler and the simulator
/// read instead of walking the graph.
///
/// A [`ListScheduler`](crate::ListScheduler) gathers one per scheduler:
/// the merge builds one scheduler per merge and derives all of its track
/// contexts from these tables instead of walking the graph once per track,
/// and re-times kept contexts from them
/// ([`ListScheduler::refresh`](crate::ListScheduler::refresh)). The
/// simulator gathers one per run.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_path_sched::{GraphTables, Job};
///
/// let system = examples::diamond();
/// let (cpg, arch) = (system.cpg(), system.arch());
/// let tables = GraphTables::new(cpg, arch, system.broadcast_time());
/// let c = system.condition("C").unwrap();
/// let slot = tables.slots().slot(Job::Broadcast(c)).unwrap();
/// // A broadcast lasts `τ0` and waits for its disjunction process.
/// assert_eq!(tables.duration(slot), system.broadcast_time());
/// let decide = cpg.disjunction_of(c);
/// assert_eq!(tables.in_edges(slot), [(decide.index() as u32, None)]);
/// assert_eq!(tables.disjunction(c), decide);
/// ```
#[derive(Debug, Clone)]
pub struct GraphTables {
    slots: JobSlots,
    /// In-edges of every job: `in_edges[in_offsets[j]..in_offsets[j + 1]]`
    /// holds the producer slot of each edge into job `j` and the literal
    /// the edge transmits under (`None` for simple edges), in
    /// [`Cpg::in_edges`] order for a process; a broadcast has one simple
    /// edge, from its disjunction process.
    in_offsets: Vec<u32>,
    in_edges: Vec<(u32, Option<Literal>)>,
    /// The execution time of each process, `τ0` for each broadcast.
    duration: Vec<Time>,
    /// The processing element each process is mapped to; `None` for the
    /// dummies and for broadcasts, whose bus is chosen at placement time.
    mapping: Vec<Option<PeId>>,
    /// By process: the condition it computes.
    computes: Vec<Option<CondId>>,
    /// Per condition: the disjunction process computing it.
    disjunction: Vec<ProcessId>,
    needs_broadcast: bool,
    broadcast_buses: Vec<PeId>,
    /// By processing element: whether it executes one job at a time.
    exclusive: Vec<bool>,
    /// The condition broadcast time `τ0`.
    broadcast_time: Time,
}

impl GraphTables {
    /// Gathers the tables of `cpg` on `arch` with condition broadcast time
    /// `broadcast_time`.
    #[must_use]
    pub fn new(cpg: &Cpg, arch: &Architecture, broadcast_time: Time) -> Self {
        let slots = JobSlots::for_graph(cpg);
        let disjunction: Vec<ProcessId> = cpg.conditions().map(|c| cpg.disjunction_of(c)).collect();
        let mut in_offsets = Vec::with_capacity(slots.len() + 1);
        let mut in_edges = Vec::with_capacity(cpg.edges().len() + disjunction.len());
        in_offsets.push(0);
        for pid in cpg.process_ids() {
            in_edges.extend(
                cpg.in_edges(pid)
                    .map(|edge| (edge.from().index() as u32, edge.condition())),
            );
            in_offsets.push(in_edges.len() as u32);
        }
        for &pid in &disjunction {
            in_edges.push((pid.index() as u32, None));
            in_offsets.push(in_edges.len() as u32);
        }
        let broadcasts = std::iter::repeat_n(broadcast_time, disjunction.len());
        GraphTables {
            slots,
            in_offsets,
            in_edges,
            duration: cpg
                .process_ids()
                .map(|pid| cpg.exec_time(pid))
                .chain(broadcasts)
                .collect(),
            mapping: cpg
                .process_ids()
                .map(|pid| cpg.mapping(pid))
                .chain(std::iter::repeat_n(None, disjunction.len()))
                .collect(),
            computes: cpg
                .process_ids()
                .map(|pid| cpg.process(pid).computes())
                .collect(),
            disjunction,
            needs_broadcast: arch.needs_broadcast(),
            broadcast_buses: arch.broadcast_buses().collect(),
            exclusive: arch.ids().map(|pe| arch.is_exclusive(pe)).collect(),
            broadcast_time,
        }
    }

    /// The numbering the tables are indexed by.
    #[must_use]
    pub fn slots(&self) -> JobSlots {
        self.slots
    }

    /// The in-edges of the job at `slot`: the producer slot of each and
    /// the literal it transmits under (`None` for simple edges).
    #[must_use]
    #[inline]
    pub fn in_edges(&self, slot: usize) -> &[(u32, Option<Literal>)] {
        &self.in_edges[self.in_offsets[slot] as usize..self.in_offsets[slot + 1] as usize]
    }

    /// The duration of the job at `slot`: its execution time, or `τ0` for
    /// a broadcast.
    #[must_use]
    #[inline]
    pub fn duration(&self, slot: usize) -> Time {
        self.duration[slot]
    }

    /// The processing element the job at `slot` is mapped to: `None` for
    /// the dummy processes and for broadcasts.
    #[must_use]
    #[inline]
    pub fn mapping(&self, slot: usize) -> Option<PeId> {
        self.mapping[slot]
    }

    /// The disjunction process computing `cond`.
    #[must_use]
    #[inline]
    pub fn disjunction(&self, cond: CondId) -> ProcessId {
        self.disjunction[cond.index()]
    }

    /// Whether condition values reach remote elements only through a
    /// broadcast ([`Architecture::needs_broadcast`]).
    #[must_use]
    pub fn needs_broadcast(&self) -> bool {
        self.needs_broadcast
    }

    /// The buses a broadcast may occupy, in identifier order.
    #[must_use]
    pub fn broadcast_buses(&self) -> &[PeId] {
        &self.broadcast_buses
    }

    /// By processing-element index: whether it executes one job at a time.
    #[must_use]
    pub fn exclusive(&self) -> &[bool] {
        &self.exclusive
    }

    /// The condition broadcast time `τ0`.
    pub(crate) fn broadcast_time(&self) -> Time {
        self.broadcast_time
    }
}

impl TrackContext {
    /// Builds the structure of `track`'s context and then its timing, through
    /// [`refresh`](Self::refresh) like every later re-timing.
    pub(crate) fn new(cpg: &Cpg, tables: &GraphTables, track: &Track) -> Self {
        let label = track.label();
        let processes = track.processes();
        let n_processes = processes.len();
        let slots = JobSlots::for_graph(cpg);

        // Dense job table: processes in ascending identifier order (the order
        // `Track::processes` guarantees), then broadcasts in ascending
        // condition order (the order `Cube::conditions` yields) — exactly
        // the `Ord` of `Job`, which is also slot order.
        let broadcasts = if tables.needs_broadcast {
            label.len()
        } else {
            0
        };
        let n = n_processes + broadcasts;
        // The conditions broadcast on the track, in dense order.
        let broadcast_conds = || label.conditions().take(broadcasts);
        let slot_of = |job: Job| slots.slot(job).expect("the track's jobs are the graph's") as u32;
        let mut jobs: Vec<u32> = Vec::with_capacity(n);
        jobs.extend(processes.iter().map(|&p| slot_of(Job::Process(p))));
        jobs.extend(broadcast_conds().map(|c| slot_of(Job::Broadcast(c))));

        // Process index -> dense index, `ABSENT` off the track.
        let mut dense_of = vec![ABSENT; cpg.len()];
        for (dense, &pid) in processes.iter().enumerate() {
            dense_of[pid.index()] = dense as u32;
        }

        // Dependencies: a process waits for every input it actually receives
        // on this path; a broadcast waits for its disjunction process, its
        // one in-edge in the graph tables.
        // The context is kept for as long as its merge session lives, so
        // the predecessor list is sized up front to every in-edge of the
        // track's jobs (a few transmit nothing on the track) and never
        // grows by doubling.
        let in_edges = jobs
            .iter()
            .map(|&slot| tables.in_edges(slot as usize).len());
        let mut preds = Csr {
            offsets: Vec::with_capacity(n + 1),
            items: Vec::with_capacity(in_edges.sum()),
        };
        preds.offsets.push(0);
        for &slot in &jobs {
            for &(from, literal) in tables.in_edges(slot as usize) {
                let from = dense_of[from as usize];
                if from != ABSENT && literal.is_none_or(|lit| label.contains(lit)) {
                    preds.items.push(from);
                }
            }
            preds.offsets.push(preds.items.len() as u32);
        }
        let computers = (0..)
            .zip(processes)
            .filter_map(|(dense, pid)| Some((dense, tables.computes[pid.index()]?)))
            .collect();
        let mut bcast_dense = vec![ABSENT; cpg.num_conditions()];
        for (dense, cond) in (n_processes..).zip(broadcast_conds()) {
            bcast_dense[cond.index()] = dense as u32;
        }
        let succs = preds.transpose(n);

        // Guard availability: the run-time scheduler of a processing element
        // can only activate a job once every condition of the job's guard is
        // known locally. The per-job requirement is the cheapest guard cube
        // satisfied on this path.
        let mut guard_offsets = Vec::with_capacity(n + 1);
        let mut guard_conds = Vec::new();
        guard_offsets.push(0);
        let guarded = processes
            .iter()
            .copied()
            .chain(broadcast_conds().map(|cond| tables.disjunction(cond)));
        for pid in guarded {
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

        let mut order = Vec::with_capacity(n_processes);
        order.extend(
            cpg.topological_order()
                .iter()
                .rev()
                .map(|pid| dense_of[pid.index()])
                .filter(|&dense| dense != ABSENT),
        );
        let disj_dense = tables
            .disjunction
            .iter()
            .map(|&pid| dense_of[pid.index()])
            .collect();

        let mut context = TrackContext {
            label,
            slots,
            exclusive: tables.exclusive.clone(),
            needs_broadcast: tables.needs_broadcast,
            broadcast_buses: tables.broadcast_buses.clone(),
            sink_dense: dense_of[cpg.sink().index()],
            jobs,
            order,
            preds,
            succs,
            guard_offsets,
            guard_conds,
            disj_dense,
            bcast_dense,
            computers,
            broadcast_time: Time::ZERO,
            durations: vec![Time::ZERO; n],
            mapped_pe: vec![PeId::pack(None); n],
            disj_pe: vec![None; tables.disjunction.len()],
            priorities: vec![u64::MAX; n],
        };
        context.refresh(tables);
        context
    }

    /// Re-derives the timing half of the context from `tables`: every job's
    /// duration and mapped resource, the resource computing each condition
    /// and the partial-critical-path priorities. The structure — jobs, adjacency, guard requirements — is
    /// left alone, so `tables` must come from a graph of the same structure
    /// as the one the context was built for: the same processes, edges and
    /// guards, with any execution times and mappings.
    ///
    /// Priorities are the longest chain of execution times to the sink over
    /// the track's own successor rows, taken in the stored reverse
    /// topological order; broadcasts are issued as soon as their
    /// disjunction process terminates, so their priority stays `u64::MAX`.
    // lint: hot-path (re-times a kept context on every warm merge; writes into the context's own buffers)
    pub(crate) fn refresh(&mut self, tables: &GraphTables) {
        let n_processes = self.order.len();
        self.broadcast_time = tables.broadcast_time;
        // Broadcasts are mapped to no resource and all last `τ0`: a fill,
        // not a gather (deep nests broadcast many conditions per track).
        for (dense, &slot) in self.jobs[..n_processes].iter().enumerate() {
            self.durations[dense] = tables.duration[slot as usize];
            self.mapped_pe[dense] = PeId::pack(tables.mapping[slot as usize]);
        }
        self.durations[n_processes..].fill(tables.broadcast_time);
        for (pe, &pid) in self.disj_pe.iter_mut().zip(&tables.disjunction) {
            *pe = tables.mapping[pid.index()];
        }
        for &dense in &self.order {
            let dense = dense as usize;
            let downstream = self
                .succs
                .row(dense)
                .iter()
                .filter(|&&succ| (succ as usize) < n_processes)
                .map(|&succ| self.priorities[succ as usize])
                .max()
                .unwrap_or(0);
            self.priorities[dense] = downstream + self.durations[dense].as_u64();
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

    /// The job at dense index `dense`.
    fn job(&self, dense: usize) -> Job {
        self.slots.job(self.jobs[dense] as usize)
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
        priorities.extend((0..self.jobs.len()).map(|dense| {
            original
                .start(self.job(dense))
                .map_or(0, |start| u64::MAX - start.as_u64())
        }));
        self.run_into(scratch, &priorities, Some((locks, original)), out);
        scratch.priorities = priorities;
    }

    /// The conditions the guard of dense job `i` depends on.
    fn guard_requirements(&self, i: usize) -> &[CondId] {
        &self.guard_conds[self.guard_offsets[i] as usize..self.guard_offsets[i + 1] as usize]
    }

    /// The resource a job occupies under `lock`: its mapping for processes;
    /// for broadcasts the bus the lock pins (recorded when the activation
    /// time was tabled, possibly by another path's adjusted schedule), then
    /// the bus assigned by the original schedule, then the first broadcast
    /// bus.
    fn locked_pe(&self, dense: usize, lock: Lock, original: &PathSchedule) -> Option<PeId> {
        if dense < self.order.len() {
            PeId::unpack(self.mapped_pe[dense])
        } else {
            lock.pe
                .or_else(|| original.entry(self.job(dense)).and_then(ScheduledJob::pe))
                .or_else(|| self.broadcast_buses.first().copied())
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
            if self.exclusive[pe.index()] {
                calendars[pe.index()].earliest_fit(data_ready, duration)
            } else {
                data_ready
            }
        };
        if dense < self.order.len() {
            PeId::unpack(self.mapped_pe[dense]).map(|pe| (pe, fit(pe)))
        } else {
            self.broadcast_buses
                .iter()
                .map(|&bus| (bus, fit(bus)))
                .min_by_key(|&(bus, start)| (start, bus))
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
        // Locks are read by slot, so they must number the context's graph.
        assert!(
            locking.is_none_or(|(locks, _)| locks.slots == self.slots),
            "job belongs to a different graph"
        );
        let lock_of = |dense: usize| locking.and_then(|(locks, _)| locks.at(self.jobs[dense]));
        scratch.prepare(n, self.exclusive.len(), &self.preds.offsets);

        // Pre-reserve every locked interval on the resource the locked job
        // actually occupies, so unlocked jobs are placed around them even
        // before the locked job itself is committed.
        if let Some((_, original)) = locking {
            for dense in 0..n {
                if let Some(lock) = lock_of(dense) {
                    if let Some(pe) = self.locked_pe(dense, lock, original) {
                        if self.exclusive[pe.index()] {
                            scratch.calendars[pe.index()].reserve(lock.time, self.durations[dense]);
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
        let mut horizon = Time::ZERO;
        while let Some(key) = scratch.ready.pop() {
            let dense = ready_dense(key);

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
                let local_pe = PeId::unpack(self.mapped_pe[dense]);
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
            let (start, pe) = if let Some(lock) = lock_of(dense) {
                // Locked jobs keep the activation time fixed in the table (on
                // the resource the original schedule assigned). A lock that
                // data dependencies push past its fixed time has *slipped*:
                // record it and reserve the interval it really occupies, so
                // jobs committed later are placed around it. (Unlocked jobs
                // committed *before* the slip was detected only saw the
                // pre-reservation at the intended time — a slip therefore
                // always signals a violated caller invariant, which is
                // exactly why it is surfaced instead of silently absorbed.)
                let start = lock.time.max(data_ready);
                let (_, original) = locking.expect("a lock comes from a lock set");
                let pe = self.locked_pe(dense, lock, original);
                if start != lock.time {
                    scratch.slipped.push(SlippedLock {
                        job: self.job(dense),
                        intended: lock.time,
                        actual: start,
                    });
                    if let Some(pe) = pe {
                        if self.exclusive[pe.index()] {
                            scratch.calendars[pe.index()].reserve(start, duration);
                        }
                    }
                }
                (start, pe)
            } else {
                match self.placement(dense, data_ready, duration, &scratch.calendars) {
                    Some((pe, start)) => {
                        if self.exclusive[pe.index()] {
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
            horizon = horizon.max(scratch.ends[dense]);
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
        // The schedule lists its jobs in `(start, end, job)` order, which is
        // `(start, duration, dense)` order; no start or duration exceeds
        // the horizon.
        scratch.keys.extend(0..n as u64);
        let (starts, durations) = (&scratch.starts, &self.durations);
        let mask = sort_by_fields(&mut scratch.keys, [horizon.as_u64(); 2], |dense| {
            [starts[dense].as_u64(), durations[dense].as_u64()]
        });
        // The schedule owns a copy of the slip buffer; extending an empty
        // buffer (the common, no-slip case) does not allocate, and the arena
        // keeps its capacity for the next slipping run either way.
        out.rebuild_from_parts(
            self.label,
            delay,
            self.slots,
            scratch.keys.iter().map(|&key| {
                let dense = (key & mask) as usize;
                ScheduledJob::new(
                    self.job(dense),
                    scratch.starts[dense],
                    scratch.ends[dense],
                    scratch.pes[dense],
                )
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
        // Starts and durations of 2³² and more: two of them and a dense
        // index do not fit in one packed key, so these contexts sort
        // `(start, duration, dense)` tuples. `long` starts at 0 with
        // 2³² + 7 time units; `late` starts at 1 with 3, so a duration
        // truncated into a key would misplace one of them. Four jobs tie at
        // start 0 on the hardware processor.
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
    fn a_refreshed_context_schedules_and_reschedules_like_a_freshly_built_one() {
        // A 32-path deep nest, edited the way a merge session is: execution
        // times up and down, one beyond 32 bits (which flips the tracks it
        // reaches to tuple-sorted schedules and back), and the disjunction
        // process of a condition moved to the other processor (which moves
        // where that condition is known first).
        let system = cpg_gen::generate(
            &cpg_gen::GeneratorConfig::new(96, 32)
                .with_processors(2)
                .with_buses(1)
                .with_seed(96 << 32),
        );
        let (cpg, arch) = (system.cpg(), system.arch());
        let tracks = enumerate_tracks(cpg);
        let scheduler = crate::ListScheduler::new(cpg, arch, system.broadcast_time());
        let mut kept: Vec<TrackContext> = tracks.iter().map(|t| scheduler.context(t)).collect();

        let ordinary: Vec<ProcessId> = cpg.ordinary_processes().collect();
        let cond = cpg.conditions().next().expect("the nest has conditions");
        let disjunction = cpg.disjunction_of(cond);
        let moved_to = arch
            .processors()
            .find(|&pe| Some(pe) != cpg.mapping(disjunction))
            .expect("two processors");
        let mut edited = cpg.clone();
        edited.set_exec_time(ordinary[3], Time::new(1)).unwrap();
        edited
            .set_exec_time(ordinary[7], cpg.exec_time(ordinary[7]) + Time::new(4))
            .unwrap();
        edited.set_mapping(disjunction, moved_to).unwrap();
        let wide = Time::new(1 << 32);
        let mut wider = edited.clone();
        wider.set_exec_time(ordinary[11], wide).unwrap();

        for graph in [&edited, &wider, cpg] {
            let scheduler = crate::ListScheduler::new(graph, arch, system.broadcast_time());
            let mut scratch = RunScratch::new();
            for (track, context) in tracks.iter().zip(&mut kept) {
                scheduler.refresh(context);
                let fresh = scheduler.context(track);
                assert_eq!(
                    format!("{context:?}"),
                    format!("{fresh:?}"),
                    "refreshed context differs on {}",
                    track.label()
                );
                let schedule = context.schedule_with(&mut scratch);
                assert_eq!(schedule, fresh.schedule());
                // Lock every other mapped job a little later than it starts.
                let mut locks = LockSet::for_graph(graph);
                for sj in schedule
                    .jobs()
                    .iter()
                    .filter(|sj| sj.pe().is_some())
                    .step_by(2)
                {
                    locks.insert_pinned(sj.job(), sj.start() + Time::new(1), sj.pe());
                }
                let mut rescheduled = PathSchedule::default();
                context.reschedule_into(&mut scratch, &schedule, &locks, &mut rescheduled);
                assert_eq!(rescheduled, fresh.reschedule(&schedule, &locks));
            }
        }
        assert!(
            tracks.iter().any(|t| t.contains(ordinary[11])),
            "the wide edit reaches some track"
        );
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
        }
    }
}
