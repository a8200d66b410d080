//! Schedulable jobs: processes of the graph and condition broadcasts.

use std::fmt;

use cpg::{CondId, Cpg, ProcessId};
use cpg_arch::{PeId, Time};

/// A unit of work placed by the scheduler.
///
/// Besides the processes of the conditional process graph, the scheduler also
/// places one *condition broadcast* per disjunction process that executes:
/// after the disjunction process terminates, the value of its condition is
/// broadcast on the first bus that becomes available, taking `τ0` time units
/// (Section 3 of the paper). Both kinds of work occupy resources and appear as
/// rows of the schedule table, so they share this identifier type.
///
/// # Example
///
/// ```
/// use cpg::{CondId, Cpg, ProcessId};
/// use cpg_path_sched::Job;
///
/// let p = Job::Process(ProcessId::from_index(4));
/// let b = Job::Broadcast(CondId::new(0));
/// assert!(p.as_process().is_some());
/// assert!(b.as_broadcast().is_some());
/// assert_ne!(p, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Job {
    /// An ordinary, communication or dummy process of the graph.
    Process(ProcessId),
    /// The broadcast of a condition value on a bus.
    Broadcast(CondId),
}

impl Job {
    /// The process identifier when this job is a process.
    #[must_use]
    pub const fn as_process(self) -> Option<ProcessId> {
        match self {
            Job::Process(id) => Some(id),
            Job::Broadcast(_) => None,
        }
    }

    /// The condition identifier when this job is a condition broadcast.
    #[must_use]
    pub const fn as_broadcast(self) -> Option<CondId> {
        match self {
            Job::Process(_) => None,
            Job::Broadcast(cond) => Some(cond),
        }
    }

    /// `true` when this job is a condition broadcast.
    #[must_use]
    pub const fn is_broadcast(self) -> bool {
        matches!(self, Job::Broadcast(_))
    }
}

impl From<ProcessId> for Job {
    fn from(id: ProcessId) -> Self {
        Job::Process(id)
    }
}

impl From<CondId> for Job {
    fn from(cond: CondId) -> Self {
        Job::Broadcast(cond)
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Job::Process(id) => write!(f, "{id}"),
            Job::Broadcast(cond) => write!(f, "broadcast({cond})"),
        }
    }
}

/// The numbering of the jobs of one graph: process `p` at slot
/// `p.index()`, then the broadcast of condition `c` at slot
/// `processes + c.index()`, so slot order is [`Job`] order.
///
/// Every per-job array over a graph — lock sets, the job index of a path
/// schedule, requirement 3 of the table check, the dispatcher's sort key
/// and the simulator's job tables — is indexed by this one numbering.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_path_sched::{Job, JobSlots};
///
/// let system = examples::diamond();
/// let slots = JobSlots::for_graph(system.cpg());
/// let c = system.condition("C").unwrap();
/// let slot = slots.slot(Job::Broadcast(c)).unwrap();
/// assert_eq!(slot, system.cpg().len() + c.index());
/// assert_eq!(slots.job(slot), Job::Broadcast(c));
/// assert_eq!(slots.len(), system.cpg().len() + system.cpg().num_conditions());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSlots {
    processes: usize,
    conditions: usize,
}

impl JobSlots {
    /// The numbering of every process and condition broadcast of `cpg`.
    #[must_use]
    pub fn for_graph(cpg: &Cpg) -> Self {
        JobSlots::new(cpg.len(), cpg.num_conditions())
    }

    /// The numbering of `processes` processes and `conditions` broadcasts.
    #[must_use]
    pub(crate) const fn new(processes: usize, conditions: usize) -> Self {
        JobSlots {
            processes,
            conditions,
        }
    }

    /// Number of slots: the processes plus one broadcast per condition.
    #[must_use]
    pub const fn len(self) -> usize {
        self.processes + self.conditions
    }

    /// `true` when the graph has no job at all.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The slot of `job`, or `None` when the job is not one of the graph's.
    #[must_use]
    #[inline]
    pub const fn slot(self, job: Job) -> Option<usize> {
        match job {
            Job::Process(pid) if pid.index() < self.processes => Some(pid.index()),
            Job::Broadcast(cond) if cond.index() < self.conditions => {
                Some(self.processes + cond.index())
            }
            _ => None,
        }
    }

    /// The job at `slot` (`slot < len()`).
    #[must_use]
    #[inline]
    pub fn job(self, slot: usize) -> Job {
        debug_assert!(slot < self.len(), "slot {slot} beyond {} jobs", self.len());
        match slot.checked_sub(self.processes) {
            None => Job::Process(ProcessId::from_index(slot)),
            Some(cond) => Job::Broadcast(CondId::new(cond)),
        }
    }
}

/// A job committed to a start time and a resource by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledJob {
    pub(crate) job: Job,
    pub(crate) start: Time,
    pub(crate) end: Time,
    pub(crate) pe: Option<PeId>,
}

impl ScheduledJob {
    /// The scheduled job.
    #[must_use]
    pub const fn job(&self) -> Job {
        self.job
    }

    /// The activation (start) time.
    #[must_use]
    pub const fn start(&self) -> Time {
        self.start
    }

    /// The completion time (start + execution time).
    #[must_use]
    pub const fn end(&self) -> Time {
        self.end
    }

    /// The processing element the job occupies (`None` for the dummy source
    /// and sink, which consume no resource).
    #[must_use]
    pub const fn pe(&self) -> Option<PeId> {
        self.pe
    }

    /// The duration of the job.
    #[must_use]
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

impl fmt::Display for ScheduledJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ [{}, {})", self.job, self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_conversions_and_accessors() {
        let p: Job = ProcessId::from_index(3).into();
        assert_eq!(p.as_process(), Some(ProcessId::from_index(3)));
        assert_eq!(p.as_broadcast(), None);
        assert!(!p.is_broadcast());

        let b: Job = CondId::new(1).into();
        assert_eq!(b.as_broadcast(), Some(CondId::new(1)));
        assert_eq!(b.as_process(), None);
        assert!(b.is_broadcast());
    }

    #[test]
    fn job_display() {
        assert_eq!(Job::Process(ProcessId::from_index(2)).to_string(), "P2");
        assert_eq!(Job::Broadcast(CondId::new(0)).to_string(), "broadcast(c0)");
    }

    #[test]
    fn job_slots_number_every_job_of_the_graph_in_job_order() {
        let fig1 = cpg::examples::fig1();
        let deep = cpg_gen::generate(
            &cpg_gen::GeneratorConfig::new(96, 32)
                .with_processors(2)
                .with_buses(1)
                .with_seed(96 << 32),
        );
        for cpg in [fig1.cpg(), deep.cpg()] {
            let slots = JobSlots::for_graph(cpg);
            let expected: Vec<Job> = cpg
                .processes()
                .map(|(pid, _)| Job::Process(pid))
                .chain(cpg.conditions().map(Job::Broadcast))
                .collect();
            assert!(cpg.num_conditions() > 0);
            assert_eq!(slots.len(), expected.len());
            let jobs: Vec<Job> = (0..slots.len()).map(|slot| slots.job(slot)).collect();
            assert_eq!(jobs, expected);
            assert!(
                jobs.windows(2).all(|w| w[0] < w[1]),
                "slot order is Job order"
            );
            for (slot, &job) in jobs.iter().enumerate() {
                assert_eq!(slots.slot(job), Some(slot));
            }
            let past_process = Job::Process(ProcessId::from_index(cpg.len()));
            let past_broadcast = Job::Broadcast(CondId::new(cpg.num_conditions()));
            assert_eq!(slots.slot(past_process), None);
            assert_eq!(slots.slot(past_broadcast), None);
        }
    }

    #[test]
    fn scheduled_job_accessors() {
        let sj = ScheduledJob {
            job: Job::Process(ProcessId::from_index(1)),
            start: Time::new(3),
            end: Time::new(7),
            pe: None,
        };
        assert_eq!(sj.start(), Time::new(3));
        assert_eq!(sj.end(), Time::new(7));
        assert_eq!(sj.duration(), Time::new(4));
        assert_eq!(sj.pe(), None);
        assert!(sj.to_string().contains("P1"));
    }
}
