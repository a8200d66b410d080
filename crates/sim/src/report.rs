//! Simulation results and run-time violations.

use std::fmt;

use cpg::CondId;
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;

/// A violation observed while executing a schedule table.
///
/// A correct schedule table (requirements 1–4 of the paper) never produces
/// any of these; the simulator reports them so that tests and the benchmark
/// harness can detect broken tables.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimViolation {
    /// A process that executes in this scenario has no applicable activation
    /// time in the table.
    NoActivationTime {
        /// The affected job.
        job: Job,
    },
    /// Requirement 4: the column selecting the activation time references a
    /// condition whose value is not yet known on the processing element that
    /// executes the process.
    ConditionNotKnownLocally {
        /// The affected job.
        job: Job,
        /// The condition that is not yet known.
        condition: CondId,
        /// The activation time prescribed by the table.
        activation: Time,
        /// The moment the condition value becomes known locally (`None` when
        /// it never does, e.g. because the broadcast is missing).
        known_at: Option<Time>,
    },
    /// An input of the process arrives only after its tabled activation time.
    InputNotArrived {
        /// The affected job.
        job: Job,
        /// The predecessor whose output arrives late.
        predecessor: Job,
        /// The activation time prescribed by the table.
        activation: Time,
        /// The completion time of the predecessor.
        arrives: Time,
    },
    /// Two jobs overlap on an exclusive resource (programmable processor or
    /// bus).
    ResourceOverlap {
        /// The resource on which the overlap occurs.
        pe: PeId,
        /// First overlapping job.
        first: Job,
        /// Second overlapping job.
        second: Job,
    },
}

impl fmt::Display for SimViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimViolation::NoActivationTime { job } => {
                write!(f, "{job} executes in this scenario but has no activation time")
            }
            SimViolation::ConditionNotKnownLocally {
                job,
                condition,
                activation,
                known_at,
            } => match known_at {
                Some(known) => write!(
                    f,
                    "{job} activates at {activation} but {condition} is only known locally at {known}"
                ),
                None => write!(
                    f,
                    "{job} activates at {activation} but {condition} never becomes known locally"
                ),
            },
            SimViolation::InputNotArrived {
                job,
                predecessor,
                activation,
                arrives,
            } => write!(
                f,
                "{job} activates at {activation} but its input from {predecessor} arrives at {arrives}"
            ),
            SimViolation::ResourceOverlap { pe, first, second } => {
                write!(f, "{first} and {second} overlap on {pe}")
            }
        }
    }
}

impl std::error::Error for SimViolation {}

/// The outcome of executing a schedule table for one combination of condition
/// values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimulationReport {
    pub(crate) label: cpg::Cube,
    pub(crate) activations: Vec<(Job, Time, Time)>,
    pub(crate) delay: Time,
    pub(crate) violations: Vec<SimViolation>,
}

impl SimulationReport {
    /// The condition values of the simulated execution, as a cube.
    #[must_use]
    pub fn label(&self) -> cpg::Cube {
        self.label
    }

    /// The executed jobs with their activation and completion times, in
    /// ascending activation order.
    #[must_use]
    pub fn activations(&self) -> &[(Job, Time, Time)] {
        &self.activations
    }

    /// The system delay of this execution: the latest completion time of any
    /// executed job (the activation time of the dummy sink).
    #[must_use]
    pub fn delay(&self) -> Time {
        self.delay
    }

    /// The violations observed, empty for a correct table.
    #[must_use]
    pub fn violations(&self) -> &[SimViolation] {
        &self.violations
    }

    /// `true` when the execution completed without violations.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The activation time of a given job during this execution.
    #[must_use]
    pub fn activation_of(&self, job: Job) -> Option<Time> {
        self.activations
            .iter()
            .find(|(j, _, _)| *j == job)
            .map(|&(_, start, _)| start)
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution of {}: delay {}, {} jobs, {} violations",
            self.label,
            self.delay,
            self.activations.len(),
            self.violations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{Cube, ProcessId};

    #[test]
    fn report_accessors_work() {
        let job = Job::Process(ProcessId::from_index(3));
        let report = SimulationReport {
            label: Cube::top(),
            activations: vec![(job, Time::new(2), Time::new(5))],
            delay: Time::new(5),
            violations: Vec::new(),
        };
        assert!(report.is_ok());
        assert_eq!(report.activation_of(job), Some(Time::new(2)));
        assert_eq!(
            report.activation_of(Job::Process(ProcessId::from_index(9))),
            None
        );
        assert_eq!(report.delay(), Time::new(5));
        assert!(report.to_string().contains("delay 5"));
    }

    #[test]
    fn violations_format_readably() {
        let job = Job::Process(ProcessId::from_index(1));
        let v = SimViolation::NoActivationTime { job };
        assert!(v.to_string().contains("P1"));
        let v = SimViolation::ConditionNotKnownLocally {
            job,
            condition: CondId::new(0),
            activation: Time::new(4),
            known_at: None,
        };
        assert!(v.to_string().contains("never"));
        let v = SimViolation::InputNotArrived {
            job,
            predecessor: Job::Process(ProcessId::from_index(0)),
            activation: Time::new(4),
            arrives: Time::new(6),
        };
        assert!(v.to_string().contains("arrives at 6"));
    }
}
