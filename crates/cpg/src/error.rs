//! Error types for conditional-process-graph construction and expansion.

use std::error::Error;
use std::fmt;

use crate::cond::CondId;

/// Error returned by [`CpgBuilder::build`](crate::CpgBuilder::build).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildCpgError {
    /// The graph contains no ordinary process.
    EmptyGraph,
    /// A process is mapped to a processing element that does not exist in the
    /// target architecture.
    UnknownProcessingElement {
        /// Name of the offending process.
        process: String,
    },
    /// An ordinary process is mapped to a bus instead of a computation
    /// resource.
    ProcessMappedToBus {
        /// Name of the offending process.
        process: String,
    },
    /// A communication process is mapped to a processor instead of a bus.
    CommunicationNotOnBus {
        /// Name of the offending process.
        process: String,
    },
    /// The graph contains a cycle; conditional process graphs are acyclic.
    Cycle,
    /// An edge connects a process to itself.
    SelfLoop {
        /// Name of the offending process.
        process: String,
    },
    /// Two parallel edges connect the same pair of processes.
    DuplicateEdge {
        /// Name of the edge's origin.
        from: String,
        /// Name of the edge's destination.
        to: String,
    },
    /// A conditional edge carries a condition the builder never declared.
    UndeclaredCondition {
        /// Name of the edge's origin.
        from: String,
        /// Name of the edge's destination.
        to: String,
        /// The undeclared condition.
        condition: CondId,
    },
    /// A process has conditional output edges over two different conditions;
    /// a disjunction process computes exactly one condition.
    MixedConditions {
        /// Name of the offending process.
        process: String,
    },
    /// Two processes both have conditional output edges over the same
    /// condition; each condition is computed by exactly one disjunction
    /// process.
    ConditionComputedTwice {
        /// Name of the condition.
        condition: String,
    },
    /// A declared condition never appears on any conditional edge.
    UnusedCondition {
        /// Name of the condition.
        condition: String,
    },
    /// A disjunction process only has conditional output edges for one value
    /// of its condition; both the true and the false branch must exist.
    MissingPolarity {
        /// Name of the disjunction process.
        process: String,
        /// Name of the condition.
        condition: String,
    },
    /// The guard of a non-conjunction process is unsatisfiable: its inputs
    /// come from mutually exclusive alternative paths. Mark the process as a
    /// conjunction process if the alternatives are supposed to meet there.
    InconsistentJoin {
        /// Name of the offending process.
        process: String,
    },
    /// A process guard could not be reduced to the disjunctive form supported
    /// by the scheduler (this indicates a malformed control structure).
    UnsupportedGuard {
        /// Name of the offending process.
        process: String,
    },
    /// More conditions were declared than a graph supports (see
    /// [`MAX_CONDITIONS`](crate::MAX_CONDITIONS)).
    TooManyConditions {
        /// The supported number of conditions.
        limit: usize,
    },
}

impl fmt::Display for BuildCpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCpgError::EmptyGraph => write!(f, "graph contains no process"),
            BuildCpgError::UnknownProcessingElement { process } => {
                write!(f, "process `{process}` is mapped to a processing element outside the architecture")
            }
            BuildCpgError::ProcessMappedToBus { process } => {
                write!(f, "process `{process}` is mapped to a bus; ordinary processes need a processor or hardware element")
            }
            BuildCpgError::CommunicationNotOnBus { process } => {
                write!(
                    f,
                    "communication process `{process}` must be mapped to a bus"
                )
            }
            BuildCpgError::Cycle => write!(f, "conditional process graphs must be acyclic"),
            BuildCpgError::SelfLoop { process } => {
                write!(f, "process `{process}` has an edge to itself")
            }
            BuildCpgError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge from `{from}` to `{to}`")
            }
            BuildCpgError::UndeclaredCondition {
                from,
                to,
                condition,
            } => {
                write!(
                    f,
                    "edge from `{from}` to `{to}` carries the undeclared condition {condition}"
                )
            }
            BuildCpgError::MixedConditions { process } => {
                write!(
                    f,
                    "process `{process}` has conditional output edges over more than one condition"
                )
            }
            BuildCpgError::ConditionComputedTwice { condition } => {
                write!(
                    f,
                    "condition `{condition}` is computed by more than one disjunction process"
                )
            }
            BuildCpgError::UnusedCondition { condition } => {
                write!(
                    f,
                    "condition `{condition}` never appears on a conditional edge"
                )
            }
            BuildCpgError::MissingPolarity { process, condition } => {
                write!(f, "disjunction process `{process}` lacks a branch for one value of condition `{condition}`")
            }
            BuildCpgError::InconsistentJoin { process } => {
                write!(f, "process `{process}` joins mutually exclusive paths; mark it as a conjunction process")
            }
            BuildCpgError::UnsupportedGuard { process } => {
                write!(f, "guard of process `{process}` has an unsupported shape")
            }
            BuildCpgError::TooManyConditions { limit } => {
                write!(f, "a graph supports at most {limit} conditions")
            }
        }
    }
}

impl Error for BuildCpgError {}

/// Error returned by [`expand_communications`](crate::expand_communications).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExpandError {
    /// The graph already contains communication processes.
    AlreadyExpanded,
    /// An inter-processor edge exists but the architecture has no bus.
    NoBusAvailable {
        /// Name of the edge's origin.
        from: String,
        /// Name of the edge's destination.
        to: String,
    },
    /// Re-validation of the expanded graph failed (should not happen for
    /// graphs produced by [`CpgBuilder`](crate::CpgBuilder)).
    Rebuild(BuildCpgError),
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::AlreadyExpanded => {
                write!(f, "graph already contains communication processes")
            }
            ExpandError::NoBusAvailable { from, to } => {
                write!(f, "edge `{from}` -> `{to}` crosses processors but the architecture has no usable bus")
            }
            ExpandError::Rebuild(err) => write!(f, "expanded graph is invalid: {err}"),
        }
    }
}

impl Error for ExpandError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExpandError::Rebuild(err) => Some(err),
            _ => None,
        }
    }
}

impl From<BuildCpgError> for ExpandError {
    fn from(err: BuildCpgError) -> Self {
        ExpandError::Rebuild(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_std_errors_and_display_cleanly() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<BuildCpgError>();
        assert_error::<ExpandError>();
        let msg = BuildCpgError::MixedConditions {
            process: "P2".into(),
        }
        .to_string();
        assert!(msg.contains("P2"));
        let msg = ExpandError::Rebuild(BuildCpgError::Cycle).to_string();
        assert!(msg.contains("acyclic"));
    }

    #[test]
    fn expand_error_source_chains_to_build_error() {
        let err = ExpandError::from(BuildCpgError::EmptyGraph);
        assert!(err.source().is_some());
        assert!(ExpandError::AlreadyExpanded.source().is_none());
    }
}
