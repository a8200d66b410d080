//! Typed rejection of malformed merge inputs.
//!
//! The merge algorithm assumes a well-formed system: an expanded polar
//! graph whose schedulable processes are mapped onto processing elements of
//! the right kind, guards over declared conditions, and an architecture
//! with at least one computation resource. The random generator always
//! produces such systems, but the adversarial fuzzer (and any future
//! service front-end) feeds the merger arbitrary graph/architecture
//! combinations — e.g. a graph built against a larger architecture and
//! merged against a squeezed one. [`validate_system`] turns every such
//! pathology into a typed [`MergeError`] at the entry point instead of an
//! index panic deep inside the scheduler.

use std::fmt;

use cpg::{CondId, Cpg, ProcessId, ProcessKind};
use cpg_arch::{Architecture, PeId, PeKind};

/// Why a system was rejected at a merge entry point (or, for
/// [`UnrepairedConflicts`](MergeError::UnrepairedConflicts), why a finished
/// table violates the requirement-2 contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// The graph has no schedulable process.
    EmptyGraph,
    /// The architecture offers no computation element, or the graph carries
    /// communication processes and the architecture offers no bus.
    ZeroResourceSystem,
    /// A schedulable process has no mapping.
    UnmappedProcess {
        /// The unmapped process.
        process: ProcessId,
    },
    /// A process is mapped to a processing element the architecture does not
    /// contain.
    DanglingProcessingElement {
        /// The mapped process.
        process: ProcessId,
        /// The out-of-range element index.
        pe: usize,
    },
    /// A process is mapped to the wrong element kind: an ordinary process to
    /// a bus, or a communication process off the buses.
    ProcessOnWrongElement {
        /// The mis-mapped process.
        process: ProcessId,
        /// The element it is mapped to.
        pe: PeId,
    },
    /// A guard, conditional edge or disjunction process references a
    /// condition the graph does not declare.
    DanglingCondition {
        /// The undeclared condition.
        condition: CondId,
    },
    /// The dependency edges contain a cycle, so no schedule exists.
    CyclicDependency,
    /// The finished table still contains activation times no dispatcher can
    /// realize (requirement-2 violation reported by
    /// [`MergeResult::ensure_realizable`](crate::MergeResult::ensure_realizable)).
    UnrepairedConflicts {
        /// Unrepaired conflicts plus surviving lock slips.
        count: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MergeError::EmptyGraph => f.write_str("the graph has no schedulable process"),
            MergeError::ZeroResourceSystem => {
                f.write_str("the architecture lacks a resource the graph needs")
            }
            MergeError::UnmappedProcess { process } => {
                write!(f, "schedulable process {process} has no mapping")
            }
            MergeError::DanglingProcessingElement { process, pe } => {
                write!(
                    f,
                    "process {process} is mapped to processing element #{pe}, \
                     which the architecture does not contain"
                )
            }
            MergeError::ProcessOnWrongElement { process, pe } => {
                write!(
                    f,
                    "process {process} is mapped to {pe}, an element of the wrong kind"
                )
            }
            MergeError::DanglingCondition { condition } => {
                write!(f, "condition {condition} is not declared by the graph")
            }
            MergeError::CyclicDependency => f.write_str("the dependency edges contain a cycle"),
            MergeError::UnrepairedConflicts { count } => {
                write!(
                    f,
                    "{count} tabled activation time(s) violate requirement 2 \
                     (unrepaired conflicts or surviving lock slips)"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Checks that a graph/architecture pair is a well-formed merge input.
///
/// Returns the first pathology found, in a deterministic order: resource
/// availability, per-process mapping sanity (in process-id order), condition
/// references, then dependency acyclicity. [`generate_schedule_table`]
/// (crate::generate_schedule_table) and [`MergeSession`](crate::MergeSession)
/// assume a validated system; the `try_` entry points run this pass first.
pub fn validate_system(cpg: &Cpg, arch: &Architecture) -> Result<(), MergeError> {
    if cpg.schedulable_processes().next().is_none() {
        return Err(MergeError::EmptyGraph);
    }
    if arch.computation_elements().next().is_none() {
        return Err(MergeError::ZeroResourceSystem);
    }
    if cpg.communication_processes().next().is_some() && arch.buses().next().is_none() {
        return Err(MergeError::ZeroResourceSystem);
    }

    for (id, process) in cpg.processes() {
        if process.kind().is_dummy() {
            continue;
        }
        let Some(pe) = process.mapping() else {
            return Err(MergeError::UnmappedProcess { process: id });
        };
        if pe.index() >= arch.len() {
            return Err(MergeError::DanglingProcessingElement {
                process: id,
                pe: pe.index(),
            });
        }
        let kind_ok = match process.kind() {
            ProcessKind::Communication => arch.kind_of(pe) == PeKind::Bus,
            _ => arch.kind_of(pe) != PeKind::Bus,
        };
        if !kind_ok {
            return Err(MergeError::ProcessOnWrongElement { process: id, pe });
        }
    }

    let declared = cpg.num_conditions();
    for (_, process) in cpg.processes() {
        if let Some(condition) = process.computes() {
            if condition.index() >= declared {
                return Err(MergeError::DanglingCondition { condition });
            }
        }
        for condition in process.guard().conditions() {
            if condition.index() >= declared {
                return Err(MergeError::DanglingCondition { condition });
            }
        }
    }
    for edge in cpg.edges() {
        if let Some(literal) = edge.condition() {
            if literal.cond().index() >= declared {
                return Err(MergeError::DanglingCondition {
                    condition: literal.cond(),
                });
            }
        }
    }

    // The builder rejects cycles, but a deserialized or hand-assembled graph
    // may carry a stale topological order: re-check that every edge points
    // forward in it.
    let order = cpg.topological_order();
    if order.len() != cpg.len() {
        return Err(MergeError::CyclicDependency);
    }
    let mut position = vec![usize::MAX; cpg.len()];
    for (pos, &id) in order.iter().enumerate() {
        position[id.index()] = pos;
    }
    for edge in cpg.edges() {
        if position[edge.from().index()] >= position[edge.to().index()] {
            return Err(MergeError::CyclicDependency);
        }
    }
    Ok(())
}

/// [`validate_system`] as the `try_` entry points run it: the
/// [`SkipEntryValidation`](crate::merge::sabotage::SkipEntryValidation)
/// mutant bypasses it, and the input-validation oracle must notice
/// (tests/adversarial_corpus.rs).
pub(crate) fn validate_entry(cpg: &Cpg, arch: &Architecture) -> Result<(), MergeError> {
    #[cfg(any(test, feature = "test-util"))]
    if crate::merge::sabotage::skip_entry_validation() {
        return Ok(());
    }
    validate_system(cpg, arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{examples, Cube, Guard};
    use cpg_arch::Time;

    #[test]
    fn well_formed_examples_validate() {
        for system in [
            examples::diamond(),
            examples::sensor_actuator(),
            examples::fig1(),
        ] {
            validate_system(system.cpg(), system.arch()).expect("example systems are well-formed");
        }
    }

    #[test]
    fn missing_bus_is_a_zero_resource_system() {
        // fig1 is expanded over a multi-element architecture, so it carries
        // communication processes; a bus-less architecture cannot host them.
        let system = examples::fig1();
        let arch = Architecture::builder().processor("solo").build().unwrap();
        assert_eq!(
            validate_system(system.cpg(), &arch),
            Err(MergeError::ZeroResourceSystem)
        );
    }

    #[test]
    fn squeezed_architecture_is_a_dangling_processing_element() {
        // A graph mapped over two processors, validated against an
        // architecture that lost the second one.
        let full = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus0")
            .build()
            .unwrap();
        let mut builder = cpg::Cpg::builder();
        let a = builder.process("a", Time::new(2), PeId::from_index(0));
        let b = builder.process("b", Time::new(3), PeId::from_index(1));
        builder.simple_edge(a, b, Time::ZERO);
        let cpg = builder.build(&full).unwrap();
        let squeezed = Architecture::builder().processor("cpu0").build().unwrap();
        assert_eq!(
            validate_system(&cpg, &squeezed),
            Err(MergeError::DanglingProcessingElement { process: b, pe: 1 })
        );
    }

    #[test]
    fn comm_process_on_a_processor_is_on_the_wrong_element() {
        let system = examples::diamond();
        let mut cpg = system.cpg().clone();
        let comm = cpg
            .communication_processes()
            .next()
            .expect("diamond is expanded");
        let processor = system.arch().computation_elements().next().unwrap();
        cpg.set_mapping(comm, processor).unwrap();
        assert_eq!(
            validate_system(&cpg, system.arch()),
            Err(MergeError::ProcessOnWrongElement {
                process: comm,
                pe: processor
            })
        );
    }

    #[test]
    fn ordinary_process_on_a_bus_is_on_the_wrong_element() {
        let system = examples::diamond();
        let mut cpg = system.cpg().clone();
        let process = cpg.ordinary_processes().next().unwrap();
        let bus = system.arch().buses().next().expect("diamond has a bus");
        cpg.set_mapping(process, bus).unwrap();
        assert_eq!(
            validate_system(&cpg, system.arch()),
            Err(MergeError::ProcessOnWrongElement { process, pe: bus })
        );
    }

    #[test]
    fn undeclared_guard_condition_is_dangling() {
        let system = examples::diamond();
        let mut cpg = system.cpg().clone();
        let process = cpg.ordinary_processes().next().unwrap();
        let ghost = CondId::new(40);
        cpg.set_guard(process, Guard::from_cube(Cube::from(ghost.is_true())))
            .unwrap();
        assert_eq!(
            validate_system(&cpg, system.arch()),
            Err(MergeError::DanglingCondition { condition: ghost })
        );
    }

    #[test]
    fn unrepaired_conflicts_reports_through_ensure_realizable() {
        let system = examples::diamond();
        let config = crate::MergeConfig::new(system.broadcast_time());
        let result = crate::generate_schedule_table(system.cpg(), system.arch(), &config);
        assert_eq!(result.outcome(), crate::MergeOutcome::Realizable);
        result.ensure_realizable().unwrap();

        let mut degraded = result;
        degraded.stats.unrepaired_conflicts = 2;
        degraded.stats.lock_slips = 1;
        assert_eq!(
            degraded.outcome(),
            crate::MergeOutcome::Degraded {
                unrepaired_conflicts: 2,
                lock_slips: 1
            }
        );
        assert_eq!(
            degraded.ensure_realizable(),
            Err(MergeError::UnrepairedConflicts { count: 3 })
        );
    }

    #[test]
    fn try_entry_points_reject_pathological_systems() {
        let system = examples::fig1();
        let solo = Architecture::builder().processor("solo").build().unwrap();
        let config = crate::MergeConfig::new(Time::new(1));
        assert_eq!(
            crate::try_generate_schedule_table(system.cpg(), &solo, &config).err(),
            Some(MergeError::ZeroResourceSystem)
        );
        assert!(crate::MergeSession::try_new(system.cpg(), &solo, &config).is_err());
        // A session whose graph is corrupted after construction fails on
        // `try_merge` instead of panicking mid-walk.
        let mut session = crate::MergeSession::new(system.cpg(), system.arch(), &config);
        session.try_merge().expect("well-formed system merges");
    }

    #[test]
    fn every_variant_formats_and_is_an_error() {
        let variants: Vec<MergeError> = vec![
            MergeError::EmptyGraph,
            MergeError::ZeroResourceSystem,
            MergeError::UnmappedProcess {
                process: cpg::ProcessId::from_index(3),
            },
            MergeError::DanglingProcessingElement {
                process: cpg::ProcessId::from_index(3),
                pe: 9,
            },
            MergeError::ProcessOnWrongElement {
                process: cpg::ProcessId::from_index(3),
                pe: PeId::from_index(1),
            },
            MergeError::DanglingCondition {
                condition: CondId::new(7),
            },
            MergeError::CyclicDependency,
            MergeError::UnrepairedConflicts { count: 2 },
        ];
        for variant in variants {
            let rendered = variant.to_string();
            assert!(!rendered.is_empty());
            let as_error: &dyn std::error::Error = &variant;
            assert!(as_error.source().is_none());
        }
    }
}
