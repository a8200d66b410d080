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

use cpg::{count_tracks, CondId, Cpg, ProcessId, ProcessKind};
use cpg_arch::{Architecture, PeId, PeKind};

/// Why a system was rejected at a merge entry point.
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
    /// The graph has more alternative paths than a merge may schedule (see
    /// [`MAX_TRACKS`] and [`MAX_TRACK_PROCESSES`]).
    TooManyTracks {
        /// The most alternative paths a merge input may have.
        limit: usize,
    },
}

/// The most alternative paths [`validate_system`] accepts.
///
/// A merge keeps per track a scheduling context, an optimal schedule, a
/// simulated run and the track's process list, and the table grows with
/// the tracks, so its memory is about linear in tracks times processes.
/// Measured peak memory of one session merge (release build, 2-vCPU VM):
/// 9–10 KB per track on chains of independent conditions with 26–50
/// processes, 53 KB per track on the 64-path deep nest of 325 processes,
/// so about 160–200 bytes per track and process. At this limit a
/// 50-process graph merges in 0.18 s within 40 MB, and a 1000-process one
/// extrapolates to about 0.8 GB. The limit is 64 times the 64 paths of the
/// largest benchmark workload. The count that checks it stops past the
/// limit, so a graph of 40 independent conditions (2^40 paths) is
/// rejected in 0.4 ms. Larger graphs get a lower limit from
/// [`MAX_TRACK_PROCESSES`].
pub const MAX_TRACKS: usize = 4096;

/// The most tracks times processes [`validate_system`] accepts: a graph of
/// `n` processes may have at most `min(MAX_TRACKS, MAX_TRACK_PROCESSES / n)`
/// alternative paths. At the 160–200 bytes a merge keeps per track and
/// process (see [`MAX_TRACKS`]) this is about 0.8 GB, the memory
/// [`MAX_TRACKS`] already accepts for a 1000-process graph; graphs of up to
/// 1024 processes keep the full [`MAX_TRACKS`].
pub const MAX_TRACK_PROCESSES: usize = 1 << 22;

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
            MergeError::TooManyTracks { limit } => {
                write!(f, "the graph has more than {limit} alternative paths")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Checks that a graph/architecture pair is a well-formed merge input.
///
/// Returns the first pathology found, in a deterministic order: resource
/// availability, per-process mapping sanity (in process-id order), condition
/// references, dependency acyclicity, then the number of alternative paths
/// (at most [`MAX_TRACKS`], and at most [`MAX_TRACK_PROCESSES`] divided by
/// the number of processes, counted by an enumeration that stops past the
/// limit).
/// [`generate_schedule_table`](crate::generate_schedule_table) and
/// [`MergeSession`](crate::MergeSession) assume a validated system; the
/// `try_` entry points run this pass first.
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

    let limit = MAX_TRACKS.min(MAX_TRACK_PROCESSES / cpg.len());
    if count_tracks(cpg, limit).is_none() {
        return Err(MergeError::TooManyTracks { limit });
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
    use cpg::examples;
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
    fn outcome_reports_unrepaired_conflicts_and_lock_slips() {
        let system = examples::diamond();
        let config = crate::MergeConfig::new(system.broadcast_time());
        let result = crate::generate_schedule_table(system.cpg(), system.arch(), &config);
        assert_eq!(result.outcome(), crate::MergeOutcome::Realizable);

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

    /// A chain of `n` independent conditions on one processor: the
    /// disjunction process of condition `i` starts one of two processes,
    /// which join before the next disjunction, so the graph has `2^n`
    /// alternative paths.
    fn independent_conditions(n: usize) -> (Architecture, Cpg) {
        padded_independent_conditions(n, 0)
    }

    /// [`independent_conditions`] after a chain of `padding` unconditional
    /// processes.
    fn padded_independent_conditions(n: usize, padding: usize) -> (Architecture, Cpg) {
        let arch = Architecture::builder().processor("cpu").build().unwrap();
        let pe = PeId::from_index(0);
        let mut builder = Cpg::builder();
        let mut previous = None;
        for i in 0..padding {
            let pad = builder.process(format!("p{i}"), Time::new(1), pe);
            if let Some(previous) = previous {
                builder.simple_edge(previous, pad, Time::ZERO);
            }
            previous = Some(pad);
        }
        for i in 0..n {
            let condition = builder.condition(format!("C{i}"));
            let decide = builder.process(format!("d{i}"), Time::new(1), pe);
            let yes = builder.process(format!("t{i}"), Time::new(2), pe);
            let no = builder.process(format!("f{i}"), Time::new(3), pe);
            let join = builder.process(format!("j{i}"), Time::new(1), pe);
            if let Some(previous) = previous {
                builder.simple_edge(previous, decide, Time::ZERO);
            }
            builder.conditional_edge(decide, yes, condition.is_true(), Time::ZERO);
            builder.conditional_edge(decide, no, condition.is_false(), Time::ZERO);
            builder.simple_edge(yes, join, Time::ZERO);
            builder.simple_edge(no, join, Time::ZERO);
            builder.mark_conjunction(join);
            previous = Some(join);
        }
        let cpg = builder.build(&arch).unwrap();
        (arch, cpg)
    }

    #[test]
    fn forty_independent_conditions_are_too_many_tracks() {
        let too_many = Err(MergeError::TooManyTracks { limit: MAX_TRACKS });
        let config = crate::MergeConfig::new(Time::new(1));
        let (arch, cpg) = independent_conditions(40);
        // The count stops past the limit; an unbounded enumeration of the
        // 2^40 paths would not return at all.
        let started = std::time::Instant::now();
        assert_eq!(validate_system(&cpg, &arch), too_many);
        assert_eq!(
            crate::try_generate_schedule_table(&cpg, &arch, &config).err(),
            too_many.err()
        );
        assert_eq!(
            crate::MergeSession::try_new(&cpg, &arch, &config).err(),
            too_many.err()
        );
        let elapsed = started.elapsed();
        assert!(elapsed.as_millis() < 1000, "rejection took {elapsed:?}");

        // Exactly at the limit (a power of two) the system is accepted.
        let (arch, cpg) = independent_conditions(MAX_TRACKS.ilog2() as usize);
        assert_eq!(count_tracks(&cpg, MAX_TRACKS), Some(MAX_TRACKS));
        assert_eq!(validate_system(&cpg, &arch), Ok(()));
    }

    #[test]
    fn large_graphs_get_a_lower_track_limit() {
        // 12 independent conditions (4096 paths, within `MAX_TRACKS`)
        // after 1950 padding processes: about 2000 processes allow only
        // 2^22 / 2000 ≈ 2097 paths.
        let (arch, cpg) = padded_independent_conditions(12, 1950);
        let processes = cpg.len();
        assert!((1990..2010).contains(&processes), "{processes} processes");
        let limit = MAX_TRACK_PROCESSES / processes;
        assert!(limit < MAX_TRACKS);
        let started = std::time::Instant::now();
        assert_eq!(
            validate_system(&cpg, &arch),
            Err(MergeError::TooManyTracks { limit })
        );
        let elapsed = started.elapsed();
        assert!(elapsed.as_millis() < 100, "rejection took {elapsed:?}");

        // 11 conditions (2048 paths) are within the lower limit.
        let (arch, cpg) = padded_independent_conditions(11, 1954);
        assert_eq!(cpg.len(), processes);
        assert_eq!(validate_system(&cpg, &arch), Ok(()));
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
            MergeError::TooManyTracks { limit: 4 },
        ];
        for variant in variants {
            let rendered = variant.to_string();
            assert!(!rendered.is_empty());
            let as_error: &dyn std::error::Error = &variant;
            assert!(as_error.source().is_none());
        }
    }
}
