//! System edits and edit→affected-track scoping for incremental re-merges.
//!
//! Interactive design-space exploration re-estimates the worst-case delay
//! after every small change to the system: a WCET tweak or a mapping move.
//! [`SystemEdit`] models exactly those changes as first-class values so a
//! scheduler session can (1) apply them to a [`Cpg`] in place and (2)
//! compute *which alternative paths the edit can possibly affect* before
//! re-merging.
//!
//! The scoping pass follows the `ValidityScope` idiom: the required-presence
//! set of the edited process is its guard `X_Pi`, flattened to a disjunction
//! of literal cubes. An alternative path whose label is incompatible with
//! every guard cube can never activate the process, so nothing the edit
//! changes is observable on that path — its schedule, and every decision
//! subtree that only consults such paths, is provably unchanged.
//!
//! No edit changes a guard: [`CpgBuilder::build`](crate::CpgBuilder::build)
//! derives every guard from the graph's conditional edges, and nothing sets
//! one afterwards. So no edit changes the set of alternative paths either.

use std::fmt;

use cpg_arch::{PeId, Time};

use crate::graph::Cpg;
use crate::process::ProcessId;
use crate::tracks::TrackSet;

/// A single designer edit to a conditional process graph.
///
/// Edits are the unit of invalidation for incremental re-merges: apply one
/// with [`SystemEdit::apply`], then ask [`SystemEdit::scope`] which
/// alternative paths it can affect.
///
/// # Example
///
/// ```
/// use cpg_arch::Time;
/// use cpg::{enumerate_tracks, examples, EditScope, SystemEdit};
///
/// let mut cpg = examples::fig1().cpg().clone();
/// let tracks = enumerate_tracks(&cpg);
/// let p = cpg.ordinary_processes().next().unwrap();
/// let edit = SystemEdit::ExecTime { process: p, time: Time::new(9) };
/// match edit.scope(&cpg, &tracks) {
///     EditScope::Tracks(affected) => assert!(!affected.is_empty()),
///     _ => unreachable!("WCET edits scope to tracks"),
/// }
/// edit.apply(&mut cpg).unwrap();
/// assert_eq!(cpg.exec_time(p), Time::new(9));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemEdit {
    /// Change the worst-case execution time of a process (communication time
    /// for communication processes).
    ExecTime {
        /// The edited process.
        process: ProcessId,
        /// The new worst-case execution time.
        time: Time,
    },
    /// Move a process to a different processing element.
    Mapping {
        /// The edited process.
        process: ProcessId,
        /// The processing element the process is moved to.
        pe: PeId,
    },
}

impl SystemEdit {
    /// The process the edit targets.
    #[must_use]
    pub fn process(&self) -> ProcessId {
        match self {
            SystemEdit::ExecTime { process, .. } | SystemEdit::Mapping { process, .. } => *process,
        }
    }

    /// Applies the edit to a graph in place.
    ///
    /// # Errors
    ///
    /// Returns an error when the process does not exist, is a dummy
    /// source/sink, or (for mapping moves) is currently unmapped.
    pub fn apply(&self, cpg: &mut Cpg) -> Result<(), EditError> {
        match self {
            SystemEdit::ExecTime { process, time } => cpg.set_exec_time(*process, *time),
            SystemEdit::Mapping { process, pe } => cpg.set_mapping(*process, *pe),
        }
    }

    /// Computes which alternative paths the edit can affect, *before* it is
    /// applied.
    ///
    /// WCET and mapping edits are observable exactly on the paths that
    /// activate the edited process. The guard literals give a cheap
    /// over-approximation (a path whose label contradicts every guard cube is
    /// excluded outright); track membership then confirms the exact set.
    #[must_use]
    pub fn scope(&self, cpg: &Cpg, tracks: &TrackSet) -> EditScope {
        let process = self.process();
        let guard = cpg.guard(process);
        let affected = tracks
            .iter()
            .enumerate()
            .filter(|(_, track)| {
                let label = track.label();
                guard.cubes().iter().any(|cube| !cube.excludes(&label)) && track.contains(process)
            })
            .map(|(idx, _)| idx)
            .collect();
        EditScope::Tracks(affected)
    }
}

impl fmt::Display for SystemEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemEdit::ExecTime { process, time } => write!(f, "wcet {process} := {time}"),
            SystemEdit::Mapping { process, pe } => write!(f, "map {process} -> {pe}"),
        }
    }
}

/// The set of alternative paths a [`SystemEdit`] can affect.
///
/// Every edit scopes to [`Tracks`](EditScope::Tracks). The enum is
/// non-exhaustive, so callers outside this crate match it with `if let` or
/// a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EditScope {
    /// The edit is observable only on the listed tracks (indices into the
    /// [`TrackSet`] it was computed against). Everything else is provably
    /// unchanged.
    Tracks(Vec<usize>),
}

/// Why a [`SystemEdit`] could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// The process identifier does not belong to the graph.
    UnknownProcess(ProcessId),
    /// The dummy source/sink cannot be edited.
    DummyProcess(ProcessId),
    /// A mapping move targeted a process that is not mapped (only the dummy
    /// source/sink, which [`EditError::DummyProcess`] already rejects, but
    /// kept distinct for forward compatibility).
    UnmappedProcess(ProcessId),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownProcess(p) => write!(f, "process {p} does not belong to the graph"),
            EditError::DummyProcess(p) => write!(f, "process {p} is a dummy source/sink"),
            EditError::UnmappedProcess(p) => write!(f, "process {p} is not mapped"),
        }
    }
}

impl std::error::Error for EditError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::tracks::enumerate_tracks;

    #[test]
    fn exec_time_edit_applies_and_scopes_to_containing_tracks() {
        let mut cpg = examples::fig1().cpg().clone();
        let tracks = enumerate_tracks(&cpg);
        let p = cpg
            .ordinary_processes()
            .find(|&p| !cpg.guard(p).is_true())
            .expect("fig1 has guarded processes");
        let edit = SystemEdit::ExecTime {
            process: p,
            time: Time::new(17),
        };
        let EditScope::Tracks(affected) = edit.scope(&cpg, &tracks);
        for (idx, track) in tracks.iter().enumerate() {
            assert_eq!(affected.contains(&idx), track.contains(p));
        }
        assert!(
            affected.len() < tracks.len(),
            "a guarded process misses some track"
        );
        edit.apply(&mut cpg).unwrap();
        assert_eq!(cpg.exec_time(p), Time::new(17));
    }

    #[test]
    fn mapping_edit_moves_the_process() {
        let system = examples::fig1();
        let mut cpg = system.cpg().clone();
        let p = cpg.ordinary_processes().next().unwrap();
        let old = cpg.mapping(p).unwrap();
        let target = system
            .arch()
            .processors()
            .find(|&pe| pe != old)
            .expect("fig1 has several processors");
        SystemEdit::Mapping {
            process: p,
            pe: target,
        }
        .apply(&mut cpg)
        .unwrap();
        assert_eq!(cpg.mapping(p), Some(target));
    }

    #[test]
    fn edits_of_dummies_are_rejected() {
        let mut cpg = examples::fig1().cpg().clone();
        let source = cpg.source();
        let err = SystemEdit::ExecTime {
            process: source,
            time: Time::new(1),
        }
        .apply(&mut cpg)
        .unwrap_err();
        assert_eq!(err, EditError::DummyProcess(source));
    }
}
