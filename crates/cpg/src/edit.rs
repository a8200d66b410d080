//! System edits and edit→affected-track scoping for incremental re-merges.
//!
//! Interactive design-space exploration re-estimates the worst-case delay
//! after every small change to the system: a WCET tweak, a mapping move, a
//! guard edit. [`SystemEdit`] models exactly those changes as first-class
//! values so a scheduler session can (1) apply them to a [`Cpg`] in place and
//! (2) compute *which alternative paths the edit can possibly affect* before
//! re-merging.
//!
//! The scoping pass follows the `ValidityScope` idiom: the required-presence
//! set of the edited process is its guard `X_Pi`, flattened to a disjunction
//! of literal cubes. An alternative path whose label is incompatible with
//! every guard cube can never activate the process, so nothing the edit
//! changes is observable on that path — its schedule, and every decision
//! subtree that only consults such paths, is provably unchanged. Guard edits
//! change the flattening itself (and potentially the set of alternative
//! paths), so they scope to [`EditScope::Structural`].
//!
//! The module also provides [`FrontierHasher`], a deterministic FNV-1a
//! hasher for fingerprints that must be stable across processes and
//! platforms, such as the generator's system fingerprint — `std`'s default
//! hasher is randomly seeded and therefore unusable for comparing
//! fingerprints taken in different runs.

use std::fmt;
use std::hash::Hasher;

use cpg_arch::{PeId, Time};

use crate::cond::Guard;
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
///     EditScope::Structural => unreachable!("WCET edits scope to tracks"),
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
    /// Replace the guard `X_Pi` of a process (e.g. tightening the condition
    /// under which it is activated).
    Guard {
        /// The edited process.
        process: ProcessId,
        /// The new guard.
        guard: Guard,
    },
}

impl SystemEdit {
    /// The process the edit targets.
    #[must_use]
    pub fn process(&self) -> ProcessId {
        match self {
            SystemEdit::ExecTime { process, .. }
            | SystemEdit::Mapping { process, .. }
            | SystemEdit::Guard { process, .. } => *process,
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
            SystemEdit::Guard { process, guard } => cpg.set_guard(*process, guard.clone()),
        }
    }

    /// Computes which alternative paths the edit can affect, *before* it is
    /// applied.
    ///
    /// WCET and mapping edits are observable exactly on the paths that
    /// activate the edited process. The guard literals give a cheap
    /// over-approximation (a path whose label contradicts every guard cube is
    /// excluded outright); track membership then confirms the exact set.
    /// Guard edits change the required-presence structure itself — and may
    /// change the set of alternative paths — so they scope to
    /// [`EditScope::Structural`].
    #[must_use]
    pub fn scope(&self, cpg: &Cpg, tracks: &TrackSet) -> EditScope {
        match self {
            SystemEdit::Guard { .. } => EditScope::Structural,
            SystemEdit::ExecTime { process, .. } | SystemEdit::Mapping { process, .. } => {
                let guard = cpg.guard(*process);
                let affected = tracks
                    .iter()
                    .enumerate()
                    .filter(|(_, track)| {
                        let label = track.label();
                        guard.cubes().iter().any(|cube| !cube.excludes(&label))
                            && track.contains(*process)
                    })
                    .map(|(idx, _)| idx)
                    .collect();
                EditScope::Tracks(affected)
            }
        }
    }
}

impl fmt::Display for SystemEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemEdit::ExecTime { process, time } => write!(f, "wcet {process} := {time}"),
            SystemEdit::Mapping { process, pe } => write!(f, "map {process} -> {pe}"),
            SystemEdit::Guard { process, guard } => write!(f, "guard {process} := {guard}"),
        }
    }
}

/// The set of alternative paths a [`SystemEdit`] can affect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditScope {
    /// The edit is observable only on the listed tracks (indices into the
    /// [`TrackSet`] it was computed against). Everything else is provably
    /// unchanged.
    Tracks(Vec<usize>),
    /// The edit changes the guard structure: the set of alternative paths
    /// itself may differ, so no cached scheduling state survives.
    Structural,
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic FNV-1a 64-bit hasher for frontier fingerprints.
///
/// Drives any `#[derive(Hash)]` type through [`std::hash::Hasher`], but with
/// a fixed seed and byte-order-independent mixing, so two fingerprints taken
/// in different merges (or processes) of identical data always compare equal.
///
/// # Example
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use cpg::FrontierHasher;
///
/// let mut a = FrontierHasher::new();
/// let mut b = FrontierHasher::new();
/// ("jobs", 42u64).hash(&mut a);
/// ("jobs", 42u64).hash(&mut b);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct FrontierHasher(u64);

impl FrontierHasher {
    /// Creates a hasher in the canonical FNV-1a start state.
    #[must_use]
    pub const fn new() -> Self {
        FrontierHasher(FNV_OFFSET)
    }
}

impl Default for FrontierHasher {
    fn default() -> Self {
        FrontierHasher::new()
    }
}

impl Hasher for FrontierHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

#[cfg(test)]
mod tests {
    use std::hash::Hash;

    use super::*;
    use crate::cond::Cube;
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
        let EditScope::Tracks(affected) = edit.scope(&cpg, &tracks) else {
            panic!("WCET edits must scope to tracks");
        };
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
    fn guard_edits_are_structural_and_dummies_are_rejected() {
        let mut cpg = examples::fig1().cpg().clone();
        let tracks = enumerate_tracks(&cpg);
        let p = cpg.ordinary_processes().next().unwrap();
        let cond = cpg.conditions().next().unwrap();
        let cube = Cube::top().and(cond.is_true()).unwrap();
        let edit = SystemEdit::Guard {
            process: p,
            guard: Guard::from_cube(cube),
        };
        assert_eq!(edit.scope(&cpg, &tracks), EditScope::Structural);
        edit.apply(&mut cpg).unwrap();
        assert_eq!(cpg.guard(p).cubes().len(), 1);

        let source = cpg.source();
        let err = SystemEdit::ExecTime {
            process: source,
            time: Time::new(1),
        }
        .apply(&mut cpg)
        .unwrap_err();
        assert_eq!(err, EditError::DummyProcess(source));
    }

    #[test]
    fn frontier_hasher_is_deterministic_and_order_sensitive() {
        let fingerprint = |items: &[(u64, bool)]| {
            let mut h = FrontierHasher::new();
            items.hash(&mut h);
            h.finish()
        };
        let a = fingerprint(&[(1, true), (2, false)]);
        assert_eq!(a, fingerprint(&[(1, true), (2, false)]));
        assert_ne!(a, fingerprint(&[(2, false), (1, true)]));
        assert_ne!(a, fingerprint(&[(1, true)]));
    }
}
