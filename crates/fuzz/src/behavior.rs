//! The merger's behavior vector and the novelty archive over its quantized
//! signatures.

use std::collections::HashSet;

use cpg_merge::{MergeError, MergeOutcome, MergeResult, MergeStats};

/// Length of a quantized [`Signature`].
pub const SIGNATURE_LEN: usize = 11;

/// A quantized behavior signature: every counter of the behavior vector,
/// log2-bucketed. Two runs with the same signature exercised the merger "the
/// same way" for the fuzzer's purposes.
pub type Signature = [u8; SIGNATURE_LEN];

/// What one merge did, counted — the fuzzer's coverage signal.
///
/// The vector is the [`MergeStats`] of the deterministic baseline merge (so
/// signatures are reproducible anywhere), plus the typed-rejection
/// discriminant for inputs the merger refuses, the outcome degradation flag
/// and the number of alternative paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehaviorVector {
    /// Discriminant of the typed [`MergeError`] rejection (0 = accepted).
    pub rejection: u8,
    /// `true` when the merge finished with a degraded [`MergeOutcome`].
    pub degraded: bool,
    /// The merge's counters (all zero for a rejection).
    pub stats: MergeStats,
    /// Alternative paths of the merged system.
    pub tracks: usize,
}

impl BehaviorVector {
    /// The vector of a completed merge.
    #[must_use]
    pub fn from_result(result: &MergeResult) -> Self {
        BehaviorVector {
            rejection: 0,
            degraded: !matches!(result.outcome(), MergeOutcome::Realizable),
            stats: result.stats(),
            tracks: result.tracks().len(),
        }
    }

    /// The vector of a typed input rejection: every counter zero, the
    /// rejection discriminant set. Each [`MergeError`] variant is its own
    /// behavior — the fuzzer keeps one corpus representative per rejection
    /// path.
    #[must_use]
    pub fn from_rejection(error: &MergeError) -> Self {
        let rejection = match error {
            MergeError::EmptyGraph => 1,
            MergeError::ZeroResourceSystem => 2,
            MergeError::UnmappedProcess { .. } => 3,
            MergeError::DanglingProcessingElement { .. } => 4,
            MergeError::ProcessOnWrongElement { .. } => 5,
            MergeError::DanglingCondition { .. } => 6,
            MergeError::CyclicDependency => 7,
            MergeError::TooManyTracks { .. } => 8,
            _ => 9,
        };
        BehaviorVector {
            rejection,
            degraded: false,
            stats: MergeStats::default(),
            tracks: 0,
        }
    }

    /// The deterministic quantized signature: rejection discriminant,
    /// degradation flag, then every counter log2-bucketed. Reproducible on
    /// any machine — corpus distinctness is defined over these.
    #[must_use]
    pub fn signature(&self) -> Signature {
        let stats = &self.stats;
        [
            self.rejection,
            u8::from(self.degraded),
            bucket(stats.tree_nodes),
            bucket(stats.adjustments),
            bucket(stats.conflicts_repaired),
            bucket(stats.unrepaired_conflicts),
            bucket(stats.slip_repairs),
            bucket(stats.lock_slips),
            bucket(stats.max_walk_depth),
            bucket(stats.repair_rounds),
            bucket(self.tracks),
        ]
    }
}

/// Log2 bucket: 0 for 0, else `floor(log2(value)) + 1`. Collapses "343 vs
/// 401 tree nodes" while separating orders of magnitude.
fn bucket(value: usize) -> u8 {
    if value == 0 {
        0
    } else {
        (usize::BITS - value.leading_zeros()) as u8
    }
}

/// A set of behavior signatures already seen; workloads whose vector lands
/// in a fresh cell are retained for further mutation.
#[derive(Debug, Default)]
pub struct NoveltyArchive {
    seen: HashSet<Signature>,
}

impl NoveltyArchive {
    /// An empty archive.
    #[must_use]
    pub fn new() -> Self {
        NoveltyArchive::default()
    }

    /// Records the vector's signature; `true` when it was novel.
    pub fn observe(&mut self, vector: &BehaviorVector) -> bool {
        self.seen.insert(vector.signature())
    }

    /// Number of distinct behavior cells seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// `true` when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1023), 10);
        assert_eq!(bucket(1024), 11);
    }

    #[test]
    fn rejections_occupy_distinct_cells() {
        let mut archive = NoveltyArchive::new();
        use cpg::{CondId, ProcessId};
        let errors = [
            MergeError::EmptyGraph,
            MergeError::ZeroResourceSystem,
            MergeError::UnmappedProcess {
                process: ProcessId::from_index(0),
            },
            MergeError::DanglingProcessingElement {
                process: ProcessId::from_index(0),
                pe: 7,
            },
            MergeError::DanglingCondition {
                condition: CondId::new(1),
            },
            MergeError::CyclicDependency,
            MergeError::TooManyTracks { limit: 1 },
        ];
        for error in &errors {
            assert!(archive.observe(&BehaviorVector::from_rejection(error)));
        }
        assert_eq!(archive.len(), errors.len());
        assert!(!archive.observe(&BehaviorVector::from_rejection(&MergeError::EmptyGraph)));
    }
}
