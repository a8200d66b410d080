//! Result of the table-generation (schedule merging) algorithm.

use std::fmt;

use cpg::{CondId, Cube, TrackSet};
use cpg_arch::Time;
use cpg_path_sched::PathSchedule;
use cpg_table::ScheduleTable;

/// One decision-tree node visited during schedule merging: at this point of
/// the traversal a disjunction process terminated and the value of a new
/// condition became available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeStep {
    /// The conditions decided before this node (the tree path to it).
    pub decided: Cube,
    /// The condition resolved at this node.
    pub condition: CondId,
    /// The completion time of the disjunction process in the schedule that
    /// was current when the node was reached.
    pub resolved_at: Time,
    /// The label of the path whose schedule was current at this node.
    pub current_path: Cube,
    /// `true` when the node was entered through a back-step (the condition
    /// took the value opposite to the current path's).
    pub back_step: bool,
}

/// Counters describing the work done by the merge algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct MergeStats {
    /// Number of decision-tree nodes visited.
    pub tree_nodes: usize,
    /// Number of schedule adjustments performed after back-steps.
    pub adjustments: usize,
    /// Number of activation-time conflicts repaired via the Theorem-2 loop.
    pub conflicts_repaired: usize,
    /// Number of conflicts that could not be repaired by moving the process
    /// to a previously tabled activation time (0 for well-formed inputs; a
    /// non-zero value indicates a requirement-2 violation in the output).
    pub unrepaired_conflicts: usize,
    /// Number of slipped table entries fed back through the Theorem-2
    /// re-placement loop during adjustments: a lock inherited from the table
    /// asked for a start the adjusted path's data dependencies made
    /// impossible (see [`cpg_path_sched::PathSchedule::slipped_locks`]), so
    /// the stale intended time was dropped from the table and the entry was
    /// re-placed at the start the schedule actually achieved.
    pub slip_repairs: usize,
    /// Number of run-time violations of the finished table: the merge
    /// executes the table once per alternative path with the run-time
    /// simulator of `cpg-sim`, and this is the total of the violations those
    /// runs report — a missing activation, a condition not yet known
    /// locally, an input that arrives late, or two jobs overlapping on an
    /// exclusive resource. Slips observed during adjustments are repaired
    /// via [`MergeStats::slip_repairs`] rather than published as stale
    /// intended times, so a non-zero value means the repairs left activation
    /// times no run-time scheduler can honour. (The name predates the
    /// simulation check, when only slipped locks were counted.)
    pub lock_slips: usize,
    /// Deepest decision-tree node visited, counted in decided conditions
    /// (the root sits at depth 0, so a node that resolves the first
    /// condition is at depth 1). A structural property of the explored
    /// tree: identical for cold merges and warm re-merges.
    pub max_walk_depth: usize,
    /// Total iterations of the Theorem-2 slip-repair loop across all
    /// adjustments (each round re-places every slipped entry once). Bounded
    /// by `adjustments * SLIP_REPAIR_ROUNDS`; a high value relative to
    /// [`MergeStats::adjustments`] marks cascading slip repair.
    pub repair_rounds: usize,
}

/// Whether the run-time schedulers can execute the generated table as
/// written.
///
/// Requirement 2 demands that every activation time written into the table
/// is one the run-time dispatcher can realize on every path the entry
/// applies to. The merge repairs violations as it goes (the Theorem-2 loop
/// and slip repair) and then judges the finished table by simulating it on
/// every path: the outcome is [`Realizable`](MergeOutcome::Realizable) when
/// no conflict went unrepaired and every simulated run is clean. A
/// [`Degraded`](MergeOutcome::Degraded) outcome means some path cannot run
/// the table exactly as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeOutcome {
    /// Every alternative path executes the table without a violation.
    Realizable,
    /// Some conflicts could not be repaired by re-placement and/or the
    /// simulation of some path reports violations.
    Degraded {
        /// [`MergeStats::unrepaired_conflicts`] of the merge.
        unrepaired_conflicts: usize,
        /// [`MergeStats::lock_slips`] of the merge.
        lock_slips: usize,
    },
}

/// The output of [`generate_schedule_table`](crate::generate_schedule_table).
///
/// # Requirement-2 contract
///
/// The paper's requirement 2 (an activation time stored in the table must be
/// realizable by the dispatcher on every path it applies to) is a *repaired*
/// invariant, not an assumed one: conflicts are re-placed through the
/// Theorem-2 loop and slipped locks are repaired in-column. One simulation
/// of the finished table on every path then judges the result. Callers
/// that need the strict guarantee must check [`MergeResult::outcome`]
/// instead of assuming it — pathological inputs can exhaust the repair
/// loop, and the merge then *returns* the degraded table (with
/// [`MergeStats::unrepaired_conflicts`] / [`MergeStats::lock_slips`]
/// non-zero) rather than panicking.
#[derive(Debug, Clone)]
pub struct MergeResult {
    pub(crate) table: ScheduleTable,
    pub(crate) tracks: TrackSet,
    pub(crate) path_schedules: Vec<PathSchedule>,
    pub(crate) delta_m: Time,
    pub(crate) delta_max: Time,
    pub(crate) steps: Vec<MergeStep>,
    pub(crate) stats: MergeStats,
}

impl MergeResult {
    /// The generated schedule table.
    #[must_use]
    pub fn table(&self) -> &ScheduleTable {
        &self.table
    }

    /// The alternative paths of the graph, in enumeration order.
    #[must_use]
    pub fn tracks(&self) -> &TrackSet {
        &self.tracks
    }

    /// The individual (near-optimal) schedules of the alternative paths, in
    /// the same order as [`MergeResult::tracks`]; the longest of them is
    /// `δ_M`. The timing the table realizes on a path is what the run-time
    /// simulator of `cpg-sim` reports for it (its delay is
    /// [`ScheduleTable::track_delay`]).
    #[must_use]
    pub fn path_schedules(&self) -> &[PathSchedule] {
        &self.path_schedules
    }

    /// `δ_M`: the delay of the longest individual path — the lower bound on
    /// the worst-case delay of any schedule table.
    #[must_use]
    pub fn delta_m(&self) -> Time {
        self.delta_m
    }

    /// `δ_max`: the worst-case delay of the generated table — the largest
    /// delay of the merge's simulated runs, equal to
    /// [`ScheduleTable::worst_case_delay`].
    #[must_use]
    pub fn delta_max(&self) -> Time {
        self.delta_max
    }

    /// The relative increase of the worst-case delay over the lower bound,
    /// `(δ_max − δ_M) / δ_M`, in percent — the quality metric of the paper's
    /// Fig. 5.
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        if self.delta_m.is_zero() {
            return 0.0;
        }
        let dm = self.delta_m.as_u64() as f64;
        let dmax = self.delta_max.as_u64() as f64;
        (dmax - dm) / dm * 100.0
    }

    /// `true` when the table achieves the lower bound (`δ_max = δ_M`).
    #[must_use]
    pub fn is_zero_overhead(&self) -> bool {
        self.delta_max == self.delta_m
    }

    /// The decision-tree nodes visited during merging, in visit order: the
    /// paper's Fig. 2 exploration trace.
    ///
    /// The merge keeps its decision tree (one record per forward chain) and
    /// folds it once into these steps and the [`stats`](Self::stats)
    /// counters, so a warm session merge that replays cached chains reports
    /// the same steps as a cold walk.
    #[must_use]
    pub fn steps(&self) -> &[MergeStep] {
        &self.steps
    }

    /// Counters describing the work done by the algorithm.
    #[must_use]
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Speculative subtree walks discarded after a failed validation.
    ///
    /// Always 0: the decision-tree walk is serial and never speculates. Kept
    /// so callers that report the counter keep compiling.
    #[must_use]
    pub fn spec_discards(&self) -> usize {
        0
    }

    /// Whether the table runs clean on every path (see the type-level
    /// docs).
    #[must_use]
    pub fn outcome(&self) -> MergeOutcome {
        if self.stats.unrepaired_conflicts == 0 && self.stats.lock_slips == 0 {
            MergeOutcome::Realizable
        } else {
            MergeOutcome::Degraded {
                unrepaired_conflicts: self.stats.unrepaired_conflicts,
                lock_slips: self.stats.lock_slips,
            }
        }
    }
}

impl fmt::Display for MergeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merged {} paths: delta_M = {}, delta_max = {} (+{:.2}%)",
            self.tracks.len(),
            self.delta_m,
            self.delta_max,
            self.overhead_percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::enumerate_tracks;

    #[test]
    fn overhead_percent_is_relative_to_delta_m() {
        let system = cpg::examples::diamond();
        let tracks = enumerate_tracks(system.cpg());
        let result = MergeResult {
            table: ScheduleTable::new(),
            tracks,
            path_schedules: Vec::new(),
            delta_m: Time::new(100),
            delta_max: Time::new(107),
            steps: Vec::new(),
            stats: MergeStats::default(),
        };
        assert!((result.overhead_percent() - 7.0).abs() < 1e-9);
        assert!(!result.is_zero_overhead());
        assert!(result.to_string().contains("+7.00%"));
    }

    #[test]
    fn zero_delta_m_gives_zero_overhead() {
        let system = cpg::examples::diamond();
        let tracks = enumerate_tracks(system.cpg());
        let result = MergeResult {
            table: ScheduleTable::new(),
            tracks,
            path_schedules: Vec::new(),
            delta_m: Time::ZERO,
            delta_max: Time::ZERO,
            steps: Vec::new(),
            stats: MergeStats::default(),
        };
        assert_eq!(result.overhead_percent(), 0.0);
        assert!(result.is_zero_overhead());
    }
}
