//! Schedule-table generation for conditional process graphs — the primary
//! contribution of Eles, Kuchcinski, Peng, Doboli and Pop, *"Scheduling of
//! Conditional Process Graphs for the Synthesis of Embedded Systems"*
//! (DATE 1998).
//!
//! Given a conditional process graph mapped onto a heterogeneous architecture
//! (processors, ASICs and shared buses), [`generate_schedule_table`] produces
//! a [`ScheduleTable`](cpg_table::ScheduleTable) that a trivial distributed
//! run-time scheduler can execute deterministically for *any* combination of
//! condition values, while keeping the guaranteed worst-case delay `δ_max` as
//! close as possible to the lower bound `δ_M` (the delay of the longest
//! individual path).
//!
//! The algorithm merges the individually scheduled alternative paths along a
//! binary decision tree explored depth-first, giving priority after every
//! back-step to the reachable path with the largest delay, locking activation
//! times that the table has already fixed, and repairing determinism conflicts
//! by moving processes to previously tabled activation times (Theorem 2 of the
//! paper).
//!
//! One simulation judges the finished table: the merge executes it on every
//! alternative path with the run-time simulator of `cpg-sim`, and that single
//! run gives `δ_max` (the largest simulated delay), the violation count
//! [`MergeStats::lock_slips`] and with it the [`MergeOutcome`].
//!
//! The merge runs on the calling thread. The decision-tree walk is one
//! depth-first traversal, and the per-track phases before it — context
//! construction and the initial per-path schedules — are plain loops over
//! the tracks that share the walk's scheduler scratch arena.
//!
//! A condition-oblivious baseline ([`condition_oblivious_baseline`]) is also
//! provided for comparison.
//!
//! # Example
//!
//! ```
//! use cpg::examples;
//! use cpg_merge::{generate_schedule_table, MergeConfig};
//!
//! let system = examples::fig1();
//! let result = generate_schedule_table(
//!     system.cpg(),
//!     system.arch(),
//!     &MergeConfig::new(system.broadcast_time()),
//! );
//!
//! println!("{}", result.table().render(system.cpg()));
//! assert!(result.delta_max() >= result.delta_m());
//! assert!(result.overhead_percent() < 100.0);
//! ```

mod baseline;
mod config;
mod error;
mod merge;
mod result;
mod session;

pub use baseline::{condition_oblivious_baseline, BaselineResult};
#[cfg(any(test, feature = "test-util"))]
pub use config::with_env_var;
pub use config::{threads_from_env, MergeConfig, SelectionPolicy};
pub use error::{validate_system, MergeError, MAX_TRACKS};
#[cfg(any(test, feature = "test-util"))]
pub use merge::sabotage;
pub use merge::{
    generate_schedule_table, generate_schedule_table_for_tracks, try_generate_schedule_table,
};
#[cfg(any(test, feature = "test-util"))]
pub use merge::{generate_schedule_table_cloning, generate_walk_table};
pub use result::{MergeOutcome, MergeResult, MergeStats, MergeStep};
pub use session::{MergeSession, ReuseStats};
