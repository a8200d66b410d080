//! Run-time simulation of schedule tables for conditional process graphs.
//!
//! The schedule table produced by the `cpg-merge` crate is meant to be
//! executed by very simple non-preemptive schedulers distributed over the
//! processing elements of the architecture. This crate simulates that
//! execution for any combination of condition values and checks the
//! properties that only show up at run time:
//!
//! * requirement 4 of the paper — every activation decision depends only on
//!   condition values already known on the local processing element;
//! * feasibility of the tabled activation times — inputs have arrived,
//!   exclusive resources never run two jobs at once;
//! * the actual delay of each execution, which must match the analytical
//!   worst-case delay of the table.
//!
//! One run is linear in the jobs it executes, up to a sort: each active
//! job's row is resolved once ([`cpg_table::ScheduleTable::activation`]
//! gives its time, selecting column and recorded resource in one pass),
//! completion times sit in a dense vector indexed by job slot, and the
//! exclusive-resource check sweeps each resource's activations in start
//! order instead of testing every pair.
//!
//! # Example
//!
//! ```
//! use cpg::examples;
//! use cpg_merge::{generate_schedule_table, MergeConfig};
//! use cpg_sim::Simulator;
//!
//! let system = examples::diamond();
//! let result = generate_schedule_table(
//!     system.cpg(),
//!     system.arch(),
//!     &MergeConfig::new(system.broadcast_time()),
//! );
//! let sim = Simulator::new(system.cpg(), system.arch(), result.table(), system.broadcast_time());
//! assert!(sim.run_all(result.tracks()).iter().all(|r| r.is_ok()));
//! ```

#![forbid(unsafe_code)]

mod report;
mod simulator;

pub use report::{SimViolation, SimulationReport};
pub use simulator::Simulator;
