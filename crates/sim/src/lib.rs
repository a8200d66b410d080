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
//! A run first gathers the graph and the architecture into one
//! [`cpg_path_sched::GraphTables`], the dense per-slot view the path
//! scheduler reads too (durations, resources, an in-edge CSR, the
//! disjunction process of each condition). It then goes one block of up to 64 labels at
//! a time: each job's row is scanned once per block
//! ([`cpg_table::ScheduleTable::resolve_block`] gives its time, selecting
//! column and recorded resource on every label of the block in one pass).
//! Each label's checks read only the tables and are linear in the jobs it
//! executes, up to one [`cpg_path_sched::sort_by_fields`] of its
//! activations by `(start, job slot)`;
//! requirement 4 walks a selecting column's literals only for activations
//! that start before the latest moment the column is known on their
//! element, a bound memoized per column and element; the
//! exclusive-resource check groups the start-ordered activations by
//! resource with a counting pass and sweeps each group instead of testing
//! every pair. A [`SimScratch`] arena carries the buffers across labels and
//! calls.
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

mod report;
mod simulator;

pub use report::{SimViolation, SimulationReport};
pub use simulator::{SimScratch, Simulator};
