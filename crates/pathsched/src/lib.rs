//! Resource-constrained list scheduling of individual alternative paths of a
//! conditional process graph.
//!
//! The scheduling strategy of Eles et al. (DATE 1998) proceeds in two steps:
//! first every alternative path through the conditional process graph is
//! scheduled individually (this crate), then the per-path schedules are merged
//! into the global schedule table (the `cpg-merge` crate).
//!
//! The central types are:
//!
//! * [`Job`] — a schedulable unit: a process of the graph or the broadcast of
//!   a condition value on a bus;
//! * [`ListScheduler`] — the list scheduler itself, with partial-critical-path
//!   priorities, gap-filling placement on exclusive resources, parallel
//!   execution on hardware processors, and condition broadcasting. It
//!   gathers the graph's [`GraphTables`] once and derives every track's
//!   context from them;
//! * [`GraphTables`] — the one dense per-slot view of a graph (durations,
//!   mappings, an in-edge CSR that includes each broadcast's edge from its
//!   disjunction process), read by the path scheduler and the simulator;
//! * [`TrackContext`] — the dense, indexed per-track scheduling core built
//!   by [`ListScheduler::context`]: job indices, adjacency, guard
//!   requirements and priorities are computed once per track and reused
//!   across every `schedule`/`reschedule` run;
//! * [`RunScratch`] — the reusable per-run scratch arena (dense state, ready
//!   queue, per-resource calendars, slip buffer): one arena threaded through
//!   every run makes repeated scheduling allocation-free after warm-up,
//!   which is how the merge of `cpg-merge` runs all of its schedules;
//! * [`JobSlots`] — the one numbering of a graph's jobs (processes by
//!   index, then one broadcast per condition) that every per-job array is
//!   indexed by;
//! * [`sort_by_fields`] — the one key sort of the path scheduler, the
//!   table compaction, the simulator and the dispatcher: indices ordered
//!   by a few integer fields, packed into one `u64` key where they fit;
//! * [`LockSet`] — a dense set of locked activation times, cheap to clone
//!   along the decision tree of the merge algorithm;
//! * [`PathSchedule`] — the result: activation times for every job of one
//!   path, the path delay `δ_k`, the cached condition resolutions, any
//!   [`SlippedLock`]s, and queries about when condition values become known
//!   on each processing element.
//!
//! # Example
//!
//! ```
//! use cpg::{enumerate_tracks, examples};
//! use cpg_path_sched::{Job, ListScheduler};
//!
//! let system = examples::diamond();
//! let tracks = enumerate_tracks(system.cpg());
//! let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
//!
//! let schedule = scheduler.schedule_track(&tracks.tracks()[0]);
//! assert!(schedule.delay() > cpg_arch::Time::ZERO);
//! let decide = system.cpg().process_by_name("decide").unwrap();
//! assert!(schedule.start(Job::Process(decide)).is_some());
//! ```

mod calendar;
mod context;
mod job;
#[cfg(any(test, feature = "test-util"))]
pub mod reference;
mod schedule;
mod scheduler;
mod scratch;

pub use context::{GraphTables, LockSet, TrackContext};
pub use job::{sort_by_fields, Job, JobSlots, ScheduledJob};
pub use schedule::{PathSchedule, SlippedLock};
pub use scheduler::ListScheduler;
pub use scratch::RunScratch;
