//! The schedule table of Eles et al. (DATE 1998): data structure, correctness
//! requirements and worst-case-delay evaluation.
//!
//! The table-generation algorithm of the `cpg-merge` crate fills a
//! [`ScheduleTable`]; this crate owns the table itself, the four correctness
//! requirements of Section 3 of the paper (checked by
//! [`ScheduleTable::verify`] for requirements 1–3 and by the `cpg-sim`
//! simulator for requirement 4), the computation of the guaranteed worst-case
//! delay `δ_max`, and a plain-text renderer that mirrors the paper's Table 1.
//!
//! # Example
//!
//! ```
//! use cpg::{Cube, ProcessId};
//! use cpg_arch::Time;
//! use cpg_path_sched::Job;
//! use cpg_table::ScheduleTable;
//!
//! let mut table = ScheduleTable::new();
//! table.set(Job::Process(ProcessId::from_index(1)), Cube::top(), Time::new(0));
//! assert_eq!(table.num_entries(), 1);
//! ```

mod analysis;
mod block;
mod dispatch;
mod error;
mod table;
mod txn;

pub use analysis::{to_csv, utilization, ResourceLoad};
pub use block::{LabelBlock, ResolvedActivation};
pub use dispatch::{per_processor_dispatch, DispatchEntry, DispatchTable};
pub use error::TableViolation;
pub use table::{Activation, CompactionMemo, ScheduleTable};
pub use txn::{ChainLog, RecordScratch, RecordingView};
