//! End-to-end synthesis benchmark.
//!
//! Three seeded workloads drive the real pipeline — communication
//! expansion, track enumeration, path scheduling and merging, table
//! verification, `δ_max`, simulation and dispatch, or the incremental
//! `MergeSession` — through each layer's public functions, one item at a
//! time in a single process, and check every output. Times are scaled to a
//! reference core by a speed probe run between items (see [`calib`]). See `README.md` in
//! this package for the workloads, the metrics and what each layer metric
//! should move.

#![forbid(unsafe_code)]

pub mod calib;
pub mod pipeline;
pub mod run;
pub mod trace;
pub mod workload;
