//! Random generation of conditional process graphs and target architectures
//! for experimental evaluation.
//!
//! The evaluation of the paper (Section 6) uses 1080 conditional process
//! graphs generated for experimental purpose: 360 graphs for each dimension of
//! 60, 80 and 120 nodes, with 10, 12, 18, 24 or 32 alternative paths,
//! execution times drawn from uniform and exponential distributions, and
//! architectures consisting of one ASIC, one to eleven processors and one to
//! eight buses. This crate reproduces that workload:
//!
//! * [`GeneratorConfig`] describes one system (node count, target number of
//!   alternative paths, architecture size, execution-time distribution, seed);
//! * [`generate`] materialises it as a [`GeneratedSystem`] — an architecture
//!   plus an expanded conditional process graph with exactly the requested
//!   number of alternative paths;
//! * [`paper_suite`] / [`generate_paper_suite`] enumerate the whole
//!   experiment suite, parameterised by the number of graphs per size so that
//!   quick runs and the full 1080-graph reproduction use the same code.
//!
//! # Example
//!
//! ```
//! use cpg::enumerate_tracks;
//! use cpg_gen::{generate, GeneratorConfig};
//!
//! let system = generate(&GeneratorConfig::new(60, 18).with_seed(2024));
//! assert_eq!(system.cpg().ordinary_processes().count(), 60);
//! assert_eq!(enumerate_tracks(system.cpg()).len(), 18);
//! ```

mod config;
mod generator;
mod mutate;

pub use config::{paper_suite, ExecTimeDistribution, GeneratorConfig};
pub use generator::{
    architecture, generate, generate_paper_suite, generate_unexpanded, GeneratedSystem,
};
pub use mutate::{system_fingerprint, EditOp, MaterializeError, Workload, WorkloadOp};
