//! Conditional process graphs: the system representation of Eles et al.,
//! *"Scheduling of Conditional Process Graphs for the Synthesis of Embedded
//! Systems"* (DATE 1998).
//!
//! A conditional process graph (CPG) is a directed, acyclic, polar graph whose
//! nodes are processes mapped onto a heterogeneous architecture and whose
//! edges capture both data-flow (simple edges) and control-flow (conditional
//! edges guarded by conditions computed by *disjunction processes*). For a
//! given execution only one *alternative path* through the graph is active.
//!
//! This crate provides:
//!
//! * the condition algebra ([`CondId`], [`Literal`], [`Cube`], [`Guard`]):
//!   one cube type serves as path label, schedule-table column and the
//!   merge's partial condition assignment, and guards are disjunctions of
//!   cubes;
//! * the graph model itself ([`Cpg`], [`CpgBuilder`], [`Process`], [`Edge`])
//!   with guard inference and structural validation;
//! * communication expansion ([`expand_communications`]), which inserts a
//!   bus-mapped communication process on every inter-processor edge;
//! * alternative-path enumeration ([`enumerate_tracks`], [`Track`],
//!   [`TrackSet`]);
//! * ready-made example systems ([`examples`]), including a reconstruction of
//!   the paper's Fig. 1.
//!
//! # Example
//!
//! ```
//! use cpg_arch::{Architecture, Time};
//! use cpg::{enumerate_tracks, expand_communications, BusPolicy, Cpg};
//!
//! // Two processors and a bus.
//! let arch = Architecture::builder()
//!     .processor("cpu0")
//!     .processor("cpu1")
//!     .bus("bus")
//!     .build()?;
//! let cpu0 = arch.pe_by_name("cpu0").unwrap();
//! let cpu1 = arch.pe_by_name("cpu1").unwrap();
//!
//! // A process that branches on a condition computed at run time.
//! let mut b = Cpg::builder();
//! let c = b.condition("C");
//! let decide = b.process("decide", Time::new(2), cpu0);
//! let hot = b.process("hot", Time::new(4), cpu1);
//! let cold = b.process("cold", Time::new(3), cpu0);
//! b.conditional_edge(decide, hot, c.is_true(), Time::new(1));
//! b.conditional_edge(decide, cold, c.is_false(), Time::ZERO);
//! let cpg = b.build(&arch)?;
//!
//! // Insert communication processes and enumerate the alternative paths.
//! let full = expand_communications(&cpg, &arch, BusPolicy::FirstBus)?;
//! let tracks = enumerate_tracks(&full);
//! assert_eq!(tracks.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cond;
mod dot;
mod edit;
mod error;
mod expand;
mod graph;
mod process;
mod tracks;

pub mod examples;

pub use cond::{CondId, Cube, Guard, Literal, MAX_CONDITIONS};
pub use dot::to_dot;
pub use edit::{EditError, EditScope, SystemEdit};
pub use error::{BuildCpgError, ExpandError};
pub use expand::{expand_communications, BusPolicy};
pub use graph::{Cpg, CpgBuilder, Edge};
pub use process::{Process, ProcessId, ProcessKind};
pub use tracks::{count_tracks, enumerate_tracks, Track, TrackSet};
