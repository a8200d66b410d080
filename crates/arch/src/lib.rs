//! Target architecture model for conditional-process-graph scheduling.
//!
//! The DATE 1998 paper by Eles et al. considers a *generic architecture*
//! consisting of programmable processors, application-specific hardware
//! processors (ASICs) and several shared buses:
//!
//! * only one process at a time runs on a programmable processor,
//! * a hardware processor can execute processes in parallel,
//! * only one data transfer at a time can use a given bus,
//! * computation and data transfers on different resources overlap.
//!
//! This crate provides the vocabulary types shared by every other crate of the
//! workspace: [`Time`], [`PeId`], [`PeKind`], [`ProcessingElement`] and
//! [`Architecture`] (with [`ArchitectureBuilder`]).
//!
//! # Example
//!
//! ```
//! use cpg_arch::{Architecture, PeKind, Time};
//!
//! let arch = Architecture::builder()
//!     .processor("pe1")
//!     .processor("pe2")
//!     .hardware("asic")
//!     .bus("bus0")
//!     .build()
//!     .expect("valid architecture");
//!
//! assert_eq!(arch.processors().count(), 2);
//! assert_eq!(arch.kind_of(arch.buses().next().unwrap()), PeKind::Bus);
//! assert_eq!(Time::new(3) + Time::new(4), Time::new(7));
//! ```

mod architecture;
mod error;
mod pe;
mod time;

pub use architecture::{Architecture, ArchitectureBuilder};
pub use error::BuildArchitectureError;
pub use pe::{PeId, PeKind, ProcessingElement};
pub use time::Time;
