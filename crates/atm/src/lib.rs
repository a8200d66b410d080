//! Real-life example of the paper's Section 6: the operation-and-maintenance
//! (OAM) block of an ATM switch, F4 level.
//!
//! The paper models the three operating modes of the OAM block as conditional
//! process graphs, generates a schedule table for each mode and compares the
//! worst-case delays obtained on architectures with one or two processors
//! (486DX2/80 or Pentium/120) and one or two memory modules (Table 2). The
//! original VHDL process models are not public; this crate builds synthetic
//! graphs with the published characteristics (process counts, alternative
//! path counts, presence or absence of potential parallelism and of parallel
//! memory accesses) so that the architecture-exploration experiment can be
//! reproduced end to end.
//!
//! # Example
//!
//! ```
//! use cpg_atm::{evaluate, CpuModel, OamMode, OamPlatform};
//!
//! let one_486 = OamPlatform::new(vec![CpuModel::I486], 1);
//! let one_pentium = OamPlatform::new(vec![CpuModel::Pentium], 1);
//! let slow = evaluate(OamMode::FaultManagement, &one_486);
//! let fast = evaluate(OamMode::FaultManagement, &one_pentium);
//! assert!(fast.delay() < slow.delay());
//! ```

mod evaluate;
mod modes;
mod platform;

pub use evaluate::{evaluate, schedule_mode, table2, OamEvaluation};
pub use modes::{build_mode_graph, MappingStrategy, OamMode, BROADCAST_NS};
pub use platform::{CpuModel, OamPlatform};
