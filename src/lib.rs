//! `cps` — Conditional Process Scheduling: an umbrella crate bundling the
//! reproduction of Eles, Kuchcinski, Peng, Doboli and Pop, *"Scheduling of
//! Conditional Process Graphs for the Synthesis of Embedded Systems"*
//! (DATE 1998).
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports them under stable module names so that applications (and the
//! examples and integration tests of this repository) need a single
//! dependency:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`arch`] | `cpg-arch` | target architecture: processors, ASICs, buses, time |
//! | [`model`] | `cpg` | condition algebra, conditional process graph, tracks |
//! | [`path_sched`] | `cpg-path-sched` | list scheduling of individual alternative paths |
//! | [`table`] | `cpg-table` | schedule table, correctness requirements, `δ_max` |
//! | [`merge`] | `cpg-merge` | schedule merging / table generation (the paper's contribution) |
//! | [`sim`] | `cpg-sim` | run-time simulator of schedule tables |
//! | [`gen`] | `cpg-gen` | random workload generator of Section 6 |
//! | [`atm`] | `cpg-atm` | ATM OAM (F4) real-life example of Table 2 |
//!
//! # Quick start
//!
//! ```
//! use cps::prelude::*;
//!
//! // A two-processor platform with a shared bus.
//! let arch = Architecture::builder()
//!     .processor("cpu0")
//!     .processor("cpu1")
//!     .bus("bus")
//!     .build()?;
//! let cpu0 = arch.pe_by_name("cpu0").unwrap();
//! let cpu1 = arch.pe_by_name("cpu1").unwrap();
//!
//! // An application whose control flow depends on a run-time condition.
//! let mut builder = Cpg::builder();
//! let c = builder.condition("obstacle");
//! let sense = builder.process("sense", Time::new(2), cpu0);
//! let brake = builder.process("brake", Time::new(4), cpu1);
//! let cruise = builder.process("cruise", Time::new(3), cpu0);
//! builder.conditional_edge(sense, brake, c.is_true(), Time::new(1));
//! builder.conditional_edge(sense, cruise, c.is_false(), Time::new(0));
//! let cpg = builder.build(&arch)?;
//! let cpg = expand_communications(&cpg, &arch, BusPolicy::FirstBus)?;
//!
//! // Generate the schedule table and check it end to end.
//! let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(Time::new(1)));
//! result.table().verify(&cpg, result.tracks()).expect("table is correct");
//! let sim = Simulator::new(&cpg, &arch, result.table(), Time::new(1));
//! assert!(sim.run_all(result.tracks()).iter().all(|r| r.is_ok()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// Target architecture model (re-export of `cpg-arch`).
pub mod arch {
    pub use cpg_arch::*;
}

/// Conditional process graph model (re-export of `cpg`).
pub mod model {
    pub use cpg::*;
}

/// List scheduling of individual alternative paths (re-export of
/// `cpg-path-sched`).
pub mod path_sched {
    pub use cpg_path_sched::*;
}

/// Schedule table and correctness requirements (re-export of `cpg-table`).
pub mod table {
    pub use cpg_table::*;
}

/// Schedule merging / table generation (re-export of `cpg-merge`).
pub mod merge {
    pub use cpg_merge::*;
}

/// Run-time simulation of schedule tables (re-export of `cpg-sim`).
pub mod sim {
    pub use cpg_sim::*;
}

/// Random workload generation (re-export of `cpg-gen`).
pub mod gen {
    pub use cpg_gen::*;
}

/// ATM OAM real-life example (re-export of `cpg-atm`).
pub mod atm {
    pub use cpg_atm::*;
}

/// The most commonly used items of every subsystem, for glob import.
pub mod prelude {
    pub use cpg::{
        enumerate_tracks, expand_communications, BusPolicy, CondId, Cpg, CpgBuilder, Cube,
        EditError, EditScope, Guard, Literal, ProcessId, ProcessKind, SystemEdit, Track, TrackSet,
    };
    pub use cpg_arch::{Architecture, PeId, PeKind, Time};
    pub use cpg_atm::{CpuModel, OamMode, OamPlatform};
    pub use cpg_gen::{generate, GeneratorConfig};
    pub use cpg_merge::{
        generate_schedule_table, MergeConfig, MergeResult, MergeSession, ReuseStats,
        SelectionPolicy,
    };
    pub use cpg_path_sched::{
        Job, ListScheduler, LockSet, PathSchedule, RunScratch, SlippedLock, TrackContext,
    };
    pub use cpg_sim::{SimViolation, SimulationReport, Simulator};
    pub use cpg_table::{ScheduleTable, TableViolation};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        let system = cpg::examples::diamond();
        let result = generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        );
        assert!(result.delta_max() >= result.delta_m());
    }
}
