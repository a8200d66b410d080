//! Coverage-driven adversarial workload fuzzer for the merge stack.
//!
//! Random workload sampling (`cpg-gen`) exercises the scheduler on *typical*
//! systems; this crate hunts the atypical ones. Its coverage signal is not
//! code coverage but the merger's own behavior: the counters of
//! [`MergeStats`](cpg_merge::MergeStats) (tree nodes, adjustments, repairs,
//! slips, walk depth, repair rounds) quantized into a [`Signature`] — a cell
//! in behavior space. Workloads whose mutated offspring land in fresh cells
//! are retained and mutated further, so the search gravitates toward inputs
//! that make the merger do *new things*: deep decision trees, repair storms,
//! degraded outcomes, typed rejections of every flavour.
//!
//! The pieces:
//!
//! * [`behavior`] — [`BehaviorVector`], its quantized [`Signature`] and the
//!   novelty archive;
//! * [`oracle`] — the differential battery ([`run_oracles`]) of five
//!   oracles: no-panic, typed input validation, the clone-based walk,
//!   warm-vs-cold session replay and "simulates clean";
//! * [`fuzz`](mod@fuzz) — the mutation loop ([`fuzz()`](fuzz::fuzz)) and the ddmin
//!   offender reducers;
//! * [`corpus`] — the `key: value` on-disk format for banked workloads
//!   (`tests/corpus/adversarial/`).
//!
//! Workloads themselves (mutation operators, deterministic
//! re-materialization) live in [`cpg_gen::Workload`] so the generator owns
//! reproducibility; this crate owns the search and the oracles. The fuzzer
//! reads no environment variables — every run is reproducible from its
//! printed seed.

pub mod behavior;
pub mod corpus;
pub mod fuzz;
pub mod oracle;

pub use behavior::{BehaviorVector, NoveltyArchive, Signature, SIGNATURE_LEN};
pub use fuzz::{
    fuzz, shrink_failure, shrink_preserving_signature, BehaviorEntry, FailureEntry, FuzzConfig,
    FuzzReport,
};
pub use oracle::{run_oracles, simulates_clean, OracleFailure, OracleKind};
