//! Workspace smoke test: `cps::prelude` must cover every public entry point
//! named in the module table of `src/lib.rs`.
//!
//! The module table maps `arch`, `model`, `path_sched`, `table`, `merge`,
//! `sim`, `gen` and `atm` onto the subsystem crates; the prelude re-exports
//! the headline items of each. The checks below are compile-time: `same_type`
//! and `same_fn` only type-check when both paths name the *same* type or
//! function, so dropping or redirecting a re-export breaks this test at
//! build time.

use std::marker::PhantomData;

fn same_type<T>(_: PhantomData<T>, _: PhantomData<T>) {}
fn same_fn<T: Copy>(_: T, _: T) {}

macro_rules! assert_reexported_type {
    ($($prelude:ty = $module:ty),+ $(,)?) => {
        $(same_type(PhantomData::<$prelude>, PhantomData::<$module>);)+
    };
}

#[test]
fn prelude_covers_the_arch_module() {
    assert_reexported_type!(
        cps::prelude::Architecture = cps::arch::Architecture,
        cps::prelude::PeId = cps::arch::PeId,
        cps::prelude::PeKind = cps::arch::PeKind,
        cps::prelude::Time = cps::arch::Time,
    );
}

#[test]
fn prelude_covers_the_model_module() {
    assert_reexported_type!(
        cps::prelude::BusPolicy = cps::model::BusPolicy,
        cps::prelude::CondId = cps::model::CondId,
        cps::prelude::Cpg = cps::model::Cpg,
        cps::prelude::CpgBuilder = cps::model::CpgBuilder,
        cps::prelude::Cube = cps::model::Cube,
        cps::prelude::Guard = cps::model::Guard,
        cps::prelude::Literal = cps::model::Literal,
        cps::prelude::ProcessId = cps::model::ProcessId,
        cps::prelude::ProcessKind = cps::model::ProcessKind,
        cps::prelude::Track = cps::model::Track,
        cps::prelude::TrackSet = cps::model::TrackSet,
    );
    same_fn(cps::prelude::enumerate_tracks, cps::model::enumerate_tracks);
    same_fn(
        cps::prelude::expand_communications,
        cps::model::expand_communications,
    );
}

#[test]
fn prelude_covers_the_path_sched_module() {
    assert_reexported_type!(
        cps::prelude::Job = cps::path_sched::Job,
        cps::prelude::ListScheduler<'static> = cps::path_sched::ListScheduler<'static>,
        cps::prelude::PathSchedule = cps::path_sched::PathSchedule,
    );
}

#[test]
fn prelude_covers_the_table_module() {
    assert_reexported_type!(
        cps::prelude::ScheduleTable = cps::table::ScheduleTable,
        cps::prelude::TableViolation = cps::table::TableViolation,
    );
}

#[test]
fn prelude_covers_the_merge_module() {
    assert_reexported_type!(
        cps::prelude::MergeConfig = cps::merge::MergeConfig,
        cps::prelude::MergeResult = cps::merge::MergeResult,
        cps::prelude::SelectionPolicy = cps::merge::SelectionPolicy,
    );
    same_fn(
        cps::prelude::generate_schedule_table,
        cps::merge::generate_schedule_table,
    );
}

#[test]
fn prelude_covers_the_sim_module() {
    assert_reexported_type!(
        cps::prelude::SimViolation = cps::sim::SimViolation,
        cps::prelude::SimulationReport = cps::sim::SimulationReport,
        cps::prelude::Simulator<'static> = cps::sim::Simulator<'static>,
    );
}

#[test]
fn prelude_covers_the_gen_module() {
    assert_reexported_type!(cps::prelude::GeneratorConfig = cps::gen::GeneratorConfig,);
    same_fn(cps::prelude::generate, cps::gen::generate);
}

#[test]
fn prelude_covers_the_atm_module() {
    assert_reexported_type!(
        cps::prelude::CpuModel = cps::atm::CpuModel,
        cps::prelude::OamMode = cps::atm::OamMode,
        cps::prelude::OamPlatform = cps::atm::OamPlatform,
    );
}

/// The prelude alone must be enough to drive the full pipeline of the
/// quick-start: build an architecture, generate a system, produce a table,
/// verify it and simulate every scenario.
#[test]
fn prelude_drives_the_full_pipeline() {
    use cps::prelude::*;

    let config = GeneratorConfig::new(20, 4).with_seed(7);
    let system = generate(&config);
    let result = generate_schedule_table(
        system.cpg(),
        system.arch(),
        &MergeConfig::new(system.broadcast_time()),
    );
    result
        .table()
        .verify(system.cpg(), result.tracks())
        .expect("generated table satisfies requirements 1-3");
    let simulator = Simulator::new(
        system.cpg(),
        system.arch(),
        result.table(),
        system.broadcast_time(),
    );
    assert!(simulator.run_all(result.tracks()).iter().all(|r| r.is_ok()));
    assert!(result.delta_max() >= result.delta_m());
}
