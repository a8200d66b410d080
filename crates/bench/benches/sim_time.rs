//! Criterion benchmark of the consumers of a merged table, each over every
//! alternative path, and of the whole pipeline that produces and checks it:
//!
//! * `sim/*` — the run-time simulator, `Simulator::run_all`;
//! * `verify/*` — requirements 1–3, `ScheduleTable::verify`;
//! * `delay/*` — the guaranteed worst-case delay,
//!   `ScheduleTable::worst_case_delay`;
//! * `dispatch/*` — the split into per-processor dispatch tables,
//!   `per_processor_dispatch`;
//! * `pipeline/*` — expand → tracks → merge → verify → delay → simulate,
//!   from the unexpanded graph to the simulated table.
//!
//! Each group runs on two systems:
//!
//! * `wide_120_32` — the widest generated configuration of the paper's
//!   experiments (120 nodes, 32 paths, 4 processors, 2 buses);
//! * `walk_40` — the depth-40 condition nest of `merge_walk/40`, whose
//!   tables have the largest rows.
//!
//! Gated by `bench_guard` against its default baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpg::{enumerate_tracks, expand_communications, BusPolicy};
use cpg_gen::{generate, generate_unexpanded, GeneratedSystem, GeneratorConfig};
use cpg_merge::{
    generate_schedule_table, generate_schedule_table_for_tracks, MergeConfig, MergeResult,
};
use cpg_sim::Simulator;
use cpg_table::per_processor_dispatch;

/// The configurations of the two benchmarked systems.
fn configs() -> [(&'static str, GeneratorConfig); 2] {
    [
        (
            "wide_120_32",
            GeneratorConfig::new(120, 32)
                .with_processors(4)
                .with_buses(2)
                .with_seed(120 * 1000 + 32),
        ),
        (
            "walk_40",
            GeneratorConfig::new(3 * 40, 40)
                .with_processors(2)
                .with_buses(1)
                .with_seed(0xDEE9 + 40),
        ),
    ]
}

/// The two benchmarked systems with their merged tables.
fn systems() -> Vec<(&'static str, GeneratedSystem, MergeResult)> {
    configs()
        .into_iter()
        .map(|(name, config)| {
            let system = generate(&config);
            let result = generate_schedule_table(
                system.cpg(),
                system.arch(),
                &MergeConfig::new(system.broadcast_time()),
            );
            (name, system, result)
        })
        .collect()
}

fn sim_time(c: &mut Criterion) {
    let systems = systems();

    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    for (name, system, result) in &systems {
        group.bench_with_input(BenchmarkId::from_parameter(name), system, |b, system| {
            let simulator = Simulator::new(
                system.cpg(),
                system.arch(),
                result.table(),
                system.broadcast_time(),
            );
            b.iter(|| simulator.run_all(result.tracks()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    for (name, system, result) in &systems {
        group.bench_with_input(BenchmarkId::from_parameter(name), system, |b, system| {
            b.iter(|| result.table().verify(system.cpg(), result.tracks()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("delay");
    group.sample_size(10);
    for (name, system, result) in &systems {
        group.bench_with_input(BenchmarkId::from_parameter(name), system, |b, system| {
            b.iter(|| {
                result
                    .table()
                    .worst_case_delay(system.cpg(), result.tracks())
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    for (name, system, result) in &systems {
        group.bench_with_input(BenchmarkId::from_parameter(name), system, |b, system| {
            b.iter(|| per_processor_dispatch(result.table(), system.cpg(), system.arch()));
        });
    }
    group.finish();
}

/// The whole pipeline on each system, from its unexpanded graph: expand
/// the communications, enumerate the tracks, merge, verify, take `δ_max`
/// and simulate every track.
fn pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (name, config) in configs() {
        let (arch, graph) = generate_unexpanded(&config);
        let merge_config = MergeConfig::new(config.broadcast_time());
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, graph| {
            b.iter(|| {
                let cpg = expand_communications(graph, &arch, BusPolicy::RoundRobin)
                    .expect("generated graphs expand cleanly");
                let tracks = enumerate_tracks(&cpg);
                let result = generate_schedule_table_for_tracks(&cpg, &arch, &merge_config, tracks);
                let verified = result.table().verify(&cpg, result.tracks()).is_ok();
                let delay = result.table().worst_case_delay(&cpg, result.tracks());
                let simulator =
                    Simulator::new(&cpg, &arch, result.table(), config.broadcast_time());
                let clean = simulator.run_all(result.tracks()).iter().all(|r| r.is_ok());
                (verified, delay, clean)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, sim_time, pipeline);
criterion_main!(benches);
