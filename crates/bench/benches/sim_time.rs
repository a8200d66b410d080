//! Criterion benchmark of the run-time simulator: `Simulator::run_all` over
//! every alternative path of a merged table.
//!
//! * `sim/wide_120_32` — the widest generated configuration of the paper's
//!   experiments (120 nodes, 32 paths, 4 processors, 2 buses);
//! * `sim/walk_40` — the depth-40 condition nest of `merge_walk/40`, whose
//!   tables have the largest rows.
//!
//! Gated by `bench_guard` against `BENCH_8.json`.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpg_gen::{generate, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig};
use cpg_sim::Simulator;

fn sim_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    let systems = [
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
    ];
    for (name, config) in systems {
        let system = generate(&config);
        let result = generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), &system, |b, system| {
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
}

criterion_group!(benches, sim_time);
criterion_main!(benches);
