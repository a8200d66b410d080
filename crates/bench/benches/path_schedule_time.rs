//! Criterion benchmark behind the paper's claim that list scheduling of an
//! individual path needs "less than 0.003 seconds for graphs having 120
//! nodes": scheduling a single alternative path of 60-, 80- and 120-node
//! graphs.
//!
//! `path_list_scheduling/all_tracks/*` schedules every alternative path of a
//! deep condition nest (`3k` nodes, `k` paths, two processors, one bus —
//! generator seed index 0 of perfbench's `deep_nest` family) through a fresh
//! `ListScheduler`: the graph tables, every track's context and one run per
//! context, the work a cold merge does before its walk.
//!
//! `path_list_scheduling/runs/*` times only the scheduling kernel on the same
//! nests: the scheduler and every track's context are built outside the
//! timed loop, which runs `schedule_with` once per context through one
//! reused `RunScratch`.
//!
//! `path_list_scheduling/refresh/*` re-times every prebuilt context of the
//! same nests with `ListScheduler::refresh`: what a warm merge session does
//! per dirty track where it used to build the context again.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpg::enumerate_tracks;
use cpg_gen::{generate, GeneratedSystem, GeneratorConfig};
use cpg_path_sched::{ListScheduler, RunScratch, TrackContext};

/// The deep condition nest with `paths` alternative paths: `3 * paths`
/// nodes, two processors and one bus, generator seed index 0.
fn deep_nest(paths: usize) -> GeneratedSystem {
    let nodes = 3 * paths;
    let config = GeneratorConfig::new(nodes, paths)
        .with_processors(2)
        .with_buses(1)
        .with_seed((nodes as u64) << 32);
    generate(&config)
}

fn path_schedule_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_list_scheduling");
    for &nodes in &[60usize, 80, 120] {
        let config = GeneratorConfig::new(nodes, 12)
            .with_processors(4)
            .with_buses(2)
            .with_seed(nodes as u64);
        let system = generate(&config);
        let tracks = enumerate_tracks(system.cpg());
        // The longest path exercises the largest number of processes.
        let track = tracks
            .iter()
            .max_by_key(|t| t.len())
            .expect("generated graphs have at least one path")
            .clone();
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &(system, track),
            |b, (system, track)| {
                let scheduler =
                    ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
                b.iter(|| scheduler.schedule_track(track));
            },
        );
    }
    for &paths in &[32usize, 64] {
        let system = deep_nest(paths);
        let tracks = enumerate_tracks(system.cpg());
        group.bench_with_input(
            BenchmarkId::new("all_tracks", paths),
            &(system, tracks),
            |b, (system, tracks)| {
                b.iter(|| {
                    ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time())
                        .schedule_all(tracks)
                });
            },
        );
    }
    for &paths in &[32usize, 64] {
        let system = deep_nest(paths);
        let tracks = enumerate_tracks(system.cpg());
        let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        let contexts: Vec<TrackContext> = tracks.iter().map(|t| scheduler.context(t)).collect();
        let mut scratch = RunScratch::new();
        group.bench_with_input(BenchmarkId::new("runs", paths), &contexts, |b, contexts| {
            b.iter(|| {
                contexts
                    .iter()
                    .map(|context| context.schedule_with(&mut scratch).delay())
                    .max()
            });
        });
    }
    for &paths in &[32usize, 64] {
        let system = deep_nest(paths);
        let tracks = enumerate_tracks(system.cpg());
        let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        let mut contexts: Vec<TrackContext> = tracks.iter().map(|t| scheduler.context(t)).collect();
        group.bench_function(&format!("refresh/{paths}"), |b| {
            b.iter(|| {
                for context in &mut contexts {
                    scheduler.refresh(context);
                }
                contexts.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, path_schedule_time);
criterion_main!(benches);
