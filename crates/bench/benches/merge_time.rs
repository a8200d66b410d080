//! Criterion benchmark behind the paper's Fig. 6: execution time of the
//! schedule-merging (table generation) algorithm as a function of the number
//! of merged schedules and of the graph size.
//!
//! The merge runs on one thread, so every median is core-count-independent
//! and `bench_guard` gates it:
//!
//! * `schedule_merging_serial/*` — the wide generated systems; the name is
//!   kept so the trajectory stays comparable against every committed
//!   baseline since `BENCH_2.json`;
//! * `merge_walk/*` — deep condition nests, where the decision-tree walk
//!   dominates;
//! * `merge_rewalk/*` — cold versus warm incremental re-merges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpg::{enumerate_tracks, SystemEdit};
use cpg_arch::Time;
use cpg_gen::{generate, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig, MergeSession};

const NODES: [usize; 3] = [60, 80, 120];
const PATHS: [usize; 3] = [10, 18, 32];

fn schedule_merging_group(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_merging_serial");
    group.sample_size(10);
    for &nodes in &NODES {
        for &paths in &PATHS {
            let config = GeneratorConfig::new(nodes, paths)
                .with_processors(4)
                .with_buses(2)
                .with_seed((nodes * 1000 + paths) as u64);
            let system = generate(&config);
            let merge_config = MergeConfig::new(system.broadcast_time());
            group.bench_with_input(
                BenchmarkId::new(format!("{nodes}_nodes"), paths),
                &system,
                |b, system| {
                    b.iter(|| generate_schedule_table(system.cpg(), system.arch(), &merge_config));
                },
            );
        }
    }
    group.finish();
}

/// Deep-condition-nest configurations: many alternative paths over few
/// processes on a narrow architecture, so the decision tree is deep while
/// the per-track schedules stay small — the *sequential walk* (placements,
/// adjustments, repairs along the tree), not the per-track runs, is what
/// dominates. This is the trajectory that gates the chain walk: a
/// regression in its pool management shows up here long before the
/// wide `schedule_merging_serial/*` configurations notice.
// Depth 40 has the deepest nest and hence the largest table rows, so it is
// the configuration most sensitive to the cost of a row scan.
const WALK_DEPTHS: [usize; 4] = [16, 24, 32, 40];

fn merge_walk_group(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_walk");
    group.sample_size(10);
    for &paths in &WALK_DEPTHS {
        let config = GeneratorConfig::new(3 * paths, paths)
            .with_processors(2)
            .with_buses(1)
            .with_seed(0xDEE9 + paths as u64);
        let system = generate(&config);
        let merge_config = MergeConfig::new(system.broadcast_time());
        group.bench_with_input(BenchmarkId::from_parameter(paths), &system, |b, system| {
            b.iter(|| generate_schedule_table(system.cpg(), system.arch(), &merge_config));
        });
    }
    group.finish();
}

/// Per-depth generator seeds for `merge_rewalk/*`, chosen (by an offline
/// seed sweep) so the system has a process on a *single* alternative path or
/// two: its WCET edit dirties the smallest possible subtree, making the
/// warm/cold gap a property of the replay machinery rather than of the
/// random tree shape. Plain sequential seeds mostly produce trees whose
/// rarest process still sits on a third of the paths, which caps the
/// replayable fraction structurally.
const REWALK_SEEDS: [(usize, u64); 3] = [(16, 0x66EE8), (24, 0x66EE8), (32, 0x66EF8)];

/// Incremental re-merge on the deep-condition-nest systems: `cold/*` pays a
/// full merge of the edited system per iteration (what a session-less caller
/// does after every WCET tweak), `warm/*` keeps a [`MergeSession`] across
/// iterations so every decision subtree outside the edit's scope replays
/// from its cached logs. The warm/cold ratio comes from work avoidance
/// alone, and both produce bit-identical tables (pinned by the differential
/// tests). Gated by `bench_guard`. A cold merge is a fresh session's first
/// merge, so `cold/*` also pays for recording every chain.
fn merge_rewalk_group(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_rewalk");
    group.sample_size(10);
    for &(paths, seed) in &REWALK_SEEDS {
        let config = GeneratorConfig::new(3 * paths, paths)
            .with_processors(2)
            .with_buses(1)
            .with_seed(seed);
        let system = generate(&config);
        let merge_config = MergeConfig::new(system.broadcast_time());

        // The edited process: an ordinary process on the fewest alternative
        // paths — deep in the decision tree, so a WCET tweak invalidates a
        // small subtree while the bulk of the tree replays. Among those
        // candidates, a deterministic pilot (reuse counters of a real warm
        // merge, no timing involved) picks the one whose edits keep the most
        // chains replayable: membership only bounds the *dirty* chain count,
        // while the serial position of the dirty chains decides how many
        // clean chains behind them survive read validation. The edit
        // alternates between two close execution times to keep every
        // iteration's work comparable.
        let tracks = enumerate_tracks(system.cpg());
        let min_membership = system
            .cpg()
            .ordinary_processes()
            .map(|p| tracks.iter().filter(|t| t.contains(p)).count())
            .min()
            .expect("generated systems have ordinary processes");
        let process = system
            .cpg()
            .ordinary_processes()
            .filter(|&p| tracks.iter().filter(|t| t.contains(p)).count() == min_membership)
            .max_by_key(|&p| {
                let mut pilot = MergeSession::new(system.cpg(), system.arch(), &merge_config);
                pilot.merge();
                let base = system.cpg().exec_time(p);
                let mut worst = usize::MAX;
                for time in [base + Time::new(1), base] {
                    pilot
                        .apply_edit(&SystemEdit::ExecTime { process: p, time })
                        .expect("ordinary processes are editable");
                    pilot.merge();
                    worst = worst.min(pilot.reuse_stats().chains_replayed);
                }
                worst
            })
            .expect("generated systems have ordinary processes");
        let base_time = system.cpg().exec_time(process);

        group.bench_with_input(BenchmarkId::new("cold", paths), &system, |b, system| {
            let mut cpg = system.cpg().clone();
            let mut bump = false;
            b.iter(|| {
                bump = !bump;
                let time = if bump {
                    base_time + Time::new(1)
                } else {
                    base_time
                };
                cpg.set_exec_time(process, time)
                    .expect("ordinary processes are editable");
                generate_schedule_table(&cpg, system.arch(), &merge_config)
            });
        });
        group.bench_with_input(BenchmarkId::new("warm", paths), &system, |b, system| {
            let mut session = MergeSession::new(system.cpg(), system.arch(), &merge_config);
            session.merge();
            let mut bump = false;
            b.iter(|| {
                bump = !bump;
                let time = if bump {
                    base_time + Time::new(1)
                } else {
                    base_time
                };
                session
                    .apply_edit(&SystemEdit::ExecTime { process, time })
                    .expect("ordinary processes are editable");
                session.merge()
            });
        });
    }
    group.finish();
}

fn merge_time(c: &mut Criterion) {
    schedule_merging_group(c);
    merge_walk_group(c);
    merge_rewalk_group(c);
}

criterion_group!(benches, merge_time);
criterion_main!(benches);
