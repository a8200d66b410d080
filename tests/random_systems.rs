//! Integration tests over randomly generated systems: the invariants of the
//! scheduling pipeline must hold for every graph the Section 6 workload
//! generator can produce.

use cps::model::enumerate_tracks;
use cps::prelude::*;

/// A spread of generator configurations covering the experiment space
/// (sizes, path counts, architectures, distributions) at reduced scale.
fn sample_configs() -> Vec<GeneratorConfig> {
    let mut configs = Vec::new();
    for (i, (nodes, paths)) in [(30, 10), (45, 12), (60, 18), (60, 24), (80, 32)]
        .into_iter()
        .enumerate()
    {
        for procs in [1, 3, 6] {
            configs.push(
                GeneratorConfig::new(nodes, paths)
                    .with_processors(procs)
                    .with_buses(1 + i % 3)
                    .with_seed(1000 + (i * 10 + procs) as u64),
            );
        }
    }
    configs
}

#[test]
fn generated_tables_satisfy_the_static_requirements() {
    for config in sample_configs() {
        let system = generate(&config);
        let result = generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        );
        result
            .table()
            .verify(system.cpg(), result.tracks())
            .unwrap_or_else(|violations| {
                panic!(
                    "requirements violated for seed {}: {:?}",
                    config.seed(),
                    violations
                )
            });
        assert_eq!(
            result.stats().unrepaired_conflicts,
            0,
            "unrepaired conflicts for seed {}",
            config.seed()
        );
        assert!(result.delta_max() >= Time::ZERO);
    }
}

#[test]
fn generated_tables_execute_cleanly_and_match_their_analytical_delay() {
    for config in sample_configs().into_iter().step_by(2) {
        let system = generate(&config);
        let result = generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        );
        let simulator = Simulator::new(
            system.cpg(),
            system.arch(),
            result.table(),
            system.broadcast_time(),
        );
        let reports = simulator.run_all(result.tracks());
        for report in &reports {
            assert!(
                report.is_ok(),
                "seed {}: violations {:?}",
                config.seed(),
                report.violations()
            );
        }
        let observed = reports.iter().map(SimulationReport::delay).max().unwrap();
        assert_eq!(observed, result.delta_max(), "seed {}", config.seed());
    }
}

#[test]
fn per_path_schedules_are_feasible_and_bound_the_table_delays() {
    for config in sample_configs().into_iter().step_by(3) {
        let system = generate(&config);
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        let result = generate_schedule_table(
            cpg,
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        );
        let seed = config.seed();
        // The merge reports the individual schedule of every path.
        for (i, track) in tracks.iter().enumerate() {
            let schedule = scheduler.schedule_track(track);
            schedule.verify(cpg, system.arch()).unwrap();
            assert_eq!(result.path_schedules()[i], schedule, "seed {seed}");
        }
        // The longest of them is δ_M, which bounds the table's worst case
        // from below; δ_max is the table's own worst-case delay.
        let longest = result
            .path_schedules()
            .iter()
            .map(PathSchedule::delay)
            .max()
            .unwrap();
        assert_eq!(longest, result.delta_m(), "seed {seed}");
        assert!(result.delta_m() <= result.delta_max(), "seed {seed}");
        assert_eq!(
            result.delta_max(),
            result.table().worst_case_delay(cpg, &tracks),
            "seed {seed}"
        );
    }
}

#[test]
fn track_count_is_independent_of_the_architecture() {
    // The control structure of the application fixes the number of
    // alternative paths; the mapping and architecture only affect timing.
    for paths in [10usize, 18, 32] {
        let mut counts = Vec::new();
        for procs in [1usize, 4, 8] {
            let config = GeneratorConfig::new(70, paths)
                .with_processors(procs)
                .with_seed(7_000 + paths as u64);
            let system = generate(&config);
            counts.push(enumerate_tracks(system.cpg()).len());
        }
        assert!(counts.iter().all(|&c| c == paths), "{counts:?}");
    }
}

#[test]
fn more_processors_never_increase_the_lower_bound_dramatically() {
    // Sanity of the workload: adding processors to the same application
    // (same seed ⇒ same graph shape and execution times) should never blow
    // up the longest-path delay; it usually decreases it.
    for seed in [11u64, 22, 33] {
        let small = generate(
            &GeneratorConfig::new(50, 12)
                .with_processors(1)
                .with_seed(seed),
        );
        let large = generate(
            &GeneratorConfig::new(50, 12)
                .with_processors(6)
                .with_seed(seed),
        );
        let delay = |system: &cps::gen::GeneratedSystem| {
            generate_schedule_table(
                system.cpg(),
                system.arch(),
                &MergeConfig::new(system.broadcast_time()),
            )
            .delta_max()
        };
        let single = delay(&small);
        let multi = delay(&large);
        assert!(
            multi <= single + Time::new(single.as_u64() / 2),
            "seed {seed}: {multi} much worse than {single}"
        );
    }
}
