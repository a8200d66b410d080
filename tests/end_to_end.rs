//! End-to-end integration tests: the full pipeline (model → path scheduling →
//! merging → verification → simulation) on the example systems.

use cps::model::examples;
use cps::prelude::*;

fn pipeline(system: &examples::ExampleSystem) -> MergeResult {
    generate_schedule_table(
        system.cpg(),
        system.arch(),
        &MergeConfig::new(system.broadcast_time()),
    )
}

#[test]
fn fig1_pipeline_produces_a_correct_and_tight_table() {
    let system = examples::fig1();
    let result = pipeline(&system);

    // Structure of the example matches the paper.
    assert_eq!(result.tracks().len(), 6);
    assert_eq!(system.cpg().ordinary_processes().count(), 17);
    assert_eq!(system.cpg().communication_processes().count(), 14);

    // Static checks: requirements 1-3.
    result
        .table()
        .verify(system.cpg(), result.tracks())
        .expect("requirements 1-3 hold");

    // Dynamic checks: requirement 4 plus feasibility, via the simulator.
    let simulator = Simulator::new(
        system.cpg(),
        system.arch(),
        result.table(),
        system.broadcast_time(),
    );
    let reports = simulator.run_all(result.tracks());
    assert!(reports.iter().all(SimulationReport::is_ok));

    // The analytical worst case is what the simulator observes, and the
    // longest path keeps its optimal delay (the headline property of the
    // merging strategy; the paper obtains delta_max = delta_M for Fig. 1).
    let observed = reports.iter().map(|r| r.delay()).max().unwrap();
    assert_eq!(observed, result.delta_max());
    assert_eq!(result.delta_max(), result.delta_m());
}

#[test]
fn every_example_system_round_trips_through_the_pipeline() {
    for system in [
        examples::diamond(),
        examples::sensor_actuator(),
        examples::fig1(),
    ] {
        let result = pipeline(&system);
        result
            .table()
            .verify(system.cpg(), result.tracks())
            .expect("requirements 1-3 hold");
        assert_eq!(result.stats().unrepaired_conflicts, 0);

        let simulator = Simulator::new(
            system.cpg(),
            system.arch(),
            result.table(),
            system.broadcast_time(),
        );
        for (track, schedule) in result.tracks().iter().zip(result.path_schedules()) {
            // Individual path schedules are feasible.
            schedule.verify(system.cpg(), system.arch()).unwrap();
            // The table can never beat the per-path schedule's own delay by
            // more than the slack the heuristic left (i.e. it is a real
            // schedule for that path).
            let report = simulator.run(&track.label());
            assert!(report.is_ok(), "violations: {:?}", report.violations());
            assert_eq!(
                report.delay(),
                result.table().track_delay(system.cpg(), &track.label())
            );
        }
    }
}

#[test]
fn table_activation_times_are_deterministic_per_scenario() {
    let system = examples::fig1();
    let result = pipeline(&system);
    // For every alternative path and every process on it there is exactly one
    // applicable activation time (requirement 2 + 3 combined, queried through
    // the public API).
    for track in result.tracks().iter() {
        for &pid in track.processes() {
            if system.cpg().process(pid).kind().is_dummy() {
                continue;
            }
            let time = result.table().activation(Job::Process(pid), &track.label());
            assert!(
                time.is_some(),
                "{} has no activation on {}",
                system.cpg().process(pid).name(),
                system.cpg().display_cube(&track.label())
            );
        }
    }
}

#[test]
fn merged_table_is_robust_to_the_broadcast_time() {
    let system = examples::sensor_actuator();
    let mut last_delay = Time::ZERO;
    for tau0 in [0u64, 1, 2, 4, 8] {
        let result = generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(Time::new(tau0)),
        );
        result
            .table()
            .verify(system.cpg(), result.tracks())
            .expect("requirements hold for every tau0");
        // Larger broadcast times can only increase the worst case.
        assert!(result.delta_max() >= last_delay);
        last_delay = result.delta_max();
    }
}

#[test]
fn baseline_and_merged_tables_agree_on_unconditional_processes() {
    let system = examples::diamond();
    let merged = pipeline(&system);
    let baseline =
        condition_oblivious_baseline(system.cpg(), system.arch(), system.broadcast_time());
    // Both schedulers place the unconditional root process at time zero.
    let decide = system.cpg().process_by_name("decide").unwrap();
    assert_eq!(
        baseline.table().get(Job::Process(decide), &Cube::top()),
        Some(Time::ZERO)
    );
    assert_eq!(
        merged
            .table()
            .activation(Job::Process(decide), &merged.tracks().tracks()[0].label())
            .map(|activation| activation.time),
        Some(Time::ZERO)
    );
}

#[test]
fn umbrella_modules_expose_every_subsystem() {
    // Spot-check that the re-exported module hierarchy is usable as shown in
    // the README.
    let arch: cps::arch::Architecture = cps::arch::Architecture::builder()
        .processor("p")
        .build()
        .unwrap();
    assert_eq!(arch.len(), 1);
    let system = cps::model::examples::diamond();
    assert_eq!(cps::model::enumerate_tracks(system.cpg()).len(), 2);
    let _table = cps::table::ScheduleTable::new();
    let _config = cps::merge::MergeConfig::default();
    let _gen = cps::gen::GeneratorConfig::new(10, 2);
    assert_eq!(cps::atm::OamMode::Monitoring.process_count(), 32);
}
