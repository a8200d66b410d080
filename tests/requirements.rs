//! The four correctness requirements of Section 3 of the paper, tested one by
//! one against generated schedule tables.
//!
//! 1. A process is never activated in a column whose expression does not
//!    guarantee its guard.
//! 2. Alternative activation times of the same process sit in mutually
//!    exclusive columns (the run-time decision is deterministic).
//! 3. Whenever a guard becomes true during an execution, the process has an
//!    applicable activation time.
//! 4. An activation decision at time `t` on processing element `M(Pi)` uses
//!    only condition values already determined and known on `M(Pi)` at `t`.

use cps::model::examples;
use cps::prelude::*;

fn systems() -> Vec<examples::ExampleSystem> {
    vec![
        examples::diamond(),
        examples::sensor_actuator(),
        examples::fig1(),
    ]
}

fn merge(system: &examples::ExampleSystem) -> MergeResult {
    generate_schedule_table(
        system.cpg(),
        system.arch(),
        &MergeConfig::new(system.broadcast_time()),
    )
}

#[test]
fn requirement_1_every_column_implies_the_guard_of_its_row() {
    for system in systems() {
        let result = merge(&system);
        for (job, column, _) in result.table().all_entries() {
            let guard = match job {
                Job::Process(pid) => system.cpg().guard(pid).clone(),
                Job::Broadcast(cond) => system
                    .cpg()
                    .guard(system.cpg().disjunction_of(cond))
                    .clone(),
            };
            assert!(
                guard.implied_by(&column),
                "{job} activated under `{column}` although its guard is `{guard}`"
            );
        }
    }
}

#[test]
fn requirement_2_alternative_times_live_in_exclusive_columns() {
    for system in systems() {
        let result = merge(&system);
        for job in result.table().jobs() {
            let entries: Vec<(Cube, Time)> = result.table().entries(job).collect();
            for (i, (first_col, first_time)) in entries.iter().enumerate() {
                for (second_col, second_time) in entries.iter().skip(i + 1) {
                    if first_time != second_time {
                        assert!(
                            first_col.excludes(second_col),
                            "{job}: {first_time} under `{first_col}` and {second_time} under `{second_col}` can both apply"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn requirement_3_every_true_guard_gets_an_activation() {
    for system in systems() {
        let result = merge(&system);
        for track in result.tracks().iter() {
            for pid in system.cpg().schedulable_processes() {
                let applies = system.cpg().guard(pid).implied_by(&track.label());
                let activation = result.table().activation(Job::Process(pid), &track.label());
                if applies {
                    assert!(
                        activation.is_some(),
                        "{} must be activated on {}",
                        system.cpg().process(pid).name(),
                        system.cpg().display_cube(&track.label())
                    );
                } else {
                    assert!(
                        activation.is_none(),
                        "{} must not be activated on {}",
                        system.cpg().process(pid).name(),
                        system.cpg().display_cube(&track.label())
                    );
                }
            }
        }
    }
}

#[test]
fn requirement_4_decisions_use_only_locally_known_conditions() {
    // Checked operationally: the simulator replays every execution with the
    // distributed-scheduler semantics and reports any activation whose column
    // refers to a condition not yet known on the local processing element.
    for system in systems() {
        let result = merge(&system);
        let simulator = Simulator::new(
            system.cpg(),
            system.arch(),
            result.table(),
            system.broadcast_time(),
        );
        for report in simulator.run_all(result.tracks()) {
            assert!(
                !report.violations().iter().any(|violation| matches!(
                    violation,
                    SimViolation::ConditionNotKnownLocally { .. }
                )),
                "requirement 4 violated on {}: {:?}",
                system.cpg().display_cube(&report.label()),
                report.violations()
            );
        }
    }
}

#[test]
fn condition_values_are_broadcast_after_their_disjunction_process() {
    // The communication strategy of Section 3: after a disjunction process
    // terminates, the value is broadcast to all other processors on the first
    // available bus; the broadcast time is the same for all conditions.
    for system in systems() {
        if system.arch().computation_elements().count() < 2 {
            continue;
        }
        let result = merge(&system);
        for track in result.tracks().iter() {
            for cond in track.determined_conditions() {
                let broadcast = result
                    .table()
                    .activation(Job::Broadcast(cond), &track.label())
                    .expect("every determined condition is broadcast")
                    .time;
                let disjunction = result
                    .table()
                    .activation(
                        Job::Process(system.cpg().disjunction_of(cond)),
                        &track.label(),
                    )
                    .expect("the disjunction process is scheduled")
                    .time;
                let termination =
                    disjunction + system.cpg().exec_time(system.cpg().disjunction_of(cond));
                assert!(
                    broadcast >= termination,
                    "broadcast of {} at {broadcast} precedes its disjunction termination {termination}",
                    system.cpg().condition_name(cond)
                );
            }
        }
    }
}
