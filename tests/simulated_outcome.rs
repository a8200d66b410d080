//! The merge's verdict is what running its table shows.
//!
//! Two systems the end-to-end benchmark builds — generated unexpanded, then
//! expanded with round-robin bus assignment — get tables that pass `verify`
//! yet make two locked jobs collide on one processor when the run-time
//! schedulers execute them. The merge simulates its finished table, so it
//! must report them as degraded, with `lock_slips` equal to the simulated
//! violation total, instead of calling them realizable.

use cpg_gen::{generate_unexpanded, paper_suite};
use cpg_merge::MergeOutcome;
use cps::prelude::*;

/// Builds and merges a system the way the end-to-end benchmark does, and
/// checks the verdict against a simulation of the table.
fn assert_degraded_by_the_simulation(config: &GeneratorConfig) {
    let seed = config.seed();
    let (arch, graph) = generate_unexpanded(config);
    let cpg = expand_communications(&graph, &arch, BusPolicy::RoundRobin).unwrap();
    let tau0 = config.broadcast_time();
    let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(tau0));

    result
        .table()
        .verify(&cpg, result.tracks())
        .unwrap_or_else(|violations| panic!("{seed:#x}: {violations:?}"));
    assert!(
        matches!(result.outcome(), MergeOutcome::Degraded { .. }),
        "{seed:#x}: outcome {:?}",
        result.outcome()
    );

    let violations: usize = Simulator::new(&cpg, &arch, result.table(), tau0)
        .run_all(result.tracks())
        .iter()
        .map(|report| report.violations().len())
        .sum();
    assert!(violations > 0, "{seed:#x}: the table simulates clean");
    assert_eq!(result.stats().lock_slips, violations, "{seed:#x}");
}

#[test]
fn a_paper_suite_table_that_collides_is_degraded() {
    let config = paper_suite(360)
        .into_iter()
        .find(|c| c.seed() == 0x3C_0000_0087)
        .expect("the seed belongs to the suite");
    assert_degraded_by_the_simulation(&config);
}

#[test]
fn a_deep_nest_table_that_collides_is_degraded() {
    let config = GeneratorConfig::new(144, 48)
        .with_processors(2)
        .with_buses(1)
        .with_seed(0x90_0000_0004);
    assert_degraded_by_the_simulation(&config);
}
