//! Determinism contract of the fork-join merge: for any thread count, the
//! table-generation algorithm produces a `MergeResult` that is *identical* —
//! table cells and recorded resources, per-path schedules, slips, decision
//! steps, counters and delays — to the serial run.
//!
//! The embarrassingly parallel phases (per-track contexts, initial path
//! schedules, the final realizability sweep) reduce by track index around
//! the one serial decision-tree walk, so any divergence here flags a
//! scheduling decision that leaked through worker-local state (e.g. a
//! scratch arena not fully reset between the tracks a worker draws).

use proptest::prelude::*;

use cps::merge::MergeStats;
use cps::prelude::*;

/// Generator configurations spanning conditional structure and architecture
/// shape; kept close to `tests/differential_scheduler.rs` so the two suites
/// explore the same system space.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (
        12usize..40,
        2usize..9,
        1usize..5,
        1usize..4,
        any::<u64>(),
        prop::bool::ANY,
    )
        .prop_map(|(nodes, paths, processors, buses, seed, exponential)| {
            let distribution = if exponential {
                cps::gen::ExecTimeDistribution::Exponential { mean: 7.0 }
            } else {
                cps::gen::ExecTimeDistribution::Uniform { min: 1, max: 15 }
            };
            GeneratorConfig::new(nodes.max(3 * paths), paths)
                .with_processors(processors)
                .with_buses(buses)
                .with_distribution(distribution)
                .with_seed(seed)
        })
}

/// Field-wise equality of two merge results (`MergeResult` deliberately does
/// not implement `PartialEq`; comparing the pieces gives usable failure
/// messages).
fn assert_results_identical(
    serial: &MergeResult,
    parallel: &MergeResult,
    threads: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(
        serial.table() == parallel.table(),
        "table diverged at {threads} threads"
    );
    prop_assert_eq!(serial.tracks(), parallel.tracks());
    prop_assert!(
        serial.path_schedules() == parallel.path_schedules(),
        "path schedules diverged at {threads} threads"
    );
    prop_assert_eq!(serial.delta_m(), parallel.delta_m());
    prop_assert_eq!(serial.delta_max(), parallel.delta_max());
    prop_assert_eq!(serial.steps(), parallel.steps());
    let (serial_stats, parallel_stats): (MergeStats, MergeStats) =
        (serial.stats(), parallel.stats());
    prop_assert!(
        serial_stats == parallel_stats,
        "stats diverged at {threads} threads: {serial_stats:?} vs {parallel_stats:?}"
    );
    Ok(())
}

proptest! {
    // Pinned case count and shrink budget: CI runs must be deterministic and
    // fast regardless of PROPTEST_CASES / PROPTEST_MAX_SHRINK_ITERS in the
    // environment.
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn merge_is_identical_across_thread_counts(config in config_strategy()) {
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        // Tracing on so the recorded decision steps are compared too.
        let base = MergeConfig::new(system.broadcast_time()).with_trace(true);

        let serial = generate_schedule_table(cpg, arch, &base.with_threads(1));
        serial.table().verify(cpg, serial.tracks()).expect("serial table is correct");

        for threads in [2usize, 4, 8] {
            let parallel = generate_schedule_table(cpg, arch, &base.with_threads(threads));
            assert_results_identical(&serial, &parallel, threads)?;
        }
    }

    #[test]
    fn selection_policies_stay_deterministic_under_threads(config in config_strategy()) {
        // The reduction must be order-stable for every selection policy, not
        // just the paper's default (ties in `select_track` are broken by
        // track index, which a nondeterministic reduction would scramble).
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        for policy in [
            SelectionPolicy::ShortestDelayFirst,
            SelectionPolicy::EnumerationOrder,
        ] {
            let base = MergeConfig::new(system.broadcast_time())
                .with_selection(policy)
                .with_trace(true);
            let serial = generate_schedule_table(cpg, arch, &base.with_threads(1));
            let parallel = generate_schedule_table(cpg, arch, &base.with_threads(4));
            assert_results_identical(&serial, &parallel, 4)?;
        }
    }
}
