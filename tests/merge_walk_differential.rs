//! Differential test of the production decision-tree walk against the
//! clone-per-node recursive walk it replaced.
//!
//! The production walk (`walk_chain`) walks one forward chain of the tree
//! at a time — the run of nodes that keeps one current schedule — and
//! recurses into its back-step children. Every merge runs it: a one-shot
//! `generate_schedule_table` is a fresh session's first merge, which
//! records every chain through a `RecordingView` writing straight into the
//! table and replays none (replays are covered by
//! `tests/merge_session_differential.rs`). It shares one decided-conditions
//! `Cube` along the tree path and takes lock sets and `PathSchedule`s from
//! pools, instead of cloning all three at every node.
//! None of that is allowed to change a single decision: the original
//! recursion is kept behind the `test-util` feature
//! (`generate_schedule_table_cloning`) and the produced `MergeResult` —
//! table cells with recorded resources, per-path schedules, slips, decision
//! steps, counters and delays — must be bit-identical over random systems
//! for every selection policy, and on crafted
//! systems that force the slip-repair loop and conflict repairs across
//! sibling subtrees that share rows.

use proptest::prelude::*;

use cps::merge::{generate_schedule_table_cloning, MergeStats};
use cps::prelude::*;

/// Generator configurations spanning conditional structure and architecture
/// shape; kept close to `tests/differential_scheduler.rs` so the suites
/// explore the same system space, with a bias towards deep condition nests (many paths
/// over few processes) where the walk dominates.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (
        12usize..40,
        2usize..10,
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
    oracle: &MergeResult,
    undo: &MergeResult,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(oracle.table() == undo.table(), "table diverged ({context})");
    prop_assert_eq!(oracle.tracks(), undo.tracks());
    prop_assert!(
        oracle.path_schedules() == undo.path_schedules(),
        "path schedules diverged ({context})"
    );
    prop_assert_eq!(oracle.delta_m(), undo.delta_m());
    prop_assert_eq!(oracle.delta_max(), undo.delta_max());
    prop_assert_eq!(oracle.steps(), undo.steps());
    let (oracle_stats, undo_stats): (MergeStats, MergeStats) = (oracle.stats(), undo.stats());
    prop_assert!(
        oracle_stats == undo_stats,
        "stats diverged ({context}): {oracle_stats:?} vs {undo_stats:?}"
    );
    Ok(())
}

/// The shape counters of a merge are the shape of its step trace: one step
/// per decision-tree node, one adjustment per back step, and a node's depth
/// is its decided-condition count (a step's tree path plus the resolved
/// condition).
fn assert_counters_match_steps(result: &MergeResult, context: &str) -> Result<(), TestCaseError> {
    let (stats, steps) = (result.stats(), result.steps());
    let back_steps = steps.iter().filter(|step| step.back_step).count();
    let deepest = steps.iter().map(|step| step.decided.len() + 1).max();
    prop_assert!(
        stats.tree_nodes == steps.len()
            && stats.adjustments == back_steps
            && stats.max_walk_depth == deepest.unwrap_or(0),
        "counters disagree with the {} steps ({context}): {stats:?}",
        steps.len()
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
    fn production_walks_match_the_cloning_oracle(config in config_strategy()) {
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        // The step-by-step visit order is part of the contract being
        // compared.
        let base = MergeConfig::new(system.broadcast_time());

        let oracle = generate_schedule_table_cloning(cpg, arch, &base);
        oracle.table().verify(cpg, oracle.tracks()).expect("oracle table is correct");

        let walk = generate_schedule_table(cpg, arch, &base);
        assert_results_identical(&oracle, &walk, "default policy")?;
        assert_counters_match_steps(&oracle, "cloning oracle")?;
        assert_counters_match_steps(&walk, "chain walk")?;
    }

    #[test]
    fn production_walks_match_the_oracle_under_every_selection_policy(
        config in config_strategy(),
    ) {
        // The back-step track re-selection is where the walk reads the
        // shared decided `Cube` after unassigning the deeper resolutions, so
        // exercise every policy that consumes it.
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        for policy in [
            SelectionPolicy::ShortestDelayFirst,
            SelectionPolicy::EnumerationOrder,
        ] {
            let base = MergeConfig::new(system.broadcast_time()).with_selection(policy);
            let oracle = generate_schedule_table_cloning(cpg, arch, &base);
            let walk = generate_schedule_table(cpg, arch, &base);
            assert_results_identical(&oracle, &walk, &format!("{policy:?}"))?;
        }
    }
}

/// Crafted system where an inherited lock *must* slip (the same shape as the
/// regression test in `cpg-merge`): `victim` runs early on the longest path,
/// but on the opposite branch it additionally consumes the output of `slow`,
/// so the tabled early time is unreachable there and the merge has to drive
/// the Theorem-2 slip-repair loop — the walk path where the pooled
/// machinery (lock sets, schedules, reused repair buffers) is under the most
/// pressure.
fn slipping_system() -> (Architecture, Cpg) {
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()
        .unwrap();
    let cpu0 = arch.pe_by_name("cpu0").unwrap();
    let cpu1 = arch.pe_by_name("cpu1").unwrap();
    let mut b = CpgBuilder::new();
    let c = b.condition("C");
    let root = b.process("root", Time::new(10), cpu0);
    let quick = b.process("quick", Time::new(1), cpu1);
    let victim = b.process("victim", Time::new(2), cpu1);
    let slow = b.process("slow", Time::new(3), cpu1);
    let tail = b.process("tail", Time::new(20), cpu0);
    b.simple_edge(quick, victim, Time::ZERO);
    b.conditional_edge(root, slow, c.is_false(), Time::ZERO);
    b.conditional_edge(root, tail, c.is_true(), Time::ZERO);
    b.simple_edge(slow, victim, Time::ZERO);
    b.mark_conjunction(victim);
    let cpg = b.build(&arch).unwrap();
    (arch, cpg)
}

#[test]
fn production_walks_match_the_oracle_on_a_slip_forcing_system() {
    let (arch, cpg) = slipping_system();
    let config = MergeConfig::new(Time::new(2));
    let oracle = generate_schedule_table_cloning(&cpg, &arch, &config);
    assert!(
        oracle.stats().slip_repairs > 0,
        "the crafted lock never slipped: {:?}",
        oracle.stats()
    );
    let walk = generate_schedule_table(&cpg, &arch, &config);
    assert_eq!(oracle.table(), walk.table(), "table diverged");
    assert_eq!(oracle.path_schedules(), walk.path_schedules());
    assert_eq!(oracle.steps(), walk.steps());
    assert_eq!(oracle.stats(), walk.stats());
    assert_eq!(oracle.delta_max(), walk.delta_max());
}

/// Crafted system whose sibling subtrees deterministically write *overlapping
/// rows*: two nested conditions are computed on `cpu0` while a conjunction
/// `sink` (executed on every path) and the condition broadcasts land in the
/// same table rows on both sides of each decision node. The forward subtree
/// places the resolved condition's broadcast and the `sink` activation —
/// rows the back-step must read when it inherits ancestor locks — so the
/// back-step's lock derivation and conflict repairs depend on every write
/// the forward subtree made.
fn overlapping_rows_system() -> (Architecture, Cpg) {
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()
        .unwrap();
    let cpu0 = arch.pe_by_name("cpu0").unwrap();
    let cpu1 = arch.pe_by_name("cpu1").unwrap();
    let mut b = CpgBuilder::new();
    let c1 = b.condition("C1");
    let c2 = b.condition("C2");
    let root = b.process("root", Time::new(4), cpu0);
    let mid = b.process("mid", Time::new(4), cpu0);
    // Branch bodies with distinct lengths so every path schedules `sink` at
    // a different start — the placements collide in compatible columns and
    // drive the Theorem-2 conflict repair inside the back-step subtrees too.
    let a_t = b.process("a_t", Time::new(3), cpu1);
    let a_f = b.process("a_f", Time::new(6), cpu1);
    let b_t = b.process("b_t", Time::new(2), cpu1);
    let b_f = b.process("b_f", Time::new(5), cpu1);
    let sink = b.process("sink", Time::new(2), cpu1);
    b.conditional_edge(root, a_t, c1.is_true(), Time::ZERO);
    b.conditional_edge(root, a_f, c1.is_false(), Time::ZERO);
    b.simple_edge(root, mid, Time::ZERO);
    b.conditional_edge(mid, b_t, c2.is_true(), Time::ZERO);
    b.conditional_edge(mid, b_f, c2.is_false(), Time::ZERO);
    b.simple_edge(a_t, sink, Time::ZERO);
    b.simple_edge(a_f, sink, Time::ZERO);
    b.simple_edge(b_t, sink, Time::ZERO);
    b.simple_edge(b_f, sink, Time::ZERO);
    b.mark_conjunction(sink);
    let cpg = b.build(&arch).unwrap();
    (arch, cpg)
}

#[test]
fn production_walks_match_the_oracle_when_sibling_subtrees_overlap_rows() {
    let (arch, cpg) = overlapping_rows_system();
    for policy in [
        SelectionPolicy::LongestDelayFirst,
        SelectionPolicy::ShortestDelayFirst,
        SelectionPolicy::EnumerationOrder,
    ] {
        let config = MergeConfig::new(Time::new(1)).with_selection(policy);
        let oracle = generate_schedule_table_cloning(&cpg, &arch, &config);
        oracle
            .table()
            .verify(&cpg, oracle.tracks())
            .expect("oracle table is correct");
        // Four paths: both conditions fork, so the sink/broadcast rows
        // overlap across the subtrees of the root node.
        assert!(oracle.tracks().len() >= 4, "both conditions must fork");
        let walk = generate_schedule_table(&cpg, &arch, &config);
        assert_eq!(oracle.table(), walk.table(), "table diverged ({policy:?})");
        assert_eq!(oracle.path_schedules(), walk.path_schedules());
        assert_eq!(oracle.steps(), walk.steps());
        assert_eq!(oracle.stats(), walk.stats());
        assert_eq!(oracle.delta_max(), walk.delta_max());
    }
}
