//! Differential test of incremental re-merge sessions against cold merges.
//!
//! A [`MergeSession`] keeps the explored decision tree between merges and,
//! after an edit, replays the cached write logs of every subtree the edit
//! provably cannot affect, re-walking only the invalidated region. None of
//! that is allowed to change a single table cell: after *every* edit of a
//! random edit sequence, the session's warm merge must be bit-identical
//! (table, tracks, path schedules, steps, counters, delays) to a cold
//! `generate_schedule_table` of the edited system under every selection
//! policy, and on a crafted system where the edited process sits under a
//! condition subtree shared between sibling branches (so cached chains on
//! the clean side must replay against rows the re-walked side rewrites).
//!
//! Besides WCET edits, sessions see mapping edits — among them moves of a
//! disjunction process, which change where its condition is known first —
//! and WCETs beyond 32 bits, which change how the path scheduler orders its
//! output. The session keeps each track's scheduling context across merges
//! and re-times only the dirty ones, so each of these edits must reach the
//! kept contexts exactly as a fresh build would.
//!
//! The `wcet_sweep` traffic — a ±1 WCET probe, then its undo — gets its
//! own property: after the undo the table must be the one of before the
//! probe. Warm merges replay the chains of edited tracks whose schedule
//! still places alike and reuse the compaction of unchanged rows; the
//! benchmark-system test checks that both rules fire.
//!
//! A cold merge is a fresh session's first merge: it walks every chain and
//! replays none, so it checks the replays but shares the walk. The first
//! session merge is therefore also held against the independent
//! clone-per-node oracle, `generate_schedule_table_cloning`.

use proptest::prelude::*;

use cps::gen::GeneratedSystem;
use cps::merge::{generate_schedule_table_cloning, MergeStats};
use cps::prelude::*;

/// Generator configurations biased towards deep condition nests (many paths
/// over few processes), where the session's chain cache holds the most
/// subtrees; kept close to `tests/merge_walk_differential.rs` so the suites
/// explore the same system space.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (
        12usize..32,
        2usize..8,
        1usize..4,
        1usize..3,
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

/// One of the three path-selection policies.
fn policy_strategy() -> impl Strategy<Value = SelectionPolicy> {
    (0usize..3).prop_map(|i| {
        [
            SelectionPolicy::LongestDelayFirst,
            SelectionPolicy::ShortestDelayFirst,
            SelectionPolicy::EnumerationOrder,
        ][i]
    })
}

/// A sequence of single-node WCET edits: `(process selector, new time)`
/// pairs, resolved against the generated system's ordinary processes at run
/// time (selector modulo process count, so every raw index is valid).
fn edit_sequence_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((any::<usize>(), 1u64..16), 1..5)
}

/// A sequence of mixed edits: `(kind, selector, value)` triples, resolved
/// against the generated system at run time by [`mixed_edit`].
fn mixed_edit_sequence_strategy() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..4, any::<usize>(), 1u64..16), 1..6)
}

/// The edit a `(kind, selector, value)` triple stands for on `system`:
/// 0 sets the WCET of an ordinary process to `value`, 1 sets it to
/// `2³² + value`, 2 moves an ordinary process to a processor and 3 moves
/// the disjunction process of a condition to a processor (selectors and
/// values are taken modulo the candidates, so every triple is valid).
fn mixed_edit(
    system: &GeneratedSystem,
    (kind, selector, value): (usize, usize, u64),
) -> SystemEdit {
    let cpg = system.cpg();
    let processes: Vec<ProcessId> = cpg.ordinary_processes().collect();
    let conditions: Vec<CondId> = cpg.conditions().collect();
    let processors: Vec<PeId> = system.arch().processors().collect();
    let pe = processors[value as usize % processors.len()];
    let process = processes[selector % processes.len()];
    match kind {
        0 => SystemEdit::ExecTime {
            process,
            time: Time::new(value),
        },
        1 => SystemEdit::ExecTime {
            process,
            time: Time::new((1 << 32) + value),
        },
        2 => SystemEdit::Mapping { process, pe },
        _ => SystemEdit::Mapping {
            process: cpg.disjunction_of(conditions[selector % conditions.len()]),
            pe,
        },
    }
}

/// Field-wise equality of a warm session merge against the cold oracle
/// (`MergeResult` deliberately does not implement `PartialEq`; comparing the
/// pieces gives usable failure messages).
fn assert_results_identical(
    cold: &MergeResult,
    warm: &MergeResult,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(cold.table() == warm.table(), "table diverged ({context})");
    prop_assert_eq!(cold.tracks(), warm.tracks());
    prop_assert!(
        cold.path_schedules() == warm.path_schedules(),
        "path schedules diverged ({context})"
    );
    prop_assert_eq!(cold.delta_m(), warm.delta_m());
    prop_assert_eq!(cold.delta_max(), warm.delta_max());
    prop_assert_eq!(cold.steps(), warm.steps());
    let (cold_stats, warm_stats): (MergeStats, MergeStats) = (cold.stats(), warm.stats());
    prop_assert!(
        cold_stats == warm_stats,
        "stats diverged ({context}): {cold_stats:?} vs {warm_stats:?}"
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
    fn warm_session_merges_match_cold_merges_after_every_edit(
        config in config_strategy(),
        edits in edit_sequence_strategy(),
        policy in policy_strategy(),
    ) {
        let system = generate(&config);
        let processes: Vec<ProcessId> = system.cpg().ordinary_processes().collect();
        prop_assert!(!processes.is_empty(), "generated systems have ordinary processes");
        // The step-by-step visit order is part of the contract: a replayed
        // chain must surface the very steps it recorded.
        let merge_config = MergeConfig::new(system.broadcast_time()).with_selection(policy);

        let mut session = MergeSession::new(system.cpg(), system.arch(), &merge_config);
        // The reference system receives the same edits and is merged cold
        // (from nothing) after each one.
        let mut reference = system.cpg().clone();

        let first = session.merge();
        let oracle = generate_schedule_table_cloning(&reference, system.arch(), &merge_config);
        assert_results_identical(&oracle, &first, &format!("cloning oracle, {policy:?}"))?;
        let cold = generate_schedule_table(&reference, system.arch(), &merge_config);
        assert_results_identical(&cold, &first, &format!("cold, {policy:?}"))?;

        for (step, &(selector, time)) in edits.iter().enumerate() {
            let edit = SystemEdit::ExecTime {
                process: processes[selector % processes.len()],
                time: Time::new(time),
            };
            edit.apply(&mut reference).expect("ordinary processes are editable");
            session.apply_edit(&edit).expect("ordinary processes are editable");

            let cold = generate_schedule_table(&reference, system.arch(), &merge_config);
            let warm = session.merge();
            assert_results_identical(&cold, &warm, &format!("edit {step} ({edit}), {policy:?}"))?;
            // Every chain of the tree is replayed or recorded: one per back
            // step plus the root, and one segment per forward step plus one
            // per chain.
            let (reuse, stats) = (session.reuse_stats(), warm.stats());
            prop_assert!(
                reuse.chains_replayed + reuse.chains_recorded == stats.adjustments + 1,
                "chains of edit {step}: {reuse:?}, {stats:?}"
            );
            prop_assert!(
                reuse.segments_replayed + reuse.segments_recorded == stats.tree_nodes + 1,
                "segments of edit {step}: {reuse:?}, {stats:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn warm_session_merges_match_cold_merges_after_mapping_and_wide_wcet_edits(
        config in config_strategy(),
        edits in mixed_edit_sequence_strategy(),
        policy in policy_strategy(),
    ) {
        let system = generate(&config);
        prop_assert!(system.cpg().num_conditions() > 0, "generated systems fork");
        let merge_config = MergeConfig::new(system.broadcast_time()).with_selection(policy);
        let mut session = MergeSession::new(system.cpg(), system.arch(), &merge_config);
        let mut reference = system.cpg().clone();
        session.merge();

        for (step, &triple) in edits.iter().enumerate() {
            let edit = mixed_edit(&system, triple);
            edit.apply(&mut reference).expect("ordinary and disjunction processes are editable");
            session.apply_edit(&edit).expect("ordinary and disjunction processes are editable");
            let cold = generate_schedule_table(&reference, system.arch(), &merge_config);
            let warm = session.merge();
            assert_results_identical(&cold, &warm, &format!("edit {step} ({edit}), {policy:?}"))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The `wcet_sweep` traffic: a ±1 WCET probe, then its undo. After the
    /// undo the system is the one of before the probe, so the table must be
    /// too — the probe's warm merge replaced the cached chains, contexts,
    /// schedules and compactions, and the undo rebuilds them from there.
    #[test]
    fn a_probe_and_its_undo_match_cold_merges_and_restore_the_table(
        config in config_strategy(),
        probes in proptest::collection::vec((any::<usize>(), prop::bool::ANY), 1..6),
    ) {
        let system = generate(&config);
        let processes: Vec<ProcessId> = system.cpg().ordinary_processes().collect();
        let merge_config = MergeConfig::new(system.broadcast_time());
        let mut session = MergeSession::new(system.cpg(), system.arch(), &merge_config);
        let mut before = session.merge();
        let mut reference = system.cpg().clone();

        for (step, &(selector, up)) in probes.iter().enumerate() {
            let process = processes[selector % processes.len()];
            let base = reference.exec_time(process);
            let probe = if up || base <= Time::new(1) {
                base + Time::new(1)
            } else {
                Time::new(base.as_u64() - 1)
            };
            for (phase, time) in [("probe", probe), ("undo", base)] {
                let edit = SystemEdit::ExecTime { process, time };
                edit.apply(&mut reference).expect("ordinary processes are editable");
                session.apply_edit(&edit).expect("ordinary processes are editable");
                let cold = generate_schedule_table(&reference, system.arch(), &merge_config);
                let warm = session.merge();
                assert_results_identical(&cold, &warm, &format!("{phase} {step} ({edit})"))?;
                if phase == "undo" {
                    assert_results_identical(&before, &warm, &format!("undo {step} ({edit})"))?;
                    before = warm;
                }
            }
        }
    }
}

#[test]
fn moving_a_disjunction_process_and_back_matches_cold_merges() {
    // The disjunction processes of the last four conditions of the 32-path
    // deep nest, each moved to the other processor and back: a move changes
    // where its condition is known first, on the dirty tracks only; the
    // clean tracks keep their contexts as they are.
    let system = generate(
        &GeneratorConfig::new(96, 32)
            .with_processors(2)
            .with_buses(1)
            .with_seed(96 << 32),
    );
    let (cpg, arch) = (system.cpg(), system.arch());
    let merge_config = MergeConfig::new(system.broadcast_time());
    let mut session = MergeSession::new(cpg, arch, &merge_config);
    session.merge();
    let mut reference = cpg.clone();
    let tracks = session.tracks().len();
    let mut some_tracks_clean = false;
    let conditions: Vec<CondId> = cpg.conditions().collect();
    for &cond in conditions.iter().rev().take(4) {
        let process = cpg.disjunction_of(cond);
        let home = cpg
            .mapping(process)
            .expect("disjunction processes are mapped");
        let away = arch
            .processors()
            .find(|&pe| pe != home)
            .expect("two processors");
        for pe in [away, home] {
            let edit = SystemEdit::Mapping { process, pe };
            edit.apply(&mut reference).unwrap();
            let scope = session.apply_edit(&edit).unwrap();
            let EditScope::Tracks(dirty) = scope else {
                panic!("a mapping edit scopes to tracks");
            };
            assert!(!dirty.is_empty());
            some_tracks_clean |= dirty.len() < tracks;
            let cold = generate_schedule_table(&reference, arch, &merge_config);
            let warm = session.merge();
            assert_results_identical(&cold, &warm, &format!("{edit}")).unwrap();
        }
    }
    assert!(some_tracks_clean, "every move dirtied every track");
}

/// Crafted system where the edited process sits under a condition subtree
/// shared between sibling branches: `C2` forks inside *both* branches of
/// `C1`, so the per-branch tracks interleave their writes in shared table
/// rows (the conjunction `sink` and the `C2` broadcast land in compatible
/// columns on every path). Editing `b_t` dirties only the `C2`-true tracks;
/// the cached chains of the `C2`-false subtrees — including the root chain,
/// whose serial position precedes every re-walked sibling — must replay
/// their logs, while chains ordered *after* a re-walked subtree see its
/// rewritten rows and the content-based read validation degrades them to a
/// re-walk. Either way the result must be bit-identical to a cold merge.
fn shared_subtree_system() -> (Architecture, Cpg) {
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
fn warm_merges_match_cold_on_a_shared_condition_subtree_edit() {
    let (arch, cpg) = shared_subtree_system();
    let b_t = cpg
        .ordinary_processes()
        .find(|&p| cpg.process(p).name() == "b_t")
        .expect("crafted system has b_t");
    let merge_config = MergeConfig::new(Time::new(1));

    let mut session = MergeSession::new(&cpg, &arch, &merge_config);
    session.merge();
    let mut reference = cpg.clone();
    assert!(
        enumerate_tracks(&cpg).len() >= 4,
        "both conditions must fork"
    );

    let mut replayed_after_some_edit = false;
    // Walk b_t's WCET up and back down; every step dirties only the C2-true
    // tracks.
    for (step, time) in [3u64, 4, 2].into_iter().enumerate() {
        let edit = SystemEdit::ExecTime {
            process: b_t,
            time: Time::new(time),
        };
        edit.apply(&mut reference).expect("b_t is editable");
        session.apply_edit(&edit).expect("b_t is editable");

        let cold = generate_schedule_table(&reference, &arch, &merge_config);
        let warm = session.merge();
        assert_eq!(cold.table(), warm.table(), "table diverged at edit {step}");
        assert_eq!(cold.path_schedules(), warm.path_schedules());
        assert_eq!(cold.steps(), warm.steps());
        assert_eq!(cold.stats(), warm.stats());
        assert_eq!(cold.delta_max(), warm.delta_max());
        replayed_after_some_edit |= session.reuse_stats().chains_replayed > 0;
    }
    assert!(
        replayed_after_some_edit,
        "the clean C2-false subtrees never replayed"
    );
}

/// The deep-condition-nest systems of the `merge_rewalk/*` benchmark
/// (`crates/bench/benches/merge_time.rs`) as `(paths, seed, floors)`. Each
/// system is edited at two processes, ±1 on the WCET: the first process of
/// minimum path membership (the benchmark's kind of edit, whose dirty
/// chains come late in serial order, so the replays before them need no
/// validation) and the last ordinary process (whose dirty chains come
/// early, so nearly every replay passes row validation first). The floors
/// are the chains a warm merge must at least replay after each edit, out of
/// 16, 24 and 32 chains; they are the counts of whole-row read validation.
/// They keep the validation honest: a check that is correct but so coarse
/// that cached chains quietly stop replaying still yields warm == cold, and
/// only the replay count notices.
const REWALK_SYSTEMS: [(usize, u64, [[usize; 2]; 2]); 3] = [
    (16, 0x66EE8, [[14, 14], [8, 8]]),
    (24, 0x66EE8, [[23, 23], [22, 22]]),
    (32, 0x66EF8, [[31, 31], [24, 24]]),
];

#[test]
fn warm_merges_on_the_rewalk_benchmark_systems_replay_and_match_cold() {
    for (paths, seed, floors) in REWALK_SYSTEMS {
        let config = GeneratorConfig::new(3 * paths, paths)
            .with_processors(2)
            .with_buses(1)
            .with_seed(seed);
        let system = generate(&config);
        let merge_config = MergeConfig::new(system.broadcast_time());
        let tracks = enumerate_tracks(system.cpg());
        let membership = |p: ProcessId| tracks.iter().filter(|t| t.contains(p)).count();
        let rarest = system
            .cpg()
            .ordinary_processes()
            .min_by_key(|&p| membership(p))
            .expect("generated systems have ordinary processes");
        let last = system
            .cpg()
            .ordinary_processes()
            .last()
            .expect("generated systems have ordinary processes");

        let (mut dirty_replays, mut compactions_reused) = (0, 0);
        for (process, floors) in [rarest, last].into_iter().zip(floors) {
            let base = system.cpg().exec_time(process);
            let mut session = MergeSession::new(system.cpg(), system.arch(), &merge_config);
            session.merge();
            let mut reference = system.cpg().clone();
            for (time, floor) in [base + Time::new(1), base].into_iter().zip(floors) {
                let edit = SystemEdit::ExecTime { process, time };
                edit.apply(&mut reference)
                    .expect("ordinary processes are editable");
                session
                    .apply_edit(&edit)
                    .expect("ordinary processes are editable");
                let cold = generate_schedule_table(&reference, system.arch(), &merge_config);
                let warm = session.merge();
                let context = format!("{paths} paths, {edit}");
                assert_results_identical(&cold, &warm, &context).unwrap();
                let reuse = session.reuse_stats();
                assert!(
                    reuse.chains_replayed >= floor,
                    "{context}: {} of {} chains replayed, expected at least {floor}",
                    reuse.chains_replayed,
                    reuse.chains_replayed + reuse.chains_recorded
                );
                dirty_replays += reuse.dirty_chains_replayed;
                compactions_reused += reuse.compactions_reused;
            }
        }
        // Both content-keyed reuse rules must fire, not only stay correct:
        // chains of edited tracks that place alike replay, and rows the walk
        // left as they were keep their compaction.
        assert!(dirty_replays > 0, "{paths} paths: no dirty chain replayed");
        assert!(
            compactions_reused > 0,
            "{paths} paths: no row reused its compaction"
        );
    }
}
