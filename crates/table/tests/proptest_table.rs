//! Property-based tests of the schedule-table container: lookups must be
//! consistent with the entries inserted, and the requirement checks must
//! agree with brute-force definitions.

use proptest::prelude::*;

use cpg::{CondId, Cube, ProcessId};
use cpg_arch::Time;
use cpg_path_sched::Job;
use cpg_table::ScheduleTable;

const CONDS: usize = 4;
const PROCS: usize = 6;

#[derive(Debug, Clone)]
struct Entry {
    job: Job,
    column: Cube,
    time: Time,
}

fn cube_strategy() -> impl Strategy<Value = Cube> {
    proptest::collection::vec(any::<Option<bool>>(), CONDS).prop_map(|choices| {
        let mut cube = Cube::top();
        for (index, polarity) in choices.into_iter().enumerate() {
            if let Some(value) = polarity {
                cube = cube
                    .and(CondId::new(index).literal(value))
                    .expect("distinct conditions cannot conflict");
            }
        }
        cube
    })
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    (0..PROCS, cube_strategy(), 0u64..100).prop_map(|(process, column, time)| Entry {
        job: Job::Process(ProcessId::from_index(process)),
        column,
        time: Time::new(time),
    })
}

fn entries_strategy() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(entry_strategy(), 0..24)
}

fn build_table(entries: &[Entry]) -> ScheduleTable {
    let mut table = ScheduleTable::new();
    for entry in entries {
        table.set(entry.job, entry.column, entry.time);
    }
    table
}

proptest! {
    // Pinned case count and shrink budget: CI runs must be deterministic and
    // fast regardless of PROPTEST_CASES / PROPTEST_MAX_SHRINK_ITERS in the
    // environment.
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]
    #[test]
    fn get_returns_the_last_inserted_time(entries in entries_strategy()) {
        let table = build_table(&entries);
        // For every (job, column) pair the last insertion wins.
        for entry in &entries {
            let last = entries
                .iter()
                .rev()
                .find(|e| e.job == entry.job && e.column == entry.column)
                .expect("entry exists");
            prop_assert_eq!(table.get(entry.job, &entry.column), Some(last.time));
        }
        // Lookups of absent cells return None.
        prop_assert_eq!(
            table.get(Job::Process(ProcessId::from_index(PROCS + 1)), &Cube::top()),
            None
        );
    }

    #[test]
    fn entry_count_matches_distinct_cells(entries in entries_strategy()) {
        let table = build_table(&entries);
        let distinct: std::collections::HashSet<_> = entries
            .iter()
            .map(|e| (e.job, e.column))
            .collect();
        prop_assert_eq!(table.num_entries(), distinct.len());
        let distinct_jobs: std::collections::HashSet<_> =
            entries.iter().map(|e| e.job).collect();
        prop_assert_eq!(table.num_rows(), distinct_jobs.len());
        let distinct_columns: std::collections::HashSet<_> =
            entries.iter().map(|e| e.column).collect();
        prop_assert_eq!(table.num_columns(), distinct_columns.len());
        prop_assert_eq!(table.is_empty(), entries.is_empty());
    }

    #[test]
    fn removal_deletes_exactly_one_cell(entries in entries_strategy()) {
        if entries.is_empty() {
            return Ok(());
        }
        let mut table = build_table(&entries);
        let before = table.num_entries();
        let victim = &entries[0];
        let removed = table.remove(victim.job, &victim.column);
        prop_assert!(removed.is_some());
        prop_assert_eq!(table.num_entries(), before - 1);
        prop_assert_eq!(table.get(victim.job, &victim.column), None);
        // Removing again is a no-op.
        prop_assert_eq!(table.remove(victim.job, &victim.column), None);
        prop_assert_eq!(table.num_entries(), before - 1);
    }

    #[test]
    fn activation_time_agrees_with_a_brute_force_scan(
        entries in entries_strategy(),
        values in proptest::collection::vec(any::<bool>(), CONDS),
    ) {
        let table = build_table(&entries);
        let mut assignment = Cube::top();
        for (index, value) in values.iter().enumerate() {
            assignment.assign(CondId::new(index), *value);
        }
        for job in (0..PROCS).map(|i| Job::Process(ProcessId::from_index(i))) {
            let satisfied: Vec<Time> = table
                .entries(job)
                .filter(|(column, _)| assignment.implies(column))
                .map(|(_, time)| time)
                .collect();
            let expected = match satisfied.as_slice() {
                [] => None,
                [first, rest @ ..] => {
                    if rest.iter().all(|t| t == first) {
                        Some(*first)
                    } else {
                        None
                    }
                }
            };
            let time = table.activation(job, &assignment).map(|activation| activation.time);
            prop_assert_eq!(time, expected);
        }
    }
}

/// A write of a random table over the Fig. 1 graph for the compaction
/// properties: `(job, column choices over the graph's three conditions,
/// time, resource)`. Few times and resources, so many entries share both.
type GraphWrite = (usize, Vec<Option<bool>>, u64, usize);

fn graph_write() -> impl Strategy<Value = GraphWrite> {
    (
        0usize..14,
        proptest::collection::vec(any::<Option<bool>>(), 3),
        0u64..3,
        0usize..3,
    )
}

/// The job of a [`GraphWrite`]: one of the first eleven processes of Fig. 1
/// or one of its three broadcasts.
fn graph_job(index: usize) -> Job {
    if index < 11 {
        Job::Process(ProcessId::from_index(index))
    } else {
        Job::Broadcast(CondId::new(index - 11))
    }
}

fn build_graph_table(writes: &[GraphWrite]) -> ScheduleTable {
    let mut table = ScheduleTable::new();
    for (job, choices, time, resource) in writes {
        let column = choices
            .iter()
            .enumerate()
            .filter_map(|(i, value)| value.map(|value| CondId::new(i).literal(value)))
            .collect();
        let resource = (*resource < 2).then(|| cpg_arch::PeId::from_index(*resource));
        table.set_on(graph_job(*job), column, Time::new(*time), resource);
    }
    table
}

/// The guard requirement 1 holds a job's columns to.
fn guard_of(cpg: &cpg::Cpg, job: Job) -> &cpg::Guard {
    match job {
        Job::Process(pid) => cpg.guard(pid),
        Job::Broadcast(cond) => cpg.guard(cpg.disjunction_of(cond)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// On arbitrary tables, compaction keeps the activation time and
    /// resource of every job on every complete assignment and selects it
    /// by a subset of the literals, never adds an entry or a requirement-1
    /// violation, leaves no column empty, and is idempotent.
    #[test]
    fn compaction_keeps_every_complete_assignments_activation(
        writes in proptest::collection::vec(graph_write(), 0..40),
    ) {
        let system = cpg::examples::fig1();
        let cpg = system.cpg();
        let table = build_graph_table(&writes);
        let mut compacted = table.clone();
        compacted.compact(cpg);

        prop_assert!(compacted.num_entries() <= table.num_entries());
        for (job, column, _) in compacted.all_entries() {
            prop_assert!(
                table.get(job, &column).is_some() || guard_of(cpg, job).implied_by(&column),
                "{job} tabled in {column}, which breaks its guard"
            );
        }
        for column in compacted.columns() {
            prop_assert!(compacted.jobs().any(|job| compacted.get(job, column).is_some()));
        }
        let guard_violations = |table: &ScheduleTable| {
            let tracks = cpg::enumerate_tracks(cpg);
            table.verify(cpg, &tracks).err().unwrap_or_default().iter()
                .filter(|v| matches!(v, cpg_table::TableViolation::GuardViolated { .. }))
                .count()
        };
        prop_assert!(guard_violations(&compacted) <= guard_violations(&table));

        for values in 0..8u32 {
            let mut label = Cube::top();
            for cond in 0..3 {
                label.assign(CondId::new(cond), values >> cond & 1 == 1);
            }
            for job in (0..14).map(graph_job) {
                let before = table.activation(job, &label);
                let after = compacted.activation(job, &label);
                let kept = |a: Option<cpg_table::Activation>| a.map(|a| (a.time, a.resource));
                prop_assert!(kept(before) == kept(after), "{job} on {label}: {before:?} -> {after:?}");
                if let (Some(before), Some(after)) = (before, after) {
                    prop_assert!(before.column.implies(&after.column));
                }
            }
        }

        let once = compacted.clone();
        compacted.compact(cpg);
        prop_assert_eq!(compacted, once);
    }
}
