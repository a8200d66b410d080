//! Differential tests of the condition-partition row index: every
//! index-served query must return exactly the entries a linear scan of the
//! row would have produced — over random tables, through `TableTxn` overlays
//! (including transaction-created columns), and across `splice_log` commits,
//! which defer index maintenance (stale rows answer from the linear
//! fallback) until the next direct write rebuilds the row in one pass.
//!
//! Index-served iteration order is unspecified (mention-mask group order on
//! the table, key order on overlays), so results are compared as key-sorted
//! lists; the keys are unique within a row, making that a faithful set
//! comparison.

use proptest::prelude::*;

use cpg::{Assignment, CondId, Cube, ProcessId};
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;
use cpg_table::{Activation, ScheduleTable, TableTxn, TableView};

const CONDS: usize = 4;
/// Transactions may mention two extra conditions, so overlay writes routinely
/// create columns the base table has never seen.
const TXN_CONDS: usize = 6;
const PROCS: usize = 5;

#[derive(Debug, Clone)]
struct Entry {
    job: Job,
    column: Cube,
    time: Time,
    resource: Option<PeId>,
}

fn cube_strategy(conds: usize) -> impl Strategy<Value = Cube> {
    proptest::collection::vec(any::<Option<bool>>(), conds).prop_map(|choices| {
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

fn entry_strategy(conds: usize) -> impl Strategy<Value = Entry> {
    (0..PROCS, cube_strategy(conds), 0u64..12, 0usize..4).prop_map(
        |(process, column, time, resource)| Entry {
            job: Job::Process(ProcessId::from_index(process)),
            column,
            // A narrow time range forces shared time buckets.
            time: Time::new(time),
            // Three resources plus "no provenance".
            resource: (resource < 3).then(|| PeId::from_index(resource)),
        },
    )
}

fn entries_strategy(conds: usize, max: usize) -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(entry_strategy(conds), 0..max)
}

fn build_table(entries: &[Entry]) -> ScheduleTable {
    let mut table = ScheduleTable::new();
    for entry in entries {
        table.set_on(entry.job, entry.column, entry.time, entry.resource);
    }
    table
}

fn jobs() -> impl Iterator<Item = Job> {
    (0..PROCS).map(|i| Job::Process(ProcessId::from_index(i)))
}

type Keyed = (u64, Cube, Time, Option<PeId>);

/// The index-served compatible scan of a view, key-sorted.
fn indexed_compatible<V: TableView + ?Sized>(view: &V, job: Job, probe: &Cube) -> Vec<Keyed> {
    let mut out = Vec::new();
    view.for_each_compatible_entry_on(job, probe, &mut |key, column, time, resource| {
        out.push((key, column, time, resource));
    });
    out.sort_unstable_by_key(|&(key, ..)| key);
    out
}

/// The linear-scan reference: a keyed scan filtered by the same predicate.
fn linear_compatible<V: TableView + ?Sized>(view: &V, job: Job, probe: &Cube) -> Vec<Keyed> {
    let mut out = Vec::new();
    view.for_each_keyed_entry_on(job, &mut |key, column, time, resource| {
        if column.compatible(probe) {
            out.push((key, column, time, resource));
        }
    });
    out
}

fn indexed_at<V: TableView + ?Sized>(
    view: &V,
    job: Job,
    time: Time,
) -> Vec<(u64, Cube, Option<PeId>)> {
    let mut out = Vec::new();
    view.for_each_entry_at_on(job, time, &mut |key, column, resource| {
        out.push((key, column, resource));
    });
    out.sort_unstable_by_key(|&(key, ..)| key);
    out
}

fn linear_at<V: TableView + ?Sized>(
    view: &V,
    job: Job,
    time: Time,
) -> Vec<(u64, Cube, Option<PeId>)> {
    let mut out = Vec::new();
    view.for_each_keyed_entry_on(job, &mut |key, column, tabled, resource| {
        if tabled == time {
            out.push((key, column, resource));
        }
    });
    out
}

proptest! {
    // Pinned case count and shrink budget, matching the other table suites.
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn indexed_scans_match_linear_scans_on_random_tables(
        entries in entries_strategy(CONDS, 32),
        probe in cube_strategy(CONDS),
        time in 0u64..12,
    ) {
        let table = build_table(&entries);
        for job in jobs() {
            prop_assert_eq!(
                indexed_compatible(&table, job, &probe),
                linear_compatible(&table, job, &probe)
            );
            let at = Time::new(time);
            prop_assert_eq!(indexed_at(&table, job, at), linear_at(&table, job, at));
        }
    }

    #[test]
    fn indexed_scans_survive_interleaved_removals(
        entries in entries_strategy(CONDS, 24),
        probe in cube_strategy(CONDS),
    ) {
        let mut table = build_table(&entries);
        // Remove every third inserted cell, then re-check: `remove` rebuilds
        // the row's union masks and groups exactly.
        for entry in entries.iter().step_by(3) {
            table.remove(entry.job, &entry.column);
        }
        for job in jobs() {
            prop_assert_eq!(
                indexed_compatible(&table, job, &probe),
                linear_compatible(&table, job, &probe)
            );
            for t in 0..12 {
                let at = Time::new(t);
                prop_assert_eq!(indexed_at(&table, job, at), linear_at(&table, job, at));
            }
        }
    }

    #[test]
    fn indexed_scans_match_through_txn_overlays(
        base_entries in entries_strategy(CONDS, 16),
        txn_entries in entries_strategy(TXN_CONDS, 16),
        probe in cube_strategy(TXN_CONDS),
        time in 0u64..12,
    ) {
        let table = build_table(&base_entries);
        let mut txn = TableTxn::new(&table);
        for entry in &txn_entries {
            txn.set_on(entry.job, entry.column, entry.time, entry.resource);
        }
        let at = Time::new(time);
        for job in jobs() {
            // Overlay rows answer from the txn-local index delta; untouched
            // rows delegate to the base's indexed scan.
            prop_assert_eq!(
                indexed_compatible(&txn, job, &probe),
                linear_compatible(&txn, job, &probe)
            );
            prop_assert_eq!(indexed_at(&txn, job, at), linear_at(&txn, job, at));
        }

        // Splicing the log defers index maintenance on the touched rows
        // (they serve queries from the linear fallback until rebuilt); the
        // committed table must agree with a write-by-write replay and still
        // serve index == linear on every row, stale or fresh.
        let log = txn.into_log();
        let mut spliced = table.clone();
        spliced.splice_log(&log);
        let mut replayed = table.clone();
        for entry in &txn_entries {
            replayed.set_on(entry.job, entry.column, entry.time, entry.resource);
        }
        prop_assert_eq!(&spliced, &replayed);
        for job in jobs() {
            prop_assert_eq!(
                indexed_compatible(&spliced, job, &probe),
                linear_compatible(&spliced, job, &probe)
            );
            prop_assert_eq!(indexed_at(&spliced, job, at), linear_at(&spliced, job, at));
        }

        // A direct write to a spliced (stale) row rebuilds its index in one
        // pass; the rebuilt index must serve exactly what an incrementally
        // maintained one would.
        let rebuilt_probe = Cube::top();
        for (offset, job) in jobs().enumerate() {
            spliced.set_on(job, rebuilt_probe, Time::new(offset as u64), None);
            replayed.set_on(job, rebuilt_probe, Time::new(offset as u64), None);
        }
        prop_assert_eq!(&spliced, &replayed);
        for job in jobs() {
            prop_assert_eq!(
                indexed_compatible(&spliced, job, &probe),
                indexed_compatible(&replayed, job, &probe)
            );
            prop_assert_eq!(
                indexed_compatible(&spliced, job, &probe),
                linear_compatible(&spliced, job, &probe)
            );
            prop_assert_eq!(indexed_at(&spliced, job, at), linear_at(&spliced, job, at));
        }
    }

    #[test]
    fn activation_probes_match_the_serial_order_reference(
        entries in entries_strategy(CONDS, 24),
        values in proptest::collection::vec(any::<bool>(), CONDS),
        splice_tail in any::<bool>(),
    ) {
        // Half the runs splice the second half of the entries through a
        // transaction log instead of writing them directly, leaving the
        // touched rows' indexes stale: the activation probes must serve the
        // same answers from their linear fallbacks.
        let table = if splice_tail {
            let head = entries.len() / 2;
            let table = build_table(&entries[..head]);
            let mut txn = TableTxn::new(&table);
            for entry in &entries[head..] {
                txn.set_on(entry.job, entry.column, entry.time, entry.resource);
            }
            let log = txn.into_log();
            let mut spliced = table.clone();
            spliced.splice_log(&log);
            spliced
        } else {
            build_table(&entries)
        };
        let mut assignment = Assignment::new();
        for (index, value) in values.iter().enumerate() {
            assignment.assign(CondId::new(index), *value);
        }
        for job in jobs() {
            // activation_resource: the reference is the pre-index algorithm —
            // a first-wins strictly-more-specific scan in serial entry order.
            let mut expected: Option<(usize, PeId)> = None;
            let mut satisfied_times = Vec::new();
            for (column, time, resource) in table.entries_on(job) {
                if !column.satisfied_by(&assignment) {
                    continue;
                }
                satisfied_times.push(time);
                if let Some(pe) = resource {
                    let specificity = column.len();
                    if expected.is_none_or(|(len, _)| specificity > len) {
                        expected = Some((specificity, pe));
                    }
                }
            }
            prop_assert_eq!(
                table.activation_resource(job, &assignment),
                expected.map(|(_, pe)| pe)
            );
            let expected_time = match satisfied_times.as_slice() {
                [] => None,
                [first, rest @ ..] if rest.iter().all(|t| t == first) => Some(*first),
                _ => None,
            };
            prop_assert_eq!(table.activation_time(job, &assignment), expected_time);
            // activation: the same time and resource, plus the selecting
            // column of the pre-index simulator — the last of the most
            // specific satisfied columns in serial entry order.
            let selecting = table
                .entries(job)
                .map(|(column, _)| column)
                .filter(|column| column.satisfied_by(&assignment))
                .max_by_key(Cube::len)
                .unwrap_or(Cube::top());
            let expected_activation = expected_time.map(|time| Activation {
                time,
                column: selecting,
                resource: expected.map(|(_, pe)| pe),
            });
            prop_assert_eq!(table.activation(job, &assignment), expected_activation);
        }
    }
}

/// The crafted regression from the issue: a repair round creates a column
/// mid-walk (directly and under a transaction overlay), and the very next
/// probes must see it through the index.
#[test]
fn a_column_created_mid_walk_is_picked_up_by_the_index() {
    let c = |i: usize| CondId::new(i);
    let p1 = Job::Process(ProcessId::from_index(1));
    let mut table = ScheduleTable::new();
    table.set_on(p1, Cube::top(), Time::new(0), None);
    table.set_on(
        p1,
        Cube::from(c(0).is_true()),
        Time::new(3),
        Some(PeId::from_index(0)),
    );

    // Direct: a brand-new column cube (new mention-mask group) written into
    // an existing row is immediately served by both probe kinds.
    let fresh: Cube = [c(0).is_true(), c(1).is_false()].into_iter().collect();
    table.set_on(p1, fresh, Time::new(3), Some(PeId::from_index(1)));
    let probe = Cube::from(c(0).is_true());
    assert_eq!(
        indexed_compatible(&table, p1, &probe),
        linear_compatible(&table, p1, &probe)
    );
    assert!(indexed_compatible(&table, p1, &probe)
        .iter()
        .any(|&(_, column, ..)| column == fresh));
    assert!(indexed_at(&table, p1, Time::new(3))
        .iter()
        .any(|&(_, column, _)| column == fresh));

    // Through an overlay: the transaction creates another fresh column; its
    // own scans see it at the transaction-local key, and after the splice the
    // real table's index serves it too.
    let mut txn = TableTxn::new(&table);
    let spec: Cube = [c(1).is_true(), c(2).is_true()].into_iter().collect();
    txn.set_on(p1, spec, Time::new(7), None);
    assert_eq!(
        indexed_compatible(&txn, p1, &spec),
        linear_compatible(&txn, p1, &spec)
    );
    assert!(indexed_compatible(&txn, p1, &spec)
        .iter()
        .any(|&(_, column, ..)| column == spec));
    assert!(indexed_at(&txn, p1, Time::new(7))
        .iter()
        .any(|&(_, column, _)| column == spec));

    let log = txn.into_log();
    let mut committed = table.clone();
    committed.splice_log(&log);
    assert!(indexed_compatible(&committed, p1, &spec)
        .iter()
        .any(|&(_, column, ..)| column == spec));
    assert_eq!(
        indexed_compatible(&committed, p1, &spec),
        linear_compatible(&committed, p1, &spec)
    );
}
