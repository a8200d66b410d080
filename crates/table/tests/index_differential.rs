//! Differential tests of the table's row scans: the compatibility and
//! same-time scans a `RecordingView` serves, and the activation probes, must
//! return exactly what the linear reference over the row's public entry list
//! produces — over random tables, after removals, through `RecordingView`s
//! (including columns the recorded chain created), and across `splice_log`
//! replays.
//!
//! The scans visit a row's entries in column-insertion (key) order, so the
//! results are compared as ordered lists: the same entries in the same order.

use proptest::prelude::*;

use cpg::{Assignment, CondId, Cube, ProcessId};
use cpg_arch::{PeId, Time};
use cpg_path_sched::Job;
use cpg_table::{Activation, RecordScratch, RecordingView, ScheduleTable};

const CONDS: usize = 4;
/// Recorded writes may mention two extra conditions, so they routinely
/// create columns the entry table has never seen.
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

/// The insertion index of `column` in `table`: the key the scans report.
fn key_of(table: &ScheduleTable, column: Cube) -> u64 {
    table
        .columns()
        .iter()
        .position(|&c| c == column)
        .expect("a tabled entry has a column") as u64
}

/// The compatible scan of a recording view, in visiting order.
fn view_compatible(view: &mut RecordingView<'_>, job: Job, probe: &Cube) -> Vec<Keyed> {
    let mut out = Vec::new();
    view.for_each_compatible_entry_on(job, probe, &mut |key, column, time, resource| {
        out.push((key, column, time, resource));
    });
    out
}

/// [`view_compatible`] through a throwaway view over `table`.
fn served_compatible(table: &mut ScheduleTable, job: Job, probe: &Cube) -> Vec<Keyed> {
    view_compatible(
        &mut RecordingView::new(table, RecordScratch::default()),
        job,
        probe,
    )
}

/// The linear-scan reference: the row's entries in column-index order,
/// filtered by the same predicate.
fn linear_compatible(table: &ScheduleTable, job: Job, probe: &Cube) -> Vec<Keyed> {
    table
        .entries_on(job)
        .filter(|(column, ..)| column.compatible(probe))
        .map(|(column, time, resource)| (key_of(table, column), column, time, resource))
        .collect()
}

/// The scan of a recording view at one time, in visiting order.
fn view_at(view: &mut RecordingView<'_>, job: Job, time: Time) -> Vec<(u64, Cube, Option<PeId>)> {
    let mut out = Vec::new();
    view.for_each_entry_at_on(job, time, &mut |key, column, resource| {
        out.push((key, column, resource));
    });
    out
}

/// [`view_at`] through a throwaway view over `table`.
fn served_at(table: &mut ScheduleTable, job: Job, time: Time) -> Vec<(u64, Cube, Option<PeId>)> {
    view_at(
        &mut RecordingView::new(table, RecordScratch::default()),
        job,
        time,
    )
}

fn linear_at(table: &ScheduleTable, job: Job, time: Time) -> Vec<(u64, Cube, Option<PeId>)> {
    table
        .entries_on(job)
        .filter(|&(_, tabled, _)| tabled == time)
        .map(|(column, _, resource)| (key_of(table, column), column, resource))
        .collect()
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
        let mut table = build_table(&entries);
        for job in jobs() {
            prop_assert_eq!(
                served_compatible(&mut table, job, &probe),
                linear_compatible(&table, job, &probe)
            );
            let at = Time::new(time);
            prop_assert_eq!(served_at(&mut table, job, at), linear_at(&table, job, at));
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
                served_compatible(&mut table, job, &probe),
                linear_compatible(&table, job, &probe)
            );
            for t in 0..12 {
                let at = Time::new(t);
                prop_assert_eq!(served_at(&mut table, job, at), linear_at(&table, job, at));
            }
        }
    }

    #[test]
    fn indexed_scans_match_through_recording_views(
        base_entries in entries_strategy(CONDS, 16),
        chain_entries in entries_strategy(TXN_CONDS, 16),
        probe in cube_strategy(TXN_CONDS),
        time in 0u64..12,
    ) {
        let entry = build_table(&base_entries);
        let mut recorded = entry.clone();
        let at = Time::new(time);
        // A recording view writes straight through and serves every scan
        // from the table, as the table itself would.
        let mut view = RecordingView::new(&mut recorded, RecordScratch::default());
        for chain_entry in &chain_entries {
            view.set_on(chain_entry.job, chain_entry.column, chain_entry.time, chain_entry.resource);
        }
        let served: Vec<_> = jobs()
            .map(|job| (view_compatible(&mut view, job, &probe), view_at(&mut view, job, at)))
            .collect();
        let (log, _) = view.finish();
        for (job, (compatible, at_time)) in jobs().zip(served) {
            prop_assert_eq!(compatible, linear_compatible(&recorded, job, &probe));
            prop_assert_eq!(at_time, linear_at(&recorded, job, at));
        }

        // Splicing the log into the entry table must reproduce the recorded
        // table, and every row must still scan like the reference.
        let mut spliced = entry.clone();
        spliced.splice_log(&log);
        prop_assert_eq!(&spliced, &recorded);
        for job in jobs() {
            prop_assert_eq!(
                served_compatible(&mut spliced, job, &probe),
                linear_compatible(&spliced, job, &probe)
            );
            prop_assert_eq!(served_at(&mut spliced, job, at), linear_at(&spliced, job, at));
        }

        // A direct write to a spliced row must leave it scanning exactly
        // like the same row built by direct writes alone.
        let rebuilt_probe = Cube::top();
        for (offset, job) in jobs().enumerate() {
            spliced.set_on(job, rebuilt_probe, Time::new(offset as u64), None);
            recorded.set_on(job, rebuilt_probe, Time::new(offset as u64), None);
        }
        prop_assert_eq!(&spliced, &recorded);
        for job in jobs() {
            prop_assert_eq!(
                served_compatible(&mut spliced, job, &probe),
                served_compatible(&mut recorded, job, &probe)
            );
            prop_assert_eq!(
                served_compatible(&mut spliced, job, &probe),
                linear_compatible(&spliced, job, &probe)
            );
            prop_assert_eq!(served_at(&mut spliced, job, at), linear_at(&spliced, job, at));
        }
    }

    #[test]
    fn activation_probes_match_the_serial_order_reference(
        entries in entries_strategy(CONDS, 24),
        values in proptest::collection::vec(any::<bool>(), CONDS),
        splice_tail in any::<bool>(),
    ) {
        // Half the runs splice the second half of the entries from a
        // recorded log instead of writing them directly: the activation
        // probes must serve the same answers either way.
        let table = if splice_tail {
            let head = entries.len() / 2;
            let mut spliced = build_table(&entries[..head]);
            let mut recorded = spliced.clone();
            let mut view = RecordingView::new(&mut recorded, RecordScratch::default());
            for entry in &entries[head..] {
                view.set_on(entry.job, entry.column, entry.time, entry.resource);
            }
            spliced.splice_log(&view.finish().0);
            spliced
        } else {
            build_table(&entries)
        };
        let mut assignment = Assignment::new();
        for (index, value) in values.iter().enumerate() {
            assignment.assign(CondId::new(index), *value);
        }
        for job in jobs() {
            // activation_resource: the reference is a first-wins
            // strictly-more-specific scan in serial entry order.
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
            // column — the last of the most specific satisfied columns in
            // serial entry order.
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

/// A repair round creates a column mid-walk (directly and through a
/// recording view), and the very next probes must see it.
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

    // Direct: a brand-new column cube written into
    // an existing row is immediately served by both probe kinds.
    let fresh: Cube = [c(0).is_true(), c(1).is_false()].into_iter().collect();
    table.set_on(p1, fresh, Time::new(3), Some(PeId::from_index(1)));
    let probe = Cube::from(c(0).is_true());
    assert_eq!(
        served_compatible(&mut table, p1, &probe),
        linear_compatible(&table, p1, &probe)
    );
    assert!(served_compatible(&mut table, p1, &probe)
        .iter()
        .any(|&(_, column, ..)| column == fresh));
    assert!(served_at(&mut table, p1, Time::new(3))
        .iter()
        .any(|&(_, column, _)| column == fresh));

    // Through a recording view: the chain creates another fresh column and
    // its own scans see it at once; after the log is spliced into a copy of
    // the entry table, that table's scans serve it too.
    let entry = table.clone();
    let mut view = RecordingView::new(&mut table, RecordScratch::default());
    let spec: Cube = [c(1).is_true(), c(2).is_true()].into_iter().collect();
    view.set_on(p1, spec, Time::new(7), None);
    assert!(view_compatible(&mut view, p1, &spec)
        .iter()
        .any(|&(_, column, ..)| column == spec));
    assert!(view_at(&mut view, p1, Time::new(7))
        .iter()
        .any(|&(_, column, _)| column == spec));
    let (log, _) = view.finish();
    assert_eq!(
        served_compatible(&mut table, p1, &spec),
        linear_compatible(&table, p1, &spec)
    );

    let mut spliced = entry;
    spliced.splice_log(&log);
    assert!(served_compatible(&mut spliced, p1, &spec)
        .iter()
        .any(|&(_, column, ..)| column == spec));
    assert_eq!(
        served_compatible(&mut spliced, p1, &spec),
        linear_compatible(&spliced, p1, &spec)
    );
}
