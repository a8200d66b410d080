//! Differential test of the batched table evaluation: for every job and
//! every label, [`ScheduleTable::resolve_block`] must give exactly what the
//! per-label [`ScheduleTable::activation`] gives, and
//! [`ScheduleTable::worst_case_delay`] must equal the largest
//! [`ScheduleTable::track_delay`].
//!
//! The random tables are built to hit every rule of the fold: few distinct
//! times (so satisfied columns conflict), two resources plus none (so the
//! most specific column carrying a resource is tied and overridden), top
//! columns, and columns over a condition no label assigns (never
//! satisfied). Up to 200 labels make several blocks and a partial last one.

use proptest::prelude::*;

use cpg::{enumerate_tracks, CondId, Cube, ProcessId};
use cpg_arch::{PeId, Time};
use cpg_gen::{generate, GeneratorConfig};
use cpg_path_sched::Job;
use cpg_table::{LabelBlock, ResolvedActivation, ScheduleTable};

/// Conditions a column may mention.
const CONDS: usize = 6;
/// Conditions every label assigns: columns over the last condition are
/// never satisfied.
const LABEL_CONDS: usize = CONDS - 1;
const PROCS: usize = 6;
const BROADCASTS: usize = 2;
/// Path counts the generator realises with 160 processes: every one needs
/// two label blocks.
const PATHS: [usize; 6] = [66, 72, 80, 96, 105, 128];

/// `(job, top column, literal choices, time, resource)`; a choice of 0 or
/// 1 is a literal, anything else leaves the condition out, so columns are
/// short and often satisfied by the same labels.
type RawEntry = (usize, usize, Vec<usize>, u64, usize);

fn entry() -> impl Strategy<Value = RawEntry> {
    (
        0..PROCS + BROADCASTS,
        0usize..5,
        proptest::collection::vec(0usize..6, CONDS),
        0u64..3,
        0usize..3,
    )
}

fn job(index: usize) -> Job {
    if index < PROCS {
        Job::Process(ProcessId::from_index(index))
    } else {
        Job::Broadcast(CondId::new(index - PROCS))
    }
}

fn build_table(entries: &[RawEntry]) -> ScheduleTable {
    let mut table = ScheduleTable::new();
    for (index, top, choices, time, resource) in entries {
        let column = if *top == 0 {
            Cube::top()
        } else {
            choices
                .iter()
                .enumerate()
                .filter(|&(_, &choice)| choice < 2)
                .map(|(i, &choice)| CondId::new(i).literal(choice == 0))
                .collect()
        };
        let resource = (*resource < 2).then(|| PeId::from_index(*resource));
        table.set_on(job(*index), column, Time::new(*time), resource);
    }
    table
}

fn label(values: &[bool]) -> Cube {
    values
        .iter()
        .enumerate()
        .map(|(i, &value)| CondId::new(i).literal(value))
        .collect()
}

#[test]
fn equally_specific_columns_break_ties_like_activation() {
    // Two one-literal columns with the same time, both satisfied by the
    // label: the later column selects, the earlier one's resource wins.
    let (c0, c1) = (CondId::new(0), CondId::new(1));
    let (first, second) = (Cube::from(c0.is_true()), Cube::from(c1.is_true()));
    let mut table = ScheduleTable::new();
    let p = job(0);
    table.set_on(p, first, Time::new(5), Some(PeId::from_index(1)));
    table.set_on(p, second, Time::new(5), Some(PeId::from_index(0)));
    let label: Cube = [c0.is_true(), c1.is_true()].into_iter().collect();
    let block = LabelBlock::new(&[label]);
    let mut out = [ResolvedActivation::NONE; 1];
    assert_eq!(table.resolve_block(p, &block, 1, &mut out), 1);
    let resolved = out[0].to_activation(&table).expect("both columns agree");
    assert_eq!(Some(resolved), table.activation(p, &label));
    assert_eq!(resolved.column, second);
    assert_eq!(resolved.resource, Some(PeId::from_index(1)));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn resolve_block_matches_the_per_assignment_activation(
        entries in proptest::collection::vec(entry(), 0..40),
        labels in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), LABEL_CONDS),
            1..=200,
        ),
        wanted in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let table = build_table(&entries);
        let labels: Vec<Cube> = labels.iter().map(|values| label(values)).collect();
        for (chunk, (labels, &wanted)) in labels
            .chunks(LabelBlock::WIDTH)
            .zip(wanted.iter().cycle())
            .enumerate()
        {
            let block = LabelBlock::new(labels);
            // Every job, and one past them that has no row.
            for index in 0..=PROCS + BROADCASTS {
                let job = job(index);
                // Every label over a buffer holding another job's results,
                // so each slot must be written; then a random subset over
                // the same buffer: the slots outside it keep their values.
                let mut every = [ResolvedActivation::NONE; LabelBlock::WIDTH];
                let other = crate::job((index + 1) % (PROCS + BROADCASTS + 1));
                table.resolve_block(other, &block, block.all(), &mut every);
                let found_every = table.resolve_block(job, &block, block.all(), &mut every);
                let wanted = wanted & block.all();
                let mut some = every;
                let found_some = table.resolve_block(job, &block, wanted, &mut some);
                prop_assert_eq!(found_some, found_every & wanted);
                for (t, label) in labels.iter().enumerate() {
                    let expected = table.activation(job, label);
                    let actual = every[t].to_activation(&table);
                    prop_assert!(
                        actual == expected,
                        "block {chunk}, label {label}, {job:?}: {actual:?} != {expected:?}"
                    );
                    prop_assert_eq!(found_every >> t & 1 == 1, expected.is_some());
                    prop_assert_eq!(some[t], every[t]);
                }
            }
        }
    }

    #[test]
    fn worst_case_delay_is_the_largest_track_delay(
        shape in 0usize..6,
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<u64>(), 0u64..40), 0..300),
    ) {
        let system = generate(
            &GeneratorConfig::new(160, PATHS[shape])
                .with_processors(2)
                .with_buses(1)
                .with_seed(seed),
        );
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        prop_assert!(tracks.len() > LabelBlock::WIDTH);
        // Entries in columns that are sub-cubes of track labels, so most of
        // them are satisfied somewhere, with clashing times.
        let mut table = ScheduleTable::new();
        for &(process, track, keep, time) in &picks {
            let label = tracks.tracks()[track % tracks.len()].label();
            let column = label.retain(|cond| keep >> (cond.index() % 64) & 1 == 1);
            let pid = ProcessId::from_index(process % cpg.len());
            table.set(Job::Process(pid), column, Time::new(time));
        }
        let expected = tracks
            .iter()
            .map(|track| table.track_delay(cpg, &track.label()))
            .max()
            .unwrap_or(Time::ZERO);
        prop_assert_eq!(table.worst_case_delay(cpg, &tracks), expected);
    }
}
