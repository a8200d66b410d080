//! Property tests of table compaction on merged systems: the published table
//! (`generate_schedule_table`) is the walk table (`generate_walk_table`)
//! compacted, and compaction keeps everything the run-time schedulers and
//! the host-side consumers read from it — the `verify` verdict, every
//! job's activation time and resource on every track label, the worst-case
//! delay and every simulated track delay — with no more simulated
//! violations, fewer or equal entries, no empty column and every cell under
//! a column that implies its job's guard.

use proptest::prelude::*;

use cps::merge::generate_walk_table;
use cps::model::{examples, Cpg, Guard};
use cps::path_sched::JobSlots;
use cps::prelude::*;

fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (12usize..40, 2usize..10, 1usize..5, 1usize..4, any::<u64>()).prop_map(
        |(nodes, paths, processors, buses, seed)| {
            GeneratorConfig::new(nodes.max(3 * paths), paths)
                .with_processors(processors)
                .with_buses(buses)
                .with_seed(seed)
        },
    )
}

fn guard_of(cpg: &Cpg, job: Job) -> &Guard {
    match job {
        Job::Process(pid) => cpg.guard(pid),
        Job::Broadcast(cond) => cpg.guard(cpg.disjunction_of(cond)),
    }
}

/// Checks every compaction property of the merge of `cpg` on `arch`.
fn check_compaction(cpg: &Cpg, arch: &Architecture, broadcast_time: Time) -> Result<(), String> {
    let config = MergeConfig::new(broadcast_time);
    let walked = generate_walk_table(cpg, arch, &config);
    let published = generate_schedule_table(cpg, arch, &config);
    let (raw, table, tracks) = (walked.table(), published.table(), published.tracks());
    let fail = |what: String| Err(what);

    // The published table is the walk table compacted, and nothing else
    // of the merge changes.
    let mut compacted = raw.clone();
    compacted.compact(cpg);
    if &compacted != table {
        return fail("the published table is not the compacted walk table".into());
    }
    if (walked.delta_max(), walked.stats(), walked.steps())
        != (published.delta_max(), published.stats(), published.steps())
    {
        return fail("compaction changed the merge's verdict".into());
    }
    compacted.compact(cpg);
    if &compacted != table {
        return fail("a second compaction changed the table".into());
    }
    if table.num_entries() > raw.num_entries() {
        return fail("compaction added entries".into());
    }
    if let Some(column) = table
        .columns()
        .iter()
        .find(|column| !table.jobs().any(|job| table.get(job, column).is_some()))
    {
        return fail(format!("column {column} is empty"));
    }
    if let Some((job, column, _)) = table
        .all_entries()
        .find(|&(job, column, _)| !guard_of(cpg, job).implied_by(&column))
    {
        return fail(format!("{job} is tabled in {column}, outside its guard"));
    }

    if raw.verify(cpg, tracks).is_ok() != table.verify(cpg, tracks).is_ok() {
        return fail("the verify verdict changed".into());
    }
    let slots = JobSlots::for_graph(cpg);
    for track in tracks.iter() {
        let label = track.label();
        for job in (0..slots.len()).map(|slot| slots.job(slot)) {
            let (before, after) = (raw.activation(job, &label), table.activation(job, &label));
            let kept = |a: Option<cps::table::Activation>| a.map(|a| (a.time, a.resource));
            if kept(before) != kept(after) {
                return fail(format!("{job} on {label}: {before:?} became {after:?}"));
            }
            if let (Some(before), Some(after)) = (before, after) {
                if !before.column.implies(&after.column) {
                    return fail(format!("{job} on {label}: selected by {}", after.column));
                }
            }
        }
    }
    if raw.worst_case_delay(cpg, tracks) != table.worst_case_delay(cpg, tracks) {
        return fail("the worst-case delay changed".into());
    }
    let before = Simulator::new(cpg, arch, raw, broadcast_time).run_all(tracks);
    let after = Simulator::new(cpg, arch, table, broadcast_time).run_all(tracks);
    for (before, after) in before.iter().zip(&after) {
        if before.delay() != after.delay() {
            return fail(format!("track {} simulates a new delay", before.label()));
        }
        if after.violations().len() > before.violations().len() {
            return fail(format!(
                "track {} simulates more violations: {:?}",
                before.label(),
                after.violations()
            ));
        }
    }
    Ok(())
}

#[test]
fn compaction_keeps_the_examples_behaviour() {
    for system in [
        examples::fig1(),
        examples::diamond(),
        examples::sensor_actuator(),
    ] {
        check_compaction(system.cpg(), system.arch(), system.broadcast_time()).unwrap();
    }
}

/// Three systems of `paper_suite(360)` with broadcast rows that record
/// different buses at one time, where a compaction that ignored the
/// resource would hand a label another bus.
#[test]
fn compaction_keeps_the_buses_of_multi_bus_broadcast_rows() {
    let suite = cps::gen::paper_suite(360);
    for index in [457, 578, 957] {
        let system = generate(&suite[index]);
        let checked = check_compaction(system.cpg(), system.arch(), system.broadcast_time());
        assert!(
            checked.is_ok(),
            "suite system {index}: {}",
            checked.unwrap_err()
        );
    }
}

proptest! {
    // Pinned case count and shrink budget: CI runs must be deterministic and
    // fast regardless of PROPTEST_CASES / PROPTEST_MAX_SHRINK_ITERS in the
    // environment.
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn compaction_keeps_every_track_labels_activations(config in config_strategy()) {
        let system = generate(&config);
        let checked = check_compaction(system.cpg(), system.arch(), system.broadcast_time());
        prop_assert!(checked.is_ok(), "{:?}: {}", config, checked.unwrap_err());
    }
}
