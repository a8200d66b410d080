//! `per_processor_dispatch` orders each processing element's entries by one
//! unstable sort of packed integer keys; this checks the result against a
//! stable `sort_by_key` on `(start, job, column length)` over the entries
//! in `all_entries_on` order, on merged tables whose times are collapsed
//! so that many entries tie on every field of the key.

use cpg::{Cpg, Cube};
use cpg_arch::{Architecture, PeId, Time};
use cpg_gen::{generate, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig};
use cpg_path_sched::Job;
use cpg_table::{per_processor_dispatch, ScheduleTable};

type Entries = Vec<(Job, Cube, Time)>;

/// Each element's entries, stably sorted.
fn stably_sorted(table: &ScheduleTable, cpg: &Cpg, arch: &Architecture) -> Vec<(PeId, Entries)> {
    let bus = arch.broadcast_buses().next();
    arch.ids()
        .map(|pe| {
            let mut entries: Entries = table
                .all_entries_on()
                .filter(|&(job, _, _, resource)| match job {
                    Job::Process(pid) => cpg.mapping(pid) == Some(pe),
                    Job::Broadcast(_) => resource.or(bus) == Some(pe),
                })
                .map(|(job, column, start, _)| (job, column, start))
                .collect();
            entries.sort_by_key(|&(job, column, start)| (start, job, column.len()));
            (pe, entries)
        })
        .collect()
}

#[test]
fn order_equals_a_stable_sort_on_tables_with_many_same_time_entries() {
    let mut ties = 0;
    for (nodes, paths, seed) in [(40, 8, 1), (60, 16, 2), (120, 32, 3), (80, 24, 4)] {
        let system = generate(&GeneratorConfig::new(nodes, paths).with_seed(seed));
        let (cpg, arch) = (system.cpg(), system.arch());
        let result = generate_schedule_table(cpg, arch, &MergeConfig::new(system.broadcast_time()));
        // Collapse the times onto one or three values (the second far
        // beyond 32 bits), so many entries of one element share a start,
        // many of those a job and many of those a column length.
        for (buckets, scale) in [(1, 1), (3, 1 << 33)] {
            let mut table = result.table().clone();
            let entries: Vec<_> = result.table().all_entries_on().collect();
            for (job, column, time, resource) in entries {
                let start = Time::new(time.as_u64() % buckets * scale);
                table.set_on(job, column, start, resource);
            }
            let dispatch: Vec<(PeId, Entries)> = per_processor_dispatch(&table, cpg, arch)
                .iter()
                .map(|d| {
                    let entries = d.entries().iter();
                    (
                        d.pe(),
                        entries.map(|e| (e.job(), e.column(), e.start())).collect(),
                    )
                })
                .collect();
            assert_eq!(dispatch, stably_sorted(&table, cpg, arch), "seed {seed}");
            ties += dispatch
                .iter()
                .flat_map(|(_, entries)| entries.windows(2))
                .filter(|pair| {
                    let key =
                        |&(job, column, start): &(Job, Cube, Time)| (start, job, column.len());
                    key(&pair[0]) == key(&pair[1])
                })
                .count();
        }
    }
    assert!(ties > 100, "only {ties} fully tied neighbours");
}
