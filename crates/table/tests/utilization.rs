//! `utilization` on merged tables, where a process is often tabled in
//! several columns: every active mapped process of a track is one job on
//! its element, however many entries its row holds.

use cpg::{examples, ProcessId};
use cpg_gen::{generate, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig};
use cpg_table::utilization;

fn check(cpg: &cpg::Cpg, arch: &cpg_arch::Architecture, broadcast_time: cpg_arch::Time) {
    let result = generate_schedule_table(cpg, arch, &MergeConfig::new(broadcast_time));
    let table = result.table();
    assert!(table.jobs().any(|job| table.entries(job).count() > 1));
    for track in result.tracks().iter() {
        let loads = utilization(table, cpg, arch, &track.label());
        let mapped: Vec<ProcessId> = track
            .processes()
            .iter()
            .copied()
            .filter(|&pid| cpg.mapping(pid).is_some())
            .collect();
        let jobs: usize = loads.iter().map(|load| load.jobs).sum();
        assert_eq!(jobs, mapped.len(), "jobs on {}", track.label());
        let busy: u64 = loads.iter().map(|load| load.busy.as_u64()).sum();
        let work: u64 = mapped.iter().map(|&pid| cpg.exec_time(pid).as_u64()).sum();
        assert_eq!(busy, work, "busy time on {}", track.label());
        assert!(loads.iter().all(|load| load.utilization_percent <= 100.0));
    }
}

#[test]
fn utilization_counts_each_active_process_once_on_fig1() {
    let system = examples::fig1();
    check(system.cpg(), system.arch(), system.broadcast_time());
}

#[test]
fn utilization_counts_each_active_process_once_on_generated_systems() {
    for seed in 0..4 {
        let config = GeneratorConfig::new(60, 12)
            .with_processors(3)
            .with_buses(2)
            .with_seed(seed);
        let system = generate(&config);
        check(system.cpg(), system.arch(), system.broadcast_time());
    }
}
