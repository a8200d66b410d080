//! Analysis helpers on top of the schedule table: resource utilisation,
//! per-scenario load.
//!
//! These are the numbers a designer looks at right after the worst-case
//! delay: how busy is each processor and bus in the worst case, and is the
//! architecture over-provisioned? The paper uses exactly this kind of
//! estimation to choose between the OAM architectures of its Table 2.

use std::collections::BTreeMap;

use cpg::{Cpg, Cube};
use cpg_arch::{Architecture, PeId, Time};
use cpg_path_sched::Job;

use crate::table::ScheduleTable;

/// Busy time and utilisation of one processing element during one execution
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceLoad {
    /// The processing element.
    pub pe: PeId,
    /// Total time the element executes processes (or transfers) during the
    /// scenario.
    pub busy: Time,
    /// Number of jobs executed on the element during the scenario.
    pub jobs: usize,
    /// `busy` divided by the scenario delay, in percent (0 when the delay is
    /// zero).
    pub utilization_percent: f64,
}

/// Per-scenario resource utilisation derived from a schedule table.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_merge::{generate_schedule_table, MergeConfig};
/// use cpg_table::utilization;
///
/// let system = examples::fig1();
/// let result = generate_schedule_table(
///     system.cpg(),
///     system.arch(),
///     &MergeConfig::new(system.broadcast_time()),
/// );
/// let track = &result.tracks().tracks()[0];
/// let loads = utilization(result.table(), system.cpg(), system.arch(), &track.label());
/// assert_eq!(loads.len(), system.arch().len());
/// assert!(loads.iter().any(|l| l.busy > cpg_arch::Time::ZERO));
/// ```
#[must_use]
pub fn utilization(
    table: &ScheduleTable,
    cpg: &Cpg,
    arch: &Architecture,
    label: &Cube,
) -> Vec<ResourceLoad> {
    let delay = table.track_delay(cpg, label);
    let mut busy: BTreeMap<PeId, (Time, usize)> =
        arch.ids().map(|pe| (pe, (Time::ZERO, 0))).collect();
    for job in table.jobs() {
        let Job::Process(pid) = job else { continue };
        if !cpg.guard(pid).implied_by(label) {
            continue;
        }
        if table.activation(job, label).is_none() {
            continue;
        }
        let Some(pe) = cpg.mapping(pid) else { continue };
        let entry = busy.entry(pe).or_insert((Time::ZERO, 0));
        entry.0 += cpg.exec_time(pid);
        entry.1 += 1;
    }
    busy.into_iter()
        .map(|(pe, (busy, jobs))| ResourceLoad {
            pe,
            busy,
            jobs,
            utilization_percent: if delay.is_zero() {
                0.0
            } else {
                100.0 * busy.as_u64() as f64 / delay.as_u64() as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{enumerate_tracks, examples};
    use cpg_arch::Time;

    fn diamond_table() -> (examples::ExampleSystem, ScheduleTable, cpg::TrackSet) {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let mut table = ScheduleTable::new();
        for track in tracks.iter() {
            for &pid in track.processes() {
                if cpg.process(pid).kind().is_dummy() {
                    continue;
                }
                let column = if cpg.guard(pid).is_true() {
                    Cube::top()
                } else {
                    track.label()
                };
                table.set(Job::Process(pid), column, Time::new(2 * pid.index() as u64));
            }
        }
        (system.clone(), table, tracks)
    }

    #[test]
    fn utilization_covers_every_processing_element() {
        let (system, table, tracks) = diamond_table();
        let label = tracks.tracks()[0].label();
        let loads = utilization(&table, system.cpg(), system.arch(), &label);
        assert_eq!(loads.len(), system.arch().len());
        let total_jobs: usize = loads.iter().map(|l| l.jobs).sum();
        // Every active, mapped process is attributed to exactly one resource.
        let active = tracks.tracks()[0]
            .processes()
            .iter()
            .filter(|&&p| !system.cpg().process(p).kind().is_dummy())
            .count();
        assert_eq!(total_jobs, active);
        for load in &loads {
            assert!(load.utilization_percent >= 0.0);
            assert!(load.utilization_percent <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn utilization_is_zero_for_an_empty_table() {
        let system = examples::diamond();
        let table = ScheduleTable::new();
        let loads = utilization(&table, system.cpg(), system.arch(), &Cube::top());
        assert!(loads.iter().all(|l| l.busy == Time::ZERO && l.jobs == 0));
        assert!(loads.iter().all(|l| l.utilization_percent == 0.0));
    }
}
