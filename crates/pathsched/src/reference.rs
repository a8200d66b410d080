//! Naive reference implementation of the list scheduler, kept as an oracle
//! for differential testing of the indexed core.
//!
//! This module preserves the original, straightforward serial
//! schedule-generation scheme: `HashMap`-keyed state and a full O(n²) rescan
//! of the remaining jobs at every commit. It is compiled only for tests
//! (`cfg(test)`) and for consumers that enable the `test-util` feature; it is
//! **not** part of the supported API surface.
//!
//! Semantically it implements exactly the same (fixed) lock handling as the
//! production [`TrackContext`](crate::TrackContext) core — locked broadcasts
//! keep the bus their lock pins (table provenance) or the bus assigned by the
//! original schedule, locked intervals are reserved on the correct resource,
//! and slipped locks are recorded — so any divergence between the two
//! implementations flags a defect in the indexed data structures, not an
//! intentional behaviour change. Unlike the production core it allocates its
//! state fresh per call (no [`RunScratch`](crate::RunScratch) arena), which
//! makes it a second, independent oracle for the scratch-reuse contract: a
//! reused arena must keep matching these from-scratch schedules.

use std::collections::HashMap;

use cpg::{CondId, Cpg, Cube, Track};
use cpg_arch::{Architecture, PeId, Time};

use crate::calendar::Calendar;
use crate::job::{Job, JobSlots, ScheduledJob};
use crate::schedule::{Knowledge, PathSchedule, SlippedLock};

/// A locked activation time and, when the lock carries table provenance, the
/// resource it pins the job to — the map-based mirror of
/// [`LockSet`](crate::LockSet) entries.
pub type LockedStart = (Time, Option<PeId>);

/// Schedules one alternative path with the partial-critical-path priority,
/// rescanning the remaining jobs at every commit.
#[must_use]
pub fn schedule_track(
    cpg: &Cpg,
    arch: &Architecture,
    broadcast_time: Time,
    track: &Track,
) -> PathSchedule {
    let priorities = critical_path_priorities(cpg, track);
    run(
        cpg,
        arch,
        broadcast_time,
        track,
        &priorities,
        &HashMap::new(),
        None,
    )
}

/// Re-schedules a path around the locked activation times, preserving the
/// relative order (and, for broadcasts, the pinned or original bus) of
/// `original`.
#[must_use]
pub fn reschedule(
    cpg: &Cpg,
    arch: &Architecture,
    broadcast_time: Time,
    track: &Track,
    original: &PathSchedule,
    locks: &HashMap<Job, LockedStart>,
) -> PathSchedule {
    // Priority: earlier original start  =>  scheduled earlier.
    let priorities: HashMap<Job, u64> = original
        .jobs()
        .iter()
        .map(|sj| (sj.job(), u64::MAX - sj.start().as_u64()))
        .collect();
    run(
        cpg,
        arch,
        broadcast_time,
        track,
        &priorities,
        locks,
        Some(original),
    )
}

/// Partial-critical-path priorities of the track's jobs.
fn critical_path_priorities(cpg: &Cpg, track: &Track) -> HashMap<Job, u64> {
    let mut lengths: HashMap<cpg::ProcessId, u64> = HashMap::new();
    for &pid in cpg.topological_order().iter().rev() {
        if !track.contains(pid) {
            continue;
        }
        let downstream = cpg
            .out_edges(pid)
            .filter(|edge| {
                track.contains(edge.to())
                    && edge
                        .condition()
                        .is_none_or(|lit| track.label().contains(lit))
            })
            .filter_map(|edge| lengths.get(&edge.to()).copied())
            .max()
            .unwrap_or(0);
        lengths.insert(pid, downstream + cpg.exec_time(pid).as_u64());
    }
    let mut priorities: HashMap<Job, u64> = lengths
        .into_iter()
        .map(|(pid, len)| (Job::Process(pid), len))
        .collect();
    for cond in track.determined_conditions() {
        priorities.insert(Job::Broadcast(cond), u64::MAX);
    }
    priorities
}

/// The resource a locked job occupies: the mapping for processes; for
/// broadcasts the bus the lock pins, then the bus assigned by the original
/// schedule, then the first broadcast bus.
fn locked_pe(
    cpg: &Cpg,
    broadcast_buses: &[PeId],
    original: Option<&PathSchedule>,
    job: Job,
    pinned: Option<PeId>,
) -> Option<PeId> {
    match job {
        Job::Process(pid) => cpg.mapping(pid),
        Job::Broadcast(_) => pinned
            .or_else(|| {
                original
                    .and_then(|o| o.entry(job))
                    .and_then(ScheduledJob::pe)
            })
            .or_else(|| broadcast_buses.first().copied()),
    }
}

/// Serial schedule-generation scheme: commits eligible jobs in priority order
/// to the earliest feasible slot of their resource.
#[allow(clippy::too_many_lines)]
fn run(
    cpg: &Cpg,
    arch: &Architecture,
    broadcast_time: Time,
    track: &Track,
    priorities: &HashMap<Job, u64>,
    locks: &HashMap<Job, LockedStart>,
    original: Option<&PathSchedule>,
) -> PathSchedule {
    let needs_broadcast = arch.needs_broadcast();
    let broadcast_buses: Vec<PeId> = arch.broadcast_buses().collect();
    let duration_of = |job: Job| match job {
        Job::Process(pid) => cpg.exec_time(pid),
        Job::Broadcast(_) => broadcast_time,
    };

    // The jobs of this path.
    let mut jobs: Vec<Job> = track.processes().iter().map(|&p| Job::Process(p)).collect();
    if needs_broadcast {
        jobs.extend(track.determined_conditions().map(Job::Broadcast));
    }

    // Dependencies: a process waits for every input it actually receives on
    // this path; a broadcast waits for its disjunction process.
    let mut preds: HashMap<Job, Vec<Job>> = HashMap::with_capacity(jobs.len());
    for &job in &jobs {
        let list = match job {
            Job::Process(pid) => cpg
                .in_edges(pid)
                .filter(|edge| {
                    track.contains(edge.from())
                        && edge
                            .condition()
                            .is_none_or(|lit| track.label().contains(lit))
                })
                .map(|edge| Job::Process(edge.from()))
                .collect(),
            Job::Broadcast(cond) => vec![Job::Process(cpg.disjunction_of(cond))],
        };
        preds.insert(job, list);
    }

    // Guard availability: cheapest guard cube satisfied on this path.
    let guard_requirements: HashMap<Job, Vec<CondId>> = jobs
        .iter()
        .map(|&job| {
            let guard = match job {
                Job::Process(pid) => cpg.guard(pid),
                Job::Broadcast(cond) => cpg.guard(cpg.disjunction_of(cond)),
            };
            let cube = guard
                .cubes()
                .iter()
                .filter(|cube| track.label().implies(cube))
                .min_by_key(|cube| cube.len())
                .copied()
                .unwrap_or(Cube::top());
            (job, cube.conditions().collect::<Vec<_>>())
        })
        .collect();

    // Exclusive-resource calendars, pre-reserving the locked jobs on the
    // resource they actually occupy. Locks for jobs that are not part of
    // this track are ignored: processes of other alternative paths never
    // execute on this one, so their tabled times must not occupy resources
    // here.
    let mut calendars: HashMap<PeId, Calendar> = HashMap::new();
    for (&job, &(start, pinned)) in locks {
        if !jobs.contains(&job) {
            continue;
        }
        if let Some(pe) = locked_pe(cpg, &broadcast_buses, original, job, pinned) {
            if arch.is_exclusive(pe) {
                calendars
                    .entry(pe)
                    .or_default()
                    .reserve(start, duration_of(job));
            }
        }
    }

    let mut scheduled: HashMap<Job, ScheduledJob> = HashMap::with_capacity(jobs.len());
    let mut slipped: Vec<SlippedLock> = Vec::new();
    let mut remaining: Vec<Job> = jobs.clone();

    while !remaining.is_empty() {
        // Eligible jobs: all predecessors committed.
        let mut best: Option<(u64, Job)> = None;
        for &job in &remaining {
            let eligible = preds[&job].iter().all(|p| scheduled.contains_key(p));
            if !eligible {
                continue;
            }
            let priority = priorities.get(&job).copied().unwrap_or(0);
            let better = match best {
                None => true,
                Some((bp, bj)) => priority > bp || (priority == bp && job < bj),
            };
            if better {
                best = Some((priority, job));
            }
        }
        let (_, job) = best.expect("acyclic graphs always have an eligible job");
        remaining.retain(|&j| j != job);

        let mut data_ready = preds[&job]
            .iter()
            .map(|p| scheduled[p].end())
            .max()
            .unwrap_or(Time::ZERO);
        // The guard of the job must be decidable on its processing element
        // before it can be activated.
        if needs_broadcast {
            let local_pe = match job {
                Job::Process(pid) => cpg.mapping(pid),
                Job::Broadcast(_) => None,
            };
            for &cond in &guard_requirements[&job] {
                data_ready = data_ready.max(condition_available(cpg, &scheduled, cond, local_pe));
            }
        }
        let duration = duration_of(job);
        let entry = if let Some(&(lock, pinned)) = locks.get(&job) {
            // Locked jobs keep the activation time fixed in the table; a
            // pushed lock slips, is recorded, and its real interval is
            // reserved.
            let start = lock.max(data_ready);
            let pe = locked_pe(cpg, &broadcast_buses, original, job, pinned);
            if start != lock {
                slipped.push(SlippedLock {
                    job,
                    intended: lock,
                    actual: start,
                });
                if let Some(pe) = pe {
                    if arch.is_exclusive(pe) {
                        calendars.entry(pe).or_default().reserve(start, duration);
                    }
                }
            }
            ScheduledJob {
                job,
                start,
                end: start + duration,
                pe,
            }
        } else {
            let fit = |pe: PeId| -> Time {
                if arch.is_exclusive(pe) {
                    calendars
                        .get(&pe)
                        .map_or(data_ready, |c| c.earliest_fit(data_ready, duration))
                } else {
                    data_ready
                }
            };
            let placement = match job {
                Job::Process(pid) => cpg.mapping(pid).map(|pe| (pe, fit(pe))),
                Job::Broadcast(_) => broadcast_buses
                    .iter()
                    .map(|&bus| (bus, fit(bus)))
                    .min_by_key(|&(bus, start)| (start, bus)),
            };
            match placement {
                Some((pe, start)) => {
                    if arch.is_exclusive(pe) {
                        calendars.entry(pe).or_default().reserve(start, duration);
                    }
                    ScheduledJob {
                        job,
                        start,
                        end: start + duration,
                        pe: Some(pe),
                    }
                }
                // Dummy source/sink: no resource.
                None => ScheduledJob {
                    job,
                    start: data_ready,
                    end: data_ready + duration,
                    pe: None,
                },
            }
        };
        scheduled.insert(job, entry);
    }

    let delay = scheduled
        .get(&Job::Process(cpg.sink()))
        .map_or(Time::ZERO, ScheduledJob::start);
    let knowledge: Vec<Knowledge> = scheduled
        .values()
        .filter_map(|sj| {
            let pid = sj.job().as_process()?;
            let cond = cpg.process(pid).computes()?;
            Some(Knowledge {
                cond,
                pe: cpg.mapping(pid),
                computed: sj.end(),
                broadcast: scheduled.get(&Job::Broadcast(cond)).map(ScheduledJob::end),
            })
        })
        .collect();
    PathSchedule::new_detailed(
        track.label(),
        scheduled.into_values().collect(),
        delay,
        knowledge,
        slipped,
        JobSlots::for_graph(cpg),
    )
}

/// The conditions (with the polarity given by the path label) whose value
/// is known on `pe` at time `t` under `schedule`, derived from the graph and
/// the scheduled jobs: the definition
/// [`PathSchedule::known_conditions`] answers from the knowledge times its
/// scheduler run recorded. A condition is known on the processing element
/// of its disjunction process, and for jobs without a resource (`None`),
/// once that process completes; elsewhere once its broadcast completes, or
/// once the process completes when the path broadcasts nothing.
#[must_use]
pub fn known_conditions(cpg: &Cpg, schedule: &PathSchedule, pe: Option<PeId>, t: Time) -> Cube {
    let mut cube = Cube::top();
    for lit in schedule.label().literals() {
        let disjunction = cpg.disjunction_of(lit.cond());
        let Some(computed) = schedule.end(Job::Process(disjunction)) else {
            continue;
        };
        let known = match pe {
            Some(pe) if cpg.mapping(disjunction) != Some(pe) => {
                schedule.end(Job::Broadcast(lit.cond())).unwrap_or(computed)
            }
            _ => computed,
        };
        if known <= t {
            cube = cube
                .and(lit)
                .expect("literals of a single track label are consistent");
        }
    }
    cube
}

/// The moment the value of `cond` becomes available to the run-time scheduler
/// of `pe` under the partially built schedule.
fn condition_available(
    cpg: &Cpg,
    scheduled: &HashMap<Job, ScheduledJob>,
    cond: CondId,
    pe: Option<PeId>,
) -> Time {
    let disjunction = cpg.disjunction_of(cond);
    let computed = scheduled
        .get(&Job::Process(disjunction))
        .map_or(Time::ZERO, ScheduledJob::end);
    match pe {
        Some(pe) if cpg.mapping(disjunction) == Some(pe) => computed,
        _ => scheduled
            .get(&Job::Broadcast(cond))
            .map_or(computed, ScheduledJob::end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{enumerate_tracks, examples};

    #[test]
    fn reference_agrees_with_the_indexed_core_on_the_examples() {
        // One scratch arena reused across every system, track and run: the
        // from-scratch reference doubles as the oracle for arena reuse.
        let mut scratch = crate::RunScratch::new();
        for system in [
            examples::diamond(),
            examples::sensor_actuator(),
            examples::fig1(),
        ] {
            let cpg = system.cpg();
            let arch = system.arch();
            let tau0 = system.broadcast_time();
            let scheduler = crate::ListScheduler::new(cpg, arch, tau0);
            let tracks = enumerate_tracks(cpg);
            for track in tracks.iter() {
                let ctx = scheduler.context(track);
                let fast = ctx.schedule_with(&mut scratch);
                let slow = schedule_track(cpg, arch, tau0, track);
                assert_eq!(fast, slow, "divergence on {}", track.label());

                // Reschedule with every other job locked at its original
                // start.
                let locks: HashMap<Job, Time> = fast
                    .jobs()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == 0)
                    .map(|(_, sj)| (sj.job(), sj.start()))
                    .collect();
                let pinned: HashMap<Job, LockedStart> = locks
                    .iter()
                    .map(|(&job, &time)| (job, (time, None)))
                    .collect();
                let mut lock_set = crate::LockSet::for_graph(cpg);
                for (&job, &time) in &locks {
                    lock_set.insert(job, time);
                }
                let mut fast_adj = PathSchedule::default();
                ctx.reschedule_into(&mut scratch, &fast, &lock_set, &mut fast_adj);
                let slow_adj = reschedule(cpg, arch, tau0, track, &slow, &pinned);
                assert_eq!(fast_adj, slow_adj, "reschedule divergence");
            }
        }
    }
}
