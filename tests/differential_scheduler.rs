//! Differential property tests of the indexed scheduling core against the
//! retained naive reference scheduler (`cpg_path_sched::reference`, compiled
//! via the `test-util` feature).
//!
//! The `TrackContext` rewrite replaced the O(n²) eligible-job rescans and the
//! `HashMap`-keyed scheduler state with dense indexed structures and a
//! binary-heap ready queue. The two implementations must be *observably
//! identical*: for every alternative path of arbitrary generated systems,
//! both `schedule_track` and `reschedule` (under random lock sets, including
//! locks that pin a broadcast to a specific bus) must produce the same
//! `(start, end, resource)` assignment for every job, the same path delay,
//! the same cached condition resolutions and the same slipped-lock reports.
//! The condition-knowledge times a schedule records must also answer
//! `known_conditions` exactly as the graph-walking definition
//! (`reference::known_conditions`) does, on every resource and for jobs
//! without one, at every job start and end.
//!
//! On top of the per-call equivalence, the merge-level property test replays
//! every generated schedule table through the reference oracle, with each
//! tabled activation time locked on its recorded resource: every honoured
//! broadcast lock must sit on its recorded bus. `MergeStats::lock_slips`
//! must be the violation count of the run-time simulation of the table.

use std::collections::HashMap;

use proptest::prelude::*;

use cpg_path_sched::reference;
use cps::model::enumerate_tracks;
use cps::prelude::*;

/// Generator configurations covering conditional structure, heterogeneous
/// architectures (multiple buses matter: broadcast placement is the
/// historically buggy path) and both execution-time distributions. One arm
/// in three draws the shape of a deep condition nest instead: `3k` nodes over
/// `k ∈ {16, 32}` paths on two processors and one bus, where filtering edges
/// by the track's label and deriving successor rows from the predecessors
/// differ most from the graph walk of the reference.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (
        (
            12usize..48,
            2usize..10,
            1usize..5,
            1usize..4,
            any::<u64>(),
            prop::bool::ANY,
        ),
        0usize..6,
    )
        .prop_map(
            |((nodes, paths, processors, buses, seed, exponential), arm)| {
                if let Some(k) = [16usize, 32].get(arm) {
                    return GeneratorConfig::new(3 * k, *k)
                        .with_processors(2)
                        .with_buses(1)
                        .with_seed(seed);
                }
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
            },
        )
}

/// Asserts that two schedules of the same track are observably identical.
fn assert_identical(fast: &PathSchedule, slow: &PathSchedule) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.label(), slow.label());
    prop_assert_eq!(fast.delay(), slow.delay());
    prop_assert_eq!(fast.len(), slow.len());
    for sj in fast.jobs() {
        let other = slow.entry(sj.job());
        prop_assert!(other.is_some(), "{} missing from reference", sj.job());
        let other = other.unwrap();
        prop_assert!(
            sj.start() == other.start() && sj.end() == other.end() && sj.pe() == other.pe(),
            "divergence on {}: indexed {:?}..{:?} on {:?}, reference {:?}..{:?} on {:?}",
            sj.job(),
            sj.start(),
            sj.end(),
            sj.pe(),
            other.start(),
            other.end(),
            other.pe()
        );
    }
    prop_assert_eq!(fast.resolutions(), slow.resolutions());
    prop_assert_eq!(fast.slipped_locks(), slow.slipped_locks());
    Ok(())
}

/// Asserts that the knowledge times recorded in `schedule` answer
/// `known_conditions` as the graph-walking definition does, for every
/// processing element and for jobs without one, at every job start and end.
fn assert_knowledge_matches(
    cpg: &Cpg,
    arch: &Architecture,
    schedule: &PathSchedule,
) -> Result<(), TestCaseError> {
    let resources = arch.ids().map(Some).chain([None]);
    for pe in resources {
        for sj in schedule.jobs() {
            for t in [sj.start(), sj.end()] {
                let known = schedule.known_conditions(pe, t);
                let oracle = reference::known_conditions(cpg, schedule, pe, t);
                prop_assert!(
                    known == oracle,
                    "known conditions of {} on {:?} at {}: {} recorded, {} by the graph",
                    schedule.label(),
                    pe,
                    t,
                    known,
                    oracle
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // Pinned case count and shrink budget: CI runs must be deterministic and
    // fast regardless of PROPTEST_CASES / PROPTEST_MAX_SHRINK_ITERS in the
    // environment.
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn indexed_core_matches_reference_on_schedule_track(config in config_strategy()) {
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        let tau0 = system.broadcast_time();
        let scheduler = ListScheduler::new(cpg, arch, tau0);
        for track in enumerate_tracks(cpg).iter() {
            let fast = scheduler.schedule_track(track);
            let slow = reference::schedule_track(cpg, arch, tau0, track);
            assert_identical(&fast, &slow)?;
            assert_knowledge_matches(cpg, arch, &fast)?;
            assert_knowledge_matches(cpg, arch, &slow)?;
        }
    }

    #[test]
    fn indexed_core_matches_reference_on_reschedule_with_random_locks(
        config in config_strategy(),
        lock_mask in any::<u64>(),
        offset in 0u64..6,
    ) {
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        let tau0 = system.broadcast_time();
        let scheduler = ListScheduler::new(cpg, arch, tau0);
        for track in enumerate_tracks(cpg).iter() {
            let ctx = scheduler.context(track);
            let original = ctx.schedule();

            // Random lock set: a pseudo-random subset of the jobs, locked at
            // their original start shifted by a small offset — this exercises
            // honoured locks, slipped locks and locked broadcasts alike.
            // Every other locked broadcast is additionally *pinned* to a
            // rotating broadcast bus, the provenance a lock inherited from
            // the schedule table carries.
            let buses: Vec<PeId> = arch.broadcast_buses().collect();
            let mut dense_locks = LockSet::for_graph(cpg);
            let mut map_locks: HashMap<Job, (Time, Option<PeId>)> = HashMap::new();
            for (i, sj) in original.jobs().iter().enumerate() {
                if lock_mask & (1 << (i % 64)) == 0 {
                    continue;
                }
                let time = sj.start() + Time::new(offset * (i as u64 % 3));
                let pinned = match sj.job() {
                    Job::Broadcast(_) if i % 2 == 0 && !buses.is_empty() => {
                        Some(buses[i % buses.len()])
                    }
                    _ => None,
                };
                dense_locks.insert_pinned(sj.job(), time, pinned);
                map_locks.insert(sj.job(), (time, pinned));
            }
            // Locks for jobs of *other* paths must be ignored identically by
            // both implementations.
            for pid in cpg.schedulable_processes().filter(|&p| !track.contains(p)).take(3) {
                let job = Job::Process(pid);
                dense_locks.insert(job, Time::new(offset));
                map_locks.insert(job, (Time::new(offset), None));
            }

            let fast = ctx.reschedule(&original, &dense_locks);
            let slow = reference::reschedule(cpg, arch, tau0, track, &original, &map_locks);
            assert_identical(&fast, &slow)?;
            assert_knowledge_matches(cpg, arch, &fast)?;
            assert_knowledge_matches(cpg, arch, &slow)?;

            // Honoured pinned broadcast locks occupy exactly the pinned bus.
            for (job, time, pinned) in dense_locks.iter_pinned() {
                let (Some(bus), Some(entry)) = (pinned, fast.entry(job)) else {
                    continue;
                };
                if entry.start() == time {
                    prop_assert!(
                        entry.pe() == Some(bus),
                        "pinned broadcast {} migrated off its bus to {:?}",
                        job,
                        entry.pe()
                    );
                }
            }

            // The dense lock set agrees with the map it mirrors.
            prop_assert_eq!(dense_locks.len(), map_locks.len());
            for (job, time, pinned) in dense_locks.iter_pinned() {
                prop_assert_eq!(map_locks.get(&job).copied(), Some((time, pinned)));
                prop_assert_eq!(dense_locks.pinned_pe(job), pinned);
            }
        }
    }

    /// The merge keeps a track's optimal schedule as the adjustment whenever
    /// that schedule honours every inherited lock. On generated systems this
    /// is exactly what the reschedule returns: a random subset of each
    /// track's jobs locked at their optimal start, pinned to their optimal
    /// processor or bus, reproduces the optimal schedule.
    #[test]
    fn reschedule_under_locks_the_optimal_schedule_honours_returns_it(
        config in config_strategy(),
        lock_mask in any::<u64>(),
    ) {
        let system = generate(&config);
        let cpg = system.cpg();
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in enumerate_tracks(cpg).iter() {
            let ctx = scheduler.context(track);
            let optimal = ctx.schedule();
            let mut locks = LockSet::for_graph(cpg);
            for (i, sj) in optimal.jobs().iter().enumerate() {
                if lock_mask & (1 << (i % 64)) != 0 {
                    locks.insert_pinned(sj.job(), sj.start(), sj.pe());
                }
            }
            // Locks on other paths' processes are ignored by both.
            for pid in cpg.schedulable_processes().filter(|&p| !track.contains(p)).take(3) {
                locks.insert(Job::Process(pid), Time::ZERO);
            }
            prop_assert!(optimal.honours(&locks));
            prop_assert_eq!(ctx.reschedule(&optimal, &locks), optimal);
        }
    }

    /// The post-merge invariant of the slip-correcting pipeline: replaying
    /// the final schedule table through the naive reference oracle — every
    /// job locked at its applicable tabled time, pinned to the resource
    /// recorded when the time was tabled — every honoured broadcast lock must
    /// occupy its recorded bus. The merge counts the violations of a
    /// simulated run of the table as `lock_slips`; that count must be the
    /// simulator's own.
    #[test]
    fn merged_tables_are_realizable_or_surviving_slips_are_counted(
        config in config_strategy(),
    ) {
        let system = generate(&config);
        let cpg = system.cpg();
        let arch = system.arch();
        let tau0 = system.broadcast_time();
        let result = generate_schedule_table(cpg, arch, &MergeConfig::new(tau0));
        let table = result.table();

        for track in result.tracks().iter() {
            let label = track.label();
            let mut locks: HashMap<Job, (Time, Option<PeId>)> = HashMap::new();
            let jobs = track
                .processes()
                .iter()
                .filter(|&&p| !cpg.process(p).kind().is_dummy())
                .map(|&p| Job::Process(p))
                .chain(track.determined_conditions().map(Job::Broadcast));
            for job in jobs {
                if let Some(activation) = table.activation(job, &label) {
                    locks.insert(job, (activation.time, activation.resource));
                }
            }
            let original = reference::schedule_track(cpg, arch, tau0, track);
            let replay = reference::reschedule(cpg, arch, tau0, track, &original, &locks);

            // Honoured broadcast locks sit on the bus recorded at tabling
            // time — the tabled (time, bus) pair is what the run-time bus
            // scheduler executes.
            for (&job, &(time, resource)) in &locks {
                let (Job::Broadcast(_), Some(bus)) = (job, resource) else {
                    continue;
                };
                let Some(entry) = replay.entry(job) else { continue };
                if entry.start() == time {
                    prop_assert!(
                        entry.pe() == Some(bus),
                        "broadcast {} not on its recorded bus on {}",
                        job,
                        track.label()
                    );
                }
            }
        }
        let simulated: usize = Simulator::new(cpg, arch, table, tau0)
            .run_all(result.tracks())
            .iter()
            .map(|report| report.violations().len())
            .sum();
        prop_assert_eq!(simulated, result.stats().lock_slips);
    }
}
