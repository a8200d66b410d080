//! Resource-constrained list scheduling of a single alternative path.
//!
//! The paper schedules each alternative path of the conditional process graph
//! with a list-scheduling algorithm (reference \[5\] of the paper) before
//! merging the per-path schedules into the global schedule table. This module
//! implements that scheduler:
//!
//! * processes become *eligible* when all the inputs they actually receive on
//!   the current path have arrived;
//! * eligible processes are committed in priority order (partial critical
//!   path by default) to the earliest gap on their mapped resource;
//! * programmable processors and buses execute one job at a time, hardware
//!   processors execute any number of jobs in parallel;
//! * after each disjunction process terminates, the value of its condition is
//!   broadcast on the first bus that becomes available, occupying it for `τ0`
//!   time units.
//!
//! The same engine re-schedules a path with some activation times *locked*
//! (the "adjustment" step of the merge algorithm), keeping the relative order
//! of the unlocked processes on every non-hardware processor, the bus each
//! locked broadcast was originally assigned to, and reporting locks that
//! could not be honoured through [`PathSchedule::slipped_locks`].
//!
//! [`ListScheduler`] gathers the track-independent graph tables once — edge
//! lists with their condition literals, execution times, mappings, the
//! disjunction process of each condition and the broadcast buses — and
//! derives from them the dense, indexed per-track representation of
//! [`TrackContext`] (see the `context` module): job
//! indices, adjacency, guard requirements and priorities, built once per
//! track, with eligibility driven by a binary-heap ready queue. Callers that
//! schedule the same track repeatedly — like the merge algorithm, which
//! builds one scheduler per merge — should build the context once via
//! [`ListScheduler::context`] and reuse it, threading a
//! [`RunScratch`] arena through the runs so the per-call
//! dense state is reused instead of reallocated.

use cpg::{Cpg, Track, TrackSet};
use cpg_arch::{Architecture, Time};

use crate::context::{GraphTables, TrackContext};
use crate::schedule::PathSchedule;
use crate::scratch::RunScratch;

/// List scheduler for the alternative paths of a conditional process graph.
///
/// # Example
///
/// ```
/// use cpg::{enumerate_tracks, examples};
/// use cpg_path_sched::ListScheduler;
///
/// let system = examples::fig1();
/// let tracks = enumerate_tracks(system.cpg());
/// let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
///
/// let schedules = scheduler.schedule_all(&tracks);
/// assert_eq!(schedules.len(), 6);
/// // Every schedule respects dependencies and resource exclusiveness.
/// for (track, schedule) in tracks.iter().zip(&schedules) {
///     assert!(schedule.verify(system.cpg(), system.arch()).is_ok());
///     assert_eq!(schedule.label(), track.label());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ListScheduler<'a> {
    cpg: &'a Cpg,
    arch: &'a Architecture,
    broadcast_time: Time,
    tables: GraphTables,
}

impl<'a> ListScheduler<'a> {
    /// Creates a scheduler for the given graph, architecture and condition
    /// broadcast time `τ0`, gathering the graph's edges, execution times,
    /// mappings and broadcast buses once for every track context it builds.
    #[must_use]
    pub fn new(cpg: &'a Cpg, arch: &'a Architecture, broadcast_time: Time) -> Self {
        ListScheduler {
            cpg,
            arch,
            broadcast_time,
            tables: GraphTables::new(cpg, arch),
        }
    }

    /// The graph being scheduled.
    #[must_use]
    pub fn cpg(&self) -> &'a Cpg {
        self.cpg
    }

    /// The target architecture.
    #[must_use]
    pub fn arch(&self) -> &'a Architecture {
        self.arch
    }

    /// The condition broadcast time `τ0`.
    #[must_use]
    pub fn broadcast_time(&self) -> Time {
        self.broadcast_time
    }

    /// Builds the reusable dense scheduling context of one track from the
    /// scheduler's graph tables. Schedule and re-schedule the track through
    /// the returned context when the same track is scheduled more than once
    /// (the merge algorithm re-runs the scheduler at every back-step
    /// adjustment and conflict repair).
    #[must_use]
    pub fn context(&self, track: &Track) -> TrackContext<'a> {
        TrackContext::new(
            self.cpg,
            self.arch,
            self.broadcast_time,
            &self.tables,
            track,
        )
    }

    /// Schedules one alternative path with the partial-critical-path priority
    /// (longest remaining path to the sink first).
    #[must_use]
    pub fn schedule_track(&self, track: &Track) -> PathSchedule {
        self.context(track).schedule()
    }

    /// Schedules every alternative path of a track set, in track order,
    /// reusing one scratch arena across all of them.
    #[must_use]
    pub fn schedule_all(&self, tracks: &TrackSet) -> Vec<PathSchedule> {
        let mut scratch = RunScratch::new();
        tracks
            .iter()
            .map(|t| self.context(t).schedule_with(&mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LockSet;
    use crate::job::Job;
    use cpg::{enumerate_tracks, examples, Cube};

    #[test]
    fn diamond_schedules_both_tracks_correctly() {
        let system = examples::diamond();
        let tracks = enumerate_tracks(system.cpg());
        let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let schedule = scheduler.schedule_track(track);
            schedule.verify(system.cpg(), system.arch()).unwrap();
            assert_eq!(schedule.label(), track.label());
            assert!(schedule.delay() > Time::ZERO);
            // All processes of the track are scheduled.
            for &p in track.processes() {
                assert!(schedule.contains(Job::Process(p)), "{p} missing");
            }
            // One broadcast per determined condition.
            for cond in track.determined_conditions() {
                assert!(schedule.contains(Job::Broadcast(cond)));
            }
        }
    }

    #[test]
    fn fig1_path_delays_have_the_published_shape() {
        let system = examples::fig1();
        let tracks = enumerate_tracks(system.cpg());
        let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        let schedules = scheduler.schedule_all(&tracks);
        assert_eq!(schedules.len(), 6);
        for (track, schedule) in tracks.iter().zip(&schedules) {
            schedule.verify(system.cpg(), system.arch()).unwrap();
            assert_eq!(schedule.label(), track.label());
        }
        // The paper's Fig. 2 reports per-path delays between 31 and 39 time
        // units; the reconstruction should land in the same region.
        let delays: Vec<u64> = schedules.iter().map(|s| s.delay().as_u64()).collect();
        let min = *delays.iter().min().unwrap();
        let max = *delays.iter().max().unwrap();
        assert!(
            (30..=50).contains(&max),
            "longest path delay {max} out of range"
        );
        assert!(
            min >= 20 && min <= max,
            "shortest path delay {min} out of range"
        );
    }

    #[test]
    fn broadcasts_follow_their_disjunction_process() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let schedule = scheduler.schedule_track(track);
            for cond in track.determined_conditions() {
                let broadcast = schedule.entry(Job::Broadcast(cond)).unwrap();
                let disjunction = schedule
                    .end(Job::Process(cpg.disjunction_of(cond)))
                    .unwrap();
                assert!(broadcast.start() >= disjunction);
                assert_eq!(broadcast.duration(), system.broadcast_time());
                // Broadcasts use a bus.
                let bus = broadcast.pe().unwrap();
                assert!(system.arch().kind_of(bus).is_bus());
            }
        }
    }

    #[test]
    fn condition_known_earlier_on_the_computing_processor() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        let c = system.condition("C").unwrap();
        let track = tracks
            .iter()
            .find(|t| t.label().contains(c.is_true()))
            .unwrap();
        let schedule = scheduler.schedule_track(track);
        let own_pe = cpg.mapping(cpg.disjunction_of(c)).unwrap();
        let other_pe = system
            .arch()
            .computation_elements()
            .find(|&pe| pe != own_pe)
            .unwrap();
        let own = schedule.condition_known_at(c, own_pe).unwrap();
        let other = schedule.condition_known_at(c, other_pe).unwrap();
        assert!(
            own <= other,
            "own {own} should not be later than remote {other}"
        );
        assert!(other >= own + system.broadcast_time());
    }

    #[test]
    fn known_conditions_grow_monotonically_with_time() {
        let system = examples::sensor_actuator();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let schedule = scheduler.schedule_track(track);
            for pe in system.arch().computation_elements() {
                let early = schedule.known_conditions(Some(pe), Time::ZERO);
                let late = schedule.known_conditions(Some(pe), Time::new(1_000));
                assert!(late.implies(&early));
                assert_eq!(late, track.label().retain(|_| true));
            }
        }
    }

    #[test]
    fn reschedule_with_locks_pins_the_locked_process() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        let track = &tracks.tracks()[0];
        let original = scheduler.schedule_track(track);

        // Lock the disjunction process three time units later than its
        // original start.
        let decide = cpg.process_by_name("decide").unwrap();
        let original_start = original.start(Job::Process(decide)).unwrap();
        let locked_start = original_start + Time::new(3);
        let mut locks = LockSet::for_graph(cpg);
        locks.insert(Job::Process(decide), locked_start);

        let adjusted = scheduler.context(track).reschedule(&original, &locks);
        assert_eq!(adjusted.start(Job::Process(decide)), Some(locked_start));
        assert!(adjusted.slipped_locks().is_empty());
        // Everything still valid, possibly longer.
        adjusted.verify(cpg, system.arch()).unwrap();
        assert!(adjusted.delay() >= original.delay());
    }

    #[test]
    fn reschedule_without_locks_reproduces_the_original_delay() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let original = scheduler.schedule_track(track);
            let again = scheduler
                .context(track)
                .reschedule(&original, &LockSet::for_graph(cpg));
            again.verify(cpg, system.arch()).unwrap();
            assert_eq!(again.delay(), original.delay());
        }
    }

    #[test]
    fn reschedule_with_all_jobs_locked_reproduces_the_original() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let original = scheduler.schedule_track(track);
            let mut locks = LockSet::for_graph(cpg);
            for sj in original.jobs() {
                locks.insert(sj.job(), sj.start());
            }
            let adjusted = scheduler.context(track).reschedule(&original, &locks);
            for sj in original.jobs() {
                assert_eq!(adjusted.start(sj.job()), Some(sj.start()), "{}", sj.job());
            }
            assert_eq!(adjusted.delay(), original.delay());
            assert!(adjusted.slipped_locks().is_empty());
        }
    }

    #[test]
    fn locking_a_process_later_only_delays_downstream_work() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        let track = &tracks.tracks()[0];
        let original = scheduler.schedule_track(track);
        // Lock an arbitrary mid-schedule process a bit later.
        let victim = original
            .jobs()
            .iter()
            .find(|sj| {
                sj.job()
                    .as_process()
                    .is_some_and(|p| !cpg.process(p).kind().is_dummy() && sj.start() > Time::ZERO)
            })
            .unwrap();
        let mut locks = LockSet::for_graph(cpg);
        locks.insert(victim.job(), victim.start() + Time::new(4));
        let adjusted = scheduler.context(track).reschedule(&original, &locks);
        adjusted.verify(cpg, system.arch()).unwrap();
        assert_eq!(
            adjusted.start(victim.job()),
            Some(victim.start() + Time::new(4))
        );
        // The same set of jobs is scheduled.
        assert_eq!(adjusted.len(), original.len());
    }

    #[test]
    fn locked_broadcasts_keep_their_original_bus() {
        // Two broadcast buses: the optimal schedule may spread broadcasts
        // over both. Locking a broadcast through `reschedule` must keep the
        // bus the original schedule assigned, not silently migrate the
        // broadcast to the first bus.
        use cpg::CpgBuilder;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus0")
            .bus("bus1")
            .build()
            .unwrap();
        let cpu0 = arch.pe_by_name("cpu0").unwrap();
        let cpu1 = arch.pe_by_name("cpu1").unwrap();
        let bus1 = arch.pe_by_name("bus1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let d = b.condition("D");
        let r1 = b.process("r1", Time::new(2), cpu0);
        let r2 = b.process("r2", Time::new(2), cpu1);
        let a1 = b.process("a1", Time::new(2), cpu0);
        let a2 = b.process("a2", Time::new(2), cpu0);
        let b1 = b.process("b1", Time::new(2), cpu1);
        let b2 = b.process("b2", Time::new(2), cpu1);
        b.conditional_edge(r1, a1, c.is_true(), Time::ZERO);
        b.conditional_edge(r1, a2, c.is_false(), Time::ZERO);
        b.conditional_edge(r2, b1, d.is_true(), Time::ZERO);
        b.conditional_edge(r2, b2, d.is_false(), Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        let scheduler = ListScheduler::new(&cpg, &arch, Time::new(3));

        // Find a track whose optimal schedule puts some broadcast on bus1
        // (both disjunction processes finish simultaneously, so the two
        // broadcasts are spread over the two buses).
        let (track, original, cond) = tracks
            .iter()
            .find_map(|track| {
                let schedule = scheduler.schedule_track(track);
                let cond = track.determined_conditions().find(|&cond| {
                    schedule.entry(Job::Broadcast(cond)).map(|sj| sj.pe()) == Some(Some(bus1))
                })?;
                Some((track, schedule, cond))
            })
            .expect("two simultaneous broadcasts must use both buses");

        let mut locks = LockSet::for_graph(&cpg);
        let start = original.start(Job::Broadcast(cond)).unwrap();
        locks.insert(Job::Broadcast(cond), start);
        let adjusted = scheduler.context(track).reschedule(&original, &locks);
        let entry = adjusted.entry(Job::Broadcast(cond)).unwrap();
        assert_eq!(entry.start(), start);
        assert_eq!(
            entry.pe(),
            Some(bus1),
            "locked broadcast migrated off its original bus"
        );
        assert!(adjusted.slipped_locks().is_empty());
        adjusted.verify(&cpg, &arch).unwrap();
    }

    #[test]
    fn pinned_locks_override_the_tracks_own_bus_choice() {
        // Regression test for the wrong-bus inherited lock: a lock derived
        // from the schedule table carries the bus recorded when the time was
        // tabled — possibly by a *different* path's adjusted schedule — and
        // that bus can differ from the bus this track's own optimal schedule
        // would pick. Before table-side lock provenance existed, `reschedule`
        // fell back to the track-local bus, so a broadcast tabled on a
        // non-first bus migrated and could collide with the job legitimately
        // occupying its track-local bus at that time.
        use cpg::CpgBuilder;
        let arch = Architecture::builder()
            .processor("cpu0")
            .processor("cpu1")
            .bus("bus0")
            .bus("bus1")
            .build()
            .unwrap();
        let cpu0 = arch.pe_by_name("cpu0").unwrap();
        let cpu1 = arch.pe_by_name("cpu1").unwrap();
        let bus0 = arch.pe_by_name("bus0").unwrap();
        let bus1 = arch.pe_by_name("bus1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let d = b.condition("D");
        let r1 = b.process("r1", Time::new(2), cpu0);
        let r2 = b.process("r2", Time::new(2), cpu1);
        let a1 = b.process("a1", Time::new(2), cpu0);
        let a2 = b.process("a2", Time::new(2), cpu0);
        let b1 = b.process("b1", Time::new(2), cpu1);
        let b2 = b.process("b2", Time::new(2), cpu1);
        b.conditional_edge(r1, a1, c.is_true(), Time::ZERO);
        b.conditional_edge(r1, a2, c.is_false(), Time::ZERO);
        b.conditional_edge(r2, b1, d.is_true(), Time::ZERO);
        b.conditional_edge(r2, b2, d.is_false(), Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        let scheduler = ListScheduler::new(&cpg, &arch, Time::new(3));

        // Both disjunction processes finish at t=2, so the track's own
        // optimal schedule spreads the two broadcasts over the two buses:
        // C on bus0, D on bus1 (first-fit tie-break).
        let track = &tracks.tracks()[0];
        let ctx = scheduler.context(track);
        let original = ctx.schedule();
        let bc = Job::Broadcast(c);
        let bd = Job::Broadcast(d);
        assert_eq!(original.entry(bc).unwrap().pe(), Some(bus0));
        assert_eq!(original.entry(bd).unwrap().pe(), Some(bus1));
        let start_c = original.start(bc).unwrap();
        let start_d = original.start(bd).unwrap();

        // The table (filled by another path's adjusted schedule) recorded
        // the *swapped* assignment. The pinned locks must win over the
        // track-local optimum, and the swap must not create an overlap.
        let mut locks = LockSet::for_graph(&cpg);
        locks.insert_pinned(bc, start_c, Some(bus1));
        locks.insert_pinned(bd, start_d, Some(bus0));
        let adjusted = ctx.reschedule(&original, &locks);
        assert_eq!(
            adjusted.entry(bc).unwrap().pe(),
            Some(bus1),
            "locked broadcast ignored its recorded bus"
        );
        assert_eq!(adjusted.entry(bd).unwrap().pe(), Some(bus0));
        assert_eq!(adjusted.start(bc), Some(start_c));
        assert_eq!(adjusted.start(bd), Some(start_d));
        assert!(adjusted.slipped_locks().is_empty());
        adjusted.verify(&cpg, &arch).unwrap();
    }

    #[test]
    fn slipped_locks_are_reported_and_keep_the_calendar_consistent() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        let track = &tracks.tracks()[0];
        let original = scheduler.schedule_track(track);

        // Lock the disjunction process later than its original start and a
        // downstream process (which needs the condition value) at a time that
        // is now impossible: the downstream lock must slip and be reported,
        // and jobs committed after the slip are placed around the interval
        // the slipped job really occupies.
        let decide = cpg.process_by_name("decide").unwrap();
        let decide_start = original.start(Job::Process(decide)).unwrap();
        let victim = original
            .jobs()
            .iter()
            .find(|sj| {
                sj.job().as_process().is_some_and(|p| {
                    !cpg.process(p).kind().is_dummy()
                        && p != decide
                        && sj.start() > decide_start
                        && cpg.mapping(p).is_some()
                })
            })
            .expect("a schedulable process follows the disjunction");

        let mut locks = LockSet::for_graph(cpg);
        locks.insert(Job::Process(decide), decide_start + Time::new(10));
        locks.insert(victim.job(), victim.start());

        let adjusted = scheduler.context(track).reschedule(&original, &locks);
        assert_eq!(
            adjusted.start(Job::Process(decide)),
            Some(decide_start + Time::new(10))
        );
        let slipped = adjusted.slipped_locks();
        assert!(
            slipped.iter().any(|s| s.job() == victim.job()),
            "pushed lock was not reported as slipped: {slipped:?}"
        );
        for slip in slipped {
            assert!(slip.actual() > slip.intended());
            assert_eq!(adjusted.start(slip.job()), Some(slip.actual()));
            assert!(slip.to_string().contains("locked at"));
        }
        // Even with the slip, the schedule must stay structurally valid (no
        // overlap with the slipped job's real interval).
        adjusted.verify(cpg, system.arch()).unwrap();
    }

    #[test]
    fn single_processor_architecture_serializes_everything() {
        use cpg::CpgBuilder;
        let arch = Architecture::builder().processor("solo").build().unwrap();
        let solo = arch.pe_by_name("solo").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let root = b.process("root", Time::new(2), solo);
        let x = b.process("x", Time::new(3), solo);
        let y = b.process("y", Time::new(4), solo);
        b.conditional_edge(root, x, c.is_true(), Time::ZERO);
        b.conditional_edge(root, y, c.is_false(), Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        let scheduler = ListScheduler::new(&cpg, &arch, Time::new(1));
        let s_true = scheduler.schedule_track(tracks.by_label(&Cube::from(c.is_true())).unwrap());
        // No broadcast jobs on a single-processor architecture.
        assert!(!s_true.jobs().iter().any(|j| j.job().is_broadcast()));
        assert_eq!(s_true.delay(), Time::new(5));
        let s_false = scheduler.schedule_track(tracks.by_label(&Cube::from(c.is_false())).unwrap());
        assert_eq!(s_false.delay(), Time::new(6));
    }

    #[test]
    fn hardware_processes_may_overlap() {
        use cpg::CpgBuilder;
        let arch = Architecture::builder()
            .processor("cpu")
            .hardware("asic")
            .bus("bus")
            .build()
            .unwrap();
        let cpu = arch.pe_by_name("cpu").unwrap();
        let asic = arch.pe_by_name("asic").unwrap();
        let mut b = CpgBuilder::new();
        let feed = b.process("feed", Time::new(1), cpu);
        let f1 = b.process("f1", Time::new(10), asic);
        let f2 = b.process("f2", Time::new(10), asic);
        b.simple_edge(feed, f1, Time::new(1));
        b.simple_edge(feed, f2, Time::new(1));
        let cpg = b.build(&arch).unwrap();
        let cpg = cpg::expand_communications(&cpg, &arch, cpg::BusPolicy::FirstBus).unwrap();
        let tracks = enumerate_tracks(&cpg);
        let scheduler = ListScheduler::new(&cpg, &arch, Time::new(1));
        let schedule = scheduler.schedule_track(&tracks.tracks()[0]);
        schedule.verify(&cpg, &arch).unwrap();
        let f1 = cpg.process_by_name("f1").unwrap();
        let f2 = cpg.process_by_name("f2").unwrap();
        let s1 = schedule.start(Job::Process(f1)).unwrap();
        let s2 = schedule.start(Job::Process(f2)).unwrap();
        // Both hardware processes run in parallel; the two bus transfers are
        // serialized, so the starts differ by exactly one communication.
        assert!(s1.as_u64().abs_diff(s2.as_u64()) <= 1);
        // The delay is far below the serialized 20+ units.
        assert!(schedule.delay() < Time::new(16));
    }

    #[test]
    fn zero_broadcast_time_still_orders_conditions_before_remote_consumers() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), Time::ZERO);
        let c = system.condition("C").unwrap();
        let track = tracks
            .iter()
            .find(|t| t.label().contains(c.is_true()))
            .unwrap();
        let schedule = scheduler.schedule_track(track);
        schedule.verify(cpg, system.arch()).unwrap();
        // `hot` has guard C and runs on the processor that does not compute
        // C: even with an instantaneous broadcast it cannot start before the
        // broadcast has been issued.
        let hot = cpg.process_by_name("hot").unwrap();
        let broadcast_done = schedule.end(Job::Broadcast(c)).unwrap();
        assert!(schedule.start(Job::Process(hot)).unwrap() >= broadcast_done);
    }

    #[test]
    fn guarded_processes_never_start_before_their_conditions_are_known_locally() {
        // The structural property behind requirement 4: in every per-path
        // schedule, a process whose guard depends on a condition starts only
        // after that condition is known on its own processing element.
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let schedule = scheduler.schedule_track(track);
            for sj in schedule.jobs() {
                let Some(pid) = sj.job().as_process() else {
                    continue;
                };
                let Some(pe) = cpg.mapping(pid) else { continue };
                let guard_cube = cpg
                    .guard(pid)
                    .cubes()
                    .iter()
                    .filter(|cube| track.label().implies(cube))
                    .min_by_key(|cube| cube.len())
                    .copied()
                    .unwrap_or_else(Cube::top);
                for cond in guard_cube.conditions() {
                    let known = schedule.condition_known_at(cond, pe).unwrap();
                    assert!(
                        sj.start() >= known,
                        "{} starts at {} but {} is known on {} only at {}",
                        cpg.process(pid).name(),
                        sj.start(),
                        cpg.condition_name(cond),
                        system.arch().pe(pe).name(),
                        known
                    );
                }
            }
        }
    }

    #[test]
    fn condition_resolutions_are_time_ordered() {
        let system = examples::fig1();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let scheduler = ListScheduler::new(cpg, system.arch(), system.broadcast_time());
        for track in tracks.iter() {
            let schedule = scheduler.schedule_track(track);
            let resolutions = schedule.condition_resolutions(cpg);
            assert_eq!(resolutions.len(), track.determined_conditions().count());
            for pair in resolutions.windows(2) {
                assert!(pair[0].1 <= pair[1].1);
            }
            // The cache attached by the scheduler matches the derived list.
            assert_eq!(schedule.resolutions(), resolutions.as_slice());
        }
    }
}
