//! Execution of a schedule table by distributed run-time schedulers.

use cpg::{Assignment, CondId, Cpg, Cube, TrackSet};
use cpg_arch::{Architecture, PeId, Time};
use cpg_path_sched::Job;
use cpg_table::ScheduleTable;

use crate::report::{SimViolation, SimulationReport};

/// Simulator of the run-time behaviour described in Section 3 of the paper:
/// on every programmable processor and bus a trivial non-preemptive scheduler
/// activates processes at the times prescribed by the schedule table, based
/// only on the condition values it has locally observed so far.
///
/// The simulator checks the requirements that the static analysis of
/// `cpg-table` cannot see — in particular requirement 4 (activation decisions
/// depend only on locally known condition values) and the feasibility of the
/// tabled times (inputs arrived, no overlap on exclusive resources) — and
/// measures the actual delay of each execution.
///
/// # Cost
///
/// One [`run`](Simulator::run) over `n` active jobs costs `O(n log n)` plus
/// one scan of each active job's table row plus the overlaps it reports:
///
/// * [`ScheduleTable::activation`] resolves a job's activation time,
///   selecting column and recorded resource in a single pass over its row;
/// * completion times live in a dense vector indexed by job slot (processes
///   first, then one broadcast slot per condition), so the moment a
///   condition becomes known on a processing element is one slot read;
/// * the exclusive-resource check is one sweep per resource over its
///   activations in start order, and the scan after a job stops at the first
///   job starting once it has ended.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_merge::{generate_schedule_table, MergeConfig};
/// use cpg_sim::Simulator;
///
/// let system = examples::fig1();
/// let result = generate_schedule_table(
///     system.cpg(),
///     system.arch(),
///     &MergeConfig::new(system.broadcast_time()),
/// );
/// let simulator = Simulator::new(system.cpg(), system.arch(), result.table(), system.broadcast_time());
/// let reports = simulator.run_all(result.tracks());
/// assert!(reports.iter().all(|r| r.is_ok()));
/// let worst = reports.iter().map(|r| r.delay()).max().unwrap();
/// assert_eq!(worst, result.delta_max());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Simulator<'a> {
    cpg: &'a Cpg,
    arch: &'a Architecture,
    table: &'a ScheduleTable,
    broadcast_time: Time,
    /// More than one computation element: condition values reach remote
    /// elements only through a broadcast.
    needs_broadcast: bool,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for a graph, its architecture, a schedule table
    /// and the condition-broadcast time `τ0`.
    #[must_use]
    pub fn new(
        cpg: &'a Cpg,
        arch: &'a Architecture,
        table: &'a ScheduleTable,
        broadcast_time: Time,
    ) -> Self {
        Simulator {
            cpg,
            arch,
            table,
            broadcast_time,
            needs_broadcast: arch.computation_elements().count() > 1,
        }
    }

    /// Executes the table for the combination of condition values given by
    /// `label` (typically the label of one alternative path).
    #[must_use]
    pub fn run(&self, label: &Cube) -> SimulationReport {
        let assignment = Assignment::from_cube(label);
        let mut violations = Vec::new();

        // Active jobs — the processes whose guard holds, then one broadcast
        // per condition of the label — and, by job slot, the completion time
        // and the `(selecting column, recorded resource)` of each one the
        // table activates.
        let slots = self.cpg.len() + self.cpg.num_conditions();
        let mut activations: Vec<(Job, Time, Time)> = Vec::new();
        let mut completion: Vec<Option<Time>> = vec![None; slots];
        let mut selected: Vec<(Cube, Option<PeId>)> = vec![(Cube::top(), None); slots];
        let processes = self
            .cpg
            .schedulable_processes()
            .filter(|&pid| self.cpg.guard(pid).implied_by(label))
            .map(Job::Process);
        let broadcasts = label
            .conditions()
            .filter(|_| self.needs_broadcast)
            .map(Job::Broadcast);
        for job in processes.chain(broadcasts) {
            match self.table.activation(job, &assignment) {
                Some(found) => {
                    let end = found.time + self.duration_of(job);
                    completion[self.slot(job)] = Some(end);
                    selected[self.slot(job)] = (found.column, found.resource);
                    activations.push((job, found.time, end));
                }
                None => violations.push(SimViolation::NoActivationTime { job }),
            }
        }
        activations.sort_unstable_by_key(|&(job, start, _)| (start, job));
        let resources: Vec<Option<PeId>> = activations
            .iter()
            .map(|&(job, _, _)| self.pe_of(job, selected[self.slot(job)].1))
            .collect();

        // Requirement 4: the column that selected each activation only uses
        // locally known condition values.
        for (&(job, start, _), &pe) in activations.iter().zip(&resources) {
            let Some(pe) = pe else {
                continue;
            };
            for lit in selected[self.slot(job)].0.literals() {
                let known_at = self.known_at(label, &completion, lit.cond(), pe);
                if known_at.is_none_or(|k| k > start) {
                    violations.push(SimViolation::ConditionNotKnownLocally {
                        job,
                        condition: lit.cond(),
                        activation: start,
                        known_at,
                    });
                }
            }
        }

        // Data dependencies: inputs that flow on this execution must have
        // arrived before the activation time.
        for &(job, start, _) in &activations {
            let mut check = |predecessor: Job| {
                if let Some(arrives) = completion[self.slot(predecessor)] {
                    if arrives > start {
                        violations.push(SimViolation::InputNotArrived {
                            job,
                            predecessor,
                            activation: start,
                            arrives,
                        });
                    }
                }
            };
            match job {
                // Broadcasts depend on their disjunction process.
                Job::Broadcast(cond) => check(Job::Process(self.cpg.disjunction_of(cond))),
                Job::Process(pid) => {
                    for edge in self.cpg.in_edges(pid) {
                        if edge.condition().is_none_or(|lit| label.contains(lit)) {
                            check(Job::Process(edge.from()));
                        }
                    }
                }
            }
        }

        self.push_overlaps(&activations, &resources, &mut violations);

        let delay = activations
            .iter()
            .filter(|(job, _, _)| job.as_process().is_some())
            .map(|&(_, _, end)| end)
            .max()
            .unwrap_or(Time::ZERO);

        SimulationReport {
            label: *label,
            activations,
            delay,
            violations,
        }
    }

    /// Executes the table once per alternative path and returns the reports
    /// in track order.
    #[must_use]
    pub fn run_all(&self, tracks: &TrackSet) -> Vec<SimulationReport> {
        tracks.iter().map(|t| self.run(&t.label())).collect()
    }

    /// The worst observed delay over all alternative paths — must equal the
    /// analytical `δ_max` of the table for a correct table.
    #[must_use]
    pub fn worst_case_delay(&self, tracks: &TrackSet) -> Time {
        self.run_all(tracks)
            .iter()
            .map(SimulationReport::delay)
            .max()
            .unwrap_or(Time::ZERO)
    }

    fn duration_of(&self, job: Job) -> Time {
        match job {
            Job::Process(pid) => self.cpg.exec_time(pid),
            Job::Broadcast(_) => self.broadcast_time,
        }
    }

    /// Graph-wide slot of a job: processes first, then one slot per
    /// condition.
    fn slot(&self, job: Job) -> usize {
        match job {
            Job::Process(pid) => pid.index(),
            Job::Broadcast(cond) => self.cpg.len() + cond.index(),
        }
    }

    /// The resource an activation occupies in this scenario: the mapping for
    /// processes; for broadcasts the bus `recorded` with the applicable table
    /// entry (the bus the generating schedule actually used), falling back to
    /// the first broadcast bus for tables without provenance.
    fn pe_of(&self, job: Job, recorded: Option<PeId>) -> Option<PeId> {
        match job {
            Job::Process(pid) => self.cpg.mapping(pid),
            Job::Broadcast(_) => recorded.or_else(|| self.arch.broadcast_buses().next()),
        }
    }

    /// The moment the value of `cond` becomes known on `pe`: on the
    /// processing element of the disjunction process at its completion,
    /// elsewhere when the broadcast completes — never without a broadcast.
    /// `None` for a condition the label does not mention.
    fn known_at(
        &self,
        label: &Cube,
        completion: &[Option<Time>],
        cond: CondId,
        pe: PeId,
    ) -> Option<Time> {
        if !label.mentions(cond) {
            return None;
        }
        let disjunction = self.cpg.disjunction_of(cond);
        if self.needs_broadcast && self.cpg.mapping(disjunction) != Some(pe) {
            completion[self.slot(Job::Broadcast(cond))]
        } else {
            completion[self.slot(Job::Process(disjunction))]
        }
    }

    /// Exclusive resources execute one job at a time. `activations` is
    /// sorted by `(start, job)` and `resources[i]` is the resource of
    /// activation `i`. Each exclusive resource is swept once over its
    /// activations; the scan after activation `a` stops at the first one
    /// starting no earlier than `a` ends. A zero-duration job overlaps
    /// nothing. Overlaps are reported in `(a, b)` activation-index order.
    fn push_overlaps(
        &self,
        activations: &[(Job, Time, Time)],
        resources: &[Option<PeId>],
        violations: &mut Vec<SimViolation>,
    ) {
        let mut by_resource: Vec<(PeId, usize)> = resources
            .iter()
            .enumerate()
            .filter_map(|(i, &pe)| Some((pe.filter(|&pe| self.arch.is_exclusive(pe))?, i)))
            .collect();
        by_resource.sort_unstable();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for run in by_resource.chunk_by(|x, y| x.0 == y.0) {
            for (k, &(_, a)) in run.iter().enumerate() {
                let (_, a_start, a_end) = activations[a];
                if a_end == a_start {
                    continue;
                }
                for &(_, b) in &run[k + 1..] {
                    let (_, b_start, b_end) = activations[b];
                    if b_start >= a_end {
                        break;
                    }
                    // `b_start >= a_start` by the sort, so a non-empty `b`
                    // starting before `a` ends overlaps it.
                    if b_end > b_start {
                        pairs.push((a, b));
                    }
                }
            }
        }
        pairs.sort_unstable();
        violations.extend(
            pairs
                .into_iter()
                .map(|(a, b)| SimViolation::ResourceOverlap {
                    pe: resources[a].expect("swept activations have a resource"),
                    first: activations[a].0,
                    second: activations[b].0,
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{enumerate_tracks, examples, ProcessId};
    use cpg_merge::{generate_schedule_table, MergeConfig};

    fn merged(system: &examples::ExampleSystem) -> cpg_merge::MergeResult {
        generate_schedule_table(
            system.cpg(),
            system.arch(),
            &MergeConfig::new(system.broadcast_time()),
        )
    }

    #[test]
    fn generated_tables_execute_without_violations() {
        for system in [
            examples::diamond(),
            examples::sensor_actuator(),
            examples::fig1(),
        ] {
            let result = merged(&system);
            let simulator = Simulator::new(
                system.cpg(),
                system.arch(),
                result.table(),
                system.broadcast_time(),
            );
            let reports = simulator.run_all(result.tracks());
            for report in &reports {
                assert!(
                    report.is_ok(),
                    "violations on {}: {:?}",
                    report.label(),
                    report.violations()
                );
            }
            // The simulated worst case equals the analytical worst case.
            assert_eq!(
                simulator.worst_case_delay(result.tracks()),
                result.delta_max()
            );
        }
    }

    #[test]
    fn simulated_delay_matches_the_tables_track_delay() {
        let system = examples::fig1();
        let result = merged(&system);
        let simulator = Simulator::new(
            system.cpg(),
            system.arch(),
            result.table(),
            system.broadcast_time(),
        );
        for track in result.tracks().iter() {
            let report = simulator.run(&track.label());
            assert_eq!(
                report.delay(),
                result.table().track_delay(system.cpg(), &track.label())
            );
        }
    }

    #[test]
    fn empty_table_reports_missing_activations() {
        let system = examples::diamond();
        let table = ScheduleTable::new();
        let tracks = enumerate_tracks(system.cpg());
        let simulator =
            Simulator::new(system.cpg(), system.arch(), &table, system.broadcast_time());
        let report = simulator.run(&tracks.tracks()[0].label());
        assert!(!report.is_ok());
        assert!(report
            .violations()
            .iter()
            .all(|v| matches!(v, SimViolation::NoActivationTime { .. })));
    }

    #[test]
    fn premature_activation_of_a_conditional_process_is_detected() {
        use cpg::Cube;
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let c = system.condition("C").unwrap();
        let result = merged(&system);
        let mut table = result.table().clone();

        // Force `hot` (guard C, mapped on cpu1, away from the disjunction on
        // cpu0) to start at time 0: condition C cannot be known there yet.
        let hot = cpg.process_by_name("hot").unwrap();
        let column = Cube::from(c.is_true());
        table.set(cpg_path_sched::Job::Process(hot), column, Time::ZERO);

        let simulator = Simulator::new(cpg, system.arch(), &table, system.broadcast_time());
        let track = tracks
            .iter()
            .find(|t| t.label().contains(c.is_true()))
            .unwrap();
        let report = simulator.run(&track.label());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, SimViolation::ConditionNotKnownLocally { .. })));
    }

    #[test]
    fn overlapping_activations_are_detected() {
        use cpg::Cube;
        let system = examples::diamond();
        let cpg = system.cpg();
        let tracks = enumerate_tracks(cpg);
        let result = merged(&system);
        let mut table = result.table().clone();
        // Clash two cpu0 processes at the same instant.
        let decide = cpg.process_by_name("decide").unwrap();
        let cold = cpg.process_by_name("cold").unwrap();
        table.set(
            cpg_path_sched::Job::Process(decide),
            Cube::top(),
            Time::ZERO,
        );
        let not_c = Cube::from(system.condition("C").unwrap().is_false());
        table.set(cpg_path_sched::Job::Process(cold), not_c, Time::new(1));
        let simulator = Simulator::new(cpg, system.arch(), &table, system.broadcast_time());
        let track = tracks.iter().find(|t| t.label() == not_c).unwrap();
        let report = simulator.run(&track.label());
        assert!(report.violations().iter().any(|v| matches!(
            v,
            SimViolation::ResourceOverlap { .. } | SimViolation::InputNotArrived { .. }
        )));
    }

    #[test]
    fn missing_broadcast_row_is_reported_as_locally_unknown_condition() {
        let system = examples::diamond();
        let cpg = system.cpg();
        let result = merged(&system);
        let tracks = enumerate_tracks(cpg);
        let c = system.condition("C").unwrap();

        // Remove the broadcast row: remote processors can never learn C.
        let mut table = result.table().clone();
        let broadcast = cpg_path_sched::Job::Broadcast(c);
        let columns: Vec<_> = table.entries(broadcast).map(|(col, _)| col).collect();
        for column in columns {
            table.remove(broadcast, &column);
        }
        assert!(!table.contains_job(broadcast));

        let simulator = Simulator::new(cpg, system.arch(), &table, system.broadcast_time());
        let track = tracks
            .iter()
            .find(|t| t.label().contains(c.is_true()))
            .unwrap();
        let report = simulator.run(&track.label());
        // `hot` runs on the processor that does not compute C, so its guard
        // can never be evaluated there without the broadcast.
        assert!(report.violations().iter().any(|v| matches!(
            v,
            SimViolation::ConditionNotKnownLocally { known_at: None, .. }
        )));
    }

    #[test]
    fn single_processor_systems_need_no_broadcast_rows() {
        use cpg::CpgBuilder;
        use cpg_arch::Architecture;
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
        let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(Time::new(1)));
        let simulator = Simulator::new(&cpg, &arch, result.table(), Time::new(1));
        let reports = simulator.run_all(result.tracks());
        assert!(reports.iter().all(SimulationReport::is_ok));
        assert_eq!(
            simulator.worst_case_delay(result.tracks()),
            result.delta_max()
        );
        // No broadcast activations are simulated on a single processor.
        for report in &reports {
            assert!(report
                .activations()
                .iter()
                .all(|(job, _, _)| job.as_broadcast().is_none()));
        }
    }

    /// Runs a hand-built table of unconditional processes, one per
    /// `(name, execution time, start, on hardware)`, all on one programmable
    /// processor or one hardware processor, and returns the overlapping
    /// pairs by process name in report order.
    fn overlaps_of(jobs: &[(&str, u64, u64, bool)]) -> Vec<(String, String)> {
        use cpg::CpgBuilder;
        use cpg_arch::Architecture;
        let arch = Architecture::builder()
            .processor("cpu")
            .hardware("asic")
            .bus("bus")
            .build()
            .unwrap();
        let (cpu, asic) = (
            arch.pe_by_name("cpu").unwrap(),
            arch.pe_by_name("asic").unwrap(),
        );
        let mut b = CpgBuilder::new();
        let pids: Vec<_> = jobs
            .iter()
            .map(|&(name, exec, _, hardware)| {
                b.process(name, Time::new(exec), if hardware { asic } else { cpu })
            })
            .collect();
        let cpg = b.build(&arch).unwrap();
        let mut table = ScheduleTable::new();
        for (&pid, &(_, _, start, _)) in pids.iter().zip(jobs) {
            table.set(Job::Process(pid), Cube::top(), Time::new(start));
        }
        let report = Simulator::new(&cpg, &arch, &table, Time::new(1)).run(&Cube::top());
        let name = |job: Job| cpg.process(job.as_process().unwrap()).name().to_owned();
        report
            .violations()
            .iter()
            .map(|v| match *v {
                SimViolation::ResourceOverlap { first, second, .. } => (name(first), name(second)),
                ref other => panic!("unexpected violation {other}"),
            })
            .collect()
    }

    fn pairs(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|&(a, b)| (a.to_owned(), b.to_owned()))
            .collect()
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        assert!(overlaps_of(&[("a", 4, 0, false), ("b", 3, 4, false)]).is_empty());
        assert_eq!(
            overlaps_of(&[("a", 4, 0, false), ("b", 3, 3, false)]),
            pairs(&[("a", "b")])
        );
    }

    #[test]
    fn zero_duration_jobs_never_overlap() {
        // Inside a running job, at its start, and stacked on each other.
        assert!(overlaps_of(&[
            ("a", 4, 0, false),
            ("z", 0, 2, false),
            ("y", 0, 0, false),
            ("x", 0, 2, false),
        ])
        .is_empty());
    }

    #[test]
    fn a_long_job_overlaps_every_later_job_it_spans_in_index_order() {
        // `b` and `c` do not overlap each other; the scan after `long` must
        // not stop at `b`'s end.
        assert_eq!(
            overlaps_of(&[
                ("c", 3, 6, false),
                ("long", 10, 0, false),
                ("b", 3, 2, false)
            ]),
            pairs(&[("long", "b"), ("long", "c")])
        );
    }

    #[test]
    fn jobs_on_non_exclusive_elements_never_overlap() {
        assert!(overlaps_of(&[("a", 4, 0, true), ("b", 4, 1, true), ("c", 4, 0, true)]).is_empty());
    }

    #[test]
    fn report_contains_every_active_process() {
        let system = examples::sensor_actuator();
        let result = merged(&system);
        let simulator = Simulator::new(
            system.cpg(),
            system.arch(),
            result.table(),
            system.broadcast_time(),
        );
        for track in result.tracks().iter() {
            let report = simulator.run(&track.label());
            for &pid in track.processes() {
                if system.cpg().process(pid).kind().is_dummy() {
                    continue;
                }
                assert!(
                    report
                        .activation_of(cpg_path_sched::Job::Process(pid))
                        .is_some(),
                    "{} not simulated",
                    system.cpg().process(pid).name()
                );
            }
            let _ = ProcessId::from_index(0);
        }
    }
}
