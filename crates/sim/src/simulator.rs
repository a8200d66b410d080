//! Execution of a schedule table by distributed run-time schedulers.

use cpg::{CondId, Cpg, Cube, Literal, TrackSet};
use cpg_arch::{Architecture, PeId, Time};
use cpg_path_sched::{Job, JobSlots};
use cpg_table::{LabelBlock, ResolvedActivation, ScheduleTable};

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
/// [`run`](Simulator::run) and [`run_all`](Simulator::run_all) go through
/// the one driver, [`run_each`](Simulator::run_each). It works in three
/// stages:
///
/// * **dense job tables, once per call**: every job of the graph gets its
///   [`JobSlots`] slot (the dummy source and sink too, whose slots are never
///   active; the broadcast slots only when broadcasts are simulated) holding
///   its duration and mapped resource,
///   its in-edges as a slot-indexed CSR that carries each edge's literal (a
///   broadcast has one edge, to its disjunction process), and per condition
///   the disjunction slot, its processing element and the broadcast slot;
///   the architecture contributes the exclusive flag of each element and
///   the first broadcast bus;
/// * **one pass over the rows per block**:
///   [`ScheduleTable::resolve_block`] resolves each job's activation time,
///   selecting column and recorded resource on every label of a
///   [`LabelBlock`] (up to 64 labels) on which the job is active, in a
///   single scan of its row; whether a process's guard holds on a label is
///   one bit of the block's masks;
/// * **then per-label checks** that read only those tables, neither the
///   graph nor the architecture: the activations are ordered by one
///   integer sort of packed `(start, job slot)` keys, `u64` keys whose slot
///   field is sized to the call's job slots, or `u128` keys for a label
///   with a start too large to fit beside it; completion times live in a
///   dense vector indexed by job slot, so the moment a condition becomes
///   known on a processing element is one slot read; requirement 4 is
///   checked once per selecting column and processing element, since a
///   memo keeps the latest moment any literal of the column is known on
///   the element, and only an activation starting before that bound walks
///   its column's literals; and the exclusive-resource check groups the
///   start-ordered activations by resource with one counting pass, then
///   sweeps each group once, the scan after a job stopping at the first
///   job starting once it has ended.
///
/// So one label over `n` active jobs costs `O(n log n)` plus the overlaps
/// it reports, the row scans are paid once per block instead of once per
/// label, and the table gather once per call, `O(jobs + edges)`. Every
/// buffer, the requirement-4 memo included (`columns × elements` entries,
/// invalidated per label by a stamp rather than cleared), lives in a
/// [`SimScratch`] that [`run_each`](Simulator::run_each) reuses across
/// labels and calls.
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
    /// Condition values reach remote elements only through a broadcast
    /// ([`Architecture::needs_broadcast`]).
    needs_broadcast: bool,
}

/// "No slot": a condition's broadcast when no broadcasts are simulated.
const NO_SLOT: u32 = u32::MAX;

/// Where the value of one condition becomes known, by job slot.
#[derive(Debug, Clone, Copy)]
struct ConditionSlots {
    /// The slot of the disjunction process computing the condition.
    disjunction: u32,
    /// The processing element the disjunction process is mapped to.
    disjunction_pe: Option<PeId>,
    /// The slot of the condition's broadcast, [`NO_SLOT`] without
    /// broadcasts.
    broadcast: u32,
}

/// The graph and architecture as the per-label checks read them, gathered
/// once per [`Simulator::run_each`] call. Indexed by [`JobSlots`] slot
/// unless noted.
#[derive(Debug, Default)]
struct JobTables {
    /// The jobs by slot: every process (the dummy source and sink are never
    /// active), then one broadcast per condition when broadcasts are needed.
    jobs: Vec<Job>,
    /// The duration of each job.
    duration: Vec<Time>,
    /// The processing element a process is mapped to (`None` for
    /// broadcasts, whose bus depends on the selected table entry).
    pe: Vec<Option<PeId>>,
    /// `in_offsets[j]..in_offsets[j + 1]` are job `j`'s edges in
    /// `in_edges`.
    in_offsets: Vec<u32>,
    /// `(predecessor slot, literal)` of each in-edge, in the graph's edge
    /// order (`None` for simple edges); an edge from the dummy source never
    /// counts, as the source never completes.
    in_edges: Vec<(u32, Option<Literal>)>,
    /// Per condition, where its value becomes known.
    conditions: Vec<ConditionSlots>,
    /// By processing-element index, whether it executes one job at a time.
    exclusive: Vec<bool>,
    /// The bus of a broadcast whose table entry records none.
    broadcast_bus: Option<PeId>,
}

/// The reusable buffers of [`Simulator::run_each`], the same idiom as the
/// path scheduler's `RunScratch`: hand one arena to every
/// [`Simulator::run_each`] call and the runs allocate nothing once it has
/// grown to the largest system.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_merge::{generate_schedule_table, MergeConfig};
/// use cpg_sim::{SimScratch, Simulator};
///
/// let system = examples::diamond();
/// let result = generate_schedule_table(
///     system.cpg(),
///     system.arch(),
///     &MergeConfig::new(system.broadcast_time()),
/// );
/// let simulator = Simulator::new(system.cpg(), system.arch(), result.table(), system.broadcast_time());
/// let labels: Vec<_> = result.tracks().iter().map(|t| t.label()).collect();
/// let mut scratch = SimScratch::new();
/// let mut violations = 0;
/// simulator.run_each(&labels, &mut scratch, |_, report| violations += report.violations().len());
/// assert_eq!(violations, 0);
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// The dense tables of the current call.
    tables: JobTables,
    /// Per job slot, the labels of the current block it is active on.
    active: Vec<u64>,
    /// Per job slot, its activations on the labels of the current block:
    /// `stride` slots per job.
    resolved: Vec<ResolvedActivation>,
    /// By job slot, the completion time of the current run's activation.
    completion: Vec<Option<Time>>,
    /// By job slot, the selecting column's index in the table, the column
    /// and the recorded resource of the current run's activation (read only
    /// for activated jobs).
    selected: Vec<(u32, Cube, Option<PeId>)>,
    /// The current run's activations as sort keys.
    keys: ActivationKeys,
    /// By activation, in activation order, its job slot.
    slots: Vec<u32>,
    /// By activation, the resource it occupies.
    resources: Vec<Option<PeId>>,
    /// The requirement-4 memo, by `column index × elements + element`: a
    /// `(stamp, bound)` pair whose bound is the latest moment any literal of
    /// the column becomes known on the element ([`Time::MAX`] when one never
    /// does), valid while its stamp is the current label's.
    known_by: Vec<(u32, Time)>,
    /// The current label's stamp in `known_by`; never 0, the stamp of an
    /// empty entry.
    stamp: u32,
    /// By processing-element index, where its group ends in `by_resource`
    /// (one more entry, the total, while counting).
    group_ends: Vec<u32>,
    /// The activations on exclusive resources, grouped by resource, each
    /// group in activation order.
    by_resource: Vec<u32>,
    /// Overlapping activation pairs.
    pairs: Vec<(usize, usize)>,
    /// The report under construction.
    report: SimulationReport,
}

impl SimScratch {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// One label's activations as integer sort keys, start time above job slot,
/// so ascending keys are ascending `(start, job)` (slot order is [`Job`]
/// order) and no two keys are equal. A key is the `u64`
/// `start << slot_bits | slot` while every start of the label fits beside
/// the slot bits, and the `u128` `start << 32 | slot` from the first start
/// that does not on: the keys pushed so far are then widened.
#[derive(Debug, Default)]
struct ActivationKeys {
    /// Width of the slot field of a `u64` key, sized to the call's job slots
    /// (at least 1 and at most 32).
    slot_bits: u32,
    narrow: Vec<u64>,
    wide: Vec<u128>,
    /// Whether the current label's keys are in `wide`.
    is_wide: bool,
}

impl ActivationKeys {
    /// Sizes the `u64` slot field for job slots `0..slots` and drops every
    /// key.
    fn size_for(&mut self, slots: usize) {
        let highest = slots.saturating_sub(1) as u64;
        self.slot_bits = (u64::BITS - highest.leading_zeros()).max(1);
        self.clear();
    }

    fn clear(&mut self) {
        self.narrow.clear();
        self.wide.clear();
        self.is_wide = false;
    }

    /// Adds the activation of job slot `slot` at `start`.
    // lint: hot-path (once per activation of every simulated label)
    fn push(&mut self, start: Time, slot: usize) {
        let (start, bits) = (start.as_u64(), self.slot_bits);
        if !self.is_wide {
            if start >> (u64::BITS - bits) == 0 {
                self.narrow.push(start << bits | slot as u64);
                return;
            }
            self.is_wide = true;
            let mask = (1 << bits) - 1;
            self.wide.extend(
                self.narrow
                    .iter()
                    .map(|&key| u128::from(key >> bits) << 32 | u128::from(key & mask)),
            );
        }
        self.wide.push(u128::from(start) << 32 | slot as u128);
    }

    /// Sorts the keys and visits `(slot, start)` in ascending `(start, job)`
    /// order.
    // lint: hot-path (one integer sort per simulated label)
    fn sort_into(&mut self, mut visit: impl FnMut(usize, Time)) {
        if self.is_wide {
            self.wide.sort_unstable();
            for &key in &self.wide {
                visit(key as u32 as usize, Time::new((key >> 32) as u64));
            }
        } else {
            let (bits, mask) = (self.slot_bits, (1u64 << self.slot_bits) - 1);
            self.narrow.sort_unstable();
            for &key in &self.narrow {
                visit((key & mask) as usize, Time::new(key >> bits));
            }
        }
    }
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
            needs_broadcast: arch.needs_broadcast(),
        }
    }

    /// Executes the table for the combination of condition values given by
    /// `label` (typically the label of one alternative path).
    #[must_use]
    pub fn run(&self, label: &Cube) -> SimulationReport {
        let mut scratch = SimScratch::new();
        let mut report = None;
        self.run_each(std::slice::from_ref(label), &mut scratch, |_, run| {
            report = Some(std::mem::take(run));
        });
        report.expect("one label gives one report")
    }

    /// Executes the table once per alternative path and returns the reports
    /// in track order.
    #[must_use]
    pub fn run_all(&self, tracks: &TrackSet) -> Vec<SimulationReport> {
        let labels: Vec<Cube> = tracks.iter().map(cpg::Track::label).collect();
        let mut reports = Vec::with_capacity(labels.len());
        self.run_each(&labels, &mut SimScratch::new(), |_, run| {
            reports.push(std::mem::take(run));
        });
        reports
    }

    /// Executes the table once per label, in order, and hands
    /// `visit(index, report)` each report. This is the one driver behind
    /// every entry point: it gathers the dense job tables, resolves each
    /// block of labels in one pass over the rows, then runs the per-label
    /// checks. The report's buffers belong to `scratch` and are reused by
    /// the next label; a visitor that keeps a report takes it with
    /// [`std::mem::take`].
    pub fn run_each(
        &self,
        labels: &[Cube],
        scratch: &mut SimScratch,
        mut visit: impl FnMut(usize, &mut SimulationReport),
    ) {
        if labels.is_empty() {
            return;
        }
        self.gather(&mut scratch.tables);
        let stride = labels.len().min(LabelBlock::WIDTH);
        let slots = scratch.tables.jobs.len();
        scratch.active.resize(slots, 0);
        scratch
            .resolved
            .resize(slots * stride, ResolvedActivation::NONE);
        scratch.completion.clear();
        scratch.completion.resize(slots, None);
        scratch.selected.resize(slots, (0, Cube::top(), None));
        scratch.group_ends.resize(self.arch.len() + 1, 0);
        scratch.keys.size_for(slots);
        scratch.known_by.resize(
            self.table.columns().len() * self.arch.len(),
            (0, Time::ZERO),
        );

        for (first, chunk) in (0..).step_by(stride).zip(labels.chunks(stride)) {
            let block = LabelBlock::new(chunk);
            for (j, &job) in scratch.tables.jobs.iter().enumerate() {
                let active = match job {
                    Job::Process(pid) if self.cpg.process(pid).kind().is_dummy() => 0,
                    Job::Process(pid) => block.holding(self.cpg.guard(pid)),
                    Job::Broadcast(cond) => block.mentioning(cond),
                };
                scratch.active[j] = active;
                if active != 0 {
                    let out = &mut scratch.resolved[j * stride..(j + 1) * stride];
                    self.table.resolve_block(job, &block, active, out);
                }
            }
            for (t, label) in chunk.iter().enumerate() {
                self.run_resolved(label, t, stride, scratch);
                for &j in &scratch.slots {
                    scratch.completion[j as usize] = None;
                }
                visit(first + t, &mut scratch.report);
            }
        }
    }

    /// Fills `tables` from the graph and the architecture.
    fn gather(&self, tables: &mut JobTables) {
        let JobTables {
            jobs,
            duration,
            pe,
            in_offsets,
            in_edges,
            conditions,
            exclusive,
            broadcast_bus,
        } = tables;
        let cpg = self.cpg;
        let slots = JobSlots::for_graph(cpg);
        let slot = |job: Job| slots.slot(job).expect("a job of the graph") as u32;
        let simulated = if self.needs_broadcast {
            slots.len()
        } else {
            cpg.len()
        };
        jobs.clear();
        jobs.extend((0..simulated).map(|at| slots.job(at)));
        conditions.clear();
        conditions.extend(cpg.conditions().map(|cond| {
            let disjunction = cpg.disjunction_of(cond);
            ConditionSlots {
                disjunction: slot(Job::Process(disjunction)),
                disjunction_pe: cpg.mapping(disjunction),
                broadcast: if self.needs_broadcast {
                    slot(Job::Broadcast(cond))
                } else {
                    NO_SLOT
                },
            }
        }));

        duration.clear();
        pe.clear();
        in_offsets.clear();
        in_edges.clear();
        in_offsets.push(0);
        for &job in jobs.iter() {
            match job {
                Job::Process(pid) => {
                    duration.push(cpg.exec_time(pid));
                    pe.push(cpg.mapping(pid));
                    in_edges.extend(
                        cpg.in_edges(pid)
                            .map(|edge| (slot(Job::Process(edge.from())), edge.condition())),
                    );
                }
                Job::Broadcast(cond) => {
                    duration.push(self.broadcast_time);
                    pe.push(None);
                    in_edges.push((conditions[cond.index()].disjunction, None));
                }
            }
            in_offsets.push(in_edges.len() as u32);
        }

        exclusive.clear();
        exclusive.extend(self.arch.ids().map(|id| self.arch.is_exclusive(id)));
        *broadcast_bus = self.arch.broadcast_buses().next();
    }

    /// Executes the table on `label`, label `t` of the block whose
    /// activations `scratch` holds, into `scratch.report`. Reads only the
    /// gathered tables and the table's columns.
    // lint: hot-path (one label's checks; every buffer is a reused SimScratch one)
    fn run_resolved(&self, label: &Cube, t: usize, stride: usize, scratch: &mut SimScratch) {
        let SimScratch {
            tables,
            active,
            resolved,
            completion,
            selected,
            keys,
            slots,
            resources,
            known_by,
            stamp,
            group_ends,
            by_resource,
            pairs,
            report,
        } = scratch;
        report.label = *label;
        report.activations.clear();
        report.violations.clear();
        let (activations, violations) = (&mut report.activations, &mut report.violations);

        // Active jobs — the processes whose guard holds, then one broadcast
        // per condition of the label — and, by job slot, the completion time
        // and the `(selecting column, recorded resource)` of each one the
        // table activates.
        let bit = 1u64 << t;
        keys.clear();
        for (j, &mask) in active.iter().enumerate() {
            if mask & bit == 0 {
                continue;
            }
            let resolution = &resolved[j * stride + t];
            match resolution
                .to_activation(self.table)
                .zip(resolution.column_index())
            {
                Some((found, index)) => {
                    completion[j] = Some(found.time + tables.duration[j]);
                    selected[j] = (index as u32, found.column, found.resource);
                    keys.push(found.time, j);
                }
                None => violations.push(SimViolation::NoActivationTime {
                    job: tables.jobs[j],
                }),
            }
        }
        slots.clear();
        resources.clear();
        keys.sort_into(|j, start| {
            slots.push(j as u32);
            activations.push((tables.jobs[j], start, start + tables.duration[j]));
            // A broadcast occupies the bus recorded with its table entry
            // (the bus the generating schedule used), falling back to the
            // first broadcast bus for tables without provenance.
            resources.push(match tables.jobs[j] {
                Job::Process(_) => tables.pe[j],
                Job::Broadcast(_) => selected[j].2.or(tables.broadcast_bus),
            });
        });

        // Requirement 4: the column that selected each activation only uses
        // locally known condition values. A condition is known on the
        // processing element of its disjunction process when that process
        // completes, elsewhere when its broadcast completes; never when the
        // label leaves it open.
        let known_at = |cond: CondId, pe: PeId| -> Option<Time> {
            if !label.mentions(cond) {
                return None;
            }
            let at = tables.conditions[cond.index()];
            let from = if at.broadcast != NO_SLOT && at.disjunction_pe != Some(pe) {
                at.broadcast
            } else {
                at.disjunction
            };
            completion.get(from as usize).copied().flatten()
        };
        // An activation that starts no earlier than the latest moment any
        // literal of its column is known on its element violates nothing;
        // that bound is memoized per (column, element) for the label.
        *stamp = stamp.wrapping_add(1);
        if *stamp == 0 {
            known_by.fill((0, Time::ZERO));
            *stamp = 1;
        }
        let elements = tables.exclusive.len();
        for ((&j, &(job, start, _)), &pe) in
            slots.iter().zip(activations.iter()).zip(resources.iter())
        {
            let Some(pe) = pe else {
                continue;
            };
            let (index, column, _) = selected[j as usize];
            let memo = &mut known_by[index as usize * elements + pe.index()];
            if memo.0 != *stamp {
                let latest = column.literals().try_fold(Time::ZERO, |latest, lit| {
                    Some(latest.max(known_at(lit.cond(), pe)?))
                });
                *memo = (*stamp, latest.unwrap_or(Time::MAX));
            }
            if memo.1 <= start && memo.1 != Time::MAX {
                continue;
            }
            for lit in column.literals() {
                let cond = lit.cond();
                let known_at = known_at(cond, pe);
                if known_at.is_none_or(|k| k > start) {
                    violations.push(SimViolation::ConditionNotKnownLocally {
                        job,
                        condition: cond,
                        activation: start,
                        known_at,
                    });
                }
            }
        }

        // Data dependencies: inputs that flow on this execution must have
        // arrived before the activation time.
        for (&j, &(_, start, _)) in slots.iter().zip(activations.iter()) {
            let j = j as usize;
            let edges =
                &tables.in_edges[tables.in_offsets[j] as usize..tables.in_offsets[j + 1] as usize];
            for &(from, literal) in edges {
                if !literal.is_none_or(|lit| label.contains(lit)) {
                    continue;
                }
                if let Some(arrives) = completion[from as usize] {
                    if arrives > start {
                        violations.push(SimViolation::InputNotArrived {
                            job: tables.jobs[j],
                            predecessor: tables.jobs[from as usize],
                            activation: start,
                            arrives,
                        });
                    }
                }
            }
        }

        push_overlaps(
            activations,
            resources,
            &tables.exclusive,
            group_ends,
            by_resource,
            pairs,
            violations,
        );

        report.delay = activations
            .iter()
            .filter(|(job, _, _)| job.as_process().is_some())
            .map(|&(_, _, end)| end)
            .max()
            .unwrap_or(Time::ZERO);
    }
}

/// Exclusive resources execute one job at a time. `activations` is sorted
/// by `(start, job)`, `resources[i]` is the resource of activation `i` and
/// `exclusive[pe]` whether resource `pe` is exclusive. A counting pass
/// groups the activations on exclusive resources by resource, each group
/// in activation order, and each group is swept once; the scan after
/// activation `a` stops at the first one starting no earlier than `a`
/// ends. A zero-duration job overlaps nothing. Overlaps are reported in
/// `(a, b)` activation-index order.
// lint: hot-path (the resource sweep of run_resolved, on its buffers)
fn push_overlaps(
    activations: &[(Job, Time, Time)],
    resources: &[Option<PeId>],
    exclusive: &[bool],
    group_ends: &mut [u32],
    by_resource: &mut Vec<u32>,
    pairs: &mut Vec<(usize, usize)>,
    violations: &mut Vec<SimViolation>,
) {
    let swept = |pe: Option<PeId>| pe.filter(|pe| exclusive[pe.index()]);
    // Count each resource's activations one slot up, so the prefix sums
    // are the group starts; placing an activation then advances its
    // group's cursor, which leaves `group_ends[pe]` at the group's end.
    group_ends.fill(0);
    for pe in resources.iter().filter_map(|&pe| swept(pe)) {
        group_ends[pe.index() + 1] += 1;
    }
    let mut total = 0;
    for end in group_ends.iter_mut() {
        total += *end;
        *end = total;
    }
    by_resource.clear();
    by_resource.resize(total as usize, 0);
    for (i, &pe) in resources.iter().enumerate() {
        if let Some(pe) = swept(pe) {
            let cursor = &mut group_ends[pe.index()];
            by_resource[*cursor as usize] = i as u32;
            *cursor += 1;
        }
    }

    pairs.clear();
    let mut group_start = 0;
    for &end in &group_ends[..group_ends.len() - 1] {
        let run = &by_resource[group_start..end as usize];
        group_start = end as usize;
        for (k, &a) in run.iter().enumerate() {
            let (_, a_start, a_end) = activations[a as usize];
            if a_end == a_start {
                continue;
            }
            for &b in &run[k + 1..] {
                let (_, b_start, b_end) = activations[b as usize];
                if b_start >= a_end {
                    break;
                }
                // `b_start >= a_start` by the order, so a non-empty `b`
                // starting before `a` ends overlaps it.
                if b_end > b_start {
                    pairs.push((a as usize, b as usize));
                }
            }
        }
    }
    pairs.sort_unstable();
    violations.extend(pairs.iter().map(|&(a, b)| SimViolation::ResourceOverlap {
        pe: resources[a].expect("swept activations have a resource"),
        first: activations[a].0,
        second: activations[b].0,
    }));
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
                reports.iter().map(SimulationReport::delay).max(),
                Some(result.delta_max())
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
            reports.iter().map(SimulationReport::delay).max(),
            Some(result.delta_max())
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
    fn activation_keys_widen_at_the_first_start_beyond_the_slot_bits() {
        // 5 slots: 3 slot bits, so a `u64` key holds starts below 2⁶¹.
        let mut keys = ActivationKeys::default();
        keys.size_for(5);
        assert_eq!(keys.slot_bits, 3);
        let sorted = |keys: &mut ActivationKeys| {
            let mut order = Vec::new();
            keys.sort_into(|slot, start| order.push((start.as_u64(), slot)));
            order
        };
        let pushes = [(7, 4), (1 << 60, 0), (7, 1), ((1 << 61) - 1, 2)];
        for (start, slot) in pushes {
            keys.push(Time::new(start), slot);
        }
        assert!(!keys.is_wide);
        let mut expected: Vec<(u64, usize)> = pushes.to_vec();
        expected.sort_unstable();
        assert_eq!(sorted(&mut keys), expected);

        // 2⁶¹ does not fit: the keys pushed so far are widened.
        keys.push(Time::new(1 << 61), 3);
        keys.push(Time::new(0), 3);
        assert!(keys.is_wide);
        expected.extend([(1 << 61, 3), (0, 3)]);
        expected.sort_unstable();
        assert_eq!(sorted(&mut keys), expected);

        // The next label starts narrow again; one slot still takes one bit.
        keys.clear();
        assert!(!keys.is_wide);
        keys.size_for(1);
        assert_eq!(keys.slot_bits, 1);
        keys.push(Time::new(u64::MAX), 0);
        assert!(keys.is_wide);
        assert_eq!(sorted(&mut keys), [(u64::MAX, 0)]);
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
