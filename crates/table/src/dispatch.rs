//! Per-processor dispatch tables: the run-time view of the schedule table.
//!
//! The schedule table "contains all information needed by a distributed run
//! time scheduler to take decisions on activation of processes" (Section 3 of
//! the paper): during execution, a very simple non-preemptive scheduler on
//! each programmable processor and bus activates processes depending on the
//! actual condition values. This module splits a [`ScheduleTable`] into that
//! per-resource form and renders it as the pseudo-code such a scheduler would
//! execute — the last step of the synthesis flow the paper targets.

use std::fmt::Write as _;

use cpg::{Cpg, Cube};
use cpg_arch::{Architecture, PeId, Time};
use cpg_path_sched::{sort_by_fields, Job, JobSlots};

use crate::table::ScheduleTable;

/// One activation decision of a local run-time scheduler: "when the condition
/// values `column` are observed, activate `job` at time `start`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchEntry {
    job: Job,
    column: Cube,
    start: Time,
}

impl DispatchEntry {
    /// The job to activate.
    #[must_use]
    pub const fn job(&self) -> Job {
        self.job
    }

    /// The conjunction of condition values under which this entry applies.
    #[must_use]
    pub const fn column(&self) -> Cube {
        self.column
    }

    /// The activation time.
    #[must_use]
    pub const fn start(&self) -> Time {
        self.start
    }
}

/// The dispatch table of one processing element: every activation decision
/// its local scheduler may have to take, in activation-time order.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg_merge::{generate_schedule_table, MergeConfig};
/// use cpg_table::per_processor_dispatch;
///
/// let system = examples::fig1();
/// let result = generate_schedule_table(
///     system.cpg(),
///     system.arch(),
///     &MergeConfig::new(system.broadcast_time()),
/// );
/// let dispatch = per_processor_dispatch(result.table(), system.cpg(), system.arch());
/// assert_eq!(dispatch.len(), system.arch().len());
/// let total: usize = dispatch.iter().map(|d| d.entries().len()).sum();
/// assert_eq!(total, result.table().num_entries());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchTable {
    pe: PeId,
    entries: Vec<DispatchEntry>,
}

impl DispatchTable {
    /// The processing element this dispatch table belongs to.
    #[must_use]
    pub const fn pe(&self) -> PeId {
        self.pe
    }

    /// The activation decisions, sorted by activation time.
    #[must_use]
    pub fn entries(&self) -> &[DispatchEntry] {
        &self.entries
    }

    /// `true` when no job is ever dispatched on this processing element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the dispatch table as the pseudo-code of the local
    /// non-preemptive scheduler.
    #[must_use]
    pub fn render_pseudocode(&self, cpg: &Cpg, arch: &Architecture) -> String {
        let mut out = String::new();
        let pe = arch.pe(self.pe);
        let _ = writeln!(out, "// dispatch table for {} ({})", pe.name(), pe.kind());
        let _ = writeln!(out, "loop_forever {{");
        let _ = writeln!(out, "  wait_for_system_activation();");
        for entry in &self.entries {
            let what = match entry.job() {
                Job::Process(pid) => format!("start_process({})", cpg.process(pid).name()),
                Job::Broadcast(cond) => {
                    format!("broadcast_condition({})", cpg.condition_name(cond))
                }
            };
            if entry.column().is_top() {
                let _ = writeln!(out, "  at t={}: {what};", entry.start());
            } else {
                let _ = writeln!(
                    out,
                    "  at t={} if observed({}): {what};",
                    entry.start(),
                    cpg.display_cube(&entry.column())
                );
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

/// Splits a schedule table into one dispatch table per processing element.
///
/// Process rows go to the processing element the process is mapped to;
/// condition-broadcast entries go to the bus recorded with the entry when its
/// time was tabled (the bus the generating schedule actually occupied),
/// falling back to the first broadcast-capable bus for tables without
/// provenance. Every entry of the schedule table appears in exactly one
/// dispatch table; processing elements with no work get an empty dispatch
/// table so that code can be emitted for every resource uniformly.
///
/// Each dispatch table is ordered by `(start, job, column length)`, ties
/// kept in [`ScheduleTable::all_entries_on`] order: one [`sort_by_fields`]
/// of the entries' positions, the job by its [`JobSlots`] slot (slot order
/// is [`Job`] order).
///
/// # Panics
///
/// Panics when the table holds a job that is not one of `cpg`'s.
#[must_use]
pub fn per_processor_dispatch(
    table: &ScheduleTable,
    cpg: &Cpg,
    arch: &Architecture,
) -> Vec<DispatchTable> {
    let broadcast_bus = arch.broadcast_buses().next();
    let mut dispatch: Vec<DispatchTable> = arch
        .ids()
        .map(|pe| DispatchTable {
            pe,
            entries: Vec::new(),
        })
        .collect();
    for (job, column, start, resource) in table.all_entries_on() {
        let pe = match job {
            Job::Process(pid) => cpg.mapping(pid),
            Job::Broadcast(_) => resource.or(broadcast_bus),
        };
        let Some(pe) = pe else { continue };
        dispatch[pe.index()]
            .entries
            .push(DispatchEntry { job, column, start });
    }
    let slots = JobSlots::for_graph(cpg);
    let slot = |job: Job| slots.slot(job).expect("tabled jobs belong to the graph") as u64;
    let mut order = Vec::new();
    for table in &mut dispatch {
        let entries = &table.entries;
        let latest = entries.iter().map(|entry| entry.start.as_u64()).max();
        order.clear();
        order.extend(0..entries.len() as u64);
        // A cube has at most 64 literals.
        let bounds = [latest.unwrap_or(0), slots.len() as u64, 64];
        let mask = sort_by_fields(&mut order, bounds, |position| {
            let entry = &entries[position];
            [
                entry.start.as_u64(),
                slot(entry.job),
                entry.column.len() as u64,
            ]
        });
        table.entries = order
            .iter()
            .map(|&key| entries[(key & mask) as usize])
            .collect();
    }
    dispatch
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::{examples, ProcessId};

    fn sample() -> (examples::ExampleSystem, ScheduleTable) {
        let system = examples::diamond();
        let cpg = system.cpg();
        let c = system.condition("C").unwrap();
        let mut table = ScheduleTable::new();
        let decide = cpg.process_by_name("decide").unwrap();
        let hot = cpg.process_by_name("hot").unwrap();
        let cold = cpg.process_by_name("cold").unwrap();
        table.set(Job::Process(decide), Cube::top(), Time::ZERO);
        table.set(Job::Broadcast(c), Cube::top(), Time::new(2));
        table.set(Job::Process(hot), Cube::from(c.is_true()), Time::new(4));
        table.set(Job::Process(cold), Cube::from(c.is_false()), Time::new(2));
        (system.clone(), table)
    }

    #[test]
    fn every_entry_lands_on_exactly_one_processing_element() {
        let (system, table) = sample();
        let dispatch = per_processor_dispatch(&table, system.cpg(), system.arch());
        assert_eq!(dispatch.len(), system.arch().len());
        let total: usize = dispatch.iter().map(|d| d.entries().len()).sum();
        assert_eq!(total, table.num_entries());
        // Process entries sit on the processor the process is mapped to.
        for d in &dispatch {
            for entry in d.entries() {
                if let Some(pid) = entry.job().as_process() {
                    assert_eq!(system.cpg().mapping(pid), Some(d.pe()));
                }
            }
        }
    }

    #[test]
    fn broadcast_entries_go_to_the_broadcast_bus() {
        let (system, table) = sample();
        let dispatch = per_processor_dispatch(&table, system.cpg(), system.arch());
        let bus = system.arch().broadcast_buses().next().unwrap();
        let bus_dispatch = dispatch.iter().find(|d| d.pe() == bus).unwrap();
        assert!(bus_dispatch
            .entries()
            .iter()
            .any(|e| e.job().is_broadcast()));
    }

    #[test]
    fn entries_are_sorted_by_activation_time() {
        let (system, table) = sample();
        for d in per_processor_dispatch(&table, system.cpg(), system.arch()) {
            for pair in d.entries().windows(2) {
                assert!(pair[0].start() <= pair[1].start());
            }
        }
    }

    #[test]
    fn pseudocode_mentions_processes_conditions_and_guards() {
        let (system, table) = sample();
        let dispatch = per_processor_dispatch(&table, system.cpg(), system.arch());
        let rendered: String = dispatch
            .iter()
            .map(|d| d.render_pseudocode(system.cpg(), system.arch()))
            .collect();
        assert!(rendered.contains("start_process(decide)"));
        assert!(rendered.contains("broadcast_condition(C)"));
        assert!(rendered.contains("if observed(C)"));
        assert!(rendered.contains("if observed(!C)"));
        assert!(rendered.contains("dispatch table for cpu0"));
        // Unconditional activations carry no guard.
        assert!(rendered.contains("at t=0: start_process(decide);"));
    }

    #[test]
    fn idle_processing_elements_get_an_empty_dispatch_table() {
        let system = examples::diamond();
        let table = ScheduleTable::new();
        let dispatch = per_processor_dispatch(&table, system.cpg(), system.arch());
        assert!(dispatch.iter().all(DispatchTable::is_empty));
        let _ = ProcessId::from_index(0);
    }

    #[test]
    fn start_times_beyond_32_bits_keep_their_order() {
        let (system, mut table) = sample();
        let cpg = system.cpg();
        let c = system.condition("C").unwrap();
        let decide = cpg.process_by_name("decide").unwrap();
        let cold = cpg.process_by_name("cold").unwrap();
        let beyond = u64::from(u32::MAX);
        // `decide` and `cold` share cpu0: 2^32 + 1 must come after 3 and
        // before 2^33, whatever their low 32 bits say.
        table.set(Job::Process(decide), Cube::top(), Time::new(beyond + 2));
        table.set(Job::Process(cold), Cube::from(c.is_false()), Time::new(3));
        let far = Cube::from(c.is_true());
        table.set(Job::Process(decide), far, Time::new(2 * beyond + 2));
        let dispatch = per_processor_dispatch(&table, cpg, system.arch());
        let cpu0 = system.arch().pe_by_name("cpu0").unwrap();
        let order: Vec<(Job, u64)> = dispatch[cpu0.index()]
            .entries()
            .iter()
            .map(|e| (e.job(), e.start().as_u64()))
            .collect();
        assert_eq!(
            order,
            [
                (Job::Process(cold), 3),
                (Job::Process(decide), beyond + 2),
                (Job::Process(decide), 2 * beyond + 2)
            ]
        );
    }

    #[test]
    fn accessors_expose_the_entry_fields() {
        let (system, table) = sample();
        let dispatch = per_processor_dispatch(&table, system.cpg(), system.arch());
        let entry = dispatch
            .iter()
            .flat_map(|d| d.entries().iter())
            .find(|e| e.job().is_broadcast())
            .unwrap();
        assert_eq!(entry.start(), Time::new(2));
        assert!(entry.column().is_top());
    }
}
