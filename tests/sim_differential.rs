//! Differential test of the run-time simulator: every `SimulationReport` of
//! `Simulator::run`, `Simulator::run_all` and `Simulator::run_each` must
//! equal, violation order included, the report of the straightforward
//! reference below — per-label row lookups, a hash map of completion
//! times, a per-run condition-knowledge map and an all-pairs
//! resource-overlap scan. On the same tables, requirement 3 of
//! `ScheduleTable::verify` must equal a track-by-track reference.
//!
//! The inputs are the tables of the `paper_suite(40)` systems and six
//! corrupted copies of each (entries shifted by ±4 time units or removed),
//! so every kind of violation is exercised, not only the clean path, plus
//! copies whose times exceed `u32::MAX` or leave no room for the job slot
//! in a `u64` key, which pin the width of the simulator's activation keys,
//! and a hand-built table whose one column activates jobs on two elements
//! that learn its condition at different times, which pins the key of the
//! requirement-4 memo.

use std::collections::HashMap;
use std::mem::discriminant;

use cpg::{CondId, Cpg, Cube, TrackSet};
use cpg_arch::{Architecture, PeId, Time};
use cpg_gen::{generate, paper_suite, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig};
use cpg_path_sched::Job;
use cpg_sim::{SimScratch, SimViolation, SimulationReport, Simulator};
use cpg_table::{ScheduleTable, TableViolation};

/// The observable content of a simulation report.
#[derive(Debug, PartialEq)]
struct Observed {
    label: Cube,
    activations: Vec<(Job, Time, Time)>,
    delay: Time,
    violations: Vec<SimViolation>,
}

fn observed(report: &SimulationReport) -> Observed {
    Observed {
        label: report.label(),
        activations: report.activations().to_vec(),
        delay: report.delay(),
        violations: report.violations().to_vec(),
    }
}

/// The reference simulator: the all-pairs formulation of `Simulator::run`.
struct Reference<'a> {
    cpg: &'a Cpg,
    arch: &'a Architecture,
    table: &'a ScheduleTable,
    broadcast_time: Time,
}

impl Reference<'_> {
    fn run(&self, label: &Cube) -> Observed {
        let mut violations = Vec::new();

        let mut activations: Vec<(Job, Time, Time)> = Vec::new();
        let mut completion: HashMap<Job, Time> = HashMap::new();
        let mut active: Vec<Job> = Vec::new();
        for pid in self.cpg.schedulable_processes() {
            if self.cpg.guard(pid).implied_by(label) {
                active.push(Job::Process(pid));
            }
        }
        let needs_broadcast = self.arch.computation_elements().count() > 1;
        for cond in label.conditions() {
            if needs_broadcast {
                active.push(Job::Broadcast(cond));
            }
        }
        for &job in &active {
            match self.table.activation_time(job, label) {
                Some(start) => {
                    let end = start + self.duration_of(job);
                    completion.insert(job, end);
                    activations.push((job, start, end));
                }
                None => violations.push(SimViolation::NoActivationTime { job }),
            }
        }
        activations.sort_by_key(|&(job, start, _)| (start, job));

        let known = self.condition_knowledge(label, &completion, needs_broadcast);
        for &(job, start, _) in &activations {
            let Some(pe) = self.pe_of(job, label) else {
                continue;
            };
            let column = self.selecting_column(job, label);
            for lit in column.literals() {
                let known_at = known.get(&(lit.cond(), pe)).copied();
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

        for &(job, start, _) in &activations {
            let predecessors: Vec<Job> = match job {
                Job::Broadcast(cond) => vec![Job::Process(self.cpg.disjunction_of(cond))],
                Job::Process(pid) => self
                    .cpg
                    .in_edges(pid)
                    .filter(|edge| edge.condition().is_none_or(|lit| label.contains(lit)))
                    .map(|edge| Job::Process(edge.from()))
                    .collect(),
            };
            for predecessor in predecessors {
                if let Some(&arrives) = completion.get(&predecessor) {
                    if arrives > start {
                        violations.push(SimViolation::InputNotArrived {
                            job,
                            predecessor,
                            activation: start,
                            arrives,
                        });
                    }
                }
            }
        }

        for (i, &(a, a_start, a_end)) in activations.iter().enumerate() {
            for &(b, b_start, b_end) in activations.iter().skip(i + 1) {
                let (Some(pa), Some(pb)) = (self.pe_of(a, label), self.pe_of(b, label)) else {
                    continue;
                };
                if pa != pb || !self.arch.is_exclusive(pa) {
                    continue;
                }
                let overlap = a_start < b_end && b_start < a_end;
                if overlap && a_end > a_start && b_end > b_start {
                    violations.push(SimViolation::ResourceOverlap {
                        pe: pa,
                        first: a,
                        second: b,
                    });
                }
            }
        }

        let delay = activations
            .iter()
            .filter(|(job, _, _)| job.as_process().is_some())
            .map(|&(_, _, end)| end)
            .max()
            .unwrap_or(Time::ZERO);
        Observed {
            label: *label,
            activations,
            delay,
            violations,
        }
    }

    fn duration_of(&self, job: Job) -> Time {
        match job {
            Job::Process(pid) => self.cpg.exec_time(pid),
            Job::Broadcast(_) => self.broadcast_time,
        }
    }

    fn pe_of(&self, job: Job, label: &Cube) -> Option<PeId> {
        match job {
            Job::Process(pid) => self.cpg.mapping(pid),
            Job::Broadcast(_) => self
                .table
                .activation_resource(job, label)
                .or_else(|| self.arch.broadcast_buses().next()),
        }
    }

    fn selecting_column(&self, job: Job, label: &Cube) -> Cube {
        self.table
            .entries(job)
            .filter(|(column, _)| label.implies(column))
            .map(|(column, _)| column)
            .max_by_key(Cube::len)
            .unwrap_or(Cube::top())
    }

    fn condition_knowledge(
        &self,
        label: &Cube,
        completion: &HashMap<Job, Time>,
        needs_broadcast: bool,
    ) -> HashMap<(CondId, PeId), Time> {
        let mut known = HashMap::new();
        for lit in label.literals() {
            let cond = lit.cond();
            let disjunction = self.cpg.disjunction_of(cond);
            let computed = completion.get(&Job::Process(disjunction)).copied();
            let broadcast_done = completion.get(&Job::Broadcast(cond)).copied();
            for pe in self.arch.ids() {
                let at = if self.cpg.mapping(disjunction) == Some(pe) {
                    computed
                } else if needs_broadcast {
                    broadcast_done
                } else {
                    computed
                };
                if let Some(at) = at {
                    known.insert((cond, pe), at);
                }
            }
        }
        known
    }
}

/// How a copy of a table is corrupted: the entries whose position in
/// `all_entries_on` order is `offset` modulo `every` are shifted by `shift`
/// time units (saturating at zero), or removed when `shift` is `None`.
struct Corruption {
    every: usize,
    offset: usize,
    shift: Option<i64>,
}

const CORRUPTIONS: [Corruption; 6] = [
    Corruption {
        every: 5,
        offset: 0,
        shift: Some(4),
    },
    Corruption {
        every: 5,
        offset: 2,
        shift: Some(-4),
    },
    Corruption {
        every: 3,
        offset: 1,
        shift: Some(4),
    },
    Corruption {
        every: 3,
        offset: 2,
        shift: Some(-4),
    },
    Corruption {
        every: 7,
        offset: 3,
        shift: None,
    },
    Corruption {
        every: 4,
        offset: 0,
        shift: None,
    },
];

fn corrupt(table: &ScheduleTable, corruption: &Corruption) -> ScheduleTable {
    let mut copy = table.clone();
    let entries: Vec<_> = table.all_entries_on().collect();
    for (i, &(job, column, time, resource)) in entries.iter().enumerate() {
        if i % corruption.every != corruption.offset {
            continue;
        }
        match corruption.shift {
            Some(by) if by >= 0 => {
                copy.set_on(job, column, time + Time::new(by.unsigned_abs()), resource);
            }
            Some(by) => {
                copy.set_on(
                    job,
                    column,
                    time.saturating_sub(Time::new(by.unsigned_abs())),
                    resource,
                );
            }
            None => {
                copy.remove(job, &column);
            }
        }
    }
    copy
}

/// Requirement 3 of `ScheduleTable::verify`, track by track through the
/// per-label `activation_time`: the `MissingActivation` violations in
/// the order `verify` reports them.
fn missing_activations(table: &ScheduleTable, cpg: &Cpg, tracks: &TrackSet) -> Vec<TableViolation> {
    let mut violations = Vec::new();
    for track in tracks.iter() {
        let label = track.label();
        let processes = track
            .processes()
            .iter()
            .filter(|&&pid| !cpg.process(pid).kind().is_dummy())
            .map(|&pid| Job::Process(pid));
        let broadcasts = track
            .determined_conditions()
            .map(Job::Broadcast)
            .filter(|&job| table.contains_job(job));
        for job in processes.chain(broadcasts) {
            if table.activation_time(job, &label).is_none() {
                violations.push(TableViolation::MissingActivation {
                    job,
                    track: track.label(),
                });
            }
        }
    }
    violations
}

/// Asserts that `verify` reports requirement 3 last, exactly as
/// [`missing_activations`] does, and returns how many it reported.
fn check_requirement_3(table: &ScheduleTable, cpg: &Cpg, tracks: &TrackSet) -> usize {
    let expected = missing_activations(table, cpg, tracks);
    let verified = table.verify(cpg, tracks).err().unwrap_or_default();
    let first_missing = verified
        .iter()
        .position(|v| matches!(v, TableViolation::MissingActivation { .. }))
        .unwrap_or(verified.len());
    assert_eq!(verified[first_missing..], expected[..]);
    expected.len()
}

#[test]
fn simulator_matches_the_all_pairs_reference_on_the_paper_suite() {
    let mut seen: Vec<std::mem::Discriminant<SimViolation>> = Vec::new();
    let mut reports = 0usize;
    let mut missing = 0usize;
    // One arena across every system and table, as a caller reusing it would.
    let mut scratch = SimScratch::new();
    for config in paper_suite(40) {
        let system = generate(&config);
        let (cpg, arch) = (system.cpg(), system.arch());
        let result = generate_schedule_table(cpg, arch, &MergeConfig::new(system.broadcast_time()));
        let labels: Vec<Cube> = result.tracks().iter().map(|t| t.label()).collect();
        let tables = std::iter::once(result.table().clone())
            .chain(CORRUPTIONS.iter().map(|c| corrupt(result.table(), c)));
        for table in tables {
            let simulator = Simulator::new(cpg, arch, &table, system.broadcast_time());
            let reference = Reference {
                cpg,
                arch,
                table: &table,
                broadcast_time: system.broadcast_time(),
            };
            let expected: Vec<Observed> = labels.iter().map(|label| reference.run(label)).collect();
            // The three entry points of the one driver: a block of one label,
            // every track, and a reused arena.
            let all = simulator.run_all(result.tracks());
            assert_eq!(all.len(), labels.len());
            let mut each = Vec::new();
            simulator.run_each(&labels, &mut scratch, |index, report| {
                each.push((index, observed(report)));
            });
            for (index, (label, expected)) in labels.iter().zip(&expected).enumerate() {
                let seed = config.seed();
                assert_eq!(
                    &observed(&simulator.run(label)),
                    expected,
                    "run, seed {seed:#x}"
                );
                assert_eq!(&observed(&all[index]), expected, "run_all, seed {seed:#x}");
                assert_eq!(
                    each[index],
                    (index, observed(&all[index])),
                    "run_each, seed {seed:#x}"
                );
                for violation in &expected.violations {
                    if !seen.contains(&discriminant(violation)) {
                        seen.push(discriminant(violation));
                    }
                }
                reports += 1;
            }
            assert_eq!(each.len(), labels.len());

            missing += check_requirement_3(&table, cpg, result.tracks());
        }
    }
    assert!(
        missing > 1_000,
        "only {missing} missing activations compared"
    );
    assert!(reports > 10_000, "only {reports} reports compared");
    // Every kind of violation occurred, so the comparison is not vacuous.
    let job = Job::Process(cpg::ProcessId::from_index(0));
    let kinds = [
        SimViolation::NoActivationTime { job },
        SimViolation::ConditionNotKnownLocally {
            job,
            condition: CondId::new(0),
            activation: Time::ZERO,
            known_at: None,
        },
        SimViolation::InputNotArrived {
            job,
            predecessor: job,
            activation: Time::ZERO,
            arrives: Time::ZERO,
        },
        SimViolation::ResourceOverlap {
            pe: PeId::from_index(0),
            first: job,
            second: job,
        },
    ];
    for kind in &kinds {
        assert!(seen.contains(&discriminant(kind)), "no {kind:?} observed");
    }
}

#[test]
fn batched_runs_match_the_reference_across_label_blocks() {
    // More than 64 paths: the driver resolves two blocks, the last partial.
    let mut scratch = SimScratch::new();
    for (paths, seed) in [(80, 1), (96, 2), (128, 3)] {
        let system = generate(&GeneratorConfig::new(160, paths).with_seed(seed));
        let (cpg, arch) = (system.cpg(), system.arch());
        let result = generate_schedule_table(cpg, arch, &MergeConfig::new(system.broadcast_time()));
        assert!(result.tracks().len() > 64);
        let labels: Vec<Cube> = result.tracks().iter().map(|t| t.label()).collect();
        let tables = std::iter::once(result.table().clone())
            .chain(CORRUPTIONS.iter().map(|c| corrupt(result.table(), c)));
        for table in tables {
            let simulator = Simulator::new(cpg, arch, &table, system.broadcast_time());
            let reference = Reference {
                cpg,
                arch,
                table: &table,
                broadcast_time: system.broadcast_time(),
            };
            let all = simulator.run_all(result.tracks());
            let mut each = Vec::new();
            simulator.run_each(&labels, &mut scratch, |_, report| {
                each.push(observed(report));
            });
            for ((label, all), each) in labels.iter().zip(&all).zip(&each) {
                let expected = reference.run(label);
                assert_eq!(observed(all), expected, "run_all, {paths} paths");
                assert_eq!(each, &expected, "run_each, {paths} paths");
            }
            check_requirement_3(&table, cpg, result.tracks());
        }
    }
}

#[test]
fn known_verify_passing_overlap_witnesses_still_overlap() {
    // Configs 82 and 105 of `paper_suite(40)` (seeds 0x7800000002 and
    // 0x7800000019): their tables pass `ScheduleTable::verify`, and only the
    // simulator sees two jobs overlap on an exclusive resource.
    let suite = paper_suite(40);
    for (index, seed) in [(82, 0x78_0000_0002_u64), (105, 0x78_0000_0019)] {
        let config = &suite[index];
        assert_eq!(config.seed(), seed);
        let system = generate(config);
        let (cpg, arch) = (system.cpg(), system.arch());
        let result = generate_schedule_table(cpg, arch, &MergeConfig::new(system.broadcast_time()));
        assert!(result.table().verify(cpg, result.tracks()).is_ok());
        let simulator = Simulator::new(cpg, arch, result.table(), system.broadcast_time());
        let overlaps = simulator
            .run_all(result.tracks())
            .iter()
            .flat_map(SimulationReport::violations)
            .filter(|v| matches!(v, SimViolation::ResourceOverlap { .. }))
            .count();
        assert!(overlaps > 0, "config {index}: no resource overlap reported");
    }
}

/// A copy of `table` whose entry times are `t · 2^shift`, plus `lift` on
/// every third entry in `all_entries_on` order.
fn lifted(table: &ScheduleTable, shift: u32, lift: u64) -> ScheduleTable {
    let mut copy = table.clone();
    for (i, (job, column, time, resource)) in table.all_entries_on().enumerate() {
        assert!(time.as_u64() < 1 << 18, "entry times stay below 2¹⁸");
        let lift = if i % 3 == 0 { lift } else { 0 };
        copy.set_on(
            job,
            column,
            Time::new((time.as_u64() << shift) + lift),
            resource,
        );
    }
    copy
}

#[test]
fn simulator_matches_the_reference_beyond_32_bit_times() {
    // `t · 2³¹ (+ 2³²)`: the starts exceed `u32::MAX`, and their low 32
    // bits no longer order them; they still fit a `u64` key beside the
    // job slot. `t · 2⁴⁴ (+ 2⁶²)`: a `u64` key keeps at least two bits for
    // the slot once a system has more than two job slots, so starts of
    // 2⁶² and more do not fit beside it and those labels are ordered by
    // the simulator's `u128` keys.
    let mut scratch = SimScratch::new();
    for (shift, lift, bound) in [
        (31, 1 << 32, u64::from(u32::MAX)),
        (44, 1 << 62, (1 << 62) - 1),
    ] {
        let mut beyond = 0usize;
        for config in paper_suite(40).iter().step_by(9) {
            let system = generate(config);
            let (cpg, arch) = (system.cpg(), system.arch());
            let result =
                generate_schedule_table(cpg, arch, &MergeConfig::new(system.broadcast_time()));
            let labels: Vec<Cube> = result.tracks().iter().map(|t| t.label()).collect();
            let table = lifted(result.table(), shift, lift);
            let simulator = Simulator::new(cpg, arch, &table, system.broadcast_time());
            let reference = Reference {
                cpg,
                arch,
                table: &table,
                broadcast_time: system.broadcast_time(),
            };
            let mut each = Vec::new();
            simulator.run_each(&labels, &mut scratch, |_, report| {
                each.push(observed(report));
            });
            for (label, each) in labels.iter().zip(&each) {
                let expected = reference.run(label);
                assert_eq!(each, &expected, "seed {:#x}, shift {shift}", config.seed());
                beyond += expected
                    .activations
                    .iter()
                    .filter(|&&(_, start, _)| start.as_u64() > bound)
                    .count();
            }
        }
        assert!(beyond > 1_000, "only {beyond} activations beyond {bound}");
    }
}

#[test]
fn one_column_on_two_elements_is_checked_on_each() {
    // `a` (cpu0) and `b` (cpu1) are both activated by column {C} at time 5.
    // C is computed on cpu0 and known there at 4, but its broadcast only
    // completes at 7, so `b` is activated before cpu1 can know C: the
    // requirement-4 bound of column {C} differs per element.
    use cpg::CpgBuilder;
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()
        .unwrap();
    let (cpu0, cpu1, bus) = (
        arch.pe_by_name("cpu0").unwrap(),
        arch.pe_by_name("cpu1").unwrap(),
        arch.pe_by_name("bus").unwrap(),
    );
    let mut builder = CpgBuilder::new();
    let c = builder.condition("C");
    let decide = builder.process("decide", Time::new(4), cpu0);
    let a = builder.process("a", Time::new(2), cpu0);
    let b = builder.process("b", Time::new(2), cpu1);
    let z = builder.process("z", Time::new(1), cpu1);
    builder.conditional_edge(decide, a, c.is_true(), Time::ZERO);
    builder.conditional_edge(decide, b, c.is_true(), Time::ZERO);
    builder.conditional_edge(decide, z, c.is_false(), Time::ZERO);
    let cpg = builder.build(&arch).unwrap();
    let broadcast_time = Time::new(3);

    let (on_c, off_c) = (Cube::from(c.is_true()), Cube::from(c.is_false()));
    let mut table = ScheduleTable::new();
    table.set(Job::Process(decide), Cube::top(), Time::ZERO);
    table.set_on(Job::Broadcast(c), Cube::top(), Time::new(4), Some(bus));
    table.set(Job::Process(a), on_c, Time::new(5));
    table.set(Job::Process(b), on_c, Time::new(5));
    table.set(Job::Process(z), off_c, Time::new(7));

    let simulator = Simulator::new(&cpg, &arch, &table, broadcast_time);
    let reference = Reference {
        cpg: &cpg,
        arch: &arch,
        table: &table,
        broadcast_time,
    };
    let labels = [on_c, off_c];
    let mut each = Vec::new();
    simulator.run_each(&labels, &mut SimScratch::new(), |_, report| {
        each.push(observed(report));
    });
    for (label, each) in labels.iter().zip(&each) {
        let expected = reference.run(label);
        assert_eq!(&observed(&simulator.run(label)), &expected);
        assert_eq!(each, &expected);
    }
    assert_eq!(
        each[0].violations,
        [SimViolation::ConditionNotKnownLocally {
            job: Job::Process(b),
            condition: c,
            activation: Time::new(5),
            known_at: Some(Time::new(7)),
        }]
    );
    assert!(each[1].violations.is_empty());
}
