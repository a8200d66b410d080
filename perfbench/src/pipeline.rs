//! One item of each workload, driven through the layers' public functions,
//! and the output check every item must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cpg::{enumerate_tracks, expand_communications, BusPolicy, Cpg, EditScope, TrackSet};
use cpg_arch::{Architecture, Time};
use cpg_gen::{generate_unexpanded, GeneratorConfig};
use cpg_merge::{
    generate_schedule_table, generate_schedule_table_for_tracks, MergeConfig, MergeOutcome,
    MergeResult, MergeSession,
};
use cpg_path_sched::ListScheduler;
use cpg_sim::Simulator;
use cpg_table::per_processor_dispatch;

use crate::trace::{Counters, Tracer};

/// The input of the cold pipeline: an architecture and an *unexpanded*
/// graph, exactly what the generator hands a designer.
#[derive(Debug, Clone)]
pub struct System {
    /// Generator seed; failures are listed under it.
    pub seed: u64,
    /// Target architecture.
    pub arch: Architecture,
    /// The graph before communication expansion.
    pub graph: Cpg,
    /// Condition broadcast time `τ0`.
    pub broadcast_time: Time,
}

impl System {
    /// Generates the system described by `config`.
    #[must_use]
    pub fn generate(config: &GeneratorConfig) -> Self {
        let (arch, graph) = generate_unexpanded(config);
        System {
            seed: config.seed(),
            arch,
            graph,
            broadcast_time: config.broadcast_time(),
        }
    }
}

/// What one item produced, for the quality metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// `(δ_max − δ_M) / δ_M` in percent (the paper's Fig. 5).
    pub overhead_pct: f64,
    /// `δ_max == δ_M`.
    pub zero_overhead: bool,
    /// Entries of the schedule table, i.e. what the dispatchers store.
    pub table_entries: usize,
}

impl Quality {
    fn of(result: &MergeResult) -> Self {
        Quality {
            overhead_pct: result.overhead_percent(),
            zero_overhead: result.is_zero_overhead(),
            table_entries: result.table().num_entries(),
        }
    }
}

/// Worker threads of every merge the benchmark runs.
///
/// One, not the default of one per core. A merge at two or more threads
/// forks and joins scoped workers many times per system, and on a shared
/// host each join waits until the host runs the other core: the timing then
/// follows the other tenants more than the pipeline. One thread also keeps
/// the work on the core the speed probe measures (see [`crate::calib`]).
/// The merge's result does not depend on its thread count.
pub const MERGE_THREADS: usize = 1;

/// The configuration of every merge the benchmark runs.
#[must_use]
pub fn merge_config(broadcast_time: Time) -> MergeConfig {
    MergeConfig::new(broadcast_time).with_threads(MERGE_THREADS)
}

/// An item's quality, or every check it failed.
pub type Verdict = Result<Quality, String>;

/// One timed item.
#[derive(Debug, Clone)]
pub struct ItemRun {
    /// Wall time of the item span (the layer calls and the glue between).
    pub latency: Duration,
    /// What the item produced.
    pub verdict: Verdict,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `body` as item `item`: opens the item span, times it, and turns a
/// panic into a failed verdict.
fn timed_item<T>(
    tracer: &mut Tracer,
    item: u64,
    body: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> (Duration, Result<T, String>) {
    tracer.begin_item(item);
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| body(&mut *tracer)))
        .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(&*payload))));
    let latency = start.elapsed();
    tracer.end_item();
    (latency, out)
}

/// Merge counters common to cold and warm merges.
fn record_merge(counters: &mut Counters, result: &MergeResult) {
    let stats = result.stats();
    counters.add("merge.tree_nodes", stats.tree_nodes as f64);
    counters.add("merge.adjustments", stats.adjustments as f64);
    counters.add("merge.conflicts_repaired", stats.conflicts_repaired as f64);
    counters.add("merge.slip_repairs", stats.slip_repairs as f64);
    counters.add("merge.repair_rounds", stats.repair_rounds as f64);
    counters.add("merge.lock_slips", stats.lock_slips as f64);
    counters.add(
        "merge.unrepaired_conflicts",
        stats.unrepaired_conflicts as f64,
    );
    counters.add("merge.max_walk_depth", stats.max_walk_depth as f64);
    counters.add("merge.spec_discards", result.spec_discards() as f64);
}

/// Checks that a merge result is a correct table: it verifies, is
/// realizable, its analytical worst-case delay equals `δ_max`, every
/// simulated path runs without violation and the worst simulated delay
/// equals `δ_max`, and the dispatch split keeps every entry. Each check is a
/// call into a layer and is recorded as that layer's span.
///
/// # Errors
///
/// Returns every failed check, joined by `"; "`.
pub fn check_table(
    cpg: &Cpg,
    arch: &Architecture,
    broadcast_time: Time,
    result: &MergeResult,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(), String> {
    let table = result.table();
    let tracks: &TrackSet = result.tracks();
    let mut problems = Vec::new();

    if let Err(violations) = tracer.layer("verify", || table.verify(cpg, tracks)) {
        counters.add("verify.violations", violations.len() as f64);
        problems.push(format!(
            "verify: {} violation(s), first: {}",
            violations.len(),
            violations[0]
        ));
    }
    if result.outcome() != MergeOutcome::Realizable {
        problems.push(format!("outcome {:?}", result.outcome()));
    }
    if result.delta_max() < result.delta_m() {
        problems.push(format!(
            "delta_max {} below delta_M {}",
            result.delta_max(),
            result.delta_m()
        ));
    }
    let delay = tracer.layer("delay", || table.worst_case_delay(cpg, tracks));
    if delay != result.delta_max() {
        problems.push(format!(
            "worst_case_delay {delay} differs from delta_max {}",
            result.delta_max()
        ));
    }

    let simulator = Simulator::new(cpg, arch, table, broadcast_time);
    let reports = tracer.layer("sim", || simulator.run_all(tracks));
    counters.add("sim.runs", reports.len() as f64);
    let mut simulated = Time::ZERO;
    for report in &reports {
        counters.add("sim.activations", report.activations().len() as f64);
        simulated = simulated.max(report.delay());
    }
    let mut violations = reports.iter().flat_map(|r| r.violations());
    if let Some(first) = violations.next() {
        let count = 1 + violations.count();
        counters.add("sim.violations", count as f64);
        problems.push(format!("simulation: {count} violation(s), first: {first}"));
    }
    if simulated != result.delta_max() {
        problems.push(format!(
            "simulated worst delay {simulated} differs from delta_max {}",
            result.delta_max()
        ));
    }

    let dispatch = tracer.layer("dispatch", || per_processor_dispatch(table, cpg, arch));
    let dispatched: usize = dispatch.iter().map(|d| d.entries().len()).sum();
    counters.add("dispatch.entries", dispatched as f64);
    if dispatched != table.num_entries() {
        problems.push(format!(
            "dispatch holds {dispatched} entries, the table {}",
            table.num_entries()
        ));
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// The cold pipeline on one system: expand → tracks → merge → verify →
/// delay → simulate → dispatch, as item `item`. When tracing, the path
/// schedules of the same tracks are then computed once more by
/// [`ListScheduler::schedule_all`], outside the item span, to give the
/// path-scheduling layer its own span.
pub fn cold_item(
    system: &System,
    item: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> ItemRun {
    let mut merged = None;
    let (latency, verdict) = timed_item(tracer, item, |tracer| {
        let cpg = tracer
            .layer("expand", || {
                expand_communications(&system.graph, &system.arch, BusPolicy::RoundRobin)
            })
            .map_err(|e| format!("expand: {e}"))?;
        counters.add(
            "expand.comm_processes",
            cpg.communication_processes().count() as f64,
        );
        let tracks = tracer.layer("tracks", || enumerate_tracks(&cpg));
        counters.add("tracks.count", tracks.len() as f64);
        let config = merge_config(system.broadcast_time);
        let result = tracer.layer("merge", || {
            generate_schedule_table_for_tracks(&cpg, &system.arch, &config, tracks)
        });
        record_merge(counters, &result);
        let checked = check_table(
            &cpg,
            &system.arch,
            system.broadcast_time,
            &result,
            tracer,
            counters,
        );
        let quality = Quality::of(&result);
        merged = Some((cpg, result));
        checked.map(|()| quality)
    });
    if tracer.is_on() {
        if let Some((cpg, result)) = &merged {
            let scheduler = ListScheduler::new(cpg, &system.arch, system.broadcast_time);
            let schedules = tracer.layer("pathsched", || scheduler.schedule_all(result.tracks()));
            let jobs: usize = schedules.iter().map(|s| s.len()).sum();
            counters.add("pathsched.jobs", jobs as f64);
        }
    }
    ItemRun { latency, verdict }
}

/// One design-space-exploration system: a live [`MergeSession`] and the
/// processes its edits may touch.
pub struct SweepSystem {
    /// Generator seed of the system.
    pub seed: u64,
    session: MergeSession,
    editable: Vec<cpg::ProcessId>,
    broadcast_time: Time,
}

impl SweepSystem {
    /// Expands `system`, opens a session on it and runs the session's first
    /// (cold) merge, which must pass [`check_table`].
    ///
    /// # Errors
    ///
    /// Returns why the system or its first table is unusable.
    pub fn open(system: &System) -> Result<Self, String> {
        let cpg = expand_communications(&system.graph, &system.arch, BusPolicy::RoundRobin)
            .map_err(|e| format!("expand: {e}"))?;
        let config = merge_config(system.broadcast_time);
        let mut session = MergeSession::new(&cpg, &system.arch, &config);
        let first = session.merge();
        check_table(
            &cpg,
            &system.arch,
            system.broadcast_time,
            &first,
            &mut Tracer::new(false),
            &mut Counters::default(),
        )?;
        let editable = cpg.ordinary_processes().collect();
        Ok(SweepSystem {
            seed: system.seed,
            session,
            editable,
            broadcast_time: system.broadcast_time,
        })
    }

    /// Number of processes an edit may target.
    #[must_use]
    pub fn editable(&self) -> usize {
        self.editable.len()
    }

    /// Current WCET of the `pick`-th editable process.
    #[must_use]
    pub fn exec_time(&self, pick: usize) -> Time {
        self.session.cpg().exec_time(self.editable[pick])
    }

    /// One warm item: set the WCET of the `pick`-th editable process to
    /// `time`, re-merge, read `δ_max`. Realizability is checked on every
    /// item; with `cold_check` the warm result is also compared against a
    /// cold merge of the same graph and fully checked, outside the item's
    /// timed region. When tracing, the tracks the edit dirtied are
    /// re-scheduled once more outside the item span.
    pub fn warm_item(
        &mut self,
        pick: usize,
        time: Time,
        cold_check: bool,
        item: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> ItemRun {
        let edit = cpg::SystemEdit::ExecTime {
            process: self.editable[pick],
            time,
        };
        let session = &mut self.session;
        let mut merged = None;
        let (latency, verdict) = timed_item(tracer, item, |tracer| {
            let scope = tracer
                .layer("session.apply_edit", || session.apply_edit(&edit))
                .map_err(|e| format!("apply_edit: {e}"))?;
            let result = tracer.layer("session.merge", || session.merge());
            let quality = Quality::of(&result);
            let verdict = if result.outcome() == MergeOutcome::Realizable {
                Ok(quality)
            } else {
                Err(format!("outcome {:?}", result.outcome()))
            };
            merged = Some((scope, result));
            verdict
        });
        let Some((scope, result)) = merged else {
            return ItemRun { latency, verdict };
        };
        let reuse = self.session.reuse_stats();
        counters.add("session.chains_replayed", reuse.chains_replayed as f64);
        counters.add("session.chains_recorded", reuse.chains_recorded as f64);
        counters.add("session.segments_replayed", reuse.segments_replayed as f64);
        counters.add("session.segments_recorded", reuse.segments_recorded as f64);
        record_merge(counters, &result);
        if tracer.is_on() {
            if let EditScope::Tracks(dirty) = &scope {
                let cpg = self.session.cpg();
                let scheduler = ListScheduler::new(cpg, self.session.arch(), self.broadcast_time);
                let tracks = self.session.tracks().tracks();
                let jobs: usize = tracer.layer("pathsched", || {
                    dirty
                        .iter()
                        .map(|&t| scheduler.schedule_track(&tracks[t]).len())
                        .sum()
                });
                counters.add("pathsched.jobs", jobs as f64);
            }
        }
        let verdict = match verdict {
            Ok(quality) if cold_check => self.cold_check(&result).map(|()| quality),
            other => other,
        };
        ItemRun { latency, verdict }
    }

    /// The warm result must equal a cold merge of the session's graph and
    /// pass every check of [`check_table`].
    fn cold_check(&self, warm: &MergeResult) -> Result<(), String> {
        let cpg = self.session.cpg();
        let arch = self.session.arch();
        let cold = generate_schedule_table(cpg, arch, self.session.config());
        let mut problems = Vec::new();
        if cold.delta_max() != warm.delta_max() {
            problems.push(format!(
                "warm delta_max {} differs from cold {}",
                warm.delta_max(),
                cold.delta_max()
            ));
        }
        if cold.table() != warm.table() {
            problems.push("warm table differs from cold".to_string());
        }
        if let Err(e) = check_table(
            cpg,
            arch,
            self.broadcast_time,
            warm,
            &mut Tracer::new(false),
            &mut Counters::default(),
        ) {
            problems.push(e);
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}
