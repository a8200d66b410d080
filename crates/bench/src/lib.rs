//! Shared harness code for regenerating every table and figure of the paper's
//! evaluation (Section 6).
//!
//! The binaries of this crate are thin wrappers around the functions exposed
//! here:
//!
//! | paper artefact | binary | function |
//! |----------------|--------|----------|
//! | Fig. 2 (per-path delays, decision tree) | `fig2_paths` | [`fig2_report`] |
//! | Table 1 (schedule table of Fig. 1) | `table1_schedule` | [`table1_report`] |
//! | Fig. 4 (optimal vs adjusted path schedules) | `fig4_gantt` | [`fig4_report`] |
//! | Fig. 5 (increase of `δ_max` over `δ_M`) | `fig5_increase` | [`run_suite`], [`fig5_rows`] |
//! | Fig. 6 (merge execution time) | `fig6_runtime` | [`run_suite`], [`fig6_rows`] |
//! | Table 2 (OAM block delays) | `table2_atm` | [`table2_report`] |
//! | ablation (ours) | `ablation_policy` | [`ablation_report`] |

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cpg::{enumerate_tracks, examples, Cpg};
use cpg_arch::{Architecture, Time};
use cpg_gen::{generate, paper_suite, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig, MergeResult, SelectionPolicy};
use cpg_path_sched::{ListScheduler, PathSchedule};
use cpg_sim::Simulator;

/// Outcome of scheduling one randomly generated system.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// The generator configuration of the system.
    pub config: GeneratorConfig,
    /// Lower bound `δ_M` (longest individual path delay).
    pub delta_m: Time,
    /// Worst-case delay `δ_max` of the generated table.
    pub delta_max: Time,
    /// Relative increase of `δ_max` over `δ_M` in percent, clamped at zero
    /// (the paper reports non-negative increases; a negative value means the
    /// merge accidentally improved on the heuristic per-path schedule).
    pub overhead_percent: f64,
    /// Wall-clock time spent in the merge (schedule-table generation), in
    /// seconds.
    pub merge_seconds: f64,
    /// Wall-clock time spent scheduling the individual paths, in seconds.
    pub path_scheduling_seconds: f64,
}

/// Runs the experiment of the paper's Section 6 on `graphs_per_size` graphs
/// per node count (the paper uses 360).
///
/// The systems run one after another in config order, so every merge is
/// timed alone on the machine (Fig. 6 measures per-graph merge time).
#[must_use]
pub fn run_suite(graphs_per_size: usize) -> Vec<SuiteOutcome> {
    paper_suite(graphs_per_size)
        .iter()
        .map(evaluate_config)
        .collect()
}

/// Schedules one generated system and measures the merge.
#[must_use]
pub fn evaluate_config(config: &GeneratorConfig) -> SuiteOutcome {
    let system = generate(config);
    let merge_config = MergeConfig::new(system.broadcast_time());

    let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
    let tracks = enumerate_tracks(system.cpg());
    let path_start = Instant::now();
    let _schedules: Vec<PathSchedule> = scheduler.schedule_all(&tracks);
    let path_scheduling_seconds = path_start.elapsed().as_secs_f64();

    let merge_start = Instant::now();
    let result = generate_schedule_table(system.cpg(), system.arch(), &merge_config);
    let merge_seconds = merge_start.elapsed().as_secs_f64();

    debug_assert!(result.table().verify(system.cpg(), result.tracks()).is_ok());

    SuiteOutcome {
        config: config.clone(),
        delta_m: result.delta_m(),
        delta_max: result.delta_max(),
        overhead_percent: result.overhead_percent().max(0.0),
        merge_seconds,
        path_scheduling_seconds,
    }
}

/// One row of the Fig. 5 / Fig. 6 summary: all graphs with the same node
/// count and number of alternative paths.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Number of ordinary processes of the graphs in this group.
    pub nodes: usize,
    /// Number of merged schedules (alternative paths).
    pub paths: usize,
    /// Number of graphs aggregated in this row.
    pub graphs: usize,
    /// Average increase of `δ_max` over `δ_M`, in percent (Fig. 5, y-axis).
    pub avg_overhead_percent: f64,
    /// Fraction of graphs with zero increase (`δ_max = δ_M`), in percent.
    pub zero_increase_percent: f64,
    /// Average merge execution time in seconds (Fig. 6, y-axis).
    pub avg_merge_seconds: f64,
    /// Average per-path list-scheduling time in seconds.
    pub avg_path_seconds: f64,
}

/// Groups suite outcomes by `(nodes, paths)` — the series of Fig. 5 and
/// Fig. 6.
#[must_use]
pub fn summary_rows(outcomes: &[SuiteOutcome]) -> Vec<SummaryRow> {
    let mut groups: BTreeMap<(usize, usize), Vec<&SuiteOutcome>> = BTreeMap::new();
    for outcome in outcomes {
        groups
            .entry((outcome.config.nodes(), outcome.config.target_paths()))
            .or_default()
            .push(outcome);
    }
    groups
        .into_iter()
        .map(|((nodes, paths), group)| {
            let graphs = group.len();
            let avg = |f: &dyn Fn(&SuiteOutcome) -> f64| {
                group.iter().map(|o| f(o)).sum::<f64>() / graphs as f64
            };
            SummaryRow {
                nodes,
                paths,
                graphs,
                avg_overhead_percent: avg(&|o| o.overhead_percent),
                zero_increase_percent: 100.0
                    * group.iter().filter(|o| o.delta_max <= o.delta_m).count() as f64
                    / graphs as f64,
                avg_merge_seconds: avg(&|o| o.merge_seconds),
                avg_path_seconds: avg(&|o| o.path_scheduling_seconds),
            }
        })
        .collect()
}

/// Renders the Fig. 5 reproduction: average percentage increase of the worst
/// case delay over the longest-path delay, per graph size and number of
/// merged schedules, plus the fraction of graphs with zero increase.
#[must_use]
pub fn fig5_rows(outcomes: &[SuiteOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>7} {:>7} {:>22} {:>18}",
        "nodes", "paths", "graphs", "avg increase of dmax", "zero increase"
    );
    for row in summary_rows(outcomes) {
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>7} {:>21.2}% {:>17.1}%",
            row.nodes, row.paths, row.graphs, row.avg_overhead_percent, row.zero_increase_percent
        );
    }
    out
}

/// Renders the Fig. 6 reproduction: average execution time of the schedule
/// merging, per graph size and number of merged schedules.
#[must_use]
pub fn fig6_rows(outcomes: &[SuiteOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>7} {:>7} {:>18} {:>22}",
        "nodes", "paths", "graphs", "merge time (s)", "path scheduling (s)"
    );
    for row in summary_rows(outcomes) {
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>7} {:>18.5} {:>22.5}",
            row.nodes, row.paths, row.graphs, row.avg_merge_seconds, row.avg_path_seconds
        );
    }
    out
}

/// Generates the merged schedule table of the Fig. 1 example system (the
/// Fig. 2 report walks its decision-tree steps).
#[must_use]
pub fn fig1_merge() -> (examples::ExampleSystem, MergeResult) {
    let system = examples::fig1();
    let result = generate_schedule_table(
        system.cpg(),
        system.arch(),
        &MergeConfig::new(system.broadcast_time()),
    );
    (system, result)
}

/// The Fig. 2 reproduction: the length of the (near-)optimal schedule of each
/// alternative path of the Fig. 1 example and the decision-tree exploration
/// order.
#[must_use]
pub fn fig2_report() -> String {
    let (system, result) = fig1_merge();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Length of the optimal schedule of the alternative paths (Fig. 2):"
    );
    let mut delays: Vec<(String, Time)> = result
        .path_schedules()
        .iter()
        .map(|s| (system.cpg().display_cube(&s.label()), s.delay()))
        .collect();
    delays.sort_by_key(|(_, delay)| std::cmp::Reverse(*delay));
    for (label, delay) in &delays {
        let _ = writeln!(out, "  {label:>12}  {delay}");
    }
    let _ = writeln!(out, "\nDecision tree exploration (depth-first):");
    for step in result.steps() {
        let decided = system.cpg().display_cube(&step.decided);
        let cond = system.cpg().condition_name(step.condition);
        let current = system.cpg().display_cube(&step.current_path);
        let kind = if step.back_step {
            "back-step"
        } else {
            "continue"
        };
        let _ = writeln!(
            out,
            "  at [{decided}] condition {cond} resolved at t={} -> {kind}, current path {current}",
            step.resolved_at
        );
    }
    let _ = writeln!(
        out,
        "\ndelta_M = {}, delta_max = {} (increase {:.2}%)",
        result.delta_m(),
        result.delta_max(),
        result.overhead_percent()
    );
    out
}

/// The Table 1 reproduction: the generated schedule table of the Fig. 1
/// example.
#[must_use]
pub fn table1_report() -> String {
    let (system, result) = fig1_merge();
    let mut out = String::new();
    let _ = writeln!(out, "Schedule table of the Fig. 1 example (Table 1):\n");
    out.push_str(&result.table().render(system.cpg()));
    // Resource provenance: the bus each tabled broadcast occupies (recorded
    // when the activation time was tabled; this is the bus the run-time bus
    // scheduler dispatches the broadcast on).
    let mut broadcast_buses: Vec<String> = result
        .table()
        .all_entries_on()
        .filter_map(|(job, column, time, resource)| {
            let cond = job.as_broadcast()?;
            let bus = resource?;
            Some(format!(
                "  {} at {} in [{}] on {}",
                system.cpg().condition_name(cond),
                time,
                system.cpg().display_cube(&column),
                system.arch().pe(bus).name()
            ))
        })
        .collect();
    broadcast_buses.sort();
    if !broadcast_buses.is_empty() {
        let _ = writeln!(out, "\nbroadcast dispatch (recorded bus):");
        for line in broadcast_buses {
            let _ = writeln!(out, "{line}");
        }
    }
    let _ = writeln!(
        out,
        "\nworst case delay delta_max = {} (delta_M = {})",
        result.delta_max(),
        result.delta_m()
    );
    // Cross-check with the simulator.
    let simulator = Simulator::new(
        system.cpg(),
        system.arch(),
        result.table(),
        system.broadcast_time(),
    );
    let reports = simulator.run_all(result.tracks());
    let violations: usize = reports.iter().map(|r| r.violations().len()).sum();
    let _ = writeln!(
        out,
        "simulator cross-check: {} executions, {} violations, worst delay {}",
        reports.len(),
        violations,
        reports
            .iter()
            .map(|r| r.delay())
            .max()
            .unwrap_or(Time::ZERO)
    );
    out
}

/// Text Gantt chart of a path schedule (one line per processing element).
#[must_use]
pub fn render_gantt(cpg: &Cpg, arch: &Architecture, schedule: &PathSchedule) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "path {} (delay {}):",
        cpg.display_cube(&schedule.label()),
        schedule.delay()
    );
    for pe in arch.ids() {
        let mut jobs: Vec<_> = schedule
            .jobs()
            .iter()
            .filter(|sj| sj.pe() == Some(pe))
            .collect();
        jobs.sort_by_key(|sj| sj.start());
        let line: Vec<String> = jobs
            .iter()
            .map(|sj| {
                let name = match sj.job() {
                    cpg_path_sched::Job::Process(pid) => cpg.process(pid).name().to_owned(),
                    cpg_path_sched::Job::Broadcast(cond) => {
                        format!("bc:{}", cpg.condition_name(cond))
                    }
                };
                format!("{name}[{}..{})", sj.start(), sj.end())
            })
            .collect();
        let _ = writeln!(out, "  {:<12} {}", arch.pe(pe).name(), line.join(" "));
    }
    out
}

/// The Fig. 4 reproduction: the optimal schedules of the two longest paths of
/// the Fig. 1 example and the activation times the merged table actually
/// assigns to the second of them (its "adjusted" schedule).
#[must_use]
pub fn fig4_report() -> String {
    let (system, result) = fig1_merge();
    let cpg = system.cpg();
    let mut out = String::new();

    let mut schedules: Vec<&PathSchedule> = result.path_schedules().iter().collect();
    schedules.sort_by_key(|s| std::cmp::Reverse(s.delay()));
    let primary = schedules[0];
    let secondary = schedules[1];

    let _ = writeln!(out, "Optimal schedule of the longest path:");
    out.push_str(&render_gantt(cpg, system.arch(), primary));
    let _ = writeln!(out, "\nOptimal schedule of the second path:");
    out.push_str(&render_gantt(cpg, system.arch(), secondary));

    let _ = writeln!(
        out,
        "\nActivation times of the second path according to the merged table (adjusted schedule):"
    );
    let mut rows: Vec<(String, Time)> = secondary
        .jobs()
        .iter()
        .filter_map(|sj| {
            let job = sj.job();
            let time = result
                .table()
                .activation_on_track(job, &secondary.label())?;
            let name = match job {
                cpg_path_sched::Job::Process(pid) => {
                    if cpg.process(pid).kind().is_dummy() {
                        return None;
                    }
                    cpg.process(pid).name().to_owned()
                }
                cpg_path_sched::Job::Broadcast(cond) => {
                    format!("bc:{}", cpg.condition_name(cond))
                }
            };
            Some((name, time))
        })
        .collect();
    rows.sort_by_key(|&(_, t)| t);
    for (name, time) in rows {
        let _ = writeln!(out, "  {name:<12} {time}");
    }
    let _ = writeln!(
        out,
        "\ntable delay of the second path: {}",
        result.table().track_delay(cpg, &secondary.label())
    );
    out
}

/// Reference values of the paper's Table 2 (worst-case delays in ns), in the
/// platform order of [`cpg_atm::OamPlatform::paper_platforms`].
#[must_use]
pub fn paper_table2_reference() -> [(usize, [u64; 10]); 3] {
    [
        (
            1,
            [4471, 2701, 4471, 2701, 2932, 2131, 2532, 2932, 1932, 2532],
        ),
        (
            2,
            [1732, 1167, 1732, 1167, 1732, 1167, 1167, 1732, 1167, 1167],
        ),
        (
            3,
            [5852, 3548, 5852, 3548, 5033, 3548, 3548, 5033, 3548, 3548],
        ),
    ]
}

/// The Table 2 reproduction: worst-case delay of each OAM mode on each
/// architecture, next to the paper's published values.
#[must_use]
pub fn table2_report() -> String {
    use cpg_atm::{evaluate, OamMode, OamPlatform};
    let platforms = OamPlatform::paper_platforms();
    let reference = paper_table2_reference();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>6} {:>6} {:>10} {:>10}",
        "platform", "mode", "paths", "measured", "paper"
    );
    for (mode_idx, mode) in OamMode::all().iter().enumerate() {
        for (platform_idx, platform) in platforms.iter().enumerate() {
            let evaluation = evaluate(*mode, platform);
            let paper = reference[mode_idx].1[platform_idx];
            let _ = writeln!(
                out,
                "{:<20} {:>6} {:>6} {:>10} {:>10}",
                platform.name(),
                mode.number(),
                mode.path_count(),
                evaluation.delay(),
                paper
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Ablation study: the effect of the back-step path-selection policy and of
/// the broadcast time `τ0` on the quality of the generated tables, over a
/// batch of randomly generated systems.
#[must_use]
pub fn ablation_report(graphs: usize) -> String {
    let mut out = String::new();
    let configs: Vec<GeneratorConfig> = (0..graphs)
        .map(|i| {
            GeneratorConfig::new(60, [10, 12, 18, 24, 32][i % 5])
                .with_processors(1 + (i % 5))
                .with_buses(1 + (i % 3))
                .with_seed(0xA11_0000 + i as u64)
        })
        .collect();

    let _ = writeln!(
        out,
        "Back-step selection policy (average increase of dmax over dM):"
    );
    for policy in [
        SelectionPolicy::LongestDelayFirst,
        SelectionPolicy::ShortestDelayFirst,
        SelectionPolicy::EnumerationOrder,
    ] {
        let outcomes: Vec<(f64, bool)> = configs
            .iter()
            .map(|config| {
                let system = generate(config);
                let result = generate_schedule_table(
                    system.cpg(),
                    system.arch(),
                    &MergeConfig::new(system.broadcast_time()).with_selection(policy),
                );
                (
                    result.overhead_percent().max(0.0),
                    result.is_zero_overhead(),
                )
            })
            .collect();
        let total: f64 = outcomes.iter().map(|&(overhead, _)| overhead).sum();
        let zero = outcomes.iter().filter(|&&(_, zero)| zero).count();
        let _ = writeln!(
            out,
            "  {policy:?}: avg +{:.2}%, zero increase on {}/{} graphs",
            total / graphs as f64,
            zero,
            graphs
        );
    }

    let _ = writeln!(out, "\nBroadcast time tau0 sensitivity (average dmax):");
    for tau0 in [0u64, 1, 2, 5, 10] {
        let total: u64 = configs
            .iter()
            .map(|config| {
                let system = generate(config);
                let result = generate_schedule_table(
                    system.cpg(),
                    system.arch(),
                    &MergeConfig::new(Time::new(tau0)),
                );
                result.delta_max().as_u64()
            })
            .sum();
        let _ = writeln!(
            out,
            "  tau0 = {tau0:>2}: average dmax = {:.1}",
            total as f64 / graphs as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_outcomes_aggregate_into_rows() {
        let outcomes = run_suite(2);
        assert_eq!(outcomes.len(), 6);
        for outcome in &outcomes {
            assert!(outcome.delta_max >= Time::ZERO);
            assert!(outcome.overhead_percent >= 0.0);
            assert!(outcome.merge_seconds >= 0.0);
        }
        let rows = summary_rows(&outcomes);
        assert!(!rows.is_empty());
        let total: usize = rows.iter().map(|r| r.graphs).sum();
        assert_eq!(total, outcomes.len());
        let fig5 = fig5_rows(&outcomes);
        assert!(fig5.contains("zero increase"));
        let fig6 = fig6_rows(&outcomes);
        assert!(fig6.contains("merge time"));
    }

    #[test]
    fn fig1_reports_render() {
        let fig2 = fig2_report();
        assert!(fig2.contains("delta_M"));
        assert!(fig2.contains("Decision tree"));
        // The listed lengths are the individual schedules of the paths, the
        // longest of which is δ_M.
        let (system, result) = fig1_merge();
        let scheduler = ListScheduler::new(system.cpg(), system.arch(), system.broadcast_time());
        let listed: Vec<(&str, u64)> = fig2
            .lines()
            .skip(1)
            .take_while(|line| !line.is_empty())
            .map(|line| {
                let (label, delay) = line.trim().rsplit_once(' ').unwrap();
                (label.trim(), delay.parse().unwrap())
            })
            .collect();
        assert_eq!(listed.len(), result.tracks().len());
        for track in result.tracks().iter() {
            let label = system.cpg().display_cube(&track.label());
            let delay = scheduler.schedule_track(track).delay().as_u64();
            assert!(listed.contains(&(label.as_str(), delay)), "{label}: {fig2}");
        }
        let longest = listed.iter().map(|&(_, delay)| delay).max().unwrap();
        assert_eq!(longest, result.delta_m().as_u64());
        // The depth-first exploration order of the decision tree (Fig. 2).
        let explored: Vec<&str> = fig2
            .lines()
            .skip_while(|line| !line.starts_with("Decision tree"))
            .skip(1)
            .take_while(|line| !line.is_empty())
            .map(str::trim)
            .collect();
        assert_eq!(
            explored,
            [
                "at [true] condition C resolved at t=7 -> continue, current path C&D&!K",
                "at [C] condition D resolved at t=22 -> continue, current path C&D&!K",
                "at [C&D] condition K resolved at t=30 -> continue, current path C&D&!K",
                "at [C&D] condition K resolved at t=30 -> back-step, current path C&D&K",
                "at [C] condition D resolved at t=22 -> back-step, current path C&!D",
                "at [true] condition C resolved at t=7 -> back-step, current path !C&!D",
                "at [!C] condition D resolved at t=22 -> continue, current path !C&!D",
                "at [!C] condition D resolved at t=22 -> back-step, current path !C&D&!K",
                "at [!C&D] condition K resolved at t=30 -> continue, current path !C&D&!K",
                "at [!C&D] condition K resolved at t=30 -> back-step, current path !C&D&K",
            ]
        );
        let table1 = table1_report();
        assert!(table1.contains("P10"));
        assert!(table1.contains("0 violations"));
        let fig4 = fig4_report();
        assert!(fig4.contains("Optimal schedule of the longest path"));
        assert!(fig4.contains("adjusted schedule"));
    }

    #[test]
    fn table2_reference_has_ten_columns_per_mode() {
        for (_, row) in paper_table2_reference() {
            assert_eq!(row.len(), 10);
        }
    }
}
