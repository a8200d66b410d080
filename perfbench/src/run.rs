//! One benchmark run: repeated set-up, a timed closed loop, and the metrics.

use std::time::Instant;

use crate::calib::{probe_ms, Probes, PROBE_EVERY_S, REFERENCE_MS};
use crate::pipeline::{Quality, Verdict};
use crate::trace::{Breakdown, Counters, Tracer};
use crate::workload::{Inputs, Scale, Workload};

/// Set-ups per run; `setup_s` is the median of their times, each scaled to
/// the reference core.
pub const SETUP_REPEATS: usize = 15;

/// Largest share of item time the layer spans may leave uncovered.
pub const GLUE_LIMIT: f64 = 0.05;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the inputs.
    pub seed: u64,
    /// Measured seconds (split in two halves when tracing).
    pub seconds: f64,
    /// Add a traced half for the per-layer breakdown.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One failed item run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Generator seed of the system (and edit number on `wcet_sweep`).
    pub key: String,
    /// Every check the item failed.
    pub reason: String,
}

/// Latencies of one timed phase, and the speed probes run between them.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Item latencies in milliseconds as measured, in run order.
    pub latencies_ms: Vec<f64>,
    /// When each item started, in seconds from the start of the phase.
    pub started_s: Vec<f64>,
    /// The speed probes of the phase.
    pub probes: Probes,
}

impl Phase {
    /// Throughput and latency percentiles of a phase that ran its items in
    /// passes of `pass_len`. Each latency is first scaled to the reference
    /// core by the probes around it, which removes the host's slow
    /// regimes. Each item's median scaled latency over its passes is then
    /// taken, which removes single stalls. Percentiles are over the items.
    #[must_use]
    pub fn summary(&self, pass_len: usize) -> Summary {
        let scaled: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.started_s)
            .map(|(ms, &at_s)| ms * self.probes.scale_at(at_s))
            .collect();
        let per_item: Vec<f64> = (0..pass_len.min(scaled.len()))
            .map(|i| {
                let passes: Vec<f64> = scaled.iter().skip(i).step_by(pass_len).copied().collect();
                quantile(&passes, 0.5)
            })
            .collect();
        Summary {
            items_per_s: 1e3 / mean(&per_item),
            p50_ms: quantile(&per_item, 0.5),
            p90_ms: quantile(&per_item, 0.9),
        }
    }
}

/// End-to-end timing of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Items completed per second of item time, on the reference core.
    pub items_per_s: f64,
    /// Median item latency in milliseconds, on the reference core.
    pub p50_ms: f64,
    /// 90th-percentile item latency in milliseconds, on the reference core.
    pub p90_ms: f64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Report {
    /// Wall time of each set-up, in seconds, as measured.
    pub setup_s: Vec<f64>,
    /// Speed probes before the first set-up and after each one, in
    /// milliseconds.
    pub setup_probes_ms: Vec<f64>,
    /// Items per pass (see [`Inputs::items_per_pass`]).
    pub pass_len: usize,
    /// Verdicts of the first pass, which makes up the quality metrics.
    pub quality: Vec<Verdict>,
    /// Item runs in total, both phases.
    pub attempted: usize,
    /// Every failed item run, both phases.
    pub failures: Vec<Failure>,
    /// The untraced phase.
    pub untraced: Phase,
    /// The traced phase, its spans and its counters (when tracing).
    pub traced: Option<(Phase, Tracer, Counters)>,
}

/// Runs items from `first` on until `min_items` are done and `seconds` have
/// passed, with a speed probe before the first item, every
/// [`PROBE_EVERY_S`] between items and after the last. Returns the phase and
/// each item's number and verdict.
fn phase(
    inputs: &mut Inputs,
    first: u64,
    min_items: usize,
    seconds: f64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Phase, Vec<(u64, Verdict)>) {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut verdicts = Vec::new();
    let mut item = first;
    let mut next_probe_s = 0.0;
    while verdicts.len() < min_items || start.elapsed().as_secs_f64() < seconds {
        let at_s = start.elapsed().as_secs_f64();
        if at_s >= next_probe_s {
            phase.probes.record(at_s);
            next_probe_s = at_s + PROBE_EVERY_S;
        }
        let started_s = start.elapsed().as_secs_f64();
        let run = inputs.run_item(item, tracer, counters);
        phase.started_s.push(started_s);
        phase.latencies_ms.push(run.latency.as_secs_f64() * 1e3);
        verdicts.push((item, run.verdict));
        item += 1;
    }
    phase.probes.record(start.elapsed().as_secs_f64());
    (phase, verdicts)
}

/// Sets up `options.workload` [`SETUP_REPEATS`] times, with a speed probe
/// before the first set-up and after each one, then runs it.
///
/// # Errors
///
/// Returns why set-up failed.
pub fn run(options: Options) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_probes_ms = vec![probe_ms()];
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // The probe runs before the drop: just after one, it would measure
        // the heap the drop freed.
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(Inputs::setup(
            options.workload,
            options.seed,
            options.scale,
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
        setup_probes_ms.push(probe_ms());
    }
    let mut inputs = inputs.expect("at least one set-up ran");
    let pass_len = inputs.items_per_pass();

    let seconds = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let (untraced, mut verdicts) = phase(
        &mut inputs,
        0,
        pass_len,
        seconds,
        &mut Tracer::new(false),
        &mut Counters::default(),
    );
    let traced = options.trace.then(|| {
        let mut tracer = Tracer::new(true);
        let mut counters = Counters::default();
        let (phase, more) = phase(
            &mut inputs,
            verdicts.len() as u64,
            pass_len,
            seconds,
            &mut tracer,
            &mut counters,
        );
        verdicts.extend(more);
        (phase, tracer, counters)
    });

    let mut failures: Vec<Failure> = verdicts
        .iter()
        .filter_map(|(item, verdict)| {
            let reason = verdict.as_ref().err()?;
            Some(Failure {
                key: inputs.failure_key(*item),
                reason: reason.clone(),
            })
        })
        .collect();
    if let Some((_, tracer, _)) = &traced {
        let glue = Breakdown::of(tracer.spans()).glue_share();
        if glue > GLUE_LIMIT {
            failures.push(Failure {
                key: "trace".to_string(),
                reason: format!(
                    "layer spans leave {:.1}% of item time uncovered (limit {:.1}%)",
                    glue * 100.0,
                    GLUE_LIMIT * 100.0
                ),
            });
        }
    }
    let attempted = verdicts.len();
    let quality = verdicts
        .into_iter()
        .take(pass_len)
        .map(|(_, verdict)| verdict)
        .collect();
    Ok(Report {
        setup_s,
        setup_probes_ms,
        pass_len,
        quality,
        attempted,
        failures,
        untraced,
        traced,
    })
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`), or 0
/// where unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

impl Report {
    /// Median set-up time in seconds on the reference core: each set-up
    /// is scaled by the mean of the probes before and after it.
    #[must_use]
    pub fn setup_scaled_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .setup_s
            .iter()
            .zip(self.setup_probes_ms.windows(2))
            .map(|(s, around)| s * 2.0 * REFERENCE_MS / (around[0] + around[1]))
            .collect();
        quantile(&scaled, 0.5)
    }

    /// Metrics a user of the pipeline sees, from the untraced phase.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ok: Vec<&Quality> = self
            .quality
            .iter()
            .filter_map(|q| q.as_ref().ok())
            .collect();
        let n = ok.len().max(1) as f64;
        let timing = self.untraced.summary(self.pass_len);
        vec![
            metric("setup_s", self.setup_scaled_s(), "s"),
            metric("items_per_s", timing.items_per_s, "1/s"),
            metric("latency_p50_ms", timing.p50_ms, "ms"),
            metric("latency_p90_ms", timing.p90_ms, "ms"),
            metric(
                "verified_share",
                ok.len() as f64 / self.quality.len().max(1) as f64,
                "ratio",
            ),
            metric(
                "dmax_overhead_pct",
                ok.iter().map(|q| q.overhead_pct).sum::<f64>() / n,
                "%",
            ),
            metric(
                "zero_overhead_share",
                ok.iter().filter(|q| q.zero_overhead).count() as f64 / n,
                "ratio",
            ),
            metric(
                "table_entries_mean",
                ok.iter().map(|q| q.table_entries as f64).sum::<f64>() / n,
                "count",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// Per-layer metrics from the traced phase (empty when not tracing).
    #[must_use]
    pub fn per_layer(&self) -> Vec<Metric> {
        let Some((phase, tracer, counters)) = &self.traced else {
            return Vec::new();
        };
        let spans = Breakdown::of(tracer.spans());
        let items = phase.latencies_ms.len().max(1) as f64;
        let count = |name: &'static str| metric(name, counters.get(name) / items, "count");
        let busy =
            |name: &'static str, layer: &str| metric(name, spans.busy_ms_per_item(layer), "ms");
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let replayed = counters.get("session.chains_replayed");
        let walked = replayed + counters.get("session.chains_recorded");
        vec![
            busy("item.busy_ms", crate::trace::ITEM),
            metric(
                "item.self_ms",
                spans.self_ms_per_item(crate::trace::ITEM),
                "ms",
            ),
            busy("expand.busy_ms", "expand"),
            count("expand.comm_processes"),
            busy("tracks.busy_ms", "tracks"),
            count("tracks.count"),
            busy("pathsched.busy_ms", "pathsched"),
            count("pathsched.jobs"),
            busy("merge.busy_ms", "merge"),
            count("merge.tree_nodes"),
            count("merge.adjustments"),
            count("merge.conflicts_repaired"),
            count("merge.slip_repairs"),
            count("merge.repair_rounds"),
            count("merge.lock_slips"),
            count("merge.unrepaired_conflicts"),
            count("merge.max_walk_depth"),
            metric(
                "merge.spec_discards",
                ratio(
                    counters.get("merge.spec_discards"),
                    counters.get("merge.adjustments"),
                ),
                "ratio",
            ),
            busy("session.apply_edit_ms", "session.apply_edit"),
            busy("session.merge_ms", "session.merge"),
            count("session.chains_replayed"),
            count("session.chains_recorded"),
            metric("session.replay_ratio", ratio(replayed, walked), "ratio"),
            count("session.segments_replayed"),
            count("session.segments_recorded"),
            busy("verify.busy_ms", "verify"),
            count("verify.violations"),
            busy("delay.busy_ms", "delay"),
            busy("dispatch.busy_ms", "dispatch"),
            count("dispatch.entries"),
            busy("sim.busy_ms", "sim"),
            count("sim.runs"),
            count("sim.activations"),
            count("sim.violations"),
            metric(
                "trace.overhead_pct",
                (self.untraced.summary(self.pass_len).items_per_s
                    / phase.summary(self.pass_len).items_per_s
                    - 1.0)
                    * 100.0,
                "%",
            ),
            metric("trace.glue_pct", spans.glue_share() * 100.0, "%"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_takes_each_items_median_pass() {
        // Two items, three passes; item 1's second pass hit a stall. With
        // no probes, latencies are not scaled.
        let phase = Phase {
            latencies_ms: vec![1.0, 3.0, 2.0, 30.0, 1.0, 3.0],
            started_s: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            probes: Probes::default(),
        };
        let summary = phase.summary(2);
        assert_eq!(summary.p50_ms, 2.0);
        assert!((summary.items_per_s - 500.0).abs() < 1e-9);
    }
}
