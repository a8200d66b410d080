//! The speed probe that scales measured times to a reference core.
//!
//! The benchmark runs on a shared host. Other tenants load the core it runs
//! on, in regimes that last from seconds to minutes, and a regime moves the
//! pipeline's item times by up to 1.4×. A pure arithmetic loop does not
//! notice; code that allocates and touches memory slows in step with the
//! pipeline. The probe is such code: it fills a fresh buffer with a fixed
//! pseudo-random sequence and sorts it. The benchmark runs it between items,
//! every [`PROBE_EVERY_S`], and scales each measured time by
//! [`REFERENCE_MS`] over the probe times around it. The probe does not call
//! the pipeline, so a faster pipeline still reads faster.

use std::hint::black_box;
use std::time::Instant;

use crate::run::quantile;
use crate::workload::Rng;

/// Values the probe sorts: 800 KB of `u64`.
const PROBE_LEN: usize = 100_000;

/// The probe's time in milliseconds on an unloaded core of the 2-vCPU
/// machine the benchmark was tuned on. Scaled times read as if measured
/// there.
pub const REFERENCE_MS: f64 = 1.8;

/// Seconds of items between two probes.
pub const PROBE_EVERY_S: f64 = 0.1;

/// Probes on each side of a measured time whose median scales it.
pub const WINDOW: usize = 5;

/// Runs the probe once and returns its wall time in milliseconds.
#[must_use]
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5EED, 0);
    let mut values: Vec<u64> = (0..PROBE_LEN).map(|_| rng.next_u64()).collect();
    values.sort_unstable();
    black_box(&values);
    start.elapsed().as_secs_f64() * 1e3
}

/// The probes of one timed phase, in run order.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// When each probe ran, in seconds from the start of the phase.
    at_s: Vec<f64>,
    /// Each probe's time in milliseconds.
    ms: Vec<f64>,
}

impl Probes {
    /// Runs the probe now, `at_s` seconds into the phase.
    pub fn record(&mut self, at_s: f64) {
        self.at_s.push(at_s);
        self.ms.push(probe_ms());
    }

    /// Median probe time of the phase in milliseconds (0 without probes).
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        quantile(&self.ms, 0.5)
    }

    /// The factor that scales a time measured `at_s` seconds into the phase
    /// to the reference core: [`REFERENCE_MS`] over the median of the
    /// [`WINDOW`] probes before and the [`WINDOW`] probes after it. 1
    /// without probes.
    #[must_use]
    pub fn scale_at(&self, at_s: f64) -> f64 {
        self.scale_within(at_s, WINDOW)
    }

    fn scale_within(&self, at_s: f64, window: usize) -> f64 {
        if self.ms.is_empty() {
            return 1.0;
        }
        let next = self.at_s.partition_point(|&t| t <= at_s);
        let lo = next.saturating_sub(window);
        let hi = (next + window).min(self.ms.len());
        REFERENCE_MS / quantile(&self.ms[lo..hi], 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_probes_around_a_time() {
        let mut probes = Probes::default();
        assert_eq!(probes.scale_at(1.0), 1.0);
        for (i, ms) in [1.8, 1.8, 1.8, 3.6, 3.6, 3.6].into_iter().enumerate() {
            probes.at_s.push(i as f64);
            probes.ms.push(ms);
        }
        // With one probe on each side, the scale follows the regime.
        assert_eq!(probes.scale_within(0.5, 1), 1.0);
        assert_eq!(probes.scale_within(4.5, 1), 0.5);
        // Before the first probe and after the last, the nearest ones count.
        assert_eq!(probes.scale_within(-1.0, 2), 1.0);
        assert_eq!(probes.scale_within(9.0, 2), 0.5);
        assert!((probes.median_ms() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn probe_takes_time() {
        assert!(probe_ms() > 0.0);
    }
}
