//! In-memory span recorder and per-item counters.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API. Spans of one item share the item id; a layer span started
//! inside an item names the item span as its parent. Nothing is written
//! until the run ends ([`Tracer::write_jsonl`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span enclosing one whole item.
pub const ITEM: &str = "item";

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (`"merge"`, `"sim"`, … or [`ITEM`]).
    pub name: &'static str,
    /// The item this span belongs to.
    pub item: u64,
    /// Index of the enclosing item span, if the call ran inside one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when switched on; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    item: u64,
    open_item: Option<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls (`!on`).
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            item: 0,
            open_item: None,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens the span of item `item`; later layer calls become its children.
    pub fn begin_item(&mut self, item: u64) {
        self.item = item;
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open_item = Some(self.spans.len());
        self.spans.push(Span {
            name: ITEM,
            item,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the open item span. Calls until the next
    /// [`begin_item`](Self::begin_item) still carry the item id but have no
    /// parent.
    pub fn end_item(&mut self) {
        if let Some(idx) = self.open_item.take() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `call`, recording it as a span named `name`.
    pub fn layer<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        if !self.on {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: self.open_item,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every recorded span, in start order of the item they belong to.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn write_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"item\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.item, parent, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Busy and self time per span name, summed over a run.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Summed duration per span name, in nanoseconds.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Summed self time (duration minus the part covered by child spans)
    /// per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Number of item spans.
    pub items: usize,
}

impl Breakdown {
    /// Folds a span list into busy and self times. Layer calls do not nest
    /// inside each other, so only item spans have children, and those
    /// children run one after another.
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut covered = vec![0u64; spans.len()];
        let mut breakdown = Breakdown::default();
        for span in spans {
            *breakdown.busy_ns.entry(span.name).or_default() += span.duration_ns();
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        for (span, covered) in spans.iter().zip(covered) {
            *breakdown.self_ns.entry(span.name).or_default() +=
                span.duration_ns().saturating_sub(covered);
            if span.name == ITEM {
                breakdown.items += 1;
            }
        }
        breakdown
    }

    /// Mean busy milliseconds per item of the named layer.
    #[must_use]
    pub fn busy_ms_per_item(&self, name: &str) -> f64 {
        per_item_ms(self.busy_ns.get(name).copied(), self.items)
    }

    /// Mean self milliseconds per item of the named layer.
    #[must_use]
    pub fn self_ms_per_item(&self, name: &str) -> f64 {
        per_item_ms(self.self_ns.get(name).copied(), self.items)
    }

    /// Share of item time not covered by any layer span: the benchmark's own
    /// glue between calls.
    #[must_use]
    pub fn glue_share(&self) -> f64 {
        let busy = self.busy_ns.get(ITEM).copied().unwrap_or(0);
        if busy == 0 {
            return 0.0;
        }
        self.self_ns.get(ITEM).copied().unwrap_or(0) as f64 / busy as f64
    }
}

fn per_item_ms(total_ns: Option<u64>, items: usize) -> f64 {
    if items == 0 {
        return 0.0;
    }
    total_ns.unwrap_or(0) as f64 / 1e6 / items as f64
}

/// Named counters recorded at the same call boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    /// The counter's total (0 when never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            item: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(ITEM, None, 0, 100),
            span("merge", Some(0), 5, 65),
            span("sim", Some(0), 65, 95),
            span("pathsched", None, 100, 120),
        ];
        let breakdown = Breakdown::of(&spans);
        assert_eq!(breakdown.items, 1);
        assert_eq!(breakdown.busy_ns[ITEM], 100);
        assert_eq!(breakdown.self_ns[ITEM], 10);
        assert_eq!(breakdown.self_ns["merge"], 60);
        assert!((breakdown.glue_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.begin_item(1);
        assert_eq!(tracer.layer("merge", || 7), 7);
        tracer.end_item();
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn on_tracer_links_children_to_their_item() {
        let mut tracer = Tracer::new(true);
        tracer.begin_item(3);
        tracer.layer("merge", || ());
        tracer.end_item();
        tracer.layer("pathsched", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.item == 3));
        assert_eq!(tracer.write_jsonl().lines().count(), 3);
    }
}
