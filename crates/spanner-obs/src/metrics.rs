//! The atomic metrics registry.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc` clones
//! around atomics: a caller registers once at startup, stores the handle,
//! and records with one lock-free `fetch_add` per event — the registry
//! [`Mutex`] is held only while registering and while rendering a scrape,
//! never on the recording path. Rendering walks families in registration
//! order and emits the Prometheus text format through [`Exposition`].

use crate::expo::Exposition;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default latency histogram bounds, in seconds: 50µs up to 10s, the
/// range a request to the serve daemon can realistically land in.
pub const LATENCY_BUCKETS: &[f64] = &[
    50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5, 5.0, 10.0,
];

/// Default bounds for ratios in `[0, 1]` (e.g. index selectivity).
pub const RATIO_BUCKETS: &[f64] = &[0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (most callers get one from
    /// [`Registry::counter`] instead).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Scale of the histogram sum accumulator: sums are recorded in integer
/// nano-units so recording stays one `fetch_add` (no CAS loop on floats).
/// At 1e9 units per 1.0, a latency histogram can absorb ~584 years of
/// observed seconds before the `u64` sum wraps.
const SUM_SCALE: f64 = 1e9;

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; the last entry is the overflow
    /// (`+Inf`) bucket, so `buckets.len() == bounds.len() + 1`.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values in [`SUM_SCALE`]ths.
    sum: AtomicU64,
}

/// A fixed-bucket histogram with lock-free recording.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram over the given finite upper bounds (must be strictly
    /// increasing; the `+Inf` overflow bucket is implicit).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let scaled = (value * SUM_SCALE).max(0.0) as u64;
        core.sum.fetch_add(scaled, Ordering::Relaxed);
    }

    /// Records a duration, in seconds.
    pub fn observe_duration(&self, elapsed: Duration) {
        self.observe(elapsed.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.0.sum.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }

    /// The finite bounds plus the cumulative counts (one entry per bound,
    /// plus the trailing `+Inf` total) — the exposition shape.
    pub fn snapshot(&self) -> (Vec<f64>, Vec<u64>, f64) {
        let mut cumulative = Vec::with_capacity(self.0.buckets.len());
        let mut running = 0u64;
        for bucket in &self.0.buckets {
            running += bucket.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        (self.0.bounds.clone(), cumulative, self.sum())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A set of registered metric families, renderable as one Prometheus
/// text exposition. Registration is idempotent: asking for an existing
/// (name, labels) pair returns a clone of the existing handle, so
/// concurrent workers can all "register" and share the same atomics.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels, || {
            Metric::Counter(Counter::new())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers one counter per value of a single label key — a whole
    /// family at once, in value order. This is the shape of a family whose
    /// label values are a fixed set known at startup (one series per HTTP
    /// status class): the caller indexes the returned handles positionally
    /// and never touches the registry mutex again.
    pub fn counters<S: AsRef<str>>(
        &self,
        name: &str,
        help: &str,
        key: &str,
        values: &[S],
    ) -> Vec<Counter> {
        values
            .iter()
            .map(|value| self.counter(name, help, &[(key, value.as_ref())]))
            .collect()
    }

    /// Registers (or retrieves) a histogram over `bounds`.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.register(name, help, Kind::Histogram, labels, || {
            Metric::Histogram(Histogram::new(bounds))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind,
                    kind,
                    "metric `{name}` already registered as a {}",
                    family.kind.name()
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return series.metric.clone();
        }
        let metric = make();
        family.series.push(Series {
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Appends every registered family to an exposition (families in
    /// registration order, series in per-family registration order).
    pub fn export_into(&self, out: &mut Exposition) {
        let families = self.families.lock().expect("registry poisoned");
        for family in families.iter() {
            out.family(&family.name, family.kind.name(), &family.help);
            for series in &family.series {
                let labels: Vec<(&str, &str)> = series
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match &series.metric {
                    Metric::Counter(c) => out.sample(&family.name, &labels, c.get() as f64),
                    Metric::Histogram(h) => {
                        let (bounds, cumulative, sum) = h.snapshot();
                        out.histogram(&family.name, &labels, &bounds, &cumulative, sum);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::check_exposition;

    fn render(registry: &Registry) -> String {
        let mut out = Exposition::new();
        registry.export_into(&mut out);
        out.finish()
    }

    #[test]
    fn counter_families_register_per_label_value() {
        let registry = Registry::new();
        let classes = ["2xx", "3xx", "4xx", "5xx"];
        let family = registry.counters(
            "http_requests_total",
            "responses by status class",
            "class",
            &classes,
        );
        assert_eq!(family.len(), 4);
        family[2].add(5);
        // Re-registering yields the same underlying series, positionally.
        let again = registry.counters(
            "http_requests_total",
            "responses by status class",
            "class",
            &classes,
        );
        assert_eq!(again[2].get(), 5);
        assert_eq!(again[0].get(), 0);
        let rendered = render(&registry);
        assert!(rendered.contains("http_requests_total{class=\"4xx\"} 5"));
        check_exposition(&rendered).unwrap();
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("hits_total", "hits", &[]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                // Each worker re-registers (idempotent) and hammers the
                // shared atomic — the serve daemon's connection-worker
                // shape.
                scope.spawn(|| {
                    let mine = registry.counter("hits_total", "hits", &[]);
                    for _ in 0..1000 {
                        mine.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 8000);
        assert!(render(&registry).contains("hits_total 8000"));
    }

    #[test]
    fn histogram_buckets_are_monotone_with_inf_sum_count_invariants() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let (bounds, cumulative, sum) = h.snapshot();
        assert_eq!(bounds, vec![0.1, 1.0, 10.0]);
        // Cumulative counts never decrease and end at the total count.
        assert_eq!(cumulative, vec![1, 3, 4, 5]);
        assert_eq!(*cumulative.last().unwrap(), h.count());
        assert!((sum - 56.05).abs() < 1e-6, "{sum}");
        // A boundary value lands in its bucket (le is inclusive).
        let edge = Histogram::new(&[1.0]);
        edge.observe(1.0);
        assert_eq!(edge.snapshot().1, vec![1, 1]);
    }

    #[test]
    fn histogram_recording_is_concurrent_safe() {
        let h = Histogram::new(LATENCY_BUCKETS);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..500 {
                        h.observe((t * 500 + i) as f64 * 1e-6);
                    }
                });
            }
        });
        assert_eq!(h.count(), 2000);
        let (_, cumulative, sum) = h.snapshot();
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]));
        // Sum of 0..2000 µs = 1.999 s, within scaled-integer rounding.
        assert!((sum - 1.999).abs() < 1e-3, "{sum}");
    }

    #[test]
    fn registry_renders_checkable_prometheus_text() {
        let registry = Registry::new();
        registry
            .counter("req_total", "requests", &[("op", "query")])
            .add(3);
        registry
            .counter("req_total", "requests", &[("op", "explain")])
            .inc();
        registry
            .histogram("lat_seconds", "latency", &[("op", "query")], &[0.001, 0.1])
            .observe(0.05);
        let text = render(&registry);
        check_exposition(&text).unwrap();
        assert!(text.contains(r#"req_total{op="query"} 3"#), "{text}");
        assert!(text.contains(r#"req_total{op="explain"} 1"#), "{text}");
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
        assert!(
            text.contains(r#"lat_seconds_bucket{op="query",le="+Inf"} 1"#),
            "{text}"
        );
        // One family header per family, even with several series.
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "x", &[]);
        let b = registry.counter("x_total", "x", &[]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same handle behind both registrations");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.histogram("x_total", "x", &[], LATENCY_BUCKETS);
        }));
        assert!(panic.is_err(), "kind mismatch must be a programmer error");
    }
}
