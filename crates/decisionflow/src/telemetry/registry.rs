//! Named-metric registry: monotone counters, up/down gauges, and
//! latency histograms.
//!
//! A [`Registry`] is the shard-local container the server's telemetry
//! is built from: registration (cold path) takes a lock, but the
//! handles it returns are plain `Arc`s whose updates are single
//! atomic operations — the hot path never touches the registry again.
//! Aggregation happens only at snapshot time, by merging the per-shard
//! [`Registry::snapshot`]s name-wise (counters and gauges sum,
//! histograms merge bucket-wise).
//!
//! [`Counter`] and [`Gauge`] updates are `Release` and their reads
//! `Acquire`, and a snapshot reads metrics in registration order —
//! the two halves of the coherence contract the server's lifecycle
//! counters rely on (see
//! [`ShardTelemetry`](super::ShardTelemetry#snapshot-coherence)).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use super::histogram::{HistogramSnapshot, LatencyHistogram};

/// A monotone (increment-only) counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // ordering: Release publishes the bump to Acquire `get`s.
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Acquire pairs with the Release in `add`.
        self.0.load(Ordering::Acquire)
    }
}

/// An up/down gauge (signed, so transient imbalances under concurrent
/// updates cannot wrap).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add `n` (negative to decrease).
    pub fn add(&self, n: i64) {
        // ordering: Release publishes the change to Acquire `get`s.
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        // ordering: Release publishes the value to Acquire `get`s.
        self.0.store(v, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ordering: Acquire pairs with the Release in `add`/`set`.
        self.0.load(Ordering::Acquire)
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Point-in-time value of one registered metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// A [`Counter`]'s value.
    Counter(u64),
    /// A [`Gauge`]'s value.
    Gauge(i64),
    /// A [`LatencyHistogram`]'s counters.
    Histogram(HistogramSnapshot),
}

/// A named-metric registry. Registration is get-or-create: asking for
/// an existing name returns the same underlying metric, so independent
/// components can share a counter by name.
///
/// # Panics
///
/// Asking for a name that is already registered *as a different
/// metric kind* panics — that is a programming error, not a runtime
/// condition.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<Vec<(String, Metric)>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some((_, m)) = self.entries.read().iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let mut entries = self.entries.write();
        // Re-check under the write lock: a racing registration wins.
        if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        entries.push((name.to_string(), m.clone()));
        m
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or register the latency histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        match self.get_or_insert(name, || {
            Metric::Histogram(Arc::new(LatencyHistogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Snapshot every registered metric, sorted by name. The values
    /// are *read* in registration order, so a component that registers
    /// `a` before `b` gets `a` read no later than `b`.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let mut out: Vec<(String, MetricSnapshot)> = self
            .entries
            .read()
            .iter()
            .map(|(n, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (n.clone(), v)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_move_as_told() {
        let r = Registry::new();
        let c = r.counter("widgets");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        r.counter("hits").inc();
        r.counter("hits").inc();
        assert_eq!(r.counter("hits").get(), 2, "same counter by name");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.gauge("b").set(2);
        r.counter("a").add(1);
        r.histogram("c").record_ns(10);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(snap[0].1, MetricSnapshot::Counter(1));
        assert_eq!(snap[1].1, MetricSnapshot::Gauge(2));
        match &snap[2].1 {
            MetricSnapshot::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
