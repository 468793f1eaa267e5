//! Runtime telemetry: per-stage latency histograms, span tracing, and
//! a Prometheus/JSON metrics surface.
//!
//! The paper's claims are measurements; this module is how the live
//! server produces them. Every instance's trip through the
//! [`EngineServer`] is timestamped at the stage boundaries
//!
//! ```text
//! submit ──route──▶ validate ──enqueue──▶ dequeue ──execute──▶ complete
//!    └────────────────────────── e2e ───────────────────────────┘
//! ```
//!
//! and recorded into **per-shard** [`LatencyHistogram`]s — lock-free
//! log-bucketed atomics with zero cross-shard contention, aggregated
//! only at snapshot time. The same per-shard [`ShardTelemetry`] owns
//! the instance lifecycle counters (`instances_*`, `jobs_queued`), so
//! `EngineServer::stats` and [`Telemetry::snapshot`] are two views of
//! one set of atomics. The stages ([`Stage`]):
//!
//! | stage | interval |
//! |---|---|
//! | `route` | submission entry → shard chosen, schema resolved |
//! | `validate` | request validation, WAL acceptance append, runtime construction |
//! | `queue_wait` | first scheduling round enqueued → picked up by a worker |
//! | `execute` | worker pickup → target stabilization |
//! | `e2e` | submission entry → target stabilization |
//!
//! Three consumption surfaces, all hanging off
//! [`EngineServer::telemetry`]:
//!
//! * [`Telemetry::snapshot`] → [`TelemetrySnapshot`], which renders as
//!   canonical JSON ([`TelemetrySnapshot::to_json`]) or Prometheus
//!   text ([`TelemetrySnapshot::render_prometheus`]);
//! * [`Telemetry::recent_spans`] → the last N completed instances'
//!   full [`StageTimings`] breakdowns (a bounded, drop-counting ring —
//!   see [`SpanRecorder`]);
//! * per-result: every `InstanceResult` carries its own
//!   [`StageTimings`].
//!
//! The building blocks — [`Registry`], [`Counter`], [`Gauge`],
//! [`LatencyHistogram`] — are public and server-independent, so
//! drivers and benches can meter their own pipelines the same way.
//!
//! [`EngineServer`]: crate::server::EngineServer
//! [`EngineServer::telemetry`]: crate::server::EngineServer::telemetry

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::engine::metrics::ShardStats;

pub mod exposition;
pub mod histogram;
pub mod http;
pub mod registry;
pub mod spans;

pub use exposition::{CounterValue, GaugeValue, StageLatency, TelemetrySnapshot};
pub use histogram::{
    bucket_index, bucket_lower, bucket_upper, HistogramSnapshot, LatencyHistogram, BUCKET_COUNT,
    OVERFLOW_NS,
};
pub use http::MetricsServer;
pub use registry::{Counter, Gauge, MetricSnapshot, Registry};
pub use spans::{SpanRecord, SpanRecorder};

/// The instrumented stages of an instance's trip through the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Submission entry → shard routed and schema resolved.
    Route,
    /// Request validation, WAL acceptance append (durable requests),
    /// and runtime construction.
    Validate,
    /// First scheduling round enqueued → picked up by a worker.
    QueueWait,
    /// Worker pickup → target stabilization.
    Execute,
    /// Submission entry → target stabilization (the whole trip).
    EndToEnd,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Route,
        Stage::Validate,
        Stage::QueueWait,
        Stage::Execute,
        Stage::EndToEnd,
    ];

    /// Snake_case stage name, as used in metric names and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Route => "route",
            Stage::Validate => "validate",
            Stage::QueueWait => "queue_wait",
            Stage::Execute => "execute",
            Stage::EndToEnd => "e2e",
        }
    }
}

/// Per-stage latency breakdown of one completed instance, in
/// nanoseconds. Attached to every server `InstanceResult` and to
/// every [`SpanRecord`].
///
/// The first four stages partition the instance's critical path (up
/// to scheduling gaps of a few hundred nanoseconds between stage
/// boundaries), so their sum tracks [`e2e_ns`](Self::e2e_ns) closely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Submission entry → shard routed and schema resolved.
    pub route_ns: u64,
    /// Request validation, WAL acceptance append (durable requests),
    /// and runtime construction.
    pub validate_ns: u64,
    /// First scheduling round enqueued → picked up by a worker.
    pub queue_wait_ns: u64,
    /// Worker pickup → target stabilization.
    pub execute_ns: u64,
    /// Submission entry → target stabilization.
    pub e2e_ns: u64,
}

impl StageTimings {
    /// The recorded duration of one stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Route => self.route_ns,
            Stage::Validate => self.validate_ns,
            Stage::QueueWait => self.queue_wait_ns,
            Stage::Execute => self.execute_ns,
            Stage::EndToEnd => self.e2e_ns,
        }
    }
}

/// One shard's telemetry: a [`Registry`] whose stage histograms and
/// instance lifecycle counters are pre-resolved into handles for
/// single-indirection updates on the hot path. Each shard owns its own
/// `ShardTelemetry`, so recording never contends across shards.
///
/// The lifecycle series are ordinary registry metrics — counters
/// `instances_submitted` / `instances_completed` /
/// `instances_abandoned` / `instances_deadline_exceeded` (monotone) and
/// gauges `instances_in_flight` / `jobs_queued` (move both ways) — read
/// by [`stats`](Self::stats) for `EngineServer::stats` and by
/// [`Registry::snapshot`] for [`Telemetry::snapshot`].
///
/// # Snapshot coherence
///
/// Counter and gauge updates are `Release` and reads are `Acquire`, and
/// both readers load `completed` and `abandoned` *before* `submitted`
/// ([`stats`](Self::stats) by statement order, [`Registry::snapshot`]
/// because it reads in registration order and [`new`](Self::new)
/// registers them in that order). Every completion increment
/// happens-after its own submission increment (the instance travels
/// from the submitting thread to the completing worker through the
/// shard's job channel, whose send/receive pair establishes the
/// ordering), so an acquire-read of `completed` means every counted
/// completion's submission increment is also visible to the later
/// `submitted` read. Hence a snapshot taken *while submissions race*
/// still satisfies, per shard (and therefore summed over shards):
///
/// * `completed ≤ submitted`
/// * `completed + abandoned ≤ submitted`
///
/// No such inequality is promised for `in_flight` under race (its
/// decrement is a separate operation that may or may not be visible);
/// the exact identity `submitted = completed + abandoned + in_flight`
/// holds at quiescence — see [`ShardStats::accounts_exactly`].
#[derive(Debug)]
pub struct ShardTelemetry {
    registry: Registry,
    stages: [Arc<LatencyHistogram>; Stage::ALL.len()],
    /// Total instances ever routed to this shard.
    submitted: Arc<Counter>,
    /// Total instances completed on this shard.
    completed: Arc<Counter>,
    /// Instances that died without delivering a result (a panicking
    /// task body abandoned them).
    abandoned: Arc<Counter>,
    /// Completed instances that stabilized after their deadline.
    deadline_exceeded: Arc<Counter>,
    /// Instances submitted to this shard that have not completed.
    in_flight: Arc<Gauge>,
    /// Task executions sent to the shard's worker pool and not yet
    /// picked up by a worker thread (queue depth).
    jobs_queued: Arc<Gauge>,
}

impl Default for ShardTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardTelemetry {
    /// Fresh shard telemetry with every [`Stage`] histogram and the
    /// lifecycle counters registered.
    pub fn new() -> ShardTelemetry {
        let registry = Registry::new();
        let stages = Stage::ALL.map(|s| registry.histogram(s.name()));
        // ordering: registration order is the registry's read order —
        // monotone counters first, `submitted` last (snapshot coherence).
        let completed = registry.counter("instances_completed");
        let abandoned = registry.counter("instances_abandoned");
        let deadline_exceeded = registry.counter("instances_deadline_exceeded");
        let jobs_queued = registry.gauge("jobs_queued");
        let in_flight = registry.gauge("instances_in_flight");
        let submitted = registry.counter("instances_submitted");
        ShardTelemetry {
            registry,
            stages,
            submitted,
            completed,
            abandoned,
            deadline_exceeded,
            in_flight,
            jobs_queued,
        }
    }

    /// Record one stage sample, nanoseconds.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record_ns(ns);
    }

    /// Record a completed instance's full breakdown (all five
    /// stages).
    pub fn record_timings(&self, t: &StageTimings) {
        for stage in Stage::ALL {
            self.record_stage(stage, t.stage_ns(stage));
        }
    }

    /// A task execution entered the shard's job queue.
    pub fn job_enqueued(&self) {
        self.jobs_queued.inc();
    }

    /// A worker thread dequeued a task execution.
    pub fn job_dequeued(&self) {
        self.jobs_queued.dec();
    }

    /// An instance was routed to this shard. `submitted` is bumped
    /// before `in_flight`, so it is visible no later.
    pub fn instance_submitted(&self) {
        self.submitted.inc();
        self.in_flight.inc();
    }

    /// An instance completed on this shard.
    pub fn instance_completed(&self) {
        self.completed.inc();
        self.in_flight.dec();
    }

    /// An instance died without delivering a result (its task body
    /// panicked); it is no longer in flight.
    pub fn instance_abandoned(&self) {
        self.abandoned.inc();
        self.in_flight.dec();
    }

    /// A completed instance stabilized after its deadline (counted in
    /// addition to [`instance_completed`](Self::instance_completed)).
    pub fn instance_deadline_exceeded(&self) {
        self.deadline_exceeded.inc();
    }

    /// Read the lifecycle counters into a plain [`ShardStats`] record.
    ///
    /// Reads the monotone counters `completed` and `abandoned` *first*
    /// and `submitted` *last*, so the record never reports `completed >
    /// submitted` or `completed + abandoned > submitted` even while
    /// submissions race — see the
    /// [type-level docs](ShardTelemetry#snapshot-coherence).
    pub fn stats(&self, shard: usize, workers: usize) -> ShardStats {
        // ordering: each `get` is an Acquire load pairing with the
        // Release updates; struct fields are evaluated in the order
        // written — monotone counters first, `submitted` last — which
        // keeps the record coherent under race.
        ShardStats {
            shard,
            workers,
            completed: self.completed.get(),
            abandoned: self.abandoned.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            queued_jobs: self.jobs_queued.get().max(0) as usize,
            in_flight: self.in_flight.get().max(0) as usize,
            submitted: self.submitted.get(),
        }
    }

    /// The underlying registry, for registering additional metrics
    /// alongside the stage histograms.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Cloneable handle onto a server's telemetry, obtained from
/// [`EngineServer::telemetry`](crate::server::EngineServer::telemetry).
/// Holds `Arc`s into the per-shard registries and the span ring, so it
/// keeps working (and stays cheap to poll) while — and even after —
/// the server runs.
#[derive(Clone, Debug)]
pub struct Telemetry {
    pub(crate) shards: Vec<Arc<ShardTelemetry>>,
    pub(crate) spans: Arc<SpanRecorder>,
    /// Additional registries merged into every snapshot — the durable
    /// store's WAL metrics (`wal_*` counters, append/fsync
    /// histograms) ride along here when the server was opened over
    /// one.
    pub(crate) extras: Vec<Arc<Registry>>,
}

impl Telemetry {
    /// Number of shards observed.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate every shard's registry into one [`TelemetrySnapshot`]:
    /// counters and gauges sum name-wise (the `instances_*` /
    /// `jobs_queued` lifecycle series among them), histograms merge
    /// bucket-wise, and the span ring's totals are folded in as
    /// `spans_*` counters.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut hists: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let registries = self
            .shards
            .iter()
            .map(|s| s.registry())
            .chain(self.extras.iter().map(|r| r.as_ref()));
        for registry in registries {
            for (name, metric) in registry.snapshot() {
                match metric {
                    MetricSnapshot::Counter(v) => *counters.entry(name).or_default() += v,
                    MetricSnapshot::Gauge(v) => *gauges.entry(name).or_default() += v,
                    MetricSnapshot::Histogram(h) => {
                        hists.entry(name).or_default().merge(&h);
                    }
                }
            }
        }
        *counters.entry("spans_recorded".into()).or_default() += self.spans.recorded();
        *counters.entry("spans_evicted".into()).or_default() += self.spans.evicted();
        // Stage histograms first, in pipeline order; any additional
        // registered histograms follow alphabetically.
        let mut stages = Vec::new();
        for stage in Stage::ALL {
            if let Some(h) = hists.remove(stage.name()) {
                stages.push(StageLatency {
                    stage: stage.name().to_string(),
                    histogram: h,
                });
            }
        }
        for (name, h) in hists {
            stages.push(StageLatency {
                stage: name,
                histogram: h,
            });
        }
        TelemetrySnapshot {
            shards: self.shards.len(),
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterValue { name, value })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(name, value)| GaugeValue { name, value })
                .collect(),
            stages,
        }
    }

    /// The most recent completed-instance spans, oldest first (at
    /// most [`SpanRecorder::capacity`] of them).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.spans.recent()
    }

    /// Spans evicted from the ring to make room for newer ones — the
    /// drop count of the incident buffer.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.evicted()
    }

    /// Convenience: [`snapshot`](Self::snapshot) rendered as
    /// Prometheus text, ready to serve from a scrape endpoint.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["route", "validate", "queue_wait", "execute", "e2e"]);
    }

    #[test]
    fn stage_timings_sum_components() {
        let t = StageTimings {
            route_ns: 1,
            validate_ns: 2,
            queue_wait_ns: 3,
            execute_ns: 4,
            e2e_ns: 11,
        };
        assert_eq!(t.stage_ns(Stage::QueueWait), 3);
        assert_eq!(t.stage_ns(Stage::EndToEnd), 11);
    }

    #[test]
    fn shard_telemetry_records_into_stage_histograms() {
        let tele = ShardTelemetry::new();
        tele.record_timings(&StageTimings {
            route_ns: 10,
            validate_ns: 20,
            queue_wait_ns: 30,
            execute_ns: 40,
            e2e_ns: 100,
        });
        for stage in Stage::ALL {
            let h = tele.registry().histogram(stage.name()).snapshot();
            assert_eq!(h.count(), 1, "stage {}", stage.name());
        }
    }

    #[test]
    fn lifecycle_counters_feed_stats_and_snapshot_alike() {
        use crate::engine::metrics::ServerStats;
        let (t0, t1) = (Arc::new(ShardTelemetry::new()), ShardTelemetry::new());
        t0.instance_submitted();
        t0.instance_submitted();
        t0.job_enqueued();
        t0.job_enqueued();
        t0.job_dequeued();
        t0.instance_completed();
        t1.instance_submitted();
        let stats = ServerStats {
            shards: vec![t0.stats(0, 3), t1.stats(1, 2)],
        };
        assert_eq!(stats.shard_count(), 2);
        assert_eq!(stats.workers(), 5);
        assert_eq!(stats.queued_jobs(), 1);
        assert_eq!(stats.in_flight(), 2);
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.max_queue_depth(), 1);
        assert_eq!(stats.shards_used(), 2);
        assert_eq!(stats.shards[0].shard, 0);
        assert_eq!(stats.shards[1].workers, 2);
        assert_eq!(stats.deadline_exceeded(), 0);
        assert!(
            stats.accounts_exactly(),
            "quiescent counters satisfy the lifecycle identity"
        );
        // The registry view reads the very same atomics.
        let snap = Telemetry {
            shards: vec![t0],
            spans: Arc::new(SpanRecorder::new(8)),
            extras: Vec::new(),
        }
        .snapshot();
        assert_eq!(snap.counter("instances_submitted"), Some(2));
        assert_eq!(snap.counter("instances_completed"), Some(1));
        assert_eq!(snap.gauge("instances_in_flight"), Some(1));
        assert_eq!(snap.gauge("jobs_queued"), Some(1));
    }

    #[test]
    fn deadline_exceeded_counts_and_accounting() {
        let t = ShardTelemetry::new();
        t.instance_submitted();
        t.instance_submitted();
        t.instance_submitted();
        t.instance_completed();
        t.instance_deadline_exceeded();
        t.instance_abandoned();
        let s = t.stats(0, 1);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.in_flight, 1);
        assert!(s.accounts_exactly());
        // A torn snapshot (here: forged) fails the identity.
        let torn = ShardStats {
            submitted: 4,
            ..s.clone()
        };
        assert!(!torn.accounts_exactly());
    }

    #[test]
    fn snapshot_merges_shards_and_orders_stages() {
        let a = Arc::new(ShardTelemetry::new());
        let b = Arc::new(ShardTelemetry::new());
        a.record_stage(Stage::EndToEnd, 1_000);
        b.record_stage(Stage::EndToEnd, 2_000);
        a.registry().counter("custom_hits").add(3);
        b.registry().counter("custom_hits").add(4);
        let extra = Arc::new(Registry::new());
        extra.counter("wal_appends").add(5);
        let tele = Telemetry {
            shards: vec![a, b],
            spans: Arc::new(SpanRecorder::new(8)),
            extras: vec![extra],
        };
        let snap = tele.snapshot();
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.counter("custom_hits"), Some(7));
        assert_eq!(
            snap.counter("wal_appends"),
            Some(5),
            "extra registries merge into the snapshot"
        );
        assert_eq!(snap.counter("instances_submitted"), Some(0));
        assert_eq!(snap.gauge("instances_in_flight"), Some(0));
        assert_eq!(snap.stage("e2e").unwrap().count(), 2);
        let stage_names: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            stage_names,
            ["route", "validate", "queue_wait", "execute", "e2e"],
            "pipeline order preserved"
        );
    }
}
