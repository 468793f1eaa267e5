//! The runtime telemetry subsystem, end to end: a server-backed
//! `Workload` run must decompose its end-to-end latency into the
//! pipeline stages, the two exposition formats must carry the same
//! numbers, deadline misses must be counted, per-shard stats must stay
//! coherent under racing submissions, and the log-bucketed histogram's
//! percentiles must stay within one bucket of the exact order
//! statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use decision_flows::dflowgen::{generate, GeneratedFlow, PatternParams};
use decision_flows::dflowperf::{Arrival, Workload};
use decision_flows::prelude::*;
use decisionflow::telemetry::{bucket_index, bucket_upper, LatencyHistogram};
use proptest::prelude::*;
// `decision_flows::prelude::Strategy` (the scheduling strategy) and
// proptest's `Strategy` trait collide under the two globs; bring the
// trait's methods back into scope anonymously.
use proptest::strategy::Strategy as _;

fn pattern() -> PatternParams {
    PatternParams {
        nb_nodes: 16,
        nb_rows: 4,
        pct_enabled: 75,
        ..Default::default()
    }
}

fn flows(n: u64) -> Vec<GeneratedFlow> {
    (0..n)
        .map(|i| generate(pattern(), 0x7E1E + i).unwrap())
        .collect()
}

/// A tiny one-source → one-target schema for direct-submission tests.
fn tiny_schema() -> (std::sync::Arc<Schema>, AttrId) {
    let mut b = SchemaBuilder::new();
    let x = b.source("x");
    let y = b.synthesis("y", vec![x], Expr::Lit(true), |v| v[0].clone());
    b.mark_target(y);
    (std::sync::Arc::new(b.build().unwrap()), x)
}

fn tiny_request(schema: &(std::sync::Arc<Schema>, AttrId)) -> Request {
    let mut sources = SourceValues::new();
    sources.set(schema.1, 1i64);
    Request::with_schema(std::sync::Arc::clone(&schema.0)).sources(sources)
}

/// Acceptance: a server-backed workload run produces a report whose
/// embedded telemetry decomposes end-to-end latency into queue-wait +
/// execute (+ submission overhead) — every stage histogram is
/// populated with exactly the completed instances, and the sum of the
/// component-stage p50s lands within sanity bounds of the e2e p50.
#[test]
fn workload_report_decomposes_latency_into_stages() {
    let report = Workload::new(flows(2))
        .arrivals(Arrival::Closed {
            clients: 16,
            waves: 0,
        })
        .instances(160)
        .warmup(0)
        .strategy("PSE100".parse().unwrap())
        .run(
            &EngineServer::builder()
                .shards(2)
                .workers_per_shard(2)
                .build()
                .unwrap(),
        )
        .expect("workload run");
    assert_eq!(report.completed, 160);
    let side = report.server.as_ref().expect("server extras");
    let tele = &side.telemetry;
    for stage in ["route", "validate", "queue_wait", "execute", "e2e"] {
        let h = tele.stage(stage).expect("stage present");
        assert_eq!(h.count(), 160, "stage {stage} counts every completion");
    }
    // The component stages partition the e2e critical path, so (up to
    // log-bucket granularity — each quantile is a bucket upper bound,
    // i.e. up to 2× the true value — and scheduling gaps between
    // stage boundaries) their p50 sum must be commensurate with the
    // e2e p50: generous sanity bounds, not a tight identity.
    let sum_p50: f64 = ["route", "validate", "queue_wait", "execute"]
        .iter()
        .map(|s| tele.stage(s).unwrap().quantile_ms(0.5))
        .sum();
    let e2e_p50 = tele.stage("e2e").unwrap().quantile_ms(0.5);
    assert!(e2e_p50 > 0.0, "e2e p50 must be positive");
    assert!(
        sum_p50 >= e2e_p50 * 0.05 && sum_p50 <= e2e_p50 * 20.0,
        "sum of stage p50s ({sum_p50:.4}ms) incommensurate with e2e p50 ({e2e_p50:.4}ms)"
    );
    // After the run quiesces the exact lifecycle identity holds.
    assert!(side.stats.accounts_exactly());
    assert_eq!(tele.counter("instances_completed"), Some(160));
    assert_eq!(tele.counter("instances_submitted"), Some(160));
}

/// The two exposition formats are views of the same snapshot: JSON
/// round-trips losslessly, and every counter and stage count in the
/// Prometheus text matches the JSON's numbers.
#[test]
fn prometheus_and_json_expose_the_same_numbers() {
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(1)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    let schema = tiny_schema();
    let tickets: Vec<Ticket> = (0..40)
        .map(|_| server.submit(tiny_request(&schema)).unwrap())
        .collect();
    for t in tickets {
        t.wait().expect("server alive");
    }
    let snap = server.telemetry().snapshot();
    // JSON round-trip is exact.
    let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse back");
    assert_eq!(back, snap);
    // Prometheus rendering carries the same counters…
    let prom = snap.render_prometheus();
    for c in &snap.counters {
        let line = format!("dflow_{}_total {}", c.name, c.value);
        assert!(prom.contains(&line), "missing {line:?} in:\n{prom}");
    }
    // …and the same per-stage sample counts.
    for s in &snap.stages {
        let line = format!(
            "dflow_stage_latency_seconds_count{{stage=\"{}\"}} {}",
            s.stage,
            s.histogram.count()
        );
        assert!(prom.contains(&line), "missing {line:?} in:\n{prom}");
    }
    assert_eq!(snap.counter("instances_completed"), Some(40));
}

/// Deadline misses are counted by the per-shard gauges and surface in
/// `ServerStats` (satellite: deadline-exceeded accounting).
#[test]
fn deadline_misses_are_counted_in_stats() {
    let server = EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    let schema = tiny_schema();
    // A zero budget is already blown when the instance completes.
    let tickets: Vec<Ticket> = (0..5)
        .map(|_| {
            server
                .submit(tiny_request(&schema).deadline(Duration::ZERO))
                .unwrap()
        })
        .collect();
    let mut late = 0;
    for t in tickets {
        if t.wait().expect("server alive").deadline_exceeded {
            late += 1;
        }
    }
    assert_eq!(late, 5, "a zero deadline is always exceeded");
    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded(), 5);
    assert_eq!(stats.shards[0].deadline_exceeded, 5);
    assert!(stats.accounts_exactly());
    assert_eq!(
        server
            .telemetry()
            .snapshot()
            .counter("instances_deadline_exceeded"),
        Some(5)
    );
}

/// Snapshot coherence under racing submissions (satellite: the
/// documented guarantee `completed ≤ submitted` per shard, with the
/// ordered Acquire reads): hammer `stats()` while submitter threads
/// race and assert the inequalities never break.
#[test]
fn stats_never_report_more_completed_than_submitted_under_race() {
    let server = Arc::new(
        EngineServer::builder()
            .shards(2)
            .workers_per_shard(1)
            .strategy("PCE100".parse().unwrap())
            .build()
            .unwrap(),
    );
    let schema = tiny_schema();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let server = Arc::clone(&server);
            let schema = schema.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut tickets = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    tickets.push(server.submit(tiny_request(&schema)).unwrap());
                    if tickets.len() >= 64 {
                        for t in tickets.drain(..) {
                            let _ = t.wait();
                        }
                    }
                }
                for t in tickets {
                    let _ = t.wait();
                }
            });
        }
        for _ in 0..2_000 {
            let stats = server.stats();
            for s in &stats.shards {
                assert!(
                    s.completed <= s.submitted,
                    "shard {}: completed ({}) > submitted ({})",
                    s.shard,
                    s.completed,
                    s.submitted
                );
                assert!(
                    s.completed + s.abandoned <= s.submitted,
                    "shard {}: completed+abandoned ({}) > submitted ({})",
                    s.shard,
                    s.completed + s.abandoned,
                    s.submitted
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiesced: the exact identity returns.
    assert!(server.stats().accounts_exactly());
}

/// Every completion deposits a span; the ring is bounded and
/// drop-counted, and each span's timings are internally consistent.
#[test]
fn spans_record_completions_with_consistent_timings() {
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(1)
        .strategy("PSE100".parse().unwrap())
        .build()
        .unwrap();
    let schema = tiny_schema();
    let tickets: Vec<Ticket> = (0..30)
        .map(|i| {
            server
                .submit(tiny_request(&schema).label(format!("job{i}")))
                .unwrap()
        })
        .collect();
    for t in tickets {
        let r = t.wait().expect("server alive");
        // Per-result stage timings are present and consistent.
        let timings = r.stage_timings.expect("server results carry timings");
        assert!(timings.e2e_ns >= timings.execute_ns, "e2e covers execute");
        assert!(
            timings.e2e_ns >= timings.queue_wait_ns,
            "e2e covers queue wait"
        );
        assert_eq!(
            Duration::from_nanos(timings.e2e_ns),
            r.elapsed,
            "e2e stage IS the result's elapsed time"
        );
    }
    let tele = server.telemetry();
    let spans = tele.recent_spans();
    assert_eq!(spans.len(), 30, "all 30 fit in the default ring");
    assert_eq!(tele.spans_dropped(), 0);
    assert_eq!(tele.snapshot().counter("spans_recorded"), Some(30));
    for span in &spans {
        assert!(span.label.as_deref().unwrap_or("").starts_with("job"));
        assert!(span.timings.e2e_ns > 0);
        assert!(!span.deadline_exceeded);
    }
}

/// A workload driven at a caller-owned server feeds the same telemetry
/// the caller's own handle sees.
#[test]
fn on_server_backend_feeds_the_callers_telemetry() {
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(2)
        .strategy("PSE100".parse().unwrap())
        .build()
        .unwrap();
    let telemetry = server.telemetry();
    let report = Workload::new(flows(2))
        .arrivals(Arrival::Closed {
            clients: 8,
            waves: 0,
        })
        .instances(64)
        .warmup(0)
        .strategy("PCE100".parse().unwrap())
        .run(&server)
        .expect("workload run");
    assert_eq!(report.completed, 64);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("instances_completed"), Some(64));
    assert_eq!(snap.stage("e2e").map(|h| h.count()), Some(64));
    // The report embeds the same aggregation.
    let embedded = &report.server.as_ref().unwrap().telemetry;
    assert_eq!(embedded.counter("instances_completed"), Some(64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log-bucketed histogram's nearest-rank quantile is within
    /// one bucket width of the exact order statistic: for every q, the
    /// reported value is ≥ the exact sample and ≤ the upper bound of
    /// the exact sample's bucket.
    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact(
        mut samples in prop::collection::vec(0u64..=100_000_000_000u64, 1..200),
        qs in prop::collection::vec((0u64..=1000).prop_map(|m| m as f64 / 1000.0), 1..8),
    ) {
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let snap = h.snapshot();
        samples.sort_unstable();
        for &q in &qs {
            let n = samples.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            let approx = snap.quantile_ns(q);
            prop_assert!(
                approx >= exact,
                "q={q}: histogram quantile {approx} below exact {exact}"
            );
            prop_assert!(
                approx <= bucket_upper(bucket_index(exact)),
                "q={q}: histogram quantile {approx} beyond the exact sample's bucket \
                 (exact {exact}, bucket upper {})",
                bucket_upper(bucket_index(exact))
            );
        }
    }
}
