//! Live server dashboard: poll the engine server's telemetry once a
//! second while an open Poisson workload runs against it.
//!
//! Run with: `cargo run --release --example server_dashboard`
//!
//! This is the observability loop an operator would run: one thread
//! drives a Poisson arrival stream at the server (`workload.run(&server)`:
//! the workload is a tenant of a *caller-owned* server), while the
//! main thread holds the
//! server's [`Telemetry`] handle and prints a one-line dashboard each
//! second — in-flight instances, queue depth, completions seen on the
//! event stream, and the p99 of the `queue_wait` and `e2e` stage
//! histograms. At the end it prints the full per-stage breakdown and a
//! sample of the Prometheus exposition a scrape endpoint would serve.
//!
//! [`Telemetry`]: decision_flows::prelude::Telemetry

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use decision_flows::prelude::*;
use dflowgen::{generate, GeneratedFlow, PatternParams};
use dflowperf::{Arrival, LoadReport, Workload};

fn main() {
    // A small server: 2 shards × 2 workers, speculating eagerly, with
    // cross-request memoization on (the workload resubmits the same
    // three flows over and over, so most task computations are repeats).
    let strategy: Strategy = "PSE100".parse().unwrap();
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(2)
        .strategy(strategy)
        .memoize(4096)
        .event_capacity(8192)
        .build()
        .expect("server build");
    let telemetry = server.telemetry();
    let events = server.subscribe();

    // Table-1-style generated flows as the offered load.
    let params = PatternParams {
        nb_nodes: 24,
        nb_rows: 4,
        pct_enabled: 75,
        ..Default::default()
    };
    let flows: Vec<GeneratedFlow> = (0..3)
        .map(|i| generate(params, 0xDA5B + i).expect("valid pattern"))
        .collect();

    let done = AtomicBool::new(false);
    let report: Option<LoadReport> = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let r = Workload::new(flows)
                .arrivals(Arrival::Poisson { rate: 400.0 })
                .instances(1200)
                .warmup(100)
                .seed(42)
                .strategy(strategy)
                .run(&server)
                .expect("workload run");
            done.store(true, Ordering::Release);
            r
        });

        println!("  t  in-flight  queued  completed  p99 queue-wait  p99 e2e");
        let mut completions = 0u64;
        let mut tick = 0u32;
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_secs(1));
            tick += 1;
            // Count completions seen on the event stream since the
            // last tick (the dashboard's own independent signal).
            while let Ok(Some(ev)) = events.try_recv() {
                if matches!(ev, InstanceEvent::Completed { .. }) {
                    completions += 1;
                }
            }
            let snap = telemetry.snapshot();
            println!(
                "{tick:3}s  {:9}  {:6}  {completions:9}  {:11.2}ms  {:5.2}ms",
                snap.gauge("instances_in_flight").unwrap_or(0),
                snap.gauge("jobs_queued").unwrap_or(0),
                snap.stage("queue_wait").map(|h| h.p99_ms()).unwrap_or(0.0),
                snap.stage("e2e").map(|h| h.p99_ms()).unwrap_or(0.0),
            );
        }
        driver.join().ok()
    });

    let report = report.expect("driver thread");
    let snap = telemetry.snapshot();
    println!(
        "\nrun: {} submitted, {} completed, {:.0}/s measured throughput",
        report.submitted, report.completed, report.throughput_per_sec
    );
    println!("\nper-stage latency (all completions):");
    println!(
        "  {:<12} {:>7} {:>9} {:>9} {:>9}",
        "stage", "count", "p50_ms", "p90_ms", "p99_ms"
    );
    for stage in &snap.stages {
        let h = &stage.histogram;
        println!(
            "  {:<12} {:>7} {:>9.3} {:>9.3} {:>9.3}",
            stage.stage,
            h.count(),
            h.p50_ms(),
            h.p90_ms(),
            h.p99_ms()
        );
    }
    let hits = snap.counter("memo_hits").unwrap_or(0);
    let misses = snap.counter("memo_misses").unwrap_or(0);
    if hits + misses > 0 {
        println!(
            "\nmemo: {:.1}% hit rate ({hits} hits / {misses} misses, {} evictions)",
            100.0 * hits as f64 / (hits + misses) as f64,
            snap.counter("memo_evictions").unwrap_or(0),
        );
    }
    println!(
        "\nrecent spans retained: {} (dropped {})",
        telemetry.recent_spans().len(),
        telemetry.spans_dropped()
    );
    println!("\nprometheus exposition (first lines):");
    for line in snap.render_prometheus().lines().take(8) {
        println!("  {line}");
    }
}
