//! Shard scaling: throughput of the sharded `EngineServer` as the
//! shard count grows, over Table-1 generated flows.
//!
//! A Fig-5-style sweep for the threading harness itself: each row runs
//! one (shard count × strategy) cell as a closed-arrival `Workload`
//! on a fresh server — batched `submit_many` waves, wall-clock
//! latency, per-shard gauges — and reports post-warmup
//! instances/second, mean response, the deepest per-shard job queue
//! observed at the end, how many shards actually executed work, and
//! the per-stage latency percentiles from the server's telemetry
//! (queue-wait / execute / end-to-end). A second table breaks the
//! whole sweep's latency down by pipeline stage, from the merged
//! per-run histograms.
//!
//! Each task carries a wall-clock delay proportional to its declared
//! cost ([`GeneratedFlow::with_unit_delay`]), modeling the paper's
//! setting where tasks are remote-service queries that *wait*, not
//! local compute: a shard's capacity is then its worker count (how
//! many queries it can hold in flight), so N shards provide N× the
//! service capacity and the sweep measures how much of that the
//! submit → route → queue → complete harness actually delivers. A
//! CPU-bound body would instead saturate the host's cores and cap the
//! curve at core count, measuring the machine rather than the
//! harness.
//!
//! Flags:
//!
//! * `--smoke` — a reduced matrix (2 shard counts × 2 strategies,
//!   1/4 of the instances) sized for CI: it proves the sweep runs
//!   end to end and seeds the perf trajectory without spending
//!   minutes; it also *asserts* that every stage histogram of every
//!   run is non-empty, so a silently dead telemetry path fails CI,
//!   and that every strategy's 4-shard throughput is at least
//!   [`MIN_SCALING`] × its 1-shard throughput (a self-relative floor:
//!   the sweep is sleep-bound, so it holds on any host);
//! * `--json PATH` — additionally emit the result table as a
//!   `BENCH_*.json` snapshot (see `ResultTable::to_json`), which the
//!   CI bench-smoke job publishes into the job summary;
//! * `--prom PATH` — write the last run's telemetry in Prometheus
//!   text exposition format (the CI bench-smoke job publishes it as
//!   an artifact).

use decisionflow::engine::Strategy;
use decisionflow::server::EngineServer;
use decisionflow::telemetry::{HistogramSnapshot, TelemetrySnapshot};
use dflow_bench::harness::{f1, f2, parse_args, ResultTable};
use dflowgen::{generate, GeneratedFlow, PatternParams};
use dflowperf::{Arrival, Workload};

/// Smoke floor: 4-shard throughput over 1-shard throughput, per
/// strategy. Ideal is 4×; flat scaling reads ≈ 1×.
const MIN_SCALING: f64 = 2.5;

/// The stages the sweep-wide breakdown table reports, in pipeline
/// order (matching `decisionflow::telemetry::Stage::ALL`).
const STAGES: [&str; 5] = ["route", "validate", "queue_wait", "execute", "e2e"];

fn main() {
    let args = parse_args(true);
    let params = PatternParams {
        nb_nodes: 32,
        nb_rows: 4,
        pct_enabled: 75,
        ..Default::default()
    };
    let n_flows: u64 = if args.smoke { 2 } else { 4 };
    // 100µs per cost unit ≈ 5–10ms of simulated query latency per
    // instance: long enough that shard capacity (workers holding
    // sleeping queries) dominates, short enough to keep the sweep in
    // seconds.
    let unit_delay = std::time::Duration::from_micros(100);
    let flows: Vec<GeneratedFlow> = (0..n_flows)
        .map(|i| {
            generate(params, 0x5CA1E + i)
                .expect("valid pattern")
                .with_unit_delay(unit_delay)
        })
        .collect();
    let strategy_names: &[&str] = if args.smoke {
        &["PCE100", "PSE100"]
    } else {
        &["PCE0", "PCE100", "PSE100", "NCE100"]
    };
    let strategies: Vec<Strategy> = strategy_names.iter().map(|s| s.parse().unwrap()).collect();
    let shard_counts: &[usize] = if args.smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let total_instances = if args.smoke { 128 } else { 512 };
    let warmup_instances = if args.smoke { 16 } else { 64 };

    let mode = if args.smoke { " (smoke)" } else { "" };
    let mut t = ResultTable::new(
        format!("Shard scaling{mode} — sharded EngineServer over Table-1 flows (nb_nodes=32)"),
        &[
            "shards",
            "strategy",
            "throughput/s",
            "mean_resp_ms",
            "shards_used",
            "max_queue",
            "p50_queue_ms",
            "p50_exec_ms",
            "p99_e2e_ms",
        ],
    );
    // Sweep-wide per-stage histograms, merged across every run.
    let mut merged: Vec<HistogramSnapshot> = vec![HistogramSnapshot::default(); STAGES.len()];
    let mut last_snapshot: Option<TelemetrySnapshot> = None;
    // Throughput per (shards, strategy) cell, for the smoke floor.
    let mut throughput: Vec<(usize, Strategy, f64)> = Vec::new();
    for &shards in shard_counts {
        for &strategy in &strategies {
            let out = Workload::new(flows.clone())
                .arrivals(Arrival::Closed {
                    clients: 32,
                    waves: 0,
                })
                .instances(total_instances)
                .warmup(warmup_instances)
                .strategy(strategy)
                .run(
                    &EngineServer::builder()
                        .shards(shards)
                        .workers_per_shard(2)
                        .build()
                        .expect("server build"),
                )
                .expect("server run");
            assert_eq!(out.completed, total_instances);
            let side = out.server.as_ref().expect("server stats");
            let tele = &side.telemetry;
            for (i, name) in STAGES.iter().enumerate() {
                let h = tele
                    .stage(name)
                    .unwrap_or_else(|| panic!("stage {name} missing from telemetry"));
                if args.smoke {
                    assert!(
                        !h.is_empty(),
                        "smoke: stage {name} histogram empty at shards={shards} {strategy}"
                    );
                }
                merged[i].merge(h);
            }
            let empty = HistogramSnapshot::default();
            let queue = tele.stage("queue_wait").unwrap_or(&empty);
            let exec = tele.stage("execute").unwrap_or(&empty);
            let e2e = tele.stage("e2e").unwrap_or(&empty);
            t.row(vec![
                shards.to_string(),
                strategy.to_string(),
                f1(out.throughput_per_sec),
                f2(out.responses.mean()),
                side.stats.shards_used().to_string(),
                side.stats.max_queue_depth().to_string(),
                f2(queue.p50_ms()),
                f2(exec.p50_ms()),
                f2(e2e.p99_ms()),
            ]);
            last_snapshot = Some(tele.clone());
            throughput.push((shards, strategy, out.throughput_per_sec));
        }
    }
    t.emit("shard_scaling.csv");
    if let Some(path) = &args.json {
        t.emit_json(path);
    }

    let mut stage_table = ResultTable::new(
        format!("Per-stage latency{mode} — merged across the whole sweep"),
        &["stage", "count", "p50_ms", "p90_ms", "p99_ms"],
    );
    for (name, h) in STAGES.iter().zip(&merged) {
        stage_table.row(vec![
            name.to_string(),
            h.count().to_string(),
            f2(h.p50_ms()),
            f2(h.p90_ms()),
            f2(h.p99_ms()),
        ]);
    }
    stage_table.emit("shard_scaling_stages.csv");

    if let Some(path) = &args.prom {
        let snap = last_snapshot.expect("at least one run");
        if let Err(e) = std::fs::write(path, snap.render_prometheus()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("prometheus exposition -> {}", path.display());
        }
    }

    // Last, so a failing floor still leaves the tables behind.
    if args.smoke {
        for &strategy in &strategies {
            let at = |n: usize| {
                throughput
                    .iter()
                    .find(|&&(shards, s, _)| shards == n && s == strategy)
                    .map(|&(_, _, ips)| ips)
                    .expect("the smoke matrix has 1 and 4 shards")
            };
            let ratio = at(4) / at(1);
            assert!(
                ratio >= MIN_SCALING,
                "smoke: {strategy} scales only {ratio:.2}× from 1 to 4 shards (floor {MIN_SCALING}×)"
            );
        }
    }
}
