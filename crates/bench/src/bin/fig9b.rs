//! Figure 9(b) graph (e): the open-load saturation curve against the
//! *real* sharded server. Graphs (a)–(d), against the simulated
//! database, are the committed table `paper/fig9b.txt`
//! (`dflow_bench::paper`).
//!
//! `Arrival::Poisson` drives the real sharded `EngineServer`, with task
//! costs mapped onto wall-clock time (`GeneratedFlow::with_unit_delay`)
//! so worker threads become the finite resource. Offered load sweeps
//! past capacity; achieved throughput rises monotonically, then
//! saturates, and instances blowing the per-request `Request::deadline`
//! budget are tallied as late drops.
//!
//! Flags:
//!
//! * `--smoke` — a reduced sweep sized for CI (the `open-load-smoke`
//!   job);
//! * `--json PATH` — additionally emit the table as a `BENCH_*.json`
//!   snapshot for the CI job summary.

use std::time::Duration;

use decisionflow::server::EngineServer;
use dflow_bench::harness::{f1, parse_args, ResultTable};
use dflowgen::{generate, GeneratedFlow, PatternParams};
use dflowperf::{Arrival, Workload};

fn main() {
    let args = parse_args(false);
    let params = PatternParams {
        nb_nodes: 16,
        nb_rows: 4,
        pct_enabled: 75,
        ..Default::default()
    };
    // Map one unit of processing to real time so the worker pool is a
    // finite resource; a 300ms budget marks stragglers as late drops.
    let per_unit = Duration::from_micros(500);
    let deadline = Duration::from_millis(300);
    let flows: Vec<GeneratedFlow> = (0..3)
        .map(|i| {
            generate(params, 0x0E9B + i)
                .expect("valid pattern")
                .with_unit_delay(per_unit)
        })
        .collect();
    let (shards, workers) = (1usize, 2usize);
    let (rates, total, warmup) = if args.smoke {
        (vec![30.0, 60.0, 120.0, 240.0], 96usize, 16usize)
    } else {
        (
            vec![15.0, 30.0, 60.0, 120.0, 240.0, 480.0],
            240usize,
            40usize,
        )
    };

    let mode = if args.smoke { " (smoke)" } else { "" };
    eprintln!("open-load saturation vs the real server{mode} ...");
    let mut t = ResultTable::new(
        format!(
            "Fig 9(b) graph (e){mode} — Poisson arrivals vs real EngineServer \
             ({shards}x{workers} workers, {}us/unit, {}ms deadline)",
            per_unit.as_micros(),
            deadline.as_millis()
        ),
        &[
            "offered/s",
            "achieved/s",
            "goodput/s",
            "mean_ms",
            "p50_ms",
            "p99_ms",
            "completed",
            "late",
            "abandoned",
        ],
    );
    let mut achieved = Vec::new();
    for &rate in &rates {
        let r = Workload::new(flows.clone())
            .arrivals(Arrival::Poisson { rate })
            .instances(total)
            .warmup(warmup)
            .seed(0x9B)
            .deadline(deadline)
            .strategy("PCE100".parse().unwrap())
            .run(
                &EngineServer::builder()
                    .shards(shards)
                    .workers_per_shard(workers)
                    .build()
                    .expect("server build"),
            )
            .expect("server run");
        assert!(
            r.accounts_exactly(),
            "submitted = completed + late + abandoned must hold"
        );
        achieved.push(r.completion_throughput_per_sec);
        t.row(vec![
            f1(rate),
            f1(r.completion_throughput_per_sec),
            f1(r.throughput_per_sec),
            f1(r.responses.mean()),
            f1(r.percentiles.p50),
            f1(r.percentiles.p99),
            r.completed.to_string(),
            r.late_dropped.to_string(),
            r.abandoned.to_string(),
        ]);
    }
    t.emit("fig9b_server.csv");
    if let Some(path) = &args.json {
        t.emit_json(path);
    }

    // The curve must rise with offered load and then saturate: the
    // last doubling of offered load cannot double achieved throughput.
    let first = achieved.first().copied().unwrap_or(0.0);
    let last = achieved.last().copied().unwrap_or(0.0);
    let peak = achieved.iter().copied().fold(0.0f64, f64::max);
    assert!(first > 0.0 && last > 0.0, "throughput must be positive");
    assert!(
        peak > first,
        "raising offered load must raise achieved throughput ({achieved:?})"
    );
    assert!(
        last < rates.last().unwrap() * 0.9,
        "offered {} >> capacity: achieved {last:.1}/s must saturate below it ({achieved:?})",
        rates.last().unwrap()
    );
    println!(
        "\nachieved throughput rises {first:.1}/s -> {peak:.1}/s, then saturates \
         (last offered {:.0}/s achieved {last:.1}/s)",
        rates.last().unwrap()
    );
}
