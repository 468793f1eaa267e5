//! Delta-resubmission speedup: goodput of warm (snapshot-reusing)
//! resubmission waves versus cold full recomputation, on a flow built
//! so a single-source change has a **small delta cone**.
//!
//! The generator's grid patterns are single-source (one binding feeds
//! every row), which makes any churn invalidate the whole flow — the
//! worst case for incremental recomputation. Real decision flows have
//! many independent inputs (the paper's insurance example: damage
//! photos, police report, claim history…), so this bench hand-builds
//! that shape: `ARMS` independent source→chain arms joined by one
//! synthesis target. Rebinding one source invalidates one arm plus the
//! synthesis; everything else is adopted from the client's previous
//! completion snapshot.
//!
//! Two [`Arrival::Resubmission`] runs over the same seed and churn:
//!
//! * **cold** — `delta_rate 0`, memoization off: every wave recomputes
//!   the full flow (the pre-statestore baseline);
//! * **warm** — `delta_rate 1`, memoization on: every resubmission
//!   adopts the out-of-cone arms from its snapshot, and clients
//!   sharing a flow reuse each other's in-cone computations through
//!   the memo table (so the report's memo hit rate is non-zero).
//!
//! Task bodies sleep `cost × unit_delay` ([`with_unit_delay`]) to
//! model remote-service queries, so worker capacity is the finite
//! resource and throughput measures work actually avoided — `--smoke`
//! asserts warm ≥ [`MIN_SPEEDUP`] × cold.
//!
//! Flags: `--smoke` (CI-sized run, with its assertions), `--json PATH`
//! (BENCH_*.json snapshot).
//!
//! [`Arrival::Resubmission`]: dflowperf::Arrival::Resubmission
//! [`with_unit_delay`]: dflowgen::GeneratedFlow::with_unit_delay

use std::sync::Arc;
use std::time::Duration;

use decisionflow::engine::Strategy;
use decisionflow::prelude::{Expr, SchemaBuilder, SourceValues, Task, Value};
use decisionflow::server::EngineServer;
use dflow_bench::harness::{f1, f2, parse_args, ResultTable};
use dflowgen::{GeneratedFlow, PatternParams};
use dflowperf::{Arrival, Workload};

/// Smoke floor: warm goodput over cold goodput.
const MIN_SPEEDUP: f64 = 3.0;

/// `arms` independent source→chain arms of `depth` tasks each, joined
/// by one synthesis target — the multi-input shape where a one-source
/// delta leaves `arms − 1` arms untouched.
fn armed_flow(arms: usize, depth: usize, cost: u64) -> GeneratedFlow {
    let mut b = SchemaBuilder::new();
    let mut sources = SourceValues::new();
    let mut tips = Vec::new();
    for i in 0..arms {
        let s = b.source(format!("s{i}"));
        sources.set(s, Value::Int(i as i64 * 1000));
        let mut prev = s;
        for d in 0..depth {
            let salt = (i * 131 + d) as u64;
            prev = b.attr(
                format!("a{i}_{d}"),
                Task::query(cost, move |ins: &[Value]| {
                    let mut h = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for v in ins {
                        h = h.rotate_left(13) ^ v.fingerprint();
                    }
                    Value::Int((h % 100_000) as i64)
                }),
                vec![prev],
                Expr::Lit(true),
            );
        }
        tips.push(prev);
    }
    let t = b.attr(
        "synthesis",
        Task::query(cost, |ins: &[Value]| {
            Value::Int(ins.iter().map(|v| v.fingerprint() as i64 % 1000).sum())
        }),
        tips,
        Expr::Lit(true),
    );
    b.mark_target(t);
    GeneratedFlow {
        schema: Arc::new(b.build().expect("armed flow is well-formed")),
        sources,
        params: PatternParams::default(),
        seed: 0,
        planned_enabled: arms * depth + 1,
    }
}

fn main() {
    let args = parse_args(false);
    let (arms, depth, clients, waves) = if args.smoke {
        (8, 2, 4, 8)
    } else {
        (8, 3, 8, 16)
    };
    // 200µs per cost unit, cost 2 per task: a cold instance holds a
    // worker for ~(arms·depth+1)·0.4ms of simulated query latency, a
    // warm one for ~(depth+1)·0.4ms.
    let flow = armed_flow(arms, depth, 2).with_unit_delay(Duration::from_micros(200));
    let strategy: Strategy = "PCE100".parse().unwrap();

    let mode = if args.smoke { " (smoke)" } else { "" };
    let mut t = ResultTable::new(
        format!(
            "Delta speedup{mode} — {arms}-arm flow (depth {depth}), churn 1 source/wave, \
             {clients} clients × {waves} waves"
        ),
        &[
            "mode",
            "throughput/s",
            "mean_resp_ms",
            "delta_reused",
            "delta_reexec",
            "memo_hit_pct",
        ],
    );
    let mut goodput = Vec::new();
    let layout = EngineServer::builder().shards(1).workers_per_shard(4);
    for (mode, delta_rate, builder) in [
        ("cold", 0.0, layout.clone()),
        ("warm", 1.0, layout.memoize(4096)),
    ] {
        let r = Workload::new(vec![flow.clone()])
            .arrivals(Arrival::Resubmission {
                clients,
                waves,
                delta_rate,
                churn: 1,
            })
            // Exclude wave 0 — the labeled seeding wave is cold in
            // both modes by construction.
            .warmup(clients)
            .seed(0xDE17A)
            .strategy(strategy)
            .run(&builder.build().expect("server build"))
            .expect("resubmission run");
        assert_eq!(r.completed, clients * waves);
        goodput.push(r.throughput_per_sec);
        let (reused, reexec) = r.delta_counts().unwrap_or((0, 0));
        if args.smoke && mode == "warm" {
            assert!(reused > 0, "smoke: warm mode must reuse snapshot values");
            assert!(
                r.memo_hit_rate().unwrap_or(0.0) > 0.0,
                "smoke: clients sharing a flow must hit the memo table"
            );
        }
        t.row(vec![
            mode.to_string(),
            f1(r.throughput_per_sec),
            f2(r.responses.mean()),
            reused.to_string(),
            reexec.to_string(),
            f1(100.0 * r.memo_hit_rate().unwrap_or(0.0)),
        ]);
    }
    t.emit("delta_speedup.csv");
    if let Some(path) = &args.json {
        t.emit_json(path);
    }
    // Last, so a failing floor still leaves the table behind.
    if args.smoke {
        let speedup = goodput[1] / goodput[0];
        assert!(
            speedup >= MIN_SPEEDUP,
            "smoke: warm goodput is only {speedup:.2}× cold (floor {MIN_SPEEDUP}×)"
        );
    }
}
