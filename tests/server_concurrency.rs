//! Cross-crate stress: generated Table 1 flows executed on the
//! multi-threaded [`EngineServer`] must agree with the declarative
//! oracle — under real thread interleavings, for every strategy class.

use std::sync::Arc;

use decision_flows::decisionflow::report::ExecutionRecord;
use decision_flows::dflowgen::{generate, PatternParams};
use decision_flows::prelude::*;

fn pattern(nodes: usize, pct: u32) -> PatternParams {
    PatternParams {
        nb_nodes: nodes,
        nb_rows: 4,
        pct_enabled: pct,
        ..Default::default()
    }
}

/// Run one generated flow through the server and compare every target
/// against the oracle.
fn check(record: &ExecutionRecord, schema: &Schema, snap: &CompleteSnapshot) {
    for &t in schema.targets() {
        let name = &schema.attr(t).name;
        let out = record.outcome(name).expect("target present in record");
        match snap.state(t) {
            FinalState::Value => {
                assert_eq!(out.state, AttrState::Value, "{name} state");
                assert_eq!(out.value.as_ref(), Some(snap.value(t)), "{name} value");
            }
            FinalState::Disabled => {
                assert_eq!(out.state, AttrState::Disabled, "{name} state");
            }
        }
    }
}

#[test]
fn generated_flows_on_server_match_oracle() {
    for strat in ["PCE0", "PSE100", "NCC40"] {
        let server = EngineServer::builder()
            .shards(2)
            .workers_per_shard(3)
            .strategy(strat.parse().unwrap())
            .build()
            .unwrap();
        let mut handles = Vec::new();
        let mut oracle = Vec::new();
        for seed in 0..12u64 {
            let flow = generate(pattern(24, 10 + (seed as u32 * 8) % 90), 5_000 + seed).unwrap();
            let name = format!("flow{seed}");
            server.register(&name, Arc::clone(&flow.schema));
            let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
            handles.push(
                server
                    .submit((name.as_str(), flow.sources.clone()))
                    .unwrap(),
            );
            oracle.push((flow.schema, snap));
        }
        for (h, (schema, snap)) in handles.into_iter().zip(oracle) {
            let r = h.wait().unwrap();
            check(&r.record, &schema, &snap);
        }
    }
}

#[test]
fn repeated_submissions_of_one_schema_are_independent() {
    let flow = generate(pattern(32, 60), 9_999).unwrap();
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(2)
        .strategy("PSE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("f", Arc::clone(&flow.schema));
    let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
    let handles: Vec<_> = (0..25)
        .map(|_| server.submit(("f", flow.sources.clone())).unwrap())
        .collect();
    let mut works = Vec::new();
    for h in handles {
        let r = h.wait().unwrap();
        check(&r.record, &flow.schema, &snap);
        works.push(r.record.metrics.work);
    }
    // Conservative-needed work is schema-determined... but speculative
    // launches race the condition decisions, so work may vary between
    // runs. It must always cover the needed-enabled minimum.
    let min_needed = {
        let out = run_unit_time(&flow.schema, "PCE0".parse().unwrap(), &flow.sources).unwrap();
        out.metrics.work
    };
    for w in works {
        assert!(
            w >= min_needed,
            "every run performs at least the needed work ({w} < {min_needed})"
        );
    }
}

#[test]
fn server_handles_heavier_fanout_than_workers() {
    // More concurrent instances than worker threads: the pool is the
    // bottleneck (finite external multiprogramming level); everything
    // still completes correctly.
    let flow = generate(pattern(48, 75), 4_242).unwrap();
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(1)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("f", Arc::clone(&flow.schema));
    let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
    let handles: Vec<_> = (0..30)
        .map(|_| server.submit(("f", flow.sources.clone())).unwrap())
        .collect();
    for h in handles {
        check(&h.wait().unwrap().record, &flow.schema, &snap);
    }
}
