//! Cross-shard stress for the sharded [`EngineServer`]: every
//! instance result must equal the declarative oracle regardless of
//! which shard executed it, batched submission must be semantically
//! identical to one-by-one submission, journal capture must replay
//! from any shard, and the aggregated [`ServerStats`] must reconcile.

use std::sync::Arc;

use decision_flows::decisionflow::report::ExecutionRecord;
use decision_flows::dflowgen::{generate, GeneratedFlow, PatternParams};
use decision_flows::prelude::*;

fn pattern(nodes: usize, pct: u32) -> PatternParams {
    PatternParams {
        nb_nodes: nodes,
        nb_rows: 4,
        pct_enabled: pct,
        ..Default::default()
    }
}

/// Compare every target in a server-produced record against the
/// oracle's complete snapshot.
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

/// Acceptance: all 8 strategy combinations agree with the
/// single-threaded oracle while instances execute across ≥ 2 shards.
#[test]
fn all_eight_strategies_agree_with_oracle_across_shards() {
    let flows: Vec<GeneratedFlow> = (0..8u64)
        .map(|seed| generate(pattern(24, 10 + (seed as u32 * 11) % 90), 7_000 + seed).unwrap())
        .collect();
    for strategy in Strategy::all_at(100) {
        let server = EngineServer::builder()
            .shards(4)
            .workers_per_shard(2)
            .strategy(strategy)
            .build()
            .unwrap();
        let mut handles = Vec::new();
        let mut oracle = Vec::new();
        for (i, flow) in flows.iter().enumerate() {
            let name = format!("flow{i}");
            server.register(&name, Arc::clone(&flow.schema));
            let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
            // Three replicas per flow so the id hash visits many shards.
            for _ in 0..3 {
                handles.push(
                    server
                        .submit((name.as_str(), flow.sources.clone()))
                        .unwrap(),
                );
                oracle.push((Arc::clone(&flow.schema), snap.clone()));
            }
        }
        let mut shards_seen = std::collections::HashSet::new();
        for (h, (schema, snap)) in handles.into_iter().zip(oracle) {
            let r = h.wait().unwrap();
            shards_seen.insert(r.shard);
            check(&r.record, &schema, &snap);
        }
        assert!(
            shards_seen.len() >= 2,
            "strategy {strategy}: expected ≥2 shards, saw {shards_seen:?}"
        );
        let stats = server.stats();
        assert_eq!(stats.completed(), 24, "strategy {strategy}");
        assert_eq!(stats.in_flight(), 0, "strategy {strategy}");
    }
}

/// Batched submission is semantically equivalent to one-by-one
/// submission: same oracle-mandated target values, same completion
/// accounting — only the routing/lock amortization differs.
#[test]
fn batched_submission_equivalent_to_one_by_one() {
    let flows: Vec<GeneratedFlow> = (0..6u64)
        .map(|seed| generate(pattern(32, 60), 3_100 + seed).unwrap())
        .collect();
    let one_by_one = EngineServer::builder()
        .shards(3)
        .workers_per_shard(2)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    let batched = EngineServer::builder()
        .shards(3)
        .workers_per_shard(2)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    let mut batch: Vec<(String, SourceValues)> = Vec::new();
    for (i, flow) in flows.iter().enumerate() {
        let name = format!("flow{i}");
        one_by_one.register(&name, Arc::clone(&flow.schema));
        batched.register(&name, Arc::clone(&flow.schema));
        for _ in 0..4 {
            batch.push((name.clone(), flow.sources.clone()));
        }
    }
    let singles: Vec<_> = batch
        .iter()
        .map(|(name, sv)| one_by_one.submit((name.as_str(), sv.clone())).unwrap())
        .collect();
    let bulk = batched
        .submit_many(
            batch
                .iter()
                .map(|(name, sv)| Request::named(name.clone()).sources(sv.clone())),
        )
        .unwrap();
    assert_eq!(bulk.len(), singles.len());
    for ((s, b), (name, _)) in singles.into_iter().zip(bulk).zip(&batch) {
        let i: usize = name.trim_start_matches("flow").parse().unwrap();
        let snap = complete_snapshot(&flows[i].schema, &flows[i].sources).unwrap();
        let rs = s.wait().unwrap();
        let rb = b.wait().unwrap();
        check(&rs.record, &flows[i].schema, &snap);
        check(&rb.record, &flows[i].schema, &snap);
    }
    assert_eq!(
        one_by_one.stats().completed(),
        batched.stats().completed(),
        "both servers completed the same load"
    );
}

/// Journal capture works per shard: a recorded instance that executed
/// on a non-zero shard replays byte-for-byte deterministically.
#[test]
fn recorded_instance_on_nonzero_shard_replays() {
    let flow = generate(pattern(24, 70), 11_111).unwrap();
    let server = EngineServer::builder()
        .shards(4)
        .workers_per_shard(2)
        .strategy("PSE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("f", Arc::clone(&flow.schema));
    let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
    let mut nonzero_shard_replayed = false;
    for i in 0..16 {
        let mut result = server
            .submit(
                Request::named("f")
                    .sources(flow.sources.clone())
                    .record_journal(true),
            )
            .unwrap()
            .wait()
            .unwrap();
        let journal = result.journal.take().expect("journal requested");
        check(&result.record, &flow.schema, &snap);
        let replayed = ReplayEngine::new(Arc::clone(&flow.schema), journal.clone())
            .unwrap()
            .replay()
            .unwrap_or_else(|d| panic!("instance {i} on shard {}: {d}", result.shard));
        assert_eq!(replayed.record, result.record, "instance {i}");
        assert_eq!(replayed.journal, journal, "instance {i}");
        if result.shard > 0 {
            nonzero_shard_replayed = true;
        }
    }
    assert!(
        nonzero_shard_replayed,
        "16 submissions across 4 shards must hit a non-zero shard"
    );
}

/// Goodput of a sleep-bound workload on `shards` shards: the tasks
/// carry wall-clock delays proportional to declared cost (modeling
/// remote-service queries that wait), so shard capacity is worker
/// count and the measurement exercises the submit → route → queue →
/// complete harness rather than the host's core count.
fn goodput_per_sec(shards: usize, flow: &GeneratedFlow, instances: usize) -> f64 {
    let server = EngineServer::builder()
        .shards(shards)
        .workers_per_shard(2)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("f", Arc::clone(&flow.schema));
    // Warm up: fault in schemas, spin up workers, fill scratch pools.
    for r in server
        .submit_many((0..2 * shards).map(|_| ("f", flow.sources.clone())))
        .unwrap()
        .wait_all()
    {
        r.unwrap();
    }
    let t0 = std::time::Instant::now();
    let batch = server
        .submit_many((0..instances).map(|_| ("f", flow.sources.clone())))
        .unwrap();
    for r in batch.wait_all() {
        r.unwrap();
    }
    instances as f64 / t0.elapsed().as_secs_f64()
}

/// Smoke scaling-efficiency assertion: on a sleep-bound workload the
/// shared-nothing hot path must let 4 shards deliver at least 2× the
/// goodput of 1 shard (the full sweep in `shard_scaling` measures
/// ~4×; 2× here leaves headroom for CI noise). A flat curve means a
/// shared lock or allocator crept back into submit/complete.
#[test]
fn four_shards_deliver_at_least_twice_one_shard_goodput() {
    let flow = generate(pattern(32, 75), 5_150)
        .unwrap()
        .with_unit_delay(std::time::Duration::from_micros(100));
    let mut best_ratio = 0.0f64;
    // One retry absorbs a single unlucky scheduler stall in CI.
    for attempt in 0..2 {
        let one = goodput_per_sec(1, &flow, 96);
        let four = goodput_per_sec(4, &flow, 96);
        let ratio = four / one;
        best_ratio = best_ratio.max(ratio);
        if best_ratio >= 2.0 {
            return;
        }
        eprintln!("attempt {attempt}: 1 shard {one:.1}/s, 4 shards {four:.1}/s = {ratio:.2}x");
    }
    panic!("4 shards must deliver ≥2× 1-shard goodput, best ratio {best_ratio:.2}x");
}

/// Per-shard event bus through the merged subscriber: every instance's
/// Submitted and Completed events arrive exactly once, each shard's
/// lane is seen in strictly increasing clock order with Submitted
/// before Completed, cross-shard completion batching drops nothing,
/// and clocks stay unique server-wide.
#[test]
fn merged_subscriber_sees_exactly_once_per_shard_ordered_events() {
    use std::collections::{HashMap, HashSet};

    let flow = generate(pattern(24, 80), 4_242).unwrap();
    let server = EngineServer::builder()
        .shards(4)
        .workers_per_shard(2)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("f", Arc::clone(&flow.schema));
    let events = server.subscribe();

    let n = 64usize;
    let batch = server
        .submit_many((0..n).map(|_| ("f", flow.sources.clone())))
        .unwrap();
    let ids: HashSet<u64> = batch.iter().map(|t| t.instance_id()).collect();
    assert_eq!(ids.len(), n, "instance ids unique across shards");
    for r in batch.wait_all() {
        r.unwrap();
    }

    let mut submitted: HashMap<u64, u64> = HashMap::new(); // id -> clock
    let mut completed: HashMap<u64, u64> = HashMap::new();
    let mut last_clock: HashMap<usize, u64> = HashMap::new(); // shard -> clock
    let mut all_clocks: HashSet<u64> = HashSet::new();
    let mut shards_seen: HashSet<usize> = HashSet::new();
    for _ in 0..2 * n {
        let ev = events
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("server alive")
            .expect("all 2n events must arrive");
        assert!(
            ids.contains(&ev.instance_id()),
            "event for unknown instance {}",
            ev.instance_id()
        );
        if let Some(&prev) = last_clock.get(&ev.shard()) {
            assert!(
                ev.clock() > prev,
                "shard {} clocks must strictly increase: {} after {}",
                ev.shard(),
                ev.clock(),
                prev
            );
        }
        last_clock.insert(ev.shard(), ev.clock());
        assert!(all_clocks.insert(ev.clock()), "clocks unique server-wide");
        shards_seen.insert(ev.shard());
        match &ev {
            InstanceEvent::Submitted { instance_id, .. } => {
                assert!(
                    submitted.insert(*instance_id, ev.clock()).is_none(),
                    "Submitted exactly once for {instance_id}"
                );
            }
            InstanceEvent::Completed { instance_id, .. } => {
                assert!(
                    completed.insert(*instance_id, ev.clock()).is_none(),
                    "Completed exactly once for {instance_id}"
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(submitted.len(), n, "every instance announced");
    assert_eq!(completed.len(), n, "every completion delivered");
    for (id, &sub_clock) in &submitted {
        let comp_clock = completed[id];
        // The instance is pinned to one shard, so both events share a
        // lane and their clocks order Submitted before Completed.
        assert!(
            sub_clock < comp_clock,
            "instance {id}: Submitted clock {sub_clock} must precede Completed {comp_clock}"
        );
    }
    assert!(
        shards_seen.len() >= 2,
        "64 round-robin submissions must land on ≥2 shards, saw {shards_seen:?}"
    );
    assert_eq!(events.dropped(), 0, "cross-shard batching drops nothing");
    assert!(
        events.try_recv().unwrap().is_none(),
        "no stray events beyond Submitted+Completed per instance"
    );
}

/// The aggregated stats reconcile with the work actually done, and the
/// live-instance table drains to empty.
#[test]
fn server_stats_reconcile_after_burst() {
    let flow = generate(pattern(32, 75), 2_024).unwrap();
    let server = EngineServer::builder()
        .shards(4)
        .workers_per_shard(1)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("f", Arc::clone(&flow.schema));
    let handles = server
        .submit_many((0..40).map(|_| ("f", flow.sources.clone())))
        .unwrap();
    for h in handles {
        h.wait().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.shard_count(), 4);
    assert_eq!(stats.submitted(), 40);
    assert_eq!(stats.completed(), 40);
    assert_eq!(stats.abandoned(), 0);
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.queued_jobs(), 0);
    assert!(stats.shards_used() >= 2);
    assert!(server.live_instances().is_empty());
    let per_shard: u64 = stats.shards.iter().map(|s| s.completed).sum();
    assert_eq!(per_shard, 40, "per-shard counters sum to the total");
}
