//! Acceptance tests for the unified submission API (`Request` /
//! `Ticket` / `ServerEvents`). The legacy shims
//! (`run_unit_time_recorded`, `submit_recorded`, `submit_batch`,
//! `InstanceHandle`/`RecordedHandle`) are gone after their one-release
//! grace period; these tests pin down the properties their
//! equivalence suite used to prove, now stated directly on the
//! unified surface:
//!
//! * recorded and plain runs agree across **all 8 strategy
//!   combinations**, and recorded server submissions are
//!   deterministic (byte-equal journals) on 1-worker-per-shard
//!   servers — fan-out flows included, now that the first scheduling
//!   round is routed through the owning shard's worker;
//! * recorded batches produce journals identical to recorded
//!   one-by-one submission;
//! * `wait_timeout` reports "still pending" under a saturated worker
//!   pool instead of blocking;
//! * `ServerEvents` counts reconcile with `ServerStats` under a
//!   multi-shard load with completions and abandonments.

use std::sync::Arc;
use std::time::Duration;

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

fn flow(seed: u64) -> GeneratedFlow {
    generate(pattern(24, 60), seed).expect("valid pattern")
}

/// In-process path: a recorded `Request::run` is a pure observer —
/// identical time and metrics to the plain entry point, and two
/// recorded runs of the same request produce byte-identical journals
/// — for all 8 strategies at two parallelism levels.
#[test]
fn recorded_request_run_is_deterministic_across_all_strategies() {
    let flow = flow(41_001);
    for permitted in [40u8, 100] {
        for strategy in Strategy::all_at(permitted) {
            let recorded = || {
                Request::with_schema(Arc::clone(&flow.schema))
                    .sources(flow.sources.clone())
                    .strategy(strategy)
                    .record_journal(true)
                    .run()
                    .unwrap()
            };
            let (a, b) = (recorded(), recorded());
            let journal_a = a.journal.expect("journal requested");
            let journal_b = b.journal.expect("journal requested");
            assert_eq!(journal_a, journal_b, "{strategy} journal determinism");
            assert_eq!(
                journal_a.to_json(),
                journal_b.to_json(),
                "{strategy} byte-identical serialization"
            );
            // Recording never perturbs the execution it observes.
            let plain = run_unit_time(&flow.schema, strategy, &flow.sources).unwrap();
            assert_eq!(plain.time_units, a.outcome.time_units, "{strategy}");
            assert_eq!(plain.metrics, a.outcome.metrics, "{strategy}");
        }
    }
}

/// A flow that keeps at most one task in flight (a chain, plus a
/// branch disabled at init). Historically the *only* shape whose
/// server journals could be compared byte-for-byte; since the first
/// scheduling round moved onto the owning shard's worker, fan-out
/// flows are byte-deterministic on 1-worker shards too (see
/// `recorded_server_submissions_are_deterministic_across_all_strategies`),
/// and this fixture survives as the cheap, fully-analyzable case.
fn chain_fixture() -> (Arc<Schema>, SourceValues) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let mut prev = s;
    for i in 0..3 {
        prev = b.attr(
            format!("c{i}"),
            Task::query(2, |ins: &[Value]| {
                Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 + 1)
            }),
            vec![prev],
            Expr::Lit(true),
        );
    }
    // Disabled at init (s = 7 ≤ 1000): stabilizes DISABLED without a
    // launch under every strategy, enriching the tape deterministically.
    let gated = b.attr(
        "gated",
        Task::const_query(5, 9i64),
        vec![],
        Expr::cmp_const(s, CmpOp::Gt, 1000i64),
    );
    let t = b.synthesis("t", vec![prev, gated], Expr::Lit(true), |v| v[0].clone());
    b.mark_target(t);
    let schema = Arc::new(b.build().unwrap());
    let mut sv = SourceValues::new();
    sv.set(s, 7i64);
    (schema, sv)
}

/// Server path, byte-for-byte: on single-worker-per-shard servers two
/// independent recorded submissions produce identical records *and*
/// identical journals for all 8 strategies — **without** the historic
/// single-outstanding-task restriction. Fan-out generated flows
/// qualify because the first scheduling round (like every later one)
/// runs on the owning shard's lone worker, so the job queue order is
/// a pure function of the flow, not of a submitting-thread race.
#[test]
fn recorded_server_submissions_are_deterministic_across_all_strategies() {
    let fanout = flow(41_001);
    let (chain_schema, chain_sv) = chain_fixture();
    let fixtures: [(&str, Arc<Schema>, SourceValues); 2] = [
        ("chain", chain_schema, chain_sv),
        (
            "fan-out",
            Arc::clone(&fanout.schema),
            fanout.sources.clone(),
        ),
    ];
    for (name, schema, sv) in &fixtures {
        for strategy in Strategy::all_at(100) {
            let server_a = EngineServer::builder()
                .shards(1)
                .workers_per_shard(1)
                .strategy(strategy)
                .build()
                .unwrap();
            let server_b = EngineServer::builder()
                .shards(1)
                .workers_per_shard(1)
                .strategy(strategy)
                .build()
                .unwrap();
            server_a.register("f", Arc::clone(schema));
            server_b.register("f", Arc::clone(schema));

            let submit = |server: &EngineServer| {
                server
                    .submit(Request::named("f").sources(sv.clone()).record_journal(true))
                    .unwrap()
                    .wait()
                    .unwrap()
            };
            let mut result_a = submit(&server_a);
            let mut result_b = submit(&server_b);
            let journal_a = result_a.journal.take().expect("journal requested");
            let journal_b = result_b.journal.take().expect("journal requested");
            assert_eq!(result_a.record, result_b.record, "{name} {strategy} record");
            assert_eq!(journal_a, journal_b, "{name} {strategy} journal");
            assert_eq!(
                journal_a.to_json(),
                journal_b.to_json(),
                "{name} {strategy} byte-identical serialization"
            );

            // And the journal replays to the same record.
            let replayed = ReplayEngine::new(Arc::clone(schema), journal_a)
                .unwrap()
                .replay()
                .unwrap_or_else(|d| panic!("{name} {strategy}: {d}"));
            assert_eq!(replayed.record, result_a.record, "{name} {strategy} replay");
        }
    }
}

/// Server path, semantics: on fan-out generated flows the completion
/// *delivery order* is scheduling noise (recorded on the tape, not
/// derived from it), so the claim is semantic — every recorded
/// submission agrees with the declarative oracle on every target, and
/// its journal replays to its own record exactly — for all 8
/// strategies.
#[test]
fn recorded_submissions_agree_with_oracle_on_fanout_flows() {
    let flow = flow(41_002);
    let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
    let check = |record: &decision_flows::decisionflow::report::ExecutionRecord, tag: &str| {
        for &t in flow.schema.targets() {
            let name = &flow.schema.attr(t).name;
            let out = record.outcome(name).expect("target present");
            match snap.state(t) {
                FinalState::Value => {
                    assert_eq!(out.value.as_ref(), Some(snap.value(t)), "{tag} {name}")
                }
                FinalState::Disabled => {
                    assert_eq!(out.state, AttrState::Disabled, "{tag} {name}")
                }
            }
        }
    };
    for strategy in Strategy::all_at(100) {
        let server = EngineServer::builder()
            .shards(1)
            .workers_per_shard(2)
            .strategy(strategy)
            .build()
            .unwrap();
        server.register("f", Arc::clone(&flow.schema));

        // Two concurrent-pool submissions: delivery order may differ,
        // semantics may not.
        for round in 0..2 {
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
            check(&result.record, "request");
            let replayed = ReplayEngine::new(Arc::clone(&flow.schema), journal)
                .unwrap()
                .replay()
                .unwrap_or_else(|d| panic!("{strategy} round {round}: {d}"));
            assert_eq!(
                replayed.record, result.record,
                "{strategy} round {round} replay"
            );
        }
    }
}

/// A *recorded batch* — the capability PR 2 lacked — yields journals
/// identical to recorded one-by-one submission, on a fan-out flow
/// (the single-outstanding-task restriction is gone: per-instance job
/// order on a 1-worker shard is deterministic even when batch-mates
/// interleave in the same queue).
#[test]
fn recorded_batch_equals_recorded_singles() {
    let fanout = flow(41_003);
    let (schema, sv) = (Arc::clone(&fanout.schema), fanout.sources.clone());
    let strategy: Strategy = "PSE100".parse().unwrap();
    let singles = EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .strategy(strategy)
        .build()
        .unwrap();
    let batched = EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .strategy(strategy)
        .build()
        .unwrap();
    singles.register("flow0", Arc::clone(&schema));
    batched.register("flow0", Arc::clone(&schema));
    let request = |_i: usize| {
        Request::named("flow0")
            .sources(sv.clone())
            .record_journal(true)
    };

    let single_journals: Vec<Journal> = (0..9)
        .map(|i| {
            singles
                .submit(request(i))
                .unwrap()
                .wait()
                .unwrap()
                .journal
                .expect("journal requested")
        })
        .collect();
    let batch_tickets = batched.submit_many((0..9).map(request)).unwrap();
    let batch_journals: Vec<Journal> = batch_tickets
        .into_iter()
        .map(|t| t.wait().unwrap().journal.expect("journal requested"))
        .collect();
    assert_eq!(single_journals.len(), batch_journals.len());
    for (i, (s, b)) in single_journals
        .iter()
        .zip(&batch_journals)
        .collect::<Vec<_>>()
        .into_iter()
        .enumerate()
    {
        assert_eq!(s, b, "instance {i}: recorded batch ≡ recorded single");
    }

    // Tuple submissions (the `Into<Request>` form that replaced the
    // old batch shim) execute to the same record.
    let tuple_record = singles
        .submit(("flow0", sv.clone()))
        .unwrap()
        .wait()
        .unwrap()
        .record;
    let request_record = batched
        .submit(Request::named("flow0").sources(sv.clone()))
        .unwrap()
        .wait()
        .unwrap()
        .record;
    assert_eq!(tuple_record, request_record);
}

/// `wait_timeout` under a saturated pool: a single worker busy with a
/// long task cannot finish the queued instance inside a short timeout;
/// the ticket reports `Ok(None)` (still pending) and delivers later.
#[test]
fn wait_timeout_under_saturated_pool() {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr(
        "t",
        Task::query(1, |ins: &[Value]| {
            std::thread::sleep(Duration::from_millis(150));
            ins[0].clone()
        }),
        vec![s],
        Expr::Lit(true),
    );
    b.mark_target(t);
    let schema = Arc::new(b.build().unwrap());
    let server = EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .strategy("PCE100".parse().unwrap())
        .build()
        .unwrap();
    server.register("slow", Arc::clone(&schema));

    let mut sv = SourceValues::new();
    sv.set(s, 1i64);
    let first = server.submit(("slow", sv.clone())).unwrap();
    let second = server.submit(("slow", sv.clone())).unwrap();
    let third = server
        .submit(
            Request::named("slow")
                .sources(sv)
                .deadline(Duration::from_millis(10)),
        )
        .unwrap();

    // The lone worker is busy for ≥150ms on `first`; `second` cannot
    // complete within 10ms, so the timed wait must report pending.
    assert_eq!(
        second
            .wait_timeout(Duration::from_millis(10))
            .map(|r| r.is_none()),
        Ok(true),
        "saturated pool: timed wait must expire with Ok(None)"
    );
    // `third` carries its own 10ms budget from the request; with the
    // pool still saturated, waiting out that deadline expires the
    // same way.
    assert_eq!(
        third
            .wait_deadline(third.deadline().unwrap())
            .map(|r| r.is_none()),
        Ok(true),
        "request deadline bounds the wait"
    );
    // All three still deliver; the tickets survived the expired waits.
    assert!(first.wait().unwrap().record.outcome("t").is_some());
    let r = second
        .wait_timeout(Duration::from_secs(30))
        .unwrap()
        .expect("second instance completes once the worker frees up");
    assert!(r.record.outcome("t").is_some());
    assert!(third.wait().unwrap().record.outcome("t").is_some());
}

/// `ServerEvents` reconcile with `ServerStats` under a multi-shard
/// load that includes abandoned instances: event counts equal gauge
/// counters, clocks are per-shard strictly increasing and unique
/// server-wide, and every Submitted has a matching terminal event.
#[test]
fn events_reconcile_with_stats_under_multi_shard_load() {
    let flows: Vec<GeneratedFlow> = (0..4).map(|i| flow(41_200 + i)).collect();
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr(
        "t",
        Task::query(1, |_ins: &[Value]| panic!("doomed instance")),
        vec![s],
        Expr::Lit(true),
    );
    b.mark_target(t);
    let doomed = Arc::new(b.build().unwrap());

    let server = EngineServer::builder()
        .shards(4)
        .workers_per_shard(1)
        .strategy("PSE100".parse().unwrap())
        .build()
        .unwrap();
    for (i, f) in flows.iter().enumerate() {
        server.register(format!("flow{i}"), Arc::clone(&f.schema));
    }
    server.register("doomed", Arc::clone(&doomed));
    let events = server.subscribe();

    let mut tickets = Vec::new();
    let mut doomed_ids = Vec::new();
    for i in 0..40usize {
        let f = &flows[i % flows.len()];
        tickets.push(
            server
                .submit((format!("flow{}", i % flows.len()), f.sources.clone()))
                .unwrap(),
        );
    }
    for _ in 0..4 {
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        let ticket = server.submit(("doomed", sv)).unwrap();
        doomed_ids.push(ticket.instance_id());
        assert_eq!(ticket.wait().map(|_| ()), Err(ServerGone));
    }
    let mut shards_seen = std::collections::HashSet::new();
    for t in tickets {
        shards_seen.insert(t.wait().unwrap().shard);
    }
    assert!(shards_seen.len() >= 2, "load must spread across shards");

    let stats = server.stats();
    let (mut submitted, mut completed, mut abandoned) = (0u64, 0u64, 0u64);
    let mut submitted_ids = std::collections::HashSet::new();
    let mut terminal_ids = std::collections::HashSet::new();
    // Events merge per-shard lanes: clocks are strictly increasing
    // within a lane and unique server-wide, with no cross-lane order.
    let mut last_clock: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut all_clocks = std::collections::HashSet::new();
    while let Some(ev) = events.try_recv().unwrap() {
        if let Some(&prev) = last_clock.get(&ev.shard()) {
            assert!(ev.clock() > prev, "per-shard clocks strictly increase");
        }
        last_clock.insert(ev.shard(), ev.clock());
        assert!(all_clocks.insert(ev.clock()), "clocks unique server-wide");
        match ev {
            InstanceEvent::Submitted { instance_id, .. } => {
                submitted += 1;
                submitted_ids.insert(instance_id);
            }
            InstanceEvent::Completed { instance_id, .. } => {
                completed += 1;
                terminal_ids.insert(instance_id);
            }
            InstanceEvent::Abandoned { instance_id, .. } => {
                abandoned += 1;
                terminal_ids.insert(instance_id);
                assert!(doomed_ids.contains(&instance_id), "only doomed abandon");
            }
        }
    }
    assert_eq!(events.dropped(), 0, "capacity covered the whole run");
    assert_eq!(submitted, stats.submitted(), "Submitted events ≡ gauges");
    assert_eq!(completed, stats.completed(), "Completed events ≡ gauges");
    assert_eq!(abandoned, stats.abandoned(), "Abandoned events ≡ gauges");
    assert_eq!(submitted, 44);
    assert_eq!(completed, 40);
    assert_eq!(abandoned, 4);
    assert_eq!(
        submitted_ids, terminal_ids,
        "every submission reached exactly one terminal event"
    );
    assert_eq!(stats.in_flight(), 0);
    assert!(server.live_instances().is_empty());
}

/// The live-instance table exposes named fields (instance id, shard,
/// schema display name), not an anonymous tuple.
#[test]
fn live_instances_are_named_structs() {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr(
        "t",
        Task::query(1, |ins: &[Value]| {
            std::thread::sleep(Duration::from_millis(100));
            ins[0].clone()
        }),
        vec![s],
        Expr::Lit(true),
    );
    b.mark_target(t);
    let schema = Arc::new(b.build().unwrap());
    let server = EngineServer::builder()
        .shards(2)
        .workers_per_shard(1)
        .strategy("PCE0".parse().unwrap())
        .build()
        .unwrap();
    server.register("slow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(s, 7i64);
    let ticket = server.submit(("slow", sv)).unwrap();
    let live: Vec<LiveInstance> = server.live_instances();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].instance_id, ticket.instance_id());
    assert_eq!(live[0].shard, ticket.shard());
    assert_eq!(live[0].schema, "slow");
    ticket.wait().unwrap();
    assert!(server.live_instances().is_empty());
}
