//! The server's unit tests: `server::tests`, one file for every
//! concern of the module, because they drive it end to end.
#![cfg(test)]

use std::sync::atomic::AtomicU32;

use super::*;
use crate::expr::{CmpOp, Expr};
use crate::journal::schema_fingerprint;
use crate::schema::SchemaBuilder;
use crate::snapshot::{complete_snapshot, SourceValues};
use crate::state::AttrState;
use crate::statestore::DeltaError;
use crate::store::StoreEvent;
use crate::task::Task;
use crate::value::Value;

/// Fan-out/fan-in schema with a gated branch; task bodies sleep a
/// little so true concurrency is exercised.
fn slow_schema(sleep_us: u64) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let mut mids = Vec::new();
    for i in 0..6 {
        let m = b.attr(
            format!("m{i}"),
            Task::query(1, move |ins: &[Value]| {
                std::thread::sleep(std::time::Duration::from_micros(sleep_us));
                Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 + i)
            }),
            vec![s],
            if i % 2 == 0 {
                Expr::Lit(true)
            } else {
                Expr::cmp_const(s, CmpOp::Gt, 50i64)
            },
        );
        mids.push(m);
    }
    let t = b.synthesis("t", mids, Expr::Lit(true), |ins| {
        Value::Int(ins.iter().filter_map(Value::as_f64).map(|f| f as i64).sum())
    });
    b.mark_target(t);
    Arc::new(b.build().unwrap())
}

/// A schema whose single task panics, abandoning the instance.
fn doomed_schema() -> (Arc<Schema>, AttrId) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr(
        "t",
        Task::query(1, |_ins: &[Value]| panic!("task body exploded")),
        vec![s],
        Expr::Lit(true),
    );
    b.mark_target(t);
    (Arc::new(b.build().unwrap()), s)
}

/// A buildable schema with a statically-dead target (DF001 Error).
fn dead_target_schema() -> (Arc<Schema>, AttrId) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.synthesis("t", vec![s], Expr::Lit(false), |v| v[0].clone());
    b.mark_target(t);
    (Arc::new(b.build().unwrap()), s)
}

/// Builder shorthand: one shard of `workers` threads.
fn server(workers: usize, strategy: &str) -> EngineServer {
    EngineServer::builder()
        .shards(1)
        .workers_per_shard(workers)
        .strategy(strategy.parse().unwrap())
        .build()
        .unwrap()
}

/// Builder shorthand: explicit `shards` × `workers_per_shard` layout.
fn sharded(shards: usize, wps: usize, strategy: &str) -> EngineServer {
    EngineServer::builder()
        .shards(shards)
        .workers_per_shard(wps)
        .strategy(strategy.parse().unwrap())
        .build()
        .unwrap()
}

/// Builder shorthand: one 1-worker shard with a 64-entry memo table.
fn memoized_server() -> EngineServer {
    EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .strategy("PSE100".parse().unwrap())
        .memoize(64)
        .build()
        .unwrap()
}

#[test]
fn register_checked_gates_on_analysis_errors() {
    let server = server(1, "PSE100");

    let report = server
        .register_checked("ok", slow_schema(0))
        .expect("clean schema registers");
    assert!(!report.has_errors());
    assert!(server.schema_names().contains(&"ok".to_string()));

    let (dead, _) = dead_target_schema();
    let rejected = server.register_checked("dead", dead).unwrap_err();
    assert!(rejected.report.has_errors());
    assert!(rejected.to_string().contains("DF001"));
    assert!(
        !server.schema_names().contains(&"dead".to_string()),
        "rejected schema must not enter the registry"
    );
}

#[test]
fn single_instance_completes_and_matches_oracle() {
    let schema = slow_schema(50);
    let server = server(4, "PSE100");
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let snap = complete_snapshot(&schema, &sv).unwrap();
    let ticket = server.submit(Request::named("flow").sources(sv)).unwrap();
    let id = ticket.instance_id();
    let result = ticket.wait().unwrap();
    let t = result.record.outcome("t").unwrap();
    assert_eq!(t.state, AttrState::Value);
    assert_eq!(
        t.value.as_ref(),
        Some(snap.value(schema.lookup("t").unwrap()))
    );
    assert!(result.shard < server.shard_count());
    assert_eq!(result.instance_id, id);
    assert_eq!(result.label, None);
    assert!(result.journal.is_none(), "no journal unless requested");
}

#[test]
fn inline_schema_submission_needs_no_registry() {
    let schema = slow_schema(5);
    let server = server(2, "PCE100");
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let snap = complete_snapshot(&schema, &sv).unwrap();
    let r = server
        .submit(
            Request::with_schema(Arc::clone(&schema))
                .sources(sv)
                .label("adhoc"),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        r.record.outcome("t").unwrap().value.as_ref(),
        Some(snap.value(schema.lookup("t").unwrap()))
    );
    assert_eq!(r.label.as_deref(), Some("adhoc"));
    assert!(server.schema_names().is_empty(), "nothing was registered");
}

#[test]
fn per_request_strategy_overrides_server_default() {
    let schema = slow_schema(5);
    // Server default is conservative-sequential; the request runs
    // speculative-parallel and the journal proves which one ran.
    let server = server(2, "PCE0");
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let r = server
        .submit(
            Request::named("flow")
                .sources(sv)
                .strategy("PSE100".parse().unwrap())
                .record_journal(true),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.journal.expect("recorded").strategy, "PSE100");
}

#[test]
fn many_concurrent_instances_all_correct() {
    let schema = slow_schema(20);
    let server = server(8, "PSE100");
    server.register("flow", Arc::clone(&schema));
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for i in 0..40i64 {
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), i * 5);
        let snap = complete_snapshot(&schema, &sv).unwrap();
        expected.push(snap.value(schema.lookup("t").unwrap()).clone());
        // Tuples convert into plain named requests.
        tickets.push(server.submit(("flow", sv)).unwrap());
    }
    for (t, exp) in tickets.into_iter().zip(expected) {
        let r = t.wait().unwrap();
        assert_eq!(r.record.outcome("t").unwrap().value.as_ref(), Some(&exp));
    }
    let stats = server.stats();
    assert_eq!(stats.completed(), 40);
    assert_eq!(stats.in_flight(), 0);
    assert!(server.live_instances().is_empty());
}

#[test]
fn batch_submission_matches_one_by_one() {
    let schema = slow_schema(10);
    let budget = Duration::from_secs(30);
    let sources: Vec<SourceValues> = (0..24i64)
        .map(|i| {
            let mut sv = SourceValues::new();
            sv.set(schema.lookup("s").unwrap(), i * 9);
            sv
        })
        .collect();
    let request = |sv: &SourceValues| {
        Request::named("flow")
            .sources(sv.clone())
            .deadline(budget)
            .durable(true)
    };
    let dir = std::env::temp_dir().join(format!("dflow-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = EngineServer::builder()
        .shards(4)
        .workers_per_shard(2)
        .strategy("PCE100".parse().unwrap())
        .durable(&dir)
        .build()
        .unwrap();
    server.register("flow", Arc::clone(&schema));
    let events = server.subscribe();

    // The reference: 24 requests, one `submit` at a time. The same
    // 24 as one batch must continue that id and shard sequence.
    let singles: Vec<Ticket> = sources
        .iter()
        .map(|sv| server.submit(request(sv)).unwrap())
        .collect();
    let entry = Instant::now();
    let tickets = server.submit_many(sources.iter().map(request)).unwrap();
    let returned = Instant::now();
    assert_eq!(tickets.len(), 24);
    for (single, batched) in singles.iter().zip(tickets.iter()) {
        assert_eq!(batched.instance_id(), single.instance_id() + 24);
        assert_eq!(batched.shard(), single.shard());
        // The budget runs from entry into the call, for every member.
        let zero = batched.deadline().expect("budgeted") - budget;
        assert!(entry <= zero && zero <= returned, "deadline zero point");
    }
    for (t, sv) in tickets.into_iter().zip(&sources) {
        let snap = complete_snapshot(&schema, sv).unwrap();
        let r = t.wait().unwrap();
        assert_eq!(
            r.record.outcome("t").unwrap().value.as_ref(),
            Some(snap.value(schema.lookup("t").unwrap()))
        );
    }
    for t in singles {
        t.wait().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.submitted(), 48);
    assert_eq!(stats.completed(), 48);
    assert!(stats.shards_used() >= 2, "batch must spread across shards");

    // Per lane, every Completed follows its own Submitted.
    let mut submitted = std::collections::HashSet::new();
    let mut completed = 0;
    while let Ok(Some(ev)) = events.try_recv() {
        let id = ev.instance_id();
        match ev {
            InstanceEvent::Submitted { .. } => assert!(submitted.insert(id), "one each"),
            InstanceEvent::Completed { .. } => {
                assert!(submitted.contains(&id), "Submitted first");
                completed += 1;
            }
            InstanceEvent::Abandoned { .. } => panic!("nothing abandons"),
        }
    }
    assert_eq!((submitted.len(), completed), (48, 48));

    // On disk, every instance's accept record precedes its frames.
    drop(server);
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let mut accepted = std::collections::HashSet::new();
    let mut frames = 0;
    for path in segments {
        let (records, defect) = crate::store::wal::scan_segment(&std::fs::read(path).unwrap());
        assert!(defect.is_none(), "clean shutdown");
        for record in records {
            let text = std::str::from_utf8(&record.payload).unwrap();
            match serde::json::from_str::<StoreEvent>(text).unwrap() {
                StoreEvent::RequestAccepted { request } => {
                    accepted.insert(request.instance_id);
                }
                StoreEvent::FrameAppended { instance_id, .. } => {
                    assert!(accepted.contains(&instance_id), "accept precedes frames");
                    frames += 1;
                }
                _ => {}
            }
        }
    }
    assert_eq!(accepted.len(), 48);
    assert!(frames > 0, "durable instances leave frames");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_is_all_or_nothing() {
    let schema = slow_schema(1);
    let server = sharded(2, 1, "PCE0");
    server.register("flow", Arc::clone(&schema));
    let mut good = SourceValues::new();
    good.set(schema.lookup("s").unwrap(), 5i64);
    let batch = vec![
        ("flow", good.clone()),
        ("ghost", good.clone()),
        ("flow", good),
    ];
    let err = server.submit_many(batch).unwrap_err();
    assert_eq!(err, SubmitError::UnknownSchema("ghost".into()));
    // Nothing started: the gauges saw no submission.
    assert_eq!(server.stats().submitted(), 0);
    assert!(server.live_instances().is_empty());
    // An empty batch is a no-op.
    assert!(server
        .submit_many(Vec::<Request>::new())
        .unwrap()
        .is_empty());
}

#[test]
fn disabled_target_completes_immediately() {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr(
        "t",
        Task::const_query(1, 1i64),
        vec![],
        Expr::cmp_const(s, CmpOp::Gt, 100i64),
    );
    b.mark_target(t);
    let schema = Arc::new(b.build().unwrap());
    let server = server(2, "PCE0");
    server.register("gated", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(s, 1i64);
    let r = server.submit(("gated", sv)).unwrap().wait().unwrap();
    assert_eq!(r.record.outcome("t").unwrap().state, AttrState::Disabled);
    assert_eq!(r.record.metrics.work, 0);
}

#[test]
fn unknown_schema_rejected() {
    let server = server(1, "PCE0");
    assert_eq!(
        server
            .submit(Request::named("ghost"))
            .map(|_| ())
            .unwrap_err(),
        SubmitError::UnknownSchema("ghost".into())
    );
    assert!(server.schema_names().is_empty());
}

#[test]
fn bad_sources_rejected() {
    let schema = slow_schema(1);
    let server = server(1, "PCE0");
    server.register("flow", schema);
    let err = server
        .submit(Request::named("flow"))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, SubmitError::Sources(_)));
}

#[test]
fn strategies_differ_but_agree_on_semantics() {
    let schema = slow_schema(10);
    for strat in ["PCE0", "NCE100", "PSC40"] {
        let server = server(4, strat);
        server.register("flow", Arc::clone(&schema));
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 10i64);
        let snap = complete_snapshot(&schema, &sv).unwrap();
        let r = server.submit(("flow", sv)).unwrap().wait().unwrap();
        assert_eq!(
            r.record.outcome("t").unwrap().value.as_ref(),
            Some(snap.value(schema.lookup("t").unwrap())),
            "strategy {strat}"
        );
    }
}

#[test]
fn recorded_server_run_replays_deterministically() {
    use crate::journal::ReplayEngine;
    let schema = slow_schema(20);
    let server = server(4, "PSE100");
    server.register("flow", Arc::clone(&schema));
    for i in 0..6i64 {
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), i * 25);
        let snap = complete_snapshot(&schema, &sv).unwrap();
        let result = server
            .submit(Request::named("flow").sources(sv).record_journal(true))
            .unwrap()
            .wait()
            .unwrap();
        let journal = result.journal.clone().expect("journal requested");
        // The journal replays the concurrent run single-threaded,
        // landing on the identical record.
        let replayed = ReplayEngine::new(Arc::clone(&schema), journal.clone())
            .unwrap()
            .replay()
            .unwrap_or_else(|d| panic!("instance {i}: {d}"));
        assert_eq!(replayed.record, result.record, "instance {i}");
        assert_eq!(replayed.journal, journal, "instance {i}");
        assert!(replayed.runtime.agrees_with(&snap), "instance {i}");
        // And the journal survives a serialization round trip.
        let json = journal.to_json();
        assert_eq!(crate::journal::Journal::from_json(&json).unwrap(), journal);
    }
}

#[test]
fn wait_reports_server_gone_instead_of_panicking() {
    // A panicking task abandons its instance: the result can never
    // arrive, and the waiting caller must get an error, not hang.
    let (schema, s) = doomed_schema();
    let server = server(1, "PCE0");
    server.register("doomed", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(s, 1i64);
    let ticket = server.submit(("doomed", sv)).unwrap();
    assert_eq!(ticket.wait().map(|_| ()), Err(ServerGone));
}

#[test]
fn panicking_task_abandons_instance_but_shard_survives() {
    // A panicking task must cost exactly its own instance
    // (ServerGone), never the worker thread: with a single
    // 1-worker shard, a dead worker would wedge or panic every
    // later submission, so prove the shard keeps serving.
    let (doomed, s) = doomed_schema();
    let good = slow_schema(1);
    let server = sharded(1, 1, "PCE0");
    server.register("doomed", Arc::clone(&doomed));
    server.register("good", Arc::clone(&good));
    for round in 0..3 {
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        assert_eq!(
            server.submit(("doomed", sv)).unwrap().wait().map(|_| ()),
            Err(ServerGone),
            "round {round}"
        );
        // The same lone worker still completes healthy instances.
        let mut sv = SourceValues::new();
        sv.set(good.lookup("s").unwrap(), 80i64);
        let r = server.submit(("good", sv)).unwrap().wait().unwrap();
        assert!(r.record.outcome("t").is_some(), "round {round}");
    }
    let stats = server.stats();
    assert_eq!(stats.abandoned(), 3, "each panic lost one instance");
    assert_eq!(stats.completed(), 3);
    assert_eq!(stats.in_flight(), 0);
    assert!(server.live_instances().is_empty());
}

#[test]
fn try_wait_distinguishes_pending_from_server_gone() {
    // Pending: a live instance polls as Ok(None), never Err.
    let schema = slow_schema(200);
    let server = server(2, "PCE100");
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let ticket = server.submit(("flow", sv)).unwrap();
    let mut result = None;
    for _ in 0..10_000 {
        match ticket.try_wait() {
            Ok(Some(r)) => {
                result = Some(r);
                break;
            }
            Ok(None) => std::thread::sleep(Duration::from_micros(50)),
            Err(gone) => panic!("live server reported {gone}"),
        }
    }
    assert!(result.is_some(), "instance must complete while polling");

    // Abandoned instance: the poller gets Err(ServerGone), not an
    // indistinguishable "not ready yet".
    let (schema, s) = doomed_schema();
    let server = self::server(1, "PCE0");
    server.register("doomed", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(s, 1i64);
    let ticket = server.submit(("doomed", sv)).unwrap();
    let gone = loop {
        match ticket.try_wait() {
            Ok(Some(_)) => panic!("doomed instance cannot complete"),
            Ok(None) => std::thread::sleep(Duration::from_micros(50)),
            Err(gone) => break gone,
        }
    };
    assert_eq!(gone, ServerGone);
}

#[test]
fn wait_timeout_and_deadline_report_pending_then_deliver() {
    let schema = slow_schema(500);
    let server = sharded(1, 1, "PCE0");
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let ticket = server
        .submit(
            Request::named("flow")
                .sources(sv)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(ticket.deadline().is_some(), "request deadline carried over");
    // A deadline already in the past times out without delivering —
    // unless the instance already finished and queued its result,
    // which timed receives deliver even past the deadline. Both
    // outcomes respect the contract; only a hang or error doesn't.
    if let Some(r) = ticket.wait_deadline(Instant::now()).unwrap() {
        assert!(r.record.outcome("t").is_some());
        return; // result consumed; nothing left to wait for
    }
    // A tiny timeout expires while the instance still runs…
    let first = ticket.wait_timeout(Duration::from_micros(1)).unwrap();
    // (the instance may legitimately have finished already on a
    // fast machine; both outcomes respect the contract)
    if first.is_none() {
        // …and a generous one delivers.
        let r = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
        assert!(r.is_some(), "instance must complete within 30s");
    }
}

#[test]
fn deadline_exceeded_flags_late_completions_only() {
    let schema = slow_schema(0);
    let server = sharded(1, 1, "PCE100");
    server.register("flow", Arc::clone(&schema));

    // Generous budget: completes comfortably inside the deadline.
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let r = server
        .submit(
            Request::named("flow")
                .sources(sv.clone())
                .deadline(Duration::from_secs(120)),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert!(!r.deadline_exceeded, "in-budget completion is not late");

    // No deadline at all: never flagged.
    let r = server
        .submit(Request::named("flow").sources(sv.clone()))
        .unwrap()
        .wait()
        .unwrap();
    assert!(!r.deadline_exceeded);

    // A zero budget has expired by the time the instance
    // stabilizes, so the completion is flagged late — but still
    // delivered in full (late drops are an accounting outcome, not
    // a cancellation).
    let r = server
        .submit(Request::named("flow").sources(sv).deadline(Duration::ZERO))
        .unwrap()
        .wait()
        .unwrap();
    assert!(r.deadline_exceeded, "expired budget must flag the result");
    assert!(r.record.outcome("t").is_some(), "result still complete");
}

#[test]
fn dropped_ticket_does_not_wedge_server() {
    let schema = slow_schema(10);
    let server = server(2, "PCE100");
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 10i64);
    drop(server.submit(("flow", sv)).unwrap()); // ticket dropped
                                                // Server still works for the next instance.
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 10i64);
    let r = server.submit(("flow", sv)).unwrap().wait().unwrap();
    assert!(r.record.outcome("t").is_some());
}

#[test]
fn routing_spreads_instances_over_shards() {
    let server = sharded(4, 1, "PCE0");
    assert_eq!(server.shard_count(), 4);
    assert_eq!(server.worker_count(), 4);
    // Ids name their owning shard: id mod N.
    for id in 0..64u64 {
        assert_eq!(server.shard_for(id).index, (id % 4) as usize);
    }
    // Ids are the submission order, so sequential submissions land on
    // consecutive shards.
    let schema = slow_schema(0);
    server.register("flow", Arc::clone(&schema));
    let mut seen = std::collections::HashSet::new();
    for _ in 0..8 {
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 80i64);
        let t = server.submit(("flow", sv)).unwrap();
        seen.insert(t.shard());
        t.wait().unwrap();
    }
    assert_eq!(seen.len(), 4, "8 sequential submissions hit every shard");
}

/// The i-th *admitted* instance of a fresh server has id i and runs on
/// shard i mod N, however it was submitted; a rejected request or
/// batch consumes no id and shifts nobody.
#[test]
fn ids_are_the_submission_order() {
    const N: usize = 4;
    let schema = slow_schema(0);
    let server = sharded(N, 1, "PCE0");
    server.register("flow", Arc::clone(&schema));
    let request = |name: &'static str| {
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 80i64);
        Request::named(name).sources(sv)
    };
    let mut tickets = vec![
        server.submit(request("flow")).unwrap(),
        server.submit(request("flow")).unwrap(),
    ];
    tickets.extend(server.submit_many((0..4).map(|_| request("flow"))).unwrap());
    assert_eq!(
        server.submit(request("ghost")).unwrap_err(),
        SubmitError::UnknownSchema("ghost".into())
    );
    server
        .submit_many([request("flow"), request("ghost")])
        .unwrap_err();
    tickets.push(server.submit(request("flow")).unwrap());
    tickets.extend(server.submit_many((0..5).map(|_| request("flow"))).unwrap());
    assert_eq!(tickets.len(), 12);
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.instance_id(), i as u64);
        assert_eq!(ticket.shard(), i % N);
        let r = ticket.wait().unwrap();
        assert_eq!((r.instance_id, r.shard), (i as u64, i % N));
    }
    assert_eq!(server.stats().submitted(), 12);
}

/// No existing test re-registers a name: the replacement must reach
/// submissions on every shard, and the registry must list it once.
#[test]
fn reregistering_a_name_replaces_it_on_every_shard() {
    let server = sharded(4, 1, "PCE0");
    for c in [1i64, 2] {
        let (schema, sv) = const_flow(c);
        server.register("flow", schema);
        let mut shards = std::collections::HashSet::new();
        for _ in 0..8 {
            let r = server.submit(("flow", sv.clone())).unwrap().wait().unwrap();
            assert_eq!(r.record.outcome("t").unwrap().value, Some(Value::Int(c)));
            shards.insert(r.shard);
        }
        assert_eq!(shards.len(), 4, "version {c} served on every shard");
    }
    assert_eq!(server.schema_names(), ["flow"]);
}

/// A `register` racing `submit_many` can never split a batch between
/// two versions of one name: the batch resolves every request under
/// one read guard on the one registry.
#[test]
fn a_batch_sees_one_version_of_a_reregistered_name() {
    let server = sharded(4, 1, "PCE0");
    let flows = [const_flow(1), const_flow(2)];
    let sv = flows[0].1.clone();
    server.register("flow", Arc::clone(&flows[0].0));
    // Dropped when the submitting loop ends — or unwinds on a failed
    // assertion, so the scope never waits on a thread left spinning.
    let (done, running) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let (server, flows) = (&server, &flows);
        scope.spawn(move || {
            for (schema, _) in flows.iter().cycle() {
                if running.try_recv() != Err(std::sync::mpsc::TryRecvError::Empty) {
                    break;
                }
                server.register("flow", Arc::clone(schema));
            }
        });
        let _done = done;
        for _ in 0..300 {
            let values: Vec<Option<Value>> = server
                .submit_many((0..8).map(|_| ("flow", sv.clone())))
                .unwrap()
                .wait_all()
                .into_iter()
                .map(|r| r.unwrap().record.outcome("t").unwrap().value.clone())
                .collect();
            assert!(
                values.windows(2).all(|w| w[0] == w[1]),
                "one batch, two versions: {values:?}"
            );
        }
    });
}

#[test]
fn live_instances_report_id_shard_and_name() {
    let schema = slow_schema(20_000);
    let server = sharded(2, 1, "PCE0");
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let ticket = server
        .submit(Request::named("flow").sources(sv).label("slowpoke"))
        .unwrap();
    let live = server.live_instances();
    assert_eq!(live.len(), 1);
    assert_eq!(
        live[0],
        LiveInstance {
            instance_id: ticket.instance_id(),
            shard: ticket.shard(),
            // The label tags results and events, but the live
            // table keys on the registered schema name.
            schema: "flow".into(),
        }
    );
    ticket.wait().unwrap();
    assert!(server.live_instances().is_empty());
}

#[test]
fn events_track_submission_completion_and_abandonment() {
    let good = slow_schema(10);
    let (doomed, s) = doomed_schema();
    let server = sharded(2, 1, "PCE100");
    server.register("good", Arc::clone(&good));
    server.register("doomed", Arc::clone(&doomed));
    let events = server.subscribe();

    let mut sv = SourceValues::new();
    sv.set(good.lookup("s").unwrap(), 80i64);
    let t1 = server
        .submit(Request::named("good").sources(sv).label("one"))
        .unwrap();
    let mut sv = SourceValues::new();
    sv.set(s, 1i64);
    let t2 = server.submit(("doomed", sv)).unwrap();
    let id1 = t1.instance_id();
    let id2 = t2.instance_id();
    t1.wait().unwrap();
    assert_eq!(t2.wait().map(|_| ()), Err(ServerGone));

    // The merged stream interleaves per-shard lanes in arbitrary
    // order; the contract is per-shard: clocks strictly increase
    // within a lane, and an instance's Submitted precedes its
    // terminal event on the same lane.
    let mut submitted = Vec::new();
    let mut completed = Vec::new();
    let mut abandoned = Vec::new();
    let mut last_clock: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut lane_seen: std::collections::HashMap<usize, Vec<u64>> =
        std::collections::HashMap::new();
    while let Some(ev) = events.try_recv().unwrap() {
        if let Some(&prev) = last_clock.get(&ev.shard()) {
            assert!(ev.clock() > prev, "per-shard clock strictly increases");
        }
        last_clock.insert(ev.shard(), ev.clock());
        match ev {
            InstanceEvent::Submitted {
                instance_id,
                label,
                shard,
                ..
            } => {
                lane_seen.entry(shard).or_default().push(instance_id);
                submitted.push((instance_id, label));
            }
            InstanceEvent::Completed {
                instance_id, shard, ..
            } => {
                assert!(
                    lane_seen
                        .get(&shard)
                        .is_some_and(|v| v.contains(&instance_id)),
                    "Submitted precedes Completed on the same lane"
                );
                completed.push(instance_id);
            }
            InstanceEvent::Abandoned {
                instance_id, shard, ..
            } => {
                assert!(
                    lane_seen
                        .get(&shard)
                        .is_some_and(|v| v.contains(&instance_id)),
                    "Submitted precedes Abandoned on the same lane"
                );
                abandoned.push(instance_id);
            }
        }
    }
    submitted.sort();
    let mut expected = vec![(id1, Some("one".to_string())), (id2, None)];
    expected.sort();
    assert_eq!(
        submitted, expected,
        "both submissions seen, labels attached"
    );
    assert_eq!(completed, vec![id1]);
    assert_eq!(abandoned, vec![id2]);
    assert_eq!(events.dropped(), 0);
}

#[test]
fn events_disconnect_when_server_drops() {
    let schema = slow_schema(1);
    let server = sharded(1, 1, "PCE0");
    server.register("flow", Arc::clone(&schema));
    let mut events = server.subscribe();
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    server.submit(("flow", sv)).unwrap().wait().unwrap();
    drop(server);
    // Buffered events still drain, then the stream reports gone.
    let drained: Vec<InstanceEvent> = events.by_ref().collect();
    assert_eq!(drained.len(), 2, "Submitted + Completed");
    assert_eq!(events.recv(), Err(ServerGone));
    assert_eq!(events.try_recv(), Err(ServerGone));
    assert_eq!(
        events.recv_timeout(Duration::from_millis(1)),
        Err(ServerGone)
    );
}

#[test]
fn a_stalled_subscriber_loses_events_and_wedges_nothing() {
    let schema = slow_schema(1);
    let server = EngineServer::builder()
        .shards(2)
        .strategy("PCE100".parse().unwrap())
        .event_capacity(1)
        .build()
        .unwrap();
    server.register("flow", Arc::clone(&schema));
    // Subscribed, never read: room for one event per shard.
    let events = server.subscribe();
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 80i64);
    let batch = server
        .submit_many((0..300).map(|_| ("flow", sv.clone())))
        .unwrap();
    for result in batch.wait_all() {
        assert!(result.unwrap().record.outcome("t").is_some());
    }
    let stats = server.stats();
    assert!(stats.accounts_exactly());
    assert_eq!((stats.completed(), stats.in_flight()), (300, 0));
    assert_eq!(events.dropped(), 600 - 2, "all but the buffered two");

    drop(server);
    assert!(events.recv().is_ok() && events.recv().is_ok());
    assert_eq!(events.recv(), Err(ServerGone));
}

/// Two independent arms into one target, with per-arm execution
/// counters so tests can assert exactly which task bodies ran.
fn counted_arm_schema() -> (Arc<Schema>, Arc<AtomicU32>, Arc<AtomicU32>) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let u = b.source("u");
    let a_runs = Arc::new(AtomicU32::new(0));
    let b_runs = Arc::new(AtomicU32::new(0));
    let ac = Arc::clone(&a_runs);
    let a = b.attr(
        "a",
        Task::query(1, move |ins: &[Value]| {
            ac.fetch_add(1, Ordering::Relaxed);
            Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 * 10)
        }),
        vec![s],
        Expr::Lit(true),
    );
    let bc = Arc::clone(&b_runs);
    let arm_b = b.attr(
        "b",
        Task::query(1, move |ins: &[Value]| {
            bc.fetch_add(1, Ordering::Relaxed);
            Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 + 1)
        }),
        vec![u],
        Expr::Lit(true),
    );
    let t = b.synthesis("t", vec![a, arm_b], Expr::Lit(true), |ins| {
        Value::Int(ins.iter().filter_map(Value::as_f64).map(|f| f as i64).sum())
    });
    b.mark_target(t);
    (Arc::new(b.build().unwrap()), a_runs, b_runs)
}

#[test]
fn labeled_completion_commits_snapshot_and_delta_reuses_unchanged_arm() {
    let server = sharded(1, 1, "PSE100");
    let (schema, a_runs, b_runs) = counted_arm_schema();
    server.register("flow", Arc::clone(&schema));
    let s = schema.lookup("s").unwrap();
    let u = schema.lookup("u").unwrap();

    let mut sv = SourceValues::new();
    sv.set(s, 4i64);
    sv.set(u, 7i64);
    let cold = server
        .submit(Request::named("flow").sources(sv).label("cust-1"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        cold.record.outcome("t").unwrap().value,
        Some(Value::Int(48))
    );
    assert_eq!(server.state_store().len(), 1, "labeled completion commits");
    assert_eq!(
        (
            a_runs.load(Ordering::Relaxed),
            b_runs.load(Ordering::Relaxed)
        ),
        (1, 1)
    );

    // Change only `u`: the `a` arm is outside the delta cone and is
    // spliced from the snapshot instead of re-executed.
    let mut sv = SourceValues::new();
    sv.set(s, 4i64);
    sv.set(u, 9i64);
    let warm = server
        .submit(
            Request::named("flow")
                .sources(sv)
                .label("cust-1")
                .delta_by_label(),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        warm.record.outcome("t").unwrap().value,
        Some(Value::Int(50))
    );
    assert_eq!(
        (
            a_runs.load(Ordering::Relaxed),
            b_runs.load(Ordering::Relaxed)
        ),
        (1, 2),
        "only the changed arm re-executes"
    );
    let tele = server.telemetry().snapshot();
    assert_eq!(tele.counter("delta_lookup_hits"), Some(1));
    assert!(tele.counter("delta_reused").unwrap_or(0) > 0);
    assert_eq!(
        server.state_store().len(),
        1,
        "recommit under the same label replaces, not accumulates"
    );
}

#[test]
fn explicit_delta_prior_is_validated_at_submit() {
    let server = server(2, "PSE100");
    let (schema, ..) = counted_arm_schema();
    server.register("flow", Arc::clone(&schema));
    let s = schema.lookup("s").unwrap();
    let u = schema.lookup("u").unwrap();
    let mut sv = SourceValues::new();
    sv.set(s, 1i64);
    sv.set(u, 2i64);
    server
        .submit(Request::named("flow").sources(sv).label("x"))
        .unwrap()
        .wait()
        .unwrap();
    let prior = server
        .state_store()
        .lookup(schema_fingerprint(&schema), "x")
        .expect("labeled completion commits");

    // The snapshot rides the request itself: same outcome as cold.
    let mut sv2 = SourceValues::new();
    sv2.set(s, 3i64);
    sv2.set(u, 2i64);
    let warm = server
        .submit(
            Request::named("flow")
                .sources(sv2)
                .delta(Arc::clone(&prior)),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        warm.record.outcome("t").unwrap().value,
        Some(Value::Int(33))
    );

    // A prior from a structurally different schema is a caller
    // bug: rejected synchronously, not silently run cold.
    let other = slow_schema(0);
    server.register("other", Arc::clone(&other));
    let mut osv = SourceValues::new();
    osv.set(other.lookup("s").unwrap(), 1i64);
    let err = server
        .submit(Request::named("other").sources(osv).delta(prior))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(
        err,
        SubmitError::Delta(DeltaError::SchemaMismatch { .. })
    ));
}

#[test]
fn delta_label_miss_degrades_to_cold_run() {
    let server = server(1, "PSE100");
    let (schema, a_runs, b_runs) = counted_arm_schema();
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 2i64);
    sv.set(schema.lookup("u").unwrap(), 5i64);
    let out = server
        .submit(
            Request::named("flow")
                .sources(sv)
                .label("never-seen")
                .delta_by_label(),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out.record.outcome("t").unwrap().value, Some(Value::Int(26)));
    assert_eq!(
        (
            a_runs.load(Ordering::Relaxed),
            b_runs.load(Ordering::Relaxed)
        ),
        (1, 1),
        "a miss is a plain cold run"
    );
    assert_eq!(
        server.telemetry().snapshot().counter("delta_lookup_misses"),
        Some(1)
    );
}

#[test]
fn memoized_server_computes_identical_work_once() {
    let server = memoized_server();
    let (schema, a_runs, b_runs) = counted_arm_schema();
    server.register("flow", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 4i64);
    sv.set(schema.lookup("u").unwrap(), 7i64);
    let first = server
        .submit(Request::named("flow").sources(sv.clone()))
        .unwrap()
        .wait()
        .unwrap();
    let second = server
        .submit(Request::named("flow").sources(sv))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        first.record.outcome("t").unwrap().value,
        second.record.outcome("t").unwrap().value
    );
    assert_eq!(
        (
            a_runs.load(Ordering::Relaxed),
            b_runs.load(Ordering::Relaxed)
        ),
        (1, 1),
        "the second request's arms are served from the memo table"
    );
    let memo = server.memo().expect("built with memoize");
    assert!(memo.hits() >= 2, "hits {}", memo.hits());
    assert!(
        server
            .telemetry()
            .snapshot()
            .counter("memo_hits")
            .unwrap_or(0)
            >= 2
    );
}

/// `s → t = const c` at cost 3: two of these differ only in a task
/// body, which the structural fingerprint cannot see.
fn const_flow(c: i64) -> (Arc<Schema>, SourceValues) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr("t", Task::const_query(3, c), vec![s], Expr::Lit(true));
    b.mark_target(t);
    let mut sv = SourceValues::new();
    sv.set(s, 0i64);
    (Arc::new(b.build().unwrap()), sv)
}

/// Assert the server's `t` for `request` is the oracle's.
fn assert_serves_oracle(server: &EngineServer, schema: &Arc<Schema>, request: Request) {
    let snap = complete_snapshot(schema, &request.sources).unwrap();
    let served = server.submit(request).unwrap().wait().unwrap();
    assert_eq!(
        served.record.outcome("t").unwrap().value.as_ref(),
        Some(snap.value(schema.lookup("t").unwrap()))
    );
}

#[test]
fn memo_does_not_serve_one_flows_results_to_a_same_shaped_other() {
    let server = memoized_server();
    let (a, sv) = const_flow(1);
    let (b, _) = const_flow(2);
    assert_eq!(schema_fingerprint(&a), schema_fingerprint(&b));
    server.register("a", Arc::clone(&a));
    server.register("b", Arc::clone(&b));
    assert_serves_oracle(&server, &a, Request::named("a").sources(sv.clone()));
    assert_serves_oracle(&server, &b, Request::named("b").sources(sv));
    assert_eq!(server.memo().unwrap().hits(), 0, "nothing to share");
}

#[test]
fn one_schema_under_two_names_shares_memo_entries() {
    let server = memoized_server();
    let (schema, a_runs, b_runs) = counted_arm_schema();
    server.register("x", Arc::clone(&schema));
    server.register("y", Arc::clone(&schema));
    let mut sv = SourceValues::new();
    sv.set(schema.lookup("s").unwrap(), 4i64);
    sv.set(schema.lookup("u").unwrap(), 7i64);
    // The oracle runs the counted bodies too: take it once, first.
    let snap = complete_snapshot(&schema, &sv).unwrap();
    let runs = || {
        (
            a_runs.load(Ordering::Relaxed),
            b_runs.load(Ordering::Relaxed),
        )
    };
    let before = runs();
    for name in ["x", "y"] {
        let served = server
            .submit(Request::named(name).sources(sv.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            served.record.outcome("t").unwrap().value.as_ref(),
            Some(snap.value(schema.lookup("t").unwrap()))
        );
    }
    assert_eq!(
        runs(),
        (before.0 + 1, before.1 + 1),
        "the name is not part of the key: `y` is served `x`'s results"
    );
    assert!(server.memo().unwrap().hits() >= 2);
}

#[test]
fn delta_does_not_adopt_a_same_shaped_other_flows_snapshot() {
    let server = server(1, "PSE100");
    let (a, sv) = const_flow(1);
    let (b, _) = const_flow(2);
    server.register("a", Arc::clone(&a));
    server.register("b", Arc::clone(&b));
    let labeled = |name: &str| Request::named(name).sources(sv.clone()).label("cust-1");
    assert_serves_oracle(&server, &a, labeled("a"));
    let of_a = server
        .state_store()
        .lookup(schema_fingerprint(&a), "cust-1")
        .expect("labeled completion commits");

    // By label the prior is a hint: `a`'s snapshot is found under
    // the shared (fingerprint, label) key and refused — a cold run.
    assert_serves_oracle(&server, &b, labeled("b").delta_by_label());
    let tele = server.telemetry().snapshot();
    assert_eq!(tele.counter("delta_reused").unwrap_or(0), 0);

    // On the request it is a claim, rejected at validation.
    let err = server
        .submit(Request::named("b").sources(sv.clone()).delta(of_a))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(
        err,
        SubmitError::Delta(DeltaError::SchemaMismatch { expected, got }) if expected == got
    ));
    assert!(err.to_string().contains("another build"), "{err}");
}

#[test]
fn build_error_is_displayable() {
    let err = ServerBuildError {
        shard: 3,
        source: std::io::Error::other("no threads left"),
    };
    let msg = err.to_string();
    assert!(msg.contains("shard 3"), "{msg}");
    assert!(std::error::Error::source(&err).is_some());
}
