//! Durable event store: crash recovery and time-travel replay,
//! end-to-end through `EngineServer::builder().durable(dir)`.
//!
//! The crash model is **prefix truncation**: a kill can only lose a
//! suffix of the write-ahead log (fsync-ordered appends never leave
//! holes), so chopping the lane's byte stream at an arbitrary offset —
//! at a record boundary or mid-record — reproduces every state a real
//! SIGKILL can leave behind. For deterministic boundaries and random
//! cuts alike, a reopened server must:
//!
//! * tolerate the torn tail (warnings, never errors);
//! * partition the surviving accepted instances into sealed + pending
//!   with no overlap and no loss;
//! * re-execute exactly the pending ones once (`recover_pending` is
//!   latched; already-sealed instances keep their attempt-0 tape);
//! * end fully sealed, fsck-clean, with every sealed journal replaying
//!   through the `ReplayEngine` — and first-life journals that
//!   survived the cut byte-identical to their pre-crash capture.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use decision_flows::decisionflow::store;
use decision_flows::dflowgen::{generate, PatternParams};
use decision_flows::prelude::*;
use proptest::prelude::*;

/// Fresh scratch directory for one store; removed on clean test exit,
/// left behind on panic for post-mortem `dflow-store fsck`.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dflow-durability-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(nodes: usize, pct: u32) -> PatternParams {
    PatternParams {
        nb_nodes: nodes,
        nb_rows: 3,
        pct_enabled: pct,
        ..Default::default()
    }
}

/// One shard so the store has exactly one WAL lane: the log is a
/// single totally-ordered byte stream and "truncate at offset N" is
/// unambiguous.
fn open_server(dir: &Path) -> EngineServer {
    EngineServer::builder()
        .shards(1)
        .workers_per_shard(2)
        .strategy("PSE100".parse().unwrap())
        .durable(dir)
        .build()
        .expect("open store")
}

/// Run `count` durable instances to completion, one at a time so the
/// lane's record order follows submission order. Returns each
/// instance's id with its live-captured tape bytes.
fn first_life(
    dir: &Path,
    schema: &Arc<Schema>,
    sources: &SourceValues,
    count: u64,
) -> Vec<(u64, Vec<u8>)> {
    let server = open_server(dir);
    server.register("f", Arc::clone(schema));
    let mut lives = Vec::new();
    for _ in 0..count {
        let ticket = server
            .submit(
                Request::named("f")
                    .sources(sources.clone())
                    .durable(true)
                    .record_journal(true),
            )
            .expect("durable submit");
        let id = ticket.instance_id();
        let result = ticket.wait().expect("instance completes");
        let journal = result.journal.expect("journal requested");
        lives.push((id, tape(&journal)));
    }
    lives
}

fn tape(journal: &Journal) -> Vec<u8> {
    let mut bytes = Vec::new();
    journal.write_stream(&mut bytes).expect("serialize tape");
    bytes
}

/// Lane 0's segment files in append order, with their byte contents.
fn lane0_segments(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-000-") && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    segs.into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read segment");
            (p, bytes)
        })
        .collect()
}

/// Chop the lane's concatenated byte stream at `cut`: segments wholly
/// past the cut are deleted, the one containing it is truncated.
fn truncate_lane(dir: &Path, cut: u64) {
    let mut consumed = 0u64;
    for (path, bytes) in lane0_segments(dir) {
        let len = bytes.len() as u64;
        if consumed >= cut {
            std::fs::remove_file(&path).expect("drop post-cut segment");
        } else if consumed + len > cut {
            std::fs::write(&path, &bytes[..(cut - consumed) as usize]).expect("truncate segment");
        }
        consumed += len;
    }
}

/// Offsets (into the lane's concatenated stream) at which each WAL
/// record ends, decoded from the `[len u32 LE][crc u32 LE][payload]`
/// framing. Offset 0 is included: "crash before anything committed".
fn record_boundaries(dir: &Path) -> Vec<u64> {
    let stream: Vec<u8> = lane0_segments(dir)
        .into_iter()
        .flat_map(|(_, bytes)| bytes)
        .collect();
    let mut boundaries = vec![0u64];
    let mut at = 0usize;
    while at + 8 <= stream.len() {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        assert!(at <= stream.len(), "first life left a torn record");
        boundaries.push(at as u64);
    }
    boundaries
}

/// Crash a fully-sealed store at byte `cut`, then drive it through
/// the full recovery protocol, checking every invariant listed in the
/// module docs. `lives` holds each first-life instance's tape.
fn crash_and_recover(dir: &Path, schema: &Arc<Schema>, lives: &[(u64, Vec<u8>)], cut: u64) {
    truncate_lane(dir, cut);

    // Reopen: the torn tail and any acceptance-less construction
    // frames must come back as warnings, never as a refusal to open.
    let server = open_server(dir);
    let recovered = server.store().expect("durable server").recovered().clone();
    let sealed: BTreeMap<u64, u32> = recovered
        .sealed
        .iter()
        .map(|s| (s.instance_id, s.attempt))
        .collect();
    let pending: Vec<u64> = recovered
        .pending
        .iter()
        .map(|p| p.request.instance_id)
        .collect();
    for (id, attempt) in &sealed {
        assert_eq!(
            *attempt, 0,
            "instance {id} sealed pre-crash on its first attempt"
        );
        assert!(
            !pending.contains(id),
            "instance {id} both sealed and pending"
        );
    }
    let submitted: Vec<u64> = lives.iter().map(|(id, _)| *id).collect();
    for id in sealed.keys().chain(&pending) {
        assert!(submitted.contains(id), "unknown instance {id} recovered");
    }
    // New ids must never collide with anything on file.
    let max_on_file = sealed.keys().chain(&pending).max().copied();
    if let Some(max) = max_on_file {
        assert!(
            recovered.next_instance_id > max,
            "id counter resumes past the log"
        );
    }

    // Exactly-once re-execution: one ticket per pending instance, in
    // id order, and the latch makes a second call a no-op.
    server.register("f", Arc::clone(schema));
    let tickets = server.recover_pending().expect("recovery re-enqueues");
    let recovered_ids: Vec<u64> = tickets.iter().map(|t| t.instance_id()).collect();
    assert_eq!(
        recovered_ids, pending,
        "recovery re-executes exactly the pending set"
    );
    assert!(
        server
            .recover_pending()
            .expect("latched call succeeds")
            .is_empty(),
        "second recover_pending must re-enqueue nothing"
    );
    for ticket in tickets {
        ticket.wait().expect("re-executed instance completes");
    }
    drop(server);

    // Second reopen: everything the truncated log accepted is sealed —
    // zero accepted-instance loss, nothing executed twice.
    let state = store::inspect(dir).expect("post-recovery store opens");
    assert!(
        state.pending.is_empty(),
        "no pending instances after recovery"
    );
    let resealed: BTreeMap<u64, u32> = state
        .sealed
        .iter()
        .map(|s| (s.instance_id, s.attempt))
        .collect();
    let mut accepted: Vec<u64> = sealed.keys().chain(&pending).copied().collect();
    accepted.sort_unstable();
    assert_eq!(
        resealed.keys().copied().collect::<Vec<_>>(),
        accepted,
        "every accepted instance is sealed after recovery"
    );
    for (id, attempt) in &resealed {
        if sealed.contains_key(id) {
            assert_eq!(*attempt, 0, "pre-crash seal of {id} survives untouched");
        } else {
            assert!(
                *attempt >= 1,
                "re-executed instance {id} seals a bumped attempt"
            );
        }
    }
    let report = store::fsck(dir).expect("fsck scans");
    assert!(
        report.ok(),
        "only warnings after recovery:\n{}",
        report.to_text()
    );

    // Time travel: every sealed journal replays, and tapes sealed
    // before the crash are byte-identical to their live capture.
    for (id, attempt) in &resealed {
        let journal = store::fetch_journal(dir, *id).expect("sealed journal reconstructs");
        if *attempt == 0 {
            let (_, live) = lives
                .iter()
                .find(|(lid, _)| lid == id)
                .expect("known instance");
            assert_eq!(
                &tape(&journal),
                live,
                "instance {id} tape drifted across the crash"
            );
        }
        let outcome = ReplayEngine::new(Arc::clone(schema), journal)
            .expect("journal header valid")
            .replay()
            .expect("recovered journal replays without divergence");
        assert!(
            outcome.frames_verified > 0,
            "replay of {id} verified its frames"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Time-travel baseline, no crash: the journal reconstructed from the
/// WAL is byte-for-byte the journal the live execution captured, and
/// it replays cleanly.
#[test]
fn fetch_journal_matches_live_capture_byte_for_byte() {
    let flow = generate(pattern(18, 60), 7_001).expect("valid pattern");
    let dir = scratch("tape");
    let lives = first_life(&dir, &flow.schema, &flow.sources, 6);
    for (id, live) in &lives {
        let journal = store::fetch_journal(&dir, *id).expect("sealed journal reconstructs");
        assert_eq!(
            &tape(&journal),
            live,
            "instance {id}: WAL tape != live tape"
        );
        ReplayEngine::new(Arc::clone(&flow.schema), journal)
            .expect("journal header valid")
            .replay()
            .expect("fetched journal replays");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic tears: exactly at a record boundary (the clean-crash
/// case) and a few bytes past one (a torn record). Both first-life
/// stores are byte-copies of the same run, so the two cuts exercise
/// the same log.
#[test]
fn tears_at_record_boundaries_and_mid_record_recover() {
    let flow = generate(pattern(16, 50), 4_400).expect("valid pattern");
    let master = scratch("boundary-master");
    let lives = first_life(&master, &flow.schema, &flow.sources, 4);
    let boundaries = record_boundaries(&master);
    assert!(boundaries.len() > 4, "four instances leave several records");

    let mid_boundary = boundaries[boundaries.len() / 2];
    let torn = boundaries[boundaries.len() / 2] + 5;
    let everything = *boundaries.last().unwrap();
    for (tag, cut) in [
        ("clean", mid_boundary),
        ("torn", torn),
        ("nothing-lost", everything),
        ("all-lost", 0),
    ] {
        let dir = scratch(&format!("boundary-{tag}"));
        copy_store(&master, &dir);
        crash_and_recover(&dir, &flow.schema, &lives, cut);
    }
    let _ = std::fs::remove_dir_all(&master);
}

/// Regression: within a lane, every instance's lifecycle record (its
/// acceptance, or the requeue of a later attempt) must hit the log
/// before any frame of that attempt. Building a runtime streams its
/// eager-initialization frames, so a submit path that prepared first
/// would let a crash persist frames for an instance that was never
/// durably accepted — and the orphans could be mis-attributed if the
/// id were ever reissued.
#[test]
fn lifecycle_records_precede_frames_on_disk() {
    let flow = generate(pattern(14, 70), 9_900).expect("valid pattern");
    let dir = scratch("record-order");
    let lives = first_life(&dir, &flow.schema, &flow.sources, 3);
    let mut seen: Vec<(u64, u32)> = Vec::new();
    let mut frames = 0u64;
    for (path, bytes) in lane0_segments(&dir) {
        let (records, defect) = store::wal::scan_segment(&bytes);
        assert!(
            defect.is_none(),
            "clean shutdown leaves no defect in {path:?}"
        );
        for record in records {
            let text = std::str::from_utf8(&record.payload).expect("utf8 payload");
            let event: store::StoreEvent = serde::json::from_str(text).expect("store event");
            match event {
                store::StoreEvent::RequestAccepted { request } => {
                    seen.push((request.instance_id, 0));
                }
                store::StoreEvent::RequestRequeued {
                    instance_id,
                    attempt,
                } => {
                    seen.push((instance_id, attempt));
                }
                store::StoreEvent::FrameAppended {
                    instance_id,
                    attempt,
                    ..
                } => {
                    frames += 1;
                    assert!(
                        seen.contains(&(instance_id, attempt)),
                        "frame for instance {instance_id} attempt {attempt} precedes \
                         its lifecycle record on disk"
                    );
                }
                _ => {}
            }
        }
    }
    assert_eq!(
        seen.len(),
        lives.len(),
        "one lifecycle record per submitted instance"
    );
    assert!(frames > 0, "durable instances leave frames");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-task flow whose task body waits for `gate`: instances stay
/// accepted-but-unsealed for as long as the gate is shut. `entered`
/// counts the bodies currently parked on it.
fn gated_schema(gate: &Arc<AtomicBool>, entered: &Arc<AtomicU64>) -> Arc<Schema> {
    let (gate, entered) = (Arc::clone(gate), Arc::clone(entered));
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let t = b.attr(
        "t",
        Task::query(1, move |ins: &[Value]| {
            entered.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            ins[0].clone()
        }),
        vec![s],
        Expr::Lit(true),
    );
    b.mark_target(t);
    Arc::new(b.build().expect("gated flow well-formed"))
}

/// Regression: a `recover_pending` that fails part-way (one pending
/// instance names a schema nobody registered yet) must leave *nothing*
/// re-enqueued and must not latch — otherwise the caller registers the
/// schema, calls again, gets no tickets, and everything past the first
/// failure stays pending until the next process start.
#[test]
fn recover_pending_is_all_or_nothing_and_retryable() {
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicU64::new(0));
    let schema = gated_schema(&gate, &entered);
    let mut sources = SourceValues::new();
    sources.set(schema.lookup("s").expect("source"), 7i64);

    // First life: four durable instances, "f" and "g" interleaved, all
    // parked on the gate. Once both workers of the shard sit in a task
    // body nothing else can append, so a copy of the synced log is the
    // log of a process killed with four instances accepted and none
    // sealed.
    let live_dir = scratch("partial-live");
    let crashed = scratch("partial-crashed");
    let first = open_server(&live_dir);
    first.register("f", Arc::clone(&schema));
    first.register("g", Arc::clone(&schema));
    let tickets: Vec<Ticket> = ["f", "g", "f", "g"]
        .iter()
        .map(|name| {
            first
                .submit(Request::named(*name).sources(sources.clone()).durable(true))
                .expect("durable submit")
        })
        .collect();
    let ids: Vec<u64> = tickets.iter().map(Ticket::instance_id).collect();
    while entered.load(Ordering::SeqCst) < 2 {
        std::thread::yield_now();
    }
    first
        .store()
        .expect("durable")
        .sync()
        .expect("group commit");
    copy_store(&live_dir, &crashed);
    gate.store(true, Ordering::SeqCst);
    for ticket in tickets {
        ticket.wait().expect("first life completes");
    }
    drop(first);
    let _ = std::fs::remove_dir_all(&live_dir);

    // Second life, "g" not registered yet: the call fails on instance
    // 1 and instance 0 — already validated — must not have been
    // re-admitted, in memory or on disk.
    let server = open_server(&crashed);
    server.register("f", Arc::clone(&schema));
    match server.recover_pending() {
        Err(RecoverError::UnknownSchema {
            instance_id,
            schema,
        }) => {
            assert_eq!((instance_id, schema.as_str()), (ids[1], "g"));
        }
        other => panic!("expected UnknownSchema, got {other:?}"),
    }
    assert_eq!(server.stats().submitted(), 0, "nothing re-admitted");
    server.store().expect("durable").sync().expect("barrier");
    let on_disk = store::inspect(&crashed).expect("live store inspects");
    assert_eq!(
        on_disk
            .pending
            .iter()
            .map(|p| (p.request.instance_id, p.next_attempt))
            .collect::<Vec<_>>(),
        ids.iter().map(|&id| (id, 1)).collect::<Vec<_>>(),
        "no requeue record was logged by the failed call"
    );

    // Registry fixed: the retry re-executes every pending instance,
    // and only then does the latch make further calls no-ops.
    server.register("g", Arc::clone(&schema));
    let retried = server.recover_pending().expect("retry re-enqueues");
    assert_eq!(
        retried.iter().map(Ticket::instance_id).collect::<Vec<_>>(),
        ids,
        "the retry recovers the whole pending set"
    );
    assert!(
        server
            .recover_pending()
            .expect("latched call succeeds")
            .is_empty(),
        "third recover_pending must re-enqueue nothing"
    );
    for ticket in retried {
        ticket.wait().expect("re-executed instance completes");
    }
    drop(server);

    let state = store::inspect(&crashed).expect("post-recovery store opens");
    assert!(state.pending.is_empty(), "nothing left pending");
    assert_eq!(
        state
            .sealed
            .iter()
            .map(|s| (s.instance_id, s.attempt))
            .collect::<Vec<_>>(),
        ids.iter().map(|&id| (id, 1)).collect::<Vec<_>>(),
        "each pending instance sealed exactly one re-execution"
    );
    let report = store::fsck(&crashed).expect("fsck scans");
    assert!(report.ok(), "fsck after recovery:\n{}", report.to_text());
    let _ = std::fs::remove_dir_all(&crashed);
}

/// The id counter resumes at the recovered floor: the first id a
/// reopened server hands out *is* `next_instance_id` — above every
/// sealed and every pending id on file, whichever shard minted them —
/// and later submissions continue from it in submission order.
#[test]
fn first_id_after_a_reopen_is_the_recovered_floor() {
    const SHARDS: usize = 3;
    let open = |dir: &Path| {
        EngineServer::builder()
            .shards(SHARDS)
            .workers_per_shard(1)
            .durable(dir)
            .build()
            .expect("open store")
    };
    let gate = Arc::new(AtomicBool::new(true));
    let entered = Arc::new(AtomicU64::new(0));
    let schema = gated_schema(&gate, &entered);
    let mut sources = SourceValues::new();
    sources.set(schema.lookup("s").expect("source"), 7i64);
    let request = || Request::named("f").sources(sources.clone()).durable(true);

    // First life: ids 0..4 seal through the open gate; 4, 5 and 6 park
    // one per shard on the shut one. The synced copy is the log of a
    // process killed with four instances sealed and three pending.
    let live_dir = scratch("floor-live");
    let crashed = scratch("floor-crashed");
    let first = open(&live_dir);
    first.register("f", Arc::clone(&schema));
    for result in first
        .submit_many((0..4).map(|_| request()))
        .unwrap()
        .wait_all()
    {
        result.expect("sealed before the crash");
    }
    gate.store(false, Ordering::SeqCst);
    let parked = first.submit_many((0..3).map(|_| request())).unwrap();
    while entered.load(Ordering::SeqCst) < 7 {
        std::thread::yield_now();
    }
    first
        .store()
        .expect("durable")
        .sync()
        .expect("group commit");
    copy_store(&live_dir, &crashed);
    gate.store(true, Ordering::SeqCst);
    for result in parked.wait_all() {
        result.expect("first life completes");
    }
    drop(first);
    let _ = std::fs::remove_dir_all(&live_dir);

    let server = open(&crashed);
    let recovered = server.store().expect("durable").recovered().clone();
    let mut on_file: Vec<u64> = recovered
        .sealed
        .iter()
        .map(|s| s.instance_id)
        .chain(recovered.pending.iter().map(|p| p.request.instance_id))
        .collect();
    on_file.sort_unstable();
    assert_eq!(on_file, (0..7).collect::<Vec<u64>>());
    assert_eq!(recovered.pending.len(), 3);
    let floor = recovered.next_instance_id;
    assert_eq!(floor, 7, "one past the highest id on file");

    server.register("f", Arc::clone(&schema));
    let fresh = server.submit(request()).expect("durable submit");
    assert_eq!(fresh.instance_id(), floor);
    assert_eq!(fresh.shard(), floor as usize % SHARDS);
    let requeued = server.recover_pending().expect("recovery re-enqueues");
    assert_eq!(
        requeued.iter().map(Ticket::instance_id).collect::<Vec<_>>(),
        [4, 5, 6],
        "recovered instances keep their ids"
    );
    let more = server.submit_many([request(), request()]).unwrap();
    assert_eq!(
        more.iter().map(Ticket::instance_id).collect::<Vec<_>>(),
        [floor + 1, floor + 2]
    );
    for ticket in requeued.into_iter().chain([fresh]).chain(more) {
        ticket.wait().expect("second life completes");
    }
    drop(server);

    let state = store::inspect(&crashed).expect("post-recovery store opens");
    assert!(state.pending.is_empty(), "nothing left pending");
    let mut sealed: Vec<u64> = state.sealed.iter().map(|s| s.instance_id).collect();
    sealed.sort_unstable();
    assert_eq!(
        sealed,
        (0..10).collect::<Vec<u64>>(),
        "ten ids, no collision"
    );
    let report = store::fsck(&crashed).expect("fsck scans");
    assert!(report.ok(), "fsck after recovery:\n{}", report.to_text());
    let _ = std::fs::remove_dir_all(&crashed);
}

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().unwrap())).expect("copy segment");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random flows, random cut offsets: whatever byte the "crash"
    /// lands on, recovery upholds the exactly-once protocol.
    #[test]
    fn random_truncation_recovers_exactly_once(seed in any::<u64>(), cut_seed in any::<u64>()) {
        let flow = generate(pattern(10 + (seed % 12) as usize, (seed % 101) as u32), seed)
            .expect("valid pattern");
        let dir = scratch("random");
        let lives = first_life(&dir, &flow.schema, &flow.sources, 5);
        let total: u64 = lane0_segments(&dir).iter().map(|(_, b)| b.len() as u64).sum();
        crash_and_recover(&dir, &flow.schema, &lives, cut_seed % (total + 1));
    }
}
