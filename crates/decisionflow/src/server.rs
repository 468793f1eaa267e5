//! The execution module of §3 (paper Figure 2), materialized as a
//! sharded multi-threaded server.
//!
//! ```text
//!              EngineServer::builder() ─▶ EngineServer
//!   submit / submit_many ──▶ route round-robin, id = k·N + shard ──┐
//!          ┌──────────────┬──────────────┬──────────────────────────┘
//!          ▼              ▼              ▼
//!       shard 0        shard 1   …   shard N−1    (N = available cores)
//!    ┌───────────┐  ┌───────────┐  ┌───────────┐
//!    │ schemas   │  │ schemas   │  │ schemas   │  registry replica
//!    │ id seq    │  │ id seq    │  │ id seq    │  sharded id counter
//!    │ instances │  │ instances │  │ instances │  live-instance slice
//!    │ workers   │  │ workers   │  │ workers   │  private thread pool
//!    │ arena     │  │ arena     │  │ arena     │  runtime scratch pool
//!    │ event lane│  │ event lane│  │ event lane│  per-shard event ring
//!    └───────────┘  └───────────┘  └───────────┘
//!          ├── shard registry   ──▶ ServerStats   (lifecycle counters, typed)
//!          ├── (same registry)  ──▶ Telemetry     (Prometheus/JSON snapshot)
//!          └── per-shard lanes  ──▶ ServerEvents  (merging subscriber)
//! ```
//!
//! The engine "works in a multi-thread fashion, so that parallel
//! processing of multiple flow instances, and multiple tasks within
//! one instance is possible". Flow instances are mutually independent,
//! so the server shards them across cores **shared-nothing**: the hot
//! path from submission to completion touches no cross-shard lock, no
//! global counter, and no global event channel:
//!
//! * the **schema repository** is replicated per shard ([`register`]
//!   writes every replica; the submission hot path only ever takes its
//!   own shard's read lock);
//! * each shard owns a **slice of the instance table** (live
//!   instances routed to it) and a private pool of worker threads —
//!   the pool size plays the role of the external server's finite
//!   multiprogramming level;
//! * **instance ids are allocated per shard**: submissions pick a
//!   shard round-robin and draw from that shard's own sequence (the
//!   k-th id of shard *i* on an *N*-shard server is `k·N + i`), so id
//!   spaces stay disjoint — and `id mod N` recovers the owner — with
//!   no cross-shard coordination; [`submit_many`] draws the route
//!   cursor once for the whole batch and allocates one contiguous id
//!   block per shard;
//! * **admission is one pipeline**: `submit`, `submit_many` and
//!   `recover_pending` all run the same *validate* step (resolve the
//!   schema, check the request — nothing consumed, nothing logged) and
//!   the same *admit* step (WAL accept/requeue record → count
//!   submitted → live-table insert → publish `Submitted` → enqueue the
//!   build), so a batch is exactly a sequence of single submissions
//!   validated up front;
//! * **runtime construction happens on the owning shard's pool**, not
//!   the submitting thread: `submit` validates, logs acceptance, and
//!   returns its [`Ticket`] immediately, while the expensive
//!   [`InstanceRuntime`] build draws its buffers from a per-shard
//!   **allocation arena** of reclaimed runtimes
//!   ([`crate::engine::RuntimeScratch`]) — N shards build (and
//!   execute) N instances truly concurrently;
//! * every scheduling round — including the *first* one, which runs
//!   on the same worker that built the runtime — re-enters the
//!   three-phase loop (evaluate → prequalify → schedule) under the
//!   instance lock; new launches go back to the owning shard's pool,
//!   so on a 1-worker shard the job queue (and any recorded journal,
//!   fan-out flows included) is byte-deterministic;
//! * each shard owns one [`ShardTelemetry`] registry: lock-free
//!   lifecycle counters (queue depth, in-flight instances,
//!   submitted/completed/abandoned) beside the stage histograms of the
//!   instrumented hot path — submit → route → validate → enqueue →
//!   dequeue → execute → complete. [`EngineServer::stats`] reads the
//!   counters into a typed [`ServerStats`], the
//!   [`EngineServer::telemetry`] handle snapshots the same atomics
//!   (plus the recent-span ring) into Prometheus or JSON, every
//!   [`InstanceResult`] carries its own [`StageTimings`], and every
//!   lifecycle transition is published to [`subscribe`]rs as an
//!   [`InstanceEvent`];
//! * lifecycle events are published to a **per-shard event lane** and
//!   merged by each [`ServerEvents`] subscriber on its own thread —
//!   completions on different shards never contend on one channel,
//!   and the event clock is strictly increasing within each shard.
//!
//! Submission itself is the unified [`Request`] → [`Ticket`] surface
//! of [`crate::api`]: journaling, per-request strategy overrides,
//! deadlines, and labels are request options, not separate methods.
//! The scheduler and the Propagation Algorithm are exactly the ones
//! used by the simulation drivers; this module only adds the threading
//! harness, so correctness-vs-oracle carries over (and is re-asserted
//! by this module's tests and `tests/server_sharded.rs` under real
//! concurrency, across shards).
//!
//! [`register`]: EngineServer::register
//! [`submit_many`]: EngineServer::submit_many
//! [`subscribe`]: EngineServer::subscribe

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::api::{
    recorder_for, DeltaSource, EventHub, InstanceEvent, LiveInstance, Request, ServerEvents,
    Ticket, TicketBatch,
};
use crate::engine::{InstanceRuntime, RuntimeOptions, RuntimeScratch, ServerStats, Strategy};
use crate::journal::{bind_sources, schema_fingerprint, Journal, JournalWriter};
use crate::report::ExecutionRecord;
use crate::schema::{AttrId, Schema};
use crate::snapshot::{SnapshotError, SourceValues};
use crate::statestore::{plan_delta, DeltaError, InstanceSnapshot, MemoTable, StateStore};
use crate::store::WalRecorder;
use crate::store::{
    EventStore, PersistedRequest, SealOutcome, StoreConfig, StoreError, StoreEvent,
};
use crate::telemetry::{ShardTelemetry, SpanRecord, SpanRecorder, StageTimings, Telemetry};

/// Result of one instance executed by the server.
#[derive(Clone, Debug)]
pub struct InstanceResult {
    /// Terminal snapshot record (states, values, metrics).
    pub record: ExecutionRecord,
    /// Wall-clock latency from submission to target stabilization.
    pub elapsed: Duration,
    /// Index of the shard that executed the instance.
    pub shard: usize,
    /// Server-assigned instance id (matches the [`Ticket`] and the
    /// [`InstanceEvent`] stream).
    pub instance_id: u64,
    /// The label the [`Request`] carried, if any.
    pub label: Option<String>,
    /// The flight record — `Some` iff the request set
    /// [`Request::record_journal`]. Recording is an orthogonal option,
    /// not a parallel type family: the same [`Ticket`] delivers both.
    /// Streaming captures ([`Request::stream_journal`]) deliver on
    /// their sink instead, leaving this `None`.
    pub journal: Option<Journal>,
    /// `Some` when a [`Request::stream_journal`] capture failed to
    /// seal its tape (the sink reported an IO error at some point).
    /// The execution itself succeeded — `record` is valid — but the
    /// streamed journal has no footer and readers will reject it as
    /// truncated. Always `None` for buffered or un-journaled runs.
    pub journal_error: Option<String>,
    /// `true` when the request carried a [`Request::deadline`] and the
    /// instance stabilized *after* it. The engine never cancels
    /// launched work, so the result is still complete and correct —
    /// this flag is the server-side accounting hook open-arrival
    /// pacers use to tally **late drops** without re-deriving the
    /// budget from [`Ticket::deadline`] themselves.
    pub deadline_exceeded: bool,
    /// Per-stage latency breakdown of this instance's trip through the
    /// server (route / validate / queue-wait / execute / end-to-end) —
    /// the same numbers the server's [`Telemetry`] histograms
    /// aggregate. Always `Some` for server-executed instances.
    pub stage_timings: Option<StageTimings>,
}

/// The instance's result can never arrive. This happens when the
/// instance was *abandoned* — a panicking task body never delivered
/// its value, so the flow can never stabilize (workers themselves
/// survive task panics and keep serving other instances) — or when
/// the result was already consumed by an earlier poll. Note that
/// merely dropping the [`EngineServer`] does *not* abandon work:
/// worker pools drain gracefully, in-flight instances run to
/// completion, and their tickets still yield results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerGone;

impl std::fmt::Display for ServerGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine server dropped before instance completion")
    }
}

impl std::error::Error for ServerGone {}

/// Worker-thread spawning failed while building the server. Already
/// spawned threads are shut down cleanly before this is returned, so a
/// failed build leaks nothing.
#[derive(Debug)]
pub struct ServerBuildError {
    /// Shard whose pool could not be built.
    pub shard: usize,
    /// The underlying spawn failure.
    pub source: std::io::Error,
}

impl std::fmt::Display for ServerBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to spawn a worker thread for shard {}: {}",
            self.shard, self.source
        )
    }
}

impl std::error::Error for ServerBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

type Job = Box<dyn FnOnce() + Send>;

struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    tele: Arc<ShardTelemetry>,
}

impl WorkerPool {
    /// Spawn `size` worker threads for shard `shard`. On spawn failure
    /// the already-spawned threads are joined (via the normal `Drop`
    /// path) and the `io::Error` is propagated instead of aborting the
    /// process mid-construction.
    fn new(shard: usize, size: usize, tele: Arc<ShardTelemetry>) -> std::io::Result<WorkerPool> {
        assert!(size > 0, "worker pool needs at least one thread");
        let (tx, rx) = unbounded::<Job>();
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let rx: Receiver<Job> = rx.clone();
            let t = Arc::clone(&tele);
            let spawned = std::thread::Builder::new()
                .name(format!("dflow-s{shard}-w{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        t.job_dequeued();
                        // A panicking task body must not take the
                        // worker (and a slice of the shard's capacity)
                        // down with it: catch the unwind and keep
                        // serving. The caught job drops its
                        // `Arc<Instance>`, which is what eventually
                        // surfaces ServerGone on the abandoned
                        // instance's ticket.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    drop(WorkerPool {
                        tx: Some(tx),
                        workers,
                        tele,
                    });
                    return Err(e);
                }
            }
        }
        Ok(WorkerPool {
            tx: Some(tx),
            workers,
            tele,
        })
    }

    /// Enqueue a job. Workers survive panicking tasks (the unwind is
    /// caught), so the channel only disconnects if every worker died
    /// abnormally (e.g. a teardown race). Even then the caller must
    /// not panic: `false` means the job was dropped, which releases
    /// its `Arc<Instance>` (or unbuilt [`PendingStart`]) — the
    /// completion sender goes with it and the ticket observes
    /// [`ServerGone`].
    fn spawn(&self, job: Job) -> bool {
        self.tele.job_enqueued();
        // invariant: tx is Some until drop(); spawn is never called during teardown.
        match self.tx.as_ref().expect("pool alive").send(job) {
            Ok(()) => true,
            Err(_) => {
                self.tele.job_dequeued();
                false
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the channel; workers drain remaining jobs and exit.
        self.tx.take();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            // A panicking job can make its own worker thread drop the
            // last pool handle; joining ourselves would deadlock (and
            // panicking here, mid-unwind, would abort the process).
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

struct Instance {
    id: u64,
    /// The owning shard's shared state.
    ctx: Arc<ShardCtx>,
    /// The flow the instance runs — immutable for its life, so task
    /// bodies read it here without taking the runtime lock.
    schema: Arc<Schema>,
    /// The runtime, with the instance's flight recorder inside it:
    /// this lock is the only one an event crosses, and it is what
    /// orders the frames of every output. Sealed by the first pump to
    /// observe completion, which is also what makes the result go out
    /// exactly once.
    runtime: Mutex<InstanceRuntime>,
    /// The submission-path stages, measured by the admission pipeline
    /// on the caller's thread; `validate` additionally includes the
    /// runtime-construction time spent on the worker, folded in before
    /// the instance is built. `t0` is the zero point of both
    /// [`InstanceResult::elapsed`] and the `e2e` stage.
    submit: SubmitTimings,
    /// When the build job entered the shard's job queue.
    enqueued_at: Instant,
    /// When a worker picked the build job up; `enqueued_at →
    /// dequeued_at` is the `queue_wait` stage.
    dequeued_at: Instant,
    /// When the runtime build finished and execution proper began;
    /// `exec_start → completion` is the `execute` stage.
    exec_start: Instant,
    done_tx: Sender<InstanceResult>,
    /// The request's label, forwarded into results and events.
    label: Option<String>,
    /// Absolute completion deadline derived from [`Request::deadline`]
    /// at submission; completions after it set
    /// [`InstanceResult::deadline_exceeded`].
    deadline: Option<Instant>,
}

/// Saturating nanosecond count of a [`Duration`].
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl Instance {
    /// One scheduling round under the instance lock; dispatches the
    /// selected tasks to the owning shard's worker pool.
    fn pump(inst: &Arc<Instance>) {
        let mut launches: Vec<(AttrId, Vec<crate::value::Value>)> = Vec::new();
        let mut finished: Option<InstanceResult> = None;
        {
            let mut rt = inst.runtime.lock();
            if !rt.is_complete() {
                rt.round(&mut launches);
            } else if !rt.is_sealed() {
                // Racing pumps may observe completion concurrently;
                // only the first seals and sends (freezing the journal
                // in the same lock hold, so journal and record match
                // frame-for-frame).
                //
                // Commit the stabilized state as a versioned snapshot
                // for future delta resubmissions — labeled requests
                // only, since (schema fingerprint, label) is the
                // snapshot key. Runs under the same runtime-lock hold
                // that freezes the journal, so the snapshot matches the
                // delivered record exactly.
                if let Some(label) = &inst.label {
                    inst.ctx
                        .state_store
                        .commit(InstanceSnapshot::capture(&rt, label.clone()));
                }
                let retained = rt.retained_count();
                if retained > 0 {
                    inst.ctx
                        .state_store
                        .note_delta(u64::from(retained), u64::from(rt.metrics().launched));
                }
                // Stage boundaries: the submission path measured
                // route/validate (the worker folded its build time
                // into validate), the build job stamped the
                // queue-wait and execute starts; completion is now.
                let now = Instant::now();
                let timings = StageTimings {
                    route_ns: dur_ns(inst.submit.route),
                    validate_ns: dur_ns(inst.submit.validate),
                    queue_wait_ns: dur_ns(
                        inst.dequeued_at.saturating_duration_since(inst.enqueued_at),
                    ),
                    execute_ns: dur_ns(now.saturating_duration_since(inst.exec_start)),
                    e2e_ns: dur_ns(now.saturating_duration_since(inst.submit.t0)),
                };
                let deadline_exceeded = inst.deadline.is_some_and(|d| now > d);
                // Seal every output of the recording inside this
                // critical section, so speculative stragglers landing
                // afterwards are excluded from the delivered journal,
                // the tape and the WAL identically and a journal
                // reconstructed from the WAL stays byte-equal to the
                // captured one. Journals are wall-clock free: time
                // stays 0, matching the record built below. A tape's
                // sink error leaves the stream footerless (readers
                // reject it as truncated) and is surfaced on the
                // result.
                let sealed = rt.seal(
                    0,
                    if deadline_exceeded {
                        SealOutcome::DeadlineExceeded
                    } else {
                        SealOutcome::Completed
                    },
                );
                finished = Some(InstanceResult {
                    record: ExecutionRecord::from_runtime(&rt, 0),
                    elapsed: now.saturating_duration_since(inst.submit.t0),
                    shard: inst.ctx.index,
                    instance_id: inst.id,
                    label: inst.label.clone(),
                    journal: sealed.journal,
                    journal_error: sealed.tape_error.map(|e| e.to_string()),
                    deadline_exceeded,
                    stage_timings: Some(timings),
                });
            }
        }
        let ctx = &inst.ctx;
        if let Some(result) = finished {
            ctx.live.lock().remove(&inst.id);
            if let Some(t) = &result.stage_timings {
                ctx.tele.record_timings(t);
                ctx.spans.record(SpanRecord {
                    instance_id: inst.id,
                    shard: ctx.index,
                    label: result.label.clone(),
                    timings: *t,
                    deadline_exceeded: result.deadline_exceeded,
                });
            }
            if result.deadline_exceeded {
                ctx.tele.instance_deadline_exceeded();
            }
            ctx.tele.instance_completed();
            // Publish before sending, so a subscriber that reacts to a
            // delivered result always finds its Completed event.
            ctx.events
                .publish(ctx.index, |clock| InstanceEvent::Completed {
                    clock,
                    instance_id: inst.id,
                    shard: ctx.index,
                });
            // Ignore send failure: the caller may have dropped the ticket.
            let _ = inst.done_tx.send(result);
            return;
        }
        for (attr, inputs) in launches {
            let inst2 = Arc::clone(inst);
            let dispatched = ctx.pool.spawn(Box::new(move || {
                // Execute the (foreign or synthesis) task body on the
                // worker thread — this is the "external system" call.
                // With memoization on, an identical (task, inputs)
                // computed by any earlier request short-circuits the
                // body; everything around it — launch accounting,
                // journal frames, completion delivery — is unchanged,
                // which is what keeps recorded tapes byte-identical
                // whether or not the cache hits.
                let schema = &inst2.schema;
                let value = match &inst2.ctx.memo {
                    Some(memo) => {
                        // The memo table is keyed under the schema's
                        // fingerprint (cached on the schema).
                        let fp = schema_fingerprint(schema);
                        memo.lookup(fp, attr, &inputs).unwrap_or_else(|| {
                            let v = schema.attr(attr).task.compute(&inputs);
                            memo.insert(fp, attr, inputs, v.clone());
                            v
                        })
                    }
                    None => schema.attr(attr).task.compute(&inputs),
                };
                {
                    let mut rt = inst2.runtime.lock();
                    rt.complete(attr, value);
                }
                Self::pump(&inst2);
            }));
            if !dispatched {
                // Every worker of this shard is dead; the remaining
                // launches can never run either. Dropping them (and
                // this instance's last Arcs with them) surfaces
                // ServerGone on the ticket instead of wedging it.
                break;
            }
        }
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // The instance died without delivering — a task body panicked
        // and the caught unwind released its references.
        let rt = self.runtime.get_mut();
        if !rt.is_sealed() {
            let wal = rt.recorder().and_then(JournalWriter::wal);
            self.ctx.abandon(self.id, wal);
        }
        // This was the last reference: no job (not even a speculative
        // straggler) can touch the runtime anymore, so its buffers can
        // be recycled into the shard's construction arena. The final
        // ExecutionRecord was snapshotted at completion, before this.
        self.ctx.scratch.put(rt.reclaim());
    }
}

/// Upper bound on pooled construction buffers per shard. Enough to
/// cover a deep job queue of builds without the arena itself becoming
/// a memory hog when traffic bursts.
const SCRATCH_POOL_CAP: usize = 32;

/// Per-shard arena of reclaimed [`RuntimeScratch`] buffers: retiring
/// instances push their construction vectors here and the next build
/// on the same shard pops instead of allocating. Take and put both
/// happen on the shard's own threads, so the mutex is effectively
/// uncontended.
struct ScratchPool {
    slots: Mutex<Vec<RuntimeScratch>>,
}

impl ScratchPool {
    fn new() -> ScratchPool {
        ScratchPool {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> RuntimeScratch {
        self.slots.lock().pop().unwrap_or_default()
    }

    fn put(&self, scratch: RuntimeScratch) {
        let mut slots = self.slots.lock();
        if slots.len() < SCRATCH_POOL_CAP {
            slots.push(scratch);
        }
    }
}

/// Everything the instances of one shard share, owned once: the
/// private worker pool, the lifecycle counters and stage histograms,
/// the shard's slice of the live-instance table, the construction
/// arena, and handles onto the server-wide event hub, span ring,
/// snapshot store and memo table. The [`Shard`] and every build job
/// and [`Instance`] routed to it hold one `Arc` of it.
struct ShardCtx {
    index: usize,
    pool: WorkerPool,
    /// Shard-local lifecycle counters and stage histograms: workers
    /// update them with zero cross-shard contention;
    /// [`EngineServer::stats`] and [`EngineServer::telemetry`] read
    /// them at snapshot time.
    tele: Arc<ShardTelemetry>,
    /// The shard's slice of the live-instance table: id → display name.
    live: Mutex<HashMap<u64, String>>,
    events: Arc<EventHub>,
    /// The server-wide span ring (shared: spans are one-per-completion
    /// rare, unlike the five-samples-per-instance histograms).
    spans: Arc<SpanRecorder>,
    /// Arena of reclaimed runtime-construction buffers; a runtime's
    /// buffers return to it when its instance drops.
    scratch: ScratchPool,
    /// The server-wide snapshot store (shared: commits are
    /// one-per-labeled-completion rare; lookups hash to their own
    /// internal shard). Labeled completions commit their stabilized
    /// state here for future delta resubmissions.
    state_store: Arc<StateStore>,
    /// The server-wide memo table, when the server was built with
    /// [`ServerBuilder::memoize`]; consulted before every task body.
    memo: Option<Arc<MemoTable>>,
}

impl ShardCtx {
    /// The one abandonment routine: instance `id` was admitted but will
    /// never deliver — a task body panicked and the caught unwind
    /// released its last reference ([`Instance::drop`]), its runtime
    /// build failed, or the shard's pool is gone. It is no longer in
    /// flight; account for it so the counters stay honest, and tell
    /// subscribers which instance was lost.
    fn abandon(&self, id: u64, wal: Option<&WalRecorder>) {
        self.live.lock().remove(&id);
        self.tele.instance_abandoned();
        // A durable abandoned instance is sealed as such: its
        // lifecycle *did* end (delivering nothing), and recovery must
        // not re-execute an instance the caller was told (via
        // ServerGone) never delivered — re-running a flow whose task
        // body panics deterministically would panic again forever.
        if let Some(wal) = wal {
            wal.seal(SealOutcome::Abandoned);
        }
        self.events
            .publish(self.index, |clock| InstanceEvent::Abandoned {
                clock,
                instance_id: id,
                shard: self.index,
            });
    }
}

/// One shard: a schema-registry replica, an id sequence, and the
/// [`ShardCtx`] its instances run against.
struct Shard {
    workers: usize,
    schemas: RwLock<HashMap<String, Arc<Schema>>>,
    /// Shard-local instance-id sequence: the k-th id allocated by
    /// shard `i` of an `N`-shard server is `k·N + i`, so the id spaces
    /// are disjoint without cross-shard coordination and `id mod N`
    /// recovers the owner.
    next_k: AtomicU64,
    ctx: Arc<ShardCtx>,
}

/// A request that passed [`EngineServer::validate`]: its schema is
/// resolved and nothing about it can be rejected synchronously any
/// more, but nothing has been consumed, logged or started yet.
struct Validated {
    request: Request,
    schema: Arc<Schema>,
    timings: SubmitTimings,
}

/// An admitted request waiting for its runtime to be built on the
/// owning shard's worker pool. Everything the worker needs is resolved
/// on the submitting thread; the build job owns it outright.
struct PendingStart {
    request: Request,
    schema: Arc<Schema>,
    /// The request's strategy with the server default already applied.
    strategy: Strategy,
    /// Write-ahead output for durable requests; the acceptance
    /// record is on the lane before the build job is enqueued.
    wal: Option<WalRecorder>,
    done_tx: Sender<InstanceResult>,
    deadline: Option<Instant>,
    timings: SubmitTimings,
}

impl Shard {
    fn new(
        index: usize,
        workers: usize,
        events: Arc<EventHub>,
        spans: Arc<SpanRecorder>,
        state_store: Arc<StateStore>,
        memo: Option<Arc<MemoTable>>,
    ) -> Result<Shard, ServerBuildError> {
        let tele = Arc::new(ShardTelemetry::new());
        let pool = WorkerPool::new(index, workers, Arc::clone(&tele)).map_err(|source| {
            ServerBuildError {
                shard: index,
                source,
            }
        })?;
        Ok(Shard {
            workers,
            schemas: RwLock::new(HashMap::new()),
            next_k: AtomicU64::new(0),
            ctx: Arc::new(ShardCtx {
                index,
                pool,
                tele,
                live: Mutex::new(HashMap::new()),
                events,
                spans,
                scratch: ScratchPool::new(),
                state_store,
                memo,
            }),
        })
    }

    fn schema_for(&self, schema_name: &str) -> Result<Arc<Schema>, SubmitError> {
        self.schemas
            .read()
            .get(schema_name)
            .cloned()
            .ok_or_else(|| SubmitError::UnknownSchema(schema_name.to_string()))
    }

    /// Allocate `count` consecutive local sequence numbers; returns
    /// the first. One uncontended fetch_add covers a whole batch.
    fn alloc_seq(&self, count: u64) -> u64 {
        self.next_k.fetch_add(count, Ordering::Relaxed)
    }

    /// The instance id of this shard's local sequence number `k` on an
    /// `nshards`-shard server.
    fn id_for(&self, k: u64, nshards: u64) -> u64 {
        k * nshards + self.ctx.index as u64
    }
}

/// Worker-side half of submission: build the instance runtime (reusing
/// the shard's construction arena) and pump the first scheduling
/// round. Running on the owning shard's pool preserves tape
/// determinism: on a 1-worker shard every job — including this build —
/// is enqueued and executed by that single worker after the one
/// submission handoff, so recorded fan-out executions stay
/// byte-deterministic.
fn build_and_pump(ctx: Arc<ShardCtx>, id: u64, pending: PendingStart, enqueued_at: Instant) {
    let build_start = Instant::now();
    let PendingStart {
        request,
        schema,
        strategy,
        wal,
        done_tx,
        deadline,
        mut timings,
    } = pending;
    let built = build_runtime(
        ctx.scratch.take(),
        Arc::clone(&schema),
        strategy,
        &request,
        wal.clone(),
        &ctx.state_store,
    );
    let Ok(runtime) = built else {
        // Validation already passed on the submitting thread, so the
        // only failure left is the request's one-shot streaming sink
        // being stolen by a concurrent resubmission racing this build.
        // The instance was admitted; account it abandoned and drop
        // `done_tx`, surfacing ServerGone.
        ctx.abandon(id, wal.as_ref());
        return;
    };
    let built_at = Instant::now();
    timings.validate += built_at.saturating_duration_since(build_start);
    let inst = Arc::new(Instance {
        id,
        ctx,
        schema,
        runtime: Mutex::new(runtime),
        submit: timings,
        enqueued_at,
        dequeued_at: build_start,
        exec_start: built_at,
        done_tx,
        label: request.label,
        deadline,
    });
    Instance::pump(&inst);
}

/// Build one validated request's runtime, with the flight recorder it
/// asked for inside, without starting anything. Callers run
/// [`EngineServer::validate`] first; for a durable request the
/// lifecycle record must already be on the lane, because constructing
/// the runtime streams the instance's eager-initialization frames into
/// `wal` — frames must never precede their lifecycle record on disk
/// (the build job is enqueued after the acceptance append, and the
/// frames stream from the same shard, so the lane ordering holds).
///
/// A delta resubmission resolves its prior snapshot here — from the
/// request itself ([`Request::delta`]) or from `state_store` by label
/// ([`Request::delta_by_label`]) — and the retained slice of its plan
/// is spliced into the runtime at construction. Any resolution miss
/// (label not committed yet, snapshot from an older schema revision)
/// degrades to a cold run: the outcome is identical either way, delta
/// is purely a work-avoidance hint.
fn build_runtime(
    scratch: RuntimeScratch,
    schema: Arc<Schema>,
    strategy: Strategy,
    request: &Request,
    wal: Option<WalRecorder>,
    state_store: &StateStore,
) -> Result<InstanceRuntime, SubmitError> {
    let plan = match &request.delta {
        None => None,
        Some(DeltaSource::Prior(prior)) => plan_delta(&schema, prior, &request.sources).ok(),
        Some(DeltaSource::Label) => request
            .label
            .as_deref()
            .and_then(|label| state_store.lookup(schema_fingerprint(&schema), label))
            .and_then(|prior| plan_delta(&schema, &prior, &request.sources).ok()),
    };
    let retained = plan.as_ref().map_or(&[][..], |p| p.retained.as_slice());
    // Validation ran, so a consumed sink is all that can be wrong.
    let recorder =
        recorder_for(request, &schema, strategy, wal).map_err(|_| SubmitError::StreamConsumed)?;
    InstanceRuntime::with_options_retained(
        schema,
        strategy,
        &request.sources,
        retained,
        request.options,
        recorder,
        scratch,
    )
    .map_err(SubmitError::Sources)
}

/// Submission-path stage boundaries, measured by
/// [`EngineServer::validate`] / [`EngineServer::admit`] and carried
/// into the [`Instance`] so the completion path can assemble the full
/// [`StageTimings`].
struct SubmitTimings {
    /// Entry into `submit` / `submit_many` — zero point of the `e2e`
    /// stage and of the request's deadline budget.
    t0: Instant,
    /// Validation entry → schema resolved on the routed shard.
    route: Duration,
    /// Resolved → request validated, lifecycle record appended
    /// (durable requests), and runtime built.
    validate: Duration,
}

/// The sharded multi-threaded decision-flow execution server.
///
/// Built with [`EngineServer::builder`] — the single construction
/// surface: shard layout, durability, event capacity, and memoization
/// are all [`ServerBuilder`] knobs.
pub struct EngineServer {
    shards: Vec<Shard>,
    strategy: Strategy,
    /// Round-robin shard cursor for submissions — the only cross-shard
    /// state on the submission path (one relaxed fetch_add); instance
    /// ids themselves come from per-shard sequences.
    route_cursor: AtomicUsize,
    /// Per-subscriber, per-lane buffer capacity of [`subscribe`]
    /// streams ([`ServerBuilder::event_capacity`]).
    ///
    /// [`subscribe`]: EngineServer::subscribe
    event_capacity: usize,
    events: Arc<EventHub>,
    /// Server-wide ring of recent completed-instance spans.
    spans: Arc<SpanRecorder>,
    /// Versioned snapshots of sealed labeled instances, serving
    /// [`Request::delta_by_label`] resubmissions.
    state_store: Arc<StateStore>,
    /// Cross-request memo table, present iff the server was built
    /// with [`ServerBuilder::memoize`].
    memo: Option<Arc<MemoTable>>,
    /// The durable event store, present iff the server was built with
    /// [`ServerBuilder::durable`].
    store: Option<Arc<EventStore>>,
    /// Latched by the first [`EngineServer::recover_pending`] call that
    /// validates the whole pending set, so recovery re-enqueues each
    /// crashed instance exactly once.
    recovered_once: AtomicBool,
}

impl Drop for EngineServer {
    fn drop(&mut self) {
        // A worker thread can hold an instance's last `Arc` (and with
        // it the store's) for a moment after the final ticket
        // resolves, so the WAL appender lanes may outlive this drop
        // with a channel backlog still volatile. The barrier makes
        // every record appended by finished instances durable before
        // the handle goes away — reopening the same directory then
        // scans a complete log instead of racing the stragglers.
        if let Some(store) = &self.store {
            let _ = store.sync();
        }
    }
}

/// Why [`ServerBuilder::build`] failed: either the worker pools could
/// not be built or the durable store refused to open (IO failure, or
/// corruption that recovery cannot safely skip).
#[derive(Debug)]
pub enum ServerOpenError {
    /// Worker-thread spawning failed.
    Build(ServerBuildError),
    /// The event store could not be opened or scanned.
    Store(StoreError),
}

impl std::fmt::Display for ServerOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerOpenError::Build(e) => write!(f, "{e}"),
            ServerOpenError::Store(e) => write!(f, "failed to open the event store: {e}"),
        }
    }
}

impl std::error::Error for ServerOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerOpenError::Build(e) => Some(e),
            ServerOpenError::Store(e) => Some(e),
        }
    }
}

/// Why [`EngineServer::recover_pending`] could not re-enqueue a
/// crashed instance. Recovery is all-or-nothing over the pending set:
/// the first unrecoverable instance aborts it with nothing re-enqueued,
/// so an operator fixes the registry (or inspects the store with
/// `dflow-store`) and calls again rather than silently losing accepted
/// work.
#[derive(Debug)]
pub enum RecoverError {
    /// The server has no durable store (built without
    /// [`ServerBuilder::durable`]).
    NoStore,
    /// A pending instance names a schema that is not registered on
    /// this server.
    UnknownSchema {
        /// The instance awaiting re-execution.
        instance_id: u64,
        /// The schema name it was accepted against.
        schema: String,
    },
    /// The schema registered under the pending instance's name is
    /// structurally different from the one it was accepted against.
    FingerprintMismatch {
        /// The instance awaiting re-execution.
        instance_id: u64,
        /// The schema name it was accepted against.
        schema: String,
        /// Fingerprint persisted at acceptance.
        stored: u64,
        /// Fingerprint of the currently registered schema.
        current: u64,
    },
    /// A persisted source binding names an attribute the schema does
    /// not have (implies a fingerprint bug, so it is its own error).
    UnknownSource {
        /// The instance awaiting re-execution.
        instance_id: u64,
        /// The unresolvable source-attribute name.
        source: String,
    },
    /// The persisted strategy string no longer parses.
    BadStrategy {
        /// The instance awaiting re-execution.
        instance_id: u64,
        /// The unparsable strategy string.
        strategy: String,
    },
    /// Re-submission itself failed.
    Submit(SubmitError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoStore => {
                write!(
                    f,
                    "server has no durable store; build it with ServerBuilder::durable"
                )
            }
            RecoverError::UnknownSchema {
                instance_id,
                schema,
            } => write!(
                f,
                "pending instance {instance_id} names schema {schema:?}, which is not \
                 registered; register it before recover_pending"
            ),
            RecoverError::FingerprintMismatch {
                instance_id,
                schema,
                stored,
                current,
            } => write!(
                f,
                "pending instance {instance_id}: schema {schema:?} changed since acceptance \
                 (fingerprint {stored:#018x} on file, {current:#018x} registered)"
            ),
            RecoverError::UnknownSource {
                instance_id,
                source,
            } => write!(
                f,
                "pending instance {instance_id}: persisted source {source:?} does not resolve \
                 in the registered schema"
            ),
            RecoverError::BadStrategy {
                instance_id,
                strategy,
            } => write!(
                f,
                "pending instance {instance_id}: persisted strategy {strategy:?} does not parse"
            ),
            RecoverError::Submit(e) => write!(f, "re-submission failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Submit(e) => Some(e),
            _ => None,
        }
    }
}

/// Errors from [`EngineServer::submit`] and
/// [`EngineServer::submit_many`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No schema registered under this name.
    UnknownSchema(String),
    /// Source bindings invalid for the schema.
    Sources(SnapshotError),
    /// The request's [`Request::stream_journal`] sink was already
    /// consumed by an earlier submission of the same request.
    StreamConsumed,
    /// The request opted into [`Request::strict_analysis`] and the
    /// static analyzer found Error-level defects in the schema.
    Analysis(Vec<crate::analysis::Finding>),
    /// The request set [`Request::durable`] but the server has no
    /// event store (built without [`ServerBuilder::durable`]).
    DurableWithoutStore,
    /// The request set [`Request::durable`] with an inline schema;
    /// durability requires a registered schema name (task closures
    /// cannot be persisted).
    DurableInlineSchema,
    /// The write-ahead log rejected the acceptance record (its
    /// appender lane failed). Carries the store error's rendering —
    /// the request was *not* accepted.
    Store(String),
    /// The request carries an explicit [`Request::delta`] prior that
    /// can never apply — e.g. a snapshot captured under a different
    /// schema. (Label-resolved deltas degrade to a cold run instead:
    /// the label is a hint, the prior on the request is a claim.)
    Delta(DeltaError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownSchema(n) => write!(f, "unknown schema {n:?}"),
            SubmitError::Sources(e) => write!(f, "{e}"),
            SubmitError::StreamConsumed => write!(
                f,
                "the request's journal-stream sink was already consumed by an earlier \
                 submission; attach a fresh sink with Request::stream_journal"
            ),
            SubmitError::Analysis(findings) => {
                write!(
                    f,
                    "strict analysis rejected the schema with {} error-level finding(s):",
                    findings.len()
                )?;
                for finding in findings {
                    write!(f, "\n  {finding}")?;
                }
                Ok(())
            }
            SubmitError::DurableWithoutStore => write!(
                f,
                "durable request on a server without an event store; build the server with \
                 ServerBuilder::durable"
            ),
            SubmitError::DurableInlineSchema => write!(
                f,
                "durable request with an inline schema; durability requires a registered \
                 schema name (Request::named)"
            ),
            SubmitError::Store(e) => write!(f, "write-ahead log rejected the request: {e}"),
            SubmitError::Delta(e) => write!(f, "delta resubmission rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`EngineServer::register_checked`] refused a schema: the
/// analyzer's full [`Report`](crate::analysis::Report), whose
/// Error-level findings explain the rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaRejected {
    /// The complete analysis report (errors plus any warnings/infos).
    /// Boxed so the error variant stays small on the `Result` path.
    pub report: Box<crate::analysis::Report>,
}

impl std::fmt::Display for SchemaRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema registration rejected by static analysis:")?;
        for finding in self.report.errors() {
            write!(f, "\n  {finding}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SchemaRejected {}

/// Default buffer capacity of an [`EngineServer::subscribe`] stream.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Capacity of the server's completed-instance span ring (see
/// [`Telemetry::recent_spans`]).
const DEFAULT_SPAN_CAPACITY: usize = 256;

/// Configures and builds an [`EngineServer`] — the single construction
/// surface for shard layout, strategy, durability, event capacity,
/// and cross-request memoization.
///
/// ```no_run
/// # use decisionflow::server::EngineServer;
/// let server = EngineServer::builder()
///     .shards(4)
///     .workers_per_shard(2)
///     .strategy("PSE100".parse().unwrap())
///     .event_capacity(4096)
///     .build()?;
/// # Ok::<(), decisionflow::server::ServerOpenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    shards: Option<usize>,
    workers_per_shard: Option<usize>,
    strategy: Option<Strategy>,
    durable: Option<PathBuf>,
    event_capacity: usize,
    memoize: Option<usize>,
}

impl ServerBuilder {
    /// Number of shards. Default: the machine's available parallelism
    /// ([`EngineServer::default_shard_count`]).
    pub fn shards(mut self, shards: usize) -> ServerBuilder {
        assert!(shards > 0, "server needs at least one shard");
        self.shards = Some(shards);
        self
    }

    /// Worker threads per shard (default 1) — the shard's finite
    /// multiprogramming level. An instance is pinned to one shard, so
    /// the tasks *within* one instance parallelize up to this count;
    /// more shards raise cross-instance throughput instead.
    pub fn workers_per_shard(mut self, workers_per_shard: usize) -> ServerBuilder {
        assert!(
            workers_per_shard > 0,
            "worker pool needs at least one thread"
        );
        self.workers_per_shard = Some(workers_per_shard);
        self
    }

    /// Default execution strategy for requests that don't override it.
    /// Default: `PSE100`, the paper's headline strategy.
    pub fn strategy(mut self, strategy: Strategy) -> ServerBuilder {
        self.strategy = Some(strategy);
        self
    }

    /// Make the server **durable** over the event store at `dir`
    /// (created if absent): requests marked [`Request::durable`] are
    /// write-ahead-logged to one appender lane per shard.
    ///
    /// Building replays the log first — torn tails from a crash are
    /// tolerated, real corruption refuses to open — and every shard's
    /// id sequence resumes above every id on file, so recovered and
    /// new instances never collide. Accepted-but-unsealed instances
    /// are exposed via [`EventStore::recovered`]; call
    /// [`EngineServer::recover_pending`] (after re-registering
    /// schemas) to re-execute them.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> ServerBuilder {
        self.durable = Some(dir.into());
        self
    }

    /// Per-lane buffer capacity of every [`EngineServer::subscribe`]
    /// stream (default 1024 events per shard lane). Bounded so a slow
    /// subscriber can never wedge the server.
    pub fn event_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.event_capacity = capacity;
        self
    }

    /// Enable **cross-request memoization** with room for `capacity`
    /// entries: every task execution first consults a server-wide
    /// `(task, input values) → result` table, so identical work
    /// submitted by different requests computes once. Off by default —
    /// correct only when task bodies are deterministic functions of
    /// their inputs, which journal replay already demands; opt in when
    /// your tasks honor it. The table is capacity-bounded (FIFO
    /// eviction per internal shard) and observable through
    /// [`EngineServer::telemetry`] as `memo_hits` / `memo_misses` /
    /// `memo_evictions`.
    pub fn memoize(mut self, capacity: usize) -> ServerBuilder {
        assert!(capacity > 0, "memo table needs room for at least one entry");
        self.memoize = Some(capacity);
        self
    }

    /// Build the server: spawn the shard pools and, when
    /// [`durable`](ServerBuilder::durable) was set, open (and replay)
    /// the event store.
    pub fn build(self) -> Result<EngineServer, ServerOpenError> {
        let shards = self
            .shards
            .unwrap_or_else(EngineServer::default_shard_count);
        let strategy = match self.strategy {
            Some(s) => s,
            // invariant: "PSE100" is a valid strategy string by construction.
            None => "PSE100".parse().expect("default strategy parses"),
        };
        let server = EngineServer::build_layout(
            shards,
            self.workers_per_shard.unwrap_or(1),
            strategy,
            self.event_capacity,
            self.memoize,
        )
        .map_err(ServerOpenError::Build)?;
        match self.durable {
            Some(dir) => server.attach_store(&dir),
            None => Ok(server),
        }
    }
}

impl EngineServer {
    /// Default shard count: the machine's available parallelism
    /// (`1` when it cannot be determined).
    pub fn default_shard_count() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The one construction surface: configure shard layout,
    /// durability, and event capacity, then
    /// [`build`](ServerBuilder::build).
    ///
    /// ```no_run
    /// # use decisionflow::server::EngineServer;
    /// let server = EngineServer::builder()
    ///     .shards(4)
    ///     .strategy("PSE100".parse().unwrap())
    ///     .build()?;
    /// # Ok::<(), decisionflow::server::ServerOpenError>(())
    /// ```
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            shards: None,
            workers_per_shard: None,
            strategy: None,
            durable: None,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            memoize: None,
        }
    }

    /// Construct the server: `nshards` shards of `workers_per_shard`
    /// threads each.
    fn build_layout(
        nshards: usize,
        workers_per_shard: usize,
        strategy: Strategy,
        event_capacity: usize,
        memoize: Option<usize>,
    ) -> Result<EngineServer, ServerBuildError> {
        let events = Arc::new(EventHub::new(nshards));
        let spans = Arc::new(SpanRecorder::new(DEFAULT_SPAN_CAPACITY));
        // Both incremental-recomputation structures are internally
        // sharded to the server's shard count, so worker threads from
        // different shards rarely contend on the same lock.
        let state_store = Arc::new(StateStore::new(nshards));
        let memo = memoize.map(|capacity| Arc::new(MemoTable::new(nshards, capacity)));
        let shards = (0..nshards)
            .map(|i| {
                Shard::new(
                    i,
                    workers_per_shard,
                    Arc::clone(&events),
                    Arc::clone(&spans),
                    Arc::clone(&state_store),
                    memo.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EngineServer {
            shards,
            strategy,
            route_cursor: AtomicUsize::new(0),
            event_capacity,
            events,
            spans,
            state_store,
            memo,
            store: None,
            recovered_once: AtomicBool::new(false),
        })
    }

    /// Open the event store with one appender lane per shard and
    /// resume every shard's id sequence above everything on file.
    fn attach_store(mut self, path: &Path) -> Result<EngineServer, ServerOpenError> {
        let config = StoreConfig {
            lanes: self.shards.len(),
            ..StoreConfig::default()
        };
        let store = EventStore::open_with(path, config).map_err(ServerOpenError::Store)?;
        // Recovered ids keep their `id mod N` routing, so shard `i`
        // must resume at the smallest k with k·N + i ≥ the recovered
        // floor — new and recovered instances never collide.
        let floor = store.recovered().next_instance_id;
        let n = self.shards.len() as u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let k = floor.saturating_sub(i as u64).div_ceil(n);
            shard.next_k.store(k, Ordering::Relaxed);
        }
        self.store = Some(Arc::new(store));
        Ok(self)
    }

    /// The durable event store, present iff the server was built with
    /// [`ServerBuilder::durable`]. Use it to inspect
    /// [`recovered`](EventStore::recovered) state, force a group
    /// commit with [`sync`](EventStore::sync), or reconstruct any
    /// sealed instance's journal with
    /// [`fetch_journal`](EventStore::fetch_journal).
    pub fn store(&self) -> Option<&Arc<EventStore>> {
        self.store.as_ref()
    }

    /// The server's snapshot store: every **labeled** instance that
    /// completes commits its stabilized state here as an immutable
    /// [`InstanceSnapshot`] version, keyed by `(schema fingerprint,
    /// label)`. [`Request::delta_by_label`] resubmissions resolve
    /// their prior through this store; use the handle directly to
    /// [`lookup`](StateStore::lookup) a snapshot for inspection or an
    /// explicit [`Request::delta`], or to
    /// [`invalidate`](StateStore::invalidate) one whose upstream world
    /// changed out-of-band.
    pub fn state_store(&self) -> &Arc<StateStore> {
        &self.state_store
    }

    /// The cross-request memo table, present iff the server was built
    /// with [`ServerBuilder::memoize`]. Exposes hit/miss/eviction
    /// counters and occupancy for dashboards and tests.
    pub fn memo(&self) -> Option<&Arc<MemoTable>> {
        self.memo.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total worker threads across all shards.
    pub fn worker_count(&self) -> usize {
        self.shards.iter().map(|s| s.workers).sum()
    }

    /// The strategy instances run under when their [`Request`] does
    /// not override it.
    pub fn default_strategy(&self) -> Strategy {
        self.strategy
    }

    /// Register (or replace) a schema in the repository. The schema is
    /// replicated into every shard's registry so submissions never
    /// cross shard boundaries to resolve it.
    pub fn register(&self, name: impl Into<String>, schema: Arc<Schema>) {
        let name = name.into();
        for shard in &self.shards {
            shard
                .schemas
                .write()
                .insert(name.clone(), Arc::clone(&schema));
        }
    }

    /// [`register`](EngineServer::register) with a static-analysis
    /// gate: the schema is analyzed first ([`crate::analysis::check`])
    /// and registration is refused when the report carries any
    /// Error-level finding — a schema whose target can never stabilize
    /// to a value should be rejected at the repository boundary, not
    /// at the millionth submission. On success the full report is
    /// returned so callers can log warnings (dead attributes,
    /// unreachable branches) or consume the
    /// [`always_enabled`](crate::analysis::AnalysisSummary::always_enabled)
    /// optimization facts.
    pub fn register_checked(
        &self,
        name: impl Into<String>,
        schema: Arc<Schema>,
    ) -> Result<crate::analysis::Report, SchemaRejected> {
        let report = crate::analysis::check(&schema);
        if report.has_errors() {
            return Err(SchemaRejected {
                report: Box::new(report),
            });
        }
        self.register(name, schema);
        Ok(report)
    }

    /// Registered schema names.
    pub fn schema_names(&self) -> Vec<String> {
        // Every shard holds an identical replica; read the first.
        self.shards[0].schemas.read().keys().cloned().collect()
    }

    /// Aggregated point-in-time statistics: one [`ShardStats`] per
    /// shard (queue depth, in-flight instances, submission counters),
    /// read from the same per-shard registry atomics
    /// [`telemetry`](EngineServer::telemetry) snapshots.
    ///
    /// [`ShardStats`]: crate::engine::metrics::ShardStats
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            shards: self
                .shards
                .iter()
                .map(|s| s.ctx.tele.stats(s.ctx.index, s.workers))
                .collect(),
        }
    }

    /// Handle onto the server's runtime telemetry: per-stage latency
    /// histograms (shard-local, lock-free — aggregated only when the
    /// handle [`snapshot`](Telemetry::snapshot)s), lifecycle counters,
    /// and the recent-span ring. The handle holds `Arc`s, so it stays
    /// valid (and cheap to poll once a second from a dashboard thread)
    /// for as long as the caller keeps it — see
    /// `examples/server_dashboard.rs`.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            shards: self
                .shards
                .iter()
                .map(|s| Arc::clone(&s.ctx.tele))
                .collect(),
            spans: Arc::clone(&self.spans),
            extras: self
                .store
                .iter()
                .map(|s| Arc::clone(s.registry()))
                .chain(std::iter::once(self.state_store.registry()))
                .chain(self.memo.iter().flat_map(|m| m.registries()))
                .collect(),
        }
    }

    /// The live-instance table: one [`LiveInstance`] row for every
    /// submitted instance that has not completed, sorted by id.
    pub fn live_instances(&self) -> Vec<LiveInstance> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (&id, name) in shard.ctx.live.lock().iter() {
                out.push(LiveInstance {
                    instance_id: id,
                    shard: shard.ctx.index,
                    schema: name.clone(),
                });
            }
        }
        out.sort_unstable_by_key(|li| li.instance_id);
        out
    }

    /// Subscribe to the server's [`InstanceEvent`] stream with the
    /// configured buffer capacity
    /// ([`ServerBuilder::event_capacity`]). Events are published on
    /// every submission, completion, and abandonment to the owning
    /// shard's lane and merged by the subscriber; clocks are unique
    /// server-wide and strictly increasing within each shard — so
    /// pollers and dashboards can react to completions instead of
    /// spinning on [`Ticket::try_wait`].
    ///
    /// The per-lane buffers are bounded so a slow subscriber can never
    /// wedge the server: overflowing events are dropped for that
    /// subscriber and counted by [`ServerEvents::dropped`].
    pub fn subscribe(&self) -> ServerEvents {
        self.events.subscribe(self.event_capacity)
    }

    /// The shard owning instance id `id`: ids carry their shard in
    /// `id mod shard_count` (allocation interleaves the per-shard
    /// sequences), so routing is a single modulo over immutable state.
    fn shard_for(&self, id: u64) -> &Shard {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Pick the next submission's shard round-robin.
    fn route_shard(&self) -> &Shard {
        let c = self.route_cursor.fetch_add(1, Ordering::Relaxed);
        &self.shards[c % self.shards.len()]
    }

    /// Everything the store needs to re-execute `request` after a
    /// crash and to reconstruct its journal header byte-for-byte.
    fn persist_request(&self, id: u64, schema: &Schema, request: &Request) -> PersistedRequest {
        PersistedRequest {
            instance_id: id,
            schema: request
                .schema_name()
                // invariant: validate rejects durable requests with inline schemas.
                .expect("durable implies named")
                .to_string(),
            strategy: request.strategy.unwrap_or(self.strategy).to_string(),
            disable_backward: request.options.disable_backward,
            schema_fingerprint: schema_fingerprint(schema),
            sources: bind_sources(schema, &request.sources),
            label: request.label.clone(),
            deadline_ms: request
                .deadline
                .map(|d| d.as_millis().min(u64::MAX as u128) as u64),
        }
    }

    /// Admission step one — resolve and validate: look the schema up
    /// in `shard`'s registry replica and check the request against it
    /// (durable requirements, strict analysis, source binding, an
    /// explicit delta prior, the streaming sink) without consuming
    /// anything: no one-shot streaming sink is taken and no WAL record
    /// is sent, so a rejected request leaves no trace (the caller
    /// fixes it and resubmits). `t0` is the caller's entry time — the
    /// zero point of the `e2e` stage and of any [`Request::deadline`].
    ///
    /// Every synchronous rejection — unknown schema, invalid sources,
    /// strict-analysis findings, durable misconfiguration, an
    /// already-consumed streaming sink — comes from here; a failed lane
    /// append is the only one [`admit`](Self::admit) adds.
    fn validate(
        &self,
        shard: &Shard,
        request: Request,
        t0: Instant,
    ) -> Result<Validated, SubmitError> {
        let entered = Instant::now();
        if request.durable {
            if self.store.is_none() {
                return Err(SubmitError::DurableWithoutStore);
            }
            if request.schema_name().is_none() {
                return Err(SubmitError::DurableInlineSchema);
            }
        }
        let schema = match request.schema() {
            Some(inline) => Arc::clone(inline),
            // invariant: Request construction guarantees a schema or a name.
            None => shard.schema_for(request.schema_name().expect("named or inline"))?,
        };
        let routed = Instant::now();
        if request.strict_analysis {
            let report = crate::analysis::check(&schema);
            if report.has_errors() {
                return Err(SubmitError::Analysis(report.errors().cloned().collect()));
            }
        }
        request
            .sources
            .validate(&schema)
            .map_err(SubmitError::Sources)?;
        // An explicit prior snapshot that can never apply is a caller
        // bug — reject it synchronously instead of silently running
        // cold. (Label-resolved priors are checked at build time and
        // degrade to cold on any miss.)
        if let Some(DeltaSource::Prior(prior)) = &request.delta {
            let expected = schema_fingerprint(&schema);
            if prior.schema_fingerprint() != expected {
                return Err(SubmitError::Delta(DeltaError::SchemaMismatch {
                    expected,
                    got: prior.schema_fingerprint(),
                }));
            }
        }
        // Peek, don't take: the caller owns the request, so a sink
        // present here is still present when the build consumes it.
        if let Some(stream) = &request.journal_stream {
            if stream.is_consumed() {
                return Err(SubmitError::StreamConsumed);
            }
        }
        let validated = Instant::now();
        Ok(Validated {
            request,
            schema,
            timings: SubmitTimings {
                t0,
                route: routed.saturating_duration_since(entered),
                validate: validated.saturating_duration_since(routed),
            },
        })
    }

    /// Admission step two — the one place an instance enters the
    /// server: write-ahead-log it (durable requests), count it
    /// submitted, insert it into the live table, publish `Submitted`,
    /// and enqueue its runtime build on the owning shard's pool.
    /// `requeue` distinguishes a fresh acceptance (`None`: attempt 0,
    /// logs `RequestAccepted`) from a recovery re-execution
    /// (`Some(attempt)`: logs `RequestRequeued` — acceptance is already
    /// on file from the crashed run).
    ///
    /// Runtime construction is the expensive half of submission —
    /// moving it off the submitting thread and onto the owning shard's
    /// pool is what lets N shards accept (and build) N instances truly
    /// concurrently. The build's only failure mode (the one-shot sink
    /// stolen by a racing resubmission between validation and build)
    /// surfaces as [`ServerGone`] on the ticket, like any abandoned
    /// instance.
    fn admit(
        &self,
        shard: &Shard,
        id: u64,
        validated: Validated,
        requeue: Option<u32>,
    ) -> Result<Ticket, SubmitError> {
        let Validated {
            request,
            schema,
            mut timings,
        } = validated;
        let ctx = &shard.ctx;
        // Log the lifecycle record only after validation passed, and
        // *before* the build job is enqueued: building the runtime
        // streams the instance's eager-initialization frames, and both
        // the lifecycle record and those frames go down the same
        // per-shard lane channel — the append below happens-before the
        // enqueue, which happens-before the worker builds, so no frame
        // can ever precede its accept (or requeue) record on disk,
        // even if a crash tears the tail anywhere. The append counts
        // towards the `validate` stage.
        let wal = match self.store.as_ref().filter(|_| request.durable) {
            None => None,
            Some(store) => {
                let append_start = Instant::now();
                let event = match requeue {
                    None => StoreEvent::RequestAccepted {
                        request: self.persist_request(id, &schema, &request),
                    },
                    Some(attempt) => StoreEvent::RequestRequeued {
                        instance_id: id,
                        attempt,
                    },
                };
                store
                    .append(ctx.index, event)
                    .map_err(|e| SubmitError::Store(e.to_string()))?;
                timings.validate += append_start.elapsed();
                Some(WalRecorder::new(
                    Arc::clone(store),
                    ctx.index,
                    id,
                    requeue.unwrap_or(0),
                ))
            }
        };
        // An unrepresentable deadline (e.g. Duration::MAX budget)
        // saturates to "no deadline" rather than panicking.
        let deadline = request
            .deadline
            .and_then(|budget| timings.t0.checked_add(budget));
        let strategy = request.strategy.unwrap_or(self.strategy);
        let (done_tx, done_rx) = unbounded();
        ctx.tele.instance_submitted();
        ctx.live.lock().insert(id, request.display_name());
        let label = request.label.clone();
        ctx.events
            .publish(ctx.index, |clock| InstanceEvent::Submitted {
                clock,
                instance_id: id,
                shard: ctx.index,
                label,
            });
        let pending = PendingStart {
            request,
            schema,
            strategy,
            wal: wal.clone(),
            done_tx,
            deadline,
            timings,
        };
        let job_ctx = Arc::clone(ctx);
        let enqueued_at = Instant::now();
        if !ctx.pool.spawn(Box::new(move || {
            build_and_pump(job_ctx, id, pending, enqueued_at)
        })) {
            // Every worker of the shard is dead, so the build can never
            // run. The dropped job released `pending` — and with it
            // `done_tx`, surfacing ServerGone on the ticket.
            ctx.abandon(id, wal.as_ref());
        }
        Ok(Ticket::new(done_rx, id, ctx.index, deadline))
    }

    /// Submit one flow instance; returns immediately with a [`Ticket`].
    ///
    /// The request names a [`register`]ed schema (or carries one
    /// inline), binds its sources, and opts into journaling, a
    /// strategy override, a deadline, or a label:
    ///
    /// ```no_run
    /// # use decisionflow::api::Request;
    /// # use decisionflow::server::EngineServer;
    /// # use decisionflow::snapshot::SourceValues;
    /// # let server = EngineServer::builder().workers_per_shard(2).build().unwrap();
    /// # let sources = SourceValues::new();
    /// let ticket = server.submit(
    ///     Request::named("flow").sources(sources).record_journal(true),
    /// )?;
    /// let result = ticket.wait().expect("server alive");
    /// assert!(result.journal.is_some());
    /// # Ok::<(), decisionflow::server::SubmitError>(())
    /// ```
    ///
    /// For a [durable](Request::durable) request, the returned ticket
    /// acknowledges that the acceptance record is **queued** on its
    /// WAL lane, not yet fsynced — durability follows at the lane's
    /// next group commit. Call [`EventStore::sync`] via
    /// [`store`](EngineServer::store) when a durable acknowledgment
    /// is needed before acting on the ticket; see [`Request::durable`]
    /// for the full semantics.
    ///
    /// [`register`]: EngineServer::register
    pub fn submit(&self, request: impl Into<Request>) -> Result<Ticket, SubmitError> {
        let t0 = Instant::now();
        let shard = self.route_shard();
        let validated = self.validate(shard, request.into(), t0)?;
        let id = shard.id_for(shard.alloc_seq(1), self.shards.len() as u64);
        self.admit(shard, id, validated, None)
    }

    /// Re-execute every accepted-but-unsealed instance the store
    /// recovered, returning their tickets in instance-id order.
    ///
    /// Call it after re-registering the schemas the pending instances
    /// name (recovery verifies each schema's structural fingerprint
    /// against the one persisted at acceptance). Each re-execution
    /// keeps its original instance id — and therefore its shard and
    /// WAL lane — and logs a `RequestRequeued` record with a bumped
    /// attempt number, so the exactly-once seal invariant holds per
    /// attempt and [`EventStore::fetch_journal`] serves the sealed
    /// attempt's tape. Deadlines are re-armed from now: the original
    /// wall-clock budget is meaningless across a crash.
    ///
    /// Recovery is all-or-nothing, like [`submit_many`]: every pending
    /// request is rebuilt and validated before any is admitted, so an
    /// error ([`RecoverError::UnknownSchema`], say) re-enqueues nothing
    /// and logs nothing — fix the registry and call again. Once a call
    /// has admitted the pending set, every later call is a no-op
    /// returning no tickets — re-enqueueing the same instance twice
    /// would violate exactly-once.
    ///
    /// [`submit_many`]: EngineServer::submit_many
    pub fn recover_pending(&self) -> Result<Vec<Ticket>, RecoverError> {
        let store = self.store.as_ref().ok_or(RecoverError::NoStore)?;
        // A stale `false` only costs a validation pass that the swap
        // below then discards.
        // ordering: pairs with the latching swap below.
        if self.recovered_once.load(Ordering::SeqCst) {
            return Ok(Vec::new());
        }
        let mut validated = Vec::with_capacity(store.recovered().pending.len());
        for p in &store.recovered().pending {
            let req = &p.request;
            let id = req.instance_id;
            let shard = self.shard_for(id);
            let schema =
                shard
                    .schema_for(&req.schema)
                    .map_err(|_| RecoverError::UnknownSchema {
                        instance_id: id,
                        schema: req.schema.clone(),
                    })?;
            let current = schema_fingerprint(&schema);
            if current != req.schema_fingerprint {
                return Err(RecoverError::FingerprintMismatch {
                    instance_id: id,
                    schema: req.schema.clone(),
                    stored: req.schema_fingerprint,
                    current,
                });
            }
            let mut sources = SourceValues::new();
            for (name, value) in &req.sources {
                let attr = schema
                    .lookup(name)
                    .ok_or_else(|| RecoverError::UnknownSource {
                        instance_id: id,
                        source: name.clone(),
                    })?;
                sources.set(attr, value.clone());
            }
            let strategy: Strategy =
                req.strategy
                    .parse()
                    .map_err(|_| RecoverError::BadStrategy {
                        instance_id: id,
                        strategy: req.strategy.clone(),
                    })?;
            let mut rebuilt = Request::named(&req.schema)
                .sources(sources)
                .strategy(strategy)
                .options(RuntimeOptions {
                    disable_backward: req.disable_backward,
                })
                .durable(true);
            if let Some(label) = &req.label {
                rebuilt = rebuilt.label(label.clone());
            }
            if let Some(ms) = req.deadline_ms {
                rebuilt = rebuilt.deadline(Duration::from_millis(ms));
            }
            let v = self
                .validate(shard, rebuilt, Instant::now())
                .map_err(RecoverError::Submit)?;
            validated.push((shard, id, p.next_attempt, v));
        }
        // Latch only now that every pending request validated.
        // ordering: latch-before-admit; one winner re-enqueues.
        if self.recovered_once.swap(true, Ordering::SeqCst) {
            return Ok(Vec::new());
        }
        validated
            .into_iter()
            .map(|(shard, id, attempt, v)| {
                self.admit(shard, id, v, Some(attempt))
                    .map_err(RecoverError::Submit)
            })
            .collect()
    }

    /// Submit a batch of requests in one call: the route cursor is
    /// drawn once for the whole batch, every request is validated
    /// before any is admitted, and each shard hands out one contiguous
    /// id block. Apart from that up-front validation a batch is
    /// exactly a sequence of [`submit`](EngineServer::submit)s —
    /// same ids, same shards, same events, same stage timings — and
    /// journaling, strategy overrides, deadlines (measured from entry
    /// into this call), and labels are honored per request: a recorded
    /// batch is just a batch of recorded requests.
    ///
    /// Validation is all-or-nothing: if any request names an unknown
    /// schema or binds invalid sources, *no* instance is started,
    /// nothing is logged, and the first error is returned. On success
    /// the returned [`TicketBatch`] holds the tickets in submission
    /// order — wait on all of them with [`TicketBatch::wait_all`], or
    /// peel off [`Ticket`]s via [`TicketBatch::into_tickets`]. (A WAL
    /// lane failing mid-batch returns its error with the requests
    /// admitted before it already running; the lane is latched failed,
    /// so the server is degraded anyway.)
    pub fn submit_many<I>(&self, requests: I) -> Result<TicketBatch, SubmitError>
    where
        I: IntoIterator,
        I::Item: Into<Request>,
    {
        let t0 = Instant::now();
        let requests: Vec<Request> = requests.into_iter().map(Into::into).collect();
        let n = self.shards.len();
        // Route: one cursor draw spreads the batch round-robin.
        let start = self
            .route_cursor
            .fetch_add(requests.len(), Ordering::Relaxed);
        let shard_of = |i: usize| &self.shards[(start + i) % n];
        // Validate everything before anything is logged or started, so
        // any failure aborts the whole batch cleanly.
        let validated = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| self.validate(shard_of(i), request, t0))
            .collect::<Result<Vec<Validated>, SubmitError>>()?;
        // One contiguous block of each shard's id sequence.
        let mut counts = vec![0u64; n];
        for i in 0..validated.len() {
            counts[shard_of(i).ctx.index] += 1;
        }
        let mut next_k: Vec<u64> = self
            .shards
            .iter()
            .zip(&counts)
            .map(|(shard, &count)| shard.alloc_seq(count))
            .collect();
        // Admit in submission order; tickets come back in that order.
        let mut tickets = Vec::with_capacity(validated.len());
        for (i, v) in validated.into_iter().enumerate() {
            let shard = shard_of(i);
            let k = &mut next_k[shard.ctx.index];
            let id = shard.id_for(*k, n as u64);
            *k += 1;
            tickets.push(self.admit(shard, id, v, None)?);
        }
        Ok(TicketBatch::new(tickets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;
    use crate::snapshot::{complete_snapshot, SourceValues};
    use crate::state::AttrState;
    use crate::task::Task;
    use crate::value::Value;
    use std::sync::atomic::AtomicU32;

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
    fn strict_submission_rejects_error_schemas() {
        let server = server(1, "PSE100");
        let (dead, s) = dead_target_schema();

        // Plain submission still executes (the ⊥ target is a valid
        // complete snapshot); strict opts into rejection.
        let ok = server
            .submit(Request::with_schema(Arc::clone(&dead)).bind(s, 1i64))
            .unwrap();
        assert_eq!(
            ok.wait().unwrap().record.outcome("t").unwrap().state,
            AttrState::Disabled
        );

        let err = server
            .submit(
                Request::with_schema(dead)
                    .bind(s, 1i64)
                    .strict_analysis(true),
            )
            .unwrap_err();
        match err {
            SubmitError::Analysis(findings) => {
                assert!(findings
                    .iter()
                    .all(|f| f.severity == crate::analysis::Severity::Error));
                assert!(findings
                    .iter()
                    .any(|f| f.code == crate::analysis::Code::DeadAttr));
            }
            other => panic!("expected Analysis, got {other:?}"),
        }
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
        assert_eq!(server.default_strategy(), "PCE0".parse().unwrap());
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
        // Ids encode their owning shard: the k-th id minted by shard i
        // is k·N + i, so ownership is recoverable as id mod N.
        for id in 0..64u64 {
            assert_eq!(server.shard_for(id).ctx.index, (id % 4) as usize);
        }
        // Submission routing is round-robin, so sequential submissions
        // land on consecutive shards and the ids they mint cover all
        // residues.
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
        let mut last_clock: std::collections::HashMap<usize, u64> =
            std::collections::HashMap::new();
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

    /// Streaming capture through the server: the journal lands on the
    /// sink (sealed with a footer), the result's `journal` field stays
    /// `None`, and the reconstructed tape replays to the delivered
    /// record.
    #[test]
    fn streaming_capture_seals_tape_on_sink() {
        use crate::journal::{read_journal, MemorySink, ReplayEngine};

        let schema = slow_schema(5);
        let server = sharded(2, 1, "PSE100");
        server.register("flow", Arc::clone(&schema));
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 80i64);
        let buf = MemorySink::new();
        let request = Request::named("flow")
            .sources(sv.clone())
            .stream_journal(buf.clone());
        let result = server.submit(request.clone()).unwrap().wait().unwrap();
        assert!(
            result.journal.is_none(),
            "streamed journal lives on the sink, not in the result"
        );
        let bytes = buf.bytes();
        let journal = read_journal(&bytes[..]).expect("sealed stream parses");
        let replayed = ReplayEngine::new(Arc::clone(&schema), journal)
            .unwrap()
            .replay()
            .unwrap();
        assert_eq!(replayed.record, result.record);

        // The sink is one-shot: resubmitting the same request fails
        // loudly instead of recording nothing.
        assert_eq!(
            server.submit(request).map(|_| ()).unwrap_err(),
            SubmitError::StreamConsumed
        );
    }

    /// A dead sink must not fail (or wedge) the execution — the seal
    /// failure is surfaced on `InstanceResult::journal_error` — and a
    /// request rejected up front keeps its sink for the retry.
    #[test]
    fn streaming_sink_failure_is_surfaced_and_rejection_keeps_the_sink() {
        use crate::journal::{read_journal, MemorySink};
        use std::io::Write;

        struct DeadSink;
        impl Write for DeadSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink unplugged"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let schema = slow_schema(5);
        let server = sharded(1, 1, "PCE100");
        server.register("flow", Arc::clone(&schema));
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 80i64);

        let result = server
            .submit(
                Request::named("flow")
                    .sources(sv.clone())
                    .stream_journal(DeadSink),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(result.record.outcome("t").is_some(), "execution succeeded");
        assert!(result.journal.is_none());
        let msg = result.journal_error.expect("seal failure surfaced");
        assert!(msg.contains("sink unplugged"), "{msg}");

        // Rejected up front (missing sources): the sink survives, so
        // fixing the request and resubmitting records normally.
        let buf = MemorySink::new();
        let rejected = Request::named("flow").stream_journal(buf.clone());
        assert!(matches!(
            server.submit(rejected.clone()).map(|_| ()),
            Err(SubmitError::Sources(_))
        ));
        let result = server.submit(rejected.sources(sv)).unwrap().wait().unwrap();
        assert_eq!(result.journal_error, None);
        let journal = read_journal(&buf.bytes()[..]).expect("sink was preserved and sealed");
        assert!(!journal.frames.is_empty());
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
        let server = EngineServer::builder()
            .shards(1)
            .workers_per_shard(1)
            .strategy("PSE100".parse().unwrap())
            .memoize(64)
            .build()
            .unwrap();
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
}
