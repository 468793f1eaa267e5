//! The execution module of §3 (paper Figure 2), materialized as a
//! sharded multi-threaded server.
//!
//! ```text
//!              EngineServer::builder() ─▶ EngineServer
//!   register ──▶ schemas (one registry)      next_id (one counter)
//!   submit / submit_many ──▶ validate ──▶ id = next_id++, shard = id mod N ──┐
//!          ┌──────────────┬──────────────┬────────────────────────────────────┘
//!          ▼              ▼              ▼
//!       shard 0        shard 1   …   shard N−1    (N = available cores)
//!    ┌───────────┐  ┌───────────┐  ┌───────────┐
//!    │ instances │  │ instances │  │ instances │  live-instance slice
//!    │ workers   │  │ workers   │  │ workers   │  private thread pool
//!    │ arena     │  │ arena     │  │ arena     │  runtime scratch pool
//!    └───────────┘  └───────────┘  └───────────┘
//!          ├── shard registry   ──▶ ServerStats   (lifecycle counters, typed)
//!          ├── (same registry)  ──▶ Telemetry     (Prometheus/JSON snapshot)
//!          └── event hub        ──▶ ServerEvents  (one bounded queue per subscriber)
//! ```
//!
//! The engine "works in a multi-thread fashion, so that parallel
//! processing of multiple flow instances, and multiple tasks within
//! one instance is possible". Flow instances are mutually independent,
//! so the server shards them across cores **shared-nothing**: once an
//! instance is admitted, everything up to its completion happens on its
//! own shard — no cross-shard lock or counter (a subscriber's event
//! queue, when there is one, is the exception):
//!
//! * the **schema repository** is one map behind one lock
//!   ([`register`] writes it; only the submitting thread reads it, once
//!   per [`submit`] and once per [`submit_many`] batch — workers never
//!   touch it, an instance carries its `Arc<Schema>`);
//! * **instance ids are the submission order**: one counter, drawn
//!   after validation, so the i-th *admitted* instance of a fresh
//!   server has id `i` and runs on shard `i mod N`. A rejected request
//!   consumes no id; a [`submit_many`] batch draws one contiguous block;
//! * each shard owns a **slice of the instance table** (live
//!   instances routed to it) and a private pool of worker threads —
//!   the pool size plays the role of the external server's finite
//!   multiprogramming level;
//! * **admission is one pipeline**: `submit`, `submit_many` and
//!   `recover_pending` all run the same *validate* step (resolve the
//!   schema, check the request — nothing logged) and the same *admit*
//!   step (WAL accept/requeue record → count submitted → live-table
//!   insert → publish `Submitted` → enqueue the build), so a batch is
//!   exactly a sequence of single submissions validated up front;
//! * **runtime construction happens on the owning shard's pool**, not
//!   the submitting thread: `submit` validates, logs acceptance, and
//!   returns its [`Ticket`] immediately, while the expensive
//!   [`InstanceRuntime`] build — the same request-to-runtime function
//!   in-process [`run`](crate::api::run) uses — draws its buffers from
//!   a per-shard **allocation arena** of reclaimed runtimes
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
//! * lifecycle events go to **one bounded queue per subscriber**
//!   ([`ServerEvents`]): a full queue drops and counts, never blocks,
//!   and with no subscriber publishing is one atomic load.
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
//! One concern per file: this one holds the shard state (worker pool,
//! instance pump) and the server's public face; `server/errors.rs`
//! what it can refuse or fail with,
//! `server/builder.rs` construction, `server/submit.rs` the admission
//! pipeline and `server/recover.rs` crash recovery.
//!
//! [`register`]: EngineServer::register
//! [`submit`]: EngineServer::submit
//! [`submit_many`]: EngineServer::submit_many
//! [`subscribe`]: EngineServer::subscribe

mod builder;
mod errors;
mod recover;
mod submit;

pub use errors::{
    RecoverError, SchemaRejected, ServerBuildError, ServerGone, ServerOpenError, SubmitError,
};

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::api::{EventHub, InstanceEvent, LiveInstance, Request, ServerEvents, Ticket};
use crate::engine::{InstanceRuntime, RuntimeScratch, ServerStats, Strategy};
use crate::journal::{Journal, JournalWriter};
use crate::report::ExecutionRecord;
use crate::schema::{AttrId, Schema};
use crate::statestore::{InstanceSnapshot, MemoTable, StateStore};
use crate::store::{EventStore, SealOutcome, WalRecorder};
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
    pub journal: Option<Journal>,
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
    /// The owning shard.
    shard: Arc<Shard>,
    /// The flow the instance runs — immutable for its life, so task
    /// bodies read it here without taking the runtime lock.
    schema: Arc<Schema>,
    /// The runtime, with the instance's flight recorder inside it:
    /// this lock is the only one an event crosses, and it is what
    /// orders the frames of both outputs. Sealed by the first pump to
    /// observe completion, which is also what makes the result go out
    /// exactly once.
    runtime: Mutex<InstanceRuntime>,
    /// Entry into `submit` / `submit_many`: the zero point of
    /// [`InstanceResult::elapsed`], the `e2e` stage and the deadline.
    t0: Instant,
    /// When the runtime build finished and execution proper began;
    /// `exec_start → completion` is the `execute` stage.
    exec_start: Instant,
    /// The stages that ended before execution began, each filled where
    /// it ended: route and validate by the admission pipeline, the
    /// queue wait (and the build time, counted as validation) by the
    /// build job. Completion fills the other two on its copy.
    timings: StageTimings,
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
                    inst.shard
                        .state_store
                        .commit(InstanceSnapshot::capture(&rt, label.clone()));
                }
                let retained = rt.retained_count();
                if retained > 0 {
                    inst.shard
                        .state_store
                        .note_delta(u64::from(retained), u64::from(rt.metrics().launched));
                }
                let now = Instant::now();
                let elapsed = now.saturating_duration_since(inst.t0);
                let timings = StageTimings {
                    execute_ns: dur_ns(now.saturating_duration_since(inst.exec_start)),
                    e2e_ns: dur_ns(elapsed),
                    ..inst.timings
                };
                let deadline_exceeded = inst.deadline.is_some_and(|d| now > d);
                // Seal both outputs of the recording inside this
                // critical section, so speculative stragglers landing
                // afterwards are excluded from the delivered journal
                // and the WAL identically and a journal reconstructed
                // from the WAL stays byte-equal to the captured one.
                // Journals are wall-clock free: time stays 0, matching
                // the record built below.
                let journal = rt.seal(
                    0,
                    if deadline_exceeded {
                        SealOutcome::DeadlineExceeded
                    } else {
                        SealOutcome::Completed
                    },
                );
                finished = Some(InstanceResult {
                    record: ExecutionRecord::from_runtime(&rt, 0),
                    elapsed,
                    shard: inst.shard.index,
                    instance_id: inst.id,
                    label: inst.label.clone(),
                    journal,
                    deadline_exceeded,
                    stage_timings: Some(timings),
                });
            }
        }
        let shard = &inst.shard;
        if let Some(result) = finished {
            shard.live.lock().remove(&inst.id);
            if let Some(t) = &result.stage_timings {
                shard.tele.record_timings(t);
                shard.spans.record(SpanRecord {
                    instance_id: inst.id,
                    shard: shard.index,
                    label: result.label.clone(),
                    timings: *t,
                    deadline_exceeded: result.deadline_exceeded,
                });
            }
            if result.deadline_exceeded {
                shard.tele.instance_deadline_exceeded();
            }
            shard.tele.instance_completed();
            // Publish before sending, so a subscriber that reacts to a
            // delivered result always finds its Completed event.
            shard.events.publish(|clock| InstanceEvent::Completed {
                clock,
                instance_id: inst.id,
                shard: shard.index,
            });
            // Ignore send failure: the caller may have dropped the ticket.
            let _ = inst.done_tx.send(result);
            return;
        }
        for (attr, inputs) in launches {
            let inst2 = Arc::clone(inst);
            let dispatched = shard.pool.spawn(Box::new(move || {
                // Execute the (foreign or synthesis) task body on the
                // worker thread — this is the "external system" call.
                // With memoization on, an identical (task, inputs)
                // computed by any earlier request short-circuits the
                // body; everything around it — launch accounting,
                // journal frames, completion delivery — is unchanged,
                // which is what keeps recorded tapes byte-identical
                // whether or not the cache hits.
                let schema = &inst2.schema;
                let value = match &inst2.shard.memo {
                    Some(memo) => {
                        // Keyed under the schema's identity, not its
                        // fingerprint: the entry is a task body's
                        // result, and only the identity tells the
                        // bodies of two same-shaped flows apart.
                        let key = schema.identity();
                        memo.lookup(key, attr, &inputs).unwrap_or_else(|| {
                            let v = schema.attr(attr).task.compute(&inputs);
                            memo.insert(key, attr, inputs, v.clone());
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
            self.shard.abandon(self.id, wal);
        }
        // This was the last reference: no job (not even a speculative
        // straggler) can touch the runtime anymore, so its buffers can
        // be recycled into the shard's construction arena. The final
        // ExecutionRecord was snapshotted at completion, before this.
        self.shard.scratch.put(rt.reclaim());
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
/// uncontended. It buys about a tenth of `cpu_closed`: with `take()`
/// returning `RuntimeScratch::default()` the benchmark read 24.5k →
/// 22.0k instances/s and 75 → 85 µs of CPU per instance, the same way
/// on every one of four alternating pairs (measured for PR 20).
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

/// One shard, and everything its instances share, owned once: the
/// private worker pool, the lifecycle counters and stage histograms,
/// the shard's slice of the live-instance table, the construction
/// arena, and handles onto the server-wide event hub, span ring,
/// snapshot store and memo table. The server and every build job and
/// [`Instance`] routed here hold one `Arc` of it.
struct Shard {
    index: usize,
    workers: usize,
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
            index,
            workers,
            pool,
            tele,
            live: Mutex::new(HashMap::new()),
            events,
            spans,
            scratch: ScratchPool::new(),
            state_store,
            memo,
        })
    }

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
        self.events.publish(|clock| InstanceEvent::Abandoned {
            clock,
            instance_id: id,
            shard: self.index,
        });
    }
}

/// The sharded multi-threaded decision-flow execution server.
///
/// Built with [`EngineServer::builder`] — the single construction
/// surface: shard layout, durability, event capacity, and memoization
/// are all [`ServerBuilder`] knobs.
pub struct EngineServer {
    shards: Vec<Arc<Shard>>,
    strategy: Strategy,
    /// The schema repository. Written by [`register`], read by the
    /// submitting thread only (one read guard per submission or batch).
    ///
    /// [`register`]: EngineServer::register
    schemas: RwLock<HashMap<String, Arc<Schema>>>,
    /// The next instance id, which is also the submission ordinal:
    /// drawn once per admitted request (one block per batch), and
    /// `id mod N` is the shard. A durable server resumes it above
    /// every id on file.
    next_id: AtomicU64,
    /// Per-subscriber, per-shard buffer capacity of [`subscribe`]
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
            event_capacity: builder::DEFAULT_EVENT_CAPACITY,
            memoize: None,
        }
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

    /// Register (or replace) a schema in the repository — one map, so a
    /// replacement is atomic: every submission and every
    /// [`submit_many`](EngineServer::submit_many) batch resolves its
    /// names against either the old registry or the new one, never a
    /// mix. Instances already admitted keep the schema they resolved.
    pub fn register(&self, name: impl Into<String>, schema: Arc<Schema>) {
        self.schemas.write().insert(name.into(), schema);
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
        self.schemas.read().keys().cloned().collect()
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
                .map(|s| s.tele.stats(s.index, s.workers))
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
            shards: self.shards.iter().map(|s| Arc::clone(&s.tele)).collect(),
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
            for (&id, name) in shard.live.lock().iter() {
                out.push(LiveInstance {
                    instance_id: id,
                    shard: shard.index,
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
    /// every submission, completion, and abandonment; clocks are unique
    /// server-wide and strictly increasing within each shard — so
    /// pollers and dashboards can react to completions instead of
    /// spinning on [`Ticket::try_wait`].
    ///
    /// The buffer is bounded so a slow subscriber can never wedge the
    /// server: overflowing events are dropped for that subscriber and
    /// counted by [`ServerEvents::dropped`].
    pub fn subscribe(&self) -> ServerEvents {
        self.events.subscribe(self.event_capacity)
    }

    /// The shard owning instance id `id`: `id mod shard_count`, for a
    /// fresh id and a recovered one alike.
    fn shard_for(&self, id: u64) -> &Arc<Shard> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Submit one flow instance; returns immediately with a [`Ticket`].
    ///
    /// The request names a [`register`]ed schema (or carries one
    /// inline), binds its sources, and opts into journaling, a
    /// strategy override, a deadline, or a label. It is validated
    /// first; a rejected request consumes no id, logs nothing and
    /// shifts no later instance to another shard. An admitted one
    /// draws the next id — its submission ordinal — and runs on shard
    /// `id mod N`:
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
        let validated = self.validate(&self.schemas.read(), request.into(), t0)?;
        // ordering: the counter publishes nothing but its own value.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.admit(id, validated, None)
    }
}

#[cfg(test)]
mod tests;
