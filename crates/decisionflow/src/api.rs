//! The unified submission API: one [`Request`] in, one [`Ticket`]
//! (or [`RunReport`]) out.
//!
//! One execution model has one entry point; everything optional
//! (journaling, strategy override, deadlines, labels) is on the
//! request, not in the method name:
//!
//! * [`Request`] — a builder carrying the schema (by registered name,
//!   or inline as an `Arc<Schema>` for in-process runs), the
//!   [`SourceValues`], an optional per-request [`Strategy`] override,
//!   [`RuntimeOptions`], `record_journal`, and an optional
//!   deadline/label;
//! * [`run`] / [`Request::run`] — in-process unit-time execution,
//!   returning a [`RunReport`] whose `journal` is `Some` iff recording
//!   was requested (it and the server's build job turn the request
//!   into a runtime through one crate-private function, so an option
//!   means the same thing on either path);
//! * [`EngineServer::submit`] / [`EngineServer::submit_many`] — the
//!   server path, returning [`Ticket`]s with `wait`, `try_wait`,
//!   `wait_timeout`, and `wait_deadline`; the
//!   [`InstanceResult::journal`] field makes recording orthogonal
//!   instead of a parallel type family;
//! * [`EngineServer::subscribe`] — a bounded [`ServerEvents`] stream
//!   of [`InstanceEvent`]s (`Submitted` / `Completed` / `Abandoned`,
//!   each stamped with its shard and a per-shard-monotone logical
//!   clock): one bounded queue per subscriber that drops, and counts,
//!   what does not fit, so pollers react to completions instead of
//!   spinning on `try_wait` and no subscriber can stall a shard.
//!
//! Every server submission is also metered: the hot path records
//! per-stage latencies into the shard-local histograms of
//! [`crate::telemetry`] (snapshot via [`EngineServer::telemetry`]),
//! and each [`InstanceResult`] carries its own
//! [`StageTimings`](crate::telemetry::StageTimings) breakdown.
//!
//! [`EngineServer::submit`]: crate::server::EngineServer::submit
//! [`EngineServer::submit_many`]: crate::server::EngineServer::submit_many
//! [`EngineServer::subscribe`]: crate::server::EngineServer::subscribe
//! [`EngineServer::telemetry`]: crate::server::EngineServer::telemetry
//! [`InstanceResult`]: crate::server::InstanceResult
//! [`InstanceResult::journal`]: crate::server::InstanceResult::journal

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;

use crate::engine::{
    unit_exec, ExecError, InstanceRuntime, RuntimeOptions, RuntimeScratch, Strategy, UnitOutcome,
};
use crate::journal::{Journal, JournalWriter, Outputs};
use crate::schema::{AttrId, Schema};
use crate::server::{InstanceResult, ServerGone};
use crate::snapshot::SourceValues;
use crate::statestore::{plan_delta, DeltaError, InstanceSnapshot};
use crate::store::WalRecorder;
use crate::value::Value;

/// How a delta resubmission identifies the prior snapshot to splice
/// values from.
#[derive(Clone, Debug)]
pub(crate) enum DeltaSource {
    /// The prior [`InstanceSnapshot`] travels on the request itself —
    /// the only form in-process [`run`] accepts.
    Prior(Arc<InstanceSnapshot>),
    /// Resolve the prior by the request's label against the server's
    /// state store; a miss falls back to a cold run (counted in the
    /// store's `delta_lookup_misses`).
    Label,
}

/// How a [`Request`] identifies the schema to execute.
#[derive(Clone, Debug)]
pub(crate) enum RequestTarget {
    /// A name to resolve against the server's schema registry.
    Named(String),
    /// An inline schema — required for in-process [`run`], and
    /// accepted by the server without a registry lookup.
    Inline(Arc<Schema>),
}

/// One execution request: what to run, with which inputs, under which
/// options. Built fluently and consumed by [`run`] (in-process) or
/// [`EngineServer::submit`] / [`submit_many`] (server).
///
/// ```
/// use std::sync::Arc;
/// use decisionflow::api::Request;
/// use decisionflow::prelude::*;
///
/// let mut b = SchemaBuilder::new();
/// let s = b.source("s");
/// let t = b.synthesis("t", vec![s], Expr::Lit(true), |v| v[0].clone());
/// b.mark_target(t);
/// let schema = Arc::new(b.build().unwrap());
///
/// let report = Request::with_schema(Arc::clone(&schema))
///     .bind(s, 41i64)
///     .strategy("PSE100".parse().unwrap())
///     .record_journal(true)
///     .run()
///     .unwrap();
/// assert_eq!(report.outcome.runtime.stable_value(t), Some(&Value::Int(41)));
/// assert!(report.journal.is_some());
/// ```
///
/// [`EngineServer::submit`]: crate::server::EngineServer::submit
/// [`submit_many`]: crate::server::EngineServer::submit_many
#[derive(Clone, Debug)]
pub struct Request {
    pub(crate) target: RequestTarget,
    pub(crate) sources: SourceValues,
    pub(crate) strategy: Option<Strategy>,
    pub(crate) options: RuntimeOptions,
    pub(crate) record_journal: bool,
    pub(crate) deadline: Option<Duration>,
    pub(crate) label: Option<String>,
    pub(crate) durable: bool,
    pub(crate) delta: Option<DeltaSource>,
}

impl Request {
    fn with_target(target: RequestTarget) -> Request {
        Request {
            target,
            sources: SourceValues::new(),
            strategy: None,
            options: RuntimeOptions::default(),
            record_journal: false,
            deadline: None,
            label: None,
            durable: false,
            delta: None,
        }
    }

    /// Request execution of the schema registered on the server under
    /// `name`. Only submittable to an
    /// [`EngineServer`](crate::server::EngineServer); in-process
    /// [`run`] needs [`Request::with_schema`].
    pub fn named(name: impl Into<String>) -> Request {
        Request::with_target(RequestTarget::Named(name.into()))
    }

    /// Request execution of an inline schema: no registry lookup on
    /// the server, and the only form [`run`] accepts.
    pub fn with_schema(schema: Arc<Schema>) -> Request {
        Request::with_target(RequestTarget::Inline(schema))
    }

    /// Replace the source bindings wholesale.
    pub fn sources(mut self, sources: SourceValues) -> Request {
        self.sources = sources;
        self
    }

    /// Bind one source attribute (convenience over [`Request::sources`]).
    pub fn bind(mut self, attr: AttrId, value: impl Into<Value>) -> Request {
        self.sources.set(attr, value);
        self
    }

    /// Override the execution strategy for this request only. Server
    /// submissions fall back to the server's strategy when unset;
    /// in-process [`run`] requires it.
    pub fn strategy(mut self, strategy: Strategy) -> Request {
        self.strategy = Some(strategy);
        self
    }

    /// Set ablation [`RuntimeOptions`] for this request.
    pub fn options(mut self, options: RuntimeOptions) -> Request {
        self.options = options;
        self
    }

    /// Attach the flight recorder: the resulting [`RunReport::journal`]
    /// / [`InstanceResult::journal`] will be `Some`. A tape file is
    /// that journal's [`write_stream`](Journal::write_stream).
    ///
    /// [`InstanceResult::journal`]: crate::server::InstanceResult::journal
    pub fn record_journal(mut self, record: bool) -> Request {
        self.record_journal = record;
        self
    }

    /// Give the instance a wall-clock completion budget, measured from
    /// submission — entry into `submit`, or into `submit_many` for
    /// every member of a batch. The engine never cancels launched work (queries are
    /// committed once sent, exactly as the paper's Work measure
    /// assumes); the deadline bounds *waiting*, not execution: it is
    /// carried onto the [`Ticket`], where [`Ticket::deadline`] exposes
    /// it for [`Ticket::wait_deadline`].
    pub fn deadline(mut self, budget: Duration) -> Request {
        self.deadline = Some(budget);
        self
    }

    /// Tag the request; the label travels to [`InstanceResult::label`]
    /// and [`InstanceEvent::Submitted`].
    ///
    /// [`InstanceResult::label`]: crate::server::InstanceResult::label
    pub fn label(mut self, label: impl Into<String>) -> Request {
        self.label = Some(label.into());
        self
    }

    /// Make this request **durable**: the server write-ahead-logs its
    /// acceptance, every decision frame, and its seal to the
    /// [`EventStore`](crate::store::EventStore) it was opened over, so
    /// a crash between acceptance and completion re-executes it on
    /// recovery and its journal can be reconstructed byte-for-byte
    /// with [`EventStore::fetch_journal`] at any later time.
    ///
    /// Durable requests must target a **registered schema by name**
    /// ([`Request::named`]) — an inline `Arc<Schema>` carries task
    /// closures, which cannot be persisted — and the server must have
    /// been built with [`ServerBuilder::durable`]; violating either
    /// rejects the submission up front. Only meaningful for server
    /// submission; in-process [`run`] ignores it.
    ///
    /// **Acceptance durability is group-committed**: `submit`
    /// returning a [`Ticket`] means the acceptance
    /// record is *queued* on its WAL lane, not yet fsynced — a crash
    /// in that sub-millisecond window can lose the acceptance
    /// entirely (the caller still holds the error-free ticket, but
    /// recovery will not re-execute the request). Callers that need a
    /// durable acknowledgment should call [`EventStore::sync`] (via
    /// [`EngineServer::store`](crate::server::EngineServer::store)) —
    /// the explicit barrier that blocks until everything queued
    /// before it, acceptance and seal records alike, is on disk.
    /// Dropping the server takes the same barrier, so a clean
    /// shutdown never strands queued records.
    ///
    /// [`EventStore::fetch_journal`]: crate::store::EventStore::fetch_journal
    /// [`EventStore::sync`]: crate::store::EventStore::sync
    /// [`ServerBuilder::durable`]: crate::server::ServerBuilder::durable
    pub fn durable(mut self, durable: bool) -> Request {
        self.durable = durable;
        self
    }

    /// Resubmit against a **prior instance snapshot**: only the
    /// attributes downstream of sources whose bindings differ from the
    /// snapshot re-execute; everything outside that cone adopts its
    /// prior stabilized value at construction (journaled as `Retained`
    /// frames). The outcome is identical to a cold run — out-of-cone
    /// attributes depend only on unchanged sources, and the complete
    /// snapshot is a function of the sources — it just skips the work
    /// of re-deriving it.
    ///
    /// The snapshot must come from the same schema value — the same
    /// structure *and* the same task bodies; anything else rejects
    /// with [`RequestError::Delta`].
    /// Works both in-process ([`run`]) and on the server. See
    /// [`crate::statestore`] for the snapshot lifecycle.
    pub fn delta(mut self, prior: Arc<InstanceSnapshot>) -> Request {
        self.delta = Some(DeltaSource::Prior(prior));
        self
    }

    /// Delta resubmission by **label**: the server resolves the prior
    /// snapshot from its state store under (schema fingerprint,
    /// [`Request::label`]) — the snapshot a previous completion of the
    /// same labeled request committed. A lookup miss (nothing
    /// committed yet, the entry was invalidated, or the label was last
    /// used by another flow of the same structure) falls back to a
    /// cold run rather than failing, so the first submission of a
    /// label works unchanged. Server-only: in-process [`run`] has no
    /// store and rejects with [`RequestError::DeltaLabelInProcess`].
    pub fn delta_by_label(mut self) -> Request {
        self.delta = Some(DeltaSource::Label);
        self
    }

    /// The registered-schema name this request targets, if any.
    pub fn schema_name(&self) -> Option<&str> {
        match &self.target {
            RequestTarget::Named(n) => Some(n),
            RequestTarget::Inline(_) => None,
        }
    }

    /// The inline schema this request targets, if any.
    pub fn schema(&self) -> Option<&Arc<Schema>> {
        match &self.target {
            RequestTarget::Named(_) => None,
            RequestTarget::Inline(s) => Some(s),
        }
    }

    /// The name shown in live-instance tables: always the registered
    /// schema name for named requests (so filtering [`LiveInstance`]s
    /// by schema works whether or not a label is set); inline
    /// submissions, which have no schema name, fall back to the label
    /// or `"<inline>"`.
    pub(crate) fn display_name(&self) -> String {
        match (&self.target, &self.label) {
            (RequestTarget::Named(n), _) => n.clone(),
            (RequestTarget::Inline(_), Some(l)) => l.clone(),
            (RequestTarget::Inline(_), None) => "<inline>".to_string(),
        }
    }

    /// Execute this request in-process — see the free function [`run`].
    pub fn run(&self) -> Result<RunReport, ExecError> {
        run(self)
    }
}

impl From<(&str, SourceValues)> for Request {
    fn from((name, sources): (&str, SourceValues)) -> Request {
        Request::named(name).sources(sources)
    }
}

impl From<(String, SourceValues)> for Request {
    fn from((name, sources): (String, SourceValues)) -> Request {
        Request::named(name).sources(sources)
    }
}

impl From<(Arc<Schema>, SourceValues)> for Request {
    fn from((schema, sources): (Arc<Schema>, SourceValues)) -> Request {
        Request::with_schema(schema).sources(sources)
    }
}

/// Why a [`Request`] cannot execute in-process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request names a registered schema; resolving names needs a
    /// server registry. Use [`Request::with_schema`] for [`run`].
    NamedSchema(String),
    /// In-process runs have no server default to fall back on; set
    /// [`Request::strategy`].
    MissingStrategy,
    /// A delta resubmission could not be planned against its prior
    /// snapshot (e.g. the snapshot belongs to a different schema).
    Delta(DeltaError),
    /// [`Request::delta_by_label`] needs a server-side state store to
    /// resolve the label; in-process runs must carry the snapshot via
    /// [`Request::delta`].
    DeltaLabelInProcess,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::NamedSchema(n) => write!(
                f,
                "request names registered schema {n:?}; in-process runs need \
                 Request::with_schema(Arc<Schema>)"
            ),
            RequestError::MissingStrategy => write!(
                f,
                "in-process runs have no server default strategy; set Request::strategy"
            ),
            RequestError::Delta(e) => write!(f, "delta resubmission rejected: {e}"),
            RequestError::DeltaLabelInProcess => write!(
                f,
                "Request::delta_by_label resolves the prior snapshot against a server's \
                 state store; in-process runs must carry it via Request::delta(prior)"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// Result of an in-process [`run`]: the unit-time outcome plus the
/// captured journal iff [`Request::record_journal`] was set.
pub struct RunReport {
    /// Response time, metrics, and final runtime of the instance.
    pub outcome: UnitOutcome,
    /// The flight record — `Some` iff the request asked for one.
    pub journal: Option<Journal>,
}

impl std::fmt::Debug for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReport")
            .field("time_units", &self.outcome.time_units)
            .field("work", &self.outcome.metrics.work)
            .field(
                "journal_frames",
                &self.journal.as_ref().map(|j| j.frames.len()),
            )
            .finish_non_exhaustive()
    }
}

/// The one place a [`Request`] becomes an [`InstanceRuntime`], for
/// in-process [`run`] and the server's build job alike. The callers
/// resolve what only they can — `schema` from the request or the
/// registry, `strategy` with the server default applied, the `prior`
/// snapshot a delta request names or the state store holds under its
/// label, and `wal`, the write-ahead output of a durable request —
/// and this plans the delta, attaches the recorder the journaling
/// options ask for (memory, WAL, both or none) and builds the runtime
/// into `scratch`, with nothing started.
pub(crate) fn build_runtime(
    request: &Request,
    schema: &Arc<Schema>,
    strategy: Strategy,
    prior: Option<&InstanceSnapshot>,
    wal: Option<WalRecorder>,
    scratch: RuntimeScratch,
) -> Result<InstanceRuntime, ExecError> {
    let plan = prior
        .map(|prior| plan_delta(schema, prior, &request.sources))
        .transpose()
        .map_err(|e| ExecError::Request(RequestError::Delta(e)))?;
    let retained = plan.as_ref().map_or(&[][..], |p| p.retained.as_slice());
    let recorder = (request.record_journal || wal.is_some()).then(|| {
        JournalWriter::with_outputs(
            schema,
            strategy,
            &request.sources,
            request.options.disable_backward,
            Outputs {
                memory: request.record_journal,
                wal,
            },
        )
    });
    Ok(InstanceRuntime::with_options_retained(
        Arc::clone(schema),
        strategy,
        &request.sources,
        retained,
        request.options,
        recorder,
        scratch,
    )?)
}

/// Execute a request in-process under the infinite-resource unit-time
/// model (the §5 executor). Requires an inline schema
/// ([`Request::with_schema`]) and an explicit [`Request::strategy`].
pub fn run(request: &Request) -> Result<RunReport, ExecError> {
    let schema = match &request.target {
        RequestTarget::Inline(s) => s,
        RequestTarget::Named(n) => {
            return Err(ExecError::Request(RequestError::NamedSchema(n.clone())))
        }
    };
    let strategy = request
        .strategy
        .ok_or(ExecError::Request(RequestError::MissingStrategy))?;
    let prior = match &request.delta {
        None => None,
        Some(DeltaSource::Prior(prior)) => Some(prior.as_ref()),
        Some(DeltaSource::Label) => {
            return Err(ExecError::Request(RequestError::DeltaLabelInProcess))
        }
    };
    let runtime = build_runtime(
        request,
        schema,
        strategy,
        prior,
        None,
        RuntimeScratch::default(),
    )?;
    let (outcome, journal) = unit_exec::execute(runtime)?;
    Ok(RunReport { outcome, journal })
}

/// Map a non-blocking receive onto the shared wait contract.
fn polled<T>(res: Result<T, TryRecvError>) -> Result<Option<T>, ServerGone> {
    match res {
        Ok(v) => Ok(Some(v)),
        Err(TryRecvError::Empty) => Ok(None),
        Err(TryRecvError::Disconnected) => Err(ServerGone),
    }
}

/// Map a timed receive onto the shared wait contract.
fn timed<T>(res: Result<T, RecvTimeoutError>) -> Result<Option<T>, ServerGone> {
    match res {
        Ok(v) => Ok(Some(v)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(ServerGone),
    }
}

/// Handle to one submitted instance. All waits share a single
/// contract: `Ok(Some(result))` delivers, `Ok(None)` means *not yet*
/// (keep polling / timed out), `Err(ServerGone)` means the result can
/// never arrive — the instance was abandoned by a panicking task, or
/// the result was already taken.
pub struct Ticket {
    rx: Receiver<InstanceResult>,
    instance_id: u64,
    shard: usize,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("instance_id", &self.instance_id)
            .field("shard", &self.shard)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    pub(crate) fn new(
        rx: Receiver<InstanceResult>,
        instance_id: u64,
        shard: usize,
        deadline: Option<Instant>,
    ) -> Ticket {
        Ticket {
            rx,
            instance_id,
            shard,
            deadline,
        }
    }

    /// The server-assigned instance id (also on [`InstanceEvent`]s and
    /// in [`LiveInstance`] rows).
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The shard the instance was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The absolute deadline derived from [`Request::deadline`] at
    /// submission time, if one was set. Advisory: execution is never
    /// cancelled; pass it to [`Ticket::wait_deadline`] to stop waiting
    /// on time.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Block until the instance completes. Returns [`ServerGone`]
    /// (instead of panicking) when the result can never arrive.
    pub fn wait(self) -> Result<InstanceResult, ServerGone> {
        self.rx.recv().map_err(|_| ServerGone)
    }

    /// Non-blocking poll. `Ok(None)` means *not ready yet — keep
    /// polling*; `Err(ServerGone)` means the result can never arrive,
    /// so pollers must stop. Distinguishing the two is what keeps a
    /// poll loop from spinning forever on a result that is gone.
    pub fn try_wait(&self) -> Result<Option<InstanceResult>, ServerGone> {
        polled(self.rx.try_recv())
    }

    /// Block at most `timeout`; `Ok(None)` means the wait elapsed with
    /// the instance still running (the ticket stays usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<InstanceResult>, ServerGone> {
        timed(self.rx.recv_timeout(timeout))
    }

    /// Block until `deadline` at the latest; `Ok(None)` means the
    /// deadline passed with the instance still running.
    pub fn wait_deadline(&self, deadline: Instant) -> Result<Option<InstanceResult>, ServerGone> {
        timed(self.rx.recv_deadline(deadline))
    }
}

/// The handle returned by [`EngineServer::submit_many`]: one
/// [`Ticket`] per request, in submission order, plus
/// [`wait_all`](TicketBatch::wait_all) so callers stop hand-rolling
/// loops over `Vec<Ticket>`.
///
/// Per-ticket access stays available — [`TicketBatch::iter`] and
/// `IntoIterator` (by reference or by value) visit the tickets in
/// submission order.
///
/// [`EngineServer::submit_many`]: crate::server::EngineServer::submit_many
pub struct TicketBatch {
    tickets: Vec<Ticket>,
}

impl TicketBatch {
    pub(crate) fn new(tickets: Vec<Ticket>) -> TicketBatch {
        TicketBatch { tickets }
    }

    /// Number of tickets in the batch (one per submitted request).
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// True when the batch holds no tickets.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Iterate the per-request [`Ticket`]s, in submission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Ticket> {
        self.tickets.iter()
    }

    /// Block until **every** instance in the batch completes; results
    /// come back in submission order. A ticket whose instance was
    /// abandoned (task panic) yields `Err(ServerGone)` in its slot
    /// without poisoning the rest of the batch.
    pub fn wait_all(self) -> Vec<Result<InstanceResult, ServerGone>> {
        self.tickets.into_iter().map(|t| t.wait()).collect()
    }
}

impl std::fmt::Debug for TicketBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketBatch")
            .field("len", &self.tickets.len())
            .finish_non_exhaustive()
    }
}

impl IntoIterator for TicketBatch {
    type Item = Ticket;
    type IntoIter = std::vec::IntoIter<Ticket>;

    fn into_iter(self) -> Self::IntoIter {
        self.tickets.into_iter()
    }
}

impl<'a> IntoIterator for &'a TicketBatch {
    type Item = &'a Ticket;
    type IntoIter = std::slice::Iter<'a, Ticket>;

    fn into_iter(self) -> Self::IntoIter {
        self.tickets.iter()
    }
}

/// One row of [`EngineServer::live_instances`]: a submitted instance
/// that has not completed yet.
///
/// [`EngineServer::live_instances`]: crate::server::EngineServer::live_instances
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveInstance {
    /// Server-assigned instance id (matches [`Ticket::instance_id`]).
    pub instance_id: u64,
    /// Shard the instance is pinned to.
    pub shard: usize,
    /// The registered schema name; inline submissions (which have no
    /// schema name) show their label or `"<inline>"`.
    pub schema: String,
}

/// Lifecycle notification for one instance, stamped with a logical
/// clock that is **unique server-wide and strictly increasing within
/// each shard**: a subscriber sees any one shard's events in clock
/// order; no order is promised between events of different shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceEvent {
    /// The instance entered its shard's live table.
    Submitted {
        /// Logical event clock (per-shard-monotone, unique
        /// server-wide).
        clock: u64,
        /// Server-assigned instance id.
        instance_id: u64,
        /// Shard the instance was routed to.
        shard: usize,
        /// The request's label, if any.
        label: Option<String>,
    },
    /// The instance stabilized every target and delivered its result.
    Completed {
        /// Logical event clock (per-shard-monotone, unique
        /// server-wide).
        clock: u64,
        /// Server-assigned instance id.
        instance_id: u64,
        /// Shard that executed the instance.
        shard: usize,
    },
    /// The instance died without a result (a task body panicked).
    Abandoned {
        /// Logical event clock (per-shard-monotone, unique
        /// server-wide).
        clock: u64,
        /// Server-assigned instance id.
        instance_id: u64,
        /// Shard the instance was routed to.
        shard: usize,
    },
}

impl InstanceEvent {
    /// The logical clock stamped on this event: unique server-wide,
    /// strictly increasing within the event's shard.
    pub fn clock(&self) -> u64 {
        match self {
            InstanceEvent::Submitted { clock, .. }
            | InstanceEvent::Completed { clock, .. }
            | InstanceEvent::Abandoned { clock, .. } => *clock,
        }
    }

    /// The instance this event is about.
    pub fn instance_id(&self) -> u64 {
        match self {
            InstanceEvent::Submitted { instance_id, .. }
            | InstanceEvent::Completed { instance_id, .. }
            | InstanceEvent::Abandoned { instance_id, .. } => *instance_id,
        }
    }

    /// The shard the instance was routed to.
    pub fn shard(&self) -> usize {
        match self {
            InstanceEvent::Submitted { shard, .. }
            | InstanceEvent::Completed { shard, .. }
            | InstanceEvent::Abandoned { shard, .. } => *shard,
        }
    }
}

/// One subscriber's registration in the hub: the sending half of its
/// bounded queue and the loss counter it shares with the handle.
struct Sub {
    tx: Sender<InstanceEvent>,
    dropped: Arc<AtomicU64>,
}

/// Server-side event fan-out: one bounded queue per subscriber, fed
/// under one lock. The shards and instances hold one [`Arc<EventHub>`]
/// and publish through it; with no subscribers the publish path is a
/// single relaxed atomic load.
pub(crate) struct EventHub {
    subs: Mutex<Vec<Sub>>,
    /// Event counter, stamped under the `subs` lock: clocks are unique
    /// and every subscriber sees them in increasing order.
    clock: AtomicU64,
    /// Live subscriber count, shared with every [`ServerEvents`] so a
    /// dropped subscriber deactivates publishing without a hub
    /// back-reference.
    live_subs: Arc<AtomicUsize>,
    /// Shard count: a subscriber's queue holds its capacity per shard.
    lanes: usize,
}

impl EventHub {
    /// A hub for a server of `lanes` shards.
    pub(crate) fn new(lanes: usize) -> EventHub {
        EventHub {
            subs: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
            live_subs: Arc::new(AtomicUsize::new(0)),
            lanes: lanes.max(1),
        }
    }

    /// Publish one event to every subscriber without ever blocking: a
    /// full queue loses the event for that subscriber (its `dropped`
    /// counter ticks); a subscriber whose handle is gone is pruned.
    pub(crate) fn publish(&self, make: impl FnOnce(u64) -> InstanceEvent) {
        if self.live_subs.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut subs = self.subs.lock();
        let event = make(self.clock.fetch_add(1, Ordering::Relaxed));
        subs.retain(|s| match s.tx.try_send(event.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                s.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Attach a subscriber whose queue holds `capacity` events per
    /// shard.
    pub(crate) fn subscribe(&self, capacity: usize) -> ServerEvents {
        let (tx, rx) = bounded(capacity.max(1).saturating_mul(self.lanes));
        let dropped = Arc::new(AtomicU64::new(0));
        self.subs.lock().push(Sub {
            tx,
            dropped: Arc::clone(&dropped),
        });
        self.live_subs.fetch_add(1, Ordering::Relaxed);
        ServerEvents {
            rx,
            dropped,
            live_subs: Arc::clone(&self.live_subs),
        }
    }
}

/// A bounded subscription to a server's [`InstanceEvent`] stream,
/// created by [`EngineServer::subscribe`].
///
/// The queue is bounded so a slow consumer can never wedge the
/// server: when it is full, new events are *dropped* for this
/// subscriber (counted by [`ServerEvents::dropped`]) rather than
/// blocking the execution hot path. Any one shard's events arrive in
/// that shard's clock order. Receives share the ticket-wait contract:
/// `Ok(Some(_))` delivers, `Ok(None)` means nothing yet,
/// `Err(ServerGone)` means the server (and every in-flight instance)
/// is gone and the stream is drained.
///
/// [`EngineServer::subscribe`]: crate::server::EngineServer::subscribe
pub struct ServerEvents {
    rx: Receiver<InstanceEvent>,
    dropped: Arc<AtomicU64>,
    live_subs: Arc<AtomicUsize>,
}

impl std::fmt::Debug for ServerEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEvents")
            .field("buffered", &self.rx.len())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl ServerEvents {
    /// Block until the next event arrives.
    pub fn recv(&self) -> Result<InstanceEvent, ServerGone> {
        self.rx.recv().map_err(|_| ServerGone)
    }

    /// Non-blocking poll; `Ok(None)` = nothing pending right now.
    pub fn try_recv(&self) -> Result<Option<InstanceEvent>, ServerGone> {
        polled(self.rx.try_recv())
    }

    /// Block at most `timeout`; `Ok(None)` = the wait elapsed quietly.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<InstanceEvent>, ServerGone> {
        timed(self.rx.recv_timeout(timeout))
    }

    /// Events lost to this subscriber because its queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for ServerEvents {
    fn drop(&mut self) {
        // Publishers prune this subscriber on their next publish; the
        // live counter is what re-arms the fast no-subscriber exit
        // immediately.
        self.live_subs.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Draining iteration: yields events until the server is gone.
impl Iterator for ServerEvents {
    type Item = InstanceEvent;

    fn next(&mut self) -> Option<InstanceEvent> {
        self.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::SchemaBuilder;

    fn tiny_schema() -> (Arc<Schema>, AttrId, AttrId) {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = b.synthesis("t", vec![s], Expr::Lit(true), |v| v[0].clone());
        b.mark_target(t);
        (Arc::new(b.build().unwrap()), s, t)
    }

    #[test]
    fn builder_carries_every_field() {
        let (schema, s, _) = tiny_schema();
        let req = Request::with_schema(Arc::clone(&schema))
            .bind(s, 7i64)
            .strategy("PSE100".parse().unwrap())
            .options(RuntimeOptions {
                disable_backward: true,
            })
            .record_journal(true)
            .deadline(Duration::from_secs(5))
            .label("tagged")
            .durable(true);
        assert!(req.schema().is_some());
        assert_eq!(req.schema_name(), None);
        assert_eq!(req.display_name(), "tagged");
        assert!(req.record_journal);
        assert!(req.durable);
        assert_eq!(req.deadline, Some(Duration::from_secs(5)));
        assert!(req.options.disable_backward);

        let named = Request::named("flow");
        assert_eq!(named.schema_name(), Some("flow"));
        assert!(named.schema().is_none());
        assert_eq!(named.display_name(), "flow");
        assert_eq!(
            Request::named("flow").label("tag").display_name(),
            "flow",
            "a label never masks the schema name in live tables"
        );
        let inline = Request::with_schema(schema);
        assert_eq!(inline.display_name(), "<inline>");
    }

    #[test]
    fn run_requires_inline_schema_and_strategy() {
        let err = run(&Request::named("flow").strategy("PCE0".parse().unwrap())).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Request(RequestError::NamedSchema(ref n)) if n == "flow"
        ));
        assert!(!err.to_string().is_empty());

        let (schema, s, _) = tiny_schema();
        let err = run(&Request::with_schema(schema).bind(s, 1i64)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Request(RequestError::MissingStrategy)
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn run_executes_and_optionally_records() {
        let (schema, s, t) = tiny_schema();
        let plain = Request::with_schema(Arc::clone(&schema))
            .bind(s, 9i64)
            .strategy("PCE100".parse().unwrap())
            .run()
            .unwrap();
        assert_eq!(plain.outcome.runtime.stable_value(t), Some(&Value::Int(9)));
        assert!(plain.journal.is_none());

        let recorded = Request::with_schema(schema)
            .bind(s, 9i64)
            .strategy("PCE100".parse().unwrap())
            .record_journal(true)
            .run()
            .unwrap();
        let journal = recorded.journal.expect("requested journal");
        assert_eq!(journal.strategy, "PCE100");
        assert!(!journal.frames.is_empty());
    }

    #[test]
    fn request_from_tuples() {
        let (schema, s, _) = tiny_schema();
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        let r: Request = ("flow", sv.clone()).into();
        assert_eq!(r.schema_name(), Some("flow"));
        let r: Request = ("flow".to_string(), sv.clone()).into();
        assert_eq!(r.schema_name(), Some("flow"));
        let r: Request = (schema, sv).into();
        assert!(r.schema().is_some());
    }

    #[test]
    fn event_accessors_cover_all_variants() {
        let ev = InstanceEvent::Submitted {
            clock: 1,
            instance_id: 2,
            shard: 3,
            label: Some("x".into()),
        };
        assert_eq!((ev.clock(), ev.instance_id(), ev.shard()), (1, 2, 3));
        let ev = InstanceEvent::Completed {
            clock: 4,
            instance_id: 5,
            shard: 6,
        };
        assert_eq!((ev.clock(), ev.instance_id(), ev.shard()), (4, 5, 6));
        let ev = InstanceEvent::Abandoned {
            clock: 7,
            instance_id: 8,
            shard: 0,
        };
        assert_eq!((ev.clock(), ev.instance_id(), ev.shard()), (7, 8, 0));
    }

    #[test]
    fn hub_drops_for_full_subscriber_and_prunes_disconnected() {
        let hub = EventHub::new(1);
        let tight = hub.subscribe(1);
        let roomy = hub.subscribe(16);
        for i in 0..3 {
            hub.publish(|clock| InstanceEvent::Completed {
                clock,
                instance_id: i,
                shard: 0,
            });
        }
        assert_eq!(tight.dropped(), 2, "capacity-1 subscriber lost 2 of 3");
        assert_eq!(roomy.dropped(), 0);
        let got: Vec<u64> = std::iter::from_fn(|| roomy.try_recv().unwrap())
            .map(|ev| ev.clock())
            .collect();
        assert_eq!(got, vec![0, 1, 2], "clocks strictly increasing");
        assert_eq!(tight.try_recv().unwrap().unwrap().clock(), 0);

        drop(tight);
        hub.publish(|clock| InstanceEvent::Completed {
            clock,
            instance_id: 9,
            shard: 0,
        });
        assert_eq!(hub.subs.lock().len(), 1, "closed sub pruned");
    }

    #[test]
    fn hub_buffers_capacity_per_shard_whichever_shard_publishes() {
        // 3 events per shard on a 4-shard server: one shard alone may
        // fill all 12 slots; the 13th event is lost and counted.
        let hub = EventHub::new(4);
        let events = hub.subscribe(3);
        for i in 0..13 {
            hub.publish(|clock| InstanceEvent::Completed {
                clock,
                instance_id: i,
                shard: 2,
            });
        }
        assert_eq!(events.dropped(), 1);
        let got: Vec<u64> = std::iter::from_fn(|| events.try_recv().unwrap())
            .map(|ev| ev.instance_id())
            .collect();
        assert_eq!(got, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn hub_merges_lanes_with_per_lane_clock_order() {
        let hub = EventHub::new(4);
        let events = hub.subscribe(64);
        // Interleave publishes across lanes; each lane's own clocks
        // must come back strictly increasing, every event exactly
        // once, with nothing dropped.
        for round in 0..8u64 {
            for shard in 0..4usize {
                hub.publish(|clock| InstanceEvent::Completed {
                    clock,
                    instance_id: round * 4 + shard as u64,
                    shard,
                });
            }
        }
        let mut per_lane_clocks: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut seen = std::collections::HashSet::new();
        while let Ok(Some(ev)) = events.try_recv() {
            assert!(seen.insert(ev.instance_id()), "exactly-once delivery");
            per_lane_clocks[ev.shard()].push(ev.clock());
        }
        assert_eq!(seen.len(), 32, "all events delivered");
        assert_eq!(events.dropped(), 0);
        for clocks in &per_lane_clocks {
            assert_eq!(clocks.len(), 8);
            assert!(
                clocks.windows(2).all(|w| w[0] < w[1]),
                "per-lane clocks strictly increasing: {clocks:?}"
            );
        }
    }

    #[test]
    fn hub_publish_wakes_blocked_subscriber() {
        let hub = Arc::new(EventHub::new(2));
        let events = hub.subscribe(16);
        let publisher = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                for i in 0..3u64 {
                    hub.publish(|clock| InstanceEvent::Completed {
                        clock,
                        instance_id: i,
                        shard: 1,
                    });
                }
            })
        };
        // recv blocks until the first event lands; once the
        // publisher is done the rest drain.
        let first = events.recv().expect("event arrives");
        assert_eq!(first.shard(), 1);
        publisher.join().expect("publisher thread");
        let mut rest = 0;
        while let Ok(Some(_)) = events.try_recv() {
            rest += 1;
        }
        assert_eq!(rest, 2, "remaining events drain");

        drop(hub);
        assert!(
            matches!(events.recv(), Err(ServerGone)),
            "hub gone and drained => ServerGone"
        );
    }

    #[test]
    fn ticket_batch_into_tickets_roundtrip_shapes() {
        // Construction/iteration shapes only — end-to-end batch waits
        // are covered by the server tests.
        let batch = TicketBatch::new(Vec::new());
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.iter().count(), 0);
        assert_eq!((&batch).into_iter().count(), 0);
        assert!(format!("{batch:?}").contains("TicketBatch"));
        let tickets: Vec<Ticket> = batch.into_iter().collect();
        assert!(tickets.is_empty());
        let batch = TicketBatch::new(tickets);
        let all = batch.wait_all();
        assert!(all.is_empty());
    }
}
