//! The admission pipeline behind [`EngineServer::submit`],
//! [`EngineServer::submit_many`] and [`EngineServer::recover_pending`]:
//! *validate* a request against the registry, *admit* it to the shard
//! its id names (WAL record, counters, live table, `Submitted` event),
//! and build its runtime on that shard's own pool.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use super::{dur_ns, EngineServer, Instance, InstanceResult, Shard, SubmitError};
use crate::api::{build_runtime, DeltaSource, InstanceEvent, Request, Ticket, TicketBatch};
use crate::engine::Strategy;
use crate::journal::{bind_sources, schema_fingerprint};
use crate::schema::Schema;
use crate::store::{PersistedRequest, StoreEvent, WalRecorder};
use crate::telemetry::StageTimings;

/// A request that passed [`EngineServer::validate`]: its schema is
/// resolved and nothing about it can be rejected synchronously any
/// more, but nothing has been logged or started yet.
pub(super) struct Validated {
    request: Request,
    schema: Arc<Schema>,
    /// The caller's entry time (see [`EngineServer::validate`]).
    t0: Instant,
    /// `route_ns` and `validate_ns` so far; each later stage is filled
    /// in where it ends.
    timings: StageTimings,
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
    t0: Instant,
    timings: StageTimings,
}

/// Worker-side half of submission: build the instance runtime (reusing
/// the shard's construction arena) and pump the first scheduling
/// round. Running on the owning shard's pool preserves tape
/// determinism: on a 1-worker shard every job — including this build —
/// is enqueued and executed by that single worker after the one
/// submission handoff, so recorded fan-out executions stay
/// byte-deterministic.
fn build_and_pump(shard: Arc<Shard>, id: u64, pending: PendingStart, enqueued_at: Instant) {
    let build_start = Instant::now();
    let PendingStart {
        request,
        schema,
        strategy,
        wal,
        done_tx,
        deadline,
        t0,
        mut timings,
    } = pending;
    timings.queue_wait_ns = dur_ns(build_start.saturating_duration_since(enqueued_at));
    // A delta's prior rides on the request (a claim, checked at
    // validation) or is looked up under the label (a hint: nothing
    // committed yet, or a snapshot another flow left there, degrades
    // to a cold run with the same outcome).
    let prior = match &request.delta {
        None => None,
        Some(DeltaSource::Prior(prior)) => Some(Arc::clone(prior)),
        Some(DeltaSource::Label) => request
            .label
            .as_deref()
            .and_then(|label| shard.state_store.lookup(schema_fingerprint(&schema), label))
            .filter(|prior| prior.check_schema(&schema).is_ok()),
    };
    // Constructing the runtime streams the eager-initialization frames
    // into `wal`; `admit` appended the lifecycle record to the same
    // lane before it enqueued this job, so no frame precedes it on disk.
    let built = build_runtime(
        &request,
        &schema,
        strategy,
        prior.as_deref(),
        wal.clone(),
        shard.scratch.take(),
    );
    let Ok(runtime) = built else {
        // Validation passed on the submitting thread, so this cannot
        // fail; if it ever does, the instance was admitted — account it
        // abandoned and drop `done_tx`, surfacing ServerGone.
        shard.abandon(id, wal.as_ref());
        return;
    };
    // Construction counts as validation; execution starts here.
    let exec_start = Instant::now();
    timings.validate_ns += dur_ns(exec_start.saturating_duration_since(build_start));
    let inst = Arc::new(Instance {
        id,
        shard,
        schema,
        runtime: Mutex::new(runtime),
        t0,
        exec_start,
        timings,
        done_tx,
        label: request.label,
        deadline,
    });
    Instance::pump(&inst);
}

impl EngineServer {
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
    /// in `schemas` (the caller's read guard on the registry) and check
    /// the request against it (durable requirements, source binding, an
    /// explicit delta prior). No id is drawn and no WAL record is sent,
    /// so a rejected request leaves no trace (the caller fixes it and
    /// resubmits). `t0` is the caller's entry
    /// time — the zero point of the `e2e` stage and of any
    /// [`Request::deadline`].
    ///
    /// Every synchronous rejection — unknown schema, invalid sources,
    /// durable misconfiguration, a prior snapshot of another schema —
    /// comes from here; a failed lane append is the only one
    /// [`admit`](Self::admit) adds.
    pub(super) fn validate(
        &self,
        schemas: &HashMap<String, Arc<Schema>>,
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
            None => {
                // invariant: Request construction guarantees a schema or a name.
                let name = request.schema_name().expect("named or inline");
                let registered = schemas
                    .get(name)
                    .ok_or_else(|| SubmitError::UnknownSchema(name.to_string()))?;
                Arc::clone(registered)
            }
        };
        let routed = Instant::now();
        request
            .sources
            .validate(&schema)
            .map_err(SubmitError::Sources)?;
        // An explicit prior snapshot that can never apply is a caller
        // bug — reject it synchronously instead of silently running
        // cold. (Label-resolved priors are checked at build time and
        // degrade to cold on any miss.)
        if let Some(DeltaSource::Prior(prior)) = &request.delta {
            prior.check_schema(&schema).map_err(SubmitError::Delta)?;
        }
        let validated = Instant::now();
        Ok(Validated {
            request,
            schema,
            t0,
            timings: StageTimings {
                route_ns: dur_ns(routed.saturating_duration_since(entered)),
                validate_ns: dur_ns(validated.saturating_duration_since(routed)),
                ..StageTimings::default()
            },
        })
    }

    /// Admission step two — the one place an instance enters the
    /// server, and the only step that needs a shard (`id mod N`):
    /// write-ahead-log it (durable requests), count it submitted,
    /// insert it into the live table, publish `Submitted`, and enqueue
    /// its runtime build on the owning shard's pool.
    /// `requeue` distinguishes a fresh acceptance (`None`: attempt 0,
    /// logs `RequestAccepted`) from a recovery re-execution
    /// (`Some(attempt)`: logs `RequestRequeued` — acceptance is already
    /// on file from the crashed run).
    ///
    /// Runtime construction is the expensive half of submission —
    /// moving it off the submitting thread and onto the owning shard's
    /// pool is what lets N shards accept (and build) N instances truly
    /// concurrently.
    pub(super) fn admit(
        &self,
        id: u64,
        validated: Validated,
        requeue: Option<u32>,
    ) -> Result<Ticket, SubmitError> {
        let Validated {
            request,
            schema,
            t0,
            mut timings,
        } = validated;
        let shard = self.shard_for(id);
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
                    .append(shard.index, event)
                    .map_err(|e| SubmitError::Store(e.to_string()))?;
                timings.validate_ns += dur_ns(append_start.elapsed());
                Some(WalRecorder::new(
                    Arc::clone(store),
                    shard.index,
                    id,
                    requeue.unwrap_or(0),
                ))
            }
        };
        // An unrepresentable deadline (e.g. Duration::MAX budget)
        // saturates to "no deadline" rather than panicking.
        let deadline = request.deadline.and_then(|budget| t0.checked_add(budget));
        let strategy = request.strategy.unwrap_or(self.strategy);
        let (done_tx, done_rx) = unbounded();
        shard.tele.instance_submitted();
        shard.live.lock().insert(id, request.display_name());
        let label = request.label.clone();
        shard.events.publish(|clock| InstanceEvent::Submitted {
            clock,
            instance_id: id,
            shard: shard.index,
            label,
        });
        let pending = PendingStart {
            request,
            schema,
            strategy,
            wal: wal.clone(),
            done_tx,
            deadline,
            t0,
            timings,
        };
        let job_shard = Arc::clone(shard);
        let enqueued_at = Instant::now();
        if !shard.pool.spawn(Box::new(move || {
            build_and_pump(job_shard, id, pending, enqueued_at)
        })) {
            // Every worker of the shard is dead, so the build can never
            // run. The dropped job released `pending` — and with it
            // `done_tx`, surfacing ServerGone on the ticket.
            shard.abandon(id, wal.as_ref());
        }
        Ok(Ticket::new(done_rx, id, shard.index, deadline))
    }

    /// Submit a batch of requests in one call: every request is
    /// validated — against one view of the registry, under one read
    /// guard — before any is admitted, then the batch draws one
    /// contiguous id block. Apart from that up-front validation a batch
    /// is exactly a sequence of [`submit`](EngineServer::submit)s —
    /// same ids, same shards, same events, same stage timings — and
    /// journaling, strategy overrides, deadlines (measured from entry
    /// into this call), and labels are honored per request: a recorded
    /// batch is just a batch of recorded requests.
    ///
    /// Validation is all-or-nothing: if any request names an unknown
    /// schema or binds invalid sources, *no* instance is started, no id
    /// is consumed, nothing is logged, and the first error is returned.
    /// On success the returned [`TicketBatch`] holds the tickets in
    /// submission order — wait on all of them with
    /// [`TicketBatch::wait_all`], or peel off [`Ticket`]s by iterating
    /// it. (A WAL lane failing mid-batch
    /// returns its error with the requests admitted before it already
    /// running; the lane is latched failed, so the server is degraded
    /// anyway.)
    pub fn submit_many<I>(&self, requests: I) -> Result<TicketBatch, SubmitError>
    where
        I: IntoIterator,
        I::Item: Into<Request>,
    {
        let t0 = Instant::now();
        // The caller's iterator runs before the registry is locked: it
        // may be slow, or call back into the server.
        let requests: Vec<Request> = requests.into_iter().map(Into::into).collect();
        // Validate everything before anything is logged or started, so
        // any failure aborts the whole batch cleanly.
        let validated = {
            let schemas = self.schemas.read();
            requests
                .into_iter()
                .map(|request| self.validate(&schemas, request, t0))
                .collect::<Result<Vec<Validated>, SubmitError>>()?
        };
        // ordering: the counter publishes nothing but its own value.
        let first = self
            .next_id
            .fetch_add(validated.len() as u64, Ordering::Relaxed);
        // Admit in submission order; tickets come back in that order.
        let tickets = (first..)
            .zip(validated)
            .map(|(id, v)| self.admit(id, v, None))
            .collect::<Result<Vec<Ticket>, SubmitError>>()?;
        Ok(TicketBatch::new(tickets))
    }
}
