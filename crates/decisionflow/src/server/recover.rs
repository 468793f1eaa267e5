//! Crash recovery: re-admit what the store accepted and never sealed.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::{EngineServer, RecoverError};
use crate::api::{Request, Ticket};
use crate::engine::{RuntimeOptions, Strategy};
use crate::journal::schema_fingerprint;
use crate::snapshot::SourceValues;
#[cfg(doc)]
use crate::store::EventStore;

impl EngineServer {
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
        let schemas = self.schemas.read();
        for p in &store.recovered().pending {
            let req = &p.request;
            let id = req.instance_id;
            let schema = schemas
                .get(&req.schema)
                .ok_or_else(|| RecoverError::UnknownSchema {
                    instance_id: id,
                    schema: req.schema.clone(),
                })?;
            let current = schema_fingerprint(schema);
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
                .validate(&schemas, rebuilt, Instant::now())
                .map_err(RecoverError::Submit)?;
            validated.push((id, p.next_attempt, v));
        }
        drop(schemas);
        // Latch only now that every pending request validated.
        // ordering: latch-before-admit; one winner re-enqueues.
        if self.recovered_once.swap(true, Ordering::SeqCst) {
            return Ok(Vec::new());
        }
        validated
            .into_iter()
            .map(|(id, attempt, v)| {
                self.admit(id, v, Some(attempt))
                    .map_err(RecoverError::Submit)
            })
            .collect()
    }
}
