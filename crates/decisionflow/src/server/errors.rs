//! What the server can refuse or fail with: one type per entry point.

#[cfg(doc)]
use super::{EngineServer, ServerBuilder};
#[cfg(doc)]
use crate::api::Request;
use crate::snapshot::SnapshotError;
use crate::statestore::DeltaError;
use crate::store::StoreError;

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
    /// can never apply — a snapshot captured under a different schema,
    /// or under a separately built one of the same structure, whose
    /// task bodies may differ. (Label-resolved deltas degrade to a cold run instead:
    /// the label is a hint, the prior on the request is a claim.)
    Delta(DeltaError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownSchema(n) => write!(f, "unknown schema {n:?}"),
            SubmitError::Sources(e) => write!(f, "{e}"),
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
