//! Construction: the [`ServerBuilder`] knobs, the shard layout they
//! produce, and the event store a durable server opens over it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

use parking_lot::RwLock;

use super::{EngineServer, ServerBuildError, ServerBuilder, ServerOpenError, Shard};
use crate::api::EventHub;
use crate::engine::Strategy;
use crate::statestore::{MemoTable, StateStore};
use crate::store::{EventStore, StoreConfig};
use crate::telemetry::SpanRecorder;

/// Default buffer capacity of an [`EngineServer::subscribe`] stream.
pub(super) const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Capacity of the server's completed-instance span ring (see
/// [`Telemetry::recent_spans`]).
const DEFAULT_SPAN_CAPACITY: usize = 256;

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
    /// tolerated, real corruption refuses to open — and the id counter
    /// resumes above every id on file, so recovered and new instances
    /// never collide. Accepted-but-unsealed instances
    /// are exposed via [`EventStore::recovered`]; call
    /// [`EngineServer::recover_pending`] (after re-registering
    /// schemas) to re-execute them.
    ///
    /// [`Request::durable`]: crate::api::Request::durable
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> ServerBuilder {
        self.durable = Some(dir.into());
        self
    }

    /// Buffer capacity of every [`EngineServer::subscribe`] stream, per
    /// shard: a subscriber's queue holds `capacity × shards` events
    /// (default 1024 per shard). Bounded so a slow subscriber can never
    /// wedge the server.
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
                .map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EngineServer {
            shards,
            strategy,
            schemas: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
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
    /// resume the id counter above everything on file.
    fn attach_store(mut self, path: &Path) -> Result<EngineServer, ServerOpenError> {
        let config = StoreConfig {
            lanes: self.shards.len(),
            ..StoreConfig::default()
        };
        let store = EventStore::open_with(path, config).map_err(ServerOpenError::Store)?;
        // New and recovered instances never collide; recovered ids
        // keep their `id mod N` routing.
        *self.next_id.get_mut() = store.recovered().next_instance_id;
        self.store = Some(Arc::new(store));
        Ok(self)
    }
}
