//! Incremental recomputation: snapshot-versioned instance state and
//! cross-request memoization.
//!
//! Production decision flows are overwhelmingly *re*-runs — the same
//! entity comes back with one changed source attribute. This module
//! makes resubmission incremental with two cooperating layers:
//!
//! 1. **Snapshot-versioned instance state** ([`StateStore`]): after an
//!    instance seals, its stabilized attribute values are committed as
//!    an immutable [`InstanceSnapshot`] keyed by `(schema fingerprint,
//!    label)`. A resubmission via
//!    [`Request::delta`](crate::api::Request::delta) (or
//!    [`delta_by_label`](crate::api::Request::delta_by_label) on the
//!    server) diffs the new sources against the snapshot's source set,
//!    computes the downstream-of-delta cone with
//!    [`analysis::delta_cone`], and
//!    re-executes only that cone — every out-of-cone attribute is
//!    spliced back in pre-stabilized
//!    ([`InstanceRuntime::with_options_retained`]), journaled as an
//!    explicit `Retained` frame prefix. A snapshot splices only into
//!    the schema *value* it was captured from: the fingerprint cannot
//!    see task bodies, so a structurally identical flow built with
//!    another constant plans no delta against it.
//! 2. **Cross-request memoization** ([`MemoTable`]): a sharded,
//!    capacity-bounded table of `(schema identity, attribute, input
//!    values) → result` consulted on the server's execute hot path —
//!    the `SimDb` shared query cache generalized to the real
//!    `EngineServer` — with per-shard hit/miss/evict telemetry.
//!
//! ### Snapshot lifecycle
//!
//! ```text
//!   instance seals ──► capture ──► commit (version v, replaces v-1)
//!                                     │
//!            Request::delta_by_label ─┤ lookup ──► plan_delta ──► splice-in
//!                                     │
//!                      invalidate ────┘ (exactly once per version)
//! ```
//!
//! Every version is captured, committed, and invalidated (by
//! replacement or explicit [`StateStore::invalidate`]) exactly once —
//! the lifecycle invariants of the TLA+ snapshot spec this design
//! borrows from. Snapshots are immutable behind `Arc`, so a delta plan
//! computed against version `v` stays coherent even while version
//! `v+1` commits concurrently (MVCC reads, single-writer commits).
//!
//! Memoization relies on the system-wide invariant that task bodies
//! are **deterministic** functions of their inputs — the same
//! invariant replay verification has always enforced. A memo hit skips
//! only the task body; launch accounting, journal frames, and the
//! Work metric are unchanged, so memoized runs stay byte-identical to
//! unmemoized ones on the journal surface.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::analysis;
use crate::engine::runtime::InstanceRuntime;
use crate::journal::schema_fingerprint;
use crate::schema::{AttrId, Schema};
use crate::snapshot::SourceValues;
use crate::state::AttrState;
use crate::telemetry::{Counter, Registry};
use crate::value::Value;

// ---------------------------------------------------------------------------
// InstanceSnapshot
// ---------------------------------------------------------------------------

/// One sealed instance's stabilized state, frozen as an immutable
/// versioned snapshot: the source bindings it ran from and the
/// terminal `(state, value)` of every attribute (attr-indexed — the
/// schema fingerprint pins the index space, the schema identity pins
/// the task bodies that produced the values).
#[derive(Clone, Debug)]
pub struct InstanceSnapshot {
    version: u64,
    schema_fingerprint: u64,
    schema_identity: u64,
    label: String,
    sources: Vec<(AttrId, Value)>,
    states: Vec<AttrState>,
    values: Vec<Value>,
}

impl InstanceSnapshot {
    /// Freeze a completed runtime's stabilized state. The snapshot is
    /// unversioned (version 0) until [`StateStore::commit`] stamps it;
    /// in-process callers using [`Request::delta`](crate::api::Request::delta)
    /// directly never need a version.
    ///
    /// Call only on a complete runtime ([`InstanceRuntime::is_complete`])
    /// and before [`InstanceRuntime::reclaim`] hollows it out.
    pub fn capture(rt: &InstanceRuntime, label: impl Into<String>) -> InstanceSnapshot {
        let schema = rt.schema();
        let n = schema.len();
        let mut states = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for a in schema.attr_ids() {
            states.push(rt.state(a));
            values.push(rt.stable_value(a).cloned().unwrap_or(Value::Null));
        }
        let sources = schema
            .sources()
            .iter()
            .map(|&s| {
                // invariant: sources stabilize with their bound values
                // during runtime construction, before any caller can
                // observe the runtime.
                let v = rt.stable_value(s).expect("source stabilized at init");
                (s, v.clone())
            })
            .collect();
        InstanceSnapshot {
            version: 0,
            schema_fingerprint: schema_fingerprint(schema),
            schema_identity: schema.identity(),
            label: label.into(),
            sources,
            states,
            values,
        }
    }

    /// The store-assigned version (0 until committed). Versions are
    /// unique store-wide and strictly increasing per label.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Fingerprint of the schema the instance ran — the key the
    /// [`StateStore`] files the snapshot under.
    pub fn schema_fingerprint(&self) -> u64 {
        self.schema_fingerprint
    }

    /// Is this snapshot a valid splice-in source for `schema`? Only
    /// for the schema value it was captured from: the fingerprint
    /// cannot see task bodies, so a structurally identical flow built
    /// with another constant or closure would otherwise adopt values
    /// its own tasks never computed.
    pub(crate) fn check_schema(&self, schema: &Schema) -> Result<(), DeltaError> {
        let expected = schema_fingerprint(schema);
        if self.schema_fingerprint == expected && self.schema_identity == schema.identity() {
            Ok(())
        } else {
            Err(DeltaError::SchemaMismatch {
                expected,
                got: self.schema_fingerprint,
            })
        }
    }

    /// The entity key the snapshot is stored under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The source bindings the snapshotted instance ran from.
    pub fn sources(&self) -> &[(AttrId, Value)] {
        &self.sources
    }

    /// Terminal state of `a` in the snapshotted run.
    pub fn state(&self, a: AttrId) -> AttrState {
        self.states[a.index()]
    }

    /// Stable value of `a` in the snapshotted run, if `a` stabilized.
    pub fn value(&self, a: AttrId) -> Option<&Value> {
        if self.states[a.index()].is_stable() {
            Some(&self.values[a.index()])
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Delta planning
// ---------------------------------------------------------------------------

/// Why a delta resubmission cannot use its prior snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The prior snapshot was captured under a different schema: its
    /// attr-indexed state cannot be spliced into this one. Equal
    /// fingerprints mean a structurally identical flow built
    /// separately, whose task bodies may compute other values.
    SchemaMismatch {
        /// Fingerprint of the schema being submitted against.
        expected: u64,
        /// Fingerprint the snapshot was captured under.
        got: u64,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SchemaMismatch { expected, got } if expected == got => write!(
                f,
                "delta snapshot schema mismatch: snapshot captured under another build of \
                 {expected:#018x}, whose task bodies may differ"
            ),
            DeltaError::SchemaMismatch { expected, got } => write!(
                f,
                "delta snapshot schema mismatch: request schema {expected:#018x}, \
                 snapshot captured under {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The splice-in plan of one delta resubmission: which sources
/// changed, how large the re-execution cone is, and which attributes
/// are adopted from the prior snapshot.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// Source attributes whose new binding differs from the snapshot.
    pub changed: Vec<AttrId>,
    /// Attributes inside the downstream-of-delta cone (changed sources
    /// included) — the only work the resubmission re-executes.
    pub cone_size: usize,
    /// `(attr, state, value)` adoptions for
    /// [`InstanceRuntime::with_options_retained`]: every non-source
    /// attribute outside the cone with a stable prior outcome.
    pub retained: Vec<(AttrId, AttrState, Value)>,
}

/// Diff `sources` against `prior` and compute the splice-in plan: the
/// forward cone of the changed sources re-executes, everything else
/// with a stable prior outcome is retained.
///
/// An empty diff retains every stabilized non-source attribute — the
/// resubmission completes at construction with zero launches.
pub fn plan_delta(
    schema: &Schema,
    prior: &InstanceSnapshot,
    sources: &SourceValues,
) -> Result<DeltaPlan, DeltaError> {
    prior.check_schema(schema)?;
    // Same schema ⇒ same source set in the same id order; a
    // source unbound in the new request fails `sources.validate`
    // during runtime construction, so treat it as changed here rather
    // than erroring twice.
    let changed: Vec<AttrId> = prior
        .sources
        .iter()
        .filter(|(s, old)| sources.get(*s) != Some(old))
        .map(|&(s, _)| s)
        .collect();
    let cone = analysis::delta_cone(schema, &changed);
    let retained = schema
        .attr_ids()
        .filter(|&a| {
            !cone[a.index()] && !schema.is_source(a) && prior.states[a.index()].is_stable()
        })
        .map(|a| (a, prior.states[a.index()], prior.values[a.index()].clone()))
        .collect();
    Ok(DeltaPlan {
        changed,
        cone_size: cone.iter().filter(|&&c| c).count(),
        retained,
    })
}

// ---------------------------------------------------------------------------
// StateStore
// ---------------------------------------------------------------------------

fn label_shard(fingerprint: u64, label: &str, shards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    fingerprint.hash(&mut h);
    label.hash(&mut h);
    (h.finish() as usize) % shards
}

/// One store shard: latest snapshot per `(schema fingerprint, label)`.
type SnapshotShard = Mutex<HashMap<(u64, String), Arc<InstanceSnapshot>>>;

/// The snapshot-versioned instance state store: the latest committed
/// [`InstanceSnapshot`] per `(schema fingerprint, label)`, sharded by
/// key hash so commits on the server's completion path don't contend
/// across shards.
pub struct StateStore {
    shards: Vec<SnapshotShard>,
    next_version: AtomicU64,
    registry: Arc<Registry>,
    committed: Arc<Counter>,
    replaced: Arc<Counter>,
    delta_hits: Arc<Counter>,
    delta_misses: Arc<Counter>,
    delta_reused: Arc<Counter>,
    delta_reexecuted: Arc<Counter>,
}

impl StateStore {
    /// An empty store with `shards` internal shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> StateStore {
        let registry = Arc::new(Registry::new());
        StateStore {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_version: AtomicU64::new(1),
            committed: registry.counter("state_snapshots_committed"),
            replaced: registry.counter("state_snapshots_replaced"),
            delta_hits: registry.counter("delta_lookup_hits"),
            delta_misses: registry.counter("delta_lookup_misses"),
            delta_reused: registry.counter("delta_reused"),
            delta_reexecuted: registry.counter("delta_reexecuted"),
            registry,
        }
    }

    /// Commit `snapshot` as the new latest version for its key,
    /// superseding (and thereby invalidating) any prior version
    /// exactly once. Returns the committed, version-stamped snapshot.
    pub fn commit(&self, mut snapshot: InstanceSnapshot) -> Arc<InstanceSnapshot> {
        snapshot.version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let key = (snapshot.schema_fingerprint, snapshot.label.clone());
        let snap = Arc::new(snapshot);
        let shard = label_shard(key.0, &key.1, self.shards.len());
        let prior = self.shards[shard].lock().insert(key, Arc::clone(&snap));
        self.committed.inc();
        if prior.is_some() {
            self.replaced.inc();
        }
        snap
    }

    /// The latest committed snapshot for `(fingerprint, label)`, if
    /// any. Counts toward the `delta_lookup_{hits,misses}` telemetry.
    pub fn lookup(&self, fingerprint: u64, label: &str) -> Option<Arc<InstanceSnapshot>> {
        let shard = label_shard(fingerprint, label, self.shards.len());
        let hit = self.shards[shard]
            .lock()
            .get(&(fingerprint, label.to_string()))
            .cloned();
        match &hit {
            Some(_) => self.delta_hits.inc(),
            None => self.delta_misses.inc(),
        }
        hit
    }

    /// Drop the snapshot stored under `(fingerprint, label)`. Returns
    /// whether a version was actually invalidated — calling twice for
    /// the same version returns `false` the second time.
    pub fn invalidate(&self, fingerprint: u64, label: &str) -> bool {
        let shard = label_shard(fingerprint, label, self.shards.len());
        self.shards[shard]
            .lock()
            .remove(&(fingerprint, label.to_string()))
            .is_some()
    }

    /// Number of live (latest-version) snapshots.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Account one executed delta resubmission: how many attributes
    /// were spliced in versus launched. Feeds the
    /// `dflow_delta_{reused,reexecuted}` counters.
    pub fn note_delta(&self, reused: u64, reexecuted: u64) {
        self.delta_reused.add(reused);
        self.delta_reexecuted.add(reexecuted);
    }

    /// The store's telemetry registry (`state_snapshots_*`,
    /// `delta_*`), for merging into server telemetry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }
}

// ---------------------------------------------------------------------------
// MemoTable
// ---------------------------------------------------------------------------

/// Fingerprint of a task's input vector, keyed alongside the schema
/// namespace and attribute index. Collisions are tolerated: lookups
/// verify full input equality before returning a hit.
fn inputs_fingerprint(inputs: &[Value]) -> u64 {
    let mut h = 0xCAFE_F00Du64;
    for v in inputs {
        h = h.rotate_left(17) ^ v.fingerprint();
    }
    h
}

type MemoKey = (u64, u32, u64);

struct MemoEntry {
    inputs: Vec<Value>,
    result: Value,
}

struct MemoInner {
    map: HashMap<MemoKey, MemoEntry>,
    /// Insertion order for FIFO eviction at capacity.
    order: VecDeque<MemoKey>,
}

struct MemoShard {
    inner: Mutex<MemoInner>,
    registry: Arc<Registry>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// The cross-request memo table: `(schema, attribute, input values) →
/// task result`, sharded by key hash and capacity-bounded with FIFO
/// eviction. Consulted on the server's execute hot path so identical
/// `(task, inputs)` evaluations across requests are answered without
/// running the task body. The `schema` key component must tell task
/// bodies apart, which the structural fingerprint cannot: the server
/// passes the schema's process-unique identity.
pub struct MemoTable {
    shards: Vec<MemoShard>,
    per_shard_capacity: usize,
}

impl MemoTable {
    /// A memo table with `shards` internal shards (clamped to ≥ 1) and
    /// room for `capacity` entries total, split evenly across shards
    /// (each shard holds at least one entry).
    pub fn new(shards: usize, capacity: usize) -> MemoTable {
        let shards = shards.max(1);
        let per_shard_capacity = (capacity / shards).max(1);
        MemoTable {
            shards: (0..shards)
                .map(|_| {
                    let registry = Arc::new(Registry::new());
                    MemoShard {
                        inner: Mutex::new(MemoInner {
                            map: HashMap::new(),
                            order: VecDeque::new(),
                        }),
                        hits: registry.counter("memo_hits"),
                        misses: registry.counter("memo_misses"),
                        evictions: registry.counter("memo_evictions"),
                        registry,
                    }
                })
                .collect(),
            per_shard_capacity,
        }
    }

    fn shard(&self, key: &MemoKey) -> &MemoShard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The memoized result of `(schema, attr, inputs)`, if an entry
    /// with **equal inputs** exists (the input fingerprint narrows,
    /// equality decides). Counts a hit or miss either way.
    pub fn lookup(&self, schema: u64, attr: AttrId, inputs: &[Value]) -> Option<Value> {
        let key = (schema, attr.index() as u32, inputs_fingerprint(inputs));
        let shard = self.shard(&key);
        let inner = shard.inner.lock();
        match inner.map.get(&key) {
            Some(e) if e.inputs == inputs => {
                let result = e.result.clone();
                drop(inner);
                shard.hits.inc();
                Some(result)
            }
            _ => {
                drop(inner);
                shard.misses.inc();
                None
            }
        }
    }

    /// Record the result of one task evaluation, evicting the oldest
    /// entry of the shard if it is at capacity. An existing entry for
    /// the key is left in place (first write wins — deterministic
    /// tasks make the values identical anyway).
    pub fn insert(&self, schema: u64, attr: AttrId, inputs: Vec<Value>, result: Value) {
        let key = (schema, attr.index() as u32, inputs_fingerprint(&inputs));
        let shard = self.shard(&key);
        let mut inner = shard.inner.lock();
        if inner.map.contains_key(&key) {
            return;
        }
        if inner.map.len() >= self.per_shard_capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
                shard.evictions.inc();
            }
        }
        inner.order.push_back(key);
        inner.map.insert(key, MemoEntry { inputs, result });
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().map.len()).sum()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed hit count across shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.get()).sum()
    }

    /// Summed miss count across shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.get()).sum()
    }

    /// Summed eviction count across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions.get()).sum()
    }

    /// Per-shard telemetry registries (`memo_{hits,misses,evictions}`),
    /// for merging into server telemetry (name-wise summed).
    pub fn registries(&self) -> Vec<Arc<Registry>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(&s.registry))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::SchemaBuilder;
    use crate::task::Task;

    fn sum_task() -> Task {
        Task::query(2, |v| {
            Value::Int(
                v.iter()
                    .map(|x| match x {
                        Value::Int(i) => *i,
                        _ => 0,
                    })
                    .sum(),
            )
        })
    }

    /// s ─► a ─► t ; u ─► b ─► t  (two independent arms into one target).
    fn two_arm_schema() -> (Arc<Schema>, AttrId, AttrId) {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let u = b.source("u");
        let a = b.attr("a", sum_task(), vec![s], Expr::Lit(true));
        let bb = b.attr("b", sum_task(), vec![u], Expr::Lit(true));
        let t = b.attr("t", sum_task(), vec![a, bb], Expr::Lit(true));
        b.mark_target(t);
        (Arc::new(b.build().unwrap()), s, u)
    }

    fn run(schema: &Arc<Schema>, s: i64, u: i64) -> InstanceRuntime {
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), s);
        sv.set(schema.lookup("u").unwrap(), u);
        crate::engine::run_unit_time(schema, "PCE100".parse().unwrap(), &sv)
            .unwrap()
            .runtime
    }

    #[test]
    fn capture_freezes_stabilized_state() {
        let (schema, ..) = two_arm_schema();
        let rt = run(&schema, 1, 2);
        let snap = InstanceSnapshot::capture(&rt, "acct-1");
        assert_eq!(snap.label(), "acct-1");
        assert_eq!(snap.schema_fingerprint(), schema_fingerprint(&schema));
        assert_eq!(snap.sources().len(), 2);
        for a in schema.attr_ids() {
            assert_eq!(snap.state(a), rt.state(a));
            assert_eq!(snap.value(a), rt.stable_value(a));
        }
    }

    #[test]
    fn plan_delta_confines_reexecution_to_the_cone() {
        let (schema, s, _u) = two_arm_schema();
        let rt = run(&schema, 1, 2);
        let snap = InstanceSnapshot::capture(&rt, "x");
        // Change s only: cone = {s, a, t}; b is retained.
        let mut sv = SourceValues::new();
        sv.set(s, 9i64);
        sv.set(schema.lookup("u").unwrap(), 2i64);
        let plan = plan_delta(&schema, &snap, &sv).unwrap();
        assert_eq!(plan.changed, vec![s]);
        assert_eq!(plan.cone_size, 3);
        let retained: Vec<AttrId> = plan.retained.iter().map(|&(a, _, _)| a).collect();
        assert_eq!(retained, vec![schema.lookup("b").unwrap()]);
    }

    #[test]
    fn plan_delta_with_no_changes_retains_everything() {
        let (schema, ..) = two_arm_schema();
        let rt = run(&schema, 1, 2);
        let snap = InstanceSnapshot::capture(&rt, "x");
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 1i64);
        sv.set(schema.lookup("u").unwrap(), 2i64);
        let plan = plan_delta(&schema, &snap, &sv).unwrap();
        assert!(plan.changed.is_empty());
        assert_eq!(plan.cone_size, 0);
        assert_eq!(plan.retained.len(), 3, "a, b, t all retained");
    }

    #[test]
    fn plan_delta_rejects_schema_mismatch() {
        let (schema, ..) = two_arm_schema();
        let rt = run(&schema, 1, 2);
        let mut snap = InstanceSnapshot::capture(&rt, "x");
        snap.schema_fingerprint ^= 1;
        let sv = SourceValues::new();
        assert!(matches!(
            plan_delta(&schema, &snap, &sv),
            Err(DeltaError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn state_store_lifecycle_commit_lookup_invalidate_exactly_once() {
        let (schema, ..) = two_arm_schema();
        let store = StateStore::new(4);
        let fp = schema_fingerprint(&schema);
        assert!(store.lookup(fp, "k").is_none());
        let v1 = store.commit(InstanceSnapshot::capture(&run(&schema, 1, 2), "k"));
        assert!(v1.version() > 0);
        let v2 = store.commit(InstanceSnapshot::capture(&run(&schema, 5, 2), "k"));
        assert!(v2.version() > v1.version(), "versions strictly increase");
        assert_eq!(store.len(), 1, "v2 superseded v1");
        let got = store.lookup(fp, "k").unwrap();
        assert_eq!(got.version(), v2.version());
        assert!(store.invalidate(fp, "k"));
        assert!(!store.invalidate(fp, "k"), "second invalidate is a no-op");
        assert!(store.lookup(fp, "k").is_none());
        let snap = store.registry().snapshot();
        let counter = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| match m {
                    crate::telemetry::MetricSnapshot::Counter(v) => *v,
                    _ => panic!("not a counter"),
                })
                .unwrap()
        };
        assert_eq!(counter("state_snapshots_committed"), 2);
        assert_eq!(counter("state_snapshots_replaced"), 1);
        assert_eq!(counter("delta_lookup_hits"), 1);
        assert_eq!(counter("delta_lookup_misses"), 2);
    }

    #[test]
    fn memo_table_hits_misses_and_collision_safety() {
        let memo = MemoTable::new(2, 64);
        let a = AttrId::from_index(3);
        assert_eq!(memo.lookup(1, a, &[Value::Int(1)]), None);
        memo.insert(1, a, vec![Value::Int(1)], Value::Int(10));
        assert_eq!(memo.lookup(1, a, &[Value::Int(1)]), Some(Value::Int(10)));
        // Different inputs, same key shape: miss, not a wrong hit.
        assert_eq!(memo.lookup(1, a, &[Value::Int(2)]), None);
        // Different schema: independent namespace.
        assert_eq!(memo.lookup(2, a, &[Value::Int(1)]), None);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 3);
    }

    #[test]
    fn memo_table_evicts_fifo_at_capacity() {
        // 1 shard × capacity 2: the third insert evicts the first.
        let memo = MemoTable::new(1, 2);
        let a = AttrId::from_index(0);
        for i in 0..3i64 {
            memo.insert(7, a, vec![Value::Int(i)], Value::Int(i * 10));
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.lookup(7, a, &[Value::Int(0)]), None, "oldest evicted");
        assert_eq!(memo.lookup(7, a, &[Value::Int(2)]), Some(Value::Int(20)));
    }
}
