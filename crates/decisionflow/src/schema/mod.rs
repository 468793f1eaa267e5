//! Flattened decision-flow schemas.
//!
//! A (flattened) decision-flow schema is the 4-tuple ⟨A, Source, Target,
//! {ec_a}⟩ of §2: a set of attributes, disjoint source/target subsets,
//! and one enabling condition per non-source attribute. The *dependency
//! graph* unions **data-flow** edges (task inputs) and **enabling-flow**
//! edges (condition references); well-formed schemas are acyclic.
//!
//! Schemas are immutable once built and shared (`Arc<Schema>`) across
//! all runtime instances; every derived structure the engine needs
//! (topological order, consumer lists, condition references) is
//! precomputed here so the per-instance hot path allocates nothing.

mod module;
mod validate;

pub use module::{ModularBuilder, Module, ModuleItem};
pub use validate::SchemaError;

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::expr::Expr;
use crate::task::{Cost, Task};

/// Dense identifier of an attribute within one schema.
///
/// Ids are assigned by the [`SchemaBuilder`] in declaration order and
/// index directly into the engine's per-instance state vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(u32);

impl AttrId {
    /// Construct from a dense index.
    pub fn from_index(i: usize) -> AttrId {
        AttrId(u32::try_from(i).expect("more than u32::MAX attributes"))
    }

    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// One attribute of a schema: its producing task, data inputs, enabling
/// condition, and role flags.
#[derive(Clone, Debug)]
pub struct AttrDef {
    /// Human-readable unique name.
    pub name: String,
    /// The task computing this attribute ([`Task::Source`] for sources).
    pub task: Task,
    /// Data-flow inputs, in the order the task body expects them.
    pub inputs: Vec<AttrId>,
    /// Enabling condition (ignored — trivially true — for sources).
    pub enabling: Expr,
    /// Is this a target attribute?
    pub target: bool,
}

/// An immutable, validated, flattened decision-flow schema.
pub struct Schema {
    attrs: Vec<AttrDef>,
    by_name: HashMap<String, AttrId>,
    sources: Vec<AttrId>,
    targets: Vec<AttrId>,
    /// Attributes in one valid topological order of the dependency graph.
    topo: Vec<AttrId>,
    /// topo_rank[a] = position of `a` in `topo` (the "earliest" key).
    topo_rank: Vec<u32>,
    /// enabling_refs[a] = attributes read by a's enabling condition.
    enabling_refs: Vec<Vec<AttrId>>,
    /// data_consumers[a] = attributes having `a` among their inputs.
    data_consumers: Vec<Vec<AttrId>>,
    /// enabling_consumers[a] = attributes whose condition references `a`.
    enabling_consumers: Vec<Vec<AttrId>>,
    /// Total number of dependency edges (data + enabling).
    edge_count: usize,
    /// The structural fingerprint
    /// ([`crate::journal::schema_fingerprint`]), filled on first use:
    /// a schema is immutable, so it is a constant — but hashing it
    /// serializes every enabling condition, so flows that are never
    /// served, journaled or snapshotted never pay for it.
    fingerprint: OnceLock<u64>,
    /// Process-unique identity of this schema value, stamped at its one
    /// construction site. The fingerprint cannot see task bodies, so
    /// two flows that differ only in a constant or a closure share it;
    /// whatever caches task *results* — the server's memo table, the
    /// snapshots delta resubmission splices from — is keyed by this.
    identity: u64,
}

impl Schema {
    /// This schema value's process-unique identity: equal exactly when
    /// the task bodies are the same objects.
    pub(crate) fn identity(&self) -> u64 {
        self.identity
    }

    /// The cached structural fingerprint, running `compute` the first
    /// time it is asked for.
    pub(crate) fn fingerprint_or_init(&self, compute: impl FnOnce() -> u64) -> u64 {
        *self.fingerprint.get_or_init(compute)
    }

    /// Number of attributes (sources included).
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes (never, once validated).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate over all attribute ids in declaration order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len()).map(AttrId::from_index)
    }

    /// The attribute definition for `a`.
    pub fn attr(&self, a: AttrId) -> &AttrDef {
        &self.attrs[a.index()]
    }

    /// Look up an attribute by name.
    pub fn lookup(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Source attributes.
    pub fn sources(&self) -> &[AttrId] {
        &self.sources
    }

    /// Target attributes.
    pub fn targets(&self) -> &[AttrId] {
        &self.targets
    }

    /// One valid topological order of the dependency graph.
    pub fn topo_order(&self) -> &[AttrId] {
        &self.topo
    }

    /// Rank of `a` in the topological order (the *earliest-first*
    /// scheduling key; sources rank lowest).
    pub fn topo_rank(&self, a: AttrId) -> u32 {
        self.topo_rank[a.index()]
    }

    /// Attributes read by `a`'s enabling condition (enabling in-edges).
    pub fn enabling_refs(&self, a: AttrId) -> &[AttrId] {
        &self.enabling_refs[a.index()]
    }

    /// Attributes that consume `a` as a data input.
    pub fn data_consumers(&self, a: AttrId) -> &[AttrId] {
        &self.data_consumers[a.index()]
    }

    /// Attributes whose enabling condition references `a`.
    pub fn enabling_consumers(&self, a: AttrId) -> &[AttrId] {
        &self.enabling_consumers[a.index()]
    }

    /// Estimated cost of the task producing `a`.
    pub fn cost(&self, a: AttrId) -> Cost {
        self.attrs[a.index()].task.cost()
    }

    /// Is `a` a source attribute?
    pub fn is_source(&self, a: AttrId) -> bool {
        self.attrs[a.index()].task.is_source()
    }

    /// Total number of dependency-graph edges; the Propagation
    /// Algorithm's work is linear in `len() + edge_count()`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of task costs over all non-source attributes: the work an
    /// entirely unoptimized run (everything enabled, nothing pruned)
    /// would perform.
    pub fn total_cost(&self) -> Cost {
        self.attrs.iter().map(|d| d.task.cost()).sum()
    }

    /// Run the static analyzer over this schema. Shorthand for
    /// [`crate::analysis::check`]; see [`crate::analysis`] for the
    /// finding codes and the passes behind them.
    pub fn analyze(&self) -> crate::analysis::Report {
        crate::analysis::check(self)
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("attrs", &self.attrs.len())
            .field("sources", &self.sources.len())
            .field("targets", &self.targets.len())
            .field("edges", &self.edge_count)
            .finish()
    }
}

/// Builder for [`Schema`]; the only way to construct one, so every
/// schema in existence passed validation.
#[derive(Default)]
pub struct SchemaBuilder {
    attrs: Vec<AttrDef>,
}

impl SchemaBuilder {
    /// Start an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes declared so far.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if nothing was declared yet.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Declare a source attribute.
    pub fn source(&mut self, name: impl Into<String>) -> AttrId {
        self.push(AttrDef {
            name: name.into(),
            task: Task::Source,
            inputs: vec![],
            enabling: Expr::Lit(true),
            target: false,
        })
    }

    /// Declare a non-source attribute with full control.
    pub fn attr(
        &mut self,
        name: impl Into<String>,
        task: Task,
        inputs: Vec<AttrId>,
        enabling: Expr,
    ) -> AttrId {
        self.push(AttrDef {
            name: name.into(),
            task,
            inputs,
            enabling,
            target: false,
        })
    }

    /// Declare a query attribute (sugar over [`SchemaBuilder::attr`]).
    pub fn query(
        &mut self,
        name: impl Into<String>,
        cost: Cost,
        inputs: Vec<AttrId>,
        enabling: Expr,
        func: impl Fn(&[crate::value::Value]) -> crate::value::Value + Send + Sync + 'static,
    ) -> AttrId {
        self.attr(name, Task::query(cost, func), inputs, enabling)
    }

    /// Declare a synthesis attribute (sugar over [`SchemaBuilder::attr`]).
    pub fn synthesis(
        &mut self,
        name: impl Into<String>,
        inputs: Vec<AttrId>,
        enabling: Expr,
        func: impl Fn(&[crate::value::Value]) -> crate::value::Value + Send + Sync + 'static,
    ) -> AttrId {
        self.attr(name, Task::synthesis(func), inputs, enabling)
    }

    /// Mark an already-declared attribute as a target.
    pub fn mark_target(&mut self, a: AttrId) {
        self.attrs[a.index()].target = true;
    }

    fn push(&mut self, def: AttrDef) -> AttrId {
        let id = AttrId::from_index(self.attrs.len());
        self.attrs.push(def);
        id
    }

    /// Validate and freeze the schema. See [`SchemaError`] for the
    /// well-formedness rules enforced.
    pub fn build(self) -> Result<Schema, SchemaError> {
        validate::build(self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::value::Value;

    /// source -> q1 -> q2(target), with q2 gated on q1 < 10.
    fn tiny() -> Schema {
        let mut b = SchemaBuilder::new();
        let s = b.source("src");
        let q1 = b.query("q1", 2, vec![s], Expr::Lit(true), |ins| {
            Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 + 1)
        });
        let q2 = b.query(
            "q2",
            3,
            vec![q1],
            Expr::cmp_const(q1, CmpOp::Lt, 10i64),
            |ins| ins[0].clone(),
        );
        b.mark_target(q2);
        b.build().unwrap()
    }

    #[test]
    fn lookup_and_roles() {
        let s = tiny();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let src = s.lookup("src").unwrap();
        let q2 = s.lookup("q2").unwrap();
        assert!(s.is_source(src));
        assert_eq!(s.sources(), &[src]);
        assert_eq!(s.targets(), &[q2]);
        assert!(s.attr(q2).target);
        assert!(s.lookup("nope").is_none());
    }

    #[test]
    fn consumers_and_refs() {
        let s = tiny();
        let src = s.lookup("src").unwrap();
        let q1 = s.lookup("q1").unwrap();
        let q2 = s.lookup("q2").unwrap();
        assert_eq!(s.data_consumers(src), &[q1]);
        assert_eq!(s.data_consumers(q1), &[q2]);
        assert_eq!(s.enabling_consumers(q1), &[q2]);
        assert_eq!(s.enabling_refs(q2), &[q1]);
        assert!(s.enabling_refs(q1).is_empty());
        // q1->q2 contributes one data edge and one enabling edge.
        assert_eq!(s.edge_count(), 3);
    }

    #[test]
    fn topo_order_respects_edges() {
        let s = tiny();
        let q1 = s.lookup("q1").unwrap();
        let q2 = s.lookup("q2").unwrap();
        assert!(s.topo_rank(q1) < s.topo_rank(q2));
        assert_eq!(s.topo_order().len(), 3);
    }

    #[test]
    fn costs() {
        let s = tiny();
        assert_eq!(s.cost(s.lookup("q1").unwrap()), 2);
        assert_eq!(s.total_cost(), 5);
    }

    #[test]
    fn attr_id_debug() {
        assert_eq!(format!("{:?}", AttrId::from_index(7)), "a7");
    }
}
