//! Declarative semantics: the complete snapshot.
//!
//! §2 defines execution correctness against the *unique complete
//! snapshot* ⟨σ, μ⟩ determined by the source values: every non-source
//! attribute is in state VALUE if its enabling condition evaluates true
//! over the snapshot, DISABLED (with value ⊥) otherwise, and VALUE
//! attributes carry the result of their task applied to their (stable)
//! inputs. Acyclicity makes the snapshot well-defined and computable in
//! one topological pass.
//!
//! The engine never uses this module to execute — it exists as the
//! **correctness oracle**: any execution, under any optimization
//! strategy, must agree with the complete snapshot on all target
//! attributes. The integration and property tests enforce exactly that.

use std::collections::HashMap;
use std::fmt;

use crate::expr::ValueEnv;
use crate::schema::{AttrId, Schema};
use crate::value::Value;

/// Final state of an attribute in a complete snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FinalState {
    /// Enabled; carries its task's value.
    Value,
    /// Disabled; carries ⊥.
    Disabled,
}

/// The unique complete snapshot of one decision-flow instance.
#[derive(Clone, Debug, PartialEq)]
pub struct CompleteSnapshot {
    states: Vec<FinalState>,
    values: Vec<Value>,
}

impl CompleteSnapshot {
    /// Final state of `a`.
    pub fn state(&self, a: AttrId) -> FinalState {
        self.states[a.index()]
    }

    /// Final value of `a` (⊥ when disabled).
    pub fn value(&self, a: AttrId) -> &Value {
        &self.values[a.index()]
    }

    /// Number of attributes covered.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Never true for a snapshot of a validated schema.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Ids of all enabled (VALUE) attributes.
    pub fn enabled(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == FinalState::Value)
            .map(|(i, _)| AttrId::from_index(i))
    }
}

impl ValueEnv for CompleteSnapshot {
    fn view(&self, a: AttrId) -> crate::expr::AttrView<'_> {
        crate::expr::AttrView::Stable(&self.values[a.index()])
    }
}

/// Errors computing a complete snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A source attribute was not given a value.
    MissingSource(String),
    /// A value was supplied for a non-source attribute.
    NotASource(String),
    /// A supplied name does not exist in the schema.
    UnknownAttr(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MissingSource(n) => write!(f, "no value for source attribute {n:?}"),
            SnapshotError::NotASource(n) => {
                write!(f, "value supplied for non-source attribute {n:?}")
            }
            SnapshotError::UnknownAttr(n) => write!(f, "unknown attribute {n:?}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Source-attribute bindings for one instance.
#[derive(Clone, Debug, Default)]
pub struct SourceValues {
    by_id: HashMap<AttrId, Value>,
}

impl SourceValues {
    /// Empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a source attribute by id.
    pub fn set(&mut self, a: AttrId, v: impl Into<Value>) -> &mut Self {
        self.by_id.insert(a, v.into());
        self
    }

    /// Bind a source attribute by name, resolving against `schema`.
    pub fn set_named(
        &mut self,
        schema: &Schema,
        name: &str,
        v: impl Into<Value>,
    ) -> Result<&mut Self, SnapshotError> {
        let id = schema
            .lookup(name)
            .ok_or_else(|| SnapshotError::UnknownAttr(name.to_string()))?;
        Ok(self.set(id, v))
    }

    /// Value bound to `a`, if any.
    pub fn get(&self, a: AttrId) -> Option<&Value> {
        self.by_id.get(&a)
    }

    /// Validate completeness against a schema: every source bound, and
    /// nothing else.
    pub fn validate(&self, schema: &Schema) -> Result<(), SnapshotError> {
        for &s in schema.sources() {
            if !self.by_id.contains_key(&s) {
                return Err(SnapshotError::MissingSource(schema.attr(s).name.clone()));
            }
        }
        for a in self.by_id.keys() {
            if a.index() >= schema.len() {
                return Err(SnapshotError::UnknownAttr(format!("{a:?}")));
            }
            if !schema.is_source(*a) {
                return Err(SnapshotError::NotASource(schema.attr(*a).name.clone()));
            }
        }
        Ok(())
    }
}

/// Compute the unique complete snapshot for `schema` under `sources`
/// by topological evaluation (§2's "straightforward approach").
pub fn complete_snapshot(
    schema: &Schema,
    sources: &SourceValues,
) -> Result<CompleteSnapshot, SnapshotError> {
    sources.validate(schema)?;
    let n = schema.len();
    let mut states = vec![FinalState::Disabled; n];
    let mut values = vec![Value::Null; n];
    // Partial env during the pass: None = not yet visited. Because we
    // walk in topological order, everything an attribute references has
    // been visited by the time we reach it.
    let mut env: Vec<Option<Value>> = vec![None; n];

    for &a in schema.topo_order() {
        let def = schema.attr(a);
        if def.task.is_source() {
            let v = sources
                .get(a)
                .expect("validated: every source bound")
                .clone();
            states[a.index()] = FinalState::Value;
            env[a.index()] = Some(v.clone());
            values[a.index()] = v;
            continue;
        }
        let enabled = def.enabling.eval_complete(env.as_slice());
        if enabled {
            let inputs: Vec<Value> = def
                .inputs
                .iter()
                .map(|&i| env[i.index()].clone().expect("topo order: input visited"))
                .collect();
            let v = def.task.compute(&inputs);
            states[a.index()] = FinalState::Value;
            env[a.index()] = Some(v.clone());
            values[a.index()] = v;
        } else {
            states[a.index()] = FinalState::Disabled;
            env[a.index()] = Some(Value::Null);
            values[a.index()] = Value::Null;
        }
    }

    Ok(CompleteSnapshot { states, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;

    /// src --> a (enabled iff src < 10) --> b (target, enabled iff a not null)
    fn chain() -> Schema {
        let mut bld = SchemaBuilder::new();
        let s = bld.source("src");
        let a = bld.query(
            "a",
            1,
            vec![s],
            Expr::cmp_const(s, CmpOp::Lt, 10i64),
            |ins| Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 * 2),
        );
        let b = bld.query(
            "b",
            1,
            vec![a],
            Expr::Not(Box::new(Expr::IsNull(a))),
            |ins| ins[0].clone(),
        );
        bld.mark_target(b);
        bld.build().unwrap()
    }

    #[test]
    fn enabled_chain_computes_values() {
        let schema = chain();
        let mut sv = SourceValues::new();
        sv.set_named(&schema, "src", 3i64).unwrap();
        let snap = complete_snapshot(&schema, &sv).unwrap();
        let a = schema.lookup("a").unwrap();
        let b = schema.lookup("b").unwrap();
        assert_eq!(snap.state(a), FinalState::Value);
        assert_eq!(snap.value(a), &Value::Int(6));
        assert_eq!(snap.state(b), FinalState::Value);
        assert_eq!(snap.value(b), &Value::Int(6));
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn disable_cascades_through_condition() {
        let schema = chain();
        let mut sv = SourceValues::new();
        sv.set_named(&schema, "src", 50i64).unwrap();
        let snap = complete_snapshot(&schema, &sv).unwrap();
        let a = schema.lookup("a").unwrap();
        let b = schema.lookup("b").unwrap();
        assert_eq!(snap.state(a), FinalState::Disabled);
        assert_eq!(snap.value(a), &Value::Null);
        // b's condition "a not null" is false once a is ⊥.
        assert_eq!(snap.state(b), FinalState::Disabled);
    }

    #[test]
    fn task_runs_with_null_input_when_enabled() {
        // b enabled unconditionally: must run even though a is ⊥ (§2).
        let mut bld = SchemaBuilder::new();
        let s = bld.source("src");
        let a = bld.query("a", 1, vec![s], Expr::Lit(false), |_| Value::Int(1));
        let b = bld.query("b", 1, vec![a], Expr::Lit(true), |ins| {
            Value::Bool(ins[0].is_null())
        });
        bld.mark_target(b);
        let schema = bld.build().unwrap();
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert_eq!(snap.state(a), FinalState::Disabled);
        assert_eq!(snap.value(b), &Value::Bool(true));
    }

    #[test]
    fn snapshot_is_unique_and_deterministic() {
        let schema = chain();
        let mut sv = SourceValues::new();
        sv.set_named(&schema, "src", 4i64).unwrap();
        let s1 = complete_snapshot(&schema, &sv).unwrap();
        let s2 = complete_snapshot(&schema, &sv).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn missing_source_rejected() {
        let schema = chain();
        let sv = SourceValues::new();
        assert_eq!(
            complete_snapshot(&schema, &sv).unwrap_err(),
            SnapshotError::MissingSource("src".into())
        );
    }

    #[test]
    fn binding_non_source_rejected() {
        let schema = chain();
        let a = schema.lookup("a").unwrap();
        let mut sv = SourceValues::new();
        sv.set_named(&schema, "src", 1i64).unwrap();
        sv.set(a, 9i64);
        assert_eq!(
            complete_snapshot(&schema, &sv).unwrap_err(),
            SnapshotError::NotASource("a".into())
        );
    }

    #[test]
    fn unknown_name_rejected() {
        let schema = chain();
        let mut sv = SourceValues::new();
        assert_eq!(
            sv.set_named(&schema, "ghost", 1i64).unwrap_err(),
            SnapshotError::UnknownAttr("ghost".into())
        );
    }

    #[test]
    fn enabled_iter_lists_value_attrs() {
        let schema = chain();
        let mut sv = SourceValues::new();
        sv.set_named(&schema, "src", 3i64).unwrap();
        let snap = complete_snapshot(&schema, &sv).unwrap();
        let enabled: Vec<AttrId> = snap.enabled().collect();
        assert_eq!(enabled.len(), 3); // src + a + b
    }
}
