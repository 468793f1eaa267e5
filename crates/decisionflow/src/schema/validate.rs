//! Well-formedness validation and derived-structure construction.
//!
//! A schema is well-formed (§2) when:
//!
//! 1. attribute names are unique and non-empty;
//! 2. every data input and enabling reference points at a declared
//!    attribute;
//! 3. sources have no inputs and a trivially-true enabling condition,
//!    and are not targets (Source ∩ Target = ∅);
//! 4. there is at least one target (otherwise every execution is
//!    trivially complete);
//! 5. the dependency graph — data edges ∪ enabling edges — is acyclic.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use super::{AttrDef, AttrId, Schema};
use crate::expr::Expr;

/// Why a schema failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two attributes share a name.
    DuplicateName(String),
    /// An attribute has an empty name.
    EmptyName,
    /// An edge references an attribute id not in this schema.
    DanglingRef {
        /// The attribute holding the reference.
        from: String,
        /// The out-of-range id.
        to: AttrId,
    },
    /// A source attribute declared data inputs.
    SourceWithInputs(String),
    /// A source attribute has a non-trivial enabling condition.
    SourceWithCondition(String),
    /// A source attribute was marked as a target.
    SourceTarget(String),
    /// No attribute is marked as a target.
    NoTargets,
    /// The dependency graph has a cycle through the named attribute.
    Cycle(String),
    /// The schema has no attributes at all.
    Empty,
}

impl SchemaError {
    /// The stable `DF0xx` diagnostic code of this error — the same
    /// vocabulary [`crate::analysis`] findings use, so build-time
    /// rejection and lint-time diagnostics are machine-matchable with
    /// one code table (see `analysis::Code`).
    pub fn code(&self) -> &'static str {
        match self {
            SchemaError::Empty => "DF020",
            SchemaError::DuplicateName(_) => "DF021",
            SchemaError::EmptyName => "DF022",
            SchemaError::DanglingRef { .. } => "DF023",
            SchemaError::SourceWithInputs(_) => "DF024",
            SchemaError::SourceWithCondition(_) => "DF025",
            SchemaError::SourceTarget(_) => "DF026",
            SchemaError::NoTargets => "DF027",
            SchemaError::Cycle(_) => "DF028",
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.code())?;
        match self {
            SchemaError::DuplicateName(n) => write!(f, "duplicate attribute name {n:?}"),
            SchemaError::EmptyName => write!(f, "attribute with empty name"),
            SchemaError::DanglingRef { from, to } => {
                write!(f, "attribute {from:?} references undeclared {to:?}")
            }
            SchemaError::SourceWithInputs(n) => {
                write!(f, "source attribute {n:?} declares data inputs")
            }
            SchemaError::SourceWithCondition(n) => {
                write!(f, "source attribute {n:?} has an enabling condition")
            }
            SchemaError::SourceTarget(n) => {
                write!(f, "attribute {n:?} cannot be both source and target")
            }
            SchemaError::NoTargets => write!(f, "schema declares no target attributes"),
            SchemaError::Cycle(n) => {
                write!(f, "dependency graph has a cycle through attribute {n:?}")
            }
            SchemaError::Empty => write!(f, "schema has no attributes"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Source of [`Schema::identity`]: one draw per built schema.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);

pub(super) fn build(attrs: Vec<AttrDef>) -> Result<Schema, SchemaError> {
    if attrs.is_empty() {
        return Err(SchemaError::Empty);
    }
    let n = attrs.len();

    // Rule 1: unique, non-empty names.
    let mut by_name = HashMap::with_capacity(n);
    for (i, def) in attrs.iter().enumerate() {
        if def.name.is_empty() {
            return Err(SchemaError::EmptyName);
        }
        if by_name
            .insert(def.name.clone(), AttrId::from_index(i))
            .is_some()
        {
            return Err(SchemaError::DuplicateName(def.name.clone()));
        }
    }

    // Rule 3: source shape constraints; collect roles.
    let mut sources = Vec::new();
    let mut targets = Vec::new();
    for (i, def) in attrs.iter().enumerate() {
        let id = AttrId::from_index(i);
        if def.task.is_source() {
            if !def.inputs.is_empty() {
                return Err(SchemaError::SourceWithInputs(def.name.clone()));
            }
            if def.enabling != Expr::Lit(true) {
                return Err(SchemaError::SourceWithCondition(def.name.clone()));
            }
            if def.target {
                return Err(SchemaError::SourceTarget(def.name.clone()));
            }
            sources.push(id);
        }
        if def.target {
            targets.push(id);
        }
    }
    if targets.is_empty() {
        return Err(SchemaError::NoTargets);
    }

    // Rule 2 + derived adjacency: enabling refs, consumers, edge count.
    let mut enabling_refs: Vec<Vec<AttrId>> = Vec::with_capacity(n);
    let mut data_consumers: Vec<Vec<AttrId>> = vec![Vec::new(); n];
    let mut enabling_consumers: Vec<Vec<AttrId>> = vec![Vec::new(); n];
    let mut edge_count = 0usize;
    for (i, def) in attrs.iter().enumerate() {
        let id = AttrId::from_index(i);
        for &inp in &def.inputs {
            if inp.index() >= n {
                return Err(SchemaError::DanglingRef {
                    from: def.name.clone(),
                    to: inp,
                });
            }
            data_consumers[inp.index()].push(id);
            edge_count += 1;
        }
        let refs: Vec<AttrId> = def.enabling.references().into_iter().collect();
        for &r in &refs {
            if r.index() >= n {
                return Err(SchemaError::DanglingRef {
                    from: def.name.clone(),
                    to: r,
                });
            }
            enabling_consumers[r.index()].push(id);
            edge_count += 1;
        }
        enabling_refs.push(refs);
    }

    // Rule 5: acyclicity via Kahn's algorithm over the union graph.
    let mut indegree = vec![0u32; n];
    for (i, def) in attrs.iter().enumerate() {
        indegree[i] = (def.inputs.len() + enabling_refs[i].len()) as u32;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    // Process in index order for a canonical topo order (stable output
    // across runs — matters for deterministic experiments).
    queue.sort_unstable();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        queue.into_iter().map(std::cmp::Reverse).collect();
    let mut topo = Vec::with_capacity(n);
    let mut topo_rank = vec![0u32; n];
    while let Some(std::cmp::Reverse(i)) = heap.pop() {
        topo_rank[i] = topo.len() as u32;
        topo.push(AttrId::from_index(i));
        let id = AttrId::from_index(i);
        for &c in data_consumers[id.index()]
            .iter()
            .chain(enabling_consumers[id.index()].iter())
        {
            let d = &mut indegree[c.index()];
            *d -= 1;
            if *d == 0 {
                heap.push(std::cmp::Reverse(c.index()));
            }
        }
    }
    if topo.len() != n {
        // Some attribute never reached indegree 0: it is on (or behind)
        // a cycle. Name the first such attribute for the error message.
        let stuck = (0..n)
            .find(|&i| indegree[i] > 0)
            .expect("topo incomplete implies a stuck node");
        return Err(SchemaError::Cycle(attrs[stuck].name.clone()));
    }

    Ok(Schema {
        attrs,
        by_name,
        sources,
        targets,
        topo,
        topo_rank,
        enabling_refs,
        data_consumers,
        enabling_consumers,
        edge_count,
        fingerprint: std::sync::OnceLock::new(),
        identity: NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;
    use crate::task::Task;
    use crate::value::Value;

    fn c0() -> Task {
        Task::const_query(1, 0i64)
    }

    #[test]
    fn empty_schema_rejected() {
        assert_eq!(
            SchemaBuilder::new().build().unwrap_err(),
            SchemaError::Empty
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = SchemaBuilder::new();
        b.source("x");
        let a = b.attr("x", c0(), vec![], Expr::Lit(true));
        b.mark_target(a);
        assert_eq!(
            b.build().unwrap_err(),
            SchemaError::DuplicateName("x".into())
        );
    }

    #[test]
    fn empty_name_rejected() {
        let mut b = SchemaBuilder::new();
        let a = b.attr("", c0(), vec![], Expr::Lit(true));
        b.mark_target(a);
        assert_eq!(b.build().unwrap_err(), SchemaError::EmptyName);
    }

    #[test]
    fn no_targets_rejected() {
        let mut b = SchemaBuilder::new();
        b.source("s");
        b.attr("q", c0(), vec![], Expr::Lit(true));
        assert_eq!(b.build().unwrap_err(), SchemaError::NoTargets);
    }

    #[test]
    fn source_cannot_be_target() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        b.mark_target(s);
        b.attr("q", c0(), vec![], Expr::Lit(true));
        assert_eq!(
            b.build().unwrap_err(),
            SchemaError::SourceTarget("s".into())
        );
    }

    #[test]
    fn dangling_data_input_rejected() {
        let mut b = SchemaBuilder::new();
        let ghost = crate::schema::AttrId::from_index(99);
        let a = b.attr("q", c0(), vec![ghost], Expr::Lit(true));
        b.mark_target(a);
        match b.build().unwrap_err() {
            SchemaError::DanglingRef { from, to } => {
                assert_eq!(from, "q");
                assert_eq!(to, ghost);
            }
            other => panic!("expected DanglingRef, got {other:?}"),
        }
    }

    #[test]
    fn dangling_enabling_ref_rejected() {
        let mut b = SchemaBuilder::new();
        let ghost = crate::schema::AttrId::from_index(42);
        let a = b.attr("q", c0(), vec![], Expr::Truthy(ghost));
        b.mark_target(a);
        assert!(matches!(
            b.build().unwrap_err(),
            SchemaError::DanglingRef { .. }
        ));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut b = SchemaBuilder::new();
        // q's enabling condition reads q itself.
        let q_id = crate::schema::AttrId::from_index(0);
        let a = b.attr("q", c0(), vec![], Expr::Truthy(q_id));
        b.mark_target(a);
        assert_eq!(b.build().unwrap_err(), SchemaError::Cycle("q".into()));
    }

    #[test]
    fn two_cycle_detected() {
        let mut b = SchemaBuilder::new();
        let id0 = crate::schema::AttrId::from_index(0);
        let id1 = crate::schema::AttrId::from_index(1);
        b.attr("p", c0(), vec![id1], Expr::Lit(true));
        let q = b.attr("q", c0(), vec![id0], Expr::Lit(true));
        b.mark_target(q);
        assert!(matches!(b.build().unwrap_err(), SchemaError::Cycle(_)));
    }

    #[test]
    fn mixed_edge_cycle_detected() {
        // data edge p -> q, enabling edge q -> p: cycle across the two
        // edge kinds, which a per-kind check would miss.
        let mut b = SchemaBuilder::new();
        let id1 = crate::schema::AttrId::from_index(1);
        b.attr("p", c0(), vec![], Expr::Truthy(id1));
        let id0 = crate::schema::AttrId::from_index(0);
        let q = b.attr("q", c0(), vec![id0], Expr::Lit(true));
        b.mark_target(q);
        assert!(matches!(b.build().unwrap_err(), SchemaError::Cycle(_)));
    }

    #[test]
    fn canonical_topo_order_is_stable() {
        let build = || {
            let mut b = SchemaBuilder::new();
            let s = b.source("s");
            let x = b.attr("x", c0(), vec![s], Expr::Lit(true));
            let y = b.attr("y", c0(), vec![s], Expr::Lit(true));
            let z = b.attr(
                "z",
                c0(),
                vec![x, y],
                Expr::cmp_const(x, CmpOp::Lt, Value::Int(5)),
            );
            b.mark_target(z);
            b.build().unwrap()
        };
        let a = build();
        let b2 = build();
        assert_eq!(a.topo_order(), b2.topo_order());
        // With ties broken by index, order is s, x, y, z.
        let names: Vec<&str> = a
            .topo_order()
            .iter()
            .map(|&i| a.attr(i).name.as_str())
            .collect();
        assert_eq!(names, vec!["s", "x", "y", "z"]);
    }

    #[test]
    fn error_messages_render() {
        let e = SchemaError::Cycle("boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().starts_with("DF028: "));
        let e = SchemaError::DanglingRef {
            from: "q".into(),
            to: crate::schema::AttrId::from_index(3),
        };
        assert!(e.to_string().contains("a3"));
        assert_eq!(e.code(), "DF023");
    }
}
