//! Correctness properties of **delta resubmission** (the
//! `decisionflow::statestore` incremental-recomputation path): a warm
//! run that adopts retained values from a prior snapshot must be
//! observationally identical to a cold run of the same sources, under
//! every optimization strategy — it may only *skip* work, never change
//! the answer.
//!
//! Why this holds: every attribute outside the delta cone depends only
//! on sources whose bindings are unchanged, and the complete snapshot
//! is a pure function of the source bindings (§2/§3), so the retained
//! values *are* the values a cold run would re-derive — *this* flow's
//! cold run: the last property pairs every flow with a twin of the
//! same structure and other task bodies, and checks that neither the
//! snapshot store nor the memo table ever hands one the other's values.

use std::sync::Arc;

use decision_flows::decisionflow::journal::schema_fingerprint;
use decision_flows::prelude::{
    complete_snapshot, AttrState, CmpOp, EngineServer, Expr, FinalState, InstanceSnapshot, Request,
    Schema, SchemaBuilder, SourceValues, Strategy as EngineStrategy, Task, Value,
};
use proptest::prelude::*;

/// Deterministic task body keyed by a salt (same family as the oracle
/// property suite): a variety of value shapes, including ⊥ from an
/// *enabled* task.
fn body(salt: u64) -> impl Fn(&[Value]) -> Value + Send + Sync + 'static {
    move |inputs: &[Value]| {
        let mut h = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
        for v in inputs {
            h = h.rotate_left(13) ^ v.fingerprint();
        }
        match salt % 5 {
            0 => Value::Int((h % 1000) as i64),
            1 => Value::Float((h % 10_000) as f64 / 100.0),
            2 => Value::Bool(h.is_multiple_of(2)),
            3 => Value::str(format!("v{}", h % 97)),
            _ => Value::Null,
        }
    }
}

#[derive(Debug, Clone)]
struct AttrPlan {
    is_source: bool,
    inputs: Vec<usize>,
    cond: CondPlan,
    cost: u64,
    salt: u64,
}

#[derive(Debug, Clone)]
enum CondPlan {
    Always,
    Truthy(usize),
    IsNull(usize),
    CmpConst(usize, i64),
}

fn arb_plan() -> impl proptest::strategy::Strategy<Value = Vec<AttrPlan>> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop::collection::vec(any::<usize>(), 0..4),
            prop_oneof![
                Just(CondPlan::Always),
                any::<usize>().prop_map(CondPlan::Truthy),
                any::<usize>().prop_map(CondPlan::IsNull),
                (any::<usize>(), -50i64..150).prop_map(|(a, t)| CondPlan::CmpConst(a, t)),
            ],
            0u64..4,
            any::<u64>(),
        )
            .prop_map(|(is_source, inputs, cond, cost, salt)| AttrPlan {
                is_source,
                inputs,
                cond,
                cost,
                salt,
            }),
        4..14,
    )
}

/// Compile plans into a schema with **at least two sources** (so a
/// perturbation can leave part of the flow untouched — the whole point
/// of a delta) and at least one non-source target. `twist` reseeds the
/// task bodies and nothing else: two compilations of one plan differ
/// only in what the structural fingerprint cannot see.
fn compile(plans: &[AttrPlan], twist: u64) -> (Arc<Schema>, SourceValues) {
    let mut b = SchemaBuilder::new();
    let mut ids: Vec<decision_flows::prelude::AttrId> = Vec::new();
    let mut non_source_ids: Vec<decision_flows::prelude::AttrId> = Vec::new();
    let mut sources = SourceValues::new();
    for (i, p) in plans.iter().enumerate() {
        let make_source = (i < 2 || (p.is_source && p.salt % 3 == 0)) && i + 1 != plans.len();
        let id = if make_source {
            let id = b.source(format!("s{i}"));
            sources.set(id, Value::Int((p.salt % 200) as i64 - 50));
            id
        } else {
            let inputs: Vec<_> = p
                .inputs
                .iter()
                .filter(|_| !ids.is_empty())
                .map(|&x| ids[x % ids.len()])
                .collect();
            let pick = |i: usize| ids[i % ids.len()];
            let cond = match &p.cond {
                CondPlan::Always => Expr::Lit(true),
                _ if ids.is_empty() => Expr::Lit(true),
                CondPlan::Truthy(i) => Expr::Truthy(pick(*i)),
                CondPlan::IsNull(i) => Expr::IsNull(pick(*i)),
                CondPlan::CmpConst(i, t) => Expr::cmp_const(pick(*i), CmpOp::Lt, *t),
            };
            let id = b.attr(
                format!("a{i}"),
                Task::query(p.cost, body(p.salt ^ twist)),
                inputs,
                cond,
            );
            non_source_ids.push(id);
            id
        };
        ids.push(id);
    }
    b.mark_target(ids[plans.len() - 1]);
    for (i, &id) in non_source_ids.iter().enumerate() {
        if i % 3 == 1 {
            b.mark_target(id);
        }
    }
    let schema = Arc::new(b.build().expect("constructed schema is well-formed"));
    (schema, sources)
}

/// Rebind a (possibly empty) subset of sources to new integer values.
fn perturb(schema: &Schema, base: &SourceValues, changes: &[(usize, i64)]) -> SourceValues {
    let mut out = base.clone();
    let srcs = schema.sources();
    for &(idx, v) in changes {
        out.set(srcs[idx % srcs.len()], Value::Int(v));
    }
    out
}

fn run_cold(schema: &Arc<Schema>, strategy: EngineStrategy, sources: &SourceValues) -> Request {
    Request::with_schema(Arc::clone(schema))
        .sources(sources.clone())
        .strategy(strategy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **Delta ≡ cold**, under all 8 strategies at two parallelism
    /// levels: resubmitting perturbed sources against the previous
    /// completion's snapshot yields the same target states and values
    /// as running the perturbed sources from scratch — and both agree
    /// with the declarative complete snapshot.
    #[test]
    fn delta_resubmission_is_observationally_cold(
        plans in arb_plan(),
        changes in prop::collection::vec((any::<usize>(), -50i64..150), 0..3),
        permitted in prop::sample::select(vec![40u8, 100]),
    ) {
        let (schema, base) = compile(&plans, 0);
        let new_sources = perturb(&schema, &base, &changes);
        let oracle = complete_snapshot(&schema, &new_sources).expect("sources bound");
        for strategy in EngineStrategy::all_at(permitted) {
            let seed = run_cold(&schema, strategy, &base).run()
                .unwrap_or_else(|e| panic!("seed run stalled under {strategy}: {e}"));
            let prior = Arc::new(InstanceSnapshot::capture(&seed.outcome.runtime, "entity"));
            let cold = run_cold(&schema, strategy, &new_sources).run()
                .unwrap_or_else(|e| panic!("cold run stalled under {strategy}: {e}"));
            let delta = run_cold(&schema, strategy, &new_sources).delta(Arc::clone(&prior)).run()
                .unwrap_or_else(|e| panic!("delta run stalled under {strategy}: {e}"));
            prop_assert!(
                delta.outcome.runtime.agrees_with(&oracle),
                "delta under {} diverged from the complete snapshot",
                strategy
            );
            for &t in schema.targets() {
                prop_assert_eq!(
                    delta.outcome.runtime.state(t),
                    cold.outcome.runtime.state(t),
                    "target state under {}", strategy
                );
                prop_assert_eq!(
                    delta.outcome.runtime.stable_value(t),
                    cold.outcome.runtime.stable_value(t),
                    "target value under {}", strategy
                );
            }
        }
    }

    /// A delta whose sources are **identical** to the snapshot has an
    /// empty cone: every previously stabilized attribute is adopted,
    /// nothing launches, and the answer still matches the oracle.
    #[test]
    fn unchanged_delta_reuses_everything(
        plans in arb_plan(),
        permitted in prop::sample::select(vec![40u8, 100]),
    ) {
        let (schema, base) = compile(&plans, 0);
        let oracle = complete_snapshot(&schema, &base).expect("sources bound");
        for strategy in EngineStrategy::all_at(permitted) {
            let seed = run_cold(&schema, strategy, &base).run().unwrap();
            let prior = Arc::new(InstanceSnapshot::capture(&seed.outcome.runtime, "entity"));
            let delta = run_cold(&schema, strategy, &base).delta(prior).run().unwrap();
            let rt = &delta.outcome.runtime;
            prop_assert_eq!(
                rt.metrics().launched, 0,
                "empty cone must launch nothing under {}", strategy
            );
            prop_assert!(rt.retained_count() > 0, "must adopt prior values");
            prop_assert_eq!(delta.outcome.metrics.work, 0);
            prop_assert!(rt.agrees_with(&oracle));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Structure is not identity.** A flow and its twin — same plan,
    /// other task bodies, equal fingerprints — share one label on one
    /// server, so every lookup by `(fingerprint, label)` can find the
    /// other's snapshot and every memo probe the other's `(attribute,
    /// inputs)`. With and without memoization each result is still its
    /// own flow's complete snapshot.
    #[test]
    fn same_shaped_twins_never_share_results(
        plans in arb_plan(),
        twist in 1u64..u64::MAX,
        changes in prop::collection::vec((any::<usize>(), -50i64..150), 0..3),
    ) {
        let (a, base) = compile(&plans, 0);
        let (b, _) = compile(&plans, twist);
        prop_assert_eq!(schema_fingerprint(&a), schema_fingerprint(&b));
        let moved = perturb(&a, &base, &changes);
        for memoize in [false, true] {
            let mut builder = EngineServer::builder().shards(1).workers_per_shard(1);
            if memoize {
                builder = builder.memoize(256);
            }
            let server = builder.build().expect("server builds");
            server.register("a", Arc::clone(&a));
            server.register("b", Arc::clone(&b));
            // `b` after `a` finds `a`'s snapshot, `b` after `b` its own
            // (a true delta), `a` after `b` finds `b`'s.
            let trips = [("a", &a, &base), ("b", &b, &base), ("b", &b, &moved), ("a", &a, &moved)];
            for (name, schema, sources) in trips {
                let oracle = complete_snapshot(schema, sources).expect("sources bound");
                let served = server
                    .submit(
                        Request::named(name)
                            .sources(sources.clone())
                            .label("entity")
                            .delta_by_label(),
                    )
                    .expect("valid request")
                    .wait()
                    .expect("instance completes");
                for &t in schema.targets() {
                    let got = &served.record.attrs[t.index()];
                    let state = match oracle.state(t) {
                        FinalState::Value => AttrState::Value,
                        FinalState::Disabled => AttrState::Disabled,
                    };
                    prop_assert_eq!(got.state, state, "{} state, memoize={}", name, memoize);
                    prop_assert_eq!(
                        got.value.as_ref(), Some(oracle.value(t)),
                        "{} value, memoize={}", name, memoize
                    );
                }
            }
        }
    }
}
