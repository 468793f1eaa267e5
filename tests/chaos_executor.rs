//! Order-independence of the Propagation Algorithm: the paper claims
//! correctness "regardless of what order the tasks are executed in".
//! The unit-time executor always completes the earliest-finishing task;
//! here a *chaos executor* completes a uniformly random in-flight task
//! instead — simulating arbitrary external-system latencies — and the
//! engine must still land exactly on the complete snapshot.

use std::sync::Arc;

use decision_flows::dflowgen::{generate, PatternParams};
use decision_flows::prelude::{
    complete_snapshot, AttrId, InstanceRuntime, Schema, SourceValues, Strategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drive one instance to completion, completing a random in-flight
/// task at every step. Returns the runtime plus the number of steps.
fn run_chaos(
    schema: &Arc<Schema>,
    strategy: Strategy,
    sources: &SourceValues,
    rng: &mut StdRng,
) -> InstanceRuntime {
    let mut rt = InstanceRuntime::new(Arc::clone(schema), strategy, sources).expect("sources ok");
    // (attr, precomputed value) for in-flight tasks.
    let mut in_flight: Vec<(AttrId, decision_flows::prelude::Value)> = Vec::new();
    let mut launches = Vec::new();
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 100_000, "runaway chaos loop");
        if rt.is_complete() {
            break;
        }
        // The production scheduling round.
        rt.round(&mut launches);
        for (a, inputs) in launches.drain(..) {
            let v = schema.attr(a).task.compute(&inputs);
            in_flight.push((a, v));
        }
        if rt.is_complete() {
            break;
        }
        assert!(!in_flight.is_empty(), "stalled: {:?}", rt.stalled());
        // Complete a random task — latencies are adversarial.
        let idx = rng.gen_range(0..in_flight.len());
        let (a, v) = in_flight.swap_remove(idx);
        rt.complete(a, v);
    }
    // Drain stragglers for complete accounting.
    for (a, v) in in_flight {
        rt.complete(a, v);
    }
    rt
}

#[test]
fn chaos_orderings_agree_with_oracle_on_generated_flows() {
    let mut rng = StdRng::seed_from_u64(0xC405);
    for seed in 0..30u64 {
        let params = PatternParams {
            nb_nodes: 32,
            nb_rows: 4,
            pct_enabled: 10 + (seed as u32 * 13) % 90,
            ..Default::default()
        };
        let flow = generate(params, 60_000 + seed).unwrap();
        let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
        for strat in ["PCE100", "PSE100", "NSC60", "PSC30"] {
            let strategy: Strategy = strat.parse().unwrap();
            // Several random orderings per configuration.
            for _ in 0..4 {
                let rt = run_chaos(&flow.schema, strategy, &flow.sources, &mut rng);
                assert!(
                    rt.agrees_with(&snap),
                    "chaos order diverged: seed {seed}, strategy {strat}"
                );
            }
        }
    }
}

#[test]
fn chaos_work_bounds_hold() {
    // Whatever the completion order, conservative work is bounded by
    // the enabled set and propagation work never exceeds naive work
    // under the same (sequential) scheduling.
    let mut rng = StdRng::seed_from_u64(7);
    let params = PatternParams {
        nb_nodes: 32,
        nb_rows: 4,
        pct_enabled: 40,
        ..Default::default()
    };
    let flow = generate(params, 99).unwrap();
    let enabled_cost: u64 = {
        let snap = complete_snapshot(&flow.schema, &flow.sources).unwrap();
        flow.schema
            .attr_ids()
            .filter(|&a| !flow.schema.is_source(a))
            .filter(|&a| snap.state(a) == decision_flows::prelude::FinalState::Value)
            .map(|a| flow.schema.cost(a))
            .sum()
    };
    for _ in 0..10 {
        let rt = run_chaos(
            &flow.schema,
            "PCE100".parse().unwrap(),
            &flow.sources,
            &mut rng,
        );
        assert!(
            rt.metrics().work <= enabled_cost,
            "conservative work {} cannot exceed the enabled total {}",
            rt.metrics().work,
            enabled_cost
        );
        assert_eq!(
            rt.metrics().wasted_completions,
            0,
            "conservative never wastes"
        );
    }
}
