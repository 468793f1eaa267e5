//! The scheduling phase: pick which candidates to launch.
//!
//! Given the prequalified candidate pool, the scheduler orders it by
//! the strategy's heuristic and launches as many tasks as `%Permitted`
//! allows (§4, "Optimizations in the Scheduling Phase"):
//!
//! * **Topologically-earliest first** (`E`): candidates closest to the
//!   sources go first, feeding forward propagation as early as
//!   possible (which in turn creates start points for backward
//!   propagation).
//! * **Cheapest first** (`C`): shortest estimated execution time
//!   first — results return sooner, and mis-speculated work is cheaper.
//!
//! Ties break on topological rank and then attribute id, making every
//! schedule deterministic.

use crate::engine::strategy::{Heuristic, Strategy};
use crate::schema::{AttrId, Schema};

/// Order `candidates` in place according to the heuristic.
pub fn order_candidates(schema: &Schema, heuristic: Heuristic, candidates: &mut [AttrId]) {
    match heuristic {
        Heuristic::Earliest => {
            candidates.sort_by_key(|&a| (schema.topo_rank(a), a));
        }
        Heuristic::Cheapest => {
            candidates.sort_by_key(|&a| (schema.cost(a), schema.topo_rank(a), a));
        }
    }
}

/// Select the tasks to launch this round, in place on a caller-owned
/// buffer: orders the pool by the heuristic, computes the launch
/// budget from `%Permitted`, and truncates the buffer to the prefix
/// that fits, so a scheduling loop can reuse one allocation across
/// rounds.
///
/// The budget comes from [`Strategy::launch_budget`], which owns the
/// cap/select contract: the concurrency cap counts tasks *including*
/// those already running and may be smaller than `in_flight`, in which
/// case the budget (and the remaining prefix) is empty.
pub fn select_into(
    schema: &Schema,
    strategy: Strategy,
    candidates: &mut Vec<AttrId>,
    in_flight: usize,
) {
    if candidates.is_empty() {
        return;
    }
    order_candidates(schema, strategy.heuristic, candidates);
    let n = strategy
        .launch_budget(candidates.len(), in_flight)
        .min(candidates.len());
    candidates.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::SchemaBuilder;
    use crate::task::Task;

    fn select(
        schema: &Schema,
        strategy: Strategy,
        mut candidates: Vec<AttrId>,
        in_flight: usize,
    ) -> Vec<AttrId> {
        select_into(schema, strategy, &mut candidates, in_flight);
        candidates
    }

    /// Fan-out: src feeds q0..q3 with costs 7, 1, 5, 3; t consumes all.
    fn fanout() -> (Schema, Vec<AttrId>) {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let costs = [7u64, 1, 5, 3];
        let qs: Vec<AttrId> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                b.attr(
                    format!("q{i}"),
                    Task::const_query(c, 0i64),
                    vec![s],
                    Expr::Lit(true),
                )
            })
            .collect();
        let t = b.attr("t", Task::const_query(1, 0i64), qs.clone(), Expr::Lit(true));
        b.mark_target(t);
        (b.build().unwrap(), qs)
    }

    #[test]
    fn earliest_orders_by_topo_rank() {
        let (schema, qs) = fanout();
        let mut pool = vec![qs[3], qs[1], qs[2], qs[0]];
        order_candidates(&schema, Heuristic::Earliest, &mut pool);
        assert_eq!(pool, qs, "declaration order = topo rank for siblings");
    }

    #[test]
    fn cheapest_orders_by_cost() {
        let (schema, qs) = fanout();
        let mut pool = qs.clone();
        order_candidates(&schema, Heuristic::Cheapest, &mut pool);
        let costs: Vec<u64> = pool.iter().map(|&a| schema.cost(a)).collect();
        assert_eq!(costs, vec![1, 3, 5, 7]);
    }

    #[test]
    fn cheapest_breaks_ties_by_rank() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let q0 = b.attr("q0", Task::const_query(5, 0i64), vec![s], Expr::Lit(true));
        let q1 = b.attr("q1", Task::const_query(5, 0i64), vec![s], Expr::Lit(true));
        let t = b.attr(
            "t",
            Task::const_query(1, 0i64),
            vec![q0, q1],
            Expr::Lit(true),
        );
        b.mark_target(t);
        let schema = b.build().unwrap();
        let mut pool = vec![q1, q0];
        order_candidates(&schema, Heuristic::Cheapest, &mut pool);
        assert_eq!(pool, vec![q0, q1]);
    }

    #[test]
    fn select_sequential_launches_one() {
        let (schema, qs) = fanout();
        let st: Strategy = "PCE0".parse().unwrap();
        let picks = select(&schema, st, qs.clone(), 0);
        assert_eq!(picks, vec![qs[0]]);
        // With one already in flight, nothing more launches at 0%.
        let picks = select(&schema, st, qs.clone(), 1);
        assert!(picks.is_empty());
    }

    #[test]
    fn select_full_parallelism_launches_all() {
        let (schema, qs) = fanout();
        let st: Strategy = "PCE100".parse().unwrap();
        assert_eq!(select(&schema, st, qs.clone(), 0), qs);
        assert_eq!(select(&schema, st, qs.clone(), 3).len(), 4);
    }

    #[test]
    fn select_partial_parallelism() {
        let (schema, qs) = fanout();
        let st: Strategy = "PCE50".parse().unwrap();
        // cap = ceil(0.5 * 4) = 2, none in flight: launch 2.
        assert_eq!(select(&schema, st, qs.clone(), 0).len(), 2);
        // cap = ceil(0.5 * 5) = 3, two in flight: launch 1.
        assert_eq!(select(&schema, st, qs.clone(), 2).len(), 1);
    }

    #[test]
    fn select_with_in_flight_exceeding_cap_launches_nothing() {
        // Regression: a draining pool can leave in_flight above the
        // current cap (here cap = ceil(0.5·(4+9)) = 7 < 9). The prefix
        // must be empty — the old `cap - in_flight` arithmetic only
        // survived via saturating_sub; the contract is now explicit in
        // Strategy::launch_budget.
        let (schema, qs) = fanout();
        let st: Strategy = "PCE50".parse().unwrap();
        assert!(st.concurrency_cap(qs.len(), 9) < 9);
        assert!(select(&schema, st, qs.clone(), 9).is_empty());
        // Same at 0%: anything in flight blocks further launches.
        let seq: Strategy = "PCE0".parse().unwrap();
        assert!(select(&schema, seq, qs.clone(), 4).is_empty());
    }

    #[test]
    fn select_empty_pool() {
        let (schema, _) = fanout();
        let st: Strategy = "PCE100".parse().unwrap();
        assert!(select(&schema, st, vec![], 5).is_empty());
    }

    #[test]
    fn select_uses_cheapest_prefix() {
        let (schema, qs) = fanout();
        let st: Strategy = "PCC0".parse().unwrap();
        let picks = select(&schema, st, qs.clone(), 0);
        assert_eq!(picks, vec![qs[1]], "cheapest (cost 1) goes first");
    }
}
