//! Call-center routing on the multi-threaded engine server (§3's
//! execution module, paper Figure 2).
//!
//! Run with: `cargo run --example call_center`
//!
//! A stream of inbound customer contacts is submitted concurrently to
//! an [`EngineServer`]; each contact's decision flow looks up the
//! customer tier, estimates churn risk, and routes the call. The
//! worker-pool size caps how many "database dips" run at once — the
//! external server's finite multiprogramming level. Afterwards the
//! execution log is mined for schema refinements (§2).

use std::sync::Arc;

use decision_flows::decisionflow::report::{ExecutionLog, Refinement};
use decision_flows::prelude::*;

fn routing_flow() -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    let customer_id = b.source("customer_id");
    let wait_seconds = b.source("queue_wait_s");

    // Profile dip (simulated latency on the worker thread).
    let tier = b.query("tier_lookup", 2, vec![customer_id], Expr::Lit(true), |v| {
        std::thread::sleep(std::time::Duration::from_micros(200));
        match v[0].as_f64().map(|x| x as i64 % 5) {
            Some(0) => Value::str("platinum"),
            Some(1) | Some(2) => Value::str("gold"),
            _ => Value::str("standard"),
        }
    });
    let is_priority = b.synthesis("is_priority", vec![tier], Expr::Lit(true), |v| {
        Value::Bool(matches!(&v[0], Value::Str(s) if s.as_ref() != "standard"))
    });

    // Churn model: expensive, only for priority customers kept waiting.
    let churn = b.query(
        "churn_risk",
        6,
        vec![customer_id, wait_seconds],
        Expr::Truthy(is_priority).and(Expr::cmp_const(wait_seconds, CmpOp::Gt, 60i64)),
        |v| {
            std::thread::sleep(std::time::Duration::from_micros(600));
            let id = v[0].as_f64().unwrap_or(0.0);
            let wait = v[1].as_f64().unwrap_or(0.0);
            Value::Float(((id % 37.0) + wait / 10.0).min(100.0))
        },
    );

    // Routing rules over (tier-priority, churn, wait).
    let inp = AttrId::from_index;
    let rules = RuleSet::new(
        vec![
            Rule::emit(Expr::cmp_const(inp(1), CmpOp::Ge, 40.0), "retention_desk").weighted(5.0),
            Rule::emit(Expr::Truthy(inp(0)), "senior_agent").weighted(3.0),
            Rule::emit(Expr::cmp_const(inp(2), CmpOp::Gt, 300i64), "callback_offer").weighted(2.0),
            Rule::emit(Expr::Lit(true), "general_pool").weighted(1.0),
        ],
        CombiningPolicy::HighestWeight,
        "general_pool",
    );
    let route = b.attr(
        "route",
        rules.into_task(),
        vec![is_priority, churn, wait_seconds],
        Expr::Lit(true),
    );
    b.mark_target(route);
    Arc::new(b.build().expect("routing flow well-formed"))
}

fn main() {
    let schema = routing_flow();
    // 4 shards of one worker thread each: 4 is the external systems'
    // multiprogramming level.
    let server = EngineServer::builder()
        .shards(4)
        .strategy("PSE100".parse().unwrap())
        .build()
        .expect("spawn worker threads");
    server.register("routing", Arc::clone(&schema));

    let contacts: Vec<(i64, i64)> = (0..60).map(|i| (1000 + i * 7, (i * 13) % 420)).collect();

    // Watch the lifecycle stream while the burst executes.
    let events = server.subscribe();

    let t0 = std::time::Instant::now();
    // One batched submission: routing and registry lookups are
    // amortized over the whole burst of contacts.
    let tickets = server
        .submit_many(contacts.iter().map(|&(id, wait)| {
            Request::named("routing")
                .bind(schema.lookup("customer_id").unwrap(), id)
                .bind(schema.lookup("queue_wait_s").unwrap(), wait)
        }))
        .expect("registered schema");

    let mut log = ExecutionLog::new();
    let mut route_counts: std::collections::BTreeMap<String, usize> = Default::default();
    for t in tickets {
        let r: InstanceResult = t.wait().expect("server alive");
        if let Some(v) = r.record.outcome("route").and_then(|o| o.value.clone()) {
            *route_counts.entry(v.to_string()).or_default() += 1;
        }
        log.push(r.record);
    }
    let elapsed = t0.elapsed();

    let stats = server.stats();
    let mut completions = 0usize;
    while let Ok(Some(ev)) = events.try_recv() {
        if matches!(ev, InstanceEvent::Completed { .. }) {
            completions += 1;
        }
    }
    println!(
        "routed {} contacts in {:.1} ms wall-clock on {} workers across {} shards ({} used); \
         event stream saw {completions} completions",
        contacts.len(),
        elapsed.as_secs_f64() * 1e3,
        server.worker_count(),
        server.shard_count(),
        stats.shards_used(),
    );
    println!("routing mix: {route_counts:?}");
    println!(
        "mean work {:.1} units/contact; churn model disabled for {:.0}% of contacts",
        log.mean_work(),
        log.disabled_rate("churn_risk") * 100.0
    );

    println!("\nmining the execution log for refinements (§2):");
    let findings = log.suggest_refinements(0.85);
    if findings.is_empty() {
        println!("  (none at the 85% threshold)");
    }
    for f in findings {
        match f {
            Refinement::MostlyDisabled { attr, rate } => println!(
                "  - {attr} is disabled in {:.0}% of contacts: consider demoting its branch",
                rate * 100.0
            ),
            Refinement::MostlyEnabled { attr, rate } => println!(
                "  - {attr} is enabled in {:.0}% of contacts: its guard may be dead",
                rate * 100.0
            ),
            Refinement::HighSpeculationWaste { waste_ratio } => println!(
                "  - {:.0}% of work is wasted speculation: prefer a conservative strategy",
                waste_ratio * 100.0
            ),
        }
    }
}
