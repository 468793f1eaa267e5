//! Tuning advisor: the paper's "Prescriptions for Tuning" (§5) as a
//! tool.
//!
//! Run with: `cargo run --release --example tuning_advisor`
//!
//! Given a decision-flow pattern and a target throughput, the advisor
//!
//! 1. calibrates the database's `Db` function (unit response time vs
//!    load) on the simulated server;
//! 2. computes the Equation-(6) bound on affordable Work per instance;
//! 3. builds the pattern's guideline map (minT vs Work frontier);
//! 4. combines the two — predicted response = minT(W) × UnitTime(W) —
//!    and recommends the execution program minimizing it;
//! 5. verifies the recommendation by actually running the open load.

use dflowgen::{generate, PatternParams};
use dflowperf::{
    guideline_for_pattern, max_work_for_throughput, portfolio, recommend_program,
    solve_unit_time_with_lmpl, Arrival, DbFunction, SimDb, Workload,
};
use simdb::{measure_db_function_open, DbConfig};

fn main() {
    let pattern = PatternParams {
        nb_nodes: 64,
        nb_rows: 4,
        pct_enabled: 50,
        ..Default::default()
    };
    let th = 3.0; // target throughput, instances/second
    let db_cfg = DbConfig::default();

    println!(
        "pattern: {} nodes x {} rows, %enabled={}",
        pattern.nb_nodes, pattern.nb_rows, pattern.pct_enabled
    );
    println!("target throughput: {th} instances/second\n");

    eprintln!("[1/4] calibrating Db function on the simulated database ...");
    let rates: Vec<f64> = (1..=13).map(|i| i as f64 * 30.0).collect();
    let db = DbFunction::from_points(&measure_db_function_open(db_cfg, rates, 0xAD));

    let bound = max_work_for_throughput(&db, th, 100_000);
    println!("[2/4] Equation (6): at Th={th}/s the database affords <= {bound} units/instance");

    eprintln!("[3/4] building guideline map (this sweeps strategies over the pattern) ...");
    let map = guideline_for_pattern(pattern, &portfolio(&[40, 80, 100]), 12, 0xAD);

    println!("[4/4] frontier with predicted response times:");
    println!(
        "      {:<8} {:>7} {:>8} {:>14}",
        "program", "Work", "minT", "predicted(ms)"
    );
    for p in map.frontier() {
        if p.work > bound as f64 {
            println!(
                "      {:<8} {:>7.1} {:>8.1} {:>14}",
                p.strategy.to_string(),
                p.work,
                p.time_units,
                "over budget"
            );
            continue;
        }
        let lmpl = (p.work / p.time_units).max(1.0);
        match solve_unit_time_with_lmpl(&db, th, p.work, lmpl).stable_ms() {
            Some(u) => println!(
                "      {:<8} {:>7.1} {:>8.1} {:>14.0}",
                p.strategy.to_string(),
                p.work,
                p.time_units,
                u * p.time_units
            ),
            None => println!(
                "      {:<8} {:>7.1} {:>8.1} {:>14}",
                p.strategy.to_string(),
                p.work,
                p.time_units,
                "saturates"
            ),
        }
    }

    // An over-budget program saturates Equation (6) with or without
    // the Lmpl correction, so the feasible rows above are exactly the
    // ones the recommendation chooses among.
    let choice = recommend_program(&db, &map, th).expect("at least one feasible program");
    let predicted = choice.predicted_ms;
    println!(
        "\nrecommendation: run {} (predicted response {:.0} ms at Th={th}/s)",
        choice.point.strategy, predicted
    );

    eprintln!("\nverifying against the simulated database ...");
    let flows: Vec<_> = (0..6)
        .map(|i| generate(pattern, 0xAD + i).unwrap())
        .collect();
    let measured = Workload::new(flows)
        .arrivals(Arrival::Poisson { rate: th })
        .instances(300)
        .warmup(60)
        .seed(0xAD)
        .strategy(choice.point.strategy)
        .run(&SimDb::new(db_cfg))
        .expect("valid workload");
    let m = measured.responses.mean();
    println!(
        "measured: {:.0} ms mean response ({} instances, mean Gmpl {:.1}) — {:.0}% off the prediction",
        m,
        measured.completed,
        measured.sim.expect("simdb stats").mean_gmpl,
        100.0 * (predicted - m).abs() / m
    );
}
