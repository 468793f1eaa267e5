//! The paper's "Lessons learned" (§5) as executable assertions.
//!
//! These encode the *shape* claims of the evaluation — who wins, and
//! roughly where — on reduced-size sweeps so they run in test time.
//! They are a second sample beside the committed figure tables
//! (`paper/`): their own seed catches a claim that holds only on the
//! figures' seeds, and some read cells no figure has.

use decision_flows::dflowgen::PatternParams;
use decision_flows::dflowperf::pattern_sweep;
use decision_flows::prelude::Strategy;

fn params(pct_enabled: u32) -> PatternParams {
    PatternParams {
        nb_nodes: 64,
        nb_rows: 4,
        pct_enabled,
        ..Default::default()
    }
}

fn s(v: &str) -> Strategy {
    v.parse().unwrap()
}

const REPS: u32 = 12;
const SEED: u64 = 0x1_E550;

/// Lesson 1: the Propagation Algorithm reduces both response time and
/// work, with the most significant benefit when the proportion of
/// disabled nodes is large (> 20%).
#[test]
fn lesson1_propagation_reduces_work_most_at_low_enabled() {
    let gain_at = |pct: u32| {
        let p = pattern_sweep(params(pct), s("PCE0"), REPS, SEED);
        let n = pattern_sweep(params(pct), s("NCE0"), REPS, SEED);
        1.0 - p.mean_work() / n.mean_work()
    };
    let g10 = gain_at(10);
    let g50 = gain_at(50);
    let g90 = gain_at(90);
    assert!(
        g10 > 0.25,
        "at 10% enabled, P saves a lot of work: {g10:.2}"
    );
    assert!(g50 > 0.15, "still substantial at 50%: {g50:.2}");
    assert!(g90 >= 0.0 && g90 < g10, "gain shrinks as %enabled grows");
    // And time improves too (sequential time == work in unit model).
    let p = pattern_sweep(params(25), s("PCE0"), REPS, SEED);
    let n = pattern_sweep(params(25), s("NCE0"), REPS, SEED);
    assert!(p.mean_response() < n.mean_response());
}

/// Lesson 2: with propagation on, Conservative usually beats
/// Speculative on total cost; Speculative becomes more attractive as
/// the proportion of disabled nodes falls (its wasted work shrinks).
#[test]
fn lesson2_conservative_vs_speculative_tradeoff() {
    // Extra work paid by speculation, relative, at low and high %enabled.
    let extra_at = |pct: u32| {
        let c = pattern_sweep(params(pct), s("PCE100"), REPS, SEED);
        let sp = pattern_sweep(params(pct), s("PSE100"), REPS, SEED);
        (sp.mean_work() - c.mean_work()) / c.mean_work()
    };
    let extra_low = extra_at(25);
    let extra_high = extra_at(90);
    assert!(
        extra_low > extra_high,
        "speculation wastes relatively more when many nodes disable: {extra_low:.2} vs {extra_high:.2}"
    );
    assert!(extra_low > 0.10, "at 25% enabled the waste is substantial");
    // Speculation never hurts response time (it only adds overlap).
    let c = pattern_sweep(params(75), s("PCE100"), REPS, SEED);
    let sp = pattern_sweep(params(75), s("PSE100"), REPS, SEED);
    assert!(sp.mean_response() <= c.mean_response() + 1e-9);
}

/// Lesson 3: with propagation on, topologically-Earliest scheduling is
/// at least as good as Cheapest on response time at intermediate
/// parallelism — and strictly better somewhere in the 20–80% band.
#[test]
fn lesson3_earliest_beats_cheapest_with_propagation() {
    let mut strictly_better = false;
    for p in [20u8, 40, 60, 80] {
        let e = pattern_sweep(params(75), format!("PCE{p}").parse().unwrap(), REPS, SEED);
        let c = pattern_sweep(params(75), format!("PCC{p}").parse().unwrap(), REPS, SEED);
        assert!(
            e.mean_response() <= c.mean_response() * 1.05,
            "Earliest should not lose to Cheapest at {p}%: {} vs {}",
            e.mean_response(),
            c.mean_response()
        );
        if e.mean_response() < c.mean_response() * 0.95 {
            strictly_better = true;
        }
    }
    assert!(
        strictly_better,
        "Earliest should win strictly somewhere in the 20-80% band"
    );
    // Work is approximately the same for the two heuristics (paper:
    // "consume approximately the same amount of work").
    let e = pattern_sweep(params(75), s("PCE40"), REPS, SEED);
    let c = pattern_sweep(params(75), s("PCC40"), REPS, SEED);
    let rel = (e.mean_work() - c.mean_work()).abs() / c.mean_work();
    assert!(rel < 0.10, "work difference between heuristics: {rel:.3}");
}

/// The inverse of Lesson 3 also reported by the paper: when propagation
/// is OFF, Cheapest is the heuristic of choice (it never loses badly).
#[test]
fn lesson3_inverse_cheapest_fine_without_propagation() {
    let e = pattern_sweep(params(50), s("NCE0"), REPS, SEED);
    let c = pattern_sweep(params(50), s("NCC0"), REPS, SEED);
    assert!(
        c.mean_work() <= e.mean_work() * 1.05,
        "without P, cheapest-first work {} should not exceed earliest {}",
        c.mean_work(),
        e.mean_work()
    );
}

/// Figure 6 headline: maximal parallelism cuts response time by ~60%
/// at nb_rows=4, %enabled=75, with little extra conservative work.
#[test]
fn figure6_headline_parallelism_cuts_time() {
    let seq = pattern_sweep(params(75), s("PCE0"), REPS, SEED);
    let par = pattern_sweep(params(75), s("PCE100"), REPS, SEED);
    let reduction = 1.0 - par.mean_response() / seq.mean_response();
    assert!(
        reduction > 0.45,
        "expected ≳60% reduction, got {:.0}%",
        reduction * 100.0
    );
    let extra_work = (par.mean_work() - seq.mean_work()) / seq.mean_work();
    assert!(
        extra_work < 0.10,
        "conservative parallelism adds little work, got {:.0}%",
        extra_work * 100.0
    );
}

/// Diameter effect: fewer rows = longer diameter = less parallelism
/// available; response time at full parallelism grows as rows shrink.
#[test]
fn diameter_controls_parallel_speedup() {
    let time_at_rows = |rows: usize| {
        let p = PatternParams {
            nb_rows: rows,
            pct_enabled: 75,
            ..Default::default()
        };
        pattern_sweep(p, s("PCE100"), REPS, SEED).mean_response()
    };
    let t1 = time_at_rows(1);
    let t4 = time_at_rows(4);
    let t16 = time_at_rows(16);
    assert!(
        t1 > t4 && t4 > t16,
        "more rows, more parallelism, less time: {t1:.0} {t4:.0} {t16:.0}"
    );
}
