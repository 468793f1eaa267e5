//! Unit-time execution: one instance against an infinite-resource
//! database.
//!
//! §5's first experiment family measures **Work** and **TimeInUnits**
//! assuming the database has unbounded resources: a query of cost `c`
//! units completes exactly `c` time units after launch, regardless of
//! concurrency. This executor drives one [`InstanceRuntime`] under that
//! model with a tiny private event calendar.
//!
//! (The finite-resource setting — TimeInSeconds against the simulated
//! database — lives in the `dflowperf` crate, which embeds the same
//! runtime in a `desim` simulation.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::engine::metrics::InstanceMetrics;
use crate::engine::runtime::{InstanceRuntime, RuntimeOptions, Stalled};
use crate::engine::strategy::Strategy;
use crate::journal::Journal;
use crate::schema::{AttrId, Schema};
use crate::snapshot::{SnapshotError, SourceValues};
use crate::store::SealOutcome;
use crate::value::Value;

/// Result of a unit-time execution.
pub struct UnitOutcome {
    /// Response time in units of processing (the paper's TimeInUnits).
    pub time_units: u64,
    /// Execution counters; `metrics.work` is the paper's Work.
    pub metrics: InstanceMetrics,
    /// The final runtime, for inspecting target values and states.
    pub runtime: InstanceRuntime,
}

impl UnitOutcome {
    /// Shorthand for the paper's Work measure.
    pub fn work(&self) -> u64 {
        self.metrics.work
    }
}

/// Why a unit-time execution failed.
#[derive(Debug)]
pub enum ExecError {
    /// Source binding problems.
    Snapshot(SnapshotError),
    /// The engine could not make progress (invariant violation).
    Stalled(Stalled),
    /// The [`Request`](crate::api::Request) cannot run in-process.
    Request(crate::api::RequestError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Snapshot(e) => write!(f, "{e}"),
            ExecError::Stalled(e) => write!(f, "{e}"),
            ExecError::Request(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SnapshotError> for ExecError {
    fn from(e: SnapshotError) -> Self {
        ExecError::Snapshot(e)
    }
}

struct Completion {
    at: u64,
    seq: u64,
    attr: AttrId,
    value: Value,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The one in-process execution path behind every public entry point:
/// [`run_unit_time`] and [`crate::api::run`] both hand their runtime to
/// this — drive it to completion, then seal it — so journaling is a
/// recorder inside the runtime or none, not a parallel code path.
pub(crate) fn execute(rt: InstanceRuntime) -> Result<(UnitOutcome, Option<Journal>), ExecError> {
    let mut outcome = drive(rt)?;
    // Seal after the stragglers `drive` delivers, so an in-process
    // journal carries them.
    let journal = outcome
        .runtime
        .seal(outcome.time_units, SealOutcome::Completed);
    Ok((outcome, journal))
}

/// Execute one instance to completion in unit time.
pub fn run_unit_time(
    schema: &Arc<Schema>,
    strategy: Strategy,
    sources: &SourceValues,
) -> Result<UnitOutcome, ExecError> {
    run_unit_time_with_options(schema, strategy, sources, RuntimeOptions::default())
}

/// [`run_unit_time`] with ablation options.
pub fn run_unit_time_with_options(
    schema: &Arc<Schema>,
    strategy: Strategy,
    sources: &SourceValues,
    options: RuntimeOptions,
) -> Result<UnitOutcome, ExecError> {
    let rt = InstanceRuntime::with_options(Arc::clone(schema), strategy, sources, options)?;
    execute(rt).map(|(out, _)| out)
}

/// The three-phase loop against the unit-time calendar. The runtime
/// journals itself — rounds, launches, completions and propagation —
/// when it carries a recorder.
fn drive(mut rt: InstanceRuntime) -> Result<UnitOutcome, ExecError> {
    let schema = Arc::clone(rt.schema());
    let mut calendar: BinaryHeap<Completion> = BinaryHeap::new();
    let mut launches: Vec<(AttrId, Vec<Value>)> = Vec::new();
    let mut now = 0u64;
    let mut seq = 0u64;

    loop {
        if rt.is_complete() {
            // Response time is when the last target stabilized; any
            // still-in-flight speculative work is already counted in
            // `work` (committed at launch) but does not delay response.
            break;
        }
        // Scheduling phase: launch what %Permitted allows.
        rt.round(&mut launches);
        for (a, inputs) in launches.drain(..) {
            let value = schema.attr(a).task.compute(&inputs);
            calendar.push(Completion {
                at: now + schema.cost(a),
                seq,
                attr: a,
                value,
            });
            seq += 1;
        }
        if rt.is_complete() {
            break;
        }
        // Evaluation phase: advance to the next completion.
        match calendar.pop() {
            None => return Err(ExecError::Stalled(rt.stalled())),
            Some(c) => {
                debug_assert!(c.at >= now);
                now = c.at;
                rt.complete(c.attr, c.value);
            }
        }
    }

    // The instance is complete; deliver any straggling (speculative)
    // completions so the waste accounting is exact. Response time stays
    // at the instant the last target stabilized.
    while let Some(c) = calendar.pop() {
        rt.complete(c.attr, c.value);
    }

    Ok(UnitOutcome {
        time_units: now,
        metrics: rt.metrics().clone(),
        runtime: rt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;
    use crate::snapshot::complete_snapshot;
    use crate::task::Task;

    fn strat(s: &str) -> Strategy {
        s.parse().unwrap()
    }

    /// Two parallel chains of 3 queries each (cost 2), then a target.
    fn two_chains() -> (Arc<Schema>, SourceValues) {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let mut lasts = vec![];
        for r in 0..2 {
            let mut prev = s;
            for c in 0..3 {
                prev = b.attr(
                    format!("q{r}_{c}"),
                    Task::const_query(2, 1i64),
                    vec![prev],
                    Expr::Lit(true),
                );
            }
            lasts.push(prev);
        }
        let t = b.attr("t", Task::const_query(2, 9i64), lasts, Expr::Lit(true));
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        (schema, sv)
    }

    #[test]
    fn sequential_time_equals_work() {
        let (schema, sv) = two_chains();
        let out = run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        // 7 tasks × cost 2 = 14 units of work, strictly sequential.
        assert_eq!(out.work(), 14);
        assert_eq!(out.time_units, 14);
        assert!(out.runtime.is_complete());
    }

    #[test]
    fn full_parallelism_hits_critical_path() {
        let (schema, sv) = two_chains();
        let out = run_unit_time(&schema, strat("PCE100"), &sv).unwrap();
        // Both chains run in parallel: 3 × 2 + 2 (target) = 8 units.
        assert_eq!(out.time_units, 8);
        assert_eq!(out.work(), 14, "parallelism does not change work");
    }

    #[test]
    fn partial_parallelism_between_extremes() {
        let (schema, sv) = two_chains();
        let seq = run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        let half = run_unit_time(&schema, strat("PCE50"), &sv).unwrap();
        let full = run_unit_time(&schema, strat("PCE100"), &sv).unwrap();
        assert!(half.time_units <= seq.time_units);
        assert!(full.time_units <= half.time_units);
    }

    #[test]
    fn all_strategies_agree_with_oracle() {
        let (schema, sv) = two_chains();
        let snap = complete_snapshot(&schema, &sv).unwrap();
        for p in [0u8, 40, 100] {
            for s in Strategy::all_at(p) {
                let out = run_unit_time(&schema, s, &sv).unwrap();
                assert!(out.runtime.agrees_with(&snap), "strategy {s} diverged");
            }
        }
    }

    #[test]
    fn disabled_target_completes_at_time_zero() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = b.attr(
            "t",
            Task::const_query(5, 1i64),
            vec![],
            Expr::cmp_const(s, CmpOp::Gt, 10i64),
        );
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 3i64);
        let out = run_unit_time(&schema, strat("PCE100"), &sv).unwrap();
        assert_eq!(out.time_units, 0);
        assert_eq!(out.work(), 0);
    }

    #[test]
    fn speculation_reduces_time_but_adds_work() {
        // gate (cost 10) gates q (cost 10); speculatively q runs in
        // parallel with gate → time 10+ε instead of 20; if the gate
        // passes, no waste.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let gate = b.attr("gate", Task::const_query(10, 1i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(10, 7i64),
            vec![s],
            Expr::cmp_const(gate, CmpOp::Gt, 0i64),
        );
        let t = b.synthesis("t", vec![q], Expr::Lit(true), |v| v[0].clone());
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);

        let cons = run_unit_time(&schema, strat("PCE100"), &sv).unwrap();
        let spec = run_unit_time(&schema, strat("PSE100"), &sv).unwrap();
        assert_eq!(cons.time_units, 20, "conservative serializes gate → q");
        assert_eq!(spec.time_units, 10, "speculation overlaps them");
        assert_eq!(cons.work(), 20);
        assert_eq!(spec.work(), 20, "gate passed: no wasted speculation");
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(spec.runtime.agrees_with(&snap));
    }

    #[test]
    fn zero_cost_synthesis_completes_instantly() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = b.synthesis("t", vec![s], Expr::Lit(true), |v| v[0].clone());
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 42i64);
        let out = run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        assert_eq!(out.time_units, 0);
        assert_eq!(
            out.runtime.stable_value(schema.lookup("t").unwrap()),
            Some(&Value::Int(42))
        );
    }
}
