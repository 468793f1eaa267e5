//! The [`UnitTime`] backend: the paper's infinite-resource setting.

use std::sync::Arc;
use std::time::Duration;

use decisionflow::api::Request;
use decisionflow::snapshot::complete_snapshot;

use super::{
    Accounting, Arrival, Backend, LatencyUnit, LoadError, LoadReport, ReportFrame, Resolved,
    Workload,
};

/// The in-process infinite-resource executor: every instance runs on
/// its own virtual unit clock, so the arrival process cannot create
/// contention and only determines *how many* instances run. Responses
/// are the paper's TimeInUnits; deadlines (wall-clock budgets) have no
/// clock to bind to and are ignored.
///
/// Every execution is checked against the declarative oracle
/// ([`complete_snapshot`]) and the run fails on divergence — the
/// guarantee every figure sweep ships with.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitTime;

impl UnitTime {
    /// The oracle-checked executor.
    pub fn checked() -> UnitTime {
        UnitTime
    }
}

impl Backend for UnitTime {
    fn name(&self) -> &'static str {
        "unit-time"
    }

    fn run(&self, workload: &Workload) -> Result<LoadReport, LoadError> {
        let Resolved { strategy, total } = workload.resolve()?;
        if matches!(workload.arrival, Arrival::Resubmission { .. }) {
            return Err(LoadError::config(
                "resubmission arrivals need a server backend (no snapshot store here)",
            ));
        }
        let mut acc = Accounting::new(workload.warmup, false);
        for i in 0..total {
            let flow = &workload.flows[i % workload.flows.len()];
            let report = Request::with_schema(Arc::clone(&flow.schema))
                .sources(flow.sources.clone())
                .strategy(strategy)
                .options(workload.options)
                .run()
                .map_err(|e| LoadError::Exec(format!("instance {i}: {e}")))?;
            let snap = complete_snapshot(&flow.schema, &flow.sources)
                .map_err(|e| LoadError::Exec(format!("oracle for instance {i}: {e}")))?;
            if !report.outcome.runtime.agrees_with(&snap) {
                return Err(LoadError::Exec(format!(
                    "strategy {strategy} diverged from declarative semantics on flow seed {}",
                    flow.seed
                )));
            }
            acc.delivered(
                i,
                false,
                report.outcome.time_units as f64,
                &report.outcome.metrics,
            );
        }
        Ok(acc.into_report(ReportFrame {
            backend: self.name(),
            workload,
            strategy,
            submitted: total,
            window_secs: 0.0,
            wall: Duration::ZERO,
            latency_unit: LatencyUnit::Units,
        }))
    }
}
