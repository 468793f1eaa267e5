//! The decision-flow execution engine (§3–§4).
//!
//! The engine follows the paper's three-phase loop, re-entered every
//! time new attribute values arrive:
//!
//! 1. **Evaluation** — incorporate new values into the snapshot
//!    ([`InstanceRuntime::complete`]); exit when all targets stable.
//! 2. **Prequalifying** — the Propagation Algorithm identifies eligible
//!    candidates and eliminates unneeded ones
//!    ([`InstanceRuntime::candidates`]).
//! 3. **Scheduling** — the heuristics pick which candidates to launch
//!    ([`scheduler::select`]).
//!
//! [`unit_exec::run_unit_time`] wires the loop to an infinite-resource
//! unit-time clock; finite-resource execution against the simulated
//! database lives in the `dflowperf` crate, reusing the same runtime.

pub mod metrics;
pub mod runtime;
pub mod scheduler;
pub mod strategy;
pub mod unit_exec;

pub use metrics::{InstanceMetrics, ServerStats, ShardStats};
pub use runtime::{InstanceRuntime, RuntimeOptions, RuntimeScratch, Stalled};
pub use strategy::{Heuristic, ParseStrategyError, Strategy};
pub use unit_exec::{run_unit_time, run_unit_time_with_options, ExecError, UnitOutcome};
