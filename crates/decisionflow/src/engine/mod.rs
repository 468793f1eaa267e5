//! The decision-flow execution engine (§3–§4).
//!
//! The engine follows the paper's three-phase loop, re-entered every
//! time new attribute values arrive:
//!
//! 1. **Evaluation** — incorporate new values into the snapshot
//!    ([`InstanceRuntime::complete`]); exit when all targets stable.
//! 2. **Prequalifying** — the Propagation Algorithm identifies eligible
//!    candidates and eliminates unneeded ones
//!    ([`InstanceRuntime::candidates_into`]).
//! 3. **Scheduling** — the heuristics pick which candidates to launch
//!    ([`scheduler::select_into`]) and the picks are launched.
//!
//! Phases 2 and 3 are one call, [`InstanceRuntime::round`], which also
//! journals the round when the runtime carries a recorder; every driver
//! runs it and differs only in where the launched task bodies execute
//! and when their results come back. [`unit_exec::run_unit_time`] wires
//! the loop to an infinite-resource unit-time clock, the
//! [`EngineServer`](crate::server::EngineServer) to its shard worker
//! pools, journal replay to a recorded tape, and the `dflowperf` crate
//! to the simulated finite-resource database — the same runtime and
//! the same round in each.

pub mod metrics;
pub mod runtime;
pub mod scheduler;
pub mod strategy;
pub mod unit_exec;

pub use metrics::{InstanceMetrics, ServerStats, ShardStats};
pub use runtime::{InstanceRuntime, RuntimeOptions, RuntimeScratch, Stalled};
pub use strategy::{Heuristic, ParseStrategyError, Strategy};
pub use unit_exec::{run_unit_time, run_unit_time_with_options, ExecError, UnitOutcome};
