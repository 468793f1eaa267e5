//! # dflowperf — performance toolkit for decision flows
//!
//! Everything §5 of Hull et al. (ICDE 2000) needs beyond the engine
//! itself:
//!
//! * [`Workload`] — **the one load-generation surface**: flows +
//!   [`Arrival`] process (closed waves or open Poisson) + strategy +
//!   deadline/warmup/seed, executed by a pluggable [`Backend`] —
//!   [`UnitTime`] (infinite-resource virtual clock, Figures 5–8),
//!   [`SimDb`] (finite-resource simulated database, Figure 9(b)), or
//!   an `EngineServer` the caller built (`workload.run(&server)`: the
//!   real sharded server, closed waves *or* an open pacer with
//!   `Request::deadline` late-drop accounting) — all reporting one
//!   [`LoadReport`];
//! * [`pattern_sweep`] / [`guideline_for_pattern`] — sweep sugar over
//!   `Workload` for per-pattern figures and guideline maps (Figure 8);
//! * [`DbFunction`] — the empirical `Db` curve (Figure 9(a)),
//!   interpolated from `simdb` measurements;
//! * [`solve_unit_time`], [`max_work_for_throughput`],
//!   [`predict_response_ms`] — the analytical model, Equations (1)–(6).
//!
//! ```
//! use dflowperf::{Arrival, SimDb, UnitTime, Workload};
//! use dflowgen::{generate, PatternParams};
//!
//! let params = PatternParams { nb_nodes: 16, nb_rows: 4, pct_enabled: 75, ..Default::default() };
//! let flows: Vec<_> = (0..3).map(|i| generate(params, 40 + i).unwrap()).collect();
//! let workload = Workload::new(flows)
//!     .arrivals(Arrival::Poisson { rate: 4.0 })
//!     .instances(30)
//!     .warmup(5)
//!     .seed(7)
//!     .strategy("PCE100".parse().unwrap());
//! // Same workload, two execution settings, one report shape.
//! let infinite = workload.run(&UnitTime::checked()).unwrap();
//! let finite = workload.run(&SimDb::default()).unwrap();
//! assert!(infinite.accounts_exactly() && finite.accounts_exactly());
//! assert!(finite.throughput_per_sec > 0.0);
//! ```

#![warn(missing_docs)]

mod dbfunc;
mod guideline;
mod model;
mod sweep;
mod workload;

pub use dbfunc::DbFunction;
pub use guideline::{recommend_program, GuidelineMap, Recommendation, StrategyPoint};
pub use model::{
    max_work_for_throughput, predict_response_ms, solve_unit_time, solve_unit_time_with_lmpl,
    UnitTimeSolution,
};
pub use sweep::{guideline_for_pattern, pattern_sweep, pattern_sweep_with_options, portfolio};
pub use workload::{
    Arrival, Backend, LatencyUnit, LoadError, LoadReport, Percentiles, PhaseCounts,
    ServerSideStats, SimDb, SimDbStats, UnitTime, Workload,
};
