//! # decisionflow — data-intensive decision flows
//!
//! A production-quality implementation of the decision-flow model and
//! the optimization techniques of **Hull, Llirbat, Kumar, Zhou, Dong,
//! Su — "Optimization Techniques for Data-Intensive Decision Flows",
//! ICDE 2000**.
//!
//! A *decision flow* is an attribute-centric DAG: every non-source
//! attribute is produced by a task (database query or synthesis
//! function) guarded by an *enabling condition* over other attributes.
//! Execution must stabilize every **target** attribute — to the value
//! mandated by the unique declarative *complete snapshot* — while
//! minimizing work and response time. The optimizations implemented:
//!
//! * **Eager condition evaluation** — Kleene three-valued partial
//!   evaluation decides conditions before all their inputs stabilize;
//! * **Forward propagation** — DISABLED/ENABLED facts cascade down the
//!   dependency graph;
//! * **Backward propagation** — attributes not required for target
//!   stabilization are detected *unneeded* and never executed;
//! * **Speculative execution** — READY attributes may run before their
//!   condition is decided;
//! * **Scheduling heuristics** — topologically-earliest-first vs
//!   cheapest-first, under a tunable degree of parallelism.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use decisionflow::prelude::*;
//!
//! // Flow: income(source) → afford? ; catalog query runs only if the
//! // customer can afford anything; the target picks a promo.
//! let mut b = SchemaBuilder::new();
//! let income = b.source("income");
//! let afford = b.synthesis("afford", vec![income], Expr::Lit(true), |v| {
//!     Value::Bool(v[0].as_f64().unwrap_or(0.0) > 100.0)
//! });
//! let catalog = b.query(
//!     "catalog", /* cost */ 5, vec![], Expr::Truthy(afford),
//!     |_| Value::from(vec!["coat", "hat"]),
//! );
//! let promo = b.synthesis("promo", vec![catalog], Expr::Truthy(afford), |v| {
//!     match &v[0] {
//!         Value::List(items) if !items.is_empty() => items[0].clone(),
//!         _ => Value::Null,
//!     }
//! });
//! b.mark_target(promo);
//! let schema = Arc::new(b.build().unwrap());
//!
//! // One Request carries everything: inputs, strategy, and options
//! // like journaling — in-process via `run()`, or submitted to an
//! // `EngineServer` for a `Ticket`.
//! let report = Request::with_schema(Arc::clone(&schema))
//!     .bind(income, 500i64)
//!     .strategy("PSE100".parse().unwrap())
//!     .record_journal(true)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.outcome.runtime.stable_value(promo), Some(&Value::str("coat")));
//!
//! // The flight record replays deterministically…
//! assert!(report.journal.is_some());
//! // …and the declarative oracle agrees, whatever the strategy.
//! let mut sources = SourceValues::new();
//! sources.set(income, 500i64);
//! let snap = complete_snapshot(&schema, &sources).unwrap();
//! assert!(report.outcome.runtime.agrees_with(&snap));
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`api`] | the unified submission surface: `Request` builder, `Ticket`, `ServerEvents` |
//! | [`value`] | dynamically typed attribute values, ⊥ semantics |
//! | [`expr`] | enabling conditions, Kleene partial evaluation |
//! | [`task`] | foreign (query) and synthesis tasks |
//! | [`schema`] | flattened schemas, modular builder, validation |
//! | [`analysis`] | ahead-of-time static analyzer: coded findings, eager-safe sets, cost envelopes |
//! | [`snapshot`] | declarative semantics: the complete snapshot oracle |
//! | [`state`] | the 7-state attribute automaton (paper Figure 3) |
//! | [`engine`] | prequalifier (Propagation Algorithm), scheduler, executor |
//! | [`journal`] | deterministic capture/replay flight recorder + divergence detection |
//! | [`rules`] | business-rule synthesis framework |
//! | [`report`] | execution audit trail → nested-relation export |
//! | [`server`] | the sharded multi-threaded execution module of §3 (Figure 2) |
//! | [`statestore`] | incremental recomputation: versioned instance snapshots, delta planning, cross-request memoization |
//! | [`store`] | durable event store: segmented WAL, crash recovery, time-travel replay |
//! | [`telemetry`] | per-stage latency histograms, span tracing, Prometheus/JSON exposition |
//! | [`dsl`] | textual schema language (declarative-workflow lineage) |

#![warn(missing_docs)]

pub mod analysis;
pub mod api;
pub mod dsl;
pub mod engine;
pub mod expr;
pub mod journal;
pub mod report;
pub mod rules;
pub mod schema;
pub mod server;
pub mod snapshot;
pub mod state;
pub mod statestore;
pub mod store;
pub mod task;
pub mod telemetry;
pub mod value;

/// One-stop imports for typical users.
pub mod prelude {
    pub use crate::analysis::{
        AnalysisSummary, Code as FindingCode, Finding, Report as AnalysisReport, Severity,
        TargetEnvelope,
    };
    pub use crate::api::{
        InstanceEvent, LiveInstance, Request, RequestError, RunReport, ServerEvents, Ticket,
    };
    pub use crate::dsl::{parse_schema, DslError, ExternRegistry};
    pub use crate::engine::{
        run_unit_time, run_unit_time_with_options, ExecError, Heuristic, InstanceMetrics,
        InstanceRuntime, RuntimeOptions, ServerStats, ShardStats, Strategy, UnitOutcome,
    };
    pub use crate::expr::{CmpOp, Expr, Term, Tri};
    pub use crate::journal::{
        read_journal, Divergence, DivergenceKind, Journal, JournalError, ReplayEngine,
        ReplayOutcome,
    };
    pub use crate::rules::{CombiningPolicy, Rule, RuleAction, RuleSet};
    pub use crate::schema::{AttrId, ModularBuilder, Schema, SchemaBuilder, SchemaError};
    pub use crate::server::{
        EngineServer, InstanceResult, RecoverError, SchemaRejected, ServerBuildError, ServerGone,
        ServerOpenError, SubmitError,
    };
    pub use crate::snapshot::{complete_snapshot, CompleteSnapshot, FinalState, SourceValues};
    pub use crate::state::AttrState;
    pub use crate::statestore::{
        plan_delta, DeltaError, DeltaPlan, InstanceSnapshot, MemoTable, StateStore,
    };
    pub use crate::store::{
        EventStore, FsckReport, SealOutcome, SealedSummary, StoreConfig, StoreError, StoreEvent,
    };
    pub use crate::task::{Cost, Task};
    pub use crate::telemetry::{MetricsServer, StageTimings, Telemetry, TelemetrySnapshot};
    pub use crate::value::Value;
}
