//! Ahead-of-time static analysis of decision-flow schemas.
//!
//! The paper's optimizations — eager condition evaluation, dead-path
//! elimination, unneeded-pruning — are *runtime* exploitations of
//! structure that is visible *statically*: which enabling conditions
//! are decided before any source value arrives, which attributes can
//! never reach a target, what the cost envelope of a flow is. This
//! module inspects a built [`Schema`] ahead of execution and reports
//! coded diagnostics:
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | `DF001` | warn (error on a target) | enabling condition statically false — the attribute can never be enabled |
//! | `DF002` | warn | attribute unreachable from any source |
//! | `DF003` | warn | attribute cannot influence any target (dead code) |
//! | `DF004` | info | enabling reference duplicated by a data edge (redundant edge) |
//! | `DF005` | info | enabling condition statically true (eager-safe; see [`AnalysisSummary::always_enabled`]) |
//! | `DF006` | warn/info | module orphan: every member dead or target-irrelevant / empty module |
//! | `DF007` | info | enabling condition references a statically-dead attribute |
//! | `DF010` | error/warn | deadline infeasible: cost envelope exceeds the budget |
//! | `DF020`–`DF028` | error | structural well-formedness (the [`SchemaError`] vocabulary) |
//!
//! The condition pass is a **tri-valued abstract interpretation** over
//! [`Tri`](crate::expr::Tri): every attribute whose fate is unknown
//! statically is viewed as *unstable*, and every attribute already
//! proven dead is viewed as stable ⊥. Kleene monotonicity (see
//! [`Expr::eval`](crate::expr::Expr::eval)) then guarantees that a
//! decided verdict holds for **every** runtime instance: a statically
//! `False` condition is dead on all inputs, a statically `True` one is
//! enabled on all inputs (the *eager-safe* set a strategy layer can
//! schedule unconditionally).
//!
//! Three surfaces:
//!
//! * [`check`] / [`Schema::analyze`](crate::schema::Schema::analyze) —
//!   analyze a schema, get a [`Report`];
//! * [`EngineServer::register_checked`](crate::server::EngineServer::register_checked)
//!   — rejection of Error-level schemas at registration time, once per
//!   schema rather than once per request;
//! * the `dflow-lint` CLI (`crates/corpus`) — lints corpus entries,
//!   generated pattern matrices, and DSL files, exiting nonzero on
//!   findings.

mod condition;
mod cost;
mod graph;

use std::fmt;

use serde::{Content, Deserialize, Serialize};

use crate::schema::{AttrId, Module, Schema, SchemaError};
use crate::task::Cost;

pub use cost::TargetEnvelope;
pub use graph::delta_cone;

/// How bad a finding is. Ordered: `Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An observation or optimization fact; never fails a lint.
    Info,
    /// Almost certainly unintended; fails `dflow-lint`.
    Warn,
    /// The schema is broken or a request is infeasible; rejected by
    /// checked registration.
    Error,
}

impl Severity {
    /// Lowercase name (`info` / `warn` / `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for Severity {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        match c.as_str() {
            Some("info") => Ok(Severity::Info),
            Some("warn") => Ok(Severity::Warn),
            Some("error") => Ok(Severity::Error),
            _ => Err(serde::Error::expected("severity string", "Severity")),
        }
    }
}

/// Stable diagnostic code of a [`Finding`]. The `DF0xx` string is the
/// contract (machine-matchable in CI and across releases); the variant
/// name is a readable alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// DF001: enabling condition statically false.
    DeadAttr,
    /// DF002: unreachable from every source.
    Unreachable,
    /// DF003: cannot influence any target.
    NoTargetInfluence,
    /// DF004: enabling reference duplicated by a data edge.
    RedundantEnablingEdge,
    /// DF005: enabling condition statically true (eager-safe).
    AlwaysEnabled,
    /// DF006: module orphan.
    ModuleOrphan,
    /// DF007: condition references a statically-dead attribute.
    RefsDeadAttr,
    /// DF010: deadline infeasible against the cost envelope.
    DeadlineInfeasible,
    /// DF020: schema has no attributes ([`SchemaError::Empty`]).
    Empty,
    /// DF021: duplicate attribute name ([`SchemaError::DuplicateName`]).
    DuplicateName,
    /// DF022: empty attribute name ([`SchemaError::EmptyName`]).
    EmptyName,
    /// DF023: dangling reference ([`SchemaError::DanglingRef`]).
    DanglingRef,
    /// DF024: source with data inputs ([`SchemaError::SourceWithInputs`]).
    SourceWithInputs,
    /// DF025: source with a condition ([`SchemaError::SourceWithCondition`]).
    SourceWithCondition,
    /// DF026: source marked target ([`SchemaError::SourceTarget`]).
    SourceTarget,
    /// DF027: no targets ([`SchemaError::NoTargets`]).
    NoTargets,
    /// DF028: dependency cycle ([`SchemaError::Cycle`]).
    Cycle,
}

impl Code {
    /// The stable `DF0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DeadAttr => "DF001",
            Code::Unreachable => "DF002",
            Code::NoTargetInfluence => "DF003",
            Code::RedundantEnablingEdge => "DF004",
            Code::AlwaysEnabled => "DF005",
            Code::ModuleOrphan => "DF006",
            Code::RefsDeadAttr => "DF007",
            Code::DeadlineInfeasible => "DF010",
            Code::Empty => "DF020",
            Code::DuplicateName => "DF021",
            Code::EmptyName => "DF022",
            Code::DanglingRef => "DF023",
            Code::SourceWithInputs => "DF024",
            Code::SourceWithCondition => "DF025",
            Code::SourceTarget => "DF026",
            Code::NoTargets => "DF027",
            Code::Cycle => "DF028",
        }
    }

    /// Parse a `DF0xx` code string back to the enum.
    pub fn from_str_code(s: &str) -> Option<Code> {
        const ALL: &[Code] = &[
            Code::DeadAttr,
            Code::Unreachable,
            Code::NoTargetInfluence,
            Code::RedundantEnablingEdge,
            Code::AlwaysEnabled,
            Code::ModuleOrphan,
            Code::RefsDeadAttr,
            Code::DeadlineInfeasible,
            Code::Empty,
            Code::DuplicateName,
            Code::EmptyName,
            Code::DanglingRef,
            Code::SourceWithInputs,
            Code::SourceWithCondition,
            Code::SourceTarget,
            Code::NoTargets,
            Code::Cycle,
        ];
        ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for Code {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        c.as_str()
            .and_then(Code::from_str_code)
            .ok_or_else(|| serde::Error::expected("DF0xx code string", "Code"))
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Stable diagnostic code.
    pub code: Code,
    /// Severity of this occurrence (a code's severity can depend on
    /// context, e.g. `DF001` escalates to Error on a target).
    pub severity: Severity,
    /// The attribute concerned, by name, when the finding is about one.
    pub attr: Option<String>,
    /// The module concerned (dotted path), for module-level findings.
    pub module: Option<String>,
    /// Human-readable, one-line explanation.
    pub message: String,
    /// Supporting facts (referenced attributes, cost figures, …).
    pub details: Vec<String>,
}

impl Finding {
    fn new(code: Code, severity: Severity, message: impl Into<String>) -> Finding {
        Finding {
            code,
            severity,
            attr: None,
            module: None,
            message: message.into(),
            details: Vec::new(),
        }
    }

    fn on_attr(mut self, name: impl Into<String>) -> Finding {
        self.attr = Some(name.into());
        self
    }

    fn on_module(mut self, path: impl Into<String>) -> Finding {
        self.module = Some(path.into());
        self
    }

    fn detail(mut self, d: impl Into<String>) -> Finding {
        self.details.push(d.into());
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(m) = &self.module {
            write!(f, " [module {m}]")?;
        }
        if let Some(a) = &self.attr {
            write!(f, " [{a}]")?;
        }
        write!(f, ": {}", self.message)?;
        if !self.details.is_empty() {
            write!(f, " ({})", self.details.join("; "))?;
        }
        Ok(())
    }
}

/// The structural-error vocabulary is shared: every [`SchemaError`] is
/// a DF-coded Error-level finding, so build-time rejection and
/// lint-time diagnostics speak the same language (and the analyzer
/// never re-implements the cycle/dangling-ref checks — a schema that
/// *built* already passed them).
impl From<&SchemaError> for Finding {
    fn from(e: &SchemaError) -> Finding {
        let code = match Code::from_str_code(e.code()) {
            Some(c) => c,
            // `SchemaError::code` and `Code` enumerate the same set;
            // fall back defensively rather than panic.
            None => Code::Empty,
        };
        let attr = match e {
            SchemaError::DuplicateName(n)
            | SchemaError::SourceWithInputs(n)
            | SchemaError::SourceWithCondition(n)
            | SchemaError::SourceTarget(n)
            | SchemaError::Cycle(n) => Some(n.clone()),
            SchemaError::DanglingRef { from, .. } => Some(from.clone()),
            _ => None,
        };
        Finding {
            code,
            severity: Severity::Error,
            attr,
            module: None,
            message: e.to_string(),
            details: Vec::new(),
        }
    }
}

/// Optimization facts the analyzer proves, exposed for the strategy
/// layer (and the deadline lint) rather than reported as diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisSummary {
    /// Non-source attributes whose enabling condition is statically
    /// **true**: enabled on every instance, so an eager strategy may
    /// schedule them unconditionally (no wasted work possible).
    pub always_enabled: Vec<AttrId>,
    /// Attributes whose enabling condition is statically **false**:
    /// disabled (⊥) on every instance; their tasks never run.
    pub dead: Vec<AttrId>,
    /// Attributes not reachable from any source (DF002 set).
    pub unreachable: Vec<AttrId>,
    /// Attributes that cannot influence any target (DF003 set).
    pub irrelevant: Vec<AttrId>,
    /// Per-target completion-cost envelopes (see [`TargetEnvelope`]).
    pub targets: Vec<TargetEnvelope>,
}

/// Everything one analysis run produced: coded findings plus the
/// proven-facts summary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Findings, sorted most severe first (then by code and attribute).
    pub findings: Vec<Finding>,
    /// Proven optimization facts.
    pub summary: AnalysisSummary,
}

impl Report {
    /// Any Error-level finding? (What checked registration rejects on.)
    pub fn has_errors(&self) -> bool {
        self.worst() == Some(Severity::Error)
    }

    /// The highest severity present.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Findings at or above `floor`.
    pub fn at_or_above(&self, floor: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity >= floor)
    }

    /// Error-level findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.at_or_above(Severity::Error)
    }

    /// The deadline-feasibility lint (DF010): compare `budget` (units
    /// of processing) against every target's completion-cost envelope.
    ///
    /// * `budget < min_cost` — **Error**: the target's mandatory work
    ///   chain alone exceeds the budget, so no strategy on any input
    ///   can meet the deadline — not even all-eager.
    /// * `budget < max_cost` — **Warn**: the worst-case critical path
    ///   exceeds the budget; some inputs will miss the deadline even
    ///   under the all-eager strategy.
    /// * `budget ≥ max_cost` — feasible: the all-eager unit-time
    ///   strategy meets the deadline on every input.
    pub fn check_deadline(&self, budget: Cost) -> Vec<Finding> {
        let mut out = Vec::new();
        for env in &self.summary.targets {
            if env.min_cost > budget {
                out.push(
                    Finding::new(
                        Code::DeadlineInfeasible,
                        Severity::Error,
                        format!(
                            "deadline of {budget} units can never be met: the mandatory \
                             work chain to target {:?} costs {} units on every input",
                            env.name, env.min_cost
                        ),
                    )
                    .on_attr(env.name.clone())
                    .detail(format!(
                        "min_cost={} max_cost={}",
                        env.min_cost, env.max_cost
                    )),
                );
            } else if env.max_cost > budget {
                out.push(
                    Finding::new(
                        Code::DeadlineInfeasible,
                        Severity::Warn,
                        format!(
                            "deadline of {budget} units is not worst-case feasible: the \
                             critical path to target {:?} costs up to {} units even \
                             under the all-eager strategy",
                            env.name, env.max_cost
                        ),
                    )
                    .on_attr(env.name.clone())
                    .detail(format!(
                        "min_cost={} max_cost={}",
                        env.min_cost, env.max_cost
                    )),
                );
            }
        }
        out
    }

    /// Render as indented text, one finding per line, summary last.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str("analysis clean: no findings\n");
        }
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        let s = &self.summary;
        let _ = writeln!(
            out,
            "summary: {} always-enabled, {} dead, {} unreachable, {} target-irrelevant, \
             {} target(s)",
            s.always_enabled.len(),
            s.dead.len(),
            s.unreachable.len(),
            s.irrelevant.len(),
            s.targets.len()
        );
        for t in &s.targets {
            let _ = writeln!(
                out,
                "  target {:?}: completion cost in [{}, {}] units",
                t.name, t.min_cost, t.max_cost
            );
        }
        out
    }

    /// Render as canonical JSON (round-trips through
    /// [`serde::json::from_str`]).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// Analyze a schema: run every pass, collect coded findings and the
/// proven-facts summary. Equivalent to
/// [`Schema::analyze`](crate::schema::Schema::analyze).
pub fn check(schema: &Schema) -> Report {
    check_with_modules(schema, &[])
}

/// [`check`] plus module-level passes over
/// [`ModularBuilder`](crate::schema::ModularBuilder) metadata
/// (DF006 module orphans). The module table comes from
/// [`ModularBuilder::modules`](crate::schema::ModularBuilder::modules)
/// — or use
/// [`ModularBuilder::build_checked`](crate::schema::ModularBuilder::build_checked)
/// which wires both.
pub fn check_with_modules(schema: &Schema, modules: &[Module]) -> Report {
    let mut findings = Vec::new();

    let facts = condition::interpret(schema);
    condition::report(schema, &facts, &mut findings);

    let reach = graph::analyze(schema, &mut findings);
    graph::module_orphans(schema, modules, &facts, &reach, &mut findings);

    let targets = cost::envelopes(schema, &facts);

    // Most severe first; ties broken by code then attribute for a
    // deterministic, diffable report.
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.as_str().cmp(b.code.as_str()))
            .then_with(|| a.attr.cmp(&b.attr))
            .then_with(|| a.module.cmp(&b.module))
    });

    Report {
        findings,
        summary: AnalysisSummary {
            always_enabled: facts.always_enabled(schema),
            dead: facts.dead_attrs(schema),
            unreachable: reach.unreachable(schema),
            irrelevant: reach.irrelevant(schema),
            targets,
        },
    }
}

/// One-shot deadline lint: analyze `schema` and append the DF010
/// findings for `budget` to the report.
pub fn check_deadline(schema: &Schema, budget: Cost) -> Report {
    let mut report = check(schema);
    let mut extra = report.check_deadline(budget);
    report.findings.append(&mut extra);
    report
        .findings
        .sort_by_key(|f| std::cmp::Reverse(f.severity));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;
    use crate::value::Value;

    fn q(b: &mut SchemaBuilder, name: &str, cost: Cost, inputs: Vec<AttrId>, e: Expr) -> AttrId {
        b.query(name, cost, inputs, e, |_| Value::Int(1))
    }

    /// src → a(always) → t(always); plus dead `d` (Lit(false)) and a
    /// floating `iso` (no path to the target, not source-reachable).
    fn mixed() -> (Schema, [AttrId; 5]) {
        let mut b = SchemaBuilder::new();
        let s = b.source("src");
        let a = q(&mut b, "a", 2, vec![s], Expr::Lit(true));
        let t = q(&mut b, "t", 3, vec![a], Expr::Lit(true));
        let d = q(&mut b, "d", 5, vec![s], Expr::Lit(false));
        let iso = q(&mut b, "iso", 1, vec![], Expr::Lit(true));
        b.mark_target(t);
        (b.build().unwrap(), [s, a, t, d, iso])
    }

    #[test]
    fn dead_always_and_graph_sets() {
        let (schema, [_, a, t, d, iso]) = mixed();
        let report = check(&schema);
        assert_eq!(report.summary.dead, vec![d]);
        assert!(report.summary.always_enabled.contains(&a));
        assert!(report.summary.always_enabled.contains(&t));
        assert!(!report.summary.always_enabled.contains(&d));
        assert_eq!(report.summary.unreachable, vec![iso]);
        // d has no consumers; iso reaches nothing either.
        assert!(report.summary.irrelevant.contains(&d));
        assert!(report.summary.irrelevant.contains(&iso));
        assert!(!report.summary.irrelevant.contains(&t));

        let codes: Vec<&str> = report.findings.iter().map(|f| f.code.as_str()).collect();
        assert!(codes.contains(&"DF001"));
        assert!(codes.contains(&"DF002"));
        assert!(codes.contains(&"DF003"));
        assert!(codes.contains(&"DF005"));
        // Nothing here is Error-level: the dead attr is not a target.
        assert!(!report.has_errors());
        assert_eq!(report.worst(), Some(Severity::Warn));

        let df001 = report
            .findings
            .iter()
            .find(|f| f.code == Code::DeadAttr)
            .unwrap();
        assert_eq!(df001.attr.as_deref(), Some("d"));
        assert_eq!(df001.severity, Severity::Warn);
        let _ = (a, t);
    }

    #[test]
    fn dead_target_is_error_level() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = q(&mut b, "t", 1, vec![s], Expr::Lit(false));
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        assert!(report.has_errors());
        let f = report.errors().next().unwrap();
        assert_eq!(f.code, Code::DeadAttr);
        assert_eq!(f.attr.as_deref(), Some("t"));
    }

    #[test]
    fn dead_paths_cascade_through_null_views() {
        // g is dead; h is gated on g > 5, which is statically False
        // once g is known to stabilize to ⊥ — the cascade DF001.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let g = q(&mut b, "g", 1, vec![s], Expr::Lit(false));
        let h = q(&mut b, "h", 1, vec![s], Expr::cmp_const(g, CmpOp::Gt, 5i64));
        // k is gated on isnull(g): statically True (g is always ⊥).
        let k = q(&mut b, "k", 1, vec![s], Expr::IsNull(g));
        let t = q(&mut b, "t", 1, vec![k], Expr::Lit(true));
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        assert_eq!(report.summary.dead, vec![g, h]);
        assert!(report.summary.always_enabled.contains(&k));
    }

    #[test]
    fn refs_dead_attr_reported_when_not_folded() {
        // Or(dead-ref predicate, live predicate): stays Unknown but one
        // disjunct is degenerate — DF007.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let g = q(&mut b, "g", 1, vec![s], Expr::Lit(false));
        let cond = Expr::cmp_const(g, CmpOp::Gt, 5i64).or(Expr::cmp_const(s, CmpOp::Gt, 0i64));
        let t = q(&mut b, "t", 1, vec![s], cond);
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        let df007 = report
            .findings
            .iter()
            .find(|f| f.code == Code::RefsDeadAttr)
            .expect("DF007 present");
        assert_eq!(df007.attr.as_deref(), Some("t"));
        assert!(df007.details.iter().any(|d| d.contains('g')));
    }

    #[test]
    fn redundant_enabling_edge_is_info() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let a = q(&mut b, "a", 1, vec![s], Expr::Lit(true));
        // t consumes a as data AND references it in the condition.
        let t = q(&mut b, "t", 1, vec![a], Expr::cmp_const(a, CmpOp::Gt, 0i64));
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        let f = report
            .findings
            .iter()
            .find(|f| f.code == Code::RedundantEnablingEdge)
            .expect("DF004 present");
        assert_eq!(f.severity, Severity::Info);
        assert_eq!(f.attr.as_deref(), Some("t"));
    }

    #[test]
    fn envelopes_and_deadline_lint() {
        // src → a(2, always) → t(3, always): mandatory chain 5 = max.
        let mut b = SchemaBuilder::new();
        let s = b.source("src");
        let a = q(&mut b, "a", 2, vec![s], Expr::Lit(true));
        let t = q(&mut b, "t", 3, vec![a], Expr::Lit(true));
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        let env = &report.summary.targets[0];
        assert_eq!((env.min_cost, env.max_cost), (5, 5));

        assert!(report.check_deadline(5).is_empty());
        let miss = report.check_deadline(4);
        assert_eq!(miss.len(), 1);
        assert_eq!(miss[0].severity, Severity::Error, "min_cost exceeded");
        assert_eq!(miss[0].code, Code::DeadlineInfeasible);
    }

    #[test]
    fn dynamic_gate_splits_envelope() {
        // t's condition depends on the source: min 0-ish path, max full
        // critical path.
        let mut b = SchemaBuilder::new();
        let s = b.source("src");
        let a = q(&mut b, "a", 2, vec![s], Expr::cmp_const(s, CmpOp::Gt, 0i64));
        let t = q(&mut b, "t", 3, vec![a], Expr::cmp_const(s, CmpOp::Gt, 0i64));
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        let env = &report.summary.targets[0];
        assert_eq!(env.min_cost, 0, "target may be disabled outright");
        assert_eq!(env.max_cost, 5, "worst case runs the whole chain");
        // budget 4: worst-case miss is a Warn, not an Error.
        let miss = report.check_deadline(4);
        assert_eq!(miss[0].severity, Severity::Warn);
    }

    #[test]
    fn dead_attrs_cost_nothing_in_the_envelope() {
        let mut b = SchemaBuilder::new();
        let s = b.source("src");
        let d = q(&mut b, "d", 100, vec![s], Expr::Lit(false));
        let t = q(
            &mut b,
            "t",
            3,
            vec![s],
            Expr::Not(Box::new(Expr::IsNull(d))).or(Expr::Lit(true)),
        );
        b.mark_target(t);
        let report = check(&b.build().unwrap());
        let env = &report.summary.targets[0];
        assert_eq!(env.max_cost, 3, "dead task never executes");
    }

    #[test]
    fn schema_errors_share_the_df_vocabulary() {
        let mut b = SchemaBuilder::new();
        b.source("s");
        let err = b.build().unwrap_err(); // NoTargets
        assert_eq!(err.code(), "DF027");
        let f = Finding::from(&err);
        assert_eq!(f.code, Code::NoTargets);
        assert_eq!(f.severity, Severity::Error);
    }

    #[test]
    fn renderings_round_trip() {
        let (schema, _) = mixed();
        let report = check(&schema);
        let text = report.to_text();
        assert!(text.contains("DF001 warn [d]"));
        assert!(text.contains("summary:"));
        let json = report.to_json();
        let back: Report = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn findings_sorted_most_severe_first() {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = q(&mut b, "t", 1, vec![s], Expr::Lit(false)); // Error (dead target)
        let x = q(&mut b, "x", 1, vec![s], Expr::Lit(true)); // Info DF005, Warn DF003
        b.mark_target(t);
        let _ = x;
        let report = check(&b.build().unwrap());
        let sevs: Vec<Severity> = report.findings.iter().map(|f| f.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted);
        assert_eq!(report.findings[0].severity, Severity::Error);
    }

    #[test]
    fn severity_and_code_serde() {
        assert_eq!(Severity::Warn.to_string(), "warn");
        assert!(Severity::Info < Severity::Warn && Severity::Warn < Severity::Error);
        assert_eq!(Code::DeadAttr.to_string(), "DF001");
        assert_eq!(Code::from_str_code("DF010"), Some(Code::DeadlineInfeasible));
        assert_eq!(Code::from_str_code("DF999"), None);
        let j = serde::json::to_string(&Code::Cycle);
        assert_eq!(j, "\"DF028\"");
        let back: Code = serde::json::from_str(&j).unwrap();
        assert_eq!(back, Code::Cycle);
    }
}
