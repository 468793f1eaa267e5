//! Business-rule synthesis tasks.
//!
//! The decision-flow model of \[HLS+99a\] lets synthesis attributes be
//! specified through a generalized form of *business rules*: an ordered
//! list of condition → action pairs plus a combining policy. This
//! module provides that framework; a compiled [`RuleSet`] becomes an
//! ordinary [`Task`] and plugs into a schema like any user-defined
//! function.
//!
//! Inside a rule, conditions are ordinary [`Expr`]s whose `AttrId`s are
//! reinterpreted as **indices into the task's input list** (input 0,
//! input 1, …) — rules see exactly what the task body sees, stable
//! values with ⊥ for disabled inputs.

use std::sync::Arc;

use crate::expr::{AttrView, Expr, Tri, ValueEnv};
use crate::task::Task;
use crate::value::Value;

/// A shared rule-action body: stable inputs in, value out.
pub type ActionFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// What a fired rule contributes.
#[derive(Clone)]
pub enum RuleAction {
    /// A constant value.
    Const(Value),
    /// Copy the i-th input value.
    Input(usize),
    /// An arbitrary function of the inputs.
    Compute(ActionFn),
}

impl std::fmt::Debug for RuleAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleAction::Const(v) => write!(f, "Const({v})"),
            RuleAction::Input(i) => write!(f, "Input({i})"),
            RuleAction::Compute(_) => write!(f, "Compute(..)"),
        }
    }
}

impl RuleAction {
    fn apply(&self, inputs: &[Value]) -> Value {
        match self {
            RuleAction::Const(v) => v.clone(),
            RuleAction::Input(i) => inputs.get(*i).cloned().unwrap_or(Value::Null),
            RuleAction::Compute(f) => f(inputs),
        }
    }
}

/// One business rule: `if condition then contribute action`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Condition over the task inputs (AttrId = input index).
    pub condition: Expr,
    /// Contribution when the condition holds.
    pub action: RuleAction,
    /// Relative weight, used by [`CombiningPolicy::HighestWeight`].
    pub weight: f64,
}

impl Rule {
    /// `if cond then const v` with weight 1.
    pub fn emit(condition: Expr, v: impl Into<Value>) -> Rule {
        Rule {
            condition,
            action: RuleAction::Const(v.into()),
            weight: 1.0,
        }
    }

    /// Set the rule's weight.
    pub fn weighted(mut self, w: f64) -> Rule {
        self.weight = w;
        self
    }
}

/// How contributions of multiple fired rules combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombiningPolicy {
    /// Value of the first (lowest-index) fired rule.
    FirstMatch,
    /// Value of the last fired rule (later rules override).
    LastMatch,
    /// `Value::List` of every fired rule's value, in rule order.
    Collect,
    /// Value of the fired rule with the highest weight (ties: first).
    HighestWeight,
}

/// An ordered rule list with a combining policy and a default.
#[derive(Clone, Debug)]
pub struct RuleSet {
    rules: Vec<Rule>,
    policy: CombiningPolicy,
    default: Value,
}

/// Adapter: evaluate rule conditions over the input slice (every input
/// is stable by the time a task runs).
struct InputEnv<'a>(&'a [Value]);

impl ValueEnv for InputEnv<'_> {
    fn view(&self, a: crate::schema::AttrId) -> AttrView<'_> {
        match self.0.get(a.index()) {
            Some(v) => AttrView::Stable(v),
            // Out-of-range references read as stable ⊥ rather than
            // panicking: rule sets are data, not code.
            None => AttrView::Stable(&Value::Null),
        }
    }
}

impl RuleSet {
    /// Build a rule set.
    pub fn new(rules: Vec<Rule>, policy: CombiningPolicy, default: impl Into<Value>) -> RuleSet {
        RuleSet {
            rules,
            policy,
            default: default.into(),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the rule list is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate against the task inputs. Inputs are stable values, so
    /// every condition decides; `Unknown` cannot occur.
    pub fn evaluate(&self, inputs: &[Value]) -> Value {
        let env = InputEnv(inputs);
        let mut fired = self.rules.iter().filter(|r| match r.condition.eval(&env) {
            Tri::True => true,
            Tri::False => false,
            Tri::Unknown => unreachable!("rule inputs are always stable"),
        });
        match self.policy {
            CombiningPolicy::FirstMatch => fired
                .take(1)
                .map(|r| r.action.apply(inputs))
                .next()
                .unwrap_or_else(|| self.default.clone()),
            CombiningPolicy::LastMatch => fired
                .next_back()
                .map(|r| r.action.apply(inputs))
                .unwrap_or_else(|| self.default.clone()),
            CombiningPolicy::Collect => {
                let vs: Vec<Value> = fired.map(|r| r.action.apply(inputs)).collect();
                if vs.is_empty() {
                    self.default.clone()
                } else {
                    Value::List(vs)
                }
            }
            CombiningPolicy::HighestWeight => {
                let mut best: Option<&Rule> = None;
                for r in fired {
                    match best {
                        None => best = Some(r),
                        Some(b) if r.weight > b.weight => best = Some(r),
                        _ => {}
                    }
                }
                best.map(|r| r.action.apply(inputs))
                    .unwrap_or_else(|| self.default.clone())
            }
        }
    }

    /// Compile into a synthesis [`Task`].
    pub fn into_task(self) -> Task {
        Task::synthesis(move |inputs| self.evaluate(inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::AttrId;

    fn input(i: usize) -> AttrId {
        AttrId::from_index(i)
    }

    /// score = input0, profit = input1.
    fn promo_rules(policy: CombiningPolicy) -> RuleSet {
        RuleSet::new(
            vec![
                Rule::emit(Expr::cmp_const(input(0), CmpOp::Gt, 80i64), "hot").weighted(2.0),
                Rule::emit(Expr::cmp_const(input(1), CmpOp::Gt, 100i64), "profitable")
                    .weighted(3.0),
                Rule::emit(Expr::cmp_const(input(0), CmpOp::Gt, 50i64), "warm").weighted(1.0),
            ],
            policy,
            "none",
        )
    }

    #[test]
    fn first_match() {
        let rs = promo_rules(CombiningPolicy::FirstMatch);
        assert_eq!(
            rs.evaluate(&[Value::Int(90), Value::Int(10)]),
            Value::str("hot")
        );
        assert_eq!(
            rs.evaluate(&[Value::Int(60), Value::Int(10)]),
            Value::str("warm")
        );
        assert_eq!(
            rs.evaluate(&[Value::Int(10), Value::Int(10)]),
            Value::str("none"),
            "default when nothing fires"
        );
    }

    #[test]
    fn last_match_overrides() {
        let rs = promo_rules(CombiningPolicy::LastMatch);
        assert_eq!(
            rs.evaluate(&[Value::Int(90), Value::Int(10)]),
            Value::str("warm"),
            "rule 3 also fires at 90 and overrides"
        );
    }

    #[test]
    fn collect_gathers_in_order() {
        let rs = promo_rules(CombiningPolicy::Collect);
        assert_eq!(
            rs.evaluate(&[Value::Int(90), Value::Int(200)]),
            Value::List(vec![
                Value::str("hot"),
                Value::str("profitable"),
                Value::str("warm")
            ])
        );
    }

    #[test]
    fn highest_weight_wins() {
        let rs = promo_rules(CombiningPolicy::HighestWeight);
        assert_eq!(
            rs.evaluate(&[Value::Int(90), Value::Int(200)]),
            Value::str("profitable"),
            "weight 3.0 beats 2.0 and 1.0"
        );
        assert_eq!(
            rs.evaluate(&[Value::Int(90), Value::Int(0)]),
            Value::str("hot")
        );
    }

    #[test]
    fn null_inputs_fail_predicates_but_not_isnull() {
        let rs = RuleSet::new(
            vec![
                Rule::emit(Expr::cmp_const(input(0), CmpOp::Gt, 0i64), "has_score"),
                Rule::emit(Expr::IsNull(input(0)), "no_score"),
            ],
            CombiningPolicy::FirstMatch,
            Value::Null,
        );
        assert_eq!(rs.evaluate(&[Value::Null]), Value::str("no_score"));
        assert_eq!(rs.evaluate(&[Value::Int(5)]), Value::str("has_score"));
    }

    #[test]
    fn out_of_range_input_reads_null() {
        let rs = RuleSet::new(
            vec![Rule::emit(Expr::IsNull(input(9)), "missing")],
            CombiningPolicy::FirstMatch,
            "present",
        );
        assert_eq!(rs.evaluate(&[]), Value::str("missing"));
    }

    #[test]
    fn actions_input_and_compute() {
        let rs = RuleSet::new(
            vec![
                Rule {
                    condition: Expr::cmp_const(input(0), CmpOp::Ge, 10i64),
                    action: RuleAction::Input(1),
                    weight: 1.0,
                },
                Rule {
                    condition: Expr::Lit(true),
                    action: RuleAction::Compute(Arc::new(|ins: &[Value]| {
                        Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 * 2)
                    })),
                    weight: 1.0,
                },
            ],
            CombiningPolicy::FirstMatch,
            Value::Null,
        );
        assert_eq!(
            rs.evaluate(&[Value::Int(10), Value::str("copied")]),
            Value::str("copied")
        );
        assert_eq!(rs.evaluate(&[Value::Int(4)]), Value::Int(8));
    }

    #[test]
    fn compiles_to_task() {
        let rs = promo_rules(CombiningPolicy::FirstMatch);
        let task = rs.into_task();
        assert_eq!(task.cost(), 0);
        assert_eq!(
            task.compute(&[Value::Int(90), Value::Int(0)]),
            Value::str("hot")
        );
        let rs2 = promo_rules(CombiningPolicy::FirstMatch);
        assert_eq!(rs2.len(), 3);
        assert!(!rs2.is_empty());
    }
}
