//! The extended attribute-state automaton of Figure 3.
//!
//! During execution every attribute is in one of seven states. VALUE and
//! DISABLED are the two *stable* (terminal) states; the declarative
//! semantics only constrains which of the two each attribute lands in
//! and with what value. The intermediate states drive the prequalifier:
//!
//! * ENABLED — the condition is known true, inputs not all stable yet;
//! * READY — all data inputs stable, condition still unknown (the
//!   attribute *may be evaluated speculatively*);
//! * READY+ENABLED — both; the attribute is unconditionally runnable;
//! * COMPUTED — evaluated speculatively, awaiting its condition.

use serde::{Deserialize, Serialize};

/// Execution state of one attribute (Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrState {
    /// Nothing known yet.
    Uninitialized,
    /// Enabling condition decided true; some data inputs unstable.
    Enabled,
    /// All data inputs stable; condition undecided.
    Ready,
    /// All data inputs stable and condition true: runnable.
    ReadyEnabled,
    /// Value computed speculatively; condition still undecided.
    Computed,
    /// Stable with a computed value.
    Value,
    /// Stable with the null value ⊥ (condition decided false).
    Disabled,
}

impl AttrState {
    /// Stable states are terminal: the attribute's fate is sealed.
    pub fn is_stable(self) -> bool {
        matches!(self, AttrState::Value | AttrState::Disabled)
    }

    /// Is the enabling condition known true in this state?
    pub fn is_enabled(self) -> bool {
        matches!(
            self,
            AttrState::Enabled | AttrState::ReadyEnabled | AttrState::Value
        )
    }

    /// Has the task body already produced a value (possibly still
    /// speculative)?
    pub fn has_value(self) -> bool {
        matches!(self, AttrState::Computed | AttrState::Value)
    }

    /// The partial order of Figure 3: `a ≤ b` iff the automaton can move
    /// from `a` to `b` through zero or more transitions. Execution is
    /// monotone along this order — the runtime asserts every transition
    /// against it.
    pub fn can_advance_to(self, next: AttrState) -> bool {
        use AttrState::*;
        if self == next {
            return true;
        }
        match (self, next) {
            // From nothing, anywhere.
            (Uninitialized, _) => true,
            // Condition true first.
            (Enabled, ReadyEnabled) | (Enabled, Value) => true,
            // Inputs stable first: may go speculative, get enabled, or
            // have the condition fail.
            (Ready, ReadyEnabled) | (Ready, Computed) | (Ready, Value) | (Ready, Disabled) => true,
            // Runnable: only outcome is a value.
            (ReadyEnabled, Value) => true,
            // Speculative value: condition resolves it either way.
            (Computed, Value) | (Computed, Disabled) => true,
            // Condition false can strike any non-stable, non-enabled state.
            (Enabled, Disabled) => false, // enabling is monotone: never true-then-false
            (_, Disabled) if !self.is_stable() && !self.is_enabled() => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AttrState::*;

    const ALL: [AttrState; 7] = [
        Uninitialized,
        Enabled,
        Ready,
        ReadyEnabled,
        Computed,
        Value,
        Disabled,
    ];

    #[test]
    fn stability() {
        for s in ALL {
            assert_eq!(s.is_stable(), matches!(s, Value | Disabled), "{s:?}");
        }
    }

    #[test]
    fn stable_states_are_terminal() {
        for s in [Value, Disabled] {
            for t in ALL {
                if t != s {
                    assert!(!s.can_advance_to(t), "{s:?} must not move to {t:?}");
                }
            }
            assert!(s.can_advance_to(s), "self-transition is a no-op");
        }
    }

    #[test]
    fn enabled_never_becomes_disabled() {
        // Kleene monotonicity: a condition decided true stays true.
        assert!(!Enabled.can_advance_to(Disabled));
        assert!(!ReadyEnabled.can_advance_to(Disabled));
        assert!(!Value.can_advance_to(Disabled));
    }

    #[test]
    fn figure3_paths_exist() {
        // The conservative path.
        assert!(Uninitialized.can_advance_to(Enabled));
        assert!(Enabled.can_advance_to(ReadyEnabled));
        assert!(ReadyEnabled.can_advance_to(Value));
        // The speculative path.
        assert!(Uninitialized.can_advance_to(Ready));
        assert!(Ready.can_advance_to(Computed));
        assert!(Computed.can_advance_to(Value));
        assert!(Computed.can_advance_to(Disabled));
        // Early disable.
        assert!(Uninitialized.can_advance_to(Disabled));
        assert!(Ready.can_advance_to(Disabled));
    }

    #[test]
    fn readiness_and_enabledness_flags() {
        assert!(ReadyEnabled.is_enabled());
        assert!(!Ready.is_enabled());
        assert!(Enabled.is_enabled());
        assert!(Computed.has_value());
        assert!(Value.has_value() && Value.is_enabled());
        assert!(!Disabled.has_value());
        assert!(!Uninitialized.is_enabled());
    }

    #[test]
    fn no_skipping_backwards() {
        assert!(!Value.can_advance_to(Computed));
        assert!(!ReadyEnabled.can_advance_to(Ready));
        assert!(!Computed.can_advance_to(Ready));
        assert!(!Enabled.can_advance_to(Uninitialized));
    }
}
