//! The variable-configuration classifiers of Sections 3.1 and 4.2:
//! semi-functionality (the precondition of Lemma 3.6's transform) and
//! synchronization (the precondition of Theorem 4.8), both read off
//! `spanner_vset::analysis::reachable_statuses`.

use spanner_core::{VarSet, Variable};
use spanner_vset::analysis::{reachable_statuses, StatusSet};
use spanner_vset::{Label, StateId, Vsa};

/// The four-valued extended variable configuration `{u, o, c, d}` of
/// Section 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtendedConfig {
    /// `u`: no run to this state has opened the variable.
    Unseen,
    /// `o`: every run to this state has the variable open.
    Open,
    /// `c`: every run to this state has closed the variable.
    Closed,
    /// `d` ("done"): some runs closed it and some never opened it.
    Done,
}

/// The paper's `c̃_q(x)` for sequential automata: `d` when both unseen and
/// closed prefixes reach the state. Returns `None` if the state exhibits a
/// combination outside `{u, o, c, d}` (possible only for non-sequential or
/// untrimmed automata).
pub fn extended_config(s: &StatusSet) -> Option<ExtendedConfig> {
    match (s.unseen, s.open, s.closed, s.bad) {
        (true, false, false, false) => Some(ExtendedConfig::Unseen),
        (false, true, false, false) => Some(ExtendedConfig::Open),
        (false, false, true, false) => Some(ExtendedConfig::Closed),
        (true, false, true, false) => Some(ExtendedConfig::Done),
        _ => None,
    }
}

/// Whether the automaton is *semi-functional* for `x` (Section 3.1): the
/// extended configuration of every state is in `{u, o, c}` — never `d` or a
/// mixture.
pub fn is_semi_functional_for(a: &Vsa, x: &Variable) -> bool {
    // Only states that can appear on an accepting run matter; trim first.
    let trimmed = a.trim();
    let sets = reachable_statuses(&trimmed, x);
    trimmed.states().all(|q| {
        matches!(
            extended_config(&sets[q]),
            Some(ExtendedConfig::Unseen)
                | Some(ExtendedConfig::Open)
                | Some(ExtendedConfig::Closed)
        )
    })
}

/// Whether the automaton is semi-functional for every variable in `vars`.
pub fn is_semi_functional(a: &Vsa, vars: &VarSet) -> bool {
    vars.iter().all(|x| is_semi_functional_for(a, x))
}

/// Whether the automaton is *synchronized* for `x` (Section 4.2):
/// `x⊢` and `⊣x` each have a unique target state, and either all accepting
/// runs operate on `x` or none does.
pub fn is_synchronized_for(a: &Vsa, x: &Variable) -> bool {
    let mut open_targets = std::collections::BTreeSet::new();
    let mut close_targets = std::collections::BTreeSet::new();
    for (_, label, tgt) in a.all_transitions() {
        match label {
            Label::Open(v) if v == x => {
                open_targets.insert(tgt);
            }
            Label::Close(v) if v == x => {
                close_targets.insert(tgt);
            }
            _ => {}
        }
    }
    if open_targets.len() > 1 || close_targets.len() > 1 {
        return false;
    }
    // All accepting runs operate on x, or none does. Work on the trimmed
    // automaton so that only useful states are considered.
    let trimmed = a.trim();
    if !trimmed.vars().contains(x) {
        return true; // no accepting run operates on x
    }
    let sets = reachable_statuses(&trimmed, x);
    let accepting: Vec<StateId> = trimmed.accepting_states();
    let any_uses = accepting
        .iter()
        .any(|&q| sets[q].closed || sets[q].open || sets[q].bad);
    let any_avoids = accepting.iter().any(|&q| sets[q].unseen);
    !(any_uses && any_avoids)
}

/// Whether the automaton is synchronized for every variable in `vars`.
pub fn is_synchronized(a: &Vsa, vars: &VarSet) -> bool {
    vars.iter().all(|x| is_synchronized_for(a, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::ByteClass;

    fn v(x: &str) -> Variable {
        Variable::new(x)
    }

    /// The sequential (but not functional) automaton of Example 2.3; with
    /// `shortcut` false, its functional variant (no q0 → q2 transition).
    fn example_2_3(shortcut: bool) -> Vsa {
        let mut a = Vsa::new();
        let q1 = a.add_state();
        let q2 = a.add_state();
        a.add_transition(0, Label::Class(ByteClass::any()), 0);
        a.add_transition(0, Label::Open(v("x")), q1);
        a.add_transition(q1, Label::Class(ByteClass::any()), q1);
        a.add_transition(q1, Label::Close(v("x")), q2);
        a.add_transition(q2, Label::Class(ByteClass::any()), q2);
        if shortcut {
            a.add_transition(0, Label::Class(ByteClass::any()), q2);
        }
        a.set_accepting(q2, true);
        a
    }

    #[test]
    fn example_3_4_extended_configuration_is_done() {
        // In Example 2.3 / 3.4 the accepting state q2 has configuration d:
        // one run closes x, another never opens it.
        let a = example_2_3(true);
        let sets = reachable_statuses(&a, &v("x"));
        assert_eq!(extended_config(&sets[2]), Some(ExtendedConfig::Done));
        assert_eq!(extended_config(&sets[0]), Some(ExtendedConfig::Unseen));
        assert_eq!(extended_config(&sets[1]), Some(ExtendedConfig::Open));
        assert!(!is_semi_functional_for(&a, &v("x")));
        // The functional variant is semi-functional for x.
        assert!(is_semi_functional_for(&example_2_3(false), &v("x")));
    }

    #[test]
    fn synchronized_checks_unique_targets_and_usage() {
        // Example 4.5's automaton for (x{Σ*} ∨ ε)·y{Σ*}: synchronized for y,
        // not for x (x may be skipped while some runs use it).
        let mut a = Vsa::new();
        let q1 = a.add_state(); // after x⊢
        let q2 = a.add_state(); // after ⊣x
        let q3 = a.add_state(); // after y⊢
        let q4 = a.add_state(); // after ⊣y (accepting)
        a.add_transition(0, Label::Open(v("x")), q1);
        a.add_transition(q1, Label::Class(ByteClass::any()), q1);
        a.add_transition(q1, Label::Close(v("x")), q2);
        a.add_transition(0, Label::Epsilon, q2);
        a.add_transition(q2, Label::Open(v("y")), q3);
        a.add_transition(q3, Label::Class(ByteClass::any()), q3);
        a.add_transition(q3, Label::Close(v("y")), q4);
        a.set_accepting(q4, true);
        assert!(is_synchronized_for(&a, &v("y")));
        assert!(!is_synchronized_for(&a, &v("x")));
        assert!(is_synchronized(&a, &VarSet::from_iter(["y"])));
        assert!(!is_synchronized(&a, &VarSet::from_iter(["x", "y"])));

        // A variable not mentioned at all is trivially synchronized.
        assert!(is_synchronized_for(&a, &v("unused")));
    }

    #[test]
    fn synchronized_rejects_multiple_targets() {
        // Two distinct target states for x⊢.
        let mut a = Vsa::new();
        let q1 = a.add_state();
        let q2 = a.add_state();
        let q3 = a.add_state();
        a.add_transition(0, Label::Open(v("x")), q1);
        a.add_transition(0, Label::Open(v("x")), q2);
        a.add_transition(q1, Label::Close(v("x")), q3);
        a.add_transition(q2, Label::Close(v("x")), q3);
        a.set_accepting(q3, true);
        assert!(!is_synchronized_for(&a, &v("x")));
    }
}
