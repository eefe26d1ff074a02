//! Static analyses of vset-automata: validity, sequentiality, functionality,
//! and the variable-configuration functions of Section 3.1.

use crate::automaton::{Label, StateId, Vsa};
use spanner_core::{VarSet, Variable};

/// The status of a single variable along a run prefix.
///
/// `Bad` is an error status reached by an invalid prefix (double open, close
/// without open, ...). The paper's extended variable configuration
/// `c̃_q(x) ∈ {u, o, c, d}` is recovered from the *set* of statuses reachable
/// at a state (`d` = both `Unseen` and `Closed` reachable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarStatus {
    /// The variable has not been opened yet (`u` / "unseen", `w` / "wait").
    Unseen,
    /// The variable is currently open (`o`).
    Open,
    /// The variable has been opened and closed (`c`).
    Closed,
    /// The prefix is invalid for this variable.
    Bad,
}

impl VarStatus {
    /// Applies a variable operation to the status.
    pub fn apply(self, is_open: bool) -> VarStatus {
        use VarStatus::*;
        match (self, is_open) {
            (Unseen, true) => Open,
            (Open, false) => Closed,
            (Bad, _) => Bad,
            _ => Bad,
        }
    }
}

/// The extended variable configuration of a state for one variable
/// (Section 3.1), generalized to arbitrary automata by reporting the whole
/// set of reachable statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusSet {
    /// `Unseen` reachable at the state.
    pub unseen: bool,
    /// `Open` reachable at the state.
    pub open: bool,
    /// `Closed` reachable at the state.
    pub closed: bool,
    /// An invalid prefix reaches the state.
    pub bad: bool,
}

impl StatusSet {
    fn empty() -> Self {
        StatusSet {
            unseen: false,
            open: false,
            closed: false,
            bad: false,
        }
    }

    fn set(&mut self, s: VarStatus) -> bool {
        let slot = match s {
            VarStatus::Unseen => &mut self.unseen,
            VarStatus::Open => &mut self.open,
            VarStatus::Closed => &mut self.closed,
            VarStatus::Bad => &mut self.bad,
        };
        let changed = !*slot;
        *slot = true;
        changed
    }

    /// The paper's `c̃_q(x)` for sequential automata: `d` when both unseen and
    /// closed prefixes reach the state. Returns `None` if the state exhibits a
    /// combination outside `{u, o, c, d}` (possible only for non-sequential or
    /// untrimmed automata).
    pub fn extended_config(&self) -> Option<ExtendedConfig> {
        match (self.unseen, self.open, self.closed, self.bad) {
            (true, false, false, false) => Some(ExtendedConfig::Unseen),
            (false, true, false, false) => Some(ExtendedConfig::Open),
            (false, false, true, false) => Some(ExtendedConfig::Closed),
            (true, false, true, false) => Some(ExtendedConfig::Done),
            _ => None,
        }
    }
}

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

/// Computes, for one variable, the set of statuses reachable at every state
/// by runs starting in the initial state.
pub fn reachable_statuses(a: &Vsa, x: &Variable) -> Vec<StatusSet> {
    let n = a.state_count();
    let mut sets = vec![StatusSet::empty(); n];
    let mut work: Vec<(StateId, VarStatus)> = Vec::new();
    sets[a.initial()].set(VarStatus::Unseen);
    work.push((a.initial(), VarStatus::Unseen));
    while let Some((q, status)) = work.pop() {
        for t in a.transitions_from(q) {
            let next = match &t.label {
                Label::Open(v) if v == x => status.apply(true),
                Label::Close(v) if v == x => status.apply(false),
                _ => status,
            };
            if sets[t.target].set(next) {
                work.push((t.target, next));
            }
        }
    }
    sets
}

/// Whether the automaton is *sequential*: every accepting run is valid, i.e.
/// on every accepting run each variable is opened at most once, closed at
/// most once, only after being opened, and not left open at acceptance
/// (Section 2.3). Checked per variable in polynomial time.
pub fn is_sequential(a: &Vsa) -> bool {
    a.vars().iter().all(|x| is_sequential_for(a, x))
}

/// Sequentiality restricted to one variable.
pub fn is_sequential_for(a: &Vsa, x: &Variable) -> bool {
    let sets = reachable_statuses(a, x);
    a.states().filter(|&q| a.is_accepting(q)).all(|q| {
        let s = sets[q];
        // No invalid prefix may reach an accepting state, and no accepting
        // run may leave the variable open.
        !s.bad && !s.open
    })
}

/// Whether the automaton is *functional*: sequential, and every accepting run
/// opens and closes every variable of `Vars(A)` (Section 2.3).
pub fn is_functional(a: &Vsa) -> bool {
    a.vars().iter().all(|x| {
        let sets = reachable_statuses(a, x);
        a.states().filter(|&q| a.is_accepting(q)).all(|q| {
            let s = sets[q];
            !s.bad && !s.open && !s.unseen
        })
    })
}

/// Whether the automaton is functional when attention is restricted to the
/// variables in `vars` (used when an automaton is treated "as a functional VA
/// over the common variables", Lemma 3.8).
pub fn is_functional_for(a: &Vsa, vars: &VarSet) -> bool {
    vars.iter().all(|x| {
        let sets = reachable_statuses(a, x);
        a.states().filter(|&q| a.is_accepting(q)).all(|q| {
            let s = sets[q];
            !s.bad && !s.open && !s.unseen
        })
    })
}

/// Whether every accepting run *can avoid* using the variable — i.e. whether
/// there exists an accepting run that never operates on `x`.
pub fn can_avoid(a: &Vsa, x: &Variable) -> bool {
    let sets = reachable_statuses(a, x);
    a.states()
        .filter(|&q| a.is_accepting(q))
        .any(|q| sets[q].unseen)
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
            sets[q].extended_config(),
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

    /// The sequential (but not functional) automaton of Example 2.3.
    fn example_2_3() -> Vsa {
        let mut a = Vsa::new();
        let q1 = a.add_state();
        let q2 = a.add_state();
        a.add_transition(0, Label::Class(ByteClass::any()), 0);
        a.add_transition(0, Label::Open(v("x")), q1);
        a.add_transition(q1, Label::Class(ByteClass::any()), q1);
        a.add_transition(q1, Label::Close(v("x")), q2);
        a.add_transition(q2, Label::Class(ByteClass::any()), q2);
        a.add_transition(0, Label::Class(ByteClass::any()), q2);
        a.set_accepting(q2, true);
        a
    }

    /// The functional variant (without the q0 → q2 shortcut).
    fn example_2_3_functional() -> Vsa {
        let mut a = Vsa::new();
        let q1 = a.add_state();
        let q2 = a.add_state();
        a.add_transition(0, Label::Class(ByteClass::any()), 0);
        a.add_transition(0, Label::Open(v("x")), q1);
        a.add_transition(q1, Label::Class(ByteClass::any()), q1);
        a.add_transition(q1, Label::Close(v("x")), q2);
        a.add_transition(q2, Label::Class(ByteClass::any()), q2);
        a.set_accepting(q2, true);
        a
    }

    #[test]
    fn sequential_and_functional_classification() {
        let a = example_2_3();
        assert!(is_sequential(&a));
        assert!(!is_functional(&a));
        let b = example_2_3_functional();
        assert!(is_sequential(&b));
        assert!(is_functional(&b));
    }

    #[test]
    fn non_sequential_automata_are_detected() {
        // Opens x twice on an accepting run.
        let mut a = Vsa::new();
        let q1 = a.add_state();
        let q2 = a.add_state();
        let q3 = a.add_state();
        a.add_transition(0, Label::Open(v("x")), q1);
        a.add_transition(q1, Label::Open(v("x")), q2);
        a.add_transition(q2, Label::Close(v("x")), q3);
        a.set_accepting(q3, true);
        assert!(!is_sequential(&a));

        // Leaves x open at acceptance.
        let mut b = Vsa::new();
        let q1 = b.add_state();
        b.add_transition(0, Label::Open(v("x")), q1);
        b.set_accepting(q1, true);
        assert!(!is_sequential(&b));

        // Closes x without opening it.
        let mut c = Vsa::new();
        let q1 = c.add_state();
        c.add_transition(0, Label::Close(v("x")), q1);
        c.set_accepting(q1, true);
        assert!(!is_sequential(&c));
    }

    #[test]
    fn example_3_4_extended_configuration_is_done() {
        // In Example 2.3 / 3.4 the accepting state q2 has configuration d:
        // one run closes x, another never opens it.
        let a = example_2_3();
        let sets = reachable_statuses(&a, &v("x"));
        assert_eq!(sets[2].extended_config(), Some(ExtendedConfig::Done));
        assert_eq!(sets[0].extended_config(), Some(ExtendedConfig::Unseen));
        assert_eq!(sets[1].extended_config(), Some(ExtendedConfig::Open));
        assert!(!is_semi_functional_for(&a, &v("x")));
        // The functional variant is semi-functional for x.
        assert!(is_semi_functional_for(&example_2_3_functional(), &v("x")));
    }

    #[test]
    fn usage_predicates() {
        let a = example_2_3();
        assert!(can_avoid(&a, &v("x")));
        let b = example_2_3_functional();
        assert!(!can_avoid(&b, &v("x")));
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

    #[test]
    fn functional_for_subset() {
        let a = example_2_3();
        // x is not always used, so A is not functional for {x} ...
        assert!(!is_functional_for(&a, &VarSet::from_iter(["x"])));
        // ... but it is (vacuously) functional for the empty set.
        assert!(is_functional_for(&a, &VarSet::new()));
    }
}
