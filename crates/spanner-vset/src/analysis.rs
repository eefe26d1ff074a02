//! Static analyses of vset-automata: validity, sequentiality, functionality,
//! and the per-state variable statuses of Section 3.1 that the join and the
//! semi-functional transform read. The paper's classifiers built on the same
//! statuses (semi-functionality, synchronization, the extended configuration
//! `{u, o, c, d}`) are reference code in `spanner-paper`.

use crate::automaton::{Label, StateId, Vsa};
use spanner_core::Variable;

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

/// Whether every accepting run *can avoid* using the variable — i.e. whether
/// there exists an accepting run that never operates on `x`.
pub fn can_avoid(a: &Vsa, x: &Variable) -> bool {
    let sets = reachable_statuses(a, x);
    a.states()
        .filter(|&q| a.is_accepting(q))
        .any(|q| sets[q].unseen)
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
    fn usage_predicates() {
        let a = example_2_3();
        assert!(can_avoid(&a, &v("x")));
        let b = example_2_3_functional();
        assert!(!can_avoid(&b, &v("x")));
    }
}
