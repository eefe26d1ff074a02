//! The semi-functional transformation (Lemma 3.6).
//!
//! Given a sequential VA `A` and a set of variables `X`, Lemma 3.6 constructs
//! an equivalent sequential VA that is *semi-functional for X*: every state
//! has a unique variable configuration in `{u, o, c}` for every variable of
//! `X` (no state mixes "unseen" and "closed" histories).
//!
//! The paper obtains this by splitting states with configuration `d` into two
//! copies, one variable at a time, at a total cost of `O(2^{|X|}(n + m))`.
//! The implementation here performs the equivalent product construction in a
//! single pass: a state of the output is a pair `(q, σ)` where `σ : X → {u,
//! o, c}` is the status vector of the run prefix. This yields at most
//! `3^{|X|}` copies per state — the same fixed-parameter class — and has two
//! additional useful properties:
//!
//! * the output is valid-by-construction for the variables of `X` (prefixes
//!   that would open a variable twice, close an unopened variable, etc. are
//!   simply not represented), and
//! * each output state knows its status vector, which the join and difference
//!   constructions reuse.

use crate::analysis::VarStatus;
use crate::automaton::{Label, StateId, Vsa};
use spanner_core::{VarSet, Variable};
use std::collections::HashMap;

/// A vset-automaton together with the status vector of each of its states for
/// a tracked variable set `X` — the output of [`make_semi_functional`].
#[derive(Clone, Debug)]
pub struct SemiFunctionalVsa {
    /// The transformed automaton.
    pub vsa: Vsa,
    /// The tracked variables, in the (sorted) order used by `status_vectors`.
    pub tracked: Vec<Variable>,
    /// For every state of `vsa`, its status for each tracked variable.
    pub status_vectors: Vec<Vec<VarStatus>>,
}

impl SemiFunctionalVsa {
    /// The status of `state` for the `i`-th tracked variable.
    pub fn status(&self, state: StateId, var_index: usize) -> VarStatus {
        self.status_vectors[state][var_index]
    }

    /// The index of a tracked variable, if it is tracked.
    pub fn var_index(&self, x: &Variable) -> Option<usize> {
        self.tracked.iter().position(|v| v == x)
    }
}

/// Builds an automaton equivalent to `a` that is semi-functional for every
/// variable in `x_set` (Lemma 3.6).
///
/// The input does not have to be sequential for the *tracked* variables: run
/// prefixes that are invalid for a tracked variable are dropped, which never
/// changes `VAW(d)` (only valid runs produce mappings).
pub fn make_semi_functional(a: &Vsa, x_set: &VarSet) -> SemiFunctionalVsa {
    let tracked: Vec<Variable> = x_set.intersection(a.vars()).to_vec();
    let k = tracked.len();
    let var_index: HashMap<&Variable, usize> =
        tracked.iter().enumerate().map(|(i, v)| (v, i)).collect();

    let mut out = Vsa::new();
    let mut status_vectors: Vec<Vec<VarStatus>> = vec![vec![VarStatus::Unseen; k]];
    // Map (original state, status vector) -> output state.
    let mut index: HashMap<(StateId, Vec<VarStatus>), StateId> = HashMap::new();
    let start_key = (a.initial(), vec![VarStatus::Unseen; k]);
    index.insert(start_key.clone(), 0);
    out.set_accepting(0, a.is_accepting(a.initial()));

    let mut work: Vec<(StateId, Vec<VarStatus>)> = vec![start_key];
    while let Some((q, statuses)) = work.pop() {
        let from = index[&(q, statuses.clone())];
        for t in a.transitions_from(q) {
            let mut next_statuses = statuses.clone();
            match &t.label {
                Label::Open(v) | Label::Close(v) => {
                    if let Some(&i) = var_index.get(v) {
                        let is_open = matches!(t.label, Label::Open(_));
                        let next = statuses[i].apply(is_open);
                        if next == VarStatus::Bad {
                            // Invalid prefix for a tracked variable: drop it.
                            continue;
                        }
                        next_statuses[i] = next;
                    }
                }
                _ => {}
            }
            let key = (t.target, next_statuses.clone());
            let to = *index.entry(key.clone()).or_insert_with(|| {
                let id = out.add_state();
                status_vectors.push(next_statuses.clone());
                // Acceptance: the original state accepts and no tracked
                // variable is left open (validity at acceptance).
                let valid_end = next_statuses.iter().all(|s| *s != VarStatus::Open);
                out.set_accepting(id, a.is_accepting(t.target) && valid_end);
                work.push(key);
                id
            });
            out.add_transition(from, t.label.clone(), to);
        }
    }
    // Initial-state acceptance must also respect the open-variable rule, but
    // the all-unseen vector never has an open variable, so nothing to fix.

    SemiFunctionalVsa {
        vsa: out,
        tracked,
        status_vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::ByteClass;

    fn v(x: &str) -> Variable {
        Variable::new(x)
    }

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

    #[test]
    fn status_vectors_are_consistent() {
        let a = example_2_3();
        let sf = make_semi_functional(&a, &VarSet::from_iter(["x"]));
        assert_eq!(sf.tracked, vec![v("x")]);
        assert_eq!(sf.var_index(&v("x")), Some(0));
        assert_eq!(sf.var_index(&v("y")), None);
        // The initial state has status Unseen.
        assert_eq!(sf.status(sf.vsa.initial(), 0), VarStatus::Unseen);
        // Every accepting state has status Unseen or Closed (never Open).
        for q in sf.vsa.accepting_states() {
            assert_ne!(sf.status(q, 0), VarStatus::Open);
        }
    }
}
