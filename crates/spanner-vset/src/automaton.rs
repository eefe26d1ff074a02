//! The vset-automaton representation.

use spanner_core::{ByteClass, VarSet, Variable};
use std::fmt;

/// A state identifier within a [`Vsa`].
pub type StateId = usize;

/// A transition label of a vset-automaton.
///
/// The paper's definition has epsilon transitions, letter transitions
/// (a single symbol σ ∈ Σ) and variable transitions `x⊢` / `⊣x`.
/// As in `spanner-rgx`, letters are generalized to byte classes, which is
/// shorthand for a disjunction of single-symbol transitions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Label {
    /// ε — consumes no input.
    Epsilon,
    /// Reads one input symbol contained in the class.
    Class(ByteClass),
    /// `x⊢` — opens variable `x` at the current position.
    Open(Variable),
    /// `⊣x` — closes variable `x` at the current position.
    Close(Variable),
}

impl Label {
    /// A letter transition for a single symbol.
    pub fn symbol(b: u8) -> Label {
        Label::Class(ByteClass::single(b))
    }

    /// Whether the label is a variable operation, and if so on which variable.
    pub fn variable(&self) -> Option<&Variable> {
        match self {
            Label::Open(v) | Label::Close(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Epsilon => write!(f, "ε"),
            Label::Class(c) => write!(f, "{c:?}"),
            Label::Open(v) => write!(f, "{v}⊢"),
            Label::Close(v) => write!(f, "⊣{v}"),
        }
    }
}

/// A transition `(source, label, target)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Target state.
    pub target: StateId,
    /// Transition label.
    pub label: Label,
}

/// A vset-automaton (VA): a nondeterministic finite automaton whose
/// transitions may also open and close capture variables (Section 2.3).
///
/// The automaton has a single initial state and a set of accepting states
/// (the paper notes that allowing multiple accepting states does not change
/// expressiveness, and the constructions of Sections 3 and 4 require it).
#[derive(Clone, PartialEq, Eq)]
pub struct Vsa {
    /// Outgoing transitions, indexed by source state.
    transitions: Vec<Vec<Transition>>,
    initial: StateId,
    accepting: Vec<bool>,
    vars: VarSet,
}

impl Vsa {
    /// Creates an automaton with a single (initial, non-accepting) state and
    /// no transitions.
    pub fn new() -> Self {
        Vsa {
            transitions: vec![Vec::new()],
            initial: 0,
            accepting: vec![false],
            vars: VarSet::new(),
        }
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.transitions.push(Vec::new());
        self.accepting.push(false);
        self.transitions.len() - 1
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: StateId, label: Label, to: StateId) {
        assert!(from < self.transitions.len(), "unknown source state {from}");
        assert!(to < self.transitions.len(), "unknown target state {to}");
        if let Some(v) = label.variable() {
            self.vars.insert(v.clone());
        }
        self.transitions[from].push(Transition { target: to, label });
    }

    /// Marks a state as accepting (or not).
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether `state` is accepting.
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> Vec<StateId> {
        (0..self.state_count())
            .filter(|&q| self.accepting[q])
            .collect()
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The outgoing transitions of `state`.
    #[inline]
    pub fn transitions_from(&self, state: StateId) -> &[Transition] {
        &self.transitions[state]
    }

    /// Iterates over all transitions as `(source, label, target)`.
    pub fn all_transitions(&self) -> impl Iterator<Item = (StateId, &Label, StateId)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .flat_map(|(src, ts)| ts.iter().map(move |t| (src, &t.label, t.target)))
    }

    /// The set `Vars(A)` of variables mentioned by the automaton.
    #[inline]
    pub fn vars(&self) -> &VarSet {
        &self.vars
    }

    /// Iterates over the state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        0..self.state_count()
    }

    /// Replaces every variable operation on a variable *not* in `keep` by an
    /// epsilon transition — the projection operator `π_keep` at the automaton
    /// level. Preserves sequentiality.
    pub fn project(&self, keep: &VarSet) -> Vsa {
        let mut out = self.clone();
        out.vars = self.vars.intersection(keep);
        for ts in &mut out.transitions {
            for t in ts {
                if let Some(v) = t.label.variable() {
                    if !keep.contains(v) {
                        t.label = Label::Epsilon;
                    }
                }
            }
        }
        out
    }

    /// The union of two automata: a fresh initial state with ε-transitions to
    /// both initial states. Preserves sequentiality.
    pub fn union(&self, other: &Vsa) -> Vsa {
        let mut out = Vsa::new();
        let offset_self = Self::copy_into(&mut out, self);
        let offset_other = Self::copy_into(&mut out, other);
        out.add_transition(0, Label::Epsilon, self.initial + offset_self);
        out.add_transition(0, Label::Epsilon, other.initial + offset_other);
        out
    }

    /// Copies all states/transitions of `src` into `dst` and returns the
    /// state-id offset of the copy.
    pub fn copy_into(dst: &mut Vsa, src: &Vsa) -> usize {
        let offset = dst.state_count();
        for _ in 0..src.state_count() {
            dst.add_state();
        }
        for (from, label, to) in src.all_transitions() {
            dst.add_transition(from + offset, label.clone(), to + offset);
        }
        for q in src.states() {
            if src.is_accepting(q) {
                dst.set_accepting(q + offset, true);
            }
        }
        offset
    }

    /// Removes states that are not reachable from the initial state or from
    /// which no accepting state is reachable. Returns the trimmed automaton
    /// (state ids are renumbered). If the language is empty the result has a
    /// single non-accepting initial state.
    pub fn trim(&self) -> Vsa {
        match self.keep_mask() {
            None => Vsa::new(),
            Some(keep) if keep.iter().all(|&k| k) => self.clone(),
            Some(keep) => self.rebuild_keeping(&keep),
        }
    }

    /// By-value [`Vsa::trim`]: when every state is useful (constructions
    /// that prune dead states at generation time, like the join product,
    /// usually end up here) the automaton is returned as-is, with no copy.
    pub fn trimmed(self) -> Vsa {
        match self.keep_mask() {
            None => Vsa::new(),
            Some(keep) if keep.iter().all(|&k| k) => self,
            Some(keep) => self.rebuild_keeping(&keep),
        }
    }

    /// The mask of useful (reachable and co-reachable) states, or `None` if
    /// the initial state is useless (empty language).
    fn keep_mask(&self) -> Option<Vec<bool>> {
        let n = self.state_count();
        // Forward reachability.
        let mut fwd = vec![false; n];
        let mut stack = vec![self.initial];
        fwd[self.initial] = true;
        while let Some(q) = stack.pop() {
            for t in &self.transitions[q] {
                if !fwd[t.target] {
                    fwd[t.target] = true;
                    stack.push(t.target);
                }
            }
        }
        // Backward reachability from accepting states, over a flat (CSR)
        // reverse adjacency — one allocation instead of one vector per
        // state, which matters for the large products the join emits.
        let mut offsets = vec![0usize; n + 1];
        for (_, _, tgt) in self.all_transitions() {
            offsets[tgt + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut reverse = vec![0 as StateId; offsets[n]];
        let mut cursor = offsets.clone();
        for (src, _, tgt) in self.all_transitions() {
            reverse[cursor[tgt]] = src;
            cursor[tgt] += 1;
        }
        let mut bwd = vec![false; n];
        let mut stack: Vec<StateId> = (0..n).filter(|&q| self.accepting[q]).collect();
        for &q in &stack {
            bwd[q] = true;
        }
        while let Some(q) = stack.pop() {
            for &p in &reverse[offsets[q]..offsets[q + 1]] {
                if !bwd[p] {
                    bwd[p] = true;
                    stack.push(p);
                }
            }
        }
        let keep: Vec<bool> = (0..n).map(|q| fwd[q] && bwd[q]).collect();
        if !keep[self.initial] {
            // Empty language.
            return None;
        }
        Some(keep)
    }

    /// Rebuilds the automaton over the states selected by `keep`, bypassing
    /// the per-transition bookkeeping of [`Vsa::add_transition`] (the keep
    /// mask already validated the states, and the variable set is rebuilt in
    /// one pass).
    fn rebuild_keeping(&self, keep: &[bool]) -> Vsa {
        let n = self.state_count();
        let mut remap = vec![usize::MAX; n];
        remap[self.initial] = 0;
        let mut next = 1usize;
        for q in 0..n {
            if keep[q] && remap[q] == usize::MAX {
                remap[q] = next;
                next += 1;
            }
        }
        let mut transitions: Vec<Vec<Transition>> = vec![Vec::new(); next];
        let mut accepting = vec![false; next];
        let mut vars = VarSet::new();
        for q in 0..n {
            if !keep[q] {
                continue;
            }
            accepting[remap[q]] = self.accepting[q];
            let kept = &mut transitions[remap[q]];
            kept.reserve(self.transitions[q].len());
            for t in &self.transitions[q] {
                if !keep[t.target] {
                    continue;
                }
                if let Some(v) = t.label.variable() {
                    if !vars.contains(v) {
                        vars.insert(v.clone());
                    }
                }
                kept.push(Transition {
                    target: remap[t.target],
                    label: t.label.clone(),
                });
            }
        }
        Vsa {
            transitions,
            initial: 0,
            accepting,
            vars,
        }
    }
}

impl Default for Vsa {
    fn default() -> Self {
        Vsa::new()
    }
}

impl fmt::Debug for Vsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vsa({} states, {} transitions, vars {:?})",
            self.state_count(),
            self.transition_count(),
            self.vars
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the sequential VA of the paper's Example 2.3:
    /// `q0 --Σ--> q0`, `q0 --x⊢--> q1`, `q1 --Σ--> q1`, `q1 --⊣x--> q2`,
    /// `q2 --Σ--> q2`, plus `q0 --Σ--> q2`; accepting state `q2`.
    pub(crate) fn example_2_3() -> Vsa {
        let mut a = Vsa::new();
        let q0 = a.initial();
        let q1 = a.add_state();
        let q2 = a.add_state();
        a.add_transition(q0, Label::Class(ByteClass::any()), q0);
        a.add_transition(q0, Label::Open(Variable::new("x")), q1);
        a.add_transition(q1, Label::Class(ByteClass::any()), q1);
        a.add_transition(q1, Label::Close(Variable::new("x")), q2);
        a.add_transition(q2, Label::Class(ByteClass::any()), q2);
        a.add_transition(q0, Label::Class(ByteClass::any()), q2);
        a.set_accepting(q2, true);
        a
    }

    #[test]
    fn construction_and_accessors() {
        let a = example_2_3();
        assert_eq!(a.state_count(), 3);
        assert_eq!(a.transition_count(), 6);
        assert_eq!(a.vars(), &VarSet::from_iter(["x"]));
        assert_eq!(a.accepting_states(), vec![2]);
        assert!(a.is_accepting(2));
        assert!(!a.is_accepting(0));
        assert_eq!(a.transitions_from(0).len(), 3);
    }

    #[test]
    fn projection_replaces_ops_with_epsilon() {
        let a = example_2_3();
        let p = a.project(&VarSet::new());
        assert!(p.vars().is_empty());
        assert_eq!(p.transition_count(), a.transition_count());
        let eps_count = p
            .all_transitions()
            .filter(|(_, l, _)| matches!(l, Label::Epsilon))
            .count();
        assert_eq!(eps_count, 2); // the open and close became ε

        // Projecting onto the full variable set changes nothing.
        let same = a.project(&VarSet::from_iter(["x", "unrelated"]));
        assert_eq!(same.vars(), &VarSet::from_iter(["x"]));
    }

    #[test]
    fn union_has_fresh_initial_state() {
        let a = example_2_3();
        let b = example_2_3();
        let u = a.union(&b);
        assert_eq!(u.state_count(), 1 + 3 + 3);
        assert_eq!(u.transitions_from(u.initial()).len(), 2);
        assert_eq!(u.vars(), &VarSet::from_iter(["x"]));
    }

    #[test]
    fn trim_removes_useless_states() {
        let mut a = example_2_3();
        // Add an unreachable state and a dead-end state.
        let dead = a.add_state();
        a.add_transition(0, Label::Epsilon, dead);
        let _unreachable = a.add_state();
        assert_eq!(a.state_count(), 5);
        let t = a.trim();
        assert_eq!(t.state_count(), 3);
        assert_eq!(t.vars(), &VarSet::from_iter(["x"]));
        assert!(t.states().any(|q| t.is_accepting(q)));
    }

    #[test]
    fn trim_empty_language() {
        let mut a = Vsa::new();
        let q1 = a.add_state();
        a.add_transition(0, Label::symbol(b'a'), q1);
        // No accepting state at all.
        let t = a.trim();
        assert_eq!(t.state_count(), 1);
        assert!(t.accepting_states().is_empty());
    }
}
