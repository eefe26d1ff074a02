//! Boolean-automaton (NFA) utilities.
//!
//! Boolean spanners (no variables) are plain NFAs. The paper's Section 4
//! observes that compiling the *difference* of two functional VAs into a
//! single VA necessarily blows up exponentially, because already for Boolean
//! spanners it subsumes NFA complementation [Jirásková 2005]. These helpers
//! implement the classical subset construction, complementation and product
//! so that experiment E10 can measure that blow-up and contrast it with the
//! ad-hoc (document-dependent) compilation of Lemma 4.2.

use spanner_core::{ByteClass, Document, SpannerError, SpannerResult};
use spanner_vset::automaton::{Label, StateId, Vsa};
use std::collections::{BTreeSet, HashMap};

/// A deterministic finite automaton over the byte alphabet.
///
/// Transitions are stored per state as a list of `(class, target)` pairs with
/// pairwise-disjoint classes; missing bytes go to an implicit dead state.
#[derive(Clone, Debug)]
pub struct Dfa {
    /// `transitions[q]` = disjoint `(class, target)` pairs.
    pub transitions: Vec<Vec<(ByteClass, StateId)>>,
    /// The initial state.
    pub initial: StateId,
    /// Acceptance flags.
    pub accepting: Vec<bool>,
}

impl Dfa {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Runs the DFA on a document; returns whether it accepts.
    pub fn accepts(&self, doc: &Document) -> bool {
        let mut q = Some(self.initial);
        for &b in doc.bytes() {
            q = q.and_then(|q| {
                self.transitions[q]
                    .iter()
                    .find(|(c, _)| c.contains(b))
                    .map(|&(_, t)| t)
            });
            if q.is_none() {
                return false;
            }
        }
        q.map(|q| self.accepting[q]).unwrap_or(false)
    }

    /// Complements the DFA (adds an explicit dead state so that the
    /// transition function is total).
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        let dead = out.transitions.len();
        out.transitions.push(Vec::new());
        out.accepting.push(false);
        for q in 0..out.transitions.len() {
            let mut covered = ByteClass::empty();
            for (c, _) in &out.transitions[q] {
                covered = covered.union(c);
            }
            let missing = covered.complement();
            if !missing.is_empty() {
                out.transitions[q].push((missing, dead));
            }
        }
        for flag in &mut out.accepting {
            *flag = !*flag;
        }
        out
    }
}

/// Errors if the automaton mentions variables (Boolean operations apply to
/// Boolean spanners only).
fn require_boolean(a: &Vsa) -> SpannerResult<()> {
    if a.vars().is_empty() {
        Ok(())
    } else {
        Err(SpannerError::requirement(
            "Boolean (variable-free) automaton",
            format!("automaton mentions variables {:?}", a.vars()),
        ))
    }
}

/// Computes the ε-closure of a set of states (variable operations count as ε
/// here — callers must pass Boolean automata).
fn epsilon_closure(a: &Vsa, set: &mut BTreeSet<StateId>) {
    let mut stack: Vec<StateId> = set.iter().copied().collect();
    while let Some(q) = stack.pop() {
        for t in a.transitions_from(q) {
            if matches!(t.label, Label::Epsilon) && set.insert(t.target) {
                stack.push(t.target);
            }
        }
    }
}

/// Determinizes a Boolean automaton via the subset construction.
///
/// `max_states` bounds the output size (the blow-up can be exponential).
pub fn determinize(a: &Vsa, max_states: usize) -> SpannerResult<Dfa> {
    require_boolean(a)?;
    let mut start: BTreeSet<StateId> = BTreeSet::from([a.initial()]);
    epsilon_closure(a, &mut start);

    let mut index: HashMap<BTreeSet<StateId>, StateId> = HashMap::new();
    let mut dfa = Dfa {
        transitions: vec![Vec::new()],
        initial: 0,
        accepting: vec![start.iter().any(|&q| a.is_accepting(q))],
    };
    index.insert(start.clone(), 0);
    let mut work = vec![start];

    while let Some(subset) = work.pop() {
        let from = index[&subset];
        // Group outgoing letter transitions by byte. To keep classes coarse,
        // first collect the distinct boundary classes.
        let mut by_byte: HashMap<u8, BTreeSet<StateId>> = HashMap::new();
        for &q in &subset {
            for t in a.transitions_from(q) {
                if let Label::Class(c) = &t.label {
                    for b in c.iter() {
                        by_byte.entry(b).or_default().insert(t.target);
                    }
                }
            }
        }
        // Merge bytes with identical successor sets into classes.
        let mut by_target: HashMap<BTreeSet<StateId>, ByteClass> = HashMap::new();
        for (b, mut targets) in by_byte {
            epsilon_closure(a, &mut targets);
            by_target
                .entry(targets)
                .or_insert_with(ByteClass::empty)
                .insert(b);
        }
        for (targets, class) in by_target {
            let to = match index.get(&targets) {
                Some(&id) => id,
                None => {
                    if dfa.transitions.len() >= max_states {
                        return Err(SpannerError::LimitExceeded {
                            what: "DFA states",
                            limit: max_states,
                            actual: dfa.transitions.len() + 1,
                        });
                    }
                    let id = dfa.transitions.len();
                    dfa.transitions.push(Vec::new());
                    dfa.accepting
                        .push(targets.iter().any(|&q| a.is_accepting(q)));
                    index.insert(targets.clone(), id);
                    work.push(targets);
                    id
                }
            };
            dfa.transitions[from].push((class, to));
        }
    }
    Ok(dfa)
}

/// Whether the Boolean automaton accepts the document (NFA simulation,
/// polynomial time).
pub fn nfa_accepts(a: &Vsa, doc: &Document) -> SpannerResult<bool> {
    require_boolean(a)?;
    let mut current: BTreeSet<StateId> = BTreeSet::from([a.initial()]);
    epsilon_closure(a, &mut current);
    for &b in doc.bytes() {
        let mut next = BTreeSet::new();
        for &q in &current {
            for t in a.transitions_from(q) {
                if let Label::Class(c) = &t.label {
                    if c.contains(b) {
                        next.insert(t.target);
                    }
                }
            }
        }
        epsilon_closure(a, &mut next);
        current = next;
        if current.is_empty() {
            return Ok(false);
        }
    }
    Ok(current.iter().any(|&q| a.is_accepting(q)))
}

/// Compiles the *Boolean difference* `L(a1) \ L(a2)` statically into a DFA:
/// determinize + complement + product. The output can be exponentially larger
/// than the inputs — this is exactly the blow-up that motivates the paper's
/// ad-hoc compilation for the difference operator.
pub fn static_boolean_difference(a1: &Vsa, a2: &Vsa, max_states: usize) -> SpannerResult<Dfa> {
    require_boolean(a1)?;
    let d1 = determinize(a1, max_states)?;
    let d2 = determinize(a2, max_states)?.complement();
    product_dfa(&d1, &d2, max_states)
}

/// The product DFA accepting the intersection of two DFA languages.
pub fn product_dfa(d1: &Dfa, d2: &Dfa, max_states: usize) -> SpannerResult<Dfa> {
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let start = (d1.initial, d2.initial);
    let mut out = Dfa {
        transitions: vec![Vec::new()],
        initial: 0,
        accepting: vec![d1.accepting[d1.initial] && d2.accepting[d2.initial]],
    };
    index.insert(start, 0);
    let mut work = vec![start];
    while let Some((q1, q2)) = work.pop() {
        let from = index[&(q1, q2)];
        for (c1, t1) in &d1.transitions[q1] {
            for (c2, t2) in &d2.transitions[q2] {
                let both = c1.intersect(c2);
                if both.is_empty() {
                    continue;
                }
                let key = (*t1, *t2);
                let to = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        if out.transitions.len() >= max_states {
                            return Err(SpannerError::LimitExceeded {
                                what: "product DFA states",
                                limit: max_states,
                                actual: out.transitions.len() + 1,
                            });
                        }
                        let id = out.transitions.len();
                        out.transitions.push(Vec::new());
                        out.accepting.push(d1.accepting[*t1] && d2.accepting[*t2]);
                        index.insert(key, id);
                        work.push(key);
                        id
                    }
                };
                out.transitions[from].push((both, to));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_rgx::parse;
    use spanner_vset::compile;

    fn nfa(pattern: &str) -> Vsa {
        compile(&parse(pattern).unwrap())
    }

    #[test]
    fn determinize_and_run() {
        let a = nfa("(a|b)*abb");
        let d = determinize(&a, 1000).unwrap();
        for (text, expect) in [("abb", true), ("aabb", true), ("ab", false), ("", false)] {
            assert_eq!(d.accepts(&Document::new(text)), expect, "{text:?}");
            assert_eq!(nfa_accepts(&a, &Document::new(text)).unwrap(), expect);
        }
    }

    #[test]
    fn complement_flips_acceptance() {
        let d = determinize(&nfa("a*"), 100).unwrap();
        let c = d.complement();
        for (text, in_lang) in [("", true), ("aaa", true), ("ab", false)] {
            assert_eq!(d.accepts(&Document::new(text)), in_lang);
            assert_eq!(c.accepts(&Document::new(text)), !in_lang);
        }
    }

    #[test]
    fn static_difference_is_correct() {
        // L1 = (a|b)*, L2 = strings containing "ab"; difference = b*a*.
        let a1 = nfa("(a|b)*");
        let a2 = nfa("(a|b)*ab(a|b)*");
        let diff = static_boolean_difference(&a1, &a2, 10_000).unwrap();
        for (text, expect) in [
            ("", true),
            ("ba", true),
            ("bbaa", true),
            ("ab", false),
            ("bab", false),
        ] {
            assert_eq!(diff.accepts(&Document::new(text)), expect, "{text:?}");
        }
    }

    #[test]
    fn variable_automata_are_rejected() {
        let a = nfa("{x:a}");
        assert!(determinize(&a, 100).is_err());
        assert!(nfa_accepts(&a, &Document::new("a")).is_err());
    }

    #[test]
    fn exponential_blowup_family() {
        // L_n = (a|b)* a (a|b)^{n-1}: the minimal DFA needs ≥ 2^n states.
        let n = 8;
        let suffix = "(a|b)".repeat(n - 1);
        let a = nfa(&format!("(a|b)*a{suffix}"));
        let d = determinize(&a, 1 << 16).unwrap();
        assert!(
            d.state_count() >= 1 << (n - 1),
            "expected ≥ {} states, got {}",
            1 << (n - 1),
            d.state_count()
        );
        // The limit guard triggers when the allowance is too small.
        assert!(matches!(
            determinize(&a, 16),
            Err(SpannerError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn dead_state_handling() {
        let d = determinize(&nfa("ab"), 100).unwrap();
        assert!(!d.accepts(&Document::new("ax")));
        assert!(!d.accepts(&Document::new("abc")));
        assert!(d.accepts(&Document::new("ab")));
    }
}
