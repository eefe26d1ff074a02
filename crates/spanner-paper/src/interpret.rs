//! Brute-force interpretation of vset-automata (test oracle).
//!
//! [`interpret`] computes `VAW(d)` by a fixpoint over run configurations.
//! It materializes every reachable configuration `(position, state, partial
//! mapping, open variables)`, so it is exponential in the number of variables
//! and only suitable for small inputs. The production evaluation path lives
//! in `spanner-enum`; this interpreter exists so that the automaton
//! constructions of `spanner-vset` and of this crate can be validated
//! independently of it.

use spanner_core::{Document, FxHashSet, Mapping, MappingSet, Span, VarId, Variable};
use spanner_vset::automaton::{Label, StateId, Vsa};
use std::rc::Rc;

/// The variable bookkeeping of a run, shared between configurations.
///
/// ε- and letter-transitions do not touch the variable state, so successor
/// configurations share it through an `Rc` instead of cloning two vectors
/// per transition; a fresh `VarState` is allocated only by the (much rarer)
/// open/close operations. Variables are tracked by interned id.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct VarState {
    /// Variables already closed, with their spans (sorted by id).
    closed: Vec<(VarId, Span)>,
    /// Variables currently open, with their opening positions (sorted by id).
    open: Vec<(VarId, u32)>,
}

/// A run configuration of the interpreter.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Config {
    pos: u32,
    state: StateId,
    vars: Rc<VarState>,
}

/// Computes `VAW(d)`: the set of mappings of all **valid** accepting runs of
/// the automaton on the document.
pub fn interpret(a: &Vsa, doc: &Document) -> MappingSet {
    let n = doc.len() as u32;
    let mut result = Vec::new();
    let mut seen: FxHashSet<Config> = FxHashSet::default();
    let start = Config {
        pos: 1,
        state: a.initial(),
        vars: Rc::new(VarState::default()),
    };
    let mut stack = vec![start.clone()];
    seen.insert(start);

    while let Some(cfg) = stack.pop() {
        if cfg.pos == n + 1 && a.is_accepting(cfg.state) && cfg.vars.open.is_empty() {
            result.push(Mapping::from_pairs(
                cfg.vars
                    .closed
                    .iter()
                    .map(|&(id, s)| (Variable::from_id(id), s)),
            ));
        }
        for t in a.transitions_from(cfg.state) {
            let next = match &t.label {
                Label::Epsilon => Some(Config {
                    pos: cfg.pos,
                    state: t.target,
                    vars: Rc::clone(&cfg.vars),
                }),
                Label::Class(c) => {
                    if cfg.pos <= n && c.contains(doc.symbol_at(cfg.pos).unwrap()) {
                        Some(Config {
                            pos: cfg.pos + 1,
                            state: t.target,
                            vars: Rc::clone(&cfg.vars),
                        })
                    } else {
                        None
                    }
                }
                Label::Open(v) => {
                    let id = v.id();
                    // Validity: a variable is opened at most once.
                    if cfg.vars.open.iter().any(|&(o, _)| o == id)
                        || cfg.vars.closed.iter().any(|&(c, _)| c == id)
                    {
                        None
                    } else {
                        let mut vars = (*cfg.vars).clone();
                        let at = vars.open.partition_point(|&(o, _)| o < id);
                        vars.open.insert(at, (id, cfg.pos));
                        Some(Config {
                            pos: cfg.pos,
                            state: t.target,
                            vars: Rc::new(vars),
                        })
                    }
                }
                Label::Close(v) => {
                    let id = v.id();
                    // Validity: only an open variable can be closed.
                    if let Some(idx) = cfg.vars.open.iter().position(|&(o, _)| o == id) {
                        let mut vars = (*cfg.vars).clone();
                        let (_, start_pos) = vars.open.remove(idx);
                        let at = vars.closed.partition_point(|&(c, _)| c < id);
                        vars.closed.insert(at, (id, Span::new(start_pos, cfg.pos)));
                        Some(Config {
                            pos: cfg.pos,
                            state: t.target,
                            vars: Rc::new(vars),
                        })
                    } else {
                        None
                    }
                }
            };
            if let Some(next) = next {
                if seen.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
    }
    MappingSet::from_mappings(result)
}

/// Returns `true` if the automaton has at least one valid accepting run on
/// the document (brute force; for tests).
pub fn interpret_nonempty(a: &Vsa, doc: &Document) -> bool {
    !interpret(a, doc).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::{ByteClass, VarSet, Variable};

    fn example_2_3() -> Vsa {
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
    fn example_2_3_on_single_letter() {
        // VAW(a) for the Example 2.3 automaton: either x gets some span of
        // "a", or the run skips x entirely (the q0 → q2 letter transition).
        let a = example_2_3();
        let doc = Document::new("a");
        let result = interpret(&a, &doc);
        // Mappings: {} (skip), x=[1,1⟩, x=[1,2⟩, x=[2,2⟩.
        assert_eq!(result.len(), 4);
        assert!(result.contains(&Mapping::new()));
        assert!(result.contains(&Mapping::from_pairs([("x", Span::new(1, 2))])));
        assert!(result.contains(&Mapping::from_pairs([("x", Span::empty(1))])));
        assert!(result.contains(&Mapping::from_pairs([("x", Span::empty(2))])));
    }

    #[test]
    fn equivalent_regex_formula_semantics() {
        // The paper states Example 2.3's automaton equals
        // (Σ* x{Σ*} Σ*) ∨ Σ+. Cross-check via the rgx reference evaluator.
        use crate::eval::reference_eval;
        use spanner_rgx::parse;
        let alpha = parse("(.*{x:.*}.*)|(.+)").unwrap();
        let a = example_2_3();
        for text in ["", "a", "ab", "aba"] {
            let doc = Document::new(text);
            assert_eq!(
                interpret(&a, &doc),
                reference_eval(&alpha, &doc),
                "mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn invalid_runs_are_discarded() {
        // An automaton that closes x without opening it: no valid run.
        let mut a = Vsa::new();
        let q1 = a.add_state();
        a.add_transition(0, Label::Close(Variable::new("x")), q1);
        a.set_accepting(q1, true);
        assert!(interpret(&a, &Document::new("")).is_empty());

        // An automaton that opens x but never closes it.
        let mut b = Vsa::new();
        let q1 = b.add_state();
        b.add_transition(0, Label::Open(Variable::new("x")), q1);
        b.set_accepting(q1, true);
        assert!(interpret(&b, &Document::new("")).is_empty());
    }

    #[test]
    fn double_open_is_invalid() {
        let mut a = Vsa::new();
        let q1 = a.add_state();
        let q2 = a.add_state();
        let q3 = a.add_state();
        a.add_transition(0, Label::Open(Variable::new("x")), q1);
        a.add_transition(q1, Label::Open(Variable::new("x")), q2);
        a.add_transition(q2, Label::Close(Variable::new("x")), q3);
        a.set_accepting(q3, true);
        assert!(interpret(&a, &Document::new("")).is_empty());
    }

    #[test]
    fn epsilon_cycles_terminate() {
        let mut a = Vsa::new();
        let q1 = a.add_state();
        a.add_transition(0, Label::Epsilon, q1);
        a.add_transition(q1, Label::Epsilon, 0);
        a.set_accepting(q1, true);
        let r = interpret(&a, &Document::new(""));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Mapping::new()));
    }

    #[test]
    fn domain_filter() {
        let a = example_2_3();
        let doc = Document::new("a");
        let all = interpret(&a, &doc);
        let over = |domain: VarSet| all.iter().filter(|m| m.domain() == domain).count();
        assert_eq!(over(VarSet::from_iter(["x"])), 3);
        assert_eq!(over(VarSet::new()), 1);
    }
}
