//! Compilation of regex formulas into vset-automata (Thompson construction).
//!
//! The translation treats variable operations like symbols: each occurrence
//! of `x{α}` becomes `x⊢ · α · ⊣x` (Lemma 4.6 / Lemma 3.4 of Freydenberger et
//! al.). It runs in linear time, maps sequential regex formulas to sequential
//! VAs and functional formulas to functional VAs, and — because every symbol
//! and variable operation gets a dedicated target state — preserves the
//! *synchronized* property (Lemma 4.6).

use crate::automaton::{Label, StateId, Vsa};
use spanner_rgx::Rgx;

/// Compiles a regex formula into an equivalent vset-automaton.
///
/// For every regex formula `α` and document `d`, `VαW(d) = VAW(d)` where
/// `A = compile(α)`.
pub fn compile(alpha: &Rgx) -> Vsa {
    let mut a = Vsa::new();
    let start = a.initial();
    let end = build(alpha, &mut a, start);
    a.set_accepting(end, true);
    a
}

/// Adds the sub-automaton for `alpha` starting at `start`; returns its final
/// state.
fn build(alpha: &Rgx, a: &mut Vsa, start: StateId) -> StateId {
    match alpha {
        Rgx::Empty => {
            // A fresh state with no way to reach it from `start`.
            a.add_state()
        }
        Rgx::Epsilon => {
            let end = a.add_state();
            a.add_transition(start, Label::Epsilon, end);
            end
        }
        Rgx::Class(c) => {
            let end = a.add_state();
            a.add_transition(start, Label::Class(*c), end);
            end
        }
        Rgx::Concat(parts) => {
            let mut cur = start;
            for p in parts {
                cur = build(p, a, cur);
            }
            if cur == start {
                let end = a.add_state();
                a.add_transition(start, Label::Epsilon, end);
                end
            } else {
                cur
            }
        }
        Rgx::Union(parts) => {
            let end = a.add_state();
            for p in parts {
                let branch_start = a.add_state();
                a.add_transition(start, Label::Epsilon, branch_start);
                let branch_end = build(p, a, branch_start);
                a.add_transition(branch_end, Label::Epsilon, end);
            }
            end
        }
        Rgx::Star(inner) => {
            let loop_start = a.add_state();
            let end = a.add_state();
            a.add_transition(start, Label::Epsilon, loop_start);
            a.add_transition(start, Label::Epsilon, end);
            let loop_end = build(inner, a, loop_start);
            a.add_transition(loop_end, Label::Epsilon, loop_start);
            a.add_transition(loop_end, Label::Epsilon, end);
            end
        }
        Rgx::Capture(v, inner) => {
            let open_target = a.add_state();
            a.add_transition(start, Label::Open(v.clone()), open_target);
            let inner_end = build(inner, a, open_target);
            let end = a.add_state();
            a.add_transition(inner_end, Label::Close(v.clone()), end);
            end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_functional, is_sequential};
    use spanner_core::VarSet;
    use spanner_rgx::{classify, parse};

    #[test]
    fn class_preservation() {
        // Sequential regex formulas compile to sequential VAs,
        // functional ones to functional VAs (Lemma 4.6 / Section 2.5).
        let cases = [
            ("{x:a*}b", true),
            ("({x:a})?b", false),
            ("{x:a}|{y:b}", false),
            (".*{x:.}.*{y:.}.*", true),
        ];
        for (pattern, functional) in cases {
            let alpha = parse(pattern).unwrap();
            let a = compile(&alpha);
            assert!(classify::is_sequential(&alpha));
            assert!(is_sequential(&a), "compiled {pattern} not sequential");
            assert_eq!(
                is_functional(&a),
                functional,
                "functionality mismatch for {pattern}"
            );
            assert_eq!(classify::is_functional(&alpha), functional);
        }
    }

    #[test]
    fn vars_are_preserved() {
        let alpha = parse("{x:a}{y:b}|{x:ab}").unwrap();
        let a = compile(&alpha);
        assert_eq!(a.vars(), &VarSet::from_iter(["x", "y"]));
    }

    #[test]
    fn linear_size() {
        // The Thompson construction is linear: states ≤ 2 * size(α) + 2.
        for pattern in ["a*b|c{x:d+}", ".*{a:\\w+}@{b:\\w+}.*", "((ab)*|c)+{z:.?}"] {
            let alpha = parse(pattern).unwrap();
            let a = compile(&alpha);
            assert!(
                a.state_count() <= 2 * alpha.size() + 2,
                "{} states for size {}",
                a.state_count(),
                alpha.size()
            );
        }
    }
}
