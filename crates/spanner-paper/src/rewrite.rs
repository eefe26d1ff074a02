//! The disjunctive-functional pipeline (Propositions 3.9 and 3.12).
//!
//! Every sequential regex formula is equivalent to a disjunction of
//! functional regex formulas. [`to_disjunctive_functional`] follows the
//! recursive definition of the set `A(α)` in Appendix A.2 of the paper.
//! Proposition 3.11 shows the number of disjuncts can be exponential in the
//! size of the input — the `limit` argument guards against that blow-up, and
//! experiment E4 measures it on the Example 3.10 family. The disjuncts
//! compile to functional automata, and [`join_disjunctive_functional`] joins
//! two such unions pairwise (Proposition 3.12); [`assemble_disjunction`]
//! turns the components back into one automaton.

use spanner_core::{SpannerError, SpannerResult};
use spanner_rgx::{is_functional, is_sequential, Rgx};
use spanner_vset::{join, Label, Vsa};

/// Rewrites a *sequential* regex formula into an equivalent list of
/// *functional* regex formulas (the disjuncts of a disjunctive-functional
/// formula).
///
/// Returns an error if the input is not sequential or if the number of
/// disjuncts would exceed `limit` (Proposition 3.11 shows this is
/// unavoidable in the worst case).
pub fn to_disjunctive_functional(alpha: &Rgx, limit: usize) -> SpannerResult<Vec<Rgx>> {
    if !is_sequential(alpha) {
        return Err(SpannerError::requirement(
            "sequential",
            format!("formula {alpha} is not sequential"),
        ));
    }
    let disjuncts = rewrite(alpha, limit)?;
    debug_assert!(disjuncts.iter().all(is_functional));
    Ok(disjuncts)
}

fn check_limit(len: usize, limit: usize) -> SpannerResult<()> {
    if len > limit {
        Err(SpannerError::LimitExceeded {
            what: "disjunctive-functional disjuncts",
            limit,
            actual: len,
        })
    } else {
        Ok(())
    }
}

/// The recursive set `A(α)` of Appendix A.2, restricted to sequential input.
fn rewrite(alpha: &Rgx, limit: usize) -> SpannerResult<Vec<Rgx>> {
    let out = match alpha {
        Rgx::Empty => vec![],
        Rgx::Epsilon => vec![Rgx::Epsilon],
        Rgx::Class(c) => vec![Rgx::Class(*c)],
        Rgx::Union(parts) => {
            // If no variables occur anywhere, keep the union as one
            // (functional, variable-free) disjunct; otherwise recurse.
            if alpha.vars().is_empty() {
                vec![alpha.clone()]
            } else {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(rewrite(p, limit)?);
                    check_limit(out.len(), limit)?;
                }
                out
            }
        }
        Rgx::Concat(parts) => {
            let mut out = vec![Rgx::Epsilon];
            for p in parts {
                let rhs = rewrite(p, limit)?;
                check_limit(out.len().saturating_mul(rhs.len()), limit)?;
                let mut next = Vec::with_capacity(out.len() * rhs.len());
                for left in &out {
                    for right in &rhs {
                        next.push(Rgx::concat([left.clone(), right.clone()]));
                    }
                }
                out = next;
            }
            out
        }
        Rgx::Star(inner) => {
            // Sequential ⇒ Vars(inner) = ∅ ⇒ the star itself is functional.
            debug_assert!(inner.vars().is_empty());
            vec![alpha.clone()]
        }
        Rgx::Capture(v, inner) => rewrite(inner, limit)?
            .into_iter()
            .map(|beta| Rgx::capture(v.clone(), beta))
            .collect(),
    };
    check_limit(out.len(), limit)?;
    Ok(out)
}

/// Pairwise join of the functional components of two disjunctive-functional
/// VAs (Proposition 3.12): returns the components of a disjunctive-functional
/// VA equivalent to the join of the two inputs.
pub fn join_disjunctive_functional(
    components1: &[Vsa],
    components2: &[Vsa],
) -> SpannerResult<Vec<Vsa>> {
    let mut out = Vec::with_capacity(components1.len() * components2.len());
    for c1 in components1 {
        for c2 in components2 {
            let j = join(c1, c2)?;
            // Skip trivially empty components.
            if j.accepting_states().is_empty() {
                continue;
            }
            out.push(j);
        }
    }
    Ok(out)
}

/// Assembles a disjunctive-functional VA from its components: a fresh initial
/// state with ε-transitions to every component's initial state.
pub fn assemble_disjunction(components: &[Vsa]) -> Vsa {
    let mut out = Vsa::new();
    for c in components {
        let offset = Vsa::copy_into(&mut out, c);
        out.add_transition(0, Label::Epsilon, c.initial() + offset);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::reference_eval;
    use spanner_core::Document;
    use spanner_rgx::parse;

    /// Checks that the disjunction of the rewritten disjuncts is equivalent
    /// to the original on the given documents.
    fn assert_equivalent(alpha: &Rgx, docs: &[&str]) {
        let disjuncts = to_disjunctive_functional(alpha, 1 << 20).unwrap();
        for f in &disjuncts {
            assert!(is_functional(f), "disjunct {f} is not functional");
        }
        let rewritten = Rgx::Union(disjuncts);
        for d in docs {
            let doc = Document::new(*d);
            assert_eq!(
                reference_eval(alpha, &doc),
                reference_eval(&rewritten, &doc),
                "rewriting changed semantics on {d:?} for {alpha}"
            );
        }
    }

    #[test]
    fn functional_formula_is_a_single_disjunct() {
        let alpha = parse("{x:a+}b").unwrap();
        let d = to_disjunctive_functional(&alpha, 100).unwrap();
        assert_eq!(d.len(), 1);
        assert_equivalent(&alpha, &["aab", "b", ""]);
    }

    #[test]
    fn optional_variable_splits_into_disjuncts() {
        // x{a}? ≡ (ε) ∨ (x{a}) — two disjuncts with different variable sets.
        let alpha = parse("{x:a}?b").unwrap();
        let d = to_disjunctive_functional(&alpha, 100).unwrap();
        assert_eq!(d.len(), 2);
        assert_equivalent(&alpha, &["ab", "b", "a"]);
    }

    #[test]
    fn example_3_10_blowup() {
        // (x1{Σ*} ∨ y1{Σ*}) ⋯ (xn{Σ*} ∨ yn{Σ*}) needs 2^n disjuncts.
        for n in 1..=6 {
            let alpha = Rgx::concat((0..n).map(|i| {
                Rgx::union([
                    Rgx::capture(format!("x{i}"), Rgx::any_string()),
                    Rgx::capture(format!("y{i}"), Rgx::any_string()),
                ])
            }));
            let d = to_disjunctive_functional(&alpha, 1 << 20).unwrap();
            assert_eq!(d.len(), 1 << n, "n = {n}");
        }
    }

    #[test]
    fn limit_is_enforced() {
        let alpha = Rgx::concat((0..10).map(|i| {
            Rgx::union([
                Rgx::capture(format!("x{i}"), Rgx::any_string()),
                Rgx::capture(format!("y{i}"), Rgx::any_string()),
            ])
        }));
        let err = to_disjunctive_functional(&alpha, 100).unwrap_err();
        assert!(matches!(err, SpannerError::LimitExceeded { .. }));
    }

    #[test]
    fn non_sequential_input_is_rejected() {
        let alpha = parse("({x:a})*").unwrap();
        assert!(matches!(
            to_disjunctive_functional(&alpha, 100),
            Err(SpannerError::Requirement { .. })
        ));
    }

    #[test]
    fn variable_free_unions_are_kept_whole() {
        let alpha = parse("(a|b)*c|d").unwrap();
        let d = to_disjunctive_functional(&alpha, 100).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn semantics_preserved_on_paper_like_formula() {
        // Simplified αname ∨ αmail-ish formula with optional parts.
        let alpha = parse(r"({first:\l+} |()){last:\l+}( {phone:\d+})?").unwrap();
        assert_equivalent(&alpha, &["bob smith 42", "smith", "ann lee"]);
    }

    #[test]
    fn star_of_union_without_vars() {
        let alpha = parse("{x:(a|b)*}c?").unwrap();
        let d = to_disjunctive_functional(&alpha, 100).unwrap();
        // The trailing `c?` is a variable-free union, so it is kept whole and
        // a single functional disjunct suffices.
        assert_eq!(d.len(), 1);
        assert_equivalent(&alpha, &["abba", "abbac", "", "c"]);
    }
}
