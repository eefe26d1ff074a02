//! Executable hardness reductions (Theorems 3.1, 4.1, 4.4; Proposition 4.10).
//!
//! Each construction takes a CNF formula and produces regex formulas and a
//! document such that satisfiability of the formula coincides with
//! nonemptiness of a join or difference of the produced spanners. The tests
//! machine-check this equivalence against the DPLL solver, and the benchmark
//! harness (experiments E2, E6, E11) measures how quickly the resulting
//! spanner instances become infeasible — the empirical face of the paper's
//! NP-hardness results.

use crate::cnf::Cnf;
use spanner_core::{Document, SpannerError, SpannerResult};
use spanner_rgx::Rgx;
use std::collections::BTreeSet;

/// A join-nonemptiness instance `(γ₁, γ₂, d)`: `Vγ₁ ⋈ γ₂W(d) ≠ ∅` iff the
/// source formula is satisfiable.
#[derive(Debug, Clone)]
pub struct JoinInstance {
    /// The left operand (sequential, not functional).
    pub gamma1: Rgx,
    /// The right operand (sequential, not functional).
    pub gamma2: Rgx,
    /// The input document (a single letter, as in Theorem 3.1).
    pub doc: Document,
}

/// A difference-nonemptiness instance `(γ₁, γ₂, d)`: `Vγ₁ \ γ₂W(d) ≠ ∅` iff
/// the associated condition on the source formula holds (satisfiability for
/// Theorem 4.1 / Proposition 4.10, weight-`k` satisfiability for
/// Theorem 4.4).
#[derive(Debug, Clone)]
pub struct DifferenceInstance {
    /// The left operand.
    pub gamma1: Rgx,
    /// The right operand.
    pub gamma2: Rgx,
    /// The input document.
    pub doc: Document,
}

fn capture_eps(name: String) -> Rgx {
    Rgx::capture(name, Rgx::Epsilon)
}

/// The Theorem 3.1 reduction: 3SAT → nonemptiness of the join of two
/// *sequential* regex formulas over the single-letter document `a`.
pub fn join_hardness_instance(cnf: &Cnf) -> JoinInstance {
    let n = cnf.num_vars;
    let m = cnf.num_clauses();
    let var_name = |i: usize, j: usize, positive: bool| {
        format!("x{i}_{j}_{}", if positive { "t" } else { "f" })
    };

    // γ₁ = γ_{x1} ⋯ γ_{xn} · a, where γ_{xi} chooses the whole "true row" or
    // the whole "false row" of capture variables for xi.
    let mut gamma1_parts: Vec<Rgx> = Vec::with_capacity(n + 1);
    for i in 1..=n {
        let row =
            |positive: bool| Rgx::concat((1..=m).map(|j| capture_eps(var_name(i, j, positive))));
        gamma1_parts.push(Rgx::union([row(true), row(false)]));
    }
    gamma1_parts.push(Rgx::symbol(b'a'));
    let gamma1 = Rgx::concat(gamma1_parts);

    // γ₂ = a · δ₁ ⋯ δ_m, where δ_j picks a literal that satisfies clause j.
    let mut gamma2_parts: Vec<Rgx> = Vec::with_capacity(m + 1);
    gamma2_parts.push(Rgx::symbol(b'a'));
    for (j, clause) in cnf.clauses.iter().enumerate() {
        let j = j + 1;
        let literals: BTreeSet<(usize, bool)> =
            clause.iter().map(|l| (l.var, l.positive)).collect();
        gamma2_parts.push(Rgx::union(
            literals
                .into_iter()
                .map(|(i, positive)| capture_eps(var_name(i, j, positive))),
        ));
    }
    let gamma2 = Rgx::concat(gamma2_parts);

    JoinInstance {
        gamma1,
        gamma2,
        doc: Document::new("a"),
    }
}

/// The Theorem 4.1 reduction: 3SAT → nonemptiness of the difference of two
/// *functional* regex formulas over the document `aⁿ`.
pub fn difference_hardness_instance(cnf: &Cnf) -> DifferenceInstance {
    let n = cnf.num_vars;
    let var_name = |i: usize| format!("x{i}");
    // βᵢ = (xᵢ{ε}·a) ∨ xᵢ{a}: capturing ε means "false", capturing the letter
    // means "true".
    let beta = |i: usize| {
        Rgx::union([
            Rgx::concat([capture_eps(var_name(i)), Rgx::symbol(b'a')]),
            Rgx::capture(var_name(i), Rgx::symbol(b'a')),
        ])
    };
    let gamma1 = Rgx::concat((1..=n).map(beta));

    // γ₂ = ∨_j γ₂ʲ, where γ₂ʲ describes the assignments falsifying clause j.
    let mut disjuncts: Vec<Rgx> = Vec::new();
    for clause in &cnf.clauses {
        // A clause containing complementary literals cannot be falsified.
        let positive: BTreeSet<usize> = clause
            .iter()
            .filter(|l| l.positive)
            .map(|l| l.var)
            .collect();
        let negative: BTreeSet<usize> = clause
            .iter()
            .filter(|l| !l.positive)
            .map(|l| l.var)
            .collect();
        if positive.intersection(&negative).next().is_some() {
            continue;
        }
        let parts = (1..=n).map(|i| {
            if positive.contains(&i) {
                // Falsify xᵢ: capture ε.
                Rgx::concat([capture_eps(var_name(i)), Rgx::symbol(b'a')])
            } else if negative.contains(&i) {
                // Falsify ¬xᵢ: capture the letter.
                Rgx::capture(var_name(i), Rgx::symbol(b'a'))
            } else {
                beta(i)
            }
        });
        disjuncts.push(Rgx::concat(parts));
    }
    let gamma2 = Rgx::union(disjuncts);

    DifferenceInstance {
        gamma1,
        gamma2,
        doc: Document::new("a".repeat(n)),
    }
}

/// The Theorem 4.4 reduction: weight-`k` 3SAT → nonemptiness of the
/// difference of two functional regex formulas sharing only `k` variables
/// (the W\[1\]-hardness parameter).
///
/// The paper encodes document positions by unique `O(log n)`-length blocks
/// over a binary alphabet; this implementation uses one unique byte per
/// propositional variable instead (a presentation simplification that
/// preserves the structure of the reduction; it caps the number of variables
/// at 200).
pub fn weighted_difference_instance(cnf: &Cnf, k: usize) -> SpannerResult<DifferenceInstance> {
    let n = cnf.num_vars;
    if n > 200 {
        return Err(SpannerError::LimitExceeded {
            what: "variables in the Theorem 4.4 reduction",
            limit: 200,
            actual: n,
        });
    }
    let symbol_of = |i: usize| (b'0' + ((i - 1) % 10) as u8, (b'A' + ((i - 1) / 10) as u8));
    // Each position i is the two-byte block symbol_of(i); blocks are unique.
    let mut text = String::with_capacity(2 * n);
    for i in 1..=n {
        let (lo, hi) = symbol_of(i);
        text.push(hi as char);
        text.push(lo as char);
    }
    let doc = Document::new(text);

    let block = |i: usize| {
        let (lo, hi) = symbol_of(i);
        Rgx::concat([Rgx::symbol(hi), Rgx::symbol(lo)])
    };
    let block_class =
        |allowed: &dyn Fn(usize) -> bool| Rgx::union((1..=n).filter(|i| allowed(*i)).map(block));
    let any_block = block_class(&|_| true);
    let y_name = |u: usize| format!("y{u}");

    // α₁ = S* y₁{S} S* ⋯ y_k{S} S*.
    let mut alpha1_parts = vec![Rgx::star(any_block.clone())];
    for u in 1..=k {
        alpha1_parts.push(Rgx::capture(y_name(u), any_block.clone()));
        alpha1_parts.push(Rgx::star(any_block.clone()));
    }
    let alpha1 = Rgx::concat(alpha1_parts);

    // α₂ = ∨_j α_{C_j}: weight-k selections that falsify clause j.
    let mut disjuncts: Vec<Rgx> = Vec::new();
    for clause in &cnf.clauses {
        let positive: BTreeSet<usize> = clause
            .iter()
            .filter(|l| l.positive)
            .map(|l| l.var)
            .collect();
        let negative: BTreeSet<usize> = clause
            .iter()
            .filter(|l| !l.positive)
            .map(|l| l.var)
            .collect();
        if positive.intersection(&negative).next().is_some() {
            continue;
        }
        let neg: Vec<usize> = negative.iter().copied().collect();
        let allowed = |i: usize| !positive.contains(&i);
        // Choose which of the k selection variables pick up the (sorted)
        // negated-literal positions; all other selections avoid the positive
        // positions.
        for combo in increasing_sequences(k, neg.len()) {
            // Separators range over *all* blocks (unselected positions are
            // unconstrained); only the captured blocks avoid the positive
            // literals.
            let mut parts = vec![Rgx::star(any_block.clone())];
            let mut next_forced = 0usize;
            for u in 1..=k {
                if next_forced < combo.len() && combo[next_forced] == u {
                    parts.push(Rgx::capture(y_name(u), block(neg[next_forced])));
                    next_forced += 1;
                } else {
                    parts.push(Rgx::capture(y_name(u), block_class(&allowed)));
                }
                parts.push(Rgx::star(any_block.clone()));
            }
            if next_forced == combo.len() {
                disjuncts.push(Rgx::concat(parts));
            }
        }
    }
    let alpha2 = Rgx::union(disjuncts);

    Ok(DifferenceInstance {
        gamma1: alpha1,
        gamma2: alpha2,
        doc,
    })
}

/// All strictly increasing sequences of length `len` over `1..=k`.
fn increasing_sequences(k: usize, len: usize) -> Vec<Vec<usize>> {
    fn rec(k: usize, len: usize, start: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == len {
            out.push(cur.clone());
            return;
        }
        for u in start..=k {
            cur.push(u);
            rec(k, len, u + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(k, len, 1, &mut Vec::new(), &mut out);
    out
}

/// The Proposition 4.10 reduction: bounded-occurrence CNF (every variable in
/// at most 3 clauses, clauses of width 2 or 3) → nonemptiness of `γ₁ \ γ₂`
/// where `γ₁` is functional and disjunction-free and `γ₂` is a disjunction of
/// disjunction-free formulas, each variable occurring in at most 3 disjuncts.
pub fn bounded_occurrence_difference_instance(cnf: &Cnf) -> DifferenceInstance {
    let n = cnf.num_vars;
    let var_name = |i: usize| format!("x{i}");
    // The document is (bab)ⁿ.
    let doc = Document::new("bab".repeat(n));

    // γ₁ = (b x₁{a*} a* b) ⋯ (b xₙ{a*} a* b): capturing "a" means true,
    // capturing ε means false.
    let factor = |i: usize| {
        Rgx::concat([
            Rgx::symbol(b'b'),
            Rgx::capture(var_name(i), Rgx::star(Rgx::symbol(b'a'))),
            Rgx::star(Rgx::symbol(b'a')),
            Rgx::symbol(b'b'),
        ])
    };
    let gamma1 = Rgx::concat((1..=n).map(factor));

    // γ₂ʲ: the assignments falsifying clause j, with plain (bab) blocks at the
    // unconstrained positions (so each variable occurs only in the disjuncts
    // of the clauses that mention it).
    let mut disjuncts: Vec<Rgx> = Vec::new();
    for clause in &cnf.clauses {
        let positive: BTreeSet<usize> = clause
            .iter()
            .filter(|l| l.positive)
            .map(|l| l.var)
            .collect();
        let negative: BTreeSet<usize> = clause
            .iter()
            .filter(|l| !l.positive)
            .map(|l| l.var)
            .collect();
        if positive.intersection(&negative).next().is_some() {
            continue;
        }
        let parts = (1..=n).map(|i| {
            if positive.contains(&i) {
                // Falsify xᵢ: capture ε (the 'a' is consumed outside the capture).
                Rgx::concat([
                    Rgx::symbol(b'b'),
                    capture_eps(var_name(i)),
                    Rgx::symbol(b'a'),
                    Rgx::symbol(b'b'),
                ])
            } else if negative.contains(&i) {
                // Falsify ¬xᵢ: capture the 'a'.
                Rgx::concat([
                    Rgx::symbol(b'b'),
                    Rgx::capture(var_name(i), Rgx::symbol(b'a')),
                    Rgx::symbol(b'b'),
                ])
            } else {
                Rgx::literal("bab")
            }
        });
        disjuncts.push(Rgx::concat(parts));
    }
    let gamma2 = Rgx::union(disjuncts);

    DifferenceInstance {
        gamma1,
        gamma2,
        doc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{dpll, has_satisfying_assignment_of_weight, is_satisfiable, Literal};
    use crate::eval::reference_eval;
    use spanner_rgx::{is_disjunction_free, is_functional, is_sequential};

    fn clause(lits: &[i64]) -> Vec<Literal> {
        lits.iter()
            .map(|&v| Literal {
                var: v.unsigned_abs() as usize,
                positive: v > 0,
            })
            .collect()
    }

    fn example_formula() -> Cnf {
        // φ = (x ∨ y ∨ z) ∧ (¬x ∨ y ∨ ¬z) — the paper's running example.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2, 3]));
        cnf.add_clause(clause(&[-1, 2, -3]));
        cnf
    }

    fn unsat_formula() -> Cnf {
        // All sign patterns over two variables.
        let mut cnf = Cnf::new(2);
        for signs in [[1, 2], [1, -2], [-1, 2], [-1, -2]] {
            cnf.add_clause(clause(&signs.map(i64::from)));
        }
        cnf
    }

    /// Evaluates nonemptiness of the join instance with the reference
    /// evaluator (small instances only).
    fn join_nonempty(instance: &JoinInstance) -> bool {
        let left = reference_eval(&instance.gamma1, &instance.doc);
        let right = reference_eval(&instance.gamma2, &instance.doc);
        !left.join(&right).is_empty()
    }

    fn difference_nonempty(instance: &DifferenceInstance) -> bool {
        let left = reference_eval(&instance.gamma1, &instance.doc);
        let right = reference_eval(&instance.gamma2, &instance.doc);
        !left.difference(&right).is_empty()
    }

    #[test]
    fn theorem_3_1_on_the_paper_example() {
        let cnf = example_formula();
        let instance = join_hardness_instance(&cnf);
        assert!(is_sequential(&instance.gamma1));
        assert!(is_sequential(&instance.gamma2));
        assert!(!is_functional(&instance.gamma1));
        assert_eq!(instance.doc.len(), 1);
        assert_eq!(join_nonempty(&instance), is_satisfiable(&cnf));
        assert!(join_nonempty(&instance));
    }

    #[test]
    fn theorem_3_1_on_unsatisfiable_input() {
        let cnf = unsat_formula();
        let instance = join_hardness_instance(&cnf);
        assert!(!join_nonempty(&instance));
    }

    #[test]
    fn theorem_4_1_on_the_paper_example() {
        let cnf = example_formula();
        let instance = difference_hardness_instance(&cnf);
        assert!(is_functional(&instance.gamma1));
        assert!(is_functional(&instance.gamma2));
        assert_eq!(instance.doc.text(), "aaa");
        assert_eq!(difference_nonempty(&instance), is_satisfiable(&cnf));
        assert!(difference_nonempty(&instance));
    }

    #[test]
    fn theorem_4_1_on_unsatisfiable_input() {
        let cnf = unsat_formula();
        let instance = difference_hardness_instance(&cnf);
        assert!(!difference_nonempty(&instance));
    }

    #[test]
    fn reductions_agree_with_dpll_on_exhaustive_small_formulas() {
        // Every subset of a pool of clauses over 3 variables.
        let pool = [
            clause(&[1, 2, 3]),
            clause(&[-1, -2, 3]),
            clause(&[-3, 2, 1]),
            clause(&[-1, -2, -3]),
            clause(&[1, -2, 3]),
        ];
        for mask in 0u32..(1 << pool.len()) {
            let mut cnf = Cnf::new(3);
            for (i, c) in pool.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    cnf.add_clause(c.clone());
                }
            }
            let sat = dpll(&cnf).is_some();
            assert_eq!(
                join_nonempty(&join_hardness_instance(&cnf)),
                sat,
                "join reduction disagrees on mask {mask}"
            );
            assert_eq!(
                difference_nonempty(&difference_hardness_instance(&cnf)),
                sat,
                "difference reduction disagrees on mask {mask}"
            );
        }
    }

    #[test]
    fn theorem_4_4_weighted_reduction() {
        // (x1 ∨ x2) ∧ (x3 ∨ x4): satisfiable with weight 2 but not weight 1.
        let mut cnf = Cnf::new(4);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[3, 4]));
        for k in 1..=3 {
            let instance = weighted_difference_instance(&cnf, k).unwrap();
            assert!(is_functional(&instance.gamma1));
            assert_eq!(
                difference_nonempty(&instance),
                has_satisfying_assignment_of_weight(&cnf, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn theorem_4_4_with_negated_literals() {
        // (¬x1 ∨ x2) ∧ (x1 ∨ ¬x3)
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[-1, 2]));
        cnf.add_clause(clause(&[1, -3]));
        for k in 0..=3 {
            let instance = weighted_difference_instance(&cnf, k).unwrap();
            assert_eq!(
                difference_nonempty(&instance),
                has_satisfying_assignment_of_weight(&cnf, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn proposition_4_10_reduction_shape_and_correctness() {
        // Bounded-occurrence formula: every variable in ≤ 3 clauses.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[-2, 3]));
        cnf.add_clause(clause(&[-1, -3]));
        let instance = bounded_occurrence_difference_instance(&cnf);
        assert!(is_functional(&instance.gamma1));
        assert!(is_disjunction_free(&instance.gamma1));
        // Every disjunct of γ₂ is disjunction-free.
        if let Rgx::Union(parts) = &instance.gamma2 {
            for p in parts {
                assert!(is_disjunction_free(p));
            }
            // Each variable occurs in at most 3 disjuncts.
            for i in 1..=3 {
                let var: spanner_core::Variable = format!("x{i}").into();
                let count = parts.iter().filter(|p| p.vars().contains(&var)).count();
                assert!(count <= 3, "x{i} occurs in {count} disjuncts");
            }
        } else {
            panic!("γ₂ should be a union");
        }
        assert_eq!(difference_nonempty(&instance), is_satisfiable(&cnf));
    }

    #[test]
    fn proposition_4_10_unsatisfiable_instance() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[1, -2]));
        cnf.add_clause(clause(&[-1, 2]));
        cnf.add_clause(clause(&[-1, -2]));
        // Variables occur 4 times here, so this is outside the strict
        // Proposition 4.10 syntax, but the reduction is still sound.
        let instance = bounded_occurrence_difference_instance(&cnf);
        assert!(!difference_nonempty(&instance));
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(clause(&[1, -1]));
        cnf.add_clause(clause(&[2]));
        let instance = difference_hardness_instance(&cnf);
        assert_eq!(difference_nonempty(&instance), is_satisfiable(&cnf));
        let join = join_hardness_instance(&cnf);
        assert_eq!(join_nonempty(&join), is_satisfiable(&cnf));
    }
}
