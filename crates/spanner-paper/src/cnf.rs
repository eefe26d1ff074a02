//! CNF formulas, random generation, and a DPLL satisfiability solver.
//!
//! The hardness results of the paper (Theorems 3.1, 4.1, 4.4 and
//! Proposition 4.10) are reductions from (restricted) CNF satisfiability.
//! This module provides the source side of those reductions: a CNF
//! representation, random instance generators, and a small
//! DPLL solver used to cross-check that the reductions preserve
//! satisfiability.

use std::fmt;

/// A propositional literal: a 1-based variable index with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// 1-based variable index.
    pub var: usize,
    /// `true` for a positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Literal {
    /// A positive literal.
    pub fn pos(var: usize) -> Literal {
        Literal {
            var,
            positive: true,
        }
    }

    /// A negative literal.
    pub fn neg(var: usize) -> Literal {
        Literal {
            var,
            positive: false,
        }
    }

    /// The literal's negation.
    pub fn negated(self) -> Literal {
        Literal {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Whether the literal is satisfied by the given value of its variable.
    pub fn satisfied_by(self, value: bool) -> bool {
        self.positive == value
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var)
        } else {
            write!(f, "¬x{}", self.var)
        }
    }
}

/// A CNF formula: a conjunction of clauses, each a disjunction of literals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    /// Number of variables (indices `1..=num_vars`).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Literal>>,
}

impl Cnf {
    /// Creates a formula over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Cnf {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Adds a clause.
    pub fn add_clause(&mut self, literals: impl IntoIterator<Item = Literal>) {
        let clause: Vec<Literal> = literals.into_iter().collect();
        for l in &clause {
            assert!(
                l.var >= 1 && l.var <= self.num_vars,
                "literal variable out of range"
            );
        }
        self.clauses.push(clause);
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Whether an assignment (indexed `1..=num_vars`; index 0 unused)
    /// satisfies the formula.
    pub fn is_satisfied_by(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|l| l.satisfied_by(assignment[l.var])))
    }

    /// Whether every clause has at most `k` literals.
    pub fn max_clause_width(&self) -> usize {
        self.clauses.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The number of clauses each variable occurs in (index 0 unused).
    pub fn occurrence_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_vars + 1];
        for clause in &self.clauses {
            let mut seen = vec![false; self.num_vars + 1];
            for l in clause {
                if !seen[l.var] {
                    seen[l.var] = true;
                    counts[l.var] += 1;
                }
            }
        }
        counts
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "(")?;
            for (j, l) in clause.iter().enumerate() {
                if j > 0 {
                    write!(f, " ∨ ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A DPLL satisfiability solver with unit propagation.
///
/// Intended as the *baseline oracle* for the reduction experiments, not as a
/// competitive SAT solver.
pub fn dpll(cnf: &Cnf) -> Option<Vec<bool>> {
    let mut assignment: Vec<Option<bool>> = vec![None; cnf.num_vars + 1];
    if solve(cnf, &mut assignment) {
        Some(
            assignment
                .iter()
                .map(|v| v.unwrap_or(false))
                .collect::<Vec<bool>>(),
        )
    } else {
        None
    }
}

/// Whether the formula is satisfiable.
pub fn is_satisfiable(cnf: &Cnf) -> bool {
    dpll(cnf).is_some()
}

/// Whether the formula has a satisfying assignment with exactly `weight`
/// variables set to true (the W\[1\]-hard problem behind Theorem 4.4).
/// Exhaustive over subsets of the given weight — exponential, test-scale only.
pub fn has_satisfying_assignment_of_weight(cnf: &Cnf, weight: usize) -> bool {
    fn rec(cnf: &Cnf, assignment: &mut Vec<bool>, next_var: usize, remaining: usize) -> bool {
        if remaining == 0 {
            return cnf.is_satisfied_by(assignment);
        }
        if next_var > cnf.num_vars || cnf.num_vars - next_var + 1 < remaining {
            return false;
        }
        assignment[next_var] = true;
        if rec(cnf, assignment, next_var + 1, remaining - 1) {
            return true;
        }
        assignment[next_var] = false;
        rec(cnf, assignment, next_var + 1, remaining)
    }
    let mut assignment = vec![false; cnf.num_vars + 1];
    rec(cnf, &mut assignment, 1, weight)
}

fn solve(cnf: &Cnf, assignment: &mut Vec<Option<bool>>) -> bool {
    // Unit propagation.
    let mut changed = true;
    let mut trail: Vec<usize> = Vec::new();
    while changed {
        changed = false;
        for clause in &cnf.clauses {
            let mut unassigned: Option<Literal> = None;
            let mut satisfied = false;
            let mut unassigned_count = 0;
            for l in clause {
                match assignment[l.var] {
                    Some(v) if l.satisfied_by(v) => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        unassigned_count += 1;
                        unassigned = Some(*l);
                    }
                }
            }
            if satisfied {
                continue;
            }
            match unassigned_count {
                0 => {
                    // Conflict: undo the propagation trail.
                    for &v in &trail {
                        assignment[v] = None;
                    }
                    return false;
                }
                1 => {
                    let l = unassigned.unwrap();
                    assignment[l.var] = Some(l.positive);
                    trail.push(l.var);
                    changed = true;
                }
                _ => {}
            }
        }
    }
    // Pick a branching variable.
    let branch = (1..=cnf.num_vars).find(|&v| assignment[v].is_none());
    let Some(var) = branch else {
        let ok = cnf.is_satisfied_by(
            &assignment
                .iter()
                .map(|v| v.unwrap_or(false))
                .collect::<Vec<bool>>(),
        );
        if !ok {
            for &v in &trail {
                assignment[v] = None;
            }
        }
        return ok;
    };
    for value in [true, false] {
        assignment[var] = Some(value);
        if solve(cnf, assignment) {
            return true;
        }
        assignment[var] = None;
    }
    for &v in &trail {
        assignment[v] = None;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(lits: &[i64]) -> Vec<Literal> {
        lits.iter()
            .map(|&v| Literal {
                var: v.unsigned_abs() as usize,
                positive: v > 0,
            })
            .collect()
    }

    #[test]
    fn simple_sat_and_unsat() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (¬x2 ∨ x1) — satisfiable by x1=x2=1.
        let mut sat = Cnf::new(2);
        sat.add_clause(clause(&[1, 2]));
        sat.add_clause(clause(&[-1, 2]));
        sat.add_clause(clause(&[-2, 1]));
        let model = dpll(&sat).expect("satisfiable");
        assert!(sat.is_satisfied_by(&model));

        // x1 ∧ ¬x1 — unsatisfiable.
        let mut unsat = Cnf::new(1);
        unsat.add_clause(clause(&[1]));
        unsat.add_clause(clause(&[-1]));
        assert!(!is_satisfiable(&unsat));
    }

    #[test]
    fn classic_unsat_pigeonhole_like() {
        // All 2^2 sign combinations over two variables — unsatisfiable.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[1, -2]));
        cnf.add_clause(clause(&[-1, 2]));
        cnf.add_clause(clause(&[-1, -2]));
        assert!(!is_satisfiable(&cnf));
    }

    #[test]
    fn empty_formula_and_empty_clause() {
        let empty = Cnf::new(3);
        assert!(is_satisfiable(&empty));
        let mut with_empty_clause = Cnf::new(1);
        with_empty_clause.add_clause([]);
        assert!(!is_satisfiable(&with_empty_clause));
    }

    #[test]
    fn weight_bounded_satisfiability() {
        // (x1 ∨ x2) ∧ (x3 ∨ x4): needs at least 2 true variables.
        let mut cnf = Cnf::new(4);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[3, 4]));
        assert!(!has_satisfying_assignment_of_weight(&cnf, 0));
        assert!(!has_satisfying_assignment_of_weight(&cnf, 1));
        assert!(has_satisfying_assignment_of_weight(&cnf, 2));
        assert!(has_satisfying_assignment_of_weight(&cnf, 3));
    }

    #[test]
    fn occurrence_counts_and_width() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2, 3]));
        cnf.add_clause(clause(&[1, -1, 2]));
        assert_eq!(cnf.max_clause_width(), 3);
        let occ = cnf.occurrence_counts();
        assert_eq!(occ[1], 2);
        assert_eq!(occ[2], 2);
        assert_eq!(occ[3], 1);
    }

    #[test]
    fn exhaustive_agreement_with_brute_force_on_small_formulas() {
        // Check DPLL against brute force on every 3-var formula made of a
        // fixed clause pool.
        let pool = [
            clause(&[1, 2, 3]),
            clause(&[-1, -2]),
            clause(&[-3, 1]),
            clause(&[2, -3]),
            clause(&[-1, 3]),
        ];
        for mask in 0u32..(1 << pool.len()) {
            let mut cnf = Cnf::new(3);
            for (i, c) in pool.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    cnf.add_clause(c.clone());
                }
            }
            let brute = (0u32..8).any(|bits| {
                let assignment = vec![false, bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                cnf.is_satisfied_by(&assignment)
            });
            assert_eq!(is_satisfiable(&cnf), brute, "mask {mask}");
        }
    }
}
