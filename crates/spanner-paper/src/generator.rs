//! Random CNF instance generators for the hardness experiments.

use crate::cnf::{Cnf, Literal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a uniform random k-CNF formula with `num_vars` variables and
/// `num_clauses` clauses (each clause has `width` distinct variables with
/// random signs).
pub fn random_kcnf(num_vars: usize, num_clauses: usize, width: usize, seed: u64) -> Cnf {
    assert!(num_vars >= 1, "at least one variable is required");
    let width = width.min(num_vars);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let mut vars = Vec::with_capacity(width);
        while vars.len() < width {
            let v = rng.gen_range(1..=num_vars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        cnf.add_clause(vars.into_iter().map(|v| Literal {
            var: v,
            positive: rng.gen_bool(0.5),
        }));
    }
    cnf
}

/// Generates a random 3-CNF formula at the given clause/variable ratio
/// (4.26 is near the satisfiability threshold).
pub fn random_3cnf(num_vars: usize, ratio: f64, seed: u64) -> Cnf {
    let num_clauses = (num_vars as f64 * ratio).round() as usize;
    random_kcnf(num_vars, num_clauses.max(1), 3, seed)
}

/// Generates a CNF formula in the fragment of Proposition 4.10 (clauses of
/// width 2 or 3, every variable occurring in at most 3 clauses).
pub fn bounded_occurrence_cnf(num_vars: usize, seed: u64) -> Cnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cnf = Cnf::new(num_vars);
    let mut occurrences = vec![0usize; num_vars + 1];
    // Greedily add clauses while variables with spare occurrences remain.
    loop {
        let available: Vec<usize> = (1..=num_vars).filter(|&v| occurrences[v] < 3).collect();
        if available.len() < 2 {
            break;
        }
        let width = if available.len() >= 3 && rng.gen_bool(0.7) {
            3
        } else {
            2
        };
        let mut vars = Vec::with_capacity(width);
        while vars.len() < width {
            let v = available[rng.gen_range(0..available.len())];
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for &v in &vars {
            occurrences[v] += 1;
        }
        cnf.add_clause(vars.into_iter().map(|v| Literal {
            var: v,
            positive: rng.gen_bool(0.5),
        }));
        // Stop once a reasonable density is reached.
        if cnf.num_clauses() >= num_vars {
            break;
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_kcnf_shape() {
        let cnf = random_kcnf(10, 30, 3, 7);
        assert_eq!(cnf.num_vars, 10);
        assert_eq!(cnf.num_clauses(), 30);
        assert_eq!(cnf.max_clause_width(), 3);
        // Deterministic for a fixed seed.
        assert_eq!(cnf, random_kcnf(10, 30, 3, 7));
        assert_ne!(cnf, random_kcnf(10, 30, 3, 8));
    }

    #[test]
    fn bounded_occurrence_respects_the_limit() {
        for seed in 0..5 {
            let cnf = bounded_occurrence_cnf(15, seed);
            let occ = cnf.occurrence_counts();
            assert!(occ.iter().all(|&c| c <= 3), "seed {seed}");
            assert!(cnf.max_clause_width() <= 3);
            assert!(cnf.num_clauses() > 0);
        }
    }

    #[test]
    fn ratio_based_generator() {
        let cnf = random_3cnf(20, 4.26, 1);
        assert_eq!(cnf.num_clauses(), (20.0_f64 * 4.26).round() as usize);
    }
}
