//! The hardness reductions, executably (Theorems 3.1 and 4.1).
//!
//! Takes random 3-CNF formulas near the satisfiability threshold, builds the
//! paper's join and difference instances from them, and shows that spanner
//! nonemptiness tracks satisfiability — and that the instances blow up
//! quickly, which is the point of the NP-hardness results.
//!
//! Run with: `cargo run --release --example hardness_demo [max_vars]`

use document_spanners::paper::{
    difference_hardness_instance, dpll, join_hardness_instance, nfa_accepts, random_3cnf,
};
use document_spanners::prelude::*;
use std::time::Instant;

fn main() {
    let max_vars: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    println!("Theorem 3.1 — 3SAT ≤ nonemptiness of a join of sequential regex formulas");
    println!(
        "{:>5} {:>8} {:>6} {:>12} {:>12} {:>10}",
        "vars", "clauses", "SAT?", "spanner", "DPLL", "agree"
    );
    for n in 2..=max_vars.min(5) {
        let cnf = random_3cnf(n, 2.0, n as u64);
        let t = Instant::now();
        let sat = dpll(&cnf).is_some();
        let dpll_time = t.elapsed();

        let instance = join_hardness_instance(&cnf);
        let gamma1 = compile(&instance.gamma1);
        let gamma2 = compile(&instance.gamma2);
        let t = Instant::now();
        // Evaluate the join through the FPT compilation pipeline;
        // nonemptiness of the compiled automaton (checked on its Boolean
        // projection, since the instance has 2·n·m capture variables) is the
        // reduction's answer. The compilation is exponential in the shared
        // variables, so a state budget keeps the demo bounded.
        let limits = document_spanners::vset::JoinOptions {
            max_states: 500_000,
        };
        match document_spanners::vset::join_with_options(&gamma1, &gamma2, limits) {
            Ok(joined) => {
                let boolean = joined.project(&VarSet::new());
                let nonempty = nfa_accepts(&boolean, &instance.doc).unwrap();
                let spanner_time = t.elapsed();
                println!(
                    "{:>5} {:>8} {:>6} {:>12?} {:>12?} {:>10}",
                    n,
                    cnf.num_clauses(),
                    sat,
                    spanner_time,
                    dpll_time,
                    nonempty == sat
                );
                assert_eq!(nonempty, sat, "the reduction must preserve satisfiability");
            }
            Err(_) => {
                println!(
                    "{:>5} {:>8} {:>6} {:>12} {:>12?} {:>10}",
                    n,
                    cnf.num_clauses(),
                    sat,
                    "state budget exceeded",
                    dpll_time,
                    "-"
                );
                break;
            }
        }
    }

    println!("\nTheorem 4.1 — 3SAT ≤ nonemptiness of a difference of functional regex formulas");
    println!(
        "{:>5} {:>8} {:>6} {:>12} {:>10}",
        "vars", "clauses", "SAT?", "spanner", "agree"
    );
    for n in 2..=max_vars.clamp(2, 7) {
        let cnf = random_3cnf(n, 4.26, 100 + n as u64);
        let sat = dpll(&cnf).is_some();
        let instance = difference_hardness_instance(&cnf);
        let gamma1 = compile(&instance.gamma1);
        let gamma2 = compile(&instance.gamma2);
        let t = Instant::now();
        let diff = difference_product_eval(
            &gamma1,
            &gamma2,
            &instance.doc,
            DifferenceOptions::default(),
        )
        .unwrap();
        let spanner_time = t.elapsed();
        println!(
            "{:>5} {:>8} {:>6} {:>12?} {:>10}",
            n,
            cnf.num_clauses(),
            sat,
            spanner_time,
            diff.is_empty() != sat
        );
        assert_ne!(diff.is_empty(), sat);
    }
    println!("\nBoth reductions agree with DPLL on every instance — and the spanner-side");
    println!("running time grows much faster, as the NP-hardness results predict.");
}
