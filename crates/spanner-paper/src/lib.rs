//! The paper's constructions, as the reproduction's reference semantics.
//!
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019) splits evaluation into static compilation for positive RA and
//! *ad-hoc*, per-document compilation for difference and black boxes
//! (Lemma 4.2, Theorems 4.8 and 5.2). In this workspace that is a split
//! between what serves — the planner and executor of `spanner-algebra`, over
//! the compiled automata of `spanner-vset` — and what the differential
//! oracles and experiments E1–E11 hold it to. This crate is the second
//! half. Nothing a daemon links depends on it: `cargo tree -p spanner-serve
//! -e normal` does not list it; `spanner-bench`, the root facade, the
//! examples and the test suites do.
//!
//! * [`mod@interpret`] — the brute-force configuration-space evaluator of
//!   vset-automata, the oracle every compiled path is diffed against;
//! * [`eval`] — [`reference_eval`], the schemaless semantics `[α](d)` of
//!   regex formulas (Section 2.2) by structural recursion, the oracle of the
//!   regex side;
//! * [`rewrite`] — the disjunctive-functional pipeline: the sequential →
//!   disjunctive-functional rewriting of Proposition 3.9 and the pairwise
//!   join of Proposition 3.12;
//! * [`analysis`] — the variable-configuration classifiers of Sections 3.1
//!   and 4.2 (semi-functional, synchronized, the extended configuration);
//! * [`adhoc`] — compilation of materialized relations into ad-hoc
//!   (document-specific) automata;
//! * [`difference`] — the difference operator three ways: the naive filter
//!   baseline, the Lemma 4.2 marker construction, and the Theorem 4.8-style
//!   product construction;
//! * [`ratree`] — [`compile_ra`], the ad-hoc recipe of Theorem 5.2 /
//!   Corollary 5.3 taken literally, and [`evaluate_ra_materialized`], the
//!   node-by-node semantics;
//! * [`blackbox`] — the demo black boxes of Corollary 5.3 (a tokenizer and
//!   the sentiment classifier of Example 5.4) that the experiments and
//!   examples put into RA trees;
//! * [`boolean`] — NFA determinization / complementation, demonstrating why
//!   *static* compilation of the difference must blow up (Section 4,
//!   experiment E10);
//! * [`cnf`], [`generator`], [`reductions`] — the lower bounds made
//!   executable: CNF formulas with a DPLL solver, random and
//!   bounded-occurrence generators, and the constructions of Theorem 3.1
//!   (join of sequential regex formulas), Theorem 4.1 (difference of
//!   functional regex formulas), Theorem 4.4 (W\[1\]-hardness in the number
//!   of shared variables) and Proposition 4.10 (bounded-occurrence
//!   disjunction-free difference). Every reduction is machine-checked in
//!   the test suite: on exhaustive small and random formulas, spanner
//!   nonemptiness coincides with (weight-bounded) satisfiability as decided
//!   by DPLL.
//!
//! The engine crates' own unit cases that need one of these oracles
//! (`spanner-rgx`'s `parser`; `spanner-vset`'s `join`, `scan`, `thompson`,
//! `semifunctional`; `spanner-enum`'s `enumerate`; `spanner-algebra`'s
//! `plan`, `exec`, `ratree`) are tests of this crate, under the module paths
//! they had: a dev-dependency from those crates back to this one would hand
//! their unit tests a second copy of their own types.
//!
//! # Example: the paper's Example 2.4
//!
//! ```
//! use spanner_core::Document;
//! use spanner_paper::{difference_product_eval, DifferenceOptions};
//! use spanner_rgx::parse;
//! use spanner_vset::compile;
//!
//! // Extract (name, mail) pairs ...
//! let info = compile(&parse(r".*{name:\u\l+} {mail:\l+@\l+\.\l+}.*").unwrap());
//! // ... and subtract the pairs whose mail address ends in ".uk".
//! let uk = compile(&parse(r".*{mail:\l+@\l+\.uk}.*").unwrap());
//! let doc = Document::new("Ann ann@edu.uk Bob bob@edu.ru ");
//! let kept = difference_product_eval(&info, &uk, &doc, DifferenceOptions::default()).unwrap();
//! assert!(!kept.is_empty());
//! assert!(kept
//!     .iter()
//!     .all(|m| !doc.slice(m.get(&"mail".into()).unwrap()).ends_with(".uk")));
//! ```

pub mod adhoc;
pub mod analysis;
pub mod blackbox;
pub mod boolean;
pub mod cnf;
pub mod difference;
pub mod eval;
pub mod generator;
pub mod interpret;
pub mod ratree;
pub mod reductions;
pub mod rewrite;

pub use adhoc::mapping_set_to_vsa;
pub use analysis::{is_semi_functional, is_synchronized};
pub use blackbox::{SentimentSpanner, TokenizerSpanner};
pub use boolean::{determinize, nfa_accepts, static_boolean_difference, Dfa};
pub use cnf::{dpll, has_satisfying_assignment_of_weight, is_satisfiable, Cnf, Literal};
pub use difference::{
    difference_adhoc, difference_adhoc_eval, difference_filter, difference_product,
    difference_product_eval, DifferenceOptions,
};
pub use eval::reference_eval;
pub use generator::{bounded_occurrence_cnf, random_3cnf, random_kcnf};
pub use interpret::interpret;
pub use ratree::{compile_ra, evaluate_ra_materialized};
pub use reductions::{
    bounded_occurrence_difference_instance, difference_hardness_instance, join_hardness_instance,
    weighted_difference_instance, DifferenceInstance, JoinInstance,
};
pub use rewrite::{assemble_disjunction, join_disjunctive_functional, to_disjunctive_functional};

// The unit cases of `spanner-rgx` (parser), `spanner-vset` (join, scan,
// semifunctional, thompson), `spanner-enum` (enumerate) and `spanner-algebra`
// (exec, plan; `ratree`'s sit in `ratree::tests`) whose oracle lives here,
// under the module paths they had there.
#[cfg(test)]
mod enumerate {
    mod tests;
}
#[cfg(test)]
mod exec {
    mod tests;
}
#[cfg(test)]
mod join {
    mod tests;
}
#[cfg(test)]
mod parser {
    mod tests;
}
#[cfg(test)]
mod plan {
    mod tests;
}
#[cfg(test)]
mod scan {
    mod tests;
}
#[cfg(test)]
mod semifunctional {
    mod tests;
}
#[cfg(test)]
mod thompson {
    mod tests;
}
