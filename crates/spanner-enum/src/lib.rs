//! Polynomial-delay enumeration for sequential vset-automata.
//!
//! This crate provides the evaluation black box that the paper's upper
//! bounds compose with (Theorem 2.5): given a *sequential* vset-automaton
//! `A` and a document `d`, enumerate the mappings of `VAW(d)` one by one,
//! without duplicates, with delay polynomial in the input for any bounded
//! number of capture variables.
//!
//! * [`MatchGraph`] — the `(position, state)` graph of `A` on `d`: one
//!   backward-DFA state per position over the automaton's evaluation tables
//!   (`spanner_vset::tables`), giving co-accessibility, candidate viability
//!   and the forced-tail test;
//! * [`Enumerator`] — the lazy, duplicate-free, dead-end-free mapping stream;
//! * [`evaluate`], [`is_nonempty`], [`count_mappings`], [`evaluate_rgx`] —
//!   convenience entry points.
//!
//! # Example
//!
//! ```
//! use spanner_core::Document;
//! use spanner_enum::evaluate_rgx;
//! use spanner_rgx::parse;
//!
//! let alpha = parse(r".*{word:\l+}.*").unwrap();
//! let doc = Document::new("ab!c");
//! let words = evaluate_rgx(&alpha, &doc).unwrap();
//! // "ab", "a", "b", "c" — every lowercase substring.
//! assert_eq!(words.len(), 4);
//! ```

pub mod enumerate;
pub mod matchgraph;
pub mod opset;

pub use enumerate::{
    count_mappings, enumerate_compiled, evaluate, evaluate_compiled, evaluate_rgx, is_nonempty,
    Enumerator,
};
pub use matchgraph::MatchGraph;
pub use opset::{OpSet, MAX_VARS};
