//! Regex formulas: regular expressions with capture variables.
//!
//! This crate implements the `RGX` representation language of Section 2.2 of
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019): the abstract syntax, a concrete text syntax with a parser,
//! and the syntactic classes studied in the paper (functional, sequential,
//! disjunctive functional, synchronized, disjunction-free). Compiling a
//! formula is `spanner-vset`'s job; the schemaless semantics `[α](d)` as a
//! reference evaluator and the sequential → disjunctive-functional rewriting
//! of Proposition 3.9 are reference code in `spanner-paper`.
//!
//! # Example
//!
//! ```
//! use spanner_rgx::{is_functional, is_sequential, parse};
//!
//! // Extract "key=value" pairs: the schemaless spanner binds `val` only
//! // when a value is present, so the formula is sequential but not
//! // functional.
//! let alpha = parse(r".* {key:\w+}(={val:\w+})? .*").unwrap();
//! assert_eq!(alpha.vars().len(), 2);
//! assert!(is_sequential(&alpha));
//! assert!(!is_functional(&alpha));
//! ```

pub mod ast;
pub mod classify;
pub mod parser;

pub use ast::Rgx;
pub use classify::{
    is_disjunction_free, is_disjunctive_functional, is_functional, is_sequential,
    is_synchronized_for, RgxClass,
};
pub use parser::parse;
