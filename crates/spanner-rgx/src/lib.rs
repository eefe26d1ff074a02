//! Regex formulas: regular expressions with capture variables.
//!
//! This crate implements the `RGX` representation language of Section 2.2 of
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019): the abstract syntax, a concrete text syntax with a parser,
//! the syntactic classes studied in the paper (functional, sequential,
//! disjunctive functional, synchronized, disjunction-free), the schemaless
//! evaluation semantics `[α](d)` / `VαW(d)` as a reference evaluator, and the
//! sequential → disjunctive-functional rewriting of Proposition 3.9.
//!
//! The reference evaluator is intentionally naive (worst-case exponential):
//! its job is to be *obviously correct* so that the compiled evaluation
//! pipelines in `spanner-vset`, `spanner-enum` and `spanner-algebra` can be
//! validated against it.
//!
//! # Example
//!
//! ```
//! use spanner_core::Document;
//! use spanner_rgx::{parse, reference_eval};
//!
//! // Extract "key=value" pairs: the schemaless spanner binds `val` only
//! // when a value is present.
//! let alpha = parse(r".* {key:\w+}(={val:\w+})? .*").unwrap();
//! let doc = Document::new(" color=red  verbose ");
//! let result = reference_eval(&alpha, &doc);
//! assert!(result.iter().any(|m| doc.slice(m.get(&"key".into()).unwrap()) == "verbose"
//!     && m.get(&"val".into()).is_none()));
//! assert!(result.iter().any(|m| m.get(&"val".into()).map(|s| doc.slice(s)).as_deref() == Some("red")));
//! ```

pub mod ast;
pub mod classify;
pub mod eval;
pub mod parser;
pub mod rewrite;

pub use ast::Rgx;
pub use classify::{
    is_disjunction_free, is_disjunctive_functional, is_functional, is_sequential,
    is_synchronized_for, RgxClass,
};
pub use eval::{reference_eval, reference_eval_spans};
pub use parser::parse;
pub use rewrite::to_disjunctive_functional;
