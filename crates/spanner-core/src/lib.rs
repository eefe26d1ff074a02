//! Core data model for document spanners.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: documents, spans, variables, mappings, and materialized
//! relations of mappings together with the SPARQL-style relational operators
//! of Peterfreund, Freydenberger, Kimelfeld and Kröll,
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019), Section 2.
//!
//! The operators implemented here work on **materialized** sets of mappings.
//! They are deliberately simple and serve two purposes:
//!
//! 1. as the semantic oracle against which the automaton-level compilations
//!    in `spanner-vset`, `spanner-enum` and `spanner-algebra` are tested, and
//! 2. as the fallback evaluation path for small inputs.
//!
//! # Conventions
//!
//! * A document of length `n` has positions `1 ..= n + 1`; a span `[i, j⟩`
//!   satisfies `1 ≤ i ≤ j ≤ n + 1` and denotes the substring starting at the
//!   `i`-th symbol and ending just before the `j`-th, exactly as in the paper.
//! * Two empty spans `[i, i⟩` and `[j, j⟩` with `i ≠ j` are *different*
//!   objects even though they denote equal (empty) substrings.
//! * Mappings are partial: the schemaless semantics of Maturana et al. is the
//!   default throughout the workspace.

pub mod alphabet;
pub mod document;
pub mod error;
pub mod fxhash;
pub mod interner;
pub mod mapping;
pub mod relation;
pub mod span;
pub mod variable;

pub use alphabet::ByteClass;
pub use document::Document;
pub use error::{SpannerError, SpannerResult};
pub use fxhash::{FxHashMap, FxHashSet};
pub use interner::{Interner, VarId, VarTable};
pub use mapping::Mapping;
pub use relation::{MappingSet, MappingSetBuilder};
pub use span::Span;
pub use variable::{VarSet, Variable};
