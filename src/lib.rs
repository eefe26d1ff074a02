//! # document-spanners
//!
//! A from-scratch Rust implementation of the framework of
//! Peterfreund, Freydenberger, Kimelfeld and Kröll,
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019): schemaless document spanners represented by regex formulas
//! and vset-automata, polynomial-delay evaluation, fixed-parameter-tractable
//! join compilation, ad-hoc (document-dependent) compilation of the
//! difference operator, RA trees with black-box extractors, and executable
//! versions of the paper's hardness reductions.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `spanner-core` | documents, spans, variables, mappings, materialized algebra |
//! | [`rgx`] | `spanner-rgx` | regex formulas: parser, classification |
//! | [`vset`] | `spanner-vset` | vset-automata: analyses, semi-functional transform, FPT join, compiled evaluation |
//! | [`enumeration`] | `spanner-enum` | polynomial-delay enumeration (Theorem 2.5) |
//! | [`algebra`] | `spanner-algebra` | RA trees, the `Spanner` trait, the planner and the executor |
//! | [`obs`] | `spanner-obs` | metrics registry, Prometheus exposition, execution traces |
//! | [`paper`] | `spanner-paper` | reference semantics: interpreter, `reference_eval`, Propositions 3.9 / 3.12, configuration classifiers, difference constructions, `compile_ra`, demo black boxes, static complement, SAT reductions |
//! | [`workloads`] | `spanner-workloads` | synthetic corpora, extractor library, random spanners |
//! | [`corpus`] | `spanner-corpus` | parallel multi-document evaluation of compiled plans |
//! | [`ql`] | `spanner-ql` | SpannerQL: the declarative query-language front end |
//! | [`store`] | `spanner-store` | persistent trigram-indexed corpus store |
//! | [`serve`] | `spanner-serve` | long-running TCP query daemon with a prepared-query cache |
//!
//! # Quickstart
//!
//! ```
//! use document_spanners::prelude::*;
//!
//! // The paper's running example: extract student info (first name, last
//! // name, optional phone, mail) from the Figure 1 document, then filter out
//! // the UK students with the difference operator (Example 2.4).
//! let doc = document_spanners::workloads::students_figure_1();
//! let info = compile(&document_spanners::workloads::student_info_extractor().unwrap());
//! let uk = compile(&document_spanners::workloads::uk_mail_extractor().unwrap());
//!
//! let kept = difference_product_eval(&info, &uk, &doc, DifferenceOptions::default()).unwrap();
//! assert!(!kept.is_empty());
//! for mapping in kept.iter() {
//!     let mail = mapping.get(&"mail".into()).unwrap();
//!     assert!(!doc.slice(mail).ends_with(".uk"));
//! }
//! ```
//!
//! `difference_product_eval` is the paper's construction (Theorem 4.8),
//! built per document: the *reference* the oracles hold the system to
//! ([`paper`] — the one crate here that no daemon links). What serves — the CLI's `diff` and `query`, the corpus engine, the
//! daemon — is the executor:
//! `PreparedQuery::prepare("/α1/ minus /α2/")?.evaluate(&doc)`, or
//! `evaluate_ra` over `RaTree::difference(RaTree::leaf(0), RaTree::leaf(1))`,
//! compiled once and milliseconds where the construction takes seconds.

pub use spanner_algebra as algebra;
pub use spanner_core as core;
pub use spanner_corpus as corpus;
pub use spanner_enum as enumeration;
pub use spanner_obs as obs;
pub use spanner_paper as paper;
pub use spanner_ql as ql;
pub use spanner_rgx as rgx;
pub use spanner_serve as serve;
pub use spanner_store as store;
pub use spanner_vset as vset;
pub use spanner_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use spanner_algebra::{
        evaluate_ra, figure_2_tree, optimize_ra, Atom, CompiledPlan, Instantiation, RaOptions,
        RaTree, Spanner,
    };
    pub use spanner_core::{Document, Mapping, MappingSet, Span, SpannerError, VarSet, Variable};
    pub use spanner_corpus::{
        split_lines, CorpusEngine, CorpusMatches, CorpusResult, CorpusStats, DeltaOutcome,
        QueryView, WorkerPool,
    };
    pub use spanner_enum::{count_mappings, evaluate, evaluate_rgx, is_nonempty, Enumerator};
    pub use spanner_paper::{
        difference_adhoc_eval, difference_filter, difference_product_eval, reference_eval,
        DifferenceOptions, SentimentSpanner, TokenizerSpanner,
    };
    pub use spanner_ql::{parse_program, PreparedQuery, QlError};
    pub use spanner_rgx::{parse, Rgx};
    pub use spanner_serve::{Client, QueryCache, ServeOptions, Server};
    pub use spanner_store::{
        fnv1a64, Mutation, Store, StoreError, StoreQueryOutcome, ViewQueryOutcome,
    };
    pub use spanner_vset::{compile, join, Vsa};
}
