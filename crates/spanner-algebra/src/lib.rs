//! Relational algebra over document spanners.
//!
//! This crate is the top of the stack: it combines the representations
//! (`spanner-rgx`, `spanner-vset`) and the polynomial-delay enumerator
//! (`spanner-enum`) into the algebraic query facilities studied in
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019):
//!
//! * [`spanner`] — the [`Spanner`](trait@spanner::Spanner) trait and wrappers for
//!   regex formulas, vset-automata, and materialized relations;
//! * [`blackbox`] — tractable, degree-bounded black-box extractors
//!   (tokenizer, dictionary, string equality, sentiment) usable inside RA
//!   trees (Corollary 5.3);
//! * [`adhoc`] — compilation of materialized relations into ad-hoc
//!   (document-specific) automata;
//! * [`difference`] — the difference operator: the naive filter baseline, the
//!   Lemma 4.2 marker construction, and the Theorem 4.8-style product
//!   construction;
//! * [`ratree`] — RA trees, instantiations, the extraction-complexity
//!   parameter of Theorem 5.2, and the ad-hoc compilation pipeline;
//! * [`plan`] — the logical plan optimizer (projection pushdown, union
//!   flattening with canonical operand order, greedy join reordering) and
//!   compiled plans ([`CompiledPlan`]) whose static subtrees are compiled
//!   once and shared across documents and threads;
//! * [`exec`] — the physical operator executor ([`PhysOp`] /
//!   [`PhysicalPlan`]): the single Volcano-style pipeline every evaluation
//!   path (`evaluate_ra`, `CompiledPlan`, the corpus engine, SpannerQL)
//!   runs through, with both materializing and pull-iterator operators.
//!
//! # Example: the paper's Example 2.4
//!
//! ```
//! use spanner_algebra::difference::{difference_product_eval, DifferenceOptions};
//! use spanner_core::Document;
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

#![warn(missing_docs)]

pub mod adhoc;
pub mod blackbox;
pub mod difference;
pub mod exec;
pub mod plan;
pub mod ratree;
pub mod spanner;

pub use adhoc::mapping_set_to_vsa;
pub use blackbox::{DictionarySpanner, SentimentSpanner, TokenEqualitySpanner, TokenizerSpanner};
pub use difference::{
    difference_adhoc, difference_adhoc_eval, difference_filter, difference_product,
    difference_product_eval, DifferenceOptions,
};
pub use exec::{ExecTrace, NoTrace, Observer, OpStream, PhysOp, PhysicalPlan};
pub use plan::{optimize_ra, optimize_ra_with_stats, CompiledPlan, PlanStats};
pub use ratree::{
    compile_ra, evaluate_ra, evaluate_ra_materialized, figure_2_tree, shared_variable_bound,
    tree_vars, Atom, Instantiation, LeafId, RaOptions, RaTree,
};
pub use spanner::{MaterializedSpanner, RgxSpanner, Spanner, SpannerRef, VsaSpanner};
pub use spanner_vset::PreScan;
