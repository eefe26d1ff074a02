//! Relational algebra over document spanners.
//!
//! This crate is the top of the stack: it combines the representations
//! (`spanner-rgx`, `spanner-vset`) and the polynomial-delay enumerator
//! (`spanner-enum`) into the algebraic query facilities studied in
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019):
//!
//! * [`spanner`] — the [`Spanner`](trait@spanner::Spanner) trait black-box
//!   extractors implement to sit inside RA trees (Corollary 5.3), lowered to
//!   the executor's [`PhysOp::BlackBoxScan`];
//! * [`ratree`] — RA trees, instantiations and the extraction-complexity
//!   parameter of Theorem 5.2;
//! * [`plan`] — the logical plan optimizer (projection pushdown, union
//!   flattening with canonical operand order, greedy join reordering) and
//!   compiled plans ([`CompiledPlan`]) whose static subtrees are compiled
//!   once and shared across documents and threads;
//! * [`exec`] — the physical operator executor ([`PhysOp`] /
//!   [`PhysicalPlan`]): the single Volcano-style pipeline every evaluation
//!   path (`evaluate_ra`, `CompiledPlan`, the corpus engine, SpannerQL)
//!   runs through, with both materializing and pull-iterator operators.
//!
//! This crate is the planner and the executor — what serves. The paper's
//! own constructions for the difference operator (the filter baseline,
//! Lemma 4.2, Theorem 4.8), ad-hoc compilation of relations, the whole-tree
//! recipe `compile_ra`, the materialized oracle and the demo black boxes of
//! the experiments (a tokenizer, a sentiment classifier) are the *reference*
//! the executor is held to and live in `spanner-paper`, which depends on
//! this crate and not the other way round.
//!
//! # Example: the paper's Example 2.4
//!
//! ```
//! use spanner_algebra::{evaluate_ra, Instantiation, RaOptions, RaTree};
//! use spanner_core::Document;
//! use spanner_rgx::parse;
//!
//! // Extract (name, mail) pairs ...
//! let info = parse(r".*{name:\u\l+} {mail:\l+@\l+\.\l+}.*").unwrap();
//! // ... and subtract the pairs whose mail address ends in ".uk".
//! let uk = parse(r".*{mail:\l+@\l+\.uk}.*").unwrap();
//! let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
//! let inst = Instantiation::new().with(0, info).with(1, uk);
//! let doc = Document::new("Ann ann@edu.uk Bob bob@edu.ru ");
//! let kept = evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap();
//! assert!(!kept.is_empty());
//! assert!(kept
//!     .iter()
//!     .all(|m| !doc.slice(m.get(&"mail".into()).unwrap()).ends_with(".uk")));
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod plan;
pub mod ratree;
pub mod spanner;

pub use exec::{ExecTrace, NoTrace, Observer, OpStream, PhysOp, PhysicalPlan};
pub use plan::{optimize_ra, CompiledPlan, Tier, BUILD_AT_DOCS};
pub use ratree::{
    evaluate_ra, figure_2_tree, shared_variable_bound, tree_vars, Atom, Instantiation, LeafId,
    RaOptions, RaTree,
};
pub use spanner::{Spanner, SpannerRef};
pub use spanner_vset::PreScan;
