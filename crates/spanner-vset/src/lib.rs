//! Vset-automata: the automaton representation of document spanners.
//!
//! This crate implements the variable-set automata (VAs) of Section 2.3 of
//! *Complexity Bounds for Relational Algebra over Document Spanners*
//! (PODS 2019) together with the static analyses and compilations the paper
//! builds on them:
//!
//! * [`automaton`] — the automaton representation, projection, union,
//!   trimming;
//! * [`analysis`] — sequentiality, functionality, and the per-state
//!   variable statuses of Section 3.1;
//! * [`semifunctional`] — the semi-functional transformation of Lemma 3.6;
//! * [`mod@join`] — static compilation of the natural join, FPT in the number of
//!   shared variables (Lemma 3.2 / 3.8);
//! * [`thompson`] — linear-time compilation of regex formulas into VAs
//!   (preserving sequentiality, functionality and synchronization,
//!   Lemma 4.6);
//! * [`compiled`] — the compile-once evaluation engine: linear edge rows
//!   (no stored closures), byte-class dispatch tables, dense variable
//!   indices, and bitset state sets ([`StateSet`]);
//! * [`tables`] — the per-automaton evaluation tables (a backward DFA over
//!   useful / operations-ahead sets, forward op-closure and step tables)
//!   that turn matching a document into table walks.
//!
//! The production evaluation path (polynomial-delay enumeration) lives in
//! `spanner-enum`; RA trees, the planner and the executor live in
//! `spanner-algebra`. The brute-force interpreter these constructions are
//! validated against, the static complement of experiment E10, the
//! disjunctive-functional join of Proposition 3.12 and the semi-functional /
//! synchronized classifiers are reference code and live in `spanner-paper`
//! (which is why the oracle cases of `join`, `scan`, `thompson` and
//! `semifunctional` are that crate's tests: it depends on this one, not the
//! other way round).

pub mod analysis;
pub mod automaton;
pub mod compiled;
pub mod join;
pub mod scan;
pub mod semifunctional;
pub mod tables;
pub mod thompson;

pub use analysis::{is_functional, is_sequential, VarStatus};
pub use automaton::{Label, StateId, Transition, Vsa};
pub use compiled::{CompiledVsa, StateSet, VarOp};
pub use join::{join, join_with_options, JoinOptions};
pub use scan::{PreScan, ScanPlan};
pub use semifunctional::{make_semi_functional, SemiFunctionalVsa};
pub use tables::{BackId, EvalTableStats, EvalTables, SetId, Stretch, EVAL_TABLE_BUDGET};
pub use thompson::compile;
