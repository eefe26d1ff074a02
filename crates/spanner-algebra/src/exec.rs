//! The physical operator executor: one Volcano-style pipeline behind every
//! evaluation path.
//!
//! Every consumer — `evaluate_ra`, `CompiledPlan::evaluate` / `stream`, the
//! corpus engine, `PreparedQuery` — evaluates through this one layer:
//!
//! * [`PhysOp`] is the physical operator tree. Leaves are
//!   [`PhysOp::CompiledScan`] (a static RA subtree compiled **once** into a
//!   shared [`CompiledVsa`], enumerated with polynomial delay — Theorem 5.2)
//!   and [`PhysOp::BlackBoxScan`] (a Corollary 5.3 black box). Inner nodes
//!   are relational operators over materialized relations:
//!   [`PhysOp::HashJoin`], [`PhysOp::UnionAll`] (with set-semantics dedup),
//!   [`PhysOp::Difference`] (an anti-join against one hashed compatibility
//!   index over a materialized probe side — no per-document `Vsa`
//!   recomposition), and [`PhysOp::Project`].
//! * Lowering happens in
//!   [`CompiledPlan::compile`](crate::CompiledPlan::compile), and once more
//!   where the plan builds a join product it deferred; the operators
//!   share their automata through `Arc`, so the [`PhysicalPlan`] handle
//!   ([`CompiledPlan::physical`](crate::CompiledPlan::physical)) is cheap
//!   to clone.
//! * [`PhysOp::execute`] is the **one** materializing recursion (bulk
//!   relational evaluation — hash join, hash anti-join, builder-based
//!   union). It is generic over an [`Observer`]: instantiated with
//!   [`NoTrace`] it is the serving path, with [`ExecTrace`] it is
//!   `explain --analyze` — the same `match`, monomorphized twice, so the two
//!   cannot drift and the untraced one pays nothing (DESIGN.md §10).
//! * [`OpStream`] is the pull-iterator form, lazy only where laziness
//!   exists (a compiled scan, a difference's input side); every other
//!   operator is `execute`d once and drained, so no relational operator has
//!   a second implementation.
//!
//! The executor evaluates difference and black-box composition at the
//! *relation* level (the `spanner-core` operators, which are the paper's
//! semantics by definition), while static subtrees keep the paper's
//! automaton-level compilation (union / FPT join product / automaton
//! projection). The ad-hoc constructions of Section 4 (Lemma 4.2, Theorem
//! 4.8) and the whole-tree recipe `compile_ra` live in `spanner-paper`, the
//! differential baseline; no plan evaluates through them and this crate
//! does not depend on them.

use crate::spanner::SpannerRef;
use spanner_core::{
    Document, FxHashSet, Mapping, MappingSet, SpannerError, SpannerResult, VarId, VarSet,
};
use spanner_enum::{enumerate_compiled, Enumerator};
use spanner_vset::scan::{contains_factor, dedup_subsumed};
use spanner_vset::{CompiledVsa, PreScan};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Per-operator execution trace (re-exported from `spanner-obs`): one
/// [`TraceNode`](spanner_obs::TraceNode) per physical operator — the
/// recording [`Observer`].
pub use spanner_obs::TraceNode as ExecTrace;

/// What [`PhysOp::execute`] reports to while it runs: one value per
/// operator evaluation, nested like the operator tree. There is one
/// executor recursion and it is generic over this trait; the two
/// implementations are [`NoTrace`], which records nothing and compiles to
/// the bare recursion, and [`ExecTrace`], which is `explain --analyze`.
/// Multi-document engines fold per-document observations into one per
/// worker with [`Observer::merge`], starting from [`Observer::skeleton`].
/// The reports default to doing nothing; a recording observer overrides
/// every one of them.
pub trait Observer: Sized {
    /// Whether anything is recorded — a constant, so a measurement that is
    /// itself work (reading a table size or a walk counter) is compiled
    /// out of the unobserved executor rather than branched around.
    const RECORDS: bool;

    /// Observes one evaluation of `op`: opens its record, runs `eval`
    /// against it, and closes it (rows produced, inclusive wall time). The
    /// record is returned alongside the result — also on error, so a
    /// `LimitExceeded` trip stays visible.
    fn observe(
        op: &PhysOp,
        eval: impl FnOnce(&mut Self) -> SpannerResult<MappingSet>,
    ) -> (SpannerResult<MappingSet>, Self);

    /// A zero-valued record with the shape and labels of `op`'s whole
    /// subtree. The executor adopts a skeleton for every subtree it
    /// short-circuits (a skipped join build side, a skipped difference
    /// probe side, union inputs after an error), so **every** record of a
    /// given plan has exactly this shape — which is what lets records from
    /// different documents and different worker shards
    /// [`merge`](Observer::merge) into one aggregate.
    fn skeleton(op: &PhysOp) -> Self;

    /// Adds `n` to the named counter of this operator.
    fn count(&mut self, _name: &'static str, _n: u64) {}

    /// Appends the record of this operator's next input, in plan order: an
    /// evaluated child's, or the skeleton of one that was short-circuited.
    fn adopt(&mut self, _child: Self) {}

    /// Accumulates another record of the same plan into this one.
    fn merge(&mut self, _other: &Self) {}
}

/// The [`Observer`] that records nothing: every report is the empty
/// default, so `execute::<NoTrace>` is the executor with no trace of
/// tracing in it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl Observer for NoTrace {
    const RECORDS: bool = false;

    #[inline]
    fn observe(
        _: &PhysOp,
        eval: impl FnOnce(&mut Self) -> SpannerResult<MappingSet>,
    ) -> (SpannerResult<MappingSet>, Self) {
        (eval(&mut NoTrace), NoTrace)
    }

    #[inline]
    fn skeleton(_: &PhysOp) -> Self {
        NoTrace
    }
}

impl Observer for ExecTrace {
    const RECORDS: bool = true;

    fn observe(
        op: &PhysOp,
        eval: impl FnOnce(&mut Self) -> SpannerResult<MappingSet>,
    ) -> (SpannerResult<MappingSet>, Self) {
        let start = Instant::now();
        let mut node = ExecTrace::new(op.label());
        let result = eval(&mut node);
        if let Ok(set) = &result {
            node.rows = set.len() as u64;
        }
        node.observe_elapsed(start.elapsed());
        (result, node)
    }

    fn skeleton(op: &PhysOp) -> Self {
        let mut node = ExecTrace::new(op.label());
        node.children = op.children().into_iter().map(Self::skeleton).collect();
        node
    }

    fn count(&mut self, name: &'static str, n: u64) {
        self.add(name, n);
    }

    fn adopt(&mut self, child: Self) {
        self.children.push(child);
    }

    fn merge(&mut self, other: &Self) {
        ExecTrace::merge(self, other);
    }
}

/// A node of the physical operator tree (see the module docs).
///
/// Operators are read-only after lowering and share their compiled automata
/// through `Arc`, so a `PhysOp` tree is `Send + Sync` and cheap to clone —
/// one plan serves any number of worker threads.
#[derive(Clone)]
pub enum PhysOp {
    /// A maximal static RA subtree, compiled once into a shared automaton;
    /// enumerated per document with polynomial delay.
    CompiledScan {
        /// The compile-once evaluation form the enumerator runs on (and
        /// what schema, size and the empty-language fast path are read off).
        compiled: Arc<CompiledVsa>,
        /// Whether the scan fast path (the static prefilters and required
        /// literals) is consulted before enumeration
        /// ([`RaOptions::scan_fast_path`](crate::RaOptions)).
        fast_path: bool,
    },
    /// A tractable, degree-bounded black-box spanner (Corollary 5.3),
    /// evaluated per document through its own `eval`.
    BlackBoxScan(SpannerRef),
    /// Projection `π_keep` with set-semantics dedup.
    Project {
        /// Variables to keep.
        keep: VarSet,
        /// Input operator.
        input: Box<PhysOp>,
    },
    /// N-ary union with set-semantics dedup.
    UnionAll(Vec<PhysOp>),
    /// Natural join; the materializing path runs as a hash join on the
    /// common-variable span vector whenever both inputs bind all common
    /// variables.
    HashJoin {
        /// Probe side.
        left: Box<PhysOp>,
        /// Build side.
        right: Box<PhysOp>,
    },
    /// The paper's difference operator as an anti-join: the probe side is
    /// materialized once into a hashed compatibility index and every input
    /// mapping survives iff it is incompatible with all probe mappings. No
    /// automaton recomposition.
    Difference {
        /// Input side (streamed by [`OpStream`]).
        input: Box<PhysOp>,
        /// Probe side (always materialized).
        probe: Box<PhysOp>,
    },
}

impl PhysOp {
    /// Evaluates the operator on one document into a materialized relation,
    /// reporting to `obs` — the record of *this* operator, opened by the
    /// caller ([`Observer::observe`]) — as it goes. This is the one
    /// recursion behind every evaluation, traced or not: with [`NoTrace`]
    /// every report is an empty inlined call, so the instantiation is the
    /// plain recursion (no branch, no `Option`, no dyn call); with
    /// [`ExecTrace`] each node records `rows` (mappings produced), `nanos`
    /// (inclusive wall time) and operator-specific counters —
    /// `prescan_skip`/`prescan_accept`, `eval_table_cells`, `walk_steps`
    /// and `stretch_positions` on compiled scans, `build_rows`/`build_skipped` on joins,
    /// `probe_rows`/`probe_skipped` on differences, `limit_trips` on the
    /// operator whose guard fired. Results, errors and short-circuits are
    /// the same for every observer.
    ///
    /// `limit` is the resource guard: every relation that feeds a
    /// relational operator (a dynamic operator's input or probe/build side)
    /// may hold at most `limit` mappings — the executor's counterpart of the
    /// automaton state limits of the ad-hoc pipeline
    /// (`RaOptions::max_signatures` is threaded through here by
    /// [`CompiledPlan`](crate::CompiledPlan)). The *root* result is not
    /// bounded: like the old pipeline's final enumeration, the caller asked
    /// for it.
    ///
    /// `prescanned` says that a screen already ran on `doc` and did not
    /// prove it empty ([`PhysOp::prescan_skips`] over this operator or over
    /// another lowering of the same program), so fast-path scans skip their
    /// own prefilters and literals: sound, as the backward pass decides
    /// every document they pass. They still report `prescan_accept`, so a
    /// trace does not show the difference. The flag travels the way the
    /// pre-pass walks: a projection's input, both sides of a join and a
    /// difference's input get it; a union's inputs and a difference's probe
    /// side, which the pre-pass does not prove, do not.
    pub fn execute<O: Observer>(
        &self,
        doc: &Document,
        limit: usize,
        prescanned: bool,
        obs: &mut O,
    ) -> SpannerResult<MappingSet> {
        self.run(doc, limit, usize::MAX, prescanned, obs)
    }

    /// [`PhysOp::execute`], with a compiled scan's enumeration stopped after
    /// `rows` mappings. An input asks for one past its guard, so a relation
    /// too large trips it without enumerating the rest.
    fn run<O: Observer>(
        &self,
        doc: &Document,
        limit: usize,
        rows: usize,
        prescanned: bool,
        obs: &mut O,
    ) -> SpannerResult<MappingSet> {
        match self {
            PhysOp::CompiledScan {
                compiled,
                fast_path,
            } => {
                // The static prefilters and required literals: a document
                // they rule out is answered without building enumeration
                // machinery. Sound, so results are unchanged (see
                // `spanner_vset::scan`); every other document is decided by
                // the backward pass below.
                let check = *fast_path && !prescanned;
                if compiled.accepting().is_empty() || (check && scan_skips(compiled, doc)) {
                    obs.count("prescan_skip", 1);
                    return Ok(MappingSet::new());
                }
                if *fast_path {
                    obs.count("prescan_accept", 1);
                }
                let mut stream = enumerate_compiled(compiled, doc)?;
                let mappings: SpannerResult<Vec<Mapping>> = stream.by_ref().take(rows).collect();
                // Table cells this document had to compute: 0 once the
                // automaton is warm, so a non-zero count marks a cold one.
                // And what the walk did: candidate searches, and stretch
                // positions crossed without one.
                if O::RECORDS {
                    obs.count("eval_table_cells", stream.graph().table_cells());
                    obs.count("walk_steps", stream.walk_steps());
                    obs.count("stretch_positions", stream.stretch_positions());
                }
                Ok(MappingSet::from_mappings(mappings?))
            }
            PhysOp::BlackBoxScan(s) => s.eval(doc),
            PhysOp::Project { keep, input } => {
                Ok(input.input(doc, limit, prescanned, obs)?.project(keep))
            }
            PhysOp::UnionAll(inputs) => {
                let mut out = MappingSet::builder();
                for (i, op) in inputs.iter().enumerate() {
                    match op.input(doc, limit, false, obs) {
                        Ok(set) => out.extend(set),
                        Err(e) => {
                            // Keep the trace shape stable past the error.
                            for rest in &inputs[i + 1..] {
                                obs.adopt(O::skeleton(rest));
                            }
                            return Err(e);
                        }
                    }
                }
                Ok(out.finish())
            }
            PhysOp::HashJoin { left, right } => {
                let left = match left.input(doc, limit, prescanned, obs) {
                    Ok(set) if set.is_empty() => {
                        // ∅ ⋈ R = ∅ — skip the build side.
                        obs.count("build_skipped", 1);
                        obs.adopt(O::skeleton(right));
                        return Ok(set);
                    }
                    Err(e) => {
                        obs.adopt(O::skeleton(right));
                        return Err(e);
                    }
                    Ok(set) => set,
                };
                let right = right.input(doc, limit, prescanned, obs)?;
                obs.count("build_rows", right.len() as u64);
                Ok(left.join(&right))
            }
            PhysOp::Difference { input, probe } => {
                let input = match input.input(doc, limit, prescanned, obs) {
                    Ok(set) if set.is_empty() => {
                        // ∅ \ R = ∅ — skip the probe side entirely (with
                        // the scan pre-pass this makes misses on the input
                        // side free).
                        obs.count("probe_skipped", 1);
                        obs.adopt(O::skeleton(probe));
                        return Ok(set);
                    }
                    Err(e) => {
                        obs.adopt(O::skeleton(probe));
                        return Err(e);
                    }
                    Ok(set) => set,
                };
                let probe = probe.input(doc, limit, false, obs)?;
                obs.count("probe_rows", probe.len() as u64);
                if probe.is_empty() {
                    return Ok(input); // R \ ∅ = R, without an index
                }
                let mut probe = ProbeIndex::new(probe);
                Ok(input
                    .into_iter()
                    .filter(|m| !probe.has_compatible(m))
                    .collect())
            }
        }
    }

    /// Evaluates `self` as an input of the operator `parent` observes: the
    /// child runs under its own record, which `parent` adopts, and its
    /// relation must pass the resource guard of [`PhysOp::execute`] — a
    /// trip is counted on the operator that enforced it (`limit_trips`)
    /// before the error propagates.
    fn input<O: Observer>(
        &self,
        doc: &Document,
        limit: usize,
        prescanned: bool,
        parent: &mut O,
    ) -> SpannerResult<MappingSet> {
        let rows = limit.saturating_add(1);
        let (result, child) = O::observe(self, |obs| self.run(doc, limit, rows, prescanned, obs));
        parent.adopt(child);
        let set = result?;
        if set.len() > limit {
            parent.count("limit_trips", 1);
            return Err(over_limit(limit, set.len()));
        }
        Ok(set)
    }

    /// Opens an [`OpStream`] over the operator's mappings on one document.
    /// Whatever it materializes to feed a difference — the probe side, a
    /// drained input side — passes the [`PhysOp::execute`] resource guard.
    pub(crate) fn stream_bounded<'a>(
        &'a self,
        doc: &'a Document,
        limit: usize,
    ) -> SpannerResult<OpStream<'a>> {
        let kind = match self {
            PhysOp::CompiledScan {
                compiled,
                fast_path,
            } => {
                if compiled.accepting().is_empty() || (*fast_path && scan_skips(compiled, doc)) {
                    StreamKind::Empty
                } else {
                    StreamKind::Scan(Box::new(enumerate_compiled(compiled, doc)?))
                }
            }
            PhysOp::Difference { input, probe } => {
                let input = input.stream_bounded(doc, limit)?;
                match &input.kind {
                    // ∅ \ R = ∅ — skip materializing the probe side.
                    StreamKind::Empty => StreamKind::Empty,
                    StreamKind::Drain(rows) if rows.len() > limit => {
                        return Err(over_limit(limit, rows.len()))
                    }
                    _ => StreamKind::AntiJoin {
                        input: Box::new(input),
                        probe: ProbeIndex::new(probe.input(doc, limit, false, &mut NoTrace)?),
                    },
                }
            }
            _ => {
                let rows = self.execute(doc, limit, false, &mut NoTrace)?;
                if rows.is_empty() {
                    StreamKind::Empty
                } else {
                    StreamKind::Drain(rows.into_iter())
                }
            }
        };
        Ok(OpStream { kind })
    }

    /// The operator's direct inputs.
    pub fn children(&self) -> Vec<&PhysOp> {
        match self {
            PhysOp::CompiledScan { .. } | PhysOp::BlackBoxScan(_) => Vec::new(),
            PhysOp::Project { input, .. } => vec![input],
            PhysOp::UnionAll(inputs) => inputs.iter().collect(),
            PhysOp::HashJoin { left, right } => vec![left, right],
            PhysOp::Difference { input, probe } => vec![input, probe],
        }
    }

    /// One-line label for outlines and debugging.
    pub fn label(&self) -> String {
        match self {
            PhysOp::CompiledScan { compiled, .. } => format!(
                "CompiledScan({} states, vars {{{}}})",
                compiled.state_count(),
                compiled
                    .var_table()
                    .vars()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            PhysOp::BlackBoxScan(s) => format!("BlackBoxScan({})", s.name()),
            PhysOp::Project { keep, .. } => format!(
                "Project{{{}}}",
                keep.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            PhysOp::UnionAll(inputs) => format!("UnionAll({} inputs, dedup)", inputs.len()),
            PhysOp::HashJoin { .. } => "HashJoin".to_string(),
            PhysOp::Difference { .. } => "Difference(anti-join)".to_string(),
        }
    }

    /// Number of operators in the tree.
    pub fn operator_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysOp::operator_count)
            .sum::<usize>()
    }

    /// Document-level pre-pass for multi-document engines: whether the
    /// scans' prefilters and literals *prove* it yields no mappings on `doc`
    /// (`false` = the document must be evaluated). The proof composes
    /// through the relational operators (`∅ \ R`, `∅ ⋈ R` and `π(∅)` are
    /// empty; a union is empty iff all inputs are) and only consults scans
    /// with the fast path enabled, so it is `false` everywhere when
    /// [`RaOptions::scan_fast_path`](crate::RaOptions) is off. A `false` is
    /// also a proof that every fast-path scan this walk reached accepted —
    /// what [`PhysOp::execute`]'s `prescanned` hands on, along the same
    /// edges.
    pub fn prescan_skips(&self, doc: &Document) -> bool {
        match self {
            PhysOp::CompiledScan {
                compiled,
                fast_path,
            } => *fast_path && scan_skips(compiled, doc),
            PhysOp::BlackBoxScan(_) => false,
            PhysOp::Project { input, .. } => input.prescan_skips(doc),
            PhysOp::UnionAll(inputs) => inputs.iter().all(|op| op.prescan_skips(doc)),
            PhysOp::HashJoin { left, right } => left.prescan_skips(doc) || right.prescan_skips(doc),
            PhysOp::Difference { input, .. } => input.prescan_skips(doc),
        }
    }

    /// Byte strings that every document with a *non-empty* result must
    /// contain as a factor — the document-independent counterpart of
    /// [`PhysOp::prescan_skips`], consumed by corpus-level indexes to
    /// prune documents without visiting them. The proof composes the same
    /// way: a join result needs both sides non-empty (union of the sides'
    /// literals), a union result needs some input non-empty (a literal
    /// survives only if *every* input requires it — witnessed by an
    /// extracted literal containing it), difference and projection are
    /// bounded by their input, and a black-box scan constrains nothing.
    /// Unlike the pre-pass this is pure static analysis, sound for any
    /// `scan_fast_path` setting. An empty set means "no constraint".
    pub fn required_literals(&self) -> Vec<Vec<u8>> {
        let mut literals = match self {
            PhysOp::CompiledScan { compiled, .. } => compiled.required_literals().to_vec(),
            PhysOp::BlackBoxScan(_) => Vec::new(),
            PhysOp::Project { input, .. } => input.required_literals(),
            PhysOp::UnionAll(inputs) => {
                let sets: Vec<Vec<Vec<u8>>> =
                    inputs.iter().map(PhysOp::required_literals).collect();
                if sets.iter().any(Vec::is_empty) {
                    // One unconstrained branch makes the union unconstrained.
                    return Vec::new();
                }
                // A literal is required by the union iff every branch
                // requires it; a branch requiring a superstring requires
                // every factor of it.
                let mut candidates: Vec<Vec<u8>> = sets.concat();
                candidates.retain(|l| sets.iter().all(|s| s.iter().any(|k| contains_factor(k, l))));
                candidates
            }
            PhysOp::HashJoin { left, right } => {
                let mut literals = left.required_literals();
                literals.extend(right.required_literals());
                literals
            }
            PhysOp::Difference { input, .. } => input.required_literals(),
        };
        dedup_subsumed(&mut literals);
        literals
    }
}

/// Whether a compiled scan's static prefilters or its required literals
/// prove that `doc` has no mapping. The prefilters go first, so a scan
/// extracts its literals only once a document passes them.
fn scan_skips(compiled: &CompiledVsa, doc: &Document) -> bool {
    let lacks = |literal: &Vec<u8>| !contains_factor(doc.bytes(), literal);
    compiled.prescan(doc) == PreScan::Skip || compiled.required_literals().iter().any(lacks)
}

/// The error of a relation that trips the resource guard of
/// [`PhysOp::execute`].
fn over_limit(limit: usize, actual: usize) -> SpannerError {
    SpannerError::LimitExceeded {
        what: "executor intermediate relation",
        limit,
        actual,
    }
}

impl fmt::Debug for PhysOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The lowered, executable form of a [`CompiledPlan`](crate::CompiledPlan): a shared physical
/// operator tree (see the module docs) and the resource guard it runs
/// under. Lowering happens inside [`CompiledPlan::compile`](crate::CompiledPlan::compile),
/// and again when the plan builds its deferred join products;
/// [`CompiledPlan::physical`](crate::CompiledPlan::physical) hands out the
/// current one.
#[derive(Clone)]
pub struct PhysicalPlan {
    root: Arc<PhysOp>,
    /// Resource guard: maximum size of any relation feeding a relational
    /// operator (see [`PhysOp::execute`]).
    max_intermediate: usize,
}

impl PhysicalPlan {
    pub(crate) fn with_limit(root: PhysOp, max_intermediate: usize) -> PhysicalPlan {
        PhysicalPlan {
            root: Arc::new(root),
            max_intermediate,
        }
    }

    /// The root operator.
    pub fn root(&self) -> &PhysOp {
        &self.root
    }

    /// Evaluates the plan on one document into a materialized relation
    /// (intermediate relations bounded by the plan's resource guard).
    pub fn execute(&self, doc: &Document) -> SpannerResult<MappingSet> {
        self.root
            .execute(doc, self.max_intermediate, false, &mut NoTrace)
    }

    /// A zero-valued trace with this plan's shape
    /// (see [`Observer::skeleton`]) — what `tests/trace_oracle.rs` pins
    /// every trace of the plan against.
    pub fn trace_skeleton(&self) -> ExecTrace {
        ExecTrace::skeleton(&self.root)
    }

    /// Renders the operator tree as an indented multi-line outline (the
    /// physical half of the query-language `explain` output).
    pub fn describe(&self) -> String {
        fn walk(op: &PhysOp, prefix: &str, out: &mut String) {
            let children = op.children();
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                out.push('\n');
                out.push_str(prefix);
                out.push_str(if last { "└─ " } else { "├─ " });
                out.push_str(&child.label());
                let extended = format!("{prefix}{}", if last { "   " } else { "│  " });
                walk(child, &extended, out);
            }
        }
        let mut out = self.root.label();
        walk(&self.root, "", &mut out);
        out
    }
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// The one hashed compatibility test, probed by both forms of
/// [`PhysOp::Difference`]: a materialized relation with a lazily built hash
/// set per *overlap*, the variables a probing mapping shares with the
/// relation's active domain. Where every mapping of the relation binds the
/// whole overlap, compatibility is equality of the two restrictions to it,
/// one lookup; an overlap some mapping misses a variable of (a schemaless
/// relation: the missing variable is a wildcard) falls back to the linear
/// compatibility scan, for that overlap only.
struct ProbeIndex {
    mappings: Vec<Mapping>,
    /// Active domain of the relation (union of all mapping domains).
    domain: VarSet,
    /// Per overlap met so far, as ascending variable ids (in practice one
    /// or two, so a linear search finds them without building a key): the
    /// mappings restricted to it, or `None` for the scan fallback.
    by_overlap: Vec<(Vec<VarId>, Option<FxHashSet<Mapping>>)>,
}

impl ProbeIndex {
    fn new(set: MappingSet) -> ProbeIndex {
        ProbeIndex {
            domain: set.active_domain(),
            mappings: set.into_iter().collect(),
            by_overlap: Vec::new(),
        }
    }

    /// Whether some mapping of the relation is compatible with `m`.
    fn has_compatible(&mut self, m: &Mapping) -> bool {
        let key = m.restrict(&self.domain);
        let ids = || key.iter().map(|(v, _)| v.id());
        let at = match self
            .by_overlap
            .iter()
            .position(|(overlap, _)| overlap.iter().copied().eq(ids()))
        {
            Some(at) => at,
            None => {
                let overlap = key.domain();
                let total = self
                    .mappings
                    .iter()
                    .all(|b| overlap.iter().all(|v| b.contains(v)));
                let index =
                    total.then(|| self.mappings.iter().map(|b| b.restrict(&overlap)).collect());
                self.by_overlap.push((ids().collect(), index));
                self.by_overlap.len() - 1
            }
        };
        match &self.by_overlap[at].1 {
            Some(index) => index.contains(&key),
            None => self.mappings.iter().any(|b| m.is_compatible_with(b)),
        }
    }
}

/// A pull iterator over one operator's mappings (the item type matches the
/// polynomial-delay [`Enumerator`]): duplicate-free, fused after the first
/// error, and lazy only where laziness exists. A static plan, one compiled
/// scan, enumerates with polynomial delay (Theorem 5.2). A difference
/// streams its input side against a probe side materialized at open: its
/// first answer comes early, but a run of removed inputs is a gap, so it
/// has no delay bound beyond its input's. Any other operator was executed,
/// under the resource guard, when the stream opened, and drains.
pub struct OpStream<'a> {
    kind: StreamKind<'a>,
}

enum StreamKind<'a> {
    /// The operator provably produces nothing on this document.
    Empty,
    /// Lazy polynomial-delay enumeration off a shared compiled automaton.
    Scan(Box<Enumerator<'a>>),
    /// Drains a non-empty relation that was executed when the stream opened.
    Drain(<MappingSet as IntoIterator>::IntoIter),
    /// Streams the input side, dropping every mapping compatible with some
    /// mapping of the materialized probe side.
    AntiJoin {
        input: Box<OpStream<'a>>,
        probe: ProbeIndex,
    },
}

impl OpStream<'_> {
    fn advance(&mut self) -> Option<SpannerResult<Mapping>> {
        match &mut self.kind {
            StreamKind::Empty => None,
            StreamKind::Scan(e) => e.next(),
            StreamKind::Drain(iter) => iter.next().map(Ok),
            StreamKind::AntiJoin { input, probe } => input.find(|item| match item {
                Ok(m) => !probe.has_compatible(m),
                Err(_) => true,
            }),
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = SpannerResult<Mapping>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.advance();
        if matches!(item, Some(Err(_))) {
            // Fuse after an error: the underlying state may be inconsistent.
            self.kind = StreamKind::Empty;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CompiledPlan;
    use crate::ratree::{Instantiation, RaOptions, RaTree};
    use crate::spanner::WholeDocument;
    use spanner_rgx::parse;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn physical_plan_is_send_and_sync() {
        assert_send_sync::<PhysOp>();
        assert_send_sync::<PhysicalPlan>();
    }

    fn lower(tree: &RaTree, inst: &Instantiation) -> PhysicalPlan {
        let plan = CompiledPlan::compile(tree, inst, RaOptions::default()).unwrap();
        plan.physical().clone()
    }

    fn is_fully_compiled(physical: &PhysicalPlan) -> bool {
        matches!(physical.root(), PhysOp::CompiledScan { .. })
    }

    fn execute_traced(
        physical: &PhysicalPlan,
        doc: &Document,
    ) -> (SpannerResult<MappingSet>, ExecTrace) {
        let root = physical.root();
        ExecTrace::observe(root, |obs| root.execute(doc, usize::MAX, false, obs))
    }

    #[test]
    fn static_tree_lowers_to_one_compiled_scan() {
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}{y:b*}").unwrap())
            .with(1, parse("{y:a*}{x:b+}").unwrap());
        let physical = lower(&tree, &inst);
        assert!(is_fully_compiled(&physical));
        assert_eq!(physical.root().operator_count(), 1);
        assert!(physical.describe().starts_with("CompiledScan("));
    }

    #[test]
    fn black_box_lowers_to_a_scan_operator() {
        let tree = RaTree::union(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(r"{t:\l+}").unwrap())
            .with_black_box(1, WholeDocument);
        let physical = lower(&tree, &inst);
        let outline = physical.describe();
        assert!(outline.contains("UnionAll(2 inputs, dedup)"), "{outline}");
        assert!(outline.contains("BlackBoxScan(whole(t))"), "{outline}");
    }

    #[test]
    fn streams_are_duplicate_free_and_match_execute() {
        // A projection over a union whose operands overlap heavily: the
        // stream must dedup both across union inputs and across collapsed
        // projections.
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::union(
                RaTree::difference(RaTree::leaf(0), RaTree::leaf(2)),
                RaTree::difference(RaTree::leaf(1), RaTree::leaf(2)),
            ),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}{y:b*}").unwrap())
            .with(1, parse("{x:a+}{z:b*}").unwrap())
            .with(2, parse("{x:aa}bb").unwrap());
        let physical = lower(&tree, &inst);
        for text in ["aabb", "aab", "ab", ""] {
            let doc = Document::new(text);
            let streamed: Vec<Mapping> = physical
                .root()
                .stream_bounded(&doc, usize::MAX)
                .unwrap()
                .collect::<SpannerResult<_>>()
                .unwrap();
            let unique: MappingSet = streamed.iter().cloned().collect();
            assert_eq!(streamed.len(), unique.len(), "duplicates on {text:?}");
            assert_eq!(unique, physical.execute(&doc).unwrap(), "on {text:?}");
        }
    }

    #[test]
    fn intermediate_relation_limit_is_enforced() {
        // On "abcd" the left scan yields all 15 subspan mappings — past a
        // tight `max_signatures`, both evaluate and stream must fail fast
        // with a limit error instead of materializing unbounded inputs.
        let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(".*{x:.*}.*").unwrap())
            .with(1, parse("{x:zz}").unwrap());
        let tight = RaOptions {
            max_signatures: 3,
            ..RaOptions::default()
        };
        let plan = CompiledPlan::compile(&tree, &inst, tight).unwrap();
        let doc = Document::new("abcd");
        let err = plan.evaluate(&doc).unwrap_err();
        assert!(matches!(err, SpannerError::LimitExceeded { .. }), "{err}");
        // A difference root only materializes its probe side (0 mappings
        // here, under the limit); the input side streams lazily, so the
        // stream opens and drains fine — the guard bounds materialization,
        // not lazy enumeration.
        assert!(plan.stream(&doc).is_ok());
        // Under a projection the difference is an input, materialized by
        // the projection's execution, so the stream fails as evaluate does.
        // (The operands bind x and y: a `π_x` over x-only operands would be
        // planned away, leaving the difference at the root.)
        let inst_xy = Instantiation::new()
            .with(0, parse(".*{x:.*}{y:.*}.*").unwrap())
            .with(1, parse("{x:zz}").unwrap());
        let projected = RaTree::project(VarSet::from_iter(["x"]), tree.clone());
        let plan = CompiledPlan::compile(&projected, &inst_xy, tight).unwrap();
        assert!(matches!(plan.physical().root(), PhysOp::Project { .. }));
        assert!(matches!(
            plan.evaluate(&doc),
            Err(SpannerError::LimitExceeded { .. })
        ));
        assert!(matches!(
            plan.stream(&doc),
            Err(SpannerError::LimitExceeded { .. })
        ));
        // A join build side past the limit fails at stream open.
        let join_tree = RaTree::join(
            RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(0),
        );
        let join_plan = CompiledPlan::compile(&join_tree, &inst, tight).unwrap();
        assert!(join_plan.evaluate(&doc).is_err());
        assert!(join_plan.stream(&doc).is_err());
        // The default limit is far away: the same plans evaluate fine.
        let plan = CompiledPlan::compile(&join_tree, &inst, RaOptions::default()).unwrap();
        assert!(plan.evaluate(&doc).is_ok());
    }

    #[test]
    fn traced_execution_matches_untraced_and_keeps_shape() {
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::difference(
                RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
                RaTree::leaf(2),
            ),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}b*").unwrap())
            .with(1, parse("{x:a+}{y:b*}").unwrap())
            .with(2, parse("{x:aa}").unwrap());
        let physical = lower(&tree, &inst);
        let skeleton = physical.trace_skeleton();
        let mut merged = physical.trace_skeleton();
        for text in ["ab", "aab", "a", "", "zzz"] {
            let doc = Document::new(text);
            let (traced, trace) = execute_traced(&physical, &doc);
            assert_eq!(
                traced.unwrap(),
                physical.execute(&doc).unwrap(),
                "traced result differs on {text:?}"
            );
            // Shape (labels + child arity) is data-independent: the trace of
            // a skipped document merges cleanly with a fully-evaluated one.
            merged.merge(&trace);
            assert_eq!(trace.label, skeleton.label, "on {text:?}");
        }
        assert_eq!(merged.label, skeleton.label);
        // "zzz" and "" must have been pruned by the scan pre-pass somewhere
        // in the tree; "aab" survives to enumeration.
        let flat = merged.render();
        assert!(flat.contains("prescan_accept"), "{flat}");
        assert!(merged.total_rows() > 0 && flat.contains("rows="), "{flat}");
    }

    #[test]
    fn traced_execution_records_prescan_and_limit_counters() {
        // Difference with a tight limit: the input side yields 15 mappings
        // on "abcd" (> 3), so the guard trips on the Difference node and
        // the trace says so — while the result is the same error as the
        // untraced path.
        let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(".*{x:.*}.*").unwrap())
            .with(1, parse("{x:zz}").unwrap());
        let tight = RaOptions {
            max_signatures: 3,
            ..RaOptions::default()
        };
        let plan = CompiledPlan::compile(&tree, &inst, tight).unwrap();
        let doc = Document::new("abcd");
        let (result, trace) = plan.evaluate_observed::<ExecTrace>(&doc);
        assert!(matches!(result, Err(SpannerError::LimitExceeded { .. })));
        assert_eq!(trace.counter("limit_trips"), 1, "{}", trace.render());
        assert_eq!(
            trace.children.len(),
            2,
            "skeleton keeps the skipped probe side: {}",
            trace.render()
        );
        // A scan whose prefilters rule the document out reports the skip.
        let miss = Instantiation::new().with(0, parse("q{x:a+}").unwrap());
        let physical = lower(&RaTree::leaf(0), &miss);
        let (result, trace) = execute_traced(&physical, &Document::new("aaa"));
        assert!(result.unwrap().is_empty());
        assert_eq!(trace.counter("prescan_skip"), 1, "{}", trace.render());
    }

    /// Executes `tree` on `text` with the scan fast path on and off, checks
    /// that the answers agree, and returns the fast-path trace.
    fn fast_path_trace(tree: &RaTree, inst: &Instantiation, text: &str) -> ExecTrace {
        let doc = Document::new(text);
        let off = RaOptions {
            scan_fast_path: false,
            ..RaOptions::default()
        };
        let plain = CompiledPlan::compile(tree, inst, off).unwrap();
        let (answer, trace) = execute_traced(&lower(tree, inst), &doc);
        assert_eq!(
            answer.unwrap(),
            plain.evaluate(&doc).unwrap(),
            "on {text:?}"
        );
        trace
    }

    #[test]
    fn a_union_branch_skips_a_document_without_its_literal() {
        // "of bar aa" holds every byte of "foo", so only the literal rules
        // the difference's input out; the other branch answers.
        let tree = RaTree::union(
            RaTree::difference(RaTree::leaf(0), RaTree::leaf(2)),
            RaTree::leaf(1),
        );
        let inst = Instantiation::new()
            .with(0, parse(".*foo {x:a+}.*").unwrap())
            .with(1, parse(".*bar {x:a+}.*").unwrap())
            .with(2, parse("{x:zz}").unwrap());
        let trace = fast_path_trace(&tree, &inst, "of bar aa");
        let branch = &trace.children[0];
        assert!(branch.label.starts_with("Difference"), "{}", trace.render());
        assert_eq!(
            branch.children[0].counter("prescan_skip"),
            1,
            "{}",
            trace.render()
        );
        assert_eq!(
            trace.children[1].counter("prescan_accept"),
            1,
            "{}",
            trace.render()
        );
        assert_eq!(trace.rows, 2, "{}", trace.render());
    }

    #[test]
    fn a_difference_probe_skips_a_document_without_its_literal() {
        // The status program of the log workload: "x 404 12" holds a 2, a 0
        // and a space, but not the probe's "200 ".
        let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(".*{s:[0-9][0-9][0-9]} [0-9]+").unwrap())
            .with(1, parse(".*{s:200} [0-9]+").unwrap());
        let trace = fast_path_trace(&tree, &inst, "x 404 12");
        let probe = &trace.children[1];
        assert_eq!(probe.counter("prescan_skip"), 1, "{}", trace.render());
        assert_eq!(probe.counter("walk_steps"), 0, "{}", trace.render());
        assert_eq!(trace.rows, 1, "{}", trace.render());
        // A line with the literal is still evaluated, and subtracted.
        let trace = fast_path_trace(&tree, &inst, "x 200 12");
        assert_eq!(
            trace.children[1].counter("prescan_accept"),
            1,
            "{}",
            trace.render()
        );
        assert_eq!(trace.rows, 0, "{}", trace.render());
    }

    #[test]
    fn stream_errors_fuse_the_iterator() {
        // A plan over more variables than the enumerator supports fails at
        // stream-open time with a clean error.
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let inst = Instantiation::new().with(0, parse(&parts.concat()).unwrap());
        let physical = lower(&RaTree::leaf(0), &inst);
        let doc = Document::new("aaa");
        assert!(physical.root().stream_bounded(&doc, usize::MAX).is_err());
        assert!(physical.execute(&doc).is_err());
    }

    fn m(pairs: &[(&str, (u32, u32))]) -> Mapping {
        Mapping::from_pairs(
            pairs
                .iter()
                .map(|(v, (a, b))| (*v, spanner_core::Span::new(*a, *b))),
        )
    }

    /// The index's anti-join: what `execute` runs for a difference.
    fn anti_join(input: &MappingSet, probe: &MappingSet) -> MappingSet {
        let mut index = ProbeIndex::new(probe.clone());
        input
            .iter()
            .filter(|m| !index.has_compatible(m))
            .cloned()
            .collect()
    }

    #[test]
    fn anti_join_agrees_with_difference() {
        // Hash path (both sides total over the common variable x).
        let a = MappingSet::from_mappings([
            m(&[("x", (1, 2)), ("y", (2, 3))]),
            m(&[("x", (2, 3)), ("y", (1, 1))]),
        ]);
        let b = MappingSet::from_mappings([m(&[("x", (1, 2)), ("z", (5, 6))])]);
        assert_eq!(anti_join(&a, &b), a.difference(&b));
        assert_eq!(anti_join(&a, &b).len(), 1);
        // Disjoint schemas: a nonempty probe side removes everything.
        let c = MappingSet::from_mappings([m(&[("w", (1, 1))])]);
        assert_eq!(anti_join(&a, &c), a.difference(&c));
        assert!(anti_join(&a, &c).is_empty());
        // Empty probe side is the identity.
        assert_eq!(anti_join(&a, &MappingSet::new()), a);
        // Schemaless fallback: a probe mapping missing the common variable
        // acts as a wildcard and removes everything it is compatible with.
        let d = MappingSet::from_mappings([m(&[("y", (2, 3))]), Mapping::new()]);
        assert_eq!(anti_join(&a, &d), a.difference(&d));
        assert!(anti_join(&a, &d).is_empty());
        let e = MappingSet::from_mappings([m(&[("x", (9, 9))]), m(&[("y", (1, 1))])]);
        assert_eq!(anti_join(&a, &e), a.difference(&e));
    }
}
