//! Logical plan optimization and compiled physical plans for RA trees.
//!
//! The paper's recipe (`spanner_paper::compile_ra`) evaluates an RA tree
//! exactly as written. This module is the query-planner layer:
//!
//! * [`optimize_ra`] — a semantics-preserving rewrite pass over [`RaTree`]:
//!   nested unions are flattened (and syntactically duplicate operands
//!   dropped), projections are pushed below unions and joins down to the
//!   leaves (where plan compilation applies them at the automaton level,
//!   before any product construction), nested projections
//!   are collapsed, and join chains are reordered greedily by the
//!   shared-variable estimate of Theorem 5.2. Projections are **not**
//!   pushed through the difference operator: `π_Y(P1 \ P2)` and
//!   `π_Y(P1) \ π_Y(P2)` differ whenever distinct survivors of `P1` collapse
//!   under `π_Y` (the rewrite is unsound on either operand), so difference
//!   nodes act as optimization barriers.
//! * [`CompiledPlan`] — the compiled plan. Maximal *static* subtrees (no
//!   difference node, no black-box leaf) are compiled into a single
//!   automaton **once** and the whole tree is lowered onto the physical
//!   operator executor ([`crate::exec`]): every leaf of the operator tree
//!   is a compiled scan or a black box, and difference / black-box
//!   composition happens at the relation level — nothing is re-composed
//!   into a per-document `Vsa` anymore. A fully static plan evaluates
//!   through one shared [`CompiledVsa`] with zero per-document composition
//!   work, which is what makes multi-document engines such as
//!   `spanner-corpus` cheap: the lowered plan is read-only and `Sync`, so
//!   one plan serves any number of worker threads.
//!
//! The rewrite rules maintain three invariants (checked by the planner
//! property tests): the declared variable set [`tree_vars`] of the tree is
//! preserved, the [`shared_variable_bound`](crate::shared_variable_bound)
//! never increases (join reorders
//! that would increase it are discarded), and the pass is idempotent —
//! optimizing an optimized plan returns it unchanged.

use crate::exec::{NoTrace, Observer, OpStream, PhysOp, PhysicalPlan};
use crate::ratree::{
    compile_static_atom, resolve_atom, tree_vars, Atom, Instantiation, LeafId, RaOptions, RaTree,
};
use spanner_core::{Document, MappingSet, SpannerError, SpannerResult, VarSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Rewrites an instantiated RA tree into an equivalent, cheaper-to-compile
/// plan (see the module documentation for the rule set).
///
/// The instantiation is only consulted for the declared variable sets of the
/// leaves; the returned tree is valid for any instantiation with the same
/// leaf schemas.
///
/// ```
/// use spanner_algebra::{optimize_ra, shared_variable_bound, Instantiation, RaTree};
///
/// // (?0{x} ⋈ ?1{y}) ⋈ ?2{x,y}: bound 2 as written; joining ?2 second
/// // keeps every step at 1 shared variable.
/// let tree = RaTree::join(
///     RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
///     RaTree::leaf(2),
/// );
/// let inst = Instantiation::new()
///     .with(0, spanner_rgx::parse("{x:a}b*").unwrap())
///     .with(1, spanner_rgx::parse("a{y:b+}").unwrap())
///     .with(2, spanner_rgx::parse("{x:a}{y:b+}").unwrap());
/// assert_eq!(shared_variable_bound(&tree, &inst).unwrap(), 2);
/// let optimized = optimize_ra(&tree, &inst).unwrap();
/// assert_eq!(shared_variable_bound(&optimized, &inst).unwrap(), 1);
/// ```
pub fn optimize_ra(tree: &RaTree, inst: &Instantiation) -> SpannerResult<RaTree> {
    // A single pass can expose new opportunities — e.g. a projection that
    // dissolves uncovers a nested union or join chain — so the rewrite runs
    // to a fixed point (each follow-up pass only flattens/dedups further,
    // and those steps are monotone, so the loop terminates; the size-based
    // cap is a safety net).
    let mut current = rewrite(tree, inst, None)?;
    for _ in 0..4 + tree.size() {
        let next = rewrite(&current, inst, None)?;
        if next == current {
            break;
        }
        current = next;
    }
    Ok(current)
}

/// Rewrites `tree` under a projection context: the result is equivalent to
/// `π_ctx(tree)` (or to `tree` when `ctx` is `None`), and its declared
/// variable set is exactly `tree_vars(tree) ∩ ctx`.
fn rewrite(tree: &RaTree, inst: &Instantiation, ctx: Option<&VarSet>) -> SpannerResult<RaTree> {
    match tree {
        RaTree::Leaf(id) => {
            let vars = tree_vars(tree, inst)?;
            Ok(wrap_projection(RaTree::Leaf(*id), &vars, ctx))
        }
        RaTree::Project(keep, child) => {
            let child_vars = tree_vars(child, inst)?;
            let mut inner = keep.intersection(&child_vars);
            if let Some(outer) = ctx {
                inner = inner.intersection(outer);
            }
            if child_vars.is_subset(&inner) {
                // The projection keeps everything: drop it entirely.
                return rewrite(child, inst, ctx);
            }
            rewrite(child, inst, Some(&inner))
        }
        RaTree::Union(_, _) => {
            let mut operands = Vec::new();
            collect_union_operands(tree, &mut operands);
            let mut rewritten: Vec<RaTree> = Vec::with_capacity(operands.len());
            for op in operands {
                let op = rewrite(op, inst, ctx)?;
                // Rewriting can expose nested unions (a projection that
                // dissolved); flatten those into the operand list too.
                push_union_operand(op, &mut rewritten);
            }
            // Canonical operand order (union is commutative): the same set
            // of operands always rebuilds the same tree, so union subtrees
            // that differ only by operand order become syntactically equal
            // after one pass — and commuted duplicates nested inside sibling
            // operands (e.g. `(A ∪ B) ⋈ C` next to `(B ∪ A) ⋈ C`) then
            // collapse under the syntactic dedup above on the next pass.
            // Sorting is deterministic and order-independent, so the pass
            // stays idempotent and the planner invariants are untouched.
            rewritten.sort_by_cached_key(|op| op.to_string());
            let mut iter = rewritten.into_iter();
            let first = iter.next().expect("union has at least one operand");
            Ok(iter.fold(first, RaTree::union))
        }
        RaTree::Join(_, _) => rewrite_join_chain(tree, inst, ctx),
        RaTree::Difference(left, right) => {
            // π does not distribute over difference (see the module docs);
            // both operands are rewritten without a projection context and
            // the context materializes as a projection *above* this node.
            let vars = tree_vars(tree, inst)?;
            let left = rewrite(left, inst, None)?;
            let right = rewrite(right, inst, None)?;
            Ok(wrap_projection(RaTree::difference(left, right), &vars, ctx))
        }
    }
}

/// Wraps `tree` in `π_{ctx ∩ vars}` when the context actually removes a
/// variable; emits the canonical (intersected) projection set so repeated
/// optimization reproduces the same tree.
fn wrap_projection(tree: RaTree, vars: &VarSet, ctx: Option<&VarSet>) -> RaTree {
    match ctx {
        Some(keep) if !vars.is_subset(keep) => RaTree::project(keep.intersection(vars), tree),
        _ => tree,
    }
}

/// Appends a rewritten operand to a union's operand list, flattening nested
/// unions and dropping syntactic duplicates.
fn push_union_operand(op: RaTree, out: &mut Vec<RaTree>) {
    match op {
        RaTree::Union(l, r) => {
            push_union_operand(*l, out);
            push_union_operand(*r, out);
        }
        other => {
            if !out.contains(&other) {
                out.push(other);
            }
        }
    }
}

/// Collects the operands of a maximal nested-union subtree, left to right.
fn collect_union_operands<'t>(tree: &'t RaTree, out: &mut Vec<&'t RaTree>) {
    match tree {
        RaTree::Union(l, r) => {
            collect_union_operands(l, out);
            collect_union_operands(r, out);
        }
        other => out.push(other),
    }
}

/// Collects the operands of a maximal nested-join subtree, left to right.
fn collect_join_operands<'t>(tree: &'t RaTree, out: &mut Vec<&'t RaTree>) {
    match tree {
        RaTree::Join(l, r) => {
            collect_join_operands(l, out);
            collect_join_operands(r, out);
        }
        other => out.push(other),
    }
}

/// Rewrites a maximal join chain: pushes the projection context into every
/// operand (keeping all variables shared with *any* sibling — dropping those
/// would change the join), then greedily reorders the chain so that each
/// step introduces as few shared variables as possible (the FPT parameter of
/// Lemma 3.2 governs the product cost). The reorder is kept only when its
/// step-wise shared-variable bound does not exceed the original shape's.
fn rewrite_join_chain(
    tree: &RaTree,
    inst: &Instantiation,
    ctx: Option<&VarSet>,
) -> SpannerResult<RaTree> {
    let mut operands = Vec::new();
    collect_join_operands(tree, &mut operands);
    let n = operands.len();
    let vars: Vec<VarSet> = operands
        .iter()
        .map(|op| tree_vars(op, inst))
        .collect::<SpannerResult<_>>()?;

    // Variables an operand shares with at least one sibling; the projection
    // context must preserve them or the join would relate different spans.
    let shared: Vec<VarSet> = (0..n)
        .map(|i| {
            let mut others = VarSet::new();
            for (j, v) in vars.iter().enumerate() {
                if j != i {
                    others = others.union(v);
                }
            }
            vars[i].intersection(&others)
        })
        .collect();

    let mut rewritten = Vec::with_capacity(n);
    let mut new_vars = Vec::with_capacity(n);
    for i in 0..n {
        let inner = ctx.map(|keep| keep.union(&shared[i]).intersection(&vars[i]));
        rewritten.push(rewrite(operands[i], inst, inner.as_ref())?);
        new_vars.push(match inner {
            Some(keep) => keep,
            None => vars[i].clone(),
        });
    }

    // Guard: accept the chosen left-deep chain only when its step-wise
    // shared-variable bound does not exceed the bound of the original join
    // shape (over the same, already-projected operand schemas); otherwise
    // keep the original shape. This is what makes the pass monotone in
    // `shared_variable_bound`.
    let order: Vec<usize> = best_join_order(&new_vars);
    let joined = if chain_bound(&new_vars, &order) <= shape_bound(tree, &new_vars) {
        build_left_deep(&order, &mut rewritten)
    } else {
        rebuild_shape(tree, &mut rewritten.iter_mut())
    };

    let mut out_vars = VarSet::new();
    for v in &new_vars {
        out_vars = out_vars.union(v);
    }
    Ok(wrap_projection(joined, &out_vars, ctx))
}

/// Picks the left-deep operand order minimizing the step-wise
/// shared-variable bound (the Lemma 3.2 exponent). Short chains (≤ 4
/// operands, the overwhelmingly common case) are searched exhaustively with
/// a lexicographic tie-break — so an already-optimal chain maps to itself
/// and the pass stays idempotent; longer chains fall back to the greedy
/// order, kept only when it strictly improves on the syntactic order.
fn best_join_order(vars: &[VarSet]) -> Vec<usize> {
    let n = vars.len();
    if n <= 4 {
        let mut best: Option<(usize, Vec<usize>)> = None;
        let mut perm: Vec<usize> = (0..n).collect();
        // Lexicographic permutation walk (identity first), so the first
        // minimizer found is the lexicographically smallest.
        loop {
            let bound = chain_bound(vars, &perm);
            if best.as_ref().is_none_or(|(b, _)| bound < *b) {
                best = Some((bound, perm.clone()));
            }
            if !next_permutation(&mut perm) {
                break;
            }
        }
        best.expect("at least one permutation").1
    } else {
        let identity: Vec<usize> = (0..n).collect();
        let greedy = greedy_join_order(vars);
        if chain_bound(vars, &greedy) < chain_bound(vars, &identity) {
            greedy
        } else {
            identity
        }
    }
}

/// Advances `perm` to the next lexicographic permutation; `false` at the
/// last one.
fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let Some(i) = (0..n - 1).rev().find(|&i| perm[i] < perm[i + 1]) else {
        return false;
    };
    let j = (i + 1..n).rev().find(|&j| perm[j] > perm[i]).unwrap();
    perm.swap(i, j);
    perm[i + 1..].reverse();
    true
}

/// Greedy join ordering: start from the first operand, then repeatedly pick
/// the operand sharing the fewest variables with everything accumulated so
/// far (ties broken by operand position, which makes the order stable and
/// the pass idempotent).
fn greedy_join_order(vars: &[VarSet]) -> Vec<usize> {
    let n = vars.len();
    let mut used = vec![false; n];
    used[0] = true;
    let mut acc = vars[0].clone();
    let mut order = vec![0usize];
    while order.len() < n {
        let mut best: Option<(usize, usize)> = None; // (shared count, index)
        for (i, v) in vars.iter().enumerate() {
            if used[i] {
                continue;
            }
            let shared = acc.intersection(v).len();
            if best.is_none_or(|(s, _)| shared < s) {
                best = Some((shared, i));
            }
        }
        let (_, i) = best.expect("unused operand remains");
        used[i] = true;
        acc = acc.union(&vars[i]);
        order.push(i);
    }
    order
}

/// The maximum number of shared variables introduced by any step of a
/// left-deep chain over `order`.
fn chain_bound(vars: &[VarSet], order: &[usize]) -> usize {
    let mut acc = vars[order[0]].clone();
    let mut bound = 0;
    for &i in &order[1..] {
        bound = bound.max(acc.intersection(&vars[i]).len());
        acc = acc.union(&vars[i]);
    }
    bound
}

/// The shared-variable bound of the *original* join shape, evaluated over
/// the operands' post-projection schemas (`new_vars`, in operand order).
fn shape_bound(tree: &RaTree, new_vars: &[VarSet]) -> usize {
    fn walk(tree: &RaTree, vars: &mut std::slice::Iter<'_, VarSet>) -> (VarSet, usize) {
        match tree {
            RaTree::Join(l, r) => {
                let (lv, lb) = walk(l, vars);
                let (rv, rb) = walk(r, vars);
                let here = lv.intersection(&rv).len();
                (lv.union(&rv), here.max(lb).max(rb))
            }
            _ => (vars.next().expect("operand count matches shape").clone(), 0),
        }
    }
    walk(tree, &mut new_vars.iter()).1
}

/// Rebuilds the original join shape over the rewritten operands (taken in
/// operand order).
fn rebuild_shape(tree: &RaTree, operands: &mut std::slice::IterMut<'_, RaTree>) -> RaTree {
    match tree {
        RaTree::Join(l, r) => {
            let left = rebuild_shape(l, operands);
            let right = rebuild_shape(r, operands);
            RaTree::join(left, right)
        }
        _ => std::mem::replace(
            operands.next().expect("operand count matches shape"),
            RaTree::Leaf(LeafId::MAX),
        ),
    }
}

/// Joins rewritten operands left-deep in the given order.
fn build_left_deep(order: &[usize], operands: &mut [RaTree]) -> RaTree {
    let mut iter = order.iter();
    let first = *iter.next().expect("join has at least one operand");
    let mut acc = std::mem::replace(&mut operands[first], RaTree::Leaf(LeafId::MAX));
    for &i in iter {
        let op = std::mem::replace(&mut operands[i], RaTree::Leaf(LeafId::MAX));
        acc = RaTree::join(acc, op);
    }
    acc
}

// ---------------------------------------------------------------------------
// Compiled plans: lowering onto the physical operator executor.
// ---------------------------------------------------------------------------

use spanner_vset::scan::contains_factor;
use spanner_vset::{join, CompiledVsa, Vsa};

/// A compiled plan: the document-independent parts of an RA tree are
/// compiled into shared automata once and the whole tree is lowered onto
/// the physical operator executor ([`crate::exec`]), so evaluating the plan
/// over many documents only pays relational work — never per-document
/// automaton composition.
///
/// `CompiledPlan` is `Send + Sync`: after [`CompiledPlan::compile`] it is
/// read-only, so one plan can be shared by any number of worker threads
/// (the `spanner-corpus` engine does exactly that).
pub struct CompiledPlan {
    physical: PhysicalPlan,
    tree: RaTree,
    options: RaOptions,
    /// [`CompiledPlan::required_literals`], worked out by the first
    /// caller: a store query, `explain` or a screened document.
    literals: OnceLock<Vec<Vec<u8>>>,
}

/// What [`CompiledPlan::evaluate_screened`] did with one document.
#[derive(Debug)]
pub enum Screened<O> {
    /// The pre-pass proved the result empty without evaluating.
    Empty,
    /// The document was evaluated: the result and the observation.
    Evaluated(SpannerResult<MappingSet>, O),
}

/// Intermediate result of plan construction: either a static automaton
/// (document-independent so far, still growable by further static algebra)
/// or an already-lowered physical operator.
enum Built {
    Static(Vsa),
    Dynamic(PhysOp),
}

impl Built {
    /// Finalizes into a physical operator; a static subtree becomes a
    /// compiled scan here, which is the only place automata are compiled —
    /// every leaf of the operator tree is therefore compiled exactly once.
    fn into_op(self, options: RaOptions) -> SpannerResult<PhysOp> {
        match self {
            Built::Static(vsa) => compiled_scan(&vsa, options),
            Built::Dynamic(op) => Ok(op),
        }
    }
}

/// The most states one compiled automaton may have, and the planner's one
/// automaton bound: a static join product stops growing past it, and
/// [`compiled_scan`] refuses any other automaton past it. Its evaluation
/// tables hold `|Q|`-bit sets, and a document may intern a new one at
/// every position: the cap keeps each set at 4 KiB.
const MAX_STATES: usize = 32_768;

/// Wraps a static automaton as a compiled-scan operator; an automaton past
/// [`MAX_STATES`] is refused before it is compiled.
fn compiled_scan(vsa: &Vsa, options: RaOptions) -> SpannerResult<PhysOp> {
    if vsa.state_count() > MAX_STATES {
        return Err(SpannerError::LimitExceeded {
            what: "compiled automaton states",
            limit: MAX_STATES,
            actual: vsa.state_count(),
        });
    }
    Ok(PhysOp::CompiledScan {
        compiled: Arc::new(CompiledVsa::compile(vsa)),
        fast_path: options.scan_fast_path,
    })
}

/// Appends a lowered union input, splicing nested unions into one n-ary
/// operator (duplicate *operands* were already removed by the logical
/// rewrite; the executor dedups at the mapping level).
fn push_union_input(op: PhysOp, out: &mut Vec<PhysOp>) {
    match op {
        PhysOp::UnionAll(ops) => out.extend(ops),
        other => out.push(other),
    }
}

impl CompiledPlan {
    /// Optimizes (unless `options.optimize` is off) and compiles an
    /// instantiated RA tree, lowering it onto the physical executor.
    pub fn compile(
        tree: &RaTree,
        inst: &Instantiation,
        options: RaOptions,
    ) -> SpannerResult<CompiledPlan> {
        let tree = if options.optimize {
            optimize_ra(tree, inst)?
        } else {
            tree.clone()
        };
        let root = Self::build(&tree, inst, options)?.into_op(options)?;
        Ok(CompiledPlan {
            // `max_signatures` bounds the executor's materialized
            // intermediate relations, the successor of its old role as the
            // Lemma 4.2 signature cap in the recomposition path.
            physical: PhysicalPlan::with_limit(root, options.max_signatures),
            tree,
            options,
            literals: OnceLock::new(),
        })
    }

    fn build(tree: &RaTree, inst: &Instantiation, options: RaOptions) -> SpannerResult<Built> {
        Ok(match tree {
            RaTree::Leaf(id) => match resolve_atom(inst, *id)? {
                Atom::BlackBox(s) => Built::Dynamic(PhysOp::BlackBoxScan(Arc::clone(s))),
                atom => Built::Static(compile_static_atom(*id, atom)?),
            },
            RaTree::Project(keep, child) => match Self::build(child, inst, options)? {
                // Static projection happens at the automaton level, before
                // any product construction (the planner pushed it down for
                // exactly that reason).
                Built::Static(vsa) => Built::Static(vsa.project(keep)),
                Built::Dynamic(op) => Built::Dynamic(PhysOp::Project {
                    keep: keep.clone(),
                    input: Box::new(op),
                }),
            },
            RaTree::Union(l, r) => {
                let left = Self::build(l, inst, options)?;
                let right = Self::build(r, inst, options)?;
                match (left, right) {
                    (Built::Static(a), Built::Static(b)) => Built::Static(a.union(&b)),
                    (left, right) => {
                        let mut inputs = Vec::new();
                        push_union_input(left.into_op(options)?, &mut inputs);
                        push_union_input(right.into_op(options)?, &mut inputs);
                        Built::Dynamic(PhysOp::UnionAll(inputs))
                    }
                }
            }
            RaTree::Join(l, r) => {
                let left = Self::build(l, inst, options)?;
                let right = Self::build(r, inst, options)?;
                match (left, right) {
                    // Static joins keep the paper's FPT product (Lemma 3.2):
                    // the automaton compiles once, the shared-variable bound
                    // governs its size and `MAX_STATES` caps its build.
                    (Built::Static(a), Built::Static(b)) => Built::Static(join::join_with_options(
                        &a,
                        &b,
                        join::JoinOptions {
                            max_states: MAX_STATES,
                        },
                    )?),
                    (left, right) => Built::Dynamic(PhysOp::HashJoin {
                        left: Box::new(left.into_op(options)?),
                        right: Box::new(right.into_op(options)?),
                    }),
                }
            }
            RaTree::Difference(l, r) => {
                // Difference is always a physical anti-join: both operands
                // are lowered (compiling their static parts once) and the
                // probe side is evaluated as a relation — no per-document
                // product automaton (Theorem 4.8) is composed in a plan.
                let left = Self::build(l, inst, options)?.into_op(options)?;
                let right = Self::build(r, inst, options)?.into_op(options)?;
                Built::Dynamic(PhysOp::Difference {
                    input: Box::new(left),
                    probe: Box::new(right),
                })
            }
        })
    }

    /// Evaluates the plan on one document through the physical executor.
    pub fn evaluate(&self, doc: &Document) -> SpannerResult<MappingSet> {
        self.evaluate_observed::<NoTrace>(doc).0
    }

    /// [`CompiledPlan::evaluate`] under an [`Observer`] of the caller's
    /// choosing — [`ExecTrace`](crate::ExecTrace) for a per-operator
    /// execution trace. The observation is returned alongside the result —
    /// also when evaluation fails, so limit trips stay observable.
    pub fn evaluate_observed<O: Observer>(&self, doc: &Document) -> (SpannerResult<MappingSet>, O) {
        self.execute_observed(doc, false)
    }

    /// The per-document step of a multi-document pass: the plan's
    /// document-level pre-pass first, and the executor only for a document
    /// it could not prove empty. The pre-pass is the scans' static
    /// prefilters ([`PhysOp::prescan_skips`]) and the plan's required
    /// literals ([`CompiledPlan::required_literals`], worked out once per
    /// plan): a document that lacks one has no mapping. The executor is
    /// told that the pre-pass already accepted the scans it walked, so no
    /// prefilter is checked twice; results and observations are those of
    /// [`CompiledPlan::evaluate_observed`]. Without the scan fast path
    /// every document is evaluated.
    pub fn evaluate_screened<O: Observer>(&self, doc: &Document) -> Screened<O> {
        let root = self.physical.root();
        if self.options.scan_fast_path
            && (root.prescan_skips(doc)
                || self
                    .required_literals()
                    .iter()
                    .any(|literal| !contains_factor(doc.bytes(), literal)))
        {
            return Screened::Empty;
        }
        let (result, observed) = self.execute_observed(doc, true);
        Screened::Evaluated(result, observed)
    }

    fn execute_observed<O: Observer>(
        &self,
        doc: &Document,
        prescanned: bool,
    ) -> (SpannerResult<MappingSet>, O) {
        let root = self.physical.root();
        let limit = self.options.max_signatures;
        O::observe(root, |obs| root.execute(doc, limit, prescanned, obs))
    }

    /// Streams the plan's mappings on one document, lazily only where
    /// laziness exists ([`OpStream`]): a static plan off its compiled
    /// automaton with polynomial delay (Theorem 5.2); a difference root
    /// against a probe side materialized at open, its first answer early
    /// but with no delay bound beyond its input's; any other root evaluated
    /// at open, under `max_signatures` as [`CompiledPlan::evaluate`] runs
    /// it, and drained.
    pub fn stream<'a>(&'a self, doc: &'a Document) -> SpannerResult<OpStream<'a>> {
        self.physical
            .root()
            .stream_bounded(doc, self.options.max_signatures)
    }

    /// Byte strings every document with a non-empty result must contain
    /// (see [`PhysOp::required_literals`]); empty = no constraint. Corpus
    /// indexes use these to prune documents without visiting them. Worked
    /// out once per plan.
    pub fn required_literals(&self) -> &[Vec<u8>] {
        self.literals
            .get_or_init(|| self.physical.root().required_literals())
    }

    /// Whether the whole plan compiled into one static automaton (no
    /// per-document composition at all).
    pub fn is_static(&self) -> bool {
        matches!(self.physical.root(), PhysOp::CompiledScan { .. })
    }

    /// The lowered physical operator tree (shared, cheap to clone).
    pub fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// The optimized logical tree the plan was compiled from.
    pub fn tree(&self) -> &RaTree {
        &self.tree
    }
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompiledPlan({}, {})",
            if self.is_static() {
                "static".to_string()
            } else {
                "dynamic".to_string()
            },
            self.tree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratree::{figure_2_tree, shared_variable_bound};
    use crate::spanner::WholeDocument;
    use spanner_rgx::parse;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_plan_is_send_and_sync() {
        assert_send_sync::<CompiledPlan>();
    }

    #[test]
    fn duplicate_union_operands_are_dropped() {
        let tree = RaTree::union(
            RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(0),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a}").unwrap())
            .with(1, parse("{x:b}").unwrap());
        let optimized = optimize_ra(&tree, &inst).unwrap();
        assert_eq!(optimized.leaves(), vec![0, 1]);
    }

    #[test]
    fn projection_stops_at_difference() {
        let tree = figure_2_tree(VarSet::from_iter(["student"]));
        let inst = Instantiation::new()
            .with(0, parse("{student:a}{mail:b}").unwrap())
            .with(1, parse("{student:a}{phone:b?}").unwrap())
            .with(2, parse("{student:a}{rec:b}").unwrap());
        let optimized = optimize_ra(&tree, &inst).unwrap();
        assert!(
            matches!(&optimized, RaTree::Project(_, child) if matches!(child.as_ref(), RaTree::Difference(_, _))),
            "projection must stay above the difference: {optimized}"
        );
    }

    #[test]
    fn optimizer_is_idempotent_on_figure_2() {
        let tree = figure_2_tree(VarSet::from_iter(["student"]));
        let inst = Instantiation::new()
            .with(0, parse("{student:a}{mail:b}").unwrap())
            .with(1, parse("{student:a}{phone:b?}").unwrap())
            .with(2, parse("{student:a}{rec:b}").unwrap());
        let once = optimize_ra(&tree, &inst).unwrap();
        let twice = optimize_ra(&once, &inst).unwrap();
        assert_eq!(once, twice);
        assert!(
            shared_variable_bound(&once, &inst).unwrap()
                <= shared_variable_bound(&tree, &inst).unwrap()
        );
    }

    #[test]
    fn stream_matches_evaluate_on_static_and_dynamic_plans() {
        let static_tree = RaTree::union(RaTree::leaf(0), RaTree::leaf(1));
        let dynamic_tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let black_box_tree = RaTree::union(RaTree::leaf(0), RaTree::leaf(2));
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}b*").unwrap())
            .with(1, parse("{x:a}b").unwrap())
            .with_black_box(2, WholeDocument);
        for tree in [static_tree, dynamic_tree, black_box_tree] {
            let plan = CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap();
            for text in ["ab", "aab", "b", ""] {
                let doc = Document::new(text);
                let streamed: MappingSet = plan
                    .stream(&doc)
                    .unwrap()
                    .collect::<SpannerResult<Vec<_>>>()
                    .unwrap()
                    .into_iter()
                    .collect();
                assert_eq!(streamed, plan.evaluate(&doc).unwrap(), "{tree} on {text:?}");
            }
        }
    }

    #[test]
    fn required_literals_compose_through_the_operators() {
        let lits = |tree: &RaTree, inst: &Instantiation| {
            CompiledPlan::compile(tree, inst, RaOptions::default())
                .unwrap()
                .required_literals()
                .to_vec()
        };
        // A single scan surfaces its automaton's literals.
        let inst = Instantiation::new()
            .with(0, parse(".*foo{x:a+}.*").unwrap())
            .with(1, parse(".*bar{x:a+}.*").unwrap());
        let has = |set: &[Vec<u8>], needle: &[u8]| {
            set.iter()
                .any(|l| l.windows(needle.len()).any(|w| w == needle))
        };
        let leaf = lits(&RaTree::leaf(0), &inst);
        assert!(has(&leaf, b"foo"), "{leaf:?}");

        // Difference: bounded by the input side only.
        let diff = lits(&RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)), &inst);
        assert!(has(&diff, b"foo"), "{diff:?}");
        assert!(!has(&diff, b"bar"), "{diff:?}");

        // Union: only literals every branch requires survive — "foo" and
        // "bar" don't, though their common capture factor "a" does.
        let union = lits(&RaTree::union(RaTree::leaf(0), RaTree::leaf(1)), &inst);
        assert!(!has(&union, b"foo") && !has(&union, b"bar"), "{union:?}");
        assert!(has(&union, b"a"), "{union:?}");
        // ...but a common factor of both branches survives.
        let inst2 = Instantiation::new()
            .with(0, parse(".*foobar{x:a+}.*").unwrap())
            .with(1, parse(".*oba{x:a+}.*").unwrap());
        let union2 = lits(&RaTree::union(RaTree::leaf(0), RaTree::leaf(1)), &inst2);
        assert!(has(&union2, b"oba"), "{union2:?}");

        // A black-box operand constrains nothing, and poisons a union.
        let inst3 = Instantiation::new()
            .with(0, parse(".*foo{t:a+}.*").unwrap())
            .with_black_box(1, WholeDocument);
        assert!(lits(&RaTree::leaf(1), &inst3).is_empty());
        assert!(lits(&RaTree::union(RaTree::leaf(0), RaTree::leaf(1)), &inst3).is_empty());
        // A join needs both sides: the static side's literals remain.
        let join = lits(&RaTree::join(RaTree::leaf(0), RaTree::leaf(1)), &inst3);
        assert!(has(&join, b"foo"), "{join:?}");
    }
}
