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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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

use spanner_vset::join::{join_with_options, JoinOptions};
use spanner_vset::scan::contains_factor;
use spanner_vset::{CompiledVsa, Vsa};

/// A compiled plan: the document-independent parts of an RA tree are
/// compiled into shared automata and the whole tree is lowered onto the
/// physical operator executor ([`crate::exec`]), so evaluating the plan
/// over many documents only pays relational work — never per-document
/// automaton composition.
///
/// [`CompiledPlan::compile`] does not build a static join whose Lemma 3.2
/// product provably fits [`MAX_STATES`]: the join runs as a
/// [`PhysOp::HashJoin`] over its operands' compiled scans until the plan
/// has been asked for [`BUILD_AT_DOCS`] documents, until a document
/// makes one of its relations pass [`DEFERRED_ROWS`] mappings, or until
/// [`CompiledPlan::build_products`]. Then every deferred product is built,
/// once, from the automata the compile made, and evaluation moves to the
/// lowering with each static subtree one automaton. A one-shot program
/// over a few documents never pays for a product.
/// [`CompiledPlan::prepare`] is the compile followed by the build, for a
/// program kept for reuse.
///
/// The lowering a plan compiled to is its *screen* for life: the document
/// pre-pass and the required literals a store prunes on are its, before
/// the build and after, whichever request compiled it, so a plan's
/// tallies and candidate sets do not change when its products are built.
/// Answers are the built lowering's on either: a document the hash join
/// cannot answer within [`DEFERRED_ROWS`] is answered by the built one.
///
/// `CompiledPlan` is `Send + Sync`: one plan can be shared by any number
/// of worker threads (the `spanner-corpus` engine does exactly that), and
/// only the build takes a lock.
pub struct CompiledPlan {
    tree: RaTree,
    options: RaOptions,
    is_static: bool,
    /// The lowering the plan compiled to, and its screen.
    compiled: PhysicalPlan,
    /// [`CompiledPlan::required_literals`], worked out by the first
    /// caller: a store query, `explain` or a screened document.
    literals: OnceLock<Vec<Vec<u8>>>,
    /// The lowering with every product built: a handle on `compiled` when
    /// nothing was deferred, else set by the build.
    built: OnceLock<PhysicalPlan>,
    /// Documents the plan has been asked to evaluate while its products
    /// are deferred.
    docs: AtomicUsize,
    /// What builds the deferred products; `None` once they are built, and
    /// when nothing was deferred. Only the build takes this lock.
    recipe: Mutex<Option<Recipe>>,
}

/// What a selection of documents is evaluated on
/// ([`CompiledPlan::select`]): the plan's screen and its current lowering.
#[derive(Clone, Copy)]
pub struct Tier<'a> {
    plan: &'a CompiledPlan,
    lowering: &'a PhysicalPlan,
    /// Whether `lowering` is the one with products deferred.
    deferred: bool,
}

/// What [`Tier::evaluate_screened`] did with one document.
#[derive(Debug)]
pub enum Screened<O> {
    /// The pre-pass proved the result empty without evaluating.
    Empty,
    /// The document was evaluated: the result and the observation.
    Evaluated(SpannerResult<MappingSet>, O),
}

/// Intermediate result of plan construction: a static automaton
/// (document-independent so far, still growable by further static
/// algebra), a subtree lowered with join products deferred, or an
/// already-lowered physical operator.
enum Built {
    Static(Vsa),
    /// A subtree with a deferred join product: its lowering until the
    /// build, what the build makes of it, and — for a static subtree — its
    /// variables and a bound on the states of the automaton it builds to.
    Deferred {
        op: PhysOp,
        recipe: Recipe,
        shape: Option<(VarSet, usize)>,
    },
    Dynamic(PhysOp),
}

/// How a subtree with deferred join products is built: the automata and
/// operators the compile made for it, put together with every product
/// built ([`Recipe::build`]). Nothing is resolved or compiled twice.
enum Recipe {
    Static(Vsa),
    Dynamic(PhysOp),
    Project(VarSet, Box<Recipe>),
    Union(Box<Recipe>, Box<Recipe>),
    Join(Box<Recipe>, Box<Recipe>),
    Difference(Box<Recipe>, Box<Recipe>),
}

impl Recipe {
    /// The subtree with every product built, each static subtree one
    /// automaton. The automata are cloned, so a failed build can be asked
    /// for again.
    fn build(&self, options: RaOptions) -> SpannerResult<Built> {
        let build = |recipe: &Recipe| recipe.build(options);
        match self {
            Recipe::Static(vsa) => Ok(Built::Static(vsa.clone())),
            Recipe::Dynamic(op) => Ok(Built::Dynamic(op.clone())),
            Recipe::Project(keep, child) => Ok(project(keep, build(child)?)),
            Recipe::Union(l, r) => union(build(l)?, build(r)?, options),
            Recipe::Join(l, r) => join(build(l)?, build(r)?, options, false),
            Recipe::Difference(l, r) => difference(build(l)?, build(r)?, options),
        }
    }
}

impl Built {
    /// Finalizes into a physical operator; a static subtree becomes a
    /// compiled scan here or in [`Built::lower`], the only places automata
    /// are compiled — every leaf of the operator tree is therefore
    /// compiled exactly once.
    fn into_op(self, options: RaOptions) -> SpannerResult<PhysOp> {
        match self {
            Built::Static(vsa) => compiled_scan(&vsa, options),
            Built::Deferred { op, .. } | Built::Dynamic(op) => Ok(op),
        }
    }

    /// [`Built::into_op`], and the recipe of the subtree as an operand of
    /// a deferred product.
    fn lower(self, options: RaOptions) -> SpannerResult<(PhysOp, Recipe)> {
        Ok(match self {
            Built::Static(vsa) => (compiled_scan(&vsa, options)?, Recipe::Static(vsa)),
            Built::Deferred { op, recipe, .. } => (op, recipe),
            Built::Dynamic(op) => (op.clone(), Recipe::Dynamic(op)),
        })
    }

    /// The subtree with its deferred products built now.
    fn into_built(self, options: RaOptions) -> SpannerResult<Built> {
        match self {
            Built::Deferred { recipe, .. } => recipe.build(options),
            built => Ok(built),
        }
    }

    /// A static subtree's variables and (a bound on) its automaton's
    /// states; `None` for a dynamic one.
    fn static_shape(&self) -> Option<(&VarSet, usize)> {
        match self {
            Built::Static(vsa) => Some((vsa.vars(), vsa.state_count())),
            Built::Deferred { shape, .. } => shape.as_ref().map(|(vars, states)| (vars, *states)),
            Built::Dynamic(_) => None,
        }
    }
}

/// The most states one compiled automaton may have, and the planner's one
/// automaton bound: a static join product stops growing past it, and
/// [`compiled_scan`] refuses any other automaton past it. Its evaluation
/// tables hold `|Q|`-bit sets, and a document may intern a new one at
/// every position: the cap keeps each set at 4 KiB.
const MAX_STATES: usize = 32_768;

/// The documents after which a plan builds its deferred join products:
/// once it has been asked for this many in all, the selection that
/// reaches it included, the products are built before that selection is
/// evaluated. Placed on `store-adhoc`'s join template over matching
/// lines, where the `ql/break-even/adhoc/*` rows measure the build at 43–91 µs
/// and a line at 2.1–4.2 µs on the hash join against 0.6–1.4 µs on the
/// product, as the machine's speed moves. In yardsticks the build has
/// paid for itself after 20–30 lines, 24 in the median of 17 runs.
/// Measured on that template only; a larger product costs more to build
/// (DESIGN §3). A constant, not an option: it follows the engine, not the
/// query.
pub const BUILD_AT_DOCS: usize = 24;

/// The most mappings a relation may hold on the hash-join lowering of a
/// plan with deferred products: a document on which one passes this
/// builds the products and is answered by the built lowering, under
/// `max_signatures`. So the hash join's operand relations, which the
/// product never materializes, cannot change an answer, and the deferral
/// stops where it stops paying: the hash join of `.*{x:.*}.*` and
/// `.*{x:needle}.*` materializes a mapping in ≈ 0.6 µs, and 128 of them
/// cost about one build of `store-adhoc`'s join product.
const DEFERRED_ROWS: usize = 128;

/// The most states the Lemma 3.2 product of operands of `left` and `right`
/// states sharing `shared` variables can have. A product state pairs two
/// operand states with, per shared variable, each operand's pending open
/// and close (two bits each) and the variable's mode (four values): 64 per
/// shared variable. The product adds its own initial state. `None` past
/// `usize`.
fn product_bound(left: usize, right: usize, shared: usize) -> Option<usize> {
    64usize
        .checked_pow(u32::try_from(shared).ok()?)?
        .checked_mul(left)?
        .checked_mul(right)?
        .checked_add(1)
}

/// The variables of the product of two static subtrees and a bound on its
/// states, when that bound provably fits [`MAX_STATES`].
fn product_fits(left: &Built, right: &Built) -> Option<(VarSet, usize)> {
    let ((lv, ls), (rv, rs)) = left.static_shape().zip(right.static_shape())?;
    let states = product_bound(ls, rs, lv.intersection(rv).len())?;
    (states <= MAX_STATES).then(|| (lv.union(rv), states))
}

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

/// `π_keep` over a lowered subtree: at the automaton level for a static
/// one, before any product construction (the planner pushed it down for
/// exactly that reason).
fn project(keep: &VarSet, child: Built) -> Built {
    match child {
        Built::Static(vsa) => Built::Static(vsa.project(keep)),
        Built::Deferred { op, recipe, shape } => Built::Deferred {
            op: project_op(keep, op),
            recipe: Recipe::Project(keep.clone(), Box::new(recipe)),
            shape: shape.map(|(vars, states)| (vars.intersection(keep), states)),
        },
        Built::Dynamic(op) => Built::Dynamic(project_op(keep, op)),
    }
}

/// The union of two lowered subtrees. Two static ones are one automaton
/// with one more initial state; so is a static subtree with a deferred
/// product, once it is built, and a union that may pass [`MAX_STATES`]
/// then is built now, to be refused where it is compiled.
fn union(left: Built, right: Built, options: RaOptions) -> SpannerResult<Built> {
    if let (Built::Static(a), Built::Static(b)) = (&left, &right) {
        return Ok(Built::Static(a.union(b)));
    }
    let shape = left.static_shape().zip(right.static_shape());
    let shape = shape.map(|((lv, ls), (rv, rs))| (lv.union(rv), ls + rs + 1));
    if matches!(shape, Some((_, states)) if states > MAX_STATES) {
        return union(
            left.into_built(options)?,
            right.into_built(options)?,
            options,
        );
    }
    let union_all = |left, right| {
        let mut inputs = Vec::new();
        push_union_input(left, &mut inputs);
        push_union_input(right, &mut inputs);
        PhysOp::UnionAll(inputs)
    };
    combine(left, right, options, shape, union_all, Recipe::Union)
}

/// The join of two lowered subtrees. Two static ones keep the paper's FPT
/// product (Lemma 3.2): the automaton compiles once, the shared-variable
/// bound governs its size and `MAX_STATES` caps its build. A product that
/// provably fits the cap is deferred unless the build asks for it
/// (`defer` off): the join is a hash join of the operands' lowerings until
/// the plan builds it. A deferred operand of a product that may not fit is
/// built now.
fn join(left: Built, right: Built, options: RaOptions, defer: bool) -> SpannerResult<Built> {
    if let Some(shape) = defer.then(|| product_fits(&left, &right)).flatten() {
        let (left, left_recipe) = left.lower(options)?;
        let (right, right_recipe) = right.lower(options)?;
        return Ok(Built::Deferred {
            op: hash_join(left, right),
            recipe: Recipe::Join(Box::new(left_recipe), Box::new(right_recipe)),
            shape: Some(shape),
        });
    }
    match (left, right) {
        (Built::Static(a), Built::Static(b)) => {
            let options = JoinOptions {
                max_states: MAX_STATES,
            };
            Ok(Built::Static(join_with_options(&a, &b, options)?))
        }
        (left, right) if left.static_shape().is_some() && right.static_shape().is_some() => join(
            left.into_built(options)?,
            right.into_built(options)?,
            options,
            false,
        ),
        (left, right) => combine(left, right, options, None, hash_join, Recipe::Join),
    }
}

/// `left \ right`, always a physical anti-join: both operands are lowered
/// (compiling their static parts once) and the probe side is evaluated as
/// a relation — no per-document product automaton (Theorem 4.8) is
/// composed in a plan.
fn difference(left: Built, right: Built, options: RaOptions) -> SpannerResult<Built> {
    let anti_join = |input, probe| PhysOp::Difference {
        input: Box::new(input),
        probe: Box::new(probe),
    };
    combine(left, right, options, None, anti_join, Recipe::Difference)
}

/// Two lowered subtrees under one relational operator: deferred, with the
/// recipe `recipe` makes of theirs, when either holds a deferred product.
/// Under a dynamic operator (no `shape`), a static operand is the same
/// compiled scan built or not, so its recipe is that scan.
fn combine(
    left: Built,
    right: Built,
    options: RaOptions,
    shape: Option<(VarSet, usize)>,
    op: impl FnOnce(PhysOp, PhysOp) -> PhysOp,
    recipe: fn(Box<Recipe>, Box<Recipe>) -> Recipe,
) -> SpannerResult<Built> {
    let deferring = |built: &Built| matches!(built, Built::Deferred { .. });
    if !deferring(&left) && !deferring(&right) {
        return Ok(Built::Dynamic(op(
            left.into_op(options)?,
            right.into_op(options)?,
        )));
    }
    let operand = |built: Built| {
        let (op, recipe) = built.lower(options)?;
        Ok::<_, SpannerError>(match recipe {
            Recipe::Static(_) if shape.is_none() => (op.clone(), Recipe::Dynamic(op)),
            recipe => (op, recipe),
        })
    };
    let (left, left_recipe) = operand(left)?;
    let (right, right_recipe) = operand(right)?;
    Ok(Built::Deferred {
        op: op(left, right),
        recipe: recipe(Box::new(left_recipe), Box::new(right_recipe)),
        shape,
    })
}

impl CompiledPlan {
    /// Optimizes (unless `options.optimize` is off) and compiles an
    /// instantiated RA tree, lowering it onto the physical executor with
    /// its provably small join products deferred.
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
        let root = Self::build(&tree, inst, options)?;
        let is_static = root.static_shape().is_some();
        let (root, recipe) = match root {
            Built::Deferred { op, recipe, .. } => (op, Some(recipe)),
            root => (root.into_op(options)?, None),
        };
        let compiled = Self::physical_plan(root, options);
        let built = match recipe {
            Some(_) => OnceLock::new(),
            None => OnceLock::from(compiled.clone()),
        };
        Ok(CompiledPlan {
            tree,
            options,
            is_static,
            compiled,
            literals: OnceLock::new(),
            built,
            docs: AtomicUsize::new(0),
            recipe: Mutex::new(recipe),
        })
    }

    /// [`CompiledPlan::compile`], then [`CompiledPlan::build_products`]:
    /// the plan of a program kept for reuse, with the compile's screen.
    pub fn prepare(
        tree: &RaTree,
        inst: &Instantiation,
        options: RaOptions,
    ) -> SpannerResult<CompiledPlan> {
        let plan = Self::compile(tree, inst, options)?;
        plan.build_products()?;
        Ok(plan)
    }

    fn physical_plan(root: PhysOp, options: RaOptions) -> PhysicalPlan {
        // `max_signatures` bounds the executor's materialized intermediate
        // relations, the successor of its old role as the Lemma 4.2
        // signature cap in the recomposition path.
        PhysicalPlan::with_limit(root, options.max_signatures)
    }

    /// Lowers `tree`: a join product that provably fits [`MAX_STATES`] is
    /// deferred (see [`join`]), any other static subtree becomes one
    /// automaton, and a product past the cap is refused while it is built.
    fn build(tree: &RaTree, inst: &Instantiation, options: RaOptions) -> SpannerResult<Built> {
        let build = |tree| Self::build(tree, inst, options);
        match tree {
            RaTree::Leaf(id) => Ok(match resolve_atom(inst, *id)? {
                Atom::BlackBox(s) => Built::Dynamic(PhysOp::BlackBoxScan(Arc::clone(s))),
                atom => Built::Static(compile_static_atom(*id, atom)?),
            }),
            RaTree::Project(keep, child) => Ok(project(keep, build(child)?)),
            RaTree::Union(l, r) => union(build(l)?, build(r)?, options),
            RaTree::Join(l, r) => join(build(l)?, build(r)?, options, true),
            RaTree::Difference(l, r) => difference(build(l)?, build(r)?, options),
        }
    }

    /// Builds the deferred join products, if any are left: what `prepare`
    /// and `explain` ask for, so that the program runs — and is described
    /// as — the lowering with every product built. Called once or many
    /// times, by one thread or several, the products are built once. A
    /// build that fails (none does: every deferred product is bounded under
    /// the state cap) leaves the plan on its hash-join lowering and is
    /// reported.
    pub fn build_products(&self) -> SpannerResult<()> {
        self.built_lowering().map(|_| ())
    }

    /// The lowering with every product built, built now if need be: under
    /// the recipe's lock, so racing callers share one build.
    fn built_lowering(&self) -> SpannerResult<&PhysicalPlan> {
        if let Some(built) = self.built.get() {
            return Ok(built);
        }
        // The recipe only goes once the lowering is set, so a poisoned
        // lock still holds a valid one.
        let mut recipe = self.recipe.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(waiting) = recipe.as_ref() {
            let root = waiting.build(self.options)?.into_op(self.options)?;
            let _ = self.built.set(Self::physical_plan(root, self.options));
            *recipe = None;
        }
        Ok(self.built.get().expect("built before the recipe went"))
    }

    /// What to evaluate a selection of `docs` more documents on, counting
    /// them: the hash-join lowering while products are deferred — until
    /// the plan has been asked for [`BUILD_AT_DOCS`] documents in all,
    /// this selection included. That selection builds the products before
    /// it is evaluated, so a large one-shot scan runs on them from its
    /// first document. Counting takes no lock.
    pub fn select(&self, docs: usize) -> Tier<'_> {
        let tier = |lowering, deferred| Tier {
            plan: self,
            lowering,
            deferred,
        };
        if let Some(built) = self.built.get() {
            return tier(built, false);
        }
        let asked = self.docs.fetch_add(docs, Ordering::Relaxed);
        if asked.saturating_add(docs) >= BUILD_AT_DOCS {
            match self.built_lowering() {
                Ok(built) => return tier(built, false),
                // Counted again before the next attempt.
                Err(_) => self.docs.store(0, Ordering::Relaxed),
            }
        }
        tier(&self.compiled, true)
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
        self.select(1).execute_observed(doc, false)
    }

    /// Streams the plan's mappings on one document, lazily only where
    /// laziness exists ([`OpStream`]): a static plan off its compiled
    /// automaton with polynomial delay (Theorem 5.2) once its products are
    /// built; a difference root against a probe side materialized at open,
    /// its first answer early but with no delay bound beyond its input's;
    /// any other root evaluated at open, under `max_signatures` as
    /// [`CompiledPlan::evaluate`] runs it, and drained. On the hash-join
    /// lowering, a document it cannot open a stream on is streamed off the
    /// built one, as [`Tier::evaluate_screened`] evaluates it.
    pub fn stream<'a>(&'a self, doc: &'a Document) -> SpannerResult<OpStream<'a>> {
        let tier = self.select(1);
        let limit = self.options.max_signatures;
        if !tier.deferred {
            return tier.lowering.root().stream_bounded(doc, limit);
        }
        let deferred = tier.lowering.root();
        deferred
            .stream_bounded(doc, limit.min(DEFERRED_ROWS))
            .or_else(|_| match self.built_lowering() {
                Ok(built) => built.root().stream_bounded(doc, limit),
                Err(_) => deferred.stream_bounded(doc, limit),
            })
    }

    /// Byte strings every document with a non-empty result must contain
    /// (see [`PhysOp::required_literals`]), read off the plan's screen;
    /// empty = no constraint. Corpus indexes use these to prune documents
    /// without visiting them. Worked out once per plan.
    pub fn required_literals(&self) -> &[Vec<u8>] {
        self.literals
            .get_or_init(|| self.compiled.root().required_literals())
    }

    /// Whether the whole plan compiles into one static automaton (no
    /// per-document composition at all) — once its products are built.
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// The lowered physical operator tree evaluation runs on now (shared,
    /// cheap to clone).
    pub fn physical(&self) -> &PhysicalPlan {
        self.built.get().unwrap_or(&self.compiled)
    }

    /// The optimized logical tree the plan was compiled from.
    pub fn tree(&self) -> &RaTree {
        &self.tree
    }
}

/// `π_keep` over a lowered operator.
fn project_op(keep: &VarSet, input: PhysOp) -> PhysOp {
    PhysOp::Project {
        keep: keep.clone(),
        input: Box::new(input),
    }
}

fn hash_join(left: PhysOp, right: PhysOp) -> PhysOp {
    PhysOp::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
    }
}

impl<'a> Tier<'a> {
    /// The lowering the selection runs on.
    pub fn physical(&self) -> &'a PhysicalPlan {
        self.lowering
    }

    /// The per-document step of a multi-document pass: the plan's
    /// document-level pre-pass first, and the executor only for a document
    /// it could not prove empty. The pre-pass is the screen's static
    /// prefilters ([`PhysOp::prescan_skips`]) and required literals
    /// ([`CompiledPlan::required_literals`]): a document that lacks one has
    /// no mapping. Where the screen is the lowering that runs, the executor
    /// is told that the pre-pass already accepted the scans it walked, so
    /// no prefilter is checked twice. Results and observations are those
    /// of [`CompiledPlan::evaluate_observed`]. Without the scan fast path
    /// every document is evaluated.
    pub fn evaluate_screened<O: Observer>(&self, doc: &Document) -> Screened<O> {
        let plan = self.plan;
        if plan.options.scan_fast_path
            && (plan.compiled.root().prescan_skips(doc)
                || plan
                    .required_literals()
                    .iter()
                    .any(|literal| !contains_factor(doc.bytes(), literal)))
        {
            return Screened::Empty;
        }
        let prescanned = std::ptr::eq(self.lowering.root(), plan.compiled.root());
        let (result, observed) = self.execute_observed(doc, prescanned);
        Screened::Evaluated(result, observed)
    }

    /// Executes the selection's lowering on `doc`. On the hash-join
    /// lowering, every relation is held to [`DEFERRED_ROWS`] mappings; a
    /// document that passes it, or fails there otherwise, builds the
    /// products and is answered by the built lowering, so the hash join
    /// never changes an answer. The observation stays the hash-join
    /// lowering's, the shape every document of the selection reports.
    fn execute_observed<O: Observer>(
        &self,
        doc: &Document,
        prescanned: bool,
    ) -> (SpannerResult<MappingSet>, O) {
        let root = self.lowering.root();
        let limit = self.plan.options.max_signatures;
        if !self.deferred {
            return O::observe(root, |obs| root.execute(doc, limit, prescanned, obs));
        }
        let rows = limit.min(DEFERRED_ROWS);
        let (result, observed) = O::observe(root, |obs| root.execute(doc, rows, prescanned, obs));
        if result.is_ok() {
            return (result, observed);
        }
        let result = match self.plan.built_lowering() {
            Ok(built) => built.root().execute(doc, limit, false, &mut NoTrace),
            Err(_) => root.execute(doc, limit, prescanned, &mut NoTrace),
        };
        (result, observed)
    }
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = if self.is_static { "static" } else { "dynamic" };
        write!(f, "CompiledPlan({shape}, {})", self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratree::{figure_2_tree, shared_variable_bound};
    use crate::spanner::WholeDocument;
    use spanner_rgx::parse;
    use std::sync::Barrier;

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

    /// `store-adhoc`'s join template: a 17- and a 14-state operand sharing
    /// one variable, so its product is deferred (17 · 14 · 64 < 32 768).
    fn needle_join() -> CompiledPlan {
        let tree = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
        CompiledPlan::compile(&tree, &needle_inst(), RaOptions::default()).unwrap()
    }

    fn needle_inst() -> Instantiation {
        Instantiation::new()
            .with(0, parse(".*{x:needle}{y:[a-z ]}.*").unwrap())
            .with(1, parse(".*{x:needle}.*").unwrap())
    }

    fn root_is_one_scan(plan: &CompiledPlan) -> bool {
        matches!(plan.physical().root(), PhysOp::CompiledScan { .. })
    }

    #[test]
    fn a_deferred_product_is_built_exactly_once() {
        let plan = needle_join();
        assert!(plan.built.get().is_none() && plan.is_static());
        assert!(matches!(plan.physical().root(), PhysOp::HashJoin { .. }));
        let screen = plan.required_literals().as_ptr();
        let doc = Document::new("a needle here");
        let answer = plan.evaluate(&doc).unwrap();
        assert_eq!(answer.len(), 1);
        for _ in 2..BUILD_AT_DOCS {
            assert_eq!(plan.evaluate(&doc).unwrap(), answer);
        }
        assert!(
            plan.built.get().is_none(),
            "built below {BUILD_AT_DOCS} documents"
        );
        // Threads racing across the count share one build.
        let address = |tier: Tier| tier.physical().root() as *const PhysOp as usize;
        let start = Barrier::new(4);
        let roots: Vec<usize> = std::thread::scope(|scope| {
            let race = || {
                scope.spawn(|| {
                    start.wait();
                    address(plan.select(1))
                })
            };
            let handles: Vec<_> = (0..4).map(|_| race()).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(root_is_one_scan(&plan));
        plan.build_products().unwrap();
        let built = address(plan.select(1));
        assert!(roots.iter().all(|&root| root == built), "built twice");
        assert_eq!(plan.evaluate(&doc).unwrap(), answer);
        // The screen is the one the plan compiled to.
        assert_eq!(plan.required_literals().as_ptr(), screen);
    }

    #[test]
    fn a_selection_of_build_at_docs_builds_before_it_is_evaluated() {
        let join_root = |tier: Tier| matches!(tier.physical().root(), PhysOp::HashJoin { .. });
        let plan = needle_join();
        assert!(join_root(plan.select(BUILD_AT_DOCS - 1)));
        let plan = needle_join();
        assert!(!join_root(plan.select(BUILD_AT_DOCS)));
        assert!(root_is_one_scan(&plan));
        // `prepare` and `explain` build whatever the count says.
        let plan = needle_join();
        plan.build_products().unwrap();
        assert!(root_is_one_scan(&plan));
        // A plan prepared for reuse defers nothing.
        let prepared = CompiledPlan::prepare(&plan.tree, &needle_inst(), RaOptions::default());
        let prepared = prepared.unwrap();
        assert!(root_is_one_scan(&prepared));
    }

    #[test]
    fn a_product_that_may_not_fit_is_built_and_refused_at_compile_time() {
        // Two 1 003-state operands: 1 003² states may pass the cap, so the
        // product is not deferred, and its build stops at the cap.
        let class = "[ab]".repeat(1000);
        let tree = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(&format!(".*{{x:{class}}}.*")).unwrap())
            .with(1, parse(&format!(".*{{y:{class}}}.*")).unwrap());
        let err = CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("join product states"), "{message}");
    }

    #[test]
    fn a_union_that_may_not_fit_is_built_and_refused_at_compile_time() {
        // A leaf just under the cap, united with the needle join: the
        // union's bound passes the cap, so the product is built now, and
        // the union automaton, past the cap, is refused where it compiles.
        let class = "[ab]".repeat(MAX_STATES - 30);
        let big = parse(&format!(".*{{x:needle}}{{y:{class}}}.*")).unwrap();
        let tree = RaTree::union(
            RaTree::leaf(2),
            RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
        );
        let inst = needle_inst().with(2, big);
        for lower in [CompiledPlan::compile, CompiledPlan::prepare] {
            let err = lower(&tree, &inst, RaOptions::default()).unwrap_err();
            let message = err.to_string();
            assert!(message.contains("compiled automaton states"), "{message}");
        }
    }

    #[test]
    fn the_hash_join_never_changes_an_answer() {
        // Every span of the document on the left: past a 100-mapping
        // `max_signatures`, and past `DEFERRED_ROWS` on a longer document.
        // The product only ever holds the joined mapping.
        let tree = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(".*{x:.*}.*").unwrap())
            .with(1, parse(".*{x:needle}.*").unwrap());
        let tight = RaOptions {
            max_signatures: 100,
            ..RaOptions::default()
        };
        let short = Document::new("hay, hay and a needle");
        let long = Document::new(format!("{} needle", "hay ".repeat(12)));
        for (options, doc) in [(tight, &short), (RaOptions::default(), &long)] {
            let prepared = CompiledPlan::prepare(&tree, &inst, options).unwrap();
            let answer = prepared.evaluate(doc).unwrap();
            assert_eq!(answer.len(), 1);
            let plan = CompiledPlan::compile(&tree, &inst, options).unwrap();
            assert!(matches!(plan.physical().root(), PhysOp::HashJoin { .. }));
            assert_eq!(plan.evaluate(doc).unwrap(), answer);
            // The document built the products.
            assert!(root_is_one_scan(&plan));
            let plan = CompiledPlan::compile(&tree, &inst, options).unwrap();
            let streamed: SpannerResult<MappingSet> = plan.stream(doc).unwrap().collect();
            assert_eq!(streamed.unwrap(), answer);
            let plan = CompiledPlan::compile(&tree, &inst, options).unwrap();
            match plan.select(1).evaluate_screened::<NoTrace>(doc) {
                Screened::Evaluated(result, NoTrace) => assert_eq!(result.unwrap(), answer),
                Screened::Empty => panic!("screened out"),
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
