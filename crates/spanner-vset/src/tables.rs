//! Document-independent evaluation tables: matching a document as table
//! walks.
//!
//! Both halves of per-document evaluation recompute facts that depend only
//! on the automaton. [`EvalTables`] memoizes them across documents, over
//! slabs of interned state sets:
//!
//! * **backward** — the match-graph DP step. Per position `p` it tracks two
//!   sets: `U(p)`, the *useful* states (those that immediately progress at
//!   `p`: a letter transition on `d[p]` into a co-accessible state of
//!   `p + 1`, or accepting at `|d| + 1`), and `O(p)`, the states with an
//!   accepting continuation that still performs a variable operation. The
//!   step `(U, O)(p + 1), class of d[p] → (U, O)(p)` is a pure function of
//!   the automaton, so the backward pass is a DFA over interned pairs: one
//!   table lookup per byte. (The co-accessible set is derived — `q` is
//!   co-accessible at `p` iff its zero closure meets `U(p)`.)
//! * **forward** — the enumerator's two steps. `ops(F)` lists every
//!   `(operation set, reached states)` pair from a frontier `F`, in
//!   operation-set order; `step(S, class)` is the frontier after `S`
//!   consumes a byte. Neither looks at the document: whether a candidate is
//!   *viable* at a position is one `S ∩ U(p)` test, and whether the rest of
//!   the document is *forced* (one mapping, no more operations) is one
//!   `F ∩ O(p)` test.
//! * **stretches** — filled with each `ops(F)` row, the frontier's
//!   [`Stretch`] cell: ∅'s reached set `E` and the union of the other
//!   candidates' reached sets. A position `p` only advances the walk — ∅
//!   is the only viable candidate, `step(E, d[p]) = F`, and `F` is not
//!   forced at `p + 1` — when `E` meets `U(p)`, the union does not, and
//!   the `step` cell says `F` (the third condition then follows), so the
//!   enumerator crosses such positions in a loop of lookups (DESIGN §8,
//!   "Stretches").
//!
//! Cells are filled lazily — a miss costs what the per-document DP step or
//! op-closure exploration used to cost, a hit is a lookup — so a
//! never-seen automaton pays no build stall. The tables are flat `Vec`s
//! (the set index is an open-addressing table of ids), which keeps
//! [`Clone`] a handful of `memcpy`s: evaluators share the published tables
//! through an `Arc` and copy on the first miss of a document
//! ([`CompiledVsa::eval_tables`] / [`CompiledVsa::publish_eval_tables`]).

use crate::compiled::{bits, contains, insert, meet, union, CompiledVsa, StateSet};
use spanner_core::fxhash::FxHasher;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, PoisonError};

/// Byte budget of one automaton's tables. Tables published past it are
/// dropped and regrown from the documents that follow, so a pathological
/// automaton (exponentially many reachable subsets) cannot hold memory.
pub const EVAL_TABLE_BUDGET: usize = 1 << 20;

/// Empty-slot / unfilled-cell marker.
const UNFILLED: u32 = u32::MAX;

/// Id of an interned forward state set (a frontier, or the states a
/// candidate reaches).
pub type SetId = u32;

/// Id of a backward-DFA state: an interned `(U, O)` pair.
pub type BackId = u32;

/// A slab of interned fixed-width bit sets (the evaluation tables' sets).
#[derive(Debug, Clone)]
struct Interner {
    /// `u64` blocks per set.
    width: usize,
    /// Set `s` is `blocks[s * width..][..width]`.
    blocks: Vec<u64>,
    /// Open-addressing index over the slab (power-of-two length, at most
    /// half full).
    index: Vec<u32>,
}

impl Interner {
    fn new(width: usize) -> Interner {
        Interner {
            width,
            blocks: Vec::new(),
            index: vec![UNFILLED; 16],
        }
    }

    fn len(&self) -> usize {
        self.blocks.len() / self.width
    }

    #[inline]
    fn set(&self, id: u32) -> &[u64] {
        &self.blocks[id as usize * self.width..][..self.width]
    }

    /// The id of `set`, and whether this call added it.
    fn intern(&mut self, set: &[u64]) -> (u32, bool) {
        debug_assert_eq!(set.len(), self.width);
        let mut slot = self.slot_of(set);
        loop {
            match self.index[slot] {
                UNFILLED => break,
                id if self.set(id) == set => return (id, false),
                _ => slot = (slot + 1) & (self.index.len() - 1),
            }
        }
        let id = self.len() as u32;
        self.blocks.extend_from_slice(set);
        self.index[slot] = id;
        if 2 * self.len() > self.index.len() {
            self.index = vec![UNFILLED; 2 * self.index.len()];
            for id in 0..self.len() as u32 {
                let mut slot = self.slot_of(self.set(id));
                while self.index[slot] != UNFILLED {
                    slot = (slot + 1) & (self.index.len() - 1);
                }
                self.index[slot] = id;
            }
        }
        (id, true)
    }

    /// The home slot of a set (its blocks are not attacker-chosen keys, so
    /// the engine's fast hasher is fine).
    fn slot_of(&self, set: &[u64]) -> usize {
        let mut hasher = FxHasher::default();
        for &block in set {
            hasher.write_u64(block);
        }
        (hasher.finish() >> 32) as usize & (self.index.len() - 1)
    }

    fn bytes(&self) -> usize {
        8 * self.blocks.len() + 4 * self.index.len()
    }
}

/// The lazily filled evaluation tables of one [`CompiledVsa`].
#[derive(Debug, Clone)]
pub struct EvalTables {
    classes: usize,
    /// Forward sets, `width` blocks each.
    sets: Interner,
    /// Backward states, `2 · width` blocks each: `U` then `O`.
    pairs: Interner,
    /// `back[b * classes + c]`: the backward state one position before a
    /// position in state `b`, across a byte of class `c`.
    back: Vec<BackId>,
    /// `step[s * classes + c]`: the targets of `s` on a byte of class `c`.
    step: Vec<SetId>,
    /// `ops[f]`: the candidates of frontier `f`, a range of `cands`, and
    /// its stretch cell, a row of `others`.
    ops: Vec<OpsRow>,
    /// `(operation-set bits, reached states)`, sorted by bits per frontier.
    cands: Vec<(u64, SetId)>,
    /// `width` blocks per stretch cell: the union of the states the row's
    /// candidates other than ∅ reach.
    others: Vec<u64>,
    back_cells: u64,
    forward_cells: u64,
    scratch: Scratch,
}

/// The rows the fills compute into before interning, reused from fill to
/// fill. Not part of the tables' value: a clone starts without them, and
/// [`EvalTables::stats`] does not count them.
#[derive(Debug, Default)]
struct Scratch {
    /// Four rows of `width` blocks: a work row, then a backward state's
    /// `U` and `O` (contiguous, as interned), then its `via` states.
    rows: Vec<u64>,
    /// [`EvalTables::fill_ops`]: the operation sets found, the states each
    /// reaches (`width` blocks apiece), the search stack and the order
    /// the sets are interned in.
    op_sets: Vec<u64>,
    reached: Vec<u64>,
    stack: Vec<(usize, u64)>,
    order: Vec<usize>,
}

impl Scratch {
    /// The four rows of `width` blocks, cleared.
    fn rows(&mut self, width: usize) -> &mut [u64] {
        self.rows.clear();
        self.rows.resize(4 * width, 0);
        &mut self.rows
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

/// Where a frontier's candidates and its stretch cell are; `start` is
/// [`UNFILLED`] until [`EvalTables::fill_ops`] ran.
#[derive(Debug, Clone, Copy)]
struct OpsRow {
    start: u32,
    len: u32,
    /// The row of `others`.
    others: u32,
}

/// A size report of one automaton's tables (for `explain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalTableStats {
    /// Interned state sets (forward sets and backward states).
    pub sets: usize,
    /// Backward-DFA cells filled.
    pub back_cells: u64,
    /// Forward cells filled (`ops` rows and `step` cells).
    pub forward_cells: u64,
    /// Heap bytes held.
    pub bytes: usize,
}

impl EvalTables {
    /// The backward state of position `|d| + 1`: `U` = the accepting states.
    pub const ACCEPTING: BackId = 0;
    /// The frontier the enumeration starts from: `{initial}`.
    pub const INITIAL: SetId = 0;

    fn new(compiled: &CompiledVsa) -> EvalTables {
        let width = compiled.state_count().div_ceil(64);
        let mut tables = EvalTables {
            classes: compiled.class_count(),
            sets: Interner::new(width),
            pairs: Interner::new(2 * width),
            back: Vec::new(),
            step: Vec::new(),
            ops: Vec::new(),
            cands: Vec::new(),
            others: Vec::new(),
            back_cells: 0,
            forward_cells: 0,
            scratch: Scratch::default(),
        };
        let mut scratch = std::mem::take(&mut tables.scratch);
        let (initial, rest) = scratch.rows(width).split_at_mut(width);
        let (pair, via) = rest.split_at_mut(2 * width);
        pair[..width].copy_from_slice(compiled.accepting().blocks());
        let accepting = tables.intern_pair(compiled, pair, via);
        insert(initial, compiled.initial());
        let initial = tables.intern_set(initial);
        tables.scratch = scratch;
        debug_assert_eq!((accepting, initial), (Self::ACCEPTING, Self::INITIAL));
        tables
    }

    #[inline]
    fn useful(&self, at: BackId) -> &[u64] {
        &self.pairs.set(at)[..self.sets.width]
    }

    #[inline]
    fn ops_ahead(&self, at: BackId) -> &[u64] {
        &self.pairs.set(at)[self.sets.width..]
    }

    /// Whether a candidate reaching `reached` is viable at a position in
    /// backward state `at`: some reached state is useful there.
    #[inline]
    pub fn viable(&self, reached: SetId, at: BackId) -> bool {
        meet(self.sets.set(reached), self.useful(at))
    }

    /// Whether the continuation of `frontier` at a position in backward
    /// state `at` is forced: no state of the frontier has an accepting
    /// continuation that performs another variable operation, so (given
    /// that one exists) there is exactly one, and it adds nothing to the
    /// mapping.
    #[inline]
    pub fn forced(&self, frontier: SetId, at: BackId) -> bool {
        !meet(self.sets.set(frontier), self.ops_ahead(at))
    }

    /// Whether a state with zero closure `closure` is co-accessible at a
    /// position in backward state `at`.
    #[inline]
    pub fn coaccessible(&self, closure: &StateSet, at: BackId) -> bool {
        meet(closure.blocks(), self.useful(at))
    }

    /// Cells filled so far (the progress measure publication compares).
    #[inline]
    pub fn cells(&self) -> u64 {
        self.back_cells + self.forward_cells
    }

    /// The size report.
    pub fn stats(&self) -> EvalTableStats {
        EvalTableStats {
            sets: self.sets.len() + self.pairs.len(),
            back_cells: self.back_cells,
            forward_cells: self.forward_cells,
            bytes: self.sets.bytes()
                + self.pairs.bytes()
                + 4 * (self.back.len() + self.step.len())
                + 12 * self.ops.len()
                + 16 * self.cands.len()
                + 8 * self.others.len(),
        }
    }

    fn intern_set(&mut self, set: &[u64]) -> SetId {
        let (id, fresh) = self.sets.intern(set);
        if fresh {
            self.step.resize(self.step.len() + self.classes, UNFILLED);
            self.ops.push(OpsRow {
                start: UNFILLED,
                len: 0,
                others: 0,
            });
        }
        id
    }

    /// Interns the backward state whose useful set `U` is the first half of
    /// `pair`, given `via`: the states whose letter transition enters a
    /// state that still has an operation ahead (empty at `|d| + 1`). Fills
    /// the second half, `O`, and adds to `via` on the way.
    fn intern_pair(&mut self, compiled: &CompiledVsa, pair: &mut [u64], via: &mut [u64]) -> BackId {
        let (useful, ops_ahead) = pair.split_at_mut(self.sets.width);
        // An operation ahead of `q`: its zero closure reaches a state of
        // `via`, or one whose operation leads on to a useful state.
        for r in compiled.states_with_var_ops().iter() {
            let mut targets = compiled.var_ops(r).iter();
            if targets.any(|&(_, t)| meet(compiled.zero_closure(t).blocks(), useful)) {
                insert(via, r);
            }
        }
        for q in 0..compiled.state_count() {
            if meet(compiled.zero_closure(q).blocks(), via) {
                insert(ops_ahead, q);
            }
        }
        let (id, fresh) = self.pairs.intern(pair);
        if fresh {
            self.back.resize(self.back.len() + self.classes, UNFILLED);
        }
        id
    }

    /// The backward step, if already computed.
    #[inline]
    pub fn back(&self, at: BackId, class: usize) -> Option<BackId> {
        let cell = self.back[at as usize * self.classes + class];
        (cell != UNFILLED).then_some(cell)
    }

    /// Computes and stores the backward step: from the state of position
    /// `p + 1` to that of position `p`, across a byte of `class`.
    pub fn fill_back(&mut self, compiled: &CompiledVsa, at: BackId, class: usize) -> BackId {
        let width = self.sets.width;
        let mut scratch = std::mem::take(&mut self.scratch);
        let (coaccessible, rest) = scratch.rows(width).split_at_mut(width);
        let (pair, via) = rest.split_at_mut(2 * width);
        // Co-accessible at p + 1: the zero closure reaches a useful state.
        for q in 0..compiled.state_count() {
            if self.coaccessible(compiled.zero_closure(q), at) {
                insert(coaccessible, q);
            }
        }
        // Useful at p: a letter transition into a co-accessible state.
        let ops_ahead = self.ops_ahead(at);
        for r in 0..compiled.state_count() {
            for &t in compiled.byte_targets(r, class) {
                if contains(coaccessible, t) {
                    insert(pair, r);
                }
                if contains(ops_ahead, t) {
                    insert(via, r);
                }
            }
        }
        let id = self.intern_pair(compiled, pair, via);
        self.scratch = scratch;
        self.back[at as usize * self.classes + class] = id;
        self.back_cells += 1;
        id
    }

    /// The frontier after `set` consumes a byte of `class`, if computed.
    #[inline]
    pub fn step(&self, set: SetId, class: usize) -> Option<SetId> {
        let cell = self.step[set as usize * self.classes + class];
        (cell != UNFILLED).then_some(cell)
    }

    /// Computes and stores [`EvalTables::step`].
    pub fn fill_step(&mut self, compiled: &CompiledVsa, set: SetId, class: usize) -> SetId {
        let width = self.sets.width;
        let mut scratch = std::mem::take(&mut self.scratch);
        let targets = &mut scratch.rows(width)[..width];
        for q in bits(self.sets.set(set)) {
            for &t in compiled.byte_targets(q, class) {
                insert(targets, t);
            }
        }
        let id = self.intern_set(targets);
        self.scratch = scratch;
        self.step[set as usize * self.classes + class] = id;
        self.forward_cells += 1;
        id
    }

    /// The candidates of a frontier, if computed: every `(operation set,
    /// reached states)` pair obtained by performing exactly that set via ε
    /// and variable-operation transitions (no operation twice), in
    /// increasing operation-set order. Reached states include the ones
    /// that cannot progress — they matter at later positions.
    #[inline]
    pub fn ops(&self, frontier: SetId) -> Option<&[(u64, SetId)]> {
        let OpsRow { start, len, .. } = self.ops[frontier as usize];
        (start != UNFILLED).then(|| &self.cands[start as usize..][..len as usize])
    }

    /// Whether no stretch of `frontier` begins at a position holding a
    /// byte of class `class`, decided without borrowing the cell: the
    /// frontier's row is filled, and ∅'s step over the class is filled and
    /// leads to another frontier. (`false` is "maybe".) A walk asks after
    /// every letter step; this answers it almost always.
    #[inline]
    pub fn no_stretch_at(&self, frontier: SetId, class: usize) -> bool {
        let start = self.ops[frontier as usize].start;
        if start == UNFILLED {
            return false;
        }
        let empty = self.cands[start as usize].1;
        let step = self.step[empty as usize * self.classes + class];
        step != UNFILLED && step != frontier
    }

    /// The stretch cell of a frontier: `None` until its [`EvalTables::ops`]
    /// row is filled (the two are filled together).
    #[inline]
    pub fn stretch(&self, frontier: SetId) -> Option<Stretch<'_>> {
        let OpsRow { start, others, .. } = self.ops[frontier as usize];
        let width = self.sets.width;
        if start == UNFILLED {
            return None;
        }
        let empty = self.cands[start as usize].1;
        Some(Stretch {
            tables: self,
            frontier,
            empty,
            reached: self.sets.set(empty),
            steps: &self.step[empty as usize * self.classes..][..self.classes],
            others: &self.others[others as usize * width..][..width],
        })
    }

    /// Computes and stores [`EvalTables::ops`].
    pub fn fill_ops(&mut self, compiled: &CompiledVsa, frontier: SetId) {
        let width = self.sets.width;
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch {
            op_sets,
            reached,
            stack,
            order,
            ..
        } = &mut scratch;
        // ∅'s reached set is the ε-closure of the frontier: reachable with
        // no operation.
        op_sets.clear();
        op_sets.push(0);
        reached.clear();
        reached.resize(width, 0);
        for q in bits(self.sets.set(frontier)) {
            union(reached, compiled.eps_closure(q).blocks());
        }
        // Explore (state, operation set) pairs. Visited states are tracked
        // per operation set (a linear scan — the number of distinct sets
        // per frontier is small); ε-moves are collapsed through the
        // precomputed closures, so the stack only carries operation steps.
        // Away from match boundaries no reached state has an operation and
        // the stack starts empty: the only candidate is ∅.
        stack.clear();
        stack.extend(
            bits(reached)
                .filter(|&q| compiled.has_var_ops(q))
                .map(|q| (q, 0)),
        );
        while let Some((q, set)) = stack.pop() {
            for &(op, target) in compiled.var_ops(q) {
                let bit = 1u64 << (2 * op.var as u64 + u64::from(op.is_close));
                if set & bit != 0 {
                    continue;
                }
                let next_set = set | bit;
                let slot = match op_sets.iter().position(|&s| s == next_set) {
                    Some(slot) => slot,
                    None => {
                        op_sets.push(next_set);
                        reached.resize(reached.len() + width, 0);
                        op_sets.len() - 1
                    }
                };
                let row = &mut reached[slot * width..][..width];
                for r in compiled.eps_closure(target).iter() {
                    if insert(row, r) && compiled.has_var_ops(r) {
                        stack.push((r, next_set));
                    }
                }
            }
        }
        // ∅ sorts first.
        order.clear();
        order.extend(0..op_sets.len());
        order.sort_unstable_by_key(|&i| op_sets[i]);
        let start = self.cands.len() as u32;
        for &i in order.iter() {
            let id = self.intern_set(&reached[i * width..][..width]);
            self.cands.push((op_sets[i], id));
        }
        // The stretch cell: the union of the states the other candidates
        // reach.
        let others = self.others.len() / width;
        self.others.resize(self.others.len() + width, 0);
        for &i in &order[1..] {
            union(
                &mut self.others[others * width..],
                &reached[i * width..][..width],
            );
        }
        self.ops[frontier as usize] = OpsRow {
            start,
            len: op_sets.len() as u32,
            others: others as u32,
        };
        self.scratch = scratch;
        self.forward_cells += 1;
    }
}

/// A frontier's stretch cell, borrowed with the tables: what decides, at a
/// position `p`, that the walk only advances `p` (DESIGN §8, "Stretches").
/// Position `p` with frontier `F` is a *stretch position* when ∅ is `F`'s
/// only viable candidate there, the byte at `p` steps ∅'s reached set back
/// to `F`, and `F` is not forced at `p + 1`. The cell is document
/// independent: ∅'s reached set and the union of the other candidates'
/// reached sets, so the first test is two intersections with `U(p)`; the
/// second is the `step` cell.
#[derive(Clone, Copy)]
pub struct Stretch<'t> {
    tables: &'t EvalTables,
    frontier: SetId,
    /// ∅'s reached set, its id and its row of `step`.
    empty: SetId,
    reached: &'t [u64],
    steps: &'t [SetId],
    /// The union of the other candidates' reached sets.
    others: &'t [u64],
}

impl Stretch<'_> {
    /// ∅'s reached set: the set a stretch position steps.
    #[inline]
    pub fn empty(&self) -> SetId {
        self.empty
    }

    /// Whether a position in backward state `at`, holding a byte of `class`,
    /// is a stretch position of the frontier, for a walk that stands there
    /// with the frontier unforced (as a walk does wherever it stands);
    /// `None` when ∅'s step over `class` is not filled yet and the answer
    /// turns on it. The step is tested first: where a stretch ends, the
    /// byte usually leads elsewhere.
    ///
    /// The third condition, `F` unforced at `p + 1`, follows from the first
    /// two there and is not tested: a state of `F` with an operation ahead
    /// performs it after `p` (at `p` it would make a candidate other than ∅
    /// viable), so it reads the byte at `p` from ∅'s reached set and lands
    /// in `step(E, d[p]) = F` with the operation still ahead.
    #[inline]
    pub fn holds(&self, at: BackId, class: usize) -> Option<bool> {
        let step = self.steps[class];
        if step != UNFILLED && step != self.frontier {
            return Some(false);
        }
        let useful = self.tables.useful(at);
        if !meet(self.reached, useful) || meet(self.others, useful) {
            return Some(false);
        }
        (step != UNFILLED).then_some(true)
    }
}

/// The per-automaton home of the published [`EvalTables`].
#[derive(Debug)]
pub(crate) struct EvalCache {
    /// `None` until the first document, and again after a drop.
    published: Mutex<Option<Arc<EvalTables>>>,
    budget: usize,
}

impl EvalCache {
    pub(crate) fn new(budget: usize) -> EvalCache {
        EvalCache {
            published: Mutex::new(None),
            budget,
        }
    }

    /// Every update of the slot is one assignment, so a poisoned lock still
    /// guards a valid value (and publication runs in `Drop`, which must not
    /// panic).
    fn slot(&self) -> std::sync::MutexGuard<'_, Option<Arc<EvalTables>>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A clone starts cold: the tables are a cache, not part of the value.
impl Clone for EvalCache {
    fn clone(&self) -> EvalCache {
        EvalCache::new(self.budget)
    }
}

impl CompiledVsa {
    /// Checks out the automaton's evaluation tables for one document: the
    /// published tables behind an `Arc` (one uncontended lock, no copy), or
    /// fresh ones for a cold automaton. Fill cells through
    /// [`Arc::make_mut`] — the first miss of a document copies the shared
    /// tables, every later one mutates in place — and hand the result back
    /// with [`CompiledVsa::publish_eval_tables`] if it grew.
    pub fn eval_tables(&self) -> Arc<EvalTables> {
        let published = self.eval().slot().clone();
        published.unwrap_or_else(|| Arc::new(EvalTables::new(self)))
    }

    /// Publishes tables that grew during a document, so later checkouts —
    /// from any thread — start from them. Tables with more cells win (two
    /// threads growing concurrently converge on the larger); tables past
    /// the byte budget are dropped instead, and regrown by the documents
    /// that follow.
    pub fn publish_eval_tables(&self, tables: &Arc<EvalTables>) {
        let cache = self.eval();
        let mut slot = cache.slot();
        if slot.as_ref().is_none_or(|p| tables.cells() > p.cells()) {
            *slot = (tables.stats().bytes <= cache.budget).then(|| Arc::clone(tables));
        }
    }

    /// The size of the currently published tables (zeroes when cold).
    pub fn eval_table_stats(&self) -> EvalTableStats {
        self.eval()
            .slot()
            .as_ref()
            .map_or_else(EvalTableStats::default, |t| t.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson::compile;
    use spanner_rgx::parse;

    fn compiled(pattern: &str) -> CompiledVsa {
        CompiledVsa::compile(&compile(&parse(pattern).unwrap()))
    }

    #[test]
    fn interning_is_canonical_across_index_growth() {
        let mut sets = Interner::new(2);
        let inputs: Vec<[u64; 2]> = (0..100u64).map(|i| [i * i, !i]).collect();
        let ids: Vec<u32> = inputs.iter().map(|s| sets.intern(s).0).collect();
        assert!(sets.index.len() > 16, "the index must have grown");
        for (input, &id) in inputs.iter().zip(&ids) {
            assert_eq!(sets.intern(input), (id, false));
            assert_eq!(sets.set(id), input);
        }
    }

    #[test]
    fn forced_means_no_operation_ahead() {
        // .*{x:a+}.* on "ab": before the capture an operation is ahead of
        // the initial frontier at every position; once x is closed the rest
        // of the document is forced.
        let c = compiled(".*{x:a+}.*");
        let mut t = EvalTables::new(&c);
        let at_b = t.fill_back(&c, EvalTables::ACCEPTING, c.class_of(b'b'));
        let at_a = t.fill_back(&c, at_b, c.class_of(b'a'));
        assert!(!t.forced(EvalTables::INITIAL, at_a));
        t.fill_ops(&c, EvalTables::INITIAL);
        let &(bits, opened) = t.ops(EvalTables::INITIAL).unwrap().last().unwrap();
        assert_eq!(bits, 0b01, "x⊢");
        // After x⊢ a: x is open — closing it is still ahead.
        let inside = t.fill_step(&c, opened, c.class_of(b'a'));
        assert!(!t.forced(inside, at_b));
        // After ⊣x b: nothing is.
        t.fill_ops(&c, inside);
        let &(bits, closed) = t.ops(inside).unwrap().last().unwrap();
        assert_eq!(bits, 0b10, "⊣x");
        assert!(t.viable(closed, at_b));
        let tail = t.fill_step(&c, closed, c.class_of(b'b'));
        assert!(t.forced(tail, EvalTables::ACCEPTING));
    }

    #[test]
    fn a_stretch_cell_is_filled_with_its_row() {
        // a*{x:b}: after an `a` the frontier loops on `a`; the initial one
        // is never re-entered.
        let c = compiled("a*{x:b}");
        let mut t = EvalTables::new(&c);
        let (a, b) = (c.class_of(b'a'), c.class_of(b'b'));
        assert!(t.stretch(EvalTables::INITIAL).is_none());
        assert!(
            !t.no_stretch_at(EvalTables::INITIAL, a),
            "row not filled: maybe"
        );
        t.fill_ops(&c, EvalTables::INITIAL);
        let empty = t.stretch(EvalTables::INITIAL).expect("filled").empty();
        assert!(
            !t.no_stretch_at(EvalTables::INITIAL, a),
            "step not filled: maybe"
        );
        let looping = t.fill_step(&c, empty, a);
        assert!(t.no_stretch_at(EvalTables::INITIAL, a));
        t.fill_ops(&c, looping);
        let empty = t.stretch(looping).expect("filled").empty();
        assert_eq!(t.fill_step(&c, empty, a), looping);
        // A `b` leads out once its step is filled; until then, maybe.
        assert!(!t.no_stretch_at(looping, b));
        t.fill_step(&c, empty, b);
        assert!(t.no_stretch_at(looping, b) && !t.no_stretch_at(looping, a));
    }

    #[test]
    fn cells_fill_once_and_publication_keeps_the_larger_tables() {
        let c = compiled(".*{x:a+}.*");
        assert_eq!(c.eval_table_stats(), EvalTableStats::default());
        let mut mine = c.eval_tables();
        let class = c.class_of(b'a');
        assert_eq!(mine.back(EvalTables::ACCEPTING, class), None);
        let u = Arc::make_mut(&mut mine).fill_back(&c, EvalTables::ACCEPTING, class);
        assert_eq!(mine.back(EvalTables::ACCEPTING, class), Some(u));
        Arc::make_mut(&mut mine).fill_ops(&c, EvalTables::INITIAL);
        // ∅, {x⊢} — and {x⊢, ⊣x} is not reachable without a letter.
        assert_eq!(mine.ops(EvalTables::INITIAL).unwrap().len(), 2);
        assert_eq!(mine.cells(), 2);
        // Rows grow with their own slab only.
        assert_eq!(mine.back.len(), mine.pairs.len() * mine.classes);
        assert_eq!(mine.step.len(), mine.sets.len() * mine.classes);

        c.publish_eval_tables(&mine);
        assert_eq!(c.eval_table_stats().back_cells, 1);
        // A stale, smaller copy does not displace the published tables.
        let stale = Arc::new(EvalTables::new(&c));
        c.publish_eval_tables(&stale);
        assert_eq!(c.eval_tables().cells(), 2);
        // A clone starts cold.
        assert_eq!(c.clone().eval_table_stats(), EvalTableStats::default());
    }

    #[test]
    fn tables_past_the_budget_are_dropped() {
        let c = compiled(".*{x:a+}.*").with_eval_table_budget(0);
        let mut mine = c.eval_tables();
        Arc::make_mut(&mut mine).fill_ops(&c, EvalTables::INITIAL);
        c.publish_eval_tables(&mine);
        assert_eq!(c.eval_table_stats(), EvalTableStats::default());
    }
}
