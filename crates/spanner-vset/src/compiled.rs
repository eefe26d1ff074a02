//! The compiled evaluation engine: compile a [`Vsa`] once, evaluate many
//! times on flat data.
//!
//! [`Vsa`] stays the canonical *construction-time* representation — unions,
//! projections, products and trims all operate on it. Evaluation, however,
//! pays for its pointer-chasing generality in every inner loop: scanning
//! heterogeneous transition lists, re-deriving ε-reachability per position,
//! and keeping state sets as sorted `Vec<StateId>`. [`CompiledVsa`] is the
//! document-independent compilation that removes all of that:
//!
//! * **non-consuming edges** (ε and variable operations) are linear rows,
//!   forward and reversed: evaluators walk them, and the one closure kept
//!   is the initial state's;
//! * **letter transitions** are re-indexed through a dense 256-entry
//!   byte-to-class table: the distinct [`ByteClass`] labels of the automaton
//!   partition the byte alphabet into equivalence classes, and the sorted
//!   target list of every `state × class` cell is a row of one flat array;
//! * **variable operations** are split into per-state rows with the
//!   variable resolved to a dense local index (via
//!   [`spanner_core::VarTable`]), so downstream bitset code never touches a
//!   name;
//! * **state sets** are [`StateSet`] bitsets (`u64` blocks) with constant
//!   per-block union/intersection, replacing sorted-vector scans.
//!
//! `spanner-enum`'s match graph and enumerator run entirely on this
//! representation; `spanner-algebra` reuses those, so the whole stack
//! evaluates through the compiled path.

use crate::analysis::is_sequential;
use crate::automaton::{Label, StateId, Vsa};
use spanner_core::{ByteClass, VarTable, Variable};

/// A set of automaton states, stored as a bitset over `u64` blocks.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StateSet {
    blocks: Vec<u64>,
}

impl StateSet {
    /// The empty set with capacity for `states` states.
    pub fn new(states: usize) -> Self {
        StateSet {
            blocks: vec![0; states.div_ceil(64)],
        }
    }

    /// Builds a set from an iterator of state ids.
    pub fn from_states<I: IntoIterator<Item = StateId>>(states: usize, iter: I) -> Self {
        let mut s = StateSet::new(states);
        for q in iter {
            s.insert(q);
        }
        s
    }

    /// Inserts a state; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, q: StateId) -> bool {
        insert(&mut self.blocks, q)
    }

    /// Whether the set contains `q`.
    #[inline]
    pub fn contains(&self, q: StateId) -> bool {
        contains(&self.blocks, q)
    }

    /// Removes every state.
    #[inline]
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of states in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// In-place union (`self ∪= other`). The sets must have equal capacity.
    #[inline]
    pub fn union_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.blocks.len(), other.blocks.len());
        union(&mut self.blocks, &other.blocks);
    }

    /// Whether the two sets share at least one state (no allocation).
    #[inline]
    pub fn intersects(&self, other: &StateSet) -> bool {
        meet(&self.blocks, &other.blocks)
    }

    /// Iterates over the states in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        bits(&self.blocks)
    }

    /// The raw `u64` blocks (what [`crate::tables::EvalTables`] interns).
    #[inline]
    pub(crate) fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// The states as a sorted vector.
    pub fn to_vec(&self) -> Vec<StateId> {
        self.iter().collect()
    }
}

/// Adds state `q` to a block slice; returns `true` if it was not there.
#[inline]
pub(crate) fn insert(blocks: &mut [u64], q: StateId) -> bool {
    let (block, bit) = (q / 64, 1u64 << (q % 64));
    let fresh = blocks[block] & bit == 0;
    blocks[block] |= bit;
    fresh
}

/// Whether a block slice holds state `q`.
#[inline]
pub(crate) fn contains(blocks: &[u64], q: StateId) -> bool {
    blocks[q / 64] & (1u64 << (q % 64)) != 0
}

/// `into ∪= from`, block by block.
#[inline]
pub(crate) fn union(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

/// Whether two block slices share a set bit.
#[inline]
pub(crate) fn meet(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The set bits of a block slice, in increasing order.
pub(crate) fn bits(blocks: &[u64]) -> impl Iterator<Item = StateId> + '_ {
    blocks.iter().enumerate().flat_map(|(i, &block)| {
        let mut rest = block;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(i * 64 + bit)
        })
    })
}

impl std::fmt::Debug for StateSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Variable-length rows stored flat: row `i` is `items[start[i]..start[i + 1]]`.
/// A row is built by pushing onto `items`, then closed with
/// [`Rows::end_row`].
#[derive(Debug, Clone)]
pub(crate) struct Rows<T> {
    start: Vec<u32>,
    pub(crate) items: Vec<T>,
}

impl<T> Rows<T> {
    /// No rows yet, with room for the offsets of `rows`.
    pub(crate) fn with_rows(rows: usize) -> Self {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Rows {
            start,
            items: Vec::new(),
        }
    }

    /// Closes the current row: the items pushed since the last call.
    pub(crate) fn end_row(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

impl Rows<StateId> {
    /// The same edges reversed: row `t` lists the `q` whose row holds `t`.
    fn reversed(&self) -> Rows<StateId> {
        let n = self.start.len() - 1;
        let mut edges: Vec<_> = (0..n)
            .flat_map(|q| self.row(q).iter().map(move |&t| (t, q)))
            .collect();
        edges.sort_unstable();
        let start = (0..=n).map(|t| edges.partition_point(|e| e.0 < t) as u32);
        let start = start.collect();
        let items = edges.into_iter().map(|e| e.1).collect();
        Rows { start, items }
    }
}

/// A variable operation in compiled form: dense local variable index plus
/// open/close flag. The local index is the variable's position in the
/// automaton's [`VarTable`] (name order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarOp {
    /// Local variable index (`0 .. vars().len()`).
    pub var: u16,
    /// `false` = `x⊢` (open), `true` = `⊣x` (close).
    pub is_close: bool,
}

/// The compiled, evaluation-ready form of a [`Vsa`].
///
/// Compilation is document-independent: compile once, evaluate on any number
/// of documents. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct CompiledVsa {
    state_count: usize,
    initial: StateId,
    accepting: StateSet,
    vars: VarTable,
    /// Per-state ε targets; targets of ε *and* variable operations (the
    /// moves that consume no input), and those reversed.
    eps_edges: Rows<StateId>,
    zero_edges: Rows<StateId>,
    zero_sources: Rows<StateId>,
    /// The states reachable from the initial state without consuming input.
    initial_closure: StateSet,
    /// Dense byte → byte-class dispatch table.
    class_of: Box<[u16; 256]>,
    class_count: usize,
    /// The bytes of each class (never empty).
    class_bytes: Vec<ByteClass>,
    /// `state × class → sorted target list`, one row per cell.
    byte_step: Rows<StateId>,
    /// Per-state variable operations with their targets, one row per state.
    var_ops: Rows<(VarOp, StateId)>,
    /// The states with at least one outgoing variable operation (lets
    /// evaluators skip operation-set exploration wholesale where no
    /// operation can occur — the overwhelmingly common case).
    states_with_var_ops: StateSet,
    /// The states with at least one outgoing letter transition (the only
    /// ones a byte steps).
    consuming: StateSet,
    /// Whether the source automaton is sequential (checked once at compile
    /// time; enumeration requires it).
    sequential: bool,
    /// The scan fast-path analysis: prefilters computed here, the required
    /// literals on first request; see [`crate::scan`].
    scan: crate::scan::ScanPlan,
    /// The published evaluation tables (lazily grown across documents; see
    /// [`crate::tables`]).
    eval: crate::tables::EvalCache,
}

impl CompiledVsa {
    /// Compiles an automaton: `O(states × classes + transitions)`.
    pub fn compile(vsa: &Vsa) -> CompiledVsa {
        let n = vsa.state_count();
        let vars = VarTable::new(vsa.vars().iter().cloned());

        // --- Byte classes: refine {0..=255} by every Class label (a label
        // seen before splits nothing), then number the classes by their
        // smallest byte.
        let mut class_bytes = vec![ByteClass::any()];
        for (_, label, _) in vsa.all_transitions() {
            let Label::Class(label) = label else {
                continue;
            };
            let complement = label.complement();
            if label.is_empty() || complement.is_empty() {
                continue;
            }
            for i in 0..class_bytes.len() {
                let outside = class_bytes[i].intersect(&complement);
                if !outside.is_empty() && outside != class_bytes[i] {
                    class_bytes[i] = class_bytes[i].intersect(label);
                    class_bytes.push(outside);
                }
            }
        }
        let smallest = |class: &ByteClass| class.iter().next().expect("classes are never empty");
        class_bytes.sort_unstable_by_key(smallest);
        let class_count = class_bytes.len();
        let mut class_of = Box::new([0u16; 256]);
        let mut class_reps = [0u8; 256];
        for (id, class) in class_bytes.iter().enumerate() {
            class_reps[id] = smallest(class);
            for b in class.iter() {
                class_of[b as usize] = id as u16;
            }
        }

        // --- Per-state transition rows, filled state by state.
        let mut byte_step = Rows::with_rows(n * class_count);
        let mut var_ops = Rows::with_rows(n);
        let mut eps_edges = Rows::with_rows(n);
        let mut zero_edges = Rows::with_rows(n);
        let mut consuming = StateSet::new(n);
        let mut cell: Vec<StateId> = Vec::new();
        for src in 0..n {
            let transitions = vsa.transitions_from(src);
            let first = byte_step.items.len();
            for &rep in &class_reps[..class_count] {
                cell.clear();
                cell.extend(transitions.iter().filter_map(|t| match &t.label {
                    Label::Class(c) if c.contains(rep) => Some(t.target),
                    _ => None,
                }));
                cell.sort_unstable();
                cell.dedup();
                byte_step.items.extend_from_slice(&cell);
                byte_step.end_row();
            }
            if byte_step.items.len() > first {
                consuming.insert(src);
            }
            for t in transitions {
                match &t.label {
                    Label::Epsilon => {
                        eps_edges.items.push(t.target);
                        zero_edges.items.push(t.target);
                    }
                    Label::Class(_) => {}
                    Label::Open(v) | Label::Close(v) => {
                        let var = vars
                            .index_of(v)
                            .expect("automaton variable registered in its VarTable")
                            as u16;
                        let is_close = matches!(t.label, Label::Close(_));
                        var_ops.items.push((VarOp { var, is_close }, t.target));
                        zero_edges.items.push(t.target);
                    }
                }
            }
            var_ops.end_row();
            eps_edges.end_row();
            zero_edges.end_row();
        }

        let accepting = StateSet::from_states(n, vsa.states().filter(|&q| vsa.is_accepting(q)));
        let states_with_var_ops =
            StateSet::from_states(n, (0..n).filter(|&q| !var_ops.row(q).is_empty()));

        let mut out = CompiledVsa {
            state_count: n,
            initial: vsa.initial(),
            accepting,
            vars,
            zero_sources: zero_edges.reversed(),
            eps_edges,
            zero_edges,
            initial_closure: StateSet::new(n),
            class_of,
            class_count,
            class_bytes,
            byte_step,
            var_ops,
            states_with_var_ops,
            consuming,
            sequential: is_sequential(vsa),
            scan: crate::scan::ScanPlan::placeholder(),
            eval: crate::tables::EvalCache::new(crate::tables::EVAL_TABLE_BUDGET),
        };
        out.initial_closure = out.zero_closure(out.initial);
        out.scan = crate::scan::ScanPlan::analyze(&out);
        out
    }

    /// The scan fast-path analysis (internal accessor; the public surface is
    /// [`CompiledVsa::scan_plan`] in [`crate::scan`]).
    #[inline]
    pub(crate) fn scan(&self) -> &crate::scan::ScanPlan {
        &self.scan
    }

    #[inline]
    pub(crate) fn eval(&self) -> &crate::tables::EvalCache {
        &self.eval
    }

    /// Test hook: the same automaton with a different evaluation-table byte
    /// budget (and cold tables), to force the drop-and-regrow path. The
    /// budget is not an option — production code always runs on
    /// [`crate::tables::EVAL_TABLE_BUDGET`].
    #[doc(hidden)]
    pub fn with_eval_table_budget(mut self, bytes: usize) -> CompiledVsa {
        self.eval = crate::tables::EvalCache::new(bytes);
        self
    }

    /// Whether the source automaton is sequential (Theorem 2.5's
    /// precondition for polynomial-delay enumeration).
    #[inline]
    pub fn is_sequential(&self) -> bool {
        self.sequential
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The accepting states.
    #[inline]
    pub fn accepting(&self) -> &StateSet {
        &self.accepting
    }

    /// Whether `q` is accepting.
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(q)
    }

    /// The automaton's variables, dense-indexed (name order).
    #[inline]
    pub fn var_table(&self) -> &VarTable {
        &self.vars
    }

    /// The variable behind a compiled [`VarOp`] index.
    #[inline]
    pub fn var(&self, index: u16) -> &Variable {
        self.vars.var(index as usize)
    }

    /// Number of byte classes (≤ 256).
    #[inline]
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The byte class of `b`.
    #[inline]
    pub fn class_of(&self, b: u8) -> usize {
        self.class_of[b as usize] as usize
    }

    /// The bytes of class `class` (never empty).
    #[inline]
    pub fn class_bytes(&self, class: usize) -> &ByteClass {
        &self.class_bytes[class]
    }

    /// The targets of `q` under any byte of class `class`.
    #[inline]
    pub fn byte_targets(&self, q: StateId, class: usize) -> &[StateId] {
        self.byte_step.row(q * self.class_count + class)
    }

    /// The ε targets of `q`.
    #[inline]
    pub(crate) fn eps_targets(&self, q: StateId) -> &[StateId] {
        self.eps_edges.row(q)
    }

    /// The targets of `q`'s ε and variable-operation transitions.
    #[inline]
    pub(crate) fn zero_targets(&self, q: StateId) -> &[StateId] {
        self.zero_edges.row(q)
    }

    /// The states with a non-consuming transition into `q`.
    #[inline]
    pub(crate) fn zero_sources(&self, q: StateId) -> &[StateId] {
        self.zero_sources.row(q)
    }

    /// The states reachable from the initial state without consuming input
    /// (contains it).
    #[inline]
    pub fn initial_closure(&self) -> &StateSet {
        &self.initial_closure
    }

    /// The closure of `q` over all non-consuming transitions (contains
    /// `q`), walked on request: `O(|Q| / 64 + reached edges)`.
    pub fn zero_closure(&self, q: StateId) -> StateSet {
        let mut set = StateSet::new(self.state_count);
        self.close_zero(&[q], &mut Vec::new(), |t| set.insert(t));
        set
    }

    /// Sets `states`, in increasing order, to the states reachable from
    /// `from` without reading a byte, through states `fresh` admits (and
    /// marks seen) only.
    pub(crate) fn close_zero(
        &self,
        from: &[StateId],
        states: &mut Vec<StateId>,
        mut fresh: impl FnMut(StateId) -> bool,
    ) {
        states.clear();
        states.extend(from.iter().copied().filter(|&q| fresh(q)));
        let mut i = 0;
        while let Some(&q) = states.get(i) {
            i += 1;
            states.extend(self.zero_targets(q).iter().copied().filter(|&t| fresh(t)));
        }
        states.sort_unstable();
    }

    /// The compiled variable operations leaving `q`.
    #[inline]
    pub fn var_ops(&self, q: StateId) -> &[(VarOp, StateId)] {
        self.var_ops.row(q)
    }

    /// The states with at least one outgoing variable operation.
    #[inline]
    pub fn states_with_var_ops(&self) -> &StateSet {
        &self.states_with_var_ops
    }

    /// The states with at least one outgoing letter transition.
    #[inline]
    pub(crate) fn consuming(&self) -> &StateSet {
        &self.consuming
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::{ByteClass, Variable};

    /// The paper's Example 2.3 automaton.
    fn example_2_3() -> Vsa {
        let mut a = Vsa::new();
        let q0 = a.initial();
        let q1 = a.add_state();
        let q2 = a.add_state();
        a.add_transition(q0, Label::Class(ByteClass::any()), q0);
        a.add_transition(q0, Label::Open(Variable::new("x")), q1);
        a.add_transition(q1, Label::Class(ByteClass::any()), q1);
        a.add_transition(q1, Label::Close(Variable::new("x")), q2);
        a.add_transition(q2, Label::Class(ByteClass::any()), q2);
        a.add_transition(q0, Label::Class(ByteClass::any()), q2);
        a.set_accepting(q2, true);
        a
    }

    #[test]
    fn state_set_operations() {
        let mut s = StateSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_vec(), vec![0, 129]);

        let t = StateSet::from_states(130, [64, 129]);
        assert!(s.intersects(&t));
        let mut u = s.clone();
        u.union_with(&t);
        assert_eq!(u.to_vec(), vec![0, 64, 129]);
        u.clear();
        assert!(u.is_empty());
        assert!(!u.intersects(&t));
    }

    #[test]
    fn byte_classes_collapse_the_alphabet() {
        // Only Σ transitions: a single byte class.
        let c = CompiledVsa::compile(&example_2_3());
        assert_eq!(c.class_count(), 1);
        assert_eq!(c.class_of(b'a'), c.class_of(0xff));

        // Distinguishing 'a' from the rest: two classes.
        let mut a = Vsa::new();
        let q1 = a.add_state();
        a.add_transition(0, Label::symbol(b'a'), q1);
        a.add_transition(0, Label::Class(ByteClass::any()), 0);
        a.set_accepting(q1, true);
        let c = CompiledVsa::compile(&a);
        assert_eq!(c.class_count(), 2);
        assert_ne!(c.class_of(b'a'), c.class_of(b'b'));
        assert_eq!(c.class_of(b'b'), c.class_of(b'z'));
        assert_eq!(c.byte_targets(0, c.class_of(b'a')), &[0, 1]);
        assert_eq!(c.byte_targets(0, c.class_of(b'b')), &[0]);
    }

    #[test]
    fn closures_distinguish_eps_from_var_ops() {
        let c = CompiledVsa::compile(&example_2_3());
        // No ε-transitions: no ε targets.
        for q in 0..3 {
            assert_eq!(c.eps_targets(q), &[] as &[StateId]);
        }
        // Zero closures follow the variable operations.
        assert_eq!(c.zero_closure(0).to_vec(), vec![0, 1, 2]);
        assert_eq!(c.zero_closure(1).to_vec(), vec![1, 2]);
        assert_eq!(c.zero_closure(2).to_vec(), vec![2]);
        assert_eq!(c.initial_closure().to_vec(), vec![0, 1, 2]);
        assert_eq!(c.zero_sources(2), &[1]);
    }

    #[test]
    fn var_ops_are_dense_indexed() {
        let c = CompiledVsa::compile(&example_2_3());
        let ops0 = c.var_ops(0);
        assert_eq!(ops0.len(), 1);
        assert_eq!(
            ops0[0].0,
            VarOp {
                var: 0,
                is_close: false
            }
        );
        assert_eq!(ops0[0].1, 1);
        assert_eq!(c.var(0).name(), "x");
        let ops1 = c.var_ops(1);
        assert_eq!(
            ops1[0].0,
            VarOp {
                var: 0,
                is_close: true
            }
        );
    }
}
