//! The match graph of a vset-automaton on a document.
//!
//! The match graph (called "match structure" when viewed as an NFA over
//! variable configurations in Freydenberger et al. and in the proof of
//! Theorem 4.8) has one node per pair `(position, state)`. The enumerator of
//! this crate works on top of it.
//!
//! The graph is a walk over the automaton's [`EvalTables`]: the backward
//! pass is a DFA run over interned (useful, operations-ahead) set pairs (one
//! table lookup per byte, one `u32` per position), and the enumerator's
//! op-closure and letter steps are lookups in the forward tables. The tables
//! belong to the [`CompiledVsa`], are checked out once per document and
//! outlive it, so a warm automaton evaluates a document without recomputing —
//! or allocating — anything per position. Building the graph from a borrowed
//! `&Vsa` compiles on the fly (cold tables every time); callers that evaluate
//! the same automaton on many documents should compile once and use
//! [`MatchGraph::from_compiled`].

use crate::opset::{check_var_limit, OpSet};
use spanner_core::{Document, SpannerError, SpannerResult};
use spanner_vset::{BackId, CompiledVsa, EvalTables, SetId, Vsa};
use std::borrow::Cow;
use std::sync::Arc;

/// The match graph of an automaton on a document.
pub struct MatchGraph<'a> {
    /// The compiled automaton (owned when built from a `&Vsa`).
    compiled: Cow<'a, CompiledVsa>,
    /// The document.
    pub doc: &'a Document,
    /// The automaton's evaluation tables, shared until this document's first
    /// miss (see [`CompiledVsa::eval_tables`]).
    tables: Arc<EvalTables>,
    /// Cells the tables held at checkout.
    base_cells: u64,
    /// `back[p - 1]`: the backward-DFA state of position `p`. It names the
    /// states that *immediately* progress at `p` — for `p ≤ |d|` those with
    /// a letter transition on `d[p]` into a co-accessible state of `p + 1`,
    /// for `p = |d| + 1` the accepting states (a state is co-accessible at
    /// `p` iff its zero closure meets them) — and the states that still
    /// have a variable operation ahead of them.
    back: Vec<BackId>,
}

impl<'a> MatchGraph<'a> {
    /// Builds the match graph, compiling the automaton on the fly.
    ///
    /// The automaton must be sequential (Theorem 2.5's precondition); this is
    /// checked and an error is returned otherwise.
    pub fn build(vsa: &'a Vsa, doc: &'a Document) -> SpannerResult<Self> {
        Self::new(Cow::Owned(CompiledVsa::compile(vsa)), doc)
    }

    /// Builds the match graph over an already-compiled automaton
    /// (the compile-once, evaluate-many path).
    pub fn from_compiled(compiled: &'a CompiledVsa, doc: &'a Document) -> SpannerResult<Self> {
        Self::new(Cow::Borrowed(compiled), doc)
    }

    fn new(compiled: Cow<'a, CompiledVsa>, doc: &'a Document) -> SpannerResult<Self> {
        if !compiled.is_sequential() {
            return Err(SpannerError::requirement(
                "sequential",
                "polynomial-delay enumeration requires a sequential vset-automaton",
            ));
        }
        check_var_limit(compiled.var_table().len())?;
        let mut tables = compiled.eval_tables();
        let base_cells = tables.cells();

        // The backward pass: a DFA run from the accepting set at position
        // |d| + 1 down to position 1.
        let bytes = doc.bytes();
        let mut back = vec![EvalTables::ACCEPTING; bytes.len() + 1];
        let mut current = EvalTables::ACCEPTING;
        for (slot, &byte) in back.iter_mut().zip(bytes).rev() {
            let class = compiled.class_of(byte);
            current = match tables.back(current, class) {
                Some(previous) => previous,
                None => Arc::make_mut(&mut tables).fill_back(&compiled, current, class),
            };
            *slot = current;
        }

        Ok(MatchGraph {
            compiled,
            doc,
            tables,
            base_cells,
            back,
        })
    }

    /// The compiled automaton driving the graph.
    #[inline]
    pub fn compiled(&self) -> &CompiledVsa {
        &self.compiled
    }

    /// Whether the automaton has any valid accepting run on the document:
    /// whether the initial closure meets the useful states of position 1.
    pub fn is_nonempty(&self) -> bool {
        self.tables
            .coaccessible(self.compiled.initial_closure(), self.back[0])
    }

    /// Table cells this graph (and the enumeration on top of it) had to
    /// compute — 0 when the automaton's tables were warm for the document.
    pub fn table_cells(&self) -> u64 {
        self.tables.cells() - self.base_cells
    }

    /// The first *viable* candidate of `frontier` at position `pos`, at or
    /// after index `from` of the frontier's candidate list: its operation
    /// set, the states reached by performing exactly that set, and the index
    /// of the next viable candidate after it — `None` when it is the last,
    /// so the caller knows it will never come back to this frontier.
    /// Viable means some reached state is useful at `pos`, i.e. the choice
    /// extends to an accepted mapping. Candidates come in increasing
    /// operation-set order.
    pub(crate) fn next_candidate(
        &mut self,
        pos: u32,
        frontier: SetId,
        from: usize,
    ) -> Option<(OpSet, SetId, Option<usize>)> {
        if self.tables.ops(frontier).is_none() {
            Arc::make_mut(&mut self.tables).fill_ops(&self.compiled, frontier);
        }
        let candidates = self.tables.ops(frontier).expect("filled above");
        let at = self.back[pos as usize - 1];
        let viable = |from: usize| {
            candidates[from..]
                .iter()
                .position(|&(_, reached)| self.tables.viable(reached, at))
                .map(|offset| from + offset)
        };
        let i = viable(from)?;
        let (ops, reached) = candidates[i];
        Some((OpSet(ops), reached, viable(i + 1)))
    }

    /// Advances a set of states over the letter at `pos` (1-based, `≤ |d|`).
    ///
    /// The result is *not* pruned to the co-accessible states of `pos + 1`:
    /// a dead state reaches useful states at no later position, so it can
    /// never make a candidate viable, and leaving it in keeps this step a
    /// function of the automaton alone.
    pub(crate) fn advance(&mut self, pos: u32, states: SetId) -> SetId {
        let class = self.compiled.class_of(self.doc.bytes()[pos as usize - 1]);
        match self.tables.step(states, class) {
            Some(next) => next,
            None => Arc::make_mut(&mut self.tables).fill_step(&self.compiled, states, class),
        }
    }

    /// Crosses the stretch of `frontier` that begins at `pos`: returns the
    /// first position at or after `pos` that is not a stretch position of
    /// `frontier` (see [`spanner_vset::Stretch`]), `|d| + 1` at the latest.
    /// Every position crossed is one the walk would have entered with ∅ as
    /// its only viable candidate and left with the same frontier, unforced.
    ///
    /// The common answer — no stretch begins here — is one test inline;
    /// the loop behind it borrows the tables once and allocates nothing. A
    /// cell it needs is filled and the loop resumes where it stopped, so
    /// where a stretch ends does not depend on how warm the tables are.
    #[inline]
    pub(crate) fn cross(&mut self, pos: u32, frontier: SetId) -> u32 {
        let Some(&byte) = self.doc.bytes().get(pos as usize - 1) else {
            return pos;
        };
        let class = self.compiled.class_of(byte);
        if self.tables.no_stretch_at(frontier, class) {
            return pos;
        }
        self.cross_stretch(pos as usize, frontier)
    }

    /// The loop of [`MatchGraph::cross`], kept out of line: the inline test
    /// answers almost every call, and the walk's own loop stays small.
    #[inline(never)]
    fn cross_stretch(&mut self, mut pos: usize, frontier: SetId) -> u32 {
        let bytes = self.doc.bytes();
        loop {
            // The stretch cell is filled with the frontier's candidates.
            if self.tables.ops(frontier).is_none() {
                Arc::make_mut(&mut self.tables).fill_ops(&self.compiled, frontier);
            }
            let stretch = self.tables.stretch(frontier).expect("filled with the row");
            let mut holds = Some(false);
            while pos <= bytes.len() {
                let class = self.compiled.class_of(bytes[pos - 1]);
                holds = stretch.holds(self.back[pos - 1], class);
                if holds != Some(true) {
                    break;
                }
                debug_assert!(
                    !self.forced(pos as u32 + 1, frontier),
                    "a stretch is unforced"
                );
                pos += 1;
            }
            if holds.is_some() {
                return pos as u32;
            }
            // ∅'s step over this byte is not filled yet.
            let (empty, class) = (stretch.empty(), self.compiled.class_of(bytes[pos - 1]));
            Arc::make_mut(&mut self.tables).fill_step(&self.compiled, empty, class);
        }
    }

    /// Whether the continuation of `frontier` at `pos` is *forced*: no
    /// accepting continuation performs another variable operation, so the
    /// subtree below holds exactly one mapping and adds nothing to it.
    #[inline]
    pub(crate) fn forced(&self, pos: u32, frontier: SetId) -> bool {
        self.tables.forced(frontier, self.back[pos as usize - 1])
    }
}

impl Drop for MatchGraph<'_> {
    fn drop(&mut self) {
        if self.table_cells() > 0 {
            self.compiled.publish_eval_tables(&self.tables);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_rgx::parse;
    use spanner_vset::compile;

    #[test]
    fn coaccessibility_and_nonemptiness() {
        let a = compile(&parse("a{x:b*}c").unwrap());
        let doc = Document::new("abbc");
        let g = MatchGraph::build(&a, &doc).unwrap();
        assert!(g.is_nonempty());

        let doc2 = Document::new("abb");
        let g2 = MatchGraph::build(&a, &doc2).unwrap();
        assert!(!g2.is_nonempty());
    }

    #[test]
    fn non_sequential_automata_are_rejected() {
        use spanner_core::Variable;
        use spanner_vset::Label;
        let mut a = Vsa::new();
        let q1 = a.add_state();
        a.add_transition(0, Label::Open(Variable::new("x")), q1);
        a.set_accepting(q1, true);
        let doc = Document::new("");
        assert!(MatchGraph::build(&a, &doc).is_err());
    }

    #[test]
    fn op_closures_enumerate_candidate_sets() {
        // ({x:a})?a* on "a": the candidates group whole per-position op
        // sets; at position 1 the viable ones are ∅ (the `a*` branch) and
        // {x⊢} — closing x needs a letter first.
        let a = compile(&parse("({x:a})?a*").unwrap());
        let doc = Document::new("a");
        let mut g = MatchGraph::build(&a, &doc).unwrap();
        let mut sets = Vec::new();
        let mut from = Some(0);
        while let Some((set, _, next)) =
            from.and_then(|i| g.next_candidate(1, EvalTables::INITIAL, i))
        {
            sets.push(set);
            from = next;
        }
        assert_eq!(sets.len(), 2, "{sets:?}");
        assert!(sets[0].is_empty() && sets[0] < sets[1], "{sets:?}");
    }

    #[test]
    fn borrowed_and_owned_compilation_agree() {
        let a = compile(&parse("a{x:b*}c").unwrap());
        let compiled = CompiledVsa::compile(&a);
        let doc = Document::new("abbc");
        let owned = MatchGraph::build(&a, &doc).unwrap();
        let borrowed = MatchGraph::from_compiled(&compiled, &doc).unwrap();
        assert_eq!(owned.is_nonempty(), borrowed.is_nonempty());
        assert_eq!(owned.back, borrowed.back);
    }

    #[test]
    fn a_second_document_walks_warm_tables() {
        let compiled = CompiledVsa::compile(&compile(&parse(".*{x:a+}b.*").unwrap()));
        let doc = Document::new("zaabz");
        let cold = MatchGraph::from_compiled(&compiled, &doc).unwrap();
        assert!(cold.table_cells() > 0);
        drop(cold);
        let warm = MatchGraph::from_compiled(&compiled, &doc).unwrap();
        assert_eq!(warm.table_cells(), 0);
        assert!(warm.is_nonempty());
    }
}
