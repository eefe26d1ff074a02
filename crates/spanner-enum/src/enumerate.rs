//! Polynomial-delay enumeration of sequential vset-automata (Theorem 2.5).
//!
//! [`Enumerator`] walks the mappings of `VAW(d)` one by one, without
//! duplicates and without dead ends: a partial choice of per-position
//! operation sets is extended only when a reachability certificate (computed
//! on the [`MatchGraph`]) guarantees that it completes to an accepted
//! mapping. The delay between two consecutive mappings is therefore bounded
//! by a polynomial in the document and the automaton for any fixed number of
//! variables — see DESIGN.md §2 for how this substitutes for the
//! combined-complexity algorithm of Amarilli et al. that the paper cites.
//!
//! The depth-first walk keeps a frame only at a *branch point*. Invariant:
//! **every frame on the stack has an untried viable candidate.** A position
//! whose chosen candidate was its last viable one is never resumed —
//! backtracking to it would only pop it — so its frame gives way to its
//! successor instead of staying beneath it. Order, duplicate-freeness and
//! the delay bound are those of the frame-per-position walk; what changes is
//! that the stack holds one frame per real alternative on the path, not one
//! per position (on a `.*`-headed line ∅ is the only viable candidate at
//! most positions), and that backtracking reaches the next alternative in
//! O(1).
//!
//! Nor does the walk search candidates where it cannot branch. A *stretch
//! position* `p` of a frontier `F` is one where ∅ is `F`'s only viable
//! candidate, the byte at `p` steps ∅'s reached set back to `F`, and `F`
//! is not forced at `p + 1`: the frame-per-position walk would enter it,
//! choose ∅, keep no frame, record nothing and enter `p + 1` with `F`
//! again. [`Enumerator::next`] resumes the top frame once (the root
//! frame, kept off the stack, first) and walks forward in one loop; after
//! each letter step it crosses the stretch it enters ([`MatchGraph`]'s
//! `cross`, a loop over the frontier's [`Stretch`](spanner_vset::Stretch)
//! cell and the per-position backward states); a resumed frame's position
//! is always searched. It is the same DFS with cheaper boring steps:
//! answers, order, frames, duplicate-freeness and the delay bound are
//! unchanged. Two counters say what the walk did —
//! [`Enumerator::walk_steps`] candidate searches and
//! [`Enumerator::stretch_positions`] positions crossed; their sum is the
//! number of candidate searches the frame-per-position walk made.

use crate::matchgraph::MatchGraph;
use crate::opset::{mapping_from_ops, OpSet};
use spanner_core::{Document, Mapping, MappingSet, SpannerError, SpannerResult};
use spanner_vset::{CompiledVsa, EvalTables, SetId, Vsa};

/// A lazily evaluated stream of the mappings of `VAW(d)`.
///
/// A depth-first walk over `(position, frontier)` pairs, where a frontier is
/// an interned state set of the automaton's [`EvalTables`]: the candidate
/// operation sets of a frontier and the frontier after a letter are table
/// lookups (computed once per automaton, not per document), and the two
/// per-document questions — is a candidate *viable* here, is the rest of
/// the document *forced* — are one intersection each with the sets the match
/// graph's backward pass attached to the position.
pub struct Enumerator<'a> {
    graph: MatchGraph<'a>,
    /// Whether the walk has yet to start from the root frame `(1,
    /// {initial})`. The root is kept off the stack, so a document without
    /// a branch point never allocates one.
    root: bool,
    /// DFS stack: one frame per branch point on the current path (see the
    /// module docs).
    stack: Vec<Frame>,
    /// The non-empty operation sets chosen on the current path, with their
    /// positions.
    path: Vec<(u32, OpSet)>,
    /// Candidate searches so far.
    walk_steps: u64,
    /// Stretch positions crossed so far.
    stretch_positions: u64,
}

#[derive(Clone, Copy)]
struct Frame {
    /// Position of this frame (1-based; `|d| + 1` is the final frame).
    pos: u32,
    /// The states reached after consuming the letter at `pos - 1`.
    frontier: SetId,
    /// Index of `frontier`'s candidate list where the search for the next
    /// viable candidate starts (after a first choice, that candidate's own).
    next: u32,
    /// Length of `path` before this frame's choice.
    path_len: u32,
}

impl<'a> Enumerator<'a> {
    /// Creates an enumerator for `VAW(d)`, compiling the automaton on the
    /// fly.
    ///
    /// Fails if the automaton is not sequential or has too many variables for
    /// the bitset representation. To evaluate the same automaton on many
    /// documents, compile once with [`CompiledVsa::compile`] and use
    /// [`Enumerator::from_compiled`].
    pub fn new(vsa: &'a Vsa, doc: &'a Document) -> SpannerResult<Self> {
        Self::with_graph(MatchGraph::build(vsa, doc)?)
    }

    /// Creates an enumerator over an already-compiled automaton (the
    /// compile-once, evaluate-many path).
    pub fn from_compiled(compiled: &'a CompiledVsa, doc: &'a Document) -> SpannerResult<Self> {
        Self::with_graph(MatchGraph::from_compiled(compiled, doc)?)
    }

    fn with_graph(graph: MatchGraph<'a>) -> SpannerResult<Self> {
        Ok(Enumerator {
            root: graph.is_nonempty(),
            graph,
            stack: Vec::new(),
            path: Vec::new(),
            walk_steps: 0,
            stretch_positions: 0,
        })
    }

    /// The match graph driving the enumeration.
    pub fn graph(&self) -> &MatchGraph<'a> {
        &self.graph
    }

    /// Candidate searches made so far: one per position the walk entered
    /// outside a stretch, and one per resumed frame.
    pub fn walk_steps(&self) -> u64 {
        self.walk_steps
    }

    /// Stretch positions crossed so far (see the module docs): positions
    /// the walk passed with no candidate search.
    pub fn stretch_positions(&self) -> u64 {
        self.stretch_positions
    }

    fn next_mapping(&mut self) -> Option<SpannerResult<Mapping>> {
        let n = self.graph.doc.len() as u32;
        // Resume the top frame (the root, first), then walk forward to the
        // next mapping.
        let root = Frame {
            pos: 1,
            frontier: EvalTables::INITIAL,
            next: 0,
            path_len: 0,
        };
        let Frame {
            mut pos,
            mut frontier,
            next,
            path_len,
        } = match self.stack.pop() {
            Some(frame) => frame,
            None if std::mem::take(&mut self.root) => root,
            None => return None,
        };
        self.path.truncate(path_len as usize);
        let mut from = next as usize;
        loop {
            self.walk_steps += 1;
            let (set, reached, rest) = self
                .graph
                .next_candidate(pos, frontier, from)
                .expect("a resumed frame, and every position walked into, has a viable candidate");
            // Keep a frame only while it has a viable candidate left: a
            // frame with none would never be resumed.
            if let Some(i) = rest {
                self.stack.push(Frame {
                    pos,
                    frontier,
                    next: i as u32,
                    path_len: self.path.len() as u32,
                });
            }
            if !set.is_empty() {
                self.path.push((pos, set));
            }
            if pos > n {
                break;
            }
            // Consume the letter at `pos` and walk on — unless the rest is
            // forced: then the mapping is already determined by the path,
            // so emit it without walking the suffix (the dominant cost on
            // `.*…​.*`-shaped extractors). Cross the stretch the walk
            // enters, if any, without a candidate search.
            frontier = self.graph.advance(pos, reached);
            if self.graph.forced(pos + 1, frontier) {
                break;
            }
            let entered = self.graph.cross(pos + 1, frontier);
            self.stretch_positions += u64::from(entered - pos - 1);
            (pos, from) = (entered, 0);
        }
        let vars = self.graph.compiled().var_table().vars();
        Some(mapping_from_ops(vars, &self.path))
    }
}

impl<'a> Iterator for Enumerator<'a> {
    type Item = SpannerResult<Mapping>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_mapping()
    }
}

/// Enumerates `VAW(d)` into a materialized [`MappingSet`].
///
/// Prefer [`Enumerator`] when the result may be large.
pub fn evaluate(vsa: &Vsa, doc: &Document) -> SpannerResult<MappingSet> {
    let mappings: Vec<Mapping> = Enumerator::new(vsa, doc)?.collect::<SpannerResult<_>>()?;
    Ok(MappingSet::from_mappings(mappings))
}

/// Enumerates `VAW(d)` for an already-compiled automaton.
pub fn evaluate_compiled(compiled: &CompiledVsa, doc: &Document) -> SpannerResult<MappingSet> {
    let mappings: Vec<Mapping> =
        enumerate_compiled(compiled, doc)?.collect::<SpannerResult<_>>()?;
    Ok(MappingSet::from_mappings(mappings))
}

/// The iterator-shaped counterpart of [`evaluate_compiled`]: a lazy,
/// duplicate-free, polynomial-delay mapping stream over an already-compiled
/// automaton. This is the enumeration entry point the physical operator
/// executor in `spanner-algebra` pulls from; it is [`Enumerator::from_compiled`]
/// under a function name symmetric with the evaluate family.
pub fn enumerate_compiled<'a>(
    compiled: &'a CompiledVsa,
    doc: &'a Document,
) -> SpannerResult<Enumerator<'a>> {
    Enumerator::from_compiled(compiled, doc)
}

/// Whether `VAW(d)` is nonempty (polynomial time; Theorem 2.5's
/// nonemptiness).
pub fn is_nonempty(vsa: &Vsa, doc: &Document) -> SpannerResult<bool> {
    Ok(MatchGraph::build(vsa, doc)?.is_nonempty())
}

/// Counts the mappings of `VAW(d)` by enumeration, stopping at `limit`.
///
/// Returns `Ok(count)` with `count ≤ limit`; a result equal to `limit` means
/// "at least `limit`".
pub fn count_mappings(vsa: &Vsa, doc: &Document, limit: usize) -> SpannerResult<usize> {
    let e = Enumerator::new(vsa, doc)?;
    let mut count = 0usize;
    for m in e {
        m?;
        count += 1;
        if count >= limit {
            break;
        }
    }
    Ok(count)
}

/// Convenience: evaluates a regex formula by compiling it to a VA and
/// enumerating (the production counterpart of the regex reference semantics
/// in `spanner-paper`).
pub fn evaluate_rgx(alpha: &spanner_rgx::Rgx, doc: &Document) -> SpannerResult<MappingSet> {
    if !spanner_rgx::is_sequential(alpha) {
        return Err(SpannerError::requirement(
            "sequential",
            format!("regex formula {alpha} is not sequential"),
        ));
    }
    evaluate(&spanner_vset::compile(alpha), doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_rgx::parse;
    use spanner_vset::compile;

    #[test]
    fn enumeration_has_no_duplicates() {
        // A deliberately ambiguous automaton: many runs produce the same
        // mapping, but each mapping must be reported exactly once.
        let alpha = parse("(a|a)*{x:(a|a)*}(a|a)*").unwrap();
        let vsa = compile(&alpha);
        let doc = Document::new("aaaa");
        let mappings: Vec<Mapping> = Enumerator::new(&vsa, &doc)
            .unwrap()
            .map(|m| m.unwrap())
            .collect();
        let unique: std::collections::BTreeSet<_> = mappings.iter().cloned().collect();
        assert_eq!(mappings.len(), unique.len(), "duplicates produced");
        // x ranges over all 15 spans of "aaaa".
        assert_eq!(mappings.len(), 15);
    }

    #[test]
    fn nonemptiness_and_counting() {
        let vsa = compile(&parse("{x:a+}b").unwrap());
        assert!(is_nonempty(&vsa, &Document::new("aab")).unwrap());
        assert!(!is_nonempty(&vsa, &Document::new("ba")).unwrap());
        assert_eq!(count_mappings(&vsa, &Document::new("aab"), 100).unwrap(), 1);

        let many = compile(&parse(".*{x:.*}.*").unwrap());
        // |d| = 4 ⇒ 15 spans.
        assert_eq!(
            count_mappings(&many, &Document::new("abcd"), 100).unwrap(),
            15
        );
        // The limit caps the work.
        assert_eq!(count_mappings(&many, &Document::new("abcd"), 7).unwrap(), 7);
    }

    #[test]
    fn lazy_iteration_yields_incrementally() {
        let vsa = compile(&parse(".*{x:.*}.*").unwrap());
        let doc = Document::new("a".repeat(40));
        let mut e = Enumerator::new(&vsa, &doc).unwrap();
        // Pull just a few mappings from a large result set.
        for _ in 0..5 {
            assert!(e.next().is_some());
        }
    }

    #[test]
    fn larger_document_smoke_test() {
        // A realistic-ish extractor over a 2 KB document; just check that
        // enumeration terminates and produces a plausible count.
        let vsa = compile(&parse(r".* {kv:\w+=\d+} .*").unwrap());
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!(" key{i}={i} "));
        }
        let doc = Document::new(text);
        let count = count_mappings(&vsa, &doc, usize::MAX).unwrap();
        assert!(count >= 100, "found {count}");
    }
}
