//! Maintained per-query result views with delta propagation.
//!
//! A [`QueryView`] memoizes one prepared query's per-document relations as
//! struct-of-arrays: a dense snapshot of the content hash each document had
//! when the view last evaluated it, plus a *sparse*, id-sorted table of the
//! non-empty relations only — an empty relation (the overwhelming majority
//! for a selective query) is retained by its hash alone.
//! [`CorpusEngine::scan_delta`] compares the snapshot with the current
//! hashes, re-evaluates the documents that differ (appended, updated,
//! deleted, or refused by the budget) and merges the retained relations for
//! everything else — the semi-naive shape.
//!
//! **Cost of a repeat query** after `k` mutations, over `n` documents of
//! which `m` match: one compare of two `u64` slices (`memcmp` speed;
//! microseconds at 10k documents), `k` document evaluations and `m` relation
//! clones into the answer — the answer is [`CorpusMatches`], which has no
//! slot per document, so the compare is the only term that follows `n`. A
//! fresh view costs one copy of the hash slice (8 bytes a document; what is
//! allocated for it is [`QueryView::snapshot_bytes`], and the retention
//! budget does not bound it)
//! on top of the candidate evaluations — what the indexed query costs.
//!
//! **Soundness.** An entry is reused only when the snapshot hash equals the
//! document's current content hash, and a spanner's result is a pure
//! function of document content — so every reused relation is exactly what
//! re-evaluation would produce (up to hash collisions, which the store's
//! 64-bit FNV-1a makes vanishingly unlikely; see DESIGN.md §11). The
//! compare is kept, in place of a change list pushed by the store, because
//! it keeps that argument local: the view needs no store identity and no
//! log to stay in step with, and its hit/miss counts are a function of the
//! documents alone.
//!
//! The view is bounded: each retained mapping costs one unit of the
//! budget, and a relation that does not fit is *refused* — listed by id and
//! re-evaluated on every pass. Budget `0` retains nothing, not even the
//! snapshot — every evaluation is cold — which the differential oracle uses
//! to pin the delta path against the full scan.

use crate::{assemble, intersect_sorted, CorpusEngine, CorpusMatches, CorpusResult};
use spanner_algebra::NoTrace;
use spanner_core::{Document, MappingSet, SpannerResult};
use std::time::Instant;

/// Hashes compared per `memcmp` when looking for changed documents: a
/// block that compares equal (the common case) is not inspected further.
const COMPARE_BLOCK: usize = 64;

/// A maintained result view for one prepared query over one corpus:
/// per-document memoized relations keyed by content hash, behind a bounded
/// retention budget.
///
/// Document `i` has a *retained entry* when `i < hashes.len()` and `i` is
/// not in `refused`; its relation is `matches`' row for `i`, or empty.
#[derive(Debug, Clone, Default)]
pub struct QueryView {
    /// Content hash of each document when the view last evaluated it,
    /// indexed like the corpus.
    hashes: Vec<u64>,
    /// The non-empty retained relations, sorted by document id.
    matches: Vec<(u32, MappingSet)>,
    /// Sorted ids whose (non-empty) relation the budget refused: their
    /// snapshot hash vouches for nothing.
    refused: Vec<u32>,
    /// Retention budget, in retained mappings.
    budget: usize,
    /// Mappings currently retained in `matches`.
    retained_cost: usize,
    /// Store generation the view was last synchronized against — advisory
    /// (freshness is decided per document by hash), surfaced for
    /// observability.
    generation: u64,
}

impl QueryView {
    /// An empty view with the given retention budget. Budget `0` retains
    /// nothing (every evaluation is cold).
    pub fn new(budget: usize) -> QueryView {
        QueryView {
            budget,
            ..QueryView::default()
        }
    }

    /// An empty view with an effectively unlimited budget.
    pub fn unbounded() -> QueryView {
        QueryView::new(usize::MAX)
    }

    /// The retention budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of retained mappings (≤ budget).
    pub fn retained_cost(&self) -> usize {
        self.retained_cost
    }

    /// Bytes allocated for the hash snapshot, whatever the budget (a budget
    /// of `0` keeps no snapshot): 8 per document for a view filled in one
    /// pass, and the vector's capacity — up to twice that — once appends
    /// have grown it.
    pub fn snapshot_bytes(&self) -> usize {
        self.hashes.capacity() * std::mem::size_of::<u64>()
    }

    /// The store generation recorded at the last synchronization
    /// ([`QueryView::set_generation`]); purely informational.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records the store generation this view now reflects.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Drops every retained entry (the budget is kept).
    pub fn clear(&mut self) {
        self.hashes.clear();
        self.matches.clear();
        self.refused.clear();
        self.retained_cost = 0;
    }

    /// The delta against the corpus's `current` hashes (at least as long
    /// as the snapshot), among the documents the snapshot covers: the
    /// sorted ids without a valid retained entry — changed or refused — and
    /// how many of them invalidate an entry that was retained. (Every
    /// document past the snapshot misses as well; that run is a range and
    /// is not listed.)
    fn delta(&self, current: &[u64]) -> (Vec<u32>, usize) {
        let known = self.hashes.len();
        let mut stale: Vec<u32> = Vec::new();
        let blocks = self
            .hashes
            .chunks(COMPARE_BLOCK)
            .zip(current[..known].chunks(COMPARE_BLOCK));
        for (block, (old, new)) in blocks.enumerate() {
            if old != new {
                let base = block * COMPARE_BLOCK;
                let differing = old.iter().zip(new).enumerate().filter(|(_, (o, n))| o != n);
                stale.extend(differing.map(|(i, _)| (base + i) as u32));
            }
        }
        // Two sorted runs: the stable sort merges them; a refused document
        // that also changed is one miss and invalidates nothing.
        stale.extend_from_slice(&self.refused);
        stale.sort();
        stale.dedup();
        let invalidated = stale.len() - self.refused.len();
        (stale, invalidated)
    }

    /// Drops the retained relations of the `stale` documents ahead of
    /// their replacement, leaving exactly the hits.
    fn release(&mut self, stale: &[u32]) {
        let mut missed = stale.iter().peekable();
        self.matches.retain(|(id, set)| {
            while missed.next_if(|&&m| m < *id).is_some() {}
            let hit = missed.peek() != Some(&id);
            if !hit {
                self.retained_cost -= set.len();
            }
            hit
        });
        // Every refused id is a miss; `admit` lists the ones refused again.
        self.refused.clear();
    }

    /// Records the delta's outcome: snapshots the `current` hash of every
    /// miss — the `stale` documents and everything past the snapshot — and
    /// retains, in id order, the pass's `matches` (the non-empty relations
    /// among the documents it evaluated) the budget allows. (Any other miss
    /// was pruned by the index or evaluated to nothing: it is retained as
    /// empty, by hash alone.)
    fn admit(&mut self, current: &[u64], stale: &[u32], matches: &[(u32, MappingSet)]) {
        if self.budget == 0 {
            return;
        }
        for &id in stale {
            self.hashes[id as usize] = current[id as usize];
        }
        let known = self.hashes.len();
        self.hashes.extend_from_slice(&current[known..]);
        for (id, set) in matches {
            // `retained_cost <= budget` always holds.
            if set.len() > self.budget - self.retained_cost {
                self.refused.push(*id);
            } else {
                self.retained_cost += set.len();
                self.matches.push((*id, set.clone()));
            }
        }
        // At most two sorted runs: the stable sort merges them in one pass.
        self.matches.sort_by_key(|&(id, _)| id);
    }
}

/// The outcome of one delta evaluation: the whole-corpus answer (identical
/// to a cold evaluation) plus how much of it was served from the view.
#[derive(Debug)]
pub struct DeltaOutcome<R = CorpusMatches> {
    /// The answer for the whole corpus, plus aggregate stats —
    /// bit-identical to [`CorpusEngine::scan`].
    pub output: R,
    /// Documents *not* served from the view (absent, hash-changed, or
    /// refused entries) — the documents the delta pass had to look at.
    pub delta_docs: usize,
    /// Documents whose retained relation was reused.
    pub view_hits: usize,
    /// Retained entries discarded because the document's hash changed —
    /// a subset of `delta_docs`.
    pub invalidated: usize,
}

impl CorpusEngine {
    /// Evaluates the corpus *incrementally* against a maintained
    /// [`QueryView`]: documents whose content hash matches the view's
    /// snapshot reuse the memoized relation; every other document (the
    /// *delta*) is re-evaluated and its entry refreshed. The answer covers
    /// the whole corpus and is bit-identical to [`CorpusEngine::scan`] for
    /// every thread count and budget. An evaluation error leaves the view
    /// as it was.
    ///
    /// `hashes` must hold one content hash per document (the store
    /// maintains them; `spanner_store::fnv1a64` is the reference
    /// implementation). `candidates`, when given, must be a *sound*
    /// sorted candidate set for this query over the current corpus (every
    /// document with a non-empty result is in it — the shape
    /// `spanner_store::Store::candidates` produces): delta documents
    /// outside it are recorded as empty without being read, so a cold view
    /// over an indexed store stays as cheap as the indexed scan. Ids are
    /// positions: a corpus shorter than the view's snapshot resets the view.
    pub fn scan_delta(
        &self,
        docs: &[Document],
        hashes: &[u64],
        candidates: Option<&[u32]>,
        view: &mut QueryView,
        threads: usize,
    ) -> SpannerResult<DeltaOutcome> {
        let start = Instant::now();
        assert_eq!(docs.len(), hashes.len(), "one content hash per document");
        if hashes.len() < view.hashes.len() {
            view.clear();
        }
        let known = view.hashes.len();
        let (stale, invalidated) = view.delta(hashes);
        let delta_docs = stale.len() + (docs.len() - known);
        // Index pruning applies to the delta only: a missed document
        // outside a sound candidate set is provably result-free. Every
        // document past the snapshot misses, so the candidates there are
        // the selection as they stand — a fresh view walks its candidate
        // set, not the corpus.
        let selection: Vec<u32> = match candidates {
            Some(set) => {
                let (covered, past) =
                    set.split_at(set.partition_point(|&id| (id as usize) < known));
                let in_corpus = past.iter().take_while(|&&id| (id as usize) < docs.len());
                let mut selection = intersect_sorted(&stale, covered);
                selection.extend(in_corpus);
                selection
            }
            None => {
                let past = known as u32..docs.len() as u32;
                stale.iter().copied().chain(past).collect()
            }
        };
        let pass = self.evaluate_selection::<NoTrace>(docs, &selection, threads)?;
        view.release(&stale);
        // What is left of the view is exactly the hits.
        let hits = view.matches.clone();
        view.admit(hashes, &stale, &pass.matches);
        let unread = delta_docs - selection.len();
        let (output, NoTrace) = assemble(docs.len(), unread, hits, pass, start);
        Ok(DeltaOutcome {
            output,
            delta_docs,
            view_hits: docs.len() - delta_docs,
            invalidated,
        })
    }

    /// [`CorpusEngine::scan_delta`], dense: kept for the frozen `bench/`
    /// package, which calls it by this name and reads
    /// `CorpusResult.results`; ROADMAP item 1(i) deletes it with
    /// [`CorpusMatches::into_dense`].
    pub fn evaluate_delta(
        &self,
        docs: &[Document],
        hashes: &[u64],
        candidates: Option<&[u32]>,
        view: &mut QueryView,
        threads: usize,
    ) -> SpannerResult<DeltaOutcome<CorpusResult>> {
        let sparse = self.scan_delta(docs, hashes, candidates, view, threads)?;
        Ok(DeltaOutcome {
            output: sparse.output.into_dense(),
            delta_docs: sparse.delta_docs,
            view_hits: sparse.view_hits,
            invalidated: sparse.invalidated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_algebra::{Instantiation, RaOptions, RaTree};

    fn engine(pattern: &str) -> CorpusEngine {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(pattern).unwrap());
        CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap()
    }

    fn hash(doc: &Document) -> u64 {
        // Local FNV-1a 64 mirror of `spanner_store::fnv1a64` (this crate
        // sits below the store and cannot depend on it).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in doc.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn hashes(docs: &[Document]) -> Vec<u64> {
        docs.iter().map(hash).collect()
    }

    #[test]
    fn warm_view_serves_everything_from_retained_entries() {
        let e = engine("{x:a+}");
        // Long enough that the cold pass, whose delta is every document,
        // is split across two workers.
        let docs: Vec<Document> = ["aa", "b", "a", "", "aaa"]
            .iter()
            .cycle()
            .take(300)
            .map(|t| Document::new(*t))
            .collect();
        let h = hashes(&docs);
        let full = e.scan(&docs, 1).unwrap().into_dense();
        let mut view = QueryView::unbounded();
        let cold = e.evaluate_delta(&docs, &h, None, &mut view, 2).unwrap();
        assert_eq!(cold.output.stats.threads, 2);
        assert_eq!(cold.output.results, full.results);
        assert_eq!(cold.delta_docs, docs.len());
        assert_eq!(cold.view_hits, 0);
        assert_eq!(view.retained_cost(), full.stats.mappings);
        let warm = e.evaluate_delta(&docs, &h, None, &mut view, 2).unwrap();
        assert_eq!(warm.output.stats.threads, 1);
        assert_eq!(warm.output.results, full.results);
        assert_eq!(warm.delta_docs, 0);
        assert_eq!(warm.view_hits, docs.len());
        assert_eq!(warm.invalidated, 0);
    }

    #[test]
    fn changed_documents_are_invalidated_and_reevaluated() {
        let e = engine("{x:a+}");
        let mut docs: Vec<Document> = ["aa", "b", "a"].iter().map(|t| Document::new(*t)).collect();
        let mut view = QueryView::unbounded();
        let h = hashes(&docs);
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        // Mutate one document, append another.
        docs[1] = Document::new("aaaa");
        docs.push(Document::new("a"));
        let h = hashes(&docs);
        let out = e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        let full = e.scan(&docs, 1).unwrap().into_dense();
        assert_eq!(out.output.results, full.results);
        assert_eq!(out.delta_docs, 2); // the update and the append
        assert_eq!(out.invalidated, 1); // only the update had an entry
        assert_eq!(out.view_hits, 2);
    }

    #[test]
    fn zero_budget_view_is_always_cold() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = ["aa", "b"].iter().map(|t| Document::new(*t)).collect();
        let h = hashes(&docs);
        let mut view = QueryView::new(0);
        for _ in 0..2 {
            let out = e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
            assert_eq!(out.view_hits, 0);
            assert_eq!(out.delta_docs, docs.len());
            assert!(view.hashes.is_empty() && view.matches.is_empty());
            assert_eq!(view.retained_cost(), 0);
        }
    }

    #[test]
    fn budget_bounds_retained_cost() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = ["aa", "b", "aa", "aa", "", "aa"]
            .iter()
            .map(|t| Document::new(*t))
            .collect();
        let h = hashes(&docs);
        // One mapping per matching document; a budget of 2 retains the
        // first two of them and every empty relation (those are free).
        let mut view = QueryView::new(2);
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        assert_eq!(view.retained_cost(), 2);
        assert_eq!(view.refused, vec![3, 5]);
        let out = e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        assert_eq!((out.view_hits, out.delta_docs, out.invalidated), (4, 2, 0));
        let full = e.scan(&docs, 1).unwrap().into_dense();
        assert_eq!(out.output.results, full.results);
    }

    #[test]
    fn shrinking_corpus_resets_the_view() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = (0..5).map(|_| Document::new("a")).collect();
        let h = hashes(&docs);
        let mut view = QueryView::unbounded();
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        // Ids are positions: a shorter corpus is a different corpus.
        let out = e
            .evaluate_delta(&docs[..2], &h[..2], None, &mut view, 1)
            .unwrap();
        assert_eq!((out.view_hits, out.delta_docs, out.invalidated), (0, 2, 0));
        assert_eq!(out.output.results.len(), 2);
        assert_eq!((view.hashes.len(), view.retained_cost()), (2, 2));
    }

    #[test]
    fn tight_budget_refuses_in_id_order_and_releases_on_change() {
        let e = engine(".*{x:needle}.*");
        let mut docs: Vec<Document> = (0..12)
            .map(|i| match i % 4 {
                0 => Document::new(format!("needle {i}")),
                _ => Document::new(format!("hay {i}")),
            })
            .collect();
        let candidates = [0u32, 4, 8];
        let check = |docs: &[Document], view: &mut QueryView, threads| {
            let out = e
                .evaluate_delta(docs, &hashes(docs), Some(&candidates), view, threads)
                .unwrap();
            let full = e.scan(docs, 1).unwrap().into_dense();
            assert_eq!(out.output.results, full.results);
            assert_eq!(out.output.stats.mappings, full.stats.mappings);
            assert_eq!(
                out.output.stats.matched_documents,
                full.stats.matched_documents
            );
            assert_eq!(out.view_hits + out.delta_docs, docs.len());
            out
        };
        // One mapping each for documents 0, 4 and 8: a budget of 2 keeps
        // the first two; everything pruned by the index is kept as empty.
        let mut view = QueryView::new(2);
        let cold = check(&docs, &mut view, 1);
        assert_eq!((cold.view_hits, cold.output.stats.docs_skipped), (0, 9));
        assert_eq!((view.retained_cost(), &view.refused), (2, &vec![8]));
        let warm = check(&docs, &mut view, 2);
        assert_eq!(
            (warm.view_hits, warm.delta_docs, warm.invalidated),
            (11, 1, 0)
        );
        // A refused document that also changed invalidates nothing; a
        // retained one that changed does, and frees its mappings for the
        // next relation in id order.
        docs[8] = Document::new("the needle moved");
        docs[0] = Document::new("hay too");
        let out = check(&docs, &mut view, 1);
        assert_eq!((out.delta_docs, out.invalidated), (2, 1));
        assert_eq!((view.retained_cost(), view.refused.len()), (2, 0));
        let ids: Vec<u32> = view.matches.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [4, 8]);
    }

    #[test]
    fn candidate_pruning_applies_to_cold_misses() {
        let e = engine(".*needle{x: .*}.*");
        let docs: Vec<Document> = (0..20)
            .map(|i| {
                if i % 5 == 0 {
                    Document::new(format!("needle {i}"))
                } else {
                    Document::new(format!("hay {i}"))
                }
            })
            .collect();
        let h = hashes(&docs);
        let candidates: Vec<u32> = (0..20).step_by(5).collect();
        let mut view = QueryView::unbounded();
        let out = e
            .evaluate_delta(&docs, &h, Some(&candidates), &mut view, 2)
            .unwrap();
        let full = e.scan(&docs, 2).unwrap().into_dense();
        assert_eq!(out.output.results, full.results);
        // Pruned misses are skipped without being read — and still cached,
        // so the next pass serves them as hits.
        assert!(out.output.stats.docs_skipped >= 16);
        let warm = e
            .evaluate_delta(&docs, &h, Some(&candidates), &mut view, 2)
            .unwrap();
        assert_eq!(warm.view_hits, docs.len());
        assert_eq!(warm.delta_docs, 0);
    }

    #[test]
    fn documents_past_the_snapshot_select_their_candidates_unwalked() {
        let e = engine(".*{x:needle}.*");
        let line = |i: usize| match i % 7 {
            0 => Document::new(format!("needle {i}")),
            _ => Document::new(format!("hay {i}")),
        };
        let mut docs: Vec<Document> = (0..40).map(line).collect();
        // Sound and not exact: every needle line, one line of hay, and an
        // id past the corpus (ignored, as a merge against the misses did).
        let candidates = |n: u32| -> Vec<u32> {
            let mut ids: Vec<u32> = (0..n).filter(|i| i % 7 == 0 || *i == 3).collect();
            ids.push(n + 2);
            ids
        };
        let same_pass = |a: &CorpusResult, b: &CorpusResult| {
            assert_eq!(a.results, b.results);
            let (mut a, mut b) = (a.stats, b.stats);
            (a.elapsed, b.elapsed) = Default::default();
            assert_eq!(a, b);
        };

        // A fresh view is the indexed scan, field for field, and admits
        // what a fresh view without an index admits.
        let h = hashes(&docs);
        let mut view = QueryView::unbounded();
        let fresh = e
            .evaluate_delta(&docs, &h, Some(&candidates(40)), &mut view, 1)
            .unwrap();
        let indexed = e
            .scan_candidates(&docs, &candidates(40)[..7], 1)
            .unwrap()
            .into_dense();
        same_pass(&fresh.output, &indexed);
        // 33 lines unread, and the prefilters skip the candidate line of hay.
        assert_eq!(fresh.output.stats.docs_skipped, 34);
        assert_eq!(
            (fresh.delta_docs, fresh.view_hits, fresh.invalidated),
            (40, 0, 0)
        );
        let mut unpruned = QueryView::unbounded();
        e.evaluate_delta(&docs, &h, None, &mut unpruned, 1).unwrap();
        assert_eq!(view.hashes, unpruned.hashes);
        assert_eq!(view.matches, unpruned.matches);
        assert_eq!(view.refused, unpruned.refused);
        assert_eq!(view.retained_cost(), unpruned.retained_cost());

        // A warm view over a corpus that grew and changed: the stale
        // document is merged against the candidates it is covered by, the
        // appended ones are taken from the candidate set as they stand.
        docs[14] = Document::new("hay now");
        docs.extend((40..60).map(line));
        let h = hashes(&docs);
        let grown = e
            .evaluate_delta(&docs, &h, Some(&candidates(60)), &mut view, 1)
            .unwrap();
        let full = e.scan(&docs, 1).unwrap().into_dense();
        assert_eq!(grown.output.results, full.results);
        assert_eq!(
            (grown.delta_docs, grown.view_hits, grown.invalidated),
            (21, 39, 1)
        );
        // Read: document 14 (hay now: skipped by the prefilters) and the
        // appended needle lines 42, 49 and 56; the other 17 are not.
        assert_eq!(grown.output.stats.docs_skipped, 18);
        let mut scratch = QueryView::unbounded();
        e.evaluate_delta(&docs, &h, None, &mut scratch, 1).unwrap();
        assert_eq!(view.hashes, scratch.hashes);
        assert_eq!(view.matches, scratch.matches);
    }

    #[test]
    fn intersect_sorted_keeps_common_ids() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[0, 3, 4, 9, 11]), [3, 9]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
        assert!(intersect_sorted(&[2, 4], &[]).is_empty());
    }

    #[test]
    fn errors_propagate_and_poison_nothing() {
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let failing = engine(&parts.concat());
        let docs = vec![Document::new("aaa"), Document::new("b")];
        let h = hashes(&docs);
        let mut view = QueryView::unbounded();
        assert!(failing
            .evaluate_delta(&docs, &h, None, &mut view, 1)
            .is_err());
        assert!(view.hashes.is_empty());
        // A warm view survives a failed pass untouched: nothing that was
        // not evaluated may read as retained afterwards.
        let e = engine("{x:a+}");
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        let (entries, cost) = (view.hashes.clone(), view.retained_cost());
        let mut grown = docs.clone();
        grown[1] = Document::new("aa");
        grown.push(Document::new("a"));
        assert!(failing
            .evaluate_delta(&grown, &hashes(&grown), None, &mut view, 1)
            .is_err());
        assert_eq!((&view.hashes, view.retained_cost()), (&entries, cost));
        let out = e
            .evaluate_delta(&grown, &hashes(&grown), None, &mut view, 1)
            .unwrap();
        assert_eq!((out.delta_docs, out.invalidated, out.view_hits), (2, 1, 1));
        let full = e.scan(&grown, 1).unwrap().into_dense();
        assert_eq!(out.output.results, full.results);
    }
}
