//! Parallel multi-document evaluation of compiled RA plans.
//!
//! The paper treats a spanner as a function from one document to a relation;
//! production workloads apply the same query to a *corpus*. This crate adds
//! that batch layer on top of `spanner-algebra`:
//!
//! * [`CorpusEngine`] compiles an instantiated RA tree **once** into a
//!   [`CompiledPlan`] (optimized by the `spanner-algebra::plan` rewriter by
//!   default, lowered onto the physical operator executor of
//!   `spanner-algebra::exec`) and then evaluates it over any number of
//!   documents — every worker runs the same operator pipeline as
//!   single-document evaluation and SpannerQL;
//! * every entry point — the full scan ([`CorpusEngine::scan`]), its traced
//!   form, the indexed scan over a candidate list and the incremental one
//!   ([`CorpusEngine::scan_delta`]) — is **one** pass over a *document
//!   selection* (a sorted id list; the full scan selects every id), a
//!   worker count and an executor [`Observer`]. There is one thread source:
//!   workers are threads scoped to the call, which borrow the plan and the
//!   documents — the crate keeps no thread alive between calls and owns no
//!   queue. The lowered plan is read-only after compilation
//!   (`CompiledPlan: Sync`), so every worker evaluates against the *same*
//!   shared operator tree and compiled automata — no per-thread
//!   compilation, no locking on the hot path. Results are returned **in
//!   corpus order** and are bit-identical for every entry point and thread
//!   count (each document is evaluated independently); a selection too
//!   small to give a second worker its minimum share runs on the calling
//!   thread;
//! * [`CorpusMatches`] is what a pass answers with: the non-empty relations,
//!   sorted by document id, plus aggregate [`CorpusStats`]. Nothing in it is
//!   sized by the corpus — a pass costs what it evaluated and what matched.
//!   The dense one-slot-per-document [`CorpusResult`] is
//!   [`CorpusMatches::into_dense`], kept for the frozen `bench/` package.
//!
//! ```
//! use spanner_algebra::{Instantiation, RaOptions, RaTree};
//! use spanner_core::Document;
//! use spanner_corpus::CorpusEngine;
//!
//! let tree = RaTree::leaf(0);
//! let inst = Instantiation::new().with(0, spanner_rgx::parse("{x:a+}").unwrap());
//! let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
//! let docs = vec![Document::new("aaa"), Document::new("b"), Document::new("a")];
//! let out = engine.scan(&docs, 2).unwrap();
//! assert_eq!(out.stats.documents, 3);
//! let ids: Vec<u32> = out.matches.iter().map(|(id, _)| *id).collect();
//! assert_eq!(ids, [0, 2]);
//! assert!(out.get(1).is_none());
//! ```

use spanner_algebra::plan::Screened;
use spanner_algebra::{
    CompiledPlan, ExecTrace, Instantiation, NoTrace, Observer, RaOptions, RaTree,
};
use spanner_core::{Document, MappingSet, SpannerResult};
use std::borrow::Cow;
use std::time::{Duration, Instant};

pub mod pool;
pub mod view;

pub use pool::{resolve_pool_threads, WorkerPool};
pub use view::{DeltaOutcome, QueryView};

/// Aggregate statistics of one corpus evaluation. Every field is a tally of
/// what the pass did or placed; the corpus's byte total is not one of them
/// (a caller that reports throughput knows its input's size — the store
/// keeps it, `Store::bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of documents evaluated.
    pub documents: usize,
    /// Total number of extracted mappings, over all documents.
    pub mappings: usize,
    /// Number of documents with at least one mapping.
    pub matched_documents: usize,
    /// Number of worker threads actually used.
    pub threads: usize,
    /// Documents skipped by the scan fast path without touching the match
    /// automaton: a static prefilter (length / prefix-class /
    /// required-factor check) ruled them out, or they lack one of the
    /// plan's required literals. Always `0` when
    /// [`RaOptions::scan_fast_path`] is disabled.
    pub docs_skipped: usize,
    /// Always `0`: the boolean pre-pass tier that rejected documents after
    /// the static prefilters is gone, and the executor's backward pass
    /// decides every document they accept. Kept only because the frozen
    /// `bench/` package names it; ROADMAP item 1 (in item 12's shape)
    /// deletes it.
    pub docs_rejected: usize,
    /// Wall-clock time of the evaluation (excluding plan compilation).
    pub elapsed: Duration,
}

/// The outcome of evaluating a corpus: the non-empty relations, sorted by
/// document id, plus aggregate statistics. A document that is not listed
/// has the empty relation.
#[derive(Debug)]
pub struct CorpusMatches {
    /// `(document id, relation)` for every document with at least one
    /// mapping, in corpus order.
    pub matches: Vec<(u32, MappingSet)>,
    /// Aggregate statistics.
    pub stats: CorpusStats,
}

impl CorpusMatches {
    /// Document `id`'s relation, when it is not empty.
    pub fn get(&self, id: u32) -> Option<&MappingSet> {
        let at = self.matches.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(&self.matches[at].1)
    }

    /// The one-slot-per-document form: every slot starts as the empty
    /// relation (which does not allocate) and the matches are placed. This
    /// is the only `O(corpus)` step of a pass and no serving path takes it;
    /// it is kept for the frozen `bench/` package, which reads
    /// `CorpusResult.results`, and for the differential oracles' `==`.
    /// ROADMAP item 1(i) deletes it with [`CorpusResult`].
    pub fn into_dense(self) -> CorpusResult {
        let mut results: Vec<MappingSet> = std::iter::repeat_with(MappingSet::new)
            .take(self.stats.documents)
            .collect();
        for (id, set) in self.matches {
            results[id as usize] = set;
        }
        CorpusResult {
            results,
            stats: self.stats,
        }
    }
}

impl AsRef<CorpusStats> for CorpusMatches {
    fn as_ref(&self) -> &CorpusStats {
        &self.stats
    }
}

impl AsRef<CorpusStats> for CorpusResult {
    fn as_ref(&self) -> &CorpusStats {
        &self.stats
    }
}

/// [`CorpusMatches`] with one relation per document, in corpus order — the
/// shape the frozen `bench/` package reads (see
/// [`CorpusMatches::into_dense`]).
#[derive(Debug)]
pub struct CorpusResult {
    /// Per-document results, indexed like the input corpus.
    pub results: Vec<MappingSet>,
    /// Aggregate statistics.
    pub stats: CorpusStats,
}

/// A compiled RA query ready to be evaluated over many documents.
#[derive(Debug)]
pub struct CorpusEngine {
    plan: CompiledPlan,
}

/// What one worker brings back from its chunk of a selection — and, folded
/// in id order, a whole pass: the non-empty relations, how many documents
/// the fast path proved empty before evaluation, the executor observation,
/// and the workers that ran.
struct Shard<O> {
    matches: Vec<(u32, MappingSet)>,
    skipped: usize,
    observer: O,
    workers: usize,
}

/// The one per-document loop: evaluates the documents `ids` of `docs` in
/// order, stopping at the first error. The plan's document-level pre-pass
/// is consulted first — a skip is a proof the result is empty, so such a
/// document never reaches the executor and surfaces as a tally (and as
/// `corpus_docs_skipped` on the root of a recording observer). Any other
/// document goes to the executor with the pre-pass's acceptance in hand, so
/// its prefilters are checked once, and merges its per-operator observation
/// into the worker's.
fn eval_chunk<O: Observer>(
    plan: &CompiledPlan,
    docs: &[Document],
    ids: &[u32],
    observer: O,
) -> SpannerResult<Shard<O>> {
    let mut shard = Shard {
        matches: Vec::new(),
        skipped: 0,
        observer,
        workers: 1,
    };
    for &id in ids {
        let doc = &docs[id as usize];
        match plan.evaluate_screened::<O>(doc) {
            Screened::Empty => {
                shard.skipped += 1;
                shard.observer.count("corpus_docs_skipped", 1);
            }
            Screened::Evaluated(result, observed) => {
                shard.observer.merge(&observed);
                shard.observer.count("corpus_docs_evaluated", 1);
                let set = result?;
                if !set.is_empty() {
                    shard.matches.push((id, set));
                }
            }
        }
    }
    Ok(shard)
}

/// Intersection of two sorted, duplicate-free id lists — candidate sets and
/// deltas, the currency between the index and the evaluators.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut b = b.iter().peekable();
    a.iter()
        .copied()
        .filter(|&id| {
            while b.next_if(|&&other| other < id).is_some() {}
            b.peek() == Some(&&id)
        })
        .collect()
}

/// The fewest documents a worker must receive before a selection is split
/// across threads. Handing work to another thread — spawning and joining a
/// scoped one — costs 50–100 µs on the reference box and as much again in
/// the allocator, which
/// then frees on one thread what another allocated; a warm matching log
/// line evaluates in 1.5–2 µs. Two workers break even with the calling
/// thread at some 64 documents each (DESIGN.md §11 has the table), and
/// below that the hand-off is most of a request and its cost follows the
/// scheduler, not the work. A constant, not an option: it follows the
/// machine, not the query.
const MIN_DOCS_PER_WORKER: usize = 128;

/// The workers `docs` documents are split across when `requested` are on
/// offer (`0` = one per CPU): one (the calling thread) unless each gets its
/// minimum share. Too few documents for a second worker is decided before
/// the thread count is resolved: resolving `0` asks the OS for the CPU
/// count (tens of microseconds), more than a small selection costs.
fn workers_for(requested: usize, docs: usize) -> usize {
    match docs / MIN_DOCS_PER_WORKER {
        0 | 1 => 1,
        share => resolve_pool_threads(requested).min(share),
    }
}

/// Assembles a pass's answer over a corpus of `documents`: the `hits` (a
/// view's retained relations, served without evaluation) and the pass's
/// `matches` — two id-sorted runs over disjoint documents — merged in id
/// order, with the tallies filled from what is placed. Nothing here is
/// sized by the corpus. `unread` documents were proven empty without being
/// visited and count as skipped.
fn assemble<O>(
    documents: usize,
    unread: usize,
    hits: Vec<(u32, MappingSet)>,
    pass: Shard<O>,
    start: Instant,
) -> (CorpusMatches, O) {
    let mut matches = pass.matches;
    if !hits.is_empty() {
        matches.extend(hits);
        // Two sorted runs: the stable sort merges them in one pass.
        matches.sort_by_key(|&(id, _)| id);
    }
    let stats = CorpusStats {
        documents,
        mappings: matches.iter().map(|(_, set)| set.len()).sum(),
        matched_documents: matches.len(),
        threads: pass.workers,
        docs_skipped: unread + pass.skipped,
        docs_rejected: 0,
        elapsed: start.elapsed(),
    };
    (CorpusMatches { matches, stats }, pass.observer)
}

/// `CompiledPlan` is read-only after compilation; the engine shares it with
/// every worker thread.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CorpusEngine>();
};

impl CorpusEngine {
    /// Optimizes and compiles an instantiated RA tree into an engine.
    pub fn compile(
        tree: &RaTree,
        inst: &Instantiation,
        options: RaOptions,
    ) -> SpannerResult<CorpusEngine> {
        CompiledPlan::compile(tree, inst, options).map(CorpusEngine::from_plan)
    }

    /// Wraps an already-compiled plan.
    pub fn from_plan(plan: CompiledPlan) -> CorpusEngine {
        CorpusEngine { plan }
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Evaluates the corpus on up to `threads` scoped workers (`0` = one
    /// per available CPU; fewer when the corpus is too short to give each
    /// its minimum share). The matches are identical for every `threads`
    /// value; only the wall-clock time changes.
    pub fn scan(&self, docs: &[Document], threads: usize) -> SpannerResult<CorpusMatches> {
        Ok(self.pass::<NoTrace>(docs, None, threads)?.0)
    }

    /// [`CorpusEngine::scan`] with per-operator instrumentation: returns
    /// the matches together with one [`ExecTrace`] aggregated over every
    /// document — per-document traces merge into per-worker accumulators
    /// (all seeded from the same [`Observer::skeleton`], so shapes always
    /// agree) and the workers' traces merge at the end.
    /// It is the same pass under a recording [`Observer`]: the relations
    /// and stats are bit-identical to the untraced call for every thread
    /// count; only wall time differs.
    pub fn scan_traced(
        &self,
        docs: &[Document],
        threads: usize,
    ) -> SpannerResult<(CorpusMatches, ExecTrace)> {
        self.pass(docs, None, threads)
    }

    /// Evaluates only the `candidates` subset of the corpus — the
    /// index-aware path: a corpus-level index (e.g. the trigram index of
    /// `spanner-store`) has already proven every other document's result
    /// empty, so non-candidates are counted as `docs_skipped` **without
    /// being visited** (no byte of theirs is read). The answer covers the
    /// whole corpus and is bit-identical to [`CorpusEngine::scan`] whenever
    /// the candidate set is sound (it contains every document with a
    /// non-empty result).
    ///
    /// `candidates` must be sorted, duplicate-free, in-bounds document
    /// indexes — the shape a posting-list intersection produces (a
    /// duplicate would be evaluated twice and double-counted in the
    /// stats).
    pub fn scan_candidates(
        &self,
        docs: &[Document],
        candidates: &[u32],
        threads: usize,
    ) -> SpannerResult<CorpusMatches> {
        Ok(self.pass::<NoTrace>(docs, Some(candidates), threads)?.0)
    }

    /// A pass with nothing served from a view: evaluates the documents
    /// `ids` (every document when `None`) and assembles the whole-corpus
    /// answer; documents outside `ids` count as skipped, unread.
    fn pass<O: Observer + Clone + Send>(
        &self,
        docs: &[Document],
        ids: Option<&[u32]>,
        threads: usize,
    ) -> SpannerResult<(CorpusMatches, O)> {
        let start = Instant::now();
        let every = || Cow::Owned((0..docs.len() as u32).collect());
        let ids: Cow<'_, [u32]> = ids.map_or_else(every, Cow::Borrowed);
        let pass = self.evaluate_selection(docs, &ids, threads)?;
        let unread = docs.len() - ids.len();
        Ok(assemble(docs.len(), unread, Vec::new(), pass, start))
    }

    /// The one evaluator behind every entry point: evaluates the documents
    /// `ids` (sorted, in bounds) on up to `threads` workers (`0` = one per
    /// CPU) and returns their non-empty relations in id order with the
    /// fast-path tallies, the merged observation and the number of workers
    /// that ran — or the first error in id order. The id list is what gets
    /// sharded (not the corpus): the work is proportional to the selection.
    /// Workers are threads scoped to this call, borrowing the plan and the
    /// documents; every worker's observer starts from the plan's skeleton,
    /// so observations merge whatever the split.
    fn evaluate_selection<O: Observer + Clone + Send>(
        &self,
        docs: &[Document],
        ids: &[u32],
        threads: usize,
    ) -> SpannerResult<Shard<O>> {
        let seed = O::skeleton(self.plan.physical().root());
        let count = workers_for(threads, ids.len());
        if count == 1 {
            return eval_chunk(&self.plan, docs, ids, seed);
        }
        // Rounding the chunk size up can leave fewer chunks than `count`;
        // the shards that come back are the workers that ran.
        let chunks = ids.chunks(ids.len().div_ceil(count));
        let shards: Vec<SpannerResult<Shard<O>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .map(|chunk| {
                    let seed = seed.clone();
                    scope.spawn(move || eval_chunk(&self.plan, docs, chunk, seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("corpus worker panicked"))
                .collect()
        });
        let mut shards = shards.into_iter();
        let mut pass = shards.next().expect("two chunks or more")?;
        for shard in shards {
            let shard = shard?;
            pass.matches.extend(shard.matches);
            pass.skipped += shard.skipped;
            pass.observer.merge(&shard.observer);
            pass.workers += shard.workers;
        }
        Ok(pass)
    }
}

/// Hard ceiling on spawned workers: corpora can be arbitrarily large, and a
/// requested count far past the CPU count would only pay thread-spawn cost
/// (or abort the process when the OS refuses to spawn). Public so the serve
/// daemon clamps its connection workers to the same bound.
pub const MAX_THREADS: usize = 256;

/// Splits a document into one [`Document`] per line — the shape of the
/// log-scanning and record-extraction workloads, where each line is an
/// independent record.
pub fn split_lines(text: &str) -> Vec<Document> {
    text.lines().map(Document::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn engine(pattern: &str) -> CorpusEngine {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(pattern).unwrap());
        CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap()
    }

    #[test]
    fn results_are_in_corpus_order() {
        let e = engine("{x:a+}");
        let docs = vec![
            Document::new("aa"),
            Document::new("b"),
            Document::new("a"),
            Document::new(""),
        ];
        let out = e.scan(&docs, 2).unwrap().into_dense();
        // Four documents are no work for a second thread.
        assert_eq!(out.stats.threads, 1);
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.results[0].len(), 1); // x = [1,3⟩ (formulas are anchored)
        assert!(out.results[1].is_empty());
        assert_eq!(out.results[2].len(), 1);
        assert!(out.results[3].is_empty());
        assert_eq!(out.stats.matched_documents, 2);
        assert_eq!(out.stats.mappings, 2);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let e = engine("{x:a}");
        let out = e.scan(&[], 4).unwrap().into_dense();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.documents, 0);
        assert_eq!(out.stats.mappings, 0);
    }

    #[test]
    fn errors_propagate_from_workers() {
        // A plan over more variables than the enumerator supports errors at
        // evaluation time; the engine must surface that error.
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let e = engine(&parts.concat());
        // Inline, then from a scoped worker.
        for len in [1, 2 * MIN_DOCS_PER_WORKER] {
            let docs = vec![Document::new("aaa"); len];
            assert!(e.scan(&docs, 2).is_err(), "{len} docs");
        }
    }

    #[test]
    fn pool_evaluation_propagates_errors_and_handles_empty() {
        let pool = WorkerPool::new(2);
        let e = Arc::new(engine("{x:a}"));
        let empty: Arc<Vec<Document>> = Arc::new(Vec::new());
        let out = e.scan(&empty, pool.threads()).unwrap();
        assert!(out.matches.is_empty());

        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let failing = Arc::new(engine(&parts.concat()));
        // Inline, then from a worker, on the count `bench/`'s pool resolves.
        for len in [2, 2 * MIN_DOCS_PER_WORKER] {
            let docs = Arc::new(vec![Document::new("aaa"); len]);
            assert!(failing.scan(&docs, pool.threads()).is_err(), "{len} docs");
        }
    }

    #[test]
    fn shard_document_counts_sum_to_corpus_size() {
        // However a corpus is split, every document is evaluated exactly
        // once: the tallies partition the corpus and `stats.threads`
        // reports the workers that ran.
        let e = Arc::new(engine(".*{x:a+}@.*"));
        let lines = ["xxa@yy", "bbbb", "@aaa"];
        for len in [0usize, 1, 7, 255, 256, 257, 5 * MIN_DOCS_PER_WORKER + 4] {
            let docs: Arc<Vec<Document>> =
                Arc::new((0..len).map(|i| Document::new(lines[i % 3])).collect());
            let matched = len.div_ceil(3);
            for threads in [1usize, 2, 3, 8, 256] {
                let share = (len / MIN_DOCS_PER_WORKER).max(1);
                let pool = WorkerPool::new(threads.min(8));
                for (out, offered) in [
                    (e.scan(&docs, threads).unwrap().into_dense(), threads),
                    (
                        e.scan(&docs, pool.threads()).unwrap().into_dense(),
                        pool.threads(),
                    ),
                ] {
                    let stats = out.stats;
                    assert_eq!(out.results.len(), len, "len={len} threads={threads}");
                    assert_eq!(
                        stats.matched_documents + stats.docs_skipped,
                        len,
                        "len={len} threads={threads}: {stats:?}"
                    );
                    assert_eq!(stats.matched_documents, matched);
                    // Never more workers than offered, nor than minimum shares.
                    assert_eq!(stats.threads, offered.min(share), "len={len} of {offered}");
                }
            }
        }
    }

    #[test]
    fn fast_path_counters_track_skipped_and_evaluated_documents() {
        // ".*{x:a+}@b" has required factors {a}, {@} and {b}: a document
        // missing one is skipped by the static prefilters, and so is one
        // without the required literal "a@b". One with both but no match
        // reaches the executor, whose backward pass answers it empty.
        let e = engine(".*{x:a+}@b");
        let lines = [
            Document::new("xxa@b"), // match: evaluated
            Document::new("bbbb"),  // no '@', no 'a': skipped by factors
            Document::new("a@bc"),  // "a@b", but not at the end: evaluated
            Document::new("b@ba"),  // factors, no "a@b": skipped by the literal
        ];
        // Repeated until three workers each get a share.
        let repeats = MIN_DOCS_PER_WORKER;
        let docs: Vec<Document> = lines.iter().cycle().take(4 * repeats).cloned().collect();
        for threads in [1, 2, 3] {
            let (out, trace) = e.scan_traced(&docs, threads).unwrap();
            let out = out.into_dense();
            assert_eq!(out.stats.threads, threads);
            assert_eq!(out.stats.docs_skipped, 2 * repeats, "threads={threads}");
            let evaluated = trace.counter("corpus_docs_evaluated");
            assert_eq!(evaluated, 2 * repeats as u64, "threads={threads}");
            assert_eq!(out.stats.matched_documents, repeats);
            assert!(out.results[1..4].iter().all(MappingSet::is_empty));
        }
    }

    #[test]
    fn counters_are_zero_when_fast_path_is_disabled() {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(".*{x:a+}@.*").unwrap());
        let options = RaOptions {
            scan_fast_path: false,
            ..RaOptions::default()
        };
        let e = CorpusEngine::compile(&RaTree::leaf(0), &inst, options).unwrap();
        let docs = vec![
            Document::new("xxa@yy"),
            Document::new("bbbb"),
            Document::new("@aaa"),
        ];
        let out = e.scan(&docs, 2).unwrap().into_dense();
        assert_eq!(out.stats.docs_skipped, 0);
        assert_eq!(out.stats.matched_documents, 1);
    }

    #[test]
    fn candidate_evaluation_skips_non_candidates_and_keeps_order() {
        let e = engine("{x:a+}");
        // Four candidates in every seven lines: enough of them, over the
        // whole corpus, for two workers.
        let docs: Vec<Document> = ["aa", "b", "a", "", "aaa", "ba", "aa"]
            .iter()
            .cycle()
            .take(7 * MIN_DOCS_PER_WORKER / 2)
            .map(|t| Document::new(*t))
            .collect();
        let full = e.scan(&docs, 1).unwrap().into_dense();
        // A sound candidate set: every doc with a non-empty result.
        let candidates: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.text().chars().all(|c| c == 'a') && !d.is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        for threads in [1, 2, 4] {
            let out = e
                .scan_candidates(&docs, &candidates, threads)
                .unwrap()
                .into_dense();
            assert_eq!(out.results, full.results, "threads={threads}");
            assert_eq!(out.stats.threads, threads.min(2));
            assert_eq!(out.stats.documents, docs.len());
            // Non-candidates count as skipped without being visited.
            assert!(
                out.stats.docs_skipped >= docs.len() - candidates.len(),
                "{:?}",
                out.stats
            );
        }
        // An empty candidate set touches nothing.
        let out = e.scan_candidates(&docs, &[], 4).unwrap().into_dense();
        assert!(out.results.iter().all(MappingSet::is_empty));
        assert_eq!(out.stats.docs_skipped, docs.len());
        assert_eq!(out.stats.threads, 1);
    }

    #[test]
    fn small_selections_run_inline_and_large_ones_shard() {
        let e = engine("{x:a+}");
        let mut docs: Vec<Document> = (0..8 * MIN_DOCS_PER_WORKER)
            .map(|i| Document::new("a".repeat(i % 3)))
            .collect();
        let full = e.scan(&docs, 1).unwrap().into_dense();
        let all: Vec<u32> = (0..docs.len() as u32).collect();
        // One document short of two full workers: not worth a spawn.
        for len in [1, MIN_DOCS_PER_WORKER - 1, 2 * MIN_DOCS_PER_WORKER - 1] {
            let out = e
                .scan_candidates(&docs, &all[..len], 8)
                .unwrap()
                .into_dense();
            assert_eq!(out.stats.threads, 1, "{len} candidates");
            assert_eq!(out.results[..len], full.results[..len]);
        }
        // Enough for every requested worker: the selection shards.
        for (len, workers) in [(2 * MIN_DOCS_PER_WORKER, 2), (all.len(), 8)] {
            let out = e
                .scan_candidates(&docs, &all[..len], 8)
                .unwrap()
                .into_dense();
            assert_eq!(out.stats.threads, workers, "{len} candidates");
            assert_eq!(out.results[..len], full.results[..len]);
        }
        // The delta path goes through the same gate: a cold view shards,
        // the re-query after a handful of changes does not.
        let mut hashes: Vec<u64> = (0..docs.len() as u64).collect();
        let mut view = QueryView::unbounded();
        let cold = e
            .evaluate_delta(&docs, &hashes, None, &mut view, 8)
            .unwrap();
        assert_eq!(cold.output.stats.threads, 8);
        assert_eq!(cold.output.results, full.results);
        for i in [3, 77, 200] {
            docs[i] = Document::new("aaaa");
            hashes[i] += 1 << 32;
        }
        let hot = e
            .evaluate_delta(&docs, &hashes, None, &mut view, 8)
            .unwrap();
        assert_eq!((hot.delta_docs, hot.output.stats.threads), (3, 1));
        let full = e.scan(&docs, 1).unwrap().into_dense();
        assert_eq!(hot.output.results, full.results);
    }

    #[test]
    fn split_lines_shape() {
        let docs = split_lines("a\nbb\n\nc");
        assert_eq!(docs.len(), 4);
        assert_eq!(docs[1].text(), "bb");
        assert!(docs[2].is_empty());
    }
}
