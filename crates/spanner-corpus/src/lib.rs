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
//! * [`CorpusEngine::evaluate_with_threads`] shards the corpus across a
//!   scoped thread pool. The lowered plan is read-only after compilation
//!   (`CompiledPlan: Sync`), so every worker evaluates against the *same*
//!   shared operator tree and compiled automata — no per-thread
//!   compilation, no locking on the hot path. Results are returned **in
//!   corpus order** and are bit-identical for every thread count (each
//!   document is evaluated independently);
//! * [`CorpusResult`] carries the per-document relations plus aggregate
//!   [`CorpusStats`].
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
//! let out = engine.evaluate_with_threads(&docs, 2).unwrap();
//! assert_eq!(out.results.len(), 3);
//! assert_eq!(out.stats.documents, 3);
//! assert!(out.results[1].is_empty());
//! ```

use spanner_algebra::{CompiledPlan, ExecTrace, Instantiation, PreScan, RaOptions, RaTree};
use spanner_core::{Document, MappingSet, SpannerResult};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod pool;
pub mod view;

pub use pool::{resolve_pool_threads, WorkerPool};
pub use view::{DeltaOutcome, QueryView};

/// Aggregate statistics of one corpus evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of documents evaluated.
    pub documents: usize,
    /// Total corpus size in bytes.
    pub bytes: usize,
    /// Total number of extracted mappings, over all documents.
    pub mappings: usize,
    /// Number of documents with at least one mapping.
    pub matched_documents: usize,
    /// Number of worker threads actually used.
    pub threads: usize,
    /// Documents skipped by the scan fast path's static prefilters
    /// (length / prefix-class / required-factor checks) without touching
    /// the match automaton. Always `0` when
    /// [`RaOptions::scan_fast_path`] is disabled.
    pub docs_skipped: usize,
    /// Documents rejected by the boolean match pre-pass (lazy DFA or NFA
    /// frontier stepping) after the static prefilters passed. Always `0`
    /// when [`RaOptions::scan_fast_path`] is disabled.
    pub docs_rejected: usize,
    /// Wall-clock time of the evaluation (excluding plan compilation).
    pub elapsed: Duration,
}

impl CorpusStats {
    /// Corpus throughput in bytes per second (0 when nothing was timed).
    pub fn bytes_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.bytes as f64 / secs
        } else {
            0.0
        }
    }
}

/// The outcome of evaluating a corpus: one relation per document, in corpus
/// order, plus aggregate statistics.
#[derive(Debug)]
pub struct CorpusResult {
    /// Per-document results, indexed like the input corpus.
    pub results: Vec<MappingSet>,
    /// Aggregate statistics.
    pub stats: CorpusStats,
}

/// A compiled RA query ready to be evaluated over many documents.
pub struct CorpusEngine {
    plan: CompiledPlan,
}

/// What happened to one document: evaluated through the operator pipeline,
/// or proven empty by the scan fast path before evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocOutcome {
    Evaluated,
    Skipped,
    Rejected,
}

/// One per-document result slot, tagged with its fast-path outcome so the
/// aggregate [`CorpusStats`] counters are exact.
type DocSlot = Option<(SpannerResult<MappingSet>, DocOutcome)>;

/// Evaluates one document, consulting the plan's document-level pre-pass
/// first. A `Skip`/`Reject` verdict is a proof the result is empty, so the
/// returned relation is bit-identical to a full evaluation.
fn eval_doc(plan: &CompiledPlan, doc: &Document) -> (SpannerResult<MappingSet>, DocOutcome) {
    match plan.prescan_reject(doc) {
        Some(PreScan::Skip) => (Ok(MappingSet::new()), DocOutcome::Skipped),
        Some(PreScan::Reject) => (Ok(MappingSet::new()), DocOutcome::Rejected),
        _ => (plan.evaluate(doc), DocOutcome::Evaluated),
    }
}

/// [`eval_doc`] with per-operator instrumentation: documents the pre-pass
/// proves empty never reach the executor, so they surface as corpus-level
/// counters on the root trace node (`corpus_docs_skipped` /
/// `corpus_docs_rejected`); evaluated documents merge their full
/// per-operator trace into the worker's accumulator.
fn eval_doc_traced(
    plan: &CompiledPlan,
    doc: &Document,
    trace: &mut ExecTrace,
) -> (SpannerResult<MappingSet>, DocOutcome) {
    match plan.prescan_reject(doc) {
        Some(PreScan::Skip) => {
            trace.add("corpus_docs_skipped", 1);
            (Ok(MappingSet::new()), DocOutcome::Skipped)
        }
        Some(PreScan::Reject) => {
            trace.add("corpus_docs_rejected", 1);
            (Ok(MappingSet::new()), DocOutcome::Rejected)
        }
        _ => {
            let (result, doc_trace) = plan.evaluate_traced(doc);
            trace.merge(&doc_trace);
            trace.add("corpus_docs_evaluated", 1);
            (result, DocOutcome::Evaluated)
        }
    }
}

/// Contiguous per-worker shards of `0..len`: disjoint, in order, and
/// covering every index exactly once — the per-shard document counts sum
/// exactly to the corpus size (unit-tested below). Both evaluation paths
/// shard through this one function so their partitions agree.
fn shard_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(threads.max(1)).max(1);
    (0..len)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(len))
        .collect()
}

/// Partitions `0..len` into **exactly** `shards` contiguous, in-order
/// ranges whose sizes differ by at most one (the first `len % shards`
/// ranges carry the extra document). Unlike the internal per-worker split
/// above, trailing ranges may be empty — a shard topology is fixed while
/// a corpus can be arbitrarily small — and the range count always equals
/// `shards`, which is what the serve-layer router needs to address
/// backends positionally. `shards == 0` is treated as one shard.
pub fn partition_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1);
    let base = len / shards;
    let extra = len % shards;
    let mut start = 0;
    (0..shards)
        .map(|shard| {
            let size = base + usize::from(shard < extra);
            let range = start..start + size;
            start += size;
            range
        })
        .collect()
}

/// The document partition of a sharded corpus: which shard owns which
/// contiguous slice of global document ids.
///
/// Global ids are corpus-order line numbers; each shard holds one
/// contiguous slice, so locating a document is a prefix-sum walk and
/// merging per-shard results back into corpus order is pure
/// concatenation — the property the serve-layer router's bit-identity
/// guarantee rests on. Appends always grow the **last** shard, keeping
/// every earlier slice (and therefore every existing id) stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Documents per shard, in shard order.
    sizes: Vec<usize>,
}

impl ShardMap {
    /// A map over explicit per-shard document counts (one entry per
    /// shard; entries may be zero). An empty `sizes` means one empty
    /// shard, so the invariant "at least one shard" always holds.
    pub fn new(sizes: Vec<usize>) -> ShardMap {
        ShardMap {
            sizes: if sizes.is_empty() { vec![0] } else { sizes },
        }
    }

    /// The balanced contiguous partition of `len` documents over
    /// `shards`, mirroring [`partition_ranges`].
    pub fn partition(len: usize, shards: usize) -> ShardMap {
        ShardMap::new(
            partition_ranges(len, shards)
                .iter()
                .map(|r| r.len())
                .collect(),
        )
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sizes.len()
    }

    /// Total documents across every shard.
    pub fn len(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Documents on `shard`.
    pub fn size(&self, shard: usize) -> usize {
        self.sizes[shard]
    }

    /// The global id of `shard`'s first document (its corpus-order base
    /// offset — the prefix sum of every earlier shard).
    pub fn base(&self, shard: usize) -> usize {
        self.sizes[..shard].iter().sum()
    }

    /// Locates a global document id: `(shard, local id)` — or `None`
    /// when `id` is past the corpus.
    pub fn locate(&self, id: usize) -> Option<(usize, usize)> {
        let mut offset = id;
        for (shard, &size) in self.sizes.iter().enumerate() {
            if offset < size {
                return Some((shard, offset));
            }
            offset -= size;
        }
        None
    }

    /// Records `count` documents appended to the last shard.
    pub fn append(&mut self, count: usize) {
        *self.sizes.last_mut().expect("at least one shard") += count;
    }
}

/// Turns filled slots into a [`CorpusResult`], aggregating the fast-path
/// counters and the relation statistics.
fn collect_result(
    docs: &[Document],
    threads: usize,
    slots: Vec<DocSlot>,
    start: Instant,
) -> SpannerResult<CorpusResult> {
    let mut docs_skipped = 0;
    let mut docs_rejected = 0;
    let mut results = Vec::with_capacity(docs.len());
    for slot in slots {
        let (result, outcome) = slot.expect("every document was evaluated");
        match outcome {
            DocOutcome::Skipped => docs_skipped += 1,
            DocOutcome::Rejected => docs_rejected += 1,
            DocOutcome::Evaluated => {}
        }
        results.push(result?);
    }
    let stats = CorpusStats {
        documents: docs.len(),
        bytes: docs.iter().map(Document::len).sum(),
        mappings: results.iter().map(MappingSet::len).sum(),
        matched_documents: results.iter().filter(|r| !r.is_empty()).count(),
        threads,
        docs_skipped,
        docs_rejected,
        elapsed: start.elapsed(),
    };
    Ok(CorpusResult { results, stats })
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

/// One evaluated document of a selection: its id, its relation, and what
/// the fast path did with it.
type Evaluated = (u32, MappingSet, DocOutcome);

/// The fewest documents a worker must receive before a selection or a
/// pooled corpus is split across threads. Handing work to another thread —
/// spawning and joining a scoped one, or waking a pooled one and waiting
/// for its answer — costs 50–100 µs on the reference box and as much again
/// in the allocator, which then frees on one thread what another
/// allocated; a warm matching log line evaluates in 1.5–2 µs. Two workers
/// break even with the calling thread at some 64 documents each (DESIGN.md
/// §11 has the table), and below that the hand-off is most of a request
/// and its cost follows the scheduler, not the work. A constant, not an
/// option: it follows the machine, not the query.
const MIN_DOCS_PER_WORKER: usize = 128;

/// The workers `docs` documents are split across when `requested` are on
/// offer: one (the calling thread) unless each gets its minimum share. Too
/// few documents for a second worker is decided before the thread count is
/// resolved: resolving `0` asks the OS for the CPU count (tens of
/// microseconds), more than a small selection costs.
fn workers_for(requested: usize, docs: usize) -> usize {
    match docs / MIN_DOCS_PER_WORKER {
        0 | 1 => 1,
        share => effective_threads(requested, share),
    }
}

/// Assembles the dense [`CorpusResult`] from sparse relations: every slot
/// starts as the empty relation (which does not allocate), only the
/// non-empty `hits` (served without evaluation) and `evaluated` relations
/// are placed, and the tallies follow the placements — beyond the one fill,
/// the cost tracks the matches, not the corpus. `unread` documents were
/// proven empty without being visited and count as skipped.
fn assemble(
    docs: &[Document],
    threads: usize,
    unread: usize,
    hits: impl Iterator<Item = (u32, MappingSet)>,
    evaluated: Vec<Evaluated>,
    start: Instant,
) -> CorpusResult {
    let mut results: Vec<MappingSet> = std::iter::repeat_with(MappingSet::new)
        .take(docs.len())
        .collect();
    let outcomes = |which| evaluated.iter().filter(|e| e.2 == which).count();
    let mut stats = CorpusStats {
        documents: docs.len(),
        bytes: docs.iter().map(Document::len).sum(),
        threads,
        docs_skipped: unread + outcomes(DocOutcome::Skipped),
        docs_rejected: outcomes(DocOutcome::Rejected),
        ..CorpusStats::default()
    };
    let evaluated = evaluated.into_iter().map(|(id, set, _)| (id, set));
    for (id, set) in hits.chain(evaluated).filter(|(_, set)| !set.is_empty()) {
        stats.mappings += set.len();
        stats.matched_documents += 1;
        results[id as usize] = set;
    }
    stats.elapsed = start.elapsed();
    CorpusResult { results, stats }
}

/// `CompiledPlan` is read-only after compilation; the engine shares it with
/// every worker thread by reference.
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
        Ok(CorpusEngine {
            plan: CompiledPlan::compile(tree, inst, options)?,
        })
    }

    /// Wraps an already-compiled plan.
    pub fn from_plan(plan: CompiledPlan) -> CorpusEngine {
        CorpusEngine { plan }
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Evaluates the corpus with one worker per available CPU.
    pub fn evaluate(&self, docs: &[Document]) -> SpannerResult<CorpusResult> {
        self.evaluate_with_threads(docs, 0)
    }

    /// Evaluates the corpus with an explicit worker count (`0` = one worker
    /// per available CPU). The per-document results are identical for every
    /// `threads` value; only the wall-clock time changes.
    pub fn evaluate_with_threads(
        &self,
        docs: &[Document],
        threads: usize,
    ) -> SpannerResult<CorpusResult> {
        let start = Instant::now();
        let threads = effective_threads(threads, docs.len());
        let mut slots: Vec<DocSlot> = vec![None; docs.len()];
        let workers = if threads <= 1 {
            for (slot, doc) in slots.iter_mut().zip(docs) {
                *slot = Some(eval_doc(&self.plan, doc));
            }
            1
        } else {
            // Contiguous shards, one per worker: results land directly in
            // their corpus position, so no reordering pass is needed.
            let ranges = shard_ranges(docs.len(), threads);
            std::thread::scope(|scope| {
                let mut rest: &mut [DocSlot] = &mut slots;
                for range in &ranges {
                    let (slot_chunk, tail) = rest.split_at_mut(range.len());
                    rest = tail;
                    let doc_chunk = &docs[range.clone()];
                    scope.spawn(move || {
                        for (slot, doc) in slot_chunk.iter_mut().zip(doc_chunk) {
                            *slot = Some(eval_doc(&self.plan, doc));
                        }
                    });
                }
            });
            // Rounding in `shard_ranges` can produce fewer shards than the
            // clamped request (10 docs / 8 threads → chunks of 2 → 5
            // shards); report the workers that actually ran.
            ranges.len()
        };
        collect_result(docs, workers, slots, start)
    }

    /// [`CorpusEngine::evaluate_with_threads`] with per-operator
    /// instrumentation: returns the corpus result together with one
    /// [`ExecTrace`] aggregated over every document — per-document traces
    /// merge into per-worker accumulators (all seeded from the same
    /// [`PhysicalPlan::trace_skeleton`](spanner_algebra::PhysicalPlan),
    /// so shapes always agree) and the workers' traces merge at the end.
    /// The relations and stats are bit-identical to the untraced path for
    /// every thread count; only wall time differs. This is a separate
    /// evaluation loop, so the untraced path pays nothing for it.
    pub fn evaluate_traced_with_threads(
        &self,
        docs: &[Document],
        threads: usize,
    ) -> SpannerResult<(CorpusResult, ExecTrace)> {
        let start = Instant::now();
        let threads = effective_threads(threads, docs.len());
        let skeleton = self.plan.physical().trace_skeleton();
        let mut slots: Vec<DocSlot> = vec![None; docs.len()];
        let mut trace = skeleton.clone();
        let workers = if threads <= 1 {
            for (slot, doc) in slots.iter_mut().zip(docs) {
                *slot = Some(eval_doc_traced(&self.plan, doc, &mut trace));
            }
            1
        } else {
            let ranges = shard_ranges(docs.len(), threads);
            let worker_traces: Vec<ExecTrace> = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(ranges.len());
                let mut rest: &mut [DocSlot] = &mut slots;
                for range in &ranges {
                    let (slot_chunk, tail) = rest.split_at_mut(range.len());
                    rest = tail;
                    let doc_chunk = &docs[range.clone()];
                    let mut worker_trace = skeleton.clone();
                    handles.push(scope.spawn(move || {
                        for (slot, doc) in slot_chunk.iter_mut().zip(doc_chunk) {
                            *slot = Some(eval_doc_traced(&self.plan, doc, &mut worker_trace));
                        }
                        worker_trace
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("corpus worker panicked"))
                    .collect()
            });
            for worker_trace in &worker_traces {
                trace.merge(worker_trace);
            }
            ranges.len()
        };
        let result = collect_result(docs, workers, slots, start)?;
        Ok((result, trace))
    }

    /// Evaluates only the `candidates` subset of the corpus — the
    /// index-aware path: a corpus-level index (e.g. the trigram index of
    /// `spanner-store`) has already proven every other document's result
    /// empty, so non-candidates are counted as `docs_skipped` **without
    /// being visited** (no byte of theirs is read). Results are returned
    /// for the whole corpus, in corpus order, and are bit-identical to
    /// [`CorpusEngine::evaluate_with_threads`] whenever the candidate set
    /// is sound (it contains every document with a non-empty result).
    ///
    /// `candidates` must be sorted, duplicate-free, in-bounds document
    /// indexes — the shape a posting-list intersection produces (a
    /// duplicate would be evaluated twice and double-counted in the
    /// stats).
    pub fn evaluate_candidates_with_threads(
        &self,
        docs: &[Document],
        candidates: &[u32],
        threads: usize,
    ) -> SpannerResult<CorpusResult> {
        let start = Instant::now();
        let (evaluated, workers) = self.evaluate_selection(docs, candidates, threads)?;
        let (unread, hits) = (docs.len() - candidates.len(), std::iter::empty());
        Ok(assemble(docs, workers, unread, hits, evaluated, start))
    }

    /// The one selection evaluator behind the indexed
    /// ([`CorpusEngine::evaluate_candidates_with_threads`]) and the
    /// incremental ([`CorpusEngine::evaluate_delta`]) paths: evaluates the
    /// documents `ids` (sorted, in bounds) and returns their relations in
    /// id order — or the first error in id order — plus the number of
    /// workers that ran. The id list is what gets sharded (not the corpus):
    /// the work is proportional to the selection.
    fn evaluate_selection(
        &self,
        docs: &[Document],
        ids: &[u32],
        threads: usize,
    ) -> SpannerResult<(Vec<Evaluated>, usize)> {
        let eval = |chunk: &[u32]| -> SpannerResult<Vec<Evaluated>> {
            chunk
                .iter()
                .map(|&id| {
                    let (result, outcome) = eval_doc(&self.plan, &docs[id as usize]);
                    Ok((id, result?, outcome))
                })
                .collect()
        };
        let workers = workers_for(threads, ids.len());
        if workers == 1 {
            return Ok((eval(ids)?, 1));
        }
        let chunk = ids.len().div_ceil(workers);
        let shards: SpannerResult<Vec<Vec<Evaluated>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .map(|chunk| scope.spawn(move || eval(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("corpus worker panicked"))
                .collect()
        });
        let evaluated = shards?.into_iter().flatten().collect();
        Ok((evaluated, ids.len().div_ceil(chunk)))
    }

    /// Evaluates the corpus by sharding it across a persistent
    /// [`WorkerPool`] instead of spawning scoped threads per call — the
    /// shape a long-running query service wants, where one pool serves
    /// thousands of corpus requests and thread spawn cost is paid once at
    /// startup.
    ///
    /// The engine and the documents are shared with the workers through
    /// `Arc` (jobs on a persistent pool are `'static`). Results are in
    /// corpus order and bit-identical to [`CorpusEngine::evaluate_with_threads`]
    /// for every pool size. A corpus too small to give every worker its
    /// minimum share (a request that ships a screenful of lines) is
    /// evaluated on the calling thread: waking two workers for it costs
    /// more than it saves, by an amount that changes from call to call.
    pub fn evaluate_on_pool(
        self: &Arc<CorpusEngine>,
        docs: &Arc<Vec<Document>>,
        pool: &WorkerPool,
    ) -> SpannerResult<CorpusResult> {
        let workers = workers_for(pool.threads(), docs.len());
        if workers == 1 {
            return self.evaluate_with_threads(docs, 1);
        }
        let start = Instant::now();
        let chunks = shard_ranges(docs.len(), workers);
        let (send, recv) = std::sync::mpsc::channel();
        for (index, range) in chunks.iter().cloned().enumerate() {
            let engine = Arc::clone(self);
            let docs = Arc::clone(docs);
            let send = send.clone();
            pool.execute(move || {
                let results: Vec<(SpannerResult<MappingSet>, DocOutcome)> = docs[range.clone()]
                    .iter()
                    .map(|doc| eval_doc(&engine.plan, doc))
                    .collect();
                // The receiver may already be gone when an earlier chunk
                // reported an error; dropping the result is fine then.
                let _ = send.send((index, results));
            });
        }
        drop(send);
        let mut slots: Vec<DocSlot> = vec![None; docs.len()];
        for _ in 0..chunks.len() {
            let (index, chunk_results) = recv
                .recv()
                .expect("every chunk job reports exactly once before the senders close");
            for (slot, result) in slots[chunks[index].clone()].iter_mut().zip(chunk_results) {
                *slot = Some(result);
            }
        }
        // As on the scoped path: the shard count, not the clamped request,
        // is the number of workers that ran.
        collect_result(docs, chunks.len(), slots, start)
    }
}

impl std::fmt::Debug for CorpusEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CorpusEngine({:?})", self.plan)
    }
}

/// Hard ceiling on spawned workers: corpora can be arbitrarily large, and a
/// requested count far past the CPU count would only pay thread-spawn cost
/// (or abort the process when the OS refuses to spawn). Public so other
/// thread-pool layers (the serve daemon) clamp to the same bound.
pub const MAX_THREADS: usize = 256;

/// Resolves the requested worker count: `0` means one per available CPU;
/// there is never a point in more workers than documents, nor past
/// [`MAX_THREADS`].
fn effective_threads(requested: usize, docs: usize) -> usize {
    // `available_parallelism` reads cgroup files (14–90 µs): only pay for it
    // when the caller actually asked for "one per CPU".
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, docs.clamp(1, MAX_THREADS))
}

/// Splits a document into one [`Document`] per line — the shape of the
/// log-scanning and record-extraction workloads, where each line is an
/// independent record.
pub fn split_lines(text: &str) -> Vec<Document> {
    text.lines().map(Document::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges_are_exact_and_balanced() {
        for len in 0..40usize {
            for shards in 1..7usize {
                let ranges = partition_ranges(len, shards);
                assert_eq!(ranges.len(), shards, "len={len} shards={shards}");
                // Contiguous, in order, covering 0..len exactly once.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} shards={shards}: {sizes:?}");
            }
        }
        // Zero shards degrades to one.
        assert_eq!(partition_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn shard_map_locates_every_document() {
        let map = ShardMap::partition(10, 3);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.len(), 10);
        assert_eq!((map.size(0), map.size(1), map.size(2)), (4, 3, 3));
        assert_eq!((map.base(0), map.base(1), map.base(2)), (0, 4, 7));
        // locate agrees with base + local for every id; past-the-end is None.
        for id in 0..10 {
            let (shard, local) = map.locate(id).unwrap();
            assert_eq!(map.base(shard) + local, id, "id={id}");
            assert!(local < map.size(shard));
        }
        assert_eq!(map.locate(10), None);
        // Appends grow the last shard only, keeping earlier ids stable.
        let mut map = map;
        map.append(2);
        assert_eq!(map.len(), 12);
        assert_eq!(map.locate(4), Some((1, 0)));
        assert_eq!(map.locate(10), Some((2, 3)));
        // An empty corpus still has one (empty) shard to address.
        let empty = ShardMap::partition(0, 2);
        assert_eq!(empty.shards(), 2);
        assert!(empty.is_empty());
        assert_eq!(empty.locate(0), None);
        assert_eq!(ShardMap::new(Vec::new()).shards(), 1);
    }

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
        let out = e.evaluate_with_threads(&docs, 2).unwrap();
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.results[0].len(), 1); // x = [1,3⟩ (formulas are anchored)
        assert!(out.results[1].is_empty());
        assert_eq!(out.results[2].len(), 1);
        assert!(out.results[3].is_empty());
        assert_eq!(out.stats.matched_documents, 2);
        assert_eq!(out.stats.mappings, 2);
        assert_eq!(out.stats.bytes, 4);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let e = engine("{x:a}");
        let out = e.evaluate_with_threads(&[], 4).unwrap();
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
        let docs = vec![Document::new("aaa")];
        assert!(e.evaluate_with_threads(&docs, 2).is_err());
    }

    #[test]
    fn pool_evaluation_is_bit_identical_to_scoped() {
        let e = Arc::new(engine("{x:a+}"));
        // Long enough that pools of 2 and 4 really shard it.
        let docs: Arc<Vec<Document>> = Arc::new(
            ["aa", "b", "a", "", "aaa", "ba"]
                .iter()
                .cycle()
                .take(4 * MIN_DOCS_PER_WORKER + 3)
                .map(|t| Document::new(*t))
                .collect(),
        );
        let scoped = e.evaluate_with_threads(&docs, 2).unwrap();
        for pool_size in [1, 2, 4] {
            let pool = WorkerPool::new(pool_size);
            let pooled = e.evaluate_on_pool(&docs, &pool).unwrap();
            assert_eq!(pooled.results, scoped.results, "pool size {pool_size}");
            assert_eq!(pooled.stats.mappings, scoped.stats.mappings);
            assert_eq!(pooled.stats.threads, pool_size);
            // A short corpus never leaves the calling thread.
            let short = Arc::new(docs[..2 * MIN_DOCS_PER_WORKER - 1].to_vec());
            let inline = e.evaluate_on_pool(&short, &pool).unwrap();
            assert_eq!(inline.results[..], scoped.results[..short.len()]);
            assert_eq!(inline.stats.threads, 1);
        }
    }

    #[test]
    fn pool_evaluation_propagates_errors_and_handles_empty() {
        let pool = WorkerPool::new(2);
        let e = Arc::new(engine("{x:a}"));
        let empty: Arc<Vec<Document>> = Arc::new(Vec::new());
        let out = e.evaluate_on_pool(&empty, &pool).unwrap();
        assert!(out.results.is_empty());

        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let failing = Arc::new(engine(&parts.concat()));
        let docs = Arc::new(vec![Document::new("aaa"), Document::new("a")]);
        assert!(failing.evaluate_on_pool(&docs, &pool).is_err());
    }

    #[test]
    fn shard_document_counts_sum_to_corpus_size() {
        for len in [0usize, 1, 2, 3, 5, 7, 16, 100, 101, 255, 256, 257] {
            for threads in [1usize, 2, 3, 4, 7, 8, 16, 64, 256] {
                let ranges = shard_ranges(len, threads);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} threads={threads}");
                // Disjoint, in order, and gap-free.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} threads={threads}");
                    assert!(r.end > r.start, "empty shard len={len} threads={threads}");
                    next = r.end;
                }
                assert_eq!(next, len);
                // Never more shards than requested workers.
                assert!(ranges.len() <= threads, "len={len} threads={threads}");
            }
        }

        // `stats.threads` reports the shards actually run, not the clamped
        // request: 10 docs / 8 threads rounds to chunks of 2 → 5 shards.
        assert_eq!(shard_ranges(10, 8).len(), 5);
        let e = engine("{x:a+}");
        let docs: Vec<Document> = (0..10).map(|i| Document::new("a".repeat(i % 3))).collect();
        let out = e.evaluate_with_threads(&docs, 8).unwrap();
        assert_eq!(out.stats.threads, 5);
        // The pool path offers each worker its minimum share first (5 shares
        // here, for a pool of 8), then rounds the same way.
        let e = Arc::new(e);
        let pool = WorkerPool::new(8);
        let long: Vec<Document> = (0..5 * MIN_DOCS_PER_WORKER + 4)
            .map(|i| Document::new("a".repeat(i % 3)))
            .collect();
        let pooled = e.evaluate_on_pool(&Arc::new(long), &pool).unwrap();
        assert_eq!(pooled.stats.threads, 5);
        // Single-worker and empty-corpus paths report the calling thread.
        assert_eq!(e.evaluate_with_threads(&docs, 1).unwrap().stats.threads, 1);
        let empty: Arc<Vec<Document>> = Arc::new(Vec::new());
        assert_eq!(e.evaluate_on_pool(&empty, &pool).unwrap().stats.threads, 1);
    }

    #[test]
    fn fast_path_counters_track_skipped_and_rejected_documents() {
        // ".*{x:a+}@.*" has required factors {a} and {@}: a document missing
        // either is skipped by the static prefilters; "@@@" carries the
        // factors' bytes only partially... use a doc with both factor bytes
        // present but no match to exercise the boolean reject tier.
        let e = engine(".*{x:a+}@.*");
        let docs = vec![
            Document::new("xxa@yy"), // match: evaluated
            Document::new("bbbb"),   // no '@', no 'a': skipped by factors
            Document::new("@aaa"),   // factors present, '@' before 'a': rejected
        ];
        for threads in [1, 2, 3] {
            let out = e.evaluate_with_threads(&docs, threads).unwrap();
            assert_eq!(out.stats.docs_skipped, 1, "threads={threads}");
            assert_eq!(out.stats.docs_rejected, 1, "threads={threads}");
            assert_eq!(out.stats.matched_documents, 1);
            assert!(out.results[1].is_empty() && out.results[2].is_empty());
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
        let out = e.evaluate_with_threads(&docs, 2).unwrap();
        assert_eq!(out.stats.docs_skipped, 0);
        assert_eq!(out.stats.docs_rejected, 0);
        assert_eq!(out.stats.matched_documents, 1);
    }

    #[test]
    fn candidate_evaluation_skips_non_candidates_and_keeps_order() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = ["aa", "b", "a", "", "aaa", "ba", "aa"]
            .iter()
            .map(|t| Document::new(*t))
            .collect();
        let full = e.evaluate_with_threads(&docs, 2).unwrap();
        // A sound candidate set: every doc with a non-empty result.
        let candidates: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.text().chars().all(|c| c == 'a') && !d.is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        for threads in [1, 2, 4] {
            let out = e
                .evaluate_candidates_with_threads(&docs, &candidates, threads)
                .unwrap();
            assert_eq!(out.results, full.results, "threads={threads}");
            assert_eq!(out.stats.documents, docs.len());
            // Non-candidates count as skipped without being visited.
            assert!(
                out.stats.docs_skipped >= docs.len() - candidates.len(),
                "{:?}",
                out.stats
            );
        }
        // An empty candidate set touches nothing.
        let out = e.evaluate_candidates_with_threads(&docs, &[], 4).unwrap();
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
        let full = e.evaluate_with_threads(&docs, 1).unwrap();
        let all: Vec<u32> = (0..docs.len() as u32).collect();
        // One document short of two full workers: not worth a spawn.
        for len in [1, MIN_DOCS_PER_WORKER - 1, 2 * MIN_DOCS_PER_WORKER - 1] {
            let out = e
                .evaluate_candidates_with_threads(&docs, &all[..len], 8)
                .unwrap();
            assert_eq!(out.stats.threads, 1, "{len} candidates");
            assert_eq!(out.results[..len], full.results[..len]);
        }
        // Enough for every requested worker: the selection shards.
        for (len, workers) in [(2 * MIN_DOCS_PER_WORKER, 2), (all.len(), 8)] {
            let out = e
                .evaluate_candidates_with_threads(&docs, &all[..len], 8)
                .unwrap();
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
        let full = e.evaluate_with_threads(&docs, 1).unwrap();
        assert_eq!(hot.output.results, full.results);
    }

    #[test]
    fn traced_corpus_evaluation_matches_untraced_for_every_thread_count() {
        let e = engine(".*{x:a+}@.*");
        let docs = vec![
            Document::new("xxa@yy"), // evaluated, matches
            Document::new("bbbb"),   // skipped by static prefilters
            Document::new("@aaa"),   // rejected by the boolean scan
            Document::new("a@"),     // evaluated, matches
        ];
        let untraced = e.evaluate_with_threads(&docs, 2).unwrap();
        let mut baseline: Option<ExecTrace> = None;
        for threads in [1, 2, 4] {
            let (out, trace) = e.evaluate_traced_with_threads(&docs, threads).unwrap();
            assert_eq!(out.results, untraced.results, "threads={threads}");
            // The trace's corpus tallies agree with the stats counters.
            assert_eq!(
                trace.counter("corpus_docs_skipped") as usize,
                out.stats.docs_skipped,
                "threads={threads}"
            );
            assert_eq!(
                trace.counter("corpus_docs_rejected") as usize,
                out.stats.docs_rejected,
                "threads={threads}"
            );
            assert_eq!(trace.counter("corpus_docs_evaluated"), 2);
            assert_eq!(trace.total_rows(), out.stats.mappings as u64);
            // Deterministic modulo wall time: rows and counters are
            // identical for every thread count (merge order commutes).
            let mut timeless = trace.clone();
            fn zero_nanos(node: &mut ExecTrace) {
                node.nanos = 0;
                node.children.iter_mut().for_each(zero_nanos);
            }
            zero_nanos(&mut timeless);
            match &baseline {
                None => baseline = Some(timeless),
                Some(b) => assert_eq!(b, &timeless, "threads={threads}"),
            }
        }
    }

    #[test]
    fn split_lines_shape() {
        let docs = split_lines("a\nbb\n\nc");
        assert_eq!(docs.len(), 4);
        assert_eq!(docs[1].text(), "bb");
        assert!(docs[2].is_empty());
    }
}
