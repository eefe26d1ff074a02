//! Counts the work, not the clock (ROADMAP item 6 in miniature): what a
//! resident query allocates must follow what it evaluated and what matched,
//! not the size of the corpus.
//!
//! This box moves wall-clock readings by 1.3–1.7x for seconds at a time;
//! allocated bytes on one thread are exact. The whole file is one test, so
//! nothing else allocates while it counts.
//!
//! * A **hot** re-query (one `update`, then the same query through its
//!   maintained view) allocates the same at 5 000 and at 20 000 lines, up
//!   to the index's own posting walk — the needle's trigrams also occur in
//!   the padding of about one line in 200, four bytes each.
//! * A **cold** query through a fresh view allocates the view's hash
//!   snapshot, 8 bytes a document, and a constant.
//!
//! A dense result (`Vec<MappingSet>`, 24 bytes a document) fails both by
//! 24 B × documents; the last assertion runs the dense forward kept for
//! `bench/` to show that the counter would see it.
//!
//! A second phase counts what the daemon's answer costs to render: a
//! `scan-hit`-shaped relation (64 lines, one mapping of two variables
//! each) written through `write_mappings` into a warmed buffer allocates
//! nothing, while the reference tree (`mappings_to_json` + `to_string`)
//! allocates at least once per span — the counter sees a tree when there
//! is one.
//!
//! A third phase counts the enumerator's own stack: a warm evaluation of a
//! `.*`-headed extractor makes the same number of allocation calls whether
//! the head before its one branch point is 80, 800 or 8 000 bytes long. A
//! stack with a frame per position grows by doubling and would show up as
//! a call count that climbs with the logarithm of the head.
//!
//! A fourth phase counts the cold path of a one-off program,
//! `/.*{x:LIT}.*/` over a 4-, 8- and 16-byte literal: `prepare`,
//! `required_literals`, the first prescan and the first evaluation of one
//! matching line (which fills the evaluation tables). The first prescan
//! checks the static prefilters and builds nothing: it makes no allocation
//! call at all. The longer literal has more states and table cells, but the
//! evaluation may only allocate more as its slabs double — a set, cell or
//! row allocated on its own shows up as a count that grows with the
//! literal.
//!
//! A fifth phase weighs the compiled automaton itself: `prepare` of
//! `/{x:ab|…|ab}/` and `/{x:(ab|…|ab)*}/` at 1 000, 2 000, 4 000 and 8 000
//! alternatives. Its peak live bytes may grow at most 2.3x per doubling —
//! linear in the states, with room for a vector's doubling. A per-state
//! set of states (a stored closure) grows 4x.
//!
//! A sixth phase weighs the store's trigram index: `Store::build` over
//! `store-adhoc`'s 30 000 needle lines may hold 2 bytes a posting, 16 a
//! trigram and 16 a document beyond the documents themselves (the ids, the
//! keys and their offsets, the content hashes and the tombstone mask), and
//! may peak at most 48 bytes a trigram above that while it builds, and on
//! this corpus at most 16, since the build ranks trigrams in a bitset
//! instead of hashing them (a map from trigram to slot peaks at 28). The
//! 16 is this corpus' bound, not every build's: the bitset and its ranks
//! grow with the alphabet (6 KB for these 27 byte values, 3 MB past 128),
//! not with the trigrams. A growable list per trigram holds some 1.8x its
//! ids. `compact()` after a batch of updates
//! may peak at one base plus the delta and the same per-trigram build
//! slack: building the new base beside the old one peaks at two.

use document_spanners::prelude::*;
use spanner_algebra::PhysOp;
use spanner_serve::protocol::{mappings_to_json, write_mappings};
use spanner_vset::PreScan;
use spanner_workloads::{access_log, needle_corpus, needle_line};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting the calls and bytes of every allocation (a `realloc`
/// counts as one call of its new size), and tracking the live bytes and
/// their peak.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    live(size, 0);
}

/// Moves the live bytes by `grown - freed` and raises the peak to them.
fn live(grown: usize, freed: usize) {
    let now = LIVE.fetch_add(grown, Relaxed) + grown;
    LIVE.fetch_sub(freed, Relaxed);
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the caller's; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size, Relaxed);
        live(new_size, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(0, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns its value with the `(calls, bytes)` it allocated.
fn counted<T>(work: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let value = work();
    let after = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    (value, (after.0 - before.0, after.1 - before.1))
}

/// Runs `work` and returns its value with the most bytes it held live at
/// once (what it allocated and had not freed yet).
fn peak<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let value = work();
    (value, PEAK.load(Relaxed) - before)
}

/// Bytes of one slot of the dense result.
const DENSE_SLOT: usize = std::mem::size_of::<MappingSet>();

/// What one store's cold, hot and dense-forward queries allocated, in bytes
/// (and for the hot one, in calls).
struct Allocated {
    cold: usize,
    hot: usize,
    hot_calls: usize,
    hot_dense: usize,
}

/// A needle store of `lines` lines with 20 matching ones, queried on one
/// thread: cold through a fresh view (the engine's own caches warmed by an
/// earlier query), then hot through a maintained view after one update.
fn resident_queries(lines: usize) -> Allocated {
    let query = PreparedQuery::prepare("/.*{x:needle}.*/").unwrap();
    let engine = query.engine();
    let mut store = Store::build(needle_corpus(lines, 200_000 / lines, 42)).unwrap();
    let mut view = QueryView::unbounded();
    let warmed = store.query_view_matches(engine, &mut view, 1).unwrap();
    assert_eq!(warmed.output.stats.matched_documents, 20);

    let mut fresh = QueryView::unbounded();
    let (cold, (_, cold_bytes)) = counted(|| store.query_view_matches(engine, &mut fresh, 1));
    let cold = cold.unwrap();
    assert_eq!((cold.view_hits, cold.delta_docs), (0, lines));
    assert_eq!(cold.output.stats.matched_documents, 20);
    assert_eq!(fresh.snapshot_bytes(), 8 * lines);

    // The same line at both sizes: hay becomes a match.
    let mut hot_query = |store: &mut Store, seed: u64, dense: bool| {
        store.update(7, needle_line(true, seed).text()).unwrap();
        let (stats, allocated) = counted(|| {
            if dense {
                let hot = store.query_view(engine, &mut view, 1).unwrap();
                (hot.delta_docs, hot.output.stats.matched_documents)
            } else {
                let hot = store.query_view_matches(engine, &mut view, 1).unwrap();
                (hot.delta_docs, hot.output.stats.matched_documents)
            }
        });
        assert_eq!(stats, (1, 21));
        allocated
    };
    let (hot_calls, hot) = hot_query(&mut store, 99, false);
    let (_, hot_dense) = hot_query(&mut store, 100, true);
    Allocated {
        cold: cold_bytes,
        hot,
        hot_calls,
        hot_dense,
    }
}

/// The access-log extractor, projected to two columns: one mapping of two
/// variables per line.
const LOG_COLUMNS: &str = "\
project path, status (/{ip:[0-9]+\\.[0-9]+\\.[0-9]+\\.[0-9]+} - ({user:[a-z]+}|-) \
\\[[0-9\\/]+\\] \"{method:[A-Z]+} {path:[a-zA-Z0-9_\\/\\.]+}\" {status:[0-9][0-9][0-9]} [0-9]+/);";

/// What rendering a 64-line answer allocated, in calls: through the writer
/// into a warmed buffer, and through the reference tree.
struct Rendered {
    write_calls: usize,
    tree_calls: usize,
    spans: usize,
}

fn scan_hit_renders() -> Rendered {
    let query = PreparedQuery::prepare(LOG_COLUMNS).unwrap();
    let docs = split_lines(access_log(64, 11).text());
    let sets: Vec<MappingSet> = docs.iter().map(|d| query.evaluate(d).unwrap()).collect();
    assert!(sets.iter().all(|set| set.len() == 1));
    let spans = sets
        .iter()
        .flat_map(MappingSet::iter)
        .map(|m| m.iter().count());

    let write = |out: &mut Vec<u8>| {
        for (doc, set) in docs.iter().zip(&sets) {
            write_mappings(out, doc, set);
        }
    };
    let mut written = Vec::new();
    write(&mut written); // the buffer grows once, as a connection's does
    written.clear();
    let ((), (write_calls, _)) = counted(|| write(&mut written));
    let (tree, (tree_calls, _)) = counted(|| {
        let render = |(doc, set)| mappings_to_json(doc, set).to_string();
        docs.iter().zip(&sets).map(render).collect::<String>()
    });
    assert_eq!(String::from_utf8(written).unwrap(), tree);
    Rendered {
        write_calls,
        tree_calls,
        spans: spans.sum(),
    }
}

/// Allocation calls of one warm evaluation of the library's method
/// extractor on a log line whose head before the quote is `head` bytes.
fn method_evaluation_calls(head: usize) -> usize {
    let query = PreparedQuery::prepare(r#"/.*"{method:[A-Z]+} .*/"#).unwrap();
    let line = format!("{}\"GET /index HTTP/1.1\" 404 5120", "a ".repeat(head / 2));
    let doc = Document::new(line);
    assert_eq!(query.evaluate(&doc).unwrap().len(), 1); // warms the tables
    let (set, (calls, _)) = counted(|| query.evaluate(&doc).unwrap());
    assert_eq!(set.len(), 1);
    calls
}

/// Allocation calls of the cold path of a fresh `/.*{x:LIT}.*/` whose
/// literal is `len` bytes: `prepare`, `required_literals`, the first
/// prescan and the first evaluation of one matching line.
fn cold_path_calls(len: usize) -> [usize; 4] {
    let literal = &"qzvxkwjpbmfyhdgc"[..len];
    let program = format!("/.*{{x:{literal}}}.*/");
    let (query, (prepare, _)) = counted(|| PreparedQuery::prepare(&program).unwrap());
    let PhysOp::CompiledScan { compiled, .. } = query.plan().physical().root() else {
        panic!("{program} lowers to one compiled scan");
    };
    let (literals, (literal_calls, _)) = counted(|| compiled.required_literals().to_vec());
    assert_eq!(literals, [literal.as_bytes().to_vec()]);
    let doc = Document::new(format!("one line with {literal} in it"));
    let (verdict, (prescan, _)) = counted(|| compiled.prescan(&doc));
    assert_eq!(verdict, PreScan::Accept);
    let (set, (evaluation, _)) = counted(|| query.evaluate(&doc).unwrap());
    assert_eq!(set.len(), 1);
    [prepare, literal_calls, prescan, evaluation]
}

/// The peak live bytes of `prepare` of `/{x:ab|…|ab}/` (`starred`:
/// `/{x:(ab|…|ab)*}/`) over `alternatives` alternatives.
fn compile_peak(alternatives: usize, starred: bool) -> usize {
    let body = format!("ab{}", "|ab".repeat(alternatives - 1));
    let program = if starred {
        format!("/{{x:({body})*}}/")
    } else {
        format!("/{{x:{body}}}/")
    };
    let (query, bytes) = peak(|| PreparedQuery::prepare(&program).unwrap());
    drop(query);
    bytes
}

/// What `Store::build` of a needle store of `lines` lines and one
/// explicit `compact()` after `updates` updates held live, in bytes beyond
/// the documents, and the shape of the index it built.
struct Weighed {
    documents: usize,
    postings: usize,
    trigrams: usize,
    /// Held by the built store.
    held: usize,
    /// The most held at once during the build.
    build_peak: usize,
    /// What the updates added (the delta segment and the documents'
    /// change in size).
    delta: usize,
    /// The most held at once during the compaction.
    compact_peak: usize,
    /// `Store::index_bytes` after the build and before the compaction.
    index_bytes: (usize, usize),
}

fn weigh_store(lines: usize, updates: usize) -> Weighed {
    let docs = needle_corpus(lines, 10, 12);
    let postings = docs
        .iter()
        .map(|doc| {
            let mut trigrams: Vec<&[u8]> = doc.bytes().windows(3).collect();
            trigrams.sort_unstable();
            trigrams.dedup();
            trigrams.len()
        })
        .sum();
    let before = LIVE.load(Relaxed);
    let (mut store, build_peak) = peak(|| Store::build(docs).unwrap());
    let held = LIVE.load(Relaxed) - before;
    let built_index = store.index_bytes();
    for i in 0..updates {
        let line = needle_line(false, 1_000 + i as u64);
        store.update((i * 29 % lines) as u32, line.text()).unwrap();
    }
    assert_eq!(
        store.compactions(),
        0,
        "the updates stay under the threshold"
    );
    let updated = LIVE.load(Relaxed) - before;
    let updated_index = store.index_bytes();
    let ((), rise) = peak(|| store.compact());
    Weighed {
        documents: lines,
        postings,
        trigrams: store.trigram_count(),
        held,
        build_peak,
        delta: updated - held,
        compact_peak: updated + rise,
        index_bytes: (built_index, updated_index),
    }
}

#[test]
fn a_resident_query_allocates_what_it_matched_not_the_corpus() {
    let (small, large) = (5_000, 20_000);
    let (at_small, at_large) = (resident_queries(small), resident_queries(large));
    println!(
        "bytes allocated at {small} / {large} lines: cold {} / {}, hot {} / {} \
         (in {} / {} calls), hot through the dense forward {} / {}",
        at_small.cold,
        at_large.cold,
        at_small.hot,
        at_large.hot,
        at_small.hot_calls,
        at_large.hot_calls,
        at_small.hot_dense,
        at_large.hot_dense
    );
    let grown = large - small;

    // Hot: 15 000 more documents, and nothing but the posting walk grows —
    // under one byte a document, where a dense slot is 24.
    let growth = at_large.hot.abs_diff(at_small.hot);
    assert!(growth < grown, "a hot re-query grew by {growth} B");
    assert_eq!(at_large.hot_calls, at_small.hot_calls);

    // Cold: the snapshot and a constant — some 34 KB, evaluating the index's
    // forty-odd candidates.
    const CONSTANT: usize = 64 << 10;
    for (lines, cold) in [(small, at_small.cold), (large, at_large.cold)] {
        let over = cold.saturating_sub(8 * lines);
        assert!(
            over <= CONSTANT,
            "a cold query over {lines} lines allocated {over} B past its snapshot"
        );
    }

    // The counter sees a dense result when there is one.
    for (lines, at) in [(small, &at_small), (large, &at_large)] {
        let dense = at.hot_dense - at.hot;
        assert!(
            dense >= DENSE_SLOT * lines,
            "the dense forward over {lines} lines allocated only {dense} B more"
        );
    }

    // Rendering: nothing per line, mapping, span or string on the writer.
    let rendered = scan_hit_renders();
    println!(
        "allocations rendering 64 lines ({} spans): writer {}, reference tree {}",
        rendered.spans, rendered.write_calls, rendered.tree_calls
    );
    assert_eq!(rendered.spans, 128);
    assert_eq!(rendered.write_calls, 0, "the writer allocated");
    assert!(
        rendered.tree_calls >= rendered.spans,
        "the tree allocated only {} times",
        rendered.tree_calls
    );

    // Enumeration: the stack holds branch points, not positions.
    let heads = [80, 800, 8_000];
    let calls = heads.map(method_evaluation_calls);
    println!("allocation calls evaluating after a head of {heads:?} bytes: {calls:?}");
    assert!(
        calls.iter().all(|&c| c == calls[0]),
        "the calls grew with the head: {calls:?}"
    );

    // The cold path: the first prescan builds nothing, the first
    // evaluation allocates per slab, not per state or cell.
    let lens = [4, 8, 16];
    let [short, medium, long] = lens.map(cold_path_calls);
    println!(
        "allocation calls of prepare / required_literals / first prescan / \
         first evaluation at literals of {lens:?} bytes: {short:?} {medium:?} {long:?}"
    );
    let prescans = [short[2], medium[2], long[2]];
    assert_eq!(prescans, [0; 3], "the first prescan allocated");
    assert!(
        long[3] <= short[3] + 16,
        "the first evaluation grew with the literal: {} calls at 4 bytes, {} at 16",
        short[3],
        long[3]
    );

    // The compiled automaton: linear in its states.
    let alternatives = [1_000, 2_000, 4_000, 8_000];
    for starred in [false, true] {
        let peaks = alternatives.map(|n| compile_peak(n, starred));
        println!("peak live bytes of prepare at {alternatives:?} alternatives (starred {starred}): {peaks:?}");
        for pair in peaks.windows(2) {
            assert!(
                pair[1] as f64 <= 2.3 * pair[0] as f64,
                "prepare's peak grew {:.2}x in one doubling: {peaks:?}",
                pair[1] as f64 / pair[0] as f64
            );
        }
    }

    // The store's index: one id array, not a list per trigram.
    let w = weigh_store(30_000, 1_000);
    println!(
        "store of {} lines ({} postings, {} trigrams): holds {} B, peaks at {} B \
         building; {} B of updates, compaction peaks at {} B; index_bytes {:?}",
        w.documents,
        w.postings,
        w.trigrams,
        w.held,
        w.build_peak,
        w.delta,
        w.compact_peak,
        w.index_bytes
    );
    let resident = 2 * w.postings + 16 * w.trigrams + 16 * w.documents;
    assert!(
        w.held <= resident,
        "the store holds {} B past its documents, over {resident} B",
        w.held
    );
    let slack = 48 * w.trigrams;
    assert!(
        w.build_peak <= w.held + slack,
        "the build peaked at {} B for a store of {} B",
        w.build_peak,
        w.held
    );
    // Built without a map from trigram to slot: besides the arrays it
    // returns, the build holds 8 B a trigram and a bitset with its ranks,
    // 6 KB over this corpus' 27 byte values.
    let tight = 16 * w.trigrams;
    assert!(
        w.build_peak <= w.held + tight,
        "the build peaked {} B above a store of {} B, over {tight} B",
        w.build_peak.saturating_sub(w.held),
        w.held
    );
    assert!(
        w.compact_peak <= w.held + w.delta + slack,
        "the compaction peaked at {} B: one base and the delta are {} B",
        w.compact_peak,
        w.held + w.delta
    );
    // The gauge covers the ids and grows with the delta.
    let (built, updated) = w.index_bytes;
    assert!(2 * w.postings <= built && built <= w.held);
    assert!(built < updated && updated - built <= w.delta);
}
