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

use document_spanners::prelude::*;
use spanner_algebra::PhysOp;
use spanner_serve::protocol::{mappings_to_json, write_mappings};
use spanner_vset::PreScan;
use spanner_workloads::{access_log, needle_corpus, needle_line};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting the calls and bytes of every allocation (a `realloc`
/// counts as one call of its new size).
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
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
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
}
