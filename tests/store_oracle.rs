//! The trigram-indexed store's literal pruning (`spanner_store`) is an
//! optimization: through [`Store::query`] and its sparse twin every plan
//! answers as the unindexed [`CorpusEngine::scan`] and the reference do —
//! relations, corpus order, tallies. Pinned on 100 seeded random plans over
//! the mixed corpus (empty documents, multi-byte UTF-8, planted literals),
//! on the three regimes the index has to get right — selective,
//! non-selective and literal-free (the full-scan fallback) — and across a
//! `save` / `load` and a delete.

mod common;

use common::*;
use document_spanners::prelude::*;

/// The store saved and loaded back: the same documents, the same candidates.
fn reloaded() -> Surface<'static> {
    surface("store, saved and loaded", |case| {
        let (store, engine) = (case.store(case.script.len()), case.engine());
        let loaded = saved(&store).1;
        assert_eq!(loaded.documents(), store.documents());
        let [from_loaded, from_memory] = [&loaded, &store].map(|s| s.query(&engine, 2).unwrap());
        assert_eq!(from_loaded.candidates, from_memory.candidates);
        case.end([from_loaded.output.results])
    })
}

/// Under 256 documents every thread count runs on the calling thread.
#[test]
fn indexed_store_is_invisible_on_100_random_plans() {
    let cases = (0..100).flat_map(|seed| ra_cases(seed, 0, &store_corpus(seed)));
    check_all(cases, &[indexed(3), unindexed(3)]);
}

/// "needle" is in 5 of 202 documents, "entry" in 200, and `[ne]+` has no
/// singleton-class factor of trigram length: a selective plan prunes to a
/// handful of candidates, a non-selective one keeps most of the corpus,
/// and a literal-free one falls back to the full scan.
#[test]
fn selectivity_regimes_agree_with_the_unindexed_path() {
    let line = |i| match i % 40 {
        0 => format!("entry {i}: needle βeta"),
        _ => format!("entry {i}: common αlpha"),
    };
    let mut docs: Vec<String> = (0..200).map(line).collect();
    docs.extend(strings(["", ""]));
    let regimes = [Some(true), Some(false), None];
    for (pattern, selective) in [".*needle{x: .*}", ".*entry{x: .*}", "{x:[ne]+}"]
        .iter()
        .zip(regimes)
    {
        let case = Case::ql(&format!("/{pattern}/"), &docs);
        check(&case, &[indexed(3)]);
        let indexed = case.store(0).query(&case.engine(), 3).unwrap();
        let candidates = indexed.candidates;
        let selectivity = indexed.selectivity();
        let skipped = indexed.output.stats.docs_skipped;
        match selective {
            Some(true) => {
                assert_eq!(candidates, Some(5), "{pattern}");
                assert!(selectivity < 0.05, "{pattern}: {selectivity}");
                assert!(skipped >= 197, "{pattern}: {skipped} skipped");
            }
            Some(false) => assert!(candidates.unwrap() >= 200, "{candidates:?}"),
            None => {
                assert_eq!(candidates, None, "{pattern}");
                assert_eq!(selectivity, 1.0, "{pattern}");
            }
        }
    }
}

/// Persistence composes with the differential contract, multi-byte UTF-8
/// documents included.
#[test]
fn persisted_store_queries_agree_after_reload() {
    for pattern in [".*needle{x: .*}", "{x:a+}b", ".*β{x:.*}"] {
        let case = Case::ql(&format!("/{pattern}/"), &store_corpus(7));
        check(&case, &[indexed(2), reloaded()]);
    }
}

/// A deleted slot *is* the empty document: `delete(id)` and `update(id, "")`
/// answer every pattern as the reference answers the empty document — a
/// nullable one included, which still answers one mapping of empty spans
/// on that line — before and after a `save` / `load` (tombstones are not in
/// the segment format, so a filter on them would change answers across a
/// restart).
#[test]
fn a_deleted_slot_answers_as_the_empty_document() {
    let view = surface("unbounded view", |case| {
        let mut view = QueryView::unbounded();
        let store = case.store(case.script.len());
        let out = store.query_view(&case.engine(), &mut view, 1).unwrap();
        case.end([out.output.results])
    });
    let surfaces = [indexed(1), reloaded(), view];
    let emptied = Mutation::Update {
        id: 0,
        text: String::new(),
    };
    for (pattern, line_0) in [("{x:a*}", 1), (".*{x:needle}.*", 0), ("{x:a+}", 0)] {
        for mutation in [Mutation::Delete { id: 0 }, emptied.clone()] {
            let case = Case::ql(&format!("/{pattern}/"), &["aa", "b needle", "c"]);
            let case = case.script(vec![vec![mutation.clone()]]);
            check(&case, &surfaces);
            let store = case.store(1);
            assert_eq!(store.is_deleted(0), mutation != emptied);
            let out = store.query_matches(&case.engine(), 1).unwrap().output;
            assert_eq!(out.get(0).map_or(0, |set| set.len()), line_0, "{pattern}");
        }
    }
}
