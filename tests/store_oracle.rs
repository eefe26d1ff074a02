//! Differential tests for the trigram-indexed store.
//!
//! The store's literal pruning (see `spanner_store`) is an *optimization*:
//! for any compiled plan, querying through [`Store::query`] must produce
//! results bit-identical — relations, corpus order, match counts — to the
//! unindexed [`CorpusEngine::scan`] path. This suite pins
//! that down with 100 seeded random plans over corpora that mix empty
//! documents, multi-byte UTF-8 content, and planted literals, plus the
//! three query regimes the index has to get right: selective (few
//! candidates), non-selective (most documents are candidates), and
//! zero-literal (no usable literal — the full-scan fallback must engage).

mod common;

use common::assert_same_answer;
use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_workloads::{random_ra_tree, RandomRaConfig};

fn cfg(seed: u64) -> RandomRaConfig {
    RandomRaConfig {
        depth: 2 + (seed % 2) as usize,
        leaves: 2 + (seed % 3) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

/// A small mixed corpus: empty documents, short fixed strings, random
/// text, multi-byte UTF-8 lines (Greek, combining marks), and a planted
/// rare literal so selective plans have something to prune toward.
fn corpus(seed: u64) -> Vec<Document> {
    let mut docs: Vec<Document> = [
        "",
        "a",
        "ab",
        "bca",
        "abab",
        "",
        "β-reduction over αβγ",
        "naïve café décor",
        "δδδ",
        "aβb",
    ]
    .iter()
    .map(|t| Document::new(*t))
    .collect();
    for i in 0..8u64 {
        docs.push(workloads::random_text(
            16 + (i as usize) * 3,
            b"abc",
            seed.wrapping_mul(31).wrapping_add(i),
        ));
    }
    docs.push(Document::new("prefix needle suffix"));
    docs.push(Document::new("aaneedlebb"));
    docs
}

/// 100 random plans: the indexed path answers exactly what the unindexed
/// corpus engine answers, document for document, and every document the
/// index prunes is accounted as skipped.
#[test]
fn indexed_store_is_invisible_on_100_random_plans() {
    for seed in 0..100u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed);
        let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
        let docs = corpus(seed);
        let store = Store::build(docs.clone()).unwrap();
        let threads = 1 + (seed % 4) as usize;

        let indexed = store.query(&engine, threads).unwrap();
        let full = engine.scan(&docs, threads).unwrap().into_dense();
        assert_eq!(indexed.output.results, full.results, "seed {seed}: {tree}");
        assert_eq!(
            indexed.output.stats.matched_documents, full.stats.matched_documents,
            "seed {seed}: {tree}"
        );
        assert_eq!(
            indexed.output.stats.documents,
            docs.len(),
            "seed {seed}: the indexed result must cover the whole corpus"
        );
        // The dense calls are forwards over the sparse ones.
        let context = format!("seed {seed}, sparse: {tree}");
        let sparse = store.query_matches(&engine, threads).unwrap();
        assert_eq!(sparse.candidates, indexed.candidates, "{context}");
        assert_eq!(sparse.selectivity(), indexed.selectivity(), "{context}");
        assert_same_answer(sparse.output, &indexed.output, &context);
        assert_same_answer(engine.scan(&docs, threads).unwrap(), &full, &context);
        if let Some(candidates) = indexed.candidates {
            // Everything outside the candidate set is skipped unread.
            assert!(
                indexed.output.stats.docs_skipped >= docs.len() - candidates,
                "seed {seed}: {:?}",
                indexed.output.stats
            );
        }
    }
}

/// The three selectivity regimes, explicitly: a selective plan prunes to a
/// handful of candidates, a non-selective plan keeps most of the corpus,
/// and a literal-free plan falls back to the full scan — all bit-identical
/// to the unindexed path.
#[test]
fn selectivity_regimes_agree_with_the_unindexed_path() {
    let mut docs: Vec<Document> = (0..200)
        .map(|i| {
            if i % 40 == 0 {
                Document::new(format!("entry {i}: needle βeta"))
            } else {
                Document::new(format!("entry {i}: common αlpha"))
            }
        })
        .collect();
    docs.push(Document::new(""));
    docs.push(Document::new(""));
    let store = Store::build(docs.clone()).unwrap();

    for (pattern, expect_selective) in [
        // Selective: "needle" appears in 5 of 202 documents.
        (".*needle{x: .*}", Some(true)),
        // Non-selective: "entry" appears in 200 of 202.
        (".*entry{x: .*}", Some(false)),
        // Zero-literal: no singleton-class factor of trigram length.
        ("{x:[ne]+}", None),
    ] {
        let inst = Instantiation::new().with(0, parse(pattern).unwrap());
        let engine = CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap();
        let indexed = store.query(&engine, 3).unwrap();
        let full = engine.scan(&docs, 3).unwrap().into_dense();
        assert_eq!(indexed.output.results, full.results, "{pattern}");
        match expect_selective {
            Some(true) => {
                assert_eq!(indexed.candidates, Some(5), "{pattern}");
                assert!(indexed.selectivity() < 0.05, "{pattern}");
                assert!(
                    indexed.output.stats.docs_skipped >= docs.len() - 5,
                    "{pattern}: {:?}",
                    indexed.output.stats
                );
            }
            Some(false) => {
                let candidates = indexed.candidates.expect(pattern);
                assert!(candidates >= 200, "{pattern}: {candidates}");
            }
            None => {
                assert_eq!(indexed.candidates, None, "{pattern}");
                assert_eq!(indexed.selectivity(), 1.0, "{pattern}");
            }
        }
    }
}

/// Persistence composes with the differential contract: a store saved and
/// loaded back answers exactly what the in-memory store answers, multi-byte
/// UTF-8 documents included.
#[test]
fn persisted_store_queries_agree_after_reload() {
    let docs = corpus(7);
    let store = Store::build(docs.clone()).unwrap();
    let path =
        std::env::temp_dir().join(format!("spanner-store-oracle-{}.seg", std::process::id()));
    store.save(&path).unwrap();
    let loaded = Store::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.documents(), store.documents());

    for pattern in [".*needle{x: .*}", "{x:a+}b", ".*β{x:.*}"] {
        let inst = Instantiation::new().with(0, parse(pattern).unwrap());
        let engine = CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap();
        let from_loaded = loaded.query(&engine, 2).unwrap();
        let from_memory = store.query(&engine, 2).unwrap();
        let full = engine.scan(&docs, 2).unwrap().into_dense();
        assert_eq!(from_loaded.output.results, full.results, "{pattern}");
        assert_eq!(from_memory.output.results, full.results, "{pattern}");
        assert_eq!(from_loaded.candidates, from_memory.candidates, "{pattern}");
    }
}

/// A deleted slot *is* the empty document: `delete(id)` and `update(id, "")`
/// leave stores that answer every pattern alike — a nullable one included,
/// which still answers one mapping of empty spans on that line — before and
/// after a `save`/`load` (tombstones are not in the segment format, so a
/// filter on them would change answers across a restart).
#[test]
fn a_deleted_slot_answers_as_the_empty_document() {
    let docs: Vec<Document> = ["aa", "b needle", "c"].map(Document::new).into();
    let mut deleted = Store::build(docs.clone()).unwrap();
    deleted.delete(0).unwrap();
    let mut emptied = Store::build(docs).unwrap();
    emptied.update(0, "").unwrap();
    assert!(deleted.is_deleted(0) && !emptied.is_deleted(0));
    assert_eq!(deleted.documents(), emptied.documents());

    let reload = |store: &Store, name: &str| {
        let path = std::env::temp_dir().join(format!(
            "spanner-store-oracle-{}-{name}.seg",
            std::process::id()
        ));
        store.save(&path).unwrap();
        let loaded = Store::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        loaded
    };
    let stores = [
        reload(&deleted, "deleted"),
        reload(&emptied, "emptied"),
        deleted,
        emptied,
    ];
    for (pattern, line_0) in [("{x:a*}", 1), (".*{x:needle}.*", 0), ("{x:a+}", 0)] {
        let inst = Instantiation::new().with(0, parse(pattern).unwrap());
        let engine = CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap();
        let full = engine.scan(stores[0].documents(), 1).unwrap().into_dense();
        assert_eq!(full.results[0].len(), line_0, "{pattern}");
        for store in &stores {
            let indexed = store.query(&engine, 1).unwrap();
            assert_eq!(indexed.output.results, full.results, "{pattern}");
            let sparse = store.query_matches(&engine, 1).unwrap().output;
            assert_eq!(
                sparse.get(0).map_or(0, |set| set.len()),
                line_0,
                "{pattern}"
            );
            let mut view = QueryView::unbounded();
            let viewed = store.query_view(&engine, &mut view, 1).unwrap();
            assert_eq!(viewed.output.results, full.results, "{pattern}");
        }
    }
}
