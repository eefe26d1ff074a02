//! Differential tests for incremental evaluation.
//!
//! Mutations (`append`/`update`/`delete`) and maintained query views (see
//! `spanner_store` and `spanner_corpus::QueryView`) are *optimizations*:
//! after any interleaving of mutations, (a) the mutated store must answer
//! exactly like a store rebuilt from scratch over the same documents —
//! same relations, same candidate sets, same persisted bytes — and (b)
//! the view-backed delta path must answer exactly like the full
//! unindexed evaluation, bit-identical in corpus order, for every thread
//! count and view budget. This suite pins both down with 100 seeded
//! random plans and mutation scripts over corpora that mix empty
//! documents, multi-byte UTF-8, and planted literals.

mod common;

use common::assert_same_answer;
use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_workloads::{random_mutations, random_ra_tree, RandomRaConfig};

fn cfg(seed: u64) -> RandomRaConfig {
    RandomRaConfig {
        depth: 2 + (seed % 2) as usize,
        leaves: 2 + (seed % 3) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

/// A small mixed corpus: empty documents, short fixed strings, random
/// text, multi-byte UTF-8 lines, and a planted rare literal so selective
/// plans have something to prune toward.
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

/// Saves both stores and compares the files byte for byte.
fn assert_same_bytes(mutated: &Store, rebuilt: &Store, seed: u64) {
    let dir = std::env::temp_dir();
    let a = dir.join(format!("incr-oracle-{}-{seed}-mutated", std::process::id()));
    let b = dir.join(format!("incr-oracle-{}-{seed}-rebuilt", std::process::id()));
    mutated.save(&a).unwrap();
    rebuilt.save(&b).unwrap();
    let same = std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap();
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert!(
        same,
        "seed {seed}: the mutated store persists different bytes than a scratch rebuild"
    );
}

/// 100 random (plan, mutation script) pairs: after the script, the
/// mutated store equals a scratch rebuild, and the view-backed delta
/// path equals the full evaluation — warm, cold (budget 0), and on a
/// repeat query — at 1 and 3 threads.
#[test]
fn mutated_store_and_views_match_scratch_rebuild_on_100_seeds() {
    for seed in 0..100u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed);
        let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
        let docs = corpus(seed);
        let mut store = Store::build(docs.clone()).unwrap();

        // Warm a view on the pre-mutation corpus so the post-mutation
        // query exercises genuine hits, invalidations, and misses.
        let mut warm_view = QueryView::unbounded();
        store.query_view(&engine, &mut warm_view, 1).unwrap();
        // Its twin answers through the sparse entry point, in lockstep.
        let mut sparse_view = QueryView::unbounded();
        store
            .query_view_matches(&engine, &mut sparse_view, 1)
            .unwrap();

        for m in random_mutations(docs.len(), 30, seed) {
            store.apply(&m).unwrap();
        }

        // (a) The mutated store is indistinguishable from a rebuild:
        // same answers, same candidate pruning, same persisted bytes.
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        assert_eq!(store.len(), rebuilt.len(), "seed {seed}");
        assert_eq!(store.doc_hashes(), rebuilt.doc_hashes(), "seed {seed}");
        if seed % 10 == 0 {
            assert_same_bytes(&store, &rebuilt, seed);
        }

        for threads in [1usize, 3] {
            let mutated_q = store.query(&engine, threads).unwrap();
            let rebuilt_q = rebuilt.query(&engine, threads).unwrap();
            assert_eq!(
                mutated_q.output.results, rebuilt_q.output.results,
                "seed {seed}, {threads} threads: {tree}"
            );
            assert_eq!(
                mutated_q.candidates, rebuilt_q.candidates,
                "seed {seed}, {threads} threads: candidate sets diverged"
            );
            let context = format!("seed {seed}, {threads} threads, sparse: {tree}");
            let sparse_q = store.query_matches(&engine, threads).unwrap();
            assert_eq!(sparse_q.candidates, mutated_q.candidates, "{context}");
            assert_same_answer(sparse_q.output, &mutated_q.output, &context);

            // (b) The delta path answers exactly like the full pass.
            let full = engine
                .scan(store.documents(), threads)
                .unwrap()
                .into_dense();
            let warm = store.query_view(&engine, &mut warm_view, threads).unwrap();
            assert_eq!(
                warm.output.results, full.results,
                "seed {seed}, {threads} threads (warm view): {tree}"
            );
            assert_eq!(
                warm.view_hits + warm.delta_docs,
                store.len(),
                "seed {seed}: every document is either a hit or delta"
            );
            let sparse = store
                .query_view_matches(&engine, &mut sparse_view, threads)
                .unwrap();
            assert_eq!(
                (sparse.delta_docs, sparse.view_hits, sparse.invalidated),
                (warm.delta_docs, warm.view_hits, warm.invalidated),
                "{context}"
            );
            assert_same_answer(sparse.output, &warm.output, &context);

            // Budget 0 never retains anything: always the cold path, same
            // answer.
            let mut cold_view = QueryView::new(0);
            let cold = store.query_view(&engine, &mut cold_view, threads).unwrap();
            assert_eq!(
                cold.output.results, full.results,
                "seed {seed}, {threads} threads (cold view): {tree}"
            );
            assert_eq!(cold.view_hits, 0, "seed {seed}: budget 0 cannot hit");
            let sparse = store
                .query_view_matches(&engine, &mut QueryView::new(0), threads)
                .unwrap();
            assert_eq!(sparse.view_hits, 0, "{context}");
            assert_same_answer(sparse.output, &cold.output, &context);

            // A repeat on the warm view is served without re-evaluating
            // anything, still bit-identical.
            let again = store.query_view(&engine, &mut warm_view, threads).unwrap();
            assert_eq!(again.delta_docs, 0, "seed {seed}: unchanged corpus");
            assert_eq!(again.output.results, full.results, "seed {seed}");
            let sparse = store
                .query_view_matches(&engine, &mut sparse_view, threads)
                .unwrap();
            assert_eq!(sparse.delta_docs, 0, "{context}");
            assert_same_answer(sparse.output, &again.output, &context);
            assert_eq!(
                (sparse_view.retained_cost(), sparse_view.snapshot_bytes()),
                (warm_view.retained_cost(), warm_view.snapshot_bytes()),
                "{context}"
            );
        }
    }
}

/// Journal round trip: recording a script while applying it directly,
/// then replaying the journal from disk onto a fresh copy of the base
/// corpus, reproduces the directly-mutated store exactly.
#[test]
fn journal_replay_reproduces_the_mutated_store() {
    for seed in [1u64, 7, 23, 58] {
        let docs = corpus(seed);
        let path =
            std::env::temp_dir().join(format!("incr-oracle-journal-{}-{seed}", std::process::id()));
        std::fs::remove_file(&path).ok();

        let mut direct = Store::build(docs.clone()).unwrap();
        let mut journal = Journal::append(&path).unwrap();
        for m in random_mutations(docs.len(), 40, seed) {
            journal.record(&m).unwrap();
            direct.apply(&m).unwrap();
        }

        let (script, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(end, std::fs::metadata(&path).unwrap().len());
        let mut replayed = Store::build(docs).unwrap();
        for m in &script {
            replayed.apply(m).unwrap();
        }
        assert_eq!(replayed.documents(), direct.documents(), "seed {seed}");
        assert_eq!(replayed.doc_hashes(), direct.doc_hashes(), "seed {seed}");
        assert_eq!(replayed.generation(), direct.generation(), "seed {seed}");
        std::fs::remove_file(&path).ok();
    }
}
