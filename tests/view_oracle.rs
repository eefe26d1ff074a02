//! Property test for maintained query views under interleaved mutation.
//!
//! `incr_oracle` checks a view once, after a whole mutation script. This
//! suite interleaves: after *every* mutation step a set of views — budgets
//! `0`, tight and unbounded, some synchronised at every step and some only
//! every third — answers the query, and every answer must be bit-identical
//! to `Store::query` and to the unindexed `CorpusEngine::scan`, at 1
//! and 3 threads. The steps include the cases a hash-keyed view is easy to
//! get wrong: an update that writes the same content (the generation
//! moves, the hash does not), a repeated delete, an append deleted before
//! any view saw it, and a forced compaction between two queries.
//!
//! Every dense entry point is a forward over a sparse one
//! (`CorpusMatches`): a twin of each view answers through
//! `Store::query_view_matches` in lockstep, and the sparse answer made
//! dense must be the dense answer — relations, every tally, and what the
//! view retained. The second test holds `scan_delta` to `evaluate_delta` at
//! the view's edges, which a store cannot produce: a corpus shorter than
//! the snapshot and an evaluation that fails.

mod common;

use common::assert_same_answer;
use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_workloads::{random_mutations, random_ra_tree, RandomRaConfig};

const BUDGETS: [usize; 3] = [0, 12, usize::MAX];

fn corpus(seed: u64) -> Vec<Document> {
    let mut docs: Vec<Document> = ["", "a", "abab", "aβb", "prefix needle suffix", "δδδ", ""]
        .iter()
        .map(|t| Document::new(*t))
        .collect();
    for i in 0..9u64 {
        docs.push(workloads::random_text(
            12 + (i as usize) * 2,
            b"abc",
            seed.wrapping_mul(17).wrapping_add(i),
        ));
    }
    docs.push(Document::new("aaneedlebb"));
    docs
}

/// One view plus how often it is synchronised, and its twin, which answers
/// the same queries through the sparse entry point.
struct Watched {
    view: QueryView,
    sparse: QueryView,
    every: usize,
}

/// Twin views hold the same: mappings retained and snapshot kept.
fn assert_same_view(sparse: &QueryView, dense: &QueryView, context: &str) {
    let held = |v: &QueryView| (v.retained_cost(), v.snapshot_bytes(), v.generation());
    assert_eq!(held(sparse), held(dense), "{context}");
}

#[test]
fn interleaved_mutations_and_views_agree_with_the_cold_paths() {
    for seed in 0..40u64 {
        let cfg = RandomRaConfig {
            depth: 2 + (seed % 2) as usize,
            leaves: 2 + (seed % 3) as usize,
            vars_per_leaf: 2,
            allow_difference: !seed.is_multiple_of(4),
        };
        let (tree, inst) = random_ra_tree(cfg, seed);
        let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
        let docs = corpus(seed);
        let mut store = Store::build(docs.clone()).unwrap();
        let mut watched: Vec<Watched> = BUDGETS
            .iter()
            .flat_map(|&budget| [1, 3].map(|every| (budget, every)))
            .map(|(budget, every)| Watched {
                view: QueryView::new(budget),
                sparse: QueryView::new(budget),
                every,
            })
            .collect();

        for (step, mutation) in random_mutations(docs.len(), 36, seed).iter().enumerate() {
            store.apply(mutation).unwrap();
            let pick = (step * 7 + seed as usize) % store.len();
            match step % 9 {
                // Same content: the generation moves, the hash does not.
                2 => {
                    let text = store.documents()[pick].text().to_string();
                    store.update(pick as u32, &text).unwrap();
                }
                // Deleting twice is deleting once.
                4 => {
                    store.delete(pick as u32).unwrap();
                    store.delete(pick as u32).unwrap();
                }
                // A document no view ever saw alive.
                6 => {
                    let id = store.append("short-lived needle line").unwrap();
                    store.delete(id).unwrap();
                }
                8 => store.compact(),
                _ => {}
            }

            let threads = if step % 2 == 0 { 1 } else { 3 };
            let full = engine
                .scan(store.documents(), threads)
                .unwrap()
                .into_dense();
            let indexed = store.query(&engine, threads).unwrap();
            assert_eq!(
                indexed.output.results, full.results,
                "seed {seed}, step {step}: {tree}"
            );
            let context = format!("seed {seed}, step {step}, sparse: {tree}");
            let sparse = store.query_matches(&engine, threads).unwrap();
            assert_eq!(sparse.candidates, indexed.candidates, "{context}");
            assert_same_answer(sparse.output, &indexed.output, &context);
            let sparse = engine.scan(store.documents(), threads).unwrap();
            assert_same_answer(sparse, &full, &context);
            for w in watched.iter_mut().filter(|w| step % w.every == 0) {
                let budget = w.view.budget();
                let context = format!("seed {seed}, step {step}, budget {budget}: {tree}");
                let out = store.query_view(&engine, &mut w.view, threads).unwrap();
                assert_eq!(out.output.results, full.results, "{context}");
                assert_eq!(out.output.stats.mappings, full.stats.mappings, "{context}");
                assert_eq!(
                    out.output.stats.matched_documents, full.stats.matched_documents,
                    "{context}"
                );
                assert_eq!(out.view_hits + out.delta_docs, store.len(), "{context}");
                assert!(out.invalidated <= out.delta_docs, "{context}");
                assert!(w.view.retained_cost() <= budget, "{context}");
                let sparse = store
                    .query_view_matches(&engine, &mut w.sparse, threads)
                    .unwrap();
                assert_eq!(
                    (sparse.delta_docs, sparse.view_hits, sparse.invalidated),
                    (out.delta_docs, out.view_hits, out.invalidated),
                    "{context}"
                );
                assert_eq!(
                    (sparse.candidates, sparse.generation),
                    (out.candidates, out.generation),
                    "{context}"
                );
                assert_same_answer(sparse.output, &out.output, &context);
                assert_same_view(&w.sparse, &w.view, &context);
                if budget == 0 {
                    assert_eq!(out.view_hits, 0, "{context}");
                }
                if budget == usize::MAX {
                    // Synchronised a moment ago: a same-content update
                    // changes nothing the view can see, and neither does
                    // asking again.
                    let text = store.documents()[pick].text().to_string();
                    store.update(pick as u32, &text).unwrap();
                    let again = store.query_view(&engine, &mut w.view, threads).unwrap();
                    assert_eq!(again.delta_docs, 0, "{context}");
                    assert_eq!(again.output.results, full.results, "{context}");
                    assert_eq!(again.generation, store.generation(), "{context}");
                    let sparse = store
                        .query_view_matches(&engine, &mut w.sparse, threads)
                        .unwrap();
                    assert_eq!(sparse.delta_docs, 0, "{context}");
                    assert_same_answer(sparse.output, &again.output, &context);
                    assert_same_view(&w.sparse, &w.view, &context);
                }
            }
        }
    }
}

/// `scan_delta` against `evaluate_delta`, twin views in lockstep, through
/// the cases the interleaving above cannot reach: a budget of 0, a budget
/// that refuses a relation, a corpus shorter than the snapshot (ids are
/// positions: the view starts over) and an evaluation error, which leaves
/// both views exactly as they were.
#[test]
fn sparse_and_dense_delta_agree_at_the_views_edges() {
    let compile = |pattern: &str| {
        let inst = Instantiation::new().with(0, parse(pattern).unwrap());
        CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap()
    };
    let engine = compile(".*{x:needle}.*");
    // More variables than the enumerator supports: fails on first evaluation.
    let vars = 0..=spanner_enum::MAX_VARS;
    let failing = compile(&vars.map(|i| format!("{{v{i:02}:a?}}")).collect::<String>());
    let line = |i: usize| match i % 4 {
        0 => Document::new(format!("needle {i} needle")),
        _ => Document::new(format!("hay {i}")),
    };
    let hashes =
        |docs: &[Document]| -> Vec<u64> { docs.iter().map(|d| fnv1a64(d.bytes())).collect() };
    // Two mappings a matching line; a budget of 5 retains two lines' worth
    // and refuses the rest.
    for budget in [0, 5, usize::MAX] {
        let (mut sparse_view, mut dense_view) = (QueryView::new(budget), QueryView::new(budget));
        // One query through both entry points: how it was served (`None`
        // for an error, the same one from both) and what the views hold
        // after it.
        let mut check = |engine: &CorpusEngine, docs: &[Document], what: &str| {
            let context = format!("budget {budget}, {what}");
            let h = hashes(docs);
            let sparse = engine.scan_delta(docs, &h, None, &mut sparse_view, 1);
            let dense = engine.evaluate_delta(docs, &h, None, &mut dense_view, 1);
            assert_same_view(&sparse_view, &dense_view, &context);
            let held = (sparse_view.retained_cost(), sparse_view.snapshot_bytes());
            let served = match (sparse, dense) {
                (Ok(sparse), Ok(dense)) => {
                    let served = (dense.delta_docs, dense.view_hits, dense.invalidated);
                    assert_eq!(
                        (sparse.delta_docs, sparse.view_hits, sparse.invalidated),
                        served,
                        "{context}"
                    );
                    let full = engine.scan(docs, 1).unwrap().into_dense();
                    assert_eq!(dense.output.results, full.results, "{context}");
                    assert_same_answer(sparse.output, &dense.output, &context);
                    Some(served)
                }
                (Err(sparse), Err(dense)) => {
                    assert_eq!(sparse.to_string(), dense.to_string(), "{context}");
                    None
                }
                _ => panic!("{context}: one entry point failed, the other did not"),
            };
            (served, held)
        };
        let mut docs: Vec<Document> = (0..12).map(line).collect();
        let warm = budget > 0;
        assert_eq!(check(&engine, &docs, "cold").0, Some((12, 0, 0)));
        let refused = if budget == 5 { 1 } else { 0 };
        let repeat = if warm {
            (refused, 12 - refused, 0)
        } else {
            (12, 0, 0)
        };
        let (served, before) = check(&engine, &docs, "repeat");
        assert_eq!(served, Some(repeat));

        // A failing pass over a changed, grown corpus (the changed line is
        // one the failing plan gets as far as evaluating): an error, and
        // both views as they were — the next answer is the one a view that
        // never saw the failure gives.
        docs[1] = Document::new("aaa");
        docs.push(line(12));
        assert_eq!(check(&failing, &docs, "failing"), (None, before));
        let (grown, _) = check(&engine, &docs, "grown");
        // Misses: the changed line, the appended one, and the refused one.
        let misses = if warm { 2 + refused } else { 13 };
        assert_eq!(
            grown.map(|served| served.0),
            Some(misses),
            "budget {budget}"
        );

        // A corpus shorter than the snapshot is a different corpus.
        assert_eq!(check(&engine, &docs[..5], "shrunk").0, Some((5, 0, 0)));
        let expected = if warm { (0, 5, 0) } else { (5, 0, 0) };
        assert_eq!(
            check(&engine, &docs[..5], "shrunk, repeat").0,
            Some(expected)
        );
    }
}
