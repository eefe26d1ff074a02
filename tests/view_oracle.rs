//! Property test for maintained query views under interleaved mutation.
//!
//! `incr_oracle` checks a view once, after a whole mutation script. This
//! suite interleaves: after *every* mutation step a set of views — budgets
//! `0`, tight and unbounded, some synchronised at every step and some only
//! every third — answers the query, and every answer must be bit-identical
//! to `Store::query` and to the unindexed `evaluate_with_threads`, at 1
//! and 3 threads. The steps include the cases a hash-keyed view is easy to
//! get wrong: an update that writes the same content (the generation
//! moves, the hash does not), a repeated delete, an append deleted before
//! any view saw it, and a forced compaction between two queries.

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

/// One view plus how often it is synchronised.
struct Watched {
    view: QueryView,
    every: usize,
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
                .evaluate_with_threads(store.documents(), threads)
                .unwrap();
            let indexed = store.query(&engine, threads).unwrap();
            assert_eq!(
                indexed.output.results, full.results,
                "seed {seed}, step {step}: {tree}"
            );
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
                }
            }
        }
    }
}
