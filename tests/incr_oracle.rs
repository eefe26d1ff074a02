//! Mutations (`append` / `update` / `delete`) and maintained query views
//! (`spanner_store`, `spanner_corpus::QueryView`) are optimizations: after a
//! script of random mutations, (a) the mutated store answers like a store
//! rebuilt from scratch over the same documents — same relations, same
//! candidate sets, same persisted bytes — and (b) a view warmed before the
//! script answers as the reference, at every thread count and budget,
//! through the dense and the sparse entry points alike.

mod common;

use common::*;
use document_spanners::prelude::*;
use spanner_workloads::random_mutations;

fn cases() -> impl Iterator<Item = Case> {
    (0..100).flat_map(|seed| {
        let docs = store_corpus(seed);
        let script = random_mutations(docs.len(), 30, seed);
        let cases = ra_cases(seed, 0, &docs).into_iter();
        cases.map(move |case| case.steps(script.clone()))
    })
}

#[test]
fn mutated_store_and_views_match_scratch_rebuild_on_100_seeds() {
    // Same documents, hashes and candidate sets; the sparse entry point
    // answers as the dense one.
    let rebuilt = surface("mutated store vs rebuild, 1 and 3 threads", |case| {
        let (store, engine) = (case.store(case.script.len()), case.engine());
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        assert_eq!(store.len(), rebuilt.len());
        assert_eq!(store.doc_hashes(), rebuilt.doc_hashes());
        let mut seen = Vec::new();
        for threads in [1, 3] {
            let [out, scratch] = [&store, &rebuilt].map(|s| s.query(&engine, threads).unwrap());
            let sparse = store.query_matches(&engine, threads).unwrap();
            assert_eq!(
                out.candidates, scratch.candidates,
                "candidate sets diverged"
            );
            assert_eq!(sparse.candidates, out.candidates, "sparse");
            assert_same_answer(sparse.output, &out.output, "sparse");
            seen.extend([out, scratch].map(|o| (case.script.len(), o.output.results)));
        }
        Some(seen)
    });
    // A view warmed before the script meets genuine hits, invalidations and
    // misses after it; its twin answers through the sparse entry point.
    let views = surface("views warmed before the script, 1 and 3 threads", |case| {
        let (mut store, engine) = (case.store(0), case.engine());
        let (mut warm, mut twin) = (QueryView::unbounded(), QueryView::unbounded());
        store.query_view(&engine, &mut warm, 1).unwrap();
        store.query_view_matches(&engine, &mut twin, 1).unwrap();
        for m in case.script.iter().flatten() {
            store.apply(m).unwrap();
        }
        let mut seen = Vec::new();
        for threads in [1, 3] {
            let query = |view: &mut _| store.query_view(&engine, view, threads).unwrap();
            let sparse = |view: &mut _| store.query_view_matches(&engine, view, threads).unwrap();
            let (n, out) = (store.len(), query(&mut warm));
            assert_eq!(out.view_hits + out.delta_docs, n, "a hit or delta");
            let twin_out = sparse(&mut twin);
            assert_eq!(served(&twin_out), served(&out));
            assert_same_answer(twin_out.output, &out.output, "sparse");
            // Budget 0 never retains anything: always the cold path.
            let cold = query(&mut QueryView::new(0));
            let cold_twin = sparse(&mut QueryView::new(0));
            assert_eq!(cold.view_hits, 0, "budget 0 hit");
            assert_eq!(cold_twin.view_hits, 0, "budget 0 hit, sparse");
            assert_same_answer(cold_twin.output, &cold.output, "sparse, cold");
            // A repeat on the warm view re-evaluates nothing.
            let (again, again_twin) = (query(&mut warm), sparse(&mut twin));
            assert_eq!(again.delta_docs, 0, "a repeat");
            assert_eq!(again_twin.delta_docs, 0, "a repeat, sparse");
            assert_same_answer(again_twin.output, &again.output, "sparse, repeat");
            assert_same_view(&twin, &warm, "twins");
            let answers = [out, cold, again].map(|o| o.output.results);
            seen.extend(answers.map(|sets| (case.script.len(), sets)));
        }
        Some(seen)
    });
    // One case in ten also compares the persisted files.
    let bytes = surface("persisted bytes vs scratch rebuild", |case| {
        let store = case.store(case.script.len());
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        assert!(saved(&store).0 == saved(&rebuilt).0, "other bytes");
        Some(Vec::new())
    });
    let surfaces = [rebuilt, views, bytes];
    for (seed, case) in cases().enumerate() {
        check(&case, &surfaces[..2 + usize::from(seed % 10 == 0)]);
    }
}
