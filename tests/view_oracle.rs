//! Maintained query views under interleaved mutation. `incr_oracle` checks
//! a view once, after a whole script; here, after *every* step a set of
//! views — budgets `0`, tight and unbounded, some synchronised at every step
//! and some every third — answers the query, as do `Store::query` and the
//! unindexed `CorpusEngine::scan`, at 1 and 3 threads. The script includes
//! the steps a hash-keyed view is easy to get wrong: an update that writes
//! the same content (the generation moves, the hash does not), a repeated
//! delete, an append deleted before any view saw it, and a compaction
//! between two queries.
//!
//! Every dense entry point is a forward over a sparse one: a twin of each
//! view answers through `Store::query_view_matches` in lockstep, and holds
//! what the view holds. The second test holds `scan_delta` to
//! `evaluate_delta` at the view's edges, which a store cannot produce: a
//! corpus shorter than the snapshot and an evaluation that fails.

mod common;

use common::*;
use document_spanners::prelude::*;
use spanner_workloads::random_mutations;

/// The store corpus's shape with shorter random lines, and a script whose
/// random steps are followed, every ninth, by a same-content update, a
/// double delete or a short-lived append (compactions are the surface's).
fn cases() -> impl Iterator<Item = Case> {
    (0..40).flat_map(|seed| {
        let head = "|a|abab|aβb|prefix needle suffix|δδδ|";
        let docs = mixed(seed, head, (9, 12, 2, 17), "aaneedlebb");
        let mut case = ra_case(seed, 0, &docs);
        let script = random_mutations(docs.len(), 36, seed);
        for (step, mutation) in script.into_iter().enumerate() {
            case.script.push(vec![mutation]);
            let docs = case.replay(step + 1).unwrap();
            let pick = (step * 7 + seed as usize) % docs.len();
            let (id, last, text) = (pick as u32, docs.len() as u32, docs[pick].clone());
            let short_lived = Mutation::Append {
                text: "short-lived needle".into(),
            };
            case.script[step].extend(match step % 9 {
                2 => vec![Mutation::Update { id, text }],
                4 => vec![Mutation::Delete { id }, Mutation::Delete { id }],
                6 => vec![short_lived, Mutation::Delete { id: last }],
                _ => vec![],
            });
        }
        let cases = ra_cases(seed, 0, &docs).into_iter();
        cases.map(move |c| c.script(case.script.clone()))
    })
}

#[test]
fn interleaved_mutations_and_views_agree_with_the_cold_paths() {
    let views = surface("views, store and full scan after every step", |case| {
        let (mut store, engine) = (case.store(0), case.engine());
        let view = QueryView::new;
        let watch = |budget| [1, 3].map(|every| (view(budget), view(budget), every));
        let mut watched: Vec<_> = [0, 12, usize::MAX].into_iter().flat_map(watch).collect();
        let mut seen = Vec::new();
        for (step, batch) in case.script.iter().enumerate() {
            for m in batch {
                store.apply(m).unwrap();
            }
            if step % 9 == 8 {
                store.compact();
            }
            let (at, threads) = (step + 1, 1 + step % 2 * 2);
            let indexed = store.query(&engine, threads).unwrap();
            let sparse = store.query_matches(&engine, threads).unwrap();
            assert_eq!(sparse.candidates, indexed.candidates);
            assert_same_answer(sparse.output, &indexed.output, "sparse");
            let full = engine.scan(store.documents(), threads).unwrap();
            seen.extend([(at, indexed.output.results), (at, dense(full).results)]);
            for (view, twin, _) in watched.iter_mut().filter(|w| step % w.2 == 0) {
                let (budget, n) = (view.budget(), store.len());
                let context = format!("step {step}, budget {budget}");
                let out = store.query_view(&engine, view, threads).unwrap();
                assert_eq!(out.view_hits + out.delta_docs, n, "{context}");
                assert!(out.invalidated <= out.delta_docs, "{context}");
                assert!(view.retained_cost() <= budget, "{context}");
                if budget == 0 {
                    assert_eq!(out.view_hits, 0, "{context}: budget 0 hit");
                }
                let sparse = store.query_view_matches(&engine, twin, threads).unwrap();
                assert_eq!(served(&sparse), served(&out), "{context}");
                assert_same_answer(sparse.output, &out.output, &context);
                assert_same_view(twin, view, &context);
                seen.push((at, out.output.results));
                if budget < usize::MAX || n == 0 {
                    continue;
                }
                // Synchronised a moment ago: a same-content update changes
                // nothing the view can see, and neither does asking again.
                let text = store.documents()[step * 7 % n].text().to_string();
                store.update((step * 7 % n) as u32, &text).unwrap();
                let again = store.query_view(&engine, view, threads).unwrap();
                assert_eq!(
                    (again.delta_docs, again.generation),
                    (0, store.generation())
                );
                let sparse = store.query_view_matches(&engine, twin, threads).unwrap();
                assert_eq!(sparse.delta_docs, 0, "{context}");
                assert_same_answer(sparse.output, &again.output, &context);
                assert_same_view(twin, view, &context);
                seen.push((at, again.output.results));
            }
        }
        Some(seen)
    });
    check_all(cases(), &[views]);
}

/// `scan_delta` against `evaluate_delta`, twin views in lockstep, through
/// the cases the interleaving above cannot reach: a budget of 0, a budget
/// that refuses a relation, a corpus shorter than the snapshot (ids are
/// positions: the view starts over) and an evaluation error, which leaves
/// both views exactly as they were.
#[test]
fn sparse_and_dense_delta_agree_at_the_views_edges() {
    let engine = Case::ql("/.*{x:needle}.*/", &[""]).engine();
    // More variables than the enumerator supports: fails on first evaluation.
    let var = |i| format!("{{v{i:02}:a?}}");
    let vars: String = (0..=spanner_enum::MAX_VARS).map(var).collect();
    let failing = Case::ql(&format!("/{vars}/"), &[""]).engine();
    let line = |i: usize| match i % 4 {
        0 => Document::new(format!("needle {i} needle")),
        _ => Document::new(format!("hay {i}")),
    };
    // Two mappings a matching line; a budget of 5 retains two lines' worth
    // and refuses the rest.
    for budget in [0, 5, usize::MAX] {
        let (mut sparse_view, mut dense_view) = (QueryView::new(budget), QueryView::new(budget));
        // One query through both entry points: how it was served (`None`
        // for an error, the same one from both) and what the views hold
        // after it.
        let mut check = |engine: &CorpusEngine, docs: &[Document], what: &str| {
            let context = format!("budget {budget}, {what}");
            let h: Vec<u64> = docs.iter().map(|d| fnv1a64(d.bytes())).collect();
            let sparse = engine.scan_delta(docs, &h, None, &mut sparse_view, 1);
            let dense_out = engine.evaluate_delta(docs, &h, None, &mut dense_view, 1);
            assert_same_view(&sparse_view, &dense_view, &context);
            let held = (sparse_view.retained_cost(), sparse_view.snapshot_bytes());
            let served = match (sparse, dense_out) {
                (Ok(sparse), Ok(dense_out)) => {
                    let served = (
                        dense_out.delta_docs,
                        dense_out.view_hits,
                        dense_out.invalidated,
                    );
                    let twin = (sparse.delta_docs, sparse.view_hits, sparse.invalidated);
                    assert_eq!(twin, served, "{context}");
                    let full = engine.scan(docs, 1).unwrap().into_dense();
                    assert_eq!(dense_out.output.results, full.results, "{context}");
                    assert_same_answer(sparse.output, &dense_out.output, &context);
                    Some(served)
                }
                (Err(sparse), Err(dense_out)) => {
                    assert_eq!(sparse.to_string(), dense_out.to_string(), "{context}");
                    None
                }
                _ => panic!("{context}: one entry point failed, the other did not"),
            };
            (served, held)
        };
        let mut docs: Vec<Document> = (0..12).map(line).collect();
        let (warm, refused) = (budget > 0, usize::from(budget == 5));
        assert_eq!(check(&engine, &docs, "cold").0, Some((12, 0, 0)));
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
        // Misses: the changed line, the appended one, and the refused one.
        let misses = if warm { 2 + refused } else { 13 };
        let (grown, _) = check(&engine, &docs, "grown");
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
