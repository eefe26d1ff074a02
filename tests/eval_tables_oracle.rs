//! The per-automaton evaluation tables (`spanner_vset::tables`) outlive
//! documents, so what a document sees depends on which documents came
//! before it, on which thread, and on whether the byte budget dropped the
//! tables in between. None of that may show: on `compiled_oracle`'s random
//! automata and looping formulas every history lists what a cold automaton
//! lists, in its order.

mod common;

use common::*;
use document_spanners::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spanner_vset::{CompiledVsa, EvalTableStats};

/// `compiled_oracle`'s random automata, then the looping formulas, whose
/// stretches fill table cells mid-walk.
fn cases(seeds: std::ops::Range<u64>) -> impl Iterator<Item = Case> {
    let automata =
        seeds.map(|seed| vsa_case(RaTree::leaf(0), &[(1 + seed as usize % 3, "v", seed)]));
    automata.chain(stretch_cases())
}

/// The mappings in enumeration order.
fn listed(compiled: &CompiledVsa, doc: &Document) -> Vec<Mapping> {
    let listing = Enumerator::from_compiled(compiled, doc).unwrap();
    listing.map(Result::unwrap).collect()
}

/// `0..n` in an order drawn from the automaton and `salt`, so a shrunk case
/// keeps its order.
fn shuffled(n: usize, vsa: &Vsa, salt: u64) -> Vec<usize> {
    let seed = (vsa.state_count() * 97 + vsa.transition_count()) as u64 + salt;
    let (mut order, mut rng): (Vec<usize>, _) = ((0..n).collect(), StdRng::seed_from_u64(seed));
    (1..n)
        .rev()
        .for_each(|i| order.swap(i, rng.gen_range(0..=i)));
    order
}

/// `tables`' listings in the order `salt` draws, held to a cold automaton's.
fn like_cold(vsa: &Vsa, tables: &CompiledVsa, docs: &[Document], salt: u64) {
    for i in shuffled(docs.len(), vsa, salt) {
        let cold = listed(&CompiledVsa::compile(vsa), &docs[i]);
        assert_eq!(listed(tables, &docs[i]), cold, "on {:?}", docs[i].text());
    }
}

#[test]
fn warm_tables_enumerate_like_cold_ones_and_like_the_interpreter() {
    let warm = surface("warm tables, two shuffled passes", |case| {
        let (vsa, docs) = (leaf_vsa(case, &case.tree)?, case.corpus());
        let warm = CompiledVsa::compile(&vsa);
        // The second pass runs on tables the first one filled, and a third
        // finds everything it needs.
        like_cold(&vsa, &warm, &docs, 0);
        like_cold(&vsa, &warm, &docs, 1000);
        let filled = warm.eval_table_stats();
        let sets = case.each_doc(|doc| distinct(listed(&warm, doc)));
        assert_eq!(warm.eval_table_stats(), filled, "warm run grew");
        sets
    });
    check_all(cases(0..100), &[interpreter(), warm]);
}

/// All four threads start on cold tables at once, each in its own order,
/// so they grow and publish diverging copies concurrently.
#[test]
fn threads_sharing_one_automaton_agree() {
    let shared = surface("four threads on one automaton", |case| {
        let (vsa, docs) = (leaf_vsa(case, &case.tree)?, case.corpus());
        let shared = CompiledVsa::compile(&vsa);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for salt in 0..4 {
                let (vsa, shared, docs, barrier) = (&vsa, &shared, &docs, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    like_cold(vsa, shared, docs, salt);
                });
            }
        });
        case.each_doc(|doc| distinct(listed(&shared, doc)))
    });
    check_all(cases(0..25), &[shared]);
}

/// No tables fit 64 bytes: every document that fills a cell publishes
/// over-budget tables, which are dropped — the next one starts cold.
#[test]
fn a_tiny_budget_drops_and_regrows_the_tables_between_documents() {
    let tiny = surface("64-byte table budget", |case| {
        let (vsa, docs) = (leaf_vsa(case, &case.tree)?, case.corpus());
        let (roomy, tiny) = (CompiledVsa::compile(&vsa), CompiledVsa::compile(&vsa));
        let tiny = tiny.with_eval_table_budget(64);
        for i in shuffled(docs.len(), &vsa, 0) {
            assert_eq!(listed(&tiny, &docs[i]), listed(&roomy, &docs[i]));
            assert_eq!(tiny.eval_table_stats(), EvalTableStats::default());
        }
        let sets: Vec<_> = docs.iter().map(|d| distinct(listed(&tiny, d))).collect();
        let matched = sets.iter().any(|set| !set.is_empty());
        assert!(!matched || roomy.eval_table_stats().sets > 0);
        case.end([sets])
    });
    check_all(cases(0..50), &[tiny]);
}

#[test]
fn compiled_automata_are_shareable_and_clones_start_cold() {
    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<CompiledVsa>();

    let case = cases(1..2).next().unwrap();
    let compiled = CompiledVsa::compile(&leaf_vsa(&case, &case.tree).unwrap());
    let doc = Document::new("abab");
    let first = listed(&compiled, &doc);
    assert!(compiled.eval_table_stats().sets > 0);
    let clone = compiled.clone();
    assert_eq!(clone.eval_table_stats(), EvalTableStats::default());
    assert_eq!(listed(&clone, &doc), first);
}
