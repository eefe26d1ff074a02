//! Differential tests for the per-automaton evaluation tables.
//!
//! The tables (`spanner_vset::tables`) outlive documents, so what a document
//! sees depends on which documents came before it, on which thread, and on
//! whether the byte budget dropped the tables in between. None of that may
//! show: on random sequential automata (the generators of
//! `compiled_oracle`), every history must produce the mappings of the
//! brute-force interpreter, in the order a cold automaton produces them.

use spanner_core::{Document, Mapping, MappingSet};
use spanner_enum::Enumerator;
use spanner_paper::interpret;
use spanner_vset::{CompiledVsa, EvalTableStats};
use spanner_workloads::{random_sequential_vsa, RandomVsaConfig};

const DOCS: [&str; 8] = ["", "a", "ab", "ba", "abab", "bbab", "aabba", "babab"];

fn cfg(seed: u64) -> RandomVsaConfig {
    RandomVsaConfig {
        layers: 4,
        width: 2,
        num_vars: 1 + (seed % 3) as usize,
        ..RandomVsaConfig::default()
    }
}

/// The mappings in enumeration order.
fn listed(compiled: &CompiledVsa, text: &str) -> Vec<Mapping> {
    Enumerator::from_compiled(compiled, &Document::new(text))
        .unwrap()
        .map(|m| m.unwrap())
        .collect()
}

/// `DOCS` in a seed-dependent order (Fisher–Yates over a xorshift stream).
fn shuffled(seed: u64) -> Vec<&'static str> {
    let mut docs = DOCS.to_vec();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..docs.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        docs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    docs
}

#[test]
fn warm_tables_enumerate_like_cold_ones_and_like_the_interpreter() {
    for seed in 0..100u64 {
        let vsa = random_sequential_vsa(cfg(seed), seed);
        let warm = CompiledVsa::compile(&vsa);
        // Two passes in different orders: the second runs on tables the
        // first one filled.
        for order in [shuffled(seed), shuffled(seed + 1000)] {
            for text in order {
                let cold = listed(&CompiledVsa::compile(&vsa), text);
                assert_eq!(listed(&warm, text), cold, "seed {seed} on {text:?}");
                let set: MappingSet = cold.iter().cloned().collect();
                assert_eq!(set.len(), cold.len(), "seed {seed} on {text:?}: duplicates");
                assert_eq!(
                    set,
                    interpret(&vsa, &Document::new(text)),
                    "seed {seed} on {text:?}"
                );
            }
        }
        // The second pass found everything it needed.
        let filled = warm.eval_table_stats();
        for text in DOCS {
            listed(&warm, text);
        }
        assert_eq!(
            warm.eval_table_stats(),
            filled,
            "seed {seed}: warm run grew"
        );
    }
}

#[test]
fn threads_sharing_one_automaton_agree() {
    for seed in 0..25u64 {
        let vsa = random_sequential_vsa(cfg(seed), seed);
        let shared = std::sync::Arc::new(CompiledVsa::compile(&vsa));
        let expected: Vec<Vec<Mapping>> = DOCS
            .iter()
            .map(|text| listed(&CompiledVsa::compile(&vsa), text))
            .collect();
        // All four start on cold tables at once, each in its own order, so
        // they grow and publish diverging copies concurrently.
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (shared, expected, barrier) = (&shared, &expected, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for text in shuffled(seed * 4 + t) {
                        let i = DOCS.iter().position(|d| *d == text).unwrap();
                        assert_eq!(listed(shared, text), expected[i], "seed {seed} on {text:?}");
                    }
                });
            }
        });
    }
}

#[test]
fn a_tiny_budget_drops_and_regrows_the_tables_between_documents() {
    for seed in 0..50u64 {
        let vsa = random_sequential_vsa(cfg(seed), seed);
        let roomy = CompiledVsa::compile(&vsa);
        // No tables fit 64 bytes: every document that fills a cell publishes
        // over-budget tables, which are dropped — the next one starts cold.
        let tiny = CompiledVsa::compile(&vsa).with_eval_table_budget(64);
        for text in shuffled(seed) {
            assert_eq!(
                listed(&tiny, text),
                listed(&roomy, text),
                "seed {seed} on {text:?}"
            );
            assert_eq!(tiny.eval_table_stats(), EvalTableStats::default());
        }
        assert!(roomy.eval_table_stats().sets > 0);
    }
}

#[test]
fn compiled_automata_are_shareable_and_clones_start_cold() {
    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<CompiledVsa>();

    let vsa = random_sequential_vsa(cfg(1), 1);
    let compiled = CompiledVsa::compile(&vsa);
    let first = listed(&compiled, "abab");
    assert!(compiled.eval_table_stats().sets > 0);
    let clone = compiled.clone();
    assert_eq!(clone.eval_table_stats(), EvalTableStats::default());
    assert_eq!(listed(&clone, "abab"), first);
}
