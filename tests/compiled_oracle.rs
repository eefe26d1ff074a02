//! Differential tests for the compiled evaluation engine.
//!
//! Random sequential vset-automata (seeded, reproducible) are evaluated both
//! through the production path — [`CompiledVsa`] + the polynomial-delay
//! enumerator — and through the brute-force configuration-space interpreter
//! `spanner_paper::interpret`, which materializes every run and serves as the
//! semantic oracle. The two must agree exactly, on direct evaluation as well
//! as through the join and difference operators.

use spanner_core::{Document, MappingSet};
use spanner_enum::{evaluate, evaluate_compiled, Enumerator};
use spanner_paper::{difference_adhoc_eval, difference_product_eval, interpret, DifferenceOptions};
use spanner_vset::{join, CompiledVsa};
use spanner_workloads::{random_sequential_vsa, RandomVsaConfig};

/// Short documents over the generator's alphabet; the oracle is exponential,
/// so inputs must stay small.
const DOCS: [&str; 6] = ["", "a", "ab", "ba", "abab", "bbab"];

fn small_cfg(num_vars: usize) -> RandomVsaConfig {
    RandomVsaConfig {
        layers: 4,
        width: 2,
        num_vars,
        ..RandomVsaConfig::default()
    }
}

/// ~100 random automata: compiled enumeration agrees with the oracle, both
/// when compiling on the fly and when reusing a precompiled automaton.
#[test]
fn compiled_enumeration_agrees_with_interpreter() {
    for seed in 0..100u64 {
        let cfg = small_cfg(1 + (seed % 3) as usize);
        let vsa = random_sequential_vsa(cfg, seed);
        let compiled = CompiledVsa::compile(&vsa);
        for text in DOCS {
            let doc = Document::new(text);
            let oracle = interpret(&vsa, &doc);
            let on_the_fly = evaluate(&vsa, &doc).unwrap();
            let precompiled = evaluate_compiled(&compiled, &doc).unwrap();
            assert_eq!(on_the_fly, oracle, "seed {seed} on {text:?}: {vsa:?}");
            assert_eq!(precompiled, oracle, "seed {seed} on {text:?} (precompiled)");
        }
    }
}

/// The enumerator must yield every mapping exactly once.
#[test]
fn compiled_enumeration_is_duplicate_free() {
    for seed in 0..25u64 {
        let vsa = random_sequential_vsa(small_cfg(2), seed);
        let compiled = CompiledVsa::compile(&vsa);
        for text in DOCS {
            let doc = Document::new(text);
            let listed: Vec<_> = Enumerator::from_compiled(&compiled, &doc)
                .unwrap()
                .map(|m| m.unwrap())
                .collect();
            let set: MappingSet = listed.iter().cloned().collect();
            assert_eq!(listed.len(), set.len(), "seed {seed} on {text:?}");
        }
    }
}

/// Join of random automata: the compiled product evaluated through the
/// enumerator agrees with the materialized join of the oracle relations.
#[test]
fn compiled_join_agrees_with_oracle() {
    for seed in 0..25u64 {
        // Distinct variable prefixes on odd seeds (disjoint-domain joins),
        // shared on even seeds (synchronized joins).
        let cfg1 = small_cfg(1 + (seed % 2) as usize);
        let cfg2 = RandomVsaConfig {
            var_prefix: if seed % 2 == 0 { "v" } else { "w" },
            ..small_cfg(1)
        };
        let a1 = random_sequential_vsa(cfg1, seed);
        let a2 = random_sequential_vsa(cfg2, seed.wrapping_add(1000));
        let joined = join(&a1, &a2).unwrap();
        for text in DOCS {
            let doc = Document::new(text);
            let oracle = interpret(&a1, &doc).join(&interpret(&a2, &doc));
            let actual = evaluate(&joined, &doc).unwrap();
            assert_eq!(actual, oracle, "seed {seed} on {text:?}");
        }
    }
}

/// Difference of random automata: both the product and the ad-hoc
/// compilation agree with the oracle difference.
#[test]
fn compiled_difference_agrees_with_oracle() {
    let opts = DifferenceOptions::default();
    for seed in 0..25u64 {
        let a1 = random_sequential_vsa(small_cfg(1 + (seed % 2) as usize), seed);
        let a2 = random_sequential_vsa(small_cfg(1), seed.wrapping_add(500));
        for text in DOCS {
            let doc = Document::new(text);
            let oracle = interpret(&a1, &doc).difference(&interpret(&a2, &doc));
            let product = difference_product_eval(&a1, &a2, &doc, opts).unwrap();
            let adhoc = difference_adhoc_eval(&a1, &a2, &doc, opts).unwrap();
            assert_eq!(product, oracle, "seed {seed} on {text:?} (product)");
            assert_eq!(adhoc, oracle, "seed {seed} on {text:?} (ad-hoc)");
        }
    }
}
