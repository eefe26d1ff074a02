//! Random-plan differential tests for the query planner.
//!
//! Seeded random RA trees over random sequential automata and regex
//! formulas are evaluated three ways on every document: through the
//! materialized oracle (`evaluate_ra_materialized`, node-by-node relational
//! algebra), through the unoptimized compilation pipeline
//! (`RaOptions::unoptimized()`), and through the optimized pipeline (the
//! default). All three must agree exactly — the same discipline as
//! `tests/compiled_oracle.rs`, one level up the stack.

use document_spanners::prelude::*;
use spanner_algebra::{optimize_ra, shared_variable_bound, tree_vars};
use spanner_paper::evaluate_ra_materialized;
use spanner_workloads::{random_ra_tree, RandomRaConfig};

/// Short documents over the generator's alphabets (`ab` for automata,
/// `abc` for regex formulas); the materialized oracle is exponential, so
/// inputs must stay small.
const DOCS: [&str; 5] = ["", "a", "ab", "bca", "abab"];

fn cfg(seed: u64) -> RandomRaConfig {
    RandomRaConfig {
        depth: 2 + (seed % 2) as usize,
        leaves: 2 + (seed % 3) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

/// 100 random plans: the optimized and unoptimized pipelines both agree
/// with the materialized oracle on every document.
#[test]
fn optimized_plans_agree_with_oracle() {
    for seed in 0..100u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed);
        let optimized_tree = optimize_ra(&tree, &inst).unwrap();
        for text in DOCS {
            let doc = Document::new(text);
            let oracle = evaluate_ra_materialized(&tree, &inst, &doc).unwrap();
            let unoptimized = evaluate_ra(&tree, &inst, &doc, RaOptions::unoptimized()).unwrap();
            assert_eq!(
                unoptimized, oracle,
                "seed {seed} on {text:?} (as written): {tree}"
            );
            let optimized = evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap();
            assert_eq!(
                optimized, oracle,
                "seed {seed} on {text:?} (optimized {optimized_tree} from {tree})"
            );
        }
    }
}

/// The compiled physical plan evaluates exactly like the oracle, for every
/// random tree (static or not).
#[test]
fn compiled_plans_agree_with_oracle() {
    let mut static_plans = 0usize;
    for seed in 0..60u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed.wrapping_add(10_000));
        let plan = CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap();
        if plan.is_static() {
            static_plans += 1;
        }
        for text in DOCS {
            let doc = Document::new(text);
            let oracle = evaluate_ra_materialized(&tree, &inst, &doc).unwrap();
            assert_eq!(
                plan.evaluate(&doc).unwrap(),
                oracle,
                "seed {seed} on {text:?}: {tree}"
            );
        }
    }
    // The generator must exercise the compile-once fast path, not only the
    // document-dependent one.
    assert!(static_plans > 0, "no random plan compiled statically");
}

/// The corpus engine returns, for each document, exactly what per-document
/// evaluation returns — regardless of the worker count.
#[test]
fn corpus_engine_agrees_with_oracle() {
    let docs: Vec<Document> = DOCS.iter().map(|t| Document::new(*t)).collect();
    for seed in 0..25u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed.wrapping_add(20_000));
        let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
        let out = engine.scan(&docs, 3).unwrap().into_dense();
        for (doc, actual) in docs.iter().zip(&out.results) {
            let oracle = evaluate_ra_materialized(&tree, &inst, doc).unwrap();
            assert_eq!(actual, &oracle, "seed {seed} on {:?}: {tree}", doc.text());
        }
    }
}

/// The 100-seed differential oracle for the physical operator executor:
/// every evaluation surface of the lowered plan — materializing `evaluate`,
/// the pull-iterator `stream`, and the corpus engine at 1 and 3 workers —
/// is bit-identical to `evaluate_ra_materialized`, with the logical
/// optimizer both on and off.
#[test]
fn physical_executor_matches_oracle_on_all_surfaces() {
    let docs: Vec<Document> = DOCS.iter().map(|t| Document::new(*t)).collect();
    for seed in 0..100u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed.wrapping_add(40_000));
        let oracles: Vec<MappingSet> = docs
            .iter()
            .map(|doc| evaluate_ra_materialized(&tree, &inst, doc).unwrap())
            .collect();
        for options in [RaOptions::default(), RaOptions::unoptimized()] {
            let plan = CompiledPlan::compile(&tree, &inst, options).unwrap();
            for (doc, oracle) in docs.iter().zip(&oracles) {
                assert_eq!(
                    &plan.evaluate(doc).unwrap(),
                    oracle,
                    "evaluate: seed {seed} (optimize={}) on {:?}: {tree}",
                    options.optimize,
                    doc.text()
                );
                let streamed: Vec<Mapping> =
                    plan.stream(doc).unwrap().collect::<Result<_, _>>().unwrap();
                let as_set: MappingSet = streamed.iter().cloned().collect();
                assert_eq!(
                    streamed.len(),
                    as_set.len(),
                    "stream produced duplicates: seed {seed} on {:?}: {tree}",
                    doc.text()
                );
                assert_eq!(
                    &as_set,
                    oracle,
                    "stream: seed {seed} (optimize={}) on {:?}: {tree}",
                    options.optimize,
                    doc.text()
                );
            }
            let engine = CorpusEngine::from_plan(plan);
            for threads in [1usize, 3] {
                let out = engine.scan(&docs, threads).unwrap().into_dense();
                for (i, oracle) in oracles.iter().enumerate() {
                    assert_eq!(
                        &out.results[i],
                        oracle,
                        "corpus({threads} threads): seed {seed} on {:?}: {tree}",
                        docs[i].text()
                    );
                }
            }
        }
    }
}

/// Sanity on the rewrite output itself: the optimized tree keeps the
/// declared variable set and never worsens the Theorem 5.2 parameter.
#[test]
fn optimized_trees_keep_schema_and_bound() {
    for seed in 0..100u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed.wrapping_add(30_000));
        let optimized = optimize_ra(&tree, &inst).unwrap();
        assert_eq!(
            tree_vars(&optimized, &inst).unwrap(),
            tree_vars(&tree, &inst).unwrap(),
            "seed {seed}: {tree} vs {optimized}"
        );
        assert!(
            shared_variable_bound(&optimized, &inst).unwrap()
                <= shared_variable_bound(&tree, &inst).unwrap(),
            "seed {seed}: {tree} vs {optimized}"
        );
    }
}
