//! The query planner one level up from `compiled_oracle`: seeded random RA
//! trees over automata and formulas, through the unoptimized and optimized
//! pipelines, the compiled physical plan (`evaluate` and the pull-iterator
//! `stream`) and the corpus engine at 1 and 3 workers.

mod common;

use common::*;
use document_spanners::prelude::*;
use spanner_algebra::{optimize_ra, shared_variable_bound, tree_vars};
use std::cell::Cell;

fn cases(seeds: u64, offset: u64) -> impl Iterator<Item = Case> {
    (0..seeds).flat_map(move |seed| ra_cases(seed, offset, &SHORT_DOCS))
}

#[test]
fn optimized_plans_agree_with_oracle() {
    let pipeline = |optimize| {
        surface(format!("evaluate_ra, optimize={optimize}"), move |case| {
            case.each_doc(|doc| {
                evaluate_ra(&case.tree, &case.inst, doc, ra_options(optimize)).unwrap()
            })
        })
    };
    check_all(cases(100, 0), &[pipeline(false), pipeline(true)]);
}

/// The compile-once fast path must be exercised, not only the
/// document-dependent one.
#[test]
fn compiled_plans_agree_with_oracle() {
    let static_plans = Cell::new(0);
    let compiled = surface("compiled plan", |case| {
        let plan = case.plan(RaOptions::default());
        static_plans.set(static_plans.get() + usize::from(plan.is_static()));
        case.each_doc(|doc| plan.evaluate(doc).unwrap())
    });
    check_all(cases(60, 10_000), &[compiled]);
    assert!(static_plans.get() > 0, "no random plan compiled statically");
}

/// A three-worker request over five documents runs on the calling thread.
#[test]
fn corpus_engine_agrees_with_oracle() {
    let engine = surface("corpus engine, 3 threads", |case| {
        case.end([dense(case.engine().scan(&case.corpus(), 3).unwrap()).results])
    });
    check_all(cases(25, 20_000), &[engine]);
}

/// Every surface of the lowered plan — `evaluate`, `stream` (each mapping
/// once), the corpus engine at 1 and 3 workers — the optimizer on and off.
#[test]
fn physical_executor_matches_oracle_on_all_surfaces() {
    let executor = |optimize| {
        surface(format!("executor, optimize={optimize}"), move |case| {
            let plan = case.plan(ra_options(optimize));
            let (docs, engine) = (case.corpus(), CorpusEngine::from_plan(plan));
            let (plan, pass) = (engine.plan(), |t| dense(engine.scan(&docs, t).unwrap()));
            let evaluated = docs.iter().map(|d| plan.evaluate(d).unwrap()).collect();
            let listed = docs.iter().map(|d| streamed(plan.stream(d))).collect();
            case.end([evaluated, listed, pass(1).results, pass(3).results])
        })
    };
    check_all(cases(100, 40_000), &[executor(true), executor(false)]);
}

/// The rewrite output keeps the declared variable set and never worsens
/// the Theorem 5.2 parameter.
#[test]
fn optimized_trees_keep_schema_and_bound() {
    for Case { tree, inst, .. } in cases(100, 30_000) {
        let optimized = optimize_ra(&tree, &inst).unwrap();
        let vars = |t| tree_vars(t, &inst).unwrap();
        let bound = |t| shared_variable_bound(t, &inst).unwrap();
        assert_eq!(vars(&optimized), vars(&tree), "{tree} vs {optimized}");
        assert!(bound(&optimized) <= bound(&tree), "{tree} vs {optimized}");
    }
}
