//! Deferred join products (DESIGN §3): a plan whose static join runs as a
//! hash join until it has been asked for `BUILD_AT_DOCS` documents answers
//! as the reference below the count, on the request that crosses it, after
//! it, and built before its first document — on the harness's random
//! static-join programs, at one and two corpus threads.

mod common;

use common::*;
use document_spanners::prelude::*;

#[test]
fn deferred_products_answer_alike_at_every_stage() {
    let cases = (0..120).flat_map(|seed| ra_cases(seed, 50_000, &SHORT_DOCS));
    // A plan defers a product when it compiles to another lowering than
    // the one with every product built; one refused at compile time
    // defers nothing.
    let defers = |case: &Case| {
        let options = RaOptions::default();
        let deferred = CompiledPlan::compile(&case.tree, &case.inst, options);
        let prepared = CompiledPlan::prepare(&case.tree, &case.inst, options);
        let outline = |plan: CompiledPlan| plan.physical().describe();
        deferred.is_ok() && deferred.map(outline).ok() != prepared.map(outline).ok()
    };
    let deferring: Vec<Case> = cases.filter(defers).collect();
    let count = deferring.len();
    assert!(count >= 20, "only {count} random plans defer a product");
    check_all(deferring, &[deferred(1, false), deferred(2, true)]);
}

/// A prepared plan screens as the compiled plan does (DESIGN §3): on the
/// harness's random static-join programs, `prepare` requires the literals
/// `compile` requires and proves the same documents empty, whichever of
/// the two compiled the program.
#[test]
fn prepared_plans_screen_as_compiled_ones() {
    use spanner_algebra::{plan::Screened, NoTrace};
    let options = RaOptions::default();
    let mut joins = 0;
    for case in (0..120).flat_map(|seed| ra_cases(seed, 50_000, &SHORT_DOCS)) {
        let compiled = CompiledPlan::compile(&case.tree, &case.inst, options);
        let prepared = CompiledPlan::prepare(&case.tree, &case.inst, options);
        let (Ok(compiled), Ok(prepared)) = (compiled, prepared) else {
            continue;
        };
        let outline = |plan: &CompiledPlan| plan.physical().describe();
        if !compiled.is_static() || outline(&compiled) == outline(&prepared) {
            continue;
        }
        joins += 1;
        let tree = &case.tree;
        assert_eq!(
            compiled.required_literals(),
            prepared.required_literals(),
            "{tree}"
        );
        let empty = |plan: &CompiledPlan, doc: &Document| {
            let screened = plan.select(1).evaluate_screened::<NoTrace>(doc);
            matches!(screened, Screened::Empty)
        };
        for doc in case.corpus() {
            let text = doc.text();
            assert_eq!(
                empty(&compiled, &doc),
                empty(&prepared, &doc),
                "{tree} on {text:?}"
            );
        }
    }
    assert!(joins >= 20, "only {joins} random static joins");
}
