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
