//! Differential tests for the scan-core fast path.
//!
//! The fast path (static prefilters + lazy-DFA boolean pre-pass, see
//! `spanner_vset::scan`) is an *optimization*: with
//! [`RaOptions::scan_fast_path`] on or off, every evaluation surface must
//! produce bit-identical results. This suite pins that down with 100
//! seeded random plans across single-document evaluation, streaming, and
//! the corpus engine — plus the two adversarial regimes the pre-pass
//! ladder has to get right: documents that carry every required byte
//! factor yet have no match (the boolean tier must catch what the literal
//! tier cannot), and automata whose subset construction exceeds the DFA
//! state budget (the NFA frontier fallback must still answer exactly).

use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_algebra::PhysOp;
use spanner_workloads::{random_ra_tree, RandomRaConfig};

fn options(fast_path: bool) -> RaOptions {
    RaOptions {
        scan_fast_path: fast_path,
        ..RaOptions::default()
    }
}

/// Streams every mapping into a vector (order included — the fast path
/// may only short-circuit provably empty results, never reorder).
fn stream_all(plan: &CompiledPlan, doc: &Document) -> Vec<Mapping> {
    plan.stream(doc).unwrap().map(|m| m.unwrap()).collect()
}

fn cfg(seed: u64) -> RandomRaConfig {
    RandomRaConfig {
        depth: 2 + (seed % 2) as usize,
        leaves: 2 + (seed % 3) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

/// 100 random plans, three surfaces each: evaluation with the fast path on
/// is bit-identical to evaluation with it off.
#[test]
fn fast_path_is_invisible_on_100_random_plans() {
    for seed in 0..100u64 {
        let (tree, inst) = random_ra_tree(cfg(seed), seed);
        let on = CompiledPlan::compile(&tree, &inst, options(true)).unwrap();
        let off = CompiledPlan::compile(&tree, &inst, options(false)).unwrap();

        let mut docs: Vec<Document> = ["", "a", "ab", "bca", "abab", "bbbb", "cacb"]
            .iter()
            .map(|t| Document::new(*t))
            .collect();
        docs.push(workloads::random_text(24, b"ab", seed));
        docs.push(workloads::random_text(31, b"abc", seed.wrapping_add(1)));

        for doc in &docs {
            assert_eq!(
                on.evaluate(doc).unwrap(),
                off.evaluate(doc).unwrap(),
                "seed {seed} evaluate on {:?}: {tree}",
                doc.text()
            );
            assert_eq!(
                stream_all(&on, doc),
                stream_all(&off, doc),
                "seed {seed} stream on {:?}: {tree}",
                doc.text()
            );
        }

        // The corpus surface, sharded: same relations, and the fast-path
        // counters must stay zero when the fast path is disabled.
        let engine_on = CorpusEngine::from_plan(on);
        let engine_off = CorpusEngine::from_plan(off);
        let out_on = engine_on.scan(&docs, 2).unwrap().into_dense();
        let out_off = engine_off.scan(&docs, 2).unwrap().into_dense();
        assert_eq!(
            out_on.results, out_off.results,
            "seed {seed} corpus: {tree}"
        );
        assert_eq!(out_off.stats.docs_skipped, 0, "seed {seed}");
        assert_eq!(out_off.stats.docs_rejected, 0, "seed {seed}");
    }
}

/// Documents that pass every static prefilter (all required factors
/// present, length and prefix fine) but have no match: the boolean tier
/// must reject them, and the answer must match the slow path exactly.
#[test]
fn adversarial_factor_present_documents_agree() {
    // `.*{x:a+}@.*` requires an 'a' and an '@'; `@a` has both, in the
    // wrong order.
    let inst = Instantiation::new().with(0, parse(".*{x:a+}@.*").unwrap());
    let tree = RaTree::leaf(0);
    let on = CompiledPlan::compile(&tree, &inst, options(true)).unwrap();
    let off = CompiledPlan::compile(&tree, &inst, options(false)).unwrap();
    let docs: Vec<Document> = [
        "@a", "@aaa", "aaa@", "a@", "@", "aa", "b@ab", "@b@b@a", "xxa@yy",
    ]
    .iter()
    .map(|t| Document::new(*t))
    .collect();
    for doc in &docs {
        assert_eq!(
            on.evaluate(doc).unwrap(),
            off.evaluate(doc).unwrap(),
            "on {:?}",
            doc.text()
        );
        assert_eq!(
            stream_all(&on, doc),
            stream_all(&off, doc),
            "{:?}",
            doc.text()
        );
    }
    let out = CorpusEngine::from_plan(on)
        .scan(&docs, 3)
        .unwrap()
        .into_dense();
    // "@a" and "@aaa" survive the factor filter and are killed by the
    // boolean pre-pass; "aa" (no '@') is skipped without it.
    assert!(out.stats.docs_rejected >= 2, "{:?}", out.stats);
    assert!(out.stats.docs_skipped >= 1, "{:?}", out.stats);
}

/// `(a|b)* a (a|b)^17` needs ≥ 2^17 DFA states — past the cell budget, so
/// the pre-pass runs on the NFA frontier fallback. Same contract: the
/// fast path stays invisible.
#[test]
fn dfa_budget_exhaustion_fallback_agrees() {
    let pattern = format!("(a|b)*{{x:a}}{}", "(a|b)".repeat(17));
    let inst = Instantiation::new().with(0, parse(&pattern).unwrap());
    let tree = RaTree::leaf(0);
    let on = CompiledPlan::compile(&tree, &inst, options(true)).unwrap();
    let off = CompiledPlan::compile(&tree, &inst, options(false)).unwrap();

    // The compiled scan really is past the budget (otherwise this test
    // exercises the wrong tier).
    let PhysOp::CompiledScan { compiled, .. } = on.physical().root() else {
        panic!("a single-leaf plan lowers to one compiled scan");
    };
    assert_eq!(
        compiled.boolean_dfa_states(),
        None,
        "subset construction must exceed the budget"
    );

    let mut docs: Vec<Document> = vec![
        Document::new("a".repeat(18)),
        Document::new("b".repeat(18)),
        Document::new(format!("bba{}", "b".repeat(17))),
        Document::new("ab".repeat(40)),
        Document::new(""),
    ];
    for seed in 0..20u64 {
        docs.push(workloads::random_text(60, b"ab", seed.wrapping_add(500)));
    }
    for doc in &docs {
        assert_eq!(
            on.evaluate(doc).unwrap(),
            off.evaluate(doc).unwrap(),
            "on {:?}",
            doc.text()
        );
        assert_eq!(
            stream_all(&on, doc),
            stream_all(&off, doc),
            "{:?}",
            doc.text()
        );
    }
}
