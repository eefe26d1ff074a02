//! The scan-core fast path (static prefilters + lazy-DFA boolean pre-pass,
//! `spanner_vset::scan`) is an optimization: with
//! [`RaOptions::scan_fast_path`] on or off, `evaluate`, `stream` and the
//! corpus engine answer alike, and as the reference. Pinned on 100 seeded
//! random plans and on the two adversarial regimes of the pre-pass ladder:
//! documents that carry every required byte factor yet have no match (the
//! boolean tier must catch what the literal tier cannot), and automata
//! whose subset construction exceeds the DFA state budget (the NFA frontier
//! fallback must still answer exactly).

mod common;

use common::*;
use document_spanners::prelude::*;
use document_spanners::workloads::random_text;
use spanner_algebra::PhysOp;

fn text(len: usize, alphabet: &[u8], seed: u64) -> String {
    random_text(len, alphabet, seed).text().to_string()
}

#[test]
fn fast_path_is_invisible_on_100_random_plans() {
    let cases = (0..100).flat_map(|seed| {
        let mut docs = strings(["", "a", "ab", "bca", "abab", "bbbb", "cacb"]);
        docs.extend([text(24, b"ab", seed), text(31, b"abc", seed + 1)]);
        ra_cases(seed, 0, &docs)
    });
    check_all(cases, &[fast_path()]);
}

/// `.*{x:a+}@.*` requires an 'a' and an '@'; `@a` has both, in the wrong
/// order: it passes every static prefilter, and the boolean tier must
/// reject it.
#[test]
fn adversarial_factor_present_documents_agree() {
    let docs = [
        "@a", "@aaa", "aaa@", "a@", "@", "aa", "b@ab", "@b@b@a", "xxa@yy",
    ];
    let case = Case::ql("/.*{x:a+}@.*/", &docs);
    check(&case, &[fast_path()]);
    let stats = case.engine().scan(&case.corpus(), 3).unwrap().stats;
    // "@a" and "@aaa" are killed by the boolean pre-pass; "aa" (no '@') is
    // skipped without it.
    assert!(
        stats.docs_rejected >= 2 && stats.docs_skipped >= 1,
        "{stats:?}"
    );
}

/// `(a|b)* a (a|b)^17` needs ≥ 2^17 DFA states — past the cell budget, so
/// the pre-pass runs on the NFA frontier fallback.
#[test]
fn dfa_budget_exhaustion_fallback_agrees() {
    let program = format!("/(a|b)*{{x:a}}{}/", "(a|b)".repeat(17));
    let b17 = "b".repeat(17);
    let mut docs = vec!["a".repeat(18), format!("b{b17}"), format!("bba{b17}")];
    docs.extend(["ab".repeat(40), String::new()]);
    docs.extend((0..20).map(|seed| text(60, b"ab", seed + 500)));
    let case = Case::ql(&program, &docs);
    // The compiled scan really is past the budget (otherwise this test
    // exercises the wrong tier).
    let plan = case.plan(RaOptions::default());
    let PhysOp::CompiledScan { compiled, .. } = plan.physical().root() else {
        panic!("a single-leaf plan lowers to one compiled scan");
    };
    assert_eq!(compiled.boolean_dfa_states(), None, "within the budget");
    check(&case, &[fast_path()]);
}
