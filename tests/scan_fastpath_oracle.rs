//! The scan-core fast path (the static prefilters, `spanner_vset::scan`,
//! and a corpus pass's required-literal screen) is an optimization: with
//! [`RaOptions::scan_fast_path`] on or off, `evaluate`, `stream` and the
//! corpus engine answer alike, and as the reference. Pinned on 100 seeded random plans and on two adversarial
//! regimes: documents that carry every required byte factor, and even the
//! required literal, yet have no match (the executor must answer them
//! empty), and an automaton whose subset construction is exponential.

mod common;

use common::*;
use document_spanners::workloads::random_text;

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
/// order: it passes every static prefilter, and the corpus pass skips it
/// for lacking the required literal `a@`. `.*{x:a+}@b` requires `a@b`,
/// which `a@bc` carries without matching: it reaches the executor and is
/// answered empty.
#[test]
fn adversarial_factor_present_documents_agree() {
    let docs = [
        "@a", "@aaa", "aaa@", "a@", "@", "aa", "b@ab", "@b@b@a", "xxa@yy",
    ];
    let case = Case::ql("/.*{x:a+}@.*/", &docs);
    check(&case, &[fast_path()]);
    let stats = case.engine().scan(&case.corpus(), 3).unwrap().stats;
    // Only the three matches carry "a@".
    assert_eq!(stats.docs_skipped, 6, "{stats:?}");

    let case = Case::ql("/.*{x:a+}@b/", &["a@bc", "xa@b", "b@ba", "a@", "ba@bb@"]);
    check(&case, &[fast_path()]);
    let (out, trace) = case.engine().scan_traced(&case.corpus(), 1).unwrap();
    // "b@ba" lacks "a@b" and "a@" is too short; "a@bc" and "ba@bb@" are
    // evaluated and empty.
    assert_eq!(out.stats.docs_skipped, 2, "{:?}", out.stats);
    assert_eq!(trace.counter("corpus_docs_evaluated"), 3);
    assert_eq!(out.stats.matched_documents, 1);
}

/// `(a|b)* a (a|b)^17` needs ≥ 2^17 subset-construction states; the
/// executor's backward pass steps it in linear time all the same.
#[test]
fn exponential_subset_automata_agree() {
    let program = format!("/(a|b)*{{x:a}}{}/", "(a|b)".repeat(17));
    let b17 = "b".repeat(17);
    let mut docs = vec!["a".repeat(18), format!("b{b17}"), format!("bba{b17}")];
    docs.extend(["ab".repeat(40), String::new()]);
    docs.extend((0..20).map(|seed| text(60, b"ab", seed + 500)));
    let case = Case::ql(&program, &docs);
    check(&case, &[fast_path()]);
}
