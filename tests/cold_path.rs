//! What a fresh automaton builds on first use — the evaluation tables —
//! held to their budget and to the reference.
//!
//! * Extractors shaped `.*a[ab]{n}.*` over crafted a/b documents of up to
//!   4 KB (ROADMAP 4(v)). The subset of `.*a[ab]{n}` remembers which of the
//!   last `n + 1` bytes were `a`, so on random text nearly every position
//!   interns a fresh forward set. Answers equal `interpret`, and the
//!   published tables stay inside `EVAL_TABLE_BUDGET` after every
//!   document: at `n = 16` they pass it, are dropped and regrow. The
//!   pre-pass never skips a document that has a mapping.

use document_spanners::prelude::*;
use spanner_enum::evaluate_compiled;
use spanner_paper::interpret;
use spanner_vset::{CompiledVsa, PreScan, EVAL_TABLE_BUDGET};

/// `n` copies of `[ab]`.
fn ab(n: usize) -> String {
    "[ab]".repeat(n)
}

/// A deterministic a/b text of `len` bytes.
fn random_ab(len: usize, seed: u64) -> String {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state & 1 == 0 {
                'a'
            } else {
                'b'
            }
        })
        .collect()
}

/// `a` followed by every run length of `b` from 0 to `n + 2`, `len` bytes
/// in all.
fn runs(n: usize, len: usize) -> String {
    let mut text = String::new();
    for k in (0..).map(|k| k % (n + 3)) {
        if text.len() + k + 1 > len {
            break;
        }
        text.push('a');
        text.push_str(&"b".repeat(k));
    }
    text
}

/// The two shapes and their documents. `.*a[ab]{n}{x:b}` ends at the
/// document's end, so it has at most one mapping, but its frontier is the
/// subset of `.*a[ab]{n}`: on random a/b text nearly every position is a
/// fresh interned set and a fresh `step` cell. `.*{x:a[ab]{n}}.*` has a
/// mapping per `a` with `n` bytes after it, which the reference pays for
/// per position after it, so its documents stay shorter.
fn cases(n: usize) -> [(String, Vec<String>); 2] {
    // The byte `n + 1` before the end decides the tail match.
    let ending = |text: String, a: bool| {
        let tail = format!("{}{}b", if a { 'a' } else { 'b' }, random_ab(n, 3));
        text[..text.len() - tail.len()].to_string() + &tail
    };
    let mut tail: Vec<String> = (0..6)
        .map(|k| ending(random_ab(4096, n as u64 + k), k != 1))
        .collect();
    tail.extend([
        ending(runs(n, 4096), true),
        ending("a".repeat(4096), true),
        ending("b".repeat(1024), true),
        format!("a{}b", "b".repeat(n)),
        "a".repeat(n + 2),
    ]);
    let capture = vec![
        random_ab(512, 7 + n as u64),
        runs(n, 512),
        "a".repeat(256),
        "b".repeat(512),
        format!("a{}", "b".repeat(n)),
        format!("{}a", "b".repeat(300)),
    ];
    [
        (format!(".*a{}{{x:b}}", ab(n)), tail),
        (format!(".*{{x:a{}}}.*", ab(n)), capture),
    ]
}

#[test]
fn adversarial_tables_stay_in_budget_and_agree_with_the_reference() {
    for n in [4, 8, 16] {
        for (pattern, docs) in cases(n) {
            let vsa = compile(&parse(&pattern).unwrap());
            let compiled = CompiledVsa::compile(&vsa);
            let (mut most, mut dropped) = (0, false);
            for text in docs {
                assert!(text.len() <= 4096);
                let doc = Document::new(&text);
                let expected = interpret(&vsa, &doc);
                let skipped = compiled.prescan(&doc) == PreScan::Skip;
                assert!(!skipped || expected.is_empty(), "{pattern} on {text:?}");
                assert_eq!(
                    evaluate_compiled(&compiled, &doc).unwrap(),
                    expected,
                    "{pattern} on {text:?}"
                );
                let stats = compiled.eval_table_stats();
                assert!(
                    stats.bytes <= EVAL_TABLE_BUDGET,
                    "{pattern}: {stats:?} past the budget"
                );
                dropped |= stats.sets < most;
                most = most.max(stats.sets);
            }
            // The tail shape's sets explode at n = 16: the budget dropped
            // the tables, and the documents after that regrew them.
            let exploded = n == 16 && pattern.ends_with("{x:b}");
            assert_eq!(dropped, exploded, "{pattern}: {most} sets at most");
            if exploded {
                assert!(most > 10_000, "{pattern}: {most} sets at most");
            }
        }
    }
}
