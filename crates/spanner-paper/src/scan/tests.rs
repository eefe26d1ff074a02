//! `spanner_vset::scan` against the interpreter: the cases of that module's
//! unit tests whose oracle is [`interpret_nonempty`].

use crate::interpret::interpret_nonempty;
use spanner_core::Document;
use spanner_enum::enumerate_compiled;
use spanner_rgx::parse;
use spanner_vset::{compile, CompiledVsa, PreScan, Vsa};

fn compiled(pattern: &str) -> (Vsa, CompiledVsa) {
    let vsa = compile(&parse(pattern).unwrap());
    let c = CompiledVsa::compile(&vsa);
    (vsa, c)
}

/// The prefilters are sound, not exact: a skipped document has no mapping,
/// and an accepted one may have none. `(a|b)*a(a|b)^17` is the automaton
/// whose subset construction needs ≥ 2^17 states.
#[test]
fn prescan_agrees_with_the_interpreter() {
    let exponential = format!("(a|b)*a{}", "(a|b)".repeat(17));
    let patterns = [
        ".*{x:a+}.*",
        "{x:[a-z]+}@{y:[a-z]+}",
        "a{x:b*}c",
        "{x:a}|{y:b}",
        ".*abc.*",
        "()",
        &exponential,
    ];
    let mut docs = ["", "a", "abc", "xyz", "foo@bar", "aaabbb", "cab", "b"]
        .map(String::from)
        .to_vec();
    let b17 = "b".repeat(17);
    docs.extend([
        "a".repeat(18),
        format!("b{b17}"),
        format!("bba{b17}"),
        "ab".repeat(4),
    ]);
    let (mut skipped, mut accepted_empty) = (0, 0);
    for pattern in patterns {
        let (vsa, c) = compiled(pattern);
        for text in &docs {
            let doc = Document::new(text);
            let nonempty = interpret_nonempty(&vsa, &doc);
            match c.prescan(&doc) {
                PreScan::Skip => {
                    assert!(!nonempty, "{pattern:?} skipped {text:?}");
                    skipped += 1;
                }
                PreScan::Accept => accepted_empty += usize::from(!nonempty),
            }
        }
    }
    // Both verdicts occur on documents without a mapping.
    assert!(
        skipped > 20 && accepted_empty > 5,
        "{skipped} / {accepted_empty}"
    );
}

#[test]
fn required_literals_are_sound_on_random_matches() {
    // Every document the automaton accepts must contain every extracted
    // literal — spot-checked against the interpreter.
    let patterns = [".*{x:a+}@.*", "foo{x:.*}bar", ".*key={v:[0-9]}.*"];
    let docs = [
        "a@",
        "foobar",
        "fooxbar",
        "key=7",
        "xxkey=3yy",
        "bar",
        "@a",
        "",
        "foo",
    ];
    for pattern in patterns {
        let (vsa, c) = compiled(pattern);
        let literals = c.required_literals().to_vec();
        for text in docs {
            let doc = Document::new(text);
            if interpret_nonempty(&vsa, &doc) {
                for lit in &literals {
                    assert!(
                        doc.bytes().windows(lit.len()).any(|w| w == lit.as_slice()),
                        "{pattern:?} on {text:?} must contain {:?}",
                        String::from_utf8_lossy(lit)
                    );
                }
            }
        }
    }
}

#[test]
fn budget_exhaustion_falls_back_to_nfa_stepping() {
    // (a|b)* a (a|b)^{n-1} needs ≥ 2^{n-1} subset states, so no boolean
    // automaton is built for it: the pre-pass only filters, and the match
    // graph's backward pass, which steps the NFA, decides the document —
    // and still answers exactly.
    let n = 18;
    let suffix = "(a|b)".repeat(n - 1);
    let (vsa, c) = compiled(&format!("(a|b)*a{suffix}"));
    for text in [
        "a".repeat(n),
        "b".repeat(n),
        format!("bba{}", "b".repeat(n - 1)),
        "ab".repeat(4),
    ] {
        let doc = Document::new(&text);
        let nonempty = interpret_nonempty(&vsa, &doc);
        if c.prescan(&doc) == PreScan::Skip {
            assert!(!nonempty, "skipped {text:?}");
        }
        assert_eq!(
            enumerate_compiled(&c, &doc).unwrap().graph().is_nonempty(),
            nonempty,
            "{text:?}"
        );
    }
}
