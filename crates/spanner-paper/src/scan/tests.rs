//! `spanner_vset::scan` against the interpreter: the cases of that module's
//! unit tests whose oracle is [`interpret_nonempty`].

use crate::interpret::interpret_nonempty;
use spanner_core::Document;
use spanner_rgx::parse;
use spanner_vset::{compile, CompiledVsa, Vsa};

fn compiled(pattern: &str) -> (Vsa, CompiledVsa) {
    let vsa = compile(&parse(pattern).unwrap());
    let c = CompiledVsa::compile(&vsa);
    (vsa, c)
}

#[test]
fn prescan_agrees_with_the_interpreter() {
    let patterns = [
        ".*{x:a+}.*",
        "{x:[a-z]+}@{y:[a-z]+}",
        "a{x:b*}c",
        "{x:a}|{y:b}",
        ".*abc.*",
        "()",
    ];
    let docs = ["", "a", "abc", "xyz", "foo@bar", "aaabbb", "cab", "b"];
    for pattern in patterns {
        let (vsa, c) = compiled(pattern);
        for text in docs {
            let doc = Document::new(text);
            assert_eq!(
                c.matches_anywhere(&doc),
                interpret_nonempty(&vsa, &doc),
                "{pattern:?} on {text:?}"
            );
        }
    }
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
    // (a|b)* a (a|b)^{n-1} needs ≥ 2^{n-1} DFA states; n = 18 blows the
    // cell budget so the pre-pass must run on the NFA frontier — and
    // still answer exactly.
    let n = 18;
    let suffix = "(a|b)".repeat(n - 1);
    let (vsa, c) = compiled(&format!("(a|b)*a{suffix}"));
    assert_eq!(c.boolean_dfa_states(), None, "budget must be exceeded");
    for text in [
        "a".repeat(n),
        "b".repeat(n),
        format!("bba{}", "b".repeat(n - 1)),
        "ab".repeat(4),
    ] {
        let doc = Document::new(&text);
        assert_eq!(
            c.matches_anywhere(&doc),
            interpret_nonempty(&vsa, &doc),
            "{text:?}"
        );
    }
}
