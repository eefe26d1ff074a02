//! `spanner_vset::thompson` against the interpreter, the regex reference
//! semantics and the synchronization classifier: the cases of that module's
//! unit tests whose oracle lives in this crate.

use crate::analysis::is_synchronized;
use crate::eval::reference_eval;
use crate::interpret::interpret;
use spanner_core::{Document, VarSet};
use spanner_rgx::{classify, parse, Rgx};
use spanner_vset::compile;

/// Compiled automaton and reference evaluation must agree.
fn assert_agrees(pattern: &str, docs: &[&str]) {
    let alpha = parse(pattern).unwrap();
    let a = compile(&alpha);
    for text in docs {
        let doc = Document::new(*text);
        assert_eq!(
            interpret(&a, &doc),
            reference_eval(&alpha, &doc),
            "mismatch for {pattern:?} on {text:?}"
        );
    }
}

#[test]
fn simple_patterns() {
    assert_agrees("a", &["a", "b", ""]);
    assert_agrees("ab|ba", &["ab", "ba", "aa"]);
    assert_agrees("a*b+", &["b", "aab", "aaa", ""]);
    assert_agrees("()", &["", "a"]);
    assert_agrees("[]", &["", "a"]);
}

#[test]
fn capture_patterns() {
    assert_agrees("{x:a*}b", &["b", "ab", "aab", "a"]);
    assert_agrees(".*{x:a+}.*", &["a", "baab", ""]);
    assert_agrees("({x:a})?{y:b}", &["ab", "b", "a"]);
    assert_agrees("{x:{y:a}b}c", &["abc", "ab"]);
}

#[test]
fn schemaless_union_patterns() {
    assert_agrees("{x:a}|{y:b}", &["a", "b", "c"]);
    assert_agrees("({first:\\l+} )?{last:\\l+}", &["bob smith", "smith"]);
}

#[test]
fn empty_formula_compiles_to_empty_language() {
    let a = compile(&Rgx::Empty);
    assert!(interpret(&a, &Document::new("")).is_empty());
    assert!(interpret(&a, &Document::new("a")).is_empty());
}

#[test]
fn synchronization_preservation() {
    // Example 4.5: (x{Σ*} ∨ ε)·y{Σ*} is synchronized for y, not x;
    // the compiled automaton behaves the same (Lemma 4.6).
    let alpha = parse("({x:.*}|()){y:.*}").unwrap();
    let a = compile(&alpha);
    assert!(is_synchronized(&a, &VarSet::from_iter(["y"])));
    assert!(!is_synchronized(&a, &VarSet::from_iter(["x"])));

    // A formula synchronized for all its variables compiles to an
    // automaton synchronized for all of them.
    let alpha = parse("{x:a*}(b|c)*{y:\\d+}").unwrap();
    assert!(classify::is_synchronized_for(&alpha, &alpha.vars()));
    let a = compile(&alpha);
    assert!(is_synchronized(&a, a.vars()));
}
