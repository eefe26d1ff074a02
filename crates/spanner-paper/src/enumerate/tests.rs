//! `spanner_enum::enumerate` against the regex reference semantics: the
//! cases of that module's unit tests whose oracle is [`reference_eval`].

use crate::eval::reference_eval;
use spanner_core::Document;
use spanner_enum::{evaluate, evaluate_rgx};
use spanner_rgx::parse;
use spanner_vset::compile;

/// The compiled + enumerated pipeline must agree with the reference
/// evaluator.
fn assert_agrees(pattern: &str, texts: &[&str]) {
    let alpha = parse(pattern).unwrap();
    let vsa = compile(&alpha);
    for text in texts {
        let doc = Document::new(*text);
        let expected = reference_eval(&alpha, &doc);
        let actual = evaluate(&vsa, &doc).unwrap();
        assert_eq!(actual, expected, "mismatch for {pattern:?} on {text:?}");
    }
}

#[test]
fn simple_patterns() {
    assert_agrees("a*", &["", "a", "aa", "b"]);
    assert_agrees("{x:a*}b", &["b", "ab", "aab", ""]);
    assert_agrees(".*{x:a+}.*", &["baab", "a", "", "bbb"]);
    assert_agrees("({x:a})?{y:b}", &["ab", "b", "a"]);
    assert_agrees("{x:a}|{y:a}", &["a"]);
}

#[test]
fn schemaless_extraction() {
    assert_agrees(
        r"({first:\l+} )?{last:\l+}( {phone:\d+})?",
        &["bob smith 42", "smith", "ann lee", "x 1"],
    );
}

#[test]
fn empty_document_and_empty_language() {
    assert_agrees("a", &[""]);
    assert_agrees("()", &["", "a"]);
    assert_agrees("[]", &["", "a"]);
    assert_agrees("{x:()}", &["", "a"]);
}

#[test]
fn evaluate_rgx_matches_reference() {
    let alpha = parse(r".*{w:\w+}.*").unwrap();
    let doc = Document::new("ab cd");
    assert_eq!(
        evaluate_rgx(&alpha, &doc).unwrap(),
        reference_eval(&alpha, &doc)
    );
    // Non-sequential formulas are rejected.
    let bad = parse("({x:a})*").unwrap();
    assert!(evaluate_rgx(&bad, &doc).is_err());
}
