//! `spanner_rgx::parser` against the regex reference semantics: the cases
//! of that module's unit tests whose oracle is [`reference_eval`].

use crate::eval::reference_eval;
use spanner_core::{Document, Span};
use spanner_rgx::{is_sequential, parse};

#[test]
fn end_to_end_extraction() {
    let alpha = parse(r".*{user:\l+}@{host:\l+(\.\l+)*}.*").unwrap();
    assert!(is_sequential(&alpha));
    let doc = Document::new("mail to bob@edu.ru now");
    let result = reference_eval(&alpha, &doc);
    // The maximal match binds user="bob" host="edu.ru".
    assert!(result.iter().any(|m| {
        doc.slice(m.get(&"user".into()).unwrap()) == "bob"
            && doc.slice(m.get(&"host".into()).unwrap()) == "edu.ru"
    }));
}

#[test]
fn display_parse_round_trip() {
    for src in [
        "abc",
        "a|b|c",
        "(ab|c)*d",
        "{x:a+}(b|{y:c?})",
        r"[a-z]+@[a-z]+\.[a-z]+",
        "a b",
        r"\{escaped\}",
    ] {
        let first = parse(src).unwrap();
        let printed = format!("{first}");
        let second = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parsing {printed:?} (from {src:?}) failed: {e}"));
        // Compare semantics on a small document rather than ASTs (the
        // printer may introduce harmless structural changes).
        let doc = Document::new("ab cab");
        assert_eq!(
            reference_eval(&first, &doc),
            reference_eval(&second, &doc),
            "round trip changed semantics for {src:?} -> {printed:?}"
        );
    }
}

#[test]
fn capture_span_positions() {
    let alpha = parse("a{x:b}c").unwrap();
    let doc = Document::new("abc");
    let result = reference_eval(&alpha, &doc);
    assert_eq!(result.len(), 1);
    assert_eq!(
        result.iter().next().unwrap().get(&"x".into()),
        Some(Span::new(2, 3))
    );
}
