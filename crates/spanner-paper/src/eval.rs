//! Reference (oracle) evaluation of regex formulas.
//!
//! Implements the schemaless semantics `[α](d)` of Section 2.2 by structural
//! recursion, exactly as written in the paper. The result of a sub-formula is
//! a set of pairs `(span, mapping)`; the result of the whole formula on `d`
//! is `VαW(d) = { µ | ([1, |d|+1⟩, µ) ∈ [α](d) }`.
//!
//! This evaluator is exponential in the worst case (it materializes every
//! intermediate pair) and exists to be a trustworthy oracle for the compiled
//! evaluation pipelines. Use `spanner-enum` / `spanner-algebra` for real
//! workloads.

use spanner_core::{Document, Mapping, MappingSet, Span};
use spanner_rgx::Rgx;
use std::collections::BTreeSet;

/// A set of `(span, mapping)` pairs — the denotation `[α](d)` of a
/// sub-formula.
type SpanMappingSet = BTreeSet<(Span, Mapping)>;

/// Computes `[α](d)`: all pairs `(s, µ)` where `s` is a span of `d` matched
/// by `α` and `µ` is the mapping produced by the captures along that match.
fn reference_eval_spans(alpha: &Rgx, doc: &Document) -> SpanMappingSet {
    let n = doc.len() as u32;
    match alpha {
        Rgx::Empty => BTreeSet::new(),
        Rgx::Epsilon => (1..=n + 1)
            .map(|i| (Span::empty(i), Mapping::new()))
            .collect(),
        Rgx::Class(c) => (1..=n)
            .filter(|&i| c.contains(doc.symbol_at(i).expect("position in range")))
            .map(|i| (Span::new(i, i + 1), Mapping::new()))
            .collect(),
        Rgx::Capture(x, inner) => reference_eval_spans(inner, doc)
            .into_iter()
            .filter(|(_, mu)| !mu.contains(x))
            .map(|(s, mut mu)| {
                mu.insert(x.clone(), s);
                (s, mu)
            })
            .collect(),
        Rgx::Union(parts) => {
            let mut out = BTreeSet::new();
            for p in parts {
                out.extend(reference_eval_spans(p, doc));
            }
            out
        }
        Rgx::Concat(parts) => {
            let mut acc: SpanMappingSet = (1..=n + 1)
                .map(|i| (Span::empty(i), Mapping::new()))
                .collect();
            for p in parts {
                let rhs = reference_eval_spans(p, doc);
                acc = concat_sets(&acc, &rhs);
                if acc.is_empty() {
                    break;
                }
            }
            acc
        }
        Rgx::Star(inner) => {
            let base = reference_eval_spans(inner, doc);
            // [α*](d) = ⋃_{i≥0} [αⁱ](d); compute the fixpoint.
            let mut result: SpanMappingSet = (1..=n + 1)
                .map(|i| (Span::empty(i), Mapping::new()))
                .collect();
            loop {
                let extended = concat_sets(&result, &base);
                let before = result.len();
                result.extend(extended);
                if result.len() == before {
                    break;
                }
            }
            result
        }
    }
}

/// The concatenation rule of the semantics: pairs `([i, i'⟩, µ₁)` from the
/// left and `([i', j⟩, µ₂)` from the right with **disjoint** mapping domains
/// combine into `([i, j⟩, µ₁ ∪ µ₂)`.
fn concat_sets(lhs: &SpanMappingSet, rhs: &SpanMappingSet) -> SpanMappingSet {
    let mut out = BTreeSet::new();
    for (s1, m1) in lhs {
        for (s2, m2) in rhs {
            if s1.end != s2.start {
                continue;
            }
            if !m1.domain().is_disjoint(&m2.domain()) {
                continue;
            }
            let merged = m1
                .union(m2)
                .expect("disjoint-domain mappings are always compatible");
            out.insert((Span::new(s1.start, s2.end), merged));
        }
    }
    out
}

/// Computes `VαW(d)`: the mappings of full-document matches.
pub fn reference_eval(alpha: &Rgx, doc: &Document) -> MappingSet {
    let full = doc.full_span();
    reference_eval_spans(alpha, doc)
        .into_iter()
        .filter(|(s, _)| *s == full)
        .map(|(_, mu)| mu)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::{ByteClass, VarSet};

    fn doc(s: &str) -> Document {
        Document::new(s)
    }

    fn sym(b: u8) -> Rgx {
        Rgx::symbol(b)
    }

    #[test]
    fn epsilon_and_symbols() {
        let d = doc("ab");
        let eps = reference_eval_spans(&Rgx::Epsilon, &d);
        assert_eq!(eps.len(), 3); // positions 1, 2, 3

        let a = reference_eval_spans(&sym(b'a'), &d);
        assert_eq!(a.len(), 1);
        assert!(a.contains(&(Span::new(1, 2), Mapping::new())));

        assert!(reference_eval_spans(&Rgx::Empty, &d).is_empty());
    }

    #[test]
    fn full_document_semantics() {
        // VaW("a") = { {} }, VaW("b") = ∅.
        assert_eq!(reference_eval(&sym(b'a'), &doc("a")).len(), 1);
        assert!(reference_eval(&sym(b'a'), &doc("b")).is_empty());
        // ε only matches the empty document in full.
        assert_eq!(reference_eval(&Rgx::Epsilon, &doc("")).len(), 1);
        assert!(reference_eval(&Rgx::Epsilon, &doc("a")).is_empty());
    }

    #[test]
    fn capture_binds_the_matched_span() {
        // Σ* x{a*} Σ* on "baab"
        let alpha = Rgx::concat([
            Rgx::any_string(),
            Rgx::capture("x", Rgx::star(sym(b'a'))),
            Rgx::any_string(),
        ]);
        let d = doc("baab");
        let result = reference_eval(&alpha, &d);
        // x can be any span consisting only of a's (including all empty spans).
        let expected_spans: Vec<Span> =
            result.iter().map(|m| m.get(&"x".into()).unwrap()).collect();
        assert!(expected_spans.contains(&Span::new(2, 4))); // "aa"
        assert!(expected_spans.contains(&Span::new(2, 3))); // "a"
        assert!(expected_spans.contains(&Span::empty(1)));
        // every bound span must cover only 'a's
        for s in expected_spans {
            assert!(d.slice(s).bytes().all(|b| b == b'a'));
        }
        // 5 empty spans + "a"@2, "a"@3, "aa" = 8 mappings
        assert_eq!(result.len(), 8);
    }

    #[test]
    fn union_produces_schemaless_results() {
        // (x{a}b) ∨ (a y{b}) on "ab": two mappings with different domains.
        let alpha = Rgx::union([
            Rgx::concat([Rgx::capture("x", sym(b'a')), sym(b'b')]),
            Rgx::concat([sym(b'a'), Rgx::capture("y", sym(b'b'))]),
        ]);
        let result = reference_eval(&alpha, &doc("ab"));
        assert_eq!(result.len(), 2);
        let domains: Vec<VarSet> = result.iter().map(|m| m.domain()).collect();
        assert!(domains.contains(&VarSet::from_iter(["x"])));
        assert!(domains.contains(&VarSet::from_iter(["y"])));
    }

    #[test]
    fn optional_capture() {
        // a (x{b})? on "a" and on "ab"
        let alpha = Rgx::concat([sym(b'a'), Rgx::opt(Rgx::capture("x", sym(b'b')))]);
        let r1 = reference_eval(&alpha, &doc("a"));
        assert_eq!(r1.len(), 1);
        assert!(r1.iter().next().unwrap().is_empty());
        let r2 = reference_eval(&alpha, &doc("ab"));
        assert_eq!(r2.len(), 1);
        assert_eq!(
            r2.iter().next().unwrap().get(&"x".into()),
            Some(Span::new(2, 3))
        );
    }

    #[test]
    fn capture_requires_fresh_variable() {
        // x{x{a}} produces nothing: the inner pair already has x in its domain.
        let alpha = Rgx::capture("x", Rgx::capture("x", sym(b'a')));
        assert!(reference_eval(&alpha, &doc("a")).is_empty());
    }

    #[test]
    fn star_with_variables_follows_the_grammar() {
        // (x{a})* is not sequential, but the semantics is still defined:
        // iterating twice would need x twice with disjoint domains, which is
        // impossible, so on "aa" there is no full match; on "a" there is one.
        let alpha = Rgx::star(Rgx::capture("x", sym(b'a')));
        assert_eq!(reference_eval(&alpha, &doc("a")).len(), 1);
        assert!(reference_eval(&alpha, &doc("aa")).is_empty());
        // The empty document matches with the empty mapping (zero iterations).
        assert_eq!(reference_eval(&alpha, &doc("")).len(), 1);
    }

    #[test]
    fn digits_class() {
        let alpha = Rgx::concat([
            Rgx::capture("num", Rgx::plus(Rgx::Class(ByteClass::ascii_digit()))),
            Rgx::any_string(),
        ]);
        let d = doc("42x");
        let result = reference_eval(&alpha, &d);
        let spans: BTreeSet<Span> = result
            .iter()
            .map(|m| m.get(&"num".into()).unwrap())
            .collect();
        assert_eq!(spans, BTreeSet::from([Span::new(1, 2), Span::new(1, 3)]));
    }

    #[test]
    fn paper_example_2_2_style_optional_fields() {
        // A simplified αinfo: name, optional phone, mail.
        let word = Rgx::plus(Rgx::Class(ByteClass::ascii_lower()));
        let digits = Rgx::plus(Rgx::Class(ByteClass::ascii_digit()));
        let alpha = Rgx::concat([
            Rgx::capture("name", word.clone()),
            sym(b' '),
            Rgx::union([
                Rgx::concat([Rgx::capture("phone", digits), sym(b' ')]),
                Rgx::Epsilon,
            ]),
            Rgx::capture("mail", word),
        ]);
        // With phone
        let d1 = doc("bob 123 inbox");
        let r1 = reference_eval(&alpha, &d1);
        assert_eq!(r1.len(), 1);
        let m1 = r1.iter().next().unwrap();
        assert_eq!(d1.slice(m1.get(&"phone".into()).unwrap()), "123");
        assert_eq!(d1.slice(m1.get(&"mail".into()).unwrap()), "inbox");
        // Without phone
        let d2 = doc("bob inbox");
        let r2 = reference_eval(&alpha, &d2);
        assert_eq!(r2.len(), 1);
        assert!(!r2.iter().next().unwrap().contains(&"phone".into()));
    }
}
