//! Ad-hoc (document-dependent) automata.
//!
//! Several constructions in the paper compile a *relation of mappings* into a
//! vset-automaton that is only valid for one specific document: the automaton
//! `B` in the proof of Lemma 4.2, and the automata used to incorporate
//! black-box spanners into RA trees (Corollary 5.3). This module provides
//! that compilation.

use spanner_core::{Document, Mapping, MappingSet, Span, SpannerError, SpannerResult};
use spanner_vset::{Label, StateId, Vsa};

/// Compiles a materialized relation into an *ad-hoc* sequential VA `B` with
/// `VBW(doc) = mappings` (valid only for this document).
///
/// Every mapping becomes a path that reads the document and performs the
/// mapping's variable operations at the correct positions; the paths are
/// united under a fresh initial state. The construction is linear in
/// `|mappings| · (|doc| + degree)`.
///
/// Fails if a mapping mentions a span that does not fit the document.
pub fn mapping_set_to_vsa(mappings: &MappingSet, doc: &Document) -> SpannerResult<Vsa> {
    let mut out = Vsa::new();
    for mapping in mappings.iter() {
        let entry = add_mapping_path(&mut out, mapping, doc)?;
        out.add_transition(0, Label::Epsilon, entry);
    }
    Ok(out)
}

/// Adds a path accepting exactly `doc` while performing the operations of
/// `mapping`; returns the path's entry state.
pub(crate) fn add_mapping_path(
    out: &mut Vsa,
    mapping: &Mapping,
    doc: &Document,
) -> SpannerResult<StateId> {
    let n = doc.len() as u32;
    for (v, s) in mapping.iter() {
        if !s.fits(doc.len()) {
            return Err(SpannerError::Invalid(format!(
                "mapping assigns {v} the span {s}, which does not fit a document of length {n}"
            )));
        }
    }
    let entry = out.add_state();
    let mut cur = entry;
    for pos in 1..=n + 1 {
        cur = emit_ops_at(out, cur, mapping, pos);
        if pos <= n {
            let next = out.add_state();
            out.add_transition(cur, Label::symbol(doc.symbol_at(pos).unwrap()), next);
            cur = next;
        }
    }
    out.set_accepting(cur, true);
    Ok(entry)
}

/// Emits the open/close operations of `mapping` scheduled at `pos`, starting
/// from state `cur`; returns the last state.
fn emit_ops_at(out: &mut Vsa, mut cur: StateId, mapping: &Mapping, pos: u32) -> StateId {
    // Close non-empty spans ending here first, then open spans starting here,
    // then handle empty spans [pos, pos⟩ (open immediately followed by close).
    let ops: Vec<(bool, spanner_core::Variable)> = {
        let mut v = Vec::new();
        for (var, span) in mapping.iter() {
            if span.end == pos && span.start < pos {
                v.push((false, var.clone()));
            }
        }
        for (var, span) in mapping.iter() {
            if span.start == pos && !span.is_empty() {
                v.push((true, var.clone()));
            }
        }
        for (var, span) in mapping.iter() {
            if span == Span::empty(pos) {
                v.push((true, var.clone()));
                v.push((false, var.clone()));
            }
        }
        v
    };
    for (is_open, var) in ops {
        let next = out.add_state();
        let label = if is_open {
            Label::Open(var)
        } else {
            Label::Close(var)
        };
        out.add_transition(cur, label, next);
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::interpret;
    use spanner_vset::analysis;

    fn sp(a: u32, b: u32) -> Span {
        Span::new(a, b)
    }

    #[test]
    fn round_trip_through_adhoc_automaton() {
        let doc = Document::new("abcd");
        let mappings = MappingSet::from_mappings([
            Mapping::from_pairs([("x", sp(1, 3)), ("y", sp(3, 5))]),
            Mapping::from_pairs([("x", sp(2, 2))]),
            Mapping::new(),
        ]);
        let vsa = mapping_set_to_vsa(&mappings, &doc).unwrap();
        assert!(analysis::is_sequential(&vsa));
        assert_eq!(interpret(&vsa, &doc), mappings);
        // On a different document of the same length the automaton rejects
        // (the letters differ), which is what "ad hoc" means.
        assert!(interpret(&vsa, &Document::new("abce")).is_empty());
    }

    #[test]
    fn empty_relation_and_empty_document() {
        let doc = Document::new("");
        let empty = mapping_set_to_vsa(&MappingSet::new(), &doc).unwrap();
        assert!(interpret(&empty, &doc).is_empty());

        let unit = mapping_set_to_vsa(&MappingSet::unit(), &doc).unwrap();
        assert_eq!(interpret(&unit, &doc), MappingSet::unit());
    }

    #[test]
    fn empty_spans_at_every_position() {
        let doc = Document::new("ab");
        let mappings = MappingSet::from_mappings([
            Mapping::from_pairs([("x", sp(1, 1))]),
            Mapping::from_pairs([("x", sp(2, 2))]),
            Mapping::from_pairs([("x", sp(3, 3))]),
        ]);
        let vsa = mapping_set_to_vsa(&mappings, &doc).unwrap();
        assert_eq!(interpret(&vsa, &doc), mappings);
    }

    #[test]
    fn span_out_of_range_is_rejected() {
        let doc = Document::new("a");
        let bad = MappingSet::from_mappings([Mapping::from_pairs([("x", sp(1, 5))])]);
        assert!(mapping_set_to_vsa(&bad, &doc).is_err());
    }
}
