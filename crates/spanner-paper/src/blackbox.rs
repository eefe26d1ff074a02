//! Black-box spanners (Section 5, Corollary 5.3).
//!
//! The ad-hoc compilation approach lets an RA tree incorporate *any*
//! polynomial-time, degree-bounded extractor, including ones that are not
//! expressible as RA expressions over regular spanners. This module provides
//! the two that the experiments and examples plug into RA trees: a tokenizer,
//! and a toy sentiment classifier standing in for the `PosRec` black box of
//! Example 5.4. Nothing that serves can reach a black box: the executor's
//! `BlackBoxScan` runs whatever [`Spanner`] an `Instantiation` carries, and
//! SpannerQL has no syntax for one.

use spanner_algebra::Spanner;
use spanner_core::{Document, Mapping, MappingSet, Span, SpannerResult, VarSet, Variable};
use std::collections::BTreeSet;

/// Returns the spans of all maximal word tokens (`[A-Za-z0-9_]+` runs).
fn token_spans(doc: &Document) -> Vec<Span> {
    let bytes = doc.bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Span::from_range(start..i));
        } else {
            i += 1;
        }
    }
    out
}

/// Returns the spans of all lines (separated by `\n`, excluding the newline).
fn line_spans(doc: &Document) -> Vec<Span> {
    let bytes = doc.bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            out.push(Span::from_range(start..i));
            start = i + 1;
        }
    }
    if start <= bytes.len() {
        out.push(Span::from_range(start..bytes.len()));
    }
    out
}

/// A tokenizer: binds its variable to every maximal word token of the
/// document. Degree 1.
#[derive(Clone, Debug)]
pub struct TokenizerSpanner {
    var: Variable,
}

impl TokenizerSpanner {
    /// Creates a tokenizer binding `var`.
    pub fn new(var: impl Into<Variable>) -> Self {
        TokenizerSpanner { var: var.into() }
    }
}

impl Spanner for TokenizerSpanner {
    fn name(&self) -> String {
        format!("tokenize({})", self.var)
    }

    fn vars(&self) -> VarSet {
        VarSet::from_iter([self.var.clone()])
    }

    fn degree(&self) -> usize {
        1
    }

    fn eval(&self, doc: &Document) -> SpannerResult<MappingSet> {
        Ok(token_spans(doc)
            .into_iter()
            .map(|s| Mapping::from_pairs([(self.var.clone(), s)]))
            .collect())
    }
}

/// A toy sentiment classifier standing in for the `PosRec` black box of
/// Example 5.4: for every line whose text contains at least one word of the
/// positive lexicon, binds `var_subject` to the first token of the line and
/// `var_content` to the rest of the line. Degree 2.
#[derive(Clone, Debug)]
pub struct SentimentSpanner {
    var_subject: Variable,
    var_content: Variable,
    positive_lexicon: BTreeSet<String>,
}

impl SentimentSpanner {
    /// Creates the spanner with the given positive-word lexicon.
    pub fn new<I, S>(
        var_subject: impl Into<Variable>,
        var_content: impl Into<Variable>,
        positive_lexicon: I,
    ) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SentimentSpanner {
            var_subject: var_subject.into(),
            var_content: var_content.into(),
            positive_lexicon: positive_lexicon
                .into_iter()
                .map(|s| s.into().to_lowercase())
                .collect(),
        }
    }

    /// The default lexicon used by the examples.
    pub fn default_lexicon() -> Vec<&'static str> {
        vec![
            "excellent",
            "outstanding",
            "great",
            "brilliant",
            "recommend",
            "recommended",
            "strong",
            "impressive",
        ]
    }
}

impl Spanner for SentimentSpanner {
    fn name(&self) -> String {
        format!("sentiment({}, {})", self.var_subject, self.var_content)
    }

    fn vars(&self) -> VarSet {
        VarSet::from_iter([self.var_subject.clone(), self.var_content.clone()])
    }

    fn degree(&self) -> usize {
        2
    }

    fn eval(&self, doc: &Document) -> SpannerResult<MappingSet> {
        let mut out = MappingSet::new();
        for line in line_spans(doc) {
            if line.is_empty() {
                continue;
            }
            let text = doc.slice(line);
            let positive = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .any(|w| self.positive_lexicon.contains(&w.to_lowercase()));
            if !positive {
                continue;
            }
            // Subject = first token of the line, content = remainder.
            let line_start = line.start;
            let rel_tokens: Vec<(usize, usize)> = {
                let bytes = text.as_bytes();
                let mut v = Vec::new();
                let mut i = 0;
                while i < bytes.len() {
                    if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' {
                        let s = i;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                        v.push((s, i));
                    } else {
                        i += 1;
                    }
                }
                v
            };
            let Some(&(first_s, first_e)) = rel_tokens.first() else {
                continue;
            };
            let subject = Span::new(line_start + first_s as u32, line_start + first_e as u32);
            let content = Span::new(line_start + first_e as u32, line.end);
            out.insert(Mapping::from_pairs([
                (self.var_subject.clone(), subject),
                (self.var_content.clone(), content),
            ]));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_extracts_word_runs() {
        let s = TokenizerSpanner::new("tok");
        let doc = Document::new("ab, cd_7 !x");
        let out = s.eval(&doc).unwrap();
        let texts: Vec<_> = out
            .iter()
            .map(|m| doc.slice(m.get(&"tok".into()).unwrap()))
            .collect();
        assert_eq!(texts, vec!["ab", "cd_7", "x"]);
        assert_eq!(s.degree(), 1);
    }

    #[test]
    fn sentiment_spanner_detects_positive_lines() {
        let s = SentimentSpanner::new("student", "rec", SentimentSpanner::default_lexicon());
        let doc = Document::new(
            "Rodion shows excellent analytical skills\nPyotr was absent most of the term\nZosimov outstanding work throughout",
        );
        let out = s.eval(&doc).unwrap();
        assert_eq!(out.len(), 2);
        let subjects: Vec<_> = out
            .iter()
            .map(|m| doc.slice(m.get(&"student".into()).unwrap()))
            .collect();
        assert!(subjects.contains(&"Rodion".into()));
        assert!(subjects.contains(&"Zosimov".into()));
        assert!(!subjects.contains(&"Pyotr".into()));
    }

    #[test]
    fn line_and_token_helpers() {
        let doc = Document::new("a\n\nbc");
        assert_eq!(line_spans(&doc).len(), 3);
        assert_eq!(token_spans(&doc).len(), 2);
        let empty = Document::new("");
        assert_eq!(line_spans(&empty).len(), 1);
        assert!(token_spans(&empty).is_empty());
    }
}
