//! Black-box spanners (Section 5, Corollary 5.3).
//!
//! The ad-hoc compilation approach lets an RA tree incorporate *any*
//! polynomial-time, degree-bounded extractor, including ones that are not
//! expressible as RA expressions over regular spanners. This module provides
//! the examples the paper mentions — string equality, dictionaries /
//! gazetteers, tokenizers, and a toy sentiment classifier standing in for the
//! `PosRec` black box of Example 5.4.

use crate::spanner::Spanner;
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

/// A dictionary (gazetteer) lookup: binds its variable to every token whose
/// text appears in the dictionary. Degree 1.
#[derive(Clone, Debug)]
pub struct DictionarySpanner {
    var: Variable,
    entries: BTreeSet<String>,
    case_insensitive: bool,
}

impl DictionarySpanner {
    /// Creates a dictionary spanner.
    pub fn new<I, S>(var: impl Into<Variable>, entries: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        DictionarySpanner {
            var: var.into(),
            entries: entries.into_iter().map(Into::into).collect(),
            case_insensitive: false,
        }
    }

    /// Makes the lookup case-insensitive.
    pub fn case_insensitive(mut self) -> Self {
        self.entries = self.entries.iter().map(|e| e.to_lowercase()).collect();
        self.case_insensitive = true;
        self
    }
}

impl Spanner for DictionarySpanner {
    fn name(&self) -> String {
        format!("dictionary({}, {} entries)", self.var, self.entries.len())
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
            .filter(|s| {
                let text = doc.slice(*s);
                if self.case_insensitive {
                    self.entries.contains(&text.to_lowercase())
                } else {
                    self.entries.contains(&*text)
                }
            })
            .map(|s| Mapping::from_pairs([(self.var.clone(), s)]))
            .collect())
    }
}

/// String equality over tokens: binds two variables to every pair of
/// *distinct* token spans with equal text. Degree 2.
///
/// String equality is the paper's canonical example of a spanner that cannot
/// be expressed as an RA expression over regular spanners (Section 5,
/// citing Fagin et al.).
#[derive(Clone, Debug)]
pub struct TokenEqualitySpanner {
    var_left: Variable,
    var_right: Variable,
}

impl TokenEqualitySpanner {
    /// Creates the spanner binding `(var_left, var_right)`.
    pub fn new(var_left: impl Into<Variable>, var_right: impl Into<Variable>) -> Self {
        TokenEqualitySpanner {
            var_left: var_left.into(),
            var_right: var_right.into(),
        }
    }
}

impl Spanner for TokenEqualitySpanner {
    fn name(&self) -> String {
        format!("token_eq({}, {})", self.var_left, self.var_right)
    }

    fn vars(&self) -> VarSet {
        VarSet::from_iter([self.var_left.clone(), self.var_right.clone()])
    }

    fn degree(&self) -> usize {
        2
    }

    fn eval(&self, doc: &Document) -> SpannerResult<MappingSet> {
        let tokens = token_spans(doc);
        let mut out = MappingSet::new();
        for (i, &s1) in tokens.iter().enumerate() {
            for &s2 in &tokens[i + 1..] {
                if doc.slice(s1) == doc.slice(s2) {
                    out.insert(Mapping::from_pairs([
                        (self.var_left.clone(), s1),
                        (self.var_right.clone(), s2),
                    ]));
                    out.insert(Mapping::from_pairs([
                        (self.var_left.clone(), s2),
                        (self.var_right.clone(), s1),
                    ]));
                }
            }
        }
        Ok(out)
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
    fn dictionary_matches_tokens_only() {
        let s = DictionarySpanner::new("name", ["Pyotr", "Rodion"]);
        let doc = Document::new("Pyotr Luzhin and rodion");
        let out = s.eval(&doc).unwrap();
        assert_eq!(out.len(), 1);
        let ci = DictionarySpanner::new("name", ["Pyotr", "Rodion"]).case_insensitive();
        assert_eq!(ci.eval(&doc).unwrap().len(), 2);
    }

    #[test]
    fn token_equality_pairs() {
        let s = TokenEqualitySpanner::new("l", "r");
        let doc = Document::new("aa bb aa cc bb");
        let out = s.eval(&doc).unwrap();
        // Pairs (ordered, both directions): aa@1↔aa@3, bb@2↔bb@5 → 4 mappings.
        assert_eq!(out.len(), 4);
        for m in out.iter() {
            let l = doc.slice(m.get(&"l".into()).unwrap());
            let r = doc.slice(m.get(&"r".into()).unwrap());
            assert_eq!(l, r);
        }
        assert_eq!(s.degree(), 2);
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
