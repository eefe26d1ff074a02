//! Documents: the strings that spanners extract from.

use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// An input document: a finite string over the (byte) alphabet.
///
/// The paper fixes a finite alphabet Σ; this implementation runs over the
/// bytes of a UTF-8 string, which makes ASCII examples (the paper's examples
/// are all ASCII) behave exactly as on the abstract alphabet while still
/// allowing arbitrary byte content.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Document {
    text: String,
}

impl Document {
    /// Wraps a string as a document.
    pub fn new(text: impl Into<String>) -> Self {
        Document { text: text.into() }
    }

    /// The document length `n` (number of symbols / bytes).
    #[inline]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the document is the empty string ε.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The underlying text.
    #[inline]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The underlying bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    /// The symbol at 1-based position `pos` (`1 ≤ pos ≤ n`), if any.
    #[inline]
    pub fn symbol_at(&self, pos: u32) -> Option<u8> {
        self.bytes().get(pos as usize - 1).copied()
    }

    /// The substring `d[span⟩` covered by `span`, byte-exact: the alphabet
    /// is bytes, so a span may begin or end inside a multi-byte character
    /// (`.` matches one byte). The covered bytes are decoded lossily — each
    /// split character renders as U+FFFD, everything else borrows from the
    /// document — and the span itself stays a pair of byte positions.
    ///
    /// # Panics
    ///
    /// Panics if the span does not fit the document (never on a span of a
    /// mapping extracted from it).
    #[inline]
    pub fn slice(&self, span: Span) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.bytes()[span.as_range()])
    }

    /// [`Document::slice`], or `None` if the span does not fit.
    #[inline]
    pub fn try_slice(&self, span: Span) -> Option<Cow<'_, str>> {
        self.bytes()
            .get(span.as_range())
            .map(String::from_utf8_lossy)
    }

    /// The span covering the whole document, `[1, n + 1⟩`.
    #[inline]
    pub fn full_span(&self) -> Span {
        Span::new(1, self.len() as u32 + 1)
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Document({:?})", self.text)
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for Document {
    fn from(s: &str) -> Self {
        Document::new(s)
    }
}

impl From<String> for Document {
    fn from(s: String) -> Self {
        Document::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let d = Document::new("abcde");
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert_eq!(d.symbol_at(1), Some(b'a'));
        assert_eq!(d.symbol_at(5), Some(b'e'));
        assert_eq!(d.symbol_at(6), None);
        assert_eq!(d.full_span(), Span::new(1, 6));
    }

    #[test]
    fn slicing_follows_paper_convention() {
        // d[i, j⟩ = σ_i ⋯ σ_{j-1}
        let d = Document::new("Rodion");
        assert_eq!(d.slice(Span::new(1, 7)), "Rodion");
        assert_eq!(d.slice(Span::new(1, 1)), "");
        assert_eq!(d.slice(Span::new(2, 4)), "od");
        assert_eq!(d.try_slice(Span::new(2, 9)), None);
        assert_eq!(d.try_slice(Span::new(7, 7)).as_deref(), Some(""));
    }

    #[test]
    fn slicing_is_bytewise_inside_characters() {
        // "é" is two bytes: every span over it is answered, the ones that
        // split it with U+FFFD for the part they cover.
        let d = Document::new("aé");
        assert_eq!(d.slice(Span::new(1, 4)), "aé");
        assert_eq!(d.slice(Span::new(2, 4)), "é");
        assert_eq!(d.slice(Span::new(1, 3)), "a\u{fffd}");
        assert_eq!(d.slice(Span::new(2, 3)), "\u{fffd}");
        assert_eq!(d.try_slice(Span::new(3, 4)).as_deref(), Some("\u{fffd}"));
        assert_eq!(d.slice(Span::new(3, 3)), "");
        assert_eq!(d.try_slice(Span::new(3, 5)), None);
    }

    #[test]
    fn empty_document() {
        let d = Document::new("");
        assert!(d.is_empty());
        assert_eq!(d.full_span(), Span::new(1, 1));
    }
}
