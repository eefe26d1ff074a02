//! Spans: intervals of positions within a document.

use std::fmt;

/// A span `[start, end⟩` of a document, using the paper's 1-based convention.
///
/// For a document of length `n`, a span satisfies `1 ≤ start ≤ end ≤ n + 1`.
/// The span denotes the substring `d[start, end⟩ = σ_start ⋯ σ_{end-1}`.
/// `[i, i⟩` is an *empty* span located at position `i`; empty spans at
/// different positions are different spans.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// 1-based start position (inclusive).
    pub start: u32,
    /// 1-based end position (exclusive).
    pub end: u32,
}

impl Span {
    /// Creates a new span `[start, end⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `start == 0` or `start > end` (the paper requires
    /// `1 ≤ start ≤ end`).
    #[inline]
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start >= 1, "span positions are 1-based; got start = 0");
        assert!(
            start <= end,
            "invalid span [{start}, {end}⟩: start must not exceed end"
        );
        Span { start, end }
    }

    /// Creates a span from a 0-based, end-exclusive byte range.
    #[inline]
    pub fn from_range(range: std::ops::Range<usize>) -> Self {
        Span::new(range.start as u32 + 1, range.end as u32 + 1)
    }

    /// The 0-based, end-exclusive byte range covered by this span.
    #[inline]
    pub fn as_range(&self) -> std::ops::Range<usize> {
        (self.start as usize - 1)..(self.end as usize - 1)
    }

    /// The empty span `[pos, pos⟩`.
    #[inline]
    pub fn empty(pos: u32) -> Self {
        Span::new(pos, pos)
    }

    /// Length (number of symbols covered) of the span.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span covers no symbols.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the span fits into a document of length `doc_len`
    /// (i.e. `end ≤ doc_len + 1`).
    #[inline]
    pub fn fits(&self, doc_len: usize) -> bool {
        (self.end as usize) <= doc_len + 1
    }

    /// Whether `other` is entirely contained in `self`.
    #[inline]
    pub fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Concatenates two adjacent spans `[i, j⟩` and `[j, k⟩` into `[i, k⟩`.
    ///
    /// Returns `None` if the spans are not adjacent.
    #[inline]
    pub fn concat(&self, other: &Span) -> Option<Span> {
        if self.end == other.start {
            Some(Span::new(self.start, other.end))
        } else {
            None
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}⟩", self.start, self.end)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}⟩", self.start, self.end)
    }
}

impl From<(u32, u32)> for Span {
    fn from((start, end): (u32, u32)) -> Self {
        Span::new(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(1, 4);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.as_range(), 0..3);
        assert_eq!(Span::from_range(0..3), s);
        assert_eq!(format!("{s}"), "[1, 4⟩");
    }

    #[test]
    fn empty_spans_at_distinct_positions_differ() {
        assert_ne!(Span::empty(2), Span::empty(3));
        assert!(Span::empty(2).is_empty());
        assert_eq!(Span::empty(2).len(), 0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_start_is_rejected() {
        let _ = Span::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid span")]
    fn backwards_span_is_rejected() {
        let _ = Span::new(3, 2);
    }

    #[test]
    fn containment_and_overlap() {
        let outer = Span::new(1, 10);
        let inner = Span::new(3, 5);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
    }

    #[test]
    fn concat_adjacent() {
        assert_eq!(
            Span::new(1, 3).concat(&Span::new(3, 7)),
            Some(Span::new(1, 7))
        );
        assert_eq!(Span::new(1, 3).concat(&Span::new(4, 7)), None);
    }

    #[test]
    fn fits_document() {
        assert!(Span::new(1, 4).fits(3));
        assert!(!Span::new(1, 5).fits(3));
        assert!(Span::empty(4).fits(3));
        assert!(!Span::empty(5).fits(3));
    }
}
