//! Byte classes: compact sets of alphabet symbols.
//!
//! The paper works over an abstract finite alphabet Σ with single-symbol
//! transitions. For realistic extractors (emails, dates, log fields) the
//! compiled automata become much smaller if a single transition can match a
//! *set* of symbols; `ByteClass` provides that as a 256-bit set. Everything
//! expressible with byte classes desugars into a disjunction of single
//! symbols, so no semantics change.

use std::fmt;

/// A set of byte values, stored as a 256-bit bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteClass {
    bits: [u64; 4],
}

impl ByteClass {
    /// The empty class (matches nothing).
    pub const fn empty() -> Self {
        ByteClass { bits: [0; 4] }
    }

    /// The full class (matches every byte) — the `Σ` wildcard.
    pub const fn any() -> Self {
        ByteClass {
            bits: [u64::MAX; 4],
        }
    }

    /// A class containing a single byte.
    pub fn single(b: u8) -> Self {
        let mut c = ByteClass::empty();
        c.insert(b);
        c
    }

    /// A class containing an inclusive byte range.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut c = ByteClass::empty();
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        for b in lo..=hi {
            c.insert(b);
        }
        c
    }

    /// A class containing exactly the given bytes.
    pub fn of(bytes: &[u8]) -> Self {
        let mut c = ByteClass::empty();
        for &b in bytes {
            c.insert(b);
        }
        c
    }

    /// ASCII letters `a-zA-Z`.
    pub fn ascii_alpha() -> Self {
        ByteClass::range(b'a', b'z').union(&ByteClass::range(b'A', b'Z'))
    }

    /// ASCII lowercase letters `a-z`.
    pub fn ascii_lower() -> Self {
        ByteClass::range(b'a', b'z')
    }

    /// ASCII uppercase letters `A-Z`.
    pub fn ascii_upper() -> Self {
        ByteClass::range(b'A', b'Z')
    }

    /// ASCII digits `0-9`.
    pub fn ascii_digit() -> Self {
        ByteClass::range(b'0', b'9')
    }

    /// ASCII letters, digits and underscore (the `\w` class).
    pub fn ascii_word() -> Self {
        ByteClass::ascii_alpha()
            .union(&ByteClass::ascii_digit())
            .union(&ByteClass::single(b'_'))
    }

    /// ASCII whitespace (space, tab, newline, carriage return).
    pub fn ascii_space() -> Self {
        ByteClass::of(b" \t\n\r")
    }

    /// Inserts a byte into the class.
    #[inline]
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Whether the class contains `b`.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Number of bytes in the class.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the class is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Set union.
    pub fn union(&self, other: &ByteClass) -> ByteClass {
        let mut out = *self;
        for i in 0..4 {
            out.bits[i] |= other.bits[i];
        }
        out
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ByteClass) -> ByteClass {
        let mut out = *self;
        for i in 0..4 {
            out.bits[i] &= other.bits[i];
        }
        out
    }

    /// Set complement (with respect to all 256 byte values).
    pub fn complement(&self) -> ByteClass {
        let mut out = *self;
        for i in 0..4 {
            out.bits[i] = !out.bits[i];
        }
        out
    }

    /// Iterates over the bytes in the class in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((i * 64 + bit) as u8)
            })
        })
    }
}

impl fmt::Debug for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ByteClass::any() {
            return write!(f, "[.]");
        }
        write!(f, "[")?;
        let mut bytes: Vec<u8> = self.iter().collect();
        if bytes.len() > 128 {
            // Print the complement for very dense classes.
            write!(f, "^")?;
            bytes = self.complement().iter().collect();
        }
        // Collapse consecutive runs into ranges.
        let mut i = 0;
        while i < bytes.len() {
            let start = bytes[i];
            let mut end = start;
            while i + 1 < bytes.len() && bytes[i + 1] == end + 1 {
                i += 1;
                end = bytes[i];
            }
            let show = |f: &mut fmt::Formatter<'_>, b: u8| -> fmt::Result {
                if b.is_ascii_graphic() {
                    write!(f, "{}", b as char)
                } else {
                    write!(f, "\\x{b:02x}")
                }
            };
            show(f, start)?;
            if end > start {
                write!(f, "-")?;
                show(f, end)?;
            }
            i += 1;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let c = ByteClass::single(b'a');
        assert!(c.contains(b'a'));
        assert!(!c.contains(b'b'));
        assert_eq!(c.len(), 1);

        let d = ByteClass::range(b'0', b'9');
        assert_eq!(d.len(), 10);
        assert!(d.contains(b'5'));
        assert!(!d.contains(b'a'));

        assert_eq!(ByteClass::any().len(), 256);
        assert!(ByteClass::empty().is_empty());
    }

    #[test]
    fn set_operations() {
        let alpha = ByteClass::ascii_alpha();
        let digit = ByteClass::ascii_digit();
        assert_eq!(alpha.len(), 52);
        assert!(alpha.intersect(&digit).is_empty());
        assert_eq!(alpha.union(&digit).len(), 62);
        assert_eq!(alpha.complement().complement(), alpha);
        assert_eq!(alpha.complement().len(), 256 - 52);
    }

    #[test]
    fn iteration_is_sorted() {
        let c = ByteClass::of(b"zax");
        let v: Vec<u8> = c.iter().collect();
        assert_eq!(v, vec![b'a', b'x', b'z']);
    }

    #[test]
    fn debug_rendering() {
        assert_eq!(format!("{:?}", ByteClass::range(b'a', b'd')), "[a-d]");
        assert_eq!(format!("{:?}", ByteClass::any()), "[.]");
        assert_eq!(format!("{:?}", ByteClass::of(b"ab0")), "[0a-b]");
    }

    #[test]
    fn word_and_space_classes() {
        assert!(ByteClass::ascii_word().contains(b'_'));
        assert!(ByteClass::ascii_word().contains(b'7'));
        assert!(!ByteClass::ascii_word().contains(b' '));
        assert!(ByteClass::ascii_space().contains(b'\t'));
        assert_eq!(ByteClass::ascii_space().len(), 4);
    }
}
