//! Concrete text syntax for regex formulas.
//!
//! The parser accepts a syntax close to ordinary regular expressions,
//! extended with variable captures:
//!
//! ```text
//! formula   := alt
//! alt       := seq ('|' seq)*
//! seq       := item*                        (empty seq = ε)
//! item      := atom ('*' | '+' | '?')*
//! atom      := literal байт
//!            | '.'                          any symbol
//!            | '[' class ']'                byte class, '[^...]' negated
//!            | '(' alt ')'                  grouping ('()' = ε)
//!            | '{' name ':' alt '}'         variable capture  name{α}
//!            | '\' escaped                  \n \t \r \d \w \s \a \l \u \xHH
//!                                           or an escaped metacharacter
//! ```
//!
//! `[]` denotes the empty formula `∅`. Whitespace is significant (a space
//! matches a space). The [`std::fmt::Display`] implementation of
//! [`Rgx`] prints this syntax back.
//!
//! Two bounds keep a short pattern from exhausting a thread, and both are
//! refused with a positioned error:
//!
//! * *Nesting.* Groups and captures may nest at most 128 deep, where each
//!   postfix operator stacked on an atom counts as one more level (it wraps
//!   the atom once more). The parser and every pass over the formula
//!   recurse once per level.
//! * *`+` copies.* `α+` is built as `α·α*`, a copy of `α`, so stacked or
//!   nested `+` doubles the formula each time. A formula may copy at most
//!   65 536 nodes through `+` in all; formulas without `+` parse at any
//!   length.

use crate::ast::Rgx;
use spanner_core::{ByteClass, SpannerError, SpannerResult};

/// The deepest nesting of groups, captures and stacked postfix operators.
const MAX_NESTING: usize = 128;

/// The most formula nodes all `+` operators of one formula may copy.
const MAX_PLUS_COPIES: usize = 1 << 16;

/// Parses a regex formula from its concrete syntax.
pub fn parse(input: &str) -> SpannerResult<Rgx> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        copied: 0,
    };
    let formula = p.parse_alt()?;
    if p.pos != p.bytes.len() {
        return Err(SpannerError::parse(
            format!("unexpected `{}`", p.peek().unwrap() as char),
            p.pos,
        ));
    }
    Ok(formula)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Groups and captures open around the parse position.
    depth: usize,
    /// Formula nodes copied by `+` so far.
    copied: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, b: u8) -> SpannerResult<()> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(SpannerError::parse(
                format!("expected `{}`, found `{}`", b as char, c as char),
                self.pos,
            )),
            None => Err(SpannerError::parse(
                format!("expected `{}`, found end of input", b as char),
                self.pos,
            )),
        }
    }

    fn parse_alt(&mut self) -> SpannerResult<Rgx> {
        let mut branches = vec![self.parse_seq()?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.parse_seq()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().unwrap())
        } else {
            Ok(Rgx::Union(branches))
        }
    }

    fn parse_seq(&mut self) -> SpannerResult<Rgx> {
        let mut items = Vec::new();
        while let Some(b) = self.peek() {
            if matches!(b, b'|' | b')' | b'}') {
                break;
            }
            items.push(self.parse_item()?);
        }
        Ok(Rgx::concat(items))
    }

    /// Refuses, at `at`, a nesting level past [`MAX_NESTING`].
    fn check_depth(&self, depth: usize, at: usize) -> SpannerResult<()> {
        if depth > MAX_NESTING {
            return Err(SpannerError::parse(
                format!(
                    "groups, captures and postfix operators nest deeper than {MAX_NESTING} levels"
                ),
                at,
            ));
        }
        Ok(())
    }

    fn parse_item(&mut self) -> SpannerResult<Rgx> {
        let mut atom = self.parse_atom()?;
        let mut depth = self.depth;
        while let Some(op @ (b'*' | b'+' | b'?')) = self.peek() {
            depth += 1;
            self.check_depth(depth, self.pos)?;
            if op == b'+' {
                // Count the copy before making it: past the budget, `atom`
                // is about to double once more.
                self.copied += atom.size();
                if self.copied > MAX_PLUS_COPIES {
                    return Err(SpannerError::parse(
                        format!("`+` copies its operand, and these copies pass {MAX_PLUS_COPIES} formula nodes"),
                        self.pos,
                    ));
                }
            }
            self.bump();
            atom = match op {
                b'*' => Rgx::star(atom),
                b'+' => Rgx::plus(atom),
                _ => Rgx::opt(atom),
            };
        }
        Ok(atom)
    }

    /// Parses `inner` one nesting level deeper: the body of the group or
    /// capture opened at `at`.
    fn nested<T>(
        &mut self,
        at: usize,
        inner: impl FnOnce(&mut Self) -> SpannerResult<T>,
    ) -> SpannerResult<T> {
        self.depth += 1;
        self.check_depth(self.depth, at)?;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn parse_atom(&mut self) -> SpannerResult<Rgx> {
        let start = self.pos;
        match self.bump() {
            None => Err(SpannerError::parse("unexpected end of input", start)),
            Some(b'(') => {
                if self.peek() == Some(b')') {
                    self.bump();
                    return Ok(Rgx::Epsilon);
                }
                let inner = self.nested(start, Self::parse_alt)?;
                self.expect(b')')?;
                Ok(inner)
            }
            Some(b'{') => self.nested(start, Self::parse_capture),
            Some(b'[') => self.parse_class(),
            Some(b'.') => Ok(Rgx::any_symbol()),
            Some(b'\\') => Ok(Rgx::Class(self.parse_escape()?)),
            Some(b) if matches!(b, b'*' | b'+' | b'?' | b')' | b'}' | b']' | b'|') => Err(
                SpannerError::parse(format!("unexpected `{}`", b as char), start),
            ),
            Some(b) => Ok(Rgx::symbol(b)),
        }
    }

    fn parse_capture(&mut self) -> SpannerResult<Rgx> {
        let name_start = self.pos;
        let mut name = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                name.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        if name.is_empty() {
            return Err(SpannerError::parse(
                "expected a variable name after `{`",
                name_start,
            ));
        }
        self.expect(b':')?;
        let inner = self.parse_alt()?;
        self.expect(b'}')?;
        Ok(Rgx::capture(name, inner))
    }

    fn parse_class(&mut self) -> SpannerResult<Rgx> {
        // '[' already consumed.
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Rgx::Empty); // `[]` = ∅
        }
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut class = ByteClass::empty();
        loop {
            match self.peek() {
                None => {
                    return Err(SpannerError::parse(
                        "unterminated character class",
                        self.pos,
                    ))
                }
                Some(b']') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let lo = self.parse_class_byte()?;
                    match lo {
                        ClassItem::Class(c) => class = class.union(&c),
                        ClassItem::Byte(lo) => {
                            if self.peek() == Some(b'-')
                                && self.bytes.get(self.pos + 1) != Some(&b']')
                            {
                                self.bump(); // '-'
                                match self.parse_class_byte()? {
                                    ClassItem::Byte(hi) => {
                                        class = class.union(&ByteClass::range(lo, hi))
                                    }
                                    ClassItem::Class(_) => {
                                        return Err(SpannerError::parse(
                                            "invalid range end in character class",
                                            self.pos,
                                        ))
                                    }
                                }
                            } else {
                                class.insert(lo);
                            }
                        }
                    }
                }
            }
        }
        let class = if negated { class.complement() } else { class };
        Ok(Rgx::Class(class))
    }

    fn parse_class_byte(&mut self) -> SpannerResult<ClassItem> {
        match self.bump() {
            None => Err(SpannerError::parse(
                "unterminated character class",
                self.pos,
            )),
            Some(b'\\') => Ok(ClassItem::from_escape(self.parse_escape()?)),
            Some(b) => Ok(ClassItem::Byte(b)),
        }
    }

    fn parse_escape(&mut self) -> SpannerResult<ByteClass> {
        let start = self.pos;
        match self.bump() {
            None => Err(SpannerError::parse("dangling escape", start)),
            Some(b'n') => Ok(ByteClass::single(b'\n')),
            Some(b't') => Ok(ByteClass::single(b'\t')),
            Some(b'r') => Ok(ByteClass::single(b'\r')),
            Some(b'd') => Ok(ByteClass::ascii_digit()),
            Some(b'w') => Ok(ByteClass::ascii_word()),
            Some(b's') => Ok(ByteClass::ascii_space()),
            Some(b'a') => Ok(ByteClass::ascii_alpha()),
            Some(b'l') => Ok(ByteClass::ascii_lower()),
            Some(b'u') => Ok(ByteClass::ascii_upper()),
            Some(b'x') => {
                let hi = self.bump();
                let lo = self.bump();
                match (hi, lo) {
                    (Some(hi), Some(lo)) => {
                        let hex = |c: u8| (c as char).to_digit(16);
                        match (hex(hi), hex(lo)) {
                            (Some(h), Some(l)) => Ok(ByteClass::single((h * 16 + l) as u8)),
                            _ => Err(SpannerError::parse("invalid \\x escape", start)),
                        }
                    }
                    _ => Err(SpannerError::parse("truncated \\x escape", start)),
                }
            }
            Some(b) => Ok(ByteClass::single(b)),
        }
    }
}

enum ClassItem {
    Byte(u8),
    Class(ByteClass),
}

impl ClassItem {
    fn from_escape(c: ByteClass) -> ClassItem {
        if c.len() == 1 {
            ClassItem::Byte(c.iter().next().unwrap())
        } else {
            ClassItem::Class(c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{is_functional, is_sequential};
    use spanner_core::VarSet;

    #[test]
    fn literals_and_grouping() {
        assert_eq!(parse("abc").unwrap(), Rgx::literal("abc"));
        assert_eq!(parse("").unwrap(), Rgx::Epsilon);
        assert_eq!(parse("()").unwrap(), Rgx::Epsilon);
        assert_eq!(parse("[]").unwrap(), Rgx::Empty);
        assert_eq!(parse("(a)").unwrap(), Rgx::symbol(b'a'));
    }

    #[test]
    fn postfix_operators() {
        assert_eq!(parse("a*").unwrap(), Rgx::star(Rgx::symbol(b'a')));
        assert_eq!(parse("a+").unwrap(), Rgx::plus(Rgx::symbol(b'a')));
        assert_eq!(parse("a?").unwrap(), Rgx::opt(Rgx::symbol(b'a')));
        // Double star is fine.
        assert_eq!(parse("a**").unwrap(), Rgx::star(Rgx::symbol(b'a')));
    }

    #[test]
    fn alternation_binds_weakest() {
        let r = parse("ab|cd").unwrap();
        assert_eq!(r, Rgx::Union(vec![Rgx::literal("ab"), Rgx::literal("cd")]));
    }

    #[test]
    fn captures() {
        let r = parse("{x:a+}b").unwrap();
        assert_eq!(r.vars(), VarSet::from_iter(["x"]));
        assert!(is_functional(&r));
        assert!(is_sequential(&r));

        let r = parse("{outer:a{inner:b}c}").unwrap();
        assert_eq!(r.vars(), VarSet::from_iter(["outer", "inner"]));
    }

    #[test]
    fn classes() {
        assert_eq!(parse("[abc]").unwrap(), Rgx::Class(ByteClass::of(b"abc")));
        assert_eq!(
            parse("[a-c0-2]").unwrap(),
            Rgx::Class(ByteClass::of(b"abc012"))
        );
        assert_eq!(
            parse("[^a]").unwrap(),
            Rgx::Class(ByteClass::single(b'a').complement())
        );
        assert_eq!(
            parse(r"[\d]").unwrap(),
            Rgx::Class(ByteClass::ascii_digit())
        );
        assert_eq!(parse(r"\w").unwrap(), Rgx::Class(ByteClass::ascii_word()));
        assert_eq!(parse("[a-]").unwrap(), Rgx::Class(ByteClass::of(b"a-")));
    }

    #[test]
    fn escapes() {
        assert_eq!(parse(r"\{").unwrap(), Rgx::symbol(b'{'));
        assert_eq!(parse(r"\\").unwrap(), Rgx::symbol(b'\\'));
        assert_eq!(parse(r"\x41").unwrap(), Rgx::symbol(b'A'));
        assert_eq!(parse(r"\n").unwrap(), Rgx::symbol(b'\n'));
    }

    #[test]
    fn errors() {
        assert!(parse("(a").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("{x a}").is_err());
        assert!(parse("{:a}").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("*a").is_err());
        assert!(parse(r"\x4").is_err());
    }

    /// `(a|b(a|b(…)*)*)*`, `depth` groups deep: every group adds a union, a
    /// concatenation and a star to the formula.
    fn nested_groups(depth: usize) -> String {
        format!("{}a{}", "(a|b".repeat(depth), ")*".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_a_position() {
        let at_cap = [
            nested_groups(MAX_NESTING),
            format!("{}a{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING)),
            format!("{}a{}", "{x:".repeat(MAX_NESTING), "}".repeat(MAX_NESTING)),
            format!("a{}", "?".repeat(MAX_NESTING)),
            format!("(a){}", "?*".repeat(MAX_NESTING / 2)),
        ];
        for src in &at_cap {
            assert!(parse(src).is_ok(), "{src}");
        }
        // One level more is refused at the bracket or operator that opens
        // it; so is a pattern 10 000 groups deep.
        for (src, at) in [
            (nested_groups(MAX_NESTING + 1), MAX_NESTING * 4),
            (format!("{}a", "(".repeat(MAX_NESTING + 1)), MAX_NESTING),
            (
                format!("{}a", "{x:".repeat(MAX_NESTING + 1)),
                MAX_NESTING * 3,
            ),
            (format!("a{}", "?".repeat(MAX_NESTING + 1)), MAX_NESTING + 1),
            (format!("{}a", "(".repeat(10_000)), MAX_NESTING),
        ] {
            let e = parse(&src).unwrap_err();
            let SpannerError::Parse { message, position } = e else {
                panic!("{e}");
            };
            assert_eq!(position, at, "{src}");
            assert!(message.contains("nest deeper than 128"), "{message}");
        }
    }

    #[test]
    fn plus_copies_are_capped() {
        use std::time::{Duration, Instant};
        // Each stacked `+` copies the formula built so far: 40 of them
        // would build 2^40 nodes. The copy budget refuses it at once.
        let start = Instant::now();
        let src = format!("{{x:a{}}}", "+".repeat(40));
        let e = parse(&src).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(1));
        let SpannerError::Parse { message, position } = e else {
            panic!("{e}");
        };
        assert!(message.contains("`+` copies"), "{message}");
        assert!((4..4 + 40).contains(&position), "{position}");
        // Nested `+` and `?+` chains grow the same way.
        assert!(parse(&format!("{}a{}", "(".repeat(40), ")+".repeat(40))).is_err());
        assert!(parse(&format!("a{}", "?+".repeat(40))).is_err());
        // A handful of stacked `+` is fine, and so is a long flat formula:
        // each of these `+` copies one node.
        assert!(parse(&format!("{{x:a{}}}", "+".repeat(8))).is_ok());
        assert!(parse(&"a+b*".repeat(10_000)).is_ok());
    }

    #[test]
    fn printed_classes_escape_the_bracket_syntax() {
        // `\`, `]`, `^` and `-` mean something inside brackets; a class that
        // contains them must print them escaped or it re-parses to another
        // class (`[\^a]` used to print as `[^a]`, not-`a`).
        for src in [
            r"[\^a]",
            r"[a\\]",
            r"[\]a]",
            r"[a\-c]",
            r"[*\-a]",
            r"[^a-c\\d]",
            r"[^\]]",
            r"[\x00 \xff]",
        ] {
            let first = parse(src).unwrap();
            let printed = format!("{first}");
            assert_eq!(parse(&printed).unwrap(), first, "{src:?} -> {printed:?}");
        }
    }
}
