//! Abstract syntax of regex formulas.

use spanner_core::{ByteClass, VarSet, Variable};
use std::fmt;

/// A regex formula, following the grammar of Section 2.2:
///
/// ```text
/// α := ∅ | ε | σ | (α ∨ α) | (α · α) | α* | x{α}
/// ```
///
/// Two engineering liberties are taken, neither of which changes
/// expressiveness or any of the paper's syntactic classes:
///
/// * union and concatenation are n-ary (a binary tree is a special case);
/// * the symbol case `σ` is generalized to a [`ByteClass`] (a set of symbols),
///   which is shorthand for the disjunction of its members.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Rgx {
    /// `∅` — matches nothing.
    Empty,
    /// `ε` — matches the empty string.
    Epsilon,
    /// A set of symbols; matches any single symbol of the class.
    Class(ByteClass),
    /// Concatenation `α₁ · α₂ ⋯ αₙ`.
    Concat(Vec<Rgx>),
    /// Disjunction `α₁ ∨ α₂ ⋯ ∨ αₙ`.
    Union(Vec<Rgx>),
    /// Kleene star `α*`.
    Star(Box<Rgx>),
    /// Variable capture `x{α}`.
    Capture(Variable, Box<Rgx>),
}

impl Rgx {
    /// The formula matching a single symbol.
    pub fn symbol(b: u8) -> Rgx {
        Rgx::Class(ByteClass::single(b))
    }

    /// The formula matching exactly the literal string `s`.
    pub fn literal(s: &str) -> Rgx {
        match s.len() {
            0 => Rgx::Epsilon,
            1 => Rgx::symbol(s.as_bytes()[0]),
            _ => Rgx::Concat(s.bytes().map(Rgx::symbol).collect()),
        }
    }

    /// The formula matching any single symbol (`Σ` / the `.` wildcard).
    pub fn any_symbol() -> Rgx {
        Rgx::Class(ByteClass::any())
    }

    /// `Σ*`: matches any string.
    pub fn any_string() -> Rgx {
        Rgx::Star(Box::new(Rgx::any_symbol()))
    }

    /// Concatenation of the given formulas (flattens nested concatenations).
    pub fn concat(parts: impl IntoIterator<Item = Rgx>) -> Rgx {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Rgx::Concat(inner) => flat.extend(inner),
                Rgx::Epsilon => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Rgx::Epsilon,
            1 => flat.pop().unwrap(),
            _ => Rgx::Concat(flat),
        }
    }

    /// Disjunction of the given formulas (flattens nested unions).
    pub fn union(parts: impl IntoIterator<Item = Rgx>) -> Rgx {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Rgx::Union(inner) => flat.extend(inner),
                Rgx::Empty => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Rgx::Empty,
            1 => flat.pop().unwrap(),
            _ => Rgx::Union(flat),
        }
    }

    /// Kleene star `α*`.
    pub fn star(inner: Rgx) -> Rgx {
        match inner {
            Rgx::Empty | Rgx::Epsilon => Rgx::Epsilon,
            Rgx::Star(s) => Rgx::Star(s),
            other => Rgx::Star(Box::new(other)),
        }
    }

    /// `α+ = α · α*`.
    pub fn plus(inner: Rgx) -> Rgx {
        Rgx::concat([inner.clone(), Rgx::star(inner)])
    }

    /// `α? = ε ∨ α`.
    pub fn opt(inner: Rgx) -> Rgx {
        Rgx::Union(vec![Rgx::Epsilon, inner])
    }

    /// Variable capture `x{α}`.
    pub fn capture(var: impl Into<Variable>, inner: Rgx) -> Rgx {
        Rgx::Capture(var.into(), Box::new(inner))
    }

    /// The set `Vars(α)` of variables syntactically occurring in the formula.
    pub fn vars(&self) -> VarSet {
        let mut out = VarSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut VarSet) {
        match self {
            Rgx::Empty | Rgx::Epsilon | Rgx::Class(_) => {}
            Rgx::Concat(parts) | Rgx::Union(parts) => {
                for p in parts {
                    p.collect_vars(out);
                }
            }
            Rgx::Star(inner) => inner.collect_vars(out),
            Rgx::Capture(v, inner) => {
                out.insert(v.clone());
                inner.collect_vars(out);
            }
        }
    }

    /// Number of AST nodes (a simple size measure used in experiments).
    pub fn size(&self) -> usize {
        match self {
            Rgx::Empty | Rgx::Epsilon | Rgx::Class(_) => 1,
            Rgx::Concat(parts) | Rgx::Union(parts) => {
                1 + parts.iter().map(Rgx::size).sum::<usize>()
            }
            Rgx::Star(inner) => 1 + inner.size(),
            Rgx::Capture(_, inner) => 1 + inner.size(),
        }
    }

    /// Applies `f` to every subformula (pre-order), including `self`.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Rgx)) {
        f(self);
        match self {
            Rgx::Empty | Rgx::Epsilon | Rgx::Class(_) => {}
            Rgx::Concat(parts) | Rgx::Union(parts) => {
                for p in parts {
                    p.visit(f);
                }
            }
            Rgx::Star(inner) | Rgx::Capture(_, inner) => inner.visit(f),
        }
    }
}

/// Renders a byte for inclusion in the concrete syntax.
fn escape_byte(b: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match b {
        b'(' | b')' | b'{' | b'}' | b'[' | b']' | b'*' | b'+' | b'?' | b'|' | b'.' | b'\\'
        | b':' => write!(f, "\\{}", b as char),
        b'\n' => write!(f, "\\n"),
        b'\t' => write!(f, "\\t"),
        b'\r' => write!(f, "\\r"),
        _ if b.is_ascii_graphic() || b == b' ' => write!(f, "{}", b as char),
        _ => write!(f, "\\x{b:02x}"),
    }
}

/// Renders a class of two or more bytes in the bracket syntax: sorted,
/// consecutive runs collapsed into ranges, the complement printed (`[^…]`)
/// for dense classes. Inside brackets the parser gives `\`, `]`, `^` and
/// `-` a meaning, so those are escaped wherever they stand.
fn write_class(class: &ByteClass, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fn member(b: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match b {
            b'\\' | b']' | b'^' | b'-' => write!(f, "\\{}", b as char),
            _ if b.is_ascii_graphic() => write!(f, "{}", b as char),
            _ => write!(f, "\\x{b:02x}"),
        }
    }
    write!(f, "[")?;
    let mut bytes: Vec<u8> = class.iter().collect();
    if bytes.len() > 128 {
        write!(f, "^")?;
        bytes = class.complement().iter().collect();
    }
    let mut i = 0;
    while i < bytes.len() {
        let start = bytes[i];
        while i + 1 < bytes.len() && bytes[i + 1] == bytes[i] + 1 {
            i += 1;
        }
        member(start, f)?;
        if bytes[i] > start {
            write!(f, "-")?;
            member(bytes[i], f)?;
        }
        i += 1;
    }
    write!(f, "]")
}

impl fmt::Display for Rgx {
    /// Prints the formula in the concrete syntax accepted by
    /// [`crate::parser::parse`]: the output re-parses to an equivalent
    /// formula.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rgx::Empty => write!(f, "[]"),
            Rgx::Epsilon => write!(f, "()"),
            Rgx::Class(c) if *c == ByteClass::any() => write!(f, "."),
            Rgx::Class(c) if c.len() == 1 => escape_byte(c.iter().next().unwrap(), f),
            Rgx::Class(c) => write_class(c, f),
            Rgx::Concat(parts) => {
                for p in parts {
                    match p {
                        Rgx::Union(_) => write!(f, "({p})")?,
                        _ => write!(f, "{p}")?,
                    }
                }
                Ok(())
            }
            Rgx::Union(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Rgx::Star(inner) => match **inner {
                Rgx::Class(_) | Rgx::Epsilon | Rgx::Empty | Rgx::Capture(..) => {
                    write!(f, "{inner}*")
                }
                _ => write!(f, "({inner})*"),
            },
            Rgx::Capture(v, inner) => write!(f, "{{{v}:{inner}}}"),
        }
    }
}

impl fmt::Debug for Rgx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rgx({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_normalize() {
        assert_eq!(Rgx::concat([]), Rgx::Epsilon);
        assert_eq!(Rgx::union([]), Rgx::Empty);
        assert_eq!(Rgx::concat([Rgx::symbol(b'a')]), Rgx::symbol(b'a'));
        // Nested concatenations flatten.
        let r = Rgx::concat([
            Rgx::concat([Rgx::symbol(b'a'), Rgx::symbol(b'b')]),
            Rgx::symbol(b'c'),
        ]);
        assert!(matches!(&r, Rgx::Concat(parts) if parts.len() == 3));
        // ∅ disappears from unions, ε from concatenations.
        assert_eq!(
            Rgx::union([Rgx::Empty, Rgx::symbol(b'a')]),
            Rgx::symbol(b'a')
        );
        assert_eq!(
            Rgx::concat([Rgx::Epsilon, Rgx::symbol(b'a')]),
            Rgx::symbol(b'a')
        );
        // (α*)* = α*, ∅* = ε* = ε.
        assert_eq!(
            Rgx::star(Rgx::star(Rgx::symbol(b'a'))),
            Rgx::star(Rgx::symbol(b'a'))
        );
        assert_eq!(Rgx::star(Rgx::Empty), Rgx::Epsilon);
    }

    #[test]
    fn vars_collects_all_occurrences() {
        let r = Rgx::concat([
            Rgx::capture("x", Rgx::any_string()),
            Rgx::union([
                Rgx::capture("y", Rgx::Epsilon),
                Rgx::capture("z", Rgx::Epsilon),
            ]),
        ]);
        assert_eq!(r.vars(), VarSet::from_iter(["x", "y", "z"]));
        assert!(Rgx::any_string().vars().is_empty());
    }

    #[test]
    fn literal_builder() {
        assert_eq!(Rgx::literal(""), Rgx::Epsilon);
        assert_eq!(Rgx::literal("a"), Rgx::symbol(b'a'));
        let ab = Rgx::literal("ab");
        assert!(matches!(&ab, Rgx::Concat(p) if p.len() == 2));
    }

    #[test]
    fn size_counts_nodes() {
        let r = Rgx::capture("x", Rgx::concat([Rgx::symbol(b'a'), Rgx::symbol(b'b')]));
        // capture + concat + 2 symbols
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn display_round_trip_shapes() {
        let r = Rgx::concat([
            Rgx::literal("ab"),
            Rgx::capture("x", Rgx::plus(Rgx::Class(ByteClass::ascii_digit()))),
            Rgx::opt(Rgx::symbol(b'!')),
        ]);
        let s = format!("{r}");
        assert!(s.contains("{x:"), "display was {s}");
        assert!(s.starts_with("ab"), "display was {s}");
    }

    #[test]
    fn visit_enumerates_subformulas() {
        let r = Rgx::union([Rgx::symbol(b'a'), Rgx::capture("x", Rgx::symbol(b'b'))]);
        let mut count = 0;
        r.visit(&mut |_| count += 1);
        assert_eq!(count, 4);
    }
}
