//! Mappings: partial assignments of spans to variables.

use crate::interner::VarId;
use crate::span::Span;
use crate::variable::{VarSet, Variable};
use std::fmt;

/// A mapping `µ` to a document: a function from a finite set of variables
/// (its *domain*) to spans of the document.
///
/// This is the schemaless notion of Maturana et al.: different mappings
/// produced by the same spanner may have different domains. The schema-based
/// spanners of Fagin et al. are the special case where all mappings share the
/// same domain.
///
/// # Representation
///
/// The assignments are stored as a flat vector sorted by interned [`VarId`]
/// — the compiled-evaluation layout. Lookups are `u32` binary searches,
/// compatibility checks and unions are linear merges over ids, and cloning
/// is a single allocation. [`Mapping::iter`] therefore yields pairs in *id*
/// order, which is deterministic within a process but not across runs; the
/// `Debug`/`Display` rendering sorts by name so printed output is stable.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Mapping {
    /// `(variable, span)` pairs sorted by `variable.id()`, no duplicate ids.
    pairs: Vec<(Variable, Span)>,
}

impl Mapping {
    /// The empty mapping (empty domain).
    pub fn new() -> Self {
        Mapping::default()
    }

    /// Builds a mapping from `(variable, span)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the same variable appears twice with different spans.
    pub fn from_pairs<I, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (V, Span)>,
        V: Into<Variable>,
    {
        let mut pairs: Vec<(Variable, Span)> =
            pairs.into_iter().map(|(v, s)| (v.into(), s)).collect();
        pairs.sort_unstable_by_key(|(v, _)| v.id());
        pairs.dedup_by(|(dup, s2), (v1, s1)| {
            if v1.id() == dup.id() {
                assert_eq!(
                    s1, s2,
                    "variable {v1} assigned two different spans ({s1} and {s2})"
                );
                true
            } else {
                false
            }
        });
        Mapping { pairs }
    }

    /// Position of `id` in the sorted pair vector.
    #[inline]
    fn search(&self, id: VarId) -> Result<usize, usize> {
        self.pairs.binary_search_by_key(&id, |(v, _)| v.id())
    }

    /// The domain `dom(µ)` of the mapping.
    pub fn domain(&self) -> VarSet {
        self.pairs.iter().map(|(v, _)| v.clone()).collect()
    }

    /// The span assigned to `v`, if `v ∈ dom(µ)`.
    #[inline]
    pub fn get(&self, v: &Variable) -> Option<Span> {
        self.search(v.id()).ok().map(|i| self.pairs[i].1)
    }

    /// Whether `v ∈ dom(µ)`.
    #[inline]
    pub fn contains(&self, v: &Variable) -> bool {
        self.search(v.id()).is_ok()
    }

    /// Number of variables in the domain (the mapping's *cardinality*; the
    /// maximum over all documents is the spanner's *degree*, Section 5).
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the domain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Assigns `span` to `v`. Returns the previously assigned span, if any.
    pub fn insert(&mut self, v: impl Into<Variable>, span: Span) -> Option<Span> {
        let v = v.into();
        match self.search(v.id()) {
            Ok(i) => Some(std::mem::replace(&mut self.pairs[i].1, span)),
            Err(i) => {
                self.pairs.insert(i, (v, span));
                None
            }
        }
    }

    /// Removes `v` from the domain.
    pub fn remove(&mut self, v: &Variable) -> Option<Span> {
        match self.search(v.id()) {
            Ok(i) => Some(self.pairs.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterates over `(variable, span)` pairs in interned-id order (see the
    /// type-level docs; sort by name if you need lexicographic order).
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, Span)> + '_ {
        self.pairs.iter().map(|(v, s)| (v, *s))
    }

    /// Two mappings are *compatible* if they agree on every common variable
    /// (Section 2.4). Linear merge over the id-sorted pair vectors.
    pub fn is_compatible_with(&self, other: &Mapping) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.pairs.len() && j < other.pairs.len() {
            let (v1, s1) = &self.pairs[i];
            let (v2, s2) = &other.pairs[j];
            match v1.id().cmp(&v2.id()) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if s1 != s2 {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// The union `µ1 ∪ µ2` of two compatible mappings.
    ///
    /// Returns `None` if the mappings are incompatible.
    pub fn union(&self, other: &Mapping) -> Option<Mapping> {
        let mut out = Vec::with_capacity(self.pairs.len() + other.pairs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.pairs.len() && j < other.pairs.len() {
            let (v1, s1) = &self.pairs[i];
            let (v2, s2) = &other.pairs[j];
            match v1.id().cmp(&v2.id()) {
                std::cmp::Ordering::Less => {
                    out.push(self.pairs[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.pairs[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if s1 != s2 {
                        return None;
                    }
                    out.push(self.pairs[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.pairs[i..]);
        out.extend_from_slice(&other.pairs[j..]);
        Some(Mapping { pairs: out })
    }

    /// The restriction `µ ↾ Y` of the mapping to the variables in `Y`
    /// (the projection operator of Section 2.4 applies this to every mapping).
    pub fn restrict(&self, vars: &VarSet) -> Mapping {
        Mapping {
            pairs: self
                .pairs
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .cloned()
                .collect(),
        }
    }
}

impl PartialOrd for Mapping {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mapping {
    /// A total order over mappings, used for deterministic (within one
    /// process) set iteration: lexicographic over the id-sorted pair
    /// vectors, comparing variables by id.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let lhs = self.pairs.iter().map(|(v, s)| (v.id(), *s));
        let rhs = other.pairs.iter().map(|(v, s)| (v.id(), *s));
        lhs.cmp(rhs)
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Sort by name so debug output is stable across runs.
        let mut pairs: Vec<&(Variable, Span)> = self.pairs.iter().collect();
        pairs.sort_by(|(v1, _), (v2, _)| v1.cmp(v2));
        write!(f, "{{")?;
        for (i, (v, s)) in pairs.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {s}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl<V: Into<Variable>> FromIterator<(V, Span)> for Mapping {
    fn from_iter<I: IntoIterator<Item = (V, Span)>>(iter: I) -> Self {
        Mapping::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::var;

    fn sp(a: u32, b: u32) -> Span {
        Span::new(a, b)
    }

    #[test]
    fn construction_and_access() {
        let m = Mapping::from_pairs([("x", sp(1, 3)), ("y", sp(3, 5))]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&var("x")), Some(sp(1, 3)));
        assert_eq!(m.get(&var("z")), None);
        assert_eq!(m.domain(), VarSet::from_iter(["x", "y"]));
        assert!(!m.is_empty());
        assert_eq!(format!("{m:?}"), "{x ↦ [1, 3⟩, y ↦ [3, 5⟩}");
    }

    #[test]
    fn pairs_are_sorted_by_id() {
        let m = Mapping::from_pairs([("mz", sp(1, 2)), ("ma", sp(2, 3)), ("mk", sp(3, 4))]);
        let ids: Vec<u32> = m.iter().map(|(v, _)| v.id().0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut m = Mapping::new();
        assert_eq!(m.insert("b", sp(1, 2)), None);
        assert_eq!(m.insert("a", sp(2, 3)), None);
        assert_eq!(m.insert("b", sp(4, 5)), Some(sp(1, 2)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&var("a")), Some(sp(2, 3)));
        assert_eq!(m.remove(&var("a")), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn compatibility_follows_sparql_semantics() {
        let m1 = Mapping::from_pairs([("x", sp(1, 3)), ("y", sp(3, 5))]);
        let m2 = Mapping::from_pairs([("y", sp(3, 5)), ("z", sp(5, 6))]);
        let m3 = Mapping::from_pairs([("y", sp(4, 5))]);
        // Disjoint-domain mappings are always compatible.
        let m4 = Mapping::from_pairs([("w", sp(1, 1))]);
        assert!(m1.is_compatible_with(&m2));
        assert!(!m1.is_compatible_with(&m3));
        assert!(m1.is_compatible_with(&m4));
        assert!(Mapping::new().is_compatible_with(&m1));
    }

    #[test]
    fn union_of_compatible_mappings() {
        let m1 = Mapping::from_pairs([("x", sp(1, 3))]);
        let m2 = Mapping::from_pairs([("y", sp(3, 5))]);
        let u = m1.union(&m2).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.get(&var("x")), Some(sp(1, 3)));
        assert_eq!(u.get(&var("y")), Some(sp(3, 5)));

        let m3 = Mapping::from_pairs([("x", sp(2, 3))]);
        assert!(m1.union(&m3).is_none());

        // Union with overlap keeps one copy.
        let m4 = Mapping::from_pairs([("x", sp(1, 3)), ("y", sp(3, 5))]);
        let u2 = m4.union(&m1).unwrap();
        assert_eq!(u2, m4);
    }

    #[test]
    fn restriction() {
        let m = Mapping::from_pairs([("x", sp(1, 3)), ("y", sp(3, 5)), ("z", sp(5, 5))]);
        let r = m.restrict(&VarSet::from_iter(["x", "z", "unused"]));
        assert_eq!(r.domain(), VarSet::from_iter(["x", "z"]));
        assert_eq!(r.get(&var("z")), Some(sp(5, 5)));
    }

    #[test]
    fn empty_span_positions_matter() {
        // The paper: [i, i⟩ and [j, j⟩ are different objects even though the
        // substrings are both empty.
        let m1 = Mapping::from_pairs([("x", Span::empty(2))]);
        let m2 = Mapping::from_pairs([("x", Span::empty(3))]);
        assert!(!m1.is_compatible_with(&m2));
        assert_ne!(m1, m2);
    }

    #[test]
    fn ordering_is_total_and_consistent_with_equality() {
        let a = Mapping::from_pairs([("x", sp(1, 2))]);
        let b = Mapping::from_pairs([("x", sp(1, 2))]);
        let c = Mapping::from_pairs([("x", sp(1, 3))]);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_ne!(a.cmp(&c), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&c), c.cmp(&a).reverse());
    }

    #[test]
    #[should_panic(expected = "two different spans")]
    fn conflicting_pairs_panic() {
        let _ = Mapping::from_pairs([("x", sp(1, 2)), ("x", sp(1, 3))]);
    }
}
