//! Materialized relations of mappings and the algebra of Section 2.4.
//!
//! `MappingSet` implements the SPARQL-style operators — union, projection,
//! natural join, and difference — directly on materialized sets of mappings.
//! These definitions *are* the semantics of the paper's algebra; every
//! automaton-level compilation in the workspace is tested against them.

use crate::fxhash::FxHashMap;
use crate::mapping::Mapping;
use crate::span::Span;
use crate::variable::{VarSet, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A finite set of mappings — the result `P(d)` of applying a schemaless
/// spanner `P` to a document `d`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct MappingSet {
    mappings: BTreeSet<Mapping>,
}

impl MappingSet {
    /// The empty relation.
    pub fn new() -> Self {
        MappingSet::default()
    }

    /// A relation containing only the empty mapping (the unit of the join).
    pub fn unit() -> Self {
        let mut s = MappingSet::new();
        s.insert(Mapping::new());
        s
    }

    /// Builds a relation from an iterator of mappings (duplicates removed).
    ///
    /// This is the sorted-vec bulk path: the mappings are collected into a
    /// vector, sorted, and deduplicated, and the ordered set is built from
    /// the sorted run in one pass — much cheaper than per-element ordered
    /// inserts when the input is large (the enumerator and the algebra
    /// operators all materialize through here).
    pub fn from_mappings<I: IntoIterator<Item = Mapping>>(iter: I) -> Self {
        let mut v: Vec<Mapping> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        MappingSet {
            mappings: BTreeSet::from_iter(v),
        }
    }

    /// Inserts a mapping; returns `true` if it was not already present.
    pub fn insert(&mut self, m: Mapping) -> bool {
        self.mappings.insert(m)
    }

    /// Whether the relation contains `m`.
    pub fn contains(&self, m: &Mapping) -> bool {
        self.mappings.contains(m)
    }

    /// Number of mappings in the relation.
    #[inline]
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Iterates over the mappings in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Mapping> + '_ {
        self.mappings.iter()
    }

    /// The union of all mapping domains occurring in the relation.
    pub fn active_domain(&self) -> VarSet {
        let mut out = VarSet::new();
        for m in &self.mappings {
            out = out.union(&m.domain());
        }
        out
    }

    /// The degree of the relation: the maximum cardinality of any mapping
    /// (Section 5 uses the supremum over all documents).
    pub fn degree(&self) -> usize {
        self.mappings.iter().map(Mapping::len).max().unwrap_or(0)
    }

    /// Union: `P₁ ∪ P₂` (set union of the mapping sets).
    pub fn union(&self, other: &MappingSet) -> MappingSet {
        MappingSet {
            mappings: self.mappings.union(&other.mappings).cloned().collect(),
        }
    }

    /// Projection: `π_Y P` restricts every mapping to `Y ∩ dom(µ)`.
    pub fn project(&self, vars: &VarSet) -> MappingSet {
        MappingSet::from_mappings(self.mappings.iter().map(|m| m.restrict(vars)))
    }

    /// Natural join: all unions `µ₁ ∪ µ₂` of compatible pairs.
    ///
    /// When every mapping on both sides binds all the *common* variables
    /// (the schema-based situation, and the common case for compiled join
    /// outputs), this runs as a hash join keyed on the common-variable span
    /// vector — `O(|P₁| + |P₂| + output)` instead of the quadratic
    /// pair scan. Schemaless inputs where some mapping omits a common
    /// variable fall back to the nested-loop evaluation, whose semantics
    /// (missing variables are wildcards) a plain hash key cannot express.
    pub fn join(&self, other: &MappingSet) -> MappingSet {
        let common: Vec<Variable> = self
            .active_domain()
            .intersection(&other.active_domain())
            .to_vec();
        if common.is_empty() {
            // Disjoint active domains: every pair is compatible.
            let mut out = Vec::with_capacity(self.len() * other.len());
            for m1 in &self.mappings {
                for m2 in &other.mappings {
                    out.push(m1.union(m2).expect("disjoint domains are compatible"));
                }
            }
            return MappingSet::from_mappings(out);
        }
        let total = |m: &Mapping| common.iter().all(|v| m.contains(v));
        if self.mappings.iter().all(total) && other.mappings.iter().all(total) {
            let key = |m: &Mapping| -> Vec<Span> {
                common
                    .iter()
                    .map(|v| m.get(v).expect("checked total"))
                    .collect()
            };
            // Build on the smaller side, probe with the larger.
            let (build, probe) = if self.len() <= other.len() {
                (&self.mappings, &other.mappings)
            } else {
                (&other.mappings, &self.mappings)
            };
            let mut buckets: FxHashMap<Vec<Span>, Vec<&Mapping>> = FxHashMap::default();
            for m in build {
                buckets.entry(key(m)).or_default().push(m);
            }
            let mut out = Vec::new();
            for m1 in probe {
                if let Some(matches) = buckets.get(&key(m1)) {
                    for m2 in matches {
                        out.push(m1.union(m2).expect("equal on all common variables"));
                    }
                }
            }
            return MappingSet::from_mappings(out);
        }
        // Schemaless fallback: nested loop with the compatibility predicate.
        let mut out = Vec::new();
        for m1 in &self.mappings {
            for m2 in &other.mappings {
                if let Some(u) = m1.union(m2) {
                    out.push(u);
                }
            }
        }
        MappingSet::from_mappings(out)
    }

    /// Difference: mappings of `self` that are **incompatible with every**
    /// mapping of `other` (the SPARQL-style `MINUS`; Section 2.4).
    ///
    /// Note that this is *not* set difference: a mapping `µ₁` is removed as
    /// soon as some `µ₂ ∈ other` is compatible with it — in particular any
    /// `µ₂` with a disjoint domain removes it.
    ///
    /// This is the deliberately naive oracle; the physical executor runs
    /// the same semantics as a hashed anti-join.
    pub fn difference(&self, other: &MappingSet) -> MappingSet {
        MappingSet::from_mappings(
            self.mappings
                .iter()
                .filter(|m1| !other.mappings.iter().any(|m2| m1.is_compatible_with(m2)))
                .cloned(),
        )
    }

    /// A [`MappingSetBuilder`] accumulating mappings for one bulk
    /// sort-and-dedup build (the shape every executor operator materializes
    /// through).
    pub fn builder() -> MappingSetBuilder {
        MappingSetBuilder::default()
    }

    /// Returns the mappings as a vector in deterministic order.
    pub fn to_vec(&self) -> Vec<Mapping> {
        self.mappings.iter().cloned().collect()
    }
}

/// An incremental [`MappingSet`] accumulator: operators push mappings as
/// they produce them and pay the sort-and-dedup exactly once at
/// [`MappingSetBuilder::finish`] (the same bulk path as
/// [`MappingSet::from_mappings`], without forcing producers through an
/// iterator shape).
#[derive(Debug, Default, Clone)]
pub struct MappingSetBuilder {
    mappings: Vec<Mapping>,
}

impl MappingSetBuilder {
    /// Appends one mapping (duplicates are removed at build time).
    pub fn push(&mut self, m: Mapping) {
        self.mappings.push(m);
    }

    /// Number of mappings accumulated so far (duplicates still counted).
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Builds the deduplicated relation.
    pub fn finish(self) -> MappingSet {
        MappingSet::from_mappings(self.mappings)
    }
}

impl Extend<Mapping> for MappingSetBuilder {
    fn extend<I: IntoIterator<Item = Mapping>>(&mut self, iter: I) {
        self.mappings.extend(iter);
    }
}

impl fmt::Debug for MappingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.mappings.iter()).finish()
    }
}

impl FromIterator<Mapping> for MappingSet {
    fn from_iter<I: IntoIterator<Item = Mapping>>(iter: I) -> Self {
        MappingSet::from_mappings(iter)
    }
}

impl<'a> IntoIterator for &'a MappingSet {
    type Item = &'a Mapping;
    type IntoIter = std::collections::btree_set::Iter<'a, Mapping>;
    fn into_iter(self) -> Self::IntoIter {
        self.mappings.iter()
    }
}

impl IntoIterator for MappingSet {
    type Item = Mapping;
    type IntoIter = std::collections::btree_set::IntoIter<Mapping>;
    fn into_iter(self) -> Self::IntoIter {
        self.mappings.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    fn sp(a: u32, b: u32) -> Span {
        Span::new(a, b)
    }

    fn m(pairs: &[(&str, (u32, u32))]) -> Mapping {
        Mapping::from_pairs(pairs.iter().map(|(v, (a, b))| (*v, sp(*a, *b))))
    }

    #[test]
    fn insert_and_dedup() {
        let mut s = MappingSet::new();
        assert!(s.insert(m(&[("x", (1, 2))])));
        assert!(!s.insert(m(&[("x", (1, 2))])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_is_set_union() {
        let a = MappingSet::from_mappings([m(&[("x", (1, 2))]), m(&[("x", (2, 3))])]);
        let b = MappingSet::from_mappings([m(&[("x", (2, 3))]), m(&[("y", (1, 1))])]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn projection_restricts_domains() {
        let a =
            MappingSet::from_mappings([m(&[("x", (1, 2)), ("y", (2, 3))]), m(&[("y", (1, 1))])]);
        let p = a.project(&VarSet::from_iter(["x"]));
        // The second mapping becomes the empty mapping.
        assert_eq!(p.len(), 2);
        assert!(p.contains(&m(&[("x", (1, 2))])));
        assert!(p.contains(&Mapping::new()));
    }

    #[test]
    fn join_combines_compatible_mappings() {
        let a =
            MappingSet::from_mappings([m(&[("x", (1, 2)), ("y", (2, 3))]), m(&[("x", (1, 3))])]);
        let b =
            MappingSet::from_mappings([m(&[("y", (2, 3)), ("z", (3, 3))]), m(&[("y", (1, 2))])]);
        let j = a.join(&b);
        // (x,y) joins with (y,z) on equal y; (x,y) with y=[2,3⟩ does not join
        // with y=[1,2⟩; (x) joins with both b-mappings (no common vars).
        assert!(j.contains(&m(&[("x", (1, 2)), ("y", (2, 3)), ("z", (3, 3))])));
        assert!(j.contains(&m(&[("x", (1, 3)), ("y", (2, 3)), ("z", (3, 3))])));
        assert!(j.contains(&m(&[("x", (1, 3)), ("y", (1, 2))])));
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn join_with_unit_is_identity() {
        let a = MappingSet::from_mappings([m(&[("x", (1, 2))]), m(&[("y", (2, 2))])]);
        assert_eq!(a.join(&MappingSet::unit()), a);
        assert_eq!(MappingSet::unit().join(&a), a);
        assert!(a.join(&MappingSet::new()).is_empty());
    }

    #[test]
    fn difference_uses_compatibility_not_equality() {
        // µ1 with domain {x} is compatible with µ2 with domain {y}
        // (disjoint domains), so it is removed — this is the subtlety the
        // paper highlights at the start of the Lemma 4.2 proof.
        let a = MappingSet::from_mappings([m(&[("x", (1, 2))])]);
        let b = MappingSet::from_mappings([m(&[("y", (5, 6))])]);
        assert!(a.difference(&b).is_empty());

        // But an incompatible mapping survives.
        let c = MappingSet::from_mappings([m(&[("x", (2, 3))])]);
        assert_eq!(a.difference(&c), a);

        // Difference against the empty relation is the identity.
        assert_eq!(a.difference(&MappingSet::new()), a);

        // Anything minus a relation containing the empty mapping is empty
        // (the empty mapping is compatible with everything).
        assert!(a.difference(&MappingSet::unit()).is_empty());
    }

    #[test]
    fn set_minus_differs_from_difference() {
        let a = MappingSet::from_mappings([m(&[("x", (1, 2))])]);
        let b = MappingSet::from_mappings([m(&[("y", (5, 6))])]);
        // No mapping of `a` is in `b`, so a plain set difference keeps all
        // of `a`; the paper's difference removes it (disjoint domains are
        // compatible).
        assert!(a.iter().all(|m| !b.contains(m)));
        assert!(a.difference(&b).is_empty());
    }

    #[test]
    fn active_domain_and_degree() {
        let a = MappingSet::from_mappings([
            m(&[("x", (1, 2)), ("y", (2, 3))]),
            m(&[("z", (1, 1))]),
            Mapping::new(),
        ]);
        assert_eq!(a.active_domain(), VarSet::from_iter(["x", "y", "z"]));
        assert_eq!(a.degree(), 2);
        assert_eq!(MappingSet::new().degree(), 0);
    }

    #[test]
    fn hash_join_and_nested_loop_agree() {
        // Total over the common variable {y}: exercises the hash-join path.
        let a = MappingSet::from_mappings([
            m(&[("x", (1, 2)), ("y", (2, 3))]),
            m(&[("x", (1, 3)), ("y", (3, 4))]),
        ]);
        let b = MappingSet::from_mappings([
            m(&[("y", (2, 3)), ("z", (3, 3))]),
            m(&[("y", (9, 9)), ("z", (1, 1))]),
        ]);
        let j = a.join(&b);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&m(&[("x", (1, 2)), ("y", (2, 3)), ("z", (3, 3))])));

        // A mapping missing the common variable forces the schemaless
        // fallback; it joins with everything on the other side.
        let c = MappingSet::from_mappings([
            m(&[("y", (2, 3))]),
            m(&[("z", (1, 1))]), // no y: compatible with both a-mappings
        ]);
        let j2 = a.join(&c);
        assert_eq!(j2.len(), 3);
    }

    #[test]
    fn builder_deduplicates_on_finish() {
        let mut b = MappingSet::builder();
        assert!(b.is_empty());
        b.push(m(&[("x", (1, 2))]));
        b.push(m(&[("x", (1, 2))]));
        b.extend([m(&[("y", (3, 4))])]);
        assert_eq!(b.len(), 3);
        let set = b.finish();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&m(&[("x", (1, 2))])));
    }

    #[test]
    fn join_is_commutative_and_associative_on_samples() {
        let a =
            MappingSet::from_mappings([m(&[("x", (1, 2))]), m(&[("x", (2, 3)), ("y", (1, 1))])]);
        let b = MappingSet::from_mappings([m(&[("y", (1, 1))]), m(&[("z", (3, 4))])]);
        let c = MappingSet::from_mappings([m(&[("x", (1, 2)), ("z", (3, 4))])]);
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }
}
