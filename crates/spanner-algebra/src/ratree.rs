//! RA trees and extraction complexity (Section 5).
//!
//! An *RA tree* is a logical query plan whose inner nodes are the relational
//! operators (projection, union, natural join, difference) and whose leaves
//! are placeholders for atomic spanners. An [`Instantiation`] assigns an
//! atomic spanner — a regex formula, a vset-automaton, or an arbitrary
//! tractable degree-bounded black box — to every placeholder.
//!
//! The paper's *extraction complexity* regards the RA tree as fixed and takes
//! the instantiation and the document as input. Theorem 5.2 / Corollary 5.3:
//! if every join and difference node shares at most `k` variables between its
//! subtrees, the instantiated tree can be evaluated with polynomial delay.
//! [`evaluate_ra`] lowers the tree onto the physical operator executor
//! ([`crate::exec`]) via [`crate::plan::CompiledPlan`]: positive operators
//! over automaton subtrees are compiled statically (automaton product /
//! union / projection), difference and black-box composition are evaluated
//! at the relation level, with no per-document recomposition. The paper's
//! ad-hoc recipe taken literally — one document-dependent automaton for the
//! whole tree — is `spanner_paper::compile_ra`, the reference this executor
//! is held to.

use crate::spanner::{Spanner, SpannerRef};
use spanner_core::{Document, MappingSet, SpannerError, SpannerResult, VarSet};
use spanner_rgx::Rgx;
use spanner_vset::Vsa;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a leaf placeholder in an RA tree.
pub type LeafId = usize;

/// An RA tree over the operators of Section 2.4 with placeholder leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaTree {
    /// A placeholder for an atomic spanner.
    Leaf(LeafId),
    /// Projection `π_Y`.
    Project(VarSet, Box<RaTree>),
    /// Union.
    Union(Box<RaTree>, Box<RaTree>),
    /// Natural join.
    Join(Box<RaTree>, Box<RaTree>),
    /// Difference.
    Difference(Box<RaTree>, Box<RaTree>),
}

impl RaTree {
    /// A leaf placeholder.
    pub fn leaf(id: LeafId) -> RaTree {
        RaTree::Leaf(id)
    }

    /// `π_vars(child)`.
    pub fn project<V: Into<VarSet>>(vars: V, child: RaTree) -> RaTree {
        RaTree::Project(vars.into(), Box::new(child))
    }

    /// `left ∪ right`.
    pub fn union(left: RaTree, right: RaTree) -> RaTree {
        RaTree::Union(Box::new(left), Box::new(right))
    }

    /// `left ⋈ right`.
    pub fn join(left: RaTree, right: RaTree) -> RaTree {
        RaTree::Join(Box::new(left), Box::new(right))
    }

    /// `left \ right`.
    pub fn difference(left: RaTree, right: RaTree) -> RaTree {
        RaTree::Difference(Box::new(left), Box::new(right))
    }

    /// All placeholder ids occurring in the tree.
    pub fn leaves(&self) -> Vec<LeafId> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<LeafId>) {
        match self {
            RaTree::Leaf(id) => out.push(*id),
            RaTree::Project(_, child) => child.collect_leaves(out),
            RaTree::Union(l, r) | RaTree::Join(l, r) | RaTree::Difference(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }

    /// Renders the tree as an indented multi-line outline, one node per
    /// line, leaves annotated with the atom the instantiation assigns them
    /// (the `explain` output of the query-language front end).
    pub fn describe(&self, inst: &Instantiation) -> String {
        fn node_label(tree: &RaTree, inst: &Instantiation) -> String {
            match tree {
                RaTree::Leaf(id) => match inst.atom(*id) {
                    Some(atom) => format!("?{id} = {}", atom.describe()),
                    None => format!("?{id} (unassigned)"),
                },
                RaTree::Project(vars, _) => {
                    let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                    format!("π{{{}}}", names.join(","))
                }
                RaTree::Union(_, _) => "∪".to_string(),
                RaTree::Join(_, _) => "⋈".to_string(),
                RaTree::Difference(_, _) => "\\".to_string(),
            }
        }
        fn walk(tree: &RaTree, inst: &Instantiation, prefix: &str, out: &mut String) {
            let children: Vec<&RaTree> = match tree {
                RaTree::Leaf(_) => Vec::new(),
                RaTree::Project(_, child) => vec![child],
                RaTree::Union(l, r) | RaTree::Join(l, r) | RaTree::Difference(l, r) => {
                    vec![l, r]
                }
            };
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                out.push('\n');
                out.push_str(prefix);
                out.push_str(if last { "└─ " } else { "├─ " });
                out.push_str(&node_label(child, inst));
                let extended = format!("{prefix}{}", if last { "   " } else { "│  " });
                walk(child, inst, &extended, out);
            }
        }
        let mut out = node_label(self, inst);
        walk(self, inst, "", &mut out);
        out
    }

    /// Number of operator nodes (a size measure).
    pub fn size(&self) -> usize {
        match self {
            RaTree::Leaf(_) => 1,
            RaTree::Project(_, child) => 1 + child.size(),
            RaTree::Union(l, r) | RaTree::Join(l, r) | RaTree::Difference(l, r) => {
                1 + l.size() + r.size()
            }
        }
    }
}

impl fmt::Display for RaTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaTree::Leaf(id) => write!(f, "?{id}"),
            RaTree::Project(vars, child) => {
                write!(f, "π{{")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}({child})")
            }
            RaTree::Union(l, r) => write!(f, "({l} ∪ {r})"),
            RaTree::Join(l, r) => write!(f, "({l} ⋈ {r})"),
            RaTree::Difference(l, r) => write!(f, "({l} \\ {r})"),
        }
    }
}

/// The atomic spanner assigned to a placeholder.
#[derive(Clone)]
pub enum Atom {
    /// A sequential regex formula.
    Rgx(Rgx),
    /// A sequential vset-automaton.
    Vsa(Vsa),
    /// A tractable, degree-bounded black-box spanner (Corollary 5.3).
    BlackBox(SpannerRef),
}

impl Atom {
    /// The declared variables of the atom.
    pub fn vars(&self) -> VarSet {
        match self {
            Atom::Rgx(r) => r.vars(),
            Atom::Vsa(a) => a.vars().clone(),
            Atom::BlackBox(s) => s.vars(),
        }
    }

    /// A short description.
    pub fn describe(&self) -> String {
        match self {
            Atom::Rgx(r) => format!("rgx({r})"),
            Atom::Vsa(a) => format!("vsa({} states)", a.state_count()),
            Atom::BlackBox(s) => format!("blackbox({})", s.name()),
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

impl From<Rgx> for Atom {
    fn from(r: Rgx) -> Self {
        Atom::Rgx(r)
    }
}

impl From<Vsa> for Atom {
    fn from(a: Vsa) -> Self {
        Atom::Vsa(a)
    }
}

/// An instantiation of an RA tree: the assignment of atomic spanners to the
/// placeholders (Figure 2 in the paper).
#[derive(Clone, Debug, Default)]
pub struct Instantiation {
    atoms: BTreeMap<LeafId, Atom>,
}

impl Instantiation {
    /// An empty instantiation.
    pub fn new() -> Self {
        Instantiation::default()
    }

    /// Assigns an atom to a placeholder (builder style).
    pub fn with(mut self, id: LeafId, atom: impl Into<Atom>) -> Self {
        self.atoms.insert(id, atom.into());
        self
    }

    /// Assigns a black-box spanner to a placeholder (builder style).
    pub fn with_black_box(mut self, id: LeafId, spanner: impl Spanner + 'static) -> Self {
        self.atoms.insert(id, Atom::BlackBox(Arc::new(spanner)));
        self
    }

    /// The atom assigned to a placeholder.
    pub fn atom(&self, id: LeafId) -> Option<&Atom> {
        self.atoms.get(&id)
    }

    /// Number of assigned placeholders.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether no placeholder is assigned.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// Options controlling RA-tree evaluation.
#[derive(Debug, Clone, Copy)]
pub struct RaOptions {
    /// Bound on intermediate automaton sizes (the static FPT join product
    /// during plan compilation, and every construction of the reference
    /// pipeline `spanner_paper::compile_ra`).
    pub max_states: usize,
    /// Bound on materialized intermediate relations in the physical
    /// executor (any relation feeding a dynamic operator — a difference's
    /// probe side, a join's build side, union/projection inputs), and on
    /// the Lemma 4.2 signature materialization in `spanner_paper`'s ad-hoc
    /// constructions.
    pub max_signatures: usize,
    /// Run the logical plan optimizer ([`crate::plan::optimize_ra`]) before
    /// compiling. On by default; turn off to evaluate the tree exactly as
    /// written (the differential tests do).
    pub optimize: bool,
    /// Enable the scan-core fast path: every compiled scan checks its
    /// static prefilters (length, anchored prefix, required factors; see
    /// `spanner_vset::scan`) and answers a document they rule out empty
    /// without building its match graph. On by default; semantics-invariant
    /// either way, since the prefilters are sound — turning it off only
    /// sends every document to the backward pass. The oracles use the off
    /// setting as their reference (`tests/scan_fastpath_oracle.rs` runs
    /// both ways).
    pub scan_fast_path: bool,
}

impl Default for RaOptions {
    fn default() -> Self {
        RaOptions {
            max_states: 4_000_000,
            max_signatures: 1_000_000,
            optimize: true,
            scan_fast_path: true,
        }
    }
}

impl RaOptions {
    /// The default options with the plan optimizer disabled.
    pub fn unoptimized() -> Self {
        RaOptions {
            optimize: false,
            ..RaOptions::default()
        }
    }
}

/// The declared variable set of an instantiated subtree (used to compute the
/// shared-variable parameter of Theorem 5.2).
pub fn tree_vars(tree: &RaTree, inst: &Instantiation) -> SpannerResult<VarSet> {
    Ok(match tree {
        RaTree::Leaf(id) => {
            let atom = inst.atom(*id).ok_or_else(|| {
                SpannerError::Instantiation(format!("placeholder ?{id} unassigned"))
            })?;
            atom.vars()
        }
        RaTree::Project(vars, child) => tree_vars(child, inst)?.intersection(vars),
        RaTree::Union(l, r) | RaTree::Join(l, r) => tree_vars(l, inst)?.union(&tree_vars(r, inst)?),
        RaTree::Difference(l, _) => tree_vars(l, inst)?,
    })
}

/// The extraction-complexity parameter of Theorem 5.2: the maximum number of
/// variables shared between the two subtrees of any join or difference node.
pub fn shared_variable_bound(tree: &RaTree, inst: &Instantiation) -> SpannerResult<usize> {
    Ok(match tree {
        RaTree::Leaf(_) => 0,
        RaTree::Project(_, child) => shared_variable_bound(child, inst)?,
        RaTree::Union(l, r) => shared_variable_bound(l, inst)?.max(shared_variable_bound(r, inst)?),
        RaTree::Join(l, r) | RaTree::Difference(l, r) => {
            let here = tree_vars(l, inst)?.intersection(&tree_vars(r, inst)?).len();
            here.max(shared_variable_bound(l, inst)?)
                .max(shared_variable_bound(r, inst)?)
        }
    })
}

/// Looks up the atom assigned to a placeholder.
pub fn resolve_atom(inst: &Instantiation, id: LeafId) -> SpannerResult<&Atom> {
    inst.atom(id)
        .ok_or_else(|| SpannerError::Instantiation(format!("placeholder ?{id} unassigned")))
}

/// Compiles a regex-formula or automaton atom into a (document-independent)
/// automaton, checking sequentiality. Black boxes are rejected — they are
/// inherently document-dependent, and each pipeline incorporates them its
/// own way.
pub fn compile_static_atom(id: LeafId, atom: &Atom) -> SpannerResult<Vsa> {
    match atom {
        Atom::Rgx(r) => {
            if !spanner_rgx::is_sequential(r) {
                return Err(SpannerError::requirement(
                    "sequential",
                    format!("leaf ?{id}: regex formula is not sequential"),
                ));
            }
            Ok(spanner_vset::compile(r))
        }
        Atom::Vsa(a) => {
            if !spanner_vset::is_sequential(a) {
                return Err(SpannerError::requirement(
                    "sequential",
                    format!("leaf ?{id}: automaton is not sequential"),
                ));
            }
            Ok(a.clone())
        }
        Atom::BlackBox(s) => Err(SpannerError::Instantiation(format!(
            "leaf ?{id}: black box `{}` has no static compilation",
            s.name()
        ))),
    }
}

/// Evaluates an instantiated RA tree on a document through the physical
/// operator executor: the tree is optimized (per `options`), its static
/// subtrees are compiled once, and the lowered plan runs on the one
/// evaluation pipeline every other consumer uses
/// ([`crate::plan::CompiledPlan`] / [`crate::exec`]).
///
/// To evaluate the same tree on many documents, compile the plan once with
/// [`crate::plan::CompiledPlan::compile`] (or use `spanner-corpus`) instead
/// of calling this per document.
pub fn evaluate_ra(
    tree: &RaTree,
    inst: &Instantiation,
    doc: &Document,
    options: RaOptions,
) -> SpannerResult<MappingSet> {
    crate::plan::CompiledPlan::compile(tree, inst, options)?.evaluate(doc)
}

/// Builds the RA tree of the paper's Figure 2:
/// `π_{xstdnt}((?0 ⋈ ?1) \ ?2)`.
pub fn figure_2_tree(projected: impl Into<VarSet>) -> RaTree {
    RaTree::project(
        projected,
        RaTree::difference(
            RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(2),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_rgx::parse;

    fn opts() -> RaOptions {
        RaOptions::default()
    }

    #[test]
    fn tree_structure_helpers() {
        let tree = figure_2_tree(VarSet::from_iter(["xstdnt"]));
        assert_eq!(tree.leaves(), vec![0, 1, 2]);
        assert_eq!(tree.size(), 6);
        assert_eq!(format!("{tree}"), "π{xstdnt}(((?0 ⋈ ?1) \\ ?2))");
    }

    #[test]
    fn describe_renders_an_outline() {
        let tree = figure_2_tree(VarSet::from_iter(["student"]));
        let inst = Instantiation::new()
            .with(0, parse("{student:a}{mail:b}").unwrap())
            .with(1, parse("{student:a}{phone:b?}").unwrap());
        let outline = tree.describe(&inst);
        let lines: Vec<&str> = outline.lines().collect();
        assert_eq!(lines[0], "π{student}");
        assert!(lines[1].contains('\\'), "{outline}");
        assert!(
            outline.contains("?0 = rgx({student:a}{mail:b})"),
            "{outline}"
        );
        assert!(outline.contains("?2 (unassigned)"), "{outline}");
    }

    #[test]
    fn missing_placeholder_is_reported() {
        let tree = RaTree::join(RaTree::leaf(0), RaTree::leaf(7));
        let inst = Instantiation::new().with(0, parse("{x:a}").unwrap());
        let doc = Document::new("a");
        assert!(matches!(
            evaluate_ra(&tree, &inst, &doc, opts()),
            Err(SpannerError::Instantiation(_))
        ));
        assert!(tree_vars(&tree, &inst).is_err());
    }

    #[test]
    fn shared_variable_bound_computation() {
        let tree = figure_2_tree(VarSet::from_iter(["student"]));
        let inst = Instantiation::new()
            .with(0, parse(r"{student:\l+}{mail:\l+}").unwrap())
            .with(1, parse(r"{student:\l+}{phone:\d+}").unwrap())
            .with(2, parse(r"{student:\l+}{rec:\l+}").unwrap());
        // Join shares {student}; difference shares {student}.
        assert_eq!(shared_variable_bound(&tree, &inst).unwrap(), 1);

        let wide = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
        let inst2 = Instantiation::new()
            .with(0, parse(r"{a:x}{b:x}{c:x}").unwrap())
            .with(1, parse(r"{a:x}{b:x}{c:x}").unwrap());
        assert_eq!(shared_variable_bound(&wide, &inst2).unwrap(), 3);
    }

    #[test]
    fn non_sequential_atoms_are_rejected() {
        let tree = RaTree::leaf(0);
        let inst = Instantiation::new().with(0, parse("({x:a})*").unwrap());
        let doc = Document::new("aa");
        assert!(matches!(
            evaluate_ra(&tree, &inst, &doc, opts()),
            Err(SpannerError::Requirement { .. })
        ));
    }
}
