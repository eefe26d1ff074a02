//! RA trees by the paper's recipe, and by definition (Section 5).
//!
//! [`compile_ra`] implements the ad-hoc recipe of Theorem 5.2 /
//! Corollary 5.3 literally: positive operators are compiled statically
//! (automaton product / union / projection), the difference and black-box
//! leaves use ad-hoc (document-dependent) compilation, and the final
//! automaton is enumerated with the polynomial-delay enumerator. It is a
//! construction, not an evaluation path: what serves is
//! `spanner_algebra::evaluate_ra`, which keeps the static compilation but
//! evaluates difference and black-box composition at the relation level.
//! [`evaluate_ra_materialized`] is the semantics itself — every node
//! materialized, node by node — and the oracle both are held to.

use crate::adhoc::mapping_set_to_vsa;
use crate::difference::{difference_product, DifferenceOptions};
use spanner_algebra::ratree::{compile_static_atom, resolve_atom};
use spanner_algebra::{optimize_ra, Atom, Instantiation, RaOptions, RaTree};
use spanner_core::{Document, MappingSet, SpannerResult};
use spanner_vset::{join, Vsa};

/// Compiles an instantiated RA tree into an **ad-hoc** sequential VA for the
/// given document (Theorem 5.2 / Corollary 5.3) and returns it.
///
/// Positive operators over automaton subtrees are compiled statically (the
/// same construction would be valid for every document); difference nodes and
/// black-box leaves force the compilation to become document-dependent.
/// Its products are bounded by the constructions' own defaults
/// ([`join::JoinOptions`], [`DifferenceOptions`]); `options` contributes
/// the optimizer switch and the signature bound.
pub fn compile_ra(
    tree: &RaTree,
    inst: &Instantiation,
    doc: &Document,
    options: RaOptions,
) -> SpannerResult<Vsa> {
    if options.optimize {
        let optimized = optimize_ra(tree, inst)?;
        return compile_ra_node(&optimized, inst, doc, options);
    }
    compile_ra_node(tree, inst, doc, options)
}

/// [`compile_ra`] without the optimizer pass (the recursive worker).
fn compile_ra_node(
    tree: &RaTree,
    inst: &Instantiation,
    doc: &Document,
    options: RaOptions,
) -> SpannerResult<Vsa> {
    let diff_options = DifferenceOptions {
        max_signatures: options.max_signatures,
        ..DifferenceOptions::default()
    };
    Ok(match tree {
        RaTree::Leaf(id) => match resolve_atom(inst, *id)? {
            Atom::BlackBox(s) => {
                // Ad-hoc incorporation of a black box: evaluate it on the
                // document and compile the relation into a path automaton.
                let relation = s.eval(doc)?;
                mapping_set_to_vsa(&relation, doc)?
            }
            atom => compile_static_atom(*id, atom)?,
        },
        RaTree::Project(vars, child) => compile_ra_node(child, inst, doc, options)?.project(vars),
        RaTree::Union(l, r) => {
            let left = compile_ra_node(l, inst, doc, options)?;
            let right = compile_ra_node(r, inst, doc, options)?;
            left.union(&right)
        }
        RaTree::Join(l, r) => {
            let left = compile_ra_node(l, inst, doc, options)?;
            let right = compile_ra_node(r, inst, doc, options)?;
            join::join(&left, &right)?
        }
        RaTree::Difference(l, r) => {
            let left = compile_ra_node(l, inst, doc, options)?;
            let right = compile_ra_node(r, inst, doc, options)?;
            difference_product(&left, &right, doc, diff_options)?
        }
    })
}

/// Evaluates an instantiated RA tree by materializing every node — the
/// semantic oracle for `spanner_algebra::evaluate_ra` (exponential in the
/// worst case).
pub fn evaluate_ra_materialized(
    tree: &RaTree,
    inst: &Instantiation,
    doc: &Document,
) -> SpannerResult<MappingSet> {
    Ok(match tree {
        RaTree::Leaf(id) => match resolve_atom(inst, *id)? {
            Atom::Rgx(r) => spanner_enum::evaluate_rgx(r, doc)?,
            Atom::Vsa(a) => spanner_enum::evaluate(a, doc)?,
            Atom::BlackBox(s) => s.eval(doc)?,
        },
        RaTree::Project(vars, child) => evaluate_ra_materialized(child, inst, doc)?.project(vars),
        RaTree::Union(l, r) => {
            evaluate_ra_materialized(l, inst, doc)?.union(&evaluate_ra_materialized(r, inst, doc)?)
        }
        RaTree::Join(l, r) => {
            evaluate_ra_materialized(l, inst, doc)?.join(&evaluate_ra_materialized(r, inst, doc)?)
        }
        RaTree::Difference(l, r) => evaluate_ra_materialized(l, inst, doc)?
            .difference(&evaluate_ra_materialized(r, inst, doc)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::{SentimentSpanner, TokenizerSpanner};
    use spanner_algebra::{evaluate_ra, figure_2_tree};
    use spanner_core::VarSet;
    use spanner_rgx::parse;

    fn opts() -> RaOptions {
        RaOptions::default()
    }

    /// Ad-hoc pipeline and materialized oracle must agree.
    fn check(tree: &RaTree, inst: &Instantiation, texts: &[&str]) {
        for text in texts {
            let doc = Document::new(*text);
            let expected = evaluate_ra_materialized(tree, inst, &doc).unwrap();
            let actual = evaluate_ra(tree, inst, &doc, opts()).unwrap();
            assert_eq!(actual, expected, "mismatch on {text:?} for {tree}");
        }
    }

    #[test]
    fn positive_tree_over_regex_formulas() {
        // (emails ⋈ names) ∪ phones, projected.
        let tree = RaTree::project(
            VarSet::from_iter(["name", "mail", "phone"]),
            RaTree::union(
                RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
                RaTree::leaf(2),
            ),
        );
        let inst = Instantiation::new()
            .with(0, parse(r".*{name:\u\l+} {mail:\l+@\l+}.*").unwrap())
            .with(1, parse(r".*{name:\u\l+}.*").unwrap())
            .with(2, parse(r".*{phone:\d\d\d}.*").unwrap());
        check(&tree, &inst, &["Bob bob@edu 123", "Ann x@y", "42"]);
    }

    #[test]
    fn figure_2_query_with_regex_atoms() {
        // π_{student}((mail ⋈ phone) \ recommended)
        let tree = figure_2_tree(VarSet::from_iter(["student"]));
        let inst = Instantiation::new()
            .with(0, parse(r".*{student:\u\l+} mail:{mail:\l+}.*").unwrap())
            .with(
                1,
                parse(r".*{student:\u\l+} .*phone:{phone:\d+}.*").unwrap(),
            )
            .with(2, parse(r".*{student:\u\l+} .*rec:{rec:\l+}.*").unwrap());
        check(
            &tree,
            &inst,
            &[
                "Bob mail:b phone:1 rec:good",
                "Ann mail:a phone:2",
                "Cid mail:c phone:3 rec:fine Ann mail:a phone:2",
            ],
        );
    }

    #[test]
    fn black_box_leaf_via_adhoc_compilation() {
        // Tokens that are not "student names" (difference with a black box on
        // the right), Corollary 5.3 style.
        let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(
                0,
                parse(r".* {tok:\l+} .*|{tok:\l+} .*|.* {tok:\l+}|{tok:\l+}").unwrap(),
            )
            .with_black_box(1, SentimentSpanner::new("tok", "rest", ["good"]));
        check(&tree, &inst, &["alpha beta", "good beta", "x good y"]);
    }

    #[test]
    fn black_box_tokenizer_join() {
        // Join a tokenizer black box with a regex that extracts the token
        // right after a marker word.
        let tree = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with_black_box(0, TokenizerSpanner::new("t"))
            .with(1, parse(r".*important {t:\w+}.*").unwrap());
        check(
            &tree,
            &inst,
            &["this is important stuff here", "important x"],
        );
    }

    #[test]
    fn projection_and_union_compose() {
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}{y:b*}").unwrap())
            .with(1, parse("{y:a*}{x:b+}").unwrap());
        check(&tree, &inst, &["ab", "aab", "b", "a", ""]);
    }
}
