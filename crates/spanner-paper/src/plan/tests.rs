//! `spanner_algebra::plan` against the materialized oracle: the cases of that
//! module's unit tests that need [`evaluate_ra_materialized`] (the optimizer
//! preserves the semantics; compiled plans compute it).

use crate::blackbox::TokenizerSpanner;
use crate::ratree::evaluate_ra_materialized;
use spanner_algebra::{
    optimize_ra, shared_variable_bound, tree_vars, CompiledPlan, Instantiation, RaOptions, RaTree,
};
use spanner_core::{Document, VarSet};
use spanner_rgx::parse;

#[test]
fn projection_is_pushed_below_union_and_join() {
    // π_{x}((?0 ∪ ?1) ⋈ ?2): the projection must sink below the union
    // operands and into the join, keeping the join variable x.
    let tree = RaTree::project(
        VarSet::from_iter(["x"]),
        RaTree::join(
            RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(2),
        ),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a}{y:b?}").unwrap())
        .with(1, parse("{x:b}{z:a?}").unwrap())
        .with(2, parse("{x:a|b}{w:b*}").unwrap());
    let optimized = optimize_ra(&tree, &inst).unwrap();
    // y, z, w are gone before the join: every leaf sits under its own
    // minimal projection π_{x}, below the join.
    fn leaves_projected_below_join(tree: &RaTree, below_join: bool) -> bool {
        match tree {
            RaTree::Project(keep, child) if matches!(child.as_ref(), RaTree::Leaf(_)) => {
                below_join && *keep == VarSet::from_iter(["x"])
            }
            RaTree::Leaf(_) => false,
            RaTree::Project(_, child) => leaves_projected_below_join(child, below_join),
            RaTree::Join(l, r) => {
                leaves_projected_below_join(l, true) && leaves_projected_below_join(r, true)
            }
            RaTree::Union(l, r) | RaTree::Difference(l, r) => {
                leaves_projected_below_join(l, below_join)
                    && leaves_projected_below_join(r, below_join)
            }
        }
    }
    assert!(
        leaves_projected_below_join(&optimized, false),
        "{optimized}"
    );
    assert_eq!(
        tree_vars(&optimized, &inst).unwrap(),
        VarSet::from_iter(["x"])
    );
    let doc = Document::new("ab");
    assert_eq!(
        evaluate_ra_materialized(&optimized, &inst, &doc).unwrap(),
        evaluate_ra_materialized(&tree, &inst, &doc).unwrap()
    );
}

#[test]
fn commuted_duplicate_union_operands_collapse() {
    // ((?0 ∪ ?1) ⋈ ?2) ∪ ((?1 ∪ ?0) ⋈ ?2): the two join operands are the
    // same subtree modulo the order of the nested union. Canonical union
    // operand ordering makes them syntactically equal, so the n-ary
    // union dedup collapses them.
    let j1 = RaTree::join(
        RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
        RaTree::leaf(2),
    );
    let j2 = RaTree::join(
        RaTree::union(RaTree::leaf(1), RaTree::leaf(0)),
        RaTree::leaf(2),
    );
    let tree = RaTree::union(j1, j2);
    let inst = Instantiation::new()
        .with(0, parse("{x:a}b*").unwrap())
        .with(1, parse("{x:b+}").unwrap())
        .with(2, parse("{x:a|b+}{y:b*}").unwrap());
    let optimized = optimize_ra(&tree, &inst).unwrap();
    assert_eq!(
        optimized.leaves().len(),
        3,
        "commuted duplicate must collapse: {optimized}"
    );
    assert_eq!(optimized, optimize_ra(&optimized, &inst).unwrap());
    for text in ["ab", "b", "a", "abb", ""] {
        let doc = Document::new(text);
        assert_eq!(
            evaluate_ra_materialized(&optimized, &inst, &doc).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "text {text:?}"
        );
    }
}

#[test]
fn join_chain_is_reordered_to_lower_the_bound() {
    // (?0{x} ⋈ ?1{y}) ⋈ ?2{x,y}: as written the root join shares
    // {x, y} (bound 2); joining ?2 second keeps every step at 1.
    let tree = RaTree::join(
        RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
        RaTree::leaf(2),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a}b*").unwrap())
        .with(1, parse("a{y:b+}").unwrap())
        .with(2, parse("{x:a}{y:b+}").unwrap());
    assert_eq!(shared_variable_bound(&tree, &inst).unwrap(), 2);
    let optimized = optimize_ra(&tree, &inst).unwrap();
    assert_eq!(
        shared_variable_bound(&optimized, &inst).unwrap(),
        1,
        "{optimized}"
    );
    for text in ["ab", "abb", "a", ""] {
        let doc = Document::new(text);
        assert_eq!(
            evaluate_ra_materialized(&optimized, &inst, &doc).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "text {text:?}"
        );
    }
}

#[test]
fn static_tree_compiles_to_static_plan() {
    let tree = RaTree::project(
        VarSet::from_iter(["x"]),
        RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a+}{y:b*}").unwrap())
        .with(1, parse("{y:a*}{x:b+}").unwrap());
    let plan = CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap();
    assert!(plan.is_static());
    for text in ["ab", "aab", "b", "a", ""] {
        let doc = Document::new(text);
        assert_eq!(
            plan.evaluate(&doc).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "text {text:?}"
        );
    }
}

#[test]
fn dynamic_plan_reuses_static_subtrees() {
    // (?0 ⋈ ?1) \ ?2 with a black-box ?2: the join is static, the
    // difference is per-document.
    let tree = RaTree::difference(
        RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
        RaTree::leaf(2),
    );
    let inst = Instantiation::new()
        .with(
            0,
            parse(r".* {t:\l+} .*|{t:\l+} .*|.* {t:\l+}|{t:\l+}").unwrap(),
        )
        .with(1, parse(r".*{t:\l+}.*").unwrap())
        .with_black_box(2, TokenizerSpanner::new("t"));
    let plan = CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap();
    assert!(!plan.is_static());
    for text in ["alpha beta", "x", ""] {
        let doc = Document::new(text);
        assert_eq!(
            plan.evaluate(&doc).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "text {text:?}"
        );
    }
}
