//! `spanner_algebra::exec` against the materialized oracle: the case of that
//! module's unit tests that needs [`evaluate_ra_materialized`].

use crate::ratree::evaluate_ra_materialized;
use spanner_algebra::{CompiledPlan, Instantiation, PhysOp, PhysicalPlan, RaOptions, RaTree};
use spanner_core::Document;
use spanner_rgx::parse;

fn lower(tree: &RaTree, inst: &Instantiation) -> PhysicalPlan {
    let plan = CompiledPlan::prepare(tree, inst, RaOptions::default()).unwrap();
    plan.physical().clone()
}

fn is_fully_compiled(physical: &PhysicalPlan) -> bool {
    matches!(physical.root(), PhysOp::CompiledScan { .. })
}

#[test]
fn difference_lowers_to_anti_join_over_compiled_scans() {
    let tree = RaTree::difference(
        RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
        RaTree::leaf(2),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a+}b*").unwrap())
        .with(1, parse("{x:a+}{y:b*}").unwrap())
        .with(2, parse("{x:a}b").unwrap());
    let physical = lower(&tree, &inst);
    assert!(!is_fully_compiled(&physical));
    // The static join collapsed into one compiled scan; the difference
    // is a physical anti-join over two scans, not a recomposed Vsa.
    assert_eq!(physical.root().operator_count(), 3);
    let outline = physical.describe();
    assert!(outline.starts_with("Difference(anti-join)"), "{outline}");
    assert_eq!(outline.matches("CompiledScan(").count(), 2, "{outline}");
    for text in ["ab", "aab", "a", ""] {
        let doc = Document::new(text);
        assert_eq!(
            physical.execute(&doc).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "text {text:?}"
        );
    }
}
