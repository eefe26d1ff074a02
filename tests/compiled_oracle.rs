//! The compiled evaluation engine against the configuration-space
//! interpreter: random sequential vset-automata — alone, joined and
//! differenced — and looping formulas through the enumerator, compiled on
//! the fly and ahead of time, the vset join and both Section-4 difference
//! constructions.

mod common;

use common::*;
use document_spanners::prelude::*;
use spanner_core::SpannerResult;
use spanner_enum::evaluate_compiled;
use spanner_vset::CompiledVsa;

fn leaf(case: &Case) -> Option<Vsa> {
    leaf_vsa(case, &case.tree)
}

/// The automata under a binary root.
fn operands(case: &Case) -> Option<(Vsa, Vsa)> {
    let (RaTree::Join(l, r) | RaTree::Difference(l, r)) = &case.tree else {
        return None;
    };
    Some((leaf_vsa(case, l)?, leaf_vsa(case, r)?))
}

#[test]
fn compiled_enumeration_agrees_with_interpreter() {
    let atoms = |seed| [(1 + seed as usize % 3, "v", seed)];
    let cases = (0..100).map(|seed| vsa_case(RaTree::leaf(0), &atoms(seed)));
    let cases = cases.chain(stretch_cases());
    let fly = surface("evaluate", |case| {
        let vsa = leaf(case)?;
        case.each_doc(|doc| evaluate(&vsa, doc).unwrap())
    });
    let precompiled = surface("precompiled", |case| {
        let compiled = CompiledVsa::compile(&leaf(case)?);
        case.each_doc(|doc| evaluate_compiled(&compiled, doc).unwrap())
    });
    check_all(cases, &[interpreter(), fly, precompiled]);
}

#[test]
fn compiled_enumeration_is_duplicate_free() {
    let cases = (0..25).map(|seed| vsa_case(RaTree::leaf(0), &[(2, "v", seed)]));
    let once = surface("enumerator, each mapping once", |case| {
        let compiled = CompiledVsa::compile(&leaf(case)?);
        case.each_doc(|doc| streamed(Enumerator::from_compiled(&compiled, doc)))
    });
    check_all(cases, &[once]);
}

/// Disjoint variables on odd seeds (disjoint-domain joins), shared on even
/// seeds (synchronized joins).
#[test]
fn compiled_join_agrees_with_oracle() {
    let tree = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
    let atoms = |seed: u64| {
        let prefix = ["v", "w"][seed as usize % 2];
        [(1 + seed as usize % 2, "v", seed), (1, prefix, seed + 1000)]
    };
    let cases = (0..25).map(|seed| vsa_case(tree.clone(), &atoms(seed)));
    let joined = surface("vset join", |case| {
        let (a1, a2) = operands(case)?;
        let joined = join(&a1, &a2).unwrap();
        case.each_doc(|doc| evaluate(&joined, doc).unwrap())
    });
    check_all(cases, &[interpreter(), joined]);
}

#[test]
fn compiled_difference_agrees_with_oracle() {
    let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
    let atoms = |seed| [(1 + seed as usize % 2, "v", seed), (1, "v", seed + 500)];
    let cases = (0..25).map(|seed| vsa_case(tree.clone(), &atoms(seed)));
    type Construction = fn(&Vsa, &Vsa, &Document, DifferenceOptions) -> SpannerResult<MappingSet>;
    let product: Construction = difference_product_eval;
    let constructions = [
        ("product construction", product),
        ("ad-hoc construction", difference_adhoc_eval),
    ];
    let mut surfaces = vec![interpreter()];
    surfaces.extend(constructions.map(|(name, eval)| {
        surface(name, move |case| {
            let (a1, a2) = operands(case)?;
            case.each_doc(|doc| eval(&a1, &a2, doc, DifferenceOptions::default()).unwrap())
        })
    }));
    check_all(cases, &surfaces);
}
