//! Cross-crate integration tests: every compiled evaluation pipeline must
//! agree with the materialized reference semantics.

use document_spanners::prelude::*;
use spanner_core::MappingSet;
use spanner_paper::{
    assemble_disjunction, evaluate_ra_materialized, interpret, join_disjunctive_functional,
    mapping_set_to_vsa, to_disjunctive_functional,
};

/// A pool of schemaless extractors exercising optional fields, shared
/// variables, classes, stars and unions.
fn patterns() -> Vec<&'static str> {
    vec![
        r"{x:a*}b",
        r"({x:a})?{y:b+}",
        r".*{x:a+}.*",
        r"{x:a}|{y:b}",
        r"({first:\l+} )?{last:\l+}( {phone:\d+})?",
        r"{x:(a|b)*}c?",
        r"(a|b)*{x:ab}(a|b)*",
        r"{x:a?}{y:b?}{z:c?}",
    ]
}

fn documents() -> Vec<&'static str> {
    vec![
        "",
        "a",
        "b",
        "ab",
        "ba",
        "aab",
        "abc",
        "bob smith 42",
        "abab",
    ]
}

#[test]
fn compile_enumerate_matches_reference_eval() {
    for pattern in patterns() {
        let alpha = parse(pattern).unwrap();
        let vsa = compile(&alpha);
        for text in documents() {
            let doc = Document::new(text);
            assert_eq!(
                evaluate(&vsa, &doc).unwrap(),
                reference_eval(&alpha, &doc),
                "pattern {pattern:?} on {text:?}"
            );
        }
    }
}

#[test]
fn join_compilation_matches_materialized_join() {
    let pairs = [
        (r"{x:a+}b*", r"{x:a*}b+"),
        (r"({x:a})?{y:b+}", r"{x:a}.*|.*{y:b}"),
        (r".*{x:\d+}.*", r".*{x:\d\d}.*{y:\l}.*"),
        (r"{x:a*}{y:b*}", r"{z:a*b*}"),
    ];
    for (p1, p2) in pairs {
        let a1 = compile(&parse(p1).unwrap());
        let a2 = compile(&parse(p2).unwrap());
        let joined = join(&a1, &a2).unwrap();
        for text in ["", "ab", "aab", "12 x", "abb"] {
            let doc = Document::new(text);
            let expected = evaluate(&a1, &doc)
                .unwrap()
                .join(&evaluate(&a2, &doc).unwrap());
            assert_eq!(
                evaluate(&joined, &doc).unwrap(),
                expected,
                "{p1:?} ⋈ {p2:?} on {text:?}"
            );
        }
    }
}

#[test]
fn difference_algorithms_agree_with_each_other_and_the_oracle() {
    let pairs = [
        (r"({x:a})?{y:b+}", r"{x:a}b*"),
        (r".*{mail:\l+@\l+\.\l+}.*", r".*{mail:\l+@\l+\.uk}.*"),
        (r"{x:a*}b", r"{y:a}.*"),
        (r"{x:\d}{y:\d}", r"{x:1}{y:\d}|{x:\d}{y:2}"),
    ];
    let opts = DifferenceOptions::default();
    for (p1, p2) in pairs {
        let a1 = compile(&parse(p1).unwrap());
        let a2 = compile(&parse(p2).unwrap());
        for text in ["", "b", "ab", "abb", "a@b.uk c@d.ru ", "12", "19"] {
            let doc = Document::new(text);
            let oracle = evaluate(&a1, &doc)
                .unwrap()
                .difference(&evaluate(&a2, &doc).unwrap());
            assert_eq!(
                difference_filter(&a1, &a2, &doc).unwrap(),
                oracle,
                "filter: {p1:?} \\ {p2:?} on {text:?}"
            );
            assert_eq!(
                difference_adhoc_eval(&a1, &a2, &doc, opts).unwrap(),
                oracle,
                "lemma 4.2: {p1:?} \\ {p2:?} on {text:?}"
            );
            assert_eq!(
                difference_product_eval(&a1, &a2, &doc, opts).unwrap(),
                oracle,
                "theorem 4.8: {p1:?} \\ {p2:?} on {text:?}"
            );
        }
    }
}

#[test]
fn disjunctive_functional_rewrite_and_join_round_trip() {
    // Proposition 3.9 + Proposition 3.12 together: rewrite two sequential
    // formulas into disjunctive functional form, join them pairwise, and
    // compare against the materialized join of the originals.
    let p1 = r"({x:a})?{y:b}";
    let p2 = r"{x:a}{y:b}|{y:b}";
    let alpha1 = parse(p1).unwrap();
    let alpha2 = parse(p2).unwrap();
    let d1: Vec<_> = to_disjunctive_functional(&alpha1, 1 << 10)
        .unwrap()
        .iter()
        .map(compile)
        .collect();
    let d2: Vec<_> = to_disjunctive_functional(&alpha2, 1 << 10)
        .unwrap()
        .iter()
        .map(compile)
        .collect();
    let joined = assemble_disjunction(&join_disjunctive_functional(&d1, &d2).unwrap());
    for text in ["b", "ab", "ba", ""] {
        let doc = Document::new(text);
        let expected = reference_eval(&alpha1, &doc).join(&reference_eval(&alpha2, &doc));
        assert_eq!(interpret(&joined, &doc), expected, "on {text:?}");
    }
}

#[test]
fn ra_tree_pipeline_matches_materialized_evaluation() {
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    let inst = Instantiation::new()
        .with(
            0,
            parse(r"(.*\n)?{student:\u\l+} m:{mail:\l+}\n.*").unwrap(),
        )
        .with(
            1,
            parse(r"(.*\n)?{student:\u\l+} .*p:{phone:\d+}\n.*").unwrap(),
        )
        .with(
            2,
            parse(r"(.*\n)?{student:\u\l+} .*r:{rec:\l+}\n.*").unwrap(),
        );
    let docs = [
        "Bob m:b p:1\nAnn m:a p:2 r:good\n",
        "Bob m:b p:1 r:ok\n",
        "Cid m:c\nDee m:d p:9\n",
    ];
    for text in docs {
        let doc = Document::new(text);
        assert_eq!(
            evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "on {text:?}"
        );
    }
}

#[test]
fn adhoc_relation_compilation_round_trips_through_enumeration() {
    let doc = Document::new("xyz");
    let alpha = parse(r".*{a:\l}.*{b:\l}.*").unwrap();
    let relation = reference_eval(&alpha, &doc);
    let vsa = mapping_set_to_vsa(&relation, &doc).unwrap();
    assert_eq!(evaluate(&vsa, &doc).unwrap(), relation);
    assert_eq!(
        evaluate(&vsa, &doc).unwrap(),
        MappingSet::from_mappings(relation.iter().cloned())
    );
}

#[test]
fn figure_1_extraction_matches_the_paper_table() {
    // Example 2.1: the three mappings µ1, µ2, µ3 (modulo exact positions,
    // which differ because our document uses '\n' instead of '←֓').
    let doc = document_spanners::workloads::students_figure_1();
    let info = compile(&document_spanners::workloads::student_info_extractor().unwrap());
    let result = evaluate(&info, &doc).unwrap();
    assert_eq!(result.len(), 3, "{result:?}");
    let by_last: Vec<(String, bool, bool)> = result
        .iter()
        .map(|m| {
            (
                doc.slice(m.get(&"last".into()).unwrap()).to_string(),
                m.contains(&"first".into()),
                m.contains(&"phone".into()),
            )
        })
        .collect();
    // µ1: Raskolnikov with a first name, no phone.
    assert!(by_last.contains(&("Raskolnikov".to_string(), true, false)));
    // µ2: Zosimov without a first name, with a phone.
    assert!(by_last.contains(&("Zosimov".to_string(), false, true)));
    // µ3: Luzhin with both.
    assert!(by_last.contains(&("Luzhin".to_string(), true, true)));
}
