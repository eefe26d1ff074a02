//! Edge cases and failure injection across the public API.

use document_spanners::prelude::*;
use spanner_algebra::tree_vars;
use spanner_enum::MAX_VARS;
use spanner_paper::evaluate_ra_materialized;
use spanner_vset::JoinOptions;

#[test]
fn empty_document_everywhere() {
    let doc = Document::new("");
    // Extraction.
    assert_eq!(
        evaluate_rgx(&parse("{x:a*}").unwrap(), &doc).unwrap().len(),
        1
    );
    assert!(evaluate_rgx(&parse("{x:a+}").unwrap(), &doc)
        .unwrap()
        .is_empty());
    // Join.
    let a1 = compile(&parse("{x:a*}").unwrap());
    let a2 = compile(&parse("{x:()}|a").unwrap());
    let joined = join(&a1, &a2).unwrap();
    let result = evaluate(&joined, &doc).unwrap();
    assert_eq!(result.len(), 1);
    // Difference on the empty document: every pair of mappings is compatible
    // (all spans are [1,1⟩), so a nonempty right side empties the result.
    let opts = DifferenceOptions::default();
    assert!(difference_product_eval(&a1, &a2, &doc, opts)
        .unwrap()
        .is_empty());
    assert!(difference_adhoc_eval(&a1, &a2, &doc, opts)
        .unwrap()
        .is_empty());
}

#[test]
fn too_many_variables_is_a_clean_error() {
    // The enumerator's bitset representation supports MAX_VARS variables.
    let mut parts = Vec::new();
    for i in 0..=MAX_VARS {
        parts.push(format!("{{v{i:02}:a?}}"));
    }
    let alpha = parse(&parts.concat()).unwrap();
    let vsa = compile(&alpha);
    let doc = Document::new("aaa");
    let err = evaluate(&vsa, &doc).unwrap_err();
    assert!(matches!(err, SpannerError::LimitExceeded { .. }), "{err}");
}

#[test]
fn join_state_limit_is_reported() {
    let a1 = compile(&parse("({a:x})?({b:x})?({c:x})?({d:x})?x*").unwrap());
    let a2 = compile(&parse("({a:x})?({b:x})?({c:x})?({d:x})?x*").unwrap());
    let err =
        spanner_vset::join_with_options(&a1, &a2, JoinOptions { max_states: 10 }).unwrap_err();
    assert!(matches!(err, SpannerError::LimitExceeded { .. }));
}

#[test]
fn difference_limits_are_reported() {
    let a1 = compile(&parse(".*{x:.*}.*{y:.*}.*").unwrap());
    let a2 = compile(&parse(".*{x:.*}.*{y:.*}.*").unwrap());
    let doc = Document::new("abcdefghij");
    let tight = DifferenceOptions {
        max_states: 1_000_000,
        max_signatures: 3,
    };
    let err = difference_adhoc_eval(&a1, &a2, &doc, tight).unwrap_err();
    assert!(matches!(err, SpannerError::LimitExceeded { .. }));
}

#[test]
fn unicode_documents_are_handled_bytewise() {
    // Byte-level semantics: a multi-byte code point is several symbols.
    let doc = Document::new("héllo");
    assert_eq!(doc.len(), 6);
    let alpha = parse(r".*{x:\l+}.*").unwrap();
    let result = evaluate_rgx(&alpha, &doc).unwrap();
    // The ASCII runs "h" and "llo" (and their subruns) are extracted; slicing
    // any of the returned spans must not panic even around the multi-byte
    // character boundaries.
    assert!(!result.is_empty());
    for m in result.iter() {
        let span = m.get(&"x".into()).unwrap();
        assert!(
            doc.try_slice(span).is_some() || doc.text().as_bytes().get(span.as_range()).is_some()
        );
    }
    // The `.` class matches one byte, so it binds each half of "é" on its
    // own: six one-byte spans, two of them inside the character. Slicing
    // those decodes the covered byte lossily instead of panicking; the spans
    // stay byte offsets.
    let result = evaluate_rgx(&parse(".*{x:.}.*").unwrap(), &doc).unwrap();
    let texts: Vec<_> = (1..=6)
        .map(|start| {
            let span = Span::new(start, start + 1);
            assert!(result.contains(&Mapping::from_pairs([("x", span)])));
            doc.slice(span)
        })
        .collect();
    assert_eq!(texts, ["h", "\u{fffd}", "\u{fffd}", "l", "l", "o"]);
    assert_eq!(doc.slice(Span::new(1, 4)), "hé");
}

#[test]
fn projection_to_unknown_variables_yields_boolean_spanner() {
    let a = compile(&parse("{x:a+}b").unwrap());
    let projected = a.project(&VarSet::from_iter(["nonexistent"]));
    let doc = Document::new("aab");
    let result = evaluate(&projected, &doc).unwrap();
    assert_eq!(result.len(), 1);
    assert!(result.iter().next().unwrap().is_empty());
}

#[test]
fn difference_with_empty_right_operand_is_identity() {
    let a1 = compile(&parse("({x:a})?b").unwrap());
    let empty = compile(&Rgx::Empty);
    let doc = Document::new("ab");
    let expected = evaluate(&a1, &doc).unwrap();
    let opts = DifferenceOptions::default();
    assert_eq!(
        difference_product_eval(&a1, &empty, &doc, opts).unwrap(),
        expected
    );
    assert_eq!(
        difference_adhoc_eval(&a1, &empty, &doc, opts).unwrap(),
        expected
    );
    assert_eq!(difference_filter(&a1, &empty, &doc).unwrap(), expected);
}

#[test]
fn self_difference_is_always_empty() {
    for pattern in ["{x:a*}b*", "({x:a})?{y:b?}", ".*"] {
        let a = compile(&parse(pattern).unwrap());
        for text in ["", "ab", "ba"] {
            let doc = Document::new(text);
            if evaluate(&a, &doc).unwrap().is_empty() {
                continue;
            }
            let opts = DifferenceOptions::default();
            assert!(
                difference_product_eval(&a, &a, &doc, opts)
                    .unwrap()
                    .is_empty(),
                "{pattern} on {text:?}"
            );
        }
    }
}

#[test]
fn planner_projection_to_empty_variable_set() {
    // π_∅ over a join: the planner pushes the (boolean) projection into the
    // operands but must keep the join variable alive through the join.
    let tree = RaTree::project(
        VarSet::new(),
        RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a+}{y:b*}").unwrap())
        .with(1, parse("{x:a+}{z:b?}b*").unwrap());
    let optimized = optimize_ra(&tree, &inst).unwrap();
    assert!(tree_vars(&optimized, &inst).unwrap().is_empty());
    for text in ["", "a", "ab", "abb", "ba"] {
        let doc = Document::new(text);
        let expected = evaluate_ra_materialized(&tree, &inst, &doc).unwrap();
        let actual = evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap();
        assert_eq!(actual, expected, "on {text:?}");
        // A boolean spanner yields either nothing or the single empty
        // mapping.
        assert!(actual.len() <= 1);
        assert!(actual.iter().all(|m| m.is_empty()));
    }
}

#[test]
fn planner_union_of_schema_disjoint_operands() {
    // {x} ∪ {y}: schemaless semantics keep both sides' mappings as-is; the
    // planner must not project either operand onto the other's schema.
    let tree = RaTree::project(
        VarSet::from_iter(["x", "y"]),
        RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a}b*").unwrap())
        .with(1, parse("a{y:b+}").unwrap());
    let optimized = optimize_ra(&tree, &inst).unwrap();
    assert_eq!(
        tree_vars(&optimized, &inst).unwrap(),
        VarSet::from_iter(["x", "y"])
    );
    for text in ["ab", "a", "abb", "b", ""] {
        let doc = Document::new(text);
        assert_eq!(
            evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "on {text:?}"
        );
    }
}

/// The blocked rewrite: `π_Y(P1 \ P2)` must NOT become `π_Y(P1) \ π_Y(P2)`.
/// P1 binds the same `x` with two different `y`s and P2 subtracts only one
/// of the pairs: the sound plan keeps that `x` (one pair survives), while
/// the pushed-down plan would subtract `π_x(P2)` and lose it. The optimizer
/// must keep the projection above the difference.
#[test]
fn planner_does_not_push_projection_through_difference() {
    let tree = RaTree::project(
        VarSet::from_iter(["x"]),
        RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)),
    );
    // On "abb", P1 = {(x=[1,2⟩, y=[2,3⟩), (x=[1,2⟩, y=[3,4⟩)} and P2
    // removes exactly the first pair.
    let inst = Instantiation::new()
        .with(0, parse("{x:a}({y:b}b|b{y:b})").unwrap())
        .with(1, parse("{x:a}{y:b}b").unwrap());
    let optimized = optimize_ra(&tree, &inst).unwrap();
    assert!(
        matches!(&optimized, RaTree::Project(_, child) if matches!(child.as_ref(), RaTree::Difference(_, _))),
        "projection must stay above the difference, got {optimized}"
    );

    let doc = Document::new("abb");
    let expected = evaluate_ra_materialized(&tree, &inst, &doc).unwrap();
    assert_eq!(expected.len(), 1, "one pair must survive the difference");
    // The unsound pushed-down plan loses the surviving x:
    let unsound = evaluate_ra_materialized(
        &RaTree::difference(
            RaTree::project(VarSet::from_iter(["x"]), RaTree::leaf(0)),
            RaTree::project(VarSet::from_iter(["x"]), RaTree::leaf(1)),
        ),
        &inst,
        &doc,
    )
    .unwrap();
    assert_ne!(
        expected, unsound,
        "test vectors must actually distinguish the two plans"
    );
    assert_eq!(
        evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap(),
        expected
    );
}

// ---------------------------------------------------------------------------
// Physical operator executor edge cases.
// ---------------------------------------------------------------------------

/// Compiles both ways (optimizer on/off) and checks `evaluate` and `stream`
/// against the materialized oracle on every document.
fn check_executor(tree: &RaTree, inst: &Instantiation, texts: &[&str]) {
    for options in [RaOptions::default(), RaOptions::unoptimized()] {
        let plan = CompiledPlan::compile(tree, inst, options).unwrap();
        for text in texts {
            let doc = Document::new(*text);
            let oracle = evaluate_ra_materialized(tree, inst, &doc).unwrap();
            assert_eq!(
                plan.evaluate(&doc).unwrap(),
                oracle,
                "evaluate (optimize={}) on {text:?}: {tree}",
                options.optimize
            );
            let streamed: Vec<Mapping> = plan
                .stream(&doc)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            let as_set: MappingSet = streamed.iter().cloned().collect();
            assert_eq!(streamed.len(), as_set.len(), "duplicates on {text:?}");
            assert_eq!(
                as_set, oracle,
                "stream (optimize={}) on {text:?}: {tree}",
                options.optimize
            );
        }
    }
}

#[test]
fn executor_difference_with_schema_overlapping_operands() {
    // Operand schemas {x, y} and {y, z} overlap only on y: compatibility is
    // decided on the overlap, and survivors keep their private variables.
    let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
    let inst = Instantiation::new()
        .with(0, parse("{x:a+}{y:b*}").unwrap())
        .with(1, parse("a*{y:b+}{z:a?}").unwrap());
    check_executor(&tree, &inst, &["ab", "abb", "a", "b", "aabba", ""]);
}

#[test]
fn executor_difference_with_empty_probe_side() {
    // The probe side matches nothing on these documents: the anti-join is
    // the identity and must not drop (or reorder into) anything.
    let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
    let inst = Instantiation::new()
        .with(0, parse("{x:a+}b*").unwrap())
        .with(1, parse("{x:a}ccc").unwrap());
    check_executor(&tree, &inst, &["ab", "aab", "a", ""]);
    // An unsatisfiable probe automaton (empty language) behaves the same.
    let inst_empty = Instantiation::new()
        .with(0, parse("{x:a+}b*").unwrap())
        .with(1, parse("{x:[]}").unwrap());
    check_executor(&tree, &inst_empty, &["ab", "a", ""]);
}

#[test]
fn executor_difference_with_schemaless_input() {
    // The optional captures give both sides mappings of two domains, {x}
    // and {x, y}. Every probe mapping binds x, so an input mapping that
    // shares only x with the probe side is tested by one hash lookup. Some
    // probe mappings miss y, so an input mapping binding both falls back to
    // the compatibility scan, where the missing y is a wildcard. On "aabb"
    // both kinds survive and both kinds are removed.
    let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
    let inst = Instantiation::new()
        .with(0, parse(".*{x:a+}({y:b})?b*").unwrap())
        .with(1, parse("a*{x:a}({y:b})?b*").unwrap());
    check_executor(
        &tree,
        &inst,
        &["aabb", "aabbb", "abb", "abbb", "ab", "aab", "a", ""],
    );
}

#[test]
fn executor_projection_directly_over_difference() {
    // The projection cannot be pushed through the difference (unsound), so
    // the executor runs a Project operator over the anti-join — including
    // the dedup of mappings that collapse under the projection.
    let tree = RaTree::project(
        VarSet::from_iter(["x"]),
        RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a}({y:b}b|b{y:b})").unwrap())
        .with(1, parse("{x:a}{y:b}b").unwrap());
    check_executor(&tree, &inst, &["abb", "ab", "abbb", ""]);
}

#[test]
fn executor_stream_equals_evaluate_on_dynamic_plans() {
    // A join above a difference: the deepest dynamic shape — the join is
    // executed when the stream opens and drained, the difference is an
    // anti-join below it.
    let tree = RaTree::join(
        RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)),
        RaTree::leaf(2),
    );
    let inst = Instantiation::new()
        .with(0, parse("{x:a+}{y:b*}").unwrap())
        .with(1, parse("{x:aa}b*").unwrap())
        .with(2, parse("{x:a+}{z:b?}b*").unwrap());
    check_executor(&tree, &inst, &["ab", "aab", "abb", "a", ""]);
    // And a union of differences under a projection (dedup at every level).
    let union_tree = RaTree::project(
        VarSet::from_iter(["x"]),
        RaTree::union(
            RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(2),
        ),
    );
    check_executor(&union_tree, &inst, &["ab", "aab", "abb", ""]);
}

#[test]
fn enumerator_is_fused_after_exhaustion() {
    let vsa = compile(&parse("{x:a}").unwrap());
    let doc = Document::new("a");
    let mut e = Enumerator::new(&vsa, &doc).unwrap();
    assert!(e.next().is_some());
    assert!(e.next().is_none());
    assert!(e.next().is_none());
}

#[test]
fn long_document_smoke_test() {
    // A realistic extractor over a ~20 KiB document; checks that nothing
    // quadratic-in-the-answer-count sneaks into the enumeration path.
    let doc = document_spanners::workloads::access_log(300, 5);
    assert!(doc.len() > 15_000);
    let vsa = compile(&document_spanners::workloads::log_error_extractor().unwrap());
    let count = count_mappings(&vsa, &doc, usize::MAX).unwrap();
    assert!(count > 0);
}
