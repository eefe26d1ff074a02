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

/// The enumerator's answers on `text`, in order, with its walk counters —
/// held to the interpreter's answer, each mapping once, and the counters
/// the same on cold tables and warm ones.
fn stretch_walk(pattern: &str, text: &str) -> (Vec<Mapping>, u64, u64) {
    let vsa = compile(&parse(pattern).unwrap());
    let compiled = spanner_vset::CompiledVsa::compile(&vsa);
    let doc = Document::new(text);
    let walk = || {
        let mut e = spanner_enum::enumerate_compiled(&compiled, &doc).unwrap();
        let listed: Vec<Mapping> = e.by_ref().map(Result::unwrap).collect();
        (listed, e.walk_steps(), e.stretch_positions())
    };
    let cold = walk();
    let set = MappingSet::from_mappings(cold.0.clone());
    assert_eq!(
        set.len(),
        cold.0.len(),
        "{pattern} on {text:?}: a mapping twice"
    );
    let reference = spanner_paper::interpret(&vsa, &doc);
    assert_eq!(set, reference, "{pattern} on {text:?}");
    assert_eq!(
        walk(),
        cold,
        "{pattern} on {text:?}: warm tables walk otherwise"
    );
    cold
}

fn spans(mapping: &Mapping) -> Vec<(String, u32, u32)> {
    let pairs = mapping.iter();
    pairs
        .map(|(x, s)| (x.to_string(), s.start, s.end))
        .collect()
}

#[test]
fn a_stretch_runs_to_the_end_of_the_document() {
    // Inside `{x:.*}` ∅ is the only viable candidate until x closes at
    // |d| + 1: every position after the first letter of x is crossed.
    let text = format!("a{}", "z".repeat(40));
    let (listed, steps, crossed) = stretch_walk("a{x:.*}", &text);
    assert_eq!(spans(&listed[0]), [("x".to_string(), 2, 42)]);
    assert_eq!(steps + crossed, 42, "positions 1 to |d| + 1, each once");
    assert!(
        crossed >= 38 && steps <= 5,
        "{steps} steps, {crossed} crossed"
    );
}

#[test]
fn a_stretch_ends_where_a_second_candidate_becomes_viable() {
    // The head stretches up to the `z`, where ∅ and `y⊢` are both viable;
    // the ∅ branch is forced right after it and emitted first.
    let (listed, steps, crossed) = stretch_walk(".*({y:z})?.*", "aaaaazaaaa");
    assert_eq!(listed.len(), 2);
    assert!(listed[0].is_empty(), "{listed:?}");
    assert_eq!(spans(&listed[1]), [("y".to_string(), 6, 7)]);
    assert!(crossed >= 3, "{steps} steps, {crossed} crossed");
}

#[test]
fn a_byte_that_leaves_the_frontier_breaks_the_stretch() {
    // `a*` stretches, the first `b` leads into `b*`'s frontier (a general
    // step), `b*` stretches again, and `x` opens at the `c`.
    let (listed, steps, crossed) = stretch_walk("a*b*{x:c}", "aaaaabbbbbc");
    assert_eq!(spans(&listed[0]), [("x".to_string(), 11, 12)]);
    assert_eq!(steps + crossed, 12);
    assert!(crossed >= 6, "{steps} steps, {crossed} crossed");
}

#[test]
fn inside_a_dot_star_run_empty_is_not_always_viable() {
    // At the last `a`, staying in `.*` cannot reach acceptance: ∅ is not
    // viable there, and the walk must search, not cross.
    let (listed, steps, crossed) = stretch_walk(".*{x:a}", "bbbbbbba");
    assert_eq!(spans(&listed[0]), [("x".to_string(), 8, 9)]);
    assert_eq!(steps + crossed, 9);
    assert!(steps >= 2, "{steps} steps, {crossed} crossed");
    // An `a` earlier in the run is a real alternative, never crossed.
    let (listed, ..) = stretch_walk(".*{x:a}.*", "bbabbbab");
    assert_eq!(listed.len(), 2);
}

#[test]
fn nullable_patterns_on_the_empty_document() {
    for pattern in ["{x:a*}", ".*", "{x:.*}{y:.*}", "(a|{x:()})"] {
        let (listed, steps, crossed) = stretch_walk(pattern, "");
        assert_eq!(listed.len(), 1, "{pattern}");
        assert_eq!(
            (steps, crossed),
            (1, 0),
            "{pattern}: one position, searched"
        );
    }
}

#[test]
fn a_long_gap_between_two_answers_is_crossed_not_searched() {
    // Theorem 2.5's delay on the case with few answers and long gaps: the
    // walk's candidate searches do not grow with the gap.
    let answers = |gap: usize| {
        let text = format!("a{}a", "b".repeat(gap));
        let (listed, steps, crossed) = stretch_walk(".*{x:a}.*", &text);
        let listed: Vec<_> = listed.iter().map(spans).collect();
        let n = gap as u32 + 2;
        // ∅ before `x⊢`: the walk stays in `.*` first, so the later `a`
        // comes first.
        let want = [[("x".to_string(), n, n + 1)], [("x".to_string(), 1, 2)]];
        assert_eq!(listed, want, "gap {gap}");
        (steps, crossed)
    };
    let (short, _) = answers(40);
    let (long, crossed) = answers(4000);
    assert_eq!(short, long, "candidate searches grow with the gap");
    assert!(crossed >= 3990, "{crossed} crossed");
}
