//! Properties over random regex formulas, RA trees and documents.
//!
//! Every property runs `CASES` seeds of the same loop the differential
//! oracles use: the formula comes from the workload generator
//! (`random_sequential_rgx`, sequential by construction, variables
//! `r0, r1, …`), the document from the seeded `rand` stand-in, and a failure
//! names its seed. Checked: every compiled pipeline agrees with the
//! reference semantics, and the algebraic compilations commute with
//! materialized evaluation.

use document_spanners::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_algebra::{shared_variable_bound, tree_vars};
use spanner_core::{ByteClass, MappingSet};
use spanner_paper::{evaluate_ra_materialized, interpret, to_disjunctive_functional};
use spanner_vset::{is_sequential as vsa_sequential, make_semi_functional};
use spanner_workloads::{
    log_request_extractor, program_library, random_ra_tree, random_sequential_rgx,
    student_info_extractor, RandomRaConfig,
};
use std::collections::BTreeSet;

/// Seeds per property.
const CASES: u64 = 96;

/// The alphabet of the workload formula generator.
const ABC: &[u8] = b"abc";

/// Bytes that mean something inside `[...]` (and two that need `\x`), next
/// to ordinary ones: what a printed class has to escape.
const CLASS_BYTES: &[u8] = b"\\]^-[ac d\n\x00";

/// Two independent formulas for the binary properties. Both name their
/// variables `r0, r1, …`, so the operands share variables whenever both
/// capture.
fn operands(depth: usize, vars: usize, seed: u64) -> (Rgx, Rgx) {
    (
        random_sequential_rgx(depth, vars, seed),
        random_sequential_rgx(depth, vars, seed + 1_000_000),
    )
}

/// A document of length at most 5 over `alphabet` (the reference evaluator
/// is exponential, so inputs must stay small). Its stream is separate from
/// the formula's.
fn document(alphabet: &[u8], seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd0c5);
    let len = rng.gen_range(0..=5usize);
    let text: String = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect();
    Document::new(text)
}

/// The byte classes of a formula, in visit order: what a `Display` round
/// trip must preserve.
fn classes(r: &Rgx) -> Vec<ByteClass> {
    let mut out = Vec::new();
    r.visit(&mut |node| {
        if let Rgx::Class(c) = node {
            out.push(*c);
        }
    });
    out
}

/// The random-plan shape used by the planner properties.
fn plan_cfg(seed: u64) -> RandomRaConfig {
    RandomRaConfig {
        depth: 2 + (seed % 2) as usize,
        leaves: 2 + (seed % 3) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(3),
    }
}

#[test]
fn enumeration_agrees_with_reference() {
    for seed in 0..CASES {
        let alpha = random_sequential_rgx(3, 3, seed);
        let doc = document(ABC, seed);
        let vsa = compile(&alpha);
        let reference = reference_eval(&alpha, &doc);
        assert_eq!(
            evaluate(&vsa, &doc).unwrap(),
            reference,
            "seed {seed}: {alpha} on {:?}",
            doc.text()
        );
        assert_eq!(
            interpret(&vsa, &doc),
            reference,
            "seed {seed}: {alpha} on {:?}",
            doc.text()
        );
    }
}

#[test]
fn enumeration_produces_no_duplicates() {
    for seed in 0..CASES {
        let alpha = random_sequential_rgx(3, 3, seed);
        let doc = document(ABC, seed);
        let vsa = compile(&alpha);
        let listed: Vec<Mapping> = Enumerator::new(&vsa, &doc)
            .unwrap()
            .map(|m| m.unwrap())
            .collect();
        let set: MappingSet = listed.iter().cloned().collect();
        assert_eq!(
            listed.len(),
            set.len(),
            "seed {seed}: {alpha} on {:?}",
            doc.text()
        );
    }
}

#[test]
fn semi_functional_transformation_preserves_semantics() {
    for seed in 0..CASES {
        let alpha = random_sequential_rgx(3, 3, seed);
        let doc = document(ABC, seed);
        let vsa = compile(&alpha);
        let vars = vsa.vars().clone();
        let sf = make_semi_functional(&vsa, &vars);
        assert!(vsa_sequential(&sf.vsa), "seed {seed}: {alpha}");
        assert_eq!(
            interpret(&sf.vsa, &doc),
            interpret(&vsa, &doc),
            "seed {seed}: {alpha} on {:?}",
            doc.text()
        );
    }
}

#[test]
fn disjunctive_functional_rewrite_preserves_semantics() {
    for seed in 0..CASES {
        let alpha = random_sequential_rgx(3, 3, seed);
        let doc = document(ABC, seed);
        if let Ok(disjuncts) = to_disjunctive_functional(&alpha, 1 << 12) {
            let rewritten = Rgx::Union(disjuncts);
            assert_eq!(
                reference_eval(&rewritten, &doc),
                reference_eval(&alpha, &doc),
                "seed {seed}: {alpha} on {:?}",
                doc.text()
            );
        }
    }
}

#[test]
fn join_compilation_is_sound_and_complete() {
    for seed in 0..CASES {
        let (alpha1, alpha2) = operands(2, 2, seed);
        let doc = document(ABC, seed);
        let a1 = compile(&alpha1);
        let a2 = compile(&alpha2);
        let joined = join(&a1, &a2).unwrap();
        let expected = reference_eval(&alpha1, &doc).join(&reference_eval(&alpha2, &doc));
        assert_eq!(
            evaluate(&joined, &doc).unwrap(),
            expected,
            "seed {seed}: {alpha1} ⋈ {alpha2} on {:?}",
            doc.text()
        );
    }
}

#[test]
fn difference_constructions_agree() {
    for seed in 0..CASES {
        let (alpha1, alpha2) = operands(2, 2, seed);
        let doc = document(ABC, seed);
        let a1 = compile(&alpha1);
        let a2 = compile(&alpha2);
        let oracle = reference_eval(&alpha1, &doc).difference(&reference_eval(&alpha2, &doc));
        let opts = DifferenceOptions::default();
        let context = format!("seed {seed}: {alpha1} \\ {alpha2} on {:?}", doc.text());
        assert_eq!(
            difference_filter(&a1, &a2, &doc).unwrap(),
            oracle,
            "{context}"
        );
        assert_eq!(
            difference_product_eval(&a1, &a2, &doc, opts).unwrap(),
            oracle,
            "{context}"
        );
        assert_eq!(
            difference_adhoc_eval(&a1, &a2, &doc, opts).unwrap(),
            oracle,
            "{context}"
        );
    }
}

#[test]
fn projection_union_commute_with_compilation() {
    for seed in 0..CASES {
        let (alpha1, alpha2) = operands(2, 3, seed);
        let doc = document(ABC, seed);
        let a1 = compile(&alpha1);
        let a2 = compile(&alpha2);
        let keep = VarSet::from_iter(["r0", "r2"]);
        let expected_proj = reference_eval(&alpha1, &doc).project(&keep);
        assert_eq!(
            evaluate(&a1.project(&keep), &doc).unwrap(),
            expected_proj,
            "seed {seed}: π{{r0,r2}} {alpha1} on {:?}",
            doc.text()
        );
        let expected_union = reference_eval(&alpha1, &doc).union(&reference_eval(&alpha2, &doc));
        assert_eq!(
            evaluate(&a1.union(&a2), &doc).unwrap(),
            expected_union,
            "seed {seed}: {alpha1} ∪ {alpha2} on {:?}",
            doc.text()
        );
    }
}

// ----- planner invariants (spanner_algebra::plan) -----

#[test]
fn planner_preserves_tree_vars() {
    for seed in 0..CASES {
        let (tree, inst) = random_ra_tree(plan_cfg(seed), seed);
        let optimized = optimize_ra(&tree, &inst).unwrap();
        assert_eq!(
            tree_vars(&optimized, &inst).unwrap(),
            tree_vars(&tree, &inst).unwrap(),
            "seed {seed}: {tree} vs {optimized}"
        );
    }
}

#[test]
fn planner_never_increases_shared_variable_bound() {
    for seed in 0..CASES {
        let (tree, inst) = random_ra_tree(plan_cfg(seed), seed);
        let optimized = optimize_ra(&tree, &inst).unwrap();
        assert!(
            shared_variable_bound(&optimized, &inst).unwrap()
                <= shared_variable_bound(&tree, &inst).unwrap(),
            "seed {seed}: {} (bound {}) optimized to {} (bound {})",
            tree,
            shared_variable_bound(&tree, &inst).unwrap(),
            optimized,
            shared_variable_bound(&optimized, &inst).unwrap()
        );
    }
}

#[test]
fn planner_is_idempotent() {
    for seed in 0..CASES {
        let (tree, inst) = random_ra_tree(plan_cfg(seed), seed);
        let once = optimize_ra(&tree, &inst).unwrap();
        let twice = optimize_ra(&once, &inst).unwrap();
        assert_eq!(
            &once, &twice,
            "seed {seed}: optimizing twice diverged from {tree}"
        );
    }
}

#[test]
fn planner_preserves_semantics() {
    for seed in 0..CASES {
        let (tree, inst) = random_ra_tree(plan_cfg(seed), seed);
        let optimized = optimize_ra(&tree, &inst).unwrap();
        let doc = document(ABC, seed);
        assert_eq!(
            evaluate_ra_materialized(&optimized, &inst, &doc).unwrap(),
            evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
            "seed {seed}: {tree} vs {optimized} on {:?}",
            doc.text()
        );
    }
}

/// `Rgx`'s `Display` output re-parses to an equivalent formula: the
/// concrete syntax and the printer stay in sync over the whole space of
/// workload-generated formulas (which the SpannerQL program generator
/// embeds verbatim in `/…/` literals) — and over classes whose members are
/// the bytes the bracket syntax gives a meaning to (`\`, `]`, `^`, `-`) or
/// has to spell `\xNN`, plain and complemented.
#[test]
fn rgx_display_round_trips_through_the_parser() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a55);
        let mut class = ByteClass::empty();
        for _ in 0..rng.gen_range(2..=5usize) {
            class.insert(CLASS_BYTES[rng.gen_range(0..CLASS_BYTES.len())]);
        }
        if rng.gen_bool(0.3) {
            class = class.complement();
        }
        let alpha = Rgx::concat([
            random_sequential_rgx(3, 2, seed),
            Rgx::capture("k", Rgx::Class(class)),
        ]);
        let printed = format!("{alpha}");
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: Display output {printed:?} failed to re-parse: {e}")
        });
        assert_eq!(
            classes(&reparsed),
            classes(&alpha),
            "seed {seed}: round trip changed a class: {printed:?}"
        );
        // A document the formula can match: a prefix over its own alphabet,
        // then one of the bytes the class is about.
        let last = CLASS_BYTES[rng.gen_range(0..CLASS_BYTES.len())] as char;
        let doc = Document::new(format!("{}{last}", document(ABC, seed).text()));
        assert_eq!(
            reference_eval(&reparsed, &doc),
            reference_eval(&alpha, &doc),
            "seed {seed}: round trip changed semantics on {:?}: {printed:?}",
            doc.text()
        );
    }
}

/// The bytes the formula syntax gives a meaning to, every letter an escape
/// gives one (`\d`, `\x41`, …), and a few plain letters and digits: the
/// alphabet of the raw-input property below.
const SYNTAX_BYTES: &[u8] = b"{}()[]|*+?.\\^-:adlnrstuwxzAZ09";

/// The sources of the access-log and student-record extractors (their
/// `Display` spells every `+` and `?` out, which triples the input).
const LOG_REQUEST: &str = r#"(.*\n)?{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d/]+\] "{method:\u+} {path:[\w/\.]+}" {status:\d\d\d} \d+\n.*"#;
const STUDENT_INFO: &str =
    r"(.*\n)?({first:\u\l+} )?{last:\u\l+} ({phone:\d+} )?{mail:\l+@\l+(\.\l+)+}\n.*";

/// `parse` takes any text: every prefix and every single-byte substitution
/// of the shipped formulas (the `/…/` literals of the serving program
/// library, the access-log and student-record extractors), and seeded
/// random strings over the same bytes, either parse or fail with an error —
/// never a panic — and whatever parses prints to a formula that re-parses
/// to the same classes.
#[test]
fn rgx_parse_survives_raw_bytes() {
    let mut formulas = BTreeSet::new();
    for program in program_library() {
        // The `/…/` literals, with the delimiter escape `\/` undone.
        let program = program.replace("\\/", "\u{1}");
        for literal in program.split('/').skip(1).step_by(2) {
            formulas.insert(literal.replace('\u{1}', "/"));
        }
    }
    for (source, extractor) in [
        (LOG_REQUEST, log_request_extractor()),
        (STUDENT_INFO, student_info_extractor()),
    ] {
        assert_eq!(parse(source).ok(), extractor.ok(), "{source:?} is stale");
        formulas.insert(source.to_string());
    }
    let mut inputs = BTreeSet::new();
    for formula in &formulas {
        assert!(parse(formula).is_ok(), "{formula:?} is a shipped formula");
        let bytes = formula.as_bytes();
        for end in 0..bytes.len() {
            inputs.insert(bytes[..end].to_vec());
            for &b in SYNTAX_BYTES {
                let mut changed = bytes.to_vec();
                changed[end] = b;
                inputs.insert(changed);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0xf022);
    for _ in 0..4_000 {
        let len = rng.gen_range(0..=24usize);
        let text = (0..len).map(|_| SYNTAX_BYTES[rng.gen_range(0..SYNTAX_BYTES.len())]);
        inputs.insert(text.collect());
    }
    for input in inputs {
        let input = String::from_utf8(input).expect("ASCII");
        let parsed = std::panic::catch_unwind(|| parse(&input))
            .unwrap_or_else(|_| panic!("parse panicked on {input:?}"));
        if let Ok(alpha) = parsed {
            let printed = alpha.to_string();
            let reparsed = parse(&printed).unwrap_or_else(|e| {
                panic!("{input:?} printed as {printed:?}, which fails to re-parse: {e}")
            });
            assert_eq!(
                classes(&reparsed),
                classes(&alpha),
                "{input:?}: round trip changed a class: {printed:?}"
            );
        }
    }
}
