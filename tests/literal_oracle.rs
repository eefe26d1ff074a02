//! Differential tests for required-literal extraction.
//!
//! `spanner_vset::scan` derives the few bytes that can extend a literal
//! from the shortest accepted document, follows forced chains unasked and
//! bisects them, and tests requiredness by stepping one representative per
//! byte group. The extractor it replaced — grow
//! every seed by *trying every singleton byte*, test each try by stepping
//! *all 256 bytes* from every product state, stop after 256 tries — is kept
//! here, verbatim, as the reference: slow, and obviously exhaustive. Over
//! the request-mix library, the benchmark's ad-hoc and hot programs, random
//! formulas and random RA plans the suite pins
//!
//! * (a) the grouped requiredness test against the per-byte one, on every
//!   (automaton, candidate) pair the old loop tries;
//! * (b) soundness: every literal returned is confirmed by the reference;
//! * (c) strength: every literal the old extractor found is a factor of a
//!   new one (so `Store::candidates` never grows), and with the old try
//!   budget lifted the two return the same set;
//! * (d) cost, as a count and not a timing: explorations per automaton stay
//!   within `2·Σ|literal| + 8`.

mod common;

use common::{ra_case, scans_of};
use document_spanners::prelude::*;
use spanner_vset::scan::{contains_factor, MAX_LITERALS, MAX_LITERAL_LEN};
use spanner_vset::CompiledVsa;
use spanner_workloads::{program_library, random_sequential_rgx};
use std::sync::Arc;

// ------------------------------------------------------------- reference

/// The try budget the old extractor shipped with.
const OLD_VERIFY_BUDGET: usize = 256;
/// The old extractor's state-count ceiling.
const LITERAL_STATE_BUDGET: usize = 512;

/// The old requiredness test: the NFA × KMP product, every byte stepped on
/// its own.
fn per_byte_is_required(compiled: &CompiledVsa, needle: &[u8]) -> bool {
    let m = needle.len();
    assert!(m > 0);
    let mut fail = vec![0usize; m];
    let mut k = 0;
    for i in 1..m {
        while k > 0 && needle[i] != needle[k] {
            k = fail[k - 1];
        }
        if needle[i] == needle[k] {
            k += 1;
        }
        fail[i] = k;
    }
    let kmp_next = |mut k: usize, b: u8| -> usize {
        while k > 0 && needle[k] != b {
            k = fail[k - 1];
        }
        if needle[k] == b {
            k + 1
        } else {
            0
        }
    };

    let states = compiled.state_count();
    let mut visited = vec![false; states * m];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for q in compiled.zero_closure(compiled.initial()).iter() {
        if compiled.is_accepting(q) {
            return false;
        }
        if !visited[q * m] {
            visited[q * m] = true;
            stack.push((q, 0));
        }
    }
    while let Some((q, k)) = stack.pop() {
        for b in 0..=255u8 {
            let targets = compiled.byte_targets(q, compiled.class_of(b));
            if targets.is_empty() {
                continue;
            }
            let k2 = kmp_next(k, b);
            if k2 == m {
                continue;
            }
            for &t in targets {
                for r in compiled.zero_closure(t).iter() {
                    if compiled.is_accepting(r) {
                        return false;
                    }
                    if !visited[r * m + k2] {
                        visited[r * m + k2] = true;
                        stack.push((r, k2));
                    }
                }
            }
        }
    }
    true
}

/// The old extractor: every seed grown right, then left, by trying every
/// singleton byte; at most `budget` tries per automaton. Every candidate it
/// puts to the test is appended to `tried` with the verdict.
fn greedy_required_literals(
    compiled: &CompiledVsa,
    budget: usize,
    tried: &mut Vec<(Vec<u8>, bool)>,
) -> Vec<Vec<u8>> {
    let plan = compiled.scan_plan();
    if plan.min_len().is_none_or(|n| n == 0) {
        return Vec::new();
    }
    let class_count = compiled.class_count();
    if class_count > 64 || compiled.state_count() > LITERAL_STATE_BUDGET {
        return Vec::new();
    }
    let mut class_size = vec![0u16; class_count];
    for b in 0..=255u8 {
        class_size[compiled.class_of(b)] += 1;
    }
    let singleton_bytes: Vec<u8> = (0..=255u8)
        .filter(|&b| class_size[compiled.class_of(b)] == 1)
        .collect();

    let mut seeds: Vec<u8> = plan
        .required_factors()
        .iter()
        .filter(|f| f.len() == 1)
        .filter_map(|f| f.iter().next())
        .collect();
    if let Some(prefix) = plan.prefix_class() {
        if prefix.len() == 1 {
            seeds.extend(prefix.iter().next());
        }
    }
    seeds.sort_unstable();
    seeds.dedup();

    let mut budget = budget;
    let mut literals: Vec<Vec<u8>> = Vec::new();
    for seed in seeds {
        let mut verify = |lit: &[u8]| {
            if budget == 0 {
                return false;
            }
            budget -= 1;
            let verdict = per_byte_is_required(compiled, lit);
            tried.push((lit.to_vec(), verdict));
            verdict
        };
        if !verify(&[seed]) {
            continue;
        }
        let mut lit = vec![seed];
        loop {
            if lit.len() >= MAX_LITERAL_LEN {
                break;
            }
            let mut grown = false;
            for &b in &singleton_bytes {
                lit.push(b);
                if verify(&lit) {
                    grown = true;
                    break;
                }
                lit.pop();
            }
            if !grown {
                break;
            }
        }
        loop {
            if lit.len() >= MAX_LITERAL_LEN {
                break;
            }
            let mut grown = false;
            for &b in &singleton_bytes {
                lit.insert(0, b);
                if verify(&lit) {
                    grown = true;
                    break;
                }
                lit.remove(0);
            }
            if !grown {
                break;
            }
        }
        literals.push(lit);
    }

    literals.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut kept: Vec<Vec<u8>> = Vec::new();
    for lit in literals {
        if !kept.iter().any(|k| contains_factor(k, &lit)) {
            kept.push(lit);
        }
    }
    kept.truncate(MAX_LITERALS);
    kept
}

// ----------------------------------------------------------------- suite

/// The benchmark's `store-adhoc` templates (`bench/src/workloads.rs`).
const ADHOC_TEMPLATES: [&str; 6] = [
    "/.*{x@:LIT}.*/",
    "/{pre@:.*}LIT{post:.*}/",
    "let a = /.*{x@:LIT}.*/; project x@ (a);",
    "/.* {w@:LIT[a-z]*} .*/",
    "/.*{x@:LIT}.*/ minus /{x@:LIT}.*/",
    "let a = /.*{x@:LIT}{y:[a-z ]}.*/; let b = /.*{x@:LIT}.*/; a join b;",
];

fn adhoc_program(template: usize, literal: &str) -> String {
    ADHOC_TEMPLATES[template]
        .replace("LIT", literal)
        .replace('@', &template.to_string())
}

/// Every compiled scan of a SpannerQL program, labelled for failure output.
fn program_scans(program: &str, out: &mut Vec<(String, Arc<CompiledVsa>)>) {
    let query = PreparedQuery::prepare(program).unwrap_or_else(|e| panic!("{program}: {e}"));
    let mut scans = Vec::new();
    scans_of(query.plan().physical().root(), &mut scans);
    assert!(!scans.is_empty(), "{program}");
    out.extend(scans.into_iter().map(|c| (program.to_string(), c)));
}

/// The whole suite: the request-mix library, the six ad-hoc templates over
/// the planted needle and a 4- and a 5-letter literal, the eight hot
/// programs of `store-churn`, 240 random formulas and 60 random RA plans
/// (whose static subtrees compile to join and union automata).
fn suite() -> Vec<(String, Arc<CompiledVsa>)> {
    let mut out = Vec::new();
    for program in program_library() {
        program_scans(&program, &mut out);
    }
    for literal in ["needle", "qzvx", "kwjqx"] {
        for template in 0..ADHOC_TEMPLATES.len() {
            program_scans(&adhoc_program(template, literal), &mut out);
        }
    }
    // The two hot programs `store-churn` adds to the templates over the needle.
    program_scans("/.*{x:needle} {rest:[a-z ]*}/", &mut out);
    program_scans(
        "let a = /.*{x:needle}.*/; let b = /{pre:[a-z ]*} needle.*/; a join b;",
        &mut out,
    );
    for seed in 0..240u64 {
        let rgx = random_sequential_rgx(2 + (seed % 3) as usize, 2, seed);
        let compiled = CompiledVsa::compile(&compile(&rgx));
        out.push((format!("random formula {seed}: {rgx}"), Arc::new(compiled)));
    }
    for seed in 0..60u64 {
        let case = ra_case(seed, 0, &[""]);
        let plan = case.plan(RaOptions::default());
        let mut scans = Vec::new();
        scans_of(plan.physical().root(), &mut scans);
        let label = format!("random plan {seed}: {}", case.tree);
        out.extend(scans.into_iter().map(|c| (label.clone(), c)));
    }
    out
}

fn show(literals: &[Vec<u8>]) -> Vec<String> {
    literals
        .iter()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect()
}

#[test]
fn extraction_agrees_with_the_exhaustive_reference() {
    let suite = suite();
    assert!(suite.len() >= 300, "{}", suite.len());
    let mut with_literals = 0usize;
    let mut pairs = 0usize;
    let mut certificates = 0usize;
    for (label, compiled) in &suite {
        let new = compiled.required_literals();

        // (a) Same verdict on every candidate the old loop puts to the test.
        let mut tried = Vec::new();
        let old = greedy_required_literals(compiled, OLD_VERIFY_BUDGET, &mut tried);
        for (candidate, verdict) in &tried {
            let refuted = compiled.literal_counterexample(candidate);
            assert_eq!(
                refuted.is_none(),
                *verdict,
                "{label}: {:?}",
                String::from_utf8_lossy(candidate)
            );
            // A refutation is a certificate: an accepted document without
            // the candidate (checked where its bytes make a `Document`).
            if let Some(Ok(text)) = refuted.map(String::from_utf8) {
                assert!(!contains_factor(text.as_bytes(), candidate), "{label}");
                assert!(
                    compiled.matches_anywhere(&Document::new(text.clone())),
                    "{label}: {text:?}"
                );
                certificates += 1;
            }
        }
        pairs += tried.len();

        // (b) Sound.
        for literal in new {
            assert!(
                per_byte_is_required(compiled, literal),
                "{label}: {:?} is not required",
                String::from_utf8_lossy(literal)
            );
        }

        // (c) Never weaker than what shipped, and equal to it once its try
        // budget is lifted.
        for literal in &old {
            assert!(
                new.iter().any(|n| contains_factor(n, literal)),
                "{label}: old {:?} new {:?}",
                show(&old),
                show(new)
            );
        }
        let unbudgeted = greedy_required_literals(compiled, usize::MAX, &mut Vec::new());
        assert_eq!(new, unbudgeted.as_slice(), "{label}");

        // (d) The bound fixed before the extractor was written. In practice
        // a literal costs its seed, one or two looks per side and the odd
        // refutation — 3 on each benchmark template, where the old loop
        // made 82 to 118 tries.
        let total: usize = new.iter().map(Vec::len).sum();
        assert!(
            compiled.literal_explorations() <= 2 * total + 8,
            "{label}: {} explorations for {:?} (the old loop made {})",
            compiled.literal_explorations(),
            show(new),
            tried.len()
        );
        with_literals += usize::from(!new.is_empty());
    }
    // The suite is not vacuous.
    assert!(with_literals >= 90, "{with_literals}");
    assert!(pairs >= 2_000, "{pairs}");
    assert!(certificates >= 1_000, "{certificates}");
}
