//! Trace oracle: the instrumented executor must be a pure observer.
//!
//! The traced recursion in `spanner_algebra::exec` mirrors the untraced
//! one; these tests hold it to that mirror across the whole surface —
//! identical results and errors on every program/document pair, a trace
//! shape that depends only on the plan (never on the document), mergeable
//! worker shards whose tallies agree with the corpus statistics, and
//! limit trips attributed to the operator that enforced the limit.

use document_spanners::prelude::*;
use spanner_algebra::ExecTrace;

/// SpannerQL programs covering every physical operator: fused scans,
/// projections, unions, hash joins, and the difference anti-join.
fn programs() -> Vec<&'static str> {
    vec![
        "/{x:a+}b/",
        "/.*{x:a+}b.*/",
        "let a = /{x:a+}b*/; project x (a);",
        "let a = /{x:a}b*/; let b = /a*{x:b}/; a union b;",
        "let a = /{x:a+}{y:b+}/; let b = /{x:a+}b*/; a join b;",
        "/.*{x:a+}.*/ minus /{x:aa}/",
        "let a = /{x:(a|b)+}/; let b = /{x:ab+}/; project x (a minus b);",
    ]
}

fn documents() -> Vec<&'static str> {
    vec!["", "a", "b", "ab", "aab", "abab", "bbaab", "aabbaabb"]
}

/// A clone with every `nanos` zeroed, so traces compare structurally.
fn strip_nanos(trace: &ExecTrace) -> ExecTrace {
    let mut t = trace.clone();
    t.nanos = 0;
    t.children = t.children.iter().map(strip_nanos).collect();
    t
}

/// The document-independent part of a trace: labels and tree structure.
fn shape(trace: &ExecTrace) -> Vec<(usize, String)> {
    fn walk(t: &ExecTrace, depth: usize, out: &mut Vec<(usize, String)>) {
        out.push((depth, t.label.clone()));
        for c in &t.children {
            walk(c, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(trace, 0, &mut out);
    out
}

#[test]
fn traced_evaluation_matches_untraced_on_every_pair() {
    for program in programs() {
        let query = PreparedQuery::prepare(program).unwrap();
        for text in documents() {
            let doc = Document::new(text);
            let plain = query.evaluate(&doc);
            let (traced, trace) = query.evaluate_traced(&doc);
            match (&plain, &traced) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{program:?} on {text:?}");
                    assert_eq!(
                        trace.rows,
                        a.len() as u64,
                        "root row count must equal the result size: {program:?} on {text:?}"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{program:?} on {text:?}")
                }
                _ => panic!(
                    "traced and untraced disagree on {program:?} / {text:?}: \
                     {plain:?} vs {traced:?}"
                ),
            }
        }
    }
}

#[test]
fn trace_shape_depends_only_on_the_plan() {
    for program in programs() {
        let query = PreparedQuery::prepare(program).unwrap();
        let skeleton = query.plan().physical().trace_skeleton();
        let expected = shape(&skeleton);
        // Every document's trace — match or miss, error or not — has the
        // skeleton's shape, so shards merge positionally.
        let mut merged = skeleton.clone();
        for text in documents() {
            let (_, trace) = query.evaluate_traced(&Document::new(text));
            assert_eq!(shape(&trace), expected, "{program:?} on {text:?}");
            merged.merge(&trace);
        }
        assert_eq!(shape(&merged), expected, "{program:?} after merging");
    }
}

#[test]
fn fixed_plan_trace_shape_is_stable() {
    // A regression pin for the trace consumers (`explain --analyze`, the
    // serve `trace` JSON): the exact skeleton of one representative plan.
    // `minus` always lowers to the physical anti-join, so this plan stays
    // a three-node tree instead of fusing into one static scan.
    let query = PreparedQuery::prepare("let a = /{x:a+}/; a minus /{x:aa}/;").unwrap();
    let skeleton = query.plan().physical().trace_skeleton();
    let labels: Vec<String> = shape(&skeleton)
        .into_iter()
        .map(|(depth, label)| {
            let op = label.split('(').next().unwrap().to_string();
            format!("{}{op}", "  ".repeat(depth))
        })
        .collect();
    assert_eq!(
        labels,
        ["Difference", "  CompiledScan", "  CompiledScan"],
        "the committed trace shape changed; update the consumers"
    );
}

#[test]
fn traced_corpus_tallies_agree_with_stats_for_every_thread_count() {
    // A scan at the root, and a difference whose probe side runs a pre-pass
    // of its own.
    for program in ["/.*{x:a+}b.*/", "/.*{x:a+}b.*/ minus /.*{x:aa}b.*/"] {
        traced_corpus_tallies_agree(program);
    }
}

fn traced_corpus_tallies_agree(program: &str) {
    let query = PreparedQuery::prepare(program).unwrap();
    // Eight lines, repeated until four workers each get a share: a corpus
    // the engine runs on the calling thread would compare one path thrice.
    let corpus = "aab\nzzz\nab\n\nbbb\naabab\nqqq aab\nb\n".repeat(64);
    let docs = split_lines(&corpus);
    let plain = query.evaluate_corpus(&docs, 1).unwrap();

    let mut reference: Option<ExecTrace> = None;
    for threads in [1, 2, 4] {
        let (out, trace) = query.engine().scan_traced(&docs, threads).unwrap();
        let out = out.into_dense();
        assert_eq!(out.results, plain.results, "{threads} threads");
        assert_eq!(out.stats.threads, threads, "the sharded path must have run");
        // Per-document outcome counters partition the corpus exactly as
        // the engine statistics do.
        let skipped = trace.counter("corpus_docs_skipped");
        let rejected = trace.counter("corpus_docs_rejected");
        let evaluated = trace.counter("corpus_docs_evaluated");
        assert_eq!(
            skipped + rejected + evaluated,
            out.stats.documents as u64,
            "{threads} threads"
        );
        assert_eq!(trace.rows, out.stats.mappings as u64);
        // The scan the corpus pre-pass accepted reports that acceptance, and
        // the tier that gave it, once per evaluated document — whether the
        // executor scanned again or was handed the verdict.
        let scan = trace.children.first().unwrap_or(&trace);
        let accepted = scan.counter("prescan_accept");
        assert_eq!(accepted, evaluated, "{program}, {threads} threads");
        let tiers = scan.counter("bool_dfa") + scan.counter("bool_nfa");
        assert_eq!(tiers, evaluated, "{program}, {threads} threads");
        // A probe side is not covered by the corpus pre-pass: it scans for
        // itself on every document whose input side was not empty.
        if let [_, probe] = &trace.children[..] {
            let verdicts: u64 = ["prescan_skip", "prescan_reject", "prescan_accept"]
                .map(|name| probe.counter(name))
                .iter()
                .sum();
            let probed = evaluated - trace.counter("probe_skipped");
            assert_eq!(verdicts, probed, "{program}, {threads} threads");
            assert!(probe.counter("prescan_accept") > 0 && probe.counter("prescan_skip") > 0);
        }
        // Modulo timing, the merged trace is identical no matter how the
        // corpus was sharded.
        let stripped = strip_nanos(&trace);
        match &reference {
            None => reference = Some(stripped),
            Some(r) => assert_eq!(r, &stripped, "{threads} threads"),
        }
    }
}

#[test]
fn limit_trips_are_attributed_to_the_enforcing_operator() {
    let options = RaOptions {
        max_signatures: 3,
        ..RaOptions::default()
    };
    let query =
        PreparedQuery::prepare_with_options("/.*{x:.*}.*/ minus /{x:zz}/", options).unwrap();
    let doc = Document::new("abcdefgh");
    let plain = query.evaluate(&doc).unwrap_err();
    let (traced, trace) = query.evaluate_traced(&doc);
    assert_eq!(traced.unwrap_err().to_string(), plain.to_string());
    // The trip is recorded somewhere in the tree (on the node whose limit
    // check fired), and exactly once for this single-error run.
    fn sum_trips(t: &ExecTrace) -> u64 {
        t.counter("limit_trips") + t.children.iter().map(sum_trips).sum::<u64>()
    }
    assert_eq!(sum_trips(&trace), 1, "{}", trace.render());
}
