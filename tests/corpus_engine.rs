//! Concurrency tests for the corpus engine: the worker count must never
//! change what is computed — only how fast.

mod common;

use common::dense;
use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_core::MappingSet;
use spanner_paper::evaluate_ra_materialized;
use std::sync::Arc;

/// The Figure 2 student query over a per-line corpus — a dynamic plan (the
/// difference node recompiles per document).
fn student_query() -> (RaTree, Instantiation) {
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    let inst = Instantiation::new()
        .with(
            0,
            parse(r"(\u\l+ )?{student:\u\l+} (\d+ )?{mail:\l+@\l+(\.\l+)+}( .*)?").unwrap(),
        )
        .with(
            1,
            parse(r"(\u\l+ )?{student:\u\l+} {phone:\d+} .*").unwrap(),
        )
        .with(2, parse(r"{student:\u\l+} rec {rec:[\l ]+}").unwrap());
    (tree, inst)
}

fn student_engine() -> CorpusEngine {
    let (tree, inst) = student_query();
    CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap()
}

/// A static plan (pure projection over a regex leaf).
fn log_engine() -> CorpusEngine {
    let tree = RaTree::project(VarSet::from_iter(["path", "status"]), RaTree::leaf(0));
    let inst = Instantiation::new().with(
        0,
        parse(
            r#"{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d/]+\] "{method:\u+} {path:[\w/\.]+}" {status:\d\d\d} \d+"#,
        )
        .unwrap(),
    );
    CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap()
}

#[test]
fn thread_count_does_not_change_results() {
    // Enough lines that eight workers each get a share.
    let corpus = workloads::access_log(1200, 3);
    let mut docs = split_lines(corpus.text());
    // An empty document in the middle of the corpus must be handled too.
    docs.insert(60, Document::new(""));
    let engine = log_engine();
    assert!(engine.plan().is_static());

    let baseline = engine.scan(&docs, 1).unwrap().into_dense();
    assert_eq!(baseline.stats.threads, 1);
    assert!(baseline.stats.mappings > 0);
    assert!(baseline.results[60].is_empty());
    for threads in [2usize, 3, 8, 1024] {
        let out = engine.scan(&docs, threads).unwrap().into_dense();
        assert_eq!(
            out.results, baseline.results,
            "{threads} threads changed the per-document results"
        );
        assert_eq!(out.stats.mappings, baseline.stats.mappings);
        assert_eq!(
            out.stats.matched_documents,
            baseline.stats.matched_documents
        );
        // The sharded path really ran, and workers are never
        // oversubscribed past the corpus size.
        assert!(out.stats.threads > 1, "{threads} threads ran inline");
        assert!(out.stats.threads <= docs.len());
    }
}

#[test]
fn dynamic_plans_are_thread_safe_too() {
    let corpus = workloads::student_records_with_recommendations(40, 0.6, 7);
    let lines = split_lines(corpus.text());
    // The records repeated until four workers each get a share.
    let docs: Vec<Document> = lines.iter().cycle().take(600).cloned().collect();
    let engine = student_engine();
    assert!(!engine.plan().is_static());

    let single = engine.scan(&docs, 1).unwrap().into_dense();
    let multi = engine.scan(&docs, 4).unwrap().into_dense();
    assert_eq!((single.stats.threads, multi.stats.threads), (1, 4));
    assert_eq!(single.results, multi.results);

    // And both match per-document materialized evaluation of the original
    // tree.
    let (tree, inst) = student_query();
    for (i, doc) in lines.iter().enumerate() {
        let oracle = evaluate_ra_materialized(&tree, &inst, doc).unwrap();
        for actual in single.results.iter().skip(i).step_by(lines.len()) {
            assert_eq!(actual, &oracle, "on {:?}", doc.text());
        }
    }
}

#[test]
fn empty_corpus_and_empty_documents() {
    let engine = log_engine();
    // Empty corpus.
    let out = engine.scan(&[], 4).unwrap().into_dense();
    assert!(out.results.is_empty());
    assert_eq!(
        out.stats,
        CorpusStats {
            documents: 0,
            mappings: 0,
            matched_documents: 0,
            threads: out.stats.threads,
            docs_skipped: 0,
            docs_rejected: 0,
            elapsed: out.stats.elapsed,
        }
    );

    // A corpus made only of empty documents.
    let docs = vec![Document::new(""), Document::new("")];
    let out = engine.scan(&docs, 2).unwrap().into_dense();
    assert_eq!(out.results, vec![MappingSet::new(), MappingSet::new()]);
    assert_eq!(out.stats.matched_documents, 0);
}

#[test]
fn zero_threads_means_auto() {
    let docs = split_lines(workloads::access_log(10, 1).text());
    let engine = log_engine();
    let out = engine.scan(&docs, 0).unwrap().into_dense();
    // Ten lines stay on the calling thread however many CPUs there are.
    assert_eq!(out.stats.threads, 1);
    assert_eq!(out.results.len(), docs.len());
    assert_eq!(
        out.results,
        engine.scan(&docs, 1).unwrap().into_dense().results
    );
}

/// One corpus pass: the answer (or the first error, as text), and for the
/// traced scan its trace.
type Pass = (
    Result<CorpusResult, String>,
    Option<spanner_algebra::ExecTrace>,
);

/// Runs `program` over `docs` through every corpus entry point — the
/// sparse ones, and the dense forwards `bench/` still calls — on up to
/// `threads` workers each.
fn every_entry_point(
    program: &str,
    options: RaOptions,
    docs: &Arc<Vec<Document>>,
    threads: usize,
) -> Vec<(&'static str, Pass)> {
    let query = PreparedQuery::prepare_with_options(program, options).unwrap();
    let engine = query.engine();
    let all: Vec<u32> = (0..docs.len() as u32).collect();
    let hashes: Vec<u64> = docs.iter().map(|d| fnv1a64(d.bytes())).collect();
    let pool = WorkerPool::new(threads);
    // Each closure builds its own view from the budget. Taking a `QueryView`
    // by value and calling `delta(QueryView::unbounded())` twice in one body
    // is miscompiled by rustc 1.95.0 at opt-level 2 and 3: MIR GVN folds the
    // two identical temporaries into one local, the first call fills it in
    // place, and the second arrives holding the first one's freed vectors
    // (a release-only double free; `-Zmir-enable-passes=-GVN` cures it).
    let delta = |budget: usize| {
        let mut view = QueryView::new(budget);
        engine
            .evaluate_delta(docs, &hashes, None, &mut view, threads)
            .map(|outcome| outcome.output)
    };
    let sparse_delta = |budget: usize| {
        let mut view = QueryView::new(budget);
        engine
            .scan_delta(docs, &hashes, None, &mut view, threads)
            .map(|outcome| dense(outcome.output))
    };
    let mut passes: Vec<(&'static str, Pass)> = [
        ("scan", engine.scan(docs, threads).map(dense)),
        (
            "candidates",
            engine.scan_candidates(docs, &all, threads).map(dense),
        ),
        ("delta, budget 0", sparse_delta(0)),
        ("delta, unbounded", sparse_delta(usize::MAX)),
        ("dense", query.evaluate_corpus(docs, threads)),
        ("dense, pool", query.evaluate_corpus_on_pool(docs, &pool)),
        ("dense delta, budget 0", delta(0)),
        ("dense delta, unbounded", delta(usize::MAX)),
    ]
    .into_iter()
    .map(|(name, out)| (name, (out.map_err(|e| e.to_string()), None)))
    .collect();
    passes.push((
        "traced",
        match engine.scan_traced(docs, threads) {
            Ok((out, trace)) => (Ok(dense(out)), Some(trace)),
            Err(e) => (Err(e.to_string()), None),
        },
    ));
    passes
}

#[test]
fn every_entry_point_agrees() {
    // `trace_oracle`'s programs: every physical operator.
    let programs = [
        "/{x:a+}b/",
        "/.*{x:a+}b.*/",
        "let a = /{x:a+}b*/; project x (a);",
        "let a = /{x:a}b*/; let b = /a*{x:b}/; a union b;",
        "let a = /{x:a+}{y:b+}/; let b = /{x:a+}b*/; a join b;",
        "/.*{x:a+}.*/ minus /{x:aa}/",
        "let a = /{x:(a|b)+}/; let b = /{x:ab+}/; project x (a minus b);",
    ];
    // Lines the static prefilters skip, lines the boolean scan rejects and
    // lines that match, repeated until three workers each get a share.
    let lines = [
        "aab", "zzz", "ab", "", "bbb", "aabab", "qqq aab", "b", "a", "abab", "ba",
    ];
    let docs: Arc<Vec<Document>> = Arc::new(
        lines
            .iter()
            .cycle()
            .take(36 * lines.len())
            .map(|t| Document::new(*t))
            .collect(),
    );
    let timeless = |out: &CorpusResult| CorpusStats {
        elapsed: Default::default(),
        ..out.stats
    };
    let (mut skipped, mut rejected, mut matched, mut tripped) = (0, 0, 0, 0);
    for program in programs {
        for threads in [1, 2, 3, 0] {
            let passes = every_entry_point(program, RaOptions::default(), &docs, threads);
            let (_, (reference, _)) = &passes[0];
            let reference = reference.as_ref().unwrap();
            // 396 lines are three workers' minimum shares; `0` is one per CPU.
            let offered = spanner_corpus::resolve_pool_threads(threads);
            assert_eq!(reference.stats.threads, offered.min(3), "{program:?}");
            for (name, (out, trace)) in &passes {
                let out = out.as_ref().unwrap();
                assert_eq!(out.results, reference.results, "{name}: {program:?}");
                assert_eq!(timeless(out), timeless(reference), "{name}: {program:?}");
                if let Some(trace) = trace {
                    let tally = |counter| trace.counter(counter) as usize;
                    let stats = out.stats;
                    assert_eq!(tally("corpus_docs_skipped"), stats.docs_skipped);
                    assert_eq!(tally("corpus_docs_rejected"), stats.docs_rejected);
                    assert_eq!(
                        tally("corpus_docs_evaluated"),
                        stats.documents - stats.docs_skipped - stats.docs_rejected
                    );
                    // The root operator produced the answer; in a one-scan
                    // plan it is the whole trace.
                    assert_eq!(trace.rows, stats.mappings as u64, "{program:?}");
                    if trace.children.is_empty() {
                        assert_eq!(trace.total_rows(), stats.mappings as u64);
                    }
                }
            }
            skipped += reference.stats.docs_skipped;
            rejected += reference.stats.docs_rejected;
            matched += reference.stats.matched_documents;

            // No intermediate relation may hold a mapping: a plan with a
            // relational operator trips on its first matching line, and
            // every entry point reports that line's error.
            let strict = RaOptions {
                max_signatures: 0,
                ..RaOptions::default()
            };
            let passes = every_entry_point(program, strict, &docs, threads);
            let (_, (reference, _)) = &passes[0];
            for (name, (out, _)) in &passes {
                match (out, reference) {
                    (Ok(out), Ok(reference)) => assert_eq!(out.results, reference.results),
                    (Err(e), Err(reference)) => assert_eq!(e, reference, "{name}: {program:?}"),
                    _ => panic!("{name} and scan disagree on failing: {program:?}"),
                }
            }
            tripped += usize::from(reference.is_err());
        }
    }
    // The corpus exercised every outcome, and the guard tripped wherever a
    // plan has a relational operator: the two `minus` programs (union, join
    // and projection over static leaves fuse into one scan), at each of the
    // four thread counts.
    assert!(skipped > 0 && rejected > 0 && matched > 0);
    assert_eq!(tripped, 8);
}
