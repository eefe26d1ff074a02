//! Concurrency tests for the corpus engine: the worker count and the entry
//! point never change what is computed — only how fast.

mod common;

use common::*;
use document_spanners::prelude::*;
use document_spanners::workloads::{access_log, student_records_with_recommendations};
use spanner_algebra::ExecTrace;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

type Docs = Arc<Vec<Document>>;

fn lines_of(doc: Document) -> Vec<String> {
    strings(doc.text().lines())
}

/// A static plan (pure projection over a regex leaf).
fn log_case(docs: &[String]) -> Case {
    let log = r#"{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d\/]+\] "{method:\u+} {path:[\w\/\.]+}" {status:\d\d\d} \d+"#;
    Case::ql(&format!("project path, status (/{log}/)"), docs)
}

type Ran = RefCell<Vec<usize>>;

/// The corpus engine offered `threads` workers (`0`: one per CPU); the
/// count it ran on is pushed to `ran`, for the test to hold to what the
/// whole corpus implies (a shrunk one implies fewer).
fn scan(threads: usize, ran: &Ran) -> Surface<'_> {
    surface(format!("scan, {threads} threads"), move |case| {
        let out = dense(case.engine().scan(&case.corpus(), threads).unwrap());
        ran.borrow_mut().push(out.stats.threads);
        case.end([out.results])
    })
}

/// Enough lines that eight workers each get a share, and an empty document
/// in the middle.
#[test]
fn thread_count_does_not_change_results() {
    let mut docs = lines_of(access_log(1200, 3));
    docs.insert(60, String::new());
    let case = log_case(&docs);
    let engine = case.engine();
    assert!(engine.plan().is_static());
    assert!(engine.scan(&case.corpus(), 1).unwrap().stats.mappings > 0);
    let ran = Ran::default();
    check(&case, &[1, 2, 3, 8, 1024].map(|t| scan(t, &ran)));
    // The sharded path really ran, and workers are never oversubscribed
    // past the corpus size.
    let ran = ran.take();
    assert_eq!(ran[0], 1);
    for threads in &ran[1..] {
        assert!(*threads > 1 && *threads <= docs.len(), "{ran:?}");
    }
}

/// The Figure 2 student query — a dynamic plan (the difference node
/// recompiles per document) — over records repeated until four workers
/// each get a share.
#[test]
fn dynamic_plans_are_thread_safe_too() {
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    let mail = parse(r"(\u\l+ )?{student:\u\l+} (\d+ )?{mail:\l+@\l+(\.\l+)+}( .*)?");
    let phone = parse(r"(\u\l+ )?{student:\u\l+} {phone:\d+} .*");
    let rec = parse(r"{student:\u\l+} rec {rec:[\l ]+}");
    let inst = Instantiation::new()
        .with(0, mail.unwrap())
        .with(1, phone.unwrap());
    let inst = inst.with(2, rec.unwrap());
    let lines = lines_of(student_records_with_recommendations(40, 0.6, 7));
    let case = Case::ra(tree, inst, &strings(lines.iter().cycle().take(600)));
    assert!(!case.plan(RaOptions::default()).is_static());
    let ran = Ran::default();
    check(&case, &[scan(1, &ran), scan(4, &ran)]);
    assert_eq!(ran.take(), [1, 4]);
}

#[test]
fn empty_corpus_and_empty_documents() {
    let ran = Ran::default();
    let empty = log_case(&[]);
    check(&empty, &[scan(4, &ran)]);
    let stats = empty.engine().scan(&[], 4).unwrap().stats;
    let counts = (stats.documents, stats.mappings, stats.matched_documents);
    assert_eq!(counts, (0, 0, 0), "{stats:?}");
    assert_eq!(
        (stats.docs_skipped, stats.docs_rejected),
        (0, 0),
        "{stats:?}"
    );
    check(&log_case(&strings(["", ""])), &[scan(2, &ran)]);
}

/// Ten lines stay on the calling thread however many CPUs there are.
#[test]
fn zero_threads_means_auto() {
    let ran = Ran::default();
    let case = log_case(&lines_of(access_log(10, 1)));
    check(&case, &[scan(0, &ran), scan(1, &ran)]);
    assert_eq!(ran.take(), [1, 1]);
}

type Pass = (Result<CorpusResult, String>, Option<ExecTrace>);
type Passes = Vec<(&'static str, Pass)>;

/// `program` over `docs` through every corpus entry point — the sparse
/// ones, and the dense forwards `bench/` still calls — on up to `threads`
/// workers each: the answer (or the first error, as text), and for the
/// traced scan its trace.
fn every_entry_point(program: &str, options: RaOptions, docs: &Docs, threads: usize) -> Passes {
    let query = PreparedQuery::prepare_with_options(program, options).unwrap();
    let (engine, pool) = (query.engine(), WorkerPool::new(threads));
    let all: Vec<u32> = (0..docs.len() as u32).collect();
    let hashes: Vec<u64> = docs.iter().map(|d| fnv1a64(d.bytes())).collect();
    // Each closure builds its own view from the budget. Taking a `QueryView`
    // by value and calling `delta(QueryView::unbounded())` twice in one body
    // is miscompiled by rustc 1.95.0 at opt-level 2 and 3: MIR GVN folds the
    // two identical temporaries into one local, the first call fills it in
    // place, and the second arrives holding the first one's freed vectors
    // (a release-only double free; `-Zmir-enable-passes=-GVN` cures it).
    let delta = |budget: usize| {
        let mut view = QueryView::new(budget);
        let out = engine.evaluate_delta(docs, &hashes, None, &mut view, threads);
        out.map(|outcome| outcome.output)
    };
    let sparse_delta = |budget: usize| {
        let mut view = QueryView::new(budget);
        let out = engine.scan_delta(docs, &hashes, None, &mut view, threads);
        out.map(|outcome| dense(outcome.output))
    };
    let (traced, trace) = match engine.scan_traced(docs, threads) {
        Ok((out, trace)) => (Ok(dense(out)), Some(trace)),
        Err(e) => (Err(e), None),
    };
    let candidates = engine.scan_candidates(docs, &all, threads).map(dense);
    let passes = [
        ("scan", engine.scan(docs, threads).map(dense)),
        ("candidates", candidates),
        ("delta, budget 0", sparse_delta(0)),
        ("delta, unbounded", sparse_delta(usize::MAX)),
        ("dense", query.evaluate_corpus(docs, threads)),
        ("dense, pool", query.evaluate_corpus_on_pool(docs, &pool)),
        ("dense delta, budget 0", delta(0)),
        ("dense delta, unbounded", delta(usize::MAX)),
        ("traced", traced),
    ];
    let mut passes: Passes = passes
        .map(|(name, out)| (name, (out.map_err(|e| e.to_string()), None)))
        .into();
    passes[8].1 .1 = trace;
    passes
}

/// `trace_oracle`'s programs — every physical operator — over lines the
/// static prefilters skip, lines the boolean scan rejects and lines that
/// match, repeated until three workers each get a share.
#[test]
fn every_entry_point_agrees() {
    let programs = [
        "/{x:a+}b/",
        "/.*{x:a+}b.*/",
        "let a = /{x:a+}b*/; project x (a);",
        "let a = /{x:a}b*/; let b = /a*{x:b}/; a union b;",
        "let a = /{x:a+}{y:b+}/; let b = /{x:a+}b*/; a join b;",
        "/.*{x:a+}.*/ minus /{x:aa}/",
        "let a = /{x:(a|b)+}/; let b = /{x:ab+}/; project x (a minus b);",
    ];
    let lines = "aab|zzz|ab||bbb|aabab|qqq aab|b|a|abab|ba".split('|');
    let lines = strings(lines.cycle().take(36 * 11));
    let timeless = |out: &CorpusResult| CorpusStats {
        elapsed: Default::default(),
        ..out.stats
    };
    let outcomes = Cell::new([0; 3]);
    let mut tripped = 0;
    let ran = Ran::default();
    for program in programs {
        for threads in [1, 2, 3, 0] {
            // Every entry point answers as the reference and as the first,
            // `scan`, on every tally; the traced pass's counters are its
            // answer's.
            let every = surface(format!("every entry point, {threads} threads"), |case| {
                let docs = Arc::new(case.corpus());
                let passes =
                    every_entry_point(&case.ql_text()?, RaOptions::default(), &docs, threads);
                let first = timeless(passes[0].1 .0.as_ref().unwrap());
                ran.borrow_mut().push(first.threads);
                let add = [
                    first.docs_skipped,
                    first.docs_rejected,
                    first.matched_documents,
                ];
                outcomes.set(std::array::from_fn(|i| outcomes.get()[i] + add[i]));
                let mut seen = Vec::new();
                for (name, (out, trace)) in passes {
                    let out = out.unwrap();
                    let stats = out.stats;
                    assert_eq!(timeless(&out), first, "{name}");
                    if let Some(trace) = trace {
                        let tally = |counter| trace.counter(counter) as usize;
                        let evaluated = stats.documents - stats.docs_skipped - stats.docs_rejected;
                        let counted = [tally("corpus_docs_skipped"), tally("corpus_docs_rejected")];
                        assert_eq!(counted, [stats.docs_skipped, stats.docs_rejected]);
                        assert_eq!(tally("corpus_docs_evaluated"), evaluated);
                        // The root operator produced the answer; in a
                        // one-scan plan it is the whole trace.
                        let rows = stats.mappings as u64;
                        assert_eq!(trace.rows, rows);
                        assert!(!trace.children.is_empty() || trace.total_rows() == rows);
                    }
                    seen.push((0, out.results));
                }
                Some(seen)
            });
            check(&Case::ql(program, &lines), &[every]);
            // 396 lines are three workers' minimum shares; `0` is one per CPU.
            let offered = spanner_corpus::resolve_pool_threads(threads);
            assert_eq!(ran.take(), [offered.min(3)], "{program:?}");

            // No intermediate relation may hold a mapping: a plan with a
            // relational operator trips on its first matching line, and
            // every entry point reports that line's error.
            let docs = Arc::new(lines.iter().map(Document::new).collect());
            let strict = RaOptions {
                max_signatures: 0,
                ..RaOptions::default()
            };
            let passes = every_entry_point(program, strict, &docs, threads);
            let first = &passes[0].1 .0;
            for (name, (out, _)) in &passes {
                match (out, first) {
                    (Ok(out), Ok(first)) => assert_eq!(out.results, first.results),
                    (Err(e), Err(first)) => assert_eq!(e, first, "{name}: {program:?}"),
                    _ => panic!("{name} and scan disagree on failing: {program:?}"),
                }
            }
            tripped += usize::from(first.is_err());
        }
    }
    // The corpus exercised every outcome, and the guard tripped wherever a
    // plan has a relational operator: the two `minus` programs (union, join
    // and projection over static leaves fuse into one scan), at each of the
    // four thread counts.
    let outcomes = outcomes.get();
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    assert_eq!(tripped, 8);
}
