//! The corpus engine: one compiled plan, many documents, many threads.
//!
//! Generates an access-log corpus (one document per line), compiles a
//! projected request-extractor plan once, and evaluates the whole corpus
//! with 1..=4 worker threads, verifying that the per-document results are
//! identical for every thread count.
//!
//! Run with: `cargo run --release --example corpus_scan [lines]`

use document_spanners::prelude::*;
use document_spanners::workloads;

fn main() {
    let lines: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let corpus = workloads::access_log(lines, 11);
    let docs = split_lines(corpus.text());
    println!("corpus: {} documents, {} bytes", docs.len(), corpus.len());

    // One compiled plan — π_{path,status} over a request extractor — shared
    // by every worker thread.
    let alpha = parse(
        r#"{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d/]+\] "{method:\u+} {path:[\w/\.]+}" {status:\d\d\d} \d+"#,
    )
    .unwrap();
    let tree = RaTree::project(VarSet::from_iter(["path", "status"]), RaTree::leaf(0));
    let inst = Instantiation::new().with(0, alpha);
    let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
    println!(
        "plan: {} ({})\n",
        engine.plan().tree(),
        if engine.plan().is_static() {
            "fully static — zero per-document compilation"
        } else {
            "document-dependent parts recompiled per document"
        }
    );

    let mut baseline: Option<Vec<(u32, MappingSet)>> = None;
    for threads in 1..=4 {
        let out = engine.scan(&docs, threads).unwrap();
        let s = out.stats;
        println!(
            "threads={}: {} mappings in {} docs, {:?} ({:.1} MiB/s)",
            s.threads,
            s.mappings,
            s.matched_documents,
            s.elapsed,
            corpus.len() as f64 / s.elapsed.as_secs_f64() / (1024.0 * 1024.0),
        );
        match &baseline {
            None => baseline = Some(out.matches),
            Some(expected) => assert_eq!(
                expected, &out.matches,
                "thread count must not change the results"
            ),
        }
    }
}
