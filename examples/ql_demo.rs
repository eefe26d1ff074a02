//! SpannerQL end to end: write a query as text, prepare it once, evaluate
//! single documents and a corpus.
//!
//! The query extracts (user, host) pairs from email-shaped lines with two
//! reusable bindings, then filters the admin accounts out with the
//! difference operator — the whole Figure 2 pipeline (join, projection,
//! difference) driven from a five-line program.
//!
//! Run with: `cargo run --release --example ql_demo`

use document_spanners::prelude::*;

const PROGRAM: &str = r#"
# Bindings are reusable extractors; the regex syntax is spanner_rgx's.
let pair = /{user:[a-z]+}@{host:[a-z]+(\.[a-z]+)*}( .*)?/;
let dotted = /[a-z]+@[a-z]+\.{tld:[a-z]+}( .*)?/;

# (user, host, tld) for every dotted address, minus the admin accounts.
project user, tld (pair join dotted)
  minus /{user:admin[a-z]*}@[a-z]+\.{tld:[a-z]+}( .*)?/;
"#;

fn main() {
    // Prepare once: parse → lower → optimize → compile. Errors point at the
    // offending source position.
    let query = match PreparedQuery::prepare(PROGRAM) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{}", e.pretty(PROGRAM));
            std::process::exit(1);
        }
    };
    println!("{}", query.explain());

    // Single documents, streaming.
    for text in [
        "bob@edu.ru welcome",
        "adminx@edu.ru hello",
        "carol@site.org",
    ] {
        let doc = Document::new(text);
        let mappings: Vec<_> = query
            .stream(&doc)
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        println!("{text:?}: {} mapping(s)", mappings.len());
        for m in &mappings {
            let cells: Vec<String> = m
                .iter()
                .map(|(v, s)| format!("{v}={:?}", doc.slice(s)))
                .collect();
            println!("  {}", cells.join(" "));
        }
    }

    // A line corpus through the same prepared plan, in parallel.
    let corpus = "bob@edu.ru a\nadmin@edu.uk b\neve@dot.net c\nplain text\n";
    let docs = split_lines(corpus);
    let out = query.scan_corpus(&docs, 2).unwrap();
    println!(
        "\ncorpus: {} lines, {} matching, {} mappings in {:?}",
        out.stats.documents, out.stats.matched_documents, out.stats.mappings, out.stats.elapsed
    );

    // A broken program for comparison: the error is spanned and pretty.
    let broken = "let a = /{x:a/; a";
    if let Err(e) = PreparedQuery::prepare(broken) {
        println!("\nerror reporting demo:\n{}", e.pretty(broken));
    }
}
