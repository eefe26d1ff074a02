//! `document-spanners` — a small command-line front end.
//!
//! ```text
//! document-spanners extract  <pattern> [file]        enumerate VαW(d)
//! document-spanners count    <pattern> [file]        count the mappings
//! document-spanners classify <pattern>               report the syntactic classes
//! document-spanners diff     <pattern1> <pattern2> [file]
//!                                                    evaluate Vα1 \ α2W(d)
//! document-spanners corpus   <pattern> [file [threads]]
//!                                                    evaluate every line as its
//!                                                    own document, in parallel
//! document-spanners index    <file> <store>          ingest every line of <file>
//!                                                    into a trigram-indexed
//!                                                    segment file
//! document-spanners query    <program> [file]        run a SpannerQL program
//! document-spanners query --trace <program> [file]   … and report the measured
//!                                                    per-operator trace on stderr
//! document-spanners query --corpus <program> [file [threads]]
//!                                                    … over every line, in parallel
//! document-spanners query --store <program> <store> [threads]
//!                                                    … over an indexed store,
//!                                                    pruning through its trigram
//!                                                    posting lists
//! document-spanners query --store --watch <program> <store> [threads]
//!                                                    … then apply one mutation per
//!                                                    stdin line (`append <text>`,
//!                                                    `update <id> <text>`,
//!                                                    `delete <id>`) and re-query
//!                                                    incrementally through the
//!                                                    maintained view
//! document-spanners explain  <program>               show the parsed tree, the
//!                                                    optimized plan, the physical
//!                                                    operators, and the
//!                                                    shared-variable bound
//! document-spanners explain --analyze <program> [file]
//!                                                    … then run the program on the
//!                                                    document and annotate every
//!                                                    operator with measured rows,
//!                                                    time, and fast-path counters
//! document-spanners serve    [addr [threads]]        long-running query daemon
//!                                                    with a prepared-query cache
//! document-spanners serve    --http [addr [threads]] the same daemon behind an
//!                                                    HTTP/1.1 front end (/v1/*,
//!                                                    /metrics, /healthz)
//! document-spanners client   <addr> [json-line]      send one request line to a
//!                                                    daemon (stdin when omitted)
//! ```
//!
//! The pattern syntax is the one of `spanner_rgx::parse`; SpannerQL programs
//! use the `spanner_ql` syntax (`let name = /…/; expr;`). When no file is
//! given — or when the file argument is `-` — the document is read from
//! standard input, so a thread count can follow in the pipe shape
//! `tail -f log | document-spanners query --corpus <program> - 4`. The
//! `index` file operand and the `query --store` store operand accept `-`
//! the same way (the store bytes themselves stream from stdin), except
//! under `--watch`, whose stdin is the mutation stream.

use document_spanners::prelude::*;
use spanner_rgx::RgxClass;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage:
  document-spanners extract  <pattern> [file]
  document-spanners count    <pattern> [file]
  document-spanners classify <pattern>
  document-spanners diff     <pattern1> <pattern2> [file]
  document-spanners corpus   <pattern> [file [threads]]
  document-spanners index    <file> <store>
  document-spanners query    <program> [file]
  document-spanners query    --trace <program> [file]
  document-spanners query    --corpus <program> [file [threads]]
  document-spanners query    --store <program> <store> [threads]
  document-spanners query    --store --watch <program> <store> [threads]
  document-spanners explain  <program>
  document-spanners explain  --analyze <program> [file]
  document-spanners serve    [--http] [addr [threads]]
  document-spanners client   <addr> [json-line]

a file or store argument of `-` reads from standard input; `--watch`
applies one mutation per stdin line (`append <text>`, `update <id> <text>`,
`delete <id>`) and re-queries through the maintained view";

/// The default listen address of `serve`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7171";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Checks the number of operands after the command name: between `min` and
/// `max`, rejecting silently-ignored trailing arguments.
fn arity(command: &str, operands: &[String], min: usize, max: usize) -> Result<(), String> {
    if operands.len() < min {
        return Err(format!(
            "`{command}` needs at least {min} argument{}, got {}",
            if min == 1 { "" } else { "s" },
            operands.len()
        ));
    }
    if operands.len() > max {
        return Err(format!(
            "unexpected extra argument `{}` to `{command}` (takes at most {max})",
            operands[max]
        ));
    }
    Ok(())
}

/// Strips a leading `--http` flag (the `serve` transport switch) from the
/// operand list.
fn strip_http_flag(operands: &[String]) -> (bool, &[String]) {
    match operands.first() {
        Some(flag) if flag == "--http" => (true, &operands[1..]),
        _ => (false, operands),
    }
}

/// Parses the optional worker-count operand (`0` = one worker per CPU).
fn parse_threads(arg: Option<&String>) -> Result<usize, String> {
    match arg {
        None => Ok(0),
        Some(t) => t.parse().map_err(|_| {
            format!("invalid thread count `{t}`: expected a non-negative integer (0 = one per CPU)")
        }),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    let operands = &args[1..];
    match command.as_str() {
        "classify" => {
            arity(command, operands, 1, 1)?;
            let alpha = parse(&operands[0]).map_err(|e| e.to_string())?;
            let class = RgxClass::of(&alpha);
            println!("formula      : {alpha}");
            println!("variables    : {:?}", alpha.vars());
            println!("functional   : {}", class.functional);
            println!("sequential   : {}", class.sequential);
            println!("disjunctive functional : {}", class.disjunctive_functional);
            println!("disjunction-free       : {}", class.disjunction_free);
            println!("synchronized (all vars): {}", class.synchronized);
            Ok(())
        }
        "extract" | "count" => {
            arity(command, operands, 1, 2)?;
            let doc = read_document(operands.get(1))?;
            let alpha = parse(&operands[0]).map_err(|e| e.to_string())?;
            let vsa = compile(&alpha);
            let enumerator = Enumerator::new(&vsa, &doc).map_err(|e| e.to_string())?;
            if command == "count" {
                let count = enumerator.count();
                println!("{count}");
            } else {
                for mapping in enumerator {
                    let mapping = mapping.map_err(|e| e.to_string())?;
                    print_mapping(&doc, &mapping);
                }
            }
            Ok(())
        }
        "diff" => {
            arity(command, operands, 2, 3)?;
            let doc = read_document(operands.get(2))?;
            for mapping in diff(&operands[0], &operands[1], &doc)?.iter() {
                print_mapping(&doc, mapping);
            }
            Ok(())
        }
        "corpus" => {
            arity(command, operands, 1, 3)?;
            // Validate everything else before the document: `-` reads
            // standard input, which must not be consumed (or blocked on)
            // only to then reject a malformed thread count.
            let threads = parse_threads(operands.get(2))?;
            let alpha = parse(&operands[0]).map_err(|e| e.to_string())?;
            let doc = read_document(operands.get(1))?;
            let docs = split_lines(doc.text());
            let inst = Instantiation::new().with(0, alpha);
            let engine = CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default())
                .map_err(|e| e.to_string())?;
            let out = engine.scan(&docs, threads).map_err(|e| e.to_string())?;
            print_corpus_result(&docs, line_bytes(&docs), &out);
            Ok(())
        }
        "index" => {
            arity(command, operands, 2, 2)?;
            let doc = read_document(Some(&operands[0]))?;
            let docs = split_lines(doc.text());
            let store = Store::build(docs).map_err(|e| e.to_string())?;
            store
                .save(&operands[1])
                .map_err(|e| format!("{}: {e}", operands[1]))?;
            eprintln!(
                "indexed {} documents ({} bytes) into {}: {} distinct trigrams",
                store.len(),
                store.bytes(),
                operands[1],
                store.trigram_count(),
            );
            Ok(())
        }
        "query" => {
            let mode = operands
                .first()
                .filter(|a| *a == "--corpus" || *a == "--store" || *a == "--trace")
                .map(String::as_str);
            let operands = if mode.is_some() {
                &operands[1..]
            } else {
                operands
            };
            if let Some("--trace") = mode {
                arity("query --trace", operands, 1, 2)?;
                let prepared = prepare_program(&operands[0])?;
                let doc = read_document(operands.get(1))?;
                // The trace goes to stderr even when the query errors —
                // seeing where a LimitExceeded tripped is the point.
                let (result, trace) = prepared.evaluate_traced(&doc);
                eprint!("{}", trace.render());
                let set = result.map_err(|e| e.to_string())?;
                for mapping in set.iter() {
                    print_mapping(&doc, mapping);
                }
                return Ok(());
            }
            if let Some("--store") = mode {
                let watch = operands.first().is_some_and(|a| a == "--watch");
                let operands = if watch { &operands[1..] } else { operands };
                let subcommand = if watch {
                    "query --store --watch"
                } else {
                    "query --store"
                };
                // Program and thread count are validated before anything is
                // read: with a `-` store (or watch mode, whose stdin is the
                // mutation stream) the input must not be consumed first.
                arity(subcommand, operands, 2, 3)?;
                let prepared = prepare_program(&operands[0])?;
                let threads = parse_threads(operands.get(2))?;
                if watch {
                    if operands[1] == "-" {
                        return Err(
                            "`--watch` reads mutations from standard input, so the store \
                             cannot be `-`"
                                .into(),
                        );
                    }
                    let store =
                        Store::load(&operands[1]).map_err(|e| format!("{}: {e}", operands[1]))?;
                    return run_watch(store, &prepared, threads, std::io::stdin().lock());
                }
                let store = match document_source(Some(&operands[1])) {
                    DocSource::Stdin => {
                        Store::load_from(std::io::stdin().lock()).map_err(|e| format!("-: {e}"))?
                    }
                    DocSource::File(path) => {
                        Store::load(path).map_err(|e| format!("{path}: {e}"))?
                    }
                };
                let outcome = store
                    .query_matches(prepared.engine(), threads)
                    .map_err(|e| e.to_string())?;
                print_corpus_result(store.documents(), store.bytes(), &outcome.output);
                match outcome.candidates {
                    Some(count) => eprintln!(
                        "index: {count} of {} documents are candidates \
                         ({:.2}% selectivity; literals: {})",
                        store.len(),
                        outcome.selectivity() * 100.0,
                        render_literals(&outcome.literals),
                    ),
                    None => eprintln!(
                        "index: full scan (the plan yields no literal of at least \
                         {} bytes)",
                        document_spanners::store::TRIGRAM_LEN
                    ),
                }
                return Ok(());
            }
            let corpus_mode = mode.is_some();
            if corpus_mode {
                arity("query --corpus", operands, 1, 3)?;
            } else {
                arity(command, operands, 1, 2)?;
            }
            // Program and thread count are validated before the document is
            // read: with `-` (stdin) the input must not be consumed first.
            let prepared = prepare_program(&operands[0])?;
            if corpus_mode {
                let threads = parse_threads(operands.get(2))?;
                let doc = read_document(operands.get(1))?;
                let docs = split_lines(doc.text());
                let out = prepared
                    .scan_corpus(&docs, threads)
                    .map_err(|e| e.to_string())?;
                print_corpus_result(&docs, line_bytes(&docs), &out);
            } else {
                let doc = read_document(operands.get(1))?;
                let stream = prepared.stream(&doc).map_err(|e| e.to_string())?;
                for mapping in stream {
                    let mapping = mapping.map_err(|e| e.to_string())?;
                    print_mapping(&doc, &mapping);
                }
            }
            Ok(())
        }
        "explain" => {
            let analyze = operands.first().is_some_and(|a| a == "--analyze");
            if analyze {
                let operands = &operands[1..];
                arity("explain --analyze", operands, 1, 2)?;
                let prepared = prepare_program(&operands[0])?;
                let doc = read_document(operands.get(1))?;
                print!("{}", prepared.explain_analyze(&doc));
            } else {
                arity(command, operands, 1, 1)?;
                let prepared = prepare_program(&operands[0])?;
                print!("{}", prepared.explain());
            }
            Ok(())
        }
        "serve" => {
            let (http, operands) = strip_http_flag(operands);
            arity(command, operands, 0, 2)?;
            let threads = parse_threads(operands.get(1))?;
            let addr = operands.first().map_or(DEFAULT_SERVE_ADDR, String::as_str);
            let options = spanner_serve::ServeOptions {
                threads,
                http,
                ..spanner_serve::ServeOptions::default()
            };
            let server = spanner_serve::Server::bind(addr, options)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            if http {
                eprintln!(
                    "listening on http://{} (endpoints: /healthz, /metrics, \
                     /v1/prepare, /v1/query, /v1/query_corpus, /v1/explain, \
                     /v1/corpus, /v1/corpus/append, /v1/corpus/update, \
                     /v1/corpus/delete, /v1/stats, /v1/shutdown)",
                    server.local_addr(),
                );
            } else {
                eprintln!(
                    "listening on {} (line-delimited JSON ops: {})",
                    server.local_addr(),
                    spanner_serve::Request::OPS.join(", "),
                );
            }
            server.run().map_err(|e| e.to_string())
        }
        "client" => {
            arity(command, operands, 1, 2)?;
            let mut client = spanner_serve::Client::connect(&operands[0])
                .map_err(|e| format!("cannot connect to {}: {e}", operands[0]))?;
            match operands.get(1) {
                Some(line) => {
                    let response = client.request_line(line).map_err(|e| e.to_string())?;
                    println!("{response}");
                }
                None => {
                    // Pipe shape: one request per stdin line, one response
                    // per stdout line — streamed, so interactive sessions
                    // and long-lived producers get each answer immediately.
                    use std::io::BufRead;
                    for line in std::io::stdin().lock().lines() {
                        let line = line.map_err(|e| e.to_string())?;
                        if line.trim().is_empty() {
                            continue;
                        }
                        let response = client.request_line(&line).map_err(|e| e.to_string())?;
                        println!("{response}");
                    }
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// `Vα1 \ α2W(d)` through the executor every other command serves through:
/// the difference of two leaves, lowered to a compiled plan like `corpus`
/// lowers its pattern. (`difference_product_eval`, Theorem 4.8's
/// construction, is the reference the oracles compare this against; built
/// per document, it takes seconds where this takes milliseconds.)
fn diff(alpha1: &str, alpha2: &str, doc: &Document) -> Result<MappingSet, String> {
    let inst = Instantiation::new()
        .with(0, parse(alpha1).map_err(|e| e.to_string())?)
        .with(1, parse(alpha2).map_err(|e| e.to_string())?);
    let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
    evaluate_ra(&tree, &inst, doc, RaOptions::default()).map_err(|e| e.to_string())
}

/// Prepares a SpannerQL program, rendering errors with their source line
/// and a caret marker.
fn prepare_program(src: &str) -> Result<PreparedQuery, String> {
    PreparedQuery::prepare(src).map_err(|e| format!("in SpannerQL program:\n{}", e.pretty(src)))
}

/// Renders extracted required literals for the selectivity report, lossy
/// on non-UTF-8 byte strings.
fn render_literals(literals: &[Vec<u8>]) -> String {
    if literals.is_empty() {
        return "none".to_string();
    }
    literals
        .iter()
        .map(|l| format!("{:?}", String::from_utf8_lossy(l)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Total length of a corpus shipped on the command line (the store keeps its
/// own: `Store::bytes`).
fn line_bytes(docs: &[Document]) -> usize {
    docs.iter().map(Document::len).sum()
}

/// Prints the matching lines of `docs` (`bytes` long in total), then the
/// pass's accounting on stderr.
fn print_corpus_result(docs: &[Document], bytes: usize, out: &CorpusMatches) {
    for (id, result) in &out.matches {
        println!("{}\t{}", result.len(), docs[*id as usize].text());
    }
    let s = out.stats;
    let secs = s.elapsed.as_secs_f64();
    let mib_per_s = if secs > 0.0 {
        bytes as f64 / secs / (1024.0 * 1024.0)
    } else {
        0.0
    };
    eprintln!(
        "{} documents ({bytes} bytes), {} mappings in {} matching documents; \
         {} threads, {:?} ({mib_per_s:.1} MiB/s)",
        s.documents, s.mappings, s.matched_documents, s.threads, s.elapsed,
    );
}

/// The `query --store --watch` loop: evaluate once, then apply one
/// mutation per input line and re-evaluate through the maintained view,
/// reporting per tick how little of the corpus was recomputed.
fn run_watch(
    mut store: Store,
    prepared: &PreparedQuery,
    threads: usize,
    ticks: impl std::io::BufRead,
) -> Result<(), String> {
    let mut view = QueryView::unbounded();
    let outcome = store
        .query_view_matches(prepared.engine(), &mut view, threads)
        .map_err(|e| e.to_string())?;
    print_watch_tick(&store, &outcome);
    for line in ticks.lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let mutation = parse_mutation_line(&line)?;
        store.apply(&mutation).map_err(|e| e.to_string())?;
        let outcome = store
            .query_view_matches(prepared.engine(), &mut view, threads)
            .map_err(|e| e.to_string())?;
        print_watch_tick(&store, &outcome);
    }
    Ok(())
}

/// Prints one watch tick: the matching lines, then the incremental
/// accounting on stderr.
fn print_watch_tick(store: &Store, outcome: &ViewQueryOutcome) {
    print_corpus_result(store.documents(), store.bytes(), &outcome.output);
    eprintln!(
        "view: generation {}, {} of {} documents re-evaluated ({} served from the view, \
         {} invalidated)",
        outcome.generation,
        outcome.delta_docs,
        store.len(),
        outcome.view_hits,
        outcome.invalidated,
    );
}

/// Parses one watch-mode mutation line: `append <text>`, `update <id>
/// <text>`, or `delete <id>`.
fn parse_mutation_line(line: &str) -> Result<Mutation, String> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let (op, rest) = line.split_once(' ').unwrap_or((line, ""));
    let id = |text: &str| {
        text.parse::<u32>()
            .map_err(|_| format!("invalid document id `{text}` in mutation `{line}`"))
    };
    match op {
        "append" => Ok(Mutation::Append {
            text: rest.to_string(),
        }),
        "update" => {
            let (target, text) = rest.split_once(' ').unwrap_or((rest, ""));
            Ok(Mutation::Update {
                id: id(target)?,
                text: text.to_string(),
            })
        }
        "delete" => Ok(Mutation::Delete { id: id(rest)? }),
        other => Err(format!(
            "unknown mutation `{other}` (expected `append <text>`, `update <id> <text>`, \
             or `delete <id>`)"
        )),
    }
}

/// Where a document argument dispatches to: standard input (no argument, or
/// the conventional `-`) or a file path.
#[derive(Debug, PartialEq, Eq)]
enum DocSource<'a> {
    Stdin,
    File(&'a str),
}

/// Resolves the optional file operand. `-` selects standard input so a
/// thread count can follow it (`corpus <pattern> - 4` in a pipe).
fn document_source(arg: Option<&String>) -> DocSource<'_> {
    match arg.map(String::as_str) {
        None | Some("-") => DocSource::Stdin,
        Some(path) => DocSource::File(path),
    }
}

fn read_document(path: Option<&String>) -> Result<Document, String> {
    let text = match document_source(path) {
        DocSource::File(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        }
        DocSource::Stdin => {
            let mut buffer = String::new();
            std::io::stdin()
                .read_to_string(&mut buffer)
                .map_err(|e| e.to_string())?;
            buffer
        }
    };
    Ok(Document::new(text))
}

fn print_mapping(doc: &Document, mapping: &Mapping) {
    use std::io::Write;
    let cells: Vec<String> = mapping
        .iter()
        .map(|(v, s)| format!("{v}={s}:{:?}", doc.slice(s)))
        .collect();
    // Ignore broken pipes (e.g. when piped into `head`).
    let _ = writeln!(std::io::stdout(), "{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Writes a scratch document and returns its path.
    fn scratch(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "document-spanners-cli-{}-{name}",
            std::process::id()
        ));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(run(&argv(&["frobnicate"])).unwrap_err().contains("unknown"));
        assert!(run(&[]).unwrap_err().contains("missing command"));
    }

    #[test]
    fn trailing_arguments_are_rejected() {
        let cases: &[&[&str]] = &[
            &["classify", "{x:a}", "extra"],
            &["extract", "{x:a}", "file", "extra"],
            &["count", "{x:a}", "file", "extra"],
            &["diff", "a", "b", "file", "extra"],
            &["corpus", "a", "file", "2", "extra"],
            &["index", "file", "store", "extra"],
            &["query", "/a/", "file", "extra"],
            &["query", "--trace", "/a/", "file", "extra"],
            &["query", "--corpus", "/a/", "file", "2", "extra"],
            &["query", "--store", "/a/", "store", "2", "extra"],
            &["query", "--store", "--watch", "/a/", "store", "2", "extra"],
            &["explain", "/a/", "extra"],
            &["explain", "--analyze", "/a/", "file", "extra"],
            &["serve", "127.0.0.1:0", "2", "extra"],
            &["serve", "--http", "127.0.0.1:0", "2", "extra"],
            &["client", "127.0.0.1:1", "{}", "extra"],
        ];
        for case in cases {
            let err = run(&argv(case)).unwrap_err();
            assert!(err.contains("unexpected extra argument"), "{case:?}: {err}");
        }
    }

    #[test]
    fn missing_arguments_are_rejected() {
        for case in [
            &["extract"][..],
            &["diff", "a"],
            &["query"],
            &["explain"],
            &["index", "file"],
            &["query", "--store", "/a/"],
            &["query", "--store", "--watch", "/a/"],
            &["explain", "--analyze"],
            &["query", "--trace"],
        ] {
            let err = run(&argv(case)).unwrap_err();
            assert!(err.contains("needs at least"), "{case:?}: {err}");
        }
    }

    #[test]
    fn index_and_store_query_round_trip() {
        let corpus: String = (0..40)
            .map(|i| {
                if i % 8 == 0 {
                    format!("line {i}: needle\n")
                } else {
                    format!("line {i}: hay\n")
                }
            })
            .collect();
        let file = scratch("store-corpus", &corpus);
        let store_path = scratch("store-file", "");
        assert_eq!(run(&argv(&["index", &file, &store_path])), Ok(()));
        // A selective program prunes through the index; a literal-free one
        // falls back to the full scan — both must succeed end to end.
        assert_eq!(
            run(&argv(&[
                "query",
                "--store",
                "/.*needle{x: .*}/",
                &store_path,
                "2"
            ])),
            Ok(())
        );
        assert_eq!(
            run(&argv(&["query", "--store", "/{x:[nh]+}/", &store_path])),
            Ok(())
        );
        // A corrupt store file is diagnosed by path.
        let bogus = scratch("store-bogus", "not a store");
        let err = run(&argv(&["query", "--store", "/{x:a}/", &bogus])).unwrap_err();
        assert!(err.contains("invalid store file"), "{err}");
        // The program is validated before the store is read.
        let err = run(&argv(&["query", "--store", "let a = /x/; b", &store_path])).unwrap_err();
        assert!(err.contains("unknown extractor"), "{err}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&store_path).ok();
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn store_dash_operand_validates_before_stdin() {
        // `query --store <program> -` streams the store from stdin, so the
        // program and thread count must be diagnosed without reading it.
        let err = run(&argv(&["query", "--store", "let a = /x/; b", "-"])).unwrap_err();
        assert!(err.contains("unknown extractor"), "{err}");
        let err = run(&argv(&["query", "--store", "/{x:a}/", "-", "nope"])).unwrap_err();
        assert!(err.contains("invalid thread count `nope`"), "{err}");
        // Watch mode owns stdin for mutations: a `-` store is rejected.
        let err = run(&argv(&["query", "--store", "--watch", "/{x:a}/", "-"])).unwrap_err();
        assert!(err.contains("cannot be `-`"), "{err}");
        // And its program/threads validation also precedes any input.
        let err = run(&argv(&[
            "query",
            "--store",
            "--watch",
            "let a = /x/; b",
            "-",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown extractor"), "{err}");
        let err = run(&argv(&["query", "--store", "--watch", "/{x:a}/", "-", "x"])).unwrap_err();
        assert!(err.contains("invalid thread count `x`"), "{err}");
    }

    #[test]
    fn mutation_lines_parse_and_reject() {
        assert_eq!(
            parse_mutation_line("append needle here"),
            Ok(Mutation::Append {
                text: "needle here".into()
            })
        );
        assert_eq!(
            parse_mutation_line("append"),
            Ok(Mutation::Append { text: "".into() }),
            "an empty append is a legal empty document"
        );
        assert_eq!(
            parse_mutation_line("update 3 new text\r"),
            Ok(Mutation::Update {
                id: 3,
                text: "new text".into()
            })
        );
        assert_eq!(
            parse_mutation_line("update 7"),
            Ok(Mutation::Update {
                id: 7,
                text: "".into()
            })
        );
        assert_eq!(
            parse_mutation_line("delete 2"),
            Ok(Mutation::Delete { id: 2 })
        );
        for (line, needle) in [
            ("frobnicate 3", "unknown mutation"),
            ("update x text", "invalid document id `x`"),
            ("delete", "invalid document id ``"),
            ("delete -1", "invalid document id `-1`"),
        ] {
            let err = parse_mutation_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn watch_loop_applies_mutations_and_stays_incremental() {
        let docs = split_lines("alpha needle\nbeta\ngamma");
        let store = Store::build(docs).unwrap();
        let prepared = prepare_program("/.*needle{x:.*}/").unwrap();
        let script = "append delta needle\nupdate 1 beta needle\n\ndelete 0\n";
        assert_eq!(
            run_watch(store, &prepared, 1, std::io::Cursor::new(script)),
            Ok(())
        );
        // A malformed mutation line aborts the loop with its diagnosis.
        let store = Store::build(split_lines("alpha")).unwrap();
        let err = run_watch(store, &prepared, 1, std::io::Cursor::new("explode 1\n")).unwrap_err();
        assert!(err.contains("unknown mutation"), "{err}");
        // An out-of-range id surfaces the store's mutation error.
        let store = Store::build(split_lines("alpha")).unwrap();
        let err = run_watch(store, &prepared, 1, std::io::Cursor::new("delete 9\n")).unwrap_err();
        assert!(err.contains("9"), "{err}");
    }

    #[test]
    fn bad_thread_count_is_diagnosed() {
        let file = scratch("threads", "aa\n");
        let err = run(&argv(&["corpus", "{x:a+}", &file, "two"])).unwrap_err();
        assert!(err.contains("invalid thread count `two`"), "{err}");
        let err = run(&argv(&["query", "--corpus", "/{x:a+}/", &file, "-1"])).unwrap_err();
        assert!(err.contains("invalid thread count"), "{err}");
    }

    #[test]
    fn dash_file_argument_dispatches_to_stdin() {
        // `-` is stdin, so `corpus <pattern> - <threads>` works in a pipe;
        // anything else (including a file literally named "–" or "./-")
        // stays a path lookup.
        let dash = "-".to_string();
        let file = "access.log".to_string();
        let dotdash = "./-".to_string();
        assert_eq!(document_source(None), DocSource::Stdin);
        assert_eq!(document_source(Some(&dash)), DocSource::Stdin);
        assert_eq!(document_source(Some(&file)), DocSource::File("access.log"));
        assert_eq!(document_source(Some(&dotdash)), DocSource::File("./-"));
        // The thread-count operand still parses in the `-` position's wake:
        // `corpus <pattern> - two` must diagnose the count, not the dash.
        let err = run(&argv(&["corpus", "{x:a+}", "-", "two"])).unwrap_err();
        assert!(err.contains("invalid thread count `two`"), "{err}");
        let err = run(&argv(&["query", "--corpus", "/{x:a}/", "-", "nope"])).unwrap_err();
        assert!(err.contains("invalid thread count `nope`"), "{err}");
    }

    #[test]
    fn query_runs_a_program_over_a_file() {
        let file = scratch("query", "aab");
        assert_eq!(run(&argv(&["query", "/{x:a+}b/", &file])), Ok(()));
        assert_eq!(
            run(&argv(&[
                "query",
                "--corpus",
                "let a = /{x:a+}b*/; project x (a);",
                &file,
                "2",
            ])),
            Ok(())
        );
    }

    #[test]
    fn query_trace_and_explain_analyze_run_end_to_end() {
        let file = scratch("trace", "aab");
        assert_eq!(
            run(&argv(&["query", "--trace", "/{x:a+}b/", &file])),
            Ok(())
        );
        assert_eq!(
            run(&argv(&["explain", "--analyze", "/{x:a+}b/", &file])),
            Ok(())
        );
        // The analyze rendering carries the measured annotations.
        let doc = Document::new("aab");
        let text = prepare_program("/{x:a+}b/").unwrap().explain_analyze(&doc);
        assert!(text.contains("analyze    :"), "{text}");
        assert!(text.contains("rows="), "{text}");
        // A traced query that errors still reports the error on exit.
        let err = run(&argv(&["query", "--trace", "let a = /x/; b", &file])).unwrap_err();
        assert!(err.contains("unknown extractor"), "{err}");
    }

    #[test]
    fn query_errors_carry_positions() {
        let err = run(&argv(&["query", "let a = /x/; b", "unused"])).unwrap_err();
        assert!(err.contains("unknown extractor `b`"), "{err}");
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains('^'), "{err}");
    }

    #[test]
    fn explain_accepts_a_join_chain() {
        assert_eq!(
            run(&argv(&[
                "explain",
                "let a = /{x:a}b*/; let b = /a{y:b+}/; let c = /{x:a}{y:b+}/; (a join b) join c;",
            ])),
            Ok(())
        );
    }

    #[test]
    fn explain_dispatch_includes_the_scan_plan_section() {
        // The `explain` command dispatches through `prepare_program`; the
        // rendering it prints must carry the scan-plan section.
        assert_eq!(run(&argv(&["explain", "/{x:a+}b/"])), Ok(()));
        let explain = prepare_program("/{x:a+}b/").unwrap().explain();
        assert!(
            explain.contains("scan plan  : 1 compiled scan\n"),
            "{explain}"
        );
        assert!(explain.contains("fast path on"), "{explain}");
        assert!(explain.contains("lazy DFA:"), "{explain}");
    }

    #[test]
    fn serve_and_client_argument_validation() {
        let err = run(&argv(&["serve", "127.0.0.1:0", "two"])).unwrap_err();
        assert!(err.contains("invalid thread count `two`"), "{err}");
        let err = run(&argv(&["serve", "not an address"])).unwrap_err();
        assert!(err.contains("cannot bind"), "{err}");
        let err = run(&argv(&["client"])).unwrap_err();
        assert!(err.contains("needs at least"), "{err}");
        // Port 1 is never listening in the test environment.
        let err = run(&argv(&["client", "127.0.0.1:1", "{}"])).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn client_subcommand_round_trips_against_a_daemon() {
        let server =
            spanner_serve::Server::bind("127.0.0.1:0", spanner_serve::ServeOptions::default())
                .unwrap();
        let (addr, handle) = server.spawn();
        let addr = addr.to_string();
        assert_eq!(
            run(&argv(&[
                "client",
                &addr,
                r#"{"op":"query","program":"/{x:a+}/","doc":"aa"}"#,
            ])),
            Ok(())
        );
        assert_eq!(
            run(&argv(&["client", &addr, r#"{"op":"shutdown"}"#])),
            Ok(())
        );
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn diff_serves_through_the_executor_and_agrees_with_the_reference() {
        // Example 2.4 on the Figure 1 document: αinfo \ αUKm keeps the two
        // students without a UK address.
        let info =
            r"(.*\n)?({first:\u\l+} )?{last:\u\l+} ({phone:\d+} )?{mail:\l+@\l+(\.\l+)+}\n.*";
        let uk = r"(.*\s)?{mail:\l+@\l+(\.\l+)*\.uk}(\s.*)?";
        let doc = document_spanners::workloads::students_figure_1();
        let served = diff(info, uk, &doc).unwrap();
        assert_eq!(served.len(), 2);
        let query = prepare_program(&format!("/{info}/ minus /{uk}/")).unwrap();
        assert_eq!(served, query.evaluate(&doc).unwrap());
        let (a1, a2) = (compile(&parse(info).unwrap()), compile(&parse(uk).unwrap()));
        let reference = difference_product_eval(&a1, &a2, &doc, DifferenceOptions::default());
        assert_eq!(served, reference.unwrap());
        // Bad operands are diagnosed, not panicked on.
        assert!(diff("{x:(", uk, &doc).is_err());
        assert!(diff(info, "({x:a})*", &doc).is_err());
    }

    #[test]
    fn classify_and_extract_still_work() {
        let file = scratch("extract", "ab");
        assert_eq!(run(&argv(&["classify", "{x:a}b"])), Ok(()));
        assert_eq!(run(&argv(&["extract", "{x:a}b", &file])), Ok(()));
        assert_eq!(run(&argv(&["count", "{x:a}b", &file])), Ok(()));
        assert_eq!(run(&argv(&["diff", "{x:a}b", "{x:a}c", &file])), Ok(()));
        assert_eq!(run(&argv(&["corpus", "{x:a}b", &file, "1"])), Ok(()));
    }
}
