//! `document-spanners` — a small command-line front end; [`USAGE`] lists
//! its commands. Every evaluating command is a protocol [`Request`]
//! answered in process by the daemon's own [`Handler`], printed as the one
//! JSON line `client` prints for it from a fresh daemon (`count` prints its
//! `count` member, `explain` its `explain` text). `extract`, `count`,
//! `diff` and `corpus` are spellings of `query` over `/pattern/` literals.

use spanner_corpus::split_lines;
use spanner_ql::parse_program;
use spanner_rgx::{parse, RgxClass};
use spanner_serve::{Client, Handler, Json, Request, ServeOptions, Server};
use spanner_store::Store;
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;

/// The commands, printed after an argument error.
const USAGE: &str = "usage:
  document-spanners extract  <pattern> [file]
  document-spanners count    <pattern> [file]
  document-spanners classify <pattern>
  document-spanners diff     <pattern1> <pattern2> [file]
  document-spanners corpus   <pattern> [file [threads]]
  document-spanners index    <file> <store>
  document-spanners query    <program> [file]
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout().lock()) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => eprintln!("error: {message}\n\n{USAGE}"),
        Err(Failure::Error(message)) => eprintln!("error: {message}"),
    }
    ExitCode::FAILURE
}

/// Why a command failed: its arguments, which the usage text follows, or
/// the work they asked for.
#[derive(Debug, PartialEq, Eq)]
enum Failure {
    Usage(String),
    Error(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Error(message)
    }
}

/// Checks the number of operands after the command name: between `min` and
/// `max`, rejecting silently-ignored trailing arguments.
fn arity(command: &str, operands: &[String], min: usize, max: usize) -> Result<(), Failure> {
    let (n, s) = (operands.len(), if min == 1 { "" } else { "s" });
    let error = match operands.get(max) {
        _ if n < min => format!("`{command}` needs at least {min} argument{s}, got {n}"),
        Some(extra) => {
            format!("unexpected extra argument `{extra}` to `{command}` (takes at most {max})")
        }
        None => return Ok(()),
    };
    Err(Failure::Usage(error))
}

/// Strips a leading `flag` from the operand list.
fn strip_flag<'a>(flag: &str, operands: &'a [String]) -> (bool, &'a [String]) {
    match operands.first() {
        Some(first) if first == flag => (true, &operands[1..]),
        _ => (false, operands),
    }
}

/// Parses the optional worker-count operand (`0` = one worker per CPU).
fn parse_threads(arg: Option<&String>) -> Result<usize, Failure> {
    let expected = "expected a non-negative integer (0 = one per CPU)";
    let invalid = |t| Failure::Usage(format!("invalid thread count `{t}`: {expected}"));
    arg.map_or(Ok(0), |t| t.parse().map_err(|_| invalid(t)))
}

/// Runs one command line, printing its answer to `out`.
fn run(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let Some((command, operands)) = args.split_first() else {
        return Err(Failure::Usage("missing command".into()));
    };
    match command.as_str() {
        "classify" => {
            arity(command, operands, 1, 1)?;
            let alpha = parse(&operands[0]).map_err(|e| e.to_string())?;
            let class = RgxClass::of(&alpha);
            let report = format!(
                "formula      : {alpha}\nvariables    : {:?}\nfunctional   : {}\n\
                 sequential   : {}\ndisjunctive functional : {}\n\
                 disjunction-free       : {}\nsynchronized (all vars): {}\n",
                alpha.vars(),
                class.functional,
                class.sequential,
                class.disjunctive_functional,
                class.disjunction_free,
                class.synchronized,
            );
            emit(out, report.as_bytes())
        }
        "extract" | "diff" | "corpus" => query(&as_query(command, operands)?, None, out),
        "count" => query(&as_query(command, operands)?, Some("count"), out),
        "index" => {
            arity(command, operands, 2, 2)?;
            let text = read_text(Some(&operands[0]))?;
            let store = Store::build(split_lines(&text)).map_err(|e| e.to_string())?;
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
        "query" => query(operands, None, out),
        "explain" => {
            let (analyze, operands) = strip_flag("--analyze", operands);
            let name = ["explain", "explain --analyze"][analyze as usize];
            arity(name, operands, 1, 1 + analyze as usize)?;
            let program = checked_program(&operands[0])?;
            let doc = analyze.then(|| read_text(operands.get(1))).transpose()?;
            let request = Request::Explain {
                program,
                analyze,
                doc,
            };
            ask(
                &Handler::new(ServeOptions::default()),
                request,
                Some("explain"),
                out,
            )
        }
        "serve" => {
            let (http, operands) = strip_flag("--http", operands);
            arity(command, operands, 0, 2)?;
            let threads = parse_threads(operands.get(1))?;
            let addr = operands.first().map_or("127.0.0.1:7171", String::as_str);
            let options = ServeOptions {
                threads,
                http,
                ..ServeOptions::default()
            };
            let server =
                Server::bind(addr, options).map_err(|e| format!("cannot bind {addr}: {e}"))?;
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
                    Request::OPS.join(", "),
                );
            }
            Ok(server.run().map_err(|e| e.to_string())?)
        }
        "client" => {
            arity(command, operands, 1, 2)?;
            let mut client = Client::connect(&operands[0])
                .map_err(|e| format!("cannot connect to {}: {e}", operands[0]))?;
            let mut send = |line: &str| {
                let response = client.request_line(line).map_err(|e| e.to_string())?;
                emit(out, format!("{response}\n").as_bytes())
            };
            let Some(line) = operands.get(1) else {
                // Pipe shape: one response line per stdin request line,
                // each printed as soon as it is answered.
                for line in std::io::stdin().lock().lines() {
                    let line = line.map_err(|e| e.to_string())?;
                    if !line.trim().is_empty() {
                        send(&line)?;
                    }
                }
                return Ok(());
            };
            send(line)
        }
        other => Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
}

/// The `query` operands that `extract`, `count`, `diff` and `corpus` are
/// spellings of: `/p/`, `/p/ minus /q/` and `--corpus /p/`.
fn as_query(command: &str, operands: &[String]) -> Result<Vec<String>, Failure> {
    let (min, max) = match command {
        "diff" => (2, 3),
        "corpus" => (1, 3),
        _ => (1, 2),
    };
    arity(command, operands, min, max)?;
    let literal = |pattern: &String| format!("/{}/", escape_slashes(pattern));
    let mut query = match command {
        "diff" => {
            let [alpha, beta] = [&operands[0], &operands[1]].map(literal);
            vec![format!("{alpha} minus {beta}")]
        }
        "corpus" => vec!["--corpus".into(), literal(&operands[0])],
        _ => vec![literal(&operands[0])],
    };
    query.extend_from_slice(&operands[min..]);
    Ok(query)
}

/// `pattern` as the body of a `/…/` literal: a `\` before every `/` that
/// is not already the second half of an escape pair. The SpannerQL lexer
/// keeps escape pairs verbatim, and the regex parser reads `\/` as `/`.
fn escape_slashes(pattern: &str) -> String {
    let mut out = String::with_capacity(pattern.len());
    let mut chars = pattern.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.extend([c].into_iter().chain(chars.next())),
            '/' => out.push_str("\\/"),
            _ => out.push(c),
        }
    }
    out
}

/// `query [--corpus | --store [--watch]] <program> …`: one request through
/// one handler, the store loaded and installed first for `--store`.
/// Program and thread count are validated before any input is read: with
/// `-` that is standard input, which must not be consumed first.
fn query(operands: &[String], member: Option<&str>, out: &mut impl Write) -> Result<(), Failure> {
    let (mode, operands) = match operands.first().map(String::as_str) {
        Some(flag @ ("--corpus" | "--store")) => (flag, &operands[1..]),
        _ => ("", operands),
    };
    let (watch, operands) = strip_flag("--watch", operands);
    let (name, min, max) = match (mode, watch) {
        ("--corpus", false) => ("query --corpus", 1, 3),
        ("--store", false) => ("query --store", 2, 3),
        ("--store", true) => ("query --store --watch", 2, 3),
        (_, true) => return Err(Failure::Usage("`--watch` needs `--store`".into())),
        _ => ("query", 1, 2),
    };
    arity(name, operands, min, max)?;
    let corpus_threads = parse_threads(operands.get(2))?;
    let handler = Handler::new(ServeOptions {
        corpus_threads,
        ..ServeOptions::default()
    });
    let program = checked_program(&operands[0])?;
    let input = operands.get(1);
    let request = match mode {
        "" => Request::Query {
            program,
            doc: read_text(input)?,
        },
        "--corpus" => Request::QueryCorpus {
            program,
            text: Some(read_text(input)?),
        },
        _ => {
            let store = match operands[1].as_str() {
                "-" if watch => {
                    let why = "`--watch` reads mutations from standard input, so the store \
                               cannot be `-`";
                    return Err(Failure::Usage(why.into()));
                }
                "-" => Store::load_from(std::io::stdin().lock()).map_err(|e| format!("-: {e}")),
                path => Store::load(path).map_err(|e| format!("{path}: {e}")),
            }?;
            handler.install(store);
            if watch {
                return run_watch(&handler, program, std::io::stdin().lock(), out);
            }
            store_query(program)
        }
    };
    ask(&handler, request, member, out)
}

/// A `query_corpus` of the handler's resident store.
fn store_query(program: String) -> Request {
    Request::QueryCorpus {
        program,
        text: None,
    }
}

/// The `query --store --watch` loop over a handler holding the store: a
/// `prepare`, so that the first query is a cache hit and builds the
/// program's view, then one query now and one after each mutation line of
/// `ticks`. Only the queries' responses are printed.
fn run_watch(
    handler: &Handler,
    program: String,
    ticks: impl BufRead,
    out: &mut impl Write,
) -> Result<(), Failure> {
    let quietly = |request| ask(handler, request, None, &mut std::io::sink());
    quietly(Request::Prepare {
        program: program.clone(),
    })?;
    ask(handler, store_query(program.clone()), None, out)?;
    for line in ticks.lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.trim().is_empty() {
            quietly(parse_mutation_line(&line)?)?;
            ask(handler, store_query(program.clone()), None, out)?;
        }
    }
    Ok(())
}

/// Parses one watch-mode mutation line — `append <text>`, `update <id>
/// <text>`, or `delete <id>` — into its protocol request.
fn parse_mutation_line(line: &str) -> Result<Request, String> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let (op, rest) = line.split_once(' ').unwrap_or((line, ""));
    let id = |text: &str| {
        text.parse::<u32>()
            .map_err(|_| format!("invalid document id `{text}` in mutation `{line}`"))
    };
    let (target, text) = rest.split_once(' ').unwrap_or((rest, ""));
    Ok(match op {
        // Terminated, so that an empty `append` is one empty document.
        "append" => Request::AppendDocs {
            text: format!("{rest}\n"),
        },
        "update" => Request::UpdateDoc {
            line: id(target)?,
            text: text.to_string(),
        },
        "delete" => Request::DeleteDocs {
            lines: vec![id(rest)?],
        },
        other => {
            let expected = "`append <text>`, `update <id> <text>`, or `delete <id>`";
            return Err(format!("unknown mutation `{other}` (expected {expected})"));
        }
    })
}

/// Answers `request` through `handler` and prints the response as one
/// line, or only its `member` (a string as its text). A response that says
/// `"ok":false` is a failure with its `error`, after the member is printed.
fn ask(
    handler: &Handler,
    request: Request,
    member: Option<&str>,
    out: &mut impl Write,
) -> Result<(), Failure> {
    let mut body = Vec::new();
    let ok = handler.answer(request, &mut body);
    if ok && member.is_none() {
        body.push(b'\n');
        return emit(out, &body);
    }
    let text = String::from_utf8(body).expect("a response is UTF-8");
    let response = Json::parse(&text).expect("a response is JSON");
    match member.and_then(|name| response.get(name)) {
        Some(Json::Str(text)) => emit(out, text.as_bytes())?,
        Some(value) => emit(out, format!("{value}\n").as_bytes())?,
        None => {}
    }
    match response.get("error").and_then(Json::as_str) {
        Some(error) if !ok => Err(Failure::Error(error.to_string())),
        _ => Ok(()),
    }
}

/// Writes `bytes` to `out`; a reader that went away (`| head`) is not an
/// error.
fn emit(out: &mut impl Write, bytes: &[u8]) -> Result<(), Failure> {
    match out.write_all(bytes) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(Failure::Error(e.to_string())),
        _ => Ok(()),
    }
}

/// Checks `program`'s syntax and names before any input is read, with the
/// rendering the handler gives a compile error; the handler compiles it.
fn checked_program(program: &str) -> Result<String, Failure> {
    match parse_program(program).and_then(|parsed| parsed.lower()) {
        Ok(_) => Ok(program.into()),
        Err(e) => Err(Failure::Error(e.pretty(program))),
    }
}

/// The file operand's path: `None` for standard input (no operand, or
/// `-`, so that a thread count can follow it in a pipe).
fn file_operand(arg: Option<&String>) -> Option<&str> {
    arg.map(String::as_str).filter(|path| *path != "-")
}

fn read_text(path: Option<&String>) -> Result<String, Failure> {
    if let Some(path) = file_operand(path) {
        return Ok(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
    }
    let mut text = String::new();
    let read = std::io::stdin().read_to_string(&mut text);
    read.map(|_| text)
        .map_err(|e| Failure::Error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use document_spanners::paper::{difference_product_eval, DifferenceOptions};
    use spanner_serve::protocol::mappings_to_json;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Runs a command, returning what it printed.
    fn output(parts: &[&str]) -> Result<String, Failure> {
        let mut out = Vec::new();
        run(&argv(parts), &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// The message of a command refused for its arguments.
    fn usage_error(parts: &[&str]) -> String {
        match output(parts) {
            Err(Failure::Usage(message)) => message,
            other => panic!("{parts:?}: {other:?}"),
        }
    }

    /// The message of a command whose work failed.
    fn error(parts: &[&str]) -> String {
        match output(parts) {
            Err(Failure::Error(message)) => message,
            other => panic!("{parts:?}: {other:?}"),
        }
    }

    /// A command's one response line, parsed.
    fn response(parts: &[&str]) -> Json {
        let printed = output(parts).unwrap();
        assert_eq!(printed.matches('\n').count(), 1, "{printed}");
        Json::parse(&printed).unwrap()
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
        assert!(usage_error(&["frobnicate"]).contains("unknown"));
        assert!(usage_error(&[]).contains("missing command"));
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
            let err = usage_error(case);
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
        ] {
            let err = usage_error(case);
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
        assert_eq!(output(&["index", &file, &store_path]), Ok(String::new()));
        // A selective program prunes through the index; a literal-free one
        // falls back to the full scan.
        let pruned = response(&["query", "--store", "/.*: {x:needle}/", &store_path, "2"]);
        let member = |response: &Json, name| response.get(name).and_then(Json::as_usize);
        assert_eq!(member(&pruned, "documents"), Some(40));
        assert_eq!(member(&pruned, "matched"), Some(5));
        assert_eq!(member(&pruned, "candidates"), Some(5));
        let scanned = response(&["query", "--store", "/{x:[nh]+}/", &store_path]);
        assert_eq!(scanned.get("candidates"), Some(&Json::Null));
        assert_eq!(member(&scanned, "matched"), Some(0));
        // A corrupt store file is diagnosed by path.
        let bogus = scratch("store-bogus", "not a store");
        let err = error(&["query", "--store", "/{x:a}/", &bogus]);
        assert!(err.contains("invalid store file"), "{err}");
        // The program is validated before the store is read.
        let err = error(&["query", "--store", "let a = /x/; b", &store_path]);
        assert!(err.contains("unknown extractor"), "{err}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&store_path).ok();
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn store_dash_operand_validates_before_stdin() {
        // `query --store <program> -` streams the store from stdin, so the
        // program and thread count must be diagnosed without reading it.
        let err = error(&["query", "--store", "let a = /x/; b", "-"]);
        assert!(err.contains("unknown extractor"), "{err}");
        let err = usage_error(&["query", "--store", "/{x:a}/", "-", "nope"]);
        assert!(err.contains("invalid thread count `nope`"), "{err}");
        // Watch mode owns stdin for mutations: a `-` store is rejected.
        let err = usage_error(&["query", "--store", "--watch", "/{x:a}/", "-"]);
        assert!(err.contains("cannot be `-`"), "{err}");
        // And its program/threads validation also precedes any input.
        let err = error(&["query", "--store", "--watch", "let a = /x/; b", "-"]);
        assert!(err.contains("unknown extractor"), "{err}");
        let err = usage_error(&["query", "--store", "--watch", "/{x:a}/", "-", "x"]);
        assert!(err.contains("invalid thread count `x`"), "{err}");
    }

    #[test]
    fn mutation_lines_parse_and_reject() {
        assert_eq!(
            parse_mutation_line("append needle here"),
            Ok(Request::AppendDocs {
                text: "needle here\n".into()
            })
        );
        assert_eq!(
            parse_mutation_line("append"),
            Ok(Request::AppendDocs { text: "\n".into() }),
            "an empty append is a legal empty document"
        );
        assert_eq!(
            parse_mutation_line("update 3 new text\r"),
            Ok(Request::UpdateDoc {
                line: 3,
                text: "new text".into()
            })
        );
        assert_eq!(
            parse_mutation_line("update 7"),
            Ok(Request::UpdateDoc {
                line: 7,
                text: "".into()
            })
        );
        assert_eq!(
            parse_mutation_line("delete 2"),
            Ok(Request::DeleteDocs { lines: vec![2] })
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
        let watch = |docs: &str, script: &str| {
            let handler = Handler::new(ServeOptions::default());
            handler.install(Store::build(split_lines(docs)).unwrap());
            let mut out = Vec::new();
            let program = "/.*needle{x:.*}/".to_string();
            let ticks = std::io::Cursor::new(script);
            run_watch(&handler, program, ticks, &mut out).map(|()| String::from_utf8(out).unwrap())
        };
        let script = "append delta needle\nupdate 1 beta needle\n\ndelete 0\n";
        let printed = watch("alpha needle\nbeta\ngamma", script).unwrap();
        let ticks: Vec<Json> = printed.lines().map(|l| Json::parse(l).unwrap()).collect();
        let tally = |tick: &Json| {
            [
                "documents",
                "matched",
                "delta_docs",
                "view_hits",
                "generation",
            ]
            .map(|name| tick.get(name).and_then(Json::as_usize).unwrap())
        };
        // One line a query; the blank line is no tick. Every re-query after
        // the first is served from the view but for the changed document.
        let tallies: Vec<_> = ticks.iter().map(tally).collect();
        assert_eq!(
            tallies,
            [
                [3, 1, 3, 0, 0],
                [4, 2, 1, 3, 1],
                [4, 3, 1, 3, 2],
                [4, 2, 1, 3, 3]
            ]
        );
        assert!(ticks
            .iter()
            .all(|t| t.get("cached") == Some(&Json::Bool(true))));
        // A malformed mutation line aborts the loop with its diagnosis.
        let err = watch("alpha", "explode 1\n").unwrap_err();
        assert!(
            matches!(&err, Failure::Error(e) if e.contains("unknown mutation")),
            "{err:?}"
        );
        // An out-of-range id surfaces the store's mutation error.
        let err = watch("alpha", "delete 9\n").unwrap_err();
        assert!(
            matches!(&err, Failure::Error(e) if e.contains('9')),
            "{err:?}"
        );
    }

    #[test]
    fn bad_thread_count_is_diagnosed() {
        let file = scratch("threads", "aa\n");
        let err = usage_error(&["corpus", "{x:a+}", &file, "two"]);
        assert!(err.contains("invalid thread count `two`"), "{err}");
        let err = usage_error(&["query", "--corpus", "/{x:a+}/", &file, "-1"]);
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
        assert_eq!(file_operand(None), None);
        assert_eq!(file_operand(Some(&dash)), None);
        assert_eq!(file_operand(Some(&file)), Some("access.log"));
        assert_eq!(file_operand(Some(&dotdash)), Some("./-"));
        // The thread-count operand still parses in the `-` position's wake:
        // `corpus <pattern> - two` must diagnose the count, not the dash.
        let err = usage_error(&["corpus", "{x:a+}", "-", "two"]);
        assert!(err.contains("invalid thread count `two`"), "{err}");
        let err = usage_error(&["query", "--corpus", "/{x:a}/", "-", "nope"]);
        assert!(err.contains("invalid thread count `nope`"), "{err}");
    }

    #[test]
    fn query_runs_a_program_over_a_file() {
        let file = scratch("query", "aab");
        assert_eq!(
            output(&["query", "/{x:a+}b/", &file]).unwrap(),
            "{\"ok\":true,\"cached\":false,\"count\":1,\
             \"mappings\":[{\"x\":{\"span\":[1,3],\"text\":\"aa\"}}]}\n"
        );
        assert_eq!(
            output(&[
                "query",
                "--corpus",
                "let a = /{x:a+}b*/; project x (a);",
                &file,
                "2"
            ])
            .unwrap(),
            "{\"ok\":true,\"cached\":false,\"documents\":1,\"matched\":1,\"mappings\":1,\
             \"skipped\":0,\"rejected\":0,\"results\":[{\"line\":0,\"count\":1,\
             \"mappings\":[{\"x\":{\"span\":[1,3],\"text\":\"aa\"}}]}]}\n"
        );
    }

    #[test]
    fn explain_analyze_runs_end_to_end() {
        let file = scratch("trace", "aab");
        let text = output(&["explain", "--analyze", "/{x:a+}b/", &file]).unwrap();
        // The analyze rendering carries the plan and the measured
        // annotations of the one traced run.
        assert!(text.starts_with("query      : ?0\n"), "{text}");
        assert!(text.contains("analyze    : 1 mapping in "), "{text}");
        assert!(text.contains("rows=1"), "{text}");
        // A program that does not compile is an error; `query --trace` is
        // gone (`explain --analyze` prints the same trace).
        let err = error(&["explain", "--analyze", "let a = /x/; b", &file]);
        assert!(err.contains("unknown extractor"), "{err}");
        assert!(output(&["query", "--trace", "/{x:a+}b/", &file]).is_err());
    }

    #[test]
    fn query_errors_carry_positions() {
        let err = error(&["query", "let a = /x/; b", "unused"]);
        assert!(err.contains("unknown extractor `b`"), "{err}");
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains('^'), "{err}");
    }

    #[test]
    fn explain_accepts_a_join_chain() {
        let program =
            "let a = /{x:a}b*/; let b = /a{y:b+}/; let c = /{x:a}{y:b+}/; (a join b) join c;";
        let text = output(&["explain", program]).unwrap();
        assert!(text.starts_with("query      : "), "{text}");
        assert!(text.contains("output vars: {x, y}\n"), "{text}");
    }

    #[test]
    fn explain_dispatch_includes_the_scan_plan_section() {
        // `explain` prints the handler's `explain` member: the library's
        // rendering, byte for byte, scan-plan section included.
        let explain = output(&["explain", "/{x:a+}b/"]).unwrap();
        let library = spanner_ql::PreparedQuery::prepare("/{x:a+}b/").unwrap();
        assert_eq!(explain, library.explain());
        assert!(
            explain.contains("scan plan  : 1 compiled scan\n"),
            "{explain}"
        );
        assert!(explain.contains("fast path on"), "{explain}");
        assert!(explain.contains("lazy DFA:"), "{explain}");
    }

    #[test]
    fn serve_and_client_argument_validation() {
        let err = usage_error(&["serve", "127.0.0.1:0", "two"]);
        assert!(err.contains("invalid thread count `two`"), "{err}");
        let err = error(&["serve", "not an address"]);
        assert!(err.contains("cannot bind"), "{err}");
        let err = usage_error(&["client"]);
        assert!(err.contains("needs at least"), "{err}");
        // Port 1 is never listening in the test environment.
        let err = error(&["client", "127.0.0.1:1", "{}"]);
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn client_subcommand_round_trips_against_a_daemon() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let (addr, handle) = server.spawn();
        let addr = addr.to_string();
        let line = r#"{"op":"query","program":"/{x:a+}/","doc":"aa"}"#;
        let answer = response(&["client", &addr, line]);
        assert_eq!(answer.get("count").and_then(Json::as_usize), Some(1));
        let bye = response(&["client", &addr, r#"{"op":"shutdown"}"#]);
        assert_eq!(bye.get("shutting_down"), Some(&Json::Bool(true)));
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
        let file = scratch("students", doc.text());
        let served = response(&["diff", info, uk, &file]);
        assert_eq!(served.get("count").and_then(Json::as_usize), Some(2));
        let (a1, a2) = (
            spanner_vset::compile(&parse(info).unwrap()),
            spanner_vset::compile(&parse(uk).unwrap()),
        );
        let reference = difference_product_eval(&a1, &a2, &doc, DifferenceOptions::default());
        let rendered = mappings_to_json(&doc, &reference.unwrap());
        assert_eq!(served.get("mappings"), Some(&rendered));
        // `diff` is a spelling of `query`, byte for byte.
        let program = format!("/{info}/ minus /{uk}/");
        assert_eq!(
            output(&["diff", info, uk, &file]),
            output(&["query", &program, &file])
        );
        // Bad operands are diagnosed, not panicked on.
        assert!(error(&["diff", "{x:(", uk, &file]).contains("expected `)`"));
        assert!(error(&["diff", info, "({x:a})*", &file]).contains("not sequential"));
    }

    #[test]
    fn classify_and_extract_still_work() {
        let file = scratch("extract", "ab");
        let classes = output(&["classify", "{x:a}b"]).unwrap();
        assert!(classes.contains("functional   : true\n"), "{classes}");
        let extracted = output(&["extract", "{x:a}b", &file]).unwrap();
        assert_eq!(
            extracted,
            "{\"ok\":true,\"cached\":false,\"count\":1,\
             \"mappings\":[{\"x\":{\"span\":[1,2],\"text\":\"a\"}}]}\n"
        );
        assert_eq!(output(&["count", "{x:a}b", &file]).unwrap(), "1\n");
        assert_eq!(
            output(&["diff", "{x:a}b", "{x:a}c", &file]).unwrap(),
            extracted
        );
        let corpus = response(&["corpus", "{x:a}b", &file, "1"]);
        assert_eq!(corpus.get("matched").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn a_pattern_becomes_a_literal_with_its_escape_pairs_kept() {
        assert_eq!(escape_slashes("a/b"), r"a\/b");
        assert_eq!(escape_slashes(r"a\/b"), r"a\/b");
        assert_eq!(escape_slashes(r"a\\/b"), r"a\\\/b");
        assert_eq!(escape_slashes(r"{x:\l+}\.\d"), r"{x:\l+}\.\d");
        let file = scratch("slashes", "a/b/c");
        let spelled = output(&["extract", "{x:a}/b/c", &file]).unwrap();
        assert_eq!(
            spelled,
            output(&["query", r"/{x:a}\/b\/c/", &file]).unwrap()
        );
        assert!(spelled.contains("\"count\":1"), "{spelled}");
    }
}
