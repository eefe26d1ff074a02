//! The command line against the reference: the `document-spanners` binary,
//! spawned over temporary files, answers through the daemon's handler, so
//! its output is a protocol response that `relations` reads like any
//! other. Pinned on `serve_oracle`'s random SpannerQL programs over
//! `query --corpus`, on its mutated resident stores over `index` and
//! `query --store --watch`, on the pattern commands as spellings of
//! `query`, and on which failures print the usage text.
//!
//! A mapping's members are written in its process's variable-interning
//! order (`spanner_core::Mapping`), so a response printed by another
//! process is put in this one's order before `relations` reads it.

mod common;

use common::*;
use document_spanners::prelude::*;
use spanner_serve::Json;
use spanner_workloads::random_mutations;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};

/// Runs the binary with `args`, `stdin` on its standard input.
fn cli(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_document-spanners"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

/// What a run that must succeed printed.
fn stdout(args: &[&str], stdin: &str) -> String {
    let output = cli(args, stdin);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{args:?}: {stderr}");
    String::from_utf8(output.stdout).unwrap()
}

/// A file under the temporary directory, removed when dropped.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str, content: &[u8]) -> Scratch {
        let file = format!("cli-oracle-{}-{name}", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, content).unwrap();
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// One response per printed line, with every `mappings` array in this
/// process's order: members by variable id, mappings as a `MappingSet`
/// iterates them.
fn responses(printed: &str) -> Vec<Json> {
    let number = |n: &Json| n.as_usize().unwrap() as u32;
    let span = |s: &Json| match s.get("span").and_then(Json::as_array) {
        Some([start, end]) => Span::new(number(start), number(end)),
        _ => panic!("{s}"),
    };
    let as_mapping = |m: &Json| match m {
        Json::Object(vars) => Mapping::from_pairs(vars.iter().map(|(x, s)| (x.as_str(), span(s)))),
        _ => panic!("{m}"),
    };
    let reorder = |mappings: &mut Vec<Json>| {
        for mapping in mappings.iter_mut() {
            if let Json::Object(vars) = mapping {
                vars.sort_by_key(|(x, _)| Variable::new(x).id());
            }
        }
        mappings.sort_by_cached_key(as_mapping);
    };
    let response = |line: &str| {
        let mut response = Json::parse(line).unwrap();
        for result in array(&mut response, "results") {
            reorder(array(result, "mappings"));
        }
        response
    };
    printed.lines().map(response).collect()
}

/// The array member `key` of `json`.
fn array<'a>(json: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
    let Json::Object(members) = json else {
        panic!("{json}")
    };
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, Json::Array(items))) => items,
        _ => panic!("no array `{key}`"),
    }
}

/// `query --corpus` over the case's corpus written to a file.
fn corpus_command() -> Surface<'static> {
    surface("query --corpus", |case| {
        let docs = case.replay(case.script.len())?;
        let file = Scratch::new("corpus", lines(&docs).as_bytes());
        let printed = stdout(&["query", "--corpus", &case.ql_text()?, file.path()], "");
        let [answer] = <[Json; 1]>::try_from(responses(&printed)).unwrap();
        case.end([relations(&answer, &docs)])
    })
}

/// The mutation script as `--watch` input lines.
fn watch_lines(case: &Case) -> String {
    let line = |m: &Mutation| match m {
        Mutation::Append { text } => format!("append {text}\n"),
        Mutation::Update { id, text } => format!("update {id} {text}\n"),
        Mutation::Delete { id } => format!("delete {id}\n"),
    };
    case.script.iter().flatten().map(line).collect()
}

/// `index`, then `query --store --watch` fed the script: one response line
/// before the first step and one after each.
fn watch_command() -> Surface<'static> {
    surface("index + query --store --watch", |case| {
        let (corpus, store) = (
            Scratch::new("docs", lines(&case.docs).as_bytes()),
            Scratch::new("store", b""),
        );
        stdout(&["index", corpus.path(), store.path()], "");
        let args = [
            "query",
            "--store",
            "--watch",
            &case.ql_text()?,
            store.path(),
        ];
        let printed = stdout(&args, &watch_lines(case));
        let answers = responses(&printed);
        assert_eq!(answers.len(), case.script.len() + 1, "{printed}");
        let seen = answers.iter().enumerate().map(|(step, answer)| {
            let docs = case.replay(step).unwrap();
            (step, relations(answer, &docs))
        });
        Some(seen.collect())
    })
}

#[test]
fn query_corpus_matches_the_reference() {
    let cases = (0..100).map(|seed| ql_case(seed, 0, &store_corpus(seed)));
    check_all(cases, &[corpus_command()]);
}

#[test]
fn a_watched_store_matches_scratch_replay_after_every_step() {
    let cases = (0..20).map(|seed| {
        let docs = store_corpus(seed);
        ql_case(seed, 0, &docs).steps(random_mutations(docs.len(), 4, seed))
    });
    check_all(cases, &[watch_command()]);
}

#[test]
fn the_readme_watch_example_re_evaluates_only_the_changed_document() {
    let corpus = Scratch::new(
        "live.txt",
        b"alpha needle one\nbeta miss\ngamma needle two\n",
    );
    let store = Scratch::new("live.store", b"");
    stdout(&["index", corpus.path(), store.path()], "");
    let script = "append delta needle three\nupdate 1 beta needle now\ndelete 0\n";
    let args = [
        "query",
        "--store",
        "--watch",
        r"/.*needle {x:\l+}.*/",
        store.path(),
    ];
    let ticks: Vec<String> = stdout(&args, script).lines().map(String::from).collect();
    assert_eq!(ticks.len(), 4, "{ticks:?}");
    assert!(
        ticks[0].contains(r#""delta_docs":3,"view_hits":0"#),
        "{}",
        ticks[0]
    );
    assert!(
        ticks[1].contains(r#""delta_docs":1,"view_hits":3"#),
        "{}",
        ticks[1]
    );
    assert!(
        ticks[1].contains(r#""documents":4,"matched":3,"mappings":11"#),
        "{}",
        ticks[1]
    );
}

#[test]
fn the_pattern_commands_are_spellings_of_query() {
    let doc = Scratch::new("doc", b"a/b\\c minus a/b");
    let file = doc.path();
    // Each pattern with its `/…/` literal written by hand: a `/` is escaped,
    // an escape pair is kept as it is.
    let patterns = [
        (r"{x:a}/{y:b}.*", r"/{x:a}\/{y:b}.*/"),
        (r"{x:a\/b}.*", r"/{x:a\/b}.*/"),
        (r".*{x:a/b}", r"/.*{x:a\/b}/"),
        (r"{x:a/b\\c} minus {y:.*}", r"/{x:a\/b\\c} minus {y:.*}/"),
    ];
    for (pattern, literal) in patterns {
        let extracted = stdout(&["extract", pattern, file], "");
        assert_eq!(
            extracted,
            stdout(&["query", literal, file], ""),
            "{pattern}"
        );
        let count = Json::parse(&extracted)
            .unwrap()
            .get("count")
            .unwrap()
            .to_string();
        assert_ne!(count, "0", "{pattern}: {extracted}");
        assert_eq!(stdout(&["count", pattern, file], ""), format!("{count}\n"));
        let corpus = stdout(&["corpus", pattern, file], "");
        assert_eq!(corpus, stdout(&["query", "--corpus", literal, file], ""));
    }
    let (alpha, beta) = (patterns[0], patterns[2]);
    let difference = format!("{} minus {}", alpha.1, beta.1);
    let diffed = stdout(&["diff", alpha.0, beta.0, file], "");
    assert_eq!(diffed, stdout(&["query", &difference, file], ""));
    assert!(
        diffed.starts_with(r#"{"ok":true,"cached":false,"count":1,"#),
        "{diffed}"
    );
}

#[test]
fn the_command_line_prints_what_a_fresh_daemon_answers() {
    for seed in 0..5 {
        let case = ql_case(seed, 0, &store_corpus(seed));
        let (program, text) = (case.ql_text().unwrap(), lines(&case.docs));
        let file = Scratch::new("fresh", text.as_bytes());
        let printed = stdout(&["query", "--corpus", &program, file.path()], "");
        // A daemon process of its own, so that it interns the program's
        // variables as the command line's process does.
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_document-spanners"))
            .args(["serve", "127.0.0.1:0", "1"])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut banner = String::new();
        let mut stderr = BufReader::new(daemon.stderr.take().unwrap());
        stderr.read_line(&mut banner).unwrap();
        let addr = banner.split_whitespace().nth(2).unwrap();
        let mut client = Client::connect(addr).unwrap();
        let request = Json::object([
            ("op", Json::string("query_corpus")),
            ("program", Json::string(&program)),
            ("text", Json::string(text)),
        ]);
        let served = client.request_line(&request.to_string()).unwrap();
        assert!(served.contains(r#""cached":false"#), "{served}");
        assert_eq!(printed, format!("{served}\n"), "seed {seed}");
        client.shutdown().unwrap();
        assert!(daemon.wait().unwrap().success());
    }
}

#[test]
fn only_argument_errors_print_the_usage() {
    let doc = Scratch::new("usage", b"aab");
    let stderr = |args: &[&str]| {
        let output = cli(args, "");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        String::from_utf8(output.stderr).unwrap()
    };
    for args in [
        &["query", "garbage(", doc.path()][..],
        &["extract", "{x:(", doc.path()],
        &["explain", "let a = /x/; b"],
    ] {
        let printed = stderr(args);
        assert!(
            printed.contains('^') && !printed.contains("usage:"),
            "{printed}"
        );
    }
    let missing = stderr(&["query", "/a/", "no-such-file.txt"]);
    assert!(missing.contains("no-such-file.txt") && !missing.contains("usage:"));
    for args in [
        &["frobnicate"][..],
        &["extract"],
        &["query", "--corpus", "/a/", doc.path(), "two"],
        &["query", "--store", "--watch", "/a/", "-"],
    ] {
        assert!(stderr(args).contains("usage:"), "{args:?}");
    }
}
