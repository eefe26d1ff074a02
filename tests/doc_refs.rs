//! The prose documents name the code that runs, and the design notes
//! they cite exist. Every backticked Rust name in README.md, docs/OPS.md
//! and DESIGN.md — a `CamelCase` type, a `snake_case` or
//! `SCREAMING_SNAKE` item, or a `Path::name` — must occur in the sources
//! under `crates`, `src`, `tests` or `bench/src` (a test file's stem
//! counts, so `store_oracle` names `tests/store_oracle.rs`).
//! docs/HISTORY.md is exempt: it names deleted code on purpose.
//!
//! In those sources, README.md and docs/*.md, every `DESIGN §n` (also
//! spelled `DESIGN.md §n`) must name a `## n.` heading of DESIGN.md, and
//! a quoted title after a citation — `DESIGN §n, "Title"`,
//! `DESIGN, "Title"`, `docs/HISTORY.md, "Title"` — must begin a heading
//! of the document it cites (of section n, when n is given). DESIGN.md
//! itself stays under [`DESIGN_MAX_BYTES`].

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Sources the documents may name.
const CODE_DIRS: [&str; 4] = ["crates", "src", "tests", "bench/src"];

/// Documents whose backticked names are checked.
const DOCS: [&str; 3] = ["README.md", "docs/OPS.md", "DESIGN.md"];

/// Std names the documents discuss but no source file spells out.
const ALLOWED: [&str; 1] = ["try_clone"];

/// The most bytes DESIGN.md may hold: it describes the system that runs,
/// and removed designs are condensed into docs/HISTORY.md.
const DESIGN_MAX_BYTES: u64 = 61_440;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in CODE_DIRS {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    files
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier-shaped word in the sources, plus every file stem.
/// This file is left out, so that naming a word here proves nothing.
fn code_words() -> BTreeSet<String> {
    let mut words = BTreeSet::new();
    for file in sources().iter().filter(|f| !f.ends_with(file!())) {
        words.insert(file.file_stem().unwrap().to_string_lossy().into_owned());
        let text = std::fs::read_to_string(file).unwrap();
        for word in text.split(|c: char| !c.is_ascii() || !is_word_byte(c as u8)) {
            if !word.is_empty() {
                words.insert(word.to_string());
            }
        }
    }
    words
}

fn is_ident(s: &str) -> bool {
    s.bytes().all(is_word_byte) && s.bytes().next().is_some_and(|b| !b.is_ascii_digit())
}

/// Whether `span` is a checked name: a `CamelCase` word, a word with an
/// inner `_` (`snake_case`, `SCREAMING_SNAKE`), or a `Path::name`. Plain
/// lower-case words (`index`, `query`) are commands and fields as often
/// as items, and are not checked.
fn is_checked_name(span: &str) -> bool {
    let segments: Vec<&str> = span.split("::").collect();
    if !segments.iter().all(|s| is_ident(s)) {
        return false;
    }
    let camel = span.starts_with(|c: char| c.is_ascii_uppercase())
        && span.bytes().any(|b| b.is_ascii_lowercase());
    segments.len() > 1 || camel || span.trim_matches('_').contains('_')
}

/// The backticked names of `markdown` the check covers, outside fenced
/// code blocks.
fn backticked_names(markdown: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let span = span.strip_suffix("()").unwrap_or(span);
            if is_checked_name(span) {
                names.push(span);
            }
        }
    }
    names
}

#[test]
fn documents_name_only_code_that_exists() {
    let words = code_words();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).unwrap();
        for name in backticked_names(&text) {
            checked += 1;
            if name
                .split("::")
                .any(|s| !words.contains(s) && !ALLOWED.contains(&s))
            {
                missing.push(format!("{doc}: `{name}`"));
            }
        }
    }
    // Some 775 names today: a parse that finds few has stopped checking.
    assert!(checked > 500, "only {checked} backticked names found");
    assert!(
        missing.is_empty(),
        "backticked names with no source to name:\n{}",
        missing.join("\n")
    );
}

/// The headings of a markdown document, each with the number of the
/// `## n.` section it opens or sits under (`None` before the first, and
/// throughout a document without numbered sections).
fn headings(markdown: &str) -> Vec<(Option<u32>, String)> {
    let mut section = None;
    let mut out = Vec::new();
    for line in markdown.lines() {
        let Some(text) = line.strip_prefix("## ").or(line.strip_prefix("### ")) else {
            continue;
        };
        let numbered = text
            .split_once(". ")
            .and_then(|(n, title)| Some((n.parse().ok()?, title)));
        let text = match numbered {
            Some((n, title)) if line.starts_with("## ") => {
                section = Some(n);
                title
            }
            _ => text,
        };
        out.push((section, text.to_string()));
    }
    out
}

/// The files whose citations are checked: the sources (this file left
/// out, since it spells the citation forms to describe them), README.md
/// and every docs/*.md.
fn citing_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = sources()
        .into_iter()
        .filter(|f| !f.ends_with(file!()))
        .collect();
    files.push(root().join("README.md"));
    for entry in std::fs::read_dir(root().join("docs")).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "md") {
            files.push(entry.path());
        }
    }
    files
}

/// `text` with its lines joined by one space, each line's indentation and
/// Rust comment marker stripped, so a citation broken across lines reads
/// as one.
fn flattened(text: &str) -> String {
    let lines = text.lines().map(|line| {
        let line = line.trim_start();
        let line = ["//!", "///", "//"]
            .iter()
            .find_map(|marker| line.strip_prefix(marker))
            .unwrap_or(line);
        line.trim()
    });
    lines.collect::<Vec<_>>().join(" ")
}

/// The citations of `document` ("DESIGN" or "HISTORY.md") in `text`: the
/// section number, if one is given, and the quoted title, if one follows.
fn citations<'a>(text: &'a str, document: &str) -> Vec<(Option<u32>, Option<&'a str>)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(document) {
        let mut rest = &text[at + document.len()..];
        if document == "DESIGN" {
            rest = rest.strip_prefix(".md").unwrap_or(rest);
        }
        rest = rest.strip_prefix('`').unwrap_or(rest);
        let mut section = None;
        if let Some(after) = rest.strip_prefix(" §") {
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            section = digits.parse().ok();
            rest = &after[digits.len()..];
        }
        let title = rest
            .strip_prefix(", \"")
            .and_then(|quoted| Some(&quoted[..quoted.find('"')?]));
        if section.is_some() || title.is_some() {
            out.push((section, title));
        }
    }
    out
}

#[test]
fn design_is_at_most_its_byte_budget() {
    let bytes = std::fs::metadata(root().join("DESIGN.md")).unwrap().len();
    assert!(
        bytes <= DESIGN_MAX_BYTES,
        "DESIGN.md is {bytes} bytes, over {DESIGN_MAX_BYTES}: condense it, and move removed designs to docs/HISTORY.md"
    );
}

#[test]
fn design_citations_name_existing_sections() {
    let read = |doc: &str| std::fs::read_to_string(root().join(doc)).unwrap();
    let design = headings(&read("DESIGN.md"));
    let history = headings(&read("docs/HISTORY.md"));
    let (mut numbered, mut titled) = (0, 0);
    let mut dangling = Vec::new();
    for file in citing_files() {
        let text = flattened(&std::fs::read_to_string(&file).unwrap());
        let name = file.strip_prefix(root()).unwrap().display().to_string();
        for (document, targets) in [("DESIGN", &design), ("HISTORY.md", &history)] {
            for (section, title) in citations(&text, document) {
                numbered += usize::from(section.is_some());
                titled += usize::from(title.is_some());
                let found = targets.iter().any(|(n, heading)| {
                    section.is_none_or(|s| *n == Some(s))
                        && title.is_none_or(|t| heading.starts_with(t))
                });
                if !found {
                    let section = section.map_or(String::new(), |s| format!(" §{s}"));
                    let title = title.map_or(String::new(), |t| format!(", \"{t}\""));
                    dangling.push(format!("{name}: {document}{section}{title}"));
                }
            }
        }
    }
    // Some 50 numbered and 12 titled citations today: a parse that finds
    // few has stopped checking.
    assert!(numbered > 30, "only {numbered} numbered citations found");
    assert!(titled > 5, "only {titled} quoted titles found");
    assert!(
        dangling.is_empty(),
        "citations with no such heading:\n{}",
        dangling.join("\n")
    );
}
