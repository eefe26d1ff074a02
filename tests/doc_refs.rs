//! The prose documents name the code that runs. Every backticked Rust
//! name in README.md, docs/OPS.md and DESIGN.md — a `CamelCase` type, a
//! `snake_case` or `SCREAMING_SNAKE` item, or a `Path::name` — must occur
//! in the sources under `crates`, `src`, `tests` or `bench/src` (a test
//! file's stem counts, so `store_oracle` names `tests/store_oracle.rs`).
//! Every `DESIGN §n` cited in those sources must name a `## n.` heading
//! of DESIGN.md.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Sources the documents may name.
const CODE_DIRS: [&str; 4] = ["crates", "src", "tests", "bench/src"];

/// Documents whose backticked names are checked.
const DOCS: [&str; 3] = ["README.md", "docs/OPS.md", "DESIGN.md"];

/// Std names the documents discuss but no source file spells out.
const ALLOWED: [&str; 1] = ["try_clone"];

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

#[test]
fn design_citations_name_existing_sections() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let sections: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|l| l.split_once('.')?.0.parse().ok())
        .collect();
    let mut cited = 0;
    let mut dangling = Vec::new();
    for file in sources() {
        let text = std::fs::read_to_string(&file).unwrap();
        for prefix in ["DESIGN §", "DESIGN.md §"] {
            for (at, _) in text.match_indices(prefix) {
                let digits: String = text[at + prefix.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                let Ok(n) = digits.parse::<u32>() else {
                    continue;
                };
                cited += 1;
                if !sections.contains(&n) {
                    dangling.push(format!(
                        "{}: {prefix}{n}",
                        file.strip_prefix(root()).unwrap().display()
                    ));
                }
            }
        }
    }
    assert!(cited > 0, "no DESIGN citation found in the sources");
    assert!(
        dangling.is_empty(),
        "DESIGN citations with no such section:\n{}",
        dangling.join("\n")
    );
}
