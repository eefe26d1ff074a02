//! The SpannerQL front end. Seeded random programs are generated together
//! with the tree they must lower to (`random_ql_program`, held by
//! `ql_case`); the prepared query — evaluated, streamed, and over a corpus
//! at 1 and 3 workers — answers as the reference. A fuzz-ish suite mutates
//! program texts: the pipeline reports spanned errors, never panics.

mod common;

use common::*;
use document_spanners::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn cases(seeds: u64, offset: u64, docs: &[String]) -> impl Iterator<Item = Case> + '_ {
    (0..seeds).map(move |seed| ql_case(seed, offset, docs))
}

fn prepared(case: &Case, optimize: bool) -> PreparedQuery {
    let text = case.ql_text().unwrap();
    let query = PreparedQuery::prepare_with_options(&text, ra_options(optimize));
    query.unwrap_or_else(|e| panic!("{}", e.pretty(&text)))
}

/// The prepared query's `evaluate`, with the planner on or off.
fn evaluated(optimize: bool) -> Surface<'static> {
    surface(format!("prepared, optimize={optimize}"), move |case| {
        let query = prepared(case, optimize);
        case.each_doc(|doc| query.evaluate(doc).unwrap())
    })
}

#[test]
fn ql_evaluation_is_bit_identical_to_programmatic_ra() {
    let docs = strings(SHORT_DOCS);
    check_all(cases(120, 0, &docs), &[evaluated(true), evaluated(false)]);
}

/// The short documents repeated until three workers each get a share.
#[test]
fn ql_corpus_evaluation_matches_single_document() {
    // The worker counts each pass ran on, held to what the whole corpus
    // implies after each case (a shrunk one implies fewer).
    let ran = std::cell::RefCell::new(Vec::new());
    let pass = |threads| {
        let ran = &ran;
        surface(format!("evaluate_corpus, {threads} threads"), move |case| {
            let out = prepared(case, true).evaluate_corpus(&case.corpus(), threads);
            let out = out.unwrap();
            ran.borrow_mut().push(out.stats.threads);
            case.end([out.results])
        })
    };
    let docs = strings(SHORT_DOCS.iter().cycle().take(400));
    let surfaces = [pass(1), pass(3)];
    for case in cases(30, 50_000, &docs) {
        check(&case, &surfaces);
        assert_eq!(ran.take(), [1, 3]);
    }
}

#[test]
fn ql_stream_agrees_with_evaluate() {
    let streamed = surface("prepared stream", |case| {
        let query = prepared(case, true);
        case.each_doc(|doc| streamed(query.stream(doc)))
    });
    let docs = strings(SHORT_DOCS);
    check_all(cases(20, 90_000, &docs), &[evaluated(true), streamed]);
}

/// Mutated programs (truncations, character flips, snippet insertions and
/// deletions) either prepare cleanly or fail with an error whose span stays
/// inside the source — the pipeline must never panic.
#[test]
fn mutated_programs_fail_gracefully_with_positions() {
    let snippets = [
        "/", "(", ")", ";", ",", "{", "}", "project", "join x", "let",
    ];
    let snippets = [&snippets[..], &["π", "\\"]].concat();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut below = |n: usize| rng.gen_range(0..n);
    let (mut prepared_ok, mut spanned_errors) = (0, 0);
    for seed in 0..60u64 {
        let base = ql_case(seed, 70_000, &[""]).text.unwrap();
        for _ in 0..6 {
            let mut chars: Vec<char> = base.chars().collect();
            let (at, len) = (below(chars.len() + 1), chars.len());
            match below(4) {
                0 => chars.truncate(at),
                1 if at < len => chars[at] = (b' ' + below(95) as u8) as char,
                2 => drop(chars.splice(at..at, snippets[below(snippets.len())].chars())),
                _ if at < len => drop(chars.remove(at)),
                _ => {}
            }
            let mutated: String = chars.into_iter().collect();
            let Err(e) = PreparedQuery::prepare(&mutated) else {
                prepared_ok += 1;
                continue;
            };
            if let Some(span) = e.span {
                spanned_errors += 1;
                let inside = span.start <= mutated.len() && span.start <= span.end;
                assert!(inside, "span {span:?} outside source: {e}\n{mutated}");
            }
            // Rendering must not panic either.
            let _ = e.pretty(&mutated);
        }
    }
    // The mutator must exercise both outcomes to mean anything.
    assert!(prepared_ok > 0, "no mutated program prepared cleanly");
    assert!(
        spanned_errors > 0,
        "no mutated program produced a spanned error"
    );
}
