//! The differential harness catches a wrong surface and shrinks the case
//! it failed on: two faulty surfaces, each wrapping a real one, must be
//! caught, and shrink to at most 3 documents of at most 16 bytes in all
//! under a program of at most 40 bytes of SpannerQL text.

mod common;

use common::*;
use document_spanners::prelude::*;
use document_spanners::workloads::random_text;

/// The first of `cases` that `faulty` fails on, shrunk, within the bounds.
fn caught_and_shrunk(cases: impl IntoIterator<Item = Case>, faulty: Surface) {
    let faulty = [faulty];
    let mut failures = cases
        .into_iter()
        .filter_map(|case| first_failure(&case, &faulty));
    let (case, _, why) = failures.next().expect("the faulty surface is caught");
    let program = case.ql_text().expect("a SpannerQL program");
    let bytes: usize = case.docs.iter().map(String::len).sum();
    let small = case.docs.len() <= 3 && bytes <= 16 && program.len() <= 40;
    assert!(
        small && case.script.is_empty(),
        "{program:?} over {:?}: {why}",
        case.docs
    );
}

#[test]
fn a_daemon_dropping_the_last_mapping_is_caught_and_shrunk() {
    let daemon = Daemon::start(true);
    let real = daemon.text_queries();
    let faulty = surface("daemon, last mapping of each result dropped", |case| {
        let mut seen = (real.run)(case)?;
        for set in seen.iter_mut().flat_map(|(_, sets)| sets) {
            *set = set
                .iter()
                .take(set.len().saturating_sub(1))
                .cloned()
                .collect();
        }
        Some(seen)
    });
    caught_and_shrunk(
        (0..100).map(|seed| ql_case(seed, 0, &store_corpus(seed))),
        faulty,
    );
    drop(real);
    daemon.stop();
}

#[test]
fn a_fast_path_blind_to_7_byte_documents_is_caught_and_shrunk() {
    // The first three answers are the fast path's (`evaluate`, `stream`, the
    // corpus pass); it answers nothing for a 7-byte document.
    let faulty = surface("fast path on, blind to 7-byte documents", |case| {
        let (mut seen, docs) = ((fast_path().run)(case)?, case.corpus());
        for (_, sets) in &mut seen[..3] {
            sets.iter_mut()
                .zip(&docs)
                .filter(|(_, d)| d.len() == 7)
                .for_each(|(set, _)| *set = MappingSet::new());
        }
        Some(seen)
    });
    let cases = (0..100).map(|seed| {
        let mut docs = strings(SHORT_DOCS);
        docs.extend([seed, seed + 1000].map(|s| random_text(7, b"abc", s).text().to_string()));
        ql_case(seed, 0, &docs)
    });
    caught_and_shrunk(cases, faulty);
}

/// A case the reference cannot answer is a fault of the test, not a pass:
/// here a mutation names a document the corpus does not have.
#[test]
#[should_panic(expected = "the reference cannot answer the case")]
fn a_case_the_reference_cannot_answer_fails_the_test() {
    let case = Case::ql("/{x:a}/", &["a"]).steps(vec![Mutation::Delete { id: 5 }]);
    check(&case, &[interpreter()]);
}

/// So is a formula the reference refuses: a capture under a star is not
/// sequential.
#[test]
#[should_panic(expected = "the reference cannot answer the case")]
fn a_non_sequential_formula_fails_the_test() {
    let inst = Instantiation::new().with(0, parse("({x:a})*").unwrap());
    let case = Case::ra(RaTree::leaf(0), inst, &["aa"]);
    check(&case, &[surface("no answer", |_| None)]);
}
