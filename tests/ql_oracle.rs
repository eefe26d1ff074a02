//! Differential tests for the SpannerQL front end.
//!
//! Seeded random programs are generated *together with* the `RaTree` +
//! `Instantiation` they must lower to (`spanner_workloads::random_ql`).
//! Parsing + preparing the text must evaluate bit-identically to the
//! programmatic pair through `evaluate_ra` — on single documents, and via
//! the corpus engine with 1 and N worker threads. A fuzz-ish suite mutates
//! program texts and checks that the whole pipeline reports spanned errors
//! instead of panicking.

use document_spanners::prelude::*;
use spanner_workloads::{random_ql_program, RandomQlConfig, RandomQlProgram};

/// Short documents over the random-formula alphabet (`abc`); evaluation
/// through compiled joins is exponential in the worst case, so inputs stay
/// small.
const DOCS: [&str; 5] = ["", "a", "ab", "bca", "abab"];

fn cfg(seed: u64) -> RandomQlConfig {
    RandomQlConfig {
        bindings: 2 + (seed % 2) as usize,
        depth: 2 + (seed % 2) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

/// 120 random programs: the text lowers to exactly the programmatic tree,
/// and `PreparedQuery` evaluation matches `evaluate_ra` on every document —
/// with the planner on and off.
#[test]
fn ql_evaluation_is_bit_identical_to_programmatic_ra() {
    for seed in 0..120u64 {
        let RandomQlProgram { text, tree, inst } = random_ql_program(cfg(seed), seed);
        let lowered = parse_program(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {}\n{text}", e.pretty(&text)))
            .lower()
            .unwrap_or_else(|e| panic!("seed {seed}: {}\n{text}", e.pretty(&text)));
        assert_eq!(lowered.tree, tree, "seed {seed}:\n{text}");
        assert_eq!(lowered.inst.len(), inst.len(), "seed {seed}:\n{text}");

        for options in [RaOptions::default(), RaOptions::unoptimized()] {
            let prepared = PreparedQuery::prepare_with_options(&text, options)
                .unwrap_or_else(|e| panic!("seed {seed}: {}\n{text}", e.pretty(&text)));
            for doc_text in DOCS {
                let doc = Document::new(doc_text);
                let expected = evaluate_ra(&tree, &inst, &doc, options).unwrap();
                let actual = prepared.evaluate(&doc).unwrap();
                assert_eq!(
                    actual, expected,
                    "seed {seed} on {doc_text:?} (optimize={}):\n{text}",
                    options.optimize
                );
            }
        }
    }
}

/// The prepared query's corpus path returns, for every document and every
/// thread count, exactly what single-document evaluation returns.
#[test]
fn ql_corpus_evaluation_matches_single_document() {
    // The documents repeated until three workers each get a share: below
    // that the engine would run the "sharded" call on the calling thread.
    let docs: Vec<Document> = DOCS
        .iter()
        .cycle()
        .take(DOCS.len().max(400))
        .map(|t| Document::new(*t))
        .collect();
    for seed in 0..30u64 {
        let RandomQlProgram { text, tree, inst } = random_ql_program(cfg(seed), seed + 50_000);
        let prepared = PreparedQuery::prepare(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {}\n{text}", e.pretty(&text)));
        let single = prepared.evaluate_corpus(&docs, 1).unwrap();
        let sharded = prepared.evaluate_corpus(&docs, 3).unwrap();
        assert_eq!((single.stats.threads, sharded.stats.threads), (1, 3));
        let expected: Vec<MappingSet> = docs[..DOCS.len()]
            .iter()
            .map(|doc| evaluate_ra(&tree, &inst, doc, RaOptions::default()).unwrap())
            .collect();
        for i in 0..docs.len() {
            let expected = &expected[i % DOCS.len()];
            assert_eq!(&single.results[i], expected, "seed {seed} doc {i}:\n{text}");
            assert_eq!(
                &sharded.results[i], expected,
                "seed {seed} doc {i}:\n{text}"
            );
        }
    }
}

/// The prepared stream and the materialized evaluation agree mapping-for-
/// mapping.
#[test]
fn ql_stream_agrees_with_evaluate() {
    for seed in 0..20u64 {
        let RandomQlProgram { text, .. } = random_ql_program(cfg(seed), seed + 90_000);
        let prepared = PreparedQuery::prepare(&text).unwrap();
        for doc_text in DOCS {
            let doc = Document::new(doc_text);
            let streamed: MappingSet = prepared
                .stream(&doc)
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(
                streamed,
                prepared.evaluate(&doc).unwrap(),
                "seed {seed} on {doc_text:?}:\n{text}"
            );
        }
    }
}

/// Deterministic pseudo-random byte stream (no rand dependency needed for
/// the mutator).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Mutated programs (truncations, character flips, token insertions and
/// deletions) either prepare cleanly or fail with an error whose span stays
/// inside the source — the pipeline must never panic.
#[test]
fn mutated_programs_fail_gracefully_with_positions() {
    const SNIPPETS: [&str; 12] = [
        "/", "(", ")", ";", ",", "{", "}", "project", "join x", "let", "π", "\\",
    ];
    let mut rng = XorShift(0x5eed);
    let mut prepared_ok = 0usize;
    let mut spanned_errors = 0usize;
    for seed in 0..60u64 {
        let base = random_ql_program(cfg(seed), seed + 70_000).text;
        for _ in 0..6 {
            let mut mutated = base.clone();
            match rng.below(4) {
                0 => {
                    // Truncate at a character boundary.
                    let mut cut = rng.below(mutated.len() + 1);
                    while !mutated.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    mutated.truncate(cut);
                }
                1 => {
                    // Replace one character with a random ASCII one.
                    let chars: Vec<char> = mutated.chars().collect();
                    if !chars.is_empty() {
                        let i = rng.below(chars.len());
                        let replacement = (b' ' + rng.below(95) as u8) as char;
                        mutated = chars
                            .iter()
                            .enumerate()
                            .map(|(j, &c)| if j == i { replacement } else { c })
                            .collect();
                    }
                }
                2 => {
                    // Insert a snippet at a character boundary.
                    let mut at = rng.below(mutated.len() + 1);
                    while !mutated.is_char_boundary(at) {
                        at -= 1;
                    }
                    mutated.insert_str(at, SNIPPETS[rng.below(SNIPPETS.len())]);
                }
                _ => {
                    // Delete one character.
                    let chars: Vec<char> = mutated.chars().collect();
                    if !chars.is_empty() {
                        let i = rng.below(chars.len());
                        mutated = chars
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, &c)| c)
                            .collect();
                    }
                }
            }
            match PreparedQuery::prepare(&mutated) {
                Ok(_) => prepared_ok += 1,
                Err(e) => {
                    if let Some(span) = e.span {
                        spanned_errors += 1;
                        assert!(
                            span.start <= mutated.len() && span.start <= span.end,
                            "span {span:?} outside source (len {}): {e}\n{mutated}",
                            mutated.len()
                        );
                    }
                    // Rendering must not panic either.
                    let _ = e.pretty(&mutated);
                }
            }
        }
    }
    // The mutator must exercise both outcomes to mean anything.
    assert!(prepared_ok > 0, "no mutated program prepared cleanly");
    assert!(
        spanned_errors > 0,
        "no mutated program produced a spanned error"
    );
}
