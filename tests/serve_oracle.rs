//! Differential tests for the daemon against in-process evaluation.
//!
//! For any program, corpus and optimizer setting, `query_corpus` against a
//! live daemon must carry exactly the results in-process evaluation
//! produces, in corpus order, cold and cached alike. This suite pins that
//! down with 100 seeded random SpannerQL programs over mixed corpora
//! (empty documents, multi-byte UTF-8, planted literals), the planner on
//! and off, and a resident-store mutation interleave (append/update/delete
//! between queries, replayed on a scratch corpus).

use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_serve::protocol::mappings_to_json;
use spanner_serve::{Client, Json, ServeOptions, Server};
use spanner_workloads::{random_ql_program, RandomQlConfig, RandomQlProgram};
use std::thread::JoinHandle;

fn cfg(seed: u64) -> RandomQlConfig {
    RandomQlConfig {
        bindings: 2 + (seed % 2) as usize,
        depth: 2 + (seed % 2) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

fn ra_options(optimize: bool) -> RaOptions {
    if optimize {
        RaOptions::default()
    } else {
        RaOptions::unoptimized()
    }
}

/// A daemon on an ephemeral port compiling with the optimizer on or off,
/// and a client connected to it.
fn start(optimize: bool) -> (Client, JoinHandle<std::io::Result<()>>) {
    let options = ServeOptions {
        threads: 2,
        ra_options: ra_options(optimize),
        ..ServeOptions::default()
    };
    let (addr, handle) = Server::bind("127.0.0.1:0", options)
        .expect("bind daemon")
        .spawn();
    (Client::connect(addr).unwrap(), handle)
}

/// A small mixed corpus as protocol lines: empty lines, short fixed
/// strings, random text over the formula alphabet, multi-byte UTF-8, and
/// a planted rare literal. The last line is non-empty (`str::lines`
/// cannot represent a trailing empty document).
fn corpus_lines(seed: u64) -> Vec<String> {
    let mut lines: Vec<String> = [
        "",
        "a",
        "ab",
        "bca",
        "abab",
        "",
        "β-reduction over αβγ",
        "naïve café décor",
        "aβb",
    ]
    .iter()
    .map(|t| t.to_string())
    .collect();
    for i in 0..6u64 {
        let doc = workloads::random_text(
            10 + (i as usize) * 3,
            b"abc",
            seed.wrapping_mul(31).wrapping_add(i),
        );
        lines.push(doc.text().to_string());
    }
    lines.push("prefix needle suffix".to_string());
    lines.push("aaneedlebb".to_string());
    lines
}

/// The `query_corpus` request line for `program` over `text`.
fn corpus_query(program: &str, text: Option<&str>) -> String {
    let mut fields = vec![
        ("op", Json::string("query_corpus")),
        ("program", Json::string(program)),
    ];
    if let Some(text) = text {
        fields.push(("text", Json::string(text)));
    }
    Json::object(fields).to_string()
}

/// What the in-process engine says `results` must be: one entry per
/// document with a non-empty relation, in corpus order, rendered with the
/// protocol's 1-based span convention.
fn expected_results(program: &str, lines: &[String], optimize: bool) -> Json {
    let prepared =
        PreparedQuery::prepare_with_options(program, ra_options(optimize)).expect("prepare");
    Json::Array(
        lines
            .iter()
            .enumerate()
            .filter_map(|(index, line)| {
                let doc = Document::new(line);
                let set = prepared.evaluate(&doc).expect("evaluate");
                (!set.is_empty()).then(|| {
                    Json::object([
                        ("line", Json::number(index)),
                        ("count", Json::number(set.len())),
                        ("mappings", mappings_to_json(&doc, &set)),
                    ])
                })
            })
            .collect(),
    )
}

/// Sends one raw request line and parses the response.
fn send(client: &mut Client, line: &str) -> Json {
    Json::parse(&client.request_line(line).expect("response")).expect("a JSON response")
}

/// A response with its `cached` member taken out.
fn uncached(response: &Json) -> Vec<(String, Json)> {
    let Json::Object(fields) = response else {
        panic!("not an object: {response}")
    };
    let kept = fields.iter().filter(|(key, _)| key != "cached");
    kept.cloned().collect()
}

/// A tiny deterministic generator for mutation scripts.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        self.0 = x;
        x
    }
}

/// 100 random programs through text-mode `query_corpus`: the cached
/// response is the cold one but for `cached`, and both carry exactly the
/// in-process results.
#[test]
fn text_queries_match_in_process_evaluation_cold_and_cached() {
    for optimize in [true, false] {
        let (mut client, handle) = start(optimize);
        for seed in 0..100u64 {
            let RandomQlProgram { text: program, .. } = random_ql_program(cfg(seed), seed);
            let lines = corpus_lines(seed);
            let line = corpus_query(&program, Some(&lines.join("\n")));
            let cold = send(&mut client, &line);
            let warm = send(&mut client, &line);
            assert_eq!(
                warm.get("ok").and_then(Json::as_bool),
                Some(true),
                "seed {seed}: {warm}"
            );
            assert_eq!(
                warm.get("cached").and_then(Json::as_bool),
                Some(true),
                "seed {seed}: {warm}"
            );
            assert_eq!(
                uncached(&cold),
                uncached(&warm),
                "seed {seed} optimize {optimize}: cold and cached diverged:\n{program}"
            );
            assert_eq!(
                warm.get("results").unwrap(),
                &expected_results(&program, &lines, optimize),
                "seed {seed} optimize {optimize}:\n{program}"
            );
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}

/// Resident-store mode with a mutation interleave: load the corpus, then
/// alternate seeded append/update/delete with re-queries. After every step
/// the query results must match in-process evaluation of a scratch corpus
/// that replays the same mutations.
#[test]
fn resident_store_with_mutations_matches_scratch_replay() {
    for optimize in [true, false] {
        let (mut client, handle) = start(optimize);
        for seed in 0..60u64 {
            let RandomQlProgram { text: program, .. } = random_ql_program(cfg(seed), seed);
            let mut scratch = corpus_lines(seed);
            let loaded = client.load_corpus(&scratch.join("\n")).unwrap();
            assert_eq!(
                loaded.get("documents").and_then(Json::as_usize),
                Some(scratch.len()),
                "seed {seed}: {loaded}"
            );

            let query = corpus_query(&program, None);
            let mut rng = XorShift(seed);
            for step in 0..4 {
                // One seeded mutation, mirrored onto the scratch corpus
                // exactly as the store defines it.
                let mutation = match rng.next() % 3 {
                    0 => {
                        let line = format!("needle {seed} {step}");
                        scratch.push(line.clone());
                        Json::object([
                            ("op", Json::string("append_docs")),
                            ("text", Json::string(line)),
                        ])
                    }
                    1 => {
                        let id = (rng.next() % scratch.len() as u64) as usize;
                        let line = format!("ab{step} aβb");
                        scratch[id] = line.clone();
                        Json::object([
                            ("op", Json::string("update_doc")),
                            ("line", Json::number(id)),
                            ("text", Json::string(line)),
                        ])
                    }
                    _ => {
                        let ids: Vec<usize> = (0..1 + rng.next() % 2)
                            .map(|_| (rng.next() % scratch.len() as u64) as usize)
                            .collect();
                        for &id in &ids {
                            // A deleted slot is an empty document.
                            scratch[id] = String::new();
                        }
                        Json::object([
                            ("op", Json::string("delete_docs")),
                            (
                                "lines",
                                Json::Array(ids.iter().map(|&id| Json::number(id)).collect()),
                            ),
                        ])
                    }
                };
                let applied = send(&mut client, &mutation.to_string());
                assert_eq!(
                    applied.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "seed {seed} step {step}: {applied}"
                );

                let response = send(&mut client, &query);
                assert_eq!(
                    response.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "seed {seed} step {step}: {response}"
                );
                assert_eq!(
                    response.get("results").unwrap(),
                    &expected_results(&program, &scratch, optimize),
                    "seed {seed} optimize {optimize} step {step}:\n{program}"
                );
            }

            // Out-of-bounds mutations are refused with the store's error.
            let len = scratch.len();
            let out_of_bounds =
                format!("invalid mutation: document id {len} out of bounds (corpus of {len})");
            for refused in [
                client.update_doc(len as u32, "x").unwrap(),
                client.delete_docs(&[0, len as u32]).unwrap(),
            ] {
                let error = refused.get("error").and_then(Json::as_str);
                assert_eq!(error, Some(out_of_bounds.as_str()), "seed {seed}");
            }
            // The delete's valid prefix was applied.
            scratch[0] = String::new();

            // Repeated and already-deleted ids: `deleted` is what changed,
            // not what was sent.
            let live = scratch[1..3].iter().filter(|l| !l.is_empty()).count();
            let repeats = client.delete_docs(&[1, 0, 2, 1, 2]).unwrap();
            assert_eq!(
                repeats.get("deleted").and_then(Json::as_usize),
                Some(live),
                "seed {seed}: {repeats}"
            );
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
