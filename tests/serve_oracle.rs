//! The daemon against the reference: for any program, corpus and optimizer
//! setting, `query_corpus` against a live daemon carries exactly the
//! reference's relations, in corpus order, rendered as `mappings_to_json`
//! renders them, cold and cached alike. Pinned on 100 seeded random
//! SpannerQL programs over the store oracles' corpus, the planner on and
//! off, and on a resident store mutated between queries.

mod common;

use common::*;
use document_spanners::prelude::*;
use spanner_serve::Json;
use spanner_workloads::random_mutations;

/// A request: its `op` and fields.
fn request<const N: usize>(op: &str, fields: [(&'static str, Json); N]) -> Json {
    Json::object(std::iter::once(("op", Json::string(op))).chain(fields))
}

fn ids(ids: &[usize]) -> Json {
    Json::Array(ids.iter().map(|&id| Json::number(id)).collect())
}

/// The daemon's resident store, loaded with the corpus and queried after
/// every step of the script; then refused out-of-bounds mutations, and a
/// delete that reports what it changed, not what it was sent.
fn resident(daemon: &Daemon) -> Surface<'_> {
    let name = format!("resident store, optimize={}", daemon.optimize);
    surface(name, |case| {
        let text = |docs: &[String]| ("text", Json::string(lines(docs)));
        let loaded = daemon.ok(request("load_corpus", [text(&case.docs)]));
        let documents = loaded.get("documents").and_then(Json::as_usize);
        assert_eq!(documents, Some(case.docs.len()));
        let (mut deleted, mut seen) = (vec![false; case.docs.len()], Vec::new());
        for (step, batch) in case.script.iter().enumerate() {
            for m in batch {
                daemon.ok(match m {
                    Mutation::Append { text: line } => {
                        deleted.push(false);
                        request("append_docs", [text(std::slice::from_ref(line))])
                    }
                    Mutation::Update { id, text } => {
                        deleted[*id as usize] = false;
                        let line = ("line", Json::number(*id as usize));
                        request("update_doc", [line, ("text", Json::string(text))])
                    }
                    Mutation::Delete { id } => {
                        deleted[*id as usize] = true;
                        request("delete_docs", [("lines", ids(&[*id as usize]))])
                    }
                });
            }
            let (docs, answer) = (case.replay(step + 1)?, daemon.query_corpus(case, None)?);
            seen.push((step + 1, relations(&answer, &docs)));
        }
        let n = deleted.len();
        let refused = format!("invalid mutation: document id {n} out of bounds (corpus of {n})");
        let update = [("line", Json::number(n)), ("text", Json::string("x"))];
        let delete = [("lines", ids(&[0, n]))];
        for refusal in [
            request("update_doc", update),
            request("delete_docs", delete),
        ] {
            let response = daemon.send(&refusal);
            assert_eq!(
                response.get("error").and_then(Json::as_str),
                Some(&*refused)
            );
        }
        // The delete's valid prefix was applied; repeated and deleted ids
        // change nothing.
        if n >= 3 {
            let live = deleted[1..3].iter().filter(|d| !**d).count();
            let repeats = daemon.ok(request("delete_docs", [("lines", ids(&[1, 0, 2, 1, 2]))]));
            let deleted = repeats.get("deleted").and_then(Json::as_usize);
            assert_eq!(deleted, Some(live), "{repeats}");
        }
        Some(seen)
    })
}

#[test]
fn text_queries_match_in_process_evaluation_cold_and_cached() {
    for optimize in [true, false] {
        let daemon = Daemon::start(optimize);
        let cases = (0..100).map(|seed| ql_case(seed, 0, &store_corpus(seed)));
        check_all(cases, &[daemon.text_queries()]);
        daemon.stop();
    }
}

#[test]
fn resident_store_with_mutations_matches_scratch_replay() {
    let cases = || {
        (0..60).map(|seed| {
            let docs = store_corpus(seed);
            ql_case(seed, 0, &docs).steps(random_mutations(docs.len(), 4, seed))
        })
    };
    for optimize in [true, false] {
        let daemon = Daemon::start(optimize);
        check_all(cases(), &[resident(&daemon)]);
        daemon.stop();
    }
}
