//! Differential tests for the shard router.
//!
//! A router front end over N backend daemons is an *deployment shape*,
//! not a semantics change: for any program, corpus, shard count, and
//! optimizer setting, `query_corpus` through the router must produce a
//! response **byte-identical** to the same request against a single
//! daemon holding the whole corpus — same results in corpus order, same
//! aggregate stats, same selectivity rendering — and both must agree
//! with in-process evaluation. This suite pins that down with 100 seeded
//! random SpannerQL programs over mixed corpora (empty documents,
//! multi-byte UTF-8, planted literals), shard counts 1/2/3, the planner
//! on and off, and a resident-store mutation interleave
//! (append/update/delete between queries, replayed on a scratch corpus).

use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_serve::protocol::mappings_to_json;
use spanner_serve::{Client, Json, RouterOptions, ServeOptions, Server};
use spanner_workloads::{random_ql_program, RandomQlConfig, RandomQlProgram};
use std::net::SocketAddr;
use std::thread::JoinHandle;

type Handle = JoinHandle<std::io::Result<()>>;

fn cfg(seed: u64) -> RandomQlConfig {
    RandomQlConfig {
        bindings: 2 + (seed % 2) as usize,
        depth: 2 + (seed % 2) as usize,
        vars_per_leaf: 2,
        allow_difference: !seed.is_multiple_of(4),
    }
}

fn serve_options(optimize: bool) -> ServeOptions {
    ServeOptions {
        threads: 2,
        ra_options: if optimize {
            RaOptions::default()
        } else {
            RaOptions::unoptimized()
        },
        ..ServeOptions::default()
    }
}

/// One single daemon plus a router over `shards` backend daemons, all on
/// ephemeral ports, all with the same options.
struct Cluster {
    single: Client,
    router: Client,
    /// Clients kept to shut the backends down; handles joined on drop of
    /// the test (explicitly, via [`Cluster::shutdown`]).
    backends: Vec<Client>,
    handles: Vec<Handle>,
}

impl Cluster {
    fn start(shards: usize, optimize: bool) -> Cluster {
        let mut handles = Vec::new();
        let mut backend_addrs: Vec<SocketAddr> = Vec::new();
        for _ in 0..shards {
            let (addr, handle) = Server::bind("127.0.0.1:0", serve_options(optimize))
                .expect("bind backend")
                .spawn();
            backend_addrs.push(addr);
            handles.push(handle);
        }
        let (single_addr, handle) = Server::bind("127.0.0.1:0", serve_options(optimize))
            .expect("bind single daemon")
            .spawn();
        handles.push(handle);
        let router_options = RouterOptions {
            backends: backend_addrs.iter().map(SocketAddr::to_string).collect(),
            ..RouterOptions::default()
        };
        let (router_addr, handle) =
            Server::bind_router("127.0.0.1:0", serve_options(optimize), router_options)
                .expect("bind router")
                .spawn();
        handles.push(handle);
        Cluster {
            single: Client::connect(single_addr).unwrap(),
            router: Client::connect(router_addr).unwrap(),
            backends: backend_addrs
                .iter()
                .map(|addr| Client::connect(addr).unwrap())
                .collect(),
            handles,
        }
    }

    /// Sends the same raw request line to the router and the single
    /// daemon; returns both raw response lines.
    fn both(&mut self, line: &str) -> (String, String) {
        let router = self.router.request_line(line).expect("router response");
        let single = self.single.request_line(line).expect("single response");
        (router, single)
    }

    fn shutdown(mut self) {
        self.router.shutdown().unwrap();
        self.single.shutdown().unwrap();
        for backend in &mut self.backends {
            backend.shutdown().unwrap();
        }
        for handle in self.handles {
            handle.join().unwrap().unwrap();
        }
    }
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
    let options = if optimize {
        RaOptions::default()
    } else {
        RaOptions::unoptimized()
    };
    let prepared = PreparedQuery::prepare_with_options(program, options).expect("prepare");
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

/// 100 random programs through text-mode `query_corpus`: the router's
/// merged response is byte-identical to the single daemon's, cold and
/// cached, and both carry exactly the in-process results.
#[test]
fn router_text_queries_are_bit_identical_to_single_daemon() {
    for optimize in [true, false] {
        for shards in 1..=3usize {
            let mut cluster = Cluster::start(shards, optimize);
            for seed in (0..100u64).filter(|s| (s % 3) as usize + 1 == shards) {
                let RandomQlProgram { text: program, .. } = random_ql_program(cfg(seed), seed);
                let lines = corpus_lines(seed);
                let text = lines.join("\n");
                let line = corpus_query(&program, Some(&text));
                // Cold: nothing cached anywhere.
                let (router, single) = cluster.both(&line);
                assert_eq!(
                    router, single,
                    "seed {seed} shards {shards} optimize {optimize} (cold):\n{program}"
                );
                // Warm: every backend and the single daemon have the
                // program cached; the merged `cached` flag must agree.
                let (router, single) = cluster.both(&line);
                assert_eq!(
                    router, single,
                    "seed {seed} shards {shards} optimize {optimize} (warm):\n{program}"
                );
                let response = Json::parse(&router).unwrap();
                assert_eq!(
                    response.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "seed {seed}: {response}"
                );
                assert_eq!(
                    response.get("results").unwrap(),
                    &expected_results(&program, &lines, optimize),
                    "seed {seed} shards {shards} optimize {optimize}:\n{program}"
                );
            }
            cluster.shutdown();
        }
    }
}

/// Resident-store mode with a mutation interleave: load the corpus into
/// both deployments, then alternate seeded append/update/delete with
/// re-queries. Every mutation response and every query response must be
/// byte-identical between the router and the single daemon, and the
/// query results must match in-process evaluation of a scratch corpus
/// that replays the same mutations.
#[test]
fn router_resident_store_with_mutations_matches_single_daemon() {
    for optimize in [true, false] {
        for shards in 1..=3usize {
            let mut cluster = Cluster::start(shards, optimize);
            for seed in (0..60u64).filter(|s| (s % 3) as usize + 1 == shards) {
                let RandomQlProgram { text: program, .. } = random_ql_program(cfg(seed), seed);
                let mut scratch = corpus_lines(seed);
                let text = scratch.join("\n");

                // Load: the router partitions; topology aside, the
                // aggregate fields must match the single daemon.
                let load = Json::object([
                    ("op", Json::string("load_corpus")),
                    ("text", Json::string(&text)),
                ])
                .to_string();
                let (router, single) = cluster.both(&load);
                let (router, single) =
                    (Json::parse(&router).unwrap(), Json::parse(&single).unwrap());
                for field in ["ok", "documents", "bytes", "generation"] {
                    assert_eq!(
                        router.get(field),
                        single.get(field),
                        "seed {seed} shards {shards}: load `{field}` diverged"
                    );
                }

                let query = corpus_query(&program, None);
                let mut rng = XorShift(seed);
                for step in 0..4 {
                    // One seeded mutation, mirrored onto the scratch
                    // corpus exactly as the store defines it.
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
                    let (router, single) = cluster.both(&mutation.to_string());
                    assert_eq!(
                        router, single,
                        "seed {seed} shards {shards} step {step}: mutation response diverged"
                    );

                    let (router, single) = cluster.both(&query);
                    assert_eq!(
                        router, single,
                        "seed {seed} shards {shards} optimize {optimize} step {step}:\n{program}"
                    );
                    let response = Json::parse(&router).unwrap();
                    assert_eq!(
                        response.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "seed {seed} step {step}: {response}"
                    );
                    assert_eq!(
                        response.get("results").unwrap(),
                        &expected_results(&program, &scratch, optimize),
                        "seed {seed} shards {shards} optimize {optimize} step {step}:\n{program}"
                    );
                }

                // Out-of-bounds mutations: the router validates against
                // its shard map and must render the exact daemon error.
                let bad_update = Json::object([
                    ("op", Json::string("update_doc")),
                    ("line", Json::number(scratch.len())),
                    ("text", Json::string("x")),
                ])
                .to_string();
                let (router, single) = cluster.both(&bad_update);
                assert_eq!(router, single, "seed {seed}: out-of-bounds update diverged");
                let bad_delete = Json::object([
                    ("op", Json::string("delete_docs")),
                    (
                        "lines",
                        Json::Array(vec![Json::number(0), Json::number(scratch.len())]),
                    ),
                ])
                .to_string();
                let (router, single) = cluster.both(&bad_delete);
                assert_eq!(router, single, "seed {seed}: out-of-bounds delete diverged");
                // The valid prefix was applied on both sides.
                scratch[0] = String::new();

                // Repeated and already-deleted ids: `deleted` is what
                // changed, summed over the shards, not what was sent.
                let live = scratch[1..3].iter().filter(|l| !l.is_empty()).count();
                let repeats = Json::object([
                    ("op", Json::string("delete_docs")),
                    (
                        "lines",
                        Json::Array([1, 0, 2, 1, 2].map(Json::number).to_vec()),
                    ),
                ])
                .to_string();
                let (router, single) = cluster.both(&repeats);
                assert_eq!(router, single, "seed {seed}: repeated delete diverged");
                assert_eq!(
                    Json::parse(&single)
                        .unwrap()
                        .get("deleted")
                        .and_then(Json::as_usize),
                    Some(live),
                    "seed {seed}: {single}"
                );
            }
            cluster.shutdown();
        }
    }
}

/// Querying the resident store before any corpus is loaded renders the
/// exact daemon error through the router, and router `stats` names every
/// backend while staying answerable locally.
#[test]
fn router_error_mirroring_and_stats() {
    let mut cluster = Cluster::start(2, true);
    let (router, single) = cluster.both(&corpus_query("/{x:a+}/", None));
    assert_eq!(router, single, "no-corpus error must be byte-identical");

    let stats = cluster.router.stats().unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let router_section = stats.get("router").expect("router section");
    let backends = router_section
        .get("backends")
        .and_then(Json::as_array)
        .expect("backends array");
    assert_eq!(backends.len(), 2);
    // The single daemon reports no router section (JSON null).
    let single_stats = cluster.single.stats().unwrap();
    assert_eq!(single_stats.get("router"), Some(&Json::Null));
    cluster.shutdown();
}
