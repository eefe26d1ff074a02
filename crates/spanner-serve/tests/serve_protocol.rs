//! End-to-end protocol and cache tests against a live daemon: malformed
//! and oversized request lines, concurrent clients sharing one cache
//! entry, LRU eviction order observed through `stats`, counter accounting,
//! and graceful shutdown draining in-flight work.

use spanner_serve::{Client, Json, ServeOptions, Server};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Starts a daemon with the given options, returns its address and join
/// handle.
fn start(options: ServeOptions) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    Server::bind("127.0.0.1:0", options)
        .expect("bind to an ephemeral port")
        .spawn()
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn field(v: &Json, path: [&str; 2]) -> usize {
    v.get(path[0])
        .and_then(|o| o.get(path[1]))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("missing {path:?} in {v}"))
}

#[test]
fn query_round_trip_and_cache_hit() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    let cold = client.query("/{x:a+}b/", "aab").unwrap();
    assert!(ok(&cold), "{cold}");
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(cold.get("count").and_then(Json::as_usize), Some(1));
    let mappings = cold.get("mappings").and_then(Json::as_array).unwrap();
    let x = mappings[0].get("x").unwrap();
    assert_eq!(x.get("text").and_then(Json::as_str), Some("aa"));
    assert_eq!(x.get("span").unwrap().to_string(), "[1,3]");

    // Same program (modulo outer whitespace): served from the cache, same
    // result.
    let warm = client.query("  /{x:a+}b/ ", "aab").unwrap();
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("mappings"), cold.get("mappings"));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn prepare_explain_and_corpus() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    let prepared = client
        .prepare("let a = /{x:a+}/; a minus /{x:aa}/;")
        .unwrap();
    assert!(ok(&prepared), "{prepared}");
    assert_eq!(prepared.get("static").and_then(Json::as_bool), Some(false));
    assert_eq!(
        prepared.get("vars").unwrap().to_string(),
        r#"["x"]"#,
        "{prepared}"
    );
    assert!(prepared
        .get("outline")
        .and_then(Json::as_str)
        .unwrap()
        .contains("dynamic plan"));

    let explained = client.explain("/{x:a}/").unwrap();
    assert!(ok(&explained));
    assert!(explained
        .get("explain")
        .and_then(Json::as_str)
        .unwrap()
        .contains("CompiledScan"));

    let corpus = client.query_corpus("/{x:a+}/", "aa\nb\na\n\naaa").unwrap();
    assert!(ok(&corpus), "{corpus}");
    assert_eq!(corpus.get("documents").and_then(Json::as_usize), Some(5));
    assert_eq!(corpus.get("matched").and_then(Json::as_usize), Some(3));
    let results = corpus.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 3, "only matching lines are reported");
    assert_eq!(results[0].get("line").and_then(Json::as_usize), Some(0));
    assert_eq!(results[2].get("line").and_then(Json::as_usize), Some(4));
    // "b" fails the required-factor prefilter and "" the length filter.
    assert_eq!(corpus.get("skipped").and_then(Json::as_usize), Some(2));
    assert!(corpus.get("rejected").is_none(), "{corpus}");

    // The daemon-wide stats accumulate the same fast-path counters.
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["server", "docs_skipped"]), 2, "{stats}");
    assert_eq!(field(&stats, ["server", "docs_evaluated"]), 3, "{stats}");
    let server = stats.get("server").unwrap();
    assert!(server.get("docs_rejected").is_none(), "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn resident_store_round_trip() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    // Querying the store before loading one is a protocol error, not a
    // connection teardown.
    let early = client.query_store("/{x:a}/").unwrap();
    assert!(!ok(&early));
    assert!(early
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("load_corpus"));

    let corpus: String = (0..100)
        .map(|i| {
            if i % 20 == 0 {
                format!("line {i}: needle here\n")
            } else {
                format!("line {i}: nothing\n")
            }
        })
        .collect();
    let corpus = corpus.trim_end();
    let loaded = client.load_corpus(corpus).unwrap();
    assert!(ok(&loaded), "{loaded}");
    assert_eq!(loaded.get("documents").and_then(Json::as_usize), Some(100));
    assert!(loaded.get("trigrams").and_then(Json::as_usize).unwrap() > 0);

    // A selective query prunes through the trigram index: candidates far
    // below the corpus size, non-candidates skipped without being read.
    let program = "/.*needle{x: .*}/";
    let indexed = client.query_store(program).unwrap();
    assert!(ok(&indexed), "{indexed}");
    assert_eq!(indexed.get("documents").and_then(Json::as_usize), Some(100));
    assert_eq!(indexed.get("matched").and_then(Json::as_usize), Some(5));
    assert_eq!(indexed.get("candidates").and_then(Json::as_usize), Some(5));
    let selectivity = indexed.get("selectivity").and_then(Json::as_f64).unwrap();
    assert!(selectivity <= 0.05 + f64::EPSILON, "{indexed}");
    assert!(indexed.get("skipped").and_then(Json::as_usize).unwrap() >= 95);

    // Bit-identical to shipping the same corpus inline.
    let inline = client.query_corpus(program, corpus).unwrap();
    assert_eq!(indexed.get("results"), inline.get("results"));

    // No usable literal: the store falls back to a full scan and reports
    // `candidates: null`, still with the full result set.
    let fallback = client.query_store("/{x:[nh]+}/").unwrap();
    assert!(ok(&fallback), "{fallback}");
    assert_eq!(fallback.get("candidates"), Some(&Json::Null));
    assert_eq!(
        fallback.get("selectivity").and_then(Json::as_f64),
        Some(1.0)
    );

    // The resident store shows up in the daemon stats.
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["store", "documents"]), 100, "{stats}");
    assert!(field(&stats, ["store", "trigrams"]) > 0, "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn mutations_propagate_through_the_maintained_view() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    // Mutating before a corpus is loaded is a protocol error, not a
    // teardown.
    let early = client.append_docs("x").unwrap();
    assert!(!ok(&early));
    assert!(early
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("load_corpus"));

    let corpus: String = (0..50).map(|i| format!("line {i}: nothing\n")).collect();
    let loaded = client.load_corpus(corpus.trim_end()).unwrap();
    assert!(ok(&loaded), "{loaded}");
    let gen0 = loaded.get("generation").and_then(Json::as_usize).unwrap();

    // Cold query: every document is a view miss (the non-candidates are
    // recorded as empty without being read — all 50 here, since nothing
    // contains the literal). The program is prepared first, so this query
    // already builds its view.
    let program = "/.*needle{x: .*}/";
    assert!(ok(&client.prepare(program).unwrap()));
    let cold = client.query_store(program).unwrap();
    assert!(ok(&cold), "{cold}");
    assert_eq!(cold.get("matched").and_then(Json::as_usize), Some(0));
    assert_eq!(cold.get("delta_docs").and_then(Json::as_usize), Some(50));
    assert_eq!(cold.get("view_hits").and_then(Json::as_usize), Some(0));

    // Warm repeat: answered entirely from the maintained view.
    let warm = client.query_store(program).unwrap();
    assert_eq!(warm.get("delta_docs").and_then(Json::as_usize), Some(0));
    assert_eq!(warm.get("view_hits").and_then(Json::as_usize), Some(50));

    // Mutate: two appends, one rewrite, one delete — four changed ids.
    let appended = client
        .append_docs("new needle alpha\nnew needle beta")
        .unwrap();
    assert!(ok(&appended), "{appended}");
    assert_eq!(appended.get("appended").and_then(Json::as_usize), Some(2));
    assert_eq!(appended.get("documents").and_then(Json::as_usize), Some(52));
    let updated = client.update_doc(3, "line 3: needle now").unwrap();
    assert!(ok(&updated), "{updated}");
    let deleted = client.delete_docs(&[10]).unwrap();
    assert!(ok(&deleted), "{deleted}");
    assert_eq!(deleted.get("deleted").and_then(Json::as_usize), Some(1));
    let gen = deleted.get("generation").and_then(Json::as_usize).unwrap();
    assert!(
        gen > gen0,
        "mutations advance the generation: {gen0} -> {gen}"
    );

    // Only the four changed documents are re-evaluated; the other 48 are
    // served from the view. The update and the delete invalidate retained
    // entries; the appends never had any.
    let delta = client.query_store(program).unwrap();
    assert!(ok(&delta), "{delta}");
    assert_eq!(delta.get("documents").and_then(Json::as_usize), Some(52));
    assert_eq!(delta.get("delta_docs").and_then(Json::as_usize), Some(4));
    assert_eq!(delta.get("view_hits").and_then(Json::as_usize), Some(48));
    assert_eq!(delta.get("invalidated").and_then(Json::as_usize), Some(2));
    // The rewritten doc and the two appends match; the tombstoned slot is
    // empty and does not.
    assert_eq!(delta.get("matched").and_then(Json::as_usize), Some(3));
    assert_eq!(delta.get("generation").and_then(Json::as_usize), Some(gen));

    // And the refreshed view serves the whole corpus on the next repeat.
    let warm2 = client.query_store(program).unwrap();
    assert_eq!(warm2.get("delta_docs").and_then(Json::as_usize), Some(0));
    assert_eq!(warm2.get("view_hits").and_then(Json::as_usize), Some(52));
    assert_eq!(warm2.get("results"), delta.get("results"));

    // An out-of-range id is an error response, with earlier state intact.
    let bad = client.update_doc(999, "nope").unwrap();
    assert!(!ok(&bad), "{bad}");
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["store", "documents"]), 52, "{stats}");
    assert_eq!(field(&stats, ["store", "deleted"]), 1, "{stats}");
    assert!(field(&stats, ["store", "generation"]) >= 4, "{stats}");
    assert_eq!(field(&stats, ["store", "views"]), 1, "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// `delete_docs` counts what it changed: an id that was already a
/// tombstone moves neither `deleted`, nor the generation, nor the
/// "mutations applied" counter — so the three per-op counters always sum
/// to the generation.
#[test]
fn repeated_deletes_count_once() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let loaded = client.load_corpus("zero\none\ntwo").unwrap();
    assert_eq!(loaded.get("generation").and_then(Json::as_usize), Some(0));

    let first = client.delete_docs(&[0, 0, 0]).unwrap();
    assert!(ok(&first), "{first}");
    assert_eq!(first.get("deleted").and_then(Json::as_usize), Some(1));
    assert_eq!(first.get("generation").and_then(Json::as_usize), Some(1));
    let again = client.delete_docs(&[0, 2]).unwrap();
    assert_eq!(again.get("deleted").and_then(Json::as_usize), Some(1));
    assert_eq!(again.get("generation").and_then(Json::as_usize), Some(2));
    let noop = client.delete_docs(&[2, 0]).unwrap();
    assert!(ok(&noop), "{noop}");
    assert_eq!(noop.get("deleted").and_then(Json::as_usize), Some(0));
    assert_eq!(noop.get("generation").and_then(Json::as_usize), Some(2));
    // A bad id still aborts the batch after its valid prefix.
    let bad = client.delete_docs(&[1, 1, 9]).unwrap();
    assert!(!ok(&bad), "{bad}");

    assert!(ok(&client.append_docs("three\nfour").unwrap()));
    assert!(ok(&client.update_doc(0, "zero again").unwrap()));
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["store", "generation"]), 6, "{stats}");
    assert_eq!(field(&stats, ["store", "deleted"]), 2, "{stats}");
    let metrics = client.metrics().unwrap();
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    for line in [
        "spanner_store_mutations_total{op=\"append\"} 2",
        "spanner_store_mutations_total{op=\"update\"} 1",
        "spanner_store_mutations_total{op=\"delete\"} 3",
    ] {
        assert!(text.contains(line), "missing `{line}` in\n{text}");
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// Counters read back past `u32`, but a document id still may not: an
/// `update_doc` line of 2^32 is the typed id error, not document 0.
#[test]
fn update_doc_refuses_an_id_past_u32() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    assert!(ok(&client.load_corpus("zero\none").unwrap()));

    let line = client
        .request_line(r#"{"op":"update_doc","line":4294967296,"text":"x"}"#)
        .unwrap();
    let response = Json::parse(&line).unwrap();
    assert!(!ok(&response), "{response}");
    let error = response.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("document-id `line`"), "{error}");
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["store", "generation"]), 0, "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A deleted line is an empty line, not an absent one: a pattern that
/// accepts the empty string still answers on it, exactly as it does on an
/// empty line of shipped text. (Tombstones are not in the segment format;
/// filtering them would change answers across a save/load.) The view that
/// answered holds a hash snapshot no budget bounds, and `metrics` shows it.
#[test]
fn a_deleted_line_still_answers_a_nullable_pattern() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    assert!(ok(&client.load_corpus("aa\nb\nc").unwrap()));
    let deleted = client.delete_docs(&[0]).unwrap();
    assert_eq!(deleted.get("deleted").and_then(Json::as_usize), Some(1));
    // Prepared, so each program's first store query builds its view.
    for program in ["/{x:a*}/", "/{x:a+}/"] {
        assert!(ok(&client.prepare(program).unwrap()));
    }

    let answer = client.query_store("/{x:a*}/").unwrap();
    assert!(ok(&answer), "{answer}");
    assert_eq!(answer.get("matched").and_then(Json::as_usize), Some(1));
    let results = answer.get("results").unwrap();
    assert_eq!(
        results.to_string(),
        r#"[{"line":0,"count":1,"mappings":[{"x":{"span":[1,1],"text":""}}]}]"#
    );
    let shipped = client.query_corpus("/{x:a*}/", "\nb\nc").unwrap();
    assert_eq!(shipped.get("results"), Some(results));
    // A pattern that needs a byte answers nothing there, deleted or empty.
    let strict = client.query_store("/{x:a+}/").unwrap();
    assert_eq!(strict.get("matched").and_then(Json::as_usize), Some(0));

    let metrics = client.metrics().unwrap();
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    let snapshot_bytes: usize = text
        .lines()
        .find_map(|line| line.strip_prefix("spanner_view_snapshot_bytes "))
        .unwrap_or_else(|| panic!("no spanner_view_snapshot_bytes in\n{text}"))
        .parse()
        .unwrap();
    // Two views over three documents, 8 bytes a document at the least.
    assert!((48..=128).contains(&snapshot_bytes), "{snapshot_bytes}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The value of the unlabelled (or fully labelled) sample `name` in a
/// `metrics` scrape.
fn metric(client: &mut Client, name: &str) -> f64 {
    let metrics = client.metrics().unwrap();
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{name}` in\n{text}"))
        .parse()
        .unwrap()
}

/// A view is earned by a repeat: a store query for a program the daemon
/// has never seen answers through no view, so a stream of one-off programs
/// longer than both the view set and the prepared-query cache copies no
/// hash snapshot and pushes out no hot program's view.
#[test]
fn one_off_programs_neither_build_nor_evict_views() {
    const LINES: usize = 50;
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let corpus: String = (0..LINES).map(|i| format!("line {i}: nothing\n")).collect();
    assert!(ok(&client.load_corpus(corpus.trim_end()).unwrap()));
    let view_hits = |answer: &Json| answer.get("view_hits").and_then(Json::as_usize);

    let hot = "/.*needle{x: .*}/";
    assert!(ok(&client.prepare(hot).unwrap()));
    assert_eq!(view_hits(&client.query_store(hot).unwrap()), Some(0));
    assert_eq!(view_hits(&client.query_store(hot).unwrap()), Some(LINES));

    // More one-offs than `max_views` (16) and the cache (64) hold.
    for i in 0..70 {
        let answer = client
            .query_store(&format!("/.*line {i}:{{x: .*}}/"))
            .unwrap();
        assert!(ok(&answer), "{answer}");
        let matched = answer.get("matched").and_then(Json::as_usize);
        assert_eq!(matched, Some(usize::from(i < LINES)), "{answer}");
        assert_eq!(view_hits(&answer), Some(0), "one-off {i}: {answer}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["store", "views"]), 1, "{stats}");
    let snapshot = metric(&mut client, "spanner_view_snapshot_bytes");
    assert_eq!(snapshot, (8 * LINES) as f64, "one view's hash snapshot");

    // The one-offs pushed the hot program out of the cache, not its view.
    let again = client.query_store(hot).unwrap();
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(view_hits(&again), Some(LINES), "{again}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The view metric families describe maintained views: a store query no
/// view answered (here: views disabled) adds no miss and observes no hit
/// ratio — which would read as views being evicted — while its response
/// still carries the view members.
#[test]
fn a_query_without_a_view_records_no_view_metrics() {
    let (addr, handle) = start(ServeOptions {
        max_views: 0,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();
    assert!(ok(&client.load_corpus("a needle\nmiss\nneedle b").unwrap()));
    let program = "/.*{x:needle}.*/";
    for _ in 0..2 {
        let answer = client.query_store(program).unwrap();
        assert_eq!(answer.get("matched").and_then(Json::as_usize), Some(2));
        assert_eq!(answer.get("view_hits").and_then(Json::as_usize), Some(0));
        assert_eq!(answer.get("delta_docs").and_then(Json::as_usize), Some(3));
    }
    for name in [
        "spanner_view_docs_total{outcome=\"miss\"}",
        "spanner_view_hit_ratio_count",
        "spanner_view_delta_docs_count",
    ] {
        assert_eq!(metric(&mut client, name), 0.0, "{name}");
    }
    assert_eq!(metric(&mut client, "spanner_views"), 0.0);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// `stats` and `/metrics` are rendered from one list of readings: after
/// loads, mutations (enough to compact), cache evictions and store queries
/// that build a view, every reading that has both a `stats` member and a
/// sample is the same number in both.
#[test]
fn stats_and_metrics_report_the_same_readings() {
    let (addr, handle) = start(ServeOptions {
        cache_capacity: 2,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let corpus: String = (0..50).map(|i| format!("line {i}: nothing\n")).collect();
    assert!(ok(&client.load_corpus(corpus.trim_end()).unwrap()));

    let hot = "/.*needle{x: .*}/";
    assert!(ok(&client.prepare(hot).unwrap()));
    assert!(ok(&client.query_store(hot).unwrap()));
    // Distinct text, so the delta outgrows the compaction grace.
    let appended: Vec<String> = (0..40)
        .map(|i| {
            let text: String = (0..60)
                .map(|j| char::from(b'a' + ((i * 7 + j * j) % 26) as u8))
                .collect();
            format!("needle {i} {text}")
        })
        .collect();
    assert!(ok(&client.append_docs(&appended.join("\n")).unwrap()));
    assert!(ok(&client.update_doc(3, "line 3: needle now").unwrap()));
    assert!(ok(&client.delete_docs(&[10, 11]).unwrap()));
    for program in [hot, "/.*{x:line 7}.*/", "/.*{x:line 8}.*/", hot] {
        assert!(ok(&client.query_store(program).unwrap()));
    }
    assert!(ok(&client.append_docs("one more needle").unwrap()));

    let stats = client.stats().unwrap();
    assert!(field(&stats, ["cache", "evictions"]) > 0, "{stats}");
    assert!(field(&stats, ["store", "compactions"]) > 0, "{stats}");
    assert!(field(&stats, ["store", "views"]) > 0, "{stats}");
    for (path, sample) in [
        (["cache", "capacity"], "spanner_cache_capacity"),
        (["cache", "entries"], "spanner_cache_entries"),
        (["cache", "hits"], "spanner_cache_hits_total"),
        (["cache", "misses"], "spanner_cache_misses_total"),
        (["cache", "evictions"], "spanner_cache_evictions_total"),
        (["store", "documents"], "spanner_store_documents"),
        (["store", "bytes"], "spanner_store_bytes"),
        (["store", "trigrams"], "spanner_store_trigrams"),
        (["store", "generation"], "spanner_store_generation"),
        (["store", "deleted"], "spanner_store_deleted_documents"),
        (["store", "delta_postings"], "spanner_store_delta_postings"),
        (["store", "compactions"], "spanner_store_compactions_total"),
        (["store", "views"], "spanner_views"),
        (
            ["server", "docs_skipped"],
            r#"spanner_corpus_docs_total{outcome="skipped"}"#,
        ),
        (
            ["server", "docs_evaluated"],
            r#"spanner_corpus_docs_total{outcome="evaluated"}"#,
        ),
    ] {
        let reading = field(&stats, path) as f64;
        assert_eq!(reading, metric(&mut client, sample), "{path:?} vs {sample}");
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// docs/OPS.md §1's table of exported families lists exactly the families
/// a daemon with a resident store renders, one backticked name per family
/// (a row may name several, split on ` / `).
#[test]
fn the_ops_family_table_lists_every_scraped_family() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    assert!(ok(&client.load_corpus("a needle\nmiss").unwrap()));
    let metrics = client.metrics().unwrap();
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    let scraped: BTreeSet<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    let ops =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OPS.md")).unwrap();
    let documented: BTreeSet<&str> = ops
        .lines()
        .skip_while(|line| !line.starts_with("| family |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .flat_map(|row| row.split('|').nth(1).unwrap().split(" / "))
        .map(|cell| cell.trim().trim_matches('`'))
        .collect();
    assert_eq!(scraped, documented);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The `stats` layout — its sections and their members, in order — before
/// and after `load_corpus`. Values are not compared.
#[test]
fn stats_keeps_its_sections_and_members_in_order() {
    fn layout(value: &Json) -> String {
        match value {
            Json::Object(members) => {
                let members: Vec<String> = members
                    .iter()
                    .map(|(name, value)| format!("{name}{}", layout(value)))
                    .collect();
                format!("{{{}}}", members.join(" "))
            }
            Json::Null => ":null".into(),
            _ => String::new(),
        }
    }
    let ops: Vec<String> = [
        "prepare",
        "query",
        "load_corpus",
        "append_docs",
        "update_doc",
        "delete_docs",
        "query_corpus",
        "explain",
        "stats",
        "metrics",
        "shutdown",
        "invalid",
    ]
    .iter()
    .map(|op| format!("{op}{{requests errors}}"))
    .collect();
    let expected = |store: &str| {
        format!(
            "{{ok cache{{capacity entries hits misses evictions prepare_seconds}} \
             server{{requests_total errors_total uptime_s connections corpus_threads \
             docs_skipped docs_evaluated}} ops{{{}}} store{store}}}",
            ops.join(" ")
        )
    };
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(layout(&client.stats().unwrap()), expected(":null"));
    assert!(ok(&client.load_corpus("a needle\nmiss").unwrap()));
    assert_eq!(
        layout(&client.stats().unwrap()),
        expected("{documents bytes trigrams generation deleted delta_postings compactions views}")
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn queries_stay_live_during_a_large_load_corpus() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (addr, handle) = start(ServeOptions {
        threads: 4,
        max_line_bytes: 64 << 20,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let loaded = client
        .load_corpus("alpha needle\nbeta\ngamma needle")
        .unwrap();
    assert!(ok(&loaded), "{loaded}");

    // A second connection replaces the corpus with a large one; the build
    // happens off the resident pointer, so queries on the first connection
    // must keep being answered (by the old store) for the whole duration.
    // Big enough that the build visibly overlaps the query loop, small
    // enough to stay quick in unoptimized test builds.
    const BIG: usize = 30_000;
    let done = Arc::new(AtomicBool::new(false));
    let loader_done = Arc::clone(&done);
    let loader = std::thread::spawn(move || {
        let mut loader = Client::connect(addr).unwrap();
        let big: String = (0..BIG)
            .map(|i| format!("filler document {i} with some text\n"))
            .collect();
        let response = loader.load_corpus(big.trim_end()).unwrap();
        loader_done.store(true, Ordering::SeqCst);
        response
    });

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut live_during_load = 0;
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "load_corpus did not finish within a minute"
        );
        let before = done.load(Ordering::SeqCst);
        let response = client.query_store("/.*needle{x:.*}/").unwrap();
        assert!(ok(&response), "{response}");
        let documents = response.get("documents").and_then(Json::as_usize).unwrap();
        assert!(
            documents == 3 || documents == BIG,
            "a query observed a half-swapped store: {response}"
        );
        if !before && documents == 3 {
            live_during_load += 1;
        }
        if documents == BIG {
            break;
        }
    }
    assert!(
        live_during_load > 0,
        "no query was served while the load was in flight"
    );

    let response = loader.join().unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(
        response.get("documents").and_then(Json::as_usize),
        Some(BIG)
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_error_without_closing_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start(ServeOptions::default());

    // A line that is not UTF-8 is refused, not decoded lossily into a
    // different document, and counted as an invalid request; the raw
    // connection keeps serving.
    let mut raw = BufReader::new(std::net::TcpStream::connect(addr).unwrap());
    let mut exchange = |line: &[u8]| {
        raw.get_mut().write_all(line).unwrap();
        let mut response = String::new();
        raw.read_line(&mut response).unwrap();
        Json::parse(&response).unwrap()
    };
    let refused = exchange(b"{\"op\":\"query\",\"program\":\"/{x:.*}/\",\"doc\":\"a\xffb\"}\n");
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("request line is not UTF-8"),
        "{refused}"
    );
    assert!(ok(&exchange(
        b"{\"op\":\"query\",\"program\":\"/{x:a}/\",\"doc\":\"a\"}\n"
    )));
    let stats = exchange(b"{\"op\":\"stats\"}\n");
    let invalid = stats.get("ops").and_then(|ops| ops.get("invalid")).unwrap();
    assert_eq!(invalid.get("requests").and_then(Json::as_usize), Some(1));
    drop(raw);

    let mut client = Client::connect(addr).unwrap();

    // Input that once recursed a connection worker off its stack, or made
    // it build a formula of 2^40 nodes: a request line 10 000 arrays deep,
    // a program of 4 000 nested parentheses, and 40 stacked `+`. Each is
    // refused by its parser's bound.
    let hostile = [
        format!(r#"{{"op":"stats","x":{}"#, "[".repeat(10_000)),
        format!(
            r#"{{"op":"prepare","program":"{}/a/{}"}}"#,
            "(".repeat(4_000),
            ")".repeat(4_000)
        ),
        format!(
            r#"{{"op":"prepare","program":"/{{x:a{}}}/"}}"#,
            "+".repeat(40)
        ),
    ];
    for bad in [
        "not json",
        "[]",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"query"}"#,
        r#"{"op":"query","program":17,"doc":"x"}"#,
    ]
    .into_iter()
    .chain(hostile.iter().map(String::as_str))
    {
        let line = client.request_line(bad).unwrap();
        let response = Json::parse(&line).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad}"
        );
        assert!(response.get("error").is_some(), "{bad}");
    }
    // A compile error in the program text is an error response with the
    // pretty rendering, not a connection teardown.
    let response = client.query("let a = /x/; b", "x").unwrap();
    assert!(!ok(&response));
    assert!(response
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown extractor"));

    // The connection still serves after all those errors.
    let good = client.query("/{x:a}/", "a").unwrap();
    assert!(ok(&good));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn oversized_request_lines_are_rejected_and_drained() {
    let (addr, handle) = start(ServeOptions {
        max_line_bytes: 256,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // Far past the cap; the server must refuse without buffering it all.
    let huge = format!(
        r#"{{"op":"query","program":"/{{x:a}}/","doc":"{}"}}"#,
        "a".repeat(4096)
    );
    let line = client.request_line(&huge).unwrap();
    let response = Json::parse(&line).unwrap();
    assert!(!ok(&response));
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("256-byte limit"),
        "{response}"
    );

    // The oversized line was fully drained: the next request parses clean.
    let good = client.query("/{x:a}/", "a").unwrap();
    assert!(ok(&good), "{good}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn hostile_query_fails_fast_with_the_request_limits() {
    let (addr, handle) = start(ServeOptions {
        ra_options: spanner_algebra::RaOptions {
            max_signatures: 3,
            ..spanner_algebra::RaOptions::default()
        },
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();
    // The left scan yields all subspans of the document — far past the
    // 3-mapping intermediate limit; the server answers with an error
    // instead of materializing it.
    let response = client
        .query("/.*{x:.*}.*/ minus /{x:zz}/", "abcdefgh")
        .unwrap();
    assert!(!ok(&response), "{response}");
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("limit"),
        "{response}"
    );
    // The process survived; a benign query still works.
    let good = client.query("/{x:a}/", "a").unwrap();
    assert!(ok(&good));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// One 300 KB `prepare` line of 100 000 alternatives: its automaton's
/// 300 004 states are past the compiled-automaton cap, so the compile is
/// refused, and the daemon goes on answering.
#[test]
fn a_program_past_the_closure_budget_is_refused_and_the_daemon_answers() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let program = format!("/{{x:ab{}}}/", "|ab".repeat(99_999));
    let line = format!(r#"{{"op":"prepare","program":"{program}"}}"#);
    assert!(line.len() > 300_000);
    let response = Json::parse(&client.request_line(&line).unwrap()).unwrap();
    assert!(!ok(&response), "{response}");
    let error = response.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("compiled automaton states limit exceeded"),
        "{error}"
    );
    let stats = client.stats().unwrap();
    assert!(ok(&stats), "{stats}");
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// An 8 KB join whose product would pass a million states stops at the
/// planner's state cap while it is built.
#[test]
fn a_join_product_past_the_state_cap_is_refused_while_it_is_built() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let class = "[ab]".repeat(1000);
    let program = format!("let a = /.*{{x:{class}}}.*/; let b = /.*{{y:{class}}}.*/; a join b");
    let line = format!(r#"{{"op":"prepare","program":"{program}"}}"#);
    let response = Json::parse(&client.request_line(&line).unwrap()).unwrap();
    assert!(!ok(&response), "{response}");
    let error = response.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("join product states limit exceeded: 32769 > 32768"),
        "{error}"
    );
    let stats = client.stats().unwrap();
    assert!(ok(&stats), "{stats}");
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// `store-adhoc`'s join template, never seen, runs on its hash-join
/// lowering; after `prepare` it runs on its Lemma 3.2 product. The two
/// answer with the same bytes.
#[test]
fn a_never_seen_join_answers_as_its_prepared_product() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    let line = |i: usize| match i % 4 {
        0 => format!("line {i} has a needle here"),
        _ => format!("line {i} is hay"),
    };
    let corpus: Vec<String> = (0..40).map(line).collect();
    assert!(ok(&client.load_corpus(&corpus.join("\n")).unwrap()));
    let program = "let a = /.*{x7:needle}{y:[a-z ]}.*/; let b = /.*{x7:needle}.*/; a join b;";
    let request = format!(r#"{{"op":"query_corpus","program":"{program}"}}"#);
    let results = |response: &str| {
        let at = response.find(r#","results":"#).expect("a results member");
        response[at..].to_string()
    };
    let cold = client.request_line(&request).unwrap();
    let parsed = Json::parse(&cold).unwrap();
    assert_eq!(parsed.get("cached"), Some(&Json::Bool(false)), "{cold}");
    assert_eq!(parsed.get("matched").and_then(Json::as_usize), Some(10));
    let prepared = client.prepare(program).unwrap();
    assert_eq!(
        prepared.get("static"),
        Some(&Json::Bool(true)),
        "{prepared}"
    );
    let warm = client.request_line(&request).unwrap();
    assert!(warm.contains(r#""cached":true"#), "{warm}");
    assert_eq!(results(&cold), results(&warm));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A never-seen join whose left operand holds every span of the document:
/// its hash-join lowering would materialize them, past the daemon's
/// relation limit, where the product holds only the joined mapping. The
/// never-seen query answers as the prepared program does.
#[test]
fn a_never_seen_join_answers_as_its_product_past_the_relation_limit() {
    let (addr, handle) = start(ServeOptions {
        ra_options: spanner_algebra::RaOptions {
            max_signatures: 1000,
            ..spanner_algebra::RaOptions::default()
        },
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let program = "/.*{x:.*}.*/ join /.*{x:needle}.*/";
    // 86 bytes: 3 741 spans on the left.
    let doc = format!("{}needle", "hay ".repeat(20));
    let cold = client.query(program, &doc).unwrap();
    assert!(ok(&cold), "{cold}");
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(cold.get("count").and_then(Json::as_usize), Some(1));
    assert!(ok(&client.prepare(program).unwrap()));
    let warm = client.query(program, &doc).unwrap();
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("mappings"), cold.get("mappings"));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A join's screen does not depend on which request compiled it: one
/// daemon first answers the join as a store query, another first
/// prepares it, and their next store queries prune alike. Its 614-state
/// product is past the literal budget, so a screen read off the product
/// would require nothing and evaluate every document.
#[test]
fn a_join_screens_alike_whether_queried_or_prepared_first() {
    let corpus: Vec<String> = spanner_workloads::needle_corpus(2_000, 50, 12)
        .iter()
        .map(|doc| doc.text().to_string())
        .collect();
    let program = "let a = /.*{x:needle [a-z]+ [a-z]+}.*/; \
                   let b = /.*{y:[a-z]+ [a-z]+ [a-z]+ [a-z]+ [a-z]+ [a-z]+}.*/; a join b;";
    let tallies = |prepare_first: bool| {
        let (addr, handle) = start(ServeOptions::default());
        let mut client = Client::connect(addr).unwrap();
        assert!(ok(&client.load_corpus(&corpus.join("\n")).unwrap()));
        let first = match prepare_first {
            true => client.prepare(program).unwrap(),
            false => client.query_store(program).unwrap(),
        };
        assert!(ok(&first), "{first}");
        let answer = client.query_store(program).unwrap();
        assert!(ok(&answer), "{answer}");
        let member = |name| answer.get(name).cloned();
        let tallies = [
            member("candidates"),
            member("skipped"),
            member("selectivity"),
        ];
        let stats = client.stats().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        (tallies, field(&stats, ["server", "docs_evaluated"]))
    };
    let (queried, _) = tallies(false);
    let (prepared, evaluated) = tallies(true);
    assert_eq!(queried, prepared);
    assert!(evaluated < corpus.len() / 10, "{evaluated} evaluated");
}

#[test]
fn concurrent_clients_share_one_cache_entry() {
    const PROGRAM: &str = "let a = /{x:a+}b*/; project x (a);";
    let (addr, handle) = start(ServeOptions {
        threads: 4,
        ..ServeOptions::default()
    });

    let clients: Vec<JoinHandle<()>> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    let response = client.query(PROGRAM, "aab").unwrap();
                    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
                    assert_eq!(response.get("count").and_then(Json::as_usize), Some(1));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    // 6 clients × 5 queries = 30 requests on one program: exactly one
    // compilation, 29 hits, one resident entry.
    assert_eq!(field(&stats, ["cache", "misses"]), 1, "{stats}");
    assert_eq!(field(&stats, ["cache", "hits"]), 29, "{stats}");
    assert_eq!(field(&stats, ["cache", "entries"]), 1, "{stats}");
    assert_eq!(field(&stats, ["cache", "evictions"]), 0, "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn lru_eviction_order_over_the_protocol() {
    let (addr, handle) = start(ServeOptions {
        cache_capacity: 2,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(addr).unwrap();

    client.query("/{x:a}/", "a").unwrap(); // A: miss
    client.query("/{x:b}/", "b").unwrap(); // B: miss
    client.query("/{x:a}/", "a").unwrap(); // A: hit (B becomes LRU)
    client.query("/{x:c}/", "c").unwrap(); // C: miss, evicts B
    client.query("/{x:a}/", "a").unwrap(); // A: hit (survived eviction)
    let after_b_evicted = client.query("/{x:b}/", "b").unwrap(); // B: miss again

    assert_eq!(
        after_b_evicted.get("cached").and_then(Json::as_bool),
        Some(false),
        "B was the least-recently-used entry and must have been evicted"
    );
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["cache", "evictions"]), 2, "{stats}"); // B, then C or A
    assert_eq!(field(&stats, ["cache", "entries"]), 2, "{stats}");
    assert_eq!(field(&stats, ["cache", "misses"]), 4, "{stats}");
    assert_eq!(field(&stats, ["cache", "hits"]), 2, "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn stats_count_requests_and_connections() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();
    client.query("/{x:a}/", "a").unwrap();
    client.prepare("/{x:a}/").unwrap();
    let stats = client.stats().unwrap();
    assert!(ok(&stats));
    // query + prepare + this stats request (counted on arrival, so the
    // in-flight stats request is included in its own report).
    assert_eq!(field(&stats, ["server", "requests_total"]), 3, "{stats}");
    assert_eq!(field(&stats, ["server", "errors_total"]), 0, "{stats}");
    assert_eq!(field(&stats, ["server", "connections"]), 1, "{stats}");
    assert!(field(&stats, ["server", "corpus_threads"]) >= 1);
    assert!(
        stats
            .get("server")
            .and_then(|s| s.get("uptime_s"))
            .and_then(Json::as_f64)
            .is_some_and(|u| u >= 0.0),
        "{stats}"
    );
    // The per-op breakdown sums to the totals and partitions them right.
    let ops = stats.get("ops").unwrap();
    for (op, requests) in [("query", 1), ("prepare", 1), ("stats", 1)] {
        let entry = ops.get(op).unwrap_or_else(|| panic!("no ops.{op}"));
        assert_eq!(
            entry.get("requests").and_then(Json::as_usize),
            Some(requests)
        );
        assert_eq!(entry.get("errors").and_then(Json::as_usize), Some(0));
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn error_requests_are_tallied_per_op() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    // One good query, one compile error, one undecodable line.
    assert!(ok(&client.query("/{x:a}/", "a").unwrap()));
    assert!(!ok(&client.query("let a = /x/; b", "x").unwrap()));
    let bad = client.request_line("not json").unwrap();
    assert!(!ok(&Json::parse(&bad).unwrap()));

    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["server", "requests_total"]), 4, "{stats}");
    assert_eq!(field(&stats, ["server", "errors_total"]), 2, "{stats}");
    let ops = stats.get("ops").unwrap();
    let query = ops.get("query").unwrap();
    assert_eq!(query.get("requests").and_then(Json::as_usize), Some(2));
    assert_eq!(query.get("errors").and_then(Json::as_usize), Some(1));
    let invalid = ops.get("invalid").unwrap();
    assert_eq!(invalid.get("requests").and_then(Json::as_usize), Some(1));
    assert_eq!(invalid.get("errors").and_then(Json::as_usize), Some(1));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn metrics_op_returns_prometheus_exposition() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    client.query("/{x:a+}/", "aaa").unwrap();
    client.query("/{x:a+}/", "aaa").unwrap(); // cache hit
    client.query_corpus("/{x:a+}/", "aa\nb\na").unwrap();

    let response = client.metrics().unwrap();
    assert!(ok(&response), "{response}");
    let text = response.get("metrics").and_then(Json::as_str).unwrap();

    // Structurally valid Prometheus text exposition.
    spanner_obs::expo::check_exposition(text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));

    // The families the daemon promises are present with the right types.
    for needle in [
        "# TYPE spanner_requests_total counter",
        "# TYPE spanner_request_seconds histogram",
        "# TYPE spanner_connections_total counter",
        "# TYPE spanner_cache_hits_total counter",
        "# TYPE spanner_corpus_docs_total counter",
        "# TYPE spanner_uptime_seconds gauge",
        r#"spanner_requests_total{op="query"} 2"#,
        r#"spanner_requests_total{op="query_corpus"} 1"#,
        // Second query + query_corpus both reuse the first query's entry.
        r#"spanner_cache_hits_total 2"#,
        // One observation per cache miss: the first query compiled.
        "# TYPE spanner_prepare_seconds histogram",
        "spanner_prepare_seconds_count 1",
        r#"spanner_corpus_docs_total{outcome="skipped"} 1"#,
        r#"le="+Inf"#,
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Histogram invariants on the wire: the query latency series has a
    // count of 2 observed requests.
    assert!(
        text.contains(r#"spanner_request_seconds_count{op="query"} 2"#),
        "{text}"
    );

    // A program that fails to compile is a miss as well, and `stats`
    // reports the time both misses took.
    assert!(!ok(&client.query("let a = ;", "x").unwrap()));
    let response = client.metrics().unwrap();
    let text = response.get("metrics").and_then(Json::as_str).unwrap();
    assert!(text.contains("spanner_prepare_seconds_count 2"), "{text}");
    assert!(text.contains("spanner_cache_misses_total 2"), "{text}");
    let stats = client.stats().unwrap();
    let spent = stats
        .get("cache")
        .and_then(|c| c.get("prepare_seconds"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{stats}"));
    assert!(spent > 0.0 && spent < 5.0, "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn explain_analyze_round_trip() {
    let (addr, handle) = start(ServeOptions::default());
    let mut client = Client::connect(addr).unwrap();

    // `.*{x:a+}b`: two mappings on "aab" (x = "aa" and x = "a").
    let response = client
        .explain_analyze("let a = /.*{x:a+}b/; project x (a);", "aab")
        .unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(response.get("count").and_then(Json::as_usize), Some(2));

    // The human rendering carries the measured annotations.
    let text = response.get("explain").and_then(Json::as_str).unwrap();
    assert!(text.contains("analyze    :"), "{text}");
    assert!(text.contains("mappings in"), "{text}");
    assert!(text.contains("rows="), "{text}");

    // The structured trace mirrors the optimized plan: the projection is
    // fused into the scan, so the root is one CompiledScan leaf carrying
    // the measured row count and prescan verdict.
    let trace = response.get("trace").unwrap();
    let label = trace.get("label").and_then(Json::as_str).unwrap();
    assert!(label.starts_with("CompiledScan"), "{trace}");
    assert_eq!(trace.get("rows").and_then(Json::as_usize), Some(2));
    assert!(trace.get("nanos").and_then(Json::as_usize).is_some());
    assert_eq!(
        trace
            .get("children")
            .and_then(Json::as_array)
            .map(|c| c.len()),
        Some(0),
        "{trace}"
    );
    assert_eq!(
        trace
            .get("counters")
            .and_then(|c| c.get("prescan_accept"))
            .and_then(Json::as_usize),
        Some(1),
        "{trace}"
    );

    // Analyze on an erroring query still reports ok:false with the error,
    // not a teardown.
    let bad = client.explain_analyze("let a = /x/; b", "x").unwrap();
    assert!(!ok(&bad), "{bad}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let (addr, handle) = start(ServeOptions {
        threads: 3,
        ..ServeOptions::default()
    });

    // A client with a request in flight when the shutdown lands: the
    // response must still arrive (the worker finishes its work before the
    // server exits). The corpus request is big enough to still be running
    // when the other connection fires the shutdown.
    let (connected, on_connect) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut busy = Client::connect(addr).unwrap();
        connected.send(()).unwrap();
        let corpus = "aab\n".repeat(2_000);
        busy.query_corpus("let a = /{x:a+}b/; project x (a);", &corpus)
            .unwrap()
    });
    // Wait for the busy client to be connected, give its request a head
    // start, then shut down.
    on_connect.recv().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut killer = Client::connect(addr).unwrap();
    let response = killer.shutdown().unwrap();
    assert_eq!(
        response.get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );

    let drained = worker.join().unwrap();
    assert_eq!(drained.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drained.get("documents").and_then(Json::as_usize),
        Some(2_000)
    );

    // The server exits cleanly and stops accepting new connections.
    handle.join().unwrap().unwrap();
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may accept briefly on some platforms; a request must fail.
            let mut c = Client::connect(addr).unwrap();
            c.query("/{x:a}/", "a").is_err()
        }
    );
}

#[test]
fn shutdown_is_not_stalled_by_a_partial_request_line() {
    use std::io::Write;
    let (addr, handle) = start(ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    });

    // A connection holding an unterminated line open: half a request is
    // not in-flight work, so it must not block the drain.
    let mut partial = std::net::TcpStream::connect(addr).unwrap();
    partial.write_all(br#"{"op":"que"#).unwrap();
    partial.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));

    let mut killer = Client::connect(addr).unwrap();
    killer.shutdown().unwrap();
    // The join completes even though `partial` never sent its newline
    // (the test harness timeout is the failure mode if it regresses).
    handle.join().unwrap().unwrap();
}

#[test]
fn idle_connections_are_closed_and_release_their_worker() {
    use std::io::Read;
    // One connection worker and a short idle timeout: a silent client
    // must not starve the daemon.
    let (addr, handle) = start(ServeOptions {
        threads: 1,
        idle_timeout: std::time::Duration::from_millis(150),
        ..ServeOptions::default()
    });

    let mut silent = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));

    // The silent connection occupies the only worker until the idle
    // timeout closes it; then this client must get served.
    let mut client = Client::connect(addr).unwrap();
    let response = client.query("/{x:a}/", "a").unwrap();
    assert!(ok(&response), "{response}");

    // The silent connection was closed by the server (EOF).
    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(silent.read(&mut buf).unwrap(), 0, "expected EOF");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn slow_drip_clients_cannot_hold_a_worker_past_the_idle_timeout() {
    use std::io::{Read, Write};
    let (addr, handle) = start(ServeOptions {
        threads: 1,
        idle_timeout: std::time::Duration::from_millis(200),
        ..ServeOptions::default()
    });

    // Feed bytes steadily but never complete a line: the deadline must
    // apply even though the socket is never idle long enough to time out
    // a single read.
    let mut drip = std::net::TcpStream::connect(addr).unwrap();
    drip.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let dripper = std::thread::spawn(move || {
        for _ in 0..100 {
            if drip.write_all(b"x").is_err() {
                break; // server closed us: the guard worked
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let mut buf = [0u8; 1];
        drip.read(&mut buf)
    });

    // Well before the dripper would finish on its own, the only worker
    // must be free again to serve a real client.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let mut client = Client::connect(addr).unwrap();
    let response = client.query("/{x:a}/", "a").unwrap();
    assert!(ok(&response), "{response}");

    // The drip connection saw EOF (or a write error) from the server.
    assert_eq!(dripper.join().unwrap().unwrap_or(0), 0, "expected EOF");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// `.` matches one *byte*, so on "é" (two bytes) the span of `x` splits the
/// character. Spans are byte offsets and stay so; the `text` beside them
/// is the covered bytes decoded lossily. Rendering it used to panic, which
/// killed the connection's worker — and there are only `threads` of them:
/// the request after the last death, and every probe after it, was
/// accepted and never answered. So: `threads + 1` such requests on each
/// path that renders mappings, each on a connection of its own and under a
/// client deadline, then `stats` and `metrics`.
#[test]
fn split_character_spans_are_answered_on_every_path() {
    let threads = 2;
    let (addr, handle) = start(ServeOptions {
        threads,
        ..ServeOptions::default()
    });
    let connect = || {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_deadline(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        client
    };
    let program = "/.*{x:.}.*/";
    // Both halves of "é", one replacement character each.
    let halves = r#"[{"x":{"span":[1,2],"text":"?"}},{"x":{"span":[2,3],"text":"?"}}]"#
        .replace('?', "\u{fffd}");
    for _ in 0..threads + 1 {
        let response = connect().query(program, "é").unwrap();
        assert!(ok(&response), "{response}");
        assert_eq!(response.get("mappings").unwrap().to_string(), halves);
    }
    let corpus = "é\nab";
    connect().load_corpus(corpus).unwrap();
    for shipped in [true, false] {
        for _ in 0..threads + 1 {
            let mut client = connect();
            let response = match shipped {
                true => client.query_corpus(program, corpus),
                false => client.query_store(program),
            }
            .unwrap();
            assert!(ok(&response), "{response}");
            let results = response.get("results").and_then(Json::as_array).unwrap();
            assert_eq!(results.len(), 2, "{response}");
            assert_eq!(results[0].get("mappings").unwrap().to_string(), halves);
        }
    }
    let mut client = connect();
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, ["server", "errors_total"]), 0, "{stats}");
    let metrics = client.metrics().unwrap();
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    assert!(text.contains("\nspanner_panics_total 0\n"), "{text}");
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The sharded path of a shipped corpus, which no benchmark workload
/// reaches (they ship 64 lines; a second worker needs 256): one 1 024-line
/// access log to daemons offering 1, 2 and 4 corpus threads. The response
/// lines are byte-identical, and are what rendering the single-threaded
/// library evaluation gives.
#[test]
fn corpus_threads_do_not_change_a_response_byte() {
    use spanner_serve::protocol::mappings_to_json;
    let program = r#"/{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d\/]+\] "{method:\u+} {path:[\w\/\.]+}" {status:\d\d\d} \d+/"#;
    let log = spanner_workloads::access_log(1024, 7);
    let text = log.text().trim_end();
    let request = Json::object([
        ("op", Json::string("query_corpus")),
        ("program", Json::string(program)),
        ("text", Json::string(text)),
    ])
    .to_string();

    let docs = spanner_corpus::split_lines(text);
    let out = spanner_ql::PreparedQuery::prepare(program)
        .unwrap()
        .evaluate_corpus(&docs, 1)
        .unwrap();
    assert_eq!((out.stats.matched_documents, out.stats.threads), (1024, 1));
    let results = docs
        .iter()
        .zip(&out.results)
        .enumerate()
        .map(|(i, (d, set))| {
            Json::object([
                ("line", Json::number(i)),
                ("count", Json::number(set.len())),
                ("mappings", mappings_to_json(d, set)),
            ])
        });
    let expected = Json::object([
        ("ok", Json::Bool(true)),
        ("cached", Json::Bool(false)),
        ("documents", Json::number(out.stats.documents)),
        ("matched", Json::number(out.stats.matched_documents)),
        ("mappings", Json::number(out.stats.mappings)),
        ("skipped", Json::number(out.stats.docs_skipped)),
        ("results", Json::Array(results.collect())),
    ])
    .to_string();

    for corpus_threads in [1, 2, 4] {
        let (addr, handle) = start(ServeOptions {
            corpus_threads,
            ..ServeOptions::default()
        });
        let mut client = Client::connect(addr).unwrap();
        let response = client.request_line(&request).unwrap();
        assert!(response == expected, "corpus_threads {corpus_threads}");
        let stats = client.stats().unwrap();
        assert_eq!(field(&stats, ["server", "corpus_threads"]), corpus_threads);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
