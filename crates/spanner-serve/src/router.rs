//! The shard router: one front end over N backend daemons.
//!
//! PR 2 proved corpus evaluation bit-identical across *threads*; this
//! module lifts the same guarantee to *processes*. A router partitions a
//! corpus into contiguous shards ([`spanner_corpus::partition_ranges`]),
//! loads one shard per backend daemon over the ordinary line-JSON
//! protocol, fans every `query_corpus` out in parallel, and merges the
//! per-shard results back into corpus order. Because shards are
//! contiguous and each backend reports its results in local corpus
//! order, the merge is pure concatenation with a per-shard line offset —
//! the merged `results` array is bit-identical to a single daemon
//! holding the whole corpus, at any shard count (pinned by the 100-seed
//! `shard_oracle` suite).
//!
//! Robustness: every backend call is bounded by a connect timeout and an
//! overall response deadline, transport failures on idempotent
//! operations retry a bounded number of times with exponential backoff,
//! and a backend that stays unreachable produces a *degraded* response
//! that names the failed shard (`"degraded": true`, `"shard"`,
//! `"backend"`) instead of hanging the client or returning partial
//! results. Backend connections are pooled — one persistent connection
//! per shard, re-established only after a failure — so a request burst
//! does not pay (or leak) a TCP handshake per call.
//!
//! Operations that touch the corpus (`load_corpus`, `query_corpus`,
//! mutations) route to the shards; everything else (`prepare`, `query`,
//! `explain`, `stats`, `metrics`, `shutdown`) is served locally by the
//! front end, which runs the same engine. Shutting the router down does
//! *not* shut its backends down — they may serve other routers.

use crate::client::Client;
use crate::json::Json;
use crate::lock_or_reset;
use crate::protocol::{error_response, Request};
use spanner_corpus::{partition_ranges, ShardMap};
use spanner_obs::{Counter, Histogram, Registry, LATENCY_BUCKETS};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of a shard router front end.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Backend daemon addresses, one per shard, in shard order.
    pub backends: Vec<String>,
    /// Per-backend TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-backend deadline for one full request/response round trip; a
    /// stalled or slow-dripping backend fails the call when it expires.
    pub read_timeout: Duration,
    /// Extra attempts after a transport failure, on idempotent
    /// operations only (`append_docs` is never retried — a duplicate
    /// append is worse than a degraded response).
    pub retries: usize,
    /// Backoff before the first retry; doubled per subsequent retry.
    pub retry_backoff: Duration,
}

impl Default for RouterOptions {
    fn default() -> RouterOptions {
        RouterOptions {
            backends: Vec::new(),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(10),
            retries: 2,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// Per-backend observability handles (all pre-registered; recording is
/// lock-free).
struct BackendMetrics {
    /// Request attempts sent to this backend (retries count again).
    requests: Counter,
    /// Calls that exhausted their retries and degraded.
    errors: Counter,
    /// Retry attempts (attempts beyond each call's first).
    retries: Counter,
    /// TCP connections established (stays flat while the pooled
    /// connection is healthy — the connection-reuse regression test
    /// watches this).
    connections: Counter,
    /// Round-trip latency of successful calls.
    latency: Histogram,
}

/// One backend daemon: its address and its pooled connection.
struct Backend {
    /// The configured address string (named in degraded responses).
    addr: String,
    /// The resolved socket address (resolved once, at bind).
    resolved: SocketAddr,
    /// The persistent pooled connection; `None` until first use and
    /// after any failure. Locked for the duration of a call, so
    /// concurrent router requests serialize per backend (and fan-out
    /// parallelism comes from the *shards*, which is the point).
    conn: Mutex<Option<Client>>,
    metrics: BackendMetrics,
}

/// What the router knows about the corpus it has sharded out.
struct RouterCorpus {
    /// Which global document ids live on which shard.
    map: ShardMap,
    /// Last-known store generation per shard (updated from every
    /// mutation response); the sum is the router-wide generation, equal
    /// to a single daemon's because every mutation lands on exactly one
    /// shard.
    generations: Vec<u64>,
}

impl RouterCorpus {
    fn generation(&self) -> u64 {
        self.generations.iter().sum()
    }
}

/// A shard router over N backend daemons. Owned by the serving `Shared`
/// state; its `route` method intercepts the corpus-level operations.
pub struct Router {
    options: RouterOptions,
    backends: Vec<Backend>,
    corpus: Mutex<Option<RouterCorpus>>,
    /// Degraded responses returned (any shard).
    degraded: Counter,
}

/// The typed degraded response: the standard error shape plus fields
/// that name the failed shard, so clients can distinguish "the query is
/// wrong" (plain error) from "a backend is down" (degraded).
fn degraded_response(shard: usize, backend: &str, error: &str) -> Json {
    Json::object([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::string(format!("shard {shard} ({backend}) unavailable: {error}")),
        ),
        ("degraded", Json::Bool(true)),
        ("shard", Json::number(shard)),
        ("backend", Json::string(backend)),
    ])
}

/// The single-daemon "nothing loaded" error, byte-identical to
/// `handle_request`'s so routed and unrouted deployments diagnose alike.
fn no_corpus() -> Json {
    error_response("no resident corpus (send `load_corpus` first)")
}

/// The store's out-of-bounds mutation error, mirrored byte-identically
/// (`spanner_store::StoreError::Mutation` through `Display`) so a router
/// rejects a bad document id with exactly the message a single daemon
/// would produce.
fn out_of_bounds(id: usize, len: usize) -> Json {
    error_response(format!(
        "invalid mutation: document id {id} out of bounds (corpus of {len})"
    ))
}

impl Router {
    /// Builds a router over `options.backends`, resolving every address
    /// and registering the per-shard metric families in `registry`. No
    /// connection is opened yet — backends may come up later.
    pub(crate) fn new(options: RouterOptions, registry: &Registry) -> io::Result<Router> {
        if options.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let shard_labels: Vec<String> =
            (0..options.backends.len()).map(|i| i.to_string()).collect();
        let requests = registry.counters(
            "spanner_router_backend_requests_total",
            "Backend request attempts, by shard",
            "shard",
            &shard_labels,
        );
        let errors = registry.counters(
            "spanner_router_backend_errors_total",
            "Backend calls that exhausted their retries, by shard",
            "shard",
            &shard_labels,
        );
        let retries = registry.counters(
            "spanner_router_backend_retries_total",
            "Backend retry attempts, by shard",
            "shard",
            &shard_labels,
        );
        let connections = registry.counters(
            "spanner_router_backend_connections_total",
            "Backend TCP connections established, by shard",
            "shard",
            &shard_labels,
        );
        let backends = options
            .backends
            .iter()
            .enumerate()
            .zip(requests)
            .zip(errors)
            .zip(retries)
            .zip(connections)
            .map(
                |(((((shard, addr), requests), errors), retries), connections)| {
                    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("backend address `{addr}` did not resolve"),
                        )
                    })?;
                    Ok(Backend {
                        addr: addr.clone(),
                        resolved,
                        conn: Mutex::new(None),
                        metrics: BackendMetrics {
                            requests,
                            errors,
                            retries,
                            connections,
                            latency: registry.histogram(
                                "spanner_router_backend_seconds",
                                "Backend round-trip latency of successful calls, by shard",
                                &[("shard", &shard.to_string())],
                                LATENCY_BUCKETS,
                            ),
                        },
                    })
                },
            )
            .collect::<io::Result<Vec<Backend>>>()?;
        Ok(Router {
            backends,
            corpus: Mutex::new(None),
            degraded: registry.counter(
                "spanner_router_degraded_total",
                "Degraded responses returned because a shard stayed unreachable",
                &[],
            ),
            options,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.backends.len()
    }

    /// The sharded corpus's bookkeeping, locked. A request that panicked
    /// while holding it may have applied a mutation on a shard without
    /// recording it: the map is forgotten, and corpus operations ask for a
    /// `load_corpus` until one rebuilds it.
    fn corpus(&self) -> MutexGuard<'_, Option<RouterCorpus>> {
        lock_or_reset(&self.corpus, |corpus| *corpus = None)
    }

    /// Routes one request to the shards; `None` means the operation is
    /// local to the front end.
    pub(crate) fn route(&self, request: &Request) -> Option<Json> {
        match request {
            Request::LoadCorpus { text } => Some(self.load_corpus(text)),
            Request::QueryCorpus {
                program,
                text: Some(text),
            } => Some(self.query_text(program, text)),
            Request::QueryCorpus {
                program,
                text: None,
            } => Some(self.query_resident(program)),
            Request::AppendDocs { text } => Some(self.append_docs(text)),
            Request::UpdateDoc { line, text } => Some(self.update_doc(*line, text)),
            Request::DeleteDocs { lines } => Some(self.delete_docs(lines)),
            _ => None,
        }
    }

    /// One bounded backend call: pooled connection (re-established on
    /// demand), overall response deadline, bounded retry with backoff on
    /// idempotent operations. `Err` carries the fully-formed degraded
    /// response.
    fn call(&self, shard: usize, line: &str, idempotent: bool) -> Result<Json, Json> {
        let backend = &self.backends[shard];
        // A call that panicked mid-exchange leaves a connection with half a
        // conversation on it: it is dropped, like one that failed.
        let mut conn = lock_or_reset(&backend.conn, |conn| *conn = None);
        let attempts = 1 + if idempotent { self.options.retries } else { 0 };
        let mut last_error = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                backend.metrics.retries.inc();
                // Exponential, capped so a misconfigured retry count
                // cannot overflow the shift.
                std::thread::sleep(self.options.retry_backoff * (1u32 << (attempt - 1).min(16)));
            }
            backend.metrics.requests.inc();
            let started = Instant::now();
            match self.attempt(backend, &mut conn, line) {
                Ok(response) => {
                    backend.metrics.latency.observe_duration(started.elapsed());
                    return Ok(response);
                }
                Err(e) => {
                    // A failed connection is never reused: the next
                    // attempt (or call) reconnects from scratch.
                    *conn = None;
                    last_error = e.to_string();
                }
            }
        }
        backend.metrics.errors.inc();
        self.degraded.inc();
        Err(degraded_response(shard, &backend.addr, &last_error))
    }

    /// One attempt: connect if the pool slot is empty, send, read one
    /// response line under the deadline, decode.
    fn attempt(
        &self,
        backend: &Backend,
        conn: &mut Option<Client>,
        line: &str,
    ) -> io::Result<Json> {
        if conn.is_none() {
            let mut client =
                Client::connect_with_timeout(&backend.resolved, self.options.connect_timeout)?;
            client.set_deadline(Some(self.options.read_timeout))?;
            backend.metrics.connections.inc();
            *conn = Some(client);
        }
        let client = conn.as_mut().expect("slot just filled");
        let response = client.request_line(line)?;
        Json::parse(&response).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed backend response: {e}"),
            )
        })
    }

    /// Sends one pre-rendered request line per shard in parallel;
    /// returns per-shard outcomes in shard order. The fan-out threads
    /// are scoped and every call is deadline-bounded, so the join — and
    /// therefore this function — is too: no worker can leak.
    fn fan_out(&self, lines: &[String], idempotent: bool) -> Vec<Result<Json, Json>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = lines
                .iter()
                .enumerate()
                .map(|(shard, line)| scope.spawn(move || self.call(shard, line, idempotent)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fan-out worker panicked"))
                .collect()
        })
    }

    /// Re-encodes a contiguous slice of corpus lines as a protocol
    /// `text` field. `str::lines` cannot represent a *trailing* empty
    /// line, so a slice ending with an empty document gains one extra
    /// newline (`["a", ""]` encodes to `"a\n\n"`, which decodes back to
    /// exactly those two documents) — without it the shard would load
    /// one document short and the merge would no longer be bit-identical
    /// to the single daemon.
    fn slice_text(lines: &[&str]) -> String {
        let mut text = lines.join("\n");
        if lines.last().is_some_and(|last| last.is_empty()) {
            text.push('\n');
        }
        text
    }

    /// Routed `load_corpus`: partition the text contiguously into
    /// exactly N shards, load each shard's slice in parallel, record the
    /// shard map. Idempotent (a reload fully replaces every shard).
    fn load_corpus(&self, text: &str) -> Json {
        let lines: Vec<&str> = text.lines().collect();
        let ranges = partition_ranges(lines.len(), self.shards());
        let payloads: Vec<String> = ranges
            .iter()
            .map(|range| {
                payload(Request::LoadCorpus {
                    text: Router::slice_text(&lines[range.clone()]),
                })
            })
            .collect();
        let results = self.fan_out(&payloads, true);
        let mut sizes = Vec::with_capacity(results.len());
        let mut generations = Vec::with_capacity(results.len());
        let mut documents = 0usize;
        let mut bytes = 0usize;
        let mut trigrams = 0usize;
        for result in &results {
            let response = match result {
                Ok(response) => response,
                Err(degraded) => {
                    // A partial load is not a corpus: forget any previous
                    // map so resident queries fail loudly, not subtly.
                    *self.corpus() = None;
                    return degraded.clone();
                }
            };
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                *self.corpus() = None;
                return response.clone();
            }
            let count = field(response, "documents");
            sizes.push(count);
            documents += count;
            bytes += field(response, "bytes");
            trigrams += field(response, "trigrams");
            generations.push(field(response, "generation") as u64);
        }
        let map = ShardMap::new(sizes.clone());
        *self.corpus() = Some(RouterCorpus {
            map,
            generations: generations.clone(),
        });
        Json::object([
            ("ok", Json::Bool(true)),
            ("documents", Json::number(documents)),
            ("bytes", Json::number(bytes)),
            // Per-shard sums: distinct trigrams can repeat across shards,
            // so this is an upper bound on the single-store count.
            ("trigrams", Json::number(trigrams)),
            (
                "generation",
                Json::number(generations.iter().sum::<u64>() as usize),
            ),
            (
                "shards",
                Json::Array(sizes.into_iter().map(Json::number).collect()),
            ),
        ])
    }

    /// Routed stateless `query_corpus`: partition the shipped text like
    /// `load_corpus` would, evaluate every slice in parallel, merge.
    fn query_text(&self, program: &str, text: &str) -> Json {
        let lines: Vec<&str> = text.lines().collect();
        let ranges = partition_ranges(lines.len(), self.shards());
        let payloads: Vec<String> = ranges
            .iter()
            .map(|range| {
                payload(Request::QueryCorpus {
                    program: program.to_string(),
                    text: Some(Router::slice_text(&lines[range.clone()])),
                })
            })
            .collect();
        let results = self.fan_out(&payloads, true);
        let bases: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        merge_corpus_responses(results, &bases, false)
    }

    /// Routed resident `query_corpus`: fan the identical request out to
    /// every shard's resident store, merge with the shard map's offsets.
    fn query_resident(&self, program: &str) -> Json {
        let Some(bases) = ({
            let corpus = self.corpus();
            corpus.as_ref().map(|c| {
                (0..c.map.shards())
                    .map(|s| c.map.base(s))
                    .collect::<Vec<usize>>()
            })
        }) else {
            return no_corpus();
        };
        let resident = payload(Request::QueryCorpus {
            program: program.to_string(),
            text: None,
        });
        let results = self.fan_out(&vec![resident; self.shards()], true);
        merge_corpus_responses(results, &bases, true)
    }

    /// Routed `append_docs`: new documents go to the last shard, keeping
    /// every existing id stable. Never retried (the one non-idempotent
    /// operation — a duplicated append would corrupt the corpus).
    fn append_docs(&self, text: &str) -> Json {
        let mut corpus = self.corpus();
        let Some(corpus) = corpus.as_mut() else {
            return no_corpus();
        };
        let shard = self.shards() - 1;
        let append = payload(Request::AppendDocs {
            text: text.to_string(),
        });
        let response = match self.call(shard, &append, false) {
            Ok(response) => response,
            Err(degraded) => return degraded,
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return response;
        }
        let appended = field(&response, "appended");
        corpus.map.append(appended);
        corpus.generations[shard] = field(&response, "generation") as u64;
        Json::object([
            ("ok", Json::Bool(true)),
            ("appended", Json::number(appended)),
            ("documents", Json::number(corpus.map.len())),
            ("generation", Json::number(corpus.generation() as usize)),
        ])
    }

    /// Routed `update_doc`: locate the owning shard via the map's prefix
    /// sums, translate to the shard-local id, forward.
    fn update_doc(&self, line: u32, text: &str) -> Json {
        let mut corpus = self.corpus();
        let Some(corpus) = corpus.as_mut() else {
            return no_corpus();
        };
        let Some((shard, local)) = corpus.map.locate(line as usize) else {
            return out_of_bounds(line as usize, corpus.map.len());
        };
        // A shard-local id is at most the global `u32` id it came from.
        let update = payload(Request::UpdateDoc {
            line: local as u32,
            text: text.to_string(),
        });
        // Idempotent in content (re-applying the same replacement
        // converges), so transport failures retry.
        let response = match self.call(shard, &update, true) {
            Ok(response) => response,
            Err(degraded) => return degraded,
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return response;
        }
        corpus.generations[shard] = field(&response, "generation") as u64;
        Json::object([
            ("ok", Json::Bool(true)),
            ("documents", Json::number(corpus.map.len())),
            ("generation", Json::number(corpus.generation() as usize)),
        ])
    }

    /// Routed `delete_docs`: validate ids in order against the map
    /// (first bad id aborts with the single-daemon error, earlier ones
    /// still apply), group the valid prefix per owning shard preserving
    /// order, fan out, merge. Deletes are idempotent, so retried; `deleted`
    /// is what the shards report — ids that were live — not the ids sent.
    fn delete_docs(&self, lines: &[u32]) -> Json {
        let mut corpus = self.corpus();
        let Some(corpus) = corpus.as_mut() else {
            return no_corpus();
        };
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards()];
        let mut bad: Option<usize> = None;
        let mut deleted = 0usize;
        for &id in lines {
            match corpus.map.locate(id as usize) {
                Some((shard, local)) => per_shard[shard].push(local as u32),
                None => {
                    bad = Some(id as usize);
                    break;
                }
            }
        }
        // Shards with nothing to delete are skipped entirely; ids within
        // one shard keep their request order, and ids on different shards
        // are independent, so grouping preserves the daemon's in-order
        // semantics.
        for (shard, lines) in per_shard.into_iter().enumerate() {
            if lines.is_empty() {
                continue;
            }
            let delete = payload(Request::DeleteDocs { lines });
            let response = match self.call(shard, &delete, true) {
                Ok(response) => response,
                Err(degraded) => return degraded,
            };
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return response;
            }
            corpus.generations[shard] = field(&response, "generation") as u64;
            deleted += field(&response, "deleted");
        }
        if let Some(id) = bad {
            return out_of_bounds(id, corpus.map.len());
        }
        Json::object([
            ("ok", Json::Bool(true)),
            ("deleted", Json::number(deleted)),
            ("documents", Json::number(corpus.map.len())),
            ("generation", Json::number(corpus.generation() as usize)),
        ])
    }

    /// The router section of the `stats` response: topology, shard map,
    /// and per-backend transport counters. Deliberately local — a stats
    /// probe must answer even with every backend down.
    pub(crate) fn stats(&self) -> Json {
        let corpus = self.corpus();
        let (shards, documents, generation) = match corpus.as_ref() {
            None => (Json::Null, Json::Null, Json::Null),
            Some(c) => (
                Json::Array(
                    (0..c.map.shards())
                        .map(|s| Json::number(c.map.size(s)))
                        .collect(),
                ),
                Json::number(c.map.len()),
                Json::number(c.generation() as usize),
            ),
        };
        Json::object([
            (
                "backends",
                Json::Array(
                    self.backends
                        .iter()
                        .map(|b| {
                            Json::object([
                                ("addr", Json::string(b.addr.clone())),
                                ("requests", Json::number(b.metrics.requests.get() as usize)),
                                ("errors", Json::number(b.metrics.errors.get() as usize)),
                                ("retries", Json::number(b.metrics.retries.get() as usize)),
                                (
                                    "connections",
                                    Json::number(b.metrics.connections.get() as usize),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("shards", shards),
            ("documents", documents),
            ("generation", generation),
            ("degraded_total", Json::number(self.degraded.get() as usize)),
        ])
    }
}

/// Renders one backend request line — through the protocol's one encoder.
fn payload(request: Request) -> String {
    request.to_json().to_string()
}

/// Reads a numeric response field, defaulting to zero — backend
/// responses are produced by our own daemon, so a missing field is a
/// version skew bug, not a condition to diagnose per call site.
fn field(response: &Json, name: &str) -> usize {
    response.get(name).and_then(Json::as_usize).unwrap_or(0)
}

/// Merges per-shard `query_corpus` responses back into the single-daemon
/// response, bit-identically:
///
/// * any degraded shard fails the whole query (degraded, never partial);
/// * any shard-level error response (e.g. a compile error — identical on
///   every shard, since they run the same program) is returned as-is;
/// * aggregate counters sum; `cached` ANDs (the merged query was cached
///   iff every shard had it cached);
/// * `results` concatenate in shard order with each entry's `line`
///   rebased by the shard's global offset — contiguous shards make this
///   exactly the single daemon's corpus-order array;
/// * resident extras (`with_store` set): `candidates` sums (`null` on
///   the full-scan fallback, which the shards decide identically because
///   it depends only on the program), `selectivity` is recomputed from
///   the summed numerator and denominator (same integers ⇒ same float ⇒
///   same rendering as a single daemon), delta/view counters sum.
fn merge_corpus_responses(
    results: Vec<Result<Json, Json>>,
    bases: &[usize],
    with_store: bool,
) -> Json {
    let mut responses = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(response) => {
                if response.get("ok").and_then(Json::as_bool) != Some(true) {
                    return response;
                }
                responses.push(response);
            }
            Err(degraded) => return degraded,
        }
    }
    let mut cached = true;
    let mut documents = 0usize;
    let mut matched = 0usize;
    let mut mappings = 0usize;
    let mut skipped = 0usize;
    let mut rejected = 0usize;
    let mut candidates: Option<usize> = Some(0);
    let mut delta_docs = 0usize;
    let mut view_hits = 0usize;
    let mut invalidated = 0usize;
    let mut generation = 0usize;
    let mut merged_results: Vec<Json> = Vec::new();
    for (shard, response) in responses.iter().enumerate() {
        cached &= response.get("cached").and_then(Json::as_bool) == Some(true);
        documents += field(response, "documents");
        matched += field(response, "matched");
        mappings += field(response, "mappings");
        skipped += field(response, "skipped");
        rejected += field(response, "rejected");
        if with_store {
            candidates = match (candidates, response.get("candidates")) {
                (Some(total), Some(Json::Number(n))) => Some(total + *n as usize),
                _ => None,
            };
            delta_docs += field(response, "delta_docs");
            view_hits += field(response, "view_hits");
            invalidated += field(response, "invalidated");
            generation += field(response, "generation");
        }
        let base = bases[shard];
        if let Some(entries) = response.get("results").and_then(Json::as_array) {
            for entry in entries {
                let Json::Object(pairs) = entry else { continue };
                merged_results.push(Json::Object(
                    pairs
                        .iter()
                        .map(|(key, value)| {
                            if key == "line" {
                                let local = value.as_usize().unwrap_or(0);
                                (key.clone(), Json::number(base + local))
                            } else {
                                (key.clone(), value.clone())
                            }
                        })
                        .collect(),
                ));
            }
        }
    }
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("cached", Json::Bool(cached)),
        ("documents", Json::number(documents)),
        ("matched", Json::number(matched)),
        ("mappings", Json::number(mappings)),
        ("skipped", Json::number(skipped)),
        ("rejected", Json::number(rejected)),
    ];
    if with_store {
        let selectivity = match (candidates, documents) {
            (Some(c), n) if n > 0 => c as f64 / n as f64,
            _ => 1.0,
        };
        fields.push((
            "candidates",
            match candidates {
                Some(c) => Json::number(c),
                None => Json::Null,
            },
        ));
        fields.push(("selectivity", Json::Number(selectivity)));
        fields.push(("delta_docs", Json::number(delta_docs)));
        fields.push(("view_hits", Json::number(view_hits)));
        fields.push(("invalidated", Json::number(invalidated)));
        fields.push(("generation", Json::number(generation)));
    }
    fields.push(("results", Json::Array(merged_results)));
    Json::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_responses_are_typed() {
        let d = degraded_response(2, "127.0.0.1:9", "connect timed out");
        assert_eq!(d.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(d.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("shard").and_then(Json::as_usize), Some(2));
        assert_eq!(d.get("backend").and_then(Json::as_str), Some("127.0.0.1:9"));
        let message = d.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("shard 2"));
        assert!(message.contains("127.0.0.1:9"));
        assert!(message.contains("connect timed out"));
    }

    #[test]
    fn merge_is_concatenation_with_rebased_lines() {
        let shard = |lines: &[(usize, usize)], cached: bool| {
            Json::object([
                ("ok", Json::Bool(true)),
                ("cached", Json::Bool(cached)),
                ("documents", Json::number(3)),
                ("matched", Json::number(lines.len())),
                (
                    "mappings",
                    Json::number(lines.iter().map(|&(_, c)| c).sum()),
                ),
                ("skipped", Json::number(0)),
                ("rejected", Json::number(0)),
                (
                    "results",
                    Json::Array(
                        lines
                            .iter()
                            .map(|&(line, count)| {
                                Json::object([
                                    ("line", Json::number(line)),
                                    ("count", Json::number(count)),
                                    ("mappings", Json::Array(Vec::new())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let merged = merge_corpus_responses(
            vec![
                Ok(shard(&[(0, 1), (2, 2)], true)),
                Ok(shard(&[(1, 4)], false)),
            ],
            &[0, 3],
            false,
        );
        assert_eq!(merged.get("ok").and_then(Json::as_bool), Some(true));
        // cached only when every shard was cached.
        assert_eq!(merged.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(merged.get("documents").and_then(Json::as_usize), Some(6));
        assert_eq!(merged.get("matched").and_then(Json::as_usize), Some(3));
        assert_eq!(merged.get("mappings").and_then(Json::as_usize), Some(7));
        let results = merged.get("results").and_then(Json::as_array).unwrap();
        let lines: Vec<usize> = results
            .iter()
            .map(|r| r.get("line").and_then(Json::as_usize).unwrap())
            .collect();
        // Shard 1's local line 1 rebased to global 4; corpus order kept.
        assert_eq!(lines, vec![0, 2, 4]);
    }

    #[test]
    fn merge_propagates_shard_errors_and_degradation() {
        let error = error_response("syntax error");
        let merged = merge_corpus_responses(vec![Ok(error.clone())], &[0], false);
        assert_eq!(merged.to_string(), error.to_string());
        let degraded = degraded_response(1, "x", "boom");
        let merged = merge_corpus_responses(vec![Ok(error), Err(degraded.clone())], &[0, 1], false);
        // A shard-level error wins only if no transport degradation is
        // seen first in shard order... degradation short-circuits in
        // encounter order; here shard 0's error response returns first.
        assert_eq!(
            merged.get("error").and_then(Json::as_str),
            Some("syntax error")
        );
        let merged = merge_corpus_responses(vec![Err(degraded.clone())], &[0], false);
        assert_eq!(merged.get("degraded").and_then(Json::as_bool), Some(true));
    }
}
