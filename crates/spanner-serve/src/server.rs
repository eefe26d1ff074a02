//! The long-running query daemon.
//!
//! [`Server`] binds a TCP listener and serves the protocol of
//! [`crate::protocol`] from a fixed pool of connection workers — the only
//! long-lived threads the daemon has besides the accept loop. All workers
//! share one [`Handler`]: one [`QueryCache`] (so a hot program is compiled
//! once, ever, per process), the resident store and the metrics. The CLI
//! answers through a `Handler` of its own, in process, so a command and a
//! request are one code path. A corpus request is evaluated on the thread
//! that asked: a corpus of a few hundred lines stays on that thread, a
//! larger one is split across up to [`ServeOptions::corpus_threads`]
//! threads scoped to the request, which are gone when it is answered.
//!
//! Every connection, whatever it speaks, runs the one loop
//! `serve_connection`: read a request, decode it, hand it to the
//! handler's dispatch (account, guard, answer), write the answer, decide
//! whether the connection goes on.
//! What differs between the line-JSON and HTTP transports is a `Codec` —
//! how bytes become a [`Request`] (or a reject) and how a response becomes
//! bytes — chosen once per connection from [`ServeOptions::http`]. Both
//! read through the framed reader of `conn.rs`, which owns the byte caps,
//! the idle deadline and the shutdown poll.
//!
//! Robustness choices, all observable through the protocol tests:
//!
//! * request lines are read through a hard byte cap
//!   ([`ServeOptions::max_line_bytes`]) — an oversized line is drained and
//!   answered with an error without ever being buffered whole;
//! * per-request evaluation limits come from the configured
//!   [`RaOptions`] (`max_states`, `max_signatures`), so a hostile query
//!   fails fast with an error response instead of exhausting the process;
//! * a failing `accept` (the process is out of file descriptors) is
//!   counted and retried, never fatal: the resident store and the
//!   connections already open outlive a flood;
//! * a request whose handling panics is answered with an
//!   `"internal error: …"` response and counted
//!   (`spanner_panics_total`); its connection and its worker live on, and
//!   a lock the panic poisoned is recovered — or, for a store a mutation
//!   left half-applied, answered with a typed error until the next
//!   `load_corpus` — instead of failing every later request;
//! * `shutdown` stops the accept loop, then *drains*: every connection
//!   worker finishes its in-flight request (and any input already
//!   buffered on its connection) before the server exits.

use crate::cache::{cache_key, Lru, QueryCache};
use crate::conn::{line_frame, recycle, Conn, Frame, Limits, POLL_INTERVAL};
use crate::http::HttpCodec;
use crate::json::{self, Json};
use crate::lock_or_reset;
use crate::protocol::{error_response, trace_to_json, write_mappings, Request};
use spanner_algebra::RaOptions;
use spanner_core::Document;
use spanner_corpus::{resolve_pool_threads, split_lines, CorpusMatches, QueryView};
use spanner_obs::{Counter, Exposition, Histogram, Registry, LATENCY_BUCKETS, RATIO_BUCKETS};
use spanner_store::{Mutation, Store};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`] and its [`Handler`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Connection worker threads (`0` = one per available CPU).
    pub threads: usize,
    /// Prepared-query cache capacity (`0` disables caching — every request
    /// compiles; the cold baseline of the serve benchmark — and with it
    /// every maintained view, see [`ServeOptions::max_views`]).
    pub cache_capacity: usize,
    /// Hard cap on one request line, in bytes; longer lines are rejected
    /// without being buffered.
    pub max_line_bytes: usize,
    /// Per-request evaluation limits (automaton states, materialized
    /// intermediate relations) — the fail-fast guard against hostile
    /// queries.
    pub ra_options: RaOptions,
    /// The most threads one `query_corpus` request is split across (`0` =
    /// one per CPU, resolved once when the server binds). They are scoped
    /// to the request, so concurrent corpus requests run at most
    /// `threads × corpus_threads` transient workers between them.
    pub corpus_threads: usize,
    /// A connection that goes this long without completing a request line
    /// is closed — silent or slow-drip clients cannot permanently occupy
    /// one of the fixed connection workers. The clock restarts after each
    /// complete line, so an active client can idle between requests up to
    /// this long.
    pub idle_timeout: Duration,
    /// Retention budget of each maintained query view over the resident
    /// store, in retained mappings (see [`QueryView::new`]). `0` disables
    /// retention — every store query is a cold evaluation.
    pub view_budget: usize,
    /// Maximum number of maintained query views per resident store (one
    /// per program seen before: a store query builds a view only for a
    /// program the prepared-query cache already held, so with
    /// `cache_capacity: 0` no view is ever built); least-recently-used
    /// views are dropped past it. `0` disables views entirely.
    pub max_views: usize,
    /// Serve HTTP/1.1 instead of the line-JSON protocol: the same
    /// operations behind `POST /v1/*` endpoints, plus `GET /healthz` and
    /// `GET /metrics` (see [`crate::http`]).
    pub http: bool,
    /// Hard cap on one HTTP request head (request line + headers), in
    /// bytes; larger heads are answered with `431` and the connection is
    /// closed. Ignored by the line-JSON transport.
    pub max_head_bytes: usize,
    /// Hard cap on one HTTP request body, in bytes; a larger declared
    /// `Content-Length` is answered with `413` without reading the body.
    /// Ignored by the line-JSON transport (which caps whole lines via
    /// [`ServeOptions::max_line_bytes`]).
    pub max_body_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 0,
            cache_capacity: 64,
            max_line_bytes: 1 << 20,
            ra_options: RaOptions::default(),
            corpus_threads: 0,
            idle_timeout: Duration::from_secs(60),
            view_budget: 1 << 20,
            max_views: 16,
            http: false,
            max_head_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
        }
    }
}

/// The op label of input that never decodes to a request (parse errors,
/// oversized requests, unknown endpoints): the one label the per-operation
/// metric families carry besides [`Request::OPS`].
const INVALID: &str = "invalid";

/// Buckets for delta-size histograms (documents touched per incremental
/// store query) — counts, not seconds.
const DELTA_BUCKETS: &[f64] = &[
    0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0, 1000.0, 10000.0, 100000.0,
];

/// The per-op handles of one protocol operation.
struct OpMetrics {
    label: &'static str,
    requests: Counter,
    errors: Counter,
    latency: Histogram,
}

/// The daemon's metrics: one [`Registry`] plus pre-registered handles for
/// everything recorded on the hot path, so serving a request never takes
/// the registry mutex — recording is `fetch_add` only. Scrape-time values
/// (cache stats, store size, uptime) are appended to the rendered
/// exposition by [`Shared::render_metrics`] instead of being mirrored
/// into yet another set of counters.
pub(crate) struct ServerMetrics {
    registry: Registry,
    /// Per-op request/error/latency: one entry per [`Request::OPS`] label,
    /// in that order, then [`INVALID`].
    ops: Vec<OpMetrics>,
    connections: Counter,
    /// `accept` calls that failed (typically: out of file descriptors).
    accept_errors: Counter,
    /// Requests whose handling panicked (answered as internal errors).
    panics: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    /// HTTP responses by status class (`2xx`…`5xx`), indexed by
    /// `status / 100 - 2`; stays zero on the line-JSON transport.
    pub(crate) http_classes: Vec<Counter>,
    /// Time a request spent getting its program compiled, observed on every
    /// prepared-query cache miss (the lookup and the compile; a failed
    /// compile counts): the cache/prepare phase of an ad-hoc query.
    prepare_seconds: Histogram,
    /// Corpus documents by fast-path outcome, accumulated over every
    /// `query_corpus` request: skipped (static prefilters, a missing
    /// required literal), evaluated (reached the executor).
    docs_skipped: Counter,
    docs_evaluated: Counter,
    /// Trigram-index selectivity (candidates / documents) per resident
    /// store query; full-scan fallbacks observe 1.0.
    store_selectivity: Histogram,
    /// Resident-store build time per `load_corpus` — the expensive part of
    /// corpus ingestion, kept visible because it runs on a connection
    /// worker (the store swap itself is an atomic pointer store).
    store_build_seconds: Histogram,
    /// Store mutations applied, by op (append/update/delete).
    store_appends: Counter,
    store_updates: Counter,
    store_deletes: Counter,
    /// Maintained-view outcomes per resident-store query a view answered
    /// (a query without one records none of these five): documents served
    /// from a retained entry, documents re-evaluated (the delta), and
    /// retained entries dropped because their document changed.
    view_hits: Counter,
    view_misses: Counter,
    view_invalidations: Counter,
    /// Delta size (documents touched) per view-answered query.
    view_delta_docs: Histogram,
    /// Share of documents served from the view per view-answered query.
    view_hit_ratio: Histogram,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        let ops = Request::OPS
            .into_iter()
            .chain([INVALID])
            .map(|op| OpMetrics {
                label: op,
                requests: registry.counter(
                    "spanner_requests_total",
                    "Protocol requests handled, by operation",
                    &[("op", op)],
                ),
                errors: registry.counter(
                    "spanner_request_errors_total",
                    "Requests answered with an error response, by operation",
                    &[("op", op)],
                ),
                latency: registry.histogram(
                    "spanner_request_seconds",
                    "Request handling latency in seconds, by operation",
                    &[("op", op)],
                    LATENCY_BUCKETS,
                ),
            })
            .collect();
        let docs = |outcome| {
            registry.counter(
                "spanner_corpus_docs_total",
                "Corpus documents processed, by scan fast-path outcome",
                &[("outcome", outcome)],
            )
        };
        ServerMetrics {
            ops,
            connections: registry.counter(
                "spanner_connections_total",
                "TCP connections accepted",
                &[],
            ),
            accept_errors: registry.counter(
                "spanner_accept_errors_total",
                "Failed accept calls (retried after a pause, never fatal)",
                &[],
            ),
            panics: registry.counter(
                "spanner_panics_total",
                "Requests whose handling panicked (answered with an internal error)",
                &[],
            ),
            bytes_read: registry.counter(
                "spanner_bytes_read_total",
                "Request bytes read from clients",
                &[],
            ),
            bytes_written: registry.counter(
                "spanner_bytes_written_total",
                "Response bytes written to clients",
                &[],
            ),
            http_classes: registry.counters(
                "spanner_http_requests_total",
                "HTTP responses written, by status class",
                "class",
                &["2xx", "3xx", "4xx", "5xx"],
            ),
            prepare_seconds: registry.histogram(
                "spanner_prepare_seconds",
                "Program compile time per prepared-query cache miss",
                &[],
                LATENCY_BUCKETS,
            ),
            docs_skipped: docs("skipped"),
            docs_evaluated: docs("evaluated"),
            store_selectivity: registry.histogram(
                "spanner_store_selectivity",
                "Trigram-index selectivity (candidates / documents) per resident-store query",
                &[],
                RATIO_BUCKETS,
            ),
            store_build_seconds: registry.histogram(
                "spanner_store_build_seconds",
                "Resident store build time per load_corpus request",
                &[],
                LATENCY_BUCKETS,
            ),
            store_appends: registry.counter(
                "spanner_store_mutations_total",
                "Resident-store mutations applied, by op",
                &[("op", "append")],
            ),
            store_updates: registry.counter(
                "spanner_store_mutations_total",
                "Resident-store mutations applied, by op",
                &[("op", "update")],
            ),
            store_deletes: registry.counter(
                "spanner_store_mutations_total",
                "Resident-store mutations applied, by op",
                &[("op", "delete")],
            ),
            view_hits: registry.counter(
                "spanner_view_docs_total",
                "Documents per resident-store query, by view outcome",
                &[("outcome", "hit")],
            ),
            view_misses: registry.counter(
                "spanner_view_docs_total",
                "Documents per resident-store query, by view outcome",
                &[("outcome", "miss")],
            ),
            view_invalidations: registry.counter(
                "spanner_view_invalidations_total",
                "Retained view entries dropped because their document changed",
                &[],
            ),
            view_delta_docs: registry.histogram(
                "spanner_view_delta_docs",
                "Documents re-evaluated (the delta) per resident-store query",
                &[],
                DELTA_BUCKETS,
            ),
            view_hit_ratio: registry.histogram(
                "spanner_view_hit_ratio",
                "Share of documents served from the maintained view per resident-store query",
                &[],
                RATIO_BUCKETS,
            ),
            registry,
        }
    }

    /// The handles for one op label ([`INVALID`] for anything that is not
    /// a protocol op).
    fn op(&self, op: &str) -> &OpMetrics {
        let known = Request::OPS.iter().position(|&o| o == op);
        &self.ops[known.unwrap_or(Request::OPS.len())]
    }

    /// Total requests across every op — derived from the per-op counters,
    /// never tracked separately (one source of truth).
    fn total_requests(&self) -> u64 {
        self.ops.iter().map(|m| m.requests.get()).sum()
    }

    /// Total error responses across every op.
    fn total_errors(&self) -> u64 {
        self.ops.iter().map(|m| m.errors.get()).sum()
    }
}

/// The resident mutable corpus plus its maintained query views.
///
/// Queries take the store's read lock (and run concurrently); mutations
/// take the write lock. `load_corpus` builds a whole new `ResidentStore`
/// *off*-lock and swaps the `Arc` in one pointer store, so queries
/// against the previous corpus stay live for the entire build.
struct ResidentStore {
    store: RwLock<Store>,
    views: ViewSet,
}

impl ResidentStore {
    /// The store for a query — or `None` once a mutation has panicked
    /// part-way through it (a panicking *query* poisons nothing): documents
    /// and index may disagree, so nothing is served from it and every query
    /// and mutation is answered [`STORE_POISONED`] until `load_corpus`
    /// replaces the store.
    fn read(&self) -> Option<RwLockReadGuard<'_, Store>> {
        self.store.read().ok()
    }

    /// The store for a mutation; see [`ResidentStore::read`].
    fn write(&self) -> Option<RwLockWriteGuard<'_, Store>> {
        self.store.write().ok()
    }

    /// The store for `stats` and `metrics`, which only read its size
    /// counters and must answer whatever state it is in.
    fn counters(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The error of a store whose lock a mutation died holding.
const STORE_POISONED: &str = "the resident corpus was left half-updated by a failed mutation \
                              (send `load_corpus` again)";

/// The maintained query views of one resident store: an [`Lru`] keyed
/// exactly like the prepared-query cache (trimmed program text + compile
/// options), so a view can never serve a plan it was not built by.
struct ViewSet {
    /// Capacity `0` disables views.
    views: Lru<Arc<ViewHandle>>,
    /// Retention budget handed to each new view.
    budget: usize,
}

/// One maintained view, plus what it holds as of its last query mirrored
/// into atomics — so a scrape reads them without waiting behind the query
/// that holds the view.
struct ViewHandle {
    view: Mutex<QueryView>,
    /// Retained mappings: what `view_budget` bounds.
    retained_cost: AtomicUsize,
    /// Bytes allocated for the hash snapshot (8 per document, up to twice
    /// that after appends): bounded by no budget.
    snapshot_bytes: AtomicUsize,
}

impl ViewHandle {
    /// Locks the view for one query. A query that panicked while holding
    /// it may have left it between releasing stale entries and admitting
    /// their replacements: such a view is emptied and starts cold.
    fn lock(&self) -> MutexGuard<'_, QueryView> {
        lock_or_reset(&self.view, QueryView::clear)
    }
}

impl ViewSet {
    fn new(capacity: usize, budget: usize) -> ViewSet {
        ViewSet {
            views: Lru::new(capacity),
            budget,
        }
    }

    /// The view for `key`: an existing one in every case, its recency
    /// bumped; a new one (evicting the least recently used one past
    /// capacity) only when the daemon has `seen` the program before — a
    /// view beats the index from its second query, so a one-off program
    /// neither pays the hash snapshot nor pushes out a hot program's view.
    /// `None` when views are disabled or the program has no view yet. The
    /// returned handle is locked *outside* the set mutex.
    fn get(&self, key: &str, seen: bool) -> Option<Arc<ViewHandle>> {
        if !seen || self.views.capacity() == 0 {
            return self.views.get(key);
        }
        let (handle, _) = self.views.get_or_insert_with(key, || {
            Arc::new(ViewHandle {
                view: Mutex::new(QueryView::new(self.budget)),
                retained_cost: AtomicUsize::new(0),
                snapshot_bytes: AtomicUsize::new(0),
            })
        });
        Some(handle)
    }

    /// Number of resident views.
    fn entries(&self) -> usize {
        self.views.len()
    }

    /// Total retained mappings and total hash-snapshot bytes across every
    /// resident view, as of each view's last completed query. No view is
    /// locked: the set mutex is what every `query_corpus` passes through,
    /// and must never be held while waiting for one slow query.
    fn held(&self) -> (usize, usize) {
        self.views
            .values()
            .iter()
            .fold((0, 0), |(cost, bytes), handle| {
                (
                    cost + handle.retained_cost.load(Ordering::Relaxed),
                    bytes + handle.snapshot_bytes.load(Ordering::Relaxed),
                )
            })
    }
}

/// The daemon's request handler: the prepared-query cache, the resident
/// store and the metrics. A [`Server`] shares one between its connection
/// workers; the CLI answers through one in process, each request counted,
/// timed and panic-guarded by the same dispatch.
pub struct Handler {
    cache: QueryCache,
    /// As given to [`Handler::new`], except that `corpus_threads` is
    /// resolved.
    pub(crate) options: ServeOptions,
    pub(crate) metrics: ServerMetrics,
    pub(crate) started: Instant,
    /// The resident corpus: loaded by `load_corpus` (or
    /// [`Handler::install`]), mutated in place by
    /// `append_docs`/`update_doc`/`delete_docs`, and queried by
    /// `query_corpus` requests that omit `text` — documents stay on the
    /// server, selective queries prune through the trigram index, and
    /// repeat queries are served incrementally from maintained views.
    store: Mutex<Option<Arc<ResidentStore>>>,
}

impl Handler {
    /// A handler with an empty cache and no resident store.
    /// `corpus_threads` is resolved here, once: resolving `0` reads cgroup
    /// files, which costs more than a small corpus request does.
    pub fn new(options: ServeOptions) -> Handler {
        let options = ServeOptions {
            corpus_threads: resolve_pool_threads(options.corpus_threads),
            ..options
        };
        Handler {
            cache: QueryCache::new(options.cache_capacity),
            options,
            metrics: ServerMetrics::new(),
            started: Instant::now(),
            store: Mutex::new(None),
        }
    }

    /// Answers `request`, appending the response object to `out` exactly
    /// as the line-JSON transport writes it (without the newline), and
    /// returns whether it says `"ok":true`. `shutdown` is answered but
    /// stops nothing: a handler has no accept loop to stop.
    pub fn answer(&self, request: Request, out: &mut Vec<u8>) -> bool {
        let outcome = self.dispatch(Ok(request), Instant::now(), out);
        if let Outcome::Metrics(text) = &outcome {
            metrics_object(out, text);
        }
        outcome.is_ok()
    }

    /// Makes `store` the resident corpus, with no views yet. Queries
    /// against the previous one finish on it: the swap is one pointer
    /// store.
    pub fn install(&self, store: Store) {
        let resident = Arc::new(ResidentStore {
            store: RwLock::new(store),
            views: ViewSet::new(self.options.max_views, self.options.view_budget),
        });
        *lock_or_reset(&self.store, |_| ()) = Some(resident);
    }

    /// Answers one decoded request — or input that did not decode, as
    /// [`INVALID`] — into `body`: the one dispatch behind both transports
    /// and [`Handler::answer`]. The request is counted before it is
    /// handled, so a `stats` or `metrics` answer includes the request that
    /// asked; its latency from `framed_at`, and its error from the
    /// [`Outcome`] the answer is written from, so the tally never drifts
    /// from what the client saw.
    fn dispatch(
        &self,
        decoded: Result<Request, Json>,
        framed_at: Instant,
        body: &mut Vec<u8>,
    ) -> Outcome {
        let op = self
            .metrics
            .op(decoded.as_ref().map_or(INVALID, Request::op_name));
        op.requests.inc();
        let outcome = match decoded {
            Ok(request) => guarded(&self.metrics, body, |body| {
                handle_request(self, request, body)
            }),
            Err(reject) => {
                reject.write_to(body);
                Outcome::Failed
            }
        };
        if !outcome.is_ok() {
            op.errors.inc();
        }
        op.latency.observe_duration(framed_at.elapsed());
        outcome
    }

    /// The current resident store, if any (cheap pointer clone; the
    /// pointer mutex is never held across a query or a build).
    fn resident(&self) -> Option<Arc<ResidentStore>> {
        lock_or_reset(&self.store, |_| ()).clone()
    }

    /// Renders the whole registry plus the scrape-time families (cache,
    /// resident store, uptime) as one Prometheus text exposition.
    fn render_metrics(&self) -> String {
        let mut out = Exposition::new();
        self.metrics.registry.export_into(&mut out);
        let cache = self.cache.stats();
        out.family(
            "spanner_cache_entries",
            "gauge",
            "Prepared queries resident in the cache",
        );
        out.sample("spanner_cache_entries", &[], cache.entries as f64);
        out.family(
            "spanner_cache_capacity",
            "gauge",
            "Configured prepared-query cache capacity",
        );
        out.sample("spanner_cache_capacity", &[], cache.capacity as f64);
        for (name, help, value) in [
            (
                "spanner_cache_hits_total",
                "Cache lookups served from a resident entry",
                cache.hits,
            ),
            (
                "spanner_cache_misses_total",
                "Cache lookups that compiled the program",
                cache.misses,
            ),
            (
                "spanner_cache_evictions_total",
                "Entries evicted to make room",
                cache.evictions,
            ),
        ] {
            out.family(name, "counter", help);
            out.sample(name, &[], value as f64);
        }
        if let Some(resident) = self.resident() {
            let store = resident.counters();
            let (retained_cost, snapshot_bytes) = resident.views.held();
            for (name, help, value) in [
                (
                    "spanner_store_documents",
                    "Documents in the resident store",
                    store.len(),
                ),
                (
                    "spanner_store_bytes",
                    "Bytes in the resident store",
                    store.bytes(),
                ),
                (
                    "spanner_store_trigrams",
                    "Distinct trigrams in the resident store's index",
                    store.trigram_count(),
                ),
                (
                    "spanner_store_delta_postings",
                    "Posting entries in the resident store's delta segment",
                    store.delta_postings(),
                ),
                (
                    "spanner_store_deleted_documents",
                    "Resident documents tombstoned since load",
                    store.deleted_count(),
                ),
                (
                    "spanner_views",
                    "Maintained query views over the resident store",
                    resident.views.entries(),
                ),
                (
                    "spanner_view_retained_cost",
                    "Total retention cost across the maintained query views",
                    retained_cost,
                ),
                (
                    "spanner_view_snapshot_bytes",
                    "Bytes allocated for the per-document hash snapshots of the maintained query views",
                    snapshot_bytes,
                ),
            ] {
                out.family(name, "gauge", help);
                out.sample(name, &[], value as f64);
            }
            for (name, help, value) in [
                (
                    "spanner_store_generation",
                    "Mutations applied to the resident store since load",
                    store.generation(),
                ),
                (
                    "spanner_store_compactions_total",
                    "Trigram-index compactions of the resident store",
                    store.compactions(),
                ),
            ] {
                out.family(name, "counter", help);
                out.sample(name, &[], value as f64);
            }
        }
        out.family(
            "spanner_uptime_seconds",
            "gauge",
            "Seconds since the daemon started",
        );
        out.sample(
            "spanner_uptime_seconds",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        out.finish()
    }
}

/// A [`Server`]'s state: its [`Handler`], shared by the connection
/// workers, and what only a listening daemon has.
pub(crate) struct Shared {
    pub(crate) handler: Handler,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    /// The limits of one frame read on a served connection: at most `cap`
    /// bytes, [`ServeOptions::idle_timeout`] from now to complete it, and
    /// the shutdown flag to end idle waits.
    pub(crate) fn limits(&self, cap: usize) -> Limits<'_> {
        Limits {
            cap,
            deadline: Instant::now().checked_add(self.handler.options.idle_timeout),
            stop: Some(&self.shutdown),
        }
    }
}

/// A bound, not-yet-running query daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the daemon to `addr` (e.g. `"127.0.0.1:7171"`; port `0` picks
    /// a free port, which [`Server::local_addr`] reports). The transport
    /// is chosen by [`ServeOptions::http`].
    pub fn bind(addr: &str, options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                handler: Handler::new(options),
                addr,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful after binding port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop until a `shutdown` request arrives, then
    /// drains: in-flight requests complete, queued connections are served,
    /// and every worker is joined before this returns.
    pub fn run(&self) -> io::Result<()> {
        // A huge `serve [addr [threads]]` argument degrades to the corpus
        // engine's ceiling instead of aborting when the OS refuses to spawn.
        let threads = resolve_pool_threads(self.shared.handler.options.threads);
        let (sender, receiver) = channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let receiver: Arc<Mutex<Receiver<TcpStream>>> = Arc::clone(&receiver);
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || loop {
                    let stream = match receiver.lock().expect("queue poisoned").recv() {
                        Ok(stream) => stream,
                        Err(_) => return, // accept loop closed the queue
                    };
                    shared.handler.metrics.connections.inc();
                    // Connection-level I/O errors (peer reset, timeout on a
                    // dead socket) end that connection only.
                    let _ = if shared.handler.options.http {
                        serve_connection(stream, &shared, HttpCodec::default())
                    } else {
                        serve_connection(stream, &shared, LineCodec)
                    };
                })
            })
            .collect();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // The last accepted stream is the shutdown wake-up (or a
                // late client); it is dropped unserved.
                break;
            }
            match stream {
                Ok(stream) => {
                    let _ = sender.send(stream);
                }
                // Out of file descriptors, or a peer that gave up while
                // queued: nothing about the listener is broken, and exiting
                // would take the resident store and every open connection
                // with it. Pause so a full descriptor table is not spun on.
                Err(_) => {
                    self.shared.handler.metrics.accept_errors.inc();
                    std::thread::sleep(POLL_INTERVAL);
                }
            }
        }
        drop(sender);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning its join handle —
    /// the shape the tests and the CLI smoke test use.
    pub fn spawn(self) -> (SocketAddr, std::thread::JoinHandle<io::Result<()>>) {
        let addr = self.local_addr();
        (addr, std::thread::spawn(move || self.run()))
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({})", self.shared.addr)
    }
}

/// What a [`Codec`] made of the bytes it read.
pub(crate) enum Incoming {
    /// Protocol input: a decoded request — accounted under its op,
    /// dispatched, answered — or the error response to input the codec
    /// refuses (undecodable, oversized, no such endpoint), accounted as
    /// [`INVALID`].
    Decoded(Result<Request, Json>),
    /// A question outside the protocol that the codec answers itself (the
    /// HTTP liveness probe): answered, not accounted.
    Probe(Json),
}

/// How a request was answered: what the error tally and the HTTP status
/// are read off, never the written body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// `"ok":true`.
    Ok,
    /// `"ok":false`: refused, or failed to evaluate.
    Failed,
    /// The handler panicked: `"ok":false` with `"internal":true`.
    Internal,
    /// The `metrics` op's exposition text, with no body written: HTTP
    /// serves it as it is, the line codec wraps it as
    /// `{"ok":true,"metrics":…}`.
    Metrics(String),
}

impl Outcome {
    /// Whether the answer says `"ok":true`.
    pub(crate) fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Metrics(_))
    }
}

/// One transport's wire format: how bytes become requests and responses
/// become bytes. Everything else about a connection is `serve_connection`.
pub(crate) trait Codec {
    /// Reads one request off the connection and decodes it; `None` when
    /// the connection is over (EOF, idle deadline, shutdown while idle).
    fn read_request(&mut self, conn: &mut Conn, shared: &Shared) -> io::Result<Option<Incoming>>;

    /// Writes the answer to the request last read — `body`, the JSON the
    /// handler wrote, and its `outcome` — and reports whether the
    /// connection stays open: never when `last` (the loop is about to shut
    /// down), otherwise as the transport's framing allows.
    fn write_response(
        &mut self,
        conn: &mut Conn,
        shared: &Shared,
        body: &[u8],
        outcome: &Outcome,
        last: bool,
    ) -> io::Result<bool>;
}

/// Serves one connection until EOF, idle timeout or shutdown: the one
/// read → decode → account → dispatch → write loop behind both transports.
fn serve_connection<C: Codec>(stream: TcpStream, shared: &Shared, mut codec: C) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut conn = Conn::new(stream)?;
    // The answer under construction, reused like the connection's buffers.
    let mut body = Vec::new();
    let metrics = &shared.handler.metrics;
    while let Some(incoming) = codec.read_request(&mut conn, shared)? {
        metrics.bytes_read.add(std::mem::take(&mut conn.bytes_read));
        let shutdown = matches!(incoming, Incoming::Decoded(Ok(Request::Shutdown)));
        let outcome = match incoming {
            Incoming::Probe(response) => reply(&mut body, response),
            // The latency clock starts when the request's last byte was
            // read: decoding, dispatch and writing the body are handling
            // time, the client's idle time before it is not.
            Incoming::Decoded(decoded) => {
                shared.handler.dispatch(decoded, conn.framed_at, &mut body)
            }
        };
        let keep_open = codec.write_response(&mut conn, shared, &body, &outcome, shutdown)?;
        recycle(&mut body);
        metrics
            .bytes_written
            .add(std::mem::take(&mut conn.bytes_written));
        if shutdown {
            // Answered first, then flagged: the accept loop is unblocked
            // with a wake-up connection and every worker drains.
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
        }
        if !keep_open {
            break;
        }
    }
    Ok(())
}

/// Runs one request's `handle` so that a panic in it is an answer, not a
/// dead worker: the workers are a fixed few, and a daemon that has lost
/// each of them to a panicking request accepts connections and answers
/// none. The panic becomes an `internal error` response (`500` over HTTP)
/// counted in `spanner_panics_total`, and whatever part of a body the
/// handler wrote into `body` before it died is dropped. What a panic can
/// leave behind is shared state behind locks, every one of which is
/// recovered or answered for when poisoned ([`lock_or_reset`],
/// [`ResidentStore::read`]) — hence the `AssertUnwindSafe`.
fn guarded(
    metrics: &ServerMetrics,
    body: &mut Vec<u8>,
    handle: impl FnOnce(&mut Vec<u8>) -> Outcome,
) -> Outcome {
    let payload = match catch_unwind(AssertUnwindSafe(|| handle(body))) {
        Ok(outcome) => return outcome,
        Err(payload) => payload,
    };
    metrics.panics.inc();
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic without a message");
    body.clear();
    Json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::string(format!("internal error: {message}"))),
        ("internal", Json::Bool(true)),
    ])
    .write_to(body);
    Outcome::Internal
}

/// The line-JSON transport: one request object per `\n`-terminated line,
/// one response object per line.
struct LineCodec;

impl Codec for LineCodec {
    fn read_request(&mut self, conn: &mut Conn, shared: &Shared) -> io::Result<Option<Incoming>> {
        let cap = shared.handler.options.max_line_bytes;
        loop {
            // The cap admits the terminator; the deadline restarts with
            // every line, so an active client may idle between requests.
            let limits = shared.limits(cap.saturating_add(1));
            let decoded = match conn.read_frame(&limits, line_frame)? {
                Frame::Expired => return Ok(None),
                Frame::Eof if conn.input.is_empty() => return Ok(None),
                // EOF: a final unterminated line still counts as a request.
                // A lossy decode would answer over a rewritten document (a
                // U+FFFD's three bytes shift every span after it), so
                // non-UTF-8 is refused, as an HTTP body is.
                Frame::Complete | Frame::Eof => match std::str::from_utf8(&conn.input) {
                    Err(_) => Err("request line is not UTF-8".to_string()),
                    Ok(line) => {
                        // Minus its terminator: error positions count the
                        // bytes the client wrote.
                        let line = line.strip_suffix('\n').unwrap_or(line);
                        let line = line.strip_suffix('\r').unwrap_or(line);
                        if line.trim().is_empty() {
                            continue;
                        }
                        Request::parse(line)
                    }
                },
                Frame::Oversized => {
                    // Skip the rest of the line a capful at a time — never
                    // buffered whole — so the next request parses clean.
                    loop {
                        match conn.read_frame(&limits, line_frame)? {
                            Frame::Oversized => continue,
                            Frame::Expired => return Ok(None),
                            Frame::Complete | Frame::Eof => break,
                        }
                    }
                    Err(format!("request line exceeds the {cap}-byte limit"))
                }
            };
            return Ok(Some(Incoming::Decoded(decoded.map_err(error_response))));
        }
    }

    fn write_response(
        &mut self,
        conn: &mut Conn,
        _shared: &Shared,
        body: &[u8],
        outcome: &Outcome,
        last: bool,
    ) -> io::Result<bool> {
        let out = &mut conn.output;
        match outcome {
            Outcome::Metrics(text) => metrics_object(out, text),
            _ => out.extend_from_slice(body),
        }
        out.push(b'\n');
        conn.flush()?;
        Ok(!last)
    }
}

/// Writes the line-JSON answer to `metrics`: the exposition `text` as a
/// string member, since a line carries one JSON object.
fn metrics_object(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(br#"{"ok":true,"metrics":"#);
    json::write_str(out, text);
    out.push(b'}');
}

/// Writes a response built as a tree — the small fixed-shape ones — and
/// answers [`Outcome::Ok`].
fn reply(out: &mut Vec<u8>, response: Json) -> Outcome {
    response.write_to(out);
    Outcome::Ok
}

/// Writes the standard failure response and answers [`Outcome::Failed`].
fn fail(out: &mut Vec<u8>, message: impl std::fmt::Display) -> Outcome {
    error_response(message).write_to(out);
    Outcome::Failed
}

/// Looks `program` up in the cache (compiling on a miss) and has `answer`
/// write the success response from the shared prepared query; compile
/// errors become the standard error response with the caret rendering.
fn with_query(
    handler: &Handler,
    program: &str,
    out: &mut Vec<u8>,
    answer: impl FnOnce(Arc<spanner_ql::PreparedQuery>, bool, &mut Vec<u8>) -> Outcome,
) -> Outcome {
    let start = Instant::now();
    let prepared = handler
        .cache
        .get_or_prepare(program, handler.options.ra_options);
    if !matches!(prepared, Ok((_, true))) {
        handler
            .metrics
            .prepare_seconds
            .observe_duration(start.elapsed());
    }
    match prepared {
        Err(e) => fail(out, e.pretty(program)),
        Ok((query, cached)) => answer(query, cached, out),
    }
}

/// Writes the shared `query_corpus` success response from a whole-corpus
/// answer: aggregate stats, any path-specific members (the store path
/// appends candidate count and selectivity), then the per-line mappings of
/// the matched documents, entry by entry. Also accumulates the daemon-wide
/// fast-path counters: a document is skipped, evaluated (it reached the
/// executor) or — `view_hits` of them, on the resident path —
/// served from a maintained view without being looked at.
fn corpus_response(
    handler: &Handler,
    out: &mut Vec<u8>,
    cached: bool,
    docs: &[Document],
    answer: &CorpusMatches,
    view_hits: usize,
    extra: &[(&str, Json)],
) -> Outcome {
    let stats = &answer.stats;
    let skipped = stats.docs_skipped as u64;
    handler.metrics.docs_skipped.add(skipped);
    handler
        .metrics
        .docs_evaluated
        .add(((stats.documents - view_hits) as u64).saturating_sub(skipped));
    out.push(b'{');
    json::write_members(
        out,
        &[
            ("ok", Json::Bool(true)),
            ("cached", Json::Bool(cached)),
            ("documents", Json::number(stats.documents)),
            ("matched", Json::number(stats.matched_documents)),
            ("mappings", Json::number(stats.mappings)),
            ("skipped", Json::number(stats.docs_skipped)),
        ],
    );
    if !extra.is_empty() {
        out.push(b',');
        json::write_members(out, extra);
    }
    out.extend_from_slice(br#","results":["#);
    for (i, (id, set)) in answer.matches.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'{');
        let (line, count) = (Json::number(*id as usize), Json::number(set.len()));
        json::write_members(out, &[("line", line), ("count", count)]);
        out.extend_from_slice(br#","mappings":"#);
        write_mappings(out, &docs[*id as usize], set);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
    Outcome::Ok
}

/// Applies `mutations` to the resident store in order, under its write
/// lock, up to the first error (earlier ones stay applied). `counter`
/// counts those that changed the store — deleting a tombstone moves
/// neither it nor the generation — and `count` names that number in the
/// response, which ends with the store's `documents` and `generation`.
fn mutate(
    handler: &Handler,
    out: &mut Vec<u8>,
    mutations: impl IntoIterator<Item = Mutation>,
    counter: &Counter,
    count: Option<&'static str>,
) -> Outcome {
    let Some(resident) = handler.resident() else {
        return fail(out, "no resident corpus (send `load_corpus` first)");
    };
    let Some(mut store) = resident.write() else {
        return fail(out, STORE_POISONED);
    };
    let mut applied = 0usize;
    let outcome = mutations.into_iter().try_for_each(|mutation| {
        let changes = !matches!(mutation, Mutation::Delete { id } if store.is_deleted(id));
        store.apply(&mutation).map(|_| applied += changes as usize)
    });
    counter.add(applied as u64);
    if let Err(e) = outcome {
        return fail(out, e);
    }
    let mut fields = vec![("ok", Json::Bool(true))];
    fields.extend(count.map(|name| (name, Json::number(applied))));
    fields.push(("documents", Json::number(store.len())));
    fields.push(("generation", Json::number(store.generation() as usize)));
    reply(out, Json::object(fields))
}

/// Handles one decoded request, writing its answer into `out`. Both
/// transports and [`Handler::answer`] funnel through this one function, so
/// the line-JSON, HTTP and in-process surfaces can never drift apart.
fn handle_request(handler: &Handler, request: Request, out: &mut Vec<u8>) -> Outcome {
    match request {
        Request::Prepare { program } => with_query(handler, &program, out, |query, cached, out| {
            let vars = query.vars().iter().map(|v| Json::string(v.to_string()));
            reply(
                out,
                Json::object([
                    ("ok", Json::Bool(true)),
                    ("cached", Json::Bool(cached)),
                    ("vars", Json::Array(vars.collect())),
                    ("static", Json::Bool(query.plan().is_static())),
                    ("outline", Json::string(query.plan_outline())),
                ]),
            )
        }),
        Request::Query { program, doc } => {
            with_query(handler, &program, out, |query, cached, out| {
                let doc = Document::new(doc);
                match query.evaluate(&doc) {
                    Err(e) => fail(out, e),
                    Ok(set) => {
                        out.push(b'{');
                        json::write_members(
                            out,
                            &[
                                ("ok", Json::Bool(true)),
                                ("cached", Json::Bool(cached)),
                                ("count", Json::number(set.len())),
                            ],
                        );
                        out.extend_from_slice(br#","mappings":"#);
                        write_mappings(out, &doc, &set);
                        out.push(b'}');
                        Outcome::Ok
                    }
                }
            })
        }
        Request::LoadCorpus { text } => {
            // The build is the expensive part; it runs before any lock is
            // taken, so queries against the previous resident corpus stay
            // live until the one-pointer swap below.
            let build_started = Instant::now();
            match Store::build(split_lines(&text)) {
                Err(e) => fail(out, e),
                Ok(store) => {
                    handler
                        .metrics
                        .store_build_seconds
                        .observe_duration(build_started.elapsed());
                    let response = Json::object([
                        ("ok", Json::Bool(true)),
                        ("documents", Json::number(store.len())),
                        ("bytes", Json::number(store.bytes())),
                        ("trigrams", Json::number(store.trigram_count())),
                        ("generation", Json::number(store.generation() as usize)),
                    ]);
                    handler.install(store);
                    reply(out, response)
                }
            }
        }
        Request::AppendDocs { text } => mutate(
            handler,
            out,
            text.lines()
                .map(|line| Mutation::Append { text: line.into() }),
            &handler.metrics.store_appends,
            Some("appended"),
        ),
        Request::UpdateDoc { line, text } => mutate(
            handler,
            out,
            [Mutation::Update { id: line, text }],
            &handler.metrics.store_updates,
            None,
        ),
        // Applied in order; the first bad id aborts (earlier deletes stay
        // applied — deletes are idempotent, so a client can safely retry
        // the whole batch).
        Request::DeleteDocs { lines } => mutate(
            handler,
            out,
            lines.into_iter().map(|id| Mutation::Delete { id }),
            &handler.metrics.store_deletes,
            Some("deleted"),
        ),
        Request::QueryCorpus {
            program,
            text: Some(text),
        } => with_query(handler, &program, out, |query, cached, out| {
            let docs = split_lines(&text);
            match query.scan_corpus(&docs, handler.options.corpus_threads) {
                Err(e) => fail(out, e),
                Ok(answer) => corpus_response(handler, out, cached, &docs, &answer, 0, &[]),
            }
        }),
        Request::QueryCorpus {
            program,
            text: None,
        } => match handler.resident() {
            None => fail(out, "no resident corpus (send `load_corpus` first)"),
            Some(resident) => with_query(handler, &program, out, |query, cached, out| {
                let Some(store) = resident.read() else {
                    return fail(out, STORE_POISONED);
                };
                let threads = handler.options.corpus_threads;
                // One maintained view per (program, options) key, built
                // only once the cache held the program; without one a
                // throwaway zero-budget view keeps the code path (and the
                // response shape) identical.
                let slot = resident
                    .views
                    .get(&cache_key(&program, handler.options.ra_options), cached);
                let result = match &slot {
                    Some(slot) => {
                        let mut view = slot.lock();
                        let result = store.query_view_matches(query.engine(), &mut view, threads);
                        slot.retained_cost
                            .store(view.retained_cost(), Ordering::Relaxed);
                        slot.snapshot_bytes
                            .store(view.snapshot_bytes(), Ordering::Relaxed);
                        result
                    }
                    None => {
                        store.query_view_matches(query.engine(), &mut QueryView::new(0), threads)
                    }
                };
                match result {
                    Err(e) => fail(out, e),
                    Ok(outcome) => {
                        let m = &handler.metrics;
                        m.store_selectivity.observe(outcome.selectivity());
                        // The view families describe maintained views: a
                        // query without one would only read as evictions.
                        if slot.is_some() {
                            m.view_hits.add(outcome.view_hits as u64);
                            m.view_misses.add(outcome.delta_docs as u64);
                            m.view_invalidations.add(outcome.invalidated as u64);
                            m.view_delta_docs.observe(outcome.delta_docs as f64);
                            let documents = outcome.output.stats.documents;
                            if documents > 0 {
                                m.view_hit_ratio
                                    .observe(outcome.view_hits as f64 / documents as f64);
                            }
                        }
                        let candidates = match outcome.candidates {
                            Some(count) => Json::number(count),
                            // Full-scan fallback: no usable literal.
                            None => Json::Null,
                        };
                        // Written while the read guard is held: the
                        // documents are the store's own.
                        corpus_response(
                            handler,
                            out,
                            cached,
                            store.documents(),
                            &outcome.output,
                            outcome.view_hits,
                            &[
                                ("candidates", candidates),
                                ("selectivity", Json::Number(outcome.selectivity())),
                                ("delta_docs", Json::number(outcome.delta_docs)),
                                ("view_hits", Json::number(outcome.view_hits)),
                                ("invalidated", Json::number(outcome.invalidated)),
                                ("generation", Json::number(outcome.generation as usize)),
                            ],
                        )
                    }
                }
            }),
        },
        Request::Explain {
            program,
            analyze: false,
            ..
        } => with_query(handler, &program, out, |query, cached, out| {
            reply(
                out,
                Json::object([
                    ("ok", Json::Bool(true)),
                    ("cached", Json::Bool(cached)),
                    ("explain", Json::string(query.explain())),
                ]),
            )
        }),
        Request::Explain {
            program,
            analyze: true,
            doc,
        } => {
            // The parser enforces `doc` whenever `analyze` is set; a
            // hand-built Request without one gets the same diagnosis.
            let Some(doc) = doc else {
                return fail(
                    out,
                    "`explain` with `\"analyze\": true` needs a `doc` field to run the query on",
                );
            };
            with_query(handler, &program, out, |query, cached, out| {
                let document = Document::new(doc);
                // One traced run feeds both the human rendering and the
                // structured trace, so they can never disagree.
                let (result, trace) = query.evaluate_traced(&document);
                let ok = result.is_ok();
                let mut fields = vec![
                    ("ok", Json::Bool(ok)),
                    ("cached", Json::Bool(cached)),
                    (
                        "explain",
                        Json::string(query.render_analyze(&document, &result, &trace)),
                    ),
                    ("trace", trace_to_json(&trace)),
                ];
                match result {
                    Ok(set) => fields.push(("count", Json::number(set.len()))),
                    Err(e) => fields.push(("error", Json::string(e.to_string()))),
                }
                Json::object(fields).write_to(out);
                if ok {
                    Outcome::Ok
                } else {
                    Outcome::Failed
                }
            })
        }
        Request::Stats => {
            let cache = handler.cache.stats();
            let store = match handler.resident() {
                None => Json::Null,
                Some(resident) => {
                    let store = resident.counters();
                    Json::object([
                        ("documents", Json::number(store.len())),
                        ("bytes", Json::number(store.bytes())),
                        ("trigrams", Json::number(store.trigram_count())),
                        ("generation", Json::number(store.generation() as usize)),
                        ("deleted", Json::number(store.deleted_count())),
                        ("delta_postings", Json::number(store.delta_postings())),
                        ("compactions", Json::number(store.compactions() as usize)),
                        ("views", Json::number(resident.views.entries())),
                    ])
                }
            };
            let response = Json::object([
                ("ok", Json::Bool(true)),
                (
                    "cache",
                    Json::object([
                        ("capacity", Json::number(cache.capacity)),
                        ("entries", Json::number(cache.entries)),
                        ("hits", Json::number(cache.hits as usize)),
                        ("misses", Json::number(cache.misses as usize)),
                        ("evictions", Json::number(cache.evictions as usize)),
                        (
                            "prepare_seconds",
                            Json::Number(handler.metrics.prepare_seconds.sum()),
                        ),
                    ]),
                ),
                (
                    "server",
                    Json::object([
                        (
                            "requests_total",
                            Json::number(handler.metrics.total_requests() as usize),
                        ),
                        (
                            "errors_total",
                            Json::number(handler.metrics.total_errors() as usize),
                        ),
                        (
                            "uptime_s",
                            Json::Number(handler.started.elapsed().as_secs_f64()),
                        ),
                        (
                            "connections",
                            Json::number(handler.metrics.connections.get() as usize),
                        ),
                        (
                            "corpus_threads",
                            Json::number(handler.options.corpus_threads),
                        ),
                        (
                            "docs_skipped",
                            Json::number(handler.metrics.docs_skipped.get() as usize),
                        ),
                        (
                            "docs_evaluated",
                            Json::number(handler.metrics.docs_evaluated.get() as usize),
                        ),
                    ]),
                ),
                (
                    // Per-op request/error totals, so rates are computable
                    // per operation (the same counters `metrics` renders).
                    "ops",
                    Json::Object(
                        handler
                            .metrics
                            .ops
                            .iter()
                            .map(|m| {
                                (
                                    m.label.to_string(),
                                    Json::object([
                                        ("requests", Json::number(m.requests.get() as usize)),
                                        ("errors", Json::number(m.errors.get() as usize)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("store", store),
            ]);
            reply(out, response)
        }
        // HTTP serves the exposition as it is, so it is not escaped here.
        Request::Metrics => Outcome::Metrics(handler.render_metrics()),
        Request::Shutdown => reply(
            out,
            Json::object([
                ("ok", Json::Bool(true)),
                ("shutting_down", Json::Bool(true)),
            ]),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_resolve_and_clamp() {
        assert!(resolve_pool_threads(0) >= 1);
        assert_eq!(resolve_pool_threads(3), 3);
        // A huge request degrades to the shared ceiling instead of
        // attempting (and aborting on) a million thread spawns.
        assert_eq!(resolve_pool_threads(1_000_000), spanner_corpus::MAX_THREADS);
    }

    #[test]
    fn a_scrape_during_a_held_view_blocks_neither_itself_nor_view_lookup() {
        let views = Arc::new(ViewSet::new(4, 1 << 10));
        let handle = views.get("hot", true).expect("views are enabled");
        handle.retained_cost.store(7, Ordering::Relaxed);
        handle.snapshot_bytes.store(240, Ordering::Relaxed);
        // A slow query in flight: the view stays locked for the whole test.
        let in_flight = handle.lock();
        let (sender, receiver) = channel();
        let scraper = {
            let views = Arc::clone(&views);
            std::thread::spawn(move || sender.send(views.held()))
        };
        // The timeout only turns a deadlock into a failure; a scrape that
        // does not touch the view lock answers at once.
        let held = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("the scrape waited for the query holding the view");
        assert_eq!(held, (7, 240));
        assert!(views.get("hot", true).is_some() && views.get("other", true).is_some());
        assert_eq!(views.entries(), 2);
        drop(in_flight);
        scraper.join().expect("scraper").expect("receiver alive");
    }

    #[test]
    fn a_panic_under_the_guard_is_an_answer_and_its_view_serves_again() {
        let metrics = ServerMetrics::new();
        let views = ViewSet::new(4, 1 << 10);
        let engine = spanner_ql::PreparedQuery::prepare("/{x:a+}/").unwrap();
        let store = Store::build(split_lines("aa\nb\na")).unwrap();
        let handle = views.get("hot", true).expect("views are enabled");
        let query = |handle: &ViewHandle| {
            let outcome = store.query_view_matches(engine.engine(), &mut handle.lock(), 1);
            let outcome = outcome.unwrap();
            (outcome.view_hits, outcome.output.stats.matched_documents)
        };
        assert_eq!(query(&handle), (0, 2));
        assert_eq!(query(&handle), (3, 2));
        // A request dies holding the view, half its body written: an
        // answer, counted, not a panic of the worker — and nothing of the
        // half body.
        let mut body = Vec::new();
        let outcome = guarded(&metrics, &mut body, |out| {
            let _view = handle.lock();
            out.extend_from_slice(br#"{"ok":true,"cached":false,"results":[{"line":0,"#);
            panic!("boom at document {}", 7)
        });
        assert_eq!(outcome, Outcome::Internal);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            r#"{"ok":false,"error":"internal error: boom at document 7","internal":true}"#
        );
        assert_eq!(metrics.panics.get(), 1);
        // The next query of that view gets a lock, not a second panic; the
        // view starts over (whatever the dead request left in it is not
        // trusted) and is warm again after.
        assert!(handle.view.is_poisoned());
        assert_eq!(query(&handle), (0, 2));
        assert!(!handle.view.is_poisoned());
        assert_eq!(query(&handle), (3, 2));
        let mut body = Vec::new();
        let outcome = guarded(&metrics, &mut body, |out| reply(out, Json::Null));
        assert_eq!((outcome, body), (Outcome::Ok, b"null".to_vec()));
        assert_eq!(metrics.panics.get(), 1);
    }

    #[test]
    fn a_handler_answers_and_counts_as_a_fresh_daemon_does() {
        let requests = [
            r#"{"op":"query","program":"/{x:a+}b/","doc":"aab"}"#,
            r#"{"op":"query","program":"/{x:a+}b/","doc":"aab"}"#,
            r#"{"op":"query_corpus","program":"/.*{x:b}.*/","text":"ab\nc\nbb\n"}"#,
            r#"{"op":"load_corpus","text":"a needle\nmiss\n"}"#,
            r#"{"op":"append_docs","text":"needle two\n"}"#,
            r#"{"op":"query_corpus","program":"/.*{x:needle}.*/"}"#,
            r#"{"op":"query_corpus","program":"/.*{x:needle}.*/"}"#,
            r#"{"op":"explain","program":"/{x:a+}b/"}"#,
            r#"{"op":"query","program":"let a = /x/; b","doc":""}"#,
            r#"{"op":"delete_docs","lines":[9]}"#,
        ];
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let (addr, handle) = server.spawn();
        let mut client = crate::Client::connect(addr).unwrap();
        let handler = Handler::new(ServeOptions::default());
        let answer = |request| {
            let mut body = Vec::new();
            let ok = handler.answer(request, &mut body);
            (ok, String::from_utf8(body).unwrap())
        };
        for line in requests {
            let served = client.request_line(line).unwrap();
            let (ok, body) = answer(Request::parse(line).unwrap());
            assert_eq!(body, served, "{line}");
            assert_eq!(ok, served.starts_with(r#"{"ok":true"#), "{line}");
        }
        // Counted alike, by op and by outcome, the asking `stats` included.
        let ops = |body: &str| Json::parse(body).unwrap().get("ops").cloned();
        let served = client.request_line(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(ops(&answer(Request::Stats).1), ops(&served));
        let (ok, metrics) = answer(Request::Metrics);
        assert!(ok && metrics.starts_with(r##"{"ok":true,"metrics":"# HELP "##));
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        // An installed store answers as a loaded one.
        let fresh = || Handler::new(ServeOptions::default());
        let (loaded, installed) = (fresh(), fresh());
        let text = "a needle\nmiss\nneedle two";
        loaded.answer(Request::LoadCorpus { text: text.into() }, &mut Vec::new());
        installed.install(Store::build(split_lines(text)).unwrap());
        let query = || Request::QueryCorpus {
            program: "/.*{x:needle}.*/".into(),
            text: None,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(loaded.answer(query(), &mut a) && installed.answer(query(), &mut b));
        assert_eq!(String::from_utf8(a), String::from_utf8(b));
    }

    #[test]
    fn a_store_a_mutation_died_in_is_refused_with_a_typed_error() {
        let metrics = ServerMetrics::new();
        let resident = ResidentStore {
            store: RwLock::new(Store::build(split_lines("a\nb")).unwrap()),
            views: ViewSet::new(0, 0),
        };
        // A query that dies poisons nothing; a mutation that dies does.
        guarded(&metrics, &mut Vec::new(), |_| {
            let _store = resident.read();
            panic!("mid-query")
        });
        assert!(resident.write().is_some());
        guarded(&metrics, &mut Vec::new(), |_| {
            let _store = resident.write();
            panic!("mid-mutation")
        });
        assert!(resident.read().is_none() && resident.write().is_none());
        assert!(STORE_POISONED.contains("load_corpus"));
        // `stats` and `metrics` still read its size.
        assert_eq!(resident.counters().len(), 2);
    }
}
