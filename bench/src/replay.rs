//! The harness playing the daemon: the same requests handled in-process,
//! with a span around every call into a crate's public functions.
//!
//! This mirrors `spanner_serve::server::handle_request` for the ops the
//! workloads send — parse, cache lookup (or compile), evaluation, response
//! rendering, metric recording — using only public items, so the replay
//! costs what the daemon's handler costs minus the socket. The difference
//! between a TCP round trip and a replayed request is the transport.

use crate::trace::Tracer;
use crate::workloads::{Workload, THREADS};
use spanner_algebra::RaOptions;
use spanner_core::Document;
use spanner_corpus::{split_lines, CorpusResult, QueryView, WorkerPool};
use spanner_obs::{Counter, Histogram, LATENCY_BUCKETS};
use spanner_ql::PreparedQuery;
use spanner_serve::protocol::{error_response, mappings_to_json};
use spanner_serve::{Json, QueryCache, Request, ServeOptions};
use spanner_store::Store;
use std::sync::Arc;
use std::time::Instant;

/// The daemon's state, as far as the workloads exercise it.
pub struct InProc {
    cache: QueryCache,
    pool: WorkerPool,
    store: Option<Store>,
    /// Maintained views, least recently used first; bounded like the
    /// daemon's (`ServeOptions::max_views`).
    views: Vec<(String, QueryView)>,
    options: ServeOptions,
    requests: Counter,
    latency: Histogram,
}

impl InProc {
    /// Brings the stand-in to the state `e2e::start_daemon` brings a daemon
    /// to: corpus loaded, resident programs prepared, their views warmed.
    pub fn new(w: &Workload) -> InProc {
        let options = ServeOptions::default();
        let mut inproc = InProc {
            cache: QueryCache::new(options.cache_capacity),
            pool: WorkerPool::new(THREADS),
            store: w
                .corpus
                .as_ref()
                .map(|_| Store::build(w.corpus_docs()).expect("corpus fits a store")),
            views: Vec::new(),
            options,
            requests: Counter::new(),
            latency: Histogram::new(LATENCY_BUCKETS),
        };
        let mut untraced = Tracer::new(false);
        for program in &w.resident {
            let warm = if w.corpus.is_some() {
                Request::QueryCorpus {
                    program: program.clone(),
                    text: None,
                }
            } else {
                Request::Prepare {
                    program: program.clone(),
                }
            };
            let response = inproc.dispatch(warm, &mut untraced);
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "resident program failed: {response}"
            );
        }
        inproc
    }

    /// Handles one request line and returns the response line.
    pub fn handle(&mut self, line: &str, t: &mut Tracer) -> String {
        t.next_request();
        t.span("request", |t| {
            let started = Instant::now();
            let request = t.span("serve.request_parse", |_| Request::parse(line));
            let response = match request {
                Err(message) => error_response(message),
                Ok(request) => self.dispatch(request, t),
            };
            let text = t.span("serve.response_render", |_| response.to_string());
            t.span("obs.observe", |_| {
                self.requests.inc();
                self.latency.observe_duration(started.elapsed());
            });
            text
        })
    }

    /// Cache lookup; the span is named by what the lookup turned out to be.
    fn lookup(&self, program: &str, t: &mut Tracer) -> Result<(Arc<PreparedQuery>, bool), Json> {
        t.span_named(
            |_| match self.cache.get_or_prepare(program, self.options.ra_options) {
                Ok((query, true)) => (Ok((query, true)), "serve.cache_hit"),
                Ok((query, false)) => (Ok((query, false)), "ql.prepare"),
                Err(e) => (Err(error_response(e.pretty(program))), "ql.prepare"),
            },
        )
    }

    fn dispatch(&mut self, request: Request, t: &mut Tracer) -> Json {
        match request {
            Request::Prepare { program } => match self.lookup(&program, t) {
                Err(response) => response,
                Ok((_, cached)) => {
                    Json::object([("ok", Json::Bool(true)), ("cached", Json::Bool(cached))])
                }
            },
            Request::Query { program, doc } => match self.lookup(&program, t) {
                Err(response) => response,
                Ok((query, cached)) => {
                    let doc = Document::new(doc);
                    match t.span("ql.evaluate", |_| query.evaluate(&doc)) {
                        Err(e) => error_response(e),
                        Ok(set) => t.span("serve.response_render", |_| {
                            Json::object([
                                ("ok", Json::Bool(true)),
                                ("cached", Json::Bool(cached)),
                                ("count", Json::number(set.len())),
                                ("mappings", mappings_to_json(&doc, &set)),
                            ])
                        }),
                    }
                }
            },
            Request::QueryCorpus {
                program,
                text: Some(text),
            } => match self.lookup(&program, t) {
                Err(response) => response,
                Ok((query, cached)) => {
                    let docs = Arc::new(t.span("corpus.split_lines", |_| split_lines(&text)));
                    let pool = &self.pool;
                    match t.span("corpus.evaluate_pool", |_| {
                        query.evaluate_corpus_on_pool(&docs, pool)
                    }) {
                        Err(e) => error_response(e),
                        Ok(out) => t.span("serve.response_render", |_| {
                            corpus_response(cached, &docs, &out, [])
                        }),
                    }
                }
            },
            Request::QueryCorpus {
                program,
                text: None,
            } => {
                let (query, cached) = match self.lookup(&program, t) {
                    Err(response) => return response,
                    Ok(found) => found,
                };
                let Some(store) = &self.store else {
                    return error_response("no resident corpus");
                };
                let view = view_slot(&mut self.views, &self.options, &program);
                match t.span("store.query_view", |_| {
                    store.query_view(query.engine(), view, THREADS)
                }) {
                    Err(e) => error_response(e),
                    Ok(outcome) => t.span("serve.response_render", |_| {
                        let candidates = outcome.candidates.map_or(Json::Null, Json::number);
                        corpus_response(
                            cached,
                            store.documents(),
                            &outcome.output,
                            [
                                ("candidates", candidates),
                                ("selectivity", Json::Number(outcome.selectivity())),
                                ("delta_docs", Json::number(outcome.delta_docs)),
                                ("view_hits", Json::number(outcome.view_hits)),
                                ("invalidated", Json::number(outcome.invalidated)),
                                ("generation", Json::number(outcome.generation as usize)),
                            ],
                        )
                    }),
                }
            }
            Request::UpdateDoc { line, text } => {
                self.write(t, "store.update", |store| store.update(line, &text))
            }
            Request::AppendDocs { text } => self.write(t, "store.append", |store| {
                text.lines().try_for_each(|l| store.append(l).map(|_| ()))
            }),
            Request::DeleteDocs { lines } => self.write(t, "store.delete", |store| {
                lines.iter().try_for_each(|&id| store.delete(id))
            }),
            other => error_response(format!("`{}` is not replayed", other.op_name())),
        }
    }

    fn write(
        &mut self,
        t: &mut Tracer,
        name: &'static str,
        apply: impl FnOnce(&mut Store) -> Result<(), spanner_store::StoreError>,
    ) -> Json {
        let Some(store) = &mut self.store else {
            return error_response("no resident corpus");
        };
        match t.span(name, |_| apply(store)) {
            Err(e) => error_response(e),
            Ok(()) => Json::object([
                ("ok", Json::Bool(true)),
                ("documents", Json::number(store.len())),
                ("generation", Json::number(store.generation() as usize)),
            ]),
        }
    }
}

/// The view for `program`, made on first use, the least recently used one
/// dropped past the daemon's bound. (The daemon keys on program + options;
/// the options never vary here.)
fn view_slot<'a>(
    views: &'a mut Vec<(String, QueryView)>,
    options: &ServeOptions,
    program: &str,
) -> &'a mut QueryView {
    let key = PreparedQuery::cache_key(program);
    let slot = match views.iter().position(|(k, _)| k == key) {
        Some(at) => views.remove(at),
        None => {
            if views.len() >= options.max_views {
                views.remove(0);
            }
            (key.to_string(), QueryView::new(options.view_budget))
        }
    };
    views.push(slot);
    &mut views.last_mut().expect("just pushed").1
}

/// The daemon's `query_corpus` success response.
fn corpus_response(
    cached: bool,
    docs: &[Document],
    out: &CorpusResult,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let results: Vec<Json> = docs
        .iter()
        .zip(&out.results)
        .enumerate()
        .filter(|(_, (_, set))| !set.is_empty())
        .map(|(index, (doc, set))| {
            Json::object([
                ("line", Json::number(index)),
                ("count", Json::number(set.len())),
                ("mappings", mappings_to_json(doc, set)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("cached", Json::Bool(cached)),
        ("documents", Json::number(out.stats.documents)),
        ("matched", Json::number(out.stats.matched_documents)),
        ("mappings", Json::number(out.stats.mappings)),
        ("skipped", Json::number(out.stats.docs_skipped)),
        ("rejected", Json::number(out.stats.docs_rejected)),
    ];
    fields.extend(extra);
    fields.push(("results", Json::Array(results)));
    Json::object(fields)
}

/// The options a replayed compile uses: the daemon's defaults.
pub fn ra_options() -> RaOptions {
    ServeOptions::default().ra_options
}
