//! The traced run: per-layer metrics for one workload.
//!
//! A fixed sample of the workload's ops is replayed in-process twice
//! without and twice with the span recorder (their difference is the
//! tracing overhead), then sent to a line-protocol daemon and to an HTTP
//! daemon (their differences are the transport and the HTTP framing), and
//! the layer probes run on the sample's programs and documents. Counts come
//! from response fields and the daemon's `stats` op. Every span is written
//! to `out/trace-<workload>.json`.

use crate::daemon::Daemon;
use crate::e2e::{self, Checker, Round, Summary};
use crate::probes::{self, Metrics};
use crate::replay::InProc;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Kind, Op, Workload, CHURN_UNIT};
use spanner_serve::{HttpClient, Json};
use std::collections::BTreeMap;
use std::io;

/// Per-layer metrics: name, unit, which direction is better. The layer is
/// the crate name without `spanner-`; `harness` is the benchmark itself.
/// A metric a workload never exercises reads 0 there. Which end-to-end
/// metric each should move, on which workload, is in `README.md`.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("serve.request_parse_us", "us", "lower"),
    ("serve.cache_hit_us", "us", "lower"),
    ("serve.response_render_us", "us", "lower"),
    ("serve.transport_us", "us", "lower"),
    ("serve.http_delta_us", "us", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.request_bytes_per_op", "B", "lower"),
    ("serve.response_bytes_per_op", "B", "lower"),
    ("serve.cpu_ms_per_op", "ms", "lower"),
    ("serve.self_share", "ratio", "lower"),
    ("ql.prepare_ms", "ms", "lower"),
    ("ql.parse_lower_us", "us", "lower"),
    ("ql.evaluate_us", "us", "lower"),
    ("ql.self_share", "ratio", "lower"),
    ("rgx.parse_us", "us", "lower"),
    ("vset.compile_us", "us", "lower"),
    ("vset.prescan_miss_ns_per_byte", "ns/B", "lower"),
    ("vset.prescan_hit_ns_per_byte", "ns/B", "lower"),
    ("enum.graph_build_ns_per_byte", "ns/B", "lower"),
    ("enum.enumerate_ns_per_mapping", "ns", "lower"),
    ("enum.first_mapping_us", "us", "lower"),
    ("enum.max_delay_us", "us", "lower"),
    ("algebra.plan_compile_ms", "ms", "lower"),
    ("algebra.execute_us_per_doc", "us", "lower"),
    ("algebra.operator_self_us_per_doc", "us", "lower"),
    ("corpus.split_lines_us", "us", "lower"),
    ("corpus.evaluate_pool_ms", "ms", "lower"),
    ("corpus.docs_skipped_share", "ratio", "higher"),
    ("corpus.docs_rejected_share", "ratio", "higher"),
    ("corpus.docs_evaluated_share", "ratio", "lower"),
    ("corpus.delta_walk_ms", "ms", "lower"),
    ("corpus.view_hit_ratio", "ratio", "higher"),
    ("corpus.delta_docs_per_query", "count", "lower"),
    ("corpus.invalidated_per_query", "count", "lower"),
    ("corpus.self_share", "ratio", "lower"),
    ("store.build_ms", "ms", "lower"),
    ("store.candidates_us", "us", "lower"),
    ("store.candidates_per_query", "count", "lower"),
    ("store.selectivity", "ratio", "lower"),
    ("store.query_cold_ms", "ms", "lower"),
    ("store.query_view_1_ms", "ms", "lower"),
    ("store.query_view_10_ms", "ms", "lower"),
    ("store.append_us", "us", "lower"),
    ("store.update_us", "us", "lower"),
    ("store.delete_us", "us", "lower"),
    ("store.compact_ms", "ms", "lower"),
    ("store.compactions", "count", "lower"),
    ("store.compact_stall_ms", "ms", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.file_bytes_per_user_byte", "ratio", "lower"),
    ("store.resident_bytes_per_user_byte", "ratio", "lower"),
    ("store.write_p50_ms", "ms", "lower"),
    ("store.write_p95_ms", "ms", "lower"),
    ("store.self_share", "ratio", "lower"),
    ("obs.observe_ns", "ns", "lower"),
    ("obs.self_share", "ratio", "lower"),
    ("harness.calib_factor", "ratio", "lower"),
    ("harness.calib_spread", "ratio", "lower"),
    ("harness.raw_ops_per_s", "1/s", "higher"),
    ("harness.raw_p50_ms", "ms", "lower"),
    ("harness.pooled_p99_ms", "ms", "lower"),
    ("harness.client_us_per_op", "us", "lower"),
    ("harness.dispatch_share", "ratio", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.span_coverage", "ratio", "higher"),
];

/// One op in this many is replayed (for `store-churn`, whose ops depend on
/// the ones before them, the first such share of the stream).
const TRACE_STRIDE: usize = 12;

/// Spans must account for at least this share of the replayed time.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// What a traced run produced.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Metrics,
}

fn sample(w: &Workload) -> Vec<&Op> {
    let total = w.total_ops();
    if w.kind == Kind::StoreChurn {
        (0..total / TRACE_STRIDE / CHURN_UNIT * CHURN_UNIT)
            .map(|i| w.op(i))
            .collect()
    } else {
        (0..total).step_by(TRACE_STRIDE).map(|i| w.op(i)).collect()
    }
}

/// Seconds spent inside the calls of a pass, raw and calibrated.
fn busy_seconds(rounds: &[Round]) -> (f64, f64) {
    let per_round = |r: &Round| r.reads.iter().chain(&r.writes).sum::<f64>();
    (
        rounds.iter().map(per_round).sum(),
        rounds.iter().map(|r| per_round(r) / r.factor).sum(),
    )
}

fn http_path(op: &str) -> String {
    match op {
        "load_corpus" => "/v1/corpus".to_string(),
        "append_docs" => "/v1/corpus/append".to_string(),
        "update_doc" => "/v1/corpus/update".to_string(),
        "delete_docs" => "/v1/corpus/delete".to_string(),
        other => format!("/v1/{other}"),
    }
}

/// Runs the traced passes and the probes.
pub fn run(w: &Workload) -> io::Result<Traced> {
    let sample = sample(w);
    // Shorter rounds than the end-to-end run: the sample is a twelfth of it.
    let round_ops = (w.round_ops / 4 / CHURN_UNIT * CHURN_UNIT).max(CHURN_UNIT);
    let mut checker = Checker::new(w);
    let mut m: Metrics = BTreeMap::new();

    // In-process, alternating untraced and traced so both see the same box.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut inproc_summary = Summary::default();
    let mut kept = None;
    for pass in 0..4 {
        let tracing = pass % 2 == 1;
        let mut inproc = InProc::new(w);
        let mut tracer = Tracer::new(tracing);
        let rounds = e2e::run_rounds(&sample, round_ops, f64::INFINITY, &mut checker, |_, op| {
            Ok(inproc.handle(&op.line, &mut tracer))
        })?;
        let (raw, calibrated) = busy_seconds(&rounds);
        if tracing {
            traced.push(calibrated);
            kept = Some((tracer, raw));
        } else {
            untraced.push(calibrated);
            inproc_summary = e2e::summarize(&rounds);
        }
    }
    let (mut tracer, traced_raw) = kept.expect("two passes traced");
    m.insert(
        "harness.trace_overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );
    replay_metrics(&tracer, traced_raw, &mut checker, &mut m);

    // The same sample over the line protocol.
    checker.take_views();
    let (daemon, mut client) = e2e::start_daemon(w)?;
    let before = e2e::daemon_counts(&mut client)?;
    let cpu_before = daemon.cpu_seconds()?;
    let rounds = e2e::run_rounds(&sample, round_ops, f64::INFINITY, &mut checker, |_, op| {
        client.request_line(&op.line)
    })?;
    let cpu = daemon.cpu_seconds()? - cpu_before;
    let after = e2e::daemon_counts(&mut client)?;
    let rss_mb = daemon.rss_peak_mb()?;
    e2e::stop_daemon(daemon, client)?;
    let line = e2e::summarize(&rounds);
    let views = checker.take_views();
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let (skipped, rejected, evaluated) = (
        after.docs_skipped - before.docs_skipped,
        after.docs_rejected - before.docs_rejected,
        after.docs_evaluated - before.docs_evaluated,
    );
    let docs = skipped + rejected + evaluated;
    let corpus_bytes = w.corpus.as_ref().map_or(0, String::len) as u64;
    m.extend([
        (
            "serve.transport_us",
            (line.p50_ms - inproc_summary.p50_ms) * 1e3,
        ),
        (
            "serve.cache_hit_ratio",
            ratio(after.cache_hits - before.cache_hits, lookups),
        ),
        ("serve.request_bytes_per_op", line.request_bytes_per_op),
        ("serve.response_bytes_per_op", line.response_bytes_per_op),
        ("serve.cpu_ms_per_op", cpu * 1e3 / sample.len() as f64),
        ("corpus.docs_skipped_share", ratio(skipped, docs)),
        ("corpus.docs_rejected_share", ratio(rejected, docs)),
        ("corpus.docs_evaluated_share", ratio(evaluated, docs)),
        (
            "corpus.view_hit_ratio",
            ratio(views.view_hits, views.documents),
        ),
        (
            "corpus.delta_docs_per_query",
            ratio(views.delta_docs, views.queries),
        ),
        (
            "corpus.invalidated_per_query",
            ratio(views.invalidated, views.queries),
        ),
        (
            "store.resident_bytes_per_user_byte",
            ratio((rss_mb * 1048576.0) as u64, corpus_bytes),
        ),
        ("store.write_p50_ms", line.write_p50_ms),
        ("store.write_p95_ms", line.write_p95_ms),
        ("harness.calib_factor", line.calib_factor),
        ("harness.calib_spread", line.calib_spread),
        ("harness.raw_ops_per_s", line.raw_ops_per_s),
        ("harness.raw_p50_ms", line.raw_p50_ms),
        ("harness.pooled_p99_ms", line.pooled_p99_ms),
        ("harness.client_us_per_op", line.client_us_per_op),
    ]);

    // And over HTTP: the same JSON bodies, the op in the path.
    let daemon = Daemon::spawn(true)?;
    let mut http = HttpClient::connect(daemon.addr)?;
    e2e::bring_up(w, |op, fields| {
        http.post_json(&http_path(op), &fields)?.json()
    })?;
    let bodies: Vec<(String, Json)> = sample
        .iter()
        .map(|op| {
            let body = Json::parse(&op.line).expect("request lines are JSON");
            (http_path(op.op_name()), body)
        })
        .collect();
    let rounds = e2e::run_rounds(&sample, round_ops, f64::INFINITY, &mut checker, |i, _| {
        let (path, body) = &bodies[i];
        Ok(http.post_json(path, body)?.text())
    })?;
    http.post_json("/v1/shutdown", &Json::object::<&str>([]))?;
    drop(http);
    daemon.wait()?;
    m.insert(
        "serve.http_delta_us",
        (e2e::summarize(&rounds).p50_ms - line.p50_ms) * 1e3,
    );

    probes::run(w, &sample, &mut tracer, &mut m)?;
    std::fs::create_dir_all(crate::OUT_DIR)?;
    tracer.write_json(&format!("{}/trace-{}.json", crate::OUT_DIR, w.name), w.name)?;
    Ok(Traced {
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        metrics: m,
    })
}

/// Metrics read off the traced replay's spans: per-request time in each
/// call, and each layer's share of the replayed time by self time.
fn replay_metrics(tracer: &Tracer, replayed_s: f64, checker: &mut Checker, m: &mut Metrics) {
    let per_request = |span: &str| median(&tracer.per_request_us(span));
    m.extend([
        ("serve.request_parse_us", per_request("serve.request_parse")),
        ("serve.cache_hit_us", per_request("serve.cache_hit")),
        (
            "serve.response_render_us",
            per_request("serve.response_render"),
        ),
        ("ql.evaluate_us", per_request("ql.evaluate")),
        ("corpus.split_lines_us", per_request("corpus.split_lines")),
        (
            "corpus.evaluate_pool_ms",
            per_request("corpus.evaluate_pool") / 1e3,
        ),
    ]);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, own) in tracer.spans().iter().zip(tracer.self_nanos()) {
        // A request span's own time is the harness's dispatch glue.
        let layer = span.name.split_once('.').map_or("harness", |(l, _)| l);
        *by_layer.entry(layer).or_default() += own;
    }
    let spanned: u64 = by_layer.values().sum();
    for (layer, metric) in [
        ("serve", "serve.self_share"),
        ("ql", "ql.self_share"),
        ("corpus", "corpus.self_share"),
        ("store", "store.self_share"),
        ("obs", "obs.self_share"),
        ("harness", "harness.dispatch_share"),
    ] {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        m.insert(metric, own as f64 / spanned.max(1) as f64);
    }
    let coverage = spanned as f64 / 1e9 / replayed_s;
    m.insert("harness.span_coverage", coverage);
    if coverage < MIN_SPAN_COVERAGE {
        checker.fail(format!(
            "spans cover {:.1} % of the replayed time, less than {:.0} %",
            coverage * 100.0,
            MIN_SPAN_COVERAGE * 100.0
        ));
    }
}
