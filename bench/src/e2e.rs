//! The end-to-end run: one client, one connection, closed loop, against a
//! child daemon.
//!
//! Ops go out in rounds of 0.35–0.75 s (≥200 reads) with a calibration run
//! between rounds; every latency and round wall time is divided by its
//! round's speed factor. Each metric is computed per round and reported as
//! the interquartile mean across rounds, so one stalled second moves one
//! round and not the result. The uncalibrated twin of every metric is kept
//! beside it.

use crate::calib::{factor, Calibrator};
use crate::daemon::Daemon;
use crate::stats::{iq_mean, percentile, sorted};
use crate::workloads::{Action, Op, Workload};
use spanner_serve::{Client, Json};
use std::io;
use std::time::Instant;

/// Tallies checked responses. Every response must parse and carry
/// `"ok":true`; a read with an oracle expectation must report exactly that
/// many mappings; a program that must be new to the daemon must come back
/// `cached:false` with `view_hits:0`.
pub struct Checker {
    fresh_programs: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Mappings reported by reads since the last [`Checker::take_mappings`].
    mappings: u64,
    /// View outcomes of store queries since the last [`Checker::take_views`].
    views: ViewTally,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

/// What the maintained views did for the store queries of a pass, summed
/// from the response fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewTally {
    pub queries: u64,
    pub documents: u64,
    pub view_hits: u64,
    pub delta_docs: u64,
    pub invalidated: u64,
}

impl Checker {
    pub fn new(w: &Workload) -> Checker {
        Checker {
            fresh_programs: w.fresh_programs(),
            attempted: 0,
            failed: 0,
            mappings: 0,
            views: ViewTally::default(),
            first_failure: None,
        }
    }

    pub fn take_mappings(&mut self) -> u64 {
        std::mem::take(&mut self.mappings)
    }

    pub fn take_views(&mut self) -> ViewTally {
        std::mem::take(&mut self.views)
    }

    /// Records a failure that is not tied to one response (a golden count).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    pub fn check(&mut self, op: &Op, response: &str) {
        self.attempted += 1;
        if let Err(why) = self.verdict(op, response) {
            let shown: String = response.chars().take(200).collect();
            self.fail(format!("{why}: {:?} answered {shown}", op.action));
        }
    }

    fn verdict(&mut self, op: &Op, response: &str) -> Result<(), String> {
        let json = Json::parse(response).map_err(|e| e.to_string())?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("not ok".into());
        }
        if !op.is_read() {
            return Ok(());
        }
        let field = match op.action {
            Action::Query { .. } => "count",
            _ => "mappings",
        };
        let mappings = json
            .get(field)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("no `{field}` count"))? as u64;
        self.mappings += mappings;
        if let Some(expect) = op.expect {
            if mappings != expect {
                return Err(format!("{mappings} mappings, the oracle has {expect}"));
            }
        }
        let number = |field: &str| json.get(field).and_then(Json::as_usize).map(|n| n as u64);
        let view_hits = number("view_hits");
        if let Some(view_hits) = view_hits {
            self.views.queries += 1;
            self.views.view_hits += view_hits;
            self.views.documents += number("documents").unwrap_or(0);
            self.views.delta_docs += number("delta_docs").unwrap_or(0);
            self.views.invalidated += number("invalidated").unwrap_or(0);
        }
        if self.fresh_programs {
            let cached = json.get("cached").and_then(Json::as_bool);
            if cached != Some(false) || view_hits != Some(0) {
                return Err("a program that was never sent hit a cache or a view".into());
            }
        }
        Ok(())
    }
}

fn require_ok(response: Json) -> io::Result<Json> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(response)
    } else {
        Err(io::Error::other(format!(
            "set-up request failed: {response}"
        )))
    }
}

/// Brings a fresh daemon to the state the ops expect — corpus loaded,
/// resident programs prepared, and on a store their views warmed — through
/// `send(op, fields)`, which performs one request on whichever transport.
pub fn bring_up(
    w: &Workload,
    mut send: impl FnMut(&'static str, Json) -> io::Result<Json>,
) -> io::Result<()> {
    let mut ok = |op, field: &'static str, value: &str| {
        send(op, Json::object([(field, Json::string(value))])).and_then(require_ok)
    };
    if let Some(corpus) = &w.corpus {
        ok("load_corpus", "text", corpus)?;
    }
    for program in &w.resident {
        ok("prepare", "program", program)?;
        if w.corpus.is_some() {
            ok("query_corpus", "program", program)?;
        }
    }
    Ok(())
}

/// Spawns a line-protocol daemon and brings it up.
pub fn start_daemon(w: &Workload) -> io::Result<(Daemon, Client)> {
    let daemon = Daemon::spawn(false)?;
    let mut client = Client::connect(daemon.addr)?;
    bring_up(w, |op, fields| {
        let Json::Object(mut pairs) = fields else {
            unreachable!("bring_up sends objects");
        };
        pairs.insert(0, ("op".to_string(), Json::string(op)));
        client.request(&Json::Object(pairs))
    })?;
    Ok((daemon, client))
}

/// Asks the daemon to shut down and waits until the process is gone.
pub fn stop_daemon(daemon: Daemon, mut client: Client) -> io::Result<()> {
    client.shutdown()?;
    drop(client);
    daemon.wait()
}

/// What one round of ops measured.
pub struct Round {
    /// Speed factor from the calibration runs on either side.
    pub factor: f64,
    /// Wall time of the round, checks included (the loop is closed: the
    /// next op waits for them).
    pub wall_s: f64,
    pub ops: usize,
    /// Raw latency of every read, in seconds: request written → response
    /// line read.
    pub reads: Vec<f64>,
    /// Raw latency of every write.
    pub writes: Vec<f64>,
    /// Time the harness spent parsing and checking responses.
    pub client_s: f64,
    /// Request and response bytes, newlines included.
    pub bytes_out: usize,
    pub bytes_in: usize,
}

/// A pass never stops before this many rounds, however late it runs.
const MIN_ROUNDS_BEFORE_DEADLINE: usize = 8;

/// Runs `ops` in rounds of `round_ops` through `call` (which performs one
/// round trip and returns the response text), calibrating before the first
/// round and after every round. Past `deadline_s` seconds the pass stops at
/// the next round boundary: the work is fixed, so a box running at half
/// speed would otherwise take twice the time the driver budgets for a run.
pub fn run_rounds(
    ops: &[&Op],
    round_ops: usize,
    deadline_s: f64,
    checker: &mut Checker,
    mut call: impl FnMut(usize, &Op) -> io::Result<String>,
) -> io::Result<Vec<Round>> {
    let mut rounds = Vec::with_capacity(ops.len().div_ceil(round_ops));
    let calibrator = Calibrator::new();
    let started = Instant::now();
    let mut calib_before = calibrator.run();
    for (r, chunk) in ops.chunks(round_ops).enumerate() {
        if r >= MIN_ROUNDS_BEFORE_DEADLINE && started.elapsed().as_secs_f64() > deadline_s {
            break;
        }
        let mut round = Round {
            factor: 0.0,
            wall_s: 0.0,
            ops: chunk.len(),
            reads: Vec::with_capacity(chunk.len()),
            writes: Vec::new(),
            client_s: 0.0,
            bytes_out: 0,
            bytes_in: 0,
        };
        let start = Instant::now();
        for (i, op) in chunk.iter().enumerate() {
            let sent = Instant::now();
            let response = call(r * round_ops + i, op)?;
            let received = Instant::now();
            let latency = (received - sent).as_secs_f64();
            if op.is_read() {
                round.reads.push(latency);
            } else {
                round.writes.push(latency);
            }
            round.bytes_out += op.line.len() + 1;
            round.bytes_in += response.len() + 1;
            checker.check(op, &response);
            round.client_s += received.elapsed().as_secs_f64();
        }
        round.wall_s = start.elapsed().as_secs_f64();
        let calib_after = calibrator.run();
        round.factor = factor(calib_before, calib_after);
        calib_before = calib_after;
        rounds.push(round);
    }
    Ok(rounds)
}

/// The metrics of a sequence of rounds, calibrated and raw.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Zero when the rounds held no writes.
    pub write_p50_ms: f64,
    pub write_p95_ms: f64,
    pub raw_ops_per_s: f64,
    pub raw_p50_ms: f64,
    pub raw_p95_ms: f64,
    /// p99 over every read of the run pooled, uncalibrated — the number a
    /// per-round tail replaces.
    pub pooled_p99_ms: f64,
    /// Largest raw write latency.
    pub max_write_ms: f64,
    pub calib_factor: f64,
    /// p90 / p10 of the round factors: how far the clock moved in the run.
    pub calib_spread: f64,
    pub client_us_per_op: f64,
    pub request_bytes_per_op: f64,
    pub response_bytes_per_op: f64,
}

/// Reduces rounds to metrics: each metric per round, then the
/// interquartile mean across rounds.
pub fn summarize(rounds: &[Round]) -> Summary {
    let across = |metric: &dyn Fn(&Round) -> f64| -> f64 {
        iq_mean(&rounds.iter().map(metric).collect::<Vec<f64>>())
    };
    // Sorted latencies in milliseconds; `scale` carries the calibration.
    let ms = |latencies: &[f64], scale: f64| -> Vec<f64> {
        sorted(latencies.iter().map(|l| l * 1e3 * scale).collect())
    };
    let pooled = |pick: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        ms(
            &rounds
                .iter()
                .flat_map(|r| pick(r).iter().copied())
                .collect::<Vec<f64>>(),
            1.0,
        )
    };
    let total = |pick: &dyn Fn(&Round) -> f64| -> f64 { rounds.iter().map(pick).sum() };
    let total_ops = total(&|r| r.ops as f64);
    let factors = sorted(rounds.iter().map(|r| r.factor).collect());
    Summary {
        ops_per_s: across(&|r| r.ops as f64 * r.factor / r.wall_s),
        p50_ms: across(&|r| percentile(&ms(&r.reads, 1.0 / r.factor), 0.5)),
        p95_ms: across(&|r| percentile(&ms(&r.reads, 1.0 / r.factor), 0.95)),
        write_p50_ms: across(&|r| percentile(&ms(&r.writes, 1.0 / r.factor), 0.5)),
        write_p95_ms: across(&|r| percentile(&ms(&r.writes, 1.0 / r.factor), 0.95)),
        raw_ops_per_s: across(&|r| r.ops as f64 / r.wall_s),
        raw_p50_ms: across(&|r| percentile(&ms(&r.reads, 1.0), 0.5)),
        raw_p95_ms: across(&|r| percentile(&ms(&r.reads, 1.0), 0.95)),
        pooled_p99_ms: percentile(&pooled(|r| &r.reads), 0.99),
        max_write_ms: pooled(|r| &r.writes).last().copied().unwrap_or(0.0),
        calib_factor: percentile(&factors, 0.5),
        calib_spread: percentile(&factors, 0.9) / percentile(&factors, 0.1),
        client_us_per_op: total(&|r| r.client_s) * 1e6 / total_ops,
        request_bytes_per_op: total(&|r| r.bytes_out as f64) / total_ops,
        response_bytes_per_op: total(&|r| r.bytes_in as f64) / total_ops,
    }
}

/// Counters read from the daemon's `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonCounts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub compactions: u64,
    pub docs_skipped: u64,
    pub docs_rejected: u64,
    pub docs_evaluated: u64,
}

pub fn daemon_counts(client: &mut Client) -> io::Result<DaemonCounts> {
    let stats = require_ok(client.stats()?)?;
    let number = |section: &str, field: &str| -> u64 {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_usize)
            .unwrap_or(0) as u64
    };
    Ok(DaemonCounts {
        cache_hits: number("cache", "hits"),
        cache_misses: number("cache", "misses"),
        compactions: number("store", "compactions"),
        docs_skipped: number("server", "docs_skipped"),
        docs_rejected: number("server", "docs_rejected"),
        docs_evaluated: number("server", "docs_evaluated"),
    })
}

/// Everything one end-to-end run produced.
#[derive(Debug, Clone)]
pub struct E2eResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Median of three set-ups, each against a fresh daemon, calibrated.
    pub setup_s: f64,
    pub raw_setup_s: f64,
    pub rss_peak_mb: f64,
    pub summary: Summary,
    /// Timed rounds completed; fewer than the workload's when the run hit
    /// its deadline.
    pub rounds: usize,
    /// Mappings reported over the timed rounds.
    pub mappings: u64,
    pub counts: DaemonCounts,
}

/// Set-ups per run; the last daemon serves the timed phase.
const SETUPS: usize = 3;

/// The timed phase may take this many times `--seconds` before it is cut
/// short (see [`run_rounds`]); on the reference box it takes about 1×.
const DEADLINE_FACTOR: f64 = 1.6;

/// Runs the workload end to end for a nominal `seconds`.
pub fn run(w: &Workload, seconds: u64) -> io::Result<E2eResult> {
    let round_ops = w.round_ops;
    let warm_up: Vec<&Op> = (0..round_ops).map(|i| w.op(i)).collect();
    let timed: Vec<&Op> = (round_ops..w.total_ops()).map(|i| w.op(i)).collect();
    let mut checker = Checker::new(w);
    let calibrator = Calibrator::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut serving = None;
    for _ in 0..SETUPS {
        if let Some((daemon, client)) = serving.take() {
            stop_daemon(daemon, client)?;
        }
        // Set-up is everything a fresh daemon needs before the first timed
        // op: spawn, connect, load, prepare, one warm-up round.
        let calib_before = calibrator.run();
        let start = Instant::now();
        let (daemon, mut client) = start_daemon(w)?;
        for op in &warm_up {
            let response = client.request_line(&op.line)?;
            checker.check(op, &response);
        }
        let raw = start.elapsed().as_secs_f64();
        setups.push((raw / factor(calib_before, calibrator.run()), raw));
        serving = Some((daemon, client));
    }
    let (daemon, mut client) = serving.expect("SETUPS is at least one");
    checker.take_mappings();
    let deadline_s = seconds as f64 * DEADLINE_FACTOR;
    let rounds = run_rounds(&timed, round_ops, deadline_s, &mut checker, |_, op| {
        client.request_line(&op.line)
    })?;
    let mappings = checker.take_mappings();
    let counts = daemon_counts(&mut client)?;
    let rss_peak_mb = daemon.rss_peak_mb()?;
    stop_daemon(daemon, client)?;
    // A run cut short did less than the golden run's work.
    let cut_short = rounds.len() < w.rounds;
    if let Some(golden) = w.golden.filter(|_| !cut_short) {
        if (mappings, counts.compactions) != (golden.mappings, golden.compactions) {
            checker.fail(format!(
                "{} mappings and {} compactions, the golden run has {} and {}",
                mappings, counts.compactions, golden.mappings, golden.compactions
            ));
        }
    }
    let median_of = |pick: fn(&(f64, f64)) -> f64| {
        crate::stats::median(&setups.iter().map(pick).collect::<Vec<f64>>())
    };
    Ok(E2eResult {
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        setup_s: median_of(|s| s.0),
        raw_setup_s: median_of(|s| s.1),
        rss_peak_mb,
        summary: summarize(&rounds),
        rounds: rounds.len(),
        mappings,
        counts,
    })
}
