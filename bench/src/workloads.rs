//! The four workloads: what is sent, in which order, and what must come
//! back.
//!
//! Every workload is *fixed work*: the op stream is a pure function of
//! `(seed, seconds)`, so two runs send the same bytes in the same order and
//! store compactions, cache evictions and view invalidations fall on the
//! same op index. `seconds` only picks how many rounds are generated, from
//! a per-workload op rate that was sized once on the reference box.
//!
//! A stream is `1 + rounds` rounds of `round_ops` ops (≥200 reads, 0.35–0.75 s
//! on the reference box, a calibration run on either side); round 0 is the
//! untimed warm-up that ends set-up. Three workloads repeat the same work
//! every round (so per-round mapping totals are identical and one
//! in-process round is the whole oracle); `store-churn` evolves the store
//! and is checked against a mirror store instead.

use spanner_core::Document;
use spanner_corpus::split_lines;
use spanner_ql::PreparedQuery;
use spanner_serve::Json;
use spanner_store::Store;
use spanner_workloads::{needle_corpus, needle_line, program_library};
use std::collections::VecDeque;
use std::sync::Arc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["point-hot", "scan-hit", "store-adhoc", "store-churn"];

/// The seed the golden counts below were taken with.
pub const GOLDEN_SEED: u64 = 12;
/// The run length the golden counts below were taken with (and
/// `run_seconds` of `BENCHMARK.json`).
pub const GOLDEN_SECONDS: u64 = 15;

/// Worker threads of every in-process evaluation, matching the daemon's
/// `corpus_threads`.
pub const THREADS: usize = 2;

/// `store-churn` checks one re-query in this many against the mirror
/// store (checking each would double the run's work).
pub const CHURN_ORACLE_STRIDE: usize = 8;

/// A splitmix64 generator: the harness's own, so the op stream does not
/// change when the workspace's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at these
    /// sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// What one op asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `query`: one program on one document.
    Query { program: Arc<str>, doc: String },
    /// `query_corpus` with shipped text.
    QueryText { program: Arc<str>, text: Arc<str> },
    /// `query_corpus` against the resident store.
    QueryStore { program: String },
    /// `update_doc`.
    Update { id: u32, text: String },
    /// `append_docs` of one line.
    Append { text: String },
    /// `delete_docs` of one id.
    Delete { id: u32 },
}

/// One op: the action, its request line as sent, and — once the oracle ran —
/// the mapping count the response must report.
#[derive(Debug, Clone)]
pub struct Op {
    pub action: Action,
    pub line: String,
    pub expect: Option<u64>,
}

impl Op {
    fn new(action: Action) -> Op {
        let s = |v: &str| Json::string(v);
        let fields = match &action {
            Action::Query { program, doc } => {
                vec![("op", s("query")), ("program", s(program)), ("doc", s(doc))]
            }
            Action::QueryText { program, text } => vec![
                ("op", s("query_corpus")),
                ("program", s(program)),
                ("text", s(text)),
            ],
            Action::QueryStore { program } => {
                vec![("op", s("query_corpus")), ("program", s(program))]
            }
            Action::Update { id, text } => vec![
                ("op", s("update_doc")),
                ("line", Json::number(*id as usize)),
                ("text", s(text)),
            ],
            Action::Append { text } => vec![("op", s("append_docs")), ("text", s(text))],
            Action::Delete { id } => vec![
                ("op", s("delete_docs")),
                ("lines", Json::Array(vec![Json::number(*id as usize)])),
            ],
        };
        Op {
            line: Json::object(fields).to_string(),
            action,
            expect: None,
        }
    }

    /// The protocol op this sends.
    pub fn op_name(&self) -> &'static str {
        match self.action {
            Action::Query { .. } => "query",
            Action::QueryText { .. } | Action::QueryStore { .. } => "query_corpus",
            Action::Update { .. } => "update_doc",
            Action::Append { .. } => "append_docs",
            Action::Delete { .. } => "delete_docs",
        }
    }

    /// Reads are `query`/`query_corpus`; the rest are store writes.
    pub fn is_read(&self) -> bool {
        matches!(
            self.action,
            Action::Query { .. } | Action::QueryText { .. } | Action::QueryStore { .. }
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointHot,
    ScanHit,
    StoreAdhoc,
    StoreChurn,
}

/// Counts a default run (`GOLDEN_SEED`, `GOLDEN_SECONDS`) must reproduce
/// exactly: the mapping total over the timed rounds and the store's
/// compaction count at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    pub mappings: u64,
    pub compactions: u64,
}

/// How a workload is cut into rounds, and the op rate its round count is
/// derived from.
struct Sizing {
    /// Ops per round: between two calibration runs, holding ≥200 reads.
    round_ops: usize,
    /// Ops per second on the reference box, measured once; fixes how many
    /// rounds `seconds` buys. Not updated when the engine gets faster —
    /// the work stays fixed and the run gets shorter.
    nominal_ops_per_s: f64,
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Text the daemon loads as its resident store, one document per line.
    pub corpus: Option<String>,
    /// Programs prepared at set-up; on `store-churn` their views are
    /// warmed too.
    pub resident: Vec<String>,
    /// One round when `repeat`, else the whole stream.
    ops: Vec<Op>,
    repeat: bool,
    pub round_ops: usize,
    /// Timed rounds (the stream has one more: the warm-up).
    pub rounds: usize,
    /// Known counts for the default seed and length; `None` otherwise.
    pub golden: Option<Golden>,
}

impl Workload {
    /// Ops in the whole stream, warm-up round included.
    pub fn total_ops(&self) -> usize {
        (1 + self.rounds) * self.round_ops
    }

    /// The `i`-th op of the stream.
    pub fn op(&self, i: usize) -> &Op {
        if self.repeat {
            &self.ops[i % self.ops.len()]
        } else {
            &self.ops[i]
        }
    }

    /// Every op of the stream, in order.
    pub fn stream(&self) -> impl Iterator<Item = &Op> + '_ {
        (0..self.total_ops()).map(|i| self.op(i))
    }

    /// Whether every program is new to the daemon when it arrives.
    pub fn fresh_programs(&self) -> bool {
        self.kind == Kind::StoreAdhoc
    }

    /// The resident corpus as documents.
    pub fn corpus_docs(&self) -> Vec<Document> {
        self.corpus.as_deref().map(split_lines).unwrap_or_default()
    }
}

/// Builds the named workload, oracle expectations included. `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let kind = match name {
        "point-hot" => Kind::PointHot,
        "scan-hit" => Kind::ScanHit,
        "store-adhoc" => Kind::StoreAdhoc,
        "store-churn" => Kind::StoreChurn,
        _ => return None,
    };
    let name = NAMES[kind as usize];
    let sizing = match kind {
        Kind::PointHot => Sizing {
            round_ops: 1600,
            nominal_ops_per_s: 2900.0,
        },
        Kind::ScanHit => Sizing {
            round_ops: 210,
            nominal_ops_per_s: 380.0,
        },
        Kind::StoreAdhoc => Sizing {
            round_ops: 210,
            nominal_ops_per_s: 370.0,
        },
        Kind::StoreChurn => Sizing {
            round_ops: 1500,
            nominal_ops_per_s: 4200.0,
        },
    };
    let round_ops = sizing.round_ops;
    let rounds = ((seconds as f64 * sizing.nominal_ops_per_s / round_ops as f64).round() as usize)
        .max(MIN_ROUNDS);
    let mut rng = Rng::new(seed ^ (kind as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let (corpus, resident, ops, repeat) = match kind {
        Kind::PointHot => (
            None,
            program_library(),
            point_hot_round(&mut rng, round_ops),
            true,
        ),
        Kind::ScanHit => {
            let (resident, ops) = scan_hit_round(&mut rng, round_ops);
            (None, resident, ops, true)
        }
        Kind::StoreAdhoc => (
            Some(corpus_text(ADHOC_LINES, seed)),
            Vec::new(),
            adhoc_stream(&mut rng, round_ops, 1 + rounds),
            false,
        ),
        Kind::StoreChurn => {
            let corpus = needle_corpus(CHURN_LINES, NEEDLES_PER_10K, seed);
            let hot = churn_programs();
            let units = (1 + rounds) * round_ops / CHURN_UNIT;
            let ops = churn_stream(&mut rng, &corpus, &hot, units);
            (Some(join_lines(&corpus)), hot, ops, false)
        }
    };
    let golden = (seed == GOLDEN_SEED && seconds == GOLDEN_SECONDS).then(|| GOLDEN[kind as usize]);
    let mut workload = Workload {
        name,
        kind,
        corpus,
        resident,
        ops,
        repeat,
        round_ops,
        rounds,
        golden,
    };
    fill_expectations(&mut workload);
    Some(workload)
}

/// A run has at least this many timed rounds, whatever `--seconds` says:
/// the interquartile mean needs them.
const MIN_ROUNDS: usize = 16;

/// Golden counts, indexed like [`NAMES`]. They change only when a
/// generator, a sizing constant or the engine's answers change.
const GOLDEN: [Golden; 4] = [
    Golden {
        mappings: 43_200,
        compactions: 0,
    },
    Golden {
        mappings: 362_880,
        compactions: 0,
    },
    Golden {
        mappings: 27_040,
        compactions: 0,
    },
    Golden {
        mappings: 209_291,
        compactions: 4,
    },
];

// ---------------------------------------------------------------- documents

const USERS: &[&str] = &[
    "bob", "carol", "dave", "eve", "frank", "grace", "heidi", "ivan", "judy", "mallory",
];
const LABELS: &[&str] = &[
    "mail", "edu", "site", "dot", "corp", "lab", "dept", "cs", "web", "news",
];
const TLDS: &[&str] = &["ru", "org", "net", "uk", "de", "com", "io", "fr"];
const WORDS: &[&str] = &[
    "please",
    "review",
    "the",
    "quarterly",
    "report",
    "before",
    "friday",
    "and",
    "forward",
    "it",
    "to",
    "team",
    "thanks",
    "meeting",
    "moved",
    "room",
    "42",
    "budget",
    "2019",
    "draft",
    "notes",
    "attached",
    "see",
    "below",
    "regards",
];
const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE"];
const SEGMENTS: &[&str] = &[
    "api", "v1", "v2", "items", "users", "static", "img", "app.js", "index", "login", "health",
    "orders", "2019", "archive", "feed_rss", "search",
];
/// Never 200: the library's status program subtracts the 200s, and every
/// document must yield a mapping for every program it is paired with.
const STATUSES: &[u32] = &[201, 301, 403, 404, 500];

/// An e-mail-shaped document of `min_len..=max_len` bytes: an address the
/// library's e-mail programs extract from (never an `admin*` user, which
/// the hot program subtracts), then free text.
fn email_doc(rng: &mut Rng, min_len: usize, max_len: usize) -> String {
    let mut doc = format!(
        "{}@{}.{}.{}",
        rng.pick(USERS),
        rng.pick(LABELS),
        rng.pick(LABELS),
        rng.pick(TLDS)
    );
    let target = min_len + rng.below(max_len - min_len + 1);
    while doc.len() < target {
        doc.push(' ');
        doc.push_str(rng.pick(WORDS));
    }
    doc.truncate(max_len);
    doc
}

/// An access-log line in the shape of `spanner_workloads::access_log`, with
/// the request's protocol inside the quotes (so the library's path
/// extractor, which wants a space after the path, matches) and a path grown
/// until the line has at least `min_len` bytes (it overshoots by less than
/// ten).
fn log_line(rng: &mut Rng, min_len: usize) -> String {
    let head = format!(
        "{}.{}.{}.{} - {} [{:02}/{:02}] \"{} ",
        1 + rng.below(254),
        rng.below(255),
        rng.below(255),
        1 + rng.below(254),
        if rng.below(10) < 3 {
            rng.pick(USERS)
        } else {
            "-"
        },
        1 + rng.below(28),
        1 + rng.below(12),
        rng.pick(METHODS),
    );
    let tail = format!(" HTTP/1.1\" {} {}", rng.pick(STATUSES), rng.below(100_000));
    let mut path = format!("/{}", rng.pick(SEGMENTS));
    while head.len() + path.len() + tail.len() < min_len {
        path.push('/');
        path.push_str(rng.pick(SEGMENTS));
    }
    head + &path + &tail
}

/// Library programs that extract from e-mail lines (`0` is the hot
/// three-way join + `project` + `minus`); the rest extract from log lines.
const EMAIL_PROGRAMS: usize = 2;

// ---------------------------------------------------------------- point-hot

/// One round of `point-hot`: 70 % the hot program, the rest spread over the
/// library's tail, each with a 150–300-byte document made to match it.
fn point_hot_round(rng: &mut Rng, ops: usize) -> Vec<Op> {
    let programs: Vec<Arc<str>> = program_library().into_iter().map(Arc::from).collect();
    (0..ops)
        .map(|_| {
            let p = if rng.below(100) < 70 {
                0
            } else {
                1 + rng.below(programs.len() - 1)
            };
            let doc = if p < EMAIL_PROGRAMS {
                email_doc(rng, 150, 300)
            } else {
                let min_len = 150 + rng.below(141);
                log_line(rng, min_len)
            };
            Op::new(Action::Query {
                program: Arc::clone(&programs[p]),
                doc,
            })
        })
        .collect()
}

// ----------------------------------------------------------------- scan-hit

/// Lines per shipped `scan-hit` text.
pub const SCAN_LINES: usize = 64;
/// Distinct shipped texts a round cycles through.
const SCAN_TEXTS: usize = 8;

/// One round of `scan-hit`: the library's log programs in turn, each over a
/// shipped text of [`SCAN_LINES`] log lines that all match it. Returns the
/// programs (prepared at set-up) and the ops.
fn scan_hit_round(rng: &mut Rng, ops: usize) -> (Vec<String>, Vec<Op>) {
    let library = program_library();
    let programs: Vec<Arc<str>> = library[EMAIL_PROGRAMS..]
        .iter()
        .map(|p| Arc::from(p.as_str()))
        .collect();
    let texts: Vec<Arc<str>> = (0..SCAN_TEXTS)
        .map(|_| {
            let lines: Vec<String> = (0..SCAN_LINES)
                .map(|_| {
                    let min_len = 70 + rng.below(30);
                    log_line(rng, min_len)
                })
                .collect();
            Arc::from(lines.join("\n"))
        })
        .collect();
    let ops = (0..ops)
        .map(|i| {
            Op::new(Action::QueryText {
                program: Arc::clone(&programs[i % programs.len()]),
                text: Arc::clone(&texts[(i / programs.len()) % texts.len()]),
            })
        })
        .collect();
    (library[EMAIL_PROGRAMS..].to_vec(), ops)
}

// -------------------------------------------------------------- store-adhoc

/// Lines of the resident corpus of `store-adhoc`.
pub const ADHOC_LINES: usize = 30_000;
/// Lines of the resident corpus of `store-churn`, sized so that at least
/// three threshold compactions fall inside a default run.
pub const CHURN_LINES: usize = 10_000;
/// Needle lines planted per 10 000 corpus lines.
const NEEDLES_PER_10K: usize = 10;
const NEEDLE: &str = "needle";

/// Program templates over a literal `LIT`; `@` becomes the op's serial
/// number inside a variable name, which makes the program text — and with it
/// the daemon's cache and view keys — new on every op.
const ADHOC_TEMPLATES: [&str; 6] = [
    "/.*{x@:LIT}.*/",
    "/{pre@:.*}LIT{post:.*}/",
    "let a = /.*{x@:LIT}.*/; project x@ (a);",
    "/.* {w@:LIT[a-z]*} .*/",
    "/.*{x@:LIT}.*/ minus /{x@:LIT}.*/",
    "let a = /.*{x@:LIT}{y:[a-z ]}.*/; let b = /.*{x@:LIT}.*/; a join b;",
];

fn join_lines(docs: &[Document]) -> String {
    docs.iter()
        .map(Document::text)
        .collect::<Vec<_>>()
        .join("\n")
}

fn corpus_text(lines: usize, seed: u64) -> String {
    join_lines(&needle_corpus(lines, NEEDLES_PER_10K, seed))
}

fn adhoc_program(template: usize, literal: &str, serial: usize) -> String {
    ADHOC_TEMPLATES[template % ADHOC_TEMPLATES.len()]
        .replace("LIT", literal)
        .replace('@', &serial.to_string())
}

/// The `store-adhoc` stream: every round pairs the same templates with the
/// same literals (every tenth the planted needle, the rest 4 and 5 random
/// letters in turn — only the letters depend on the seed, so seeds differ
/// in content and not in the mix of work). Rounds therefore carry identical
/// work and identical mapping totals, while the serial number keeps every
/// program text unseen.
fn adhoc_stream(rng: &mut Rng, round_ops: usize, rounds: usize) -> Vec<Op> {
    let literals: Vec<String> = (0..round_ops)
        .map(|k| {
            if k % 10 == 0 {
                NEEDLE.to_string()
            } else {
                (0..4 + k % 2)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            }
        })
        .collect();
    (0..rounds * round_ops)
        .map(|serial| {
            let k = serial % round_ops;
            Op::new(Action::QueryStore {
                program: adhoc_program(k, &literals[k], serial),
            })
        })
        .collect()
}

// -------------------------------------------------------------- store-churn

/// Ops per repeating unit of `store-churn`: four mutations, one re-query.
pub const CHURN_UNIT: usize = 5;
/// Appended lines live at any one time, on average.
const CHURN_APPENDED: usize = 32;

/// The eight hot programs of `store-churn`, all requiring the needle.
fn churn_programs() -> Vec<String> {
    let mut programs: Vec<String> = (0..ADHOC_TEMPLATES.len())
        .map(|t| adhoc_program(t, NEEDLE, t))
        .collect();
    programs.push("/.*{x:needle} {rest:[a-z ]*}/".to_string());
    programs
        .push("let a = /.*{x:needle}.*/; let b = /{pre:[a-z ]*} needle.*/; a join b;".to_string());
    programs
}

/// The `store-churn` stream: `units` × (4 mutations, 1 re-query of the next
/// hot program). Mutations are 70 % `update_doc`, 15 % `append_docs`, 15 %
/// `delete_docs` of the oldest appended line still live (the choice between
/// the two leans towards keeping [`CHURN_APPENDED`] appended lines live); the
/// last mutations are deletes until nothing appended is left, so the live
/// document count ends where it began. One new text in five holds the needle; a needle
/// text replaces a needle line and a plain text a plain line, so the result
/// size stays where the corpus planted it instead of growing with the run.
fn churn_stream(rng: &mut Rng, corpus: &[Document], hot: &[String], units: usize) -> Vec<Op> {
    let is_needle: Vec<bool> = corpus.iter().map(|d| d.text().contains(NEEDLE)).collect();
    let needle_ids: Vec<u32> = (0..corpus.len() as u32)
        .filter(|&i| is_needle[i as usize])
        .collect();
    let mutations = units * (CHURN_UNIT - 1);
    let mut next_id = corpus.len() as u32;
    let mut appended: VecDeque<u32> = VecDeque::new();
    let mut ops = Vec::with_capacity(units * CHURN_UNIT);
    for m in 0..mutations {
        let hit = rng.below(5) == 0;
        let text = needle_line(hit, rng.next_u64()).text().to_string();
        let roll = rng.below(100);
        let delete = appended.len() >= mutations - m
            || (roll >= 70 && appended.len() > rng.below(2 * CHURN_APPENDED));
        let oldest = if delete { appended.pop_front() } else { None };
        ops.push(Op::new(if let Some(id) = oldest {
            Action::Delete { id }
        } else if roll < 70 {
            let id = if hit && !needle_ids.is_empty() {
                rng.pick(&needle_ids)
            } else {
                loop {
                    let id = rng.below(corpus.len());
                    if !is_needle[id] {
                        break id as u32;
                    }
                }
            };
            Action::Update { id, text }
        } else {
            appended.push_back(next_id);
            next_id += 1;
            Action::Append { text }
        }));
        if m % (CHURN_UNIT - 1) == CHURN_UNIT - 2 {
            let unit = m / (CHURN_UNIT - 1);
            ops.push(Op::new(Action::QueryStore {
                program: hot[unit % hot.len()].clone(),
            }));
        }
    }
    ops
}

// ------------------------------------------------------------------- oracle

/// Applies a write action to a store the way the daemon does.
pub fn apply_write(store: &mut Store, action: &Action) {
    let result = match action {
        Action::Update { id, text } => store.update(*id, text),
        Action::Append { text } => store.append(text).map(|_| ()),
        Action::Delete { id } => store.delete(*id),
        _ => panic!("{action:?} is not a write"),
    };
    result.expect("generated ids are in range");
}

/// Fills `expect` from in-process evaluation: one round for the workloads
/// whose rounds repeat, a mirror store for `store-churn`.
fn fill_expectations(w: &mut Workload) {
    let round_ops = w.round_ops;
    let prepare = |program: &str| {
        PreparedQuery::prepare(program)
            .unwrap_or_else(|e| panic!("workload program does not compile:\n{}", e.pretty(program)))
    };
    match w.kind {
        Kind::PointHot | Kind::ScanHit => {
            let resident: Vec<(String, PreparedQuery)> =
                w.resident.iter().map(|p| (p.clone(), prepare(p))).collect();
            let query = |program: &str| {
                &resident
                    .iter()
                    .find(|(text, _)| text == program)
                    .expect("ops only use resident programs")
                    .1
            };
            for op in &mut w.ops {
                op.expect = Some(match &op.action {
                    Action::Query { program, doc } => query(program)
                        .evaluate(&Document::new(doc.as_str()))
                        .expect("workload documents evaluate")
                        .len() as u64,
                    Action::QueryText { program, text } => {
                        query(program)
                            .evaluate_corpus(&split_lines(text), THREADS)
                            .expect("workload texts evaluate")
                            .stats
                            .mappings as u64
                    }
                    other => panic!("{other:?} in a stateless workload"),
                });
            }
        }
        Kind::StoreAdhoc => {
            let store = Store::build(w.corpus_docs()).expect("corpus fits a store");
            let expected: Vec<u64> = w.ops[..round_ops]
                .iter()
                .map(|op| match &op.action {
                    Action::QueryStore { program } => {
                        store
                            .query(prepare(program).engine(), THREADS)
                            .expect("workload programs evaluate")
                            .output
                            .stats
                            .mappings as u64
                    }
                    other => panic!("{other:?} in store-adhoc"),
                })
                .collect();
            for (i, op) in w.ops.iter_mut().enumerate() {
                op.expect = Some(expected[i % round_ops]);
            }
        }
        Kind::StoreChurn => {
            let mut store = Store::build(w.corpus_docs()).expect("corpus fits a store");
            let hot: Vec<PreparedQuery> = w.resident.iter().map(|p| prepare(p)).collect();
            let mut reads = 0;
            for op in &mut w.ops {
                match &op.action {
                    Action::QueryStore { program } => {
                        if reads % CHURN_ORACLE_STRIDE == 0 {
                            let slot = w
                                .resident
                                .iter()
                                .position(|p| p == program)
                                .expect("re-queries use hot programs");
                            op.expect = Some(
                                store
                                    .query(hot[slot].engine(), THREADS)
                                    .expect("hot programs evaluate")
                                    .output
                                    .stats
                                    .mappings as u64,
                            );
                        }
                        reads += 1;
                    }
                    write => apply_write(&mut store, write),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: &Workload) -> Vec<&str> {
        w.stream().map(|op| op.line.as_str()).collect()
    }

    #[test]
    fn generators_are_byte_identical_per_seed_and_differ_across_seeds() {
        for name in ["point-hot", "scan-hit"] {
            let a = build(name, 5, 1).unwrap();
            let b = build(name, 5, 1).unwrap();
            let c = build(name, 6, 1).unwrap();
            assert_eq!(lines(&a), lines(&b), "{name}");
            assert_ne!(lines(&a), lines(&c), "{name}");
        }
        let mut r = Rng::new(5);
        let a = adhoc_stream(&mut r, 60, 3);
        let b = adhoc_stream(&mut Rng::new(5), 60, 3);
        let c = adhoc_stream(&mut Rng::new(6), 60, 3);
        let text = |ops: &[Op]| ops.iter().map(|o| o.line.clone()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        let corpus = needle_corpus(2_000, NEEDLES_PER_10K, 5);
        let hot = churn_programs();
        let a = churn_stream(&mut Rng::new(5), &corpus, &hot, 200);
        let b = churn_stream(&mut Rng::new(5), &corpus, &hot, 200);
        let c = churn_stream(&mut Rng::new(6), &corpus, &hot, 200);
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
    }

    #[test]
    fn every_point_and_scan_document_matches_its_program() {
        for name in ["point-hot", "scan-hit"] {
            let w = build(name, 9, 1).unwrap();
            for op in w.stream().take(w.round_ops) {
                let expect = op.expect.expect("oracle fills every read");
                match &op.action {
                    Action::Query { doc, .. } => {
                        assert!(expect >= 1, "{doc}");
                        assert!((150..=300).contains(&doc.len()), "{} bytes", doc.len());
                    }
                    Action::QueryText { text, .. } => {
                        assert!(
                            expect >= SCAN_LINES as u64,
                            "every line matches: {expect} mappings over\n{text}"
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_adhoc_program_is_distinct_and_compiles() {
        let ops = adhoc_stream(&mut Rng::new(3), 60, 4);
        let mut programs: Vec<&str> = ops
            .iter()
            .map(|op| match &op.action {
                Action::QueryStore { program } => program.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        for program in &programs[..60] {
            PreparedQuery::prepare(program).unwrap_or_else(|e| panic!("{}", e.pretty(program)));
        }
        let total = programs.len();
        programs.sort_unstable();
        programs.dedup();
        assert_eq!(programs.len(), total);
    }

    #[test]
    fn churn_keeps_the_live_document_count_and_the_unit_shape() {
        let corpus = needle_corpus(2_000, NEEDLES_PER_10K, 7);
        let hot = churn_programs();
        let ops = churn_stream(&mut Rng::new(7), &corpus, &hot, 400);
        assert_eq!(ops.len(), 400 * CHURN_UNIT);
        let mut store = Store::build(corpus).unwrap();
        let live = |s: &Store| s.len() - s.deleted_count();
        let before = live(&store);
        let (mut appends, mut deletes, mut updates) = (0, 0, 0);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.is_read(), i % CHURN_UNIT == CHURN_UNIT - 1, "op {i}");
            match &op.action {
                Action::Append { .. } => appends += 1,
                Action::Delete { .. } => deletes += 1,
                Action::Update { .. } => updates += 1,
                _ => continue,
            }
            apply_write(&mut store, &op.action);
        }
        assert_eq!(live(&store), before);
        assert_eq!(appends, deletes);
        assert!(
            appends > 150 && updates > 900,
            "{appends} appends, {updates} updates"
        );
        // The needle population stays where the corpus planted it (plus the
        // few appended needle lines still live at any one time).
        let needles = store
            .documents()
            .iter()
            .filter(|d| d.text().contains(NEEDLE))
            .count();
        assert_eq!(needles, 2);
    }

    #[test]
    fn hot_programs_compile_and_need_the_needle() {
        for program in churn_programs() {
            let q = PreparedQuery::prepare(&program).unwrap();
            assert!(
                q.plan()
                    .required_literals()
                    .iter()
                    .any(|l| l.windows(NEEDLE.len()).any(|w| w == NEEDLE.as_bytes())),
                "{program}"
            );
        }
    }
}
