//! The layers below the daemon: executor, planner, SpannerQL, scan fast
//! path, the trigram index's upkeep, maintained views — and the daemon's
//! response rendering. Row names and counts are the ones these experiments
//! have always recorded, so the trajectory across PRs stays comparable; the
//! daemon itself is measured end to end by `bench/`.

use crate::{ms, Run, NOISE_MADS, RUNS, TOLERANCE};
use spanner_algebra::plan::Screened;
use spanner_algebra::ratree::{compile_static_atom, resolve_atom};
use spanner_algebra::{
    evaluate_ra, figure_2_tree, optimize_ra, shared_variable_bound, CompiledPlan, Instantiation,
    NoTrace, PhysOp, RaOptions, RaTree,
};
use spanner_core::{Document, MappingSet, SpannerResult, VarSet};
use spanner_corpus::{split_lines, CorpusEngine, CorpusMatches, QueryView};
use spanner_paper::compile_ra;
use spanner_ql::{parse_program, PreparedQuery};
use spanner_rgx::parse;
use spanner_serve::protocol::{mappings_to_json, write_mappings};
use spanner_serve::Json;
use spanner_store::{Mutation, Store};
use spanner_vset::{join, CompiledVsa, PreScan, Vsa};
use spanner_workloads::{
    access_log, needle_corpus, needle_line, program_library, random_text, student_records,
};
use std::time::Instant;

/// The engine as it was before the scan fast path: every prefilter off.
fn no_fast_path() -> RaOptions {
    RaOptions {
        scan_fast_path: false,
        ..RaOptions::default()
    }
}

/// Mappings of `plan` over all of `docs`, one document at a time.
fn total(plan: &CompiledPlan, docs: &[Document]) -> usize {
    docs.iter().map(|d| plan.evaluate(d).unwrap().len()).sum()
}

/// The unindexed scan of `docs` on `threads` threads.
fn scanned(engine: &CorpusEngine, docs: &[Document], threads: usize) -> CorpusMatches {
    engine.scan(docs, threads).unwrap()
}

/// The CPUs a row that runs `threads` threads needs: one to spare once there
/// is more than one. On exactly as many CPUs, whatever else the box does
/// lands on a worker and serializes the row, where the single-threaded
/// yardstick just moves over — every failure of the gate against its own
/// commit (three in eighteen rounds) was a two-thread row on this two-CPU box.
fn with_a_spare(threads: usize) -> usize {
    threads + usize::from(threads > 1)
}

/// 64 access-log lines every one of the library's log programs matches
/// once: the shape `bench/`'s `scan-hit` ships, with the protocol inside the
/// quotes (the path extractor wants a space after the path) and no status
/// 200 (the status program subtracts those).
fn log_hit_lines() -> Vec<Document> {
    const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
    const PATHS: [&str; 4] = ["/index", "/api/v1/items", "/static/app.js", "/users/login"];
    const STATUSES: [usize; 5] = [201, 301, 403, 404, 500];
    let line = |i: usize| {
        let (method, path) = (METHODS[i % 4], PATHS[i / 4 % 4]);
        let (day, month, status) = (1 + i % 28, 1 + i % 12, STATUSES[i % 5]);
        Document::new(format!(
            "10.{}.{}.{} - - [{day:02}/{month:02}] \"{method} {path} HTTP/1.1\" {status} {}",
            i % 7,
            i % 13 * 19,
            1 + i,
            1_000 + 37 * i
        ))
    };
    (0..64).map(line).collect()
}

/// `exec/*`: what the physical operator executor buys over the evaluation
/// path it replaced, that a difference root streams, what the scan fast
/// path saves a whole plan on a corpus that is mostly misses, and what a
/// corpus pass costs when every line matches — `scan-hit` below the daemon.
pub fn exec(run: &mut Run) {
    let named = |n: usize| move |what| format!("exec/{what}/{n}");
    let difference = ["difference/executor", "difference/recompose"];
    let stream = ["stream/first-mapping", "stream/evaluate"];
    let corpus = ["corpus/miss-heavy/fastpath", "corpus/miss-heavy/baseline"];
    let names = [
        [100, 300].map(|n| difference.map(named(n))),
        [200, 400].map(|n| stream.map(named(n))),
        [200, 600].map(|n| corpus.map(named(n))),
    ];
    // The library's last three programs, in its order.
    let log_hit = ["ip", "method-path", "status"].map(|p| format!("exec/corpus/log-hit/{p}"));
    let Some((names, log_hit)) = run.rows((names, log_hit)) else {
        return;
    };
    let [difference, stream, corpus] = names;

    // π_student((student,mail) ⋈ (student,host) \ students-with-phones): the
    // join compiles once into one scan; the difference is the dynamic part.
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    let student = r"(\u\l+ )?{student:\u\l+} ";
    let mail = format!(r"{student}(\d+ )?{{mail:\l+@\l+(\.\l+)*}}");
    let host = format!(r"{student}(\d+ )?\l+@{{host:\l+(\.\l+)*}}");
    let phone = format!(r"{student}\d+ .*");
    let inst = Instantiation::new()
        .with(0, parse(&mail).unwrap())
        .with(1, parse(&host).unwrap())
        .with(2, parse(&phone).unwrap());
    let options = RaOptions::default();
    // The baseline is the ad-hoc pipeline, which re-composes the difference
    // product automaton for every document.
    let recompose = |doc: &Document| {
        let vsa = compile_ra(&tree, &inst, doc, options).unwrap();
        if vsa.accepting_states().is_empty() {
            return 0;
        }
        spanner_enum::evaluate(&vsa, doc).unwrap().len()
    };
    for (lines, [executor, recomposed]) in [100, 300].into_iter().zip(&difference) {
        let docs = split_lines(student_records(lines, 11).text());
        let plan = CompiledPlan::compile(&tree, &inst, options).unwrap();
        let fast = run.measure(executor, || total(&plan, &docs));
        let slow = run.measure(recomposed, || docs.iter().map(recompose).sum());
        assert_eq!(fast.count, slow.count, "the two paths must agree");
        // ~9–13x when the executor landed, two orders of magnitude since the
        // evaluation tables.
        let lead = slow.median_ns / fast.median_ns;
        assert!(lead >= 5, "the executor leads by only {lead}x");
    }

    // A plan with a difference at the root streams: the probe side is
    // materialized once, the input side enumerated lazily.
    let stream_tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
    let stream_inst = Instantiation::new()
        .with(0, parse(r".*{x:a+}.*").unwrap())
        .with(1, parse(r".*{x:aaa+}.*").unwrap());
    for (len, [first, evaluate]) in [200, 400].into_iter().zip(&stream) {
        let doc = random_text(len, b"ab", 7);
        let plan = CompiledPlan::compile(&stream_tree, &stream_inst, options).unwrap();
        let head = || plan.stream(&doc).unwrap().next().map(Result::unwrap);
        let first = run.measure(first, || head().iter().count());
        let all = run.measure(evaluate, || plan.evaluate(&doc).unwrap().len());
        let streams = first.count == 1 && first.median_ns < all.median_ns;
        assert!(streams, "the first mapping waits for the last");
    }

    // One line in ten is a student record, the rest is noise without the
    // extractors' required factors.
    for (lines, [fastpath, baseline]) in [200, 600].into_iter().zip(&corpus) {
        let records = split_lines(student_records(lines / 10, 23).text());
        let line = |i: usize| match i % 10 {
            0 => records[i / 10].clone(),
            _ => random_text(60, b"xy z", 23 + i as u64),
        };
        let docs: Vec<Document> = (0..lines).map(line).collect();
        let plan = CompiledPlan::compile(&tree, &inst, options).unwrap();
        let base_plan = CompiledPlan::compile(&tree, &inst, no_fast_path()).unwrap();
        let fast = run.measure(fastpath, || total(&plan, &docs));
        let base = run.measure(baseline, || total(&base_plan, &docs));
        assert_eq!(fast.count, base.count, "the fast path changed the answer");
    }

    // Every line matches: the pre-pass accepts, the match graph is built and
    // the enumeration walks each line — on one thread, as a shipped 64-line
    // corpus runs.
    let docs = log_hit_lines();
    let library = program_library();
    for (program, name) in library[library.len() - 3..].iter().zip(&log_hit) {
        let query = PreparedQuery::prepare(program).unwrap();
        let hit = run.measure(name, || query.scan_corpus(&docs, 1).unwrap().stats.mappings);
        assert!(hit.count >= docs.len(), "{name}: {} mappings", hit.count);
    }
}

/// The per-line access-log extractor of the corpus rows.
const ACCESS_LOG_LINE: &str = r#"{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d/]+\] "{method:\u+} {path:[\w/\.]+}" {status:\d\d\d} \d+"#;

/// `planner/*`: the optimized side of two rewrites (the plan as written is
/// evaluated once, as the oracle for the count), and one compiled plan
/// shared by 1, 2 and 4 corpus threads (each with a CPU to spare).
pub fn planner(run: &mut Run) {
    const LINES: [usize; 3] = [16, 32, 64];
    const BYTES: [usize; 3] = [60, 120, 240];
    let pushdown = LINES.map(|n| format!("planner/pushdown/{n}"));
    let reorder = BYTES.map(|n| format!("planner/reorder/{n}"));
    if let Some([pushdown, reorder]) = run.rows([pushdown, reorder]) {
        let mut optimized = |name, tree: &RaTree, inst, doc: Document| {
            let evaluate = |options| evaluate_ra(tree, inst, &doc, options).unwrap().len();
            let count = run.measure(name, || evaluate(RaOptions::default())).count;
            assert_eq!(count, evaluate(RaOptions::unoptimized()), "{name}");
        };
        // π_student((student,mail) ⋈ (student,phone)): the private variables
        // are projected away before the product is built.
        let both = RaTree::join(RaTree::leaf(0), RaTree::leaf(1));
        let tree = RaTree::project(VarSet::from_iter(["student"]), both.clone());
        let student = r"(.*\n)?(\u\l+ )?{student:\u\l+} ";
        let mail = format!(r"{student}(\d+ )?{{mail:\l+@\l+(\.\l+)+}}\n.*");
        let phone = format!(r"{student}{{phone:\d+}} .*");
        let inst = Instantiation::new()
            .with(0, parse(&mail).unwrap())
            .with(1, parse(&phone).unwrap());
        for (lines, name) in LINES.into_iter().zip(&pushdown) {
            optimized(name, &tree, &inst, student_records(lines, 5));
        }
        // (?0{x} ⋈ ?1{y}) ⋈ ?2{x,y}: joining the selective two-variable
        // extractor early lowers the shared-variable bound from 2 to 1.
        let tree = RaTree::join(both, RaTree::leaf(2));
        let inst = Instantiation::new()
            .with(0, parse(r".*(ab|ba)(ab|ba){x:b+}(ab|ba)(ab|ba).*").unwrap())
            .with(1, parse(r".*(aa|bb)(aa|bb){y:a+}(aa|bb)(aa|bb).*").unwrap())
            .with(2, parse(r".*ab{x:b+}ab.*bb{y:a+}bb.*").unwrap());
        let bound = |tree| shared_variable_bound(tree, &inst).unwrap();
        let reordered = optimize_ra(&tree, &inst).unwrap();
        assert_eq!((bound(&tree), bound(&reordered)), (2, 1));
        for (bytes, name) in BYTES.into_iter().zip(&reorder) {
            optimized(name, &tree, &inst, random_text(bytes, b"ab", 3));
        }
    }

    for threads in [1, 2, 4] {
        let name = format!("planner/corpus/t{threads}");
        let Some(name) = run.needs_cpus(with_a_spare(threads), name) else {
            continue;
        };
        let docs = split_lines(access_log(2_000, 11).text());
        let columns = VarSet::from_iter(["path", "status"]);
        let tree = RaTree::project(columns, RaTree::leaf(0));
        let inst = Instantiation::new().with(0, parse(ACCESS_LOG_LINE).unwrap());
        let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
        run.measure(&name, || scanned(&engine, &docs, threads).stats.mappings);
    }
}

/// The running-example query: user/host pairs, admins filtered out with
/// the difference operator.
const USERS_QUERY: &str = "\
let user = /{user:[a-z]+}@[a-z]+(\\.[a-z]+)*( .*)?/;
let host = /[a-z]+@{host:[a-z]+(\\.[a-z]+)*}( .*)?/;
project user (user join host) minus /{user:admin[a-z]*}@.*( .*)?/;";

/// The planner's reorder chain as a program. Its `prepare` is the one row
/// where the join product itself, not literal extraction, is the cost.
const CHAIN_QUERY: &str = "\
let a = /.*(ab|ba)(ab|ba){x:b+}(ab|ba)(ab|ba).*/;
let b = /.*(aa|bb)(aa|bb){y:a+}(aa|bb)(aa|bb).*/;
let c = /.*ab{x:b+}ab.*bb{y:a+}bb.*/;
(a join b) join c;";

/// [`ACCESS_LOG_LINE`] as a program.
const LOG_QUERY: &str = "\
project path, status (/{ip:[0-9]+\\.[0-9]+\\.[0-9]+\\.[0-9]+} - ({user:[a-z]+}|-) \
\\[[0-9\\/]+\\] \"{method:[A-Z]+} {path:[a-zA-Z0-9_\\/\\.]+}\" {status:[0-9][0-9][0-9]} [0-9]+/);";

/// The literals of the `ql/adhoc/*` rows, cut to their lengths.
const ADHOC_LITERAL: &str = "qzvxkwjpbmfyhdgc";

/// `ql/*`: the three phases a SpannerQL user pays for — preparing a program
/// (parse → lower → optimize → compile), evaluating it on one document, and
/// scanning a line corpus through the shared plan — and what a one-off
/// program pays on the resident store's path, `ql/adhoc/lit-*`: `prepare`,
/// `required_literals`, the first prescan and the first evaluation of one
/// matching line, all on a fresh `/.*{x:LIT}.*/` every run.
pub fn ql(run: &mut Run) {
    let programs = [USERS_QUERY, CHAIN_QUERY, LOG_QUERY];
    let prepare = ["users", "chain", "log"].map(|p| format!("ql/prepare/{p}"));
    let evaluate = ["users", "chain/60", "chain/120"].map(|p| format!("ql/eval/{p}"));
    if let Some([prepare, evaluate]) = run.rows([prepare, evaluate]) {
        for (source, name) in programs.into_iter().zip(&prepare) {
            run.measure(name, || PreparedQuery::prepare(source).map(|_| 0).unwrap());
        }
        let docs = [
            Document::new("bob@edu.ru extra adminx@edu.ru trail"),
            random_text(60, b"ab", 3),
            random_text(120, b"ab", 3),
        ];
        let sources = [USERS_QUERY, CHAIN_QUERY, CHAIN_QUERY];
        for ((source, doc), name) in sources.into_iter().zip(&docs).zip(&evaluate) {
            let query = PreparedQuery::prepare(source).unwrap();
            run.measure(name, || query.evaluate(doc).unwrap().len());
        }
    }
    let lens = [4, 8, 16];
    if let Some(adhoc) = run.rows(lens.map(|len| format!("ql/adhoc/lit-{len}"))) {
        for (name, len) in adhoc.iter().zip(lens) {
            let literal = &ADHOC_LITERAL[..len];
            let program = format!("/.*{{x:{literal}}}.*/");
            let doc = Document::new(format!("one line with {literal} in it"));
            run.measure(name, || {
                let query = PreparedQuery::prepare(&program).unwrap();
                let PhysOp::CompiledScan { compiled, .. } = query.plan().physical().root() else {
                    panic!("{program} lowers to one compiled scan");
                };
                assert_eq!(compiled.required_literals(), [literal.as_bytes()]);
                assert_eq!(compiled.prescan(&doc), PreScan::Accept);
                query.evaluate(&doc).unwrap().len()
            });
        }
    }
    deferred_products(run);
    for threads in [1, 2] {
        let name = format!("ql/corpus/access-log/t{threads}");
        let Some(name) = run.needs_cpus(with_a_spare(threads), name) else {
            continue;
        };
        let log = PreparedQuery::prepare(LOG_QUERY).unwrap();
        let docs = split_lines(access_log(1_000, 11).text());
        let scan = || log.scan_corpus(&docs, threads).unwrap();
        run.measure(&name, || scan().stats.mappings);
    }
}

/// The join template of `bench/`'s `store-adhoc` over the planted needle.
const NEEDLE_JOIN: &str = "let a = /.*{x:needle}{y:[a-z ]}.*/; let b = /.*{x:needle}.*/; a join b;";

/// Needle lines of the `ql/break-even/*/lines-256` rows.
const BREAK_EVEN_LINES: usize = 256;

/// The automaton `CompiledPlan` builds for a tree of joins: its leaves'
/// automata joined by the Lemma 3.2 product.
fn joined(tree: &RaTree, leaves: &[Vsa]) -> Vsa {
    match tree {
        RaTree::Leaf(id) => leaves[*id].clone(),
        RaTree::Join(l, r) => join(&joined(l, leaves), &joined(r, leaves)).unwrap(),
        other => panic!("{other} is not a tree of joins"),
    }
}

/// The parts of `prepare` a static join pays for, and when deferring its
/// product pays (DESIGN §3). `ql/prepare/chain/*` splits the chain's
/// `prepare` into the Lemma 3.2 products, their compile with literal
/// extraction, and the rest (parse, lower, optimize, the leaves'
/// automata). `ql/oneshot/join/*` is `store-adhoc`'s join template
/// compiled and evaluated over 10 needle lines, as a never-seen program is,
/// with its product deferred and built. `ql/break-even/*` times what
/// placed [`BUILD_AT_DOCS`](spanner_algebra::BUILD_AT_DOCS) on that
/// template: the product's build, and 256 needle lines on the hash-join
/// lowering (`deferred`) and on the product (`built`). The build over the
/// saving per line, in yardsticks, is the number of lines after which the
/// product has paid for itself.
fn deferred_products(run: &mut Run) {
    let chain = ["product", "compile", "rest"].map(|p| format!("ql/prepare/chain/{p}"));
    let oneshot = ["deferred", "built"].map(|p| format!("ql/oneshot/join/{p}"));
    let lines = |how| format!("ql/break-even/{how}/lines-{BREAK_EVEN_LINES}");
    let break_even = (
        "ql/break-even/build".to_string(),
        ["deferred", "built"].map(lines),
    );
    let Some((chain, (oneshot, break_even))) = run.rows((chain, (oneshot, break_even))) else {
        return;
    };
    let lower = |src: &str| {
        let lowered = parse_program(src).unwrap().lower().unwrap();
        let tree = optimize_ra(&lowered.tree, &lowered.inst).unwrap();
        let leaf = |id| compile_static_atom(id, resolve_atom(&lowered.inst, id)?);
        let leaves = (0..lowered.inst.len()).map(leaf);
        (
            tree,
            leaves.collect::<SpannerResult<Vec<Vsa>>>().unwrap(),
            lowered.inst,
        )
    };
    let (tree, leaves, _) = lower(CHAIN_QUERY);
    let product = joined(&tree, &leaves);
    let [by_product, by_compile, by_rest] = &chain;
    let states = run.measure(by_product, || joined(&tree, &leaves).state_count());
    assert_eq!(states.count, product.state_count());
    run.measure(by_compile, || {
        CompiledVsa::compile(&product).required_literals().len()
    });
    run.measure(by_rest, || lower(CHAIN_QUERY).1.len());

    let needles: Vec<Document> = (0..BREAK_EVEN_LINES as u64)
        .map(|i| needle_line(true, i))
        .collect();
    let [deferred, built] = &oneshot;
    let answer = |build: bool| {
        let query = PreparedQuery::compile(NEEDLE_JOIN, RaOptions::default()).unwrap();
        if build {
            query.plan().build_products().unwrap();
        }
        query.scan_corpus(&needles[..10], 1).unwrap().stats.mappings
    };
    let deferred = run.measure(deferred, || answer(false));
    let built = run.measure(built, || answer(true));
    assert_eq!(deferred.count, built.count, "the two lowerings must agree");

    let (tree, _, inst) = lower(NEEDLE_JOIN);
    let compile = || CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap();
    let (by_build, [by_deferred, by_built]) = &break_even;
    let build = run.measure_from(by_build, |start| {
        let plan = compile();
        *start = Instant::now();
        plan.build_products().unwrap();
        plan.physical().root().operator_count()
    });
    assert_eq!(build.count, 1, "the product is one scan");
    let evaluate = |plan: &CompiledPlan| {
        // The current lowering, without counting the documents towards
        // the build.
        let lowering = plan.select(0);
        let mappings = |doc| match lowering.evaluate_screened::<NoTrace>(doc) {
            Screened::Empty => 0,
            Screened::Evaluated(set, NoTrace) => set.unwrap().len(),
        };
        needles.iter().map(mappings).sum()
    };
    let plan = compile();
    let deferred = run.measure(by_deferred, || evaluate(&plan));
    plan.build_products().unwrap();
    let built = run.measure(by_built, || evaluate(&plan));
    assert_eq!(deferred.count, built.count, "the two lowerings must agree");
    let saved = (deferred.units() - built.units()) / BREAK_EVEN_LINES as f64;
    let lines = build.units() / saved;
    println!("    the built product pays for itself after {lines:.0} lines");
    // 20–30 lines when written.
    assert!(
        saved > 0.0 && lines > 1.0 && lines < BREAK_EVEN_LINES as f64,
        "a one-shot join pays for its product, and a scan of 256 lines does not"
    );
}

/// Deterministic padding over lowercase letters and spaces — no `@`, so a
/// pure-padding line is skippable by the required-factor prefilter.
fn padding(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnop qrstuvwxyz ";
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ALPHABET[(state % ALPHABET.len() as u64) as usize] as char
    };
    (0..len).map(|_| next()).collect()
}

/// 400 lines of ~110 bytes of which `per_mille` in every 1000, spread
/// evenly, embed an email between padding runs; the rest is padding only.
fn email_corpus(per_mille: usize) -> Vec<Document> {
    let line = |i: usize| {
        let seed = 42 + i as u64;
        if per_mille == 0 || (i * per_mille) % 1000 >= per_mille {
            return Document::new(padding(110, seed));
        }
        let (user, before, after) = (seed % 100, padding(40, seed), padding(60, seed + 1));
        Document::new(format!("{before} contact{user}@mail.example {after}"))
    };
    (0..400).map(line).collect()
}

/// `scan/*`: one email-shaped extractor over corpora whose hit rate sweeps
/// from 0 % to 100 %. At 0 % every line is skipped by the static
/// prefilters without enumeration; at 100 % the fast path can only lose its
/// pre-pass. The baseline is the same engine with
/// `scan_fast_path` off.
pub fn scan(run: &mut Run) {
    const RATES: [usize; 4] = [0, 10, 500, 1000];
    let named = |rate| move |path| format!("scan/hit-rate-{rate}/{path}");
    let names = RATES.map(|rate| ["fastpath", "baseline"].map(named(rate)));
    let Some(names) = run.rows(names) else { return };
    let pattern = parse(r".*[ ]{user:\l+\d*}@{host:\l+\.\l+}[ ].*").unwrap();
    let inst = Instantiation::new().with(0, pattern);
    let compile = |options| CorpusEngine::compile(&RaTree::leaf(0), &inst, options).unwrap();
    let (fast, base) = (compile(RaOptions::default()), compile(no_fast_path()));
    for (per_mille, [fastpath, baseline]) in RATES.into_iter().zip(&names) {
        let docs = email_corpus(per_mille);
        let (answer, expected) = (scanned(&fast, &docs, 1), scanned(&base, &docs, 1));
        assert_eq!(answer.matches, expected.matches, "at {per_mille}/1000");
        // The static prefilters, not luck, do the skipping.
        assert!(per_mille > 0 || answer.stats.docs_skipped == docs.len());
        let fast = run.measure(fastpath, || scanned(&fast, &docs, 1).stats.mappings);
        let base = run.measure(baseline, || scanned(&base, &docs, 1).stats.mappings);
        // The bar was 10x while the baseline's backward pass cost ~200 ns a
        // byte; that pass is a table lookup per byte now, and what the
        // prefilters still save on a miss is the pass itself.
        let bar = per_mille > 10 || base.median_ns >= 2 * fast.median_ns;
        assert!(bar, "miss-dominated sweep at {per_mille}/1000 is under 2x");
    }
}

/// `incr/build/*` and `incr/compact/*`: what the trigram index costs to
/// keep. `build` is [`Store::build`] over a needle corpus, which every
/// `load_corpus` pays once the text is split. `compact` is one
/// [`Store::compact`] after a batch of 1 000 updates, which the write that
/// crosses the compaction threshold pays. `count` is the index's postings.
fn index_upkeep(run: &mut Run) {
    const BUILD: [usize; 2] = [10_000, 30_000];
    const COMPACT: [usize; 2] = [10_000, 100_000];
    const UPDATES: usize = 1_000;
    let names = (
        BUILD.map(|lines| format!("incr/build/lines-{lines}")),
        COMPACT.map(|lines| format!("incr/compact/lines-{lines}")),
    );
    let Some((build, compact)) = run.rows(names) else {
        return;
    };
    for (lines, name) in BUILD.into_iter().zip(&build) {
        let docs = needle_corpus(lines, 10, 12);
        let mut built = None;
        run.measure_from(name, |start| {
            let docs = docs.clone();
            drop(built.take());
            *start = Instant::now();
            built.insert(Store::build(docs).unwrap()).postings()
        });
    }
    for (lines, name) in COMPACT.into_iter().zip(&compact) {
        let mut store = Store::build(needle_corpus(lines, 10, 12)).unwrap();
        let mut compactions = 0u64;
        run.measure_from(name, |start| {
            // Two texts a slot, alternating, so every batch changes them all.
            for i in 0..UPDATES {
                let line = needle_line(false, 1_000 + i as u64 + compactions % 2 * 7_919);
                store.update((i * 29 % lines) as u32, line.text()).unwrap();
            }
            assert_eq!(store.compactions(), compactions, "the batch compacted");
            *start = Instant::now();
            store.compact();
            compactions += 1;
            store.postings()
        });
    }
}

/// `incr/*`: a maintained [`QueryView`] answers the hot re-query after a
/// mutation batch by re-evaluating only the changed documents. It is
/// measured against the unindexed full scan and against the cold *indexed*
/// query — the layer the view sits on, and the one it has to beat to earn
/// its place. `hotread` is the re-query alone: the same batch cycle as
/// `hot`, applied before the clock starts. The four rows of a sweep point
/// share one store.
pub fn incr(run: &mut Run) {
    index_upkeep(run);
    const LINES: [usize; 5] = [10_000, 10_000, 100_000, 100_000, 100_000];
    const BATCH: [usize; 5] = [1, 10, 1, 10, 100];
    let named = |i| move |read| format!("incr/lines-{}/batch-{}/{read}", LINES[i], BATCH[i]);
    let reads = ["hot", "coldindexed", "coldfull", "hotread"];
    let names = [0, 1, 2, 3, 4].map(|i| reads.map(named(i)));
    let Some(names) = run.rows(names) else { return };
    let pattern = parse(".*needle {x:\\l+}.*").unwrap();
    let inst = Instantiation::new().with(0, pattern);
    let options = RaOptions::default();
    let engine = CorpusEngine::compile(&RaTree::leaf(0), &inst, options).unwrap();
    for (i, [hot, coldindexed, coldfull, hotread]) in names.iter().enumerate() {
        let (lines, batch) = (LINES[i], BATCH[i]);
        let mut store = Store::build(needle_corpus(lines, 10, 42)).unwrap();
        let mut view = QueryView::unbounded();
        // The steady state of a served query is warm-with-mutations.
        store.query_view_matches(&engine, &mut view, 1).unwrap();

        // The `nth` run's batch of `batch` scattered updates. The runs
        // cycle over three batches of documents, each turn writing a text
        // salted by the turns still to come, so every run changes `batch`
        // documents and the last three leave the corpus as the original
        // three-run script did — the counts stay comparable across PRs, and
        // a second cycle ends on the corpus the first one left.
        let apply = |store: &mut Store, nth: u64| {
            let (slot, turns_left) = (nth % 3, (RUNS as u64 - 1 - nth) / 3);
            for i in 0..batch as u64 {
                let id = ((slot * batch as u64 + i) * 37 % lines as u64) as u32;
                let seed = 1_000 + slot * 131 + i + turns_left * 7_919;
                let line = needle_line((slot + i).is_multiple_of(2), seed);
                let text = line.text().to_string();
                store.apply(&Mutation::Update { id, text }).unwrap();
            }
        };

        // Hot: apply the batch, then re-query through the view; the upkeep
        // is part of the cost, so it is inside the clock (and timed on its
        // own as well, for the bar below).
        let (mut nth, mut delta_docs) = (0, 0);
        let mut applies = Vec::with_capacity(RUNS);
        let hot = run.measure(hot, || {
            let start = Instant::now();
            apply(&mut store, nth);
            applies.push(start.elapsed().as_nanos() as u64);
            nth += 1;
            let answer = store.query_view_matches(&engine, &mut view, 1).unwrap();
            delta_docs = answer.delta_docs;
            answer.output.stats.mappings
        });
        assert_eq!(delta_docs, batch, "a batch touches exactly its documents");
        let by_index = || store.query_matches(&engine, 1).unwrap().output;
        let indexed = run.measure(coldindexed, || by_index().stats.mappings);
        let full = |store: &Store| scanned(&engine, store.documents(), 1);
        let full_scan = run.measure(coldfull, || full(&store).stats.mappings);

        // Read alone: the same cycle again, the batch outside the clock.
        let mut nth = 0;
        let read = run.measure_from(hotread, |start| {
            apply(&mut store, nth);
            nth += 1;
            *start = Instant::now();
            let answer = store.query_view_matches(&engine, &mut view, 1).unwrap();
            delta_docs = answer.delta_docs;
            answer.output.stats.mappings
        });
        assert_eq!(delta_docs, batch, "a batch touches exactly its documents");
        let ratio = indexed.median_ns as f64 / read.median_ns as f64;
        println!("    cold indexed / hot read alone: {ratio:.2}x");

        // Bit-identical: view-backed == full pass == from-scratch rebuild.
        let viewed = store.query_view_matches(&engine, &mut view, 1).unwrap();
        let viewed = viewed.output.into_dense().results;
        assert_eq!(
            viewed,
            full(&store).into_dense().results,
            "view != full scan"
        );
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        let rebuilt = rebuilt.query_matches(&engine, 1).unwrap().output;
        assert_eq!(viewed, rebuilt.into_dense().results, "store != its rebuild");

        // The index needs the batch applied as much as the view does, so the
        // view's bar is the batch plus the cold indexed query; the bar is the
        // gate's: past the tolerance and past the noise.
        applies.sort_unstable();
        let apply_ns = applies[RUNS / 2];
        println!("    of hot, the batch alone: {} ms", ms(apply_ns));
        let bar = (1.0 + TOLERANCE) * (apply_ns + indexed.median_ns) as f64;
        let noise = NOISE_MADS * hot.mad_ns.max(indexed.mad_ns);
        let behind = hot.median_ns.saturating_sub(bar as u64);
        assert!(behind <= noise, "the view loses to the index");
        // Both layers' acceptance bar, against the weakest baseline: an order
        // of magnitude over the cold full scan for a selective query (0.1 %
        // of the lines hit) over 100k lines.
        let lead = full_scan.median_ns / hot.median_ns.max(indexed.median_ns);
        let selective = lines >= 100_000 && batch <= 10;
        assert!(!selective || lead >= 10, "view or index only {lead}x");
    }
}

/// `serve/*`: what the daemon's answer costs to render — the mappings of
/// one `point-hot` answer (the hot program on one document) and of a
/// 64-line `scan-hit` answer (one mapping of two variables per line), as an
/// array of per-line arrays — through the reference tree
/// (`mappings_to_json` + `to_string`, how the daemon rendered until it
/// wrote its answers) and through `write_mappings` into a warmed buffer,
/// the daemon's writer. `count` is the bytes rendered; the two must agree
/// on every one of them.
pub fn serve(run: &mut Run) {
    let named = |doc| move |how| format!("serve/render/{how}/{doc}");
    let names = ["point", "scan"].map(|doc| ["tree", "write"].map(named(doc)));
    let Some(names) = run.rows(names) else { return };
    let hot = PreparedQuery::prepare(&program_library()[0]).unwrap();
    let point = vec![Document::new("ann@mail.example.org wrote to the list")];
    let point_sets = vec![hot.evaluate(&point[0]).unwrap()];
    let scan = split_lines(access_log(64, 11).text());
    let log = PreparedQuery::prepare(LOG_QUERY).unwrap();
    let scan_sets = scan.iter().map(|doc| log.evaluate(doc).unwrap()).collect();
    let answers: [(Vec<Document>, Vec<MappingSet>); 2] = [(point, point_sets), (scan, scan_sets)];
    let mappings = |sets: &[MappingSet]| sets.iter().map(MappingSet::len).sum::<usize>();
    assert_eq!((mappings(&answers[0].1), mappings(&answers[1].1)), (1, 64));
    for ((docs, sets), [tree, write]) in answers.iter().zip(&names) {
        let tree_rendered = || {
            let render = |(doc, set)| mappings_to_json(doc, set);
            Json::Array(docs.iter().zip(sets).map(render).collect()).to_string()
        };
        let write_into = |out: &mut Vec<u8>| {
            out.push(b'[');
            for (i, (doc, set)) in docs.iter().zip(sets).enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_mappings(out, doc, set);
            }
            out.push(b']');
        };
        let mut out = Vec::new();
        write_into(&mut out);
        assert_eq!(out, tree_rendered().into_bytes(), "{write} != {tree}");
        let tree = run.measure(tree, || tree_rendered().len());
        let write = run.measure(write, || {
            out.clear();
            write_into(&mut out);
            out.len()
        });
        let lead = tree.median_ns as f64 / write.median_ns.max(1) as f64;
        assert!(lead >= 3.0, "the writer leads the tree by only {lead:.1}x");
    }
}
