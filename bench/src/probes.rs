//! Layer probes: the calls a replayed request makes *inside* the crates it
//! enters, made here one layer at a time on the workload's own programs and
//! documents.
//!
//! The replay's spans stop at the first public function a request calls
//! (`PreparedQuery::evaluate`, `Store::query_view`, …). What that call
//! spends in `rgx`, `vset`, `enum`, `algebra` and `store` is measured by
//! calling those crates' public functions directly, each under its own
//! span, so a later change to one layer has a number of its own to move.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{apply_write, Action, Op, Workload, THREADS};
use spanner_algebra::{CompiledPlan, PhysOp};
use spanner_core::Document;
use spanner_corpus::QueryView;
use spanner_enum::{evaluate_compiled, Enumerator, MatchGraph};
use spanner_obs::{Counter, Histogram, LATENCY_BUCKETS};
use spanner_ql::lexer::{tokenize, Tok};
use spanner_ql::{parse_program, PreparedQuery};
use spanner_store::Store;
use spanner_vset::{CompiledVsa, PreScan};
use spanner_workloads::needle_line;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Distinct programs the compile and store probes run on.
const MAX_PROGRAMS: usize = 24;
/// (program, document) pairs the evaluation probes run on.
const MAX_PAIRS: usize = 600;
/// Repetitions of the probes that time one whole-store call.
const STORE_REPS: usize = 5;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What the probes run on: the sample's distinct programs and a bounded
/// set of (program index, document) pairs.
struct Inputs {
    programs: Vec<String>,
    pairs: Vec<(usize, Document)>,
}

fn inputs(w: &Workload, sample: &[&Op]) -> Inputs {
    let mut programs: Vec<String> = Vec::new();
    let mut pairs = Vec::new();
    let mut slot = |program: &str| -> Option<usize> {
        match programs.iter().position(|p| p == program) {
            Some(at) => Some(at),
            None if programs.len() < MAX_PROGRAMS => {
                programs.push(program.to_string());
                Some(programs.len() - 1)
            }
            None => None,
        }
    };
    for op in sample {
        match &op.action {
            Action::Query { program, doc } => {
                if let (Some(p), true) = (slot(program), pairs.len() < MAX_PAIRS) {
                    pairs.push((p, Document::new(doc.as_str())));
                }
            }
            Action::QueryText { program, text } => {
                if let Some(p) = slot(program) {
                    let room = MAX_PAIRS.saturating_sub(pairs.len());
                    pairs.extend(text.lines().take(room).map(|l| (p, Document::new(l))));
                }
            }
            Action::QueryStore { program } => {
                slot(program);
            }
            _ => {}
        }
    }
    if w.corpus.is_some() && !programs.is_empty() {
        // Store programs meet corpus lines: a stride through the corpus,
        // the programs in turn.
        let docs = w.corpus_docs();
        let stride = docs.len().div_ceil(MAX_PAIRS).max(1);
        pairs = docs
            .into_iter()
            .step_by(stride)
            .enumerate()
            .map(|(i, doc)| (i % programs.len(), doc))
            .collect();
    }
    Inputs { programs, pairs }
}

/// The compiled automata at the leaves of a plan.
fn leaves(plan: &CompiledPlan) -> Vec<Arc<CompiledVsa>> {
    fn walk(op: &PhysOp, out: &mut Vec<Arc<CompiledVsa>>) {
        if let PhysOp::CompiledScan { compiled, .. } = op {
            out.push(Arc::clone(compiled));
        }
        for child in op.children() {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    walk(plan.physical().root(), &mut out);
    out
}

/// Runs every probe that applies to the workload and records its metrics.
pub fn run(w: &Workload, sample: &[&Op], t: &mut Tracer, m: &mut Metrics) -> io::Result<()> {
    let inputs = inputs(w, sample);
    t.next_request();
    let prepared = compile_probes(&inputs.programs, t, m);
    t.next_request();
    evaluation_probes(&inputs, &prepared, t, m);
    if w.corpus.is_some() {
        t.next_request();
        store_probes(w, &prepared, t, m)?;
    }
    t.next_request();
    let (counter, histogram) = (Counter::new(), Histogram::new(LATENCY_BUCKETS));
    const OBSERVATIONS: usize = 10_000;
    let ((), seconds) = t.timed("obs.observe", || {
        for i in 0..OBSERVATIONS {
            histogram.observe(i as f64 * 1e-6);
            counter.add(1);
        }
    });
    m.insert("obs.observe_ns", seconds * 1e9 / OBSERVATIONS as f64);
    Ok(())
}

/// The compile pipeline, one stage at a time, per distinct program; each
/// metric is the median over programs of the program's total for the stage.
fn compile_probes(programs: &[String], t: &mut Tracer, m: &mut Metrics) -> Vec<PreparedQuery> {
    let options = crate::replay::ra_options();
    let (mut rgx_us, mut lower_us, mut vset_us, mut plan_ms, mut prepare_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut prepared = Vec::with_capacity(programs.len());
    for program in programs {
        let sources: Vec<String> = tokenize(program)
            .expect("workload programs tokenize")
            .into_iter()
            .filter_map(|token| match token.tok {
                Tok::Regex(source) => Some(source),
                _ => None,
            })
            .collect();
        let (formulas, seconds) = t.timed("rgx.parse", || {
            sources
                .iter()
                .map(|s| spanner_rgx::parse(s).expect("workload regexes parse"))
                .collect::<Vec<_>>()
        });
        rgx_us.push(seconds * 1e6);
        let (lowered, seconds) = t.timed("ql.parse_lower", || {
            parse_program(program)
                .and_then(|p| p.lower())
                .expect("workload programs lower")
        });
        lower_us.push(seconds * 1e6);
        let (_, seconds) = t.timed("vset.compile", || {
            formulas
                .iter()
                .map(|f| CompiledVsa::compile(&spanner_vset::compile(f)))
                .collect::<Vec<_>>()
        });
        vset_us.push(seconds * 1e6);
        let (_, seconds) = t.timed("algebra.plan_compile", || {
            CompiledPlan::compile(&lowered.tree, &lowered.inst, options)
                .expect("workload programs compile")
        });
        plan_ms.push(seconds * 1e3);
        let (query, seconds) = t.timed("ql.prepare", || {
            PreparedQuery::prepare_with_options(program, options)
                .expect("workload programs prepare")
        });
        prepare_ms.push(seconds * 1e3);
        prepared.push(query);
    }
    m.insert("rgx.parse_us", median(&rgx_us));
    m.insert("ql.parse_lower_us", median(&lower_us));
    m.insert("vset.compile_us", median(&vset_us));
    m.insert("algebra.plan_compile_ms", median(&plan_ms));
    m.insert("ql.prepare_ms", median(&prepare_ms));
    prepared
}

/// The per-document pipeline below `PreparedQuery::evaluate`: boolean
/// pre-pass, match-graph build, enumeration, and the relational operators
/// above the leaves.
fn evaluation_probes(inputs: &Inputs, prepared: &[PreparedQuery], t: &mut Tracer, m: &mut Metrics) {
    let plan_leaves: Vec<Vec<Arc<CompiledVsa>>> =
        prepared.iter().map(|q| leaves(q.plan())).collect();
    // Classified untimed, so the timed batches are all-hit and all-miss.
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (p, doc) in &inputs.pairs {
        for leaf in &plan_leaves[*p] {
            if leaf.prescan(doc) == PreScan::Accept {
                hits.push((leaf, doc));
            } else {
                misses.push((leaf, doc));
            }
        }
    }
    let bytes = |batch: &[(&Arc<CompiledVsa>, &Document)]| -> f64 {
        batch.iter().map(|(_, d)| d.len()).sum::<usize>().max(1) as f64
    };
    for (name, span, batch) in [
        ("vset.prescan_hit_ns_per_byte", "vset.prescan_hit", &hits),
        (
            "vset.prescan_miss_ns_per_byte",
            "vset.prescan_miss",
            &misses,
        ),
    ] {
        if batch.is_empty() {
            continue;
        }
        let (_, seconds) = t.timed(span, || {
            batch
                .iter()
                .filter(|(leaf, doc)| leaf.prescan(doc) == PreScan::Accept)
                .count()
        });
        m.insert(name, seconds * 1e9 / bytes(batch));
    }
    if !hits.is_empty() {
        let (_, seconds) = t.timed("enum.graph_build", || {
            hits.iter()
                .filter(|(leaf, doc)| {
                    MatchGraph::from_compiled(leaf, doc).is_ok_and(|g| g.is_nonempty())
                })
                .count()
        });
        m.insert("enum.graph_build_ns_per_byte", seconds * 1e9 / bytes(&hits));
        // Enumerators are built first, so the timed part is the drain alone.
        let enumerators: Vec<Enumerator> = hits
            .iter()
            .map(|(leaf, doc)| Enumerator::from_compiled(leaf, doc).expect("hits enumerate"))
            .collect();
        let (mappings, seconds) = t.timed("enum.enumerate", || {
            enumerators.into_iter().map(Iterator::count).sum::<usize>()
        });
        m.insert(
            "enum.enumerate_ns_per_mapping",
            seconds * 1e9 / mappings.max(1) as f64,
        );
    }
    // The paper's delay: time to the first mapping and the longest gap
    // between two mappings, per document, through the whole plan.
    let (mut first_us, mut delay_us) = (Vec::new(), Vec::new());
    t.span("enum.stream", |_| {
        for (p, doc) in &inputs.pairs {
            let mut last = Instant::now();
            let Ok(stream) = prepared[*p].stream(doc) else {
                continue;
            };
            let mut gaps = Vec::new();
            for _ in stream {
                let now = Instant::now();
                gaps.push((now - last).as_secs_f64() * 1e6);
                last = now;
            }
            if let Some(&first) = gaps.first() {
                first_us.push(first);
                delay_us.push(gaps.iter().copied().fold(0.0, f64::max));
            }
        }
    });
    m.insert("enum.first_mapping_us", median(&first_us));
    m.insert("enum.max_delay_us", median(&delay_us));
    // Operators above the leaves, on the first plan that has any (the hot
    // join + minus plan on point-hot): the plan's time minus its leaves'.
    let Some(p) = (0..prepared.len())
        .find(|&p| plan_leaves[p].len() > 1)
        .or(if prepared.is_empty() { None } else { Some(0) })
    else {
        return;
    };
    let docs: Vec<&Document> = inputs
        .pairs
        .iter()
        .filter(|(q, _)| *q == p)
        .map(|(_, d)| d)
        .collect();
    if docs.is_empty() {
        return;
    }
    let physical = prepared[p].plan().physical();
    let (_, execute) = t.timed("algebra.execute", || {
        docs.iter().filter(|d| physical.execute(d).is_ok()).count()
    });
    // Leaves the way the executor runs them: pre-pass first, enumeration
    // only on an accept.
    let (_, leaf_time) = t.timed("enum.evaluate_leaves", || {
        docs.iter()
            .flat_map(|d| plan_leaves[p].iter().map(move |leaf| (leaf, d)))
            .filter(|(leaf, d)| {
                leaf.prescan(d) == PreScan::Accept && evaluate_compiled(leaf, d).is_ok()
            })
            .count()
    });
    let per_doc = 1e6 / docs.len() as f64;
    m.insert("algebra.execute_us_per_doc", execute * per_doc);
    m.insert(
        "algebra.operator_self_us_per_doc",
        (execute - leaf_time).max(0.0) * per_doc,
    );
}

/// Whole-store calls: build, candidates, cold and view-backed queries,
/// compaction, persistence — and on `store-churn` the write path over the
/// run's whole mutation stream.
fn store_probes(
    w: &Workload,
    prepared: &[PreparedQuery],
    t: &mut Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let docs = w.corpus_docs();
    let (store, seconds) = t.timed("store.build", || {
        Store::build(docs.clone()).expect("corpus fits a store")
    });
    let mut store = store;
    m.insert("store.build_ms", seconds * 1e3);
    let (mut candidates_us, mut candidates, mut selectivity, mut cold_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for query in prepared {
        let literals = query.plan().required_literals();
        let (found, seconds) = t.timed("store.candidates", || store.candidates(&literals));
        let count = found.map_or(store.len(), |c| c.len());
        candidates_us.push(seconds * 1e6);
        candidates.push(count as f64);
        selectivity.push(count as f64 / store.len().max(1) as f64);
        let (_, seconds) = t.timed("store.query_cold", || {
            store
                .query(query.engine(), THREADS)
                .expect("workload programs evaluate")
        });
        cold_ms.push(seconds * 1e3);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.insert("store.candidates_us", median(&candidates_us));
    m.insert("store.candidates_per_query", mean(&candidates));
    m.insert("store.selectivity", mean(&selectivity));
    m.insert("store.query_cold_ms", median(&cold_ms));
    if let Some(hot) = prepared.first() {
        let engine = hot.engine();
        let mut view = QueryView::new(1 << 20);
        store
            .query_view(engine, &mut view, THREADS)
            .expect("hot program evaluates");
        // A warmed view and nothing changed: the walk over every document's
        // hash is all that is left.
        let walks: Vec<f64> = (0..STORE_REPS)
            .map(|_| {
                let (_, seconds) = t.timed("corpus.delta_walk", || {
                    engine
                        .evaluate_delta(
                            store.documents(),
                            store.doc_hashes(),
                            None,
                            &mut view,
                            THREADS,
                        )
                        .expect("hot program evaluates")
                });
                seconds * 1e3
            })
            .collect();
        m.insert("corpus.delta_walk_ms", median(&walks));
        let (mut after_1, mut after_10) = (Vec::new(), Vec::new());
        let mut next = 0u32;
        for _ in 0..STORE_REPS {
            for (mutations, out) in [(1, &mut after_1), (10, &mut after_10)] {
                for _ in 0..mutations {
                    next += 1;
                    let id = next * 37 % store.len() as u32;
                    store
                        .update(id, needle_line(false, next as u64).text())
                        .expect("id in range");
                }
                let (_, seconds) = t.timed("store.query_view", || {
                    store
                        .query_view(engine, &mut view, THREADS)
                        .expect("hot program evaluates")
                });
                out.push(seconds * 1e3);
            }
        }
        m.insert("store.query_view_1_ms", median(&after_1));
        m.insert("store.query_view_10_ms", median(&after_10));
    }
    let ((), seconds) = t.timed("store.compact", || store.compact());
    m.insert("store.compact_ms", seconds * 1e3);
    std::fs::create_dir_all(crate::OUT_DIR)?;
    let path = format!("{}/{}.seg", crate::OUT_DIR, w.name);
    let (saved, seconds) = t.timed("store.save", || store.save(&path));
    saved.map_err(io::Error::other)?;
    m.insert("store.save_ms", seconds * 1e3);
    let (loaded, seconds) = t.timed("store.load", || Store::load(&path));
    let loaded = loaded.map_err(io::Error::other)?;
    m.insert("store.load_ms", seconds * 1e3);
    m.insert(
        "store.file_bytes_per_user_byte",
        std::fs::metadata(&path)?.len() as f64 / loaded.bytes().max(1) as f64,
    );
    // The write path under the run's own mutation stream, compactions
    // included: every write of the whole stream applied to a fresh store.
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut fresh = Store::build(docs).expect("corpus fits a store");
    t.span("store.apply_stream", |_| {
        for op in w.stream().filter(|op| !op.is_read()) {
            let kind = match op.action {
                Action::Append { .. } => 0,
                Action::Update { .. } => 1,
                _ => 2,
            };
            let start = Instant::now();
            apply_write(&mut fresh, &op.action);
            by_kind[kind].push(start.elapsed().as_secs_f64() * 1e6);
        }
    });
    if by_kind.iter().any(|k| !k.is_empty()) {
        m.insert("store.append_us", median(&by_kind[0]));
        m.insert("store.update_us", median(&by_kind[1]));
        m.insert("store.delete_us", median(&by_kind[2]));
        m.insert("store.compactions", fresh.compactions() as f64);
        let stall = by_kind.iter().flatten().copied().fold(0.0, f64::max);
        m.insert("store.compact_stall_ms", stall / 1e3);
    }
    Ok(())
}
