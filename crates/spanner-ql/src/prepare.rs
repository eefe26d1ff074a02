//! Prepared queries: parse + lower + optimize + compile once, evaluate many.
//!
//! [`PreparedQuery::prepare`] runs the whole front half of the pipeline —
//! tokenize, parse, lower to `RaTree` + `Instantiation`, optimize with
//! `spanner_algebra::optimize_ra`, compile to a [`CompiledPlan`] (which
//! lowers onto the physical operator executor) — exactly once. The handle
//! then evaluates any number of documents through that one executor: single
//! documents stream through the operator pull pipeline (polynomial delay on
//! static plans, via [`CompiledPlan::stream`]), corpora shard across the
//! scoped workers of a [`CorpusEngine`].

use crate::error::QlError;
use crate::lower::Lowered;
use crate::parser::{parse_program, Program};
use spanner_algebra::{
    shared_variable_bound, tree_vars, CompiledPlan, ExecTrace, Instantiation, OpStream, PhysOp,
    RaOptions, RaTree,
};
use spanner_core::{Document, MappingSet, SpannerResult, VarSet};
use spanner_corpus::{CorpusEngine, CorpusMatches, CorpusResult, WorkerPool};

/// A compiled SpannerQL query, ready for repeated evaluation.
///
/// `PreparedQuery` is `Send + Sync` and immutable after
/// [`PreparedQuery::prepare`]: wrap it in an [`Arc`](std::sync::Arc) and
/// any number of threads can evaluate against the one compiled plan
/// concurrently — the sharing model of the `spanner-serve` prepared-query
/// cache.
pub struct PreparedQuery {
    program: Program,
    lowered: Lowered,
    engine: CorpusEngine,
    vars: VarSet,
    bound_before: usize,
    bound_after: usize,
}

/// Everything inside a prepared query is read-only after compilation; the
/// serving layer shares one `Arc<PreparedQuery>` across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedQuery>();
};

impl PreparedQuery {
    /// Parses, lowers, optimizes, and compiles a program with the default
    /// [`RaOptions`].
    ///
    /// ```
    /// use spanner_core::Document;
    /// use spanner_ql::PreparedQuery;
    ///
    /// let q = PreparedQuery::prepare("let a = /{x:a+}b/; project x (a);").unwrap();
    /// let out = q.evaluate(&Document::new("aab")).unwrap();
    /// assert_eq!(out.len(), 1);
    /// ```
    pub fn prepare(src: &str) -> Result<PreparedQuery, QlError> {
        PreparedQuery::prepare_with_options(src, RaOptions::default())
    }

    /// The canonical cache key for a program text: the source with leading
    /// and trailing whitespace trimmed, otherwise byte-identical.
    ///
    /// The serving layer keys its prepared-query cache on this. No deeper
    /// normalization is attempted — two programs that differ in interior
    /// whitespace or comments are different keys even though they compile
    /// to the same plan; a false *split* only costs a duplicate cache
    /// entry, whereas any unsound merge would serve wrong results.
    pub fn cache_key(src: &str) -> &str {
        src.trim()
    }

    /// [`PreparedQuery::prepare`] with explicit evaluation options (the
    /// differential tests prepare with the optimizer off):
    /// [`PreparedQuery::compile`] with its join products built.
    pub fn prepare_with_options(src: &str, options: RaOptions) -> Result<PreparedQuery, QlError> {
        let query = PreparedQuery::compile(src, options)?;
        query.plan().build_products()?;
        Ok(query)
    }

    /// [`PreparedQuery::prepare_with_options`] for a program that may be
    /// answered once: its join products are deferred
    /// ([`CompiledPlan::compile`]) until it has been asked for enough
    /// documents or [`CompiledPlan::build_products`] is called. The serving
    /// layer compiles every program this way, and builds its products when
    /// `prepare` or `explain` asks for it.
    pub fn compile(src: &str, options: RaOptions) -> Result<PreparedQuery, QlError> {
        let program = parse_program(src)?;
        let lowered = program.lower()?;
        let vars = tree_vars(&lowered.tree, &lowered.inst)?;
        let bound_before = shared_variable_bound(&lowered.tree, &lowered.inst)?;
        let plan = CompiledPlan::compile(&lowered.tree, &lowered.inst, options)?;
        let engine = CorpusEngine::from_plan(plan);
        let bound_after = shared_variable_bound(engine.plan().tree(), &lowered.inst)?;
        Ok(PreparedQuery {
            program,
            lowered,
            engine,
            vars,
            bound_before,
            bound_after,
        })
    }

    /// Evaluates the query on one document into a materialized relation.
    pub fn evaluate(&self, doc: &Document) -> SpannerResult<MappingSet> {
        self.engine.plan().evaluate(doc)
    }

    /// [`PreparedQuery::evaluate`] with a per-operator execution trace
    /// (the same executor under a recording
    /// [`Observer`](spanner_algebra::Observer)); the trace is returned
    /// alongside the result, also on error.
    pub fn evaluate_traced(&self, doc: &Document) -> (SpannerResult<MappingSet>, ExecTrace) {
        self.engine.plan().evaluate_observed(doc)
    }

    /// Streams the query's mappings on one document (polynomial delay for
    /// fully static plans).
    pub fn stream<'a>(&'a self, doc: &'a Document) -> SpannerResult<OpStream<'a>> {
        self.engine.plan().stream(doc)
    }

    /// Evaluates the query over a corpus, sharded across `threads` workers
    /// (`0` = one per CPU): the non-empty relations in corpus order,
    /// bit-identical for every thread count.
    pub fn scan_corpus(&self, docs: &[Document], threads: usize) -> SpannerResult<CorpusMatches> {
        self.engine.scan(docs, threads)
    }

    /// [`PreparedQuery::scan_corpus`], dense: kept for the frozen `bench/`
    /// package, which calls it by this name and reads
    /// `CorpusResult.results`; ROADMAP item 1(i) deletes it (see
    /// [`CorpusMatches::into_dense`]).
    pub fn evaluate_corpus(
        &self,
        docs: &[Document],
        threads: usize,
    ) -> SpannerResult<CorpusResult> {
        self.scan_corpus(docs, threads)
            .map(CorpusMatches::into_dense)
    }

    /// [`PreparedQuery::evaluate_corpus`] on `pool.threads()` workers: a
    /// forward kept **by name only**, for the frozen `bench/` package (see
    /// [`WorkerPool`]) — there is no pool behind it.
    pub fn evaluate_corpus_on_pool(
        &self,
        docs: &[Document],
        pool: &WorkerPool,
    ) -> SpannerResult<CorpusResult> {
        self.evaluate_corpus(docs, pool.threads())
    }

    /// The corpus engine wrapping the compiled plan — the handle the
    /// index-aware and incremental paths take
    /// (`spanner_store::Store::query_matches` / `query_view_matches`,
    /// [`CorpusEngine::scan_delta`]).
    pub fn engine(&self) -> &CorpusEngine {
        &self.engine
    }

    /// A one-line outline of the compiled plan — static/dynamic shape,
    /// operator count, output variables, and the planned shared-variable
    /// bound. The serving layer reports this from `prepare` and `stats`
    /// responses without paying for the full multi-line
    /// [`PreparedQuery::explain`].
    pub fn plan_outline(&self) -> String {
        let plan = self.engine.plan();
        let operators = plan.physical().root().operator_count();
        let vars: Vec<String> = self.vars.iter().map(|v| v.to_string()).collect();
        format!(
            "{} plan, {} operator{}, vars {{{}}}, bound {}",
            if plan.is_static() {
                "static"
            } else {
                "dynamic"
            },
            operators,
            if operators == 1 { "" } else { "s" },
            vars.join(","),
            self.bound_after,
        )
    }

    /// The compiled physical plan.
    pub fn plan(&self) -> &CompiledPlan {
        self.engine.plan()
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The RA tree exactly as the program wrote it (before optimization).
    pub fn tree(&self) -> &RaTree {
        &self.lowered.tree
    }

    /// The atom assignment shared by both trees.
    pub fn instantiation(&self) -> &Instantiation {
        &self.lowered.inst
    }

    /// The declared output variables of the query.
    pub fn vars(&self) -> &VarSet {
        &self.vars
    }

    /// A human-readable explanation: the query as written, the leaf
    /// bindings, the optimized tree, the shared-variable bound before and
    /// after planning, whether the plan compiled statically, and the lowered
    /// physical operator tree the executor runs.
    pub fn explain(&self) -> String {
        let plan = self.engine.plan();
        let physical = plan.physical();
        let operators = physical.root().operator_count();
        let vars: Vec<String> = self.vars.iter().map(|v| v.to_string()).collect();
        let mut out = String::new();
        out.push_str(&format!("query      : {}\n", self.lowered.tree));
        for (id, name) in self.lowered.leaf_names.iter().enumerate() {
            out.push_str(&format!("  ?{id} = {name}\n"));
        }
        out.push_str(&format!("output vars: {{{}}}\n", vars.join(", ")));
        out.push_str(&format!(
            "shared-variable bound (Lemma 3.2): {} before planning, {} after\n",
            self.bound_before, self.bound_after
        ));
        out.push_str(&format!(
            "optimized  : {}\n{}\n",
            plan.tree(),
            plan.tree().describe(&self.lowered.inst)
        ));
        out.push_str(&format!(
            "plan       : {} ({})\n",
            if plan.is_static() {
                "static — one compiled scan, zero per-document composition"
            } else {
                "dynamic — relational operators over compiled scans"
            },
            if plan.is_static() {
                "Theorem 5.2"
            } else {
                "Theorem 5.2 / Corollary 5.3, executor"
            },
        ));
        out.push_str(&format!(
            "physical   : {} operator{}\n{}\n",
            operators,
            if operators == 1 { "" } else { "s" },
            physical.describe()
        ));
        let mut scans = Vec::new();
        scan_plan_lines(physical.root(), &mut scans);
        out.push_str(&format!(
            "scan plan  : {} compiled scan{}\n",
            scans.len(),
            if scans.len() == 1 { "" } else { "s" },
        ));
        for line in &scans {
            out.push_str(line);
            out.push('\n');
        }
        // Plan-level required literals: what a corpus index can prune on.
        let literals = plan.required_literals();
        if literals.is_empty() {
            out.push_str("literals   : none (an indexed store falls back to a full scan)\n");
        } else {
            let rendered: Vec<String> = literals
                .iter()
                .map(|l| format!("{:?}", String::from_utf8_lossy(l)))
                .collect();
            out.push_str(&format!("literals   : {}\n", rendered.join(" ")));
        }
        out
    }

    /// The `explain --analyze` text of a run of the query on `doc`:
    /// [`PreparedQuery::explain`], then the measured per-operator tree —
    /// rows produced, inclusive wall time, prescan verdicts, join build
    /// sizes, limit trips. A failing evaluation still
    /// reports its (partial) trace, with the error on the `analyze` line,
    /// so `LimitExceeded` trips stay diagnosable. The serving layer
    /// evaluates once through [`PreparedQuery::evaluate_traced`] and feeds
    /// the same trace to both this rendering and the structured trace
    /// JSON, so the two reports can never disagree.
    pub fn render_analyze(
        &self,
        doc: &Document,
        result: &SpannerResult<MappingSet>,
        trace: &ExecTrace,
    ) -> String {
        let mut out = self.explain();
        match result {
            Ok(set) => out.push_str(&format!(
                "analyze    : {} mapping{} in {:.3}ms on a {}-byte document\n",
                set.len(),
                if set.len() == 1 { "" } else { "s" },
                trace.nanos as f64 / 1e6,
                doc.len(),
            )),
            Err(e) => out.push_str(&format!("analyze    : error: {e}\n")),
        }
        for line in trace.render().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Appends one line per [`PhysOp::CompiledScan`] in the operator tree (in
/// operator order): the static prefilters the scan fast path derived at
/// compile time — minimum accepted length, anchored-prefix byte class,
/// required byte factors — its required literals, and how far its
/// evaluation tables have grown.
fn scan_plan_lines(op: &PhysOp, out: &mut Vec<String>) {
    match op {
        PhysOp::CompiledScan {
            compiled,
            fast_path,
            ..
        } => {
            let plan = compiled.scan_plan();
            let mut parts = Vec::new();
            match plan.min_len() {
                None => parts.push("empty language (always skipped)".to_string()),
                Some(n) => parts.push(format!("min_len={n}")),
            }
            if let Some(class) = plan.prefix_class() {
                parts.push(format!("prefix={class:?}"));
            }
            if !plan.required_factors().is_empty() {
                let factors: Vec<String> = plan
                    .required_factors()
                    .iter()
                    .map(|f| format!("{f:?}"))
                    .collect();
                parts.push(format!("factors={}", factors.join("")));
            }
            if !compiled.required_literals().is_empty() {
                let literals: Vec<String> = compiled
                    .required_literals()
                    .iter()
                    .map(|l| format!("{:?}", String::from_utf8_lossy(l)))
                    .collect();
                parts.push(format!("literals={}", literals.join(" ")));
            }
            // The evaluation tables are reported as they are, not forced:
            // they only ever grow from matching documents.
            let tables = compiled.eval_table_stats();
            parts.push(if tables.sets == 0 {
                "eval tables: cold".to_string()
            } else {
                format!(
                    "eval tables: {} sets, {} backward + {} forward cells, {} bytes",
                    tables.sets, tables.back_cells, tables.forward_cells, tables.bytes
                )
            });
            out.push(format!(
                "  scan #{}: fast path {}, {}",
                out.len(),
                if *fast_path { "on" } else { "off" },
                parts.join(", "),
            ));
        }
        inner => inner
            .children()
            .into_iter()
            .for_each(|child| scan_plan_lines(child, out)),
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PreparedQuery({})", self.lowered.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_evaluate_the_readme_query() {
        // Difference is *relational*: the subtracted relation must have the
        // same schema, hence the projection down to `user` on both sides.
        let q = PreparedQuery::prepare(
            "let user = /{user:[a-z]+}@[a-z]+(\\.[a-z]+)*/;\n\
             let host = /[a-z]+@{host:[a-z]+(\\.[a-z]+)*}/;\n\
             project user (user join host) minus /{user:admin[a-z]*}@.*/;",
        )
        .unwrap();
        let doc = Document::new("bob@edu.ru");
        let out = q.evaluate(&doc).unwrap();
        assert_eq!(out.len(), 1);
        let admin = Document::new("adminx@edu.ru");
        assert!(q.evaluate(&admin).unwrap().is_empty());
    }

    #[test]
    fn stream_agrees_with_evaluate() {
        let q = PreparedQuery::prepare("let a = /{x:a+}b*/; a union /{x:b+}/").unwrap();
        for text in ["aab", "bb", ""] {
            let doc = Document::new(text);
            let streamed: MappingSet = q
                .stream(&doc)
                .unwrap()
                .collect::<SpannerResult<Vec<_>>>()
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(streamed, q.evaluate(&doc).unwrap(), "{text:?}");
        }
    }

    #[test]
    fn corpus_evaluation_matches_per_document() {
        let q = PreparedQuery::prepare("/{x:a+}/").unwrap();
        // Long enough for two workers to get a share each.
        let docs: Vec<Document> = ["aa", "b", "a"]
            .iter()
            .cycle()
            .take(300)
            .map(|t| Document::new(*t))
            .collect();
        let out = q.evaluate_corpus(&docs, 2).unwrap();
        assert_eq!(out.stats.threads, 2);
        for (doc, got) in docs.iter().zip(&out.results) {
            assert_eq!(got, &q.evaluate(doc).unwrap());
        }
        // So does the forward `bench/` calls, with the `&Arc<Vec<_>>` it
        // passes.
        let docs = std::sync::Arc::new(docs);
        let pool = WorkerPool::new(2);
        let pooled = q.evaluate_corpus_on_pool(&docs, &pool).unwrap();
        assert_eq!(pooled.stats.threads, 2);
        assert_eq!(pooled.results, out.results);
    }

    #[test]
    fn corpus_delta_evaluation_is_incremental_and_identical() {
        let q = PreparedQuery::prepare("/{x:a+}/").unwrap();
        let mut docs = vec![Document::new("aa"), Document::new("b"), Document::new("a")];
        let hash = |docs: &[Document]| -> Vec<u64> {
            docs.iter()
                .map(|d| spanner_store::fnv1a64(d.bytes()))
                .collect()
        };
        let mut view = spanner_corpus::QueryView::unbounded();
        let cold = q
            .engine()
            .evaluate_delta(&docs, &hash(&docs), None, &mut view, 1)
            .unwrap();
        assert_eq!(
            cold.output.results,
            q.evaluate_corpus(&docs, 1).unwrap().results
        );
        assert_eq!((cold.delta_docs, cold.view_hits), (3, 0));
        // One changed document: only it is re-evaluated, results stay
        // bit-identical to the full pass.
        docs[1] = Document::new("aba");
        let warm = q
            .engine()
            .evaluate_delta(&docs, &hash(&docs), None, &mut view, 2)
            .unwrap();
        assert_eq!(
            (warm.delta_docs, warm.view_hits, warm.invalidated),
            (1, 2, 1)
        );
        assert_eq!(
            warm.output.results,
            q.evaluate_corpus(&docs, 1).unwrap().results
        );
    }

    #[test]
    fn cache_key_trims_only_outer_whitespace() {
        assert_eq!(PreparedQuery::cache_key("  /a/ ;\n"), "/a/ ;");
        // Interior differences stay distinct keys (never merge unsoundly).
        assert_ne!(
            PreparedQuery::cache_key("/a/  union /b/"),
            PreparedQuery::cache_key("/a/ union /b/")
        );
    }

    #[test]
    fn plan_outline_is_one_line() {
        let q = PreparedQuery::prepare("let a = /{x:a+}/; a minus /{x:aa}/;").unwrap();
        let outline = q.plan_outline();
        assert!(!outline.contains('\n'), "{outline}");
        assert!(outline.contains("dynamic plan"), "{outline}");
        assert!(outline.contains("vars {x}"), "{outline}");
        let s = PreparedQuery::prepare("/{x:a}/").unwrap();
        assert!(s.plan_outline().contains("static plan, 1 operator,"));
    }

    #[test]
    fn explain_reports_the_planner_firing_on_a_join_chain() {
        // (?0{x} ⋈ ?1{y}) ⋈ ?2{x,y}: bound 2 as written, 1 after reordering.
        let q = PreparedQuery::prepare(
            "let a = /{x:a}b*/; let b = /a{y:b+}/; let c = /{x:a}{y:b+}/;\n\
             (a join b) join c;",
        )
        .unwrap();
        let explain = q.explain();
        assert!(explain.contains("2 before planning, 1 after"), "{explain}");
        assert!(explain.contains("static"), "{explain}");
        assert!(explain.contains("?0 = a"), "{explain}");
        // The physical outline: a fully static plan is one compiled scan.
        assert!(explain.contains("physical   : 1 operator\n"), "{explain}");
        assert!(explain.contains("CompiledScan("), "{explain}");
    }

    #[test]
    fn explain_outlines_the_physical_operators_of_a_dynamic_plan() {
        let q = PreparedQuery::prepare(
            "let a = /{x:a+}{y:b*}/; let b = /{x:a}b/; project x (a minus b);",
        )
        .unwrap();
        let explain = q.explain();
        assert!(explain.contains("Project{x}"), "{explain}");
        assert!(explain.contains("Difference(anti-join)"), "{explain}");
        assert!(explain.contains("physical   : 4 operators"), "{explain}");
    }

    #[test]
    fn explain_reports_the_scan_plan_per_compiled_scan() {
        let q = PreparedQuery::prepare("let a = /.*{x:a+}@.*/; let b = /.*{x:aa+}@.*/; a minus b;")
            .unwrap();
        let explain = q.explain();
        assert!(
            explain.contains("scan plan  : 2 compiled scans"),
            "{explain}"
        );
        assert!(explain.contains("scan #0: fast path on"), "{explain}");
        assert!(explain.contains("scan #1: fast path on"), "{explain}");
        // Both scans require an 'a' and an '@' somewhere in the document.
        assert!(explain.contains("factors=[@][a]"), "{explain}");
        assert!(explain.contains("min_len="), "{explain}");
        // Nothing has matched yet, so no evaluation table cell exists.
        assert!(explain.contains("eval tables: cold"), "{explain}");
    }

    #[test]
    fn explain_reports_required_literals() {
        let q = PreparedQuery::prepare("/.*needle{x:a+}.*/;").unwrap();
        let explain = q.explain();
        assert!(explain.contains("literals   : "), "{explain}");
        assert!(explain.contains("needle"), "{explain}");
        // Unconstrained plans say so (an indexed store must full-scan).
        let q = PreparedQuery::prepare("/{x:[ab]+}/;").unwrap();
        assert!(q.explain().contains("literals   : none"), "{}", q.explain());
    }

    #[test]
    fn explain_reports_a_disabled_fast_path() {
        let q = PreparedQuery::prepare_with_options(
            "/{x:a+}b/;",
            RaOptions {
                scan_fast_path: false,
                ..RaOptions::default()
            },
        )
        .unwrap();
        let explain = q.explain();
        assert!(
            explain.contains("scan plan  : 1 compiled scan\n"),
            "{explain}"
        );
        assert!(explain.contains("scan #0: fast path off"), "{explain}");
    }

    #[test]
    fn explain_analyze_reports_measured_operator_counters() {
        let q = PreparedQuery::prepare(
            "let a = /{x:a+}{y:b*}/; let b = /{x:a}b/; project x (a minus b);",
        )
        .unwrap();
        let analyze = |text: &str| {
            let doc = Document::new(text);
            let (result, trace) = q.evaluate_traced(&doc);
            q.render_analyze(&doc, &result, &trace)
        };
        // Nothing has been evaluated yet: every scan's tables are cold.
        let explain = q.explain();
        assert_eq!(explain.matches("eval tables: cold").count(), 2, "{explain}");
        let text = analyze("aab");
        // Everything `explain` prints, plus the measured section.
        assert!(text.contains("physical   :"), "{text}");
        assert!(text.contains("analyze    : "), "{text}");
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("prescan_accept=1"), "{text}");
        // The first document fills the scans' evaluation tables; the second
        // finds them.
        assert!(!text.contains("eval_table_cells=0"), "{text}");
        let warm = analyze("aab");
        assert!(warm.contains("backward + "), "{warm}");
        assert!(warm.contains("eval_table_cells=0"), "{warm}");
        // A document the prefilters rule out reports the verdict, not rows.
        let miss = analyze("zzz");
        assert!(miss.contains("prescan_skip=1"), "{miss}");
        assert!(miss.contains("analyze    : 0 mappings"), "{miss}");
    }

    #[test]
    fn traced_query_evaluation_matches_untraced() {
        let q = PreparedQuery::prepare("let a = /{x:a+}b*/; a union /{x:b+}/").unwrap();
        for text in ["aab", "bb", ""] {
            let doc = Document::new(text);
            let (traced, trace) = q.evaluate_traced(&doc);
            assert_eq!(traced.unwrap(), q.evaluate(&doc).unwrap(), "{text:?}");
            assert!(trace.children.len() == 2 || trace.children.is_empty());
        }
        let docs = vec![Document::new("aab"), Document::new("bb")];
        let (out, trace) = q.engine().scan_traced(&docs, 2).unwrap();
        assert_eq!(out.matches, q.scan_corpus(&docs, 2).unwrap().matches);
        assert_eq!(trace.total_rows(), out.stats.mappings as u64);
    }

    #[test]
    fn bound_never_increases_under_planning() {
        let q = PreparedQuery::prepare(
            "let a = /{x:a}{y:b?}/; let b = /{x:a}{z:b?}/; project x (a join b) minus a;",
        )
        .unwrap();
        let bound = |tree| shared_variable_bound(tree, q.instantiation()).unwrap();
        assert!(bound(q.plan().tree()) <= bound(q.tree()));
    }

    #[test]
    fn compile_errors_surface_as_ql_errors() {
        // A sequential program whose static join product passes the
        // planner's automaton state cap while it is built.
        let class = "[ab]".repeat(1000);
        let program = format!("let a = /.*{{x:{class}}}.*/; let b = /.*{{y:{class}}}.*/; a join b");
        let err = PreparedQuery::prepare(&program).unwrap_err();
        assert!(
            err.message
                .contains("join product states limit exceeded: 32769 > 32768"),
            "{err}"
        );
    }
}
