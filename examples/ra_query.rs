//! RA trees with black-box spanners (the paper's Section 5, Examples 5.1 and 5.4).
//!
//! Builds the Figure 2 query tree `π_{student}((mail ⋈ phone) \ rec)` over a
//! student corpus, first with a regex-formula recommendation extractor and
//! then with a *black-box* sentiment spanner in its place (Example 5.4):
//! "students that have no positive recommendation".
//!
//! Run with: `cargo run --release --example ra_query [lines]`

use document_spanners::prelude::*;
use document_spanners::workloads;
use spanner_algebra::{optimize_ra, shared_variable_bound};
use std::time::Instant;

fn main() {
    let lines: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let doc = workloads::student_records_with_recommendations(lines, 0.6, 7);
    println!(
        "student corpus: {} lines, {} bytes\n",
        doc.text().lines().count(),
        doc.len()
    );

    // Atomic extractors: (student, mail), (student, phone), (student, rec).
    let alpha_sm =
        parse(r"(.*\n)?(\u\l+ )?{student:\u\l+} (\d+ )?{mail:\l+@\l+(\.\l+)+}\n.*").unwrap();
    let alpha_sp = parse(r"(.*\n)?(\u\l+ )?{student:\u\l+} {phone:\d+} .*").unwrap();
    let alpha_nr = parse(r"(.*\n)?{student:\u\l+} rec {rec:[\l ]+}\n.*").unwrap();

    // The RA tree of Figure 2: π_{student}((?0 ⋈ ?1) \ ?2).
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    println!("RA tree: {tree}");

    // Instantiation I: all three placeholders are regex formulas.
    let inst_regex = Instantiation::new()
        .with(0, alpha_sm.clone())
        .with(1, alpha_sp.clone())
        .with(2, alpha_nr);
    println!(
        "shared-variable bound k = {}",
        shared_variable_bound(&tree, &inst_regex).unwrap()
    );

    // Planner quickstart: `evaluate_ra` optimizes by default; the rewritten
    // plan can also be inspected (here the projection sinks into the join
    // operands but stops above the difference), compiled once with
    // `CompiledPlan`, and fanned out over a corpus with `CorpusEngine`.
    let optimized = optimize_ra(&tree, &inst_regex).unwrap();
    println!("optimized plan: {optimized}");
    let plan = CompiledPlan::compile(&tree, &inst_regex, RaOptions::default()).unwrap();
    println!(
        "compiled plan is {}",
        if plan.is_static() {
            "static"
        } else {
            "dynamic"
        }
    );
    let t = Instant::now();
    let without_rec = evaluate_ra(&tree, &inst_regex, &doc, RaOptions::default()).unwrap();
    println!(
        "\nstudents with mail and phone but no recommendation at all: {} (in {:?})",
        without_rec.len(),
        t.elapsed()
    );
    print_students(&doc, &without_rec);

    // Instantiation II (Example 5.4): replace the recommendation extractor by
    // a black-box sentiment classifier — students with no *positive*
    // recommendation. The black box is incorporated by ad-hoc compilation
    // (Corollary 5.3).
    let inst_blackbox = Instantiation::new()
        .with(0, alpha_sm)
        .with(1, alpha_sp)
        .with_black_box(
            2,
            SentimentSpanner::new("student", "posrec", SentimentSpanner::default_lexicon()),
        );
    let t = Instant::now();
    let without_positive = evaluate_ra(&tree, &inst_blackbox, &doc, RaOptions::default()).unwrap();
    println!(
        "\nstudents with mail and phone but no positive recommendation: {} (in {:?})",
        without_positive.len(),
        t.elapsed()
    );
    print_students(&doc, &without_positive);

    // Sanity: the black-box variant can only keep more students (a positive
    // recommendation is a special kind of recommendation).
    assert!(without_positive.len() >= without_rec.len());
}

fn print_students(doc: &Document, result: &MappingSet) {
    let mut names: Vec<_> = result
        .iter()
        .filter_map(|m| m.get(&"student".into()))
        .map(|s| doc.slice(s))
        .collect();
    names.sort_unstable();
    names.dedup();
    for chunk in names.chunks(8) {
        println!("  {}", chunk.join(" "));
    }
}
