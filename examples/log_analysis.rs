//! Log analysis: joins, projections and differences over an access log.
//!
//! Demonstrates the algebra on a larger synthetic corpus: which client IPs
//! produced requests but never produced a server error? The query is
//! `π_{ip}(requests) \ π_{ip}(errors)` — a difference whose operands share a
//! single variable, the tractable regime of Theorem 4.3.
//!
//! Run with: `cargo run --release --example log_analysis [lines]`

use document_spanners::prelude::*;
use document_spanners::workloads;
use std::collections::BTreeSet;
use std::time::Instant;

/// Lines the Section-4 difference construction is cross-checked on.
const CROSS_CHECK_LINES: usize = 20;

fn main() {
    let lines: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let doc = workloads::access_log(lines, 42);
    println!(
        "analysing a {}-line access log ({} bytes)\n",
        lines,
        doc.len()
    );

    let requests = compile(&workloads::log_request_extractor().unwrap());
    let errors = compile(&workloads::log_error_extractor().unwrap());

    // 1. Plain extraction with polynomial-delay enumeration.
    let t = Instant::now();
    let all_requests = evaluate(&requests, &doc).unwrap();
    println!(
        "extracted {} request tuples in {:?}",
        all_requests.len(),
        t.elapsed()
    );

    // 2. Projection to the ip attribute (automaton-level projection).
    let ip_only = requests.project(&VarSet::from_iter(["ip"]));
    let error_ips = errors.project(&VarSet::from_iter(["ip"]));

    // 3. Difference: IPs with requests but no errors, as an RA tree through
    //    the physical executor (compiled scans under an anti-join).
    let tree = RaTree::difference(
        RaTree::project(VarSet::from_iter(["ip"]), RaTree::leaf(0)),
        RaTree::project(VarSet::from_iter(["ip"]), RaTree::leaf(1)),
    );
    let inst = Instantiation::new()
        .with(0, workloads::log_request_extractor().unwrap())
        .with(1, workloads::log_error_extractor().unwrap());
    println!(
        "\nRA tree {tree} shares at most {} variable(s) per binary node",
        spanner_algebra::shared_variable_bound(&tree, &inst).unwrap()
    );
    let t = Instant::now();
    let clean = evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap();
    let clean_ips: BTreeSet<_> = clean
        .iter()
        .filter_map(|m| m.get(&"ip".into()))
        .map(|s| doc.slice(s))
        .collect();
    println!(
        "{} distinct IPs without any 5xx response (difference evaluated in {:?})",
        clean_ips.len(),
        t.elapsed()
    );
    for ip in clean_ips.iter().take(10) {
        println!("  {ip}");
    }
    if clean_ips.len() > 10 {
        println!("  … and {} more", clean_ips.len() - 10);
    }

    // 4. Cross-check against the paper's ad-hoc product construction
    //    (Theorem 4.3), the reference semantics. Its automaton grows with
    //    the document, so it runs on a prefix that takes about a second.
    let prefix = Document::new(
        doc.text()
            .lines()
            .take(CROSS_CHECK_LINES)
            .collect::<Vec<_>>()
            .join("\n"),
    );
    let t = Instant::now();
    let adhoc =
        difference_product_eval(&ip_only, &error_ips, &prefix, DifferenceOptions::default())
            .unwrap();
    let via_tree = evaluate_ra(&tree, &inst, &prefix, RaOptions::default()).unwrap();
    println!(
        "\nad-hoc product construction on the first {} lines: {} mappings in {:?} \
         (matches the executor: {})",
        prefix.text().lines().count(),
        adhoc.len(),
        t.elapsed(),
        adhoc == via_tree
    );
    assert_eq!(adhoc, via_tree, "the two difference evaluations disagree");
}
