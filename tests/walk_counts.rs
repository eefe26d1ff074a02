//! What the enumerator's walk does on the `scan-hit` programs, counted:
//! candidate searches (`walk_steps`) and stretch positions crossed without
//! one (`stretch_positions`), as a compiled scan reports them in its trace.

use document_spanners::prelude::*;
use document_spanners::workloads::program_library;
use spanner_algebra::ExecTrace;

/// Access-log lines in the shape the `scan-hit` workload ships: 70 to 99
/// bytes, a path grown segment by segment, never status 200 (the status
/// program subtracts those, and every line must answer every program).
fn log_lines(count: usize) -> Vec<Document> {
    const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
    const SEGMENTS: [&str; 8] = [
        "api", "v1", "items", "static", "app.js", "login", "feed_rss", "2019",
    ];
    const STATUSES: [u32; 5] = [201, 301, 403, 404, 500];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    (0..count)
        .map(|_| {
            let ip = [1 + below(254), below(255), below(255), 1 + below(254)];
            let user = ["-", "bob", "carol"][below(3)];
            let head = format!(
                "{}.{}.{}.{} - {user} [{:02}/{:02}] \"{} ",
                ip[0],
                ip[1],
                ip[2],
                ip[3],
                1 + below(28),
                1 + below(12),
                METHODS[below(4)],
            );
            let status = STATUSES[below(5)];
            let tail = format!(" HTTP/1.1\" {status} {}", below(100_000));
            let min_len = 70 + below(30);
            let mut path = format!("/{}", SEGMENTS[below(8)]);
            while head.len() + path.len() + tail.len() < min_len {
                path.push('/');
                path.push_str(SEGMENTS[below(8)]);
            }
            Document::new(head + &path + &tail)
        })
        .collect()
}

/// The first compiled scan of a trace in plan order: the whole plan's scan,
/// or a difference's input side.
fn first_scan(trace: &ExecTrace) -> &ExecTrace {
    if trace.label.starts_with("CompiledScan") {
        return trace;
    }
    first_scan(trace.children.first().expect("a plan has a scan"))
}

#[test]
fn the_walk_crosses_stretches_on_log_lines() {
    let library = program_library();
    let programs = &library[library.len() - 3..];
    // Per program: the most candidate searches a line may average.
    let bounds = [("ip", 13.2), ("method ⋈ path", 16.0), ("status input", 6.0)];
    let lines = log_lines(200);
    for (program, (name, bound)) in programs.iter().zip(bounds) {
        let query = PreparedQuery::prepare(program).unwrap();
        let (mut steps, mut crossed) = (0, 0);
        for doc in &lines {
            let (answer, trace) = query.evaluate_traced(doc);
            let answer = answer.unwrap();
            let scan = first_scan(&trace);
            let walked = scan.counter("walk_steps") + scan.counter("stretch_positions");
            // One answer: no position has two viable candidates, so the walk
            // never backtracks, and it stops right after the answer's last
            // operation — it walks positions 1 to that one, each once.
            assert_eq!(answer.len(), 1, "{name}: {:?}", doc.text());
            let mapping = answer.iter().next().unwrap();
            let last = mapping.iter().map(|(_, span)| span.end).max().unwrap();
            assert_eq!(walked, u64::from(last), "{name}: {:?}", doc.text());
            steps += scan.counter("walk_steps");
            crossed += scan.counter("stretch_positions");
        }
        let per_line = steps as f64 / lines.len() as f64;
        let crossed = crossed as f64 / lines.len() as f64;
        println!("{name}: {per_line:.1} walk steps and {crossed:.1} stretch positions a line");
        assert!(per_line <= bound, "{name}: {per_line:.1} walk steps a line");
    }
}

#[test]
fn the_status_probe_skips_every_line_without_its_literal() {
    // The probe side of `… minus /.*{status:200} [0-9]+/` needs "200 ",
    // which only an address ending in .200 puts on a line: its literal
    // rules out every other line its prefilters let through, so it never
    // walks there.
    let library = program_library();
    let status = PreparedQuery::prepare(library.last().unwrap()).unwrap();
    let input = PreparedQuery::prepare("/.*{status:[0-9][0-9][0-9]} [0-9]+/").unwrap();
    let lines = log_lines(200);
    let (mut lacking, mut skipped) = (0, 0);
    for doc in &lines {
        let (answer, trace) = status.evaluate_traced(doc);
        assert_eq!(
            answer.unwrap(),
            input.evaluate(doc).unwrap(),
            "{:?}",
            doc.text()
        );
        assert!(trace.label.starts_with("Difference"), "{}", trace.render());
        let probe = &trace.children[1];
        skipped += probe.counter("prescan_skip");
        if !doc.text().contains("200 ") {
            lacking += 1;
            let counts = (probe.counter("prescan_skip"), probe.counter("walk_steps"));
            assert_eq!(counts, (1, 0), "{:?}", doc.text());
        }
    }
    assert_eq!(skipped, lacking);
    assert!(
        lacking >= 190,
        "{lacking} of {} lines lack \"200 \"",
        lines.len()
    );
}
