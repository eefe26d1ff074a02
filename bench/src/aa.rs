//! The A/A run: the whole benchmark 2 × N times on unchanged code, the two
//! sets interleaved, to show what difference between two medians the box
//! produces on its own. The bounds of `BENCHMARK.json` are checked against
//! it, and every count that must repeat exactly is compared across runs.

use crate::e2e::{self, E2eResult};
use crate::stats::median;
use crate::workloads;
use spanner_serve::Json;
use std::collections::BTreeMap;

/// The end-to-end metric values of a run, by name.
pub fn end_to_end_values(r: &E2eResult) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", r.setup_s),
        ("ops_per_s", r.summary.ops_per_s),
        ("p50_ms", r.summary.p50_ms),
        ("p95_ms", r.summary.p95_ms),
        ("rss_peak_mb", r.rss_peak_mb),
    ])
}

/// One metric of one run beside its uncalibrated twin, where it has one.
struct Twin {
    metric: &'static str,
    value: f64,
    raw: Option<f64>,
}

/// Every end-to-end metric of a run with its twin, plus the write latencies
/// that are not end-to-end metrics.
fn with_twins(r: &E2eResult) -> Vec<Twin> {
    let s = &r.summary;
    [
        ("setup_s", r.setup_s, Some(r.raw_setup_s)),
        ("ops_per_s", s.ops_per_s, Some(s.raw_ops_per_s)),
        ("p50_ms", s.p50_ms, Some(s.raw_p50_ms)),
        ("p95_ms", s.p95_ms, Some(s.raw_p95_ms)),
        ("rss_peak_mb", r.rss_peak_mb, None),
        ("write_p50_ms", s.write_p50_ms, None),
        ("write_p95_ms", s.write_p95_ms, None),
    ]
    .map(|(metric, value, raw)| Twin { metric, value, raw })
    .into()
}

/// One line for the log: what a run measured beyond its result line.
pub fn describe(r: &E2eResult) -> String {
    let s = &r.summary;
    format!(
        "raw setup {:.3} s, raw {:.1} ops/s, raw p50 {:.4} ms, pooled p99 {:.4} ms, \
         write p50 {:.4} ms p95 {:.4} ms max {:.2} ms, calib factor {:.3} spread {:.3}, \
         client {:.1} us/op, {} rounds, {} mappings, {:?}",
        r.raw_setup_s,
        s.raw_ops_per_s,
        s.raw_p50_ms,
        s.pooled_p99_ms,
        s.write_p50_ms,
        s.write_p95_ms,
        s.max_write_ms,
        s.calib_factor,
        s.calib_spread,
        s.client_us_per_op,
        r.rounds,
        r.mappings,
        r.counts
    )
}

/// The regression bounds of `BENCHMARK.json`, by end-to-end metric.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let entries = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `end_to_end` array"))?;
    Ok(entries
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Runs 2 × `n` interleaved whole benchmarks and prints the A/A table.
pub fn run(n: usize, seed: u64, seconds: u64) -> Result<(), String> {
    if n < 5 {
        return Err("`--aa` needs N ≥ 5 runs per set".into());
    }
    let bounds = bounds()?;
    let mut sets: [Vec<Vec<E2eResult>>; 2] = [
        vec![Vec::new(); workloads::NAMES.len()],
        vec![Vec::new(); workloads::NAMES.len()],
    ];
    for i in 0..n {
        for set in &mut sets {
            for (slot, name) in workloads::NAMES.iter().enumerate() {
                let w = workloads::build(name, seed, seconds).expect("NAMES are known");
                let result = e2e::run(&w, seconds).map_err(|e| format!("{name}: {e}"))?;
                if let Some(why) = &result.first_failure {
                    return Err(format!("{name}: run {i} failed: {why}"));
                }
                eprintln!("run {i} {name}: {}", describe(&result));
                set[slot].push(result);
            }
        }
    }
    println!(
        "| workload | metric | median A | median B | diff | raw A | raw B | raw diff | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut over = Vec::new();
    for (slot, name) in workloads::NAMES.iter().enumerate() {
        let runs = || sets.iter().flat_map(|set| &set[slot]);
        let first = &sets[0][slot][0];
        let whole = runs().map(|r| r.rounds).max().unwrap_or(0);
        for r in runs() {
            if r.rounds < whole {
                // Cut short by the deadline: it did less work by design.
                println!("{name}: a run stopped after {} of {whole} rounds", r.rounds);
            } else if (r.attempted, r.mappings, r.counts)
                != (first.attempted, first.mappings, first.counts)
            {
                return Err(format!(
                    "{name}: counts differ between runs of the same seed: \
                     {} ops {} mappings {:?} against {} ops {} mappings {:?}",
                    r.attempted,
                    r.mappings,
                    r.counts,
                    first.attempted,
                    first.mappings,
                    first.counts
                ));
            }
        }
        // One row of twins per run, per set.
        let twins: Vec<Vec<Vec<Twin>>> = sets
            .iter()
            .map(|set| set[slot].iter().map(with_twins).collect())
            .collect();
        for (m, Twin { metric, raw, .. }) in twins[0][0].iter().enumerate() {
            let medians = |pick: &dyn Fn(&Twin) -> f64| -> (f64, f64) {
                let of = |set: usize| {
                    median(
                        &twins[set]
                            .iter()
                            .map(|run| pick(&run[m]))
                            .collect::<Vec<f64>>(),
                    )
                };
                (of(0), of(1))
            };
            let (a, b) = medians(&|t| t.value);
            if a == 0.0 && b == 0.0 {
                continue; // no writes on this workload
            }
            let percent = |a: f64, b: f64| (b - a).abs() / a * 100.0;
            let raw = match raw {
                Some(_) => {
                    let (a, b) = medians(&|t| t.raw.unwrap_or(0.0));
                    format!("{a:.4} | {b:.4} | {:.1} %", percent(a, b))
                }
                None => "- | - | -".to_string(),
            };
            let bound = bounds.get(*metric);
            println!(
                "| {name} | {metric} | {a:.4} | {b:.4} | {:.1} % | {raw} | {} |",
                percent(a, b),
                bound.map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0)),
            );
            if bound.is_some_and(|&bound| percent(a, b) > bound * 100.0) {
                over.push(format!("{name}/{metric}"));
            }
        }
    }
    println!();
    println!(
        "Op counts, mapping totals and daemon counters were identical in every whole run of a workload ({} runs each).",
        2 * n
    );
    if over.is_empty() {
        println!("Every A/A difference is within its bound.");
        Ok(())
    } else {
        Err(format!(
            "A/A difference above the bound: {}",
            over.join(", ")
        ))
    }
}
