//! E14 — the scan-core fast path under a match-rate sweep.
//!
//! One email-shaped extractor over corpora whose hit rate sweeps from
//! 0% to 100%: at 0% every line is killed by the static prefilters or
//! the boolean pre-pass without enumeration; at 100% the fast path can
//! only lose its (tiny) pre-pass overhead. The baseline is the same
//! engine with [`RaOptions::scan_fast_path`] off — the full compiled
//! scan runs on every line. Medians land in `BENCH_scan.json` (gated by
//! `bench_gate` in CI), and two bars are asserted here: the miss-dominated
//! rows (0%, 1%) must beat the baseline by ≥2x, so CI fails loudly if the
//! prefilters stop firing, and the all-hit row must stay ≥1.5x under its
//! time from before evaluation became table walks.
//!
//! The miss bar was 10x while the baseline's backward pass cost ~200 ns per
//! byte. That pass is now one table lookup per byte, which made the
//! *baseline* ~20x faster on misses; what the prefilters still save is the
//! pass itself.

use spanner_algebra::{CompiledPlan, Instantiation, RaOptions, RaTree};
use spanner_bench::{header, median_of, merge_bench_json, ms, row, BenchEntry};
use spanner_core::Document;
use spanner_corpus::CorpusEngine;
use spanner_rgx::parse;

/// Deterministic padding over lowercase letters and spaces — no `@`, so
/// a pure-padding line is skippable by the required-factor prefilter.
fn padding(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnop qrstuvwxyz ";
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ALPHABET[(state % ALPHABET.len() as u64) as usize] as char
        })
        .collect()
}

/// One corpus line: a hit embeds an email between padding runs, a miss
/// is padding only.
fn line(hit: bool, seed: u64) -> Document {
    let text = if hit {
        format!(
            "{} contact{}@mail.example {}",
            padding(40, seed),
            seed % 100,
            padding(60, seed.wrapping_add(1))
        )
    } else {
        padding(110, seed)
    };
    Document::new(&text)
}

/// A corpus of `lines` documents where `hits_per_1000` of every 1000
/// lines contain a match, spread evenly.
fn corpus(lines: usize, hits_per_1000: usize, seed: u64) -> Vec<Document> {
    (0..lines)
        .map(|i| {
            let hit = hits_per_1000 > 0 && (i * hits_per_1000) % 1000 < hits_per_1000;
            line(hit, seed.wrapping_add(i as u64))
        })
        .collect()
}

/// `scan/hit-rate-1000/fastpath` as committed before the evaluation tables
/// (per-document match-graph DP and enumerator memo): 25.95 ms. The hit
/// path's acceptance bar is ≥1.5x under it.
const HIT_ROW_BEFORE_NS: u128 = 25_953_914;

fn main() {
    println!("## E14 — scan-core fast path: match-rate sweep\n");
    println!("email extractor over 400 ~110-byte lines; fast path vs no-prefilter baseline\n");

    let tree = RaTree::leaf(0);
    let inst = Instantiation::new().with(
        0,
        parse(r".*[ ]{user:\l+\d*}@{host:\l+\.\l+}[ ].*").unwrap(),
    );
    let fast = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
    let base = CorpusEngine::compile(
        &tree,
        &inst,
        RaOptions {
            scan_fast_path: false,
            ..RaOptions::default()
        },
    )
    .unwrap();

    let mut entries = Vec::new();
    header(&[
        "hit rate",
        "fast ms",
        "baseline ms",
        "speedup",
        "mappings",
        "skipped",
        "rejected",
    ]);
    for per_mille in [0usize, 10, 500, 1000] {
        let docs = corpus(400, per_mille, 42);
        let (out_fast, t_fast) = median_of(5, || fast.evaluate_with_threads(&docs, 1).unwrap());
        let (out_base, t_base) = median_of(5, || base.evaluate_with_threads(&docs, 1).unwrap());
        assert_eq!(
            out_fast.results, out_base.results,
            "the fast path changed the answer at {per_mille}/1000"
        );
        let speedup = t_base.as_secs_f64() / t_fast.as_secs_f64();
        let label = format!("{}%", per_mille as f64 / 10.0);
        row(&[
            label,
            ms(t_fast),
            ms(t_base),
            format!("{speedup:.1}x"),
            out_fast.stats.mappings.to_string(),
            out_fast.stats.docs_skipped.to_string(),
            out_fast.stats.docs_rejected.to_string(),
        ]);
        entries.push(BenchEntry::new(
            format!("scan/hit-rate-{per_mille}/fastpath"),
            t_fast,
            out_fast.stats.mappings,
        ));
        entries.push(BenchEntry::new(
            format!("scan/hit-rate-{per_mille}/baseline"),
            t_base,
            out_base.stats.mappings,
        ));
        if per_mille <= 10 {
            assert!(
                speedup >= 2.0,
                "miss-dominated sweep at {per_mille}/1000 is only {speedup:.1}x (bar: 2x)"
            );
        }
        if per_mille == 1000 {
            assert!(
                t_fast.as_nanos() * 3 <= HIT_ROW_BEFORE_NS * 2,
                "all-hit sweep took {} ms (bar: 1.5x under {:.2} ms)",
                ms(t_fast),
                HIT_ROW_BEFORE_NS as f64 / 1e6
            );
        }
    }

    // Sanity: the static prefilters, not luck, do the skipping — a
    // miss-only corpus must skip every line without enumerating any.
    let misses = corpus(400, 0, 7);
    let out = fast.evaluate_with_threads(&misses, 1).unwrap();
    assert_eq!(out.stats.docs_skipped + out.stats.docs_rejected, 400);
    assert_eq!(out.stats.mappings, 0);

    // And the single-document surface agrees with the corpus surface.
    let plan = CompiledPlan::compile(&tree, &inst, RaOptions::default()).unwrap();
    let hit = line(true, 3);
    assert!(!plan.evaluate(&hit).unwrap().is_empty());

    merge_bench_json("BENCH_scan.json", &entries).expect("write BENCH_scan.json");
    println!("\nwrote {} entries to BENCH_scan.json", entries.len());
}
