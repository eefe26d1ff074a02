//! One experiment runner over one registry of measured rows.
//!
//! ```text
//! cargo run --release -p spanner-bench -- list
//! cargo run --release -p spanner-bench -- run <out.json> [prefix…]
//! cargo run --release -p spanner-bench -- diff <base.json> <fresh.json>
//! ```
//!
//! A *family* is a plain `fn(&mut Run)` in [`FAMILIES`], next to the result
//! of the paper (or the section of DESIGN.md) it is evidence for; `list`
//! prints that table with every family's rows and is the experiment index.
//! A family declares the rows it is about to measure ([`Run::rows`],
//! [`Run::needs_cpus`]), sets up whatever state they share, and times each
//! one through [`Run::measure`] (or `measure_from`, its form for runs that
//! begin with untimed set-up) — the only timing loop in the crate — so a
//! stateful sweep stays ordinary Rust and a ratio bar stays a plain
//! `assert!` over the [`Measured`] values it got back.
//!
//! `run` writes one file, [`render`]: a [`Machine`] stamp the runner fills
//! in itself and one entry per line; [`diff`] compares two of them. The
//! committed baseline is `EXPERIMENTS.json` at the repository root,
//! regenerated by a full `run`. DESIGN §13 has the measurements behind the
//! method.

pub mod paper;
pub mod system;

use spanner_serve::Json;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of every row. Fifteen is the least that gives a median
/// with a MAD worth gating on, it is odd so the median is a sample, and a
/// multiple of three because `incr`'s hot rows cycle over three batches.
pub const RUNS: usize = 15;

/// How far a fresh median may sit from its baseline before [`diff`] looks at
/// it: in calibration units two runs of one binary on this box agree within
/// a quarter on all but 0–2 of 143 rows.
pub const TOLERANCE: f64 = 0.25;

/// A shift past [`TOLERANCE`] is believed only when it is also further than
/// this many MADs of the noisier side (three MADs are two standard
/// deviations of a normal sample): a row whose own runs spread that far has
/// not resolved the shift.
pub const NOISE_MADS: u64 = 3;

/// How often `run` visits every row, a registry pass apart. The machine has
/// bad seconds that the yardstick does not explain, and one visit in three
/// may meet one: the file gets the middle visit ([`middle_visit`]).
pub const VISITS: usize = 3;

/// A registry entry: the family's name (the prefix of its rows' names), what
/// it is evidence for, and the function that measures it.
pub type Family = (&'static str, &'static str, fn(&mut Run));

/// Every experiment: E1–E11 are the paper's results, the rest watch the
/// layers below the daemon (which `bench/` measures end to end) and what
/// the daemon's answers cost to render. Each function's documentation says
/// what its rows show.
pub const FAMILIES: &[Family] = &[
    (
        "paper/e1-enumeration",
        "E1 · Theorem 2.5",
        paper::e1_enumeration,
    ),
    (
        "paper/e2-hardness-join",
        "E2 · Theorem 3.1",
        paper::e2_hardness_join,
    ),
    (
        "paper/e3-join-fpt",
        "E3 · Lemma 3.2, Theorem 3.3",
        paper::e3_join_fpt,
    ),
    (
        "paper/e4-blowup",
        "E4 · Propositions 3.9, 3.11",
        paper::e4_blowup::<14>,
    ),
    (
        "paper/e5-join-dfunc",
        "E5 · Proposition 3.12, Corollary 3.13",
        paper::e5_join_dfunc,
    ),
    (
        "paper/e6-hardness-difference",
        "E6 · Theorem 4.1",
        paper::e6_hardness_difference,
    ),
    (
        "paper/e7-difference",
        "E7 · Lemma 4.2, Theorems 4.3, 4.8",
        paper::e7_difference,
    ),
    (
        "paper/e8-difference-sync",
        "E8 · Theorem 4.8, Corollary 4.9",
        paper::e8_difference_sync,
    ),
    (
        "paper/e9-ra-tree",
        "E9 · Theorem 5.2, Corollary 5.3",
        paper::e9_ra_tree,
    ),
    (
        "paper/e10-static-vs-adhoc",
        "E10 · Section 4, introduction",
        paper::e10_static_vs_adhoc,
    ),
    (
        "paper/e11-parameterized",
        "E11 · Theorem 4.4, Proposition 4.10",
        paper::e11_parameterized,
    ),
    ("exec", "DESIGN §6: the physical executor", system::exec),
    ("planner", "DESIGN §3: the plan optimizer", system::planner),
    ("ql", "DESIGN §4: SpannerQL", system::ql),
    ("scan", "DESIGN §8: the scan fast path", system::scan),
    (
        "incr",
        "DESIGN §9, §11: index upkeep, maintained views",
        system::incr,
    ),
    ("serve", "DESIGN §7: the serving layer", system::serve),
];

/// What [`Run::measure`] recorded for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Median wall-clock nanoseconds of the [`RUNS`] runs.
    pub median_ns: u64,
    /// Median absolute deviation of the runs from that median.
    pub mad_ns: u64,
    /// Median nanoseconds of the [`yardstick`], timed before each run.
    pub unit_ns: u64,
    /// What the last run returned — mappings, states, disjuncts: the answer,
    /// so a speedup that changes it shows.
    pub count: usize,
}

impl Measured {
    /// The median in yardsticks: what [`diff`] compares, because most of the
    /// machine's changes of speed cancel out of it.
    pub fn units(&self) -> f64 {
        self.median_ns as f64 / self.unit_ns as f64
    }
}

/// One row of a run or of a file: measured, or skipped with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Hierarchical name; its family's name is a prefix.
    pub workload: String,
    pub outcome: Result<Measured, String>,
}

/// Row names in the shape a family wants them back in: one name, an array
/// of names or of groups of them, or two differently shaped sweeps.
pub trait Names {
    /// Calls `f` on every name, in order.
    fn each(&self, f: &mut dyn FnMut(&str));
}

impl Names for String {
    fn each(&self, f: &mut dyn FnMut(&str)) {
        f(self)
    }
}

impl<T: Names, const N: usize> Names for [T; N] {
    fn each(&self, f: &mut dyn FnMut(&str)) {
        self.iter().for_each(|names| names.each(f))
    }
}

impl<A: Names, B: Names> Names for (A, B) {
    fn each(&self, f: &mut dyn FnMut(&str)) {
        self.0.each(f);
        self.1.each(f)
    }
}

/// The recorder a family measures into.
#[derive(Default)]
pub struct Run {
    cpus: usize,
    declared: Vec<String>,
    /// Every row so far, in registry order.
    pub rows: Vec<Row>,
}

impl Run {
    /// A recorder on a machine with `cpus` CPUs. On zero CPUs no row can be
    /// measured: every declaration answers `None` and a family only names
    /// its rows, without building or timing anything — that is `list`.
    pub fn new(cpus: usize) -> Run {
        Run {
            cpus,
            ..Run::default()
        }
    }

    /// Declares the rows the caller is about to measure and hands the names
    /// back; on `None` the caller skips the block that measures them.
    pub fn rows<T: Names>(&mut self, names: T) -> Option<T> {
        self.needs_cpus(1, names)
    }

    /// [`Run::rows`] for rows that mean something only with `cpus` CPUs: a
    /// smaller machine records them as skipped, with the reason, instead of
    /// as numbers it cannot express.
    pub fn needs_cpus<T: Names>(&mut self, cpus: usize, names: T) -> Option<T> {
        if self.cpus >= cpus {
            names.each(&mut |name| self.declared.push(name.to_string()));
            return Some(names);
        }
        let reason = match (self.cpus, cpus) {
            (0, 1) => String::new(),
            (0, _) => format!("needs {cpus} CPUs"),
            (have, _) => format!("needs {cpus} CPUs, have {have}"),
        };
        names.each(&mut |name| {
            if self.cpus > 0 {
                println!("  {name:<50} skipped: {reason}");
            }
            let (workload, outcome) = (name.to_string(), Err(reason.clone()));
            self.rows.push(Row { workload, outcome });
        });
        None
    }

    /// Runs `f` [`RUNS`] times, each under the clock and after a pass of the
    /// clock over the [`yardstick`], and records the medians, the MAD and
    /// the last count. The row must have been declared. No untimed warm-up:
    /// a stateful closure's script is exactly its [`RUNS`] calls, and a
    /// median ignores a cold first one. What `f` drops is inside the clock.
    pub fn measure(&mut self, workload: &str, mut f: impl FnMut() -> usize) -> Measured {
        self.measure_from(workload, |_| f())
    }

    /// [`Run::measure`] for a row whose runs each begin with untimed set-up:
    /// `f` gets its run's start instant and restarts it (`*start =
    /// Instant::now()`) where the timed part begins.
    pub(crate) fn measure_from(
        &mut self,
        workload: &str,
        mut f: impl FnMut(&mut Instant) -> usize,
    ) -> Measured {
        let declared = self.declared.iter().position(|name| name == workload);
        let declared = declared.unwrap_or_else(|| panic!("{workload} was not declared"));
        self.declared.swap_remove(declared);
        let (mut count, mut units, mut nanos) = (0, [0; RUNS], [0; RUNS]);
        for run in 0..RUNS {
            yardstick(); // untimed: brings back the lines the last run evicted
            let start = Instant::now();
            yardstick();
            units[run] = start.elapsed().as_nanos() as u64;
            let mut start = Instant::now();
            count = black_box(f(&mut start));
            nanos[run] = start.elapsed().as_nanos() as u64;
        }
        let median_ns = median(&mut nanos);
        let measured = Measured {
            median_ns,
            mad_ns: median(&mut nanos.map(|t| t.abs_diff(median_ns))),
            unit_ns: median(&mut units).max(1),
            count,
        };
        let (median, mad) = (ms(median_ns), ms(measured.mad_ns));
        println!("  {workload:<50} {median:>11} ms  ±{mad:<9} count {count}");
        let (workload, outcome) = (workload.to_string(), Ok(measured));
        self.rows.push(Row { workload, outcome });
        measured
    }

    /// Runs one family and checks that it measured everything it declared.
    pub fn family(&mut self, &(name, evidence, body): &Family) {
        if self.cpus > 0 {
            println!("## {name} — {evidence}");
        }
        body(self);
        let unmeasured = &self.declared;
        assert!(unmeasured.is_empty(), "{name}: {unmeasured:?}");
    }
}

/// What every run is measured against: 300 small allocations, freed again.
/// The machine changes speed for seconds at a time, by more than any
/// tolerance, and a row's back-to-back runs land in one state, so their MAD
/// never sees it; of the kernels tried the allocator follows the rows most
/// closely (DESIGN §13). It also depends on what the row left in the caches,
/// so units compare a row with itself across files, never two rows.
pub fn yardstick() -> usize {
    let chunk = |i: usize| Vec::<u8>::with_capacity(64 + i % 7 * 16);
    black_box((0..300).map(chunk).collect::<Vec<_>>()).len()
}

/// Of each row's visits, the one whose median in yardsticks is the middle
/// one (for a skipped row, any).
pub fn middle_visit(visits: [Vec<Row>; VISITS]) -> Vec<Row> {
    let units = |row: &&Row| row.outcome.as_ref().map_or(0.0, Measured::units);
    let middle = |at| {
        let mut visits = visits.each_ref().map(|rows| &rows[at]);
        visits.sort_by(|a, b| units(a).total_cmp(&units(b)));
        visits[VISITS / 2].clone()
    };
    (0..visits[0].len()).map(middle).collect()
}

fn median(values: &mut [u64; RUNS]) -> u64 {
    values.sort_unstable();
    values[RUNS / 2]
}

/// Nanoseconds as milliseconds with three decimals.
pub fn ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e6)
}

/// The experiment index: every family with what it is evidence for and the
/// rows it produces (and the CPUs a row needs, when more than one).
pub fn list() -> String {
    let mut out = String::new();
    for family in FAMILIES {
        let mut run = Run::new(0);
        run.family(family);
        out += &format!("{} — {}\n", family.0, family.1);
        for row in run.rows {
            let note = row.outcome.expect_err("nothing is measured on zero CPUs");
            out += format!("  {}  {note}", row.workload).trim_end();
            out += "\n";
        }
    }
    out
}

/// Where and how a file's numbers were taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// `available_parallelism` of the machine that ran.
    pub cpus: usize,
    /// `git describe --always --dirty`: the hash of `rev-parse --short HEAD`,
    /// `-dirty` when the tree that ran had uncommitted changes, `"unknown"`
    /// outside a repository (the runner works from a tarball).
    pub commit: String,
    pub runs: usize,
}

impl Machine {
    /// The stamp of this process: nothing in it is typed by hand.
    pub fn here() -> Machine {
        let git = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output();
        let commit = match git {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
            _ => "unknown".to_string(),
        };
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let runs = RUNS;
        Machine { cpus, commit, runs }
    }
}

/// Renders the file `run` writes: the stamp and one entry per line, in
/// registry order, so that a refreshed baseline diffs row by row.
pub fn render(machine: &Machine, rows: &[Row]) -> String {
    let Machine { cpus, commit, runs } = machine;
    let commit = Json::string(commit.as_str());
    let stamp = format!(r#"{{"cpus":{cpus},"commit":{commit},"runs":{runs}}}"#);
    let entry = |row: &Row| {
        let name = Json::string(row.workload.as_str());
        let rest = match &row.outcome {
            Ok(m) => format!(
                r#""median_ns":{},"mad_ns":{},"unit_ns":{},"count":{}"#,
                m.median_ns, m.mad_ns, m.unit_ns, m.count
            ),
            Err(reason) => format!(r#""skipped":{}"#, Json::string(reason.as_str())),
        };
        format!(r#"    {{"workload":{name},{rest}}}"#)
    };
    let entries: Vec<String> = rows.iter().map(entry).collect();
    let entries = entries.join(",\n");
    format!("{{\n  \"machine\": {stamp},\n  \"entries\": [\n{entries}\n  ]\n}}\n")
}

/// Reads a file back. Anything but a stamp and an `entries` array of
/// well-formed rows is an error: a baseline that cannot be read must not
/// pass for one with nothing to compare.
pub fn parse(text: &str) -> Result<(Machine, Vec<Row>), String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let nanos = |entry: &Json, key: &str| Some(entry.get(key)?.as_usize()? as u64);
    let machine = |stamp: &Json| {
        let cpus = stamp.get("cpus")?.as_usize()?;
        let commit = stamp.get("commit")?.as_str()?.to_string();
        let runs = stamp.get("runs")?.as_usize()?;
        Some(Machine { cpus, commit, runs })
    };
    let row = |entry: &Json| {
        let workload = entry.get("workload")?.as_str()?.to_string();
        let outcome = match entry.get("skipped") {
            Some(reason) => Err(reason.as_str()?.to_string()),
            None => Ok(Measured {
                median_ns: nanos(entry, "median_ns")?,
                mad_ns: nanos(entry, "mad_ns")?,
                unit_ns: nanos(entry, "unit_ns")?.max(1),
                count: entry.get("count")?.as_usize()?,
            }),
        };
        Some(Row { workload, outcome })
    };
    let machine = json.get("machine").and_then(machine);
    let machine = machine.ok_or("no well-formed `machine` stamp")?;
    let entries = json.get("entries").and_then(Json::as_array);
    let entries = entries.ok_or("no `entries` array")?.iter();
    let rows = entries.map(|e| row(e).ok_or(format!("malformed entry {e}")));
    Ok((machine, rows.collect::<Result<_, _>>()?))
}

/// Compares fresh rows against a baseline. Every row that is not within
/// tolerance yields whether it fails the comparison and a line saying why.
///
/// A changed count always fails: a "win" that changes the answer is a bug.
/// A timing, compared in yardsticks, fails only when the fresh median is
/// more than [`TOLERANCE`] over the baseline *and* further from it than
/// [`NOISE_MADS`] × the larger MAD (and than one yardstick: a shorter row
/// runs in its wake) *and* the wall clock is past the tolerance too — the
/// yardstick may excuse a slow clock, not accuse a steady one. Short of all
/// three the shift is unresolved; the mirror image of a failure is a stale
/// baseline, because a one-sided gate over a baseline 4x too slow passes a
/// 3x regression. Rows skipped or missing on either side are not compared:
/// a new row is not a regression, a deleted one is a review concern.
pub fn diff(base: &[Row], fresh: &[Row]) -> Vec<(bool, String)> {
    let mut findings = Vec::new();
    for Row { workload, outcome } in base {
        let new = fresh.iter().find(|r| r.workload == *workload);
        let (Ok(old), Some(Ok(new))) = (outcome, new.map(|r| &r.outcome)) else {
            continue;
        };
        if old.count != new.count {
            let change = format!("count changed {} -> {}", old.count, new.count);
            findings.push((true, format!("{workload}: {change}")));
            continue;
        }
        let past = |ratio: f64| ratio > 1.0 + TOLERANCE;
        let shift = new.units() / old.units();
        let clock = new.median_ns as f64 / old.median_ns as f64;
        if !past(shift) && !past(1.0 / shift) {
            continue;
        }
        let mads = |m: &Measured| (NOISE_MADS * m.mad_ns) as f64 / m.unit_ns as f64;
        let apart = (new.units() - old.units()).abs() > mads(old).max(mads(new)).max(1.0);
        let (fails, verdict) = match (apart, past(shift), past(clock)) {
            (false, ..) => (false, "within the noise: unresolved"),
            (true, false, _) => (false, "baseline stale, refresh"),
            (true, true, false) => (false, "the wall clock is steady: unresolved"),
            (true, true, true) => (true, "slower"),
        };
        let wall = format!("{} ns -> {} ns", old.median_ns, new.median_ns);
        let line = format!("{workload}: {wall}, {shift:.2}x in yardsticks: {verdict}");
        findings.push((fails, line));
    }
    findings
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// polynomial degree of a scaling series. Points with non-positive values
/// are skipped.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let filtered: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = filtered.len() as f64;
    if filtered.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = filtered.iter().map(|(x, _)| x).sum();
    let sy: f64 = filtered.iter().map(|(_, y)| y).sum();
    let sxx: f64 = filtered.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = filtered.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, median_ns: u64, mad_ns: u64, count: usize) -> Row {
        let workload = workload.to_string();
        let outcome = Ok(Measured {
            median_ns,
            mad_ns,
            unit_ns: 1_000,
            count,
        });
        Row { workload, outcome }
    }

    fn skipped(workload: &str) -> Row {
        let workload = workload.to_string();
        let outcome = Err("needs 4 CPUs, have 2".to_string());
        Row { workload, outcome }
    }

    #[test]
    fn slope_of_quadratic_series_is_two() {
        let points: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        let slope = log_log_slope(&points);
        assert!((slope - 2.0).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn slope_handles_degenerate_input() {
        assert!(log_log_slope(&[]).is_nan());
        assert!(log_log_slope(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn timing_and_formatting() {
        let mut run = Run::new(1);
        let name = run.rows("t/answer".to_string()).unwrap();
        let mut calls = 0;
        let measured = run.measure(&name, || {
            calls += 1;
            40 + 2
        });
        assert_eq!((calls, measured.count), (RUNS, 42));
        assert_eq!(run.rows[0].outcome, Ok(measured));
        assert!(measured.unit_ns > 1 && measured.units() > 0.0);
        assert_eq!(ms(1_234_567), "1.235");
        // A machine too small for a row records why, and measures nothing.
        assert_eq!(run.needs_cpus(4, ["t/wide".to_string()]), None);
        let reason = Err("needs 4 CPUs, have 1".to_string());
        assert_eq!(run.rows[1].outcome, reason);
        // Of three visits the file gets the middle one, row by row.
        let visit = |a, b| vec![row("a", a, 0, 1), skipped("w"), row("b", b, 0, 1)];
        let kept = middle_visit([visit(30, 1), visit(10, 2), visit(20, 3)]);
        assert_eq!(kept, visit(20, 2));
    }

    /// The cheapest family end to end through `Run::measure`: the count
    /// column is the paper's 2^n.
    #[test]
    fn blowup_family_counts_exactly_two_to_the_n() {
        let mut run = Run::new(1);
        run.family(&("paper/e4-blowup", "", paper::e4_blowup::<6>));
        let counts = run.rows.iter().map(|r| r.outcome.clone().unwrap().count);
        assert_eq!(counts.collect::<Vec<_>>(), [2, 4, 8, 16, 32, 64]);
        assert_eq!(run.rows[5].workload, "paper/e4-blowup/n-6");
    }

    /// The registry, the index and the committed baseline name the same
    /// rows. Walked on zero CPUs, so nothing is built or timed.
    #[test]
    fn registry_index_and_committed_baseline_agree() {
        let mut run = Run::new(0);
        for family in FAMILIES {
            let first = run.rows.len();
            run.family(family);
            assert!(run.rows.len() > first, "{} has no rows", family.0);
            for Row { workload, .. } in &run.rows[first..] {
                let rest = workload.strip_prefix(family.0);
                assert!(rest.is_some_and(|r| r.starts_with('/')), "{workload}");
            }
        }
        let name = |row: &Row| row.workload.clone();
        let mut names: Vec<String> = run.rows.iter().map(name).collect();
        let committed = include_str!("../../../EXPERIMENTS.json");
        let (machine, rows) = parse(committed).unwrap();
        // EXPERIMENTS.json is a full `run` of this registry.
        assert_eq!(names, rows.iter().map(name).collect::<Vec<_>>());
        assert_eq!(machine.runs, RUNS);
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "a name repeats");
        // What the machine could not express is marked, not measured.
        for (listed, Row { workload, outcome }) in run.rows.iter().zip(&rows) {
            let note = listed.outcome.clone().unwrap_err(); // "" or "needs N CPUs"
            let needs = note.split(' ').nth(1).map_or(1, |n| n.parse().unwrap());
            assert_eq!(outcome.is_err(), machine.cpus < needs, "{workload}");
        }

        let index = list();
        for n in 1..=11 {
            assert_eq!(index.matches(&format!("E{n} ")).count(), 1, "E{n}");
        }
        assert!(!index.contains("E12 "));
        assert!(
            index.contains("  planner/corpus/t4  needs 5 CPUs\n"),
            "{index}"
        );
        assert!(index.contains("  ql/prepare/chain\n"), "{index}");
    }

    #[test]
    fn file_round_trips_with_stamp_and_skipped_rows() {
        let machine = Machine::here();
        assert_eq!(machine.runs, RUNS);
        assert!(machine.cpus >= 1 && !machine.commit.is_empty());
        let rows = [row("b/two", 5_000_000_000, 7, 2), skipped("a/\"quoted\"")];
        let name = format!("experiments-{}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, render(&machine, &rows)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(parse(&text).unwrap(), (machine, rows.to_vec()));
        // One entry per line, in the order given.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        let entry = r#""median_ns":5000000000,"mad_ns":7,"unit_ns":1000,"count":2},"#;
        assert!(lines[3].ends_with(entry), "{text}");
    }

    #[test]
    fn file_without_entries_is_an_error() {
        let stamp = r#""machine": {"cpus": 2, "commit": "abc", "runs": 15}"#;
        let empty = format!("{{{stamp}, \"entries\": []}}");
        assert!(parse(&empty).is_ok());
        for corrupt in [
            "not json at all".to_string(),
            r#"{"workload": "x"}"#.to_string(),
            format!("{{{stamp}}}"),
            r#"{"entries": []}"#.to_string(),
            format!(r#"{{{stamp}, "entries": [{{"workload": "x", "median_ns": 1}}]}}"#),
            format!(r#"{{{stamp}, "entries": [{{"workload": "x", "skipped": 4}}]}}"#),
        ] {
            assert!(parse(&corrupt).is_err(), "{corrupt}");
        }
    }

    #[test]
    fn gate_passes_within_tolerance_and_flags_past_it() {
        let entry = |w: &str, ns: u64, m: usize| row(w, ns, 0, m);
        let baseline = [
            entry("a", 10_000, 5),
            entry("b", 10_000, 5),
            entry("c", 10_000, 5),
            entry("gone", 10_000, 5),
            skipped("wide"),
        ];
        let fresh = [
            entry("a", 12_400, 5),   // +24%: within the 25% tolerance
            entry("b", 13_000, 5),   // +30%: regression
            entry("c", 8_100, 5),    // 1.23x faster: within the tolerance too
            entry("new", 99_999, 1), // no baseline: ignored
            entry("wide", 9_999, 1), // no measured baseline: ignored
        ];
        let slower = "b: 10000 ns -> 13000 ns, 1.30x in yardsticks: slower";
        assert_eq!(diff(&baseline, &fresh), [(true, slower.to_string())]);
    }

    #[test]
    fn gate_flags_changed_mapping_counts_even_when_faster() {
        let findings = diff(&[row("a", 1_000, 0, 5)], &[row("a", 100, 0, 4)]);
        assert_eq!(findings, [(true, "a: count changed 5 -> 4".to_string())]);
    }

    #[test]
    fn gate_is_empty_on_identical_measurements() {
        let entries = [row("a", 1_000, 10, 5)];
        assert!(diff(&entries, &entries).is_empty());
    }

    /// The readings the one-sided 25 % gate over bare wall clocks got wrong.
    #[test]
    fn gate_leaves_noise_unresolved_and_reports_stale_baselines() {
        let verdict = |base: &Row, fresh: Row| {
            let (fails, line) = diff(std::slice::from_ref(base), &[fresh]).remove(0);
            let verdict = line.rsplit(": ").next().unwrap().to_string();
            (fails, line.contains(", 1.35x in yardsticks: "), verdict)
        };
        // `exec/difference/executor/100` at the parent against its own
        // commit: 286 → 386 µs, with a MAD of 15 % of the median.
        let base = row("x", 286_000, 9_000, 46);
        let noisy = verdict(&base, row("x", 386_000, 58_000, 46));
        assert_eq!(noisy, (false, true, "unresolved".to_string()));
        // The same shift between two steady rows is a regression.
        let steady = verdict(&base, row("x", 386_000, 9_000, 46));
        assert_eq!(steady, (true, true, "slower".to_string()));
        // Both at once in a machine's slow state, yardstick included, is
        // nothing; a fast yardstick alone does not make a steady clock slow.
        let beside = |mut row: Row, unit_ns| {
            row.outcome.as_mut().unwrap().unit_ns = unit_ns;
            row
        };
        let slow = beside(row("x", 386_000, 9_000, 46), 1_350);
        assert!(diff(std::slice::from_ref(&base), &[slow]).is_empty());
        let steady = beside(row("x", 300_000, 9_000, 46), 777);
        let excused = (false, true, "unresolved".to_string());
        assert_eq!(verdict(&base, steady), excused);
        // A 0.8 → 3.4 µs row moved by less than the 12 µs yardstick beside it.
        let (old, new) = (row("t", 800, 20, 1), row("t", 3_400, 20, 1));
        let tiny = diff(&[beside(old, 12_000)], &[beside(new, 12_000)]);
        assert!(!tiny[0].0 && tiny[0].1.ends_with("unresolved"), "{tiny:?}");

        // `serve/mixed/cached` at the parent: committed 401 µs, measured 50.
        let base = row("y", 401_000, 5_000, 376);
        let (fails, line) = diff(&[base], &[row("y", 100_000, 2_000, 376)]).remove(0);
        let stale = "0.25x in yardsticks: baseline stale, refresh";
        assert!(!fails && line.ends_with(stale), "{line}");
    }
}
