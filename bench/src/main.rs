//! `spanner-e2e`: the repository's benchmark (see `README.md` beside
//! `Cargo.toml`, and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! spanner-e2e --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! spanner-e2e --aa N            # A/A table: 2 × N interleaved runs of everything
//! ```
//!
//! With `--trace 0` a run drives a child daemon over TCP and prints the
//! end-to-end metrics; with `--trace 1` it replays a fixed sample of the
//! same ops in-process under a span recorder and prints the per-layer
//! metrics. The last line of standard output is always one JSON object.

mod aa;
mod calib;
mod daemon;
mod e2e;
mod layers;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Where runs leave their span files and the store probe its segment.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: workloads::GOLDEN_SEED,
        seconds: workloads::GOLDEN_SECONDS,
        trace: false,
        aa: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = number()? != 0,
            "--aa" => parsed.aa = Some(number()? as usize),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

/// Prints the result line the benchmark contract asks for.
fn print_result(attempted: u64, failed: u64, units: &[(&str, &str)], values: &BTreeMap<&str, f64>) {
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            // A metric the workload never exercises reads 0; so does one
            // that came out non-finite, which JSON cannot carry.
            let value = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    let w = workloads::build(name, args.seed, args.seconds).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (expected one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    if args.trace {
        let traced = layers::run(&w).map_err(|e| format!("{name}: {e}"))?;
        if let Some(why) = &traced.first_failure {
            eprintln!("{name}: {why}");
        }
        print_result(
            traced.attempted,
            traced.failed,
            &layers::PER_LAYER.map(|(name, unit, _)| (name, unit)),
            &traced.metrics,
        );
    } else {
        let result = e2e::run(&w, args.seconds).map_err(|e| format!("{name}: {e}"))?;
        if let Some(why) = &result.first_failure {
            eprintln!("{name}: {why}");
        }
        eprintln!("{name}: {}", aa::describe(&result));
        if result.rounds < w.rounds {
            eprintln!(
                "{name}: cut short at the deadline after {} of {} rounds",
                result.rounds, w.rounds
            );
        }
        print_result(
            result.attempted,
            result.failed,
            &END_TO_END,
            &aa::end_to_end_values(&result),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        let http = args.get(1).map(String::as_str) == Some("--http");
        return match daemon::serve(http) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\nusage: spanner-e2e --workload <name> [--seed N] [--seconds N] [--trace 0|1] | --aa N");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.aa {
        return match aa::run(n, args.seed, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    // No `--workload`: every workload in turn, one result line each.
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    for name in names {
        if let Err(message) = run_workload(name, &args) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_serve::Json;

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units: the driver refuses a result whose
    /// metrics are not exactly the declared ones.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("`{key}` array"))
                .iter()
                .map(|entry| {
                    entry
                        .get(field)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("`{key}` entries have `{field}`"))
                        .to_string()
                })
                .collect()
        };
        assert_eq!(list("workloads", "name"), workloads::NAMES);
        assert_eq!(list("end_to_end", "name"), END_TO_END.map(|(name, _)| name));
        assert_eq!(list("end_to_end", "unit"), END_TO_END.map(|(_, unit)| unit));
        assert_eq!(
            list("per_layer", "name"),
            layers::PER_LAYER.map(|(name, _, _)| name)
        );
        assert_eq!(
            list("per_layer", "unit"),
            layers::PER_LAYER.map(|(_, unit, _)| unit)
        );
        assert_eq!(
            list("per_layer", "better"),
            layers::PER_LAYER.map(|(_, _, better)| better)
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_usize),
            Some(workloads::GOLDEN_SECONDS as usize)
        );
    }
}
