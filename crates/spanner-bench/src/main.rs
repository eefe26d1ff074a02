//! `spanner-bench list | run <out.json> [prefix…] | diff <base.json> <fresh.json>`
//! — see the crate documentation.

use spanner_bench::{diff, list, middle_visit, parse, render, Machine, Run, FAMILIES, VISITS};
use std::process::ExitCode;

const USAGE: &str = "usage: spanner-bench list
       spanner-bench run <out.json> [family prefix…]
       spanner-bench diff <base.json> <fresh.json>";

/// Measures every family whose name starts with one of `prefixes` (all of
/// them when there are none) and writes the file.
fn run(out: &str, prefixes: &[&str]) -> Result<bool, String> {
    let selected = |name: &str| prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p));
    let families = FAMILIES.iter().filter(|family| selected(family.0));
    let families: Vec<_> = families.collect();
    if families.is_empty() {
        return Err(format!("no family starts with {prefixes:?}; try `list`"));
    }
    let machine = Machine::here();
    println!("# {machine:?}");
    let visit = |_| {
        let mut run = Run::new(machine.cpus);
        families.iter().for_each(|family| run.family(family));
        run.rows
    };
    let rows = middle_visit([(); VISITS].map(visit));
    println!("# {} rows to {out}", rows.len());
    std::fs::write(out, render(&machine, &rows)).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(true)
}

/// Prints what [`diff`] finds between two files; `Ok(false)` when a row fails.
fn compare(base_path: &str, fresh_path: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let ((old, base), (new, fresh)) = (load(base_path)?, load(fresh_path)?);
    let differ = match (old.cpus, old.runs) == (new.cpus, new.runs) {
        true => "",
        false => ": the machine stamps differ, the timings below compare two machines",
    };
    println!("baseline {old:?} vs fresh {new:?}{differ}");
    let findings = diff(&base, &fresh);
    findings.iter().for_each(|(_, line)| println!("  {line}"));
    let failed = findings.iter().filter(|(fails, _)| *fails).count();
    println!(
        "{failed} of {} rows outside the tolerance fail",
        findings.len()
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["list"] => {
            print!("{}", list());
            Ok(true)
        }
        ["run", out, prefixes @ ..] => run(out, prefixes),
        ["diff", base, fresh] => compare(base, fresh),
        _ => Err(USAGE.to_string()),
    };
    let ok = outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        false
    });
    ExitCode::from(!ok as u8)
}
