//! Command-line parsing and dispatch.

use crate::{report, steady, RunConfig, Scale, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;

const USAGE: &str = "usage:
  zsl-bench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
  zsl-bench steady [--runs <n>] [--workloads <a,b,...>] [--seconds <s>] [--trace 0|1] [--first-seed <n>] [--records <file>]
  zsl-bench compare <base.jsonl> <new.jsonl>
workloads: serve-rows, serve-bulk, train-xlsa, fit-sae";

/// Scratch root for runs and records, relative to the working directory.
pub const WORK_ROOT: &str = ".bench_work";

/// Run the command line; the returned code is the process exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("steady") => steady::steady(&steady::SteadyConfig::from_flags(&flags(&args[1..])?)?),
        Some("compare") => match &args[1..] {
            [base, new] => steady::compare(Path::new(base), Path::new(new)),
            _ => Err(USAGE.into()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => run(&flags(args)?),
    }
}

/// `--key value` pairs; a repeated key is an error.
pub fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{arg}'\n{USAGE}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} needs a value\n{USAGE}"))?;
        if out.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

/// The parsed value of an optional flag.
pub fn value<T: FromStr>(flags: &BTreeMap<String, String>, key: &str) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("bad --{key} value '{v}'")))
        .transpose()
}

/// Reject flags a mode does not know.
pub fn only(flags: &BTreeMap<String, String>, known: &[&str]) -> Result<(), String> {
    match flags.keys().find(|k| !known.contains(&k.as_str())) {
        Some(key) => Err(format!("unknown flag --{key}\n{USAGE}")),
        None => Ok(()),
    }
}

/// `--trace 0|1`, default 0.
pub fn trace_flag(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    match flags.get("trace").map(String::as_str) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("bad --trace value '{other}', expected 0 or 1")),
    }
}

fn run(flags: &BTreeMap<String, String>) -> Result<i32, String> {
    only(flags, &["workload", "seed", "seconds", "trace"])?;
    let missing = |key: &str| format!("missing --{key}\n{USAGE}");
    let workload = flags.get("workload").ok_or_else(|| missing("workload"))?;
    let seconds: f64 = value(flags, "seconds")?.ok_or_else(|| missing("seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let config = RunConfig {
        workload: Workload::parse(workload)?,
        seed: value(flags, "seed")?.ok_or_else(|| missing("seed"))?,
        seconds,
        trace: trace_flag(flags)?,
        scale: Scale::Full,
        work_root: PathBuf::from(WORK_ROOT),
    };
    let outcome = crate::run(&config)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", report::summary_line(&outcome));
    Ok(0)
}
