//! Steadiness report and record comparison.
//!
//! `steady` runs the same build repeatedly — one child process per run, each
//! with its own seed — appends every run's record (host stamp and summary
//! line) to a JSON-lines file, and prints for each workload and metric the
//! median, the quartiles as Python's `statistics.quantiles(values, n=4)`
//! gives them, and the spread (Q3 − Q1) / median next to the metric's bound
//! in `BENCHMARK.json`. `compare` diffs the medians of two record files, but
//! only when every record carries the same host fingerprint: records from
//! different hosts are reported as incomparable, never diffed.

use crate::cli::{self, WORK_ROOT};
use crate::host::HostStamp;
use crate::json::{self, Json};
use crate::measure::{median, quartiles};
use crate::report::{END_TO_END, PER_LAYER};
use crate::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct SteadyConfig {
    pub runs: usize,
    pub workloads: Vec<Workload>,
    pub seconds: f64,
    pub trace: bool,
    /// Run `i` of each workload uses seed `first_seed + i`.
    pub first_seed: u64,
    /// JSON-lines file the records are appended to.
    pub records: PathBuf,
}

impl SteadyConfig {
    pub fn from_flags(flags: &BTreeMap<String, String>) -> Result<SteadyConfig, String> {
        cli::only(
            flags,
            &[
                "runs",
                "workloads",
                "seconds",
                "trace",
                "first-seed",
                "records",
            ],
        )?;
        let workloads = match flags.get("workloads") {
            Some(list) => list
                .split(',')
                .map(Workload::parse)
                .collect::<Result<_, _>>()?,
            None => Workload::ALL.to_vec(),
        };
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Ok(SteadyConfig {
            runs: cli::value(flags, "runs")?.unwrap_or(10),
            workloads,
            seconds: cli::value(flags, "seconds")?.unwrap_or_else(run_seconds),
            trace: cli::trace_flag(flags)?,
            first_seed: cli::value(flags, "first-seed")?.unwrap_or(1),
            records: flags.get("records").map_or_else(
                || Path::new(WORK_ROOT).join(format!("records-{stamp}.jsonl")),
                PathBuf::from,
            ),
        })
    }
}

/// `BENCHMARK.json` in the working directory, if there is one.
fn benchmark_json() -> Option<Json> {
    json::parse(&std::fs::read_to_string("BENCHMARK.json").ok()?).ok()
}

/// The measured-phase length `BENCHMARK.json` declares (10 s without one).
fn run_seconds() -> f64 {
    benchmark_json()
        .and_then(|doc| doc.get("run_seconds")?.as_f64())
        .unwrap_or(10.0)
}

/// `(better, bound)` of each end-to-end metric `BENCHMARK.json` declares.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let Some(doc) = benchmark_json() else {
        return BTreeMap::new();
    };
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// One run as recorded: workload, host stamp, and the summary's metrics.
struct Record {
    workload: String,
    host: HostStamp,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn parse_record(line: &str) -> Result<Record, String> {
    let doc = json::parse(line)?;
    let summary = doc.get("summary").ok_or("record without a summary")?;
    let metrics = summary
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("summary without metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Record {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload")?
            .to_string(),
        host: doc
            .get("host")
            .and_then(HostStamp::from_json)
            .ok_or("record without a host stamp")?,
        correct: summary.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_record(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Workloads in first-seen order.
fn workloads_of(records: &[Record]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for r in records {
        if !out.contains(&r.workload.as_str()) {
            out.push(&r.workload);
        }
    }
    out
}

/// One metric's value in every record of one workload.
fn series(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Run every workload `runs` times in child processes and report spreads.
pub fn steady(config: &SteadyConfig) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    if let Some(dir) = config.records.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&config.records)
        .map_err(|e| format!("open {}: {e}", config.records.display()))?;
    let mut records = Vec::new();
    for workload in &config.workloads {
        for i in 0..config.runs {
            let seed = config.first_seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &config.seconds.to_string()])
                .args(["--trace", if config.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed} failed ({}): {}",
                    workload.name(),
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let summary = stdout.lines().last().ok_or("a run printed nothing")?;
            let host = stdout
                .lines()
                .find_map(|l| l.strip_prefix("host "))
                .ok_or("a run printed no host stamp")?;
            let line = format!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"host\": {host}, \"summary\": {summary}}}",
                workload.name(),
                u8::from(config.trace)
            );
            writeln!(file, "{line}")
                .map_err(|e| format!("write {}: {e}", config.records.display()))?;
            eprintln!("{} seed {seed}: {summary}", workload.name());
            records.push(parse_record(&line)?);
        }
    }
    print_spread(&records, &bounds());
    println!("records: {}", config.records.display());
    Ok(0)
}

fn print_spread(records: &[Record], bounds: &BTreeMap<String, (String, f64)>) {
    println!(
        "{:<11} {:<28} {:>4} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"
    );
    for workload in workloads_of(records) {
        let incorrect = records
            .iter()
            .filter(|r| r.workload == workload && !r.correct)
            .count();
        if incorrect > 0 {
            println!("{workload}: {incorrect} run(s) reported correct=false");
        }
        for (metric, _) in END_TO_END.iter().chain(PER_LAYER) {
            let samples = series(records, workload, metric);
            let Some((q1, q2, q3)) = quartiles(&samples) else {
                continue;
            };
            let spread = (q3 - q1) / q2;
            let (bound, verdict) = match bounds.get(*metric) {
                None => ("-".to_string(), ""),
                Some((_, b)) => (
                    format!("{b}"),
                    if spread <= b / 3.0 {
                        "steady"
                    } else if spread <= *b {
                        "within bound"
                    } else {
                        "UNSTEADY"
                    },
                ),
            };
            println!(
                "{workload:<11} {metric:<28} {:>4} {q2:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}  {verdict}",
                samples.len()
            );
        }
    }
}

/// Diff the per-workload medians of two record files from the same host.
pub fn compare(base: &Path, new: &Path) -> Result<i32, String> {
    let (a, b) = (read_records(base)?, read_records(new)?);
    let fingerprints =
        |rs: &[Record]| -> BTreeSet<String> { rs.iter().map(|r| r.host.fingerprint()).collect() };
    let (fa, fb) = (fingerprints(&a), fingerprints(&b));
    if fa.len() != 1 || fa != fb {
        println!("incomparable: the records do not share one host fingerprint");
        for f in &fa {
            println!("  base: {f}");
        }
        for f in &fb {
            println!("  new:  {f}");
        }
        return Ok(2);
    }
    let bounds = bounds();
    println!(
        "{:<11} {:<16} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "base median", "new median", "change", "bound"
    );
    let mut regressions = 0;
    for workload in workloads_of(&a) {
        for (metric, _) in END_TO_END {
            let (va, vb) = (series(&a, workload, metric), series(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let mut flag = "";
            let mut bound = "-".to_string();
            if let Some((better, b)) = bounds.get(*metric) {
                bound = format!("{b}");
                let worse = if better == "higher" { -change } else { change };
                if worse > *b {
                    flag = "  WORSE";
                    regressions += 1;
                }
            }
            println!(
                "{workload:<11} {metric:<16} {ma:>14.6} {mb:>14.6} {:>+8.2}% {bound:>6}{flag}",
                change * 100.0
            );
        }
    }
    Ok(if regressions > 0 { 1 } else { 0 })
}
