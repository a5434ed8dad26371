//! The host stamp printed with every record.
//!
//! Two records are comparable only when their *fingerprints* match: core
//! count, linalg pool width, CPU model and compiler. The git sha and the seed
//! are part of the stamp but not of the fingerprint — comparing two commits,
//! or two seeds, on one host is the point of a comparison.

use crate::json::{escape, Json};
use std::process::Command;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostStamp {
    pub nproc: usize,
    pub pool_threads: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_sha: String,
    pub seed: u64,
}

impl HostStamp {
    pub fn probe(seed: u64) -> HostStamp {
        HostStamp {
            nproc: zsl_core::default_threads(),
            pool_threads: zsl_core::pool_threads(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_sha: git_sha(),
            seed,
        }
    }

    /// The part of the stamp that must match for two records to be diffed.
    pub fn fingerprint(&self) -> String {
        format!(
            "nproc={} pool_threads={} cpu_model={} rustc={}",
            self.nproc, self.pool_threads, self.cpu_model, self.rustc
        )
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_threads\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \
             \"git_sha\": \"{}\", \"seed\": {}}}",
            self.nproc,
            self.pool_threads,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.git_sha),
            self.seed
        )
    }

    pub fn from_json(value: &Json) -> Option<HostStamp> {
        Some(HostStamp {
            nproc: value.get("nproc")?.as_f64()? as usize,
            pool_threads: value.get("pool_threads")?.as_f64()? as usize,
            cpu_model: value.get("cpu_model")?.as_str()?.to_string(),
            rustc: value.get("rustc")?.as_str()?.to_string(),
            git_sha: value.get("git_sha")?.as_str()?.to_string(),
            seed: value.get("seed")?.as_f64()? as u64,
        })
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's stdout, or `None` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// HEAD of the repository the benchmark runs in — only when the current
/// directory is that repository's top level, never an enclosing one.
fn git_sha() -> String {
    let cwd = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = command_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    match (cwd, top) {
        (Some(cwd), Some(top)) if cwd == top => {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}
