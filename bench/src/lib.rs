//! # zsl-bench — the workspace benchmark
//!
//! One load generator that drives four workloads through the public APIs of
//! `zsl-serve`, `zsl-core` and `zsl-mat`:
//!
//! | workload | one op | layers it stresses |
//! |----------|--------|--------------------|
//! | `serve-rows` | single-row `POST /predict?k=5` over 2 keep-alive connections | `http`, `batch` (linger), per-request overhead |
//! | `serve-bulk` | 64-row `POST /predict?k=10` over 1 connection, 8192-class bank, one engine thread | `infer` scoring, request text parsing |
//! | `train-xlsa` | `.mat` import → streamed bundle → CV → fit → GZSL → save | `mat5`, `stream`, `xlsa`, `data`, `model`, `linalg` Cholesky, `eval` |
//! | `fit-sae` | `SaeTrainer::fit` on an in-memory dataset | `linalg` eigensolver (Sylvester) |
//!
//! A run with `trace = false` measures the end-to-end metrics
//! ([`report::END_TO_END`]); a separate run with `trace = true` replays ops
//! layer by layer through the same public functions, with spans recorded by
//! this crate ([`trace`]), and reports the per-layer metrics
//! ([`report::PER_LAYER`]). Every replay must reproduce its untraced op's
//! outputs bit for bit.

pub mod cli;
pub mod host;
pub mod json;
pub mod measure;
pub mod report;
pub mod sae;
pub mod serve;
pub mod steady;
pub mod trace;
pub mod workdir;
pub mod xlsa;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRows,
    ServeBulk,
    TrainXlsa,
    FitSae,
}

impl Workload {
    /// Every workload, in the order the steadiness mode runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeRows,
        Workload::ServeBulk,
        Workload::TrainXlsa,
        Workload::FitSae,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRows => "serve-rows",
            Workload::ServeBulk => "serve-bulk",
            Workload::TrainXlsa => "train-xlsa",
            Workload::FitSae => "fit-sae",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}', expected one of {names:?}")
            })
    }
}

/// Input shapes: the benchmark's own sizes, or tiny ones for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced layer replay.
    pub trace: bool,
    pub scale: Scale,
    /// Directory for the run's scratch files and its span dump.
    pub work_root: PathBuf,
}

/// Result of one run: the contract's summary line plus human-readable notes.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in the measured phase(s).
    pub attempted: u64,
    /// Ops whose output was wrong or that failed outright.
    pub failed: u64,
    /// `(name, value, unit)`, exactly [`report::END_TO_END`] or
    /// [`report::PER_LAYER`] in that order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines printed before the summary (op counts, p99, host stamp...).
    pub notes: Vec<String>,
}

/// Run one workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let work = workdir::WorkDir::create(&config.work_root, config.workload.name())?;
    let mut collected = match config.workload {
        Workload::ServeRows | Workload::ServeBulk => serve::run(config, &work)?,
        Workload::TrainXlsa => xlsa::run(config, &work)?,
        Workload::FitSae => sae::run(config, &work)?,
    };
    let host = host::HostStamp::probe(config.seed);
    collected.notes.push(format!("host {}", host.to_json()));
    report::finish(config, collected)
}
