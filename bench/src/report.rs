//! Metric names, units, and the summary line the contract asks for.

use crate::measure::percentile;
use crate::{Outcome, RunConfig};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("gzsl_h", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload in a traced run; a layer
/// the workload never enters reads 0. Times are per op (the mean over the
/// traced ops) and are self times, except `core.trainer.fit_s`, which is the
/// whole fit. `bench/README.md` lists the call each one times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.overhead_us", "us"),
    ("serve.http.req_bytes", "bytes"),
    ("serve.http.resp_bytes", "bytes"),
    ("serve.batch.wait_us", "us"),
    ("serve.batch.rows_per_batch", "rows"),
    ("serve.batch.batches", "count"),
    ("serve.model.boot_ms", "ms"),
    ("core.artifact.load_ms", "ms"),
    ("core.artifact.save_ms", "ms"),
    ("core.infer.project_us", "us"),
    ("core.infer.rank_us", "us"),
    ("mat.mat5.open_ms", "ms"),
    ("mat.stream.decode_s", "s"),
    ("mat.xlsa.write_s", "s"),
    ("core.data.read_s", "s"),
    ("core.model.gram_s", "s"),
    ("core.model.solves", "count"),
    ("core.linalg.cholesky_calls", "count"),
    ("core.linalg.cholesky_s", "s"),
    ("core.linalg.triangular_s", "s"),
    ("core.eval.validate_s", "s"),
    ("core.eval.gzsl_s", "s"),
    ("core.trainer.fit_s", "s"),
    ("core.linalg.eigen_s", "s"),
    ("core.linalg.sylvester_rest_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What a workload hands back before the summary is assembled.
#[derive(Debug, Default)]
pub struct Collected {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks outside the measured ops; any `false` makes the run
    /// incorrect.
    pub checks: Vec<(String, bool)>,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Collected {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The measured ops' latency metrics: the median, ops per second over the
/// measured wall time, and process CPU (every thread, daemon included) per
/// op. The two wall-clock figures are taken on vCPUs of the program's own:
/// scaled by `1 - stolen`, the share of vCPU time the hypervisor stole
/// during the phase ([`crate::measure::Steal`]). p90, p99, the op count and
/// the figures as measured are printed, not gated.
pub fn latency_metrics(
    c: &mut Collected,
    latencies_s: &[f64],
    wall_s: f64,
    cpu_s: f64,
    stolen: f64,
) {
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ops = sorted.len();
    let ms = |p: f64| percentile(&sorted, p) * 1e3;
    let cpu_ms_per_op = cpu_s * 1e3 / ops.max(1) as f64;
    let available = 1.0 - stolen;
    c.set("p50_ms", ms(0.5) * available);
    c.set("ops_per_s", ops as f64 / (wall_s * available));
    c.set("cpu_ms_per_op", cpu_ms_per_op);
    c.note(format!(
        "ops {ops} in {wall_s:.3} s as measured: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms, \
         {:.4} ops/s; cpu {cpu_ms_per_op:.4} ms/op; stolen share of vCPU time {stolen:.4}",
        ms(0.5),
        ms(0.9),
        ms(0.99),
        ops as f64 / wall_s
    ));
}

/// Order the metrics as the contract lists them and fold the checks into
/// `correct`. A missing end-to-end metric is a benchmark bug, not a result.
pub fn finish(config: &RunConfig, collected: Collected) -> Result<Outcome, String> {
    let names = if config.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match collected.values.get(name) {
            Some(&v) => v,
            None if config.trace => 0.0,
            None => return Err(format!("{} did not report {name}", config.workload.name())),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        metrics.push((name, value, unit));
    }
    let mut notes = collected.notes;
    let mut correct = collected.failed == 0 && collected.attempted > 0;
    for (what, ok) in &collected.checks {
        notes.push(format!(
            "check {}: {what}",
            if *ok { "ok" } else { "FAILED" }
        ));
        correct &= ok;
    }
    let error_rate = collected.failed as f64 / collected.attempted.max(1) as f64;
    notes.push(format!(
        "error_rate {error_rate} ({} failed / {} attempted)",
        collected.failed, collected.attempted
    ));
    Ok(Outcome {
        correct,
        attempted: collected.attempted,
        failed: collected.failed,
        metrics,
        notes,
    })
}

/// The contract's last line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn summary_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
