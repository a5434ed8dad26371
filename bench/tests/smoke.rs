//! Smoke-size self-test of the benchmark: every workload at tiny shapes,
//! untraced and traced, through the entry point the command line uses.
//!
//! ```sh
//! cargo test --manifest-path bench/Cargo.toml
//! ```

use std::path::PathBuf;
use zsl_bench::{json, report, run, Outcome, RunConfig, Scale, Workload};

fn config(workload: Workload, trace: bool, tag: &str) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}")),
    }
}

fn run_ok(workload: Workload, trace: bool, tag: &str) -> Outcome {
    let outcome = run(&config(workload, trace, tag))
        .unwrap_or_else(|e| panic!("{} (trace={trace}): {e}", workload.name()));
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        "{} (trace={trace}) was not correct: {:#?}",
        workload.name(),
        outcome.notes
    );
    outcome
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .1
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.0).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_errors() {
    let expected: Vec<_> = report::END_TO_END.iter().map(|m| m.0).collect();
    for workload in Workload::ALL {
        let outcome = run_ok(workload, false, "e2e");
        assert_eq!(names(&outcome), expected);
        for (name, value, _) in &outcome.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let summary = json::parse(&report::summary_line(&outcome)).expect("summary is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(summary.get(key).is_some(), "summary lacks {key}");
        }
    }
}

#[test]
fn every_traced_replay_reproduces_its_untraced_op() {
    let expected: Vec<_> = report::PER_LAYER.iter().map(|m| m.0).collect();
    for workload in Workload::ALL {
        let outcome = run_ok(workload, true, "trace");
        assert_eq!(names(&outcome), expected);
        let coverage = metric(&outcome, "trace.coverage");
        assert!(
            coverage > 0.0 && coverage.is_finite(),
            "{}: coverage {coverage}",
            workload.name()
        );
    }
}

#[test]
fn gzsl_h_is_bit_identical_across_runs_of_one_seed() {
    for workload in Workload::ALL {
        let a = metric(&run_ok(workload, false, "bits-a"), "gzsl_h");
        let b = metric(&run_ok(workload, false, "bits-b"), "gzsl_h");
        assert_eq!(a.to_bits(), b.to_bits(), "{}", workload.name());
    }
}
