//! Shared helpers for the integration-test binaries.
//!
//! The FNV-1a digests here are the single definition both the golden-fixture
//! constants (`golden_loader.rs`) and the property sweeps (`property.rs`)
//! pin against — one implementation, so the two suites can never silently
//! start hashing different quantities. [`write_features_csv`] writes the CSV
//! input of `zsl_core::data::import_features_csv`, and [`pipeline_protocol`]
//! runs the full protocol through the `Pipeline` facade.
#![allow(dead_code)] // not every test binary uses every helper

use std::fmt::Write;
use std::path::Path;
use zsl_core::data::FeatureTable;
use zsl_core::eval::{CrossValConfig, CrossValReport, GzslReport};
use zsl_core::linalg::Matrix;
use zsl_core::source::FeatureSource;
use zsl_core::Pipeline;

/// The full protocol through the facade with its default ESZSL trainer:
/// cross-validate, refit at the winner, evaluate GZSL.
pub fn pipeline_protocol<S: FeatureSource + ?Sized>(
    source: &S,
    config: &CrossValConfig,
) -> (CrossValReport, GzslReport) {
    let trained = Pipeline::from(source)
        .cross_validate(config)
        .expect("cv")
        .train()
        .expect("train");
    let report = trained.evaluate().expect("evaluate");
    (trained.cv_report().expect("cv report").clone(), report)
}

/// FNV-1a offset basis.
pub fn fnv_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// Fold one `u64` into an FNV-1a hash, byte by byte (little-endian).
pub fn fnv_u64(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over the exact little-endian bit patterns of a matrix
/// (shape-prefixed) — one u64 freezes every parsed float.
pub fn digest_matrix(m: &Matrix) -> u64 {
    let mut hash = fnv_seed();
    hash = fnv_u64(hash, m.rows() as u64);
    hash = fnv_u64(hash, m.cols() as u64);
    for &v in m.as_slice() {
        hash = fnv_u64(hash, v.to_bits());
    }
    hash
}

/// FNV-1a over a dense label list.
pub fn digest_labels(labels: &[usize]) -> u64 {
    let mut hash = fnv_seed();
    for &l in labels {
        hash = fnv_u64(hash, l as u64);
    }
    hash
}

/// Write a feature table as CSV, one `label,f0,f1,...` line per sample. `{}`
/// on f64 prints the shortest text that parses back to the same bits, so
/// importing the file reproduces the table exactly.
pub fn write_features_csv(path: &Path, table: &FeatureTable) {
    let mut out = String::new();
    for (i, label) in table.labels.iter().enumerate() {
        write!(out, "{label}").expect("string write");
        for v in table.features.row(i) {
            write!(out, ",{v}").expect("string write");
        }
        out.push('\n');
    }
    std::fs::write(path, out).expect("write features.csv");
}
