//! `zsl-import` — convert foreign feature dumps into a zsl bundle directory:
//! an xlsa17 benchmark (`res101.mat` + `att_splits.mat`), or a bundle's CSV
//! feature table (`features.csv` → `features.zsb`, the one feature format the
//! zsl-core loaders read).
//!
//! ```sh
//! zsl-import --res101 AWA2/res101.mat --att-splits AWA2/att_splits.mat \
//!     --out /tmp/awa2_bundle
//! zsl-import --features-csv /tmp/csv_bundle
//! # then train/evaluate against it:
//! cargo run --release --example eval_dataset -- train /tmp/awa2_bundle --save /tmp/m.zsm
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use zsl_core::data::{import_features_csv, FEATURES_CSV, FEATURES_ZSB};
use zsl_mat::{MatBundle, DEFAULT_CHUNK_ROWS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: zsl-import --res101 <res101.mat> --att-splits <att_splits.mat> --out <dir> \
         [--chunk-rows N]\n       \
         zsl-import --features-csv <dir>\n\n\
         The first form reads an xlsa17 'Proposed Splits' benchmark pair (MAT level-5,\n\
         v6 or v7; v7.3/HDF5 files are rejected — re-save with save(..., '-v7')) and\n\
         writes a bundle directory (features.zsb, signatures.csv, splits.txt) loadable\n\
         by the zsl-core trainers. Features are streamed --chunk-rows samples at a time\n\
         (default {DEFAULT_CHUNK_ROWS}), so memory stays flat regardless of dataset size.\n\n\
         The second form converts <dir>/{FEATURES_CSV} (one label,f0,f1,... line per\n\
         sample) to <dir>/{FEATURES_ZSB} in two passes, holding only the labels and one\n\
         block of rows in memory.\n\n\
         Every output file is written via an atomic temp-file rename."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut res101: Option<PathBuf> = None;
    let mut att_splits: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut features_csv: Option<PathBuf> = None;
    let mut chunk_rows: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        match flag {
            "--res101" => res101 = Some(value.into()),
            "--att-splits" => att_splits = Some(value.into()),
            "--out" => out = Some(value.into()),
            "--features-csv" => features_csv = Some(value.into()),
            "--chunk-rows" => match value.parse() {
                Ok(n) if n > 0 => chunk_rows = Some(n),
                _ => {
                    eprintln!("--chunk-rows needs a positive integer, got '{value}'");
                    return usage();
                }
            },
            _ => return usage(),
        }
        i += 2;
    }
    match (features_csv, res101, att_splits, out, chunk_rows) {
        (Some(dir), None, None, None, None) => import_csv(&dir),
        (None, Some(res101), Some(att_splits), Some(out), chunk_rows) => import_mat(
            &res101,
            &att_splits,
            &out,
            chunk_rows.unwrap_or(DEFAULT_CHUNK_ROWS),
        ),
        _ => usage(),
    }
}

fn import_csv(dir: &Path) -> ExitCode {
    let (csv, zsb) = (dir.join(FEATURES_CSV), dir.join(FEATURES_ZSB));
    match import_features_csv(&csv, &zsb) {
        Ok(rows) => {
            println!("zsl-import: wrote {} ({rows} samples)", zsb.display());
            ExitCode::SUCCESS
        }
        Err(e) => fail("import", e),
    }
}

fn import_mat(res101: &Path, att_splits: &Path, out: &Path, chunk_rows: usize) -> ExitCode {
    let bundle = match MatBundle::open(res101, att_splits) {
        Ok(b) => b,
        Err(e) => return fail("open", e),
    };
    println!(
        "zsl-import: {} samples x {} features, {} classes x {} attributes \
         (trainval {}, test_seen {}, test_unseen {})",
        bundle.num_samples(),
        bundle.feature_dim(),
        bundle.num_classes(),
        bundle.attr_dim(),
        bundle.manifest().trainval.len(),
        bundle.manifest().test_seen.len(),
        bundle.manifest().test_unseen.len(),
    );
    let summary = match bundle.convert_to_zsb(out, chunk_rows) {
        Ok(s) => s,
        Err(e) => return fail("convert", e),
    };
    println!(
        "zsl-import: wrote {} (features.zsb + signatures.csv + splits.txt, \
         {} unseen classes, chunk_rows {})",
        out.display(),
        summary.unseen_classes,
        chunk_rows,
    );
    ExitCode::SUCCESS
}

fn fail(stage: &str, e: impl std::error::Error) -> ExitCode {
    eprintln!("zsl-import: {stage} failed: {e}");
    let mut source = e.source();
    while let Some(inner) = source {
        eprintln!("  caused by: {inner}");
        source = inner.source();
    }
    ExitCode::FAILURE
}
