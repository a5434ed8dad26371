//! The `zsl-import` binary end to end: `--features-csv <dir>` converts a
//! bundle's `features.csv` to the `features.zsb` zsl-core's bundle reader
//! reads.

mod common;

use common::scratch_dir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use zsl_core::data::{StreamingBundle, FEATURES_CSV, FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT};

fn tiny_bundle() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures/tiny_bundle")
}

/// A scratch copy of the committed fixture's three text files: a bundle
/// whose features are CSV only.
fn csv_bundle(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    for name in [FEATURES_CSV, SIGNATURES_CSV, SPLITS_TXT] {
        std::fs::copy(tiny_bundle().join(name), dir.join(name)).expect("copy fixture");
    }
    dir
}

fn import_features_csv(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zsl-import"))
        .arg("--features-csv")
        .arg(dir)
        .output()
        .expect("run zsl-import")
}

#[test]
fn features_csv_import_reproduces_the_committed_zsb() {
    let dir = csv_bundle("cli_csv");
    let out = import_features_csv(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(dir.join(FEATURES_ZSB)).expect("read imported"),
        std::fs::read(tiny_bundle().join(FEATURES_ZSB)).expect("read committed"),
    );
    let bundle = StreamingBundle::open(&dir, usize::MAX).expect("open");
    bundle.to_dataset().expect("materialize");
    assert_eq!(bundle.num_samples(), 24);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ragged_csv_exits_nonzero_naming_the_line() {
    let dir = csv_bundle("cli_ragged");
    let csv = dir.join(FEATURES_CSV);
    let mut text = std::fs::read_to_string(&csv).expect("read csv");
    let ragged_line = text.lines().count() + 1;
    text.push_str("3,1.0\n");
    std::fs::write(&csv, text).expect("write csv");

    let out = import_features_csv(&dir);
    assert!(!out.status.success(), "a ragged table must fail the import");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{FEATURES_CSV}:{ragged_line}: ragged row")),
        "stderr: {stderr}"
    );
    assert!(!dir.join(FEATURES_ZSB).exists());
    std::fs::remove_dir_all(&dir).ok();
}
