//! A streamed `.zsb` pass reads each requested feature row once.
//!
//! One shuffled pass over every trainval position of a bundle, the shape of
//! a cross-validation fold's stream, must read about the feature bytes it
//! asks for. The bytes are the process's `rchar` from `/proc/self/io`, so
//! this test is Linux-only and alone in its binary: no other test reads
//! files while it measures.
#![cfg(target_os = "linux")]

use zsl_core::data::{export_dataset, StreamingBundle, SyntheticConfig};
use zsl_core::{FeatureSource, Rng};

/// Bytes this process has read through read-family system calls so far.
fn rchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
    io.lines()
        .find_map(|line| line.strip_prefix("rchar:"))
        .and_then(|value| value.trim().parse().ok())
        .expect("an rchar line")
}

#[test]
fn a_shuffled_trainval_pass_reads_each_feature_row_once() {
    // 2000 trainval rows of 2 KiB each, written in ascending order; the
    // shuffle turns them into one-row runs.
    let ds = SyntheticConfig::new()
        .classes(20, 4)
        .dims(16, 256)
        .samples(100, 2)
        .seed(5)
        .build();
    let dir = std::env::temp_dir().join(format!("zsl_read_once_{}", std::process::id()));
    export_dataset(&ds, &dir).expect("export");
    let bundle = StreamingBundle::open(&dir, 1024).expect("open");
    let n = bundle.trainval_len();
    assert_eq!(n, 2000);
    let mut positions: Vec<usize> = (0..n).collect();
    Rng::new(42).shuffle(&mut positions);
    let requested = (n * bundle.feature_dim() * 8) as u64;

    let before = rchar();
    let mut rows = 0;
    for chunk in bundle.stream_trainval_subset(&positions).expect("stream") {
        rows += chunk.expect("chunk").0.rows();
    }
    let read = rchar() - before;

    assert_eq!(rows, n);
    let bound = requested + requested / 4 + (64 << 10);
    assert!(
        read <= bound,
        "one pass read {read} bytes for {requested} bytes of features (bound {bound}, {:.2}x)",
        read as f64 / requested as f64
    );
    std::fs::remove_dir_all(&dir).ok();
}
