//! Golden-fixture regression test for the dataset loader and GZSL harness.
//!
//! A tiny bundle (`features.zsb`, `signatures.csv`, `splits.txt`) is
//! committed under `tests/fixtures/tiny_bundle/`, next to `features.csv`,
//! the same table as CSV: the golden input of the CSV import, which must
//! reproduce the committed `features.zsb` byte for byte. This test freezes
//! (a) the parsed contents — via FNV-1a digests over the exact f64 bit
//! patterns — and (b) the `GzslReport` the fixture produces after training,
//! so any drift in the binary layout, CSV import, label remapping, split
//! materialization, trainer numerics, or report plumbing fails loudly.
//!
//! To regenerate after an *intentional* format change:
//! `cargo test -p zsl-core --test golden_loader -- --ignored regenerate`
//! then copy the printed constants into this file and commit the new fixture.

mod common;

use common::{bundle_literal, digest_labels, digest_matrix, write_features_csv};
use std::path::PathBuf;
use zsl_core::data::format::read_zsb;
use zsl_core::data::{
    export_dataset, import_features_csv, StreamingBundle, SyntheticConfig, FEATURES_CSV,
    FEATURES_ZSB,
};
use zsl_core::eval::evaluate_gzsl;
use zsl_core::infer::Similarity;
use zsl_core::model::{EszslConfig, EszslProblem, GramAccumulator};
use zsl_core::source::{FeatureSource, SplitKind};
use zsl_core::Dataset;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_bundle")
}

/// The generator config behind the committed fixture. Only the regeneration
/// path uses it; the golden assertions read the files alone.
fn fixture_config() -> SyntheticConfig {
    SyntheticConfig::new()
        .classes(4, 2)
        .dims(2, 3)
        .samples(3, 2)
        .noise(0.1)
        .seed(7)
}

fn digest_dataset(ds: &Dataset) -> [u64; 8] {
    [
        digest_matrix(&ds.train_x),
        digest_labels(&ds.train_labels),
        digest_matrix(&ds.test_seen_x),
        digest_labels(&ds.test_seen_labels),
        digest_matrix(&ds.test_unseen_x),
        digest_labels(&ds.test_unseen_labels),
        digest_matrix(&ds.seen_signatures),
        digest_matrix(&ds.unseen_signatures),
    ]
}

// ---------------------------------------------------------------------------
// Frozen constants. Regenerate with the ignored test below.
// ---------------------------------------------------------------------------

/// Digests of the raw bundle: features matrix, dense labels, signatures.
const GOLDEN_BUNDLE: [u64; 3] = [
    0x73b6_03ed_aa34_e210,
    0x2b2d_5d50_28d8_8b45,
    0x5e93_5227_fcc3_5a95,
];

/// Digests of the materialized `Dataset` splits (see [`digest_dataset`]).
const GOLDEN_DATASET: [u64; 8] = [
    0xec30_fa77_8130_7f9a,
    0xfc06_359d_60eb_b6a5,
    0xa9fa_596d_a33e_a9f9,
    0xfcb9_ff7e_38e6_a465,
    0xf94b_7fd5_57c6_391f,
    0xdc7e_c1b9_4565_2785,
    0xb835_15ca_3884_030a,
    0xf958_1ef3_8936_7c48,
];

/// Frozen `GzslReport` of the γ = λ = 1 trainer on the fixture, as exact f64
/// bit patterns: seen accuracy 0.25, unseen accuracy 0.5, harmonic mean 1/3
/// (the tiny noisy fixture is deliberately hard — only drift matters here).
const GOLDEN_REPORT_BITS: [u64; 3] = [
    0x3fd0_0000_0000_0000,
    0x3fe0_0000_0000_0000,
    0x3fd5_5555_5555_5555,
];

/// Digests of the *streamed* Gram accumulators over the fixture's trainval
/// split: `XᵀX`, `XᵀYS`, `SᵀS`. Because the streamed fold is bit-identical
/// to the in-memory product at every chunk size, one set of constants pins
/// both paths at once (and the CSV import, whose output is the same bytes).
const GOLDEN_STREAM_GRAM: [u64; 3] = [
    0xb7c5_b816_6f4e_159a,
    0x32fd_c02f_f247_598d,
    0x2116_bd71_681f_8716,
];

#[test]
fn fixture_parses_to_frozen_contents_in_both_formats() {
    let dir = fixture_dir();
    let zsb = StreamingBundle::open(&dir, usize::MAX).expect("open zsb");

    // The committed CSV, imported from a scratch copy, is the committed
    // `.zsb` byte for byte.
    let scratch = std::env::temp_dir().join(format!("zsl_golden_import_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let csv = scratch.join(FEATURES_CSV);
    std::fs::copy(dir.join(FEATURES_CSV), &csv).expect("copy csv");
    let imported = scratch.join(FEATURES_ZSB);
    assert_eq!(import_features_csv(&csv, &imported).expect("import"), 24);
    assert_eq!(
        std::fs::read(&imported).expect("read imported"),
        std::fs::read(dir.join(FEATURES_ZSB)).expect("read committed"),
        "importing features.csv must reproduce the committed features.zsb"
    );
    std::fs::remove_dir_all(&scratch).ok();

    assert_eq!((zsb.num_samples(), zsb.feature_dim()), (24, 3));
    assert_eq!((zsb.num_classes(), zsb.attr_dim()), (6, 2));
    let tables = bundle_literal(&dir);
    let got = [
        digest_matrix(&tables.features),
        digest_labels(&tables.labels),
        digest_matrix(zsb.signatures()),
    ];
    assert_eq!(
        got, GOLDEN_BUNDLE,
        "raw bundle drifted: got {got:#018x?}, frozen {GOLDEN_BUNDLE:#018x?}"
    );

    let ds = zsb.to_dataset().expect("materialize splits");
    assert_eq!(ds.seen_signatures.rows(), 4);
    assert_eq!(ds.unseen_signatures.rows(), 2);
    let got = digest_dataset(&ds);
    assert_eq!(
        got, GOLDEN_DATASET,
        "materialized dataset drifted: got {got:#018x?}, frozen {GOLDEN_DATASET:#018x?}"
    );
}

#[test]
fn fixture_produces_the_frozen_gzsl_report() {
    let ds = StreamingBundle::open(&fixture_dir(), usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&ds)
        .expect("fit");
    let report = evaluate_gzsl(&model, &ds, Similarity::Cosine).expect("evaluate");
    let got = [
        report.seen_accuracy.to_bits(),
        report.unseen_accuracy.to_bits(),
        report.harmonic_mean.to_bits(),
    ];
    assert_eq!(
        got, GOLDEN_REPORT_BITS,
        "GzslReport drifted: got ({}, {}, {}), bits {got:#018x?}",
        report.seen_accuracy, report.unseen_accuracy, report.harmonic_mean
    );
    assert_eq!(report.per_class_seen.len(), 4);
    assert_eq!(report.per_class_unseen.len(), 2);
    assert!(report.per_class_seen.iter().all(|a| a.is_some()));
}

/// Streamed-accumulator digests over the fixture, at a chunk size that
/// splits the 12-row trainval split unevenly (the regen path uses the same).
fn streamed_gram_digests(dir: &std::path::Path) -> [u64; 3] {
    let bundle = StreamingBundle::open(dir, 5).expect("open stream");
    let mut acc = GramAccumulator::new(&bundle.seen_signatures());
    for chunk in FeatureSource::stream(&bundle, SplitKind::Trainval).expect("trainval stream") {
        let (x, labels) = chunk.expect("chunk");
        acc.fold(&x, &labels).expect("fold");
    }
    let problem = acc.finish().expect("finish");
    [
        digest_matrix(problem.xtx()),
        digest_matrix(problem.xtys()),
        digest_matrix(problem.sts()),
    ]
}

#[test]
fn fixture_streamed_accumulators_match_frozen_digests_and_in_memory_path() {
    let dir = fixture_dir();
    let got = streamed_gram_digests(&dir);
    assert_eq!(
        got, GOLDEN_STREAM_GRAM,
        "streamed Gram accumulators drifted: got {got:#018x?}, frozen {GOLDEN_STREAM_GRAM:#018x?}"
    );

    // And the frozen bits are exactly what the in-memory problem produces.
    let ds = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let problem = EszslProblem::from_source(&ds).expect("problem");
    assert_eq!(digest_matrix(problem.xtx()), GOLDEN_STREAM_GRAM[0]);
    assert_eq!(digest_matrix(problem.xtys()), GOLDEN_STREAM_GRAM[1]);
    assert_eq!(digest_matrix(problem.sts()), GOLDEN_STREAM_GRAM[2]);

    // The streamed GZSL report reproduces the frozen report bits too.
    let model = problem.solve(1.0, 1.0).expect("solve");
    let bundle = StreamingBundle::open(&dir, 5).expect("open");
    let report = evaluate_gzsl(&model, &bundle, Similarity::Cosine).expect("stream");
    let got = [
        report.seen_accuracy.to_bits(),
        report.unseen_accuracy.to_bits(),
        report.harmonic_mean.to_bits(),
    ];
    assert_eq!(got, GOLDEN_REPORT_BITS, "streamed GzslReport drifted");
}

/// Regenerate the committed fixture and print the frozen constants.
/// Intentional format changes only — run, copy the output into the constants
/// above, and commit the new files.
#[test]
#[ignore = "writes the committed fixture; run explicitly after intentional format changes"]
fn regenerate_fixture() {
    let dir = fixture_dir();
    let ds = fixture_config().build();
    export_dataset(&ds, &dir).expect("export zsb");
    let table = read_zsb(&dir.join(FEATURES_ZSB)).expect("read zsb");
    write_features_csv(&dir.join(FEATURES_CSV), &table);

    let bundle = bundle_literal(&dir);
    let materialized = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&materialized)
        .expect("fit");
    let report = evaluate_gzsl(&model, &materialized, Similarity::Cosine).expect("evaluate");

    println!("const GOLDEN_BUNDLE: [u64; 3] = [");
    for d in [
        digest_matrix(&bundle.features),
        digest_labels(&bundle.labels),
        digest_matrix(&bundle.signatures),
    ] {
        println!("    {d:#018x},");
    }
    println!("];");
    println!("const GOLDEN_DATASET: [u64; 8] = [");
    for d in digest_dataset(&materialized) {
        println!("    {d:#018x},");
    }
    println!("];");
    println!("const GOLDEN_REPORT_BITS: [u64; 3] = [");
    for d in [
        report.seen_accuracy.to_bits(),
        report.unseen_accuracy.to_bits(),
        report.harmonic_mean.to_bits(),
    ] {
        println!("    {d:#018x},");
    }
    println!("];");
    println!("const GOLDEN_STREAM_GRAM: [u64; 3] = [");
    for d in streamed_gram_digests(&dir) {
        println!("    {d:#018x},");
    }
    println!("];");
    println!(
        "// report: seen {} unseen {} hm {}",
        report.seen_accuracy, report.unseen_accuracy, report.harmonic_mean
    );
}
