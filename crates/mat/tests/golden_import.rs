//! Golden-import pinning: two committed byte-exact `.mat` fixture pairs
//! (little-endian compressed, big-endian plain — same synthetic dataset)
//! must keep converting to byte-identical bundles and the same GZSL report
//! bits, release after release. If an intentional format change shifts the
//! bytes, regenerate with `make import-fixtures` (which runs the `#[ignore]`
//! test below) and commit the new digests it prints.

mod common;

use common::{synth_xlsa, write_pair, PairOpts};
use std::path::{Path, PathBuf};
use zsl_core::data::DatasetBundle;
use zsl_core::{evaluate_gzsl, EszslConfig, Similarity};
use zsl_mat::{ByteOrder, Compression, MatBundle};

/// FNV-1a digests of the converted bundle files. Both fixture variants must
/// produce these same bytes — the on-disk byte order and compression of the
/// source `.mat` never leak into the output.
const GOLDEN_FEATURES_FNV: u64 = 0x06ab9c7f1b83d6dd;
const GOLDEN_SIGNATURES_FNV: u64 = 0x8caacf2171bd0fd4;
const GOLDEN_SPLITS_FNV: u64 = 0xb07aceb556d1c255;
/// `(seen, unseen, harmonic)` accuracy bits of the ESZSL GZSL report trained
/// from the converted bundle.
const GOLDEN_REPORT_BITS: [u64; 3] = [0x3ff0000000000000, 0x3fe2000000000000, 0x3fe70a3d70a3d70a];

const FIXTURE_SEED: u64 = 0xA1;
const VARIANTS: [(&str, ByteOrder, Compression); 2] = [
    ("le_fixed", ByteOrder::Little, Compression::FixedHuffman),
    ("be_plain", ByteOrder::Big, Compression::None),
];

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn convert_fixture(name: &str) -> (u64, u64, u64, [u64; 3]) {
    let src = fixtures_root().join(name);
    let bundle = MatBundle::open(&src.join("res101.mat"), &src.join("att_splits.mat"))
        .unwrap_or_else(|e| panic!("open fixture {name}: {e}"));
    let out = common::scratch_dir(&format!("golden_{name}"));
    bundle.convert_to_zsb(&out, 7).expect("convert");
    let digests = (
        fnv1a(&std::fs::read(out.join("features.zsb")).expect("features.zsb")),
        fnv1a(&std::fs::read(out.join("signatures.csv")).expect("signatures.csv")),
        fnv1a(&std::fs::read(out.join("splits.txt")).expect("splits.txt")),
    );
    let ds = DatasetBundle::load(&out)
        .expect("load")
        .to_dataset()
        .expect("dataset");
    let model = EszslConfig::new()
        .gamma(10.0)
        .lambda(0.1)
        .build()
        .fit(&ds)
        .expect("fit");
    let report = evaluate_gzsl(&model, &ds, Similarity::Dot).expect("evaluate");
    let bits = [
        report.seen_accuracy.to_bits(),
        report.unseen_accuracy.to_bits(),
        report.harmonic_mean.to_bits(),
    ];
    std::fs::remove_dir_all(&out).ok();
    (digests.0, digests.1, digests.2, bits)
}

#[test]
fn committed_fixtures_convert_to_the_golden_bundle() {
    for (name, _, _) in VARIANTS {
        let (features, signatures, splits, bits) = convert_fixture(name);
        assert_eq!(
            features, GOLDEN_FEATURES_FNV,
            "{name}: features.zsb bytes drifted"
        );
        assert_eq!(
            signatures, GOLDEN_SIGNATURES_FNV,
            "{name}: signatures.csv bytes drifted"
        );
        assert_eq!(
            splits, GOLDEN_SPLITS_FNV,
            "{name}: splits.txt bytes drifted"
        );
        assert_eq!(bits, GOLDEN_REPORT_BITS, "{name}: GzslReport bits drifted");
    }
}

/// Rewrites the committed fixture pairs and prints the constants to paste
/// above. Run via `make import-fixtures`.
#[test]
#[ignore = "regenerates committed fixtures; run explicitly via `make import-fixtures`"]
fn regenerate_import_fixtures() {
    let ds = synth_xlsa(FIXTURE_SEED);
    for (name, order, compression) in VARIANTS {
        let dir = fixtures_root().join(name);
        std::fs::create_dir_all(&dir).expect("fixture dir");
        write_pair(
            &dir,
            &ds,
            PairOpts {
                order,
                compression,
                narrow: matches!(order, ByteOrder::Big),
            },
        );
    }
    let (features, signatures, splits, bits) = convert_fixture(VARIANTS[0].0);
    println!("const GOLDEN_FEATURES_FNV: u64 = {features:#018x};");
    println!("const GOLDEN_SIGNATURES_FNV: u64 = {signatures:#018x};");
    println!("const GOLDEN_SPLITS_FNV: u64 = {splits:#018x};");
    println!(
        "const GOLDEN_REPORT_BITS: [u64; 3] = [{:#018x}, {:#018x}, {:#018x}];",
        bits[0], bits[1], bits[2]
    );
}
