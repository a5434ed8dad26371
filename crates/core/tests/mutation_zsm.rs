//! Mutation fuzzing of the `.zsm` loaders: every mutated artifact must load
//! to an engine or fail with a typed [`ZslError`], never panic, and the heap
//! loader ([`ScoringEngine::load_with_metadata`]) and the mmap loader
//! ([`ScoringEngine::load_mapped`]) must agree: both load, to the same
//! metadata and the same scores, or both fail with the same error text.
//!
//! The seeds are the committed `tests/fixtures/tiny_bundle/model.zsm` (a
//! version-1 ESZSL artifact), the same engine re-saved by the current writer
//! with a calibration block and an aligned bank (the mmap loader borrows
//! that bank in place), and an RBF kernel-ESZSL engine trained on the same
//! bundle and saved for `f32` scoring. Case `n` draws its mutation from
//! `Rng::new(n)`, so a failing case replays alone:
//!
//! - flips of one to four random bits
//! - a truncation to a random length
//! - a splice: a random prefix of one seed joined to a random suffix of
//!   another (or the same) seed
//! - a header `u64` field, or any 8-aligned word of the file, overwritten
//!   with a huge value
//!
//! Tier-1 runs a fixed [`SMOKE_CASES`] cases; `cargo test --release -p
//! zsl-core --test mutation_zsm -- --ignored` runs the [`CAMPAIGN_CASES`]
//! campaign after them.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use zsl_core::trainer::{KernelEszslConfig, KernelKind, Trainer};
use zsl_core::{Matrix, Rng, ScoringEngine, ScoringPrecision, Similarity, StreamingBundle};

/// Cases every tier-1 run mutates.
const SMOKE_CASES: u64 = 1000;
/// Cases of the ignored long campaign, which starts after the smoke cases.
const CAMPAIGN_CASES: u64 = 1_000_000;

/// Byte offsets of the header's `u64` fields: feature dim, attribute dim,
/// class count and metadata length.
const HEADER_U64_FIELDS: [usize; 4] = [16, 24, 32, 40];

/// Values a length field is overwritten with: past every sane size, at the
/// edges where `8 * n`, `n * m` or `offset + n` overflow, and large enough
/// that an unchecked allocation from them would abort.
const HUGE: [u64; 8] = [
    u64::MAX,
    u64::MAX - 7,
    1 << 63,
    i64::MAX as u64,
    1 << 61,
    1 << 40,
    1 << 32,
    u32::MAX as u64,
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_bundle")
}

/// The seed artifacts' bytes; see the module docs.
fn seeds(dir: &Path) -> Vec<Vec<u8>> {
    let fixture = fixture_dir().join("model.zsm");
    let (engine, metadata) = ScoringEngine::load_with_metadata(&fixture).expect("load fixture");
    let calibrated = dir.join("seed_calibrated.zsm");
    engine
        .with_calibration(0.25, 4)
        .expect("calibrate")
        .save_with_metadata(&calibrated, &metadata)
        .expect("save the calibrated seed");

    let ds = StreamingBundle::open(&fixture_dir(), usize::MAX)
        .expect("open the fixture bundle")
        .to_dataset()
        .expect("materialize");
    let kernel = KernelEszslConfig::new()
        .kernel(KernelKind::Rbf { width: 0.5 })
        .build()
        .fit(&ds)
        .expect("fit the kernel seed");
    let kernel_path = dir.join("seed_kernel.zsm");
    ScoringEngine::try_new(kernel, ds.all_signatures(), Similarity::Cosine)
        .expect("kernel engine")
        .with_precision(ScoringPrecision::F32)
        .save_with_metadata(&kernel_path, "kernel seed")
        .expect("save the kernel seed");

    [fixture, calibrated, kernel_path]
        .iter()
        .map(|path| std::fs::read(path).expect("read a seed"))
        .collect()
}

/// A uniform index below `n`.
fn below(rng: &mut Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Case `case`'s mutated bytes and a description of the mutation.
fn mutate(case: u64, seeds: &[Vec<u8>]) -> (Vec<u8>, String) {
    let mut rng = Rng::new(case);
    let seed = below(&mut rng, seeds.len());
    let mut bytes = seeds[seed].clone();
    let what = match below(&mut rng, 4) {
        0 => {
            let bits: Vec<usize> = (0..1 + below(&mut rng, 4))
                .map(|_| below(&mut rng, bytes.len() * 8))
                .collect();
            for &bit in &bits {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            format!("bit flips {bits:?}")
        }
        1 => {
            let len = below(&mut rng, bytes.len());
            bytes.truncate(len);
            format!("truncation to {len} bytes")
        }
        2 => {
            let other = below(&mut rng, seeds.len());
            let cut = below(&mut rng, bytes.len() + 1);
            let from = below(&mut rng, seeds[other].len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&seeds[other][from..]);
            format!("splice of its first {cut} bytes and seed {other} from byte {from}")
        }
        _ => {
            let at = if below(&mut rng, 2) == 0 {
                HEADER_U64_FIELDS[below(&mut rng, HEADER_U64_FIELDS.len())]
            } else {
                8 * below(&mut rng, bytes.len() / 8)
            };
            let value = HUGE[below(&mut rng, HUGE.len())];
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            format!("u64 at byte {at} set to {value:#x}")
        }
    };
    (bytes, format!("seed {seed}, {what}"))
}

/// Load `path` with both loaders and describe how they disagree, if they
/// do. Two loaded engines must carry the same metadata and score a probe
/// batch to the same bits.
fn compare_loaders(path: &Path) -> Result<(), String> {
    match (
        ScoringEngine::load_with_metadata(path),
        ScoringEngine::load_mapped(path),
    ) {
        (Ok((heap, heap_meta)), Ok((mapped, mapped_meta))) => {
            if heap_meta != mapped_meta {
                return Err(format!("metadata {heap_meta:?} against {mapped_meta:?}"));
            }
            let d = heap.feature_dim();
            let probe = Matrix::from_vec(3, d, (0..3 * d).map(|i| i as f64 - 2.5).collect());
            let bits = |engine: &ScoringEngine| -> Vec<u64> {
                let scores = engine.scores(&probe);
                scores.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            if bits(&heap) != bits(&mapped) {
                return Err("the loaded engines score the probe differently".into());
            }
            Ok(())
        }
        (Err(heap), Err(mapped)) => {
            let (heap, mapped) = (heap.to_string(), mapped.to_string());
            if heap != mapped {
                return Err(format!(
                    "heap error {heap:?} against mapped error {mapped:?}"
                ));
            }
            Ok(())
        }
        (heap, mapped) => Err(format!(
            "the heap loader {} but the mapped loader {}",
            outcome(heap.map(|_| ())),
            outcome(mapped.map(|_| ()))
        )),
    }
}

fn outcome(result: Result<(), zsl_core::ZslError>) -> String {
    match result {
        Ok(()) => "loaded".into(),
        Err(e) => format!("failed with {e}"),
    }
}

/// Run `cases`, failing on the first panic or disagreement with its case
/// number and mutation.
fn run_cases(tag: &str, cases: Range<u64>) {
    let dir = std::env::temp_dir().join(format!("zsl_mutation_zsm_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the case directory");
    let seeds = seeds(&dir);
    let path = dir.join("case.zsm");
    for case in cases {
        let (bytes, what) = mutate(case, &seeds);
        std::fs::write(&path, &bytes).expect("write the case");
        match catch_unwind(AssertUnwindSafe(|| compare_loaders(&path))) {
            Ok(Ok(())) => {}
            Ok(Err(disagreement)) => panic!("case {case} ({what}): {disagreement}"),
            Err(_) => panic!("case {case} ({what}): a loader or the loaded engine panicked"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_artifacts_load_or_fail_typed_and_both_loaders_agree() {
    run_cases("smoke", 0..SMOKE_CASES);
}

#[test]
#[ignore = "long campaign; run explicitly with --ignored on a release build"]
fn mutation_campaign() {
    run_cases("campaign", SMOKE_CASES..SMOKE_CASES + CAMPAIGN_CASES);
}
