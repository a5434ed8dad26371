//! Test layer for the `.zsm` model-artifact format: property round trips,
//! a committed golden artifact, and the `.zsb`-style error paths.
//!
//! Three layers, mirroring the dataset-bundle suites:
//!
//! 1. **Property** — random engines (dims × similarities × metadata) save
//!    and reload to bit-identical scores, predictions, weights, and cached
//!    banks.
//! 2. **Golden** — `tests/fixtures/tiny_bundle/model.zsm` is committed; it
//!    must load and reproduce the fixture's frozen `GzslReport` bits
//!    (`GOLDEN_REPORT_BITS`, shared with `golden_loader.rs`). Regenerate via
//!    the `--ignored regenerate_model_artifact` test after intentional
//!    format changes.
//! 3. **Errors** — truncation at every section boundary, bad magic, version
//!    skew, unknown flags, bad similarity codes, inconsistent normalization
//!    flags, trailing bytes, overflowing dims, non-UTF-8 metadata, and
//!    non-finite payloads are all typed [`DataError`]s, never panics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use zsl_core::data::{DataError, Rng, StreamingBundle, SyntheticConfig};
use zsl_core::eval::evaluate_gzsl_with;
use zsl_core::infer::{ScoringEngine, ScoringPrecision, Similarity};
use zsl_core::linalg::Matrix;
use zsl_core::model::{EszslConfig, ProjectionModel};
use zsl_core::trainer::{KernelEszslConfig, KernelKind, ModelFamily, SaeConfig, Trainer};
use zsl_core::{Pipeline, ZslError, ZSM_HEADER_LEN};

/// Frozen `GzslReport` bits of the γ = λ = 1 cosine engine on the fixture —
/// the same constants `golden_loader.rs` pins (seen 0.25, unseen 0.5,
/// harmonic mean 1/3).
const GOLDEN_REPORT_BITS: [u64; 3] = [
    0x3fd0_0000_0000_0000,
    0x3fe0_0000_0000_0000,
    0x3fd5_5555_5555_5555,
];

/// Provenance metadata of the committed golden artifact: what
/// `TrainedPipeline::save` writes for the default (γ = λ = 1 ESZSL, cosine)
/// pipeline on the fixture.
const GOLDEN_METADATA: &str = "trainer=eszsl; gamma=1; lambda=1; normalize_features=false; \
     normalize_signatures=false; similarity=cosine; seen_classes=4; unseen_classes=2";

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_bundle")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "zsl_model_artifact_{}_{tag}.zsm",
        std::process::id()
    ))
}

fn random_engine(seed: u64, d: usize, a: usize, z: usize, sim: Similarity) -> ScoringEngine {
    let mut rng = Rng::new(seed);
    let w = Matrix::from_vec(d, a, (0..d * a).map(|_| rng.normal()).collect());
    let bank = Matrix::from_vec(z, a, (0..z * a).map(|_| rng.normal()).collect());
    ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, sim).expect("engine")
}

/// The linear-family projection weights of an engine as a raw slice — the
/// suites below compare ESZSL engines bit-for-bit.
fn weights(engine: &ScoringEngine) -> &[f64] {
    engine
        .model()
        .projection()
        .expect("linear model")
        .weights()
        .as_slice()
}

/// Fit a small engine of whatever family `trainer` produces, over a fixed
/// synthetic dataset's union bank.
fn family_engine(trainer: &dyn Trainer) -> ScoringEngine {
    let ds = SyntheticConfig::new()
        .classes(6, 2)
        .dims(4, 5)
        .samples(4, 3)
        .seed(99)
        .build();
    let model = trainer.fit(&ds).expect("fit");
    ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Dot).expect("engine")
}

/// The γ = λ = 1 cosine engine over the fixture's union bank — the engine
/// the committed golden artifact freezes.
fn fixture_engine() -> ScoringEngine {
    let ds = StreamingBundle::open(&fixture_dir(), usize::MAX)
        .expect("open fixture")
        .to_dataset()
        .expect("materialize");
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&ds)
        .expect("fit");
    ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine).expect("engine")
}

// ---------------------------------------------------------------------------
// Property layer
// ---------------------------------------------------------------------------

#[test]
fn random_models_round_trip_to_bit_identical_predictions() {
    let path = temp_path("property");
    let mut case = 0u64;
    for (d, a, z) in [(3usize, 2usize, 4usize), (17, 5, 3), (8, 8, 40), (1, 1, 1)] {
        for sim in [Similarity::Cosine, Similarity::Dot] {
            case += 1;
            let metadata = format!("case={case}; d={d}; a={a}; z={z}; sim={sim}; unicode=γλ✓");
            let engine = random_engine(0xA1 + case, d, a, z, sim);
            engine.save_with_metadata(&path, &metadata).expect("save");
            let (back, meta) = ScoringEngine::load_with_metadata(&path).expect("load");
            assert_eq!(meta, metadata);
            assert_eq!(back.similarity(), sim, "case {case}");
            assert_eq!(
                weights(&back),
                weights(&engine),
                "case {case}: weights drifted"
            );
            assert_eq!(
                back.signatures().as_slice(),
                engine.signatures().as_slice(),
                "case {case}: cached bank drifted"
            );
            // Scores and predictions over a random batch are bit-identical.
            let mut rng = Rng::new(0xBA7 + case);
            let x = Matrix::from_vec(11, d, (0..11 * d).map(|_| rng.normal()).collect());
            assert_eq!(
                back.scores(&x).as_slice(),
                engine.scores(&x).as_slice(),
                "case {case}: scores drifted"
            );
            assert_eq!(back.predict(&x), engine.predict(&x), "case {case}");
            // A second save of the reloaded engine is byte-identical: the
            // format is a fixed point, not an approximation.
            let path2 = temp_path("property2");
            back.save_with_metadata(&path2, &metadata).expect("resave");
            assert_eq!(
                std::fs::read(&path).expect("read a"),
                std::fs::read(&path2).expect("read b"),
                "case {case}: resave not byte-identical"
            );
            std::fs::remove_file(&path2).ok();
        }
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Concurrency layer: the race fixes a hot-swap deployment leans on
// ---------------------------------------------------------------------------

/// Regression for the deterministic-temp-name race: two concurrent saves to
/// the *same* target path (the hot-swap retrainer scenario) used to share
/// one `<target>.tmp` file, interleave writes, and rename a corrupt blend
/// into place. With pid+counter-unique temp names, every rename installs
/// one complete artifact — so a racing reader must only ever see one of the
/// legal variants, byte-for-byte.
#[test]
fn concurrent_saves_to_one_path_never_install_a_blend() {
    let path = temp_path("save_race");
    // Distinguishable variants with *different* byte lengths (different
    // metadata and class counts), so an interleaved blend could not pass
    // for either: any mixing breaks the exact-length check or the payload
    // comparison below.
    let variants: Vec<(ScoringEngine, String)> = (0..3)
        .map(|i| {
            let engine = random_engine(0x5A + i, 4, 3, 5 + i as usize, Similarity::Cosine);
            let metadata = format!("variant={i}; {}", "x".repeat(10 * (i as usize + 1)));
            (engine, metadata)
        })
        .collect();
    variants[0]
        .0
        .save_with_metadata(&path, &variants[0].1)
        .expect("seed save");
    let legal: Vec<Vec<u8>> = variants
        .iter()
        .map(|(engine, metadata)| {
            let p = temp_path("save_race_ref");
            engine.save_with_metadata(&p, metadata).expect("ref save");
            let bytes = std::fs::read(&p).expect("read ref");
            std::fs::remove_file(&p).ok();
            bytes
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let path = path.clone();
            let (engine, metadata) = variants[w].clone();
            std::thread::spawn(move || {
                for _ in 0..40 {
                    engine.save_with_metadata(&path, &metadata).expect("save");
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let path = path.clone();
            let legal = legal.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut loads = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // Every load must parse cleanly (rename is atomic) AND
                    // match one complete variant exactly.
                    let bytes = std::fs::read(&path).expect("read");
                    assert!(
                        legal.iter().any(|l| l == &bytes),
                        "reader saw a blended artifact ({} bytes, legal: {:?})",
                        bytes.len(),
                        legal.iter().map(Vec::len).collect::<Vec<_>>()
                    );
                    let engine = ScoringEngine::load(&path).expect("load mid-save");
                    assert!(engine.num_classes() >= 5);
                    loads += 1;
                }
                loads
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader") > 0, "reader never loaded");
    }
    // No temp litter left behind in the directory.
    let dir = path.parent().expect("parent");
    let stem = path
        .file_name()
        .expect("name")
        .to_string_lossy()
        .into_owned();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&stem) && n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Cosine-bank norm validation (load + save gates)
// ---------------------------------------------------------------------------

#[test]
fn corrupted_cosine_bank_rows_are_header_errors_not_silent_mis_scoring() {
    let (path, pristine) = valid_artifact_bytes("norms");
    let bank_start = aligned_bank_start(ZSM_HEADER_LEN as usize + 1 + 8 * 4 * 3);

    // An all-zero bank row (the in-place corruption the load gate exists
    // for: the loader never re-normalizes a stored bank, so this would
    // otherwise serve scores of exactly 0 for that class forever).
    let mut zero_row = pristine.clone();
    zero_row[bank_start..bank_start + 8 * 3].fill(0);
    std::fs::write(&path, &zero_row).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("norm"), "{message}");
            assert!(message.contains("row 0"), "{message}");
        }
        other => panic!("expected Header, got {other:?}"),
    }

    // A rescaled row — unit direction, wrong length — is just as corrupt.
    let mut scaled_row = pristine.clone();
    for i in 0..3 {
        let offset = bank_start + 8 * (3 + i);
        let v = f64::from_le_bytes(scaled_row[offset..offset + 8].try_into().unwrap());
        scaled_row[offset..offset + 8].copy_from_slice(&(v * 0.5).to_le_bytes());
    }
    std::fs::write(&path, &scaled_row).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => assert!(message.contains("row 1"), "{message}"),
        other => panic!("expected Header, got {other:?}"),
    }

    // A dot-similarity artifact carries no normalization claim: the same
    // zeroed row loads fine there.
    let dot_path = temp_path("norms_dot");
    random_engine(7, 4, 3, 5, Similarity::Dot)
        .save_with_metadata(&dot_path, "m")
        .expect("save dot");
    let mut dot_bytes = std::fs::read(&dot_path).expect("read");
    dot_bytes[bank_start..bank_start + 8 * 3].fill(0);
    std::fs::write(&dot_path, &dot_bytes).expect("write");
    ScoringEngine::load(&dot_path).expect("dot artifact with zero row loads");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&dot_path).ok();
}

#[test]
fn saving_a_cosine_engine_with_a_zero_signature_row_is_a_typed_error() {
    // `l2_normalize_rows` leaves an all-zero signature row at zero, so a
    // cosine engine can legally hold one in memory — but persisting it
    // would write an artifact the loader (correctly) rejects. The save
    // gate turns that into an immediate Config error instead of a delayed
    // boot failure on the serving box.
    let model = ProjectionModel::from_weights(Matrix::identity(3));
    let bank = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]]);
    let engine = ScoringEngine::try_new(model, bank, Similarity::Cosine).expect("engine");
    let path = temp_path("zero_row_save");
    match engine.save(&path) {
        Err(ZslError::Config(msg)) => {
            assert!(msg.contains("row 1"), "{msg}");
            assert!(!path.exists(), "rejected save still wrote a file");
        }
        other => panic!("expected Config error, got {other:?}"),
    }
    // The same bank under dot similarity persists and round-trips fine.
    let model = ProjectionModel::from_weights(Matrix::identity(3));
    let bank = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]]);
    let engine = ScoringEngine::try_new(model, bank, Similarity::Dot).expect("engine");
    engine.save(&path).expect("dot save");
    ScoringEngine::load(&path).expect("dot load");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Golden layer
// ---------------------------------------------------------------------------

#[test]
fn committed_artifact_reproduces_the_frozen_gzsl_report() {
    let dir = fixture_dir();
    let (engine, metadata) =
        ScoringEngine::load_with_metadata(&dir.join("model.zsm")).expect("load golden artifact");
    assert!(
        metadata.contains("gamma=1") && metadata.contains("lambda=1"),
        "provenance metadata lost: {metadata}"
    );
    // Serving boots from the artifact + the evaluation source alone — no
    // training data, no re-solve.
    let ds = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let report = evaluate_gzsl_with(&engine, &ds).expect("evaluate");
    let got = [
        report.seen_accuracy.to_bits(),
        report.unseen_accuracy.to_bits(),
        report.harmonic_mean.to_bits(),
    ];
    assert_eq!(
        got, GOLDEN_REPORT_BITS,
        "served GzslReport drifted: got ({}, {}, {}), bits {got:#018x?}",
        report.seen_accuracy, report.unseen_accuracy, report.harmonic_mean
    );
    // And the artifact bytes themselves are what a fresh train would save.
    let fresh = fixture_engine();
    assert_eq!(
        weights(&engine),
        weights(&fresh),
        "artifact weights drifted from a fresh fixture train"
    );
    assert_eq!(
        engine.signatures().as_slice(),
        fresh.signatures().as_slice()
    );
    // The committed fixture is the version-1 backward-compat witness: it must
    // stay a v1 file (the v2 reader's v1 path decodes it as ESZSL).
    let raw = std::fs::read(dir.join("model.zsm")).expect("read fixture bytes");
    assert_eq!(
        u16::from_le_bytes(raw[4..6].try_into().unwrap()),
        1,
        "the committed fixture must remain a version-1 artifact"
    );
    assert_eq!(raw[9], 0, "v1 reserved byte");
    assert_eq!(engine.model().family(), ModelFamily::Eszsl);
}

#[test]
fn default_pipeline_saves_the_committed_artifact_provenance() {
    // `TrainedPipeline::save` takes its provenance from the trainer's
    // `describe()`: the default pipeline on the fixture must write exactly
    // the committed artifact's metadata, next to the same weights and bank.
    let dir = fixture_dir();
    let (golden, golden_metadata) =
        ScoringEngine::load_with_metadata(&dir.join("model.zsm")).expect("load golden artifact");
    assert_eq!(golden_metadata, GOLDEN_METADATA);
    let ds = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let path = temp_path("pipeline_provenance");
    Pipeline::from(&ds)
        .train()
        .expect("train")
        .save(&path)
        .expect("save");
    let (saved, metadata) = ScoringEngine::load_with_metadata(&path).expect("load saved");
    std::fs::remove_file(&path).ok();
    assert_eq!(metadata, GOLDEN_METADATA);
    assert_eq!(weights(&saved), weights(&golden));
    assert_eq!(
        saved.signatures().as_slice(),
        golden.signatures().as_slice()
    );
}

/// Regenerate the committed golden artifact. Intentional format changes
/// only — run, then commit the new `tests/fixtures/tiny_bundle/model.zsm`.
/// The fixture doubles as the version-1 backward-compat witness, so after
/// saving (which writes the current version, with an aligned bank) the file
/// is downgraded to a genuine v1 artifact: the alignment padding is spliced
/// out, the v2-only flag bits cleared, and the version stamped back to 1 —
/// an ESZSL payload is otherwise byte-identical across v1 and v2.
/// `cargo test -p zsl-core --test model_artifacts -- --ignored regenerate`
#[test]
#[ignore = "writes the committed fixture; run explicitly after intentional format changes"]
fn regenerate_model_artifact() {
    let path = fixture_dir().join("model.zsm");
    let engine = fixture_engine();
    engine
        .save_with_metadata(&path, GOLDEN_METADATA)
        .expect("save golden artifact");
    let mut bytes = std::fs::read(&path).expect("read back");
    let meta_len = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
    let d = engine.feature_dim();
    let a = engine.signatures().cols();
    let model_end = ZSM_HEADER_LEN as usize + meta_len + 8 * d * a;
    let pad = (64 - model_end % 64) % 64;
    bytes.drain(model_end..model_end + pad);
    let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    bytes[6..8].copy_from_slice(&(flags & 0b1).to_le_bytes());
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&path, &bytes).expect("stamp version 1");
    ScoringEngine::load(&path).expect("downgraded fixture must load as v1");
    println!("wrote {} (downgraded to version 1)", path.display());
}

// ---------------------------------------------------------------------------
// Error-path layer (mirrors loader_errors.rs)
// ---------------------------------------------------------------------------

/// A small valid artifact to corrupt, as raw bytes.
fn valid_artifact_bytes(tag: &str) -> (PathBuf, Vec<u8>) {
    let path = temp_path(tag);
    random_engine(7, 4, 3, 5, Similarity::Cosine)
        .save_with_metadata(&path, "m")
        .expect("save");
    let bytes = std::fs::read(&path).expect("read");
    (path, bytes)
}

fn expect_data_err(path: &std::path::Path) -> DataError {
    match ScoringEngine::load(path) {
        Err(ZslError::Data(e)) => e,
        other => panic!("expected ZslError::Data, got {other:?}"),
    }
}

/// Bank offset of a v2 artifact whose pre-bank payload ends at byte
/// `model_end`: the writer zero-pads to the next 64-byte boundary.
fn aligned_bank_start(model_end: usize) -> usize {
    model_end + (64 - model_end % 64) % 64
}

#[test]
fn truncated_artifacts_are_typed_truncation_errors() {
    let (path, bytes) = valid_artifact_bytes("truncated");
    // Cut inside the header, inside the metadata, inside W, inside the bank.
    let meta_end = ZSM_HEADER_LEN as usize + 1;
    let w_end = meta_end + 8 * 4 * 3;
    for keep in [
        10,
        ZSM_HEADER_LEN as usize,
        meta_end + 5,
        w_end + 9,
        bytes.len() - 1,
    ] {
        std::fs::write(&path, &bytes[..keep]).expect("truncate");
        match expect_data_err(&path) {
            DataError::Truncated {
                expected, actual, ..
            } => {
                assert_eq!(actual, keep as u64);
                assert!(expected > actual, "keep={keep}: {expected} > {actual}");
            }
            other => panic!("keep={keep}: expected Truncated, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_version_flags_similarity_and_trailing_bytes_are_header_errors() {
    let (path, pristine) = valid_artifact_bytes("header");

    let corrupt = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = pristine.clone();
        mutate(&mut bytes);
        std::fs::write(&path, &bytes).expect("write");
        expect_data_err(&path)
    };

    for (what, mutate) in [
        (
            "magic",
            (&|b: &mut Vec<u8>| b[0..4].copy_from_slice(b"NOPE")) as &dyn Fn(&mut Vec<u8>),
        ),
        ("version", &|b| {
            b[4..6].copy_from_slice(&99u16.to_le_bytes())
        }),
        ("flags", &|b| {
            b[6..8].copy_from_slice(&0x8000u16.to_le_bytes())
        }),
        ("similarity", &|b| b[8] = 7),
        ("reserved", &|b| b[12] = 1),
        ("trailing", &|b| b.extend_from_slice(&[0u8; 5])),
        // Cosine engine whose flag claims an unnormalized bank.
        ("flag-consistency", &|b| {
            b[6..8].copy_from_slice(&0u16.to_le_bytes())
        }),
    ] {
        let err = corrupt(mutate);
        assert!(
            matches!(err, DataError::Header { .. }),
            "{what} corruption must be a Header error, got {err:?}"
        );
    }

    // Version skew message names the supported range, steering the operator.
    let err = corrupt(&|b| b[4..6].copy_from_slice(&3u16.to_le_bytes()));
    match err {
        DataError::Header { message, .. } => {
            assert!(
                message.contains("unsupported version 3") && message.contains("1-2"),
                "got: {message}"
            )
        }
        other => panic!("expected Header, got {other:?}"),
    }
    // An unknown model-family code is a typed header error too.
    let err = corrupt(&|b| b[9] = 7);
    match err {
        DataError::Header { message, .. } => {
            assert!(
                message.contains("unknown model family code 7"),
                "got: {message}"
            )
        }
        other => panic!("expected Header, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// f32-scoring flag layer (.zsm flag bit 1, v2 only)
// ---------------------------------------------------------------------------

/// The opt-in f32 scoring mode rides the artifact as flag bit 1: the
/// payload stays full f64 on disk (lossless, reversible), the loader
/// rebuilds the f32 mirror, and a v1 reader — which defines only bit 0 —
/// rejects the flag instead of silently serving the wrong precision.
#[test]
fn f32_scoring_flag_round_trips_and_is_rejected_by_v1() {
    let path = temp_path("f32_flag");
    let engine =
        random_engine(0xF32, 6, 4, 7, Similarity::Cosine).with_precision(ScoringPrecision::F32);
    engine.save_with_metadata(&path, "f32").expect("save");
    let pristine = std::fs::read(&path).expect("read");
    let flags = u16::from_le_bytes(pristine[6..8].try_into().unwrap());
    assert_ne!(flags & 0b10, 0, "save must set flag bit 1 for f32 scoring");

    // The loader applies the flag: the reloaded engine scores in f32,
    // bit-identical to the in-memory f32 engine, and a resave is
    // byte-identical (the flag is part of the format's fixed point).
    let back = ScoringEngine::load(&path).expect("load");
    assert_eq!(back.precision(), ScoringPrecision::F32);
    let mut rng = Rng::new(0xF32F32);
    let x = Matrix::from_vec(9, 6, (0..9 * 6).map(|_| rng.normal()).collect());
    assert_eq!(
        back.scores(&x).as_slice(),
        engine.scores(&x).as_slice(),
        "reloaded f32 scores drifted"
    );
    let path2 = temp_path("f32_flag2");
    back.save_with_metadata(&path2, "f32").expect("resave");
    assert_eq!(
        pristine,
        std::fs::read(&path2).expect("read resave"),
        "resave not byte-identical"
    );
    std::fs::remove_file(&path2).ok();

    // The payload is still full f64: clearing the flag in place yields a
    // plain artifact that loads in f64 and scores bit-identically to the
    // engine before `with_precision` — the mode is reversible on disk.
    let mut plain = pristine.clone();
    plain[6..8].copy_from_slice(&(flags & !0b10).to_le_bytes());
    std::fs::write(&path, &plain).expect("write");
    let f64_back = ScoringEngine::load(&path).expect("load cleared flag");
    assert_eq!(f64_back.precision(), ScoringPrecision::F64);
    let reference = random_engine(0xF32, 6, 4, 7, Similarity::Cosine);
    assert_eq!(
        f64_back.scores(&x).as_slice(),
        reference.scores(&x).as_slice(),
        "clearing the flag must recover the exact f64 engine"
    );

    // Version 1 defines only bit 0: a v1 file carrying bit 1 is a typed
    // header error, never a silently-ignored flag.
    let mut v1 = pristine.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&path, &v1).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("unknown flags"), "{message}");
            assert!(message.contains("version 1"), "{message}");
        }
        other => panic!("expected Header, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Version-compatibility layer (.zsm v1 <-> v2)
// ---------------------------------------------------------------------------

/// A non-ESZSL v2 artifact whose version field is rewritten to 1 must fail
/// the v1 reserved-byte check with a typed header error: a v1 reader (and
/// this reader in v1 mode) can never misparse an SAE or kernel payload as a
/// plain projection.
#[test]
fn v2_families_masquerading_as_v1_are_rejected() {
    let trainers: [(&str, Box<dyn Trainer>); 2] = [
        ("sae", Box::new(SaeConfig::new().build())),
        ("kernel", Box::new(KernelEszslConfig::new().build())),
    ];
    for (tag, trainer) in trainers {
        let path = temp_path(&format!("masquerade_{tag}"));
        let engine = family_engine(trainer.as_ref());
        engine.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        assert_eq!(
            u16::from_le_bytes(bytes[4..6].try_into().unwrap()),
            2,
            "{tag}: writer must emit version 2"
        );
        assert_ne!(bytes[9], 0, "{tag}: non-ESZSL family byte");
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        // Clear the v2-only flag bits (aligned bank, etc.) so the downgraded
        // file gets past the v1 flags check and exercises the reserved-byte
        // gate this test is about. (A genuine v1 writer would never set
        // them; the padding bytes the v2 writer inserted are harmless here
        // because the reserved-byte check fires before any length math.)
        let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        bytes[6..8].copy_from_slice(&(flags & 0b1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        match expect_data_err(&path) {
            DataError::Header { message, .. } => {
                assert!(message.contains("reserved"), "{tag}: {message}")
            }
            other => panic!("{tag}: expected Header, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Kernel artifacts round-trip bit-for-bit, and every field of their extra
/// payload block is validated with typed errors.
#[test]
fn kernel_artifacts_round_trip_and_validate_their_block() {
    let trainer = KernelEszslConfig::new()
        .kernel(KernelKind::Rbf { width: 0.3 })
        .max_anchors(6)
        .build();
    let engine = family_engine(&trainer);
    let path = temp_path("kernel_block");
    engine.save_with_metadata(&path, "k").expect("save");
    let (back, meta) = ScoringEngine::load_with_metadata(&path).expect("load");
    assert_eq!(meta, "k");
    assert_eq!(back.model().family(), ModelFamily::KernelEszsl);
    let km = back.model().kernel_model().expect("kernel model");
    let orig = engine.model().kernel_model().expect("kernel model");
    assert_eq!(km.kernel(), orig.kernel());
    assert_eq!(km.alpha().as_slice(), orig.alpha().as_slice());
    assert_eq!(km.anchors().as_slice(), orig.anchors().as_slice());
    // Scores over a random batch are bit-identical after the round trip.
    let mut rng = Rng::new(0xFACE);
    let d = engine.feature_dim();
    let x = Matrix::from_vec(9, d, (0..9 * d).map(|_| rng.normal()).collect());
    assert_eq!(back.scores(&x).as_slice(), engine.scores(&x).as_slice());

    let pristine = std::fs::read(&path).expect("read");
    let block = ZSM_HEADER_LEN as usize + 1; // metadata is 1 byte
                                             // Unknown kernel code.
    let mut bad = pristine.clone();
    bad[block] = 9;
    std::fs::write(&path, &bad).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("unknown kernel code 9"), "{message}")
        }
        other => panic!("expected Header, got {other:?}"),
    }
    // Non-finite RBF width.
    let mut bad = pristine.clone();
    bad[block + 8..block + 16].copy_from_slice(&f64::NAN.to_le_bytes());
    std::fs::write(&path, &bad).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("width"), "{message}")
        }
        other => panic!("expected Header, got {other:?}"),
    }
    // Zero anchors.
    let mut bad = pristine.clone();
    bad[block + 16..block + 24].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, &bad).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("zero anchors"), "{message}")
        }
        other => panic!("expected Header, got {other:?}"),
    }
    // Truncation inside the kernel block is a typed truncation error.
    std::fs::write(&path, &pristine[..block + 10]).expect("write");
    assert!(matches!(
        expect_data_err(&path),
        DataError::Truncated { .. }
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn overflowing_dims_and_zero_dims_are_header_errors_not_panics() {
    let (path, pristine) = valid_artifact_bytes("overflow");
    // Crafted dims that would wrap the expected-length arithmetic.
    for (d, a, z) in [
        (1u64 << 62, 2u64, 1u64),
        (1u64 << 31, 1u64 << 31, 1),
        (1, 2, u64::MAX / 4),
    ] {
        let mut bytes = pristine[..ZSM_HEADER_LEN as usize].to_vec();
        bytes[16..24].copy_from_slice(&d.to_le_bytes());
        bytes[24..32].copy_from_slice(&a.to_le_bytes());
        bytes[32..40].copy_from_slice(&z.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        match expect_data_err(&path) {
            DataError::Header { message, .. } => {
                assert!(message.contains("overflow"), "d={d} a={a} z={z}: {message}")
            }
            other => panic!("d={d} a={a} z={z}: expected Header, got {other:?}"),
        }
    }
    // Zero dims are rejected outright.
    let mut bytes = pristine.clone();
    bytes[16..24].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(expect_data_err(&path), DataError::Header { .. }));
    std::fs::remove_file(&path).ok();
}

#[test]
fn invalid_metadata_and_nonfinite_payloads_are_header_errors() {
    let (path, pristine) = valid_artifact_bytes("payload");
    // Metadata is 1 byte ("m"); replace it with an invalid UTF-8 byte.
    let mut bad_meta = pristine.clone();
    bad_meta[ZSM_HEADER_LEN as usize] = 0xFF;
    std::fs::write(&path, &bad_meta).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => assert!(message.contains("UTF-8"), "{message}"),
        other => panic!("expected Header, got {other:?}"),
    }
    // NaN inside W.
    let mut bad_w = pristine.clone();
    let w_start = ZSM_HEADER_LEN as usize + 1;
    bad_w[w_start..w_start + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    std::fs::write(&path, &bad_w).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("non-finite weight"), "{message}")
        }
        other => panic!("expected Header, got {other:?}"),
    }
    // Infinity inside the bank.
    let mut bad_bank = pristine.clone();
    let bank_start = aligned_bank_start(ZSM_HEADER_LEN as usize + 1 + 8 * 4 * 3);
    bad_bank[bank_start..bank_start + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
    std::fs::write(&path, &bad_bank).expect("write");
    match expect_data_err(&path) {
        DataError::Header { message, .. } => {
            assert!(message.contains("non-finite signature"), "{message}")
        }
        other => panic!("expected Header, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
