//! Differential test layer for the unified pipeline API.
//!
//! The hard invariant this suite locks down: **every source kind flows
//! through the single code path and produces bit-identical results
//! at every chunk size** — Gram accumulators, trained weights, predictions,
//! GZSL reports, and the full CV → fit → evaluate protocol. The twin
//! `*_stream` implementations (and their `#[deprecated]` wrappers) are gone,
//! so the comparisons here pit a materialized [`Dataset`] source
//! against a [`StreamingBundle`] source through the *same* entry
//! points, over synthetic `.zsb` bundles and the committed
//! `tests/fixtures/tiny_bundle/`; the materialized side is
//! [`StreamingBundle::to_dataset`]. `.zsb` is the only feature format a
//! bundle is read from; CSV features reach these paths only through the import,
//! whose output `golden_loader.rs` and `property.rs` pin to the exported
//! `.zsb` byte for byte. (`tests/trainer_equiv.rs` extends the same
//! chunk-invariance wall to the SAE and kernel-ESZSL trainers.)
//!
//! The streamed side of every comparison goes through [`StreamingBundle`]
//! only — no full feature `Matrix` is ever constructed on that side, and
//! every chunk is asserted to hold at most `chunk_rows` rows, which is what
//! makes the `O(chunk_rows x feature_dim)` peak-feature-memory claim
//! checkable.
//!
//! The serving half of the redesign is pinned here as well: a trained engine
//! saved as a `.zsm` artifact and reloaded reproduces the golden fixture's
//! `GzslReport` bit for bit — including the committed
//! `tests/fixtures/tiny_bundle/model.zsm`.

mod common;

use common::pipeline_protocol;
use std::path::PathBuf;
use zsl_core::data::{
    export_dataset, SplitManifest, StreamingBundle, SyntheticConfig, FEATURES_ZSB, SPLITS_TXT,
};
use zsl_core::eval::{cross_validate, evaluate_gzsl, evaluate_gzsl_with, CrossValConfig};
use zsl_core::infer::Similarity;
use zsl_core::model::{EszslConfig, EszslProblem, EszslTrainer, GramAccumulator};
use zsl_core::source::{FeatureSource, SplitKind};
use zsl_core::{Dataset, MemorySource, Rng, ScoringEngine};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zsl_stream_equiv_{}_{tag}", std::process::id()))
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_bundle")
}

/// The chunk sizes the ISSUE pins: degenerate (1), coprime-ish small (3, 7),
/// exactly one chunk (n), and larger than the data (n + 13).
fn chunk_sizes(n_rows: usize) -> [usize; 5] {
    [1, 3, 7, n_rows, n_rows + 13]
}

/// A synthetic bundle big enough to straddle several chunk boundaries but
/// fast enough for the tier-1 suite.
fn synthetic_dataset() -> Dataset {
    SyntheticConfig::new()
        .classes(6, 2)
        .dims(4, 5)
        .samples(4, 3)
        .noise(0.05)
        .seed(20_26)
        .build()
}

/// Build the trainval Gram problem from `bundle` through the generic source
/// path, asserting the memory bound (no chunk exceeds `chunk_rows` rows)
/// along the way.
fn streamed_problem(bundle: &StreamingBundle) -> EszslProblem {
    let mut acc = GramAccumulator::new(&bundle.seen_signatures());
    for chunk in FeatureSource::stream(bundle, SplitKind::Trainval).expect("trainval stream") {
        let (x, labels) = chunk.expect("chunk");
        assert!(
            x.rows() <= bundle.chunk_rows(),
            "chunk of {} rows exceeds chunk_rows={}",
            x.rows(),
            bundle.chunk_rows()
        );
        assert_eq!(x.cols(), bundle.feature_dim());
        acc.fold(&x, &labels).expect("fold");
    }
    acc.finish().expect("finish")
}

#[test]
fn streamed_gram_training_and_prediction_match_in_memory_at_every_chunk_size() {
    let ds = synthetic_dataset();
    let dir = temp_dir("diff");
    export_dataset(&ds, &dir).expect("export");
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    // In-memory reference, itself produced by the same generic path.
    let reference = EszslProblem::from_source(&mem, false, false).expect("in-memory problem");
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&mem)
        .expect("fit");
    let engine = ScoringEngine::try_new(model.clone(), mem.all_signatures(), Similarity::Cosine)
        .expect("engine");
    let mem_seen_pred = engine
        .predict_source(&mem, SplitKind::TestSeen)
        .expect("predict");
    let mem_unseen_pred = engine
        .predict_source(&mem, SplitKind::TestUnseen)
        .expect("predict");
    let mem_report = evaluate_gzsl(&model, &mem, Similarity::Cosine).expect("evaluate");

    for chunk_rows in chunk_sizes(mem.train_x.rows()) {
        let label = format!("chunk_rows={chunk_rows}");
        let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open stream");
        assert_eq!(
            bundle.num_samples(),
            mem.train_x.rows() + mem.test_seen_x.rows() + mem.test_unseen_x.rows()
        );

        // 1. Gram accumulators are bit-identical.
        let streamed = streamed_problem(&bundle);
        assert_eq!(
            streamed.xtx().as_slice(),
            reference.xtx().as_slice(),
            "{label}"
        );
        assert_eq!(
            streamed.xtys().as_slice(),
            reference.xtys().as_slice(),
            "{label}"
        );
        assert_eq!(
            streamed.sts().as_slice(),
            reference.sts().as_slice(),
            "{label}"
        );

        // 2. Trained weights are bit-identical — and the generic fit
        //    over the bundle source reproduces them too.
        for (gamma, lambda) in [(1.0, 1.0), (0.01, 100.0)] {
            assert_eq!(
                streamed
                    .solve(gamma, lambda)
                    .expect("solve")
                    .weights()
                    .as_slice(),
                reference
                    .solve(gamma, lambda)
                    .expect("solve")
                    .weights()
                    .as_slice(),
                "{label} gamma={gamma} lambda={lambda}"
            );
        }
        let fitted = EszslConfig::new()
            .gamma(1.0)
            .lambda(1.0)
            .build()
            .fit(&bundle)
            .expect("fit bundle");
        assert_eq!(
            fitted.weights().as_slice(),
            model.weights().as_slice(),
            "{label}"
        );

        // 3. Streamed predictions equal in-memory predictions through the
        //    one generic predict entry point.
        assert_eq!(
            engine
                .predict_source(&bundle, SplitKind::TestSeen)
                .expect("predict"),
            mem_seen_pred,
            "{label}"
        );
        assert_eq!(
            engine
                .predict_source(&bundle, SplitKind::TestUnseen)
                .expect("predict"),
            mem_unseen_pred,
            "{label}"
        );
        // 3b. The split's labels stream alongside in manifest order.
        let mut labels = Vec::new();
        for chunk in FeatureSource::stream(&bundle, SplitKind::TestSeen).expect("stream") {
            labels.extend(chunk.expect("chunk").1.into_owned());
        }
        assert_eq!(labels, mem.test_seen_labels, "{label}");

        // 4. The streamed GZSL report is the in-memory report, bit for
        //    bit, through the one generic evaluate entry point.
        let streamed_report =
            evaluate_gzsl(&model, &bundle, Similarity::Cosine).expect("gzsl stream");
        assert_eq!(streamed_report, mem_report, "{label}");
        assert_eq!(
            streamed_report.harmonic_mean.to_bits(),
            mem_report.harmonic_mean.to_bits(),
            "{label}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_full_protocol_matches_select_train_evaluate_on_both_formats() {
    let ds = synthetic_dataset();
    let config = CrossValConfig::new()
        .gammas(vec![0.1, 1.0, 10.0])
        .lambdas(vec![0.1, 1.0])
        .folds(3)
        .seed(777);
    let dir = temp_dir("protocol");
    export_dataset(&ds, &dir).expect("export");
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let (mem_cv, mem_report) = pipeline_protocol(&mem, &config);

    for chunk_rows in chunk_sizes(mem.train_x.rows()) {
        let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
        let (cv, report) = pipeline_protocol(&bundle, &config);
        assert_eq!(cv, mem_cv, "chunk_rows={chunk_rows}");
        assert_eq!(report, mem_report, "chunk_rows={chunk_rows}");
    }

    // The underlying generic cross-validation also matches a raw
    // MemorySource sweep over the same trainval data.
    let bundle = StreamingBundle::open(&dir, 5).expect("open");
    let source = MemorySource::new(&mem.train_x, &mem.train_labels, &mem.seen_signatures);
    let eszsl = EszslTrainer::default();
    let raw_cv = cross_validate(&eszsl, &source, &config).expect("raw cv");
    let streamed_cv = cross_validate(&eszsl, &bundle, &config).expect("streamed cv");
    assert_eq!(streamed_cv, raw_cv);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shuffled_manifest_order_streams_bit_identically_on_both_formats() {
    // A manifest whose split indices are NOT ascending exercises the
    // reader's run-by-run positioned reads. The in-memory gather honors
    // manifest order, so the streamed side must too, bit for bit.
    let ds = synthetic_dataset();
    let dir = temp_dir("shuffled");
    export_dataset(&ds, &dir).expect("export");
    let manifest_path = dir.join(SPLITS_TXT);
    let mut manifest = SplitManifest::read(&manifest_path).expect("manifest");
    let mut rng = Rng::new(0xD15C);
    rng.shuffle(&mut manifest.trainval);
    rng.shuffle(&mut manifest.test_seen);
    rng.shuffle(&mut manifest.test_unseen);
    manifest.write(&manifest_path).expect("rewrite");

    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let reference = EszslProblem::from_source(&mem, false, false).expect("problem");
    let model = EszslConfig::new().build().fit(&mem).expect("fit");
    let mem_report = evaluate_gzsl(&model, &mem, Similarity::Cosine).expect("evaluate");

    for chunk_rows in chunk_sizes(mem.train_x.rows()) {
        let label = format!("chunk_rows={chunk_rows}");
        let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
        let streamed = streamed_problem(&bundle);
        assert_eq!(
            streamed.xtx().as_slice(),
            reference.xtx().as_slice(),
            "{label}"
        );
        assert_eq!(
            streamed.xtys().as_slice(),
            reference.xtys().as_slice(),
            "{label}"
        );
        let report = evaluate_gzsl(&model, &bundle, Similarity::Cosine).expect("stream");
        assert_eq!(report, mem_report, "{label}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_validation_subsets_stream_row_for_row_in_shuffled_order() {
    // CV folds stream trainval subsets in shuffled (non-ascending) order —
    // the access pattern the reader's one-read-per-run design serves.
    // Verify the subset streams themselves, row for row, against the
    // in-memory gather.
    let ds = synthetic_dataset();
    let dir = temp_dir("subsets");
    export_dataset(&ds, &dir).expect("export");
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let n = mem.train_x.rows();
    let mut positions: Vec<usize> = (0..n).collect();
    Rng::new(0xF01D).shuffle(&mut positions);
    // Repeats are allowed too (the fold machinery never produces them, but
    // the reader contract does).
    positions.push(positions[0]);

    for chunk_rows in chunk_sizes(n) {
        let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
        let mut got_rows: Vec<f64> = Vec::new();
        let mut got_labels = Vec::new();
        for chunk in bundle
            .stream_trainval_subset(&positions)
            .expect("subset stream")
        {
            let (x, labels) = chunk.expect("chunk");
            assert!(x.rows() <= chunk_rows);
            got_rows.extend_from_slice(x.as_slice());
            got_labels.extend_from_slice(&labels);
        }
        let expected = mem.train_x.gather_rows(&positions);
        let expected_labels: Vec<usize> = positions.iter().map(|&p| mem.train_labels[p]).collect();
        assert_eq!(got_rows, expected.as_slice(), "chunk_rows={chunk_rows}");
        assert_eq!(got_labels, expected_labels, "chunk_rows={chunk_rows}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_bundle_fixture_streams_bit_identically_in_both_formats() {
    let dir = fixture_dir();
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let reference = EszslProblem::from_source(&mem, false, false).expect("problem");
    let model = EszslConfig::new().build().fit(&mem).expect("fit");
    let mem_report = evaluate_gzsl(&model, &mem, Similarity::Cosine).expect("evaluate");
    for chunk_rows in chunk_sizes(mem.train_x.rows()) {
        let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
        let streamed = streamed_problem(&bundle);
        let label = format!("chunk_rows={chunk_rows}");
        assert_eq!(
            streamed.xtx().as_slice(),
            reference.xtx().as_slice(),
            "{label}"
        );
        assert_eq!(
            streamed.xtys().as_slice(),
            reference.xtys().as_slice(),
            "{label}"
        );
        let report = evaluate_gzsl(&model, &bundle, Similarity::Cosine).expect("stream");
        assert_eq!(report, mem_report, "{label}");
    }
}

#[test]
fn saved_zsm_engine_reproduces_the_fixture_report_after_reload() {
    // The serving acceptance gate: a trained engine persists to .zsm, a
    // fresh process reloads it WITHOUT the training data, and the GZSL
    // report over the streamed fixture is bit-identical — both for a
    // round-tripped engine and for the committed golden artifact.
    let dir = fixture_dir();
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&mem)
        .expect("fit");
    let bundle = StreamingBundle::open(&dir, 5).expect("open");
    let fresh = evaluate_gzsl(&model, &bundle, Similarity::Cosine).expect("fresh report");

    // Round trip through a temp artifact.
    let engine =
        ScoringEngine::try_new(model, mem.all_signatures(), Similarity::Cosine).expect("engine");
    let path = temp_dir("artifact").with_extension("zsm");
    engine.save(&path).expect("save");
    let reloaded = ScoringEngine::load(&path).expect("load");
    let served = evaluate_gzsl_with(&reloaded, &bundle).expect("served report");
    assert_eq!(served, fresh, "reloaded engine drifted from fresh engine");
    assert_eq!(
        served.harmonic_mean.to_bits(),
        fresh.harmonic_mean.to_bits()
    );
    std::fs::remove_file(&path).ok();

    // The committed golden artifact reproduces the same bits.
    let golden = ScoringEngine::load(&dir.join("model.zsm")).expect("golden artifact");
    let golden_report = evaluate_gzsl_with(&golden, &bundle).expect("golden report");
    assert_eq!(golden_report, fresh, "committed model.zsm drifted");
}

#[test]
fn gzsl_reports_are_thread_invariant_over_streamed_and_in_memory_sources() {
    // The chunk-invariance wall extended along the thread axis: with the
    // scoring kernels row-banded over the shared worker pool, the full GZSL
    // protocol is bit-identical at every engine thread count, on both the
    // streamed and the materialized side.
    let dir = fixture_dir();
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&mem)
        .expect("fit");
    let mut engine =
        ScoringEngine::try_new(model, mem.all_signatures(), Similarity::Cosine).expect("engine");
    engine.set_threads(1);
    let mem_reference = evaluate_gzsl_with(&engine, &mem).expect("serial in-memory report");
    for threads in [1, 2, 4, 9] {
        engine.set_threads(threads);
        assert_eq!(
            evaluate_gzsl_with(&engine, &mem).expect("in-memory report"),
            mem_reference,
            "threads={threads}: in-memory report drifted"
        );
        let bundle = StreamingBundle::open(&dir, 3).expect("open");
        assert_eq!(
            evaluate_gzsl_with(&engine, &bundle).expect("streamed report"),
            mem_reference,
            "threads={threads}: streamed report drifted"
        );
    }
}

#[test]
fn split_stream_fuses_after_first_error_without_fabricating_a_second() {
    // A non-finite value mid-payload must surface exactly once; polling past
    // it gets None — not a follow-up error from the remaining rows.
    let ds = synthetic_dataset();
    let dir = temp_dir("fuse");
    export_dataset(&ds, &dir).expect("export");
    let bundle = StreamingBundle::open(&dir, 4).expect("open");

    // Write a NaN into a trainval row (the export writes trainval rows
    // first): the indexed reader checks every value it reads.
    let path = dir.join(FEATURES_ZSB);
    let mut bytes = std::fs::read(&path).expect("read");
    let (n, d) = (bundle.num_samples(), bundle.feature_dim());
    let row = bundle.manifest().trainval[bundle.manifest().trainval.len() / 2];
    let at = 32 + 4 * n + 8 * (row * d + 1);
    bytes[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    std::fs::write(&path, bytes).expect("corrupt");

    let mut stream = FeatureSource::stream(&bundle, SplitKind::Trainval).expect("stream");
    let mut saw_error = false;
    for item in &mut stream {
        match item {
            Ok(_) => continue,
            Err(zsl_core::ZslError::Data(zsl_core::DataError::Header { message, .. })) => {
                assert!(
                    message.contains(&format!("non-finite feature value NaN at row {row}, col 1")),
                    "{message}"
                );
                saw_error = true;
                break;
            }
            Err(other) => panic!("expected a non-finite Header error, got {other:?}"),
        }
    }
    assert!(saw_error);
    assert!(stream.next().is_none(), "stream must fuse after an error");
    assert!(stream.next().is_none());
    std::fs::remove_dir_all(&dir).ok();
}
