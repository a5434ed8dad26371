//! Facade + unified-API test layer: the [`Pipeline`] builder must be a pure
//! re-wiring of the `&dyn FeatureSource` entry points (bit-identical
//! results, including for a source held as a `&dyn FeatureSource`),
//! [`MemorySource`] must replace the old
//! raw-matrix call shapes, the top-level [`ZslError`] must chain causes, and
//! a pipeline over a [`Normalized`] source must equal one over the same rows
//! normalized up front.

use std::path::PathBuf;
use zsl_core::data::{export_dataset, StreamingBundle, SyntheticConfig};
use zsl_core::eval::{
    cross_validate, evaluate_gzsl, evaluate_gzsl_with, CrossValConfig, CrossValReport, GzslReport,
};
use zsl_core::infer::{ScoringEngine, Similarity};
use zsl_core::model::{EszslConfig, EszslTrainer};
use zsl_core::source::{FeatureSource, MemorySource, Normalized, SplitKind};
use zsl_core::trainer::{KernelEszslConfig, KernelKind, Trainer};
use zsl_core::{Dataset, Matrix, Pipeline, ZslError};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zsl_pipeline_api_{}_{tag}", std::process::id()))
}

fn dataset() -> Dataset {
    SyntheticConfig::new()
        .classes(8, 3)
        .dims(5, 9)
        .samples(6, 4)
        .seed(0xFACE)
        .build()
}

fn small_config() -> CrossValConfig {
    CrossValConfig::new()
        .gammas(vec![0.1, 1.0])
        .lambdas(vec![0.1, 1.0])
        .folds(3)
        .seed(42)
}

#[test]
fn pipeline_facade_equals_direct_protocol_for_every_source_kind() {
    let ds = dataset();
    let config = small_config();
    let dir = temp_dir("facade");
    export_dataset(&ds, &dir).expect("export");
    let bundle = StreamingBundle::open(&dir, 7).expect("open");

    // The direct protocol, stage by stage: sweep, refit at the winner,
    // evaluate over the union bank.
    let eszsl = EszslTrainer::default();
    let direct_cv = cross_validate(&eszsl, &ds, &config).expect("direct cv");
    let refit = eszsl
        .with_point(direct_cv.best.gamma, direct_cv.best.lambda)
        .fit(&ds)
        .expect("refit");
    let engine =
        ScoringEngine::try_new(refit, ds.all_signatures(), config.similarity).expect("engine");
    let direct_report = evaluate_gzsl_with(&engine, &ds).expect("direct evaluate");

    // In-memory source.
    let trained = Pipeline::from(&ds)
        .cross_validate(&config)
        .expect("cv")
        .train()
        .expect("train");
    assert_eq!(trained.cv_report(), Some(&direct_cv));
    assert_eq!(trained.evaluate().expect("evaluate"), direct_report);

    // Streamed source, same facade chain, same bits.
    let streamed = Pipeline::from(&bundle)
        .cross_validate(&config)
        .expect("cv")
        .train()
        .expect("train");
    assert_eq!(streamed.cv_report(), Some(&direct_cv));
    assert_eq!(streamed.evaluate().expect("evaluate"), direct_report);
    assert_eq!(
        streamed
            .model()
            .projection()
            .expect("linear")
            .weights()
            .as_slice(),
        trained
            .model()
            .projection()
            .expect("linear")
            .weights()
            .as_slice()
    );

    // Runtime-chosen source through a trait object (the CLI's shape).
    let dynamic: &dyn FeatureSource = &bundle;
    let dyn_trained = Pipeline::from(dynamic)
        .cross_validate(&config)
        .expect("cv")
        .train()
        .expect("train");
    assert_eq!(dyn_trained.evaluate().expect("evaluate"), direct_report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_save_then_serve_round_trips_bit_identically() {
    let ds = dataset();
    let trained = Pipeline::from(&ds)
        .with_trainer(EszslConfig::new().gamma(0.3).lambda(3.0).build())
        .train()
        .expect("train");
    let report = trained.evaluate().expect("evaluate");

    let path = temp_dir("artifact").with_extension("zsm");
    trained.save(&path).expect("save");
    let (engine, metadata) = ScoringEngine::load_with_metadata(&path).expect("load");
    assert!(
        metadata.contains("gamma=0.3") && metadata.contains("lambda=3"),
        "provenance must record the hyperparameters: {metadata}"
    );
    // Serving: engine + source only, no retraining.
    let served = evaluate_gzsl_with(&engine, &ds).expect("serve");
    assert_eq!(served, report);
    assert_eq!(
        engine.predict(&ds.test_unseen_x),
        trained.engine().predict(&ds.test_unseen_x)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn memory_source_replaces_the_old_raw_matrix_cross_validate() {
    let ds = dataset();
    let config = small_config();
    // The pre-PR 5 call was cross_validate(&x, &labels, &signatures, &cfg);
    // the MemorySource wrapper must reproduce the Dataset sweep exactly
    // (same trainval data, same seeded folds).
    let source = MemorySource::new(&ds.train_x, &ds.train_labels, &ds.seen_signatures);
    let eszsl = EszslTrainer::default();
    let via_memory = cross_validate(&eszsl, &source, &config).expect("memory cv");
    let via_dataset = cross_validate(&eszsl, &ds, &config).expect("dataset cv");
    assert_eq!(via_memory, via_dataset);
}

#[test]
fn generic_entry_points_share_one_error_type_with_sources() {
    let ds = dataset();
    // Config errors.
    let err = cross_validate(&EszslTrainer::default(), &ds, &small_config().folds(1)).unwrap_err();
    assert!(matches!(err, ZslError::Config(_)));
    // Train errors flow through with a source() chain.
    let err = Pipeline::from(&ds)
        .with_trainer(EszslConfig::new().gamma(-3.0).build())
        .train()
        .unwrap_err();
    assert!(matches!(err, ZslError::Train(_)));
    assert!(
        std::error::Error::source(&err).is_some(),
        "ZslError::Train must chain its cause"
    );
    // Data errors from a broken streamed source keep their typed inner error.
    let dir = temp_dir("broken");
    export_dataset(&ds, &dir).expect("export");
    let bundle = StreamingBundle::open(&dir, 4).expect("open");
    std::fs::remove_file(dir.join("features.zsb")).expect("delete");
    let err = evaluate_gzsl(
        &EszslConfig::new().build().fit(&ds).expect("fit"),
        &bundle,
        Similarity::Cosine,
    )
    .unwrap_err();
    match &err {
        ZslError::Data(inner) => assert!(matches!(inner, zsl_core::DataError::Io { .. })),
        other => panic!("expected ZslError::Data, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serving_a_model_from_another_feature_space_is_a_typed_error_not_a_panic() {
    // A .zsm trained on d=9 features served against a d=4 bundle with the
    // same class counts must surface ZslError::Config — the serving path
    // never reaches the matmul shape assert.
    let ds = dataset(); // d = 9, 8 seen + 3 unseen
    let narrow = SyntheticConfig::new()
        .classes(8, 3)
        .dims(5, 4)
        .samples(6, 4)
        .seed(0xD1FF)
        .build(); // d = 4, same class structure
    let trained = Pipeline::from(&ds).train().expect("train");
    let path = temp_dir("wrong_dim").with_extension("zsm");
    trained.save(&path).expect("save");
    let engine = ScoringEngine::load(&path).expect("load");

    // Same class structure (8 + 3, attr_dim 5), so the class-count gate
    // passes and only the feature-width gate can catch the mismatch:
    let err = engine
        .predict_source(&narrow, SplitKind::TestSeen)
        .unwrap_err();
    assert!(
        matches!(&err, ZslError::Config(msg) if msg.contains("feature space")),
        "got {err:?}"
    );
    let err = zsl_core::eval::evaluate_gzsl_with(&engine, &narrow).unwrap_err();
    assert!(matches!(&err, ZslError::Config(_)), "got {err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn predict_source_agrees_across_source_kinds() {
    let ds = dataset();
    let dir = temp_dir("predict");
    export_dataset(&ds, &dir).expect("export");
    let bundle = StreamingBundle::open(&dir, 3).expect("open");
    let model = EszslConfig::new().build().fit(&ds).expect("fit");
    let engine =
        ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine).expect("engine");
    for split in [
        SplitKind::Trainval,
        SplitKind::TestSeen,
        SplitKind::TestUnseen,
    ] {
        assert_eq!(
            engine.predict_source(&ds, split).expect("dataset"),
            engine.predict_source(&bundle, split).expect("bundle"),
            "{split:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `ds` with its feature rows, signature rows, or both L2-normalized up
/// front: the data a `Normalized` source over `ds` must be
/// indistinguishable from.
fn normalized_up_front(ds: &Dataset, features: bool, signatures: bool) -> Dataset {
    let mut copy = ds.clone();
    if features {
        for x in [
            &mut copy.train_x,
            &mut copy.test_seen_x,
            &mut copy.test_unseen_x,
        ] {
            x.l2_normalize_rows();
        }
    }
    if signatures {
        for bank in [&mut copy.seen_signatures, &mut copy.unseen_signatures] {
            bank.l2_normalize_rows();
        }
    }
    copy
}

/// γ, λ ∈ {0.1, 1, 10}, 3 folds.
fn decade_config() -> CrossValConfig {
    CrossValConfig::new()
        .gammas(vec![0.1, 1.0, 10.0])
        .lambdas(vec![0.1, 1.0, 10.0])
        .folds(3)
}

/// The facade's protocol with `trainer`: cross-validate, refit, evaluate.
fn protocol(
    trainer: impl Trainer + 'static,
    source: &dyn FeatureSource,
    config: &CrossValConfig,
) -> (CrossValReport, GzslReport) {
    let trained = Pipeline::from(source)
        .with_trainer(trainer)
        .cross_validate(config)
        .expect("cv")
        .train()
        .expect("train");
    let report = trained.evaluate().expect("evaluate");
    (trained.cv_report().expect("cv report").clone(), report)
}

#[test]
fn dot_scoring_over_normalized_signatures_sees_the_rows_training_saw() {
    // Signature rows scaled per class by 0.5–4.5: a scale dot similarity
    // reads. Normalizing them must reach the validation folds and the
    // evaluated union bank, not only the Gram fold.
    let mut ds = SyntheticConfig::new().classes(20, 5).seed(9).build();
    for (bank, offset) in [
        (&mut ds.seen_signatures, 0),
        (&mut ds.unseen_signatures, 20),
    ] {
        let rows: Vec<Vec<f64>> = (0..bank.rows())
            .map(|c| {
                let scale = 0.5 + ((c + offset) % 9) as f64 * 0.5;
                bank.row(c).iter().map(|v| v * scale).collect()
            })
            .collect();
        *bank = Matrix::from_rows(&rows);
    }
    let config = decade_config().similarity(Similarity::Dot);
    let normalized = Normalized::new(&ds, false, true);
    let (cv, report) = protocol(EszslTrainer::default(), &normalized, &config);
    let up_front = normalized_up_front(&ds, false, true);
    let (cv_up_front, report_up_front) = protocol(EszslTrainer::default(), &up_front, &config);
    assert_eq!(cv, cv_up_front, "CV must validate against normalized rows");
    assert_eq!(
        report, report_up_front,
        "GZSL must score against the normalized union bank"
    );
    assert!(report.harmonic_mean > 0.95, "H {}", report.harmonic_mean);

    // The artifact records which rows the source normalized, and serves the
    // same report over the same source.
    let trained = Pipeline::from(&normalized)
        .similarity(Similarity::Dot)
        .train()
        .expect("train");
    let path = temp_dir("normalized").with_extension("zsm");
    trained.save(&path).expect("save");
    let (engine, metadata) = ScoringEngine::load_with_metadata(&path).expect("load");
    assert!(
        metadata.contains("normalize_features=false; normalize_signatures=true; similarity=dot"),
        "{metadata}"
    );
    assert_eq!(
        evaluate_gzsl_with(&engine, &normalized).expect("serve"),
        trained.evaluate().expect("evaluate")
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn rbf_kernel_over_normalized_features_scores_the_rows_training_saw() {
    // The anchors are normalized training rows, so validation, evaluation
    // and serving must score normalized rows too.
    let ds = SyntheticConfig::new().classes(20, 5).seed(3).build();
    let trainer = || {
        KernelEszslConfig::new()
            .kernel(KernelKind::Rbf { width: 0.5 })
            .max_anchors(200)
            .build()
    };
    let config = decade_config();
    let (cv, report) = protocol(trainer(), &Normalized::new(&ds, true, false), &config);
    let up_front = normalized_up_front(&ds, true, false);
    let (cv_up_front, report_up_front) = protocol(trainer(), &up_front, &config);
    assert_eq!(cv, cv_up_front, "CV must validate normalized rows");
    assert_eq!(
        report, report_up_front,
        "GZSL must score normalized rows against normalized anchors"
    );
    assert!(report.harmonic_mean > 0.95, "H {}", report.harmonic_mean);

    // Normalized rows carry no scale, so the same data ten times larger
    // trains, validates and scores the same.
    let mut larger = ds.clone();
    for x in [
        &mut larger.train_x,
        &mut larger.test_seen_x,
        &mut larger.test_unseen_x,
    ] {
        let values = x.as_slice().iter().map(|v| v * 10.0).collect();
        *x = Matrix::from_vec(x.rows(), x.cols(), values);
    }
    let (cv_larger, report_larger) =
        protocol(trainer(), &Normalized::new(&larger, true, false), &config);
    assert_eq!(cv_larger, cv);
    assert_eq!(report_larger, report);
}
