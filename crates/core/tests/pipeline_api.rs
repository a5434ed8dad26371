//! Facade + unified-API test layer: the [`Pipeline`] builder must be a pure
//! re-wiring of the generic entry points (bit-identical results, including
//! through `dyn FeatureSource`), [`MemorySource`] must replace the old
//! raw-matrix call shapes, and the top-level [`ZslError`] must chain causes.

use std::path::PathBuf;
use zsl_core::data::{export_dataset, StreamingBundle, SyntheticConfig};
use zsl_core::eval::{cross_validate, evaluate_gzsl, evaluate_gzsl_with, CrossValConfig};
use zsl_core::infer::{ScoringEngine, Similarity};
use zsl_core::model::{EszslConfig, EszslTrainer};
use zsl_core::source::{FeatureSource, MemorySource, SplitKind};
use zsl_core::trainer::Trainer;
use zsl_core::{Dataset, Pipeline, ZslError};

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
