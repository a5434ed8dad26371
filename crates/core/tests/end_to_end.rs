//! End-to-end tests exercising the whole public API:
//! `Dataset → EszslTrainer → ScoringEngine::predict` plus metrics.
//!
//! These are the anchor tests named in the roadmap: training on synthetic
//! seen classes must classify held-out unseen classes at ≥95% accuracy.

mod common;

use common::pipeline_protocol;
use zsl_core::data::{export_dataset, StreamingBundle, SyntheticConfig};
use zsl_core::eval::CrossValConfig;
use zsl_core::infer::{
    harmonic_mean, mean_per_class_accuracy, overall_accuracy, ScoringEngine, Similarity,
};
use zsl_core::model::EszslConfig;

#[test]
fn eszsl_classifies_unseen_classes_at_95_percent() {
    // Attributes fully determine features (low noise) and seen classes exceed
    // the attribute dimension, so the closed form recovers the projection.
    let ds = SyntheticConfig::new()
        .classes(20, 5)
        .dims(16, 32)
        .samples(30, 20)
        .noise(0.05)
        .seed(42)
        .build();
    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&ds)
        .expect("fit");
    let engine = ScoringEngine::new(model, ds.unseen_signatures.clone(), Similarity::Cosine);
    let predictions = engine.predict(&ds.test_unseen_x);
    let acc = mean_per_class_accuracy(&predictions, &ds.test_unseen_labels, 5);
    assert!(acc >= 0.95, "unseen-class accuracy {acc} below 0.95");
}

#[test]
fn eszsl_accuracy_holds_across_seeds() {
    for seed in [7, 11, 1234, 0xC0FFEE] {
        let ds = SyntheticConfig::new().seed(seed).build();
        let model = EszslConfig::new().build().fit(&ds).expect("fit");
        let engine = ScoringEngine::new(model, ds.unseen_signatures.clone(), Similarity::Cosine);
        let predictions = engine.predict(&ds.test_unseen_x);
        let acc = mean_per_class_accuracy(
            &predictions,
            &ds.test_unseen_labels,
            ds.unseen_signatures.rows(),
        );
        assert!(acc >= 0.95, "seed {seed}: unseen accuracy {acc} below 0.95");
    }
}

#[test]
fn generalized_zsl_harmonic_mean_is_high_on_clean_data() {
    let ds = SyntheticConfig::new().seed(99).build();
    let num_seen = ds.seen_signatures.rows();
    let num_unseen = ds.unseen_signatures.rows();
    let model = EszslConfig::new().build().fit(&ds).expect("fit");
    // GZSL: candidates are the union of seen and unseen classes.
    let engine = ScoringEngine::new(model, ds.all_signatures(), Similarity::Cosine);

    let seen_pred = engine.predict(&ds.test_seen_x);
    let seen_acc = mean_per_class_accuracy(&seen_pred, &ds.test_seen_labels, num_seen);

    // Unseen labels index unseen_signatures; in the union bank they are
    // offset by the number of seen classes.
    let unseen_pred = engine.predict(&ds.test_unseen_x);
    let unseen_truth: Vec<usize> = ds
        .test_unseen_labels
        .iter()
        .map(|&l| l + num_seen)
        .collect();
    let unseen_acc = mean_per_class_accuracy(&unseen_pred, &unseen_truth, num_seen + num_unseen);

    let hm = harmonic_mean(seen_acc, unseen_acc);
    assert!(
        hm >= 0.9,
        "GZSL harmonic mean {hm} too low (seen {seen_acc}, unseen {unseen_acc})"
    );
}

#[test]
fn topk_contains_top1_and_pipeline_is_deterministic() {
    let ds = SyntheticConfig::new().seed(8).build();
    let train = || EszslConfig::new().build().fit(&ds).expect("fit");
    let engine_a = ScoringEngine::new(train(), ds.unseen_signatures.clone(), Similarity::Cosine);
    let engine_b = ScoringEngine::new(train(), ds.unseen_signatures.clone(), Similarity::Cosine);

    let top1 = engine_a.predict(&ds.test_unseen_x);
    let top3 = engine_a.predict_topk(&ds.test_unseen_x, 3);
    for (best, ranked) in top1.iter().zip(&top3) {
        assert_eq!(ranked.classes.len(), 3);
        assert_eq!(ranked.classes[0], *best, "top-1 must head the top-3 list");
    }
    // Same data + same config ⇒ bit-identical predictions.
    assert_eq!(top1, engine_b.predict(&ds.test_unseen_x));
}

/// The disk round-trip criterion: a synthetic dataset exported to `.zsb`,
/// reloaded, cross-validated, trained, and evaluated end-to-end
/// must produce the same `GzslReport` as the in-memory pipeline —
/// bit-identical scores — and the seeded k-fold grid search must be
/// deterministic.
#[test]
fn disk_roundtrip_pipeline_matches_in_memory_pipeline_bit_for_bit() {
    let ds = SyntheticConfig::new()
        .classes(12, 3)
        .dims(8, 10)
        .samples(12, 6)
        .seed(2027)
        .build();
    let config = CrossValConfig::new()
        .gammas(vec![0.1, 1.0, 10.0])
        .lambdas(vec![0.1, 1.0])
        .folds(3)
        .seed(11);
    let (cv_mem, report_mem) = pipeline_protocol(&ds, &config);

    let dir = std::env::temp_dir().join(format!("zsl_e2e_roundtrip_{}", std::process::id()));
    export_dataset(&ds, &dir).expect("export");
    let reloaded = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let (cv_disk, report_disk) = pipeline_protocol(&reloaded, &config);
    assert_eq!(cv_disk, cv_mem, "grid search must be bit-identical");
    assert_eq!(report_disk, report_mem, "GzslReport must be bit-identical");
    std::fs::remove_dir_all(&dir).ok();

    // Determinism: the same seed reproduces the search; the report is sane.
    let (cv_again, report_again) = pipeline_protocol(&ds, &config);
    assert_eq!(cv_again, cv_mem);
    assert_eq!(report_again, report_mem);
    assert!(
        report_mem.harmonic_mean > 0.9,
        "hm {}",
        report_mem.harmonic_mean
    );
}

#[test]
fn dot_similarity_works_with_normalized_signatures() {
    let ds = SyntheticConfig::new().seed(63).build();
    let model = EszslConfig::new()
        .normalize_signatures(true)
        .build()
        .fit(&ds)
        .expect("fit");
    let mut signatures = ds.unseen_signatures.clone();
    signatures.l2_normalize_rows();
    let engine = ScoringEngine::new(model, signatures, Similarity::Dot);
    let predictions = engine.predict(&ds.test_unseen_x);
    let acc = overall_accuracy(&predictions, &ds.test_unseen_labels);
    assert!(acc >= 0.9, "dot-similarity unseen accuracy {acc} below 0.9");
}
