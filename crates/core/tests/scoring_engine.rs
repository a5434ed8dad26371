//! Integration tests for the cached, parallel scoring engine: equivalence
//! with the legacy per-call clone-and-renormalize path, cosine/dot agreement
//! on pre-normalized banks, thread invariance and top-k over the real
//! pipeline.

use zsl_core::data::SyntheticConfig;
use zsl_core::infer::{ScoringEngine, Similarity};
use zsl_core::linalg::{default_threads, Matrix};
use zsl_core::model::{EszslConfig, ProjectionModel};

fn trained_setup() -> (ProjectionModel, Matrix, Matrix) {
    let ds = SyntheticConfig::new().classes(20, 6).seed(414).build();
    let model = EszslConfig::new().build().fit(&ds).expect("fit");
    (
        model,
        ds.unseen_signatures.clone(),
        ds.test_unseen_x.clone(),
    )
}

/// The PR 1 scoring path: clone the bank, renormalize it, materialize the
/// transpose, and run the serial blocked matmul — reproduced here as the
/// oracle the engine must match.
fn legacy_scores(
    model: &ProjectionModel,
    signatures: &Matrix,
    similarity: Similarity,
    x: &Matrix,
) -> Matrix {
    let mut projected = x.matmul(model.weights());
    let mut signatures = signatures.clone();
    if similarity == Similarity::Cosine {
        projected.l2_normalize_rows();
        signatures.l2_normalize_rows();
    }
    projected.matmul(&signatures.transpose())
}

#[test]
fn engine_matches_legacy_clone_and_renormalize_path() {
    let (model, bank, x) = trained_setup();
    for similarity in [Similarity::Cosine, Similarity::Dot] {
        let legacy = legacy_scores(&model, &bank, similarity, &x);
        let engine =
            ScoringEngine::try_new(model.clone(), bank.clone(), similarity).expect("engine");
        let scores = engine.scores(&x);
        assert_eq!(
            (scores.rows(), scores.cols()),
            (legacy.rows(), legacy.cols())
        );
        // The packed-Bᵀ kernel accumulates in a different order than the
        // blocked kernel over the transpose, so allow float-reassociation
        // noise but nothing more.
        assert!(
            scores.max_abs_diff(&legacy) < 1e-12,
            "engine diverged from legacy path under {similarity:?}"
        );
    }
}

#[test]
fn cosine_and_dot_agree_on_prenormalized_bank() {
    let (model, bank, x) = trained_setup();
    let mut normalized_bank = bank.clone();
    normalized_bank.l2_normalize_rows();

    // Dot against a pre-normalized bank scores each sample by ‖p‖·cos(p, s);
    // the per-sample scale cancels inside argmax and ranking, so predictions
    // must agree exactly with cosine similarity.
    let cosine = ScoringEngine::try_new(model.clone(), bank, Similarity::Cosine).expect("engine");
    let dot = ScoringEngine::try_new(model, normalized_bank, Similarity::Dot).expect("engine");
    assert_eq!(cosine.predict(&x), dot.predict(&x));
    let cosine_top3 = cosine.predict_topk(&x, 3);
    let dot_top3 = dot.predict_topk(&x, 3);
    for (c, d) in cosine_top3.iter().zip(&dot_top3) {
        assert_eq!(c.classes, d.classes);
    }
}

#[test]
fn engine_predictions_are_thread_invariant() {
    let (model, bank, x) = trained_setup();
    let engine = ScoringEngine::try_new(model, bank, Similarity::Cosine).expect("engine");
    assert_eq!(engine.threads(), default_threads().max(1));
    let mut serial = ScoringEngine::try_new(
        engine.model().clone(),
        engine.signatures().to_matrix(),
        Similarity::Dot, // bank already normalized inside the engine
    )
    .expect("engine");
    serial.set_threads(1);
    let mut parallel = serial.clone();
    parallel.set_threads(8);
    assert_eq!(serial.predict(&x), parallel.predict(&x));
}

#[test]
fn predict_topk_equals_full_sort_on_trained_pipeline() {
    let (model, bank, x) = trained_setup();
    let engine = ScoringEngine::try_new(model, bank, Similarity::Cosine).expect("engine");
    let scores = engine.scores(&x);
    let z = engine.num_classes();
    for k in [1usize, 2, z, z + 3] {
        let ranked = engine.predict_topk(&x, k);
        for (i, ranked_row) in ranked.iter().enumerate() {
            let row = scores.row(i);
            let mut order: Vec<usize> = (0..z).collect();
            order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
            order.truncate(k.min(z));
            assert_eq!(ranked_row.classes, order, "sample {i}, k={k}");
        }
    }
}

#[test]
fn predict_topk_k_zero_and_k_beyond_class_count() {
    let (model, signatures, x) = trained_setup();
    let engine = ScoringEngine::try_new(model, signatures, Similarity::Cosine).expect("engine");
    let z = engine.num_classes();

    // k = 0: one (empty) ranking per sample, no scores materialized.
    let empty = engine.predict_topk(&x, 0);
    assert_eq!(empty.len(), x.rows());
    assert!(empty
        .iter()
        .all(|t| t.classes.is_empty() && t.scores.is_empty()));

    // k far beyond the class count clamps to exactly z entries, identical
    // to asking for z directly.
    let clamped = engine.predict_topk(&x, z + 1000);
    let exact = engine.predict_topk(&x, z);
    assert_eq!(clamped, exact);
    assert!(clamped.iter().all(|t| t.classes.len() == z));
    // The head of every ranking is the argmax (same total order, same
    // first-index tie-break).
    assert_eq!(
        clamped.iter().map(|t| t.classes[0]).collect::<Vec<_>>(),
        engine.predict(&x)
    );
}

#[test]
fn try_new_returns_typed_errors_where_new_panics() {
    use zsl_core::ZslError;
    let identity = || ProjectionModel::from_weights(Matrix::identity(2));

    for (what, bank) in [
        ("empty", Matrix::zeros(0, 2)),
        ("zero-width", Matrix::zeros(3, 0)),
        ("non-finite", Matrix::from_rows(&[vec![1.0, f64::NAN]])),
        ("width mismatch", Matrix::zeros(3, 5)),
    ] {
        match ScoringEngine::try_new(identity(), bank, Similarity::Cosine) {
            Err(ZslError::Config(msg)) => assert!(!msg.is_empty(), "{what}"),
            other => panic!("{what}: expected Config error, got {other:?}"),
        }
    }

    // A valid cosine bank is cached L2-normalized, bit for bit.
    let bank = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 5.0]]);
    let engine =
        ScoringEngine::try_new(identity(), bank.clone(), Similarity::Cosine).expect("valid");
    let mut normalized = bank;
    normalized.l2_normalize_rows();
    assert_eq!(engine.signatures().as_slice(), normalized.as_slice());
}
