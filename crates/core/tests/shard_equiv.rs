//! Differential suite for the sharded signature bank: every shard count must
//! produce **bit-identical** results to the default single band — scores,
//! argmax predictions, and top-k rankings, across both scoring precisions and
//! thread counts, including deliberate score ties that straddle shard
//! boundaries (where a merge with the wrong tie-break order would diverge
//! first). Because every shard count runs the same reducer, the predictions
//! are also checked against an oracle outside it: the first-index argmax and
//! a full sort of each `scores()` row, and the `f64` scores against an
//! unfolded projection and `X·Sᵀ` product. The same bar applies to the boot
//! path: an engine whose bank is borrowed from a memory-mapped artifact must
//! score bit-identically to one whose bank was read onto the heap.
//!
//! The calibrated-stacking scenario rides here too: on a seeded
//! seen-swamped dataset a γ_cal sweep must *strictly* improve the GZSL
//! harmonic mean, while γ_cal = 0 must reproduce the uncalibrated engine
//! bit-for-bit.

use zsl_core::data::Rng;
use zsl_core::{
    cross_validate, evaluate_gzsl, evaluate_gzsl_with, BankShards, CrossValConfig, EszslConfig,
    EszslTrainer, Matrix, ProjectionModel, ScoringEngine, ScoringPrecision, Similarity,
    SyntheticConfig,
};

/// Bank-row pairs duplicated verbatim so their scores tie bitwise. Each pair
/// spans a shard boundary under every layout exercised below (2, 7, and
/// z-clamped bands over 400 rows all cut at multiples of 64), plus one
/// same-band adjacent pair and the two extreme rows.
const DUPLICATE_PAIRS: [(usize, usize); 4] = [(5, 389), (70, 200), (100, 101), (0, 399)];

const CLASSES: usize = 400;
const DIM: usize = 16;

/// A 400-class bank with engineered duplicate rows and an identity
/// projection, so test rows copied from bank rows score their duplicates
/// with exactly equal bits.
fn tie_setup() -> (ProjectionModel, Matrix, Matrix) {
    let mut rng = Rng::new(4242);
    let mut bank: Vec<Vec<f64>> = (0..CLASSES)
        .map(|_| (0..DIM).map(|_| rng.normal()).collect())
        .collect();
    for &(a, b) in &DUPLICATE_PAIRS {
        bank[b] = bank[a].clone();
    }
    // 50 random query rows, then one exact copy of each duplicated signature:
    // with W = I the projection is the row itself, so the copied rows produce
    // genuine cross-shard score ties at the top of the ranking.
    let mut x: Vec<Vec<f64>> = (0..50)
        .map(|_| (0..DIM).map(|_| rng.normal()).collect())
        .collect();
    for &(a, _) in &DUPLICATE_PAIRS {
        x.push(bank[a].clone());
    }
    (
        ProjectionModel::from_weights(Matrix::identity(DIM)),
        Matrix::from_rows(&bank),
        Matrix::from_rows(&x),
    )
}

#[test]
fn every_shard_count_is_bit_identical_to_the_monolithic_path() {
    let (model, bank, x) = tie_setup();
    for similarity in [Similarity::Dot, Similarity::Cosine] {
        for precision in [ScoringPrecision::F64, ScoringPrecision::F32] {
            for threads in [1usize, 4] {
                let mut baseline = ScoringEngine::new(model.clone(), bank.clone(), similarity)
                    .with_precision(precision);
                baseline.set_threads(threads);
                assert_eq!(baseline.bank_shards().count(), 1, "default is one band");
                let scores = baseline.scores(&x);
                let argmax = baseline.predict(&x);
                let rankings: Vec<_> = [1usize, 3, CLASSES]
                    .iter()
                    .map(|&k| baseline.predict_topk(&x, k))
                    .collect();

                for requested in [1usize, 2, 7, CLASSES] {
                    let mut sharded = ScoringEngine::new(model.clone(), bank.clone(), similarity)
                        .with_precision(precision);
                    sharded.set_threads(threads);
                    sharded.set_bank_shards(requested);
                    let tag = format!(
                        "similarity={similarity:?} precision={precision:?} \
                         threads={threads} shards={requested}"
                    );
                    assert_eq!(
                        sharded.scores(&x).as_slice(),
                        scores.as_slice(),
                        "score bits diverged ({tag})"
                    );
                    assert_eq!(sharded.predict(&x), argmax, "argmax diverged ({tag})");
                    for (&k, expected) in [1usize, 3, CLASSES].iter().zip(&rankings) {
                        assert_eq!(
                            &sharded.predict_topk(&x, k),
                            expected,
                            "top-{k} diverged ({tag})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ties_across_shard_boundaries_resolve_to_the_lower_class_id() {
    let (model, bank, x) = tie_setup();
    for requested in [1usize, 2, 7, CLASSES] {
        let mut engine = ScoringEngine::new(model.clone(), bank.clone(), Similarity::Dot);
        engine.set_bank_shards(requested);
        let argmax = engine.predict(&x);
        let top2 = engine.predict_topk(&x, 2);
        // The last rows of `x` are verbatim copies of the first member of
        // each duplicated pair: both members score exactly ||row||², the
        // bitwise maximum, so argmax must name the lower class id and the
        // runner-up must be the higher duplicate at the identical score.
        for (i, &(lo, hi)) in DUPLICATE_PAIRS.iter().enumerate() {
            let row = x.rows() - DUPLICATE_PAIRS.len() + i;
            assert_eq!(
                argmax[row], lo,
                "tie must break to the lower class id (shards={requested})"
            );
            assert_eq!(top2[row].classes, vec![lo, hi]);
            assert_eq!(
                top2[row].scores[0].to_bits(),
                top2[row].scores[1].to_bits(),
                "engineered tie is not bitwise equal"
            );
        }
    }
}

/// Index of the first maximum of `row` under `total_cmp`.
fn first_argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in row.iter().enumerate() {
        if v.total_cmp(&row[best]).is_gt() {
            best = i;
        }
    }
    best
}

/// Every class of `row`, best first: descending `total_cmp`, ties by
/// ascending class id.
fn full_sort(row: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
    order
}

/// `tie_setup`'s queries plus a row with one NaN feature (every score NaN)
/// and an all-zero row (every class ties at 0).
fn oracle_queries() -> Matrix {
    let (_, _, x) = tie_setup();
    let mut rows: Vec<Vec<f64>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
    let mut poisoned = vec![0.5; DIM];
    poisoned[3] = f64::NAN;
    rows.push(poisoned);
    rows.push(vec![0.0; DIM]);
    Matrix::from_rows(&rows)
}

#[test]
fn predictions_match_argmax_and_full_sort_of_every_score_row() {
    let (model, bank, _) = tie_setup();
    let x = oracle_queries();
    for similarity in [Similarity::Dot, Similarity::Cosine] {
        for precision in [ScoringPrecision::F64, ScoringPrecision::F32] {
            for requested in [1usize, 2, 3, CLASSES] {
                let mut engine = ScoringEngine::new(model.clone(), bank.clone(), similarity)
                    .with_precision(precision);
                engine.set_bank_shards(requested);
                let tag =
                    format!("similarity={similarity:?} precision={precision:?} shards={requested}");
                let scores = engine.scores(&x);
                let argmax: Vec<usize> =
                    (0..x.rows()).map(|i| first_argmax(scores.row(i))).collect();
                assert_eq!(engine.predict(&x), argmax, "argmax ({tag})");
                let sorted: Vec<Vec<usize>> =
                    (0..x.rows()).map(|i| full_sort(scores.row(i))).collect();
                for k in [0usize, 1, 10, CLASSES, CLASSES + 5] {
                    let ranked = engine.predict_topk(&x, k);
                    assert_eq!(ranked.len(), x.rows());
                    for (i, got) in ranked.iter().enumerate() {
                        let expected = &sorted[i][..k.min(CLASSES)];
                        assert_eq!(got.classes, expected, "top-{k} of row {i} ({tag})");
                        let got_bits: Vec<u64> = got.scores.iter().map(|v| v.to_bits()).collect();
                        let want_bits: Vec<u64> = expected
                            .iter()
                            .map(|&c| scores.get(i, c).to_bits())
                            .collect();
                        assert_eq!(got_bits, want_bits, "top-{k} scores of row {i} ({tag})");
                    }
                }
            }
        }
    }
}

#[test]
fn f64_scores_match_an_unfolded_projection_and_product() {
    let (model, bank, _) = tie_setup();
    let x = oracle_queries();
    for similarity in [Similarity::Dot, Similarity::Cosine] {
        let mut projected = model.project(&x);
        let mut normalized = bank.clone();
        if similarity == Similarity::Cosine {
            projected.l2_normalize_rows();
            normalized.l2_normalize_rows();
        }
        let expected = projected.matmul_bt(&normalized);
        for requested in [1usize, 2, 3, CLASSES] {
            let mut engine = ScoringEngine::new(model.clone(), bank.clone(), similarity);
            engine.set_bank_shards(requested);
            let got: Vec<u64> = engine
                .scores(&x)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = expected.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "similarity={similarity:?} shards={requested}");
        }
    }
}

#[test]
fn shard_layout_is_tile_aligned_and_clamped() {
    // gemm_bt tiles bank rows in 64-column blocks, so bit-identity requires
    // every shard boundary to sit on a multiple of 64. 400 rows hold 7 tiles.
    let layout = BankShards::uniform(CLASSES, 7);
    assert_eq!(layout.count(), 7);
    for band in 0..layout.count() {
        let r = layout.band(band);
        assert!(
            r.start.is_multiple_of(64),
            "band {band} starts off-tile at {}",
            r.start
        );
    }
    assert_eq!(layout.band(6).end, CLASSES);
    // Requesting one shard per class clamps to the tile count; a degenerate
    // bank still gets exactly one band.
    assert_eq!(BankShards::uniform(CLASSES, CLASSES).count(), 7);
    assert_eq!(BankShards::uniform(3, 8).count(), 1);
    assert_eq!(BankShards::uniform(0, 4).count(), 1);
}

fn golden_model_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_bundle")
        .join("model.zsm")
}

#[test]
fn mmap_boot_is_bit_identical_to_heap_boot() {
    // The committed golden artifact predates the aligned-bank layout, so the
    // mapped loader must fall back to a heap copy — and still score
    // identically through the same validation.
    let golden = golden_model_path();
    let (heap, heap_meta) = ScoringEngine::load_with_metadata(&golden).expect("heap load");
    let (fallback, fb_meta) = ScoringEngine::load_mapped(&golden).expect("mapped load");
    assert!(
        !fallback.is_bank_mapped(),
        "legacy unaligned artifact must fall back to the heap"
    );
    assert_eq!(heap_meta, fb_meta);
    let mut rng = Rng::new(7);
    let x = Matrix::from_vec(
        9,
        heap.feature_dim(),
        (0..9 * heap.feature_dim()).map(|_| rng.normal()).collect(),
    );
    assert_eq!(
        heap.scores(&x).as_slice(),
        fallback.scores(&x).as_slice(),
        "fallback-mapped boot diverged from heap boot"
    );

    // Re-saving produces a v2 aligned artifact: on unix little-endian the
    // bank is borrowed zero-copy, and scoring stays bit-identical — with and
    // without sharding on top.
    let path =
        std::env::temp_dir().join(format!("zsl_shard_equiv_mmap_{}.zsm", std::process::id()));
    heap.save_with_metadata(&path, &heap_meta).expect("resave");
    let (mapped, mapped_meta) = ScoringEngine::load_mapped(&path).expect("mapped v2 load");
    assert_eq!(mapped_meta, heap_meta);
    assert_eq!(
        heap.bank_resident_bytes(),
        heap.num_classes() * heap.model().attr_dim() * std::mem::size_of::<f64>(),
        "a heap boot holds the whole f64 bank"
    );
    if cfg!(all(unix, target_endian = "little")) {
        assert!(mapped.is_bank_mapped(), "aligned v2 artifact must map");
        assert_eq!(
            mapped.bank_resident_bytes(),
            0,
            "a mapped bank must not be copied to the heap"
        );
    }
    assert_eq!(mapped.scores(&x).as_slice(), heap.scores(&x).as_slice());
    assert_eq!(mapped.predict(&x), heap.predict(&x));
    assert_eq!(mapped.predict_topk(&x, 3), heap.predict_topk(&x, 3));
    let mut sharded = ScoringEngine::load_mapped(&path).expect("mapped load").0;
    sharded.set_bank_shards(4);
    assert_eq!(
        sharded.predict_topk(&x, 3),
        heap.predict_topk(&x, 3),
        "sharded scoring over a mapped bank diverged"
    );
    std::fs::remove_file(&path).ok();
}

/// A seeded GZSL scenario engineered to be seen-swamped: plenty of seen
/// classes, noisy test features, so unseen test samples leak into seen
/// predictions and the uncalibrated harmonic mean is held down by the
/// seen-class bias that calibrated stacking exists to counter.
fn seen_swamped() -> (zsl_core::data::Dataset, zsl_core::ProjectionModel) {
    let ds = SyntheticConfig::new()
        .classes(24, 6)
        .dims(12, 24)
        .samples(30, 12)
        .noise(0.9)
        .seed(90210)
        .build();
    let model = EszslConfig::new().build().fit(&ds).expect("fit");
    (ds, model)
}

#[test]
fn zero_calibration_is_bit_exact_and_a_sweep_strictly_improves_harmonic_mean() {
    let (ds, model) = seen_swamped();
    let plain = ScoringEngine::new(model.clone(), ds.all_signatures(), Similarity::Cosine);
    let seen = ds.seen_signatures.rows();

    // γ_cal = 0 must be indistinguishable from no calibration at all: same
    // score bits, same report, no calibration recorded on the engine.
    let zero = ScoringEngine::new(model.clone(), ds.all_signatures(), Similarity::Cosine)
        .with_calibration(0.0, seen)
        .expect("zero calibration");
    assert_eq!(zero.seen_calibration(), None);
    assert_eq!(
        zero.scores(&ds.test_unseen_x).as_slice(),
        plain.scores(&ds.test_unseen_x).as_slice()
    );
    let baseline = evaluate_gzsl_with(&plain, &ds).expect("baseline eval");
    assert_eq!(
        baseline,
        evaluate_gzsl(&model, &ds, Similarity::Cosine).expect("legacy eval"),
        "engine-level and legacy GZSL paths must agree bit-for-bit"
    );
    assert_eq!(baseline, evaluate_gzsl_with(&zero, &ds).expect("zero eval"));
    assert!(
        baseline.seen_accuracy > baseline.unseen_accuracy,
        "scenario must be seen-swamped (seen {} vs unseen {})",
        baseline.seen_accuracy,
        baseline.unseen_accuracy
    );

    // The sweep: some positive seen-class penalty must strictly beat γ = 0,
    // and the penalty must act identically through the sharded merge path.
    let mut best = baseline.harmonic_mean;
    let mut best_gamma = 0.0;
    for gamma in [0.01, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let engine = ScoringEngine::new(model.clone(), ds.all_signatures(), Similarity::Cosine)
            .with_calibration(gamma, seen)
            .expect("calibrated engine");
        let report = evaluate_gzsl_with(&engine, &ds).expect("calibrated eval");
        if report.harmonic_mean > best {
            best = report.harmonic_mean;
            best_gamma = gamma;
        }
        let mut sharded =
            ScoringEngine::new(model.clone(), ds.all_signatures(), Similarity::Cosine)
                .with_calibration(gamma, seen)
                .expect("calibrated engine");
        sharded.set_bank_shards(3);
        assert_eq!(
            sharded.predict(&ds.test_unseen_x),
            engine.predict(&ds.test_unseen_x),
            "calibrated argmax diverged under sharding (gamma_cal={gamma})"
        );
    }
    assert!(
        best > baseline.harmonic_mean,
        "no gamma_cal improved the harmonic mean over {} (best {best})",
        baseline.harmonic_mean
    );
    assert!(best_gamma > 0.0);
}

#[test]
fn cross_validation_calibration_axis_sweeps_and_stays_legacy_compatible() {
    let (ds, _) = seen_swamped();
    let base = CrossValConfig::new()
        .gammas(vec![0.1, 1.0])
        .lambdas(vec![1.0])
        .folds(3)
        .seed(11);
    // The default axis is exactly [0.0]: spelling it out must reproduce the
    // legacy report byte-for-byte (same grid, same folds, same best point).
    let eszsl = EszslTrainer::default();
    let legacy = cross_validate(&eszsl, &ds, &base).expect("legacy cv");
    let explicit =
        cross_validate(&eszsl, &ds, &base.clone().calibrations(vec![0.0])).expect("explicit cv");
    assert_eq!(legacy, explicit);
    assert!(legacy.grid.iter().all(|p| p.calibration == 0.0));

    // A real sweep triples the grid and selects a finite, non-negative γ_cal
    // by pseudo-unseen harmonic mean.
    let swept =
        cross_validate(&eszsl, &ds, &base.calibrations(vec![0.0, 0.1, 0.3])).expect("swept cv");
    assert_eq!(swept.grid.len(), legacy.grid.len() * 3);
    assert!(swept.best.calibration.is_finite() && swept.best.calibration >= 0.0);
    assert!(swept
        .grid
        .iter()
        .all(|p| p.fold_accuracies.len() == 3 && p.mean_accuracy.is_finite()));
}
