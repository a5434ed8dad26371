//! Differential test layer for the [`Trainer`] abstraction: every model
//! family — ESZSL, SAE, kernel ESZSL (linear and RBF) — flows through the
//! SAME generic path and inherits the streaming guarantees the ESZSL suite
//! (`tests/streaming_equiv.rs`) pins:
//!
//! 1. **Chunk invariance** — a fit over a [`StreamingBundle`] is
//!    bit-identical to a fit over the materialized [`Dataset`] at every
//!    chunk size, for every family (weights for the linear families, dual
//!    weights + anchors for the kernel family).
//! 2. **Protocol invariance** — seeded [`cross_validate`], the refit at its
//!    winner and the GZSL report (the stages [`zsl_core::Pipeline`] chains)
//!    produce the same bits streamed and in-memory, with each family
//!    sweeping its own grid shape — over a [`Normalized`] source too.
//! 3. **Grid solves** — [`Trainer::fit_grid`], which shares each family's
//!    per-axis factorizations across the grid, returns exactly the per-point
//!    fits on the same rows, in input order, and rejects an invalid
//!    regularizer anywhere in the grid before reading a row.
//! 4. **Artifact round trips** — every family's engine persists to a `.zsm`
//!    v2 artifact and reloads to bit-identical scores and reports, and a
//!    resave of the reloaded engine is byte-identical.
//! 5. **Golden wall** — the committed `tests/fixtures/tiny_bundle/` pins
//!    frozen `GzslReport` bits for the SAE and kernel trainers, next to the
//!    ESZSL bits `model_artifacts.rs` pins. Regenerate via the `--ignored
//!    print_trainer_golden_bits` test after intentional solver changes.

use std::path::PathBuf;
use zsl_core::data::{export_dataset, StreamingBundle};
use zsl_core::eval::{cross_validate, CrossValConfig, CrossValReport, GzslReport};
use zsl_core::infer::{ScoringEngine, ScoringPrecision, Similarity};
use zsl_core::model::{EszslConfig, TrainError};
use zsl_core::source::{MemorySource, Normalized};
use zsl_core::trainer::{KernelEszslConfig, KernelKind, SaeConfig, TrainedModel, Trainer};
use zsl_core::{evaluate_gzsl_with, Dataset, FeatureSource, SyntheticConfig, ZslError};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zsl_trainer_equiv_{}_{tag}", std::process::id()))
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_bundle")
}

/// The chunk sizes the streaming wall pins: degenerate (1), coprime-ish
/// small (3, 7), exactly one chunk (n), and larger than the data (n + 13).
fn chunk_sizes(n_rows: usize) -> [usize; 5] {
    [1, 3, 7, n_rows, n_rows + 13]
}

fn synthetic_dataset() -> Dataset {
    SyntheticConfig::new()
        .classes(6, 2)
        .dims(4, 5)
        .samples(4, 3)
        .noise(0.05)
        .seed(20_26)
        .build()
}

/// One representative trainer per family (plus both kernels), with
/// hyperparameters off the defaults where the family allows it.
fn trainers() -> Vec<(&'static str, Box<dyn Trainer>)> {
    vec![
        (
            "eszsl",
            Box::new(EszslConfig::new().gamma(0.5).lambda(2.0).build()),
        ),
        ("sae", Box::new(SaeConfig::new().lambda(0.7).build())),
        (
            "kernel-linear",
            Box::new(KernelEszslConfig::new().gamma(0.5).lambda(2.0).build()),
        ),
        (
            "kernel-rbf",
            Box::new(
                KernelEszslConfig::new()
                    .kernel(KernelKind::Rbf { width: 0.25 })
                    .max_anchors(10)
                    .build(),
            ),
        ),
    ]
}

/// The protocol `Pipeline` chains, stage by stage: sweep `trainer`'s grid,
/// refit it at the winner, evaluate GZSL over the union bank.
fn sweep_refit_evaluate(
    trainer: &dyn Trainer,
    source: &dyn FeatureSource,
    config: &CrossValConfig,
) -> (CrossValReport, GzslReport) {
    let cv = cross_validate(trainer, source, config).expect("cv");
    let model = trainer
        .with_point(cv.best.gamma, cv.best.lambda)
        .fit(source)
        .expect("refit");
    let engine = ScoringEngine::try_new(model, source.union_signatures(), config.similarity)
        .expect("engine");
    let report = evaluate_gzsl_with(&engine, source).expect("evaluate");
    (cv, report)
}

/// Bit-level equality across families: weights for the linear families,
/// dual weights + anchors + kernel for the kernel family.
fn assert_same_model(a: &TrainedModel, b: &TrainedModel, label: &str) {
    assert_eq!(a.family(), b.family(), "{label}: family");
    match (a.projection(), b.projection()) {
        (Some(x), Some(y)) => {
            assert_eq!(
                x.weights().as_slice(),
                y.weights().as_slice(),
                "{label}: weights"
            );
        }
        _ => {
            let x = a.kernel_model().expect(label);
            let y = b.kernel_model().expect(label);
            assert_eq!(x.kernel(), y.kernel(), "{label}: kernel");
            assert_eq!(x.alpha().as_slice(), y.alpha().as_slice(), "{label}: alpha");
            assert_eq!(
                x.anchors().as_slice(),
                y.anchors().as_slice(),
                "{label}: anchors"
            );
        }
    }
}

#[test]
fn every_family_is_chunk_invariant_and_matches_in_memory() {
    let ds = synthetic_dataset();
    let dir = temp_dir("chunks");
    export_dataset(&ds, &dir).expect("export");
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let n = mem.train_x.rows();
    for (tag, trainer) in trainers() {
        let reference = trainer.fit(&mem).expect("in-memory fit");
        for chunk_rows in chunk_sizes(n) {
            let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
            let streamed = trainer.fit(&bundle).expect("streamed fit");
            assert_same_model(&streamed, &reference, &format!("{tag} chunk={chunk_rows}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_family_over_a_normalized_source_is_chunk_invariant() {
    // The adapter normalizes each chunk on its own; row normalization is
    // row-local, so weights, CV reports and GZSL reports keep their bits at
    // every chunk size, equal to those over the in-memory dataset wrapped
    // the same way.
    let ds = synthetic_dataset();
    let dir = temp_dir("normalized");
    export_dataset(&ds, &dir).expect("export");
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let n = mem.train_x.rows();
    let config = CrossValConfig::new()
        .gammas(vec![0.1, 1.0])
        .lambdas(vec![0.5, 5.0])
        .folds(3)
        .seed(11);
    let normalized = Normalized::new(&mem, true, true);
    for (tag, trainer) in trainers() {
        let reference = trainer.fit(&normalized).expect("in-memory fit");
        let (reference_cv, reference_report) =
            sweep_refit_evaluate(trainer.as_ref(), &normalized, &config);
        for chunk_rows in [3, n] {
            let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
            let streamed = Normalized::new(&bundle, true, true);
            let label = format!("{tag} chunk={chunk_rows}");
            let model = trainer.fit(&streamed).expect("streamed fit");
            assert_same_model(&model, &reference, &label);
            let (cv, report) = sweep_refit_evaluate(trainer.as_ref(), &streamed, &config);
            assert_eq!(cv, reference_cv, "{label}: cv drifted");
            assert_eq!(report, reference_report, "{label}: report drifted");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generic_cv_and_gzsl_protocols_are_chunk_invariant_for_every_family() {
    let ds = synthetic_dataset();
    let dir = temp_dir("protocol");
    export_dataset(&ds, &dir).expect("export");
    let mem = StreamingBundle::open(&dir, usize::MAX)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let n = mem.train_x.rows();
    let config = CrossValConfig::new()
        .gammas(vec![0.1, 1.0])
        .lambdas(vec![0.5, 5.0])
        .folds(3)
        .seed(11);
    for (tag, trainer) in trainers() {
        let (reference_cv, reference_report) =
            sweep_refit_evaluate(trainer.as_ref(), &mem, &config);
        // Each family sweeps its own grid: SAE collapses γ, the others take
        // the cartesian product.
        let expected_grid = match tag {
            "sae" => config.lambdas.len(),
            _ => config.gammas.len() * config.lambdas.len(),
        };
        assert_eq!(reference_cv.grid.len(), expected_grid, "{tag}: grid shape");
        for chunk_rows in chunk_sizes(n) {
            let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
            let (cv, report) = sweep_refit_evaluate(trainer.as_ref(), &bundle, &config);
            assert_eq!(cv, reference_cv, "{tag} chunk={chunk_rows}: cv drifted");
            assert_eq!(
                report, reference_report,
                "{tag} chunk={chunk_rows}: report drifted"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A λ-outer grid whose γs recur apart, with a repeated point and a λ
/// first seen at the end: the orders a per-γ or per-λ cache could get wrong.
fn lambda_outer_grid() -> Vec<(f64, f64)> {
    let mut points: Vec<(f64, f64)> = [0.5, 5.0]
        .iter()
        .flat_map(|&lambda| [0.1, 1.0, 10.0].map(|gamma| (gamma, lambda)))
        .collect();
    points.extend([(1.0, 0.5), (0.1, 2.0)]);
    points
}

#[test]
fn fit_grid_matches_per_point_fits_in_input_order_for_every_family() {
    let ds = synthetic_dataset();
    // A strict, shuffled subset of the trainval rows; the per-point fits see
    // the same rows in the same order as a bare in-memory source.
    let n = ds.train_x.rows();
    let subset: Vec<usize> = (0..n).rev().filter(|p| p % 3 != 1).collect();
    let x = ds.train_x.gather_rows(&subset);
    let labels: Vec<usize> = subset.iter().map(|&p| ds.train_labels[p]).collect();
    let rows = MemorySource::new(&x, &labels, &ds.seen_signatures);
    let points = lambda_outer_grid();
    for (tag, trainer) in trainers() {
        let models = trainer
            .fit_grid(&ds, &subset, &points)
            .unwrap_or_else(|e| panic!("{tag}: fit_grid: {e}"));
        assert_eq!(models.len(), points.len(), "{tag}: one model per point");
        for (i, (model, &(gamma, lambda))) in models.iter().zip(&points).enumerate() {
            let single = trainer
                .with_point(gamma, lambda)
                .fit(&rows)
                .unwrap_or_else(|e| panic!("{tag}: fit at point {i}: {e}"));
            assert_same_model(
                model,
                &single,
                &format!("{tag} point {i} ({gamma}, {lambda})"),
            );
        }
    }
}

#[test]
fn fit_grid_rejects_an_invalid_regularizer_at_any_position_before_reading_rows() {
    let ds = synthetic_dataset();
    let all: Vec<usize> = (0..ds.train_x.rows()).collect();
    for (tag, trainer) in trainers() {
        // SAE sweeps λ alone: its γ is a placeholder (0 in its own grid).
        let axes: &[usize] = if tag == "sae" { &[1] } else { &[0, 1] };
        for position in 0..lambda_outer_grid().len() {
            for &axis in axes {
                for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                    let mut points = lambda_outer_grid();
                    match axis {
                        0 => points[position].0 = bad,
                        _ => points[position].1 = bad,
                    }
                    let label = format!("{tag}: axis {axis} = {bad} at position {position}");
                    // With no rows to fold, a fit that read the rows first
                    // would fail on the empty training set instead.
                    for subset in [&all[..], &[]] {
                        match trainer.fit_grid(&ds, subset, &points) {
                            Err(ZslError::Train(TrainError::InvalidConfig(_))) => {}
                            other => panic!("{label}: {:?}", other.map(|m| m.len())),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_family_round_trips_through_zsm_v2_bit_for_bit() {
    let ds = synthetic_dataset();
    for (tag, trainer) in trainers() {
        let model = trainer.fit(&ds).expect("fit");
        let engine =
            ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine).expect("engine");
        let report = evaluate_gzsl_with(&engine, &ds).expect("evaluate");
        let path = std::env::temp_dir().join(format!(
            "zsl_trainer_equiv_{}_{tag}.zsm",
            std::process::id()
        ));
        let metadata = trainer.describe();
        engine.save_with_metadata(&path, &metadata).expect("save");
        let (back, meta) = ScoringEngine::load_with_metadata(&path).expect("load");
        assert_eq!(meta, metadata, "{tag}: metadata drifted");
        assert_same_model(back.model(), engine.model(), tag);
        assert_eq!(
            evaluate_gzsl_with(&back, &ds).expect("evaluate reloaded"),
            report,
            "{tag}: served report drifted"
        );
        // A resave of the reloaded engine is byte-identical: the format is a
        // fixed point for every family, not an approximation.
        let path2 = path.with_extension("resave.zsm");
        back.save_with_metadata(&path2, &metadata).expect("resave");
        assert_eq!(
            std::fs::read(&path).expect("read a"),
            std::fs::read(&path2).expect("read b"),
            "{tag}: resave not byte-identical"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }
}

/// A scoring batch large enough to reach the worker pool. A product below
/// 2¹⁷ multiply-adds runs serially on the calling thread, so the tiny
/// `synthetic_dataset` batch never leaves it. Here the 512 `test_seen_x`
/// rows at d = 64 and a = 32 against 20 classes put every product of every
/// family above that cutoff: the projection (512·64·32), the bank product
/// (512·32·20) and, for the kernel families, the map against m ≥ 10 anchors
/// (512·64·m) and its dual-weight product (512·m·32).
fn pooled_dataset() -> Dataset {
    SyntheticConfig::new()
        .classes(16, 4)
        .dims(32, 64)
        .samples(8, 32)
        .noise(0.05)
        .seed(512)
        .build()
}

/// Every family's scoring — f64 and the opt-in f32 variant — is
/// bit-identical across thread counts now that all kernels (including the
/// RBF Gram) run row-banded over the shared worker pool with fixed per-row
/// summation order. Thread counts cover serial (1), even splits (2, 4), and
/// more threads than some band widths (9); the small batch stays serial at
/// every count, the pooled one is split into bands.
#[test]
fn pooled_scoring_is_thread_invariant_for_every_family_and_precision() {
    let small = synthetic_dataset();
    let pooled = pooled_dataset();
    for (ds, x) in [
        (&small, &small.test_unseen_x),
        (&pooled, &pooled.test_seen_x),
    ] {
        let n = x.rows();
        for (tag, trainer) in trainers() {
            let model = trainer.fit(ds).expect("fit");
            let mut engine = ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine)
                .expect("engine");
            let z = engine.num_classes();
            for precision in [ScoringPrecision::F64, ScoringPrecision::F32] {
                engine = engine.with_precision(precision);
                engine.set_threads(1);
                let reference = engine.predict_topk(x, z);
                for threads in [2, 4, 9] {
                    engine.set_threads(threads);
                    assert_eq!(
                        engine.predict_topk(x, z),
                        reference,
                        "{tag} {precision} n={n} threads={threads}: scores drifted from serial"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden wall: frozen GzslReport bits per family on the committed fixture
// ---------------------------------------------------------------------------

/// Frozen `GzslReport` bits (seen, unseen, harmonic mean) of the default
/// SAE trainer (λ = 1) on `tests/fixtures/tiny_bundle/`, cosine over the
/// union bank — the SAE analogue of `GOLDEN_REPORT_BITS`.
const SAE_GOLDEN_REPORT_BITS: [u64; 3] = [
    0x3fd0_0000_0000_0000,
    0x3fe0_0000_0000_0000,
    0x3fd5_5555_5555_5555,
];

/// Frozen `GzslReport` bits of the default linear-kernel ESZSL trainer
/// (γ = λ = 1, all anchors) on the same fixture.
const KERNEL_GOLDEN_REPORT_BITS: [u64; 3] = [
    0x3fd0_0000_0000_0000,
    0x3fe0_0000_0000_0000,
    0x3fd5_5555_5555_5555,
];

/// The two non-ESZSL golden trainers, with the default hyperparameters the
/// constants above freeze.
fn golden_trainers() -> [(&'static str, Box<dyn Trainer>, [u64; 3]); 2] {
    [
        (
            "sae",
            Box::new(SaeConfig::new().build()),
            SAE_GOLDEN_REPORT_BITS,
        ),
        (
            "kernel-linear",
            Box::new(KernelEszslConfig::new().build()),
            KERNEL_GOLDEN_REPORT_BITS,
        ),
    ]
}

fn fixture_report(trainer: &dyn Trainer) -> zsl_core::GzslReport {
    let ds = StreamingBundle::open(&fixture_dir(), usize::MAX)
        .expect("open fixture")
        .to_dataset()
        .expect("materialize");
    let model = trainer.fit(&ds).expect("fit");
    let engine =
        ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine).expect("engine");
    evaluate_gzsl_with(&engine, &ds).expect("evaluate")
}

#[test]
fn golden_wall_extends_to_sae_and_kernel_families() {
    for (tag, trainer, expected) in golden_trainers() {
        let report = fixture_report(trainer.as_ref());
        let got = [
            report.seen_accuracy.to_bits(),
            report.unseen_accuracy.to_bits(),
            report.harmonic_mean.to_bits(),
        ];
        assert_eq!(
            got, expected,
            "{tag}: golden report drifted: ({}, {}, {}), bits {got:#018x?}",
            report.seen_accuracy, report.unseen_accuracy, report.harmonic_mean
        );
    }
}

/// Print the current golden bits for the constants above. Intentional
/// solver changes only: `cargo test -p zsl-core --test trainer_equiv -- \
/// --ignored print_trainer_golden_bits --nocapture`, then paste.
#[test]
#[ignore = "prints constants for the golden wall; run explicitly after intentional changes"]
fn print_trainer_golden_bits() {
    for (tag, trainer, _) in golden_trainers() {
        let report = fixture_report(trainer.as_ref());
        println!(
            "{tag}: [{:#018x}, {:#018x}, {:#018x}] // ({}, {}, {})",
            report.seen_accuracy.to_bits(),
            report.unseen_accuracy.to_bits(),
            report.harmonic_mean.to_bits(),
            report.seen_accuracy,
            report.unseen_accuracy,
            report.harmonic_mean
        );
    }
}

// ---------------------------------------------------------------------------
// Calibrated sweep: frozen fold accuracies per family
// ---------------------------------------------------------------------------

/// A noisy, seen-swamped dataset on which the calibration penalties move
/// the pseudo-GZSL fold metric.
fn calibrated_sweep_dataset() -> Dataset {
    SyntheticConfig::new()
        .classes(12, 3)
        .dims(6, 10)
        .samples(10, 4)
        .noise(0.8)
        .seed(4242)
        .build()
}

/// The calibrated sweep the frozen bits below come from: 3 folds, and each
/// family's grid over γ ∈ {0.1, 1}, λ ∈ {0.5, 2} at γ_cal ∈ {0, 0.1, 0.3}.
fn calibrated_sweep_config() -> CrossValConfig {
    CrossValConfig::new()
        .gammas(vec![0.1, 1.0])
        .lambdas(vec![0.5, 2.0])
        .folds(3)
        .seed(31)
        .calibrations(vec![0.0, 0.1, 0.3])
}

/// The bits of every fold accuracy of a 3-fold report, grid point by grid
/// point.
fn fold_accuracy_bits(report: &CrossValReport) -> Vec<[u64; 3]> {
    report
        .grid
        .iter()
        .map(|p| {
            let folds: Vec<u64> = p.fold_accuracies.iter().map(|a| a.to_bits()).collect();
            folds.try_into().expect("3 folds")
        })
        .collect()
}

/// Frozen fold accuracies of [`calibrated_sweep_config`] on
/// [`calibrated_sweep_dataset`], per family: the sweep must penalize each
/// fold's pseudo-seen validation scores with the same float operations, in
/// the same order, as the per-`γ_cal` calibrated engines it once built.
/// One row per grid point in report order (γ, then λ, then γ_cal), one
/// column per fold.
#[rustfmt::skip]
const CALIBRATED_FOLD_BITS: [(&str, &[[u64; 3]]); 3] = [
    ("eszsl", &[
        [0x3fcd_097b_425e_d095, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fcc_c3d8_d4a2_45f1, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fd5_ee2b_4db1_08ea, 0x3fc4_fb76_9a3f_8390, 0x3fcb_ff3b_a330_21c0],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fc2_dfc8_ea1d_04ac],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fca_c4b5_5cc6_1a82],
        [0x3fd3_1a94_48be_4059, 0x3fc8_1f81_f81f_81f8, 0x3fd4_29bf_95ed_46a4],
        [0x3fcd_097b_425e_d095, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fcc_c3d8_d4a2_45f1, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fd8_4ad0_12b4_04ad, 0x3fc4_fb76_9a3f_8390, 0x3fcb_ff3b_a330_21c0],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fc2_dfc8_ea1d_04ac],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fca_c4b5_5cc6_1a82],
        [0x3fd3_1a94_48be_4059, 0x3fc8_1f81_f81f_81f8, 0x3fd4_29bf_95ed_46a4],
    ]),
    ("sae", &[
        [0x3fda_4b9c_9fdd_6f41, 0x3fd4_1dc7_2dbb_063a, 0x3fc2_bd57_6886_df93],
        [0x3fda_4b9c_9fdd_6f41, 0x3fd2_a6f6_cd25_a992, 0x3fd1_5b01_c8d1_bdd7],
        [0x3fd5_bd07_8fa9_9624, 0x3fd5_44cb_a56d_2db8, 0x3fd6_d800_5a51_0e3e],
        [0x3fd1_ec6a_5122_f901, 0x3fd2_a6f6_cd25_a992, 0x3fca_ef1d_0b7b_9c08],
        [0x3fd5_36c4_23a9_649d, 0x3fd2_a6f6_cd25_a992, 0x3fd1_5b01_c8d1_bdd7],
        [0x3fd4_23a9_649d_ee2b, 0x3fcf_4e37_56ee_5a33, 0x3fd7_8ca8_ab46_4ec6],
    ]),
    ("kernel-linear", &[
        [0x3fcd_097b_425e_d095, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fcc_c3d8_d4a2_45f1, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fd5_ee2b_4db1_08ea, 0x3fc4_fb76_9a3f_8390, 0x3fcb_ff3b_a330_21c0],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fc2_dfc8_ea1d_04ac],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fca_c4b5_5cc6_1a82],
        [0x3fd3_1a94_48be_4059, 0x3fc8_1f81_f81f_81f8, 0x3fd4_29bf_95ed_46a4],
        [0x3fcd_097b_425e_d095, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fcc_c3d8_d4a2_45f1, 0x3fcd_fbf7_efdf_bf7f, 0x3fb4_15f5_057d_415f],
        [0x3fd5_ee2b_4db1_08ea, 0x3fc4_fb76_9a3f_8390, 0x3fcb_ff3b_a330_21c0],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fc2_dfc8_ea1d_04ac],
        [0x3fcb_d48e_bd48_ebd3, 0x3fcd_fbf7_efdf_bf7f, 0x3fca_c4b5_5cc6_1a82],
        [0x3fd3_1a94_48be_4059, 0x3fc8_1f81_f81f_81f8, 0x3fd4_29bf_95ed_46a4],
    ]),
];

fn calibrated_trainers() -> [Box<dyn Trainer>; 3] {
    [
        Box::new(EszslConfig::new().build()),
        Box::new(SaeConfig::new().build()),
        Box::new(KernelEszslConfig::new().build()),
    ]
}

#[test]
fn calibrated_sweep_fold_accuracies_keep_their_bits_for_every_family() {
    let ds = calibrated_sweep_dataset();
    let dir = temp_dir("calibrated");
    export_dataset(&ds, &dir).expect("export");
    let config = calibrated_sweep_config();
    for (trainer, (tag, expected)) in calibrated_trainers().iter().zip(CALIBRATED_FOLD_BITS) {
        let report = cross_validate(trainer.as_ref(), &ds, &config).expect("calibrated cv");
        let got = fold_accuracy_bits(&report);
        assert_eq!(
            got, expected,
            "{tag}: calibrated fold accuracies drifted, now {got:#018x?}"
        );
        // The sweep scores the validation rows chunk by chunk: streamed in
        // small chunks, the report is the same.
        let bundle = StreamingBundle::open(&dir, 7).expect("open");
        let streamed = cross_validate(trainer.as_ref(), &bundle, &config).expect("streamed cv");
        assert_eq!(
            streamed, report,
            "{tag}: the streamed calibrated sweep drifted"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
