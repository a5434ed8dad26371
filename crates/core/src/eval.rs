//! Evaluation harness: generalized zero-shot reports and seeded k-fold
//! hyperparameter selection, over any [`FeatureSource`].
//!
//! Two layers:
//!
//! 1. [`evaluate_gzsl`] runs the standard GZSL protocol on any source:
//!    both test splits are streamed chunk-at-a-time against the *union*
//!    signature bank through the cached [`ScoringEngine`], and the result is
//!    a [`GzslReport`] — seen accuracy, unseen accuracy, their harmonic mean,
//!    and per-class breakdowns. [`evaluate_gzsl_with`] is the serving-path
//!    variant that takes an already-built (e.g. `.zsm`-loaded) engine.
//! 2. [`cross_validate`] selects a [`Trainer`]'s `(γ, λ)` **before** the
//!    unseen evaluation: a seeded k-fold split of the source's trainval
//!    samples, a grid sweep paying each fold's sufficient statistics once
//!    (not once per grid point) — ESZSL and kernel ESZSL also factor once
//!    per distinct γ and once per distinct λ ([`Trainer::fit_grid`]) — and
//!    mean per-class validation accuracy per grid point. Fully deterministic
//!    for a fixed seed.
//!
//! [`crate::pipeline::Pipeline`] chains the two: cross-validate on trainval,
//! refit the trainer at the winning point, report GZSL numbers.
//!
//! Every entry point is one function taking `&dyn FeatureSource`: a
//! materialized [`crate::data::Dataset`] lends its matrices as single borrowed chunks, a
//! [`crate::data::StreamingBundle`] reads features chunk-at-a-time from disk
//! with peak feature memory `O(chunk_rows x feature_dim)`, and a
//! [`crate::source::MemorySource`] wraps bare matrices. Because every source
//! flows through the same fold/score/count code path — integral accuracy
//! counting, ascending-row Gram folds — reports are **bit-identical** across
//! sources and chunk sizes, which `tests/streaming_equiv.rs` pins.
//!
//! The sweep is also generic over the **model family**: [`cross_validate`]
//! takes any [`Trainer`] (`&dyn` — ESZSL, SAE, kernelized ESZSL, or a custom
//! impl) and drives the identical fold/score/count protocol through
//! [`Trainer::fit_grid`]. The trainer owns its preprocessing, so feature and
//! signature normalization are set on it, never on the [`CrossValConfig`]
//! (`tests/trainer_equiv.rs` pins every family).

use crate::data::Rng;
use crate::error::ZslError;
use crate::infer::{harmonic_mean, mean_defined, ClassAccuracyCounter, ScoringEngine, Similarity};
use crate::source::{FeatureSource, SplitKind};
use crate::trainer::{TrainedModel, Trainer};
use std::sync::Arc;

/// Salt XORed into the user seed for the calibrated sweep's *class* shuffle,
/// so the pseudo-unseen rotation is independent of the sample-fold shuffle
/// that shares the seed.
const CALIBRATION_SHUFFLE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Generalized zero-shot evaluation result.
///
/// Accuracies are mean per-class (robust to class imbalance); the harmonic
/// mean is the headline GZSL number. Per-class vectors are indexed by local
/// seen / unseen class id; `None` marks a class with no test samples.
#[derive(Clone, Debug, PartialEq)]
pub struct GzslReport {
    /// Mean per-class accuracy of the seen test split against the union bank.
    pub seen_accuracy: f64,
    /// Mean per-class accuracy of the unseen test split against the union
    /// bank.
    pub unseen_accuracy: f64,
    /// `2·s·u / (s + u)` of the two accuracies above.
    pub harmonic_mean: f64,
    /// Per-class accuracy over seen classes (index = seen class id).
    pub per_class_seen: Vec<Option<f64>>,
    /// Per-class accuracy over unseen classes (index = unseen class id).
    pub per_class_unseen: Vec<Option<f64>>,
}

impl std::fmt::Display for GzslReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "GZSL seen accuracy   : {:.4}", self.seen_accuracy)?;
        writeln!(f, "GZSL unseen accuracy : {:.4}", self.unseen_accuracy)?;
        write!(f, "GZSL harmonic mean   : {:.4}", self.harmonic_mean)
    }
}

/// Run the generalized ZSL protocol: score both test splits of `source`
/// against the union of seen and unseen signatures and summarize as a
/// [`GzslReport`].
///
/// Unseen truth labels are offset by the seen-class count to index the union
/// bank; a seen sample predicted as any unseen class (or vice versa) counts
/// as an error, exactly as in the reference ESZSL evaluation. The report is
/// **bit-identical** for every source kind, chunk size, and thread count.
pub fn evaluate_gzsl<M>(
    model: &M,
    source: &dyn FeatureSource,
    similarity: Similarity,
) -> Result<GzslReport, ZslError>
where
    M: Clone + Into<TrainedModel>,
{
    // Fallible construction: this driver is reachable from artifact-loaded
    // and daemon-adjacent paths, where a malformed bank must surface as a
    // typed error rather than a panic.
    let engine = ScoringEngine::try_new(model.clone(), source.union_signatures(), similarity)?;
    evaluate_gzsl_with(&engine, source)
}

/// [`evaluate_gzsl`] with an already-built engine — the serving path: an
/// engine reloaded from a `.zsm` artifact ([`ScoringEngine::load`]) evaluates
/// a source without ever touching training data or re-solving the closed
/// form.
///
/// The engine's bank must be the source's union bank (seen then unseen, rank
/// order): the check is bit-exact — the source's union signatures, prepared
/// the way the engine prepares its bank (L2-normalized for cosine), must
/// equal the engine's cached bank. This catches not just class-count
/// mismatches but also a *different seen/unseen partition with the same
/// total*, which would silently misattribute every per-class accuracy. A
/// mismatch, like a feature-width mismatch between the source's chunks and
/// the engine's projection, is a typed [`ZslError::Config`] — serving inputs
/// never panic.
pub fn evaluate_gzsl_with(
    engine: &ScoringEngine,
    source: &dyn FeatureSource,
) -> Result<GzslReport, ZslError> {
    let num_seen = source.num_seen_classes();
    let num_unseen = source.num_unseen_classes();
    let total = num_seen + num_unseen;
    if engine.num_classes() != total {
        return Err(ZslError::Config(format!(
            "engine scores {} classes but the source has {num_seen} seen + {num_unseen} unseen; \
             the engine must be built over the source's union signature bank",
            engine.num_classes()
        )));
    }
    // A calibrated engine penalizes its seen-class *prefix* at scoring time;
    // that prefix must be exactly the source's seen block or the stacking
    // penalty lands on the wrong classes in every report row.
    if let Some((gamma_cal, seen)) = engine.seen_calibration() {
        if seen != num_seen {
            return Err(ZslError::Config(format!(
                "engine's calibration (gamma_cal={gamma_cal}) penalizes a {seen}-class seen \
                 prefix but the source has {num_seen} seen classes"
            )));
        }
    }
    let mut expected_bank = source.union_signatures();
    if engine.similarity() == Similarity::Cosine {
        expected_bank.l2_normalize_rows();
    }
    if expected_bank.as_slice() != engine.signatures().as_slice() {
        return Err(ZslError::Config(format!(
            "engine signature bank does not match the source's union bank \
             ({num_seen} seen + {num_unseen} unseen classes): the model was built over \
             different class signatures or a different seen/unseen partition"
        )));
    }

    let mut counter = ClassAccuracyCounter::new(total);
    for chunk in source.stream(SplitKind::TestSeen)? {
        let (x, labels) = chunk?;
        engine.check_feature_width(x.cols())?;
        counter.observe(&engine.predict(&x), &labels);
    }
    for chunk in source.stream(SplitKind::TestUnseen)? {
        let (x, labels) = chunk?;
        engine.check_feature_width(x.cols())?;
        // Unseen truth indexes the union bank after the seen block.
        let truth: Vec<usize> = labels.iter().map(|&l| l + num_seen).collect();
        counter.observe(&engine.predict(&x), &truth);
    }

    let per_class = counter.per_class();
    let per_class_seen = per_class[..num_seen].to_vec();
    let per_class_unseen = per_class[num_seen..].to_vec();
    let seen_accuracy = mean_defined(&per_class_seen);
    let unseen_accuracy = mean_defined(&per_class_unseen);
    Ok(GzslReport {
        seen_accuracy,
        unseen_accuracy,
        harmonic_mean: harmonic_mean(seen_accuracy, unseen_accuracy),
        per_class_seen,
        per_class_unseen,
    })
}

/// Builder-style configuration for [`cross_validate`].
#[derive(Clone, Debug)]
pub struct CrossValConfig {
    /// Candidate feature-space regularizers γ.
    pub gammas: Vec<f64>,
    /// Candidate attribute-space regularizers λ.
    pub lambdas: Vec<f64>,
    /// Number of folds `k`; each fold is held out once.
    pub folds: usize,
    /// Seed of the fold-assignment shuffle; fully determines the result.
    pub seed: u64,
    /// Similarity used for validation scoring.
    pub similarity: Similarity,
    /// Must be `false`: normalization is set on the trainer (e.g.
    /// [`crate::model::EszslConfig::normalize_features`]), which applies it
    /// to the sweep and the final fit alike. [`cross_validate`] rejects
    /// `true` with [`ZslError::Config`].
    pub normalize_features: bool,
    /// Must be `false`, like [`CrossValConfig::normalize_features`].
    pub normalize_signatures: bool,
    /// Candidate calibrated-stacking penalties `γ_cal` (the seen-class score
    /// penalty applied at scoring time; see
    /// [`ScoringEngine::with_calibration`]).
    ///
    /// The default `[0.0]` keeps the sweep exactly what it always was — a
    /// plain `(γ, λ)` accuracy sweep, bit-identical to every pre-calibration
    /// release. Supplying any non-zero candidate switches the sweep to the
    /// *pseudo-unseen* protocol: per fold, a seeded rotation holds out a
    /// subset of seen **classes** (not just samples) from training, every
    /// `(γ, λ)` model is scored at every `γ_cal` with the still-trained
    /// classes penalized, and the fold metric becomes the harmonic mean of
    /// pseudo-seen and pseudo-unseen per-class accuracy — the GZSL quantity
    /// the calibration exists to improve.
    pub calibrations: Vec<f64>,
}

impl Default for CrossValConfig {
    /// Powers-of-ten grid `10⁻³..10³` for both regularizers (the standard
    /// ESZSL search space), 3 folds, cosine similarity.
    fn default() -> Self {
        let decades: Vec<f64> = (-3..=3).map(|e| 10f64.powi(e)).collect();
        CrossValConfig {
            gammas: decades.clone(),
            lambdas: decades,
            folds: 3,
            seed: 0x5EED,
            similarity: Similarity::Cosine,
            normalize_features: false,
            normalize_signatures: false,
            calibrations: vec![0.0],
        }
    }
}

impl CrossValConfig {
    /// Start from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the γ candidates.
    pub fn gammas(mut self, gammas: Vec<f64>) -> Self {
        self.gammas = gammas;
        self
    }

    /// Set the λ candidates.
    pub fn lambdas(mut self, lambdas: Vec<f64>) -> Self {
        self.lambdas = lambdas;
        self
    }

    /// Set the fold count (must be ≥ 2).
    pub fn folds(mut self, folds: usize) -> Self {
        self.folds = folds;
        self
    }

    /// Set the shuffle seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the validation similarity.
    pub fn similarity(mut self, similarity: Similarity) -> Self {
        self.similarity = similarity;
        self
    }

    /// Set the `γ_cal` calibration candidates. `vec![0.0]` (the default)
    /// disables the calibration axis entirely; see
    /// [`CrossValConfig::calibrations`] for what a non-trivial grid changes.
    pub fn calibrations(mut self, calibrations: Vec<f64>) -> Self {
        self.calibrations = calibrations;
        self
    }
}

/// One `(γ, λ)` grid point's cross-validation outcome.
///
/// For trainers with fewer hyperparameters the unused axis holds the
/// placeholder the trainer's [`Trainer::grid_points`] recorded (SAE stores
/// `γ = 0`).
#[derive(Clone, Debug, PartialEq)]
pub struct GridPoint {
    /// Feature-space regularizer.
    pub gamma: f64,
    /// Attribute-space regularizer.
    pub lambda: f64,
    /// Calibrated-stacking penalty `γ_cal` this point was scored at (0 when
    /// the calibration axis is disabled).
    pub calibration: f64,
    /// Validation metric, averaged over folds: mean per-class accuracy on
    /// the plain sweep, pseudo-GZSL harmonic mean on a calibrated sweep.
    pub mean_accuracy: f64,
    /// Per-fold validation metrics (length = fold count).
    pub fold_accuracies: Vec<f64>,
}

/// Full cross-validation outcome: the winning grid point plus the whole grid
/// in sweep order (γ outer, λ inner).
#[derive(Clone, Debug, PartialEq)]
pub struct CrossValReport {
    /// The grid point with the highest mean accuracy (earliest wins ties).
    pub best: GridPoint,
    /// Every grid point, in sweep order.
    pub grid: Vec<GridPoint>,
    /// Fold count used.
    pub folds: usize,
}

/// Seeded k-fold cross-validated sweep of `trainer`'s `(γ, λ)` grid over the
/// trainval split of any [`FeatureSource`].
///
/// Sample positions are shuffled once with [`Rng`] (Fisher–Yates, seeded by
/// `config.seed`) and cut into `k` contiguous folds, balanced to within one
/// sample. Per fold, [`Trainer::fit_grid`] pays the trainer's sufficient
/// statistics once and solves every grid point; the held-out fold's rows
/// then stream ONCE past *all* grid-point engines, scored against the
/// seen-class bank and summarized as mean per-class accuracy. Identical
/// configuration + seed + trainer ⇒ identical report, regardless of source
/// kind, chunk size, or thread count.
///
/// The trainer owns its preprocessing: a config with
/// [`CrossValConfig::normalize_features`] or
/// [`CrossValConfig::normalize_signatures`] set is a typed
/// [`ZslError::Config`]. To sweep bare matrices, wrap them in a
/// [`crate::source::MemorySource`].
pub fn cross_validate(
    trainer: &dyn Trainer,
    source: &dyn FeatureSource,
    config: &CrossValConfig,
) -> Result<CrossValReport, ZslError> {
    if config.normalize_features || config.normalize_signatures {
        return Err(ZslError::Config(format!(
            "the CrossValConfig enables normalization, but the {} trainer owns its \
             preprocessing; set normalization on the trainer, which applies it to the sweep \
             and the final fit alike",
            trainer.family()
        )));
    }
    let n = source.trainval_len();
    validate_cv_shape(config, n)?;
    let points = trainer.grid_points(&config.gammas, &config.lambdas);
    if points.is_empty() {
        return Err(ZslError::Config(format!(
            "trainer '{}' mapped the configured grids to zero sweep points",
            trainer.describe()
        )));
    }
    // `[0.0]` (the default) means "no calibration axis": the code below must
    // then be — and is — the byte-for-byte pre-calibration sweep, so every
    // existing report stays bit-identical.
    let calibrated = config.calibrations.len() > 1 || config.calibrations[0] != 0.0;
    let triples: Vec<(f64, f64, f64)> = points
        .iter()
        .flat_map(|&(g, l)| config.calibrations.iter().map(move |&c| (g, l, c)))
        .collect();

    let signatures = source.seen_signatures().into_owned();
    let z = signatures.rows();
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(config.seed).shuffle(&mut order);

    // The calibrated sweep rotates pseudo-unseen CLASSES through the folds:
    // a seeded shuffle (independent of the sample shuffle) assigns each seen
    // class to the one fold where it plays "unseen" — dropped from training,
    // unpenalized at scoring — while the remaining classes play "seen" and
    // take the γ_cal penalty, miniaturizing the GZSL bias the calibration
    // exists to correct. Sample labels are gathered once, in stream order,
    // to exclude pseudo-unseen-labeled rows from each fold's training set.
    let (class_fold, trainval_labels) = if calibrated {
        if z < config.folds {
            return Err(ZslError::Config(format!(
                "calibrated cross-validation rotates pseudo-unseen classes through the folds \
                 and needs at least as many seen classes as folds; got {z} classes for {} folds",
                config.folds
            )));
        }
        let mut class_order: Vec<usize> = (0..z).collect();
        Rng::new(config.seed ^ CALIBRATION_SHUFFLE_SALT).shuffle(&mut class_order);
        let mut class_fold = vec![0usize; z];
        for (p, &c) in class_order.iter().enumerate() {
            class_fold[c] = p % config.folds;
        }
        let mut labels = Vec::with_capacity(n);
        for chunk in source.stream(SplitKind::Trainval)? {
            let (_x, chunk_labels) = chunk?;
            labels.extend_from_slice(&chunk_labels);
        }
        if labels.len() != n {
            return Err(ZslError::Config(format!(
                "source streamed {} trainval labels but reports trainval_len {n}",
                labels.len()
            )));
        }
        (class_fold, labels)
    } else {
        (Vec::new(), Vec::new())
    };

    let mut fold_accuracies = vec![Vec::with_capacity(config.folds); triples.len()];

    for fold in 0..config.folds {
        // Contiguous slice of the shuffled order; balanced to within one
        // sample.
        let lo = fold * n / config.folds;
        let hi = (fold + 1) * n / config.folds;
        let val_idx = &order[lo..hi];
        let train_idx: Vec<usize> = if calibrated {
            order[..lo]
                .iter()
                .chain(&order[hi..])
                .copied()
                .filter(|&i| class_fold[trainval_labels[i]] != fold)
                .collect()
        } else {
            order[..lo].iter().chain(&order[hi..]).copied().collect()
        };

        // The trainer pays its sufficient statistics once per fold and solves
        // every grid point up front; the fold's validation rows then stream
        // ONCE past all engines — on a calibrated sweep, one engine per
        // `(γ, λ) × γ_cal` sharing the fitted model.
        let models = trainer.fit_grid(source, &train_idx, &points)?;
        let mask = calibrated.then(|| {
            // Penalize the classes still trained on this fold (pseudo-seen).
            Arc::new((0..z).map(|c| class_fold[c] != fold).collect::<Vec<bool>>())
        });
        let mut engines = Vec::with_capacity(triples.len());
        let mut counters = Vec::with_capacity(triples.len());
        for model in models {
            for &gamma_cal in &config.calibrations {
                let engine =
                    ScoringEngine::try_new(model.clone(), signatures.clone(), config.similarity)?;
                let engine = match &mask {
                    Some(mask) => engine.with_calibration_mask(gamma_cal, Arc::clone(mask)),
                    None => engine,
                };
                engines.push(engine);
                counters.push(ClassAccuracyCounter::new(z));
            }
        }
        for chunk in source.stream_trainval_subset(val_idx)? {
            let (x, labels) = chunk?;
            for (engine, counter) in engines.iter().zip(&mut counters) {
                counter.observe(&engine.predict(&x), &labels);
            }
        }
        for (point, counter) in counters.iter().enumerate() {
            if calibrated {
                // The fold metric mirrors the GZSL headline number: harmonic
                // mean of pseudo-seen and pseudo-unseen per-class accuracy.
                let per_class = counter.per_class();
                let mut pseudo_seen = Vec::new();
                let mut pseudo_unseen = Vec::new();
                for (c, acc) in per_class.iter().enumerate() {
                    if class_fold[c] == fold {
                        pseudo_unseen.push(*acc);
                    } else {
                        pseudo_seen.push(*acc);
                    }
                }
                fold_accuracies[point].push(harmonic_mean(
                    mean_defined(&pseudo_seen),
                    mean_defined(&pseudo_unseen),
                ));
            } else {
                fold_accuracies[point].push(counter.mean());
            }
        }
    }

    Ok(assemble_cross_val_report(
        &triples,
        config.folds,
        fold_accuracies,
    ))
}

/// Shared configuration checks for the cross-validation sweep.
fn validate_cv_shape(config: &CrossValConfig, n: usize) -> Result<(), ZslError> {
    if config.folds < 2 {
        return Err(ZslError::Config(format!(
            "need at least 2 folds, got {}",
            config.folds
        )));
    }
    if n < config.folds {
        return Err(ZslError::Config(format!(
            "{n} samples cannot be split into {} folds",
            config.folds
        )));
    }
    if config.gammas.is_empty() || config.lambdas.is_empty() {
        return Err(ZslError::Config(
            "gamma and lambda grids must be non-empty".into(),
        ));
    }
    if config.calibrations.is_empty() {
        return Err(ZslError::Config(
            "calibration grid must be non-empty (use [0.0] to disable the axis)".into(),
        ));
    }
    if let Some(&bad) = config
        .calibrations
        .iter()
        .find(|c| !c.is_finite() || **c < 0.0)
    {
        return Err(ZslError::Config(format!(
            "calibration penalties must be finite and >= 0, got {bad}"
        )));
    }
    Ok(())
}

/// Assemble the grid + winner from per-point fold accuracies. One code path
/// for every source kind keeps reports bit-identical (same summation order,
/// same tie-break).
fn assemble_cross_val_report(
    points: &[(f64, f64, f64)],
    fold_count: usize,
    mut fold_accuracies: Vec<Vec<f64>>,
) -> CrossValReport {
    let mut grid = Vec::with_capacity(fold_accuracies.len());
    for (point, &(gamma, lambda, calibration)) in points.iter().enumerate() {
        let folds = std::mem::take(&mut fold_accuracies[point]);
        let mean_accuracy = folds.iter().sum::<f64>() / folds.len() as f64;
        grid.push(GridPoint {
            gamma,
            lambda,
            calibration,
            mean_accuracy,
            fold_accuracies: folds,
        });
    }
    let best = grid
        .iter()
        .reduce(|best, candidate| {
            // Strictly-greater keeps the earliest grid point on ties, making
            // selection deterministic and independent of float noise order.
            if candidate
                .mean_accuracy
                .total_cmp(&best.mean_accuracy)
                .is_gt()
            {
                candidate
            } else {
                best
            }
        })
        .expect("grid is non-empty")
        .clone();
    CrossValReport {
        best,
        grid,
        folds: fold_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticConfig};
    use crate::model::{EszslConfig, EszslTrainer, ProjectionModel, TrainError};
    use crate::pipeline::Pipeline;
    use crate::source::MemorySource;
    use crate::trainer::{KernelEszslConfig, SaeConfig};

    fn trained_dataset() -> (ProjectionModel, Dataset) {
        let ds = SyntheticConfig::new().seed(99).build();
        let model = EszslConfig::new().build().fit(&ds).expect("fit");
        (model, ds)
    }

    #[test]
    fn gzsl_report_matches_hand_rolled_protocol() {
        let (model, ds) = trained_dataset();
        let report = evaluate_gzsl(&model, &ds, Similarity::Cosine).expect("evaluate");
        assert!(report.harmonic_mean >= 0.9, "hm {}", report.harmonic_mean);
        assert_eq!(report.per_class_seen.len(), ds.seen_signatures.rows());
        assert_eq!(report.per_class_unseen.len(), ds.unseen_signatures.rows());
        assert!(report.per_class_seen.iter().all(|a| a.is_some()));
        // The report must equal the manual union-bank computation.
        let engine = ScoringEngine::try_new(model.clone(), ds.all_signatures(), Similarity::Cosine)
            .expect("engine");
        let num_seen = ds.seen_signatures.rows();
        let mut seen = ClassAccuracyCounter::new(ds.num_classes());
        seen.observe(&engine.predict(&ds.test_seen_x), &ds.test_seen_labels);
        let manual_seen = mean_defined(&seen.per_class()[..num_seen]);
        assert_eq!(report.seen_accuracy, manual_seen);
        assert_eq!(
            report.harmonic_mean,
            harmonic_mean(report.seen_accuracy, report.unseen_accuracy)
        );
        // The engine-level entry produces the identical report.
        let with_engine = evaluate_gzsl_with(&engine, &ds).expect("evaluate_with");
        assert_eq!(with_engine, report);
    }

    #[test]
    fn evaluate_with_rejects_a_mismatched_engine_bank() {
        let (model, ds) = trained_dataset();
        // Seen-only bank cannot score the GZSL union protocol.
        let engine = ScoringEngine::try_new(
            model.clone(),
            ds.seen_signatures.clone(),
            Similarity::Cosine,
        )
        .expect("engine");
        assert!(matches!(
            evaluate_gzsl_with(&engine, &ds),
            Err(ZslError::Config(msg)) if msg.contains("union")
        ));
        // Same TOTAL class count but a different seen/unseen partition (the
        // bank rows come in a different order) must also be rejected — a
        // count-only gate would silently misattribute every accuracy.
        let mut rotated = Vec::new();
        let union = ds.all_signatures();
        for r in 1..union.rows() {
            rotated.push(union.row(r).to_vec());
        }
        rotated.push(union.row(0).to_vec());
        let wrong_partition = crate::linalg::Matrix::from_rows(&rotated);
        let engine =
            ScoringEngine::try_new(model, wrong_partition, Similarity::Cosine).expect("engine");
        assert_eq!(engine.num_classes(), ds.num_classes(), "same total");
        assert!(matches!(
            evaluate_gzsl_with(&engine, &ds),
            Err(ZslError::Config(msg)) if msg.contains("partition")
        ));
    }

    #[test]
    fn gzsl_handles_empty_test_splits_without_panicking() {
        let ds = SyntheticConfig::new().classes(20, 5).samples(10, 0).build();
        let model = EszslConfig::new().build().fit(&ds).expect("fit");
        let report = evaluate_gzsl(&model, &ds, Similarity::Cosine).expect("evaluate");
        assert_eq!(report.seen_accuracy, 0.0);
        assert_eq!(report.unseen_accuracy, 0.0);
        assert_eq!(report.harmonic_mean, 0.0);
        assert!(report.per_class_seen.iter().all(|a| a.is_none()));
    }

    #[test]
    fn cross_validation_is_deterministic_for_a_fixed_seed() {
        let ds = SyntheticConfig::new()
            .classes(10, 2)
            .dims(6, 8)
            .samples(8, 2)
            .build();
        let config = CrossValConfig::new()
            .gammas(vec![0.1, 1.0])
            .lambdas(vec![0.1, 1.0])
            .folds(3)
            .seed(404);
        let source = MemorySource::new(&ds.train_x, &ds.train_labels, &ds.seen_signatures);
        let eszsl = EszslTrainer::default();
        let a = cross_validate(&eszsl, &source, &config).expect("cv");
        let b = cross_validate(&eszsl, &source, &config).expect("cv");
        assert_eq!(a, b, "same seed must reproduce the full report");
        assert_eq!(a.grid.len(), 4);
        assert!(a.grid.iter().all(|p| p.fold_accuracies.len() == 3));
        // The Dataset source sweeps the identical trainval split.
        let via_dataset = cross_validate(&eszsl, &ds, &config).expect("cv");
        assert_eq!(via_dataset, a, "MemorySource and Dataset must agree");
        // A different shuffle may (and here does) change fold accuracies.
        let shifted = cross_validate(&eszsl, &source, &config.clone().seed(405)).expect("cv");
        assert_eq!(shifted.grid.len(), a.grid.len());
    }

    #[test]
    fn cross_validation_rejects_bad_configs() {
        let ds = SyntheticConfig::new().classes(5, 1).samples(2, 1).build();
        let base = CrossValConfig::new().gammas(vec![1.0]).lambdas(vec![1.0]);
        let source = MemorySource::new(&ds.train_x, &ds.train_labels, &ds.seen_signatures);
        let eszsl = EszslTrainer::default();
        assert!(matches!(
            cross_validate(&eszsl, &source, &base.clone().folds(1)),
            Err(ZslError::Config(_))
        ));
        assert!(matches!(
            cross_validate(&eszsl, &source, &base.clone().folds(99)),
            Err(ZslError::Config(_))
        ));
        assert!(matches!(
            cross_validate(&eszsl, &source, &base.clone().gammas(vec![])),
            Err(ZslError::Config(_))
        ));
        assert!(matches!(
            cross_validate(&eszsl, &source, &base.gammas(vec![-1.0])),
            Err(ZslError::Train(TrainError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn grid_search_prefers_points_that_score_better() {
        // On clean synthetic data, moderate regularization should beat an
        // absurdly large γ; the sweep must reflect that in its best pick.
        let ds = SyntheticConfig::new().seed(123).build();
        let config = CrossValConfig::new()
            .gammas(vec![1.0, 1e6])
            .lambdas(vec![1.0])
            .folds(3)
            .seed(7);
        let report = cross_validate(&EszslTrainer::default(), &ds, &config).expect("cv");
        assert_eq!(report.best.gamma, 1.0, "grid: {:?}", report.grid);
        assert!(report.best.mean_accuracy > 0.9);
    }

    #[test]
    fn select_train_evaluate_runs_end_to_end() {
        let ds = SyntheticConfig::new().seed(55).build();
        let config = CrossValConfig::new()
            .gammas(vec![0.1, 1.0])
            .lambdas(vec![0.1, 1.0])
            .folds(3);
        let trained = Pipeline::from(&ds)
            .cross_validate(&config)
            .expect("cv")
            .train()
            .expect("train");
        let cv = trained.cv_report().expect("cv report");
        assert!(cv.best.mean_accuracy > 0.9);
        assert!(trained.evaluate().expect("evaluate").harmonic_mean > 0.9);
    }

    #[test]
    fn sweep_normalization_is_a_typed_error_for_every_trainer() {
        // Normalization belongs to the trainer, which applies it to the sweep
        // and the final fit alike; a flag on the sweep config alone would
        // select hyperparameters for a model nobody trains.
        let ds = SyntheticConfig::new().seed(13).build();
        let base = CrossValConfig::new()
            .gammas(vec![1.0])
            .lambdas(vec![1.0])
            .folds(2);
        let trainers: [Box<dyn Trainer>; 3] = [
            Box::new(EszslTrainer::default()),
            Box::new(SaeConfig::new().build()),
            Box::new(KernelEszslConfig::new().build()),
        ];
        for trainer in &trainers {
            cross_validate(trainer.as_ref(), &ds, &base).expect("the plain sweep runs");
            for (features, signatures) in [(true, false), (false, true), (true, true)] {
                let mut config = base.clone();
                config.normalize_features = features;
                config.normalize_signatures = signatures;
                let err = cross_validate(trainer.as_ref(), &ds, &config).unwrap_err();
                assert!(
                    matches!(&err, ZslError::Config(msg) if msg.contains("normalization")),
                    "{} features={features} signatures={signatures}: got {err:?}",
                    trainer.family()
                );
            }
        }
    }
}
