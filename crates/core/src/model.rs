//! Closed-form training for linear zero-shot models.
//!
//! The central object is the ESZSL-style bilinear compatibility model: with
//! features `X : n x d` (row per sample), one-hot labels `Y : n x z`, and
//! seen-class signatures `S : z x a` (row per class), the trainer solves
//!
//! ```text
//! W = (Xᵀ X + γ I_d)⁻¹ · Xᵀ Y S · (Sᵀ S + λ I_a)⁻¹      (W : d x a)
//! ```
//!
//! which minimizes `‖X W Sᵀ − Y‖_F² + γ‖W Sᵀ‖-style` ridge objectives in one
//! pair of SPD solves — no iterative optimization.
//!
//! The closed form only ever touches the data through `XᵀX` and `XᵀYS`, so
//! training does not need `X` in memory: [`GramAccumulator`] folds row chunks
//! into those products and is the **single** Gram implementation behind
//! [`EszslProblem::from_source`] and [`EszslTrainer::fit`] over any
//! [`crate::source::FeatureSource`] — an in-memory dataset, a disk stream,
//! or bare matrices in a [`crate::source::MemorySource`] — all
//! **bit-identical** for every source kind and chunk size.

use crate::error::ZslError;
use crate::linalg::{Cholesky, LinalgError, Matrix};
use crate::source::{FeatureSource, SplitKind};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

/// Errors from model training.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Feature matrix, label list, or signature matrix shapes disagree.
    Shape(String),
    /// A label referred to a class with no signature row.
    LabelOutOfRange { label: usize, num_classes: usize },
    /// A regularizer was zero, negative, or non-finite.
    InvalidConfig(String),
    /// The regularized Gram matrix could not be factored; increase the
    /// regularizer.
    Solver(LinalgError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Shape(msg) => write!(f, "shape error: {msg}"),
            TrainError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            TrainError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            TrainError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for TrainError {
    fn from(e: LinalgError) -> Self {
        TrainError::Solver(e)
    }
}

/// A trained linear feature→attribute projection `W : d x a`.
///
/// Both trainers produce this; the classifier in [`crate::infer`] consumes it.
#[derive(Clone, Debug)]
pub struct ProjectionModel {
    w: Matrix,
}

impl ProjectionModel {
    /// Wrap an externally computed projection.
    pub fn from_weights(w: Matrix) -> Self {
        ProjectionModel { w }
    }

    /// The projection matrix `W : feature_dim x attr_dim`.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Unwrap into the projection matrix, avoiding a copy.
    pub fn into_weights(self) -> Matrix {
        self.w
    }
}

/// Builder-style configuration for [`EszslTrainer`].
#[derive(Clone, Debug)]
pub struct EszslConfig {
    /// Feature-space regularizer γ added to `Xᵀ X`.
    pub gamma: f64,
    /// Attribute-space regularizer λ added to `Sᵀ S`.
    pub lambda: f64,
    /// L2-normalize feature rows before training.
    pub normalize_features: bool,
    /// L2-normalize signature rows before training.
    pub normalize_signatures: bool,
}

impl Default for EszslConfig {
    fn default() -> Self {
        EszslConfig {
            gamma: 1.0,
            lambda: 1.0,
            normalize_features: false,
            normalize_signatures: false,
        }
    }
}

impl EszslConfig {
    /// Start from the defaults (γ = λ = 1, no normalization).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the feature-space regularizer γ. Must be positive to keep
    /// `Xᵀ X + γI` positive-definite; enforced at train time
    /// ([`TrainError::InvalidConfig`]).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Set the attribute-space regularizer λ. Must be positive to keep
    /// `Sᵀ S + λI` positive-definite; enforced at train time
    /// ([`TrainError::InvalidConfig`]).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Toggle L2 normalization of feature rows.
    pub fn normalize_features(mut self, on: bool) -> Self {
        self.normalize_features = on;
        self
    }

    /// Toggle L2 normalization of signature rows.
    pub fn normalize_signatures(mut self, on: bool) -> Self {
        self.normalize_signatures = on;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> EszslTrainer {
        EszslTrainer { config: self }
    }
}

/// Streaming Gram accumulator: folds `(features, labels)` chunks into the
/// `XᵀX` and `XᵀYS` products the ESZSL closed form needs, so a model can be
/// trained from a dataset that never exists in memory at once.
///
/// Peak memory is `O(d² + d·a + chunk)` — independent of the number of
/// samples. Because [`crate::linalg::Matrix::add_transposed_product`] (and
/// the symmetric `XᵀX` fold, which accumulates the upper block triangle and
/// mirrors it) adds into each Gram element in ascending sample order,
/// folding consecutive row chunks performs the *identical* floating-point
/// operation sequence as one fold of the concatenated matrix: the finished
/// problem (and every model solved from it) is **bit-identical** to the
/// in-memory path for every chunk size. The differential suite in
/// `tests/streaming_equiv.rs` and a golden digest in
/// `tests/golden_loader.rs` pin this.
///
/// ```
/// use zsl_core::data::SyntheticConfig;
/// use zsl_core::model::{EszslProblem, GramAccumulator};
///
/// let ds = SyntheticConfig::new().seed(3).build();
/// let mut acc = GramAccumulator::new(&ds.seen_signatures);
/// // Feed the training set in arbitrary-size row chunks...
/// for start in (0..ds.train_x.rows()).step_by(7) {
///     let end = (start + 7).min(ds.train_x.rows());
///     acc.fold(&ds.train_x.row_block(start..end), &ds.train_labels[start..end])
///         .unwrap();
/// }
/// let streamed = acc.finish().unwrap();
/// // The dataset lends its whole trainval split as one chunk.
/// let in_memory = EszslProblem::from_source(&ds, false, false).unwrap();
/// assert_eq!(streamed.xtx().as_slice(), in_memory.xtx().as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct GramAccumulator {
    /// Prepared (optionally L2-normalized) seen-class signature bank, held by
    /// the accumulator so every chunk gathers from the same rows.
    signatures: Matrix,
    normalize_features: bool,
    /// Lazily sized on the first non-empty chunk: a [`FeatureSource`] does
    /// not expose its feature width, so the first chunk tells it.
    xtx: Option<Matrix>,
    xtys: Option<Matrix>,
    /// Per-class row counts, folded alongside the Grams. Integer counting is
    /// order-independent, so these are chunk-size-invariant for free; the SAE
    /// trainer turns them into `(YS)ᵀ(YS) = Sᵀ diag(counts) S` without a
    /// second data pass.
    class_counts: Vec<f64>,
    rows: usize,
}

impl GramAccumulator {
    /// Accumulator over raw (unnormalized) inputs.
    pub fn new(signatures: &Matrix) -> Self {
        Self::with_normalization(signatures, false, false)
    }

    /// Accumulator with optional L2 row normalization of features (applied
    /// per chunk — row normalization is row-local, so this matches
    /// normalizing the whole matrix) and/or signatures (applied once, here).
    pub fn with_normalization(
        signatures: &Matrix,
        normalize_features: bool,
        normalize_signatures: bool,
    ) -> Self {
        let mut signatures = signatures.clone();
        if normalize_signatures {
            signatures.l2_normalize_rows();
        }
        let class_counts = vec![0.0; signatures.rows()];
        GramAccumulator {
            signatures,
            normalize_features,
            xtx: None,
            xtys: None,
            class_counts,
            rows: 0,
        }
    }

    /// Samples folded so far.
    pub fn rows_folded(&self) -> usize {
        self.rows
    }

    /// Feature dimension, once the first non-empty chunk fixed it.
    pub fn feature_dim(&self) -> Option<usize> {
        self.xtx.as_ref().map(Matrix::rows)
    }

    /// Attribute dimension of the signature bank.
    pub fn attr_dim(&self) -> usize {
        self.signatures.cols()
    }

    /// The prepared (possibly L2-normalized) signature bank every chunk
    /// gathers from.
    pub fn signatures(&self) -> &Matrix {
        &self.signatures
    }

    /// Per-class row counts folded so far (length = signature rows). `f64`
    /// because consumers use them as diagonal weights — e.g. the SAE trainer's
    /// `Sᵀ diag(counts) S` Gram.
    pub fn class_counts(&self) -> &[f64] {
        &self.class_counts
    }

    /// Fold one chunk of training rows and their labels (indices into the
    /// signature bank's rows) into the accumulators.
    ///
    /// Validation happens *before* any accumulation, so a rejected chunk
    /// never leaves a partially folded state behind.
    pub fn fold(&mut self, x: &Matrix, labels: &[usize]) -> Result<(), TrainError> {
        if x.rows() != labels.len() {
            return Err(TrainError::Shape(format!(
                "{} feature rows but {} labels",
                x.rows(),
                labels.len()
            )));
        }
        let z = self.signatures.rows();
        if let Some(&bad) = labels.iter().find(|&&l| l >= z) {
            return Err(TrainError::LabelOutOfRange {
                label: bad,
                num_classes: z,
            });
        }
        if let Some(xtx) = &self.xtx {
            if x.cols() != xtx.rows() {
                return Err(TrainError::Shape(format!(
                    "chunk has {} feature columns but earlier chunks had {}",
                    x.cols(),
                    xtx.rows()
                )));
            }
        }
        if x.rows() == 0 {
            return Ok(());
        }
        let (xtx, xtys) = match (&mut self.xtx, &mut self.xtys) {
            (Some(xtx), Some(xtys)) => (xtx, xtys),
            _ => {
                self.xtx = Some(Matrix::zeros(x.cols(), x.cols()));
                self.xtys = Some(Matrix::zeros(x.cols(), self.signatures.cols()));
                (
                    self.xtx.as_mut().expect("just set"),
                    self.xtys.as_mut().expect("just set"),
                )
            }
        };

        let x = if self.normalize_features {
            let mut x = x.clone();
            x.l2_normalize_rows();
            Cow::Owned(x)
        } else {
            Cow::Borrowed(x)
        };
        let ys = gather_signatures(labels, &self.signatures);
        xtx.add_gram(&x);
        xtys.add_transposed_product(&x, &ys);
        for &label in labels {
            self.class_counts[label] += 1.0;
        }
        self.rows += x.rows();
        Ok(())
    }

    /// Finish the fold: compute `SᵀS` and hand back a regular
    /// [`EszslProblem`], ready to [`EszslProblem::solve`] for any `(γ, λ)`.
    /// An accumulator that never saw a sample is an error, matching the
    /// in-memory trainer's empty-training-set rejection.
    pub fn finish(self) -> Result<EszslProblem, TrainError> {
        let (Some(xtx), Some(xtys)) = (self.xtx, self.xtys) else {
            return Err(TrainError::Shape("empty training set".into()));
        };
        let sts = self.signatures.transpose().matmul(&self.signatures);
        Ok(EszslProblem { xtx, xtys, sts })
    }
}

/// Closed-form ESZSL-style trainer. See the module docs for the formulation.
#[derive(Clone, Debug, Default)]
pub struct EszslTrainer {
    config: EszslConfig,
}

impl EszslTrainer {
    /// Trainer with an explicit configuration.
    pub fn new(config: EszslConfig) -> Self {
        EszslTrainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EszslConfig {
        &self.config
    }

    /// The one ESZSL training entry point: fit on the trainval split of any
    /// [`FeatureSource`] — a materialized [`crate::data::Dataset`], a disk
    /// [`crate::data::StreamingBundle`], or a bare
    /// [`crate::source::MemorySource`] (for features, labels and signatures
    /// held as bare matrices) — with this trainer's configuration.
    ///
    /// Every source flows through the same [`GramAccumulator`] fold, so the
    /// trained weights are **bit-identical** across sources and chunk sizes.
    pub fn fit(&self, source: &dyn FeatureSource) -> Result<ProjectionModel, ZslError> {
        validate_regularizer("gamma", self.config.gamma)?;
        validate_regularizer("lambda", self.config.lambda)?;
        let problem = EszslProblem::from_source(
            source,
            self.config.normalize_features,
            self.config.normalize_signatures,
        )?;
        Ok(problem.solve(self.config.gamma, self.config.lambda)?)
    }
}

/// Precomputed Gram matrices of one ESZSL training problem, independent of
/// the regularizers.
///
/// The closed form factors as `W = (XᵀX + γI)⁻¹ · XᵀYS · (SᵀS + λI)⁻¹`:
/// everything except the two `+ γI` / `+ λI` shifts depends only on the data,
/// the left solve depends on γ alone and the right factor on λ alone.
/// Building the problem once and calling [`EszslProblem::solve_grid`] on a
/// hyperparameter grid (e.g. the k-fold cross-validation in [`crate::eval`])
/// costs `O(n·d² + |γ|·d³ + grid·a²·d)` instead of `O(grid · n·d²)`: the
/// `XᵀX` / `XᵀYS` products are paid once per fold, the `d x d` factorization
/// once per distinct γ, and only the `a x a` right solve once per grid point.
///
/// [`EszslProblem::solve`] is the one-point grid and [`EszslTrainer::fit`]
/// calls it, so every path performs the identical floating-point operation
/// sequence and results are bit-identical to the one-shot path (the golden
/// tests pin this).
#[derive(Clone, Debug)]
pub struct EszslProblem {
    /// `Xᵀ X : d x d`, unshifted.
    xtx: Matrix,
    /// `Xᵀ Y S : d x a`.
    xtys: Matrix,
    /// `Sᵀ S : a x a`, unshifted.
    sts: Matrix,
}

impl EszslProblem {
    /// The ONE problem constructor: fold the trainval split of any
    /// [`FeatureSource`] into the Gram matrices, chunk by chunk, with
    /// optional L2 row normalization of features and/or signatures (the
    /// [`EszslConfig`] toggles). In-memory sources lend one borrowed chunk
    /// (no copy); streamed sources never materialize their features.
    /// Bit-identical across sources and chunk sizes. To fold a chunk
    /// iterator of your own, drive a [`GramAccumulator`] directly.
    pub fn from_source(
        source: &dyn FeatureSource,
        normalize_features: bool,
        normalize_signatures: bool,
    ) -> Result<Self, ZslError> {
        let signatures = source.seen_signatures();
        let mut acc = GramAccumulator::with_normalization(
            &signatures,
            normalize_features,
            normalize_signatures,
        );
        for chunk in source.stream(SplitKind::Trainval)? {
            let (x, labels) = chunk?;
            acc.fold(&x, &labels)?;
        }
        Ok(acc.finish()?)
    }

    /// Feature dimension `d` of the problem.
    pub fn feature_dim(&self) -> usize {
        self.xtx.rows()
    }

    /// The accumulated `Xᵀ X : d x d` (unshifted).
    pub fn xtx(&self) -> &Matrix {
        &self.xtx
    }

    /// The accumulated `Xᵀ Y S : d x a`.
    pub fn xtys(&self) -> &Matrix {
        &self.xtys
    }

    /// The signature Gram `Sᵀ S : a x a` (unshifted).
    pub fn sts(&self) -> &Matrix {
        &self.sts
    }

    /// Attribute dimension `a` of the problem.
    pub fn attr_dim(&self) -> usize {
        self.sts.rows()
    }

    /// Move the Grams out as `(XᵀX, XᵀYS, SᵀS)`, for trainers that build
    /// their own system from them without a copy.
    pub(crate) fn into_parts(self) -> (Matrix, Matrix, Matrix) {
        (self.xtx, self.xtys, self.sts)
    }

    /// Solve the closed form for one `(γ, λ)` pair: the one-point case of
    /// [`EszslProblem::solve_grid`].
    pub fn solve(&self, gamma: f64, lambda: f64) -> Result<ProjectionModel, TrainError> {
        let mut models = self.solve_grid(&[(gamma, lambda)])?;
        Ok(models.pop().expect("one grid point solves to one model"))
    }

    /// Solve the closed form for every `(γ, λ)` point, returning the models in
    /// input order.
    ///
    /// Every point is validated before any factorization. The left system
    /// `(XᵀX + γI) M = XᵀYS` is factored and solved once per distinct γ (by
    /// bit pattern), keeping only `Mᵀ : a x d`; `SᵀS + λI` is factored once
    /// per distinct λ; each point then runs only its `a x a` right solve
    /// `(SᵀS + λI) Wᵀ = Mᵀ`. Each model is bit-identical to solving its point
    /// alone, and a failing factorization is reported for the first point
    /// that needs it, in input order.
    ///
    /// The factorizations and solves are [`Matrix::cholesky`] and
    /// [`Cholesky::solve_matrix`], which advance independent entries side by
    /// side (under AVX2 where the CPU has it) with each entry's own
    /// floating-point sequence, so the models' bits do not depend on the
    /// host.
    pub fn solve_grid(&self, points: &[(f64, f64)]) -> Result<Vec<ProjectionModel>, TrainError> {
        validate_points(points)?;
        let mut left: HashMap<u64, Matrix> = HashMap::new();
        let mut right: HashMap<u64, Cholesky> = HashMap::new();
        let mut models = Vec::with_capacity(points.len());
        for &(gamma, lambda) in points {
            let mt = cached(&mut left, gamma, || {
                let mut xtx = self.xtx.clone();
                xtx.add_scaled_identity(gamma);
                Ok(xtx.cholesky()?.solve_matrix(&self.xtys)?.transpose())
            })?;
            let sts = cached(&mut right, lambda, || {
                let mut sts = self.sts.clone();
                sts.add_scaled_identity(lambda);
                sts.cholesky()
            })?;
            let wt = sts.solve_matrix(mt)?;
            models.push(ProjectionModel::from_weights(wt.transpose()));
        }
        Ok(models)
    }
}

/// The value `cache` holds for `key`'s bit pattern, made by `make` on first
/// use.
fn cached<V>(
    cache: &mut HashMap<u64, V>,
    key: f64,
    make: impl FnOnce() -> Result<V, LinalgError>,
) -> Result<&V, LinalgError> {
    Ok(match cache.entry(key.to_bits()) {
        Entry::Occupied(entry) => entry.into_mut(),
        Entry::Vacant(entry) => entry.insert(make()?),
    })
}

/// Regularizers must be strictly positive (and finite) to keep the shifted
/// Gram matrices positive-definite; zero or negative values would silently
/// train an un- or anti-regularized model.
pub(crate) fn validate_regularizer(name: &str, value: f64) -> Result<(), TrainError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(TrainError::InvalidConfig(format!(
            "{name} must be a positive finite number, got {value}"
        )));
    }
    Ok(())
}

/// [`validate_regularizer`] over both axes of every `(γ, λ)` grid point, in
/// input order.
pub(crate) fn validate_points(points: &[(f64, f64)]) -> Result<(), TrainError> {
    points.iter().try_for_each(|&(gamma, lambda)| {
        validate_regularizer("gamma", gamma)?;
        validate_regularizer("lambda", lambda)
    })
}

/// `Y S` for one-hot `Y` as a row gather: row `i` of the result is the
/// signature of sample `i`'s class.
fn gather_signatures(labels: &[usize], signatures: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(labels.len(), signatures.cols());
    for (i, &label) in labels.iter().enumerate() {
        out.row_mut(i).copy_from_slice(signatures.row(label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticConfig;
    use crate::source::MemorySource;

    #[test]
    fn increasing_gamma_monotonically_shrinks_w() {
        let ds = SyntheticConfig::new().seed(11).build();
        let mut prev_norm = f64::INFINITY;
        for gamma in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let model = EszslConfig::new()
                .gamma(gamma)
                .lambda(0.1)
                .build()
                .fit(&ds)
                .expect("fit");
            let norm = model.weights().frobenius_norm();
            assert!(
                norm < prev_norm,
                "‖W‖_F did not shrink: gamma={gamma} norm={norm} prev={prev_norm}"
            );
            prev_norm = norm;
        }
    }

    #[test]
    fn trainer_rejects_nonpositive_regularizers() {
        let ds = SyntheticConfig::new().classes(3, 1).build();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let result = EszslConfig::new().gamma(bad).build().fit(&ds);
            assert!(
                matches!(result, Err(ZslError::Train(TrainError::InvalidConfig(_)))),
                "gamma={bad} accepted"
            );
        }
        let result = EszslConfig::new().lambda(-0.5).build().fit(&ds);
        assert!(matches!(
            result,
            Err(ZslError::Train(TrainError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn trainer_rejects_bad_labels_and_shapes() {
        let ds = SyntheticConfig::new().classes(3, 1).build();
        let trainer = EszslConfig::new().build();

        let mut bad_labels = ds.train_labels.clone();
        bad_labels[0] = 99;
        assert!(matches!(
            trainer.fit(&MemorySource::new(
                &ds.train_x,
                &bad_labels,
                &ds.seen_signatures
            )),
            Err(ZslError::Train(TrainError::LabelOutOfRange {
                label: 99,
                ..
            }))
        ));

        // A dataset whose trainval labels fall short of its rows streams a
        // mismatched chunk, which the Gram fold rejects.
        let mut short_labels = ds.clone();
        short_labels.train_labels.truncate(5);
        assert!(matches!(
            trainer.fit(&short_labels),
            Err(ZslError::Train(TrainError::Shape(_)))
        ));
    }

    #[test]
    fn eszsl_weights_shape_matches_feature_by_attr() {
        let ds = SyntheticConfig::new().dims(7, 13).build();
        let model = EszslConfig::new().build().fit(&ds).expect("fit");
        assert_eq!(model.weights().rows(), 13);
        assert_eq!(model.weights().cols(), 7);
        let projected = ds.test_unseen_x.matmul(model.weights());
        assert_eq!(projected.rows(), ds.test_unseen_x.rows());
        assert_eq!(projected.cols(), 7);
    }

    #[test]
    fn eszsl_problem_reuse_matches_one_shot_training_bit_for_bit() {
        let ds = SyntheticConfig::new().seed(21).build();
        let problem = EszslProblem::from_source(&ds, false, false).expect("gram");
        assert_eq!(problem.feature_dim(), ds.train_x.cols());
        assert_eq!(problem.attr_dim(), ds.seen_signatures.cols());
        let points = [(0.1, 0.1), (1.0, 10.0), (100.0, 0.01), (1.0, 0.1)];
        let grid = problem.solve_grid(&points).expect("solve_grid");
        for (&(gamma, lambda), from_grid) in points.iter().zip(&grid) {
            let reused = problem.solve(gamma, lambda).expect("solve");
            let one_shot = EszslConfig::new()
                .gamma(gamma)
                .lambda(lambda)
                .build()
                .fit(&ds)
                .expect("fit");
            for weights in [reused.weights(), from_grid.weights()] {
                assert_eq!(
                    weights.as_slice(),
                    one_shot.weights().as_slice(),
                    "gamma={gamma} lambda={lambda}"
                );
            }
        }
        assert!(matches!(
            problem.solve(0.0, 1.0),
            Err(TrainError::InvalidConfig(_))
        ));
        assert!(matches!(
            problem.solve_grid(&[(1.0, 1.0), (1.0, -1.0)]),
            Err(TrainError::InvalidConfig(_))
        ));
    }

    #[test]
    fn gram_accumulator_matches_in_memory_problem_bit_for_bit() {
        let ds = SyntheticConfig::new().seed(42).build();
        let n = ds.train_x.rows();
        for (nf, ns) in [(false, false), (true, false), (false, true), (true, true)] {
            let reference = EszslProblem::from_source(&ds, nf, ns).expect("in-memory problem");
            for chunk in [1usize, 5, n, n + 9] {
                let mut acc = GramAccumulator::with_normalization(&ds.seen_signatures, nf, ns);
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    acc.fold(
                        &ds.train_x.row_block(start..end),
                        &ds.train_labels[start..end],
                    )
                    .expect("fold");
                    start = end;
                }
                assert_eq!(acc.rows_folded(), n);
                assert_eq!(acc.feature_dim(), Some(ds.train_x.cols()));
                let streamed = acc.finish().expect("finish");
                let label = format!("chunk={chunk} nf={nf} ns={ns}");
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
                // Solved weights are therefore bit-identical too.
                let w_stream = streamed.solve(0.5, 2.0).expect("solve");
                let w_mem = reference.solve(0.5, 2.0).expect("solve");
                assert_eq!(
                    w_stream.weights().as_slice(),
                    w_mem.weights().as_slice(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn gram_accumulator_validates_chunks_and_rejects_empty_finish() {
        let ds = SyntheticConfig::new().classes(5, 1).build();
        let mut acc = GramAccumulator::new(&ds.seen_signatures);
        // Empty accumulator cannot finish — same semantics as training on an
        // empty matrix.
        assert!(matches!(
            GramAccumulator::new(&ds.seen_signatures).finish(),
            Err(TrainError::Shape(_))
        ));
        // Label/length mismatches are rejected *before* any folding.
        assert!(matches!(
            acc.fold(&ds.train_x, &ds.train_labels[..3]),
            Err(TrainError::Shape(_))
        ));
        let bad_labels = vec![99; ds.train_x.rows()];
        assert!(matches!(
            acc.fold(&ds.train_x, &bad_labels),
            Err(TrainError::LabelOutOfRange { label: 99, .. })
        ));
        assert_eq!(acc.rows_folded(), 0, "failed folds must not accumulate");
        // A width change mid-stream is a shape error.
        acc.fold(&ds.train_x, &ds.train_labels).expect("fold");
        let narrow = Matrix::zeros(2, ds.train_x.cols() + 1);
        assert!(matches!(
            acc.fold(&narrow, &[0, 0]),
            Err(TrainError::Shape(_))
        ));
        // Zero-row chunks are a validated no-op.
        acc.fold(&Matrix::zeros(0, ds.train_x.cols()), &[])
            .expect("empty fold");
        assert_eq!(acc.rows_folded(), ds.train_x.rows());
    }

    #[test]
    fn fit_on_a_dataset_source_matches_raw_train_bit_for_bit() {
        let ds = SyntheticConfig::new().seed(31).build();
        for (nf, ns) in [(false, false), (true, true)] {
            let trainer = EszslConfig::new()
                .gamma(0.7)
                .lambda(1.3)
                .normalize_features(nf)
                .normalize_signatures(ns)
                .build();
            // The direct stages on the raw matrices: one Gram fold, one solve.
            let mut acc = GramAccumulator::with_normalization(&ds.seen_signatures, nf, ns);
            acc.fold(&ds.train_x, &ds.train_labels).expect("fold");
            let direct = acc
                .finish()
                .expect("finish")
                .solve(0.7, 1.3)
                .expect("solve");
            let raw = MemorySource::new(&ds.train_x, &ds.train_labels, &ds.seen_signatures);
            for fitted in [trainer.fit(&ds), trainer.fit(&raw)] {
                assert_eq!(
                    fitted.expect("fit").weights().as_slice(),
                    direct.weights().as_slice(),
                    "nf={nf} ns={ns}"
                );
            }
        }
        // Bad regularizers surface as the same typed error through fit.
        let bad = EszslConfig::new().gamma(-1.0).build();
        assert!(matches!(
            bad.fit(&ds),
            Err(ZslError::Train(TrainError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn normalization_toggles_change_the_solution() {
        let ds = SyntheticConfig::new().seed(5).build();
        let plain = EszslConfig::new().build().fit(&ds).unwrap();
        let normalized = EszslConfig::new()
            .normalize_features(true)
            .normalize_signatures(true)
            .build()
            .fit(&ds)
            .unwrap();
        assert!(plain.weights().max_abs_diff(normalized.weights()) > 1e-6);
    }
}
