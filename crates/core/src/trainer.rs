//! The object-safe [`Trainer`] abstraction: every model family fits from any
//! [`FeatureSource`] into a [`TrainedModel`], which the scoring engine,
//! `.zsm` artifacts, and the serving daemon consume without knowing which
//! family produced it.
//!
//! This is the trainer-side counterpart of the PR 5 `FeatureSource`
//! unification: data sources multiplied scenarios for ONE model; the trait
//! here multiplies models across every scenario — cross-validation, GZSL
//! evaluation, `.zsm` persistence, and serving all dispatch through
//! [`Trainer`] / [`TrainedModel`] instead of hardcoding ESZSL.
//!
//! Three families ship:
//!
//! - **ESZSL** ([`crate::model::EszslTrainer`]) — the original closed form
//!   `W = (XᵀX + γI)⁻¹ XᵀYS (SᵀS + λI)⁻¹`.
//! - **SAE** ([`SaeTrainer`]) — the Semantic Autoencoder: tie the encoder and
//!   decoder (`W` and `Wᵀ`) and minimize
//!   `‖X − (YS)Wᵀ‖² + λ‖XW − YS‖²`, whose normal equations are the Sylvester
//!   system `(YS)ᵀ(YS)·W' + W'·λXᵀX = (1+λ)(YS)ᵀX` solved in closed form by
//!   [`crate::linalg::solve_sylvester`] (two symmetric eigendecompositions).
//! - **Kernelized ESZSL** ([`KernelEszslTrainer`]) — ESZSL over the kernel
//!   feature map `Φ(x) = k(x, anchors)` with a linear or RBF Gram
//!   ([`KernelKind`]); the dual weights and the anchor rows together form the
//!   model ([`KernelModel`]), so kernel scoring needs no training data.
//!
//! Every trainer folds its sufficient statistics through the same
//! [`GramAccumulator`] discipline (ascending-row, chunk-at-a-time), so the
//! streaming guarantees are inherited for free: streamed training is
//! **bit-identical** to in-memory at every chunk size, and peak resident
//! feature memory stays `O(chunk_rows x feature_dim)` (the kernel family
//! additionally holds its anchor set — that is the model itself, not a
//! buffering artifact; cap it with
//! [`KernelEszslConfig::max_anchors`]). `tests/trainer_equiv.rs` pins all of
//! this differentially.

use crate::error::ZslError;
use crate::linalg::{
    default_threads, gemm_bt_parallel, gemm_parallel, rbf_gram_parallel, solve_sylvester, Elem,
    Matrix,
};
use crate::model::{
    validate_points, validate_regularizer, EszslProblem, EszslTrainer, GramAccumulator,
    ProjectionModel, TrainError,
};
use crate::source::{FeatureSource, SourceStream, SplitKind};
use std::borrow::Cow;
use std::sync::Arc;

/// Model family tag: which trainer produced a [`TrainedModel`], and how a
/// `.zsm` v2 artifact encodes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelFamily {
    /// Closed-form ESZSL (linear projection).
    Eszsl,
    /// Semantic Autoencoder (linear projection via a Sylvester solve).
    Sae,
    /// Kernelized ESZSL (dual weights over stored anchors).
    KernelEszsl,
}

impl ModelFamily {
    /// Stable text tag, used in artifact metadata and the CLI `--model` flag.
    pub fn tag(self) -> &'static str {
        match self {
            ModelFamily::Eszsl => "eszsl",
            ModelFamily::Sae => "sae",
            ModelFamily::KernelEszsl => "kernel-eszsl",
        }
    }

    /// Byte code stored in the `.zsm` v2 header.
    pub fn code(self) -> u8 {
        match self {
            ModelFamily::Eszsl => 0,
            ModelFamily::Sae => 1,
            ModelFamily::KernelEszsl => 2,
        }
    }

    /// Inverse of [`ModelFamily::code`].
    pub fn from_code(code: u8) -> Option<ModelFamily> {
        match code {
            0 => Some(ModelFamily::Eszsl),
            1 => Some(ModelFamily::Sae),
            2 => Some(ModelFamily::KernelEszsl),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Gram option of the kernelized trainer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelKind {
    /// `k(x, y) = x · y` — the linear Gram.
    Linear,
    /// `k(x, y) = exp(−width · ‖x − y‖²)` — the RBF Gram.
    Rbf {
        /// Inverse-bandwidth factor; must be positive and finite.
        width: f64,
    },
}

impl KernelKind {
    /// Byte code stored in the `.zsm` v2 kernel payload.
    pub fn code(self) -> u8 {
        match self {
            KernelKind::Linear => 0,
            KernelKind::Rbf { .. } => 1,
        }
    }

    /// Inverse of [`KernelKind::code`]; `width` is only read for RBF.
    pub fn from_code(code: u8, width: f64) -> Option<KernelKind> {
        match code {
            0 => Some(KernelKind::Linear),
            1 => Some(KernelKind::Rbf { width }),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelKind::Linear => f.write_str("linear"),
            KernelKind::Rbf { width } => write!(f, "rbf({width})"),
        }
    }
}

/// The kernel feature map `Φ(X) = k(X, anchors) : n x m`.
///
/// Row `i` depends only on row `i` of `x` and the anchor set, so the map is
/// chunk-size-invariant by construction. Both cases honor `threads` through
/// the shared worker pool: the linear case routes through the packed `X·Aᵀ`
/// kernel, and the RBF case is row-banded with a fixed per-row summation
/// order (ascending anchor, then ascending feature), so every thread count
/// produces bit-identical Grams.
pub(crate) fn kernel_map(
    x: &Matrix,
    anchors: &Matrix,
    kernel: KernelKind,
    threads: usize,
) -> Matrix {
    assert_eq!(
        x.cols(),
        anchors.cols(),
        "kernel map shape mismatch: {} features vs {} per anchor",
        x.cols(),
        anchors.cols()
    );
    let data = kernel_map_slab(
        x.as_slice(),
        x.rows(),
        x.cols(),
        anchors.as_slice(),
        anchors.rows(),
        kernel,
        threads,
    );
    Matrix::from_vec(x.rows(), anchors.rows(), data)
}

/// [`kernel_map`] over raw row-major slabs (`x : n x d`, `anchors : m x d`)
/// in either element type.
fn kernel_map_slab<T: Elem>(
    x: &[T],
    n: usize,
    d: usize,
    anchors: &[T],
    m: usize,
    kernel: KernelKind,
    threads: usize,
) -> Vec<T> {
    match kernel {
        KernelKind::Linear => gemm_bt_parallel(x, n, d, anchors, m, threads),
        KernelKind::Rbf { width } => {
            rbf_gram_parallel(x, n, d, anchors, m, T::from_f64(width), threads)
        }
    }
}

/// A trained kernelized model: dual weights `alpha : m x a` over a stored
/// anchor set `anchors : m x d`. Scoring projects a batch as
/// `k(X, anchors) · alpha` — no training data needed beyond the anchors,
/// which the `.zsm` v2 artifact persists as the family's extra payload.
///
/// The anchors are shared, not owned: every model of one
/// [`Trainer::fit_grid`] call, and every clone of a model, points at one
/// anchor allocation.
#[derive(Clone, Debug)]
pub struct KernelModel {
    alpha: Matrix,
    anchors: Arc<Matrix>,
    kernel: KernelKind,
}

impl KernelModel {
    /// Assemble from parts; the anchor and weight row counts must agree.
    /// `anchors` is an owned [`Matrix`] or an `Arc` shared with other models.
    pub fn from_parts(
        alpha: Matrix,
        anchors: impl Into<Arc<Matrix>>,
        kernel: KernelKind,
    ) -> Result<KernelModel, TrainError> {
        let anchors = anchors.into();
        if alpha.rows() != anchors.rows() {
            return Err(TrainError::Shape(format!(
                "kernel model has {} dual-weight rows but {} anchors",
                alpha.rows(),
                anchors.rows()
            )));
        }
        Ok(KernelModel {
            alpha,
            anchors,
            kernel,
        })
    }

    /// Dual weights `alpha : m x a`.
    pub fn alpha(&self) -> &Matrix {
        &self.alpha
    }

    /// The anchor rows `m x d` the kernel is evaluated against.
    pub fn anchors(&self) -> &Matrix {
        &self.anchors
    }

    /// The Gram option.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }
}

/// A trained model of any family — what [`Trainer::fit`] returns and what
/// [`crate::infer::ScoringEngine`] scores with.
#[derive(Clone, Debug)]
pub enum TrainedModel {
    /// ESZSL closed form: a linear feature→attribute projection.
    Eszsl(ProjectionModel),
    /// Semantic Autoencoder: also a linear projection (solved via Sylvester).
    Sae(ProjectionModel),
    /// Kernelized ESZSL: dual weights over stored anchors.
    Kernel(KernelModel),
}

/// A bare [`ProjectionModel`] keeps meaning what it always did: ESZSL.
impl From<ProjectionModel> for TrainedModel {
    fn from(model: ProjectionModel) -> Self {
        TrainedModel::Eszsl(model)
    }
}

impl From<KernelModel> for TrainedModel {
    fn from(model: KernelModel) -> Self {
        TrainedModel::Kernel(model)
    }
}

impl TrainedModel {
    /// Which family trained this model.
    pub fn family(&self) -> ModelFamily {
        match self {
            TrainedModel::Eszsl(_) => ModelFamily::Eszsl,
            TrainedModel::Sae(_) => ModelFamily::Sae,
            TrainedModel::Kernel(_) => ModelFamily::KernelEszsl,
        }
    }

    /// Input feature width the model scores.
    pub fn feature_dim(&self) -> usize {
        match self {
            TrainedModel::Eszsl(m) | TrainedModel::Sae(m) => m.weights().rows(),
            TrainedModel::Kernel(m) => m.anchors().cols(),
        }
    }

    /// Attribute-space width the model projects into.
    pub fn attr_dim(&self) -> usize {
        match self {
            TrainedModel::Eszsl(m) | TrainedModel::Sae(m) => m.weights().cols(),
            TrainedModel::Kernel(m) => m.alpha().cols(),
        }
    }

    /// The linear projection, for the two linear families.
    pub fn projection(&self) -> Option<&ProjectionModel> {
        match self {
            TrainedModel::Eszsl(m) | TrainedModel::Sae(m) => Some(m),
            TrainedModel::Kernel(_) => None,
        }
    }

    /// The kernel model, for the kernel family.
    pub fn kernel_model(&self) -> Option<&KernelModel> {
        match self {
            TrainedModel::Kernel(m) => Some(m),
            _ => None,
        }
    }

    /// Project a batch of features (`n x d`) into attribute space (`n x a`).
    pub fn project(&self, x: &Matrix) -> Matrix {
        self.project_parallel(x, 1)
    }

    /// Multi-threaded [`TrainedModel::project`], bit-identical to the serial
    /// path for every thread count. [`crate::ScoringEngine`] projects through
    /// the same code in both of its precisions.
    pub fn project_parallel(&self, x: &Matrix, threads: usize) -> Matrix {
        assert_eq!(
            x.cols(),
            self.feature_dim(),
            "projection shape mismatch: {}x{} features vs projection dim {}",
            x.rows(),
            x.cols(),
            self.feature_dim()
        );
        let data = self.project_slab(&self.param_slabs(), x.as_slice(), x.rows(), threads);
        Matrix::from_vec(x.rows(), self.attr_dim(), data)
    }

    /// The parameter matrices as row-major slabs, in the order
    /// [`TrainedModel::project_slab`] reads them: `[w]` for the linear
    /// families, `[alpha, anchors]` for the kernel family.
    pub(crate) fn param_slabs(&self) -> Vec<&[f64]> {
        match self {
            TrainedModel::Eszsl(m) | TrainedModel::Sae(m) => vec![m.weights().as_slice()],
            TrainedModel::Kernel(m) => vec![m.alpha().as_slice(), m.anchors().as_slice()],
        }
    }

    /// The one projection, generic over the element type: `x` (`n x d`
    /// row-major) maps to `n x a` as `x · w`, or `k(x, anchors) · alpha` for
    /// the kernel family. `params` are this model's
    /// [`TrainedModel::param_slabs`] in `T`: the matrices themselves for
    /// `f64`, the scoring engine's cast mirror for `f32`. Shapes and the
    /// kernel come from `self`. Bit-identical for every thread count.
    pub(crate) fn project_slab<T: Elem>(
        &self,
        params: &[&[T]],
        x: &[T],
        n: usize,
        threads: usize,
    ) -> Vec<T> {
        let (d, a) = (self.feature_dim(), self.attr_dim());
        debug_assert_eq!(x.len(), n * d);
        match self {
            TrainedModel::Eszsl(_) | TrainedModel::Sae(_) => {
                gemm_parallel(x, n, d, params[0], a, threads)
            }
            TrainedModel::Kernel(m) => {
                let k = m.anchors().rows();
                let phi = kernel_map_slab(x, n, d, params[1], k, m.kernel(), threads);
                gemm_parallel(&phi, n, k, params[0], a, threads)
            }
        }
    }

    /// Every parameter matrix is finite. Used by the engine validation gate.
    pub(crate) fn is_finite(&self) -> bool {
        match self {
            TrainedModel::Eszsl(m) | TrainedModel::Sae(m) => {
                m.weights().as_slice().iter().all(|v| v.is_finite())
            }
            TrainedModel::Kernel(m) => {
                m.alpha().as_slice().iter().all(|v| v.is_finite())
                    && m.anchors().as_slice().iter().all(|v| v.is_finite())
            }
        }
    }
}

/// The object-safe trainer abstraction: fit from any [`FeatureSource`] into
/// a [`TrainedModel`].
///
/// Hyperparameters flow through the universal `(γ, λ)` pair so one
/// [`crate::eval::CrossValConfig`] grid drives every family; what the pair
/// *means* is per-model ([`Trainer::grid_points`] maps the configured grids
/// into this trainer's sweep — SAE, with its single `λ`, collapses the γ
/// axis). Generic call sites hold a `&dyn Trainer` (or a `Box<dyn Trainer>`
/// from [`Trainer::with_point`]), so new families — sparse attribute
/// propagation, ParsNets-style constrained linear models — plug in without
/// touching the CV/GZSL/artifact/serving layers.
pub trait Trainer: std::fmt::Debug {
    /// Which family this trainer produces.
    fn family(&self) -> ModelFamily;

    /// Fit on the trainval split of `source` with the trainer's configured
    /// hyperparameters.
    fn fit(&self, source: &dyn FeatureSource) -> Result<TrainedModel, ZslError>;

    /// Fit one model per `(γ, λ)` point from the trainval rows at `subset`
    /// positions — the cross-validation fold primitive — returning the models
    /// in `points` order. Implementations reject a regularizer they use that
    /// is not positive and finite, at any position, with
    /// [`TrainError::InvalidConfig`] before reading any row; pay their
    /// sufficient statistics once; and share every factorization that
    /// depends on one axis alone across the points that repeat it (ESZSL and
    /// kernel ESZSL factor once per distinct γ and once per distinct λ). Each
    /// model is bit-identical to [`Trainer::with_point`]`(γ, λ).fit` on the
    /// same rows.
    fn fit_grid(
        &self,
        source: &dyn FeatureSource,
        subset: &[usize],
        points: &[(f64, f64)],
    ) -> Result<Vec<TrainedModel>, ZslError>;

    /// This trainer's sweep over the configured `(γ, λ)` candidate grids, in
    /// report order. Families with fewer hyperparameters collapse axes here
    /// (and record the placeholder in the grid point).
    fn grid_points(&self, gammas: &[f64], lambdas: &[f64]) -> Vec<(f64, f64)>;

    /// A copy of this trainer with the `(γ, λ)` point applied — the final
    /// refit after cross-validation selects a winner.
    fn with_point(&self, gamma: f64, lambda: f64) -> Box<dyn Trainer>;

    /// `key=value; ...` provenance string for artifact metadata, starting
    /// with `trainer=<family tag>`.
    fn describe(&self) -> String;

    /// An owned copy behind the object-safe interface — what keeps a
    /// [`crate::pipeline::Pipeline`] holding a boxed trainer `Clone`.
    fn clone_box(&self) -> Box<dyn Trainer>;
}

impl Clone for Box<dyn Trainer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl Trainer for EszslTrainer {
    fn family(&self) -> ModelFamily {
        ModelFamily::Eszsl
    }

    fn fit(&self, source: &dyn FeatureSource) -> Result<TrainedModel, ZslError> {
        Ok(TrainedModel::Eszsl(EszslTrainer::fit(self, source)?))
    }

    fn fit_grid(
        &self,
        source: &dyn FeatureSource,
        subset: &[usize],
        points: &[(f64, f64)],
    ) -> Result<Vec<TrainedModel>, ZslError> {
        validate_points(points)?;
        let config = self.config();
        let signatures = source.seen_signatures();
        let mut acc = GramAccumulator::with_normalization(
            &signatures,
            config.normalize_features,
            config.normalize_signatures,
        );
        for chunk in source.stream_trainval_subset(subset)? {
            let (x, labels) = chunk?;
            acc.fold(&x, &labels)?;
        }
        let problem = acc.finish().map_err(ZslError::from)?;
        Ok(problem
            .solve_grid(points)?
            .into_iter()
            .map(TrainedModel::Eszsl)
            .collect())
    }

    fn grid_points(&self, gammas: &[f64], lambdas: &[f64]) -> Vec<(f64, f64)> {
        cartesian(gammas, lambdas)
    }

    fn with_point(&self, gamma: f64, lambda: f64) -> Box<dyn Trainer> {
        Box::new(self.config().clone().gamma(gamma).lambda(lambda).build())
    }

    fn clone_box(&self) -> Box<dyn Trainer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        let c = self.config();
        format!(
            "trainer=eszsl; gamma={}; lambda={}; normalize_features={}; normalize_signatures={}",
            c.gamma, c.lambda, c.normalize_features, c.normalize_signatures
        )
    }
}

/// `γ x λ` in report order (γ outer, λ inner) — the sweep shape the original
/// ESZSL-only cross-validation used.
fn cartesian(gammas: &[f64], lambdas: &[f64]) -> Vec<(f64, f64)> {
    let mut points = Vec::with_capacity(gammas.len() * lambdas.len());
    for &gamma in gammas {
        for &lambda in lambdas {
            points.push((gamma, lambda));
        }
    }
    points
}

/// Borrow features, copying only when normalization rewrites them.
fn prep_features<'m>(x: &'m Matrix, normalize: bool) -> Cow<'m, Matrix> {
    if normalize {
        let mut x = x.clone();
        x.l2_normalize_rows();
        Cow::Owned(x)
    } else {
        Cow::Borrowed(x)
    }
}

/// Builder-style configuration for [`SaeTrainer`].
#[derive(Clone, Debug)]
pub struct SaeConfig {
    /// Reconstruction/projection trade-off λ in
    /// `‖X − (YS)Wᵀ‖² + λ‖XW − YS‖²`. Must be positive and finite.
    pub lambda: f64,
    /// L2-normalize feature rows before training.
    pub normalize_features: bool,
    /// L2-normalize signature rows before training.
    pub normalize_signatures: bool,
}

impl Default for SaeConfig {
    fn default() -> Self {
        SaeConfig {
            lambda: 1.0,
            normalize_features: false,
            normalize_signatures: false,
        }
    }
}

impl SaeConfig {
    /// Start from the defaults (λ = 1, no normalization).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the trade-off λ.
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
    pub fn build(self) -> SaeTrainer {
        SaeTrainer { config: self }
    }
}

/// Semantic Autoencoder trainer: closed-form via the Sylvester system
/// `(YS)ᵀ(YS)·W' + W'·λXᵀX = (1+λ)(YS)ᵀX` (then `W = W'ᵀ : d x a`).
///
/// Both operands are built from the SAME streamed sufficient statistics the
/// ESZSL path accumulates — `XᵀX`, `XᵀYS`, and per-class counts (since
/// `(YS)ᵀ(YS) = Sᵀ diag(counts) S`) — so SAE training streams any source at
/// `O(chunk_rows x feature_dim)` peak feature memory and is bit-identical
/// across chunk sizes for free.
#[derive(Clone, Debug, Default)]
pub struct SaeTrainer {
    config: SaeConfig,
}

impl SaeTrainer {
    /// Trainer with an explicit configuration.
    pub fn new(config: SaeConfig) -> Self {
        SaeTrainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SaeConfig {
        &self.config
    }

    fn system(
        &self,
        source: &dyn FeatureSource,
        subset: Option<&[usize]>,
    ) -> Result<SaeSystem, ZslError> {
        let signatures = source.seen_signatures();
        let mut acc = GramAccumulator::with_normalization(
            &signatures,
            self.config.normalize_features,
            self.config.normalize_signatures,
        );
        for chunk in subset_stream(source, subset)? {
            let (x, labels) = chunk?;
            acc.fold(&x, &labels)?;
        }
        // `A = Sᵀ diag(counts) S` from the prepared signatures and per-class
        // counts — chunk-order-invariant because integer counting is.
        let prepared = acc.signatures().clone();
        let mut weighted = prepared.clone();
        for (r, &count) in acc.class_counts().to_vec().iter().enumerate() {
            for v in weighted.row_mut(r) {
                *v *= count;
            }
        }
        let a = prepared.transpose().matmul(&weighted);
        let (xtx, xtys, _) = acc.finish().map_err(ZslError::from)?.into_parts();
        Ok(SaeSystem {
            a,
            xtx,
            stx: xtys.transpose(),
        })
    }
}

/// Accumulated SAE sufficient statistics, reusable across λ grid points.
struct SaeSystem {
    /// `(YS)ᵀ(YS) : a x a`.
    a: Matrix,
    /// `XᵀX : d x d` (unscaled).
    xtx: Matrix,
    /// `(YS)ᵀX : a x d` (unscaled).
    stx: Matrix,
}

impl SaeSystem {
    fn solve(&self, lambda: f64) -> Result<TrainedModel, ZslError> {
        validate_regularizer("lambda", lambda)?;
        let b = scaled(&self.xtx, lambda);
        let c = scaled(&self.stx, 1.0 + lambda);
        let w =
            solve_sylvester(&self.a, &b, &c).map_err(|e| ZslError::Train(TrainError::Solver(e)))?;
        Ok(TrainedModel::Sae(ProjectionModel::from_weights(
            w.transpose(),
        )))
    }
}

fn scaled(m: &Matrix, factor: f64) -> Matrix {
    Matrix::from_vec(
        m.rows(),
        m.cols(),
        m.as_slice().iter().map(|v| v * factor).collect(),
    )
}

impl Trainer for SaeTrainer {
    fn family(&self) -> ModelFamily {
        ModelFamily::Sae
    }

    fn fit(&self, source: &dyn FeatureSource) -> Result<TrainedModel, ZslError> {
        self.system(source, None)?.solve(self.config.lambda)
    }

    fn fit_grid(
        &self,
        source: &dyn FeatureSource,
        subset: &[usize],
        points: &[(f64, f64)],
    ) -> Result<Vec<TrainedModel>, ZslError> {
        for &(_, lambda) in points {
            validate_regularizer("lambda", lambda)?;
        }
        let system = self.system(source, Some(subset))?;
        points
            .iter()
            .map(|&(_, lambda)| system.solve(lambda))
            .collect()
    }

    /// SAE has one hyperparameter: sweep the λ grid and collapse the γ axis,
    /// recording `γ = 0` as the placeholder in every grid point.
    fn grid_points(&self, _gammas: &[f64], lambdas: &[f64]) -> Vec<(f64, f64)> {
        lambdas.iter().map(|&lambda| (0.0, lambda)).collect()
    }

    fn with_point(&self, _gamma: f64, lambda: f64) -> Box<dyn Trainer> {
        Box::new(self.config.clone().lambda(lambda).build())
    }

    fn clone_box(&self) -> Box<dyn Trainer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        format!(
            "trainer=sae; lambda={}; normalize_features={}; normalize_signatures={}",
            self.config.lambda, self.config.normalize_features, self.config.normalize_signatures
        )
    }
}

/// Builder-style configuration for [`KernelEszslTrainer`].
#[derive(Clone, Debug)]
pub struct KernelEszslConfig {
    /// Gram option.
    pub kernel: KernelKind,
    /// Kernel-space regularizer γ added to `ΦᵀΦ`.
    pub gamma: f64,
    /// Attribute-space regularizer λ added to `SᵀS`.
    pub lambda: f64,
    /// Cap on the stored anchor set: the FIRST `max_anchors` trainval rows in
    /// stream order (chunk-size-invariant by construction). `None` keeps
    /// every training row — the classic kernel formulation, whose model size
    /// is `O(n_train x feature_dim)` by nature.
    pub max_anchors: Option<usize>,
    /// L2-normalize feature rows (before the kernel map) during training.
    pub normalize_features: bool,
    /// L2-normalize signature rows before training.
    pub normalize_signatures: bool,
}

impl Default for KernelEszslConfig {
    fn default() -> Self {
        KernelEszslConfig {
            kernel: KernelKind::Linear,
            gamma: 1.0,
            lambda: 1.0,
            max_anchors: None,
            normalize_features: false,
            normalize_signatures: false,
        }
    }
}

impl KernelEszslConfig {
    /// Start from the defaults (linear Gram, γ = λ = 1, all anchors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the Gram option.
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Set the kernel-space regularizer γ.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Set the attribute-space regularizer λ.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Cap the anchor set at the first `max_anchors` training rows.
    pub fn max_anchors(mut self, max_anchors: usize) -> Self {
        self.max_anchors = Some(max_anchors);
        self
    }

    /// Toggle L2 normalization of feature rows (pre-kernel).
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
    pub fn build(self) -> KernelEszslTrainer {
        KernelEszslTrainer { config: self }
    }
}

/// Kernelized ESZSL: the exact ESZSL closed form applied to the kernel
/// feature map `Φ(x) = k(x, anchors)`, i.e.
/// `alpha = (ΦᵀΦ + γI)⁻¹ ΦᵀYS (SᵀS + λI)⁻¹ : m x a`.
///
/// Training makes two streaming passes over the source: one to collect the
/// anchor rows (a stream-order prefix, so chunk boundaries cannot change it),
/// one to fold the kernel-space Grams through the same [`GramAccumulator`]
/// every other trainer uses — streamed results stay bit-identical to
/// in-memory at every chunk size.
#[derive(Clone, Debug, Default)]
pub struct KernelEszslTrainer {
    config: KernelEszslConfig,
}

impl KernelEszslTrainer {
    /// Trainer with an explicit configuration.
    pub fn new(config: KernelEszslConfig) -> Self {
        KernelEszslTrainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &KernelEszslConfig {
        &self.config
    }

    fn validate(&self) -> Result<(), ZslError> {
        validate_regularizer("gamma", self.config.gamma)?;
        validate_regularizer("lambda", self.config.lambda)?;
        if let KernelKind::Rbf { width } = self.config.kernel {
            validate_regularizer("rbf width", width)?;
        }
        if self.config.max_anchors == Some(0) {
            return Err(ZslError::Train(TrainError::InvalidConfig(
                "max_anchors must be at least 1".into(),
            )));
        }
        Ok(())
    }

    /// Pass 1: the anchor set — the first `max_anchors` (or all) trainval
    /// rows in stream order, with feature normalization already applied.
    fn collect_anchors(
        &self,
        source: &dyn FeatureSource,
        subset: Option<&[usize]>,
    ) -> Result<Matrix, ZslError> {
        let cap = self.config.max_anchors.unwrap_or(usize::MAX);
        let mut data: Vec<f64> = Vec::new();
        let mut dim: Option<usize> = None;
        let mut taken = 0usize;
        for chunk in subset_stream(source, subset)? {
            let (x, _) = chunk?;
            if x.rows() == 0 {
                continue;
            }
            match dim {
                None => dim = Some(x.cols()),
                Some(d) if d != x.cols() => {
                    return Err(ZslError::Train(TrainError::Shape(format!(
                        "chunk has {} feature columns but earlier chunks had {d}",
                        x.cols()
                    ))));
                }
                _ => {}
            }
            let x = prep_features(&x, self.config.normalize_features);
            let take = x.rows().min(cap - taken);
            data.extend_from_slice(&x.as_slice()[..take * x.cols()]);
            taken += take;
            if taken >= cap {
                break;
            }
        }
        let Some(d) = dim else {
            return Err(ZslError::Train(TrainError::Shape(
                "empty training set".into(),
            )));
        };
        Ok(Matrix::from_vec(taken, d, data))
    }

    /// Pass 2: fold the kernel-space Grams `ΦᵀΦ` / `ΦᵀYS` (reusing the one
    /// shared accumulator), returning the solvable problem plus the anchors.
    fn kernel_problem(
        &self,
        source: &dyn FeatureSource,
        subset: Option<&[usize]>,
    ) -> Result<(EszslProblem, Matrix), ZslError> {
        self.validate()?;
        let anchors = self.collect_anchors(source, subset)?;
        let signatures = source.seen_signatures();
        // Feature normalization happens pre-kernel; the accumulator must not
        // renormalize the kernel rows.
        let mut acc = GramAccumulator::with_normalization(
            &signatures,
            false,
            self.config.normalize_signatures,
        );
        for chunk in subset_stream(source, subset)? {
            let (x, labels) = chunk?;
            if x.cols() != anchors.cols() {
                return Err(ZslError::Train(TrainError::Shape(format!(
                    "chunk has {} feature columns but the anchor set has {}",
                    x.cols(),
                    anchors.cols()
                ))));
            }
            let x = prep_features(&x, self.config.normalize_features);
            // Safe to parallelize: the map is bit-identical across thread
            // counts for both kernels, so streamed training stays exact.
            let phi = kernel_map(&x, &anchors, self.config.kernel, default_threads());
            acc.fold(&phi, &labels)?;
        }
        Ok((acc.finish().map_err(ZslError::from)?, anchors))
    }
}

impl Trainer for KernelEszslTrainer {
    fn family(&self) -> ModelFamily {
        ModelFamily::KernelEszsl
    }

    fn fit(&self, source: &dyn FeatureSource) -> Result<TrainedModel, ZslError> {
        let (problem, anchors) = self.kernel_problem(source, None)?;
        let alpha = problem.solve(self.config.gamma, self.config.lambda)?;
        Ok(TrainedModel::Kernel(KernelModel::from_parts(
            alpha.into_weights(),
            anchors,
            self.config.kernel,
        )?))
    }

    fn fit_grid(
        &self,
        source: &dyn FeatureSource,
        subset: &[usize],
        points: &[(f64, f64)],
    ) -> Result<Vec<TrainedModel>, ZslError> {
        validate_points(points)?;
        let (problem, anchors) = self.kernel_problem(source, Some(subset))?;
        let anchors = Arc::new(anchors);
        problem
            .solve_grid(points)?
            .into_iter()
            .map(|alpha| {
                Ok(TrainedModel::Kernel(KernelModel::from_parts(
                    alpha.into_weights(),
                    Arc::clone(&anchors),
                    self.config.kernel,
                )?))
            })
            .collect()
    }

    fn grid_points(&self, gammas: &[f64], lambdas: &[f64]) -> Vec<(f64, f64)> {
        cartesian(gammas, lambdas)
    }

    fn with_point(&self, gamma: f64, lambda: f64) -> Box<dyn Trainer> {
        Box::new(self.config.clone().gamma(gamma).lambda(lambda).build())
    }

    fn clone_box(&self) -> Box<dyn Trainer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        let c = &self.config;
        let anchors = match c.max_anchors {
            Some(m) => format!("{m}"),
            None => "all".into(),
        };
        format!(
            "trainer=kernel-eszsl; kernel={}; gamma={}; lambda={}; max_anchors={anchors}; \
             normalize_features={}; normalize_signatures={}",
            c.kernel, c.gamma, c.lambda, c.normalize_features, c.normalize_signatures
        )
    }
}

/// The trainval stream, optionally restricted to `subset` positions — the one
/// helper behind every trainer's accumulation passes.
fn subset_stream<'s>(
    source: &'s dyn FeatureSource,
    subset: Option<&[usize]>,
) -> Result<SourceStream<'s>, ZslError> {
    match subset {
        Some(positions) => source.stream_trainval_subset(positions),
        None => source.stream(SplitKind::Trainval),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticConfig;
    use crate::linalg::LinalgError;
    use crate::model::EszslConfig;

    fn dataset() -> crate::data::Dataset {
        SyntheticConfig::new()
            .classes(8, 3)
            .dims(5, 7)
            .samples(6, 4)
            .noise(0.05)
            .seed(0x7A1)
            .build()
    }

    #[test]
    fn sae_solution_satisfies_its_sylvester_normal_equations() {
        let ds = dataset();
        let trainer = SaeConfig::new().lambda(0.7).build();
        let model = Trainer::fit(&trainer, &ds).expect("fit");
        assert_eq!(model.family(), ModelFamily::Sae);
        let w = model.projection().expect("linear").weights(); // d x a
        let wp = w.transpose(); // a x d — the Sylvester unknown

        // Rebuild A, B, C directly from the dataset and check A·W' + W'·B ≈ C.
        let mut ys = Matrix::zeros(ds.train_x.rows(), ds.seen_signatures.cols());
        for (i, &label) in ds.train_labels.iter().enumerate() {
            ys.row_mut(i).copy_from_slice(ds.seen_signatures.row(label));
        }
        let a = ys.transpose().matmul(&ys);
        let xtx = ds.train_x.transpose().matmul(&ds.train_x);
        let b = scaled(&xtx, 0.7);
        let c = scaled(&ys.transpose().matmul(&ds.train_x), 1.7);
        let mut lhs = a.matmul(&wp);
        let rhs = wp.matmul(&b);
        let (rows, cols) = (lhs.rows(), lhs.cols());
        for (l, r) in (0..rows * cols).map(|i| (i / cols, i % cols)) {
            let v = lhs.get(l, r) + rhs.get(l, r);
            lhs.set(l, r, v);
        }
        assert!(
            lhs.max_abs_diff(&c) < 1e-7,
            "SAE normal equations violated: {}",
            lhs.max_abs_diff(&c)
        );
    }

    #[test]
    fn sae_fit_reports_a_non_finite_gram_as_a_solver_error() {
        let mut ds = dataset();
        ds.train_x.set(0, 2, f64::NAN);
        let result = Trainer::fit(&SaeTrainer::default(), &ds);
        assert!(
            matches!(
                result,
                Err(ZslError::Train(TrainError::Solver(
                    LinalgError::NonFinite { row: 0, col: 2 }
                )))
            ),
            "{result:?}"
        );
    }

    #[test]
    fn eszsl_fits_report_a_non_finite_gram_as_a_solver_error() {
        let mut ds = SyntheticConfig::new().seed(3).build();
        ds.train_x.set(0, 2, f64::NAN);
        let rbf = KernelKind::Rbf { width: 0.25 };
        let cases: [(Box<dyn Trainer>, (usize, usize)); 3] = [
            // Column 2 of X poisons row and column 2 of XᵀX; the lower
            // triangle's scan meets (2, 0) first.
            (Box::new(EszslConfig::new().build()), (2, 0)),
            // Row 0 is anchor 0, so column 0 of Φ and entry (0, 0) of ΦᵀΦ
            // are NaN.
            (
                Box::new(KernelEszslConfig::new().max_anchors(40).build()),
                (0, 0),
            ),
            (
                Box::new(KernelEszslConfig::new().kernel(rbf).max_anchors(40).build()),
                (0, 0),
            ),
        ];
        for (trainer, at) in &cases {
            let result = trainer.fit(&ds);
            assert!(
                matches!(
                    result,
                    Err(ZslError::Train(TrainError::Solver(
                        LinalgError::NonFinite { row, col }
                    ))) if (row, col) == *at
                ),
                "{}: {result:?}",
                trainer.describe()
            );
        }
    }

    #[test]
    fn kernel_fit_grid_models_share_one_anchor_allocation() {
        let ds = dataset();
        let trainer = KernelEszslConfig::new().max_anchors(10).build();
        let subset: Vec<usize> = (0..ds.train_x.rows()).collect();
        let points = [(0.5, 2.0), (1.0, 2.0), (0.5, 0.25)];
        let models = trainer.fit_grid(&ds, &subset, &points).expect("fit_grid");
        let anchors_at = |m: &TrainedModel| {
            m.kernel_model()
                .expect("kernel")
                .anchors()
                .as_slice()
                .as_ptr()
        };
        let shared = anchors_at(&models[0]);
        for model in &models {
            assert_eq!(anchors_at(model), shared);
            assert_eq!(anchors_at(&model.clone()), shared, "a clone shares too");
        }
        // Sharing changes no artifact byte: each model saves exactly as the
        // per-point fit on the same rows does.
        let path = |tag: &str| {
            std::env::temp_dir().join(format!(
                "zsl_trainer_anchors_{}_{tag}.zsm",
                std::process::id()
            ))
        };
        let save = |model: TrainedModel, tag: &str| {
            let engine = crate::infer::ScoringEngine::new(
                model,
                ds.seen_signatures.clone(),
                crate::infer::Similarity::Cosine,
            );
            engine.save(&path(tag)).expect("save");
            let bytes = std::fs::read(path(tag)).expect("read");
            std::fs::remove_file(path(tag)).ok();
            bytes
        };
        for (model, &(gamma, lambda)) in models.into_iter().zip(&points) {
            let single = trainer
                .with_point(gamma, lambda)
                .fit(&ds)
                .expect("per-point fit");
            assert_eq!(
                save(model, "grid"),
                save(single, "single"),
                "gamma={gamma} lambda={lambda}"
            );
        }
    }

    #[test]
    fn kernel_linear_fit_produces_dual_weights_over_anchors() {
        let ds = dataset();
        let trainer = KernelEszslConfig::new().gamma(0.5).lambda(2.0).build();
        let model = Trainer::fit(&trainer, &ds).expect("fit");
        assert_eq!(model.family(), ModelFamily::KernelEszsl);
        let km = model.kernel_model().expect("kernel");
        assert_eq!(km.anchors().rows(), ds.train_x.rows());
        assert_eq!(km.anchors().cols(), ds.train_x.cols());
        assert_eq!(km.alpha().rows(), km.anchors().rows());
        assert_eq!(km.alpha().cols(), ds.seen_signatures.cols());
        assert_eq!(model.feature_dim(), ds.train_x.cols());
        assert_eq!(model.attr_dim(), ds.seen_signatures.cols());
        // Projection shapes line up and parallel == serial bit-for-bit.
        let serial = model.project(&ds.test_seen_x);
        assert_eq!(serial.rows(), ds.test_seen_x.rows());
        assert_eq!(serial.cols(), ds.seen_signatures.cols());
        for threads in [2, 5] {
            assert_eq!(
                model.project_parallel(&ds.test_seen_x, threads).as_slice(),
                serial.as_slice()
            );
        }
    }

    #[test]
    fn max_anchors_caps_the_anchor_set_to_a_stream_prefix() {
        let ds = dataset();
        let trainer = KernelEszslConfig::new().max_anchors(5).build();
        let model = Trainer::fit(&trainer, &ds).expect("fit");
        let km = model.kernel_model().expect("kernel");
        assert_eq!(km.anchors().rows(), 5);
        for r in 0..5 {
            assert_eq!(km.anchors().row(r), ds.train_x.row(r), "row {r}");
        }
    }

    #[test]
    fn rbf_kernel_map_is_symmetric_and_unit_on_the_diagonal() {
        let ds = dataset();
        let k = kernel_map(&ds.train_x, &ds.train_x, KernelKind::Rbf { width: 0.3 }, 1);
        for i in 0..k.rows() {
            assert!((k.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..k.cols() {
                assert_eq!(k.get(i, j).to_bits(), k.get(j, i).to_bits(), "({i},{j})");
                assert!(k.get(i, j) > 0.0 && k.get(i, j) <= 1.0);
            }
        }
    }

    #[test]
    fn rbf_kernel_map_honors_threads_bit_identically() {
        // Regression for the serial-RBF bug: the map must engage the banded
        // path (this shape is above the parallel work cutoff) and still match
        // the single-threaded Gram bit-for-bit at every thread count.
        let mut rng = crate::data::Rng::new(0xB1F);
        let n = 300;
        let (d, m) = (32, 16);
        let x = Matrix::from_vec(n, d, (0..n * d).map(|_| rng.normal()).collect());
        let anchors = Matrix::from_vec(m, d, (0..m * d).map(|_| rng.normal()).collect());
        let kernel = KernelKind::Rbf { width: 0.25 };
        let serial = kernel_map(&x, &anchors, kernel, 1);
        for threads in [2usize, 4, 9] {
            let parallel = kernel_map(&x, &anchors, kernel, threads);
            assert_eq!(
                parallel.as_slice(),
                serial.as_slice(),
                "RBF Gram diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn grid_points_shapes_are_per_family() {
        let gammas = [0.1, 1.0];
        let lambdas = [0.5, 5.0, 50.0];
        let eszsl = EszslConfig::new().build();
        assert_eq!(
            Trainer::grid_points(&eszsl, &gammas, &lambdas).len(),
            6,
            "ESZSL sweeps the full cartesian grid"
        );
        let sae = SaeConfig::new().build();
        assert_eq!(
            Trainer::grid_points(&sae, &gammas, &lambdas),
            vec![(0.0, 0.5), (0.0, 5.0), (0.0, 50.0)],
            "SAE collapses the gamma axis"
        );
    }

    #[test]
    fn with_point_and_describe_round_trip_hyperparameters() {
        let eszsl = EszslConfig::new().build().with_point(0.25, 4.0);
        assert!(eszsl
            .describe()
            .contains("trainer=eszsl; gamma=0.25; lambda=4"));
        let sae = SaeConfig::new().build().with_point(0.0, 2.5);
        assert!(sae.describe().contains("trainer=sae; lambda=2.5"));
        let kernel = KernelEszslConfig::new()
            .kernel(KernelKind::Rbf { width: 0.5 })
            .build()
            .with_point(3.0, 0.125);
        let described = kernel.describe();
        assert!(described.contains("trainer=kernel-eszsl"), "{described}");
        assert!(described.contains("kernel=rbf(0.5)"), "{described}");
        assert!(described.contains("gamma=3"), "{described}");
    }

    #[test]
    fn invalid_hyperparameters_are_typed_errors_for_every_family() {
        let ds = dataset();
        let sae = SaeConfig::new().lambda(0.0).build();
        assert!(matches!(
            Trainer::fit(&sae, &ds),
            Err(ZslError::Train(TrainError::InvalidConfig(_)))
        ));
        let kernel = KernelEszslConfig::new().gamma(-1.0).build();
        assert!(matches!(
            Trainer::fit(&kernel, &ds),
            Err(ZslError::Train(TrainError::InvalidConfig(_)))
        ));
        let bad_width = KernelEszslConfig::new()
            .kernel(KernelKind::Rbf { width: f64::NAN })
            .build();
        assert!(matches!(
            Trainer::fit(&bad_width, &ds),
            Err(ZslError::Train(TrainError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn family_codes_round_trip_and_reject_unknowns() {
        for family in [
            ModelFamily::Eszsl,
            ModelFamily::Sae,
            ModelFamily::KernelEszsl,
        ] {
            assert_eq!(ModelFamily::from_code(family.code()), Some(family));
        }
        assert_eq!(ModelFamily::from_code(99), None);
        assert_eq!(
            KernelKind::from_code(1, 0.25),
            Some(KernelKind::Rbf { width: 0.25 })
        );
        assert_eq!(KernelKind::from_code(7, 0.0), None);
    }
}
