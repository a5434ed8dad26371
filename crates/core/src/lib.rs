//! # zsl-core — a zero-shot learning engine
//!
//! Reproduces the embedding-projection family of zero-shot learning (ZSL)
//! methods (conf_sc_WangZSLY09; same closed-form family as ESZSL and the
//! Semantic Autoencoder): learn a linear map `W` from visual features to
//! class attribute/semantic vectors on *seen* classes, then classify *unseen*
//! classes — classes with zero training samples — by nearest semantic
//! signature.
//!
//! ## One pipeline, any source
//!
//! The public API is organized around two ideas:
//!
//! - **[`FeatureSource`]** — anything that can stream its GZSL splits as
//!   `(features, labels)` chunks: an in-memory [`Dataset`], an out-of-core
//!   [`StreamingBundle`] (features stay on disk, peak memory
//!   `O(chunk_rows x feature_dim)`), or a bare [`MemorySource`]. It is the
//!   one way data enters: every train/evaluate entry point takes a
//!   `&dyn FeatureSource`, and results are **bit-identical** across sources
//!   and chunk sizes.
//! - **[`Pipeline`]** — the documented front door chaining the stages:
//!
//! ```
//! use zsl_core::{CrossValConfig, Pipeline, SyntheticConfig};
//!
//! # fn main() -> Result<(), zsl_core::ZslError> {
//! let ds = SyntheticConfig::new().classes(20, 4).seed(7).build();
//! let cv = CrossValConfig::new()
//!     .gammas(vec![0.1, 1.0, 10.0])
//!     .lambdas(vec![0.1, 1.0, 10.0])
//!     .folds(3);
//! let trained = Pipeline::from(&ds)
//!     .cross_validate(&cv)?  // pick (γ, λ) on seen classes only
//!     .train()?;             // fit + build the serving engine
//! let report = trained.evaluate()?; // GZSL protocol
//! assert!(report.harmonic_mean > 0.9);
//! # Ok(())
//! # }
//! ```
//!
//! A trained pipeline persists as a versioned **`.zsm` model artifact**
//! (`trained.save(path)?` / [`ScoringEngine::load`]), so a serving process
//! boots from one small file — no training data, no re-solve — and
//! reproduces predictions bit-for-bit.
//!
//! ## Pipeline: feature → attribute → class
//!
//! 1. **Features** `X : n x d` — one row per sample (e.g. CNN embeddings;
//!    here, hermetic synthetic features from [`data::SyntheticConfig`] or
//!    on-disk bundles).
//! 2. **Projection** — [`model::EszslTrainer`] solves the closed form
//!    `W = (XᵀX + γI)⁻¹ XᵀYS (SᵀS + λI)⁻¹` on seen classes. `X W` lands
//!    samples in attribute space.
//! 3. **Class** — [`infer::ScoringEngine`] scores projected samples against a
//!    bank of class signatures (cosine or dot similarity) and picks the
//!    nearest; unseen classes are classified purely via their signatures.
//!
//! ## Module map
//!
//! | Module | Role |
//! |--------|------|
//! | [`pipeline`] | the [`Pipeline`] builder facade, the one protocol driver: source → CV → train → evaluate / save, for any [`Trainer`] |
//! | [`source`] | the [`FeatureSource`] trait, taken as `&dyn FeatureSource` by every entry point, + [`MemorySource`]; implemented by [`Dataset`] and [`StreamingBundle`]; [`Normalized`] wraps any source and L2-normalizes its feature and/or signature rows as they stream, the one place training input is normalized |
//! | [`linalg`] | dense math: the dense product behind matmul, the model projection and the `XᵀYS` fold, the packed `A·Bᵀ` bank kernel, and the Cholesky factorization and triangular solves for the two SPD systems (each with an AVX2 instance chosen at run time, same bits; [`kernel_isa`] names it), the pooled row-banded kernels behind training and scoring, the symmetric eigensolver |
//! | [`model`] | the closed-form trainer (Eq. `W = (XᵀX+γI)⁻¹XᵀYS(SᵀS+λI)⁻¹`); [`model::GramAccumulator`] is the single Gram fold behind every source kind |
//! | [`infer`] | [`infer::ScoringEngine`] (cached bank, parallel + chunked batch scoring), nearest-signature classification, top-k, ZSL/GZSL metrics |
//! | [`artifact`] | the versioned `.zsm` model artifact: [`ScoringEngine::save`] / [`ScoringEngine::load`], bit-identical round trips |
//! | [`data`]  | seeded synthetic datasets **plus** on-disk bundles: `.zsb` feature dumps, signature tables, split manifests — read by [`StreamingBundle`], which streams features chunk-at-a-time or materializes a [`Dataset`] ([`StreamingBundle::to_dataset`]); a lone `.zsb` table is read whole by [`data::format::read_zsb`], over the same crate-private reader; CSV features are converted once by [`data::import_features_csv`] |
//! | [`eval`]  | the generic GZSL protocol ([`eval::GzslReport`]) and seeded k-fold `(γ, λ)` cross-validation of any [`Trainer`] ([`eval::cross_validate`]) over any source |
//! | [`trainer`] | the object-safe [`Trainer`] trait + [`TrainedModel`]: ESZSL, the Sylvester-solved [`trainer::SaeTrainer`], and [`trainer::KernelEszslTrainer`] (linear/RBF), all streaming through the same accumulator |
//!
//! Errors across the pipeline unify into the top-level [`ZslError`], which
//! chains inner causes through [`std::error::Error::source`].
//!
//! ## Low-level example (no facade)
//!
//! ```
//! use zsl_core::data::SyntheticConfig;
//! use zsl_core::infer::{ClassAccuracyCounter, ScoringEngine, Similarity};
//! use zsl_core::model::EszslConfig;
//! use zsl_core::source::MemorySource;
//!
//! let ds = SyntheticConfig::new().classes(20, 4).seed(7).build();
//! // Bare matrices enter every entry point through a MemorySource.
//! let train = MemorySource::new(&ds.train_x, &ds.train_labels, &ds.seen_signatures);
//! let model = EszslConfig::new()
//!     .gamma(1.0)
//!     .lambda(1.0)
//!     .build()
//!     .fit(&train)?;
//! let engine = ScoringEngine::try_new(model, ds.unseen_signatures.clone(), Similarity::Cosine)?;
//! let mut accuracy = ClassAccuracyCounter::new(4);
//! accuracy.observe(&engine.predict(&ds.test_unseen_x), &ds.test_unseen_labels);
//! assert!(accuracy.mean() > 0.9);
//! # Ok::<(), zsl_core::ZslError>(())
//! ```

pub mod artifact;
pub mod data;
mod error;
pub mod eval;
pub(crate) mod fsutil;
pub mod infer;
pub mod linalg;
mod mmap;
pub mod model;
pub mod pipeline;
pub mod source;
pub mod trainer;

pub use artifact::{ZSM_HEADER_LEN, ZSM_MAGIC, ZSM_MIN_VERSION, ZSM_NORM_TOLERANCE, ZSM_VERSION};
pub use data::{
    export_dataset, ClassMap, DataError, Dataset, DatasetBundle, FeatureTable, Rng, SplitManifest,
    StreamingBundle, SyntheticConfig, ZsbWriter,
};
pub use error::ZslError;
pub use eval::{
    cross_validate, evaluate_gzsl, evaluate_gzsl_with, CrossValConfig, CrossValReport, GridPoint,
    GzslReport,
};
pub use infer::{
    harmonic_mean, BankShards, BankView, ClassAccuracyCounter, ScoringEngine, ScoringPrecision,
    Similarity, TopK,
};
pub use linalg::{
    default_threads, kernel_isa, pool_threads, solve_sylvester, Cholesky, LinalgError, Matrix,
    SymmetricEigen,
};
pub use model::{
    EszslConfig, EszslProblem, EszslTrainer, GramAccumulator, ProjectionModel, TrainError,
};
pub use pipeline::{Pipeline, TrainedPipeline};
pub use source::{FeatureSource, MemorySource, Normalized, SourceChunk, SourceStream, SplitKind};
pub use trainer::{
    KernelEszslConfig, KernelEszslTrainer, KernelKind, KernelModel, ModelFamily, SaeConfig,
    SaeTrainer, TrainedModel, Trainer,
};
