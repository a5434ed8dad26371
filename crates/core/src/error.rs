//! The crate-level error type of the unified pipeline API.
//!
//! The subsystems keep their own error enums — [`DataError`] from the
//! loaders and [`TrainError`] from the trainers, whose
//! [`TrainError::Solver`] carries the factorizations'
//! [`crate::linalg::LinalgError`] — but the entry points
//! ([`crate::eval::evaluate_gzsl`], [`crate::eval::cross_validate`],
//! [`crate::model::EszslTrainer::fit`], every [`crate::trainer::Trainer`]
//! impl, the [`crate::pipeline::Pipeline`] facade, and the `.zsm` model
//! artifacts) all return one [`ZslError`], so callers gluing stages together
//! thread one error type through every seam. Its variants are `Data`,
//! `Train` and `Config`.
//!
//! Every variant that wraps an inner error reports it through
//! [`std::error::Error::source`], so `anyhow`-style chain printers and
//! `error.source()` walks see the full causal chain.

use crate::data::DataError;
use crate::model::TrainError;

/// Unified error of the pipeline API: everything that can go wrong between
/// opening a [`crate::source::FeatureSource`] and producing a
/// [`crate::eval::GzslReport`] or a saved `.zsm` artifact.
#[derive(Debug)]
pub enum ZslError {
    /// Reading, writing, or validating on-disk data (dataset bundles, feature
    /// streams, `.zsm` model artifacts) failed.
    Data(DataError),
    /// Model training failed (bad shapes, labels, regularizers, or an
    /// unfactorable Gram matrix).
    Train(TrainError),
    /// The pipeline or evaluation configuration is unusable (bad fold count,
    /// empty grid, mismatched signature bank, ...).
    Config(String),
}

impl std::fmt::Display for ZslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZslError::Data(e) => write!(f, "data error: {e}"),
            ZslError::Train(e) => write!(f, "training error: {e}"),
            ZslError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ZslError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZslError::Data(e) => Some(e),
            ZslError::Train(e) => Some(e),
            ZslError::Config(_) => None,
        }
    }
}

impl From<DataError> for ZslError {
    fn from(e: DataError) -> Self {
        ZslError::Data(e)
    }
}

impl From<TrainError> for ZslError {
    fn from(e: TrainError) -> Self {
        ZslError::Train(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::LinalgError;
    use std::error::Error;

    #[test]
    fn source_chains_reach_the_innermost_error() {
        let inner = LinalgError::NotPositiveDefinite { pivot_index: 3 };
        let train = TrainError::Solver(inner.clone());
        let top = ZslError::from(train);
        // ZslError -> TrainError -> LinalgError.
        let level1 = top.source().expect("train source");
        assert!(level1.to_string().contains("solver"));
        let level2 = level1.source().expect("linalg source");
        assert!(level2.to_string().contains("positive-definite"));
        assert!(level2.source().is_none());
    }
}
