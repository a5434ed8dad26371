//! The documented front door: a builder facade over the pipeline stages.
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
//! let report = Pipeline::from(&ds).cross_validate(&cv)?.train()?.evaluate()?;
//! assert!(report.harmonic_mean > 0.9);
//! # Ok(())
//! # }
//! ```
//!
//! [`Pipeline`] wires the generic stages together — `(γ, λ)` selection via
//! [`cross_validate`], a final fit via the pipeline's [`Trainer`]
//! (ESZSL by default; [`Pipeline::with_trainer`] swaps in any other family,
//! e.g. [`crate::trainer::SaeTrainer`] or
//! [`crate::trainer::KernelEszslTrainer`]), GZSL scoring via
//! [`evaluate_gzsl_with`] — over any [`FeatureSource`], held as a
//! `&dyn FeatureSource` and handed to each stage as it is: swap the
//! in-memory dataset above for a [`crate::data::StreamingBundle`] and the
//! same chain runs out-of-core with bit-identical numbers. The model choice
//! is sticky: the trainer set once governs the sweep, the final fit, and the
//! artifact's provenance metadata. Each stage is a thin delegation, so the
//! facade adds no measurable overhead over calling the stages directly: the
//! benchmark's `train-xlsa` op runs this facade and its traced replay calls
//! the stages one by one, so a facade cost would show in that workload's
//! `trace.overhead` (traced ÷ untraced op wall − 1; see `bench/README.md`).
//!
//! A trained pipeline exposes its [`ScoringEngine`] and can persist it as a
//! `.zsm` artifact ([`TrainedPipeline::save`]) whose provenance metadata
//! records the hyperparameters — serving then boots from that file alone
//! ([`ScoringEngine::load`] + [`evaluate_gzsl_with`] or raw `predict`).

use crate::error::ZslError;
use crate::eval::{cross_validate, evaluate_gzsl_with, CrossValConfig, CrossValReport, GzslReport};
use crate::infer::{ScoringEngine, Similarity};
use crate::model::EszslTrainer;
use crate::source::FeatureSource;
use crate::trainer::{TrainedModel, Trainer};
use std::path::Path;

/// Untrained pipeline: a source plus the trainer to fit on it.
///
/// Build one with `Pipeline::from(&source)` (a reference to any
/// [`FeatureSource`], or a `&dyn FeatureSource`), optionally choose the
/// trainer / similarity or run [`Pipeline::cross_validate`], then
/// [`Pipeline::train`].
#[derive(Clone, Debug)]
pub struct Pipeline<'a> {
    source: &'a dyn FeatureSource,
    /// The model family and its hyperparameters: [`EszslTrainer`] until
    /// [`Pipeline::with_trainer`] chooses another.
    trainer: Box<dyn Trainer>,
    /// `Some` once set explicitly (or adopted from a sweep); `None` means
    /// "nobody chose yet" and resolves to cosine at train time.
    similarity: Option<Similarity>,
    /// Calibrated-stacking penalty `γ_cal` applied to the seen-class prefix
    /// of the union bank at serving time; 0 disables calibration (the
    /// historical behavior, bit-for-bit).
    calibration: f64,
    cv: Option<CrossValReport>,
}

impl<'a> From<&'a dyn FeatureSource> for Pipeline<'a> {
    /// Start a pipeline over `source` with the default configuration
    /// (ESZSL, γ = λ = 1, cosine similarity).
    fn from(source: &'a dyn FeatureSource) -> Self {
        Pipeline {
            source,
            trainer: Box::new(EszslTrainer::default()),
            similarity: None,
            calibration: 0.0,
            cv: None,
        }
    }
}

impl<'a, S: FeatureSource + 'a> From<&'a S> for Pipeline<'a> {
    /// Start a pipeline over a concrete source (`&Dataset`,
    /// `&StreamingBundle`, `&MemorySource`), exactly as over the same source
    /// passed as a `&dyn FeatureSource`.
    fn from(source: &'a S) -> Self {
        Pipeline::from(source as &dyn FeatureSource)
    }
}

impl<'a> Pipeline<'a> {
    /// Choose the model family and its configuration: any [`Trainer`] —
    /// [`EszslTrainer`] (e.g. `EszslConfig::new().gamma(0.5).build()`),
    /// [`crate::trainer::SaeTrainer`],
    /// [`crate::trainer::KernelEszslTrainer`], or a custom impl. The choice
    /// is sticky: [`Pipeline::cross_validate`] sweeps this trainer's own
    /// grid, [`Pipeline::train`] refits it at the winning point, and
    /// [`TrainedPipeline::save`] records its [`Trainer::describe`] string as
    /// artifact provenance.
    pub fn with_trainer<T: Trainer + 'static>(mut self, trainer: T) -> Self {
        self.trainer = Box::new(trainer);
        self
    }

    /// Set the similarity used for scoring and evaluation. An explicit
    /// choice here is sticky: a later [`Pipeline::cross_validate`] sweeps
    /// *under* it rather than overwriting it.
    pub fn similarity(mut self, similarity: Similarity) -> Self {
        self.similarity = Some(similarity);
        self
    }

    /// Set the calibrated-stacking penalty `γ_cal` directly: the trained
    /// engine subtracts it from every seen-class score, trading a little
    /// seen accuracy for unseen accuracy in GZSL reports. `0` (the default)
    /// disables calibration. A later [`Pipeline::cross_validate`] whose
    /// [`CrossValConfig::calibrations`] grid is non-trivial overwrites this
    /// with the sweep winner.
    pub fn calibration(mut self, gamma_cal: f64) -> Self {
        self.calibration = gamma_cal;
        self
    }

    /// Select `(γ, λ)` by seeded k-fold cross-validation of this pipeline's
    /// trainer on the source's trainval split and adopt the winning point
    /// for the subsequent [`Pipeline::train`]. The full [`CrossValReport`]
    /// is retained and available from the trained pipeline.
    ///
    /// The sweep reads the pipeline's source — normalized rows, when it is a
    /// [`crate::source::Normalized`] adapter — under any similarity set via
    /// [`Pipeline::similarity`], so hyperparameters are always selected for
    /// the exact model `train()` will fit and serve. When no similarity was
    /// set on the pipeline, the sweep's similarity is adopted for training.
    /// A [`CrossValConfig`] that enables normalization is a typed
    /// [`ZslError::Config`] (see [`cross_validate`]).
    pub fn cross_validate(mut self, config: &CrossValConfig) -> Result<Self, ZslError> {
        let mut sweep = config.clone();
        if let Some(similarity) = self.similarity {
            sweep.similarity = similarity;
        }
        let cv = cross_validate(self.trainer.as_ref(), self.source, &sweep)?;
        self.trainer = self.trainer.with_point(cv.best.gamma, cv.best.lambda);
        self.similarity = Some(sweep.similarity);
        self.calibration = cv.best.calibration;
        self.cv = Some(cv);
        Ok(self)
    }

    /// Fit the pipeline's trainer on the trainval split and build the
    /// serving engine over the source's union signature bank, applying any
    /// calibrated-stacking penalty to the bank's seen-class prefix.
    pub fn train(self) -> Result<TrainedPipeline<'a>, ZslError> {
        let similarity = self.similarity.unwrap_or_default();
        let model = self.trainer.fit(self.source)?;
        // Fallible construction + calibration: this path feeds artifacts and
        // servers, so malformed parts (or a γ_cal that cannot apply) must be
        // typed errors, not panics. γ_cal = 0 leaves the engine untouched.
        let engine = ScoringEngine::try_new(model, self.source.union_signatures(), similarity)?
            .with_calibration(self.calibration, self.source.num_seen_classes())?;
        Ok(TrainedPipeline {
            source: self.source,
            engine,
            trainer: self.trainer,
            cv: self.cv,
        })
    }
}

/// A trained pipeline: the scoring engine plus the source it came from.
#[derive(Clone, Debug)]
pub struct TrainedPipeline<'a> {
    source: &'a dyn FeatureSource,
    engine: ScoringEngine,
    trainer: Box<dyn Trainer>,
    cv: Option<CrossValReport>,
}

impl TrainedPipeline<'_> {
    /// Run the GZSL protocol on the source's test splits — bit-identical to
    /// [`crate::eval::evaluate_gzsl`] with this pipeline's model.
    pub fn evaluate(&self) -> Result<GzslReport, ZslError> {
        evaluate_gzsl_with(&self.engine, self.source)
    }

    /// The serving engine (cached union bank, parallel scoring).
    pub fn engine(&self) -> &ScoringEngine {
        &self.engine
    }

    /// The trained model (any family).
    pub fn model(&self) -> &TrainedModel {
        self.engine.model()
    }

    /// The trainer that produced this model, after any cross-validated
    /// `(γ, λ)` adoption.
    pub fn trainer(&self) -> &dyn Trainer {
        self.trainer.as_ref()
    }

    /// The cross-validation report, when [`Pipeline::cross_validate`] ran.
    pub fn cv_report(&self) -> Option<&CrossValReport> {
        self.cv.as_ref()
    }

    /// Persist the engine as a `.zsm` artifact whose provenance metadata
    /// records how it was trained — the trainer's [`Trainer::describe`]
    /// string (family, hyperparameters), which rows the source normalizes
    /// ([`FeatureSource::normalizes`]), the similarity, and the class
    /// counts — so a serving process can boot from this file alone and an
    /// operator can later tell artifacts apart.
    pub fn save(&self, path: &Path) -> Result<(), ZslError> {
        let (features, signatures) = self.source.normalizes();
        let mut metadata = format!(
            "{}; normalize_features={features}; normalize_signatures={signatures}; \
             similarity={}; seen_classes={}; unseen_classes={}",
            self.trainer.describe(),
            self.engine.similarity(),
            self.source.num_seen_classes(),
            self.source.num_unseen_classes(),
        );
        if let Some((gamma_cal, _)) = self.engine.seen_calibration() {
            metadata.push_str(&format!("; gamma_cal={gamma_cal}"));
        }
        self.engine.save_with_metadata(path, &metadata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticConfig;
    use crate::model::EszslConfig;
    use crate::source::Normalized;

    #[test]
    fn facade_matches_the_direct_protocol_bit_for_bit() {
        // The direct protocol, stage by stage: sweep the default trainer,
        // refit at the winner, build the union-bank engine, evaluate.
        let ds = SyntheticConfig::new().seed(404).build();
        let config = CrossValConfig::new()
            .gammas(vec![0.1, 1.0])
            .lambdas(vec![1.0])
            .folds(3)
            .seed(9);
        let direct_cv = cross_validate(&EszslTrainer::default(), &ds, &config).expect("direct cv");
        let direct_trainer = EszslConfig::new()
            .gamma(direct_cv.best.gamma)
            .lambda(direct_cv.best.lambda)
            .build();
        let direct_model = direct_trainer.fit(&ds).expect("direct fit");
        let direct_engine =
            ScoringEngine::try_new(direct_model, ds.all_signatures(), config.similarity)
                .and_then(|e| e.with_calibration(direct_cv.best.calibration, ds.num_seen_classes()))
                .expect("engine");
        let direct_report = evaluate_gzsl_with(&direct_engine, &ds).expect("direct evaluate");

        let trained = Pipeline::from(&ds)
            .cross_validate(&config)
            .expect("cv")
            .train()
            .expect("train");
        assert_eq!(trained.cv_report(), Some(&direct_cv));
        assert_eq!(trained.trainer().describe(), direct_trainer.describe());
        assert_eq!(
            trained.engine().signatures().as_slice(),
            direct_engine.signatures().as_slice()
        );
        assert_eq!(
            trained
                .model()
                .projection()
                .expect("linear")
                .weights()
                .as_slice(),
            direct_engine
                .model()
                .projection()
                .expect("linear")
                .weights()
                .as_slice()
        );
        let report = trained.evaluate().expect("evaluate");
        assert_eq!(report, direct_report);
    }

    #[test]
    fn cross_validation_sweeps_under_the_pipelines_normalization() {
        // Selecting (γ, λ) on raw features and then training on normalized
        // ones would tune a different model than the one shipped; over a
        // normalized source the sweep, the final fit and the evaluation all
        // read the normalized rows.
        let ds = SyntheticConfig::new().seed(88).build();
        let normalized = Normalized::new(&ds, true, true);
        let cfg = CrossValConfig::new()
            .gammas(vec![0.1, 1.0])
            .lambdas(vec![0.1, 1.0])
            .folds(3)
            .seed(5);
        let trained = Pipeline::from(&normalized)
            .cross_validate(&cfg)
            .expect("cv")
            .train()
            .expect("train");
        let normalized_sweep =
            cross_validate(&EszslTrainer::default(), &normalized, &cfg).expect("normalized cv");
        assert_eq!(trained.cv_report(), Some(&normalized_sweep));
        // The normalized rows reach the final fit at the adopted (γ, λ).
        let direct = EszslConfig::new()
            .gamma(normalized_sweep.best.gamma)
            .lambda(normalized_sweep.best.lambda)
            .build();
        assert_eq!(trained.trainer().describe(), direct.describe());
        let model = direct.fit(&normalized).expect("fit");
        assert_eq!(
            trained
                .model()
                .projection()
                .expect("linear")
                .weights()
                .as_slice(),
            model.weights().as_slice()
        );
        // ...and the evaluation, against the normalized union bank.
        let engine = ScoringEngine::try_new(model, normalized.union_signatures(), cfg.similarity)
            .expect("engine");
        assert_eq!(
            trained.evaluate().expect("evaluate"),
            evaluate_gzsl_with(&engine, &normalized).expect("direct evaluate")
        );
    }

    #[test]
    fn contradictory_sweep_normalization_is_a_typed_error() {
        // Asking the sweep for normalization must fail loudly, not silently
        // run an un-normalized sweep: normalization belongs to the source.
        let ds = SyntheticConfig::new().seed(14).build();
        let plain = CrossValConfig::new()
            .gammas(vec![1.0])
            .lambdas(vec![1.0])
            .folds(2);
        let mut flagged = plain.clone();
        flagged.normalize_features = true;
        let err = Pipeline::from(&ds).cross_validate(&flagged).unwrap_err();
        assert!(
            matches!(&err, ZslError::Config(msg) if msg.contains("Normalized")),
            "got {err:?}"
        );
        // A normalized source does not make the flagged sweep valid; the
        // flag belongs on the source only.
        let normalized = Normalized::new(&ds, true, false);
        let err = Pipeline::from(&normalized)
            .cross_validate(&flagged)
            .unwrap_err();
        assert!(matches!(err, ZslError::Config(_)), "got {err:?}");
        Pipeline::from(&normalized)
            .cross_validate(&plain)
            .expect("normalization set on the source");
    }

    #[test]
    fn explicit_similarity_is_sticky_through_cross_validation() {
        // similarity(Dot) then cross_validate must sweep under Dot and serve
        // Dot — not silently reset to the CrossValConfig's cosine.
        let ds = SyntheticConfig::new().seed(66).build();
        let cfg = CrossValConfig::new()
            .gammas(vec![0.1, 1.0])
            .lambdas(vec![1.0])
            .folds(3)
            .seed(2);
        let trained = Pipeline::from(&ds)
            .similarity(Similarity::Dot)
            .cross_validate(&cfg)
            .expect("cv")
            .train()
            .expect("train");
        assert_eq!(trained.engine().similarity(), Similarity::Dot);
        let dot_sweep = cross_validate(
            &EszslTrainer::default(),
            &ds,
            &cfg.clone().similarity(Similarity::Dot),
        )
        .expect("dot cv");
        assert_eq!(trained.cv_report(), Some(&dot_sweep));
        // Without an explicit choice, the sweep's similarity is adopted.
        let adopted = Pipeline::from(&ds)
            .cross_validate(&cfg.similarity(Similarity::Dot))
            .expect("cv")
            .train()
            .expect("train");
        assert_eq!(adopted.engine().similarity(), Similarity::Dot);
    }

    #[test]
    fn facade_without_cv_uses_the_given_config() {
        let ds = SyntheticConfig::new().seed(21).build();
        let eszsl = EszslConfig::new().gamma(0.5).lambda(2.0).build();
        let trained = Pipeline::from(&ds)
            .with_trainer(eszsl.clone())
            .similarity(Similarity::Dot)
            .train()
            .expect("train");
        assert!(trained.cv_report().is_none());
        let direct = eszsl.fit(&ds).expect("fit");
        assert_eq!(
            trained
                .model()
                .projection()
                .expect("linear")
                .weights()
                .as_slice(),
            direct.weights().as_slice()
        );
        assert_eq!(trained.engine().similarity(), Similarity::Dot);
        assert_eq!(trained.trainer().describe(), eszsl.describe());
    }

    #[test]
    fn trainer_override_is_sticky_from_sweep_to_artifact_metadata() {
        use crate::trainer::{ModelFamily, SaeConfig, SaeTrainer};

        let ds = SyntheticConfig::new().seed(31).build();
        let cfg = CrossValConfig::new()
            .gammas(vec![1.0])
            .lambdas(vec![0.1, 1.0, 10.0])
            .folds(3)
            .seed(8);
        let trained = Pipeline::from(&ds)
            .with_trainer(SaeTrainer::new(SaeConfig::new()))
            .cross_validate(&cfg)
            .expect("cv")
            .train()
            .expect("train");
        assert_eq!(trained.model().family(), ModelFamily::Sae);
        // Same numbers as the direct stages: sweep, refit at the winner,
        // evaluate over the union bank.
        let sae = SaeTrainer::new(SaeConfig::new());
        let direct_cv = cross_validate(&sae, &ds, &cfg).expect("direct cv");
        assert_eq!(trained.cv_report(), Some(&direct_cv));
        let refit = sae
            .with_point(direct_cv.best.gamma, direct_cv.best.lambda)
            .fit(&ds)
            .expect("refit");
        let engine =
            ScoringEngine::try_new(refit, ds.all_signatures(), cfg.similarity).expect("engine");
        assert_eq!(
            trained.evaluate().expect("evaluate"),
            evaluate_gzsl_with(&engine, &ds).expect("direct evaluate")
        );
        // The adopted λ shows up in the provenance the artifact will carry.
        let description = trained.trainer().describe();
        assert!(
            description.contains(&format!("trainer=sae; lambda={}", direct_cv.best.lambda)),
            "got {description}"
        );
    }

    #[test]
    fn trainer_override_rejects_sweep_normalization() {
        use crate::trainer::{SaeConfig, SaeTrainer};

        let ds = SyntheticConfig::new().seed(13).build();
        let mut cfg = CrossValConfig::new()
            .gammas(vec![1.0])
            .lambdas(vec![1.0])
            .folds(2);
        cfg.normalize_features = true;
        let err = Pipeline::from(&ds)
            .with_trainer(SaeTrainer::new(SaeConfig::new()))
            .cross_validate(&cfg)
            .unwrap_err();
        assert!(
            matches!(&err, ZslError::Config(msg) if msg.contains("sae") && msg.contains("Normalized")),
            "got {err:?}"
        );
    }
}
