//! Minimal end-to-end demo of the zero-shot pipeline:
//! synthesize a dataset, train the closed-form ESZSL model on seen classes,
//! classify held-out unseen classes through the cached parallel
//! [`ScoringEngine`], and report ZSL + GZSL metrics.
//!
//! Run with: `cargo run --example zsl_demo`

use zsl_core::data::SyntheticConfig;
use zsl_core::eval::evaluate_gzsl_with;
use zsl_core::infer::{ClassAccuracyCounter, ScoringEngine, Similarity};
use zsl_core::linalg::default_threads;
use zsl_core::model::EszslConfig;
use zsl_core::ZslError;

fn main() -> Result<(), ZslError> {
    let ds = SyntheticConfig::new()
        .classes(20, 5)
        .dims(16, 32)
        .samples(30, 20)
        .noise(0.05)
        .seed(2026)
        .build();

    let model = EszslConfig::new().gamma(1.0).lambda(1.0).build().fit(&ds)?;

    // Classic ZSL: candidates are unseen classes only. The engine validates
    // and normalizes the signature bank once, then scores every batch through
    // the multi-threaded packed X·Sᵀ path.
    let zsl = ScoringEngine::try_new(
        model.clone(),
        ds.unseen_signatures.clone(),
        Similarity::Cosine,
    )?;
    println!("scoring threads            : {}", default_threads());
    let mut zsl_acc = ClassAccuracyCounter::new(ds.unseen_signatures.rows());
    zsl_acc.observe(&zsl.predict(&ds.test_unseen_x), &ds.test_unseen_labels);

    // Generalized ZSL: candidates are the union of seen and unseen classes,
    // and both test splits are scored against that one bank.
    let gzsl = ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine)?;
    let report = evaluate_gzsl_with(&gzsl, &ds)?;

    println!("ZSL  unseen-class accuracy : {:.4}", zsl_acc.mean());
    println!("GZSL seen accuracy         : {:.4}", report.seen_accuracy);
    println!("GZSL unseen accuracy       : {:.4}", report.unseen_accuracy);
    println!("GZSL harmonic mean         : {:.4}", report.harmonic_mean);
    Ok(())
}
