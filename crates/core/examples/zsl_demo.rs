//! Minimal end-to-end demo of the zero-shot pipeline:
//! synthesize a dataset, train the closed-form ESZSL model on seen classes,
//! classify held-out unseen classes through the cached parallel
//! [`ScoringEngine`], and report ZSL + GZSL metrics.
//!
//! Run with: `cargo run --example zsl_demo`

use zsl_core::data::SyntheticConfig;
use zsl_core::infer::{harmonic_mean, mean_per_class_accuracy, ScoringEngine, Similarity};
use zsl_core::linalg::default_threads;
use zsl_core::model::EszslConfig;

fn main() {
    let ds = SyntheticConfig::new()
        .classes(20, 5)
        .dims(16, 32)
        .samples(30, 20)
        .noise(0.05)
        .seed(2026)
        .build();
    let num_seen = ds.seen_signatures.rows();
    let num_unseen = ds.unseen_signatures.rows();

    let model = EszslConfig::new()
        .gamma(1.0)
        .lambda(1.0)
        .build()
        .fit(&ds)
        .expect("fit failed");

    // Classic ZSL: candidates are unseen classes only. The engine validates
    // and normalizes the signature bank once, then scores every batch through
    // the multi-threaded packed X·Sᵀ path.
    let zsl = ScoringEngine::new(
        model.clone(),
        ds.unseen_signatures.clone(),
        Similarity::Cosine,
    );
    println!("scoring threads            : {}", default_threads());
    let unseen_pred = zsl.predict(&ds.test_unseen_x);
    let zsl_acc = mean_per_class_accuracy(&unseen_pred, &ds.test_unseen_labels, num_unseen);

    // Generalized ZSL: candidates are the union of seen and unseen classes.
    let gzsl = ScoringEngine::new(model, ds.all_signatures(), Similarity::Cosine);
    let seen_pred = gzsl.predict(&ds.test_seen_x);
    let seen_acc = mean_per_class_accuracy(&seen_pred, &ds.test_seen_labels, num_seen);
    let gzsl_unseen_pred = gzsl.predict(&ds.test_unseen_x);
    let gzsl_unseen_truth: Vec<usize> = ds
        .test_unseen_labels
        .iter()
        .map(|&l| l + num_seen)
        .collect();
    let gzsl_unseen_acc =
        mean_per_class_accuracy(&gzsl_unseen_pred, &gzsl_unseen_truth, num_seen + num_unseen);

    println!("ZSL  unseen-class accuracy : {zsl_acc:.4}");
    println!("GZSL seen accuracy         : {seen_acc:.4}");
    println!("GZSL unseen accuracy       : {gzsl_unseen_acc:.4}");
    println!(
        "GZSL harmonic mean         : {:.4}",
        harmonic_mean(seen_acc, gzsl_unseen_acc)
    );
}
