//! CLI for the unified pipeline: export bundles, run the CV → train →
//! evaluate chain through the [`Pipeline`] facade, and serve saved models.
//!
//! ```sh
//! # Write a synthetic bundle (features.zsb + signatures.csv + splits.txt):
//! cargo run --release --example eval_dataset -- export /tmp/zsl_bundle
//! cargo run --release --example eval_dataset -- export /tmp/zsl_bundle --seed 7
//! # (a bundle whose features are CSV is converted once, in place:
//! #  cargo run --release -p zsl-mat --bin zsl-import -- --features-csv <dir>)
//!
//! # Load it, grid-search hyperparameters with seeded k-fold CV, evaluate:
//! cargo run --release --example eval_dataset -- eval /tmp/zsl_bundle
//! cargo run --release --example eval_dataset -- eval /tmp/zsl_bundle --folds 5 --sim dot
//!
//! # Swap the model family — every trainer runs through the same
//! # CV → fit → evaluate path (SAE sweeps only λ; the RBF kernel defaults
//! # its width to 1/d):
//! cargo run --release --example eval_dataset -- eval /tmp/zsl_bundle --model sae
//! cargo run --release --example eval_dataset -- train /tmp/zsl_bundle --model eszsl-rbf --save /tmp/model.zsm
//!
//! # Same protocol, but out-of-core: features are streamed from disk in
//! # --chunk-rows blocks and never materialized (bit-identical reports):
//! cargo run --release --example eval_dataset -- eval /tmp/zsl_bundle --stream --chunk-rows 1024
//!
//! # Train once, persist the engine as a versioned .zsm artifact:
//! cargo run --release --example eval_dataset -- train /tmp/zsl_bundle --save /tmp/model.zsm
//!
//! # Serve: boot from the artifact alone (no training data, no re-solve)
//! # and score a bundle's test splits:
//! cargo run --release --example eval_dataset -- predict /tmp/zsl_bundle --load /tmp/model.zsm
//!
//! # Or serve the same artifact as a long-running daemon (coalesced
//! # batching + hot-swap on re-save; see crates/serve):
//! cargo run --release -p zsl-serve -- /tmp/model.zsm
//! ```
//!
//! Every subcommand but `export` opens the bundle with `StreamingBundle`.
//! With `--stream`, the same code path then reads features
//! chunk-at-a-time through the bundle's `FeatureSource` impl; without it,
//! through the `Dataset` the bundle materializes. Results are bit-identical.

use std::path::PathBuf;
use std::process::ExitCode;
use zsl_core::data::{export_dataset, StreamingBundle, SyntheticConfig};
use zsl_core::eval::{evaluate_gzsl_with, CrossValConfig};
use zsl_core::infer::{ScoringEngine, Similarity};
use zsl_core::source::{FeatureSource, SplitKind};
use zsl_core::trainer::{KernelEszslConfig, KernelKind, SaeConfig};
use zsl_core::Pipeline;

/// Model family selected with `--model`; each dispatches to its [`Trainer`]
/// through the same [`Pipeline`] facade.
///
/// [`Trainer`]: zsl_core::trainer::Trainer
#[derive(Clone, Copy, PartialEq, Eq)]
enum ModelChoice {
    Eszsl,
    Sae,
    EszslRbf,
}

impl std::str::FromStr for ModelChoice {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "eszsl" => Ok(Self::Eszsl),
            "sae" => Ok(Self::Sae),
            "eszsl-rbf" => Ok(Self::EszslRbf),
            _ => Err(()),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  eval_dataset export <dir> [--seed N]\n  \
         eval_dataset eval <dir> [--model eszsl|sae|eszsl-rbf] [--folds K] [--seed N] \
         [--sim cosine|dot] [--stream] [--chunk-rows N]\n  \
         eval_dataset train <dir> --save <model.zsm> [--model eszsl|sae|eszsl-rbf] \
         [--folds K] [--seed N] [--sim cosine|dot] [--stream] [--chunk-rows N]\n  \
         eval_dataset predict <dir> --load <model.zsm> [--stream] [--chunk-rows N]\n\n\
         A bundle is features.zsb + signatures.csv + splits.txt; convert a features.csv\n\
         with `zsl-import --features-csv <dir>` first."
    );
    ExitCode::FAILURE
}

/// Open the bundle and hand it to `run` through the one generic
/// `FeatureSource` interface: the opened bundle itself (`--stream`), or the
/// `Dataset` it materializes — the same code path serves in-memory and
/// out-of-core ingestion. The feature width rides along because the trait
/// hides it (trainers learn it from the stream).
fn with_source(
    dir: &std::path::Path,
    stream: bool,
    chunk_rows: usize,
    run: impl FnOnce(&dyn FeatureSource, usize) -> ExitCode,
) -> ExitCode {
    let bundle = match StreamingBundle::open(dir, chunk_rows) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("failed to open bundle {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let d = bundle.feature_dim();
    let shape = format!(
        "{} samples x {d} features, {} classes x {} attributes",
        bundle.num_samples(),
        bundle.num_classes(),
        bundle.attr_dim()
    );
    if !stream {
        println!("bundle: {shape}");
        return match bundle.to_dataset() {
            Ok(ds) => run(&ds, d),
            Err(e) => {
                eprintln!("failed to read bundle {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        };
    }
    println!("streaming bundle: {shape}");
    // A chunk never exceeds the table, so clamp before estimating;
    // saturating math keeps absurd --chunk-rows values from wrapping.
    let effective_chunk = chunk_rows.min(bundle.num_samples());
    println!(
        "chunk_rows {chunk_rows}: peak resident feature memory ≈ {} KiB (vs {} KiB materialized)",
        effective_chunk.saturating_mul(d).saturating_mul(8) / 1024,
        bundle.num_samples().saturating_mul(d).saturating_mul(8) / 1024
    );
    run(&bundle, d)
}

fn print_splits(source: &dyn FeatureSource) {
    println!(
        "splits: {} trainval / {} test_seen / {} test_unseen ({} seen, {} unseen classes)",
        source.split_len(SplitKind::Trainval),
        source.split_len(SplitKind::TestSeen),
        source.split_len(SplitKind::TestUnseen),
        source.num_seen_classes(),
        source.num_unseen_classes()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, dir) = match (args.first(), args.get(1)) {
        (Some(command), Some(dir)) => (command.as_str(), PathBuf::from(dir)),
        _ => return usage(),
    };

    // Shared flag parsing for the tail of the argument list. Flags only
    // meaningful for another subcommand are rejected, not silently swallowed
    // (an ignored `--stream` on export would fake streamed-path coverage).
    let allowed: &[&str] = match command {
        "export" => &["--seed"],
        "train" => &[
            "--seed",
            "--folds",
            "--sim",
            "--stream",
            "--chunk-rows",
            "--save",
            "--model",
        ],
        "predict" => &["--stream", "--chunk-rows", "--load"],
        _ => &[
            "--seed",
            "--folds",
            "--sim",
            "--stream",
            "--chunk-rows",
            "--model",
        ],
    };
    let mut seed: u64 = 2026;
    let mut folds: usize = 3;
    let mut similarity = Similarity::Cosine;
    let mut stream = false;
    let mut chunk_rows: usize = 4096;
    let mut model_path: Option<PathBuf> = None;
    let mut model_choice = ModelChoice::Eszsl;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        if !allowed.contains(&flag.as_str()) {
            eprintln!("flag '{flag}' is not valid for '{command}'");
            return usage();
        }
        match flag.as_str() {
            "--stream" => stream = true,
            "--seed" | "--folds" | "--sim" | "--chunk-rows" | "--save" | "--load" | "--model" => {
                let Some(value) = rest.next() else {
                    eprintln!("{flag} needs a value");
                    return usage();
                };
                let ok = match flag.as_str() {
                    "--seed" => value.parse().map(|v| seed = v).is_ok(),
                    "--folds" => value.parse().map(|v| folds = v).is_ok(),
                    "--chunk-rows" => value.parse().map(|v| chunk_rows = v).is_ok(),
                    "--save" | "--load" => {
                        model_path = Some(PathBuf::from(value));
                        true
                    }
                    "--model" => value.parse().map(|v| model_choice = v).is_ok(),
                    _ => value.parse().map(|v| similarity = v).is_ok(),
                };
                if !ok {
                    eprintln!("bad value '{value}' for {flag}");
                    return usage();
                }
            }
            _ => unreachable!("flag was checked against the allow-list"),
        }
    }

    match command {
        "export" => {
            let ds = SyntheticConfig::new()
                .classes(20, 5)
                .dims(16, 32)
                .samples(30, 20)
                .noise(0.05)
                .seed(seed)
                .build();
            match export_dataset(&ds, &dir) {
                Ok(path) => {
                    println!(
                        "exported synthetic bundle (seed {seed}, {} samples, {} classes) to {}",
                        ds.train_x.rows() + ds.test_seen_x.rows() + ds.test_unseen_x.rows(),
                        ds.num_classes(),
                        path.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("export failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "eval" | "train" => {
            let save_to = match (command, model_path) {
                ("train", Some(path)) => Some(path),
                ("train", None) => {
                    eprintln!("'train' needs --save <model.zsm>");
                    return usage();
                }
                (_, p) => p,
            };
            let config = CrossValConfig::new()
                .folds(folds)
                .seed(seed)
                .similarity(similarity);
            with_source(&dir, stream, chunk_rows, |source, feature_dim| {
                print_splits(source);
                // The documented front door: CV → fit → (evaluate | save).
                // `--model` swaps the trainer; everything downstream (the
                // sweep, the fit, the .zsm payload) follows the choice.
                let pipeline = match model_choice {
                    ModelChoice::Eszsl => Pipeline::from(source),
                    ModelChoice::Sae => {
                        Pipeline::from(source).with_trainer(SaeConfig::new().build())
                    }
                    ModelChoice::EszslRbf => {
                        // Median-free heuristic: width 1/d keeps the squared
                        // distances in the exponent O(1) for unit-ish features.
                        let width = 1.0 / feature_dim as f64;
                        Pipeline::from(source).with_trainer(
                            KernelEszslConfig::new()
                                .kernel(KernelKind::Rbf { width })
                                .build(),
                        )
                    }
                };
                let trained = match pipeline.cross_validate(&config) {
                    Ok(p) => match p.train() {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("training failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    Err(e) => {
                        eprintln!("cross-validation failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let cv = trained.cv_report().expect("cross_validate ran");
                println!(
                    "\n{}-fold CV over {} grid points (seed {seed}, {similarity} similarity{}):",
                    cv.folds,
                    cv.grid.len(),
                    if stream { ", streamed" } else { "" }
                );
                for point in &cv.grid {
                    println!(
                        "  gamma={:<8} lambda={:<8} val acc {:.4}",
                        point.gamma, point.lambda, point.mean_accuracy
                    );
                }
                println!(
                    "selected gamma={} lambda={} (val acc {:.4})",
                    cv.best.gamma, cv.best.lambda, cv.best.mean_accuracy
                );
                println!("model: {}", trained.trainer().describe());
                println!();
                if let Some(path) = &save_to {
                    if let Err(e) = trained.save(path) {
                        eprintln!("saving model artifact failed: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("saved model artifact to {}", path.display());
                }
                match trained.evaluate() {
                    Ok(report) => {
                        println!("{report}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("evaluation failed: {e}");
                        ExitCode::FAILURE
                    }
                }
            })
        }
        "predict" => {
            let Some(path) = model_path else {
                eprintln!("'predict' needs --load <model.zsm>");
                return usage();
            };
            // Serving boots from the artifact alone: the engine (projection,
            // cached bank, similarity) comes off disk with no training data
            // and no closed-form solve.
            let (engine, metadata) = match ScoringEngine::load_with_metadata(&path) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("failed to load model artifact {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "loaded {}: {} model, {} classes x {} attributes, {} similarity",
                path.display(),
                engine.model().family(),
                engine.num_classes(),
                engine.signatures().cols(),
                engine.similarity()
            );
            if !metadata.is_empty() {
                println!("provenance: {metadata}");
            }
            with_source(&dir, stream, chunk_rows, |source, _feature_dim| {
                print_splits(source);
                match evaluate_gzsl_with(&engine, source) {
                    Ok(report) => {
                        println!("\n{report}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("serving evaluation failed: {e}");
                        ExitCode::FAILURE
                    }
                }
            })
        }
        _ => usage(),
    }
}
