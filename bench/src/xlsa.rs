//! `train-xlsa`: the reproduction protocol on an xlsa17-shaped `.mat` pair.
//!
//! Set-up draws a seeded synthetic benchmark in the xlsa17 layout and writes
//! it as `res101.mat` + `att_splits.mat` with fixed-Huffman compressed
//! elements (`zsl_mat::MatWriter`). One op is the whole protocol: the import
//! (`MatBundle::open` + `convert_to_zsb`), `StreamingBundle::open`, the
//! default `(γ, λ)` cross-validation, the final fit, GZSL evaluation and the
//! `.zsm` save, all through `Pipeline`. Once per run, outside the timed ops,
//! every op's `GzslReport` must equal the in-memory `Pipeline`'s on the same
//! data, bit for bit.
//!
//! The traced replay runs the same op through the layers' public functions —
//! the cross-validation fold loop, `EszslProblem::solve` as
//! `Matrix::cholesky` + `Cholesky::solve_matrix`, the validation scoring —
//! and must reproduce the untraced op's reports, bundle files and artifact
//! byte for byte.

use crate::measure::{self, cpu_seconds, mean, peak_rss_mb, since, Steal};
use crate::report::{self, Collected};
use crate::trace::Tracer;
use crate::workdir::WorkDir;
use crate::{RunConfig, Scale};
use std::path::{Path, PathBuf};
use std::time::Instant;
use zsl_core::data::{
    ClassMap, DatasetBundle, Rng, SplitManifest, StreamingBundle, FEATURES_ZSB, SIGNATURES_CSV,
    SPLITS_TXT,
};
use zsl_core::model::{EszslProblem, GramAccumulator, ProjectionModel};
use zsl_core::{
    evaluate_gzsl_with, ClassAccuracyCounter, CrossValConfig, CrossValReport, EszslConfig,
    FeatureSource, GridPoint, GzslReport, Matrix, Pipeline, ScoringEngine,
};
use zsl_mat::{
    ArrayOpts, ByteOrder, Compression, MatBundle, MatFile, MatWriter, DEFAULT_CHUNK_ROWS,
};

/// A measured run times at least this many ops, however long they take.
const MIN_OPS: usize = 3;
/// A traced run alternates this many untraced ops with traced replays.
const ROUNDS: usize = 2;

struct Shape {
    seen: usize,
    unseen: usize,
    attr_dim: usize,
    feature_dim: usize,
    trainval_per_class: usize,
    test_seen_per_class: usize,
    test_unseen_per_class: usize,
    noise: f64,
    /// Rows per chunk of the streamed bundle.
    chunk_rows: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            seen: 40,
            unseen: 10,
            attr_dim: 32,
            feature_dim: 256,
            trainval_per_class: 80,
            test_seen_per_class: 20,
            test_unseen_per_class: 120,
            noise: 1.0,
            chunk_rows: 512,
        },
        Scale::Smoke => Shape {
            seen: 8,
            unseen: 3,
            attr_dim: 4,
            feature_dim: 8,
            trainval_per_class: 12,
            test_seen_per_class: 4,
            test_unseen_per_class: 6,
            noise: 0.3,
            chunk_rows: 16,
        },
    }
}

/// Run `train-xlsa`: the measured ops, or the traced replay.
pub fn run(config: &RunConfig, work: &WorkDir) -> Result<Collected, String> {
    let shape = shape(config.scale);
    if config.trace {
        trace(config, &shape, work)
    } else {
        measure(config, &shape, work)
    }
}

fn measure(config: &RunConfig, shape: &Shape, work: &WorkDir) -> Result<Collected, String> {
    let inputs_dir = work.path("inputs");
    let ((inputs, in_memory), setup_s) =
        measure::repeat_setup(|| setup(shape, config.seed, &inputs_dir))?;
    // Every op's report must equal the protocol run on the in-memory copy,
    // which is freed before the ops: they read only the `.mat` pair.
    let reference = in_memory_report(&in_memory)?;
    drop(in_memory);
    measure::reset_peak_rss()?;
    let out = work.path("op");
    let cpu0 = cpu_seconds()?;
    let steal0 = Steal::read()?;
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut reports = Vec::new();
    while latencies.len() < MIN_OPS || since(t0) < config.seconds {
        let t = Instant::now();
        let (_, report) = op(&inputs, &out, shape)?;
        latencies.push(since(t));
        reports.push(report);
    }
    let wall = since(t0);
    let cpu = cpu_seconds()? - cpu0;
    let stolen = steal0.share_since()?;
    let rss = peak_rss_mb()?;

    let mut c = Collected {
        attempted: reports.len() as u64,
        failed: reports.iter().filter(|r| **r != reference).count() as u64,
        ..Collected::default()
    };
    report::latency_metrics(&mut c, &latencies, wall, cpu, stolen);
    c.set("setup_s", setup_s);
    c.set("peak_rss_mb", rss);
    c.set("gzsl_h", reference.harmonic_mean);
    c.note("output check: each op's GzslReport against the in-memory Pipeline on the same data");
    Ok(c)
}

fn trace(config: &RunConfig, shape: &Shape, work: &WorkDir) -> Result<Collected, String> {
    let (inputs, _) = setup(shape, config.seed, &work.path("inputs"))?;
    let (plain, traced) = (work.path("plain"), work.path("traced"));
    let mut tracer = Tracer::new();
    let mut c = Collected::default();
    let mut untraced_walls = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let (cv, report) = op(&inputs, &plain, shape)?;
        untraced_walls.push(since(t));
        let metadata = saved_metadata(&plain)?;
        // The import's decode, replayed alone and attributed under the
        // conversion it is part of. It runs just before the replayed op,
        // whose conversion comes first, so the host's drift between the two
        // timings stays small next to the conversion's few-ms write.
        let (start, end) = decode_pass(&inputs.res)?;
        let (replayed_cv, replayed_report) =
            replay(&mut tracer, &inputs, &traced, shape, &metadata)?;
        let convert = tracer
            .last("mat.xlsa")
            .ok_or("the replay recorded no mat.xlsa span")?;
        tracer.record("mat.stream", Some(convert), start, end);
        let same = cv == replayed_cv && report == replayed_report && same_outputs(&plain, &traced)?;
        c.attempted += 2;
        c.failed += u64::from(!same);
    }
    c.set("mat.mat5.open_ms", tracer.self_per_op("mat.mat5") * 1e3);
    c.set("mat.stream.decode_s", tracer.self_per_op("mat.stream"));
    c.set("mat.xlsa.write_s", tracer.self_per_op("mat.xlsa"));
    c.set("core.data.read_s", tracer.self_per_op("core.data"));
    c.set("core.model.gram_s", tracer.self_per_op("core.model.gram"));
    c.set(
        "core.model.solves",
        tracer.count_per_op("core.model.solves"),
    );
    c.set(
        "core.linalg.cholesky_calls",
        tracer.count_per_op("core.linalg.cholesky_calls"),
    );
    c.set(
        "core.linalg.cholesky_s",
        tracer.self_per_op("core.linalg.cholesky"),
    );
    c.set(
        "core.linalg.triangular_s",
        tracer.self_per_op("core.linalg.triangular"),
    );
    c.set(
        "core.eval.validate_s",
        tracer.self_per_op("core.eval.validate"),
    );
    c.set("core.eval.gzsl_s", tracer.self_per_op("core.eval.gzsl"));
    c.set(
        "core.trainer.fit_s",
        tracer.inclusive_per_op("core.trainer"),
    );
    c.set(
        "core.artifact.save_ms",
        tracer.self_per_op("core.artifact.save") * 1e3,
    );
    c.set("trace.coverage", tracer.coverage());
    c.set(
        "trace.overhead",
        tracer.op_wall() / mean(&untraced_walls) - 1.0,
    );
    c.note("output check: each replay's CV report, GZSL report, bundle files and artifact against its untraced op");
    for (layer, share) in tracer.shares() {
        c.note(format!("share {layer} {share:.4}"));
    }
    tracer.write(&work.trace_file(config.workload.name(), config.seed)?)?;
    Ok(c)
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The written `.mat` pair.
struct Inputs {
    res: PathBuf,
    att: PathBuf,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Split {
    Trainval,
    TestSeen,
    TestUnseen,
}

/// Draw the benchmark from the seed and write it as an xlsa17 pair. Features
/// are noisy linear images of the class signatures, so a linear model
/// transfers to the unseen classes; samples are shuffled so the splits
/// interleave on disk, as in the published files. Returns the pair and the
/// same benchmark held in memory.
fn setup(shape: &Shape, seed: u64, dir: &Path) -> Result<(Inputs, DatasetBundle), String> {
    let mut rng = Rng::new(seed);
    let (a, d) = (shape.attr_dim, shape.feature_dim);
    let z = shape.seen + shape.unseen;
    // Row-major z x a is column-major a x z: the `att` layout as-is.
    let att: Vec<f64> = (0..z * a).map(|_| rng.uniform() * 2.0 - 1.0).collect();
    let scale = 1.0 / (a as f64).sqrt();
    let lift: Vec<f64> = (0..d * a).map(|_| rng.normal() * scale).collect();
    let mut prototypes = vec![0.0; z * d];
    for c in 0..z {
        for j in 0..d {
            prototypes[c * d + j] = (0..a).map(|k| lift[j * a + k] * att[c * a + k]).sum();
        }
    }

    let mut samples = Vec::new();
    for c in 0..shape.seen {
        samples.extend(std::iter::repeat_n(
            (c, Split::Trainval),
            shape.trainval_per_class,
        ));
        samples.extend(std::iter::repeat_n(
            (c, Split::TestSeen),
            shape.test_seen_per_class,
        ));
    }
    for c in shape.seen..z {
        samples.extend(std::iter::repeat_n(
            (c, Split::TestUnseen),
            shape.test_unseen_per_class,
        ));
    }
    rng.shuffle(&mut samples);
    let n = samples.len();
    // Row-major n x d is column-major d x n: one MATLAB column per sample.
    let mut features = Vec::with_capacity(n * d);
    for &(c, _) in &samples {
        for j in 0..d {
            features.push(prototypes[c * d + j] + shape.noise * rng.normal());
        }
    }
    let labels: Vec<u32> = samples.iter().map(|&(c, _)| c as u32 + 1).collect();
    let positions =
        |which: Split| -> Vec<usize> { (0..n).filter(|&i| samples[i].1 == which).collect() };
    let manifest = SplitManifest {
        trainval: positions(Split::Trainval),
        test_seen: positions(Split::TestSeen),
        test_unseen: positions(Split::TestUnseen),
        unseen_classes: Some((shape.seen as u32 + 1..=z as u32).collect()),
    };

    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let opts = ArrayOpts {
        compression: Compression::FixedHuffman,
        ..ArrayOpts::default()
    };
    let res = dir.join("res101.mat");
    let mut writer = MatWriter::new(ByteOrder::Little);
    writer.add_array("features", &[d, n], &features, opts);
    let labels_f64: Vec<f64> = labels.iter().map(|&l| f64::from(l)).collect();
    writer.add_array("labels", &[n, 1], &labels_f64, opts);
    writer
        .write_to(&res)
        .map_err(|e| format!("write {}: {e}", res.display()))?;

    let att_path = dir.join("att_splits.mat");
    let mut writer = MatWriter::new(ByteOrder::Little);
    writer.add_array("att", &[a, z], &att, opts);
    for (name, ix) in [
        ("trainval_loc", &manifest.trainval),
        ("test_seen_loc", &manifest.test_seen),
        ("test_unseen_loc", &manifest.test_unseen),
    ] {
        let one_based: Vec<f64> = ix.iter().map(|&i| i as f64 + 1.0).collect();
        writer.add_array(name, &[ix.len(), 1], &one_based, opts);
    }
    writer
        .write_to(&att_path)
        .map_err(|e| format!("write {}: {e}", att_path.display()))?;

    let class_labels: Vec<u32> = (1..=z as u32).collect();
    let reference = DatasetBundle {
        features: Matrix::from_vec(n, d, features),
        labels: labels.iter().map(|&l| l as usize - 1).collect(),
        signatures: Matrix::from_vec(z, a, att),
        class_map: ClassMap::from_labels(&class_labels).map_err(|e| e.to_string())?,
        manifest,
    };
    Ok((Inputs { res, att: att_path }, reference))
}

/// The protocol on the in-memory copy of the inputs: what every op's report
/// must equal.
fn in_memory_report(bundle: &DatasetBundle) -> Result<GzslReport, String> {
    let ds = bundle
        .to_dataset()
        .map_err(|e| format!("in-memory dataset: {e}"))?;
    Pipeline::from(&ds)
        .cross_validate(&CrossValConfig::default())
        .and_then(|p| p.train())
        .and_then(|trained| trained.evaluate())
        .map_err(|e| format!("in-memory pipeline: {e}"))
}

// ---------------------------------------------------------------------------
// The op and its replay
// ---------------------------------------------------------------------------

/// One op: import, open the streamed bundle, cross-validate, fit, evaluate
/// and save — `out/bundle/` and `out/model.zsm`.
fn op(inputs: &Inputs, out: &Path, shape: &Shape) -> Result<(CrossValReport, GzslReport), String> {
    let bundle_dir = out.join("bundle");
    let bundle = MatBundle::open(&inputs.res, &inputs.att)
        .map_err(|e| format!("open the .mat pair: {e}"))?;
    bundle
        .convert_to_zsb(&bundle_dir, DEFAULT_CHUNK_ROWS)
        .map_err(|e| format!("import: {e}"))?;
    let source = StreamingBundle::open(&bundle_dir, shape.chunk_rows)
        .map_err(|e| format!("open the bundle: {e}"))?;
    let trained = Pipeline::from(&source)
        .cross_validate(&CrossValConfig::default())
        .and_then(|p| p.train())
        .map_err(|e| format!("cross-validate and train: {e}"))?;
    let report = trained.evaluate().map_err(|e| format!("evaluate: {e}"))?;
    trained
        .save(&out.join("model.zsm"))
        .map_err(|e| format!("save: {e}"))?;
    let cv = trained
        .cv_report()
        .cloned()
        .ok_or("the pipeline kept no cross-validation report")?;
    Ok((cv, report))
}

/// [`op`] replayed through the layers' public functions, one span per layer.
/// The artifact is saved with `metadata`, the provenance the op's own save
/// wrote.
fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    out: &Path,
    shape: &Shape,
    metadata: &str,
) -> Result<(CrossValReport, GzslReport), String> {
    let bundle_dir = out.join("bundle");
    t.op(|t| {
        let bundle = t
            .span("mat.mat5", |_| MatBundle::open(&inputs.res, &inputs.att))
            .map_err(|e| format!("open the .mat pair: {e}"))?;
        t.span("mat.xlsa", |_| {
            bundle.convert_to_zsb(&bundle_dir, DEFAULT_CHUNK_ROWS)
        })
        .map_err(|e| format!("import: {e}"))?;
        let opened = t
            .span("core.data", |_| {
                StreamingBundle::open(&bundle_dir, shape.chunk_rows)
            })
            .map_err(|e| format!("open the bundle: {e}"))?;
        let source: &dyn FeatureSource = &opened;
        let config = CrossValConfig::default();
        let cv = cross_validate(t, source, &config)?;
        let model = t
            .span("core.trainer", |_| {
                EszslConfig::new()
                    .gamma(cv.best.gamma)
                    .lambda(cv.best.lambda)
                    .build()
                    .fit(source)
            })
            .map_err(|e| format!("final fit: {e}"))?;
        let engine = t
            .span("core.infer.build", |_| {
                ScoringEngine::try_new(model, source.union_signatures(), config.similarity)
                    .and_then(|e| {
                        e.with_calibration(cv.best.calibration, source.num_seen_classes())
                    })
            })
            .map_err(|e| format!("build the engine: {e}"))?;
        let report = t
            .span("core.eval.gzsl", |_| evaluate_gzsl_with(&engine, source))
            .map_err(|e| format!("evaluate: {e}"))?;
        t.span("core.artifact.save", |_| {
            engine.save_with_metadata(&out.join("model.zsm"), metadata)
        })
        .map_err(|e| format!("save: {e}"))?;
        Ok((cv, report))
    })
}

/// The provenance text `TrainedPipeline::save` wrote into an op's artifact,
/// read back outside any span.
fn saved_metadata(op_dir: &Path) -> Result<String, String> {
    let path = op_dir.join("model.zsm");
    ScoringEngine::load_with_metadata(&path)
        .map(|(_, metadata)| metadata)
        .map_err(|e| format!("load {}: {e}", path.display()))
}

/// `cross_validate` with the ESZSL trainer on an uncalibrated, unnormalized
/// grid, replayed fold by fold: the Gram fold (`core.model.gram`), one solve
/// per grid point, and every grid engine scoring the held-out rows
/// (`core.eval.validate`).
fn cross_validate(
    t: &mut Tracer,
    source: &dyn FeatureSource,
    config: &CrossValConfig,
) -> Result<CrossValReport, String> {
    if config.calibrations != [0.0] || config.normalize_features || config.normalize_signatures {
        return Err("the replay covers the uncalibrated, unnormalized sweep only".into());
    }
    let n = source.trainval_len();
    let points: Vec<(f64, f64)> = config
        .gammas
        .iter()
        .flat_map(|&g| config.lambdas.iter().map(move |&l| (g, l)))
        .collect();
    let signatures = source.seen_signatures().into_owned();
    let z = signatures.rows();
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(config.seed).shuffle(&mut order);
    let mut fold_accuracies = vec![Vec::with_capacity(config.folds); points.len()];
    for fold in 0..config.folds {
        let (lo, hi) = (fold * n / config.folds, (fold + 1) * n / config.folds);
        let train: Vec<usize> = order[..lo].iter().chain(&order[hi..]).copied().collect();
        let mut acc = GramAccumulator::new(&signatures);
        for_each_chunk(t, source, &train, |t, x, labels| {
            t.span("core.model.gram", |_| acc.fold(x, labels))
                .map_err(|e| format!("Gram fold: {e}"))
        })?;
        let problem = t
            .span("core.model.gram", |_| acc.finish())
            .map_err(|e| format!("Gram fold: {e}"))?;
        let models = points
            .iter()
            .map(|&(gamma, lambda)| solve(t, &problem, gamma, lambda))
            .collect::<Result<Vec<_>, _>>()?;
        let mut scorers = t
            .span("core.eval.validate", |_| {
                models
                    .into_iter()
                    .map(|m| {
                        ScoringEngine::try_new(m, signatures.clone(), config.similarity)
                            .map(|engine| (engine, ClassAccuracyCounter::new(z)))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("validation engines: {e}"))?;
        for_each_chunk(t, source, &order[lo..hi], |t, x, labels| {
            t.span("core.eval.validate", |_| {
                for (engine, counter) in &mut scorers {
                    counter.observe(&engine.predict(x), labels);
                }
            });
            Ok(())
        })?;
        for (accuracies, (_, counter)) in fold_accuracies.iter_mut().zip(&scorers) {
            accuracies.push(counter.mean());
        }
    }
    let grid: Vec<GridPoint> = points
        .iter()
        .zip(fold_accuracies)
        .map(|(&(gamma, lambda), folds)| GridPoint {
            gamma,
            lambda,
            calibration: 0.0,
            mean_accuracy: folds.iter().sum::<f64>() / folds.len() as f64,
            fold_accuracies: folds,
        })
        .collect();
    // Strictly greater keeps the earliest point on ties, as the library does.
    let best = grid
        .iter()
        .reduce(|best, candidate| {
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
        .ok_or("empty grid")?
        .clone();
    Ok(CrossValReport {
        best,
        grid,
        folds: config.folds,
    })
}

/// Stream the trainval rows at `positions`, timing each read as `core.data`.
fn for_each_chunk(
    t: &mut Tracer,
    source: &dyn FeatureSource,
    positions: &[usize],
    mut visit: impl FnMut(&mut Tracer, &Matrix, &[usize]) -> Result<(), String>,
) -> Result<(), String> {
    let mut stream = t
        .span("core.data", |_| source.stream_trainval_subset(positions))
        .map_err(|e| format!("stream trainval rows: {e}"))?;
    while let Some(chunk) = t.span("core.data", |_| stream.next()) {
        let (x, labels) = chunk.map_err(|e| format!("read a chunk: {e}"))?;
        visit(t, &x, &labels)?;
    }
    Ok(())
}

/// `EszslProblem::solve`, replayed: both SPD systems as `Matrix::cholesky`
/// then `Cholesky::solve_matrix`.
fn solve(
    t: &mut Tracer,
    problem: &EszslProblem,
    gamma: f64,
    lambda: f64,
) -> Result<ProjectionModel, String> {
    t.count("core.model.solves", 1);
    t.span("core.model", |t| {
        let mut xtx = problem.xtx().clone();
        xtx.add_scaled_identity(gamma);
        let m = spd_solve(t, &xtx, problem.xtys())?;
        let mut sts = problem.sts().clone();
        sts.add_scaled_identity(lambda);
        let wt = spd_solve(t, &sts, &m.transpose())?;
        Ok(ProjectionModel::from_weights(wt.transpose()))
    })
}

fn spd_solve(t: &mut Tracer, a: &Matrix, b: &Matrix) -> Result<Matrix, String> {
    t.count("core.linalg.cholesky_calls", 1);
    let factor = t
        .span("core.linalg.cholesky", |_| a.cholesky())
        .map_err(|e| format!("Cholesky: {e}"))?;
    t.span("core.linalg.triangular", |_| factor.solve_matrix(b))
        .map_err(|e| format!("triangular solve: {e}"))
}

/// The import's decode alone: `ColumnChunkReader` over `features`.
fn decode_pass(res: &Path) -> Result<(Instant, Instant), String> {
    let start = Instant::now();
    let file = MatFile::open(res).map_err(|e| format!("open {}: {e}", res.display()))?;
    let mut reader = file
        .stream_columns("features", DEFAULT_CHUNK_ROWS)
        .map_err(|e| format!("stream features: {e}"))?;
    while let Some(chunk) = reader
        .next_chunk()
        .map_err(|e| format!("decode features: {e}"))?
    {
        std::hint::black_box(chunk);
    }
    Ok((start, Instant::now()))
}

/// Do two op directories hold the same bundle files and artifact, byte for
/// byte?
fn same_outputs(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: PathBuf| std::fs::read(&p).map_err(|e| format!("read {}: {e}", p.display()));
    for name in [FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT] {
        if read(a.join("bundle").join(name))? != read(b.join("bundle").join(name))? {
            return Ok(false);
        }
    }
    Ok(read(a.join("model.zsm"))? == read(b.join("model.zsm"))?)
}
