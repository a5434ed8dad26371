//! `fit-sae`: `SaeTrainer::fit` on an in-memory dataset — the one workload
//! that runs the eigensolver.
//!
//! One op is one fit at the default λ; `gzsl_h` is computed after the timed
//! ops, and every op's weights must equal the first op's bit for bit. The
//! traced replay runs the fit through the layers' public functions — the
//! Gram fold, `Matrix::symmetric_eigen` on both Sylvester operands and the
//! rest of `solve_sylvester` — and its weights must equal the untraced fit's
//! bit for bit.

use crate::measure::{self, cpu_seconds, mean, peak_rss_mb, since, Steal};
use crate::report::{self, Collected};
use crate::trace::Tracer;
use crate::workdir::WorkDir;
use crate::{RunConfig, Scale};
use std::time::Instant;
use zsl_core::model::GramAccumulator;
use zsl_core::{
    evaluate_gzsl, Dataset, FeatureSource, Matrix, SaeConfig, SaeTrainer, Similarity, SplitKind,
    SyntheticConfig, TrainedModel, Trainer,
};

/// A measured run times at least this many ops, however long they take.
const MIN_OPS: usize = 3;
/// A traced run alternates this many untraced fits with traced replays.
const ROUNDS: usize = 2;

struct Shape {
    seen: usize,
    unseen: usize,
    attr_dim: usize,
    feature_dim: usize,
    train_per_class: usize,
    test_per_class: usize,
    noise: f64,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            seen: 50,
            unseen: 10,
            attr_dim: 32,
            feature_dim: 384,
            train_per_class: 80,
            test_per_class: 20,
            noise: 0.5,
        },
        Scale::Smoke => Shape {
            seen: 10,
            unseen: 3,
            attr_dim: 4,
            feature_dim: 12,
            train_per_class: 10,
            test_per_class: 4,
            noise: 0.1,
        },
    }
}

/// Run `fit-sae`: the measured fits, or the traced replay.
pub fn run(config: &RunConfig, work: &WorkDir) -> Result<Collected, String> {
    let shape = shape(config.scale);
    if config.trace {
        trace(config, &shape, work)
    } else {
        measure(config, &shape)
    }
}

fn dataset(shape: &Shape, seed: u64) -> Dataset {
    SyntheticConfig::new()
        .classes(shape.seen, shape.unseen)
        .dims(shape.attr_dim, shape.feature_dim)
        .samples(shape.train_per_class, shape.test_per_class)
        .noise(shape.noise)
        .seed(seed)
        .build()
}

fn fit(ds: &Dataset) -> Result<TrainedModel, String> {
    SaeTrainer::new(SaeConfig::new())
        .fit(ds)
        .map_err(|e| format!("SAE fit: {e}"))
}

fn weights(model: &TrainedModel) -> &[f64] {
    model
        .projection()
        .expect("SAE models are linear projections")
        .weights()
        .as_slice()
}

fn measure(config: &RunConfig, shape: &Shape) -> Result<Collected, String> {
    let (ds, setup_s) = measure::repeat_setup(|| Ok(dataset(shape, config.seed)))?;
    // The dataset is the fit's input, so the peak-memory window holds it.
    measure::reset_peak_rss()?;
    let cpu0 = cpu_seconds()?;
    let steal0 = Steal::read()?;
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut models = Vec::new();
    while latencies.len() < MIN_OPS || since(t0) < config.seconds {
        let t = Instant::now();
        models.push(fit(&ds)?);
        latencies.push(since(t));
    }
    let wall = since(t0);
    let cpu = cpu_seconds()? - cpu0;
    let stolen = steal0.share_since()?;
    let rss = peak_rss_mb()?;

    let first = weights(&models[0]);
    let mut c = Collected {
        attempted: models.len() as u64,
        failed: models.iter().filter(|m| weights(m) != first).count() as u64,
        ..Collected::default()
    };
    report::latency_metrics(&mut c, &latencies, wall, cpu, stolen);
    c.set("setup_s", setup_s);
    c.set("peak_rss_mb", rss);
    let report = evaluate_gzsl(&models[0], &ds, Similarity::Cosine)
        .map_err(|e| format!("GZSL evaluation of the SAE model: {e}"))?;
    c.set("gzsl_h", report.harmonic_mean);
    c.note("output check: every fit's weights against the first fit's");
    Ok(c)
}

fn trace(config: &RunConfig, shape: &Shape, work: &WorkDir) -> Result<Collected, String> {
    let ds = dataset(shape, config.seed);
    let lambda = SaeConfig::new().lambda;
    let mut tracer = Tracer::new();
    let mut c = Collected::default();
    let mut untraced_walls = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let model = fit(&ds)?;
        untraced_walls.push(since(t));
        let replayed = replay(&mut tracer, &ds, lambda)?;
        c.attempted += 2;
        c.failed += u64::from(replayed.as_slice() != weights(&model));
    }
    c.set("core.data.read_s", tracer.self_per_op("core.data"));
    c.set("core.model.gram_s", tracer.self_per_op("core.model.gram"));
    c.set(
        "core.trainer.fit_s",
        tracer.inclusive_per_op("core.trainer"),
    );
    c.set(
        "core.linalg.eigen_s",
        tracer.self_per_op("core.linalg.eigen"),
    );
    c.set(
        "core.linalg.sylvester_rest_s",
        tracer.self_per_op("core.linalg.sylvester"),
    );
    c.set("trace.coverage", tracer.coverage());
    c.set(
        "trace.overhead",
        tracer.op_wall() / mean(&untraced_walls) - 1.0,
    );
    c.note("output check: each replay's weights against its untraced fit's");
    for (layer, share) in tracer.shares() {
        c.note(format!("share {layer} {share:.4}"));
    }
    tracer.write(&work.trace_file(config.workload.name(), config.seed)?)?;
    Ok(c)
}

/// `SaeTrainer::fit`, replayed: the streamed Gram fold, the SAE operands
/// `A = Sᵀ diag(counts) S`, `B = λ XᵀX`, `C = (1 + λ)(YS)ᵀX`, and
/// `solve_sylvester(A, B, C)`. Returns the weights `W : d x a`.
fn replay(t: &mut Tracer, ds: &Dataset, lambda: f64) -> Result<Matrix, String> {
    t.op(|t| {
        t.span("core.trainer", |t| {
            let mut acc = GramAccumulator::new(&ds.seen_signatures);
            let mut stream = t
                .span("core.data", |_| ds.stream(SplitKind::Trainval))
                .map_err(|e| format!("stream trainval: {e}"))?;
            while let Some(chunk) = t.span("core.data", |_| stream.next()) {
                let (x, labels) = chunk.map_err(|e| format!("read a chunk: {e}"))?;
                t.span("core.model.gram", |_| acc.fold(&x, &labels))
                    .map_err(|e| format!("Gram fold: {e}"))?;
            }
            let (a, problem) = t
                .span("core.model.gram", |_| {
                    let prepared = acc.signatures().clone();
                    let mut weighted = prepared.clone();
                    for (r, &count) in acc.class_counts().iter().enumerate() {
                        for v in weighted.row_mut(r) {
                            *v *= count;
                        }
                    }
                    let a = prepared.transpose().matmul(&weighted);
                    acc.finish().map(|problem| (a, problem))
                })
                .map_err(|e| format!("Gram fold: {e}"))?;
            let (b, c) = t.span("core.model", |_| {
                (
                    scaled(problem.xtx(), lambda),
                    scaled(&problem.xtys().transpose(), 1.0 + lambda),
                )
            });
            let w = t.span("core.linalg.sylvester", |t| sylvester(t, &a, &b, &c))?;
            Ok(w.transpose())
        })
    })
}

fn scaled(m: &Matrix, factor: f64) -> Matrix {
    Matrix::from_vec(
        m.rows(),
        m.cols(),
        m.as_slice().iter().map(|v| v * factor).collect(),
    )
}

/// `solve_sylvester(A, B, C)`, replayed: both eigendecompositions as
/// `core.linalg.eigen`, the transforms and the diagonal solve as the
/// `core.linalg.sylvester` span's self time.
fn sylvester(t: &mut Tracer, a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix, String> {
    let ea = t
        .span("core.linalg.eigen", |_| a.symmetric_eigen())
        .map_err(|e| format!("eigendecomposition: {e}"))?;
    let eb = t
        .span("core.linalg.eigen", |_| b.symmetric_eigen())
        .map_err(|e| format!("eigendecomposition: {e}"))?;
    let ct = ea.vectors().transpose().matmul(c).matmul(eb.vectors());
    let scale = ea
        .values()
        .iter()
        .chain(eb.values())
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1.0);
    let (p, q) = (c.rows(), c.cols());
    let mut xt = Vec::with_capacity(p * q);
    for (i, alpha) in ea.values().iter().enumerate() {
        for (j, beta) in eb.values().iter().enumerate() {
            let denom = alpha + beta;
            if denom.abs() <= scale * 1e-12 {
                return Err(format!("singular Sylvester system at ({i}, {j})"));
            }
            xt.push(ct.as_slice()[i * q + j] / denom);
        }
    }
    let xt = Matrix::from_vec(p, q, xt);
    Ok(ea.vectors().matmul(&xt).matmul(&eb.vectors().transpose()))
}
