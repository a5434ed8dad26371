//! Release-mode scoring-throughput harness.
//!
//! These tests are `#[ignore]`d so the tier-1 suite stays fast; run them with
//!
//! ```sh
//! cargo test --release -p zsl-core --test throughput -- --ignored --nocapture
//! ```
//!
//! Set `ZSL_BENCH_SMOKE=1` (as CI does on every push) to shrink the workload
//! to a few hundred milliseconds while still exercising the parallel path.
//! Each test prints a stable `[bench]`-prefixed line so future PRs can diff
//! throughput against this baseline. Setting `ZSL_BENCH_JSON=<path>`
//! additionally makes the per-trainer test write its numbers as a JSON
//! snapshot (the committed `BENCH_core.json` trajectory, mirroring the
//! serve crate's `BENCH_serving.json`).

use std::time::Instant;
use zsl_core::data::{export_dataset, DatasetBundle, Rng, StreamingBundle, SyntheticConfig};
use zsl_core::infer::{ScoringEngine, ScoringPrecision, Similarity, DEFAULT_CHUNK_ROWS};
use zsl_core::linalg::{default_threads, pool_threads, Matrix};
use zsl_core::model::{EszslConfig, EszslProblem, GramAccumulator, ProjectionModel};
use zsl_core::trainer::{KernelEszslConfig, KernelKind, SaeConfig, Trainer};

/// Workload shape: `n` samples of `d` features, projected to `a` attributes,
/// scored against `z` classes.
struct Workload {
    n: usize,
    d: usize,
    a: usize,
    z: usize,
    iters: usize,
}

fn smoke() -> bool {
    // Only "1" enables smoke mode, so ZSL_BENCH_SMOKE=0 (or empty) still runs
    // the full acceptance-gate workload.
    std::env::var("ZSL_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn workload() -> Workload {
    if smoke() {
        Workload {
            n: 512,
            d: 128,
            a: 32,
            z: 64,
            iters: 2,
        }
    } else {
        // The acceptance-floor shape: >= 2048 x 512 features, >= 200 classes.
        Workload {
            n: 4096,
            d: 512,
            a: 64,
            z: 256,
            iters: 5,
        }
    }
}

fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

/// Best-of-`iters` wall time for `f`, returning the last result for
/// correctness checks.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("iters >= 1"))
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn scoring_throughput_multi_threaded_vs_single_threaded() {
    let w = workload();
    let threads = default_threads();
    let mut rng = Rng::new(0xBEEF);
    let weights = random_matrix(&mut rng, w.d, w.a);
    let bank = random_matrix(&mut rng, w.z, w.a);
    let x = random_matrix(&mut rng, w.n, w.d);

    let single = ScoringEngine::with_threads(
        ProjectionModel::from_weights(weights.clone()),
        bank.clone(),
        Similarity::Cosine,
        1,
    );
    let multi = ScoringEngine::with_threads(
        ProjectionModel::from_weights(weights),
        bank,
        Similarity::Cosine,
        threads,
    );

    // Warm-up: touches every buffer and verifies the two paths agree exactly.
    let warm_single = single.predict(&x);
    let warm_multi = multi.predict(&x);
    assert_eq!(warm_single, warm_multi, "thread count changed predictions");

    let (t_single, _) = time_best(w.iters, || single.predict(&x));
    let (t_multi, _) = time_best(w.iters, || multi.predict(&x));
    let speedup = t_single / t_multi;
    println!(
        "[bench] batch-scoring n={} d={} a={} z={} threads={}: single={:.4}s ({:.0} samples/s) multi={:.4}s ({:.0} samples/s) speedup={:.2}x",
        w.n,
        w.d,
        w.a,
        w.z,
        threads,
        t_single,
        w.n as f64 / t_single,
        t_multi,
        w.n as f64 / t_multi,
        speedup
    );

    // The acceptance gate: on multi-core hardware at the full workload the
    // row-banded parallel path must beat the PR 1 single-threaded path.
    // Smoke mode and single-core runners only validate correctness above.
    if threads > 1 && !smoke() {
        assert!(
            t_multi < t_single,
            "parallel scoring ({t_multi:.4}s) did not beat single-threaded ({t_single:.4}s) on {threads} threads"
        );
    }
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn streamed_vs_in_memory_ingestion_and_training() {
    // How much does out-of-core ingestion cost relative to materializing the
    // bundle? Both sides do the same end-to-end work — read features.zsb from
    // disk, build the trainval Gram matrices — so the delta isolates the
    // chunked path's overhead (per-chunk dispatch, filter, rank-1 folds vs
    // one big gemm). Results are asserted bit-identical first, as everywhere.
    let w = workload();
    // Shape the synthetic set so trainval ≈ the workload's n x d.
    let seen = 32.min(w.z);
    let per_class = (w.n / seen).max(1);
    let ds = SyntheticConfig::new()
        .classes(seen, 8)
        .dims(w.a.min(seen - 1), w.d)
        .samples(per_class, 2)
        .seed(0xD00D)
        .build();
    let dir = std::env::temp_dir().join(format!("zsl_throughput_stream_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    export_dataset(&ds, &dir).expect("export");
    let chunk_rows = (w.n / 16).max(1);

    let in_memory = || -> EszslProblem {
        let mem = DatasetBundle::load(&dir)
            .expect("load")
            .to_dataset()
            .expect("materialize");
        EszslProblem::from_source(&mem, false, false).expect("problem")
    };
    let streamed = || -> EszslProblem {
        let bundle = StreamingBundle::open(&dir, chunk_rows).expect("open");
        let mut acc = GramAccumulator::new(&bundle.seen_signatures());
        for chunk in bundle.stream_trainval().expect("stream") {
            let (x, labels) = chunk.expect("chunk");
            acc.fold(&x, &labels).expect("fold");
        }
        acc.finish().expect("finish")
    };

    let reference = in_memory();
    let folded = streamed();
    assert_eq!(
        folded.xtx().as_slice(),
        reference.xtx().as_slice(),
        "streamed Gram diverged from in-memory"
    );
    assert_eq!(folded.xtys().as_slice(), reference.xtys().as_slice());

    let (t_memory, _) = time_best(w.iters, in_memory);
    let (t_stream, _) = time_best(w.iters, streamed);
    let n_train = ds.train_x.rows();
    println!(
        "[bench] streamed-vs-in-memory ingest+gram n_train={} d={} chunk_rows={}: \
         in-memory={:.4}s ({:.0} rows/s) streamed={:.4}s ({:.0} rows/s) overhead={:.2}x \
         peak-feature-mem {:.1} KiB vs {:.1} KiB",
        n_train,
        w.d,
        chunk_rows,
        t_memory,
        n_train as f64 / t_memory,
        t_stream,
        n_train as f64 / t_stream,
        t_stream / t_memory,
        (chunk_rows * w.d * 8) as f64 / 1024.0,
        (ds.train_x.rows() + ds.test_seen_x.rows() + ds.test_unseen_x.rows()) as f64
            * w.d as f64
            * 8.0
            / 1024.0,
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn per_trainer_fit_and_score_timing() {
    // One timing line per model family through the same generic [`Trainer`]
    // path: closed-form ESZSL, the Sylvester-solved SAE, and kernelized
    // ESZSL with the anchor budget a deployment would use. Scoring goes
    // through the engine, so the kernel line includes the per-row kernel
    // expansion the primal families skip.
    let w = workload();
    let seen = 32.min(w.z);
    let per_class = (w.n / seen).max(1);
    let ds = SyntheticConfig::new()
        .classes(seen, 8)
        .dims(w.a.min(seen - 1), w.d)
        .samples(per_class, 2)
        .seed(0x7EA1)
        .build();
    let n_train = ds.train_x.rows();
    let max_anchors = 1024.min(n_train);
    let trainers: [(&str, Box<dyn Trainer>); 3] = [
        ("eszsl", Box::new(EszslConfig::new().build())),
        ("sae", Box::new(SaeConfig::new().build())),
        (
            "kernel-eszsl",
            Box::new(KernelEszslConfig::new().max_anchors(max_anchors).build()),
        ),
    ];
    let mut snapshots = Vec::new();
    for (tag, trainer) in &trainers {
        let (t_fit, model) = time_best(w.iters, || trainer.fit(&ds).expect("fit"));
        let engine = ScoringEngine::new(model, ds.all_signatures(), Similarity::Cosine);
        let (t_score, predictions) = time_best(w.iters, || engine.predict(&ds.train_x));
        assert_eq!(predictions.len(), n_train, "{tag}: lost rows while scoring");
        println!(
            "[bench] trainer={tag} n_train={} d={} a={} z={}: fit={:.4}s ({:.0} rows/s) \
             score={:.4}s ({:.0} rows/s)",
            n_train,
            w.d,
            ds.seen_signatures.cols(),
            ds.num_classes(),
            t_fit,
            n_train as f64 / t_fit,
            t_score,
            n_train as f64 / t_score,
        );
        snapshots.push(format!(
            "{{ \"name\": \"{tag}\", \"fit_s\": {:.6}, \"fit_rows_per_s\": {:.1}, \
             \"score_s\": {:.6}, \"score_rows_per_s\": {:.1} }}",
            t_fit,
            n_train as f64 / t_fit,
            t_score,
            n_train as f64 / t_score,
        ));
    }
    if let Ok(json_path) = std::env::var("ZSL_BENCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"core-trainers\",\n  \"smoke\": {},\n  \"workload\": {{ \
             \"n_train\": {}, \"d\": {}, \"a\": {}, \"z\": {} }},\n  \"max_anchors\": {},\n  \
             \"threads\": {},\n  \"pool_threads\": {},\n  \"trainers\": [\n    {}\n  ]\n}}\n",
            smoke(),
            n_train,
            w.d,
            ds.seen_signatures.cols(),
            ds.num_classes(),
            max_anchors,
            default_threads(),
            pool_threads(),
            snapshots.join(",\n    "),
        );
        std::fs::write(&json_path, json).expect("write bench json");
        println!("[bench] wrote {json_path}");
    }
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn single_row_predict_latency_f64_vs_f32() {
    // Batch-1 latency is what a serving daemon pays per uncoalesced request:
    // dominated by per-call overhead (formerly thread spawns; now a pool
    // check that stays serial below the work cutoff) plus one skinny gemm.
    // The f32 line measures the opt-in reduced-precision serving mode on the
    // same row.
    let w = workload();
    let iters = if smoke() { 2_000 } else { 20_000 };
    let mut rng = Rng::new(0x0B17);
    let weights = random_matrix(&mut rng, w.d, w.a);
    let bank = random_matrix(&mut rng, w.z, w.a);
    let row = random_matrix(&mut rng, 1, w.d);
    let mut engine = ScoringEngine::new(
        ProjectionModel::from_weights(weights),
        bank,
        Similarity::Cosine,
    );

    let time_single_row = |engine: &ScoringEngine| -> f64 {
        let warm = engine.predict(&row);
        assert_eq!(warm.len(), 1);
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(engine.predict(std::hint::black_box(&row)));
        }
        t.elapsed().as_secs_f64() / iters as f64
    };

    let t_f64 = time_single_row(&engine);
    engine = engine.with_precision(ScoringPrecision::F32);
    let t_f32 = time_single_row(&engine);
    println!(
        "[bench] single-row-predict d={} a={} z={} iters={}: f64={:.1}us f32={:.1}us ({:.2}x)",
        w.d,
        w.a,
        w.z,
        iters,
        t_f64 * 1e6,
        t_f32 * 1e6,
        t_f64 / t_f32
    );
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn rbf_gram_scoring_scales_with_pool_threads() {
    // The fixed RBF branch: the Gram against the anchors is row-banded over
    // the persistent worker pool (it used to run serial at any thread
    // count). Serial and pooled scoring must be bit-identical — the bands
    // keep each row's summation order — and on multi-core hardware the
    // pooled path must win.
    let w = workload();
    let seen = 32.min(w.z);
    let per_class = (w.n / seen).max(1);
    let ds = SyntheticConfig::new()
        .classes(seen, 8)
        .dims(w.a.min(seen - 1), w.d)
        .samples(per_class, 2)
        .seed(0x4BF)
        .build();
    let n_train = ds.train_x.rows();
    let max_anchors = 1024.min(n_train);
    let model = KernelEszslConfig::new()
        .kernel(KernelKind::Rbf { width: 0.5 })
        .max_anchors(max_anchors)
        .build()
        .fit(&ds)
        .expect("fit");
    let mut engine = ScoringEngine::new(model, ds.all_signatures(), Similarity::Cosine);
    let threads = default_threads();

    engine.set_threads(1);
    let reference = engine.scores(&ds.train_x);
    let (t_serial, _) = time_best(w.iters, || engine.scores(&ds.train_x));
    engine.set_threads(threads);
    let pooled = engine.scores(&ds.train_x);
    assert_eq!(
        pooled.as_slice(),
        reference.as_slice(),
        "pooled RBF scoring drifted from serial"
    );
    let (t_pooled, _) = time_best(w.iters, || engine.scores(&ds.train_x));
    println!(
        "[bench] rbf-gram-scoring n={} d={} anchors={} threads={} (pool={}): \
         serial={:.4}s ({:.0} rows/s) pooled={:.4}s ({:.0} rows/s) speedup={:.2}x",
        n_train,
        w.d,
        max_anchors,
        threads,
        pool_threads(),
        t_serial,
        n_train as f64 / t_serial,
        t_pooled,
        n_train as f64 / t_pooled,
        t_serial / t_pooled
    );
    // Acceptance gate: the RBF Gram must actually scale with threads on
    // multi-core hardware at the full workload. Smoke mode and single-core
    // runners only validate bit-identity above.
    if threads > 1 && !smoke() {
        assert!(
            t_pooled < t_serial,
            "pooled RBF scoring ({t_pooled:.4}s) did not beat serial ({t_serial:.4}s) on {threads} threads"
        );
    }
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn banded_topk_one_band_vs_eight() {
    // The large-class-axis path: the bank is split into row bands scored one
    // at a time, with rankings folded through a per-row bounded heap. Eight
    // bands drop peak score memory from chunk_rows x z to chunk_rows x band
    // while the bits stay identical to the default single band.
    let w = workload();
    let z_big = if smoke() { 512 } else { 8192 };
    let shards = 8usize;
    let k = 10usize;
    let mut rng = Rng::new(0x5AD5);
    let weights = random_matrix(&mut rng, w.d, w.a);
    let bank = random_matrix(&mut rng, z_big, w.a);
    let x = random_matrix(&mut rng, w.n, w.d);
    let one_band = ScoringEngine::new(
        ProjectionModel::from_weights(weights.clone()),
        bank.clone(),
        Similarity::Cosine,
    );
    let mut sharded = ScoringEngine::new(
        ProjectionModel::from_weights(weights),
        bank,
        Similarity::Cosine,
    );
    sharded.set_bank_shards(shards);
    let bands = sharded.bank_shards().count();

    let reference = one_band.predict_topk(&x, k);
    let banded = sharded.predict_topk(&x, k);
    assert_eq!(
        reference, banded,
        "{bands}-band top-k diverged from one band"
    );

    let (t_one, _) = time_best(w.iters, || one_band.predict_topk(&x, k));
    let (t_sharded, _) = time_best(w.iters, || sharded.predict_topk(&x, k));
    let band_z = sharded.bank_shards().max_band_classes();
    println!(
        "[bench] banded-topk n={} d={} a={} z={} k={}: 1 band={:.4}s ({:.0} samples/s) \
         {bands} bands={:.4}s ({:.0} samples/s) ratio={:.2}x \
         peak-score-mem {:.1} KiB vs {:.1} KiB per chunk",
        w.n,
        w.d,
        w.a,
        z_big,
        k,
        t_one,
        w.n as f64 / t_one,
        t_sharded,
        w.n as f64 / t_sharded,
        t_sharded / t_one,
        (w.n.min(DEFAULT_CHUNK_ROWS) * z_big * 8) as f64 / 1024.0,
        (w.n.min(DEFAULT_CHUNK_ROWS) * band_z * 8) as f64 / 1024.0,
    );
}

#[test]
#[ignore = "timing harness; run with --release -- --ignored --nocapture"]
fn mmap_boot_vs_heap_boot() {
    // Cold-boot cost of a large-bank artifact: the heap loader copies and
    // validates the whole bank up front; the mapped loader borrows the bank
    // from the page cache zero-copy (validation still runs — in place).
    let w = workload();
    let z_big = if smoke() { 512 } else { 8192 };
    let mut rng = Rng::new(0x3A90);
    let weights = random_matrix(&mut rng, w.d, w.a);
    let bank = random_matrix(&mut rng, z_big, w.a);
    let x = random_matrix(&mut rng, 64, w.d);
    let engine = ScoringEngine::new(
        ProjectionModel::from_weights(weights),
        bank,
        Similarity::Cosine,
    );
    let path = std::env::temp_dir().join(format!("zsl_bench_mmap_{}.zsm", std::process::id()));
    engine.save(&path).expect("save");

    let (heap, _) = ScoringEngine::load_with_metadata(&path).expect("heap load");
    let (mapped, _) = ScoringEngine::load_mapped(&path).expect("mapped load");
    assert_eq!(
        heap.predict_topk(&x, 5),
        mapped.predict_topk(&x, 5),
        "mapped boot diverged from heap boot"
    );

    let boot_iters = if smoke() { 3 } else { 10 };
    let (t_heap, _) = time_best(boot_iters, || {
        ScoringEngine::load_with_metadata(&path).expect("heap load")
    });
    let (t_mapped, _) = time_best(boot_iters, || {
        ScoringEngine::load_mapped(&path).expect("mapped load")
    });
    println!(
        "[bench] mmap-boot d={} a={} z={} artifact={:.1} KiB mapped={}: \
         heap={:.3}ms ({:.1} KiB resident) mmap={:.3}ms ({:.1} KiB resident) speedup={:.2}x",
        w.d,
        w.a,
        z_big,
        std::fs::metadata(&path).expect("meta").len() as f64 / 1024.0,
        mapped.is_bank_mapped(),
        t_heap * 1e3,
        heap.bank_resident_bytes() as f64 / 1024.0,
        t_mapped * 1e3,
        mapped.bank_resident_bytes() as f64 / 1024.0,
        t_heap / t_mapped
    );
    std::fs::remove_file(&path).ok();
}
