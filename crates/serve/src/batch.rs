//! The request coalescer: turns concurrent single-row predictions into one
//! wide matrix so the row-banded parallel matmul kernels actually see the
//! batch shapes they were built for.
//!
//! A single-row score is almost pure overhead for the chunked kernels —
//! ZSpeedL's framing (inference-time performance as a first-class metric)
//! is why the serving layer batches at the front door instead of scoring
//! rows as they arrive. Batches form by load, not by a timer:
//!
//! - Request threads enqueue their rows under one queue lock with one
//!   wake-up of the worker, then block on the request's one reply channel.
//! - The single worker takes whatever is queued, up to
//!   [`BatchConfig::max_batch`] rows, as soon as it is free, snapshots the
//!   current model **once**, scores the whole batch through
//!   [`zsl_core::ScoringEngine::predict_topk`], and answers the rows in
//!   queue order. Rows that arrive while a batch is being scored form the
//!   next batch, so an idle daemon answers a lone row at once and a busy one
//!   scores wide batches.
//! - A request's rows are contiguous in the FIFO queue and the worker
//!   answers batches in order, so a request's channel yields its rows'
//!   results in row order, also when `max_batch` splits the request.
//! - One model snapshot per batch means a hot swap never splits a batch
//!   across two models.
//!
//! Rows whose width disagrees with the snapshot's feature dimension get a
//! typed per-row error in their place — the rest of the batch still scores.
//! Nothing in this module can panic on request data, and a panic while
//! scoring a batch fails only that batch: its rows are answered with
//! [`ServeError::Internal`] and the worker goes on to the next one.

use crate::error::ServeError;
use crate::model::{ModelHandle, ModelSnapshot};
use crate::stats::ServeStats;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use zsl_core::{Matrix, TopK};

/// Tunables for the coalescing worker.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Hard cap on rows per scored batch, which bounds one batch's rows and
    /// score memory. Default 256.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 256 }
    }
}

/// One scored row, fanned back to the requesting thread.
#[derive(Clone, Debug)]
pub struct RowResult {
    /// Argmax class (ties and NaN ordering exactly as
    /// [`zsl_core::ScoringEngine::predict`]).
    pub class: usize,
    /// The requested top-`k` ranking, `k` clamped to the class count
    /// (`k = 0` yields an empty ranking).
    pub topk: TopK,
    /// Generation of the model that scored this row.
    pub generation: u64,
}

struct Pending {
    row: Vec<f64>,
    k: usize,
    /// A clone of the request's one reply sender.
    reply: mpsc::Sender<Result<RowResult, ServeError>>,
}

#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    arrived: Condvar,
    model: Arc<ModelHandle>,
    stats: Arc<ServeStats>,
    max_batch: usize,
    /// Makes the next batch's scoring panic, so tests can reach the
    /// recovery path.
    #[cfg(test)]
    panic_next: std::sync::atomic::AtomicBool,
}

/// Handle to the coalescing worker. Dropping it shuts the worker down after
/// the queue drains; in-flight requests then observe [`ServeError::Closed`].
pub struct Coalescer {
    inner: Arc<Inner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Coalescer {
    /// Spawn the batching worker over `model`.
    pub fn start(model: Arc<ModelHandle>, stats: Arc<ServeStats>, config: BatchConfig) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue::default()),
            arrived: Condvar::new(),
            model,
            stats,
            max_batch: config.max_batch.max(1),
            #[cfg(test)]
            panic_next: std::sync::atomic::AtomicBool::new(false),
        });
        let worker_inner = inner.clone();
        let worker = std::thread::Builder::new()
            .name("zsl-serve-batcher".into())
            .spawn(move || worker_loop(&worker_inner))
            .expect("spawn batcher thread");
        Coalescer {
            inner,
            worker: Some(worker),
        }
    }

    /// Enqueue one row without blocking; the returned channel yields the
    /// result. The one-row case of `enqueue_rows`.
    pub fn enqueue(
        &self,
        row: Vec<f64>,
        k: usize,
    ) -> mpsc::Receiver<Result<RowResult, ServeError>> {
        self.enqueue_rows(vec![row], k)
    }

    /// Enqueue a request's rows without blocking, under one queue lock and
    /// with one wake-up of the worker, so they are all visible to the same
    /// worker pass: a request's own rows form one batch (up to
    /// [`BatchConfig::max_batch`]) and coalesce with concurrent requests.
    /// The one returned channel yields the rows' results in row order; after
    /// shutdown it yields a single [`ServeError::Closed`].
    pub(crate) fn enqueue_rows(&self, rows: Vec<Vec<f64>>, k: usize) -> Receiver {
        let (reply, results) = mpsc::channel();
        let mut queue = self.inner.queue.lock().expect("queue poisoned");
        if queue.shutdown {
            reply.send(Err(ServeError::Closed)).ok();
        } else {
            queue.pending.extend(rows.into_iter().map(|row| Pending {
                row,
                k,
                reply: reply.clone(),
            }));
            self.inner.arrived.notify_one();
        }
        results
    }
}

/// The channel a request's results arrive on, one per row in row order.
type Receiver = mpsc::Receiver<Result<RowResult, ServeError>>;

impl Drop for Coalescer {
    fn drop(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("queue poisoned");
            queue.shutdown = true;
            self.inner.arrived.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            worker.join().ok();
        }
    }
}

/// Score whatever is queued, up to `max_batch` rows, as soon as the worker
/// is free; wait only while the queue is empty. Shutdown drains the queue
/// first, then exits. A batch whose scoring panics gets
/// [`ServeError::Internal`] for every row, and the loop goes on.
fn worker_loop(inner: &Inner) {
    loop {
        let mut queue = inner.queue.lock().expect("queue poisoned");
        while queue.pending.is_empty() && !queue.shutdown {
            queue = inner.arrived.wait(queue).expect("queue poisoned");
        }
        if queue.pending.is_empty() {
            return;
        }
        let take = queue.pending.len().min(inner.max_batch);
        let batch: Vec<Pending> = queue.pending.drain(..take).collect();
        drop(queue);
        // Nothing is answered before scoring returns, so a panic leaves every
        // row of the batch to answer here, once.
        let scored =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| score_batch(inner, &batch)));
        match scored {
            Ok((snapshot, ranked)) => answer(batch, &snapshot, ranked),
            Err(payload) => {
                let why = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                let message = format!("scoring the batch panicked: {why}");
                for pending in batch {
                    let failed = Err(ServeError::Internal(message.clone()));
                    pending.reply.send(failed).ok();
                }
            }
        }
    }
}

/// Score one coalesced batch against ONE model snapshot: the rankings of
/// the rows whose width fits the snapshot, in queue order, each as long as
/// the batch's widest `k` (at least 1).
fn score_batch(inner: &Inner, batch: &[Pending]) -> (Arc<ModelSnapshot>, Vec<TopK>) {
    #[cfg(test)]
    if inner
        .panic_next
        .swap(false, std::sync::atomic::Ordering::SeqCst)
    {
        panic!("injected scoring panic");
    }
    let snapshot: Arc<ModelSnapshot> = inner.model.snapshot();
    let d = snapshot.engine.feature_dim();
    let z = snapshot.engine.num_classes();
    let mut flat = Vec::new();
    // One kernel call wide enough for the largest request; k >= 1 so the
    // ranking's head doubles as the argmax (same total_cmp order, same
    // first-index tie-break as `predict`).
    let (mut scored, mut k_max) = (0, 1);
    for pending in batch.iter().filter(|p| p.row.len() == d) {
        flat.extend_from_slice(&pending.row);
        scored += 1;
        k_max = k_max.max(pending.k);
    }
    let mut ranked = Vec::new();
    if scored > 0 {
        let x = Matrix::from_vec(scored, d, flat);
        ranked = snapshot.engine.predict_topk(&x, k_max.min(z));
        inner.stats.record_batch(scored);
    }
    (snapshot, ranked)
}

/// Answer a scored batch's rows in queue order. Width-mismatched rows were
/// kept out of the batch matrix and get a per-row error in their place.
/// (Width can legitimately change between enqueue and scoring if a hot swap
/// replaced the model with one from a different feature space — that must
/// be an error response, not a panic.)
fn answer(batch: Vec<Pending>, snapshot: &ModelSnapshot, ranked: Vec<TopK>) {
    let d = snapshot.engine.feature_dim();
    let mut ranked = ranked.into_iter();
    for pending in batch {
        let result = if pending.row.len() == d {
            let mut topk = ranked.next().expect("one ranking per scored row");
            let class = topk.classes[0];
            topk.classes.truncate(pending.k);
            topk.scores.truncate(pending.k);
            Ok(RowResult {
                class,
                topk,
                generation: snapshot.generation,
            })
        } else {
            Err(ServeError::Protocol(format!(
                "feature row has {} values but the model expects {d}",
                pending.row.len()
            )))
        };
        pending.reply.send(result).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BootOptions;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};
    use zsl_core::data::Rng;
    use zsl_core::model::ProjectionModel;
    use zsl_core::{ScoringEngine, Similarity};

    fn artifact(tag: &str, seed: u64, d: usize, z: usize) -> (PathBuf, ScoringEngine) {
        let path =
            std::env::temp_dir().join(format!("zsl_serve_batch_{}_{tag}.zsm", std::process::id()));
        let mut rng = Rng::new(seed);
        let a = 3;
        let w = Matrix::from_vec(d, a, (0..d * a).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(z, a, (0..z * a).map(|_| rng.normal()).collect());
        let engine =
            ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, Similarity::Cosine)
                .expect("engine");
        engine.save(&path).expect("save");
        (path, engine)
    }

    fn start(path: &std::path::Path, config: BatchConfig) -> (Coalescer, Arc<ServeStats>) {
        let stats = Arc::new(ServeStats::new());
        let model = Arc::new(
            ModelHandle::boot_with_options(path, stats.clone(), BootOptions::default())
                .expect("boot"),
        );
        (Coalescer::start(model, stats.clone(), config), stats)
    }

    #[test]
    fn single_row_results_match_direct_engine_calls() {
        let (path, engine) = artifact("direct", 11, 4, 6);
        let (coalescer, _) = start(&path, BatchConfig::default());
        let mut rng = Rng::new(5);
        for _ in 0..8 {
            let row: Vec<f64> = (0..4).map(|_| rng.normal()).collect();
            let got = coalescer
                .enqueue(row.clone(), 3)
                .recv()
                .expect("reply")
                .expect("predict");
            let x = Matrix::from_vec(1, 4, row);
            assert_eq!(got.class, engine.predict(&x)[0]);
            assert_eq!(got.topk, engine.predict_topk(&x, 3)[0]);
            assert_eq!(got.generation, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn k_zero_and_k_beyond_class_count_clamp() {
        let (path, engine) = artifact("clamp", 12, 3, 4);
        let (coalescer, _) = start(&path, BatchConfig::default());
        let row = vec![0.5, -1.0, 2.0];
        let x = Matrix::from_vec(1, 3, row.clone());

        let empty = coalescer
            .enqueue(row.clone(), 0)
            .recv()
            .expect("reply")
            .expect("k=0");
        assert_eq!(empty.class, engine.predict(&x)[0]);
        assert!(empty.topk.classes.is_empty() && empty.topk.scores.is_empty());

        let all = coalescer
            .enqueue(row, 99)
            .recv()
            .expect("reply")
            .expect("k>z");
        assert_eq!(all.topk, engine.predict_topk(&x, 99)[0]);
        assert_eq!(all.topk.classes.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn width_mismatch_is_a_per_row_protocol_error() {
        let (path, _) = artifact("width", 13, 4, 5);
        let (coalescer, stats) = start(&path, BatchConfig::default());
        // Wrong-width row errors; a good row in the same window still scores.
        let bad = coalescer.enqueue(vec![1.0, 2.0], 1);
        let good = coalescer.enqueue(vec![1.0, 2.0, 3.0, 4.0], 1);
        assert!(matches!(
            bad.recv().expect("reply"),
            Err(ServeError::Protocol(_))
        ));
        assert!(good.recv().expect("reply").is_ok());
        assert_eq!(stats.snapshot().rows, 1);
        // Within one request the error takes the bad row's place.
        let results = coalescer.enqueue_rows(vec![vec![0.5; 4], vec![1.0], vec![2.0; 4]], 1);
        assert!(results.recv().expect("row 1").is_ok());
        assert!(matches!(results.recv(), Ok(Err(ServeError::Protocol(_)))));
        assert!(results.recv().expect("row 3").is_ok());
        assert_eq!(stats.snapshot().rows, 3);
        std::fs::remove_file(&path).ok();
    }

    /// Classes in a bank wide enough that scoring one row outlasts a burst
    /// of enqueues many times over: rows that arrive while the worker scores
    /// queue up behind it and form the next batch.
    const WIDE_BANK: usize = 100_000;

    #[test]
    fn enqueued_rows_coalesce_into_one_batch() {
        let (path, engine) = artifact("widebatch", 14, 4, WIDE_BANK);
        // The worker is busy scoring the first row while the rest arrive.
        let (coalescer, stats) = start(&path, BatchConfig { max_batch: 64 });
        let mut rng = Rng::new(6);
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..4).map(|_| rng.normal()).collect())
            .collect();
        let receivers: Vec<_> = rows
            .iter()
            .map(|row| coalescer.enqueue(row.clone(), 1))
            .collect();
        for (row, rx) in rows.iter().zip(receivers) {
            let got = rx.recv().expect("reply").expect("scored");
            let x = Matrix::from_vec(1, 4, row.clone());
            assert_eq!(got.class, engine.predict(&x)[0]);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.rows, 10);
        assert!(snap.max_batch_rows > 1, "rows never coalesced: {snap:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enqueued_request_rows_form_whole_batches() {
        let (path, engine) = artifact("whole", 17, 4, 5);
        let mut rng = Rng::new(7);
        let rows = |count: usize, rng: &mut Rng| -> Vec<Vec<f64>> {
            (0..count)
                .map(|_| (0..4).map(|_| rng.normal()).collect())
                .collect()
        };

        // One request of 64 rows: one batch of 64, answered in row order.
        let (coalescer, stats) = start(&path, BatchConfig::default());
        let request = rows(64, &mut rng);
        let results = coalescer.enqueue_rows(request.clone(), 1);
        for row in request {
            let got = results.recv().expect("reply").expect("scored");
            let x = Matrix::from_vec(1, 4, row);
            assert_eq!(got.class, engine.predict(&x)[0]);
            assert_eq!(got.topk, engine.predict_topk(&x, 1)[0]);
        }
        let snap = stats.snapshot();
        assert_eq!((snap.batches, snap.rows, snap.max_batch_rows), (1, 64, 64));

        // 300 rows at max_batch 256: batches of 256 and 44, still answered
        // in row order on the one channel.
        let (coalescer, stats) = start(&path, BatchConfig { max_batch: 256 });
        let request = rows(300, &mut rng);
        let results = coalescer.enqueue_rows(request.clone(), 1);
        for row in request {
            let got = results.recv().expect("reply").expect("scored");
            let x = Matrix::from_vec(1, 4, row);
            assert_eq!(got.topk, engine.predict_topk(&x, 1)[0]);
        }
        let snap = stats.snapshot();
        assert_eq!(
            (snap.batches, snap.rows, snap.max_batch_rows),
            (2, 300, 256)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leftover_rows_after_a_full_drain_score_without_waiting() {
        let (path, _) = artifact("leftover", 16, 4, WIDE_BANK);
        // 6 rows against max_batch=2 take at least three passes, the later
        // ones formed while the worker is busy. No pass waits on a timer
        // (a 400ms wait re-armed on every pass once cost >= 800ms here), and
        // none exceeds max_batch.
        let (coalescer, stats) = start(&path, BatchConfig { max_batch: 2 });
        let started = Instant::now();
        let receivers: Vec<_> = (0..6)
            .map(|_| coalescer.enqueue(vec![0.25; 4], 1))
            .collect();
        for rx in receivers {
            rx.recv().expect("reply").expect("scored");
        }
        let elapsed = started.elapsed();
        let snap = stats.snapshot();
        assert_eq!(snap.rows, 6);
        assert!(snap.max_batch_rows <= 2, "{snap:?}");
        assert!(
            elapsed < Duration::from_millis(750),
            "leftover rows waited: 6 rows at max_batch=2 took {elapsed:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_panicking_batch_fails_its_rows_and_the_worker_keeps_scoring() {
        let (path, engine) = artifact("panic", 18, 4, 5);
        let (coalescer, stats) = start(&path, BatchConfig::default());
        let rows = vec![vec![0.5; 4], vec![-1.0, 2.0, 0.0, 1.0]];
        coalescer
            .inner
            .panic_next
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let failed = coalescer.enqueue_rows(rows.clone(), 2);
        for _ in &rows {
            match failed.recv().expect("every row of the batch is answered") {
                Err(ServeError::Internal(msg)) => {
                    assert!(msg.contains("injected scoring panic"), "{msg}")
                }
                other => panic!("expected an internal error, got {other:?}"),
            }
        }
        assert_eq!(stats.snapshot().batches, 0);
        // The worker survived: the same rows score on the next pass.
        let results = coalescer.enqueue_rows(rows.clone(), 2);
        for row in rows {
            let got = results.recv().expect("reply").expect("scored");
            let x = Matrix::from_vec(1, 4, row);
            assert_eq!(got.topk, engine.predict_topk(&x, 2)[0]);
        }
        assert_eq!(stats.snapshot().batches, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shutdown_drains_queue_then_rejects() {
        let (path, _) = artifact("shutdown", 15, 4, 5);
        let (coalescer, _) = start(&path, BatchConfig::default());
        let rx = coalescer.enqueue(vec![0.0; 4], 1);
        drop(coalescer); // drains the queue, then joins the worker
        assert!(rx.recv().expect("drained reply").is_ok());
        std::fs::remove_file(&path).ok();
    }
}
