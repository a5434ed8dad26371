//! The request coalescer: turns concurrent single-row predictions into one
//! wide matrix so the row-banded parallel matmul kernels actually see the
//! batch shapes they were built for.
//!
//! A single-row score is almost pure overhead for the chunked kernels —
//! ZSpeedL's framing (inference-time performance as a first-class metric)
//! is why the serving layer batches at the front door instead of scoring
//! rows as they arrive. Mechanics:
//!
//! - Request threads enqueue their rows, each with a response channel,
//!   under one queue lock with one wake-up of the worker, then block on the
//!   replies.
//! - The worker drains the queue, **lingers** up to
//!   [`BatchConfig::linger`] for stragglers (or until
//!   [`BatchConfig::max_batch`] rows), snapshots the current model
//!   **once**, scores the whole batch through
//!   [`zsl_core::ScoringEngine::predict_topk`], and fans results back out.
//! - One model snapshot per batch means a hot swap never splits a batch
//!   across two models.
//!
//! Rows whose width disagrees with the snapshot's feature dimension get a
//! typed per-row error — the rest of the batch still scores. Nothing in
//! this module can panic on request data.

use crate::error::ServeError;
use crate::model::{ModelHandle, ModelSnapshot};
use crate::stats::ServeStats;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use zsl_core::{Matrix, TopK};

/// Tunables for the coalescing worker.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Hard cap on rows per scored batch. Default 256.
    pub max_batch: usize,
    /// How long a non-empty batch waits for more rows before scoring.
    /// Default 200µs — enough for concurrent arrivals to pile up, far below
    /// human-visible latency.
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 256,
            linger: Duration::from_micros(200),
        }
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
    config: BatchConfig,
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
            config: BatchConfig {
                max_batch: config.max_batch.max(1),
                linger: config.linger,
            },
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
        let mut receivers = self.enqueue_rows(vec![row], k);
        receivers.pop().expect("one row, one receiver")
    }

    /// Enqueue a request's rows without blocking, under one queue lock and
    /// with one wake-up of the worker, so they are all visible to the same
    /// worker pass: a request's own rows form one batch (up to
    /// [`BatchConfig::max_batch`]) and coalesce with concurrent requests.
    /// The receivers yield the results in row order.
    pub(crate) fn enqueue_rows(&self, rows: Vec<Vec<f64>>, k: usize) -> Vec<Receiver> {
        let mut queue = self.inner.queue.lock().expect("queue poisoned");
        let receivers = rows
            .into_iter()
            .map(|row| {
                let (reply, rx) = mpsc::channel();
                if queue.shutdown {
                    reply.send(Err(ServeError::Closed)).ok();
                } else {
                    queue.pending.push(Pending { row, k, reply });
                }
                rx
            })
            .collect();
        if !queue.shutdown {
            self.inner.arrived.notify_all();
        }
        receivers
    }
}

/// The channel one enqueued row's result arrives on.
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

/// Should the worker linger for stragglers before scoring? Only when the
/// rows are *fresh* — the queue was empty when this pass began — and the
/// batch still has room. Leftover rows from a previous over-full drain have
/// already waited one full linger + score cycle, and a queue that woke
/// already at `max_batch` can't grow its batch: lingering in either case
/// only adds dead latency. (This was a real bug: rows 257..N of a burst
/// paid the linger again on every drain pass.)
fn should_linger(queue_was_empty: bool, pending: usize, max_batch: usize) -> bool {
    queue_was_empty && pending < max_batch
}

fn worker_loop(inner: &Inner) {
    loop {
        let mut queue = inner.queue.lock().expect("queue poisoned");
        let queue_was_empty = queue.pending.is_empty();
        while queue.pending.is_empty() && !queue.shutdown {
            queue = inner.arrived.wait(queue).expect("queue poisoned");
        }
        if queue.pending.is_empty() && queue.shutdown {
            return;
        }
        // Linger: give concurrent requests a short window to join this
        // batch, bounded by max_batch. Shutdown skips the linger so the
        // drain is prompt; so do leftover rows and already-full queues
        // (see `should_linger`).
        if !queue.shutdown
            && should_linger(queue_was_empty, queue.pending.len(), inner.config.max_batch)
        {
            let deadline = Instant::now() + inner.config.linger;
            while queue.pending.len() < inner.config.max_batch && !queue.shutdown {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = inner
                    .arrived
                    .wait_timeout(queue, deadline - now)
                    .expect("queue poisoned");
                queue = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let take = queue.pending.len().min(inner.config.max_batch);
        let batch: Vec<Pending> = queue.pending.drain(..take).collect();
        drop(queue);
        score_batch(inner, batch);
    }
}

/// Score one coalesced batch against ONE model snapshot and fan results out.
fn score_batch(inner: &Inner, batch: Vec<Pending>) {
    let snapshot: Arc<ModelSnapshot> = inner.model.snapshot();
    let d = snapshot.engine.feature_dim();
    let z = snapshot.engine.num_classes();

    // Reject width-mismatched rows per row; everything else forms the batch
    // matrix. (Width can legitimately change between enqueue and scoring if
    // a hot swap replaced the model with one from a different feature
    // space — that must be an error response, not a panic.)
    let mut rows = Vec::new();
    let mut flat = Vec::new();
    for pending in batch {
        if pending.row.len() == d {
            flat.extend_from_slice(&pending.row);
            rows.push(pending);
        } else {
            let got = pending.row.len();
            pending
                .reply
                .send(Err(ServeError::Protocol(format!(
                    "feature row has {got} values but the model expects {d}"
                ))))
                .ok();
        }
    }
    if rows.is_empty() {
        return;
    }

    let x = Matrix::from_vec(rows.len(), d, flat);
    // One kernel call wide enough for the largest request; k >= 1 so the
    // ranking's head doubles as the argmax (same total_cmp order, same
    // first-index tie-break as `predict`).
    let k_max = rows.iter().map(|p| p.k).max().unwrap_or(1).clamp(1, z);
    let ranked = snapshot.engine.predict_topk(&x, k_max);
    inner.stats.record_batch(rows.len());

    for (pending, full) in rows.into_iter().zip(ranked) {
        let keep = pending.k.min(z);
        let result = RowResult {
            class: full.classes[0],
            topk: TopK {
                classes: full.classes[..keep].to_vec(),
                scores: full.scores[..keep].to_vec(),
            },
            generation: snapshot.generation,
        };
        pending.reply.send(Ok(result)).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BootOptions;
    use std::path::PathBuf;
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enqueued_rows_coalesce_into_one_batch() {
        let (path, engine) = artifact("widebatch", 14, 4, 5);
        // Generous linger so all enqueues land in the first worker pass.
        let (coalescer, stats) = start(
            &path,
            BatchConfig {
                max_batch: 64,
                linger: Duration::from_millis(100),
            },
        );
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

        // One request of 64 rows under the default linger: one batch of 64.
        let (coalescer, stats) = start(&path, BatchConfig::default());
        let request = rows(64, &mut rng);
        let receivers = coalescer.enqueue_rows(request.clone(), 1);
        for (row, rx) in request.into_iter().zip(receivers) {
            let got = rx.recv().expect("reply").expect("scored");
            assert_eq!(got.class, engine.predict(&Matrix::from_vec(1, 4, row))[0]);
        }
        let snap = stats.snapshot();
        assert_eq!((snap.batches, snap.rows, snap.max_batch_rows), (1, 64, 64));

        // 300 rows at max_batch 256: batches of 256 and 44.
        let (coalescer, stats) = start(
            &path,
            BatchConfig {
                max_batch: 256,
                ..BatchConfig::default()
            },
        );
        for rx in coalescer.enqueue_rows(rows(300, &mut rng), 1) {
            rx.recv().expect("reply").expect("scored");
        }
        let snap = stats.snapshot();
        assert_eq!(
            (snap.batches, snap.rows, snap.max_batch_rows),
            (2, 300, 256)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn linger_decision_skips_leftovers_and_full_queues() {
        // Fresh rows with room to grow: linger.
        assert!(should_linger(true, 1, 256));
        assert!(should_linger(true, 255, 256));
        // Woke to an already-full (or over-full) queue: score immediately.
        assert!(!should_linger(true, 256, 256));
        assert!(!should_linger(true, 300, 256));
        // Leftovers from a previous over-full drain: score immediately.
        assert!(!should_linger(false, 1, 256));
        assert!(!should_linger(false, 300, 256));
    }

    #[test]
    fn leftover_rows_after_a_full_drain_skip_the_linger() {
        let (path, _) = artifact("leftover", 16, 4, 5);
        // 6 rows against max_batch=2 force three drain passes. With the old
        // linger (re-waited on every pass), passes 2 and 3 each burned the
        // full 400ms window on an idle queue: >= 800ms total. Fixed, only
        // the first (fresh) pass may linger, and it ends early once the
        // queue hits max_batch.
        let (coalescer, stats) = start(
            &path,
            BatchConfig {
                max_batch: 2,
                linger: Duration::from_millis(400),
            },
        );
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
        assert!(
            elapsed < Duration::from_millis(750),
            "leftover rows re-lingered: 6 rows at max_batch=2 took {elapsed:?}"
        );
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
