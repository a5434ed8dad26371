//! Hot-swappable model state: one immutable engine shared by every request
//! thread, atomically replaced when the artifact on disk changes.
//!
//! The serving invariants:
//!
//! - Request threads see **one immutable [`ScoringEngine`]** behind an
//!   `Arc`: a snapshot taken at batch time keeps scoring that exact model
//!   even if a reload lands mid-batch, so no batch ever mixes two models.
//! - Reload goes through [`ScoringEngine::load_with_metadata`] (or
//!   [`ScoringEngine::load_mapped`] under [`BootOptions::mmap_boot`]), which
//!   validates the entire artifact before anything is swapped — combined
//!   with the writer side's fsync + unique-temp + rename discipline, a
//!   swap can only ever install a complete old or complete new model,
//!   never a partial or blended one.
//! - Reload **never panics**: every failure is a typed error, counted and
//!   logged, and the previous model keeps serving.

use crate::error::ServeError;
use crate::stats::ServeStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant, SystemTime};
use zsl_core::ScoringEngine;

/// One immutable, fully-validated model: what a request thread scores with.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// The scoring engine, shared across request threads.
    pub engine: Arc<ScoringEngine>,
    /// Provenance metadata stored in the artifact, verbatim.
    pub metadata: String,
    /// Monotonic swap counter: 1 for the boot model, +1 per successful
    /// reload. Responses echo it so clients can observe swaps.
    pub generation: u64,
}

/// On-disk identity of the artifact last loaded, used to detect changes
/// without re-reading (or re-validating) the whole file.
///
/// Length + mtime alone are not enough: a retrainer that re-saves a
/// same-shape model within the filesystem's timestamp granularity (coarse
/// on some filesystems, and a realistic fast-retrain scenario) produces a
/// byte-different artifact with an identical `(len, mtime)` pair, and the
/// watcher would skip the swap forever. The fingerprint therefore also
/// carries a cheap FNV-1a digest of the artifact's length, first page
/// (header + metadata + the start of the model payload) and last page (the
/// tail of the bank) — two 4 KiB reads, independent of artifact size, and
/// any retrain perturbs the bank tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    len: u64,
    modified: Option<SystemTime>,
    digest: u64,
}

/// Bytes hashed from each end of the artifact.
const FINGERPRINT_SPAN: usize = 4096;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

impl Fingerprint {
    fn probe(path: &Path) -> std::io::Result<Fingerprint> {
        use std::io::{Read, Seek, SeekFrom};
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        // One open handle for metadata and reads: even if the path is
        // atomically renamed over mid-probe, every field below describes the
        // same inode.
        let mut file = std::fs::File::open(path)?;
        let meta = file.metadata()?;
        let len = meta.len();
        let mut digest = fnv1a(FNV_OFFSET, &len.to_le_bytes());
        let span = FINGERPRINT_SPAN.min(usize::try_from(len).unwrap_or(FINGERPRINT_SPAN));
        let mut buf = vec![0u8; span];
        file.read_exact(&mut buf)?;
        digest = fnv1a(digest, &buf);
        if len > span as u64 {
            file.seek(SeekFrom::End(-(span as i64)))?;
            file.read_exact(&mut buf)?;
            digest = fnv1a(digest, &buf);
        }
        Ok(Fingerprint {
            len,
            modified: meta.modified().ok(),
            digest,
        })
    }
}

/// How [`ModelHandle::boot_with_options`] loads and sizes engines — applied
/// identically at boot and on every hot swap, so a reload can never revert
/// the daemon to different scoring behavior than it booted with.
#[derive(Clone, Copy, Debug, Default)]
pub struct BootOptions {
    /// Kernel thread count per installed engine; 0 means one thread per
    /// available core.
    pub engine_threads: usize,
    /// Load artifacts through [`ScoringEngine::load_mapped`]: zero-copy bank
    /// borrow when the artifact layout and platform allow it, transparent
    /// heap fallback otherwise.
    pub mmap_boot: bool,
}

/// The daemon's model slot: boots from a `.zsm` artifact, hands out
/// snapshots, and swaps in re-validated replacements atomically.
#[derive(Debug)]
pub struct ModelHandle {
    path: PathBuf,
    current: RwLock<(Arc<ModelSnapshot>, Fingerprint)>,
    stats: Arc<ServeStats>,
    /// Load/sizing options applied to every engine this handle installs
    /// (boot and each reload). `engine_threads` is sized once at boot:
    /// request threads already provide the serving concurrency, so the
    /// engine must not additionally fan each batch out to
    /// `default_threads()` bands per request thread — that oversubscribes
    /// the cores and slows every batch down. The mmap option is re-applied
    /// on every hot swap for the same reason.
    options: BootOptions,
}

impl ModelHandle {
    /// Boot from the artifact at `path`. This is the daemon's cold start:
    /// the box needs the `.zsm` file and nothing else — no training data,
    /// no re-solve. A bad artifact is a typed error, never a panic.
    ///
    /// [`BootOptions`] set the thread sizing and opt-in mmap loading; every
    /// later hot swap re-applies the same options, so a
    /// reload can never silently revert the daemon to oversubscribed
    /// defaults.
    pub fn boot_with_options(
        path: &Path,
        stats: Arc<ServeStats>,
        mut options: BootOptions,
    ) -> Result<ModelHandle, ServeError> {
        options.engine_threads = if options.engine_threads == 0 {
            zsl_core::default_threads()
        } else {
            options.engine_threads
        };
        let fingerprint = Fingerprint::probe(path)?;
        let (engine, metadata) = Self::load_engine(path, &options)?;
        Self::set_bank_gauges(&stats, &engine);
        let snapshot = Arc::new(ModelSnapshot {
            engine: Arc::new(engine),
            metadata,
            generation: 1,
        });
        Ok(ModelHandle {
            path: path.to_path_buf(),
            current: RwLock::new((snapshot, fingerprint)),
            stats,
            options,
        })
    }

    /// Load + size one engine per the handle's options — the single code
    /// path behind boot and every reload.
    fn load_engine(
        path: &Path,
        options: &BootOptions,
    ) -> Result<(ScoringEngine, String), ServeError> {
        let (mut engine, metadata) = if options.mmap_boot {
            ScoringEngine::load_mapped(path)?
        } else {
            ScoringEngine::load_with_metadata(path)?
        };
        engine.set_threads(options.engine_threads);
        Ok((engine, metadata))
    }

    fn set_bank_gauges(stats: &ServeStats, engine: &ScoringEngine) {
        stats.set_bank_gauges(engine.bank_resident_bytes(), engine.is_bank_mapped());
    }

    /// The current model. Cheap (one `Arc` clone under a read lock); the
    /// returned snapshot stays valid — and immutable — for as long as the
    /// caller holds it, regardless of concurrent swaps.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.current.read().expect("model lock poisoned").0.clone()
    }

    /// Generation of the current model.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Reload the artifact unconditionally. On success the new model is
    /// swapped in atomically and `Ok(generation)` is returned; on failure
    /// the old model keeps serving and the error is returned (and counted).
    pub fn reload(&self) -> Result<u64, ServeError> {
        let fingerprint = Fingerprint::probe(&self.path).map_err(|e| {
            self.stats.record_reload(false);
            ServeError::Io(e)
        })?;
        match Self::load_engine(&self.path, &self.options) {
            Ok((engine, metadata)) => {
                Self::set_bank_gauges(&self.stats, &engine);
                let mut slot = self.current.write().expect("model lock poisoned");
                let generation = slot.0.generation + 1;
                *slot = (
                    Arc::new(ModelSnapshot {
                        engine: Arc::new(engine),
                        metadata,
                        generation,
                    }),
                    fingerprint,
                );
                self.stats.record_reload(true);
                Ok(generation)
            }
            Err(e) => {
                self.stats.record_reload(false);
                Err(e)
            }
        }
    }

    /// Reload only if the artifact's on-disk fingerprint (length + mtime +
    /// content digest) changed since the last successful load — the
    /// watcher's poll step.
    /// Returns `Ok(Some(generation))` after a swap, `Ok(None)` when the
    /// file is unchanged.
    pub fn poll(&self) -> Result<Option<u64>, ServeError> {
        let fingerprint = Fingerprint::probe(&self.path)?;
        let unchanged = self.current.read().expect("model lock poisoned").1 == fingerprint;
        if unchanged {
            return Ok(None);
        }
        self.reload().map(Some)
    }
}

/// Watch the artifact path in a background thread, polling every
/// `interval` and hot-swapping the model on change. Reload failures are
/// counted and otherwise ignored — a half-second of stale model beats a
/// dead daemon. Returns the join handle. The thread waits out each interval
/// parked, so it exits promptly once `stop` is set and the thread is
/// unparked ([`std::thread::Thread::unpark`] on the handle's thread), not
/// at the end of its interval.
pub(crate) fn spawn_watcher(
    model: Arc<ModelHandle>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("zsl-serve-watcher".into())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Ignore poll errors here: a transient stat/read failure (or
                // a writer mid-replace on a non-atomic filesystem) must not
                // kill the watcher; the failure is already counted.
                let _ = model.poll();
                // A park may end early, spuriously or by the unpark that
                // follows `stop`; only `stop` or the deadline ends the wait.
                // An interval past the clock's range has no deadline.
                let deadline = Instant::now().checked_add(interval);
                while !stop.load(Ordering::Relaxed) {
                    let left = deadline.map_or(interval, |d| d.duration_since(Instant::now()));
                    if left.is_zero() {
                        break;
                    }
                    std::thread::park_timeout(left);
                }
            }
        })
        .expect("spawn watcher thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsl_core::data::Rng;
    use zsl_core::model::ProjectionModel;
    use zsl_core::{Matrix, Similarity};

    fn temp_artifact(tag: &str, seed: u64) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("zsl_serve_model_{}_{tag}.zsm", std::process::id()));
        let mut rng = Rng::new(seed);
        let w = Matrix::from_vec(3, 2, (0..6).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(4, 2, (0..8).map(|_| rng.normal()).collect());
        ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, Similarity::Dot)
            .expect("engine")
            .save_with_metadata(&path, &format!("seed={seed}"))
            .expect("save");
        path
    }

    #[test]
    fn boot_snapshot_and_forced_reload_bump_generation() {
        let path = temp_artifact("reload", 1);
        let stats = Arc::new(ServeStats::new());
        let handle = ModelHandle::boot_with_options(&path, stats.clone(), BootOptions::default())
            .expect("boot");
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.snapshot().metadata, "seed=1");
        let generation = handle.reload().expect("reload");
        assert_eq!(generation, 2);
        assert_eq!(stats.snapshot().reloads, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poll_swaps_only_on_change_and_failure_keeps_old_model() {
        let path = temp_artifact("poll", 2);
        let stats = Arc::new(ServeStats::new());
        let handle = ModelHandle::boot_with_options(&path, stats.clone(), BootOptions::default())
            .expect("boot");
        assert_eq!(handle.poll().expect("poll"), None, "unchanged file swapped");

        // Corrupt the artifact in place (not via the atomic save path):
        // reload must fail with a typed error and keep the boot model.
        std::fs::write(&path, b"garbage").expect("corrupt");
        assert!(matches!(handle.poll(), Err(ServeError::Model(_))));
        assert_eq!(handle.generation(), 1, "old model must keep serving");
        assert_eq!(stats.snapshot().reload_failures, 1);

        // A valid replacement written through the atomic save path swaps in.
        let mut rng = Rng::new(9);
        let w = Matrix::from_vec(3, 2, (0..6).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(4, 2, (0..8).map(|_| rng.normal()).collect());
        ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, Similarity::Dot)
            .expect("engine")
            .save_with_metadata(&path, "replacement")
            .expect("save");
        assert_eq!(handle.poll().expect("poll"), Some(2));
        assert_eq!(handle.snapshot().metadata, "replacement");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_engine_threads_survive_boot_and_reload() {
        let path = temp_artifact("threads", 3);
        let stats = Arc::new(ServeStats::new());
        let handle = ModelHandle::boot_with_options(
            &path,
            stats,
            BootOptions {
                engine_threads: 3,
                ..BootOptions::default()
            },
        )
        .expect("boot");
        assert_eq!(handle.snapshot().engine.threads(), 3);
        handle.reload().expect("reload");
        assert_eq!(
            handle.snapshot().engine.threads(),
            3,
            "hot swap must not revert the boot-time engine sizing"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn same_length_same_mtime_resave_still_triggers_hot_swap() {
        let path = temp_artifact("digest", 4);
        let stats = Arc::new(ServeStats::new());
        let handle =
            ModelHandle::boot_with_options(&path, stats, BootOptions::default()).expect("boot");
        let original_len = std::fs::metadata(&path).expect("meta").len();
        let original_mtime = std::fs::metadata(&path)
            .expect("meta")
            .modified()
            .expect("mtime");

        // Retrain scenario: a byte-different artifact of identical length
        // (same dims, same metadata length) lands faster than the
        // filesystem's timestamp granularity. Simulate the worst case by
        // pinning the mtime back to the original value — a `(len, mtime)`
        // fingerprint sees nothing, only the content digest can.
        let mut rng = Rng::new(77);
        let w = Matrix::from_vec(3, 2, (0..6).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(4, 2, (0..8).map(|_| rng.normal()).collect());
        ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, Similarity::Dot)
            .expect("engine")
            .save_with_metadata(&path, "seed=77")
            .expect("resave");
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            original_len,
            "scenario requires a same-length resave"
        );
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for set_times");
        file.set_times(std::fs::FileTimes::new().set_modified(original_mtime))
            .expect("pin mtime");
        drop(file);
        assert_eq!(
            std::fs::metadata(&path)
                .expect("meta")
                .modified()
                .expect("mtime"),
            original_mtime,
            "scenario requires an identical mtime"
        );

        assert_eq!(
            handle.poll().expect("poll"),
            Some(2),
            "content digest must catch a same-length same-mtime rewrite"
        );
        assert_eq!(handle.snapshot().metadata, "seed=77");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_artifact_is_a_typed_boot_error() {
        let path = std::env::temp_dir().join("zsl_serve_model_missing.zsm");
        std::fs::remove_file(&path).ok();
        let stats = Arc::new(ServeStats::new());
        assert!(matches!(
            ModelHandle::boot_with_options(&path, stats, BootOptions::default()),
            Err(ServeError::Io(_))
        ));
    }
}
