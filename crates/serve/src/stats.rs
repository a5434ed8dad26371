//! Lock-free serving counters.
//!
//! Every counter is a relaxed atomic: the stats are observability, not
//! synchronization, and the hot path must not pay for them. A
//! [`StatsSnapshot`] is a plain copy taken at read time — the acceptance
//! evidence that request coalescing actually happens under load
//! (`max_batch_rows > 1`) is read from here by tests and `/stats`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters shared by the coalescer, the model watcher, and the HTTP layer.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// HTTP requests accepted (any route).
    requests: AtomicU64,
    /// Feature rows scored.
    rows: AtomicU64,
    /// Batches executed by the coalescing worker.
    batches: AtomicU64,
    /// Widest batch (in rows) executed so far.
    max_batch_rows: AtomicU64,
    /// Batches that coalesced more than one row — the whole point of the
    /// batching layer.
    coalesced_batches: AtomicU64,
    /// Successful hot-swap model reloads.
    reloads: AtomicU64,
    /// Failed reload attempts (old model kept serving).
    reload_failures: AtomicU64,
    /// Requests rejected with a protocol error.
    rejected: AtomicU64,
    /// Thread count the scoring engine was sized to at boot. A gauge, not a
    /// counter: set once when the server starts so `/stats` shows how the
    /// engine was sized (the fix for kernel threads oversubscribing CPU
    /// cores under concurrent request threads).
    engine_threads: AtomicU64,
    /// Threads in the process-wide linalg worker pool (including the
    /// submitting thread). Also a boot-time gauge.
    pool_threads: AtomicU64,
    /// Heap bytes resident for the installed engine's bank (0 when the bank
    /// is borrowed from an mmap'd artifact). Refreshed on every install.
    bank_resident_bytes: AtomicU64,
    /// 1 when the installed engine borrows its bank from a memory-mapped
    /// artifact, 0 when the bank is heap-owned. Refreshed on every install.
    mmap_boot: AtomicU64,
}

/// One consistent-enough copy of the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub rows: u64,
    pub batches: u64,
    pub max_batch_rows: u64,
    pub coalesced_batches: u64,
    pub reloads: u64,
    pub reload_failures: u64,
    pub rejected: u64,
    pub engine_threads: u64,
    pub pool_threads: u64,
    /// [`zsl_core::kernel_isa`]: the instance the bank product and the model
    /// projection run in this process, and the Cholesky factorization and
    /// solves of any model trained in it. A process constant, read when the
    /// snapshot is taken.
    pub kernel_isa: &'static str,
    pub bank_resident_bytes: u64,
    pub mmap_boot: u64,
}

impl ServeStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one executed batch of `rows` coalesced rows.
    pub(crate) fn record_batch(&self, rows: usize) {
        let rows = rows as u64;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.max_batch_rows.fetch_max(rows, Ordering::Relaxed);
        if rows > 1 {
            self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Set the boot-time sizing gauges: the engine's kernel thread count and
    /// the shared linalg pool width. Called once by [`crate::Server::start`].
    pub(crate) fn set_thread_gauges(&self, engine_threads: usize, pool_threads: usize) {
        self.engine_threads
            .store(engine_threads as u64, Ordering::Relaxed);
        self.pool_threads
            .store(pool_threads as u64, Ordering::Relaxed);
    }

    /// Set the bank gauges for the engine just installed: heap-resident
    /// bank bytes, and whether the bank is mmap-borrowed. Called by the
    /// model handle on boot and on every successful hot swap, so `/stats`
    /// always describes the engine actually serving.
    pub(crate) fn set_bank_gauges(&self, resident_bytes: usize, mapped: bool) {
        self.bank_resident_bytes
            .store(resident_bytes as u64, Ordering::Relaxed);
        self.mmap_boot.store(u64::from(mapped), Ordering::Relaxed);
    }

    pub(crate) fn record_reload(&self, ok: bool) {
        if ok {
            self.reloads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reload_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch_rows: self.max_batch_rows.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            engine_threads: self.engine_threads.load(Ordering::Relaxed),
            pool_threads: self.pool_threads.load(Ordering::Relaxed),
            kernel_isa: zsl_core::kernel_isa(),
            bank_resident_bytes: self.bank_resident_bytes.load(Ordering::Relaxed),
            mmap_boot: self.mmap_boot.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// `key=value` lines, one per counter — the `/stats` response body.
    pub fn render(&self) -> String {
        format!(
            "requests={}\nrows={}\nbatches={}\nmax_batch_rows={}\ncoalesced_batches={}\n\
             reloads={}\nreload_failures={}\nrejected={}\nengine_threads={}\npool_threads={}\n\
             kernel_isa={}\nbank_resident_bytes={}\nmmap_boot={}\n",
            self.requests,
            self.rows,
            self.batches,
            self.max_batch_rows,
            self.coalesced_batches,
            self.reloads,
            self.reload_failures,
            self.rejected,
            self.engine_threads,
            self.pool_threads,
            self.kernel_isa,
            self.bank_resident_bytes,
            self.mmap_boot
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_recording_tracks_width_and_coalescing() {
        let stats = ServeStats::new();
        stats.record_batch(1);
        stats.record_batch(7);
        stats.record_batch(3);
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.rows, 11);
        assert_eq!(snap.max_batch_rows, 7);
        assert_eq!(snap.coalesced_batches, 2);
        assert!(snap.render().contains("max_batch_rows=7"));
    }

    #[test]
    fn thread_gauges_are_set_once_and_rendered() {
        let stats = ServeStats::new();
        assert_eq!(stats.snapshot().engine_threads, 0);
        stats.set_thread_gauges(3, 4);
        let snap = stats.snapshot();
        assert_eq!(snap.engine_threads, 3);
        assert_eq!(snap.pool_threads, 4);
        assert!(snap.render().contains("engine_threads=3"));
        let isa = format!("\npool_threads=4\nkernel_isa={}\n", zsl_core::kernel_isa());
        assert!(snap.render().contains(&isa), "{}", snap.render());
        assert!(["avx2", "portable"].contains(&snap.kernel_isa));
    }

    #[test]
    fn bank_gauges_track_each_install_and_render() {
        let stats = ServeStats::new();
        stats.set_bank_gauges(8192, false);
        let snap = stats.snapshot();
        assert_eq!(snap.bank_resident_bytes, 8192);
        assert_eq!(snap.mmap_boot, 0);
        stats.set_bank_gauges(0, true);
        let snap = stats.snapshot();
        assert_eq!(snap.bank_resident_bytes, 0);
        assert_eq!(snap.mmap_boot, 1);
        assert!(snap.render().contains("\nkernel_isa="));
        assert!(snap.render().contains("bank_resident_bytes=0"));
        assert!(snap.render().contains("mmap_boot=1"));
    }
}
