//! Allocation budget of the scoring engine: a 64-row `predict_topk` (k = 10)
//! and `predict` on one engine thread must make the same number of heap
//! allocations, and reach the same peak of live heap bytes, at every class
//! count and every bank shard count. The engine scores the bank one 64-class
//! tile at a time, so nothing it allocates may grow with the class count.
//!
//! Counts do not depend on the host's speed, so the budget resolves changes
//! that timing cannot. A counting global allocator tallies every `alloc`,
//! `alloc_zeroed` and `realloc` call and tracks live bytes and their
//! high-water mark. This binary holds a single test, so nothing else shares
//! the counters, and each call is measured after a warm-up call, so
//! process-wide set-up is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use zsl_core::data::Rng;
use zsl_core::{Matrix, ProjectionModel, ScoringEngine, Similarity};

/// Rows per scored batch: serve-bulk's request size.
const ROWS: usize = 64;
/// Ranking length: serve-bulk's `k`.
const K: usize = 10;
const FEATURES: usize = 64;
const ATTRS: usize = 32;

/// Most allocation calls one `predict_topk` may make: the 198 measured when
/// the budget was set, plus a small margin. Three per row (its heap, then its
/// ranking's classes and scores) and six per call. (Before the engine fused
/// the reduce into the bank product it made 324, or 330 at 4 shards.)
const TOPK_CALLS: usize = 204;
/// Most allocation calls one `predict` may make: the 6 measured, plus a
/// margin.
const PREDICT_CALLS: usize = 8;
/// Most live heap bytes one `predict_topk` may add at its peak: the 80400
/// measured (the projection, one 64 x 64 score tile, one packed tile of the
/// bank, the heaps and the output), plus a margin. Before the fused reduce
/// the peak held the whole 64 x z score block: 4231872 bytes at z = 8192.
const TOPK_PEAK_BYTES: usize = 84 << 10;
/// Most live heap bytes one `predict` may add at its peak: the 67088
/// measured, plus a margin.
const PREDICT_PEAK_BYTES: usize = 70 << 10;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Count one allocation call that adds `grow` live bytes.
fn grow(grow: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(grow, Relaxed) + grow;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size.saturating_sub(layout.size()));
        LIVE.fetch_sub(layout.size().saturating_sub(new_size), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` and return its result with the allocation calls it made and the
/// peak of live bytes it added.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, base) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(base, Relaxed);
    let out = f();
    (out, CALLS.load(Relaxed) - calls, PEAK.load(Relaxed) - base)
}

#[test]
fn scoring_allocations_and_peak_heap_do_not_grow_with_the_class_count() {
    let mut rng = Rng::new(0x5C0E);
    let mut normal = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.normal()).collect() };
    let weights = Matrix::from_vec(FEATURES, ATTRS, normal(FEATURES * ATTRS));
    let x = Matrix::from_vec(ROWS, FEATURES, normal(ROWS * FEATURES));
    let mut topk = Vec::new();
    let mut argmax = Vec::new();
    for z in [64usize, 1000, 8192] {
        let bank = Matrix::from_vec(z, ATTRS, normal(z * ATTRS));
        for shards in [1usize, 4] {
            let model = ProjectionModel::from_weights(weights.clone());
            let mut engine =
                ScoringEngine::try_new(model, bank.clone(), Similarity::Cosine).expect("engine");
            engine.set_threads(1);
            engine.set_bank_shards(shards);
            let warm = engine.predict_topk(&x, K);
            let (ranked, calls, peak) = counted(|| engine.predict_topk(&x, K));
            assert_eq!(ranked, warm, "z={z} shards={shards}: another ranking");
            eprintln!("z={z} shards={shards}: predict_topk {calls} calls, peak +{peak} bytes");
            topk.push((z, shards, calls, peak));

            let warm = engine.predict(&x);
            let (classes, calls, peak) = counted(|| engine.predict(&x));
            assert_eq!(classes, warm, "z={z} shards={shards}: another argmax");
            eprintln!("z={z} shards={shards}: predict {calls} calls, peak +{peak} bytes");
            argmax.push((z, shards, calls, peak));
        }
    }
    for (what, runs, max_calls, max_peak) in [
        ("predict_topk", &topk, TOPK_CALLS, TOPK_PEAK_BYTES),
        ("predict", &argmax, PREDICT_CALLS, PREDICT_PEAK_BYTES),
    ] {
        let (_, _, calls, peak) = runs[0];
        for &(z, shards, got_calls, got_peak) in runs.iter() {
            assert_eq!(
                (got_calls, got_peak),
                (calls, peak),
                "{what} at z={z} shards={shards} allocates other than at z=64 with one band"
            );
        }
        assert!(
            calls <= max_calls,
            "{what} made {calls} allocations, over its budget of {max_calls}"
        );
        assert!(
            peak <= max_peak,
            "{what} added {peak} live bytes at its peak, over its budget of {max_peak}"
        );
    }
}
