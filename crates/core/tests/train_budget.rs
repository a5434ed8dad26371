//! Allocation budget of training: one default `cross_validate` (ESZSL, 49
//! grid points, 3 folds), the same sweep with a calibration axis
//! `[0, 0.1, 0.3]`, and one `EszslTrainer::fit` must each stay within a
//! fixed number of heap allocation calls and a fixed peak of live heap
//! bytes.
//!
//! Counts do not depend on the host's speed, so the budget resolves changes
//! that timing cannot. The dataset is small enough that every product stays
//! under the linalg pool's parallel cutoff and runs on the calling thread,
//! so the counts do not depend on the host's core count either. A counting
//! global allocator tallies every `alloc`, `alloc_zeroed` and `realloc` call
//! and tracks live bytes and their high-water mark. This binary holds a
//! single test, so nothing else shares the counters, and each call is
//! measured after a warm-up call, so process-wide set-up is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use zsl_core::{cross_validate, CrossValConfig, EszslTrainer, SyntheticConfig};

/// Most allocation calls one default `cross_validate` may make: the 2610
/// measured when the budget was set, plus a small margin. (Cloning each
/// grid model into its engine made it 2757.)
const PLAIN_CV_CALLS: usize = 2700;
/// Most live heap bytes one default `cross_validate` may add at its peak:
/// the 145768 measured (a fold's 49 engines, its gathered validation rows
/// and the sweep's bookkeeping), plus a margin.
const PLAIN_CV_PEAK_BYTES: usize = 150 << 10;
/// Most allocation calls one `cross_validate` with three calibration
/// penalties may make: the 5693 measured, plus a small margin. It scores
/// each validation chunk once per grid model and penalizes the scores
/// itself; one calibrated engine per grid point and penalty, each scoring
/// the chunk, made 8615.
const CALIBRATED_CV_CALLS: usize = 5800;
/// Most live heap bytes the calibrated `cross_validate` may add at its
/// peak: the 188036 measured, plus a margin. One engine per grid point and
/// penalty peaked at 378764.
const CALIBRATED_CV_PEAK_BYTES: usize = 192 << 10;
/// Most allocation calls one `EszslTrainer::fit` may make: the 21
/// measured, plus a margin.
const FIT_CALLS: usize = 24;
/// Most live heap bytes one `fit` may add at its peak: the 50088 measured
/// (the Gram matrices, their factorizations and the weights), plus a margin.
const FIT_PEAK_BYTES: usize = 52 << 10;

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

/// Run `f` once to warm up, then again counted; both runs must agree.
/// Returns the counted run's allocation calls and the peak of live bytes it
/// added.
fn counted<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) -> (usize, usize) {
    let warm = f();
    let (calls, base) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(base, Relaxed);
    let out = f();
    let (calls, peak) = (CALLS.load(Relaxed) - calls, PEAK.load(Relaxed) - base);
    assert_eq!(out, warm, "{what}: another result");
    eprintln!("{what}: {calls} calls, peak +{peak} bytes");
    (calls, peak)
}

#[test]
fn training_allocations_and_peak_heap_stay_within_budget() {
    // 240 trainval rows of 16 features (30 KiB), 12 seen classes of 8
    // attributes: a validation fold's projection and scoring, the largest
    // products, are about 10⁴ multiply-adds.
    let ds = SyntheticConfig::new()
        .classes(12, 3)
        .dims(8, 16)
        .samples(20, 4)
        .noise(0.5)
        .seed(0x7B)
        .build();
    let trainer = EszslTrainer::default();
    let plain = CrossValConfig::default();
    let calibrated = CrossValConfig::default().calibrations(vec![0.0, 0.1, 0.3]);
    let runs = [
        (
            "default cross_validate",
            counted("default cross_validate", || {
                cross_validate(&trainer, &ds, &plain).expect("cv")
            }),
            PLAIN_CV_CALLS,
            PLAIN_CV_PEAK_BYTES,
        ),
        (
            "calibrated cross_validate",
            counted("calibrated cross_validate", || {
                cross_validate(&trainer, &ds, &calibrated).expect("calibrated cv")
            }),
            CALIBRATED_CV_CALLS,
            CALIBRATED_CV_PEAK_BYTES,
        ),
        (
            "fit",
            counted("fit", || trainer.fit(&ds).expect("fit").into_weights()),
            FIT_CALLS,
            FIT_PEAK_BYTES,
        ),
    ];
    let mut over = Vec::new();
    for (what, (calls, peak), max_calls, max_peak) in runs {
        if calls > max_calls {
            over.push(format!(
                "{what} made {calls} allocations, over its budget of {max_calls}"
            ));
        }
        if peak > max_peak {
            over.push(format!(
                "{what} added {peak} live bytes at its peak, over its budget of {max_peak}"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
