//! Allocation cap for the `.mat` decoders: a file of a few hundred bytes
//! whose compressed element claims gigabytes must fail with a typed error
//! while the process stays inside a fixed allocation budget, instead of
//! reserving the claim up front.
//!
//! A counting global allocator tracks live heap bytes and their high-water
//! mark. This binary holds a single test, so nothing else shares the counter.

mod common;

use common::{compressed_header_only, scratch_dir};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use zsl_mat::{MatError, MatFile};

/// Peak allocation a failing decode may reach: far above what a bounded
/// decode needs, far below any of the claims below.
const CAP: usize = 16 << 20;

/// Requests above this are refused (the process then aborts), so a decoder
/// that trusts a claim fails at once instead of touching gigabytes.
const REFUSE: usize = 256 << 20;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Count `grow` more live bytes (a refused request counts towards the peak
/// too) and say whether the request may proceed.
fn admit(grow: usize, requested: usize) -> bool {
    let live = LIVE.load(Relaxed);
    PEAK.fetch_max(live + grow, Relaxed);
    if requested > REFUSE {
        return false;
    }
    LIVE.fetch_add(grow, Relaxed);
    true
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size(), layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size(), layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grow = new_size.saturating_sub(layout.size());
        if !admit(grow, new_size) {
            return std::ptr::null_mut();
        }
        LIVE.fetch_sub(layout.size().saturating_sub(new_size), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` and return its result with the peak of live bytes it added.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

#[test]
fn hostile_size_claims_fail_within_the_allocation_cap() {
    let dir = scratch_dir("alloc_cap");

    // Column streaming: one column of i32::MAX uint8 values (2 GiB) claimed
    // by a 203-byte file.
    let path = compressed_header_only(&dir, "cols.mat", &[i32::MAX, 1], i32::MAX as u32);
    assert_eq!(std::fs::metadata(&path).expect("meta").len(), 203);
    let (result, peak) = peak_during(|| MatFile::open(&path)?.stream_columns("m", 4)?.next_chunk());
    assert!(
        matches!(result, Err(MatError::Truncated { .. })),
        "expected Truncated, got {result:?}"
    );
    assert!(peak < CAP, "next_chunk peaked at {peak} bytes");

    // Whole-variable read: 65535 x 65535 values claimed.
    let path = compressed_header_only(&dir, "claim.mat", &[65_535, 65_535], 65_535 * 65_535);
    let (result, peak) = peak_during(|| MatFile::open(&path)?.read_numeric("m"));
    assert!(
        matches!(result, Err(MatError::Truncated { .. })),
        "expected Truncated, got {result:?}"
    );
    assert!(peak < CAP, "read_numeric peaked at {peak} bytes");

    std::fs::remove_dir_all(&dir).ok();
}
