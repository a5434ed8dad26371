//! Allocation budget of one served request: a 64-row `POST /predict?k=2`
//! to a daemon serving the `tiny_bundle` fixture model must stay within a
//! fixed count of heap allocations, counted on every thread of the process
//! from the first request byte written to the last response byte read.
//!
//! Counts do not depend on the host's speed, so the budget resolves changes
//! that timing cannot. A counting global allocator tallies every `alloc`,
//! `alloc_zeroed` and `realloc` call. This binary holds a single test, so
//! nothing else shares the counter, and the client side reads into a buffer
//! allocated before the window, so the count is the daemon's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;
use zsl_serve::{Server, ServerConfig};

/// Most allocations one 64-row request may make: the 301–303 measured when
/// the budget was set, plus a small margin. (Per-row reply channels and
/// ranking copies made it 559.) A change that lowers the count lowers this
/// bound with it.
const BUDGET: usize = 320;

/// Rows per request.
const ROWS: usize = 64;

static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Write `request` and read one whole response into `buf` without
/// allocating: the head up to its blank line, then `Content-Length` body
/// bytes. Returns the response's length in `buf`.
fn exchange(stream: &mut TcpStream, request: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(request).expect("write request");
    let mut filled = 0;
    loop {
        let n = stream.read(&mut buf[filled..]).expect("read response");
        assert!(n > 0, "daemon closed the connection mid-response");
        filled += n;
        let Some(head_end) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = std::str::from_utf8(&buf[..head_end]).expect("utf-8 head");
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|value| value.parse().ok())
            .expect("content-length");
        if filled >= head_end + 4 + length {
            return filled;
        }
    }
}

#[test]
fn a_64_row_predict_stays_within_its_allocation_budget() {
    let model =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures/tiny_bundle/model.zsm");
    let server = Server::start(
        &model,
        ServerConfig {
            watch_interval: None,
            ..ServerConfig::default()
        },
    )
    .expect("boot the fixture model");
    let d = server.model().snapshot().engine.feature_dim();
    let body: String = (0..ROWS)
        .map(|r| {
            let values: Vec<String> = (0..d)
                .map(|c| format!("{}", 0.25 * (r + c) as f64 - 3.0))
                .collect();
            values.join(",") + "\n"
        })
        .collect();
    let request = format!(
        "POST /predict?k=2 HTTP/1.1\r\nHost: budget\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = vec![0u8; 1 << 20];

    // Warm the keep-alive connection: its thread, buffers and the engine's
    // first call are set-up, not per-request cost.
    let warm = exchange(&mut stream, request.as_bytes(), &mut buf);
    let expected = buf[..warm].to_vec();

    let before = CALLS.load(Relaxed);
    let len = exchange(&mut stream, request.as_bytes(), &mut buf);
    let calls = CALLS.load(Relaxed) - before;

    assert_eq!(
        &buf[..len],
        &expected[..],
        "the same request got another answer"
    );
    let response = std::str::from_utf8(&buf[..len]).expect("utf-8 response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let (_, payload) = response.split_once("\r\n\r\n").expect("head");
    assert_eq!(payload.lines().count(), ROWS, "{payload}");
    eprintln!("allocations per {ROWS}-row predict: {calls}");
    assert!(
        calls <= BUDGET,
        "a {ROWS}-row predict made {calls} allocations, over its budget of {BUDGET}"
    );
}
