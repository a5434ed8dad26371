//! Allocation budget of one served request: a `POST /predict?k=2` to a
//! daemon serving the `tiny_bundle` fixture model, counted on every thread
//! of the process from the first request byte written to the last response
//! byte read. A 64-row request must stay within a fixed count, and may make
//! only a bounded number of allocations more than a 1-row request: about
//! the engine's three per extra row, so a request's cost outside the engine
//! does not grow with its row count.
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

/// Most allocations one 64-row request may make: the 226–227 measured when
/// the budget was set, plus a small margin. (Per-row reply channels and
/// ranking copies made it 559, and per-row parse buffers and queue entries
/// 301–302.) A change that lowers the count lowers this bound with it.
const BUDGET: usize = 240;

/// Rows per request.
const ROWS: usize = 64;

/// Allocations the engine's ranking makes per row: a heap plus the two
/// `Vec`s of the row's `TopK`.
const PER_ROW: usize = 3;

/// What else may grow between a 1-row and a 64-row request, each step
/// logarithmic in the row count: the value buffer, the response text and
/// the reply channel's blocks. 15 when the bound was set, plus a margin.
/// (Per-row parse buffers and queue entries made the difference 271–272,
/// 82 over the engine's share.)
const GROWTH: usize = 24;

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

/// Send a `rows`-row `POST /predict?k=2` twice on `stream`, and count the
/// allocations of the second: the first warms the connection, its buffers
/// and the engine, which are set-up, not per-request cost. Both must get
/// the same 200 answer, one line per row.
fn counted(stream: &mut TcpStream, d: usize, rows: usize, buf: &mut [u8]) -> usize {
    let body: String = (0..rows)
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
    let warm = exchange(stream, request.as_bytes(), buf);
    let expected = buf[..warm].to_vec();

    let before = CALLS.load(Relaxed);
    let len = exchange(stream, request.as_bytes(), buf);
    let calls = CALLS.load(Relaxed) - before;

    assert_eq!(
        &buf[..len],
        &expected[..],
        "the same request got another answer"
    );
    let response = std::str::from_utf8(&buf[..len]).expect("utf-8 response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let (_, payload) = response.split_once("\r\n\r\n").expect("head");
    assert_eq!(payload.lines().count(), rows, "{payload}");
    calls
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
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = vec![0u8; 1 << 20];

    let one = counted(&mut stream, d, 1, &mut buf);
    let many = counted(&mut stream, d, ROWS, &mut buf);
    eprintln!("allocations per 1-row predict: {one}, per {ROWS}-row predict: {many}");
    let extra = many.saturating_sub(one);
    let bound = PER_ROW * (ROWS - 1) + GROWTH;
    assert!(
        extra <= bound,
        "a {ROWS}-row predict made {extra} allocations more than a 1-row one, \
         over {PER_ROW} per extra row plus {GROWTH}: {bound}"
    );
    assert!(
        many <= BUDGET,
        "a {ROWS}-row predict made {many} allocations, over its budget of {BUDGET}"
    );
}
