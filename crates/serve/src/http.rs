//! The std-only HTTP/1.1 front end of the serving daemon.
//!
//! No async runtime and no HTTP dependency: a nonblocking accept loop, one
//! thread per connection (keep-alive honored), and a hand-rolled parser for
//! the tiny request surface the daemon speaks. Every request is untrusted:
//! framing errors, request heads over 64 KiB or 100 header lines (`431`),
//! oversized bodies, unparsable or non-finite feature values, ragged rows
//! and width mismatches are all 4xx responses — the process never panics
//! on a socket's bytes.
//!
//! ## Protocol
//!
//! | route | behavior |
//! |-------|----------|
//! | `GET /healthz` | liveness: `200 ok` |
//! | `GET /stats`   | `key=value` counter lines (see [`crate::stats`]) |
//! | `GET /model`   | generation, model family, dims, similarity, scoring precision, provenance metadata |
//! | `POST /reload` | force a model reload now (`503` + old model kept on failure) |
//! | `POST /predict[?k=N]` | score feature rows (see below) |
//!
//! `POST /predict` takes `text/plain`: one feature row per line, values
//! separated by whitespace and/or commas, every row as wide as the first (a
//! ragged body is a `400` naming the line). The response mirrors it, one
//! line per row: `class=<argmax> generation=<model generation> topk=<c>:<s>,…`
//! with `k` entries (`k` clamped to the class count; `k=0` leaves `topk=`
//! empty; default `k=1`). Scores print with Rust's shortest-round-trip
//! float formatting, so equal text means bit-equal scores.
//!
//! The body is parsed into one row-major buffer and queued whole on the
//! [`crate::batch::Coalescer`] (in `max_batch`-row pieces when longer), whose
//! batches are made of whole queued requests, so one client's rows batch
//! with every concurrent client's before hitting the matmul kernels.

use crate::batch::{BatchConfig, Coalescer, RowResult};
use crate::error::ServeError;
use crate::model::{spawn_watcher, BootOptions, ModelHandle};
use crate::stats::{ServeStats, StatsSnapshot};
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Coalescer tunables.
    pub batch: BatchConfig,
    /// Artifact-watch poll interval; `None` disables hot-swap watching
    /// (`POST /reload` still works).
    pub watch_interval: Option<Duration>,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Kernel thread count for the shared scoring engine, sized once at
    /// boot and re-applied on every hot swap. `None` keeps the library
    /// default ([`zsl_core::default_threads`]). Request threads already
    /// provide concurrency, so a loaded daemon usually wants this at 1–2:
    /// per-request kernel fan-out on top of per-connection threads
    /// oversubscribes the cores.
    pub engine_threads: Option<usize>,
    /// Boot (and hot-swap) through [`zsl_core::ScoringEngine::load_mapped`]:
    /// the signature bank is borrowed zero-copy from the mmap'd artifact
    /// when layout and platform allow, with a transparent heap fallback.
    pub mmap_boot: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig::default(),
            watch_interval: Some(Duration::from_millis(500)),
            max_body_bytes: 16 << 20,
            engine_threads: None,
            mmap_boot: false,
        }
    }
}

/// A running daemon: accept loop, coalescing worker, and (optionally) the
/// artifact watcher. Dropping the server stops all of them.
pub struct Server {
    addr: SocketAddr,
    model: Arc<ModelHandle>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    watcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boot from the `.zsm` artifact at `model_path` — the artifact is the
    /// only state the daemon needs — bind, and start serving.
    pub fn start(model_path: &Path, config: ServerConfig) -> Result<Server, ServeError> {
        let stats = Arc::new(ServeStats::new());
        let engine_threads = config
            .engine_threads
            .unwrap_or_else(zsl_core::default_threads)
            .max(1);
        let model = Arc::new(ModelHandle::boot_with_options(
            model_path,
            stats.clone(),
            BootOptions {
                engine_threads,
                mmap_boot: config.mmap_boot,
            },
        )?);
        // Warm the process-wide linalg pool now, off the request path, and
        // publish both sizing gauges so `/stats` shows how the engine was
        // sized relative to the pool.
        stats.set_thread_gauges(engine_threads, zsl_core::pool_threads());
        let coalescer = Arc::new(Coalescer::start(model.clone(), stats.clone(), config.batch));
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let watcher = config
            .watch_interval
            .map(|interval| spawn_watcher(model.clone(), interval, stop.clone()));

        let accept = {
            let stop = stop.clone();
            let model = model.clone();
            let stats = stats.clone();
            let max_body = config.max_body_bytes;
            std::thread::Builder::new()
                .name("zsl-serve-accept".into())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let model = model.clone();
                            let stats = stats.clone();
                            let coalescer = coalescer.clone();
                            std::thread::Builder::new()
                                .name("zsl-serve-conn".into())
                                .spawn(move || {
                                    handle_connection(stream, &model, &stats, &coalescer, max_body)
                                })
                                .ok();
                        }
                        // Nothing to accept (`WouldBlock`) or a failed accept.
                        Err(_) => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            model,
            stats,
            stop,
            accept: Some(accept),
            watcher,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swappable model slot.
    pub fn model(&self) -> &Arc<ModelHandle> {
        &self.model
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Block the calling thread until `stop` is observed — the daemon
    /// binary's main-thread park.
    pub fn run_until_stopped(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept.take() {
            t.join().ok();
        }
        if let Some(t) = self.watcher.take() {
            t.join().ok();
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    query: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Serve one connection: parse requests until EOF, `Connection: close`, or
/// a framing error.
fn handle_connection(
    stream: TcpStream,
    model: &Arc<ModelHandle>,
    stats: &Arc<ServeStats>,
    coalescer: &Arc<Coalescer>,
    max_body: usize,
) {
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    // Serving is request/response over small messages: Nagle's algorithm
    // would hold each response back waiting for an ACK (a ~40ms delayed-ACK
    // stall per request), so turn it off.
    stream.set_nodelay(true).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, max_body) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF between requests
            Err(ReadError::BodyTooLarge) => {
                respond(
                    &mut writer,
                    413,
                    "Payload Too Large",
                    "body too large\n",
                    false,
                );
                return;
            }
            Err(ReadError::HeadTooLarge) => {
                respond(
                    &mut writer,
                    431,
                    "Request Header Fields Too Large",
                    "request head too large\n",
                    false,
                );
                return;
            }
            Err(ReadError::Malformed(msg)) => {
                respond(&mut writer, 400, "Bad Request", &format!("{msg}\n"), false);
                return;
            }
            Err(ReadError::Io) => return,
        };
        stats.record_request();
        let keep_alive = request.keep_alive;
        match route(&request, model, stats, coalescer) {
            Ok(body) => respond(&mut writer, 200, "OK", &body, keep_alive),
            Err(e) => {
                stats.record_rejected();
                let (code, phrase) = match &e {
                    ServeError::Protocol(_) => (400, "Bad Request"),
                    ServeError::Model(_) | ServeError::Closed => (503, "Service Unavailable"),
                    ServeError::Io(_) | ServeError::Internal(_) => (500, "Internal Server Error"),
                };
                respond(&mut writer, code, phrase, &format!("{e}\n"), keep_alive);
            }
        }
        if !keep_alive {
            return;
        }
    }
}

enum ReadError {
    Io,
    BodyTooLarge,
    HeadTooLarge,
    Malformed(String),
}

/// Most bytes the request line and headers may take together.
const MAX_HEAD_BYTES: u64 = 64 << 10;

/// Most header lines one request may carry.
const MAX_HEADERS: usize = 100;

/// Parse one HTTP/1.x request off the wire. `Ok(None)` is a clean EOF
/// before a request line (keep-alive connection closed by the client).
///
/// The head is read through a [`MAX_HEAD_BYTES`] budget and may hold at
/// most [`MAX_HEADERS`] header lines; past either limit the request is
/// [`ReadError::HeadTooLarge`] and nothing more is read.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Option<Request>, ReadError> {
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES);
    let mut line = String::new();
    if read_head_line(&mut head, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m, t, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line: {}",
                line.trim_end()
            )))
        }
    };
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (method, path, query) = (method.to_string(), path.to_string(), query.to_string());
    // HTTP/1.1 connections persist unless the client says `close`; an
    // HTTP/1.0 connection persists only when the client asks for it.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        line.clear();
        if read_head_line(&mut head, &mut line)? == 0 {
            return Err(ReadError::Malformed("eof inside headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(ReadError::HeadTooLarge);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header: {header}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad content-length: {value}")))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ReadError::Malformed(
                "transfer-encoding is not supported; send a content-length body".into(),
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|_| ReadError::Io)?;
    }
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// Read one line of the request head into `line`, returning its length
/// (0 at end of stream). A line the head budget cuts off before its newline
/// is [`ReadError::HeadTooLarge`].
fn read_head_line(
    head: &mut Take<&mut BufReader<TcpStream>>,
    line: &mut String,
) -> Result<usize, ReadError> {
    let n = head.read_line(line).map_err(|_| ReadError::Io)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(ReadError::HeadTooLarge);
    }
    Ok(n)
}

fn respond(writer: &mut TcpStream, code: u16, phrase: &str, body: &str, keep_alive: bool) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One write_all for the whole response: two small writes would hand
    // Nagle/delayed-ACK a chance to stall the tail of the response.
    let message = format!(
        "HTTP/1.1 {code} {phrase}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    writer
        .write_all(message.as_bytes())
        .and_then(|_| writer.flush())
        .ok();
}

fn route(
    request: &Request,
    model: &Arc<ModelHandle>,
    stats: &Arc<ServeStats>,
    coalescer: &Arc<Coalescer>,
) -> Result<String, ServeError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok("ok\n".into()),
        ("GET", "/stats") => Ok(stats.snapshot().render()),
        ("GET", "/model") => {
            let snapshot = model.snapshot();
            let engine = &snapshot.engine;
            Ok(format!(
                "generation={}\nfamily={}\nfeature_dim={}\nattr_dim={}\nclasses={}\n\
                 similarity={}\nprecision={}\nthreads={}\nmetadata={}\n",
                snapshot.generation,
                engine.model().family(),
                engine.feature_dim(),
                engine.model().attr_dim(),
                engine.num_classes(),
                engine.similarity(),
                engine.precision(),
                engine.threads(),
                snapshot.metadata
            ))
        }
        ("POST", "/reload") => {
            let generation = model.reload()?;
            Ok(format!("reloaded generation={generation}\n"))
        }
        ("POST", "/predict") => predict(request, coalescer),
        ("GET" | "POST", _) => Err(ServeError::Protocol(format!(
            "no such route: {} {}",
            request.method, request.path
        ))),
        _ => Err(ServeError::Protocol(format!(
            "unsupported method {}",
            request.method
        ))),
    }
}

fn predict(request: &Request, coalescer: &Arc<Coalescer>) -> Result<String, ServeError> {
    let k = parse_k(&request.query)?;
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::Protocol("request body is not valid UTF-8".into()))?;
    let (values, rows) = parse_rows(text)?;
    if rows == 0 {
        return Err(ServeError::Protocol(
            "empty body: send one feature row per line".into(),
        ));
    }
    // The results arrive in row order on the request's one channel, so the
    // first error is the first bad row's.
    let results = coalescer.enqueue_rows(values, rows, k);
    let mut body = String::new();
    for _ in 0..rows {
        let result = results.recv().unwrap_or(Err(ServeError::Closed))?;
        render_row(&mut body, &result);
    }
    Ok(body)
}

/// `k=N` from the query string (default 1). Unknown parameters are typed
/// errors — silently ignoring a typo like `topk=5` would mis-serve.
fn parse_k(query: &str) -> Result<usize, ServeError> {
    let mut k = 1usize;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("k", value)) => {
                k = value
                    .parse()
                    .map_err(|_| ServeError::Protocol(format!("bad k value: {value}")))?;
            }
            _ => {
                return Err(ServeError::Protocol(format!(
                    "unknown query parameter: {pair}"
                )))
            }
        }
    }
    Ok(k)
}

/// One feature row per non-empty line, values split on whitespace and/or
/// commas, into one row-major buffer; returns it with the row count. The
/// error is the first fault in body order, naming its line: a bad value, a
/// non-finite one (a NaN feature would poison its whole score row, so it is
/// rejected here, at the trust boundary), or, at a row's end, a row not as
/// wide as the first.
///
/// One pass over the bytes: `\n` ends a row, and ASCII `,`, space, `\t`,
/// `\r`, `\x0b` and `\x0c` separate values. Only a non-ASCII byte decodes
/// its `char`, so Unicode whitespace such as U+00A0 separates values too,
/// exactly the separators of splitting each line on `,` and
/// [`char::is_whitespace`].
fn parse_rows(text: &str) -> Result<(Vec<f64>, usize), ServeError> {
    let bytes = text.as_bytes();
    let mut values = Vec::new();
    let (mut rows, mut width, mut line) = (0, 0, 1);
    // The current token is `text[start..at]`.
    let (mut start, mut at) = (0, 0);
    loop {
        let (separator, row_end) = match bytes.get(at) {
            None => (0, true),
            Some(b'\n') => (1, true),
            Some(b',' | b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c') => (1, false),
            Some(byte) if byte.is_ascii() => {
                at += 1;
                continue;
            }
            Some(_) => {
                let c = text[at..].chars().next().expect("`at` is a char boundary");
                if !c.is_whitespace() {
                    at += c.len_utf8();
                    continue;
                }
                (c.len_utf8(), false)
            }
        };
        if start < at {
            values.push(parse_value(&text[start..at], line)?);
        }
        if row_end {
            // The values of the row this byte ends.
            let n = values.len() - rows * width;
            if n > 0 {
                if rows > 0 && n != width {
                    return Err(ServeError::Protocol(format!(
                        "line {line}: feature row has {n} values but the first row has {width}"
                    )));
                }
                width = n;
                rows += 1;
            }
            if at == bytes.len() {
                return Ok((values, rows));
            }
            line += 1;
        }
        at += separator;
        start = at;
    }
}

/// One feature value of line `line`: a finite `f64`.
fn parse_value(token: &str, line: usize) -> Result<f64, ServeError> {
    let v: f64 = token
        .parse()
        .map_err(|_| ServeError::Protocol(format!("line {line}: bad feature value '{token}'")))?;
    if !v.is_finite() {
        return Err(ServeError::Protocol(format!(
            "line {line}: non-finite feature value '{token}'"
        )));
    }
    Ok(v)
}

/// `class=<c> generation=<g> topk=<c>:<s>,…` — scores in Rust's shortest
/// round-trip float formatting, so textually equal responses are bit-equal.
fn render_row(out: &mut String, result: &RowResult) {
    use std::fmt::Write as _;
    write!(
        out,
        "class={} generation={} topk=",
        result.class, result.generation
    )
    .ok();
    for (i, (c, s)) in result
        .topk
        .classes
        .iter()
        .zip(&result.topk.scores)
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{c}:{s}").ok();
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_accepts_k_and_rejects_unknowns() {
        assert_eq!(parse_k("").unwrap(), 1);
        assert_eq!(parse_k("k=0").unwrap(), 0);
        assert_eq!(parse_k("k=17").unwrap(), 17);
        assert!(parse_k("k=banana").is_err());
        assert!(parse_k("topk=3").is_err());
    }

    #[test]
    fn row_parsing_handles_separators_and_rejects_bad_values() {
        let parsed = parse_rows("1.0, 2.5 -3\n\n4,5,6\n").expect("parse");
        assert_eq!(parsed, (vec![1.0, 2.5, -3.0, 4.0, 5.0, 6.0], 2));
        assert!(parse_rows("1.0 abc").is_err());
        assert!(parse_rows("1e999").is_err(), "inf must be rejected");
        assert!(parse_rows("nan 1.0").is_err(), "nan must be rejected");
        assert_eq!(parse_rows("\n \n").expect("blank"), (vec![], 0));
    }

    /// The line splitter the byte walk replaced, kept as its oracle: one
    /// line's values, or its first bad value's error.
    fn split_line(line: &str, number: usize) -> Result<Vec<f64>, ServeError> {
        let mut row = Vec::new();
        for token in line.split(|c: char| c == ',' || c.is_whitespace()) {
            if token.is_empty() {
                continue;
            }
            let v: f64 = token.parse().map_err(|_| {
                ServeError::Protocol(format!("line {number}: bad feature value '{token}'"))
            })?;
            if !v.is_finite() {
                return Err(ServeError::Protocol(format!(
                    "line {number}: non-finite feature value '{token}'"
                )));
            }
            row.push(v);
        }
        Ok(row)
    }

    /// The line splitter's rows, flattened when they all have one width;
    /// otherwise the first fault in body order, a row's width counting at
    /// the row's end.
    fn parse_rows_by_lines(text: &str) -> Result<(Vec<f64>, usize), ServeError> {
        let (mut values, mut rows, mut width) = (Vec::new(), 0, 0);
        for (i, line) in text.lines().enumerate() {
            let row = split_line(line.trim(), i + 1)?;
            if row.is_empty() {
                continue;
            }
            if rows > 0 && row.len() != width {
                return Err(ServeError::Protocol(format!(
                    "line {}: feature row has {} values but the first row has {width}",
                    i + 1,
                    row.len()
                )));
            }
            width = row.len();
            rows += 1;
            values.extend(row);
        }
        Ok((values, rows))
    }

    #[test]
    fn byte_walk_parses_every_body_like_the_line_splitter() {
        let bodies = [
            "",
            "\n",
            "1",
            "1,2,3",
            "1.0, 2.5 -3\n\n4,5,6\n",
            "1,2\r\n3,4\r\n",
            "1,2\r\n\r\n\r\n3,4",
            "\r\n1 2\r",
            "  1 , 2 ,, 3 ,\n,4,\n",
            "1\x0b2\x0c3\t4\n\x0b\x0c\n5",
            "1\u{a0}2\u{2003}3\u{a0}\n\u{3000}4\u{85}5\u{2028}6",
            "1,2,\n3,4,\n",
            "\u{a0}\n\u{2003}",
            "1e3 -2.5e-7 +4 .5 6.\n0x10",
            "1 2\n3 nan\n",
            "1 2\n3 -inf\n",
            "1 2\n\n4 1e999",
            "1,2\n3,abc,4\n5,zz",
            "1\u{e9}2",
            "\u{1f600}",
            "1,2\n3\u{a0}x,4",
            "-0,0,-0.0\n",
            // Ragged: a short row after a long one, a long row after a short
            // one, a ragged row before and after a bad value, a bad value in
            // a ragged row, and ragged rows between blank lines.
            "1 2 3 4\n1 2\n",
            "1 2\n3 4 5\n",
            "1 2\n3\n4 x\n",
            "1 2\n3 x\n4 5 6\n",
            "1 2\n3 4 5 x\n",
            "\n1 2\n\r\n \n3 4 5\n\n6\n",
            "1,2\n,,\n3,4\n\n5",
        ];
        for body in bodies {
            let want = parse_rows_by_lines(body);
            let got = parse_rows(body);
            match (got, want) {
                (Ok((got, got_rows)), Ok((want, want_rows))) => {
                    let bits = |values: &[f64]| -> Vec<u64> {
                        values.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(got_rows, want_rows, "{body:?}");
                    assert_eq!(bits(&got), bits(&want), "{body:?}");
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got.to_string(), want.to_string(), "{body:?}")
                }
                (got, want) => panic!("{body:?}: {got:?} against {want:?}"),
            }
        }
    }
}
