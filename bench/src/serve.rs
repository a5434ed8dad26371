//! `serve-rows` and `serve-bulk`: a closed-loop HTTP load generator driving a
//! `zsl-serve` daemon started in this process.
//!
//! Set-up trains an ESZSL model on a seeded synthetic dataset, saves it as a
//! `.zsm` artifact, boots the daemon from that file (watcher off; one engine
//! thread on `serve-bulk`; every other setting at its default) and warms each
//! keep-alive connection. The measured phase then sends `POST /predict?k=K`
//! requests built from the dataset's test rows; each client thread sends its
//! next request only after the reply to the previous one arrived. Every
//! response must equal, byte for byte, the text the in-process engine gives
//! for the same rows.
//!
//! The traced run replays one fixed request sequence at three depths — the
//! HTTP round trip, `Coalescer` over a `ModelHandle` booted with the daemon's
//! options, and `ScoringEngine::predict_topk` on batches of the size the
//! coalescer formed — taking turns round by round, and attributes the
//! differences to `serve.http`, `serve.batch` and `core.infer`.

use crate::measure::{self, cpu_seconds, median, peak_rss_mb, since, Steal};
use crate::report::{self, Collected};
use crate::trace::{Tracer, OP};
use crate::workdir::WorkDir;
use crate::{RunConfig, Scale, Workload};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zsl_core::data::Rng;
use zsl_core::{
    evaluate_gzsl_with, Dataset, Matrix, Pipeline, ScoringEngine, SyntheticConfig, TopK,
};
use zsl_serve::{
    BatchConfig, BootOptions, Coalescer, ModelHandle, ServeStats, Server, ServerConfig,
};

/// Salt for the request-pool draw, so it is independent of the dataset.
const POOL_SALT: u64 = 0x5E12_F00D;

/// Input shapes and load of one serving workload.
struct Shape {
    seen: usize,
    unseen: usize,
    attr_dim: usize,
    feature_dim: usize,
    train_per_class: usize,
    /// The model is fitted on at most this many training rows (those of the
    /// first classes); every class still sits in the served bank.
    train_rows: usize,
    test_per_class: usize,
    noise: f64,
    rows_per_request: usize,
    k: usize,
    /// Keep-alive connections, one client thread each.
    connections: usize,
    /// Engine threads the daemon is booted with (its `--threads`); `None`
    /// keeps its default, one per core.
    engine_threads: Option<usize>,
    /// Distinct requests the load cycles through.
    pool: usize,
    /// Requests each connection sends while warming up.
    warmup: usize,
    /// Requests replayed at each depth of a traced run.
    traced: usize,
    /// Requests the depths of a traced run replay in turn, one round after
    /// another.
    round: usize,
    /// Bank shards of the benchmark's own reference engine: bounds its score
    /// memory without changing a bit (the daemon keeps its default).
    reference_shards: usize,
}

fn shape(workload: Workload, scale: Scale) -> Shape {
    let full = scale == Scale::Full;
    match workload {
        Workload::ServeRows => Shape {
            seen: if full { 200 } else { 12 },
            unseen: if full { 56 } else { 4 },
            attr_dim: if full { 64 } else { 6 },
            feature_dim: if full { 512 } else { 16 },
            train_per_class: if full { 10 } else { 4 },
            train_rows: usize::MAX,
            test_per_class: if full { 8 } else { 3 },
            noise: 1.5,
            rows_per_request: 1,
            k: 5,
            connections: 2,
            engine_threads: None,
            pool: if full { 1024 } else { 16 },
            warmup: if full { 200 } else { 2 },
            traced: if full { 4000 } else { 200 },
            round: if full { 200 } else { 20 },
            reference_shards: 1,
        },
        Workload::ServeBulk => Shape {
            seen: if full { 8000 } else { 60 },
            unseen: if full { 192 } else { 8 },
            attr_dim: if full { 64 } else { 8 },
            feature_dim: if full { 512 } else { 16 },
            train_per_class: 1,
            train_rows: if full { 2048 } else { 64 },
            test_per_class: 1,
            noise: if full { 1.0 } else { 0.1 },
            rows_per_request: if full { 64 } else { 8 },
            k: 10,
            connections: 1,
            // On a shared 2-vCPU host, two engine threads make each 64-row
            // gemm wait at its join for whichever vCPU the hypervisor took
            // away: over 5 runs there, two threads spread p50_ms by 0.26 and
            // ops_per_s by 0.32, one thread by 0.053 and 0.073.
            engine_threads: Some(1),
            pool: if full { 32 } else { 4 },
            warmup: if full { 5 } else { 1 },
            traced: if full { 200 } else { 60 },
            round: 1,
            reference_shards: 16,
        },
        other => unreachable!("{} is not a serving workload", other.name()),
    }
}

/// Run a serving workload: the measured closed loop, or the traced replay.
pub fn run(config: &RunConfig, work: &WorkDir) -> Result<Collected, String> {
    let shape = shape(config.workload, config.scale);
    if config.trace {
        trace(config, &shape, work)
    } else {
        measure(config, &shape, work)
    }
}

fn measure(config: &RunConfig, shape: &Shape, work: &WorkDir) -> Result<Collected, String> {
    let model_path = work.path("model.zsm");
    let ((ds, mut daemon), setup_s) =
        measure::repeat_setup(|| setup(shape, config.seed, &model_path))?;
    let engine = reference_engine(&model_path, shape)?;
    let mut pool = build_pool(shape, &ds, config.seed, &engine);
    let h = gzsl_h(&engine, &ds)?;
    // The HTTP phase needs each request's bytes and expected text only, so
    // what stays resident through it is the daemon's and the load's.
    drop((ds, engine));
    for request in &mut pool {
        request.rows = Vec::new();
    }
    measure::reset_peak_rss()?;

    let cpu0 = cpu_seconds()?;
    let steal0 = Steal::read()?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(config.seconds);
    let samples = drive_http(&mut daemon.clients, &pool, Stop::At(deadline))?;
    let wall = since(t0);
    let cpu = cpu_seconds()? - cpu0;
    let stolen = steal0.share_since()?;
    let rss = peak_rss_mb()?;
    let stats = daemon.server.stats();
    drop(daemon);

    let mut c = Collected {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        ..Collected::default()
    };
    let latencies: Vec<f64> = samples.iter().map(Sample::latency_s).collect();
    report::latency_metrics(&mut c, &latencies, wall, cpu, stolen);
    c.set("setup_s", setup_s);
    c.set("peak_rss_mb", rss);
    c.set("gzsl_h", h);
    c.note(format!(
        "daemon formed {} batches of {:.3} rows on average",
        stats.batches,
        stats.rows as f64 / stats.batches.max(1) as f64
    ));
    Ok(c)
}

fn trace(config: &RunConfig, shape: &Shape, work: &WorkDir) -> Result<Collected, String> {
    // Spans are recorded after the replays, from their timestamps, so the
    // tracer's clock must start first.
    let mut tracer = Tracer::new();
    let model_path = work.path("model.zsm");
    let (ds, mut daemon) = setup(shape, config.seed, &model_path)?;
    let engine = reference_engine(&model_path, shape)?;
    let pool = build_pool(shape, &ds, config.seed, &engine);
    drop((ds, engine));
    let mut c = Collected::default();
    setup_layers(&mut c, shape, &model_path, work)?;
    let depth2 = CoalescerDepth::boot(&model_path, shape)?;
    let n = shape.traced;

    // The depths take turns, one round of the sequence at a time. A shared
    // host's speed can drift by 10-20% within seconds, more than the
    // coalescer's share of a bulk request, so replaying each depth as one
    // block would attribute the drift to the layers in between.
    let (mut untraced, mut http, mut coalesced, mut scored) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut batches, mut rows) = (0, 0);
    for from in (0..n).step_by(shape.round) {
        let round = from..(from + shape.round).min(n);
        let stop = Stop::Range(round.start, round.end);
        // The same requests untraced first: the baseline of trace.overhead.
        untraced.extend(drive_http(&mut daemon.clients, &pool, stop)?);
        // Depth 1: the HTTP round trip, with the daemon's batch counters.
        let before = daemon.server.stats();
        http.extend(drive_http(&mut daemon.clients, &pool, stop)?);
        let after = daemon.server.stats();
        batches += after.batches - before.batches;
        rows += after.rows - before.rows;
        // Depth 2: the coalescer. Depth 3: the engine it scores with.
        coalesced.extend(depth2.replay(&pool, round.clone(), shape));
        let rows_per_batch = depth2.rows_per_batch();
        scored.extend(drive_engine(
            &depth2.engine,
            &pool,
            round,
            shape,
            rows_per_batch,
        ));
    }
    let rows_per_batch = depth2.rows_per_batch();
    drop((daemon, depth2));

    for ((a, b), s) in http.iter().zip(&coalesced).zip(&scored) {
        let root = tracer.record(OP, None, a.start, a.end);
        let h = tracer.record("serve.http", Some(root), a.start, a.received);
        let batch = tracer.record("serve.batch", Some(h), b.start, b.end);
        let infer = tracer.record("core.infer", Some(batch), s.start, s.end);
        tracer.record("core.infer.project", Some(infer), s.end, s.project_end);
        tracer.count(
            "serve.http.req_bytes",
            pool[a.index % pool.len()].body_len as u64,
        );
        tracer.count("serve.http.resp_bytes", a.resp_bytes as u64);
    }
    c.set(
        "serve.http.overhead_us",
        tracer.self_per_op("serve.http") * 1e6,
    );
    c.set(
        "serve.http.req_bytes",
        tracer.count_per_op("serve.http.req_bytes"),
    );
    c.set(
        "serve.http.resp_bytes",
        tracer.count_per_op("serve.http.resp_bytes"),
    );
    c.set(
        "serve.batch.wait_us",
        tracer.self_per_op("serve.batch") * 1e6,
    );
    c.set(
        "serve.batch.rows_per_batch",
        rows as f64 / batches.max(1) as f64,
    );
    c.set("serve.batch.batches", batches as f64);
    c.set(
        "core.infer.project_us",
        tracer.self_per_op("core.infer.project") * 1e6,
    );
    c.set("core.infer.rank_us", tracer.self_per_op("core.infer") * 1e6);
    c.set("trace.coverage", tracer.coverage());
    let untraced_wall = untraced.iter().map(Sample::wall_s).sum::<f64>() / n.max(1) as f64;
    c.set("trace.overhead", tracer.op_wall() / untraced_wall - 1.0);
    // The depths nest under the HTTP span, so their self times add up to it
    // and coverage is 1 by construction; a deeper replay that is slower than
    // the depth above it shows as a negative self time instead. One bulk
    // request on a shared host swings by milliseconds either way, so the
    // check reads the median over the requests, which such outliers do not
    // move.
    for layer in ["serve.http", "serve.batch", "core.infer"] {
        let typical_us = median(&tracer.self_by_op(layer)) * 1e6;
        c.check(
            format!("{layer} median self time per op is not negative ({typical_us:.1} us)"),
            typical_us >= 0.0,
        );
    }

    let oks = untraced
        .iter()
        .chain(&http)
        .map(|s| s.ok)
        .chain(coalesced.iter().map(|t| t.ok))
        .chain(scored.iter().map(|s| s.ok));
    for ok in oks {
        c.attempted += 1;
        c.failed += u64::from(!ok);
    }
    c.check(
        format!("all three depths replayed the {n}-request sequence"),
        http.len() == n && coalesced.len() == n && scored.len() == n,
    );
    c.note(format!(
        "coalescer depth formed {rows_per_batch:.3} rows per batch; the engine depth scored batches of that size"
    ));
    for (layer, share) in tracer.shares() {
        c.note(format!("share {layer} {share:.4}"));
    }
    tracer.write(&work.trace_file(config.workload.name(), config.seed)?)?;
    Ok(c)
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The daemon and its warmed keep-alive connections. The clients are declared
/// first so they close before the daemon stops.
struct Daemon {
    clients: Vec<Client>,
    server: Server,
}

fn server_config(shape: &Shape) -> ServerConfig {
    ServerConfig {
        watch_interval: None,
        engine_threads: shape.engine_threads,
        ..ServerConfig::default()
    }
}

fn dataset(shape: &Shape, seed: u64) -> Dataset {
    let mut ds = SyntheticConfig::new()
        .classes(shape.seen, shape.unseen)
        .dims(shape.attr_dim, shape.feature_dim)
        .samples(shape.train_per_class, shape.test_per_class)
        .noise(shape.noise)
        .seed(seed)
        .build();
    if ds.train_x.rows() > shape.train_rows {
        ds.train_x = ds.train_x.row_block(0..shape.train_rows);
        ds.train_labels.truncate(shape.train_rows);
    }
    ds
}

/// Everything before the first timed request: the inputs, training, the
/// artifact, the daemon's boot and the connections' warm-up.
fn setup(shape: &Shape, seed: u64, model_path: &Path) -> Result<(Dataset, Daemon), String> {
    let ds = dataset(shape, seed);
    Pipeline::from(&ds)
        .train()
        .and_then(|trained| trained.save(model_path))
        .map_err(|e| format!("train and save the served model: {e}"))?;
    let server =
        Server::start(model_path, server_config(shape)).map_err(|e| format!("boot: {e}"))?;
    let warm_rows: Vec<Vec<f64>> = (0..shape.rows_per_request)
        .map(|r| ds.test_seen_x.row(r % ds.test_seen_x.rows()).to_vec())
        .collect();
    let warm = http_request(&body_text(&warm_rows), shape.k);
    let mut clients = Vec::with_capacity(shape.connections);
    let mut body = String::new();
    for _ in 0..shape.connections {
        let mut client = Client::connect(server.addr())?;
        for _ in 0..shape.warmup {
            let status = client.post(&warm, &mut body)?;
            if status != 200 {
                return Err(format!("warm-up request answered {status}: {body}"));
            }
        }
        clients.push(client);
    }
    Ok((ds, Daemon { clients, server }))
}

fn reference_engine(model_path: &Path, shape: &Shape) -> Result<ScoringEngine, String> {
    let mut engine = ScoringEngine::load(model_path)
        .map_err(|e| format!("load {}: {e}", model_path.display()))?;
    engine.set_bank_shards(shape.reference_shards);
    Ok(engine)
}

fn gzsl_h(engine: &ScoringEngine, ds: &Dataset) -> Result<f64, String> {
    evaluate_gzsl_with(engine, ds)
        .map(|report| report.harmonic_mean)
        .map_err(|e| format!("GZSL evaluation of the served model: {e}"))
}

/// Medians of repeated timings of the set-up layers: the daemon's boot and
/// the artifact's load and save.
fn setup_layers(
    c: &mut Collected,
    shape: &Shape,
    model_path: &Path,
    work: &WorkDir,
) -> Result<(), String> {
    const REPEATS: usize = 5;
    let resaved = work.path("resaved.zsm");
    let (mut boot, mut load, mut save) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let t = Instant::now();
        let server =
            Server::start(model_path, server_config(shape)).map_err(|e| format!("boot: {e}"))?;
        boot.push(since(t));
        drop(server);
        let t = Instant::now();
        let (engine, metadata) = ScoringEngine::load_with_metadata(model_path)
            .map_err(|e| format!("load {}: {e}", model_path.display()))?;
        load.push(since(t));
        let t = Instant::now();
        engine
            .save_with_metadata(&resaved, &metadata)
            .map_err(|e| format!("save {}: {e}", resaved.display()))?;
        save.push(since(t));
    }
    c.set("serve.model.boot_ms", median(&boot) * 1e3);
    c.set("core.artifact.load_ms", median(&load) * 1e3);
    c.set("core.artifact.save_ms", median(&save) * 1e3);
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    c.check(
        "a loaded and re-saved artifact is byte-identical to the served one",
        read(model_path)? == read(&resaved)?,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Requests and their expected responses
// ---------------------------------------------------------------------------

/// One request the load cycles through, with the response it must get.
struct Request {
    http: Vec<u8>,
    body_len: usize,
    rows: Vec<Vec<f64>>,
    expected: String,
}

/// Rows as the daemon reads them: one per line, values comma-separated in
/// shortest round-trip form, so the daemon parses back the same bits.
fn body_text(rows: &[Vec<f64>]) -> String {
    let mut body = String::new();
    for row in rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            write!(body, "{v}").expect("write to a String");
        }
        body.push('\n');
    }
    body
}

fn http_request(body: &str, k: usize) -> Vec<u8> {
    format!(
        "POST /predict?k={k} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One response line, exactly as the daemon renders a scored row.
fn render(out: &mut String, class: usize, generation: u64, topk: &TopK) {
    write!(out, "class={class} generation={generation} topk=").expect("write to a String");
    for (i, (c, s)) in topk.classes.iter().zip(&topk.scores).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{c}:{s}").expect("write to a String");
    }
    out.push('\n');
}

/// Draw the request pool from the test rows (seeded) and compute each
/// request's expected response with the in-process engine.
fn build_pool(shape: &Shape, ds: &Dataset, seed: u64, engine: &ScoringEngine) -> Vec<Request> {
    let test: Vec<&[f64]> = (0..ds.test_seen_x.rows())
        .map(|r| ds.test_seen_x.row(r))
        .chain((0..ds.test_unseen_x.rows()).map(|r| ds.test_unseen_x.row(r)))
        .collect();
    let mut rng = Rng::new(seed ^ POOL_SALT);
    let requests: Vec<Vec<Vec<f64>>> = (0..shape.pool)
        .map(|_| {
            (0..shape.rows_per_request)
                .map(|_| test[(rng.next_u64() % test.len() as u64) as usize].to_vec())
                .collect()
        })
        .collect();
    let d = ds.test_seen_x.cols();
    let flat: Vec<f64> = requests.iter().flatten().flatten().copied().collect();
    let ranked = engine.predict_topk(&Matrix::from_vec(flat.len() / d, d, flat), shape.k);
    let mut ranked = ranked.iter();
    requests
        .into_iter()
        .map(|rows| {
            let mut expected = String::new();
            for _ in &rows {
                let topk = ranked.next().expect("one ranking per pool row");
                render(&mut expected, topk.classes[0], 1, topk);
            }
            let body = body_text(&rows);
            Request {
                http: http_request(&body, shape.k),
                body_len: body.len(),
                rows,
                expected,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Depth 1: HTTP
// ---------------------------------------------------------------------------

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    stream: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("configure the client socket: {e}"))?;
        Ok(Client {
            stream: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
        })
    }

    /// Send one request and read the whole response into `body`; returns
    /// the status code.
    fn post(&mut self, request: &[u8], body: &mut String) -> Result<u16, String> {
        let io = |e: std::io::Error| format!("http: {e}");
        self.stream.get_mut().write_all(request).map_err(io)?;
        self.line.clear();
        self.stream.read_line(&mut self.line).map_err(io)?;
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {:?}", self.line))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.stream.read_line(&mut self.line).map_err(io)? == 0 {
                return Err("connection closed inside the response headers".into());
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad content-length {value:?}"))?;
                }
            }
        }
        let mut bytes = std::mem::take(body).into_bytes();
        bytes.clear();
        bytes.resize(length, 0);
        self.stream.read_exact(&mut bytes).map_err(io)?;
        *body = String::from_utf8(bytes).map_err(|e| format!("response is not UTF-8: {e}"))?;
        Ok(status)
    }
}

/// Which requests of the sequence a load phase sends.
#[derive(Clone, Copy)]
enum Stop {
    /// From request 0 until this instant, then finish the requests in flight.
    At(Instant),
    /// Requests `from..to`, split across the connections.
    Range(usize, usize),
}

impl Stop {
    fn first(self) -> usize {
        match self {
            Stop::At(_) => 0,
            Stop::Range(from, _) => from,
        }
    }

    fn done(self, index: usize) -> bool {
        match self {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::Range(_, to) => index >= to,
        }
    }
}

/// One request of an HTTP load phase.
struct Sample {
    /// Position in the request sequence; request `i` is pool entry
    /// `i % pool`.
    index: usize,
    /// Just before the request is written.
    start: Instant,
    /// The whole response has been read.
    received: Instant,
    /// The response has been checked.
    end: Instant,
    ok: bool,
    resp_bytes: usize,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        (self.received - self.start).as_secs_f64()
    }

    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Closed loop: connection `c` of `C` sends requests `first + c,
/// first + c + C, …`, each only after the reply to the previous one arrived.
fn drive_http(clients: &mut [Client], pool: &[Request], stop: Stop) -> Result<Vec<Sample>, String> {
    let conns = clients.len();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut samples = Vec::new();
                    let mut body = String::new();
                    let mut index = stop.first() + c;
                    loop {
                        if stop.done(index) {
                            return Ok(samples);
                        }
                        let request = &pool[index % pool.len()];
                        let start = Instant::now();
                        let status = client.post(&request.http, &mut body)?;
                        let received = Instant::now();
                        let ok = status == 200 && body == request.expected;
                        samples.push(Sample {
                            index,
                            start,
                            received,
                            end: Instant::now(),
                            ok,
                            resp_bytes: body.len(),
                        });
                        index += conns;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Depths 2 and 3: coalescer and engine
// ---------------------------------------------------------------------------

/// One request replayed through the coalescer.
struct Timed {
    index: usize,
    start: Instant,
    end: Instant,
    ok: bool,
}

/// Depth 2: `Coalescer` over a `ModelHandle` booted with the options
/// `Server::start` uses.
struct CoalescerDepth {
    stats: Arc<ServeStats>,
    coalescer: Coalescer,
    /// The engine the coalescer scores with; depth 3 scores with it too.
    engine: Arc<ScoringEngine>,
}

impl CoalescerDepth {
    fn boot(model_path: &Path, shape: &Shape) -> Result<CoalescerDepth, String> {
        let stats = Arc::new(ServeStats::new());
        let options = BootOptions {
            engine_threads: shape
                .engine_threads
                .unwrap_or_else(zsl_core::default_threads),
            ..BootOptions::default()
        };
        let handle = Arc::new(
            ModelHandle::boot_with_options(model_path, stats.clone(), options)
                .map_err(|e| format!("boot the coalescer's model: {e}"))?,
        );
        let engine = handle.snapshot().engine.clone();
        let coalescer = Coalescer::start(handle, stats.clone(), BatchConfig::default());
        Ok(CoalescerDepth {
            stats,
            coalescer,
            engine,
        })
    }

    /// Rows per batch the coalescer has formed so far.
    fn rows_per_batch(&self) -> f64 {
        let snapshot = self.stats.snapshot();
        snapshot.rows as f64 / snapshot.batches.max(1) as f64
    }

    /// Replay requests `round` of the sequence from as many client threads
    /// as the HTTP phase had connections.
    fn replay(&self, pool: &[Request], round: Range<usize>, shape: &Shape) -> Vec<Timed> {
        let threads = shape.connections;
        let coalescer = &self.coalescer;
        let per_thread = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let indices = (round.start + t..round.end).step_by(threads);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut text = String::new();
                        for index in indices {
                            let request = &pool[index % pool.len()];
                            let rows = request.rows.clone();
                            let start = Instant::now();
                            let replies: Vec<_> = rows
                                .into_iter()
                                .map(|row| coalescer.enqueue(row, shape.k))
                                .collect();
                            let results: Vec<_> = replies.into_iter().map(|rx| rx.recv()).collect();
                            let end = Instant::now();
                            text.clear();
                            let mut ok = true;
                            for result in results {
                                match result {
                                    Ok(Ok(row)) => {
                                        render(&mut text, row.class, row.generation, &row.topk)
                                    }
                                    _ => ok = false,
                                }
                            }
                            out.push(Timed {
                                index,
                                start,
                                end,
                                ok: ok && text == request.expected,
                            });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("coalescer client thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut timed: Vec<Timed> = per_thread.into_iter().flatten().collect();
        timed.sort_by_key(|t| t.index);
        timed
    }
}

/// One request scored at depth 3.
struct Scored {
    start: Instant,
    /// `predict_topk` returned; the projection-only replay starts here.
    end: Instant,
    project_end: Instant,
    ok: bool,
}

/// Depth 3: `predict_topk` on batches of the size the coalescer formed, then
/// the projection alone (`TrainedModel::project_parallel`) on the same batch.
fn drive_engine(
    engine: &ScoringEngine,
    pool: &[Request],
    round: Range<usize>,
    shape: &Shape,
    rows_per_batch: f64,
) -> Vec<Scored> {
    let group = ((rows_per_batch / shape.rows_per_request as f64).round() as usize).max(1);
    let d = engine.feature_dim();
    let mut out = Vec::with_capacity(round.len());
    let mut text = String::new();
    for first in round.clone().step_by(group) {
        let members = first..(first + group).min(round.end);
        let flat: Vec<f64> = members
            .clone()
            .flat_map(|i| pool[i % pool.len()].rows.iter().flatten().copied())
            .collect();
        let x = Matrix::from_vec(flat.len() / d, d, flat);
        let start = Instant::now();
        let ranked = engine.predict_topk(&x, shape.k);
        let end = Instant::now();
        std::hint::black_box(engine.model().project_parallel(&x, engine.threads()));
        let project_end = Instant::now();
        let mut ranked = ranked.iter();
        for i in members {
            let request = &pool[i % pool.len()];
            text.clear();
            for _ in &request.rows {
                let topk = ranked.next().expect("one ranking per batch row");
                render(&mut text, topk.classes[0], 1, topk);
            }
            out.push(Scored {
                start,
                end,
                project_end,
                ok: text == request.expected,
            });
        }
    }
    out
}
