//! End-to-end tests of the serving daemon over real sockets.
//!
//! Every test boots a [`Server`] from a `.zsm` artifact alone (the daemon's
//! entire state) and speaks plain HTTP/1.1 to it through `TcpStream`. The
//! acceptance-critical properties pinned here:
//!
//! - served predictions are **bit-identical** to direct
//!   [`ScoringEngine::predict`] / [`predict_topk`] calls (scores render in
//!   shortest-round-trip form, so equal text ⇒ equal bits);
//! - under concurrent single-row load, the coalescer forms batches of
//!   width > 1 (`max_batch_rows` in `/stats`);
//! - hot-swap reload never serves a partial or blended model: while a
//!   writer re-saves the artifact in a loop, every response matches one of
//!   the complete models exactly;
//! - untrusted input (bad floats, wrong widths, bogus routes, oversized
//!   request heads, corrupt artifacts) produces typed 4xx/5xx responses,
//!   never a dead daemon.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use zsl_core::data::Rng;
use zsl_core::model::ProjectionModel;
use zsl_core::trainer::{KernelEszslConfig, KernelKind, SaeConfig, Trainer};
use zsl_core::{Matrix, ScoringEngine, Similarity, SyntheticConfig};
use zsl_serve::{BatchConfig, Server, ServerConfig};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn temp_artifact(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zsl_serving_{}_{tag}.zsm", std::process::id()))
}

fn random_engine(seed: u64, d: usize, a: usize, z: usize, sim: Similarity) -> ScoringEngine {
    let mut rng = Rng::new(seed);
    let w = Matrix::from_vec(d, a, (0..d * a).map(|_| rng.normal()).collect());
    let bank = Matrix::from_vec(z, a, (0..z * a).map(|_| rng.normal()).collect());
    ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, sim).expect("engine")
}

/// One-shot HTTP client: send a request with `Connection: close`, return
/// `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, request.as_bytes())
}

/// Send `request` verbatim on a fresh connection and read until the daemon
/// closes it: `(status, body)`. The read timeout turns a daemon that waits
/// for more bytes into a failure rather than a hang.
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response}"));
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, "GET", target, "")
}

/// `rows` as a `/predict` body: one whitespace-separated row per line.
fn predict_body(rows: &[Vec<f64>]) -> String {
    rows.iter()
        .map(|r| {
            let values: Vec<String> = r.iter().map(|v| format!("{v}")).collect();
            values.join(" ") + "\n"
        })
        .collect()
}

/// Render the reference response line exactly as the daemon does, from a
/// direct engine call.
fn expected_line(engine: &ScoringEngine, row: &[f64], k: usize, generation: u64) -> String {
    let x = Matrix::from_vec(1, row.len(), row.to_vec());
    let class = engine.predict(&x)[0];
    let ranked = &engine.predict_topk(&x, k.max(1))[0];
    let keep = k.min(engine.num_classes());
    let topk: Vec<String> = ranked.classes[..keep]
        .iter()
        .zip(&ranked.scores[..keep])
        .map(|(c, s)| format!("{c}:{s}"))
        .collect();
    format!(
        "class={class} generation={generation} topk={}",
        topk.join(",")
    )
}

// ---------------------------------------------------------------------------
// Boot + correctness
// ---------------------------------------------------------------------------

#[test]
fn daemon_boots_from_artifact_alone_and_serves_bit_identical_predictions() {
    let path = temp_artifact("boot");
    let engine = random_engine(101, 5, 3, 7, Similarity::Cosine);
    engine
        .save_with_metadata(&path, "trainer=test; seed=101")
        .expect("save");
    let server = Server::start(&path, ServerConfig::default()).expect("start");
    // The artifact can disappear after boot — the daemon holds the model in
    // memory; nothing else on the box is consulted per request.
    std::fs::remove_file(&path).expect("remove artifact");

    let (status, body) = get(server.addr(), "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = get(server.addr(), "/model");
    assert_eq!(status, 200);
    assert!(body.contains("generation=1"), "{body}");
    assert!(body.contains("feature_dim=5"), "{body}");
    assert!(body.contains("classes=7"), "{body}");
    assert!(body.contains("metadata=trainer=test; seed=101"), "{body}");

    // Multi-row predict: every line bit-identical to the direct engine call.
    let mut rng = Rng::new(7);
    let rows: Vec<Vec<f64>> = (0..9)
        .map(|_| (0..5).map(|_| rng.normal()).collect())
        .collect();
    let (status, body) = http(server.addr(), "POST", "/predict?k=4", &predict_body(&rows));
    assert_eq!(status, 200, "{body}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), rows.len());
    for (row, line) in rows.iter().zip(lines) {
        assert_eq!(line, expected_line(&engine, row, 4, 1));
    }
}

#[test]
fn daemon_boots_every_model_family_from_its_artifact_alone() {
    // The daemon knows nothing about trainers: the `.zsm` family tag alone
    // must reconstruct an SAE projection and a kernelized (dual-form)
    // scorer, and both serve bit-identical to the in-process engine.
    let ds = SyntheticConfig::new()
        .classes(6, 2)
        .dims(4, 5)
        .samples(4, 3)
        .noise(0.05)
        .seed(0xFA01)
        .build();
    let trainers: [(&str, Box<dyn Trainer>); 2] = [
        ("sae", Box::new(SaeConfig::new().lambda(0.7).build())),
        (
            "kernel-eszsl",
            Box::new(
                KernelEszslConfig::new()
                    .kernel(KernelKind::Rbf { width: 0.25 })
                    .max_anchors(8)
                    .build(),
            ),
        ),
    ];
    for (family, trainer) in trainers {
        let model = trainer.fit(&ds).expect("fit");
        let engine =
            ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine).expect("engine");
        let path = temp_artifact(&format!("family_{family}"));
        engine
            .save_with_metadata(&path, &trainer.describe())
            .expect("save");
        let server = Server::start(&path, ServerConfig::default()).expect("start");
        // Artifact alone: nothing else on disk is consulted per request.
        std::fs::remove_file(&path).expect("remove artifact");

        let (status, body) = get(server.addr(), "/model");
        assert_eq!(status, 200, "{family}: {body}");
        assert!(
            body.contains(&format!("family={family}")),
            "{family}: {body}"
        );
        assert!(body.contains("feature_dim=5"), "{family}: {body}");
        assert!(
            body.contains(&format!("metadata={}", trainer.describe())),
            "{family}: {body}"
        );

        let mut rng = Rng::new(0xB007);
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..5).map(|_| rng.normal()).collect())
            .collect();
        let (status, body) = http(server.addr(), "POST", "/predict?k=3", &predict_body(&rows));
        assert_eq!(status, 200, "{family}: {body}");
        for (row, line) in rows.iter().zip(body.lines()) {
            assert_eq!(line, expected_line(&engine, row, 3, 1), "{family}");
        }
    }
}

#[test]
fn topk_edge_cases_k_zero_and_k_beyond_class_count() {
    let path = temp_artifact("edges");
    let engine = random_engine(102, 3, 2, 4, Similarity::Dot);
    engine.save(&path).expect("save");
    let server = Server::start(&path, ServerConfig::default()).expect("start");

    // k=0: the argmax class still comes back, the ranking is empty.
    let (status, body) = http(server.addr(), "POST", "/predict?k=0", "1.0 -2.0 0.5\n");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body.trim_end(),
        expected_line(&engine, &[1.0, -2.0, 0.5], 0, 1)
    );
    assert!(body.trim_end().ends_with("topk="), "{body}");

    // k far beyond the class count clamps to all 4 classes.
    let (status, body) = http(server.addr(), "POST", "/predict?k=1000", "1.0 -2.0 0.5\n");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body.trim_end(),
        expected_line(&engine, &[1.0, -2.0, 0.5], 1000, 1)
    );
    assert_eq!(
        body.trim_end().split(':').count(),
        5,
        "4 ranked entries: {body}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn untrusted_input_gets_typed_responses_and_the_daemon_survives() {
    let path = temp_artifact("untrusted");
    random_engine(103, 4, 3, 5, Similarity::Cosine)
        .save(&path)
        .expect("save");
    let server = Server::start(&path, ServerConfig::default()).expect("start");
    let addr = server.addr();

    for (what, (status, body)) in [
        (
            "bad float",
            http(addr, "POST", "/predict", "1.0 abc 2.0 3.0\n"),
        ),
        (
            "non-finite",
            http(addr, "POST", "/predict", "1e999 0 0 0\n"),
        ),
        ("nan", http(addr, "POST", "/predict", "nan 0 0 0\n")),
        ("wrong width", http(addr, "POST", "/predict", "1.0 2.0\n")),
        ("empty body", http(addr, "POST", "/predict", "\n")),
        ("bad k", http(addr, "POST", "/predict?k=x", "1 2 3 4\n")),
        (
            "bad param",
            http(addr, "POST", "/predict?kk=2", "1 2 3 4\n"),
        ),
        ("bad route", get(addr, "/nope")),
        ("bad method", http(addr, "DELETE", "/predict", "")),
    ] {
        assert_eq!(status, 400, "{what}: {body}");
        assert!(!body.is_empty(), "{what}: empty error body");
    }

    // A ragged body is refused whole, naming the line that broke the width;
    // rows that all share one wrong width get the model's width error.
    let (status, body) = http(addr, "POST", "/predict", "1 2 3 4\n1 2\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("line 2"), "{body}");
    let (status, body) = http(addr, "POST", "/predict", "1 2\n3 4\n");
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        body.trim_end(),
        "bad request: feature row has 2 values but the model expects 4"
    );

    // And the daemon still serves after all of that.
    let (status, _) = http(addr, "POST", "/predict", "1 2 3 4\n");
    assert_eq!(status, 200);
    assert!(server.stats().rejected >= 9);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Coalescing under concurrent load
// ---------------------------------------------------------------------------

#[test]
fn concurrent_single_row_requests_coalesce_into_wide_batches() {
    let path = temp_artifact("coalesce");
    // Batches form by load: a bank this wide keeps the worker scoring the
    // first arrival's row while the other clients' rows queue up behind it.
    let engine = Arc::new(random_engine(104, 6, 3, 100_000, Similarity::Cosine));
    engine.save(&path).expect("save");
    let server = Server::start(
        &path,
        ServerConfig {
            batch: BatchConfig { max_batch: 64 },
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = barrier.clone();
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(0x600D + c as u64);
                let row: Vec<f64> = (0..6).map(|_| rng.normal()).collect();
                let payload = row
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                barrier.wait();
                let (status, body) = http(addr, "POST", "/predict?k=2", &(payload + "\n"));
                assert_eq!(status, 200, "{body}");
                assert_eq!(body.trim_end(), expected_line(&engine, &row, 2, 1));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client");
    }

    let stats = server.stats();
    assert_eq!(stats.rows, clients as u64);
    assert!(
        stats.max_batch_rows > 1,
        "coalescer never formed a batch wider than one row: {stats:?}"
    );
    assert!(stats.coalesced_batches >= 1, "{stats:?}");
    // The /stats route reports the same numbers.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("max_batch_rows={}", stats.max_batch_rows)),
        "{body}"
    );
    // The bank-kernel instance this process dispatched to follows the pool
    // width; both instances score the bits checked above.
    let isa = format!(
        "\npool_threads={}\nkernel_isa={}\n",
        stats.pool_threads,
        zsl_core::kernel_isa()
    );
    assert!(body.contains(&isa), "{body}");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Hot-swap reload
// ---------------------------------------------------------------------------

/// Two same-shape models whose responses to a probe differ, so every served
/// line attributes itself to exactly one complete model.
fn swap_pair() -> (ScoringEngine, ScoringEngine) {
    let bank = Matrix::identity(2);
    let to_class_0 =
        ProjectionModel::from_weights(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]));
    let to_class_1 =
        ProjectionModel::from_weights(Matrix::from_rows(&[vec![-1.0, 0.0], vec![0.0, 1.0]]));
    (
        ScoringEngine::try_new(to_class_0, bank.clone(), Similarity::Dot).expect("engine"),
        ScoringEngine::try_new(to_class_1, bank, Similarity::Dot).expect("engine"),
    )
}

#[test]
fn hot_swap_under_concurrent_resaves_never_serves_a_partial_or_blended_model() {
    let path = temp_artifact("hotswap");
    let (model_a, model_b) = swap_pair();
    model_a
        .save_with_metadata(&path, "model=a")
        .expect("save a");
    let server = Server::start(
        &path,
        ServerConfig {
            watch_interval: Some(Duration::from_millis(3)),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();
    let probe = [0.7, 0.4];

    // The only two responses a correct daemon can ever produce (generation
    // varies; strip it before comparing).
    let strip_generation = |line: &str| -> String {
        let mut parts: Vec<&str> = line.split_whitespace().collect();
        parts.retain(|p| !p.starts_with("generation="));
        parts.join(" ")
    };
    let legal: Vec<String> = [&model_a, &model_b]
        .iter()
        .map(|m| strip_generation(&expected_line(m, &probe, 2, 1)))
        .collect();
    assert_ne!(legal[0], legal[1], "swap pair must be distinguishable");

    let stop = Arc::new(AtomicBool::new(false));
    // Writer: hammer the artifact path with alternating full re-saves —
    // exactly the hot-swap retrainer scenario the unique-temp-name fix
    // covers (plus extra writers below in the core race test).
    let writer = {
        let path = path.clone();
        let stop = stop.clone();
        let (model_a, model_b) = (model_a.clone(), model_b.clone());
        std::thread::spawn(move || {
            for i in 0..60 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let (model, tag) = if i % 2 == 0 {
                    (&model_b, "model=b")
                } else {
                    (&model_a, "model=a")
                };
                model.save_with_metadata(&path, tag).expect("re-save");
                std::thread::sleep(Duration::from_millis(4));
            }
        })
    };

    // Readers: every response must match one of the two complete models,
    // bit for bit — never an error, never a mixture.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let legal = legal.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut observed = std::collections::HashSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = http(addr, "POST", "/predict?k=2", "0.7 0.4\n");
                    assert_eq!(status, 200, "serving failed mid-swap: {body}");
                    let line = strip_generation(body.trim_end());
                    assert!(
                        legal.contains(&line),
                        "served a blended/partial model: {line:?} not in {legal:?}"
                    );
                    observed.insert(line);
                }
                observed.len()
            })
        })
        .collect();

    writer.join().expect("writer");
    // Give the watcher one more interval to settle, then stop the readers.
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let distinct: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader"))
        .max()
        .unwrap();

    let stats = server.stats();
    assert!(
        stats.reloads >= 2,
        "watcher never actually swapped models: {stats:?}"
    );
    assert_eq!(stats.reload_failures, 0, "{stats:?}");
    assert!(
        distinct == 2 || stats.reloads < 2,
        "swaps happened but readers only ever saw one model"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn failed_reload_keeps_serving_the_old_model() {
    let path = temp_artifact("badreload");
    let engine = random_engine(105, 4, 2, 3, Similarity::Dot);
    engine.save_with_metadata(&path, "good").expect("save");
    // Watcher disabled: reloads only happen through POST /reload, so the
    // failure timing is deterministic.
    let server = Server::start(
        &path,
        ServerConfig {
            watch_interval: None,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // Corrupt the artifact *in place* (bypassing the atomic save path).
    std::fs::write(&path, b"ZSMF garbage").expect("corrupt");
    let (status, body) = http(addr, "POST", "/reload", "");
    assert_eq!(status, 503, "{body}");

    // The boot model keeps serving, bit-identically.
    let (status, body) = http(addr, "POST", "/predict", "1 2 3 4\n");
    assert_eq!(status, 200);
    assert_eq!(
        body.trim_end(),
        expected_line(&engine, &[1.0, 2.0, 3.0, 4.0], 1, 1)
    );
    assert_eq!(server.model().generation(), 1);
    assert_eq!(server.stats().reload_failures, 1);

    // A valid artifact heals it via the same endpoint.
    let replacement = random_engine(106, 4, 2, 3, Similarity::Dot);
    replacement.save(&path).expect("re-save");
    let (status, body) = http(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("generation=2"), "{body}");
    let (_, body) = http(addr, "POST", "/predict", "1 2 3 4\n");
    assert_eq!(
        body.trim_end(),
        expected_line(&replacement, &[1.0, 2.0, 3.0, 4.0], 1, 2)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn mmap_boot_and_reload_serve_bit_identical_predictions() {
    // 300 classes are five 64-class tiles, the last one partial.
    let path = temp_artifact("mmap_boot");
    let engine = random_engine(108, 6, 4, 300, Similarity::Cosine);
    engine.save(&path).expect("save");
    let server = Server::start(
        &path,
        ServerConfig {
            mmap_boot: true,
            watch_interval: None,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();
    let mapped = cfg!(all(unix, target_endian = "little"));
    let assert_bank_gauges = |when: &str| {
        let (status, body) = get(addr, "/stats");
        assert_eq!(status, 200, "{when}: {body}");
        assert!(!body.contains("bank_shards"), "{when}: {body}");
        if mapped {
            assert!(body.contains("mmap_boot=1\n"), "{when}: {body}");
            assert!(body.contains("bank_resident_bytes=0\n"), "{when}: {body}");
        }
    };

    let mut rng = Rng::new(0x3A99);
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|_| (0..6).map(|_| rng.normal()).collect())
        .collect();
    let body = predict_body(&rows);
    let assert_served = |generation: u64| {
        let (status, served) = http(addr, "POST", "/predict?k=5", &body);
        assert_eq!(status, 200, "{served}");
        let lines: Vec<&str> = served.lines().collect();
        assert_eq!(lines.len(), rows.len());
        for (row, line) in rows.iter().zip(lines) {
            assert_eq!(line, expected_line(&engine, row, 5, generation));
        }
    };

    assert_bank_gauges("boot");
    assert_served(1);
    let (status, reloaded) = http(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{reloaded}");
    assert!(reloaded.contains("generation=2"), "{reloaded}");
    assert_bank_gauges("reload");
    assert_served(2);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Request-head limits
// ---------------------------------------------------------------------------

#[test]
fn oversized_request_heads_get_431_and_the_daemon_survives() {
    let path = temp_artifact("head_limits");
    random_engine(109, 4, 3, 5, Similarity::Cosine)
        .save(&path)
        .expect("save");
    let server = Server::start(&path, ServerConfig::default()).expect("start");
    let addr = server.addr();
    let request_line = "GET /healthz HTTP/1.1\r\n";

    // Each request below ends exactly where the daemon stops reading, so it
    // closes with nothing unread and the client sees the 431 rather than a
    // reset. A header line that reaches the 64 KiB head budget without its
    // newline:
    let mut long = format!("{request_line}X-Long: ");
    long.push_str(&"a".repeat((64 << 10) - long.len()));
    let (status, body) = exchange(addr, long.as_bytes());
    assert_eq!(status, 431, "over-long header line: {body}");

    // The 101st header line:
    let headers = |count: usize| -> String {
        (0..count)
            .map(|i| format!("X-Flood-{i}: {i}\r\n"))
            .collect()
    };
    let flood = format!("{request_line}{}", headers(101));
    let (status, body) = exchange(addr, flood.as_bytes());
    assert_eq!(status, 431, "header flood: {body}");

    // One header fewer is still a request.
    let most = format!("{request_line}{}Connection: close\r\n\r\n", headers(99));
    assert_eq!(exchange(addr, most.as_bytes()), (200, "ok\n".into()));

    assert_eq!(get(addr, "/healthz"), (200, "ok\n".into()));
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Keep-alive
// ---------------------------------------------------------------------------

#[test]
fn keep_alive_connections_serve_multiple_requests() {
    let path = temp_artifact("keepalive");
    let engine = random_engine(107, 3, 2, 4, Similarity::Cosine);
    engine.save(&path).expect("save");
    let server = Server::start(&path, ServerConfig::default()).expect("start");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for i in 0..3 {
        let body = "0.1 0.2 0.3\n";
        let request = format!(
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("write");
        // Read exactly one response: headers, then Content-Length bytes.
        let mut header = Vec::new();
        let mut one = [0u8; 1];
        while !header.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut one).expect("read header");
            header.push(one[0]);
        }
        let text = String::from_utf8(header).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200"), "request {i}: {text}");
        let length: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .trim()
            .parse()
            .expect("length");
        let mut payload = vec![0u8; length];
        stream.read_exact(&mut payload).expect("read body");
        assert_eq!(
            String::from_utf8(payload).expect("utf8").trim_end(),
            expected_line(&engine, &[0.1, 0.2, 0.3], 1, 1),
            "request {i}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn http_1_0_connections_close_unless_the_client_asks_to_keep_them() {
    let path = temp_artifact("http10");
    random_engine(113, 3, 2, 4, Similarity::Cosine)
        .save(&path)
        .expect("save");
    let server = Server::start(&path, ServerConfig::default()).expect("start");
    let connect = || {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream
    };

    // A bare HTTP/1.0 request: the daemon answers and closes, so a client
    // reading to EOF finishes well inside its read timeout.
    let mut stream = connect();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("EOF before the read timeout");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
    assert!(response.ends_with("\r\n\r\nok\n"), "{response}");

    // With `Connection: keep-alive` the same socket serves a second request.
    let mut stream = connect();
    let expected = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                    Content-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n";
    for request in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .expect("write");
        let mut response = vec![0u8; expected.len()];
        stream.read_exact(&mut response).expect("read response");
        assert_eq!(
            String::from_utf8_lossy(&response),
            expected,
            "request {request}"
        );
    }
    std::fs::remove_file(&path).ok();
}
