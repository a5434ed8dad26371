//! `zsl-serve` — boot a prediction daemon from a `.zsm` model artifact.
//!
//! ```sh
//! # Train + persist a model with the core CLI, then serve it:
//! cargo run --release --example eval_dataset -- train /tmp/zsl_bundle --save /tmp/model.zsm
//! cargo run --release -p zsl-serve -- /tmp/model.zsm --addr 127.0.0.1:7878
//!
//! # Score rows (one per line, values comma/space separated):
//! curl -s http://127.0.0.1:7878/predict?k=3 --data-binary $'0.1 0.2 0.3\n1 2 3'
//! curl -s http://127.0.0.1:7878/healthz
//! curl -s http://127.0.0.1:7878/stats
//!
//! # Hot-swap: re-save the artifact (atomic rename) and the watcher picks
//! # it up; or force it:
//! curl -s -X POST http://127.0.0.1:7878/reload
//! ```

use std::process::ExitCode;
use std::time::Duration;
use zsl_serve::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: zsl-serve <model.zsm> [--addr HOST:PORT] [--threads N] [--max-batch N] \
         [--watch-ms N | --no-watch] [--max-body-mb N] [--mmap]\n\n\
         Boots a prediction server from the .zsm artifact alone. Each request is queued\n\
         whole (in --max-batch-row pieces when longer); requests that arrive while a batch\n\
         is being scored form the next batch, of whole requests up to --max-batch rows;\n\
         nothing waits on a timer. The artifact path is polled every --watch-ms and\n\
         hot-swapped atomically on change. --threads pins the scoring engine's kernel\n\
         parallelism (default: one band per CPU; pin it low on loaded boxes — request\n\
         threads already provide concurrency, and kernel fan-out on top oversubscribes\n\
         cores). --mmap boots by memory-mapping the artifact (zero-copy signature bank\n\
         when the file layout allows, heap fallback otherwise)."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(model_path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--no-watch" {
            config.watch_interval = None;
            i += 1;
            continue;
        }
        if flag == "--mmap" {
            config.mmap_boot = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        match flag {
            "--addr" => config.addr = value.clone(),
            "--threads" => match value.parse() {
                Ok(n) if n > 0 => config.engine_threads = Some(n),
                _ => return usage(),
            },
            "--max-batch" => match value.parse() {
                Ok(n) if n > 0 => config.batch.max_batch = n,
                _ => return usage(),
            },
            "--watch-ms" => match value.parse() {
                Ok(ms) => config.watch_interval = Some(Duration::from_millis(ms)),
                Err(_) => return usage(),
            },
            "--max-body-mb" => match value.parse::<usize>() {
                Ok(mb) if mb > 0 => config.max_body_bytes = mb << 20,
                _ => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }

    let server = match Server::start(model_path.as_ref(), config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start: {e}");
            let mut source = std::error::Error::source(&e);
            while let Some(inner) = source {
                eprintln!("  caused by: {inner}");
                source = inner.source();
            }
            return ExitCode::FAILURE;
        }
    };
    let snapshot = server.model().snapshot();
    println!(
        "zsl-serve: model {} ({}, {} features -> {} attrs -> {} classes, {} similarity, \
         {} scoring), generation {}",
        model_path,
        snapshot.engine.model().family(),
        snapshot.engine.feature_dim(),
        snapshot.engine.model().attr_dim(),
        snapshot.engine.num_classes(),
        snapshot.engine.similarity(),
        snapshot.engine.precision(),
        snapshot.generation,
    );
    println!(
        "zsl-serve: listening on http://{} (engine_threads={}, max_batch={}, watch={:?}, \
         mmap={})",
        server.addr(),
        snapshot.engine.threads(),
        config.batch.max_batch,
        config.watch_interval,
        snapshot.engine.is_bank_mapped(),
    );
    server.run_until_stopped();
    ExitCode::SUCCESS
}
