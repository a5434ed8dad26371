//! # zsl-serve — the prediction-serving daemon over `.zsm` artifacts
//!
//! A long-running server that boots from a [`zsl_core`] `.zsm` model
//! artifact **alone** — no training data, no re-solve — and scores feature
//! vectors over HTTP through the engine's chunked parallel kernels.
//! Everything is `std`-only: no async runtime, no HTTP or serialization
//! dependencies.
//!
//! The production-scale pieces, in module order:
//!
//! | module | role |
//! |--------|------|
//! | [`model`] | ONE immutable `Arc<ScoringEngine>` shared across request threads, plus hot-swap reload: a watcher polls the artifact path and atomically swaps the `Arc` on change, leaning on the writer's fsync + unique-temp + rename discipline so a swap only ever installs a complete model |
//! | [`batch`] | the request coalescer: each request is queued whole, as one row-major buffer (in `max_batch`-row pieces when longer), and one worker scores the queue's leading whole entries, up to `max_batch` rows, as soon as it is free, so requests that arrive while a batch is being scored merge into the next one matrix and the row-banded matmul sees wide inputs under load; each request gets its results on one channel, in row order |
//! | [`http`] | minimal HTTP/1.1 front end: `/predict` (batched scoring, `?k=` rankings), `/healthz`, `/stats`, `/model`, `/reload` |
//! | [`stats`] | lock-free counters proving the batches really form (`max_batch_rows`, `coalesced_batches`) and tracking reloads |
//! | [`error`] | [`ServeError`]: every failure on the serving path is typed — untrusted request bytes and untrusted artifact bytes can never panic the daemon |
//!
//! ## Quick start
//!
//! ```no_run
//! use zsl_serve::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), zsl_serve::ServeError> {
//! let server = Server::start("model.zsm".as_ref(), ServerConfig::default())?;
//! println!("serving on http://{}", server.addr());
//! server.run_until_stopped();
//! # Ok(())
//! # }
//! ```
//!
//! The `zsl-serve` binary wraps exactly this. Its latency and throughput
//! are measured by the workspace benchmark's serving workloads
//! (`bench/README.md`).

pub mod batch;
pub mod error;
pub mod http;
pub mod model;
pub mod stats;

pub use batch::{BatchConfig, Coalescer, RowResult};
pub use error::ServeError;
pub use http::{Server, ServerConfig};
pub use model::{BootOptions, ModelHandle, ModelSnapshot};
pub use stats::{ServeStats, StatsSnapshot};
