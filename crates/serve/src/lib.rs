//! **fd-serve** — a dependency-free credibility-inference server.
//!
//! Turns a trained [FakeDetector](fd_core::FakeDetector) bundle into an
//! HTTP/1.1 service (`fdctl serve`) built entirely on `std::net` — no
//! async runtime, no HTTP framework. Three layers:
//!
//! 1. [`http`] — a defensive HTTP/1.1 parser/writer with hard size
//!    caps plus a small blocking client for tests and load generation.
//! 2. [`batch`] — the dynamic micro-batching queue. Handler threads
//!    enqueue single requests; the batcher drains up to `max_batch`
//!    jobs (or waits at most `max_delay_ms`) and scores them in one
//!    matrix pass. Because every serving op is row-independent and the
//!    kernels reduce in a fixed order, a batched response is
//!    bitwise-identical to scoring the same request alone.
//! 3. [`server`] — accept loop, routing (`POST /v1/predict`,
//!    `POST /v1/predict_batch`, `POST /v1/ingest`, `GET /healthz`,
//!    `GET /metrics`), backpressure (bounded queue → 429), per-request
//!    deadlines (→ 504), and graceful shutdown that completes in-flight
//!    requests and drains the queue before exiting.
//!
//! [`ServeModel`] is the shareable handle behind it all: corpus,
//! feature pipeline, trained weights, and the precomputed diffused
//! corpus states, so a request is a dry-run ingest that computes only
//! the rows it reads (at the default depth, one batched HFLU encode +
//! one GDU evaluation per batch) instead of a full graph pass.
//!
//! `POST /v1/ingest` grows the graph online: new articles, creators and
//! subjects attach behind the same hot-swap slot SIGHUP reloads use,
//! and only the affected neighbourhood's diffused states are
//! recomputed ([`ServeModel::ingest`]) — so ingest cost tracks the
//! batch's neighbourhood, not the corpus. In-flight predicts keep the
//! model they pinned; later requests see (and may cite, by combined
//! index) the ingested nodes.
//!
//! ```no_run
//! use fd_serve::{ServeConfig, ServeModel, Server};
//! use std::sync::Arc;
//!
//! let model = Arc::new(ServeModel::load("corpus.json", "model.json")?);
//! let server = Server::start(model, &ServeConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.shutdown(); // graceful: drains the queue first
//! # Ok::<(), String>(())
//! ```
//!
//! Operational details — every flag, env var, endpoint schema, and
//! metric — live in the repository's `OPERATIONS.md`.

pub mod batch;
pub mod http;
pub mod model;
pub mod server;

pub use batch::{Batch, BatchQueue, EnqueueError, ScoreResult};
pub use http::{bind_reuse, HttpClient, HttpError, Request};
pub use model::{
    mode_name, parse_mode, BundleSplit, IngestArticle, IngestBatch, IngestCreator, IngestReport,
    IngestSubject, IngestedNode, ServeModel, TrainBundle,
};
pub use server::{
    install_signal_handlers, retry_after_secs, signal_received, take_reload_request, ModelSlot,
    ServeConfig, Server, ShutdownHandle,
};
