//! The HTTP server: accept loop, per-connection handlers, routing, and
//! graceful shutdown.
//!
//! Each connection gets a handler thread that parses requests and
//! enqueues scoring jobs on the shared [`BatchQueue`]; one batcher
//! thread drains the queue and runs batched matrix passes over the
//! shared [`ServeModel`]. Handler threads poll the shutdown flag
//! between requests (via a short read timeout), so
//! [`Server::shutdown`] completes every in-flight request, drains the
//! queue, and only then tears the threads down.

use crate::batch::{BatchQueue, EnqueueError};
use crate::http::{read_request, write_response, write_response_ext, HttpError, Request};
use crate::model::{mode_name, IngestBatch, ServeModel};
use fd_core::ScoreRequest;
use fd_graph::NodeType;
use fd_obs::TraceCtx;
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle connection handlers wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Tunables for [`Server::start`]. The defaults match the documented
/// `fdctl serve` defaults (see OPERATIONS.md).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port 0 picks a free port
    /// (query it with [`Server::local_addr`]).
    pub addr: String,
    /// Largest batch the batcher scores in one matrix pass.
    pub max_batch: usize,
    /// Longest a queued request waits for co-batching company before a
    /// partial batch is dispatched.
    pub max_delay_ms: u64,
    /// Queued-job bound; beyond it new requests get 429.
    pub queue_bound: usize,
    /// Per-request deadline from enqueue to scored result (504 past it).
    pub request_timeout_ms: u64,
    /// Largest accepted request body (413 past it).
    pub max_body_bytes: usize,
    /// Largest node count a single `POST /v1/ingest` batch may attach
    /// (413 past it). Bounds the worst-case affected neighbourhood an
    /// ingest recomputes while holding the update lock.
    pub max_ingest_nodes: usize,
    /// `Some((i, n))` when this process is shard worker `i` of `n` in a
    /// routed tier (`fdctl serve --shard i/n`). The worker still loads
    /// the full corpus — diffused states are read-only, so any replica
    /// answers bitwise-identically — but it *owns* only the entities
    /// whose `id % n == i`: by-id readouts for other ids are refused
    /// with 421 so a misconfigured router is caught loudly instead of
    /// silently double-serving. `None` (the default) serves everything.
    pub shard: Option<(usize, usize)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            max_batch: 32,
            max_delay_ms: 2,
            queue_bound: 1024,
            request_timeout_ms: 10_000,
            max_body_bytes: 1 << 20,
            max_ingest_nodes: 256,
            shard: None,
        }
    }
}

/// An atomically swappable model handle for zero-downtime reloads and
/// ingests.
///
/// Readers clone the inner `Arc` under a momentary read lock; a reload
/// replaces it under a write lock. Requests that already cloned the old
/// `Arc` keep scoring against it until they finish — a swap never drops
/// or corrupts an in-flight request, it only changes which model *new*
/// work picks up. The old model is freed when its last request
/// completes.
///
/// Writers (SIGHUP reloads and `/v1/ingest`) additionally serialise on
/// an update lock, so two concurrent ingests — or an ingest racing a
/// reload — apply one after the other instead of losing one side's
/// nodes. The update lock is never held while *readers* wait: `get` only
/// touches the inner `RwLock`.
pub struct ModelSlot {
    current: RwLock<Arc<ServeModel>>,
    update: Mutex<()>,
}

impl ModelSlot {
    /// A slot serving `model`.
    pub fn new(model: Arc<ServeModel>) -> Self {
        Self { current: RwLock::new(model), update: Mutex::new(()) }
    }

    /// The model new work should score against.
    pub fn get(&self) -> Arc<ServeModel> {
        // An Arc clone cannot leave the slot half-written, so a poison
        // (panicking reader) is recoverable.
        self.current.read().unwrap_or_else(|poisoned| poisoned.into_inner()).clone()
    }

    fn replace(&self, model: Arc<ServeModel>) -> Arc<ServeModel> {
        let mut slot = self.current.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        std::mem::replace(&mut *slot, model)
    }

    /// Atomically replaces the served model; returns the previous one.
    pub fn swap(&self, model: Arc<ServeModel>) -> Arc<ServeModel> {
        let _writer = self.update.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        self.replace(model)
    }

    /// Read-modify-write under the update lock: derives a new model
    /// from the currently served one and publishes it atomically. An
    /// `Err` from `f` publishes nothing. `/v1/ingest` goes through
    /// here, so an ingest can never clobber (or be clobbered by) a
    /// concurrent ingest or SIGHUP reload.
    pub fn update<R>(
        &self,
        f: impl FnOnce(Arc<ServeModel>) -> Result<(Arc<ServeModel>, R), String>,
    ) -> Result<R, String> {
        let _writer = self.update.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let (next, out) = f(self.get())?;
        self.replace(next);
        Ok(out)
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaves the threads running detached; call `shutdown` for a clean,
/// draining stop.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<BatchQueue>,
    slot: Arc<ModelSlot>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

/// Clonable remote control for a [`Server`]; lets a signal watcher ask
/// for shutdown without owning the server.
#[derive(Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Flips the shutdown flag and wakes the accept loop. Idempotent;
    /// the actual draining happens in [`Server::shutdown`].
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // A throwaway connection unblocks the accept() call so it can
        // observe the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

impl Server {
    /// Binds `config.addr` and starts the accept loop and the batcher.
    pub fn start(model: Arc<ServeModel>, config: &ServeConfig) -> Result<Self, String> {
        // SO_REUSEADDR so a replica killed mid-drill can be restarted
        // on its fixed port without waiting out TIME_WAIT.
        let listener = crate::http::bind_reuse(&config.addr)
            .map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let queue = Arc::new(BatchQueue::new(
            config.queue_bound,
            config.max_batch,
            Duration::from_millis(config.max_delay_ms),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let slot = Arc::new(ModelSlot::new(model));

        let batcher = {
            let queue = Arc::clone(&queue);
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || batcher_loop(&queue, &slot))
        };
        let accept = {
            let queue = Arc::clone(&queue);
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            std::thread::spawn(move || accept_loop(listener, slot, queue, stop, config))
        };
        fd_obs::event(
            fd_obs::Level::Info,
            "serve.start",
            &[("addr", fd_obs::Value::Str(addr.to_string()))],
        );
        Ok(Self { addr, queue, slot, stop, accept: Some(accept), batcher: Some(batcher) })
    }

    /// Hot-swaps the served model without dropping in-flight requests
    /// (see [`ModelSlot`]); `fdctl serve` calls this on `SIGHUP`.
    pub fn swap_model(&self, model: Arc<ServeModel>) {
        let _old = self.slot.swap(model);
        fd_obs::counter("serve.reloads").inc();
        fd_obs::event(fd_obs::Level::Info, "serve.reload", &[]);
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { addr: self.addr, stop: Arc::clone(&self.stop) }
    }

    /// Graceful stop: stop accepting, flush the queue (already-enqueued
    /// jobs are scored and answered immediately, without waiting out the
    /// co-batching window; requests arriving after this point get 503),
    /// then join the handlers and finally the batcher. The queue must be
    /// shut down *before* the handlers are joined — handlers waiting on
    /// a queued result would otherwise block the join until the batching
    /// window expired.
    pub fn shutdown(mut self) {
        self.shutdown_handle().request_shutdown();
        self.queue.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        fd_obs::event(fd_obs::Level::Info, "serve.stop", &[]);
    }
}

/// Scores batches until the queue shuts down and drains. The batcher is
/// a singleton — if it dies, every future request times out — so a
/// panic during scoring is contained per batch: the batch's requests
/// get a 500 and the loop keeps serving.
fn batcher_loop(queue: &BatchQueue, slot: &ModelSlot) {
    let size_hist = fd_obs::histogram("serve.batch_size", &fd_obs::exponential_buckets(1.0, 2.0, 9));
    let wait_hist =
        fd_obs::histogram("serve.queue_wait_us", &fd_obs::exponential_buckets(50.0, 4.0, 10));
    let score_hist =
        fd_obs::histogram("serve.batch_score_us", &fd_obs::exponential_buckets(100.0, 4.0, 12));
    let occupancy = fd_obs::gauge("serve.batch_occupancy");
    while let Some(batch) = queue.next_batch() {
        size_hist.record(batch.requests.len() as f64);
        occupancy.set(batch.requests.len() as f64 / queue.max_batch() as f64);
        // The jobs crossed the thread boundary carrying their handler's
        // trace context: bill each request its own queue wait, then the
        // shared assembly/scoring time, so every trace in the batch is
        // self-contained.
        let assembled_us = fd_obs::trace::now_us();
        for (trace, wait) in batch.traces.iter().zip(&batch.waits) {
            wait_hist.record(wait.as_secs_f64() * 1e6);
            if trace.sampled {
                let wait_us = wait.as_micros() as u64;
                trace.child().record("queue.wait", assembled_us.saturating_sub(wait_us), wait_us);
            }
        }
        // The model is re-read per batch, so a hot reload takes effect
        // on the very next batch while this one finishes on the Arc it
        // already holds.
        let model = slot.get();
        let score_start_us = fd_obs::trace::now_us();
        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(delay) = fd_ckpt::fault::slow_batch() {
                std::thread::sleep(delay);
            }
            if fd_ckpt::fault::panic_batch() {
                panic!("injected batch panic (FD_FAULT=panic-batch)");
            }
            let _timer = fd_obs::span_timed("serve.batch_score", score_hist);
            model.score(&batch.requests)
        }));
        let score_end_us = fd_obs::trace::now_us();
        for trace in &batch.traces {
            if trace.sampled {
                trace.child().record(
                    "batch.assemble",
                    assembled_us,
                    score_start_us.saturating_sub(assembled_us),
                );
                trace.child().record(
                    "batch.score",
                    score_start_us,
                    score_end_us.saturating_sub(score_start_us),
                );
            }
        }
        match scored {
            // Send failures mean the handler gave up (timeout / dead
            // connection); the result is simply dropped.
            Ok(Ok(rows)) => {
                for (row, reply) in rows.into_iter().zip(&batch.replies) {
                    let _ = reply.send(Ok(row));
                }
            }
            Ok(Err(e)) => {
                fd_obs::counter("serve.batch_errors").inc();
                for reply in &batch.replies {
                    let _ = reply.send(Err(e.clone()));
                }
            }
            Err(_) => {
                fd_obs::counter("serve.batch_panics").inc();
                fd_obs::event(fd_obs::Level::Error, "serve.batch_panic", &[]);
                for reply in &batch.replies {
                    let _ = reply.send(Err("internal error: scoring panicked".to_string()));
                }
            }
        }
    }
}

/// Accepts connections until shutdown, then joins every handler thread
/// so in-flight requests complete before `Server::shutdown` proceeds.
fn accept_loop(
    listener: TcpListener,
    slot: Arc<ModelSlot>,
    queue: Arc<BatchQueue>,
    stop: Arc<AtomicBool>,
    config: ServeConfig,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        fd_obs::counter("serve.connections").inc();
        let slot = Arc::clone(&slot);
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let config = config.clone();
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &slot, &queue, &stop, &config)
        }));
        handlers.retain(|h| !h.is_finished());
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Serves one keep-alive connection until the peer closes, an
/// unrecoverable parse error occurs, or shutdown is requested.
fn handle_connection(
    mut stream: TcpStream,
    slot: &ModelSlot,
    queue: &BatchQueue,
    stop: &AtomicBool,
    config: &ServeConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let latency_hist =
        fd_obs::histogram("serve.request_us", &fd_obs::exponential_buckets(50.0, 4.0, 12));
    let inflight = fd_obs::gauge("serve.inflight_requests");
    loop {
        let request = match read_request(&mut stream, config.max_body_bytes) {
            Ok(request) => request,
            Err(HttpError::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(_)) => return,
            // The connection state is unknown after these; respond and
            // close rather than trying to resynchronise.
            Err(e @ (HttpError::HeadTooLarge | HttpError::BodyTooLarge(_))) => {
                respond_error(&mut stream, 413, &e.to_string());
                return;
            }
            Err(e @ HttpError::Malformed(_)) => {
                respond_error(&mut stream, 400, &e.to_string());
                return;
            }
        };
        fd_obs::counter("serve.requests").inc();
        inflight.add(1.0);
        // The request's root trace context: derived from the inbound
        // X-Request-Id when the client sent one (so retries map to the
        // same trace id), fresh otherwise. Every span of this request —
        // including those the batcher thread records — hangs off it.
        let trace = match request.request_id.as_deref() {
            Some(id) => TraceCtx::from_request_id(id),
            None => TraceCtx::root(),
        };
        // The parse span is anchored at the first byte's arrival, so
        // keep-alive idle time between requests is not billed to it.
        let parse_end_us = fd_obs::trace::now_us();
        let parse_us = request.received.elapsed().as_micros() as u64;
        let request_start_us = parse_end_us.saturating_sub(parse_us);
        if trace.sampled {
            trace.child().record("http.parse", request_start_us, parse_us);
        }
        let started = Instant::now();
        // Each request pins the model that was current when it arrived;
        // a concurrent hot reload affects only later requests. Panics
        // inside routing map to a 500 on this connection instead of
        // silently dropping it mid-response.
        let model = slot.get();
        let (status, body, content_type, extra_headers) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(&model, slot, queue, config, &request, &trace)
            }))
            .unwrap_or_else(|_| {
                fd_obs::counter("serve.handler_panics").inc();
                fd_obs::event(fd_obs::Level::Error, "serve.handler_panic", &[]);
                (500, error_body("internal error"), "application/json", vec![])
            });
        latency_hist.record(started.elapsed().as_secs_f64() * 1e6);
        match status {
            429 => fd_obs::counter("serve.responses_429").inc(),
            504 => fd_obs::counter("serve.responses_504").inc(),
            _ => {}
        }
        if status >= 500 {
            fd_obs::counter("serve.responses_5xx").inc();
        } else if status >= 400 {
            fd_obs::counter("serve.responses_4xx").inc();
        } else {
            fd_obs::counter("serve.responses_2xx").inc();
        }
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        // Echo the request id (client-supplied, else the generated
        // trace id) so callers can correlate responses with traces.
        let echo_id = request.request_id.clone().unwrap_or_else(|| trace.trace_hex());
        let mut headers: Vec<(&str, &str)> = vec![("x-request-id", &echo_id)];
        headers.extend(extra_headers.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        let respond_start_us = fd_obs::trace::now_us();
        let write_ok =
            write_response_ext(&mut stream, status, &body, keep_alive, content_type, &headers)
                .is_ok();
        if trace.sampled {
            let end_us = fd_obs::trace::now_us();
            trace.child().record(
                "respond",
                respond_start_us,
                end_us.saturating_sub(respond_start_us),
            );
            trace.record("request", request_start_us, end_us.saturating_sub(request_start_us));
        }
        inflight.add(-1.0);
        if !write_ok || !keep_alive {
            return;
        }
    }
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    fd_obs::counter("serve.responses_4xx").inc();
    let _ = write_response(stream, status, &error_body(message), false);
}

/// One entity to score, as it appears on the wire. Exactly one of
/// `text` (inductive scoring of an out-of-graph entity) or `id`
/// (state readout of a node already in the graph, including ingested
/// ones) must be present.
#[derive(Deserialize)]
struct WireRequest {
    /// `article` (default), `creator`, or `subject`.
    #[serde(default = "default_node_type")]
    node_type: String,
    #[serde(default)]
    text: Option<String>,
    #[serde(default)]
    id: Option<usize>,
    #[serde(default)]
    creator: Option<usize>,
    #[serde(default)]
    subjects: Vec<usize>,
    #[serde(default)]
    articles: Vec<usize>,
}

/// How a `/v1/predict` request is served: inline by-id readout, or
/// featurise-and-batch inductive scoring.
enum PredictTarget {
    ById(NodeType, usize),
    Inductive(ScoreRequest),
}

fn default_node_type() -> String {
    "article".into()
}

#[derive(Deserialize)]
struct WireBatch {
    requests: Vec<WireRequest>,
}

#[derive(Serialize)]
struct PredictResponse {
    mode: String,
    labels: Vec<String>,
    probabilities: Vec<f32>,
}

#[derive(Serialize)]
struct BatchResponse {
    mode: String,
    labels: Vec<String>,
    results: Vec<Vec<f32>>,
}

#[derive(Serialize)]
struct Health {
    status: String,
    mode: String,
    articles: usize,
    creators: usize,
    subjects: usize,
    /// This worker's shard index; 0 when unsharded.
    shard: usize,
    /// Total shards in the tier; 1 when unsharded.
    shards: usize,
}

#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ErrorBody { error: message.to_string() })
        .unwrap_or_else(|_| "{}".into())
}

fn owned_labels(model: &ServeModel) -> Vec<String> {
    model.class_labels().into_iter().map(str::to_string).collect()
}

impl WireRequest {
    fn into_target(self) -> Result<PredictTarget, String> {
        let node_type = match self.node_type.as_str() {
            "article" => NodeType::Article,
            "creator" => NodeType::Creator,
            "subject" => NodeType::Subject,
            other => return Err(format!("node_type must be article|creator|subject, got {other}")),
        };
        match (self.id, self.text) {
            (Some(_), Some(_)) => Err("provide either text or id, not both".to_string()),
            (None, None) => {
                Err("provide text (inductive scoring) or id (by-id readout)".to_string())
            }
            (Some(id), None) => {
                if self.creator.is_some() || !self.subjects.is_empty() || !self.articles.is_empty()
                {
                    return Err(
                        "by-id requests must not name neighbours: the graph already has them"
                            .to_string(),
                    );
                }
                Ok(PredictTarget::ById(node_type, id))
            }
            (None, Some(text)) => Ok(PredictTarget::Inductive(ScoreRequest {
                node_type,
                text,
                creator: self.creator,
                subjects: self.subjects,
                articles: self.articles,
            })),
        }
    }

    /// The inductive-only conversion `/v1/predict_batch` uses; by-id
    /// readouts are not batched (they never touch the batcher).
    fn into_score_request(self) -> Result<ScoreRequest, String> {
        match self.into_target()? {
            PredictTarget::Inductive(request) => Ok(request),
            PredictTarget::ById(..) => {
                Err("by-id requests are not batched; use /v1/predict".to_string())
            }
        }
    }
}

/// Response headers beyond the defaults — currently only `Retry-After`
/// on 429s. Owned strings because the values are computed per response.
type ExtraHeaders = Vec<(String, String)>;

/// Dispatches one parsed request to its endpoint; returns status, body,
/// the body's `Content-Type`, and any extra response headers. Never
/// panics on request content.
fn route(
    model: &ServeModel,
    slot: &ModelSlot,
    queue: &BatchQueue,
    config: &ServeConfig,
    request: &Request,
    trace: &TraceCtx,
) -> (u16, String, &'static str, ExtraHeaders) {
    const JSON: &str = "application/json";
    // Split off the query string so `/metrics?format=json` routes like
    // `/metrics`.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.path.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let (articles, creators, subjects) = model.corpus_sizes();
            let (shard, shards) = config.shard.unwrap_or((0, 1));
            let health = Health {
                status: "ok".into(),
                mode: mode_name(model.mode()).into(),
                articles,
                creators,
                subjects,
                shard,
                shards,
            };
            (200, serde_json::to_string(&health).unwrap_or_else(|_| "{}".into()), JSON, vec![])
        }
        // Prometheus text exposition by default; the original JSON
        // snapshot stays reachable at `/metrics?format=json`.
        ("GET", "/metrics") => {
            if query.is_some_and(|q| q.split('&').any(|p| p == "format=json")) {
                (200, fd_obs::snapshot(), JSON, vec![])
            } else {
                (200, fd_obs::prometheus_text(), fd_obs::PROMETHEUS_CONTENT_TYPE, vec![])
            }
        }
        ("POST", "/v1/predict") => {
            let (status, body, headers) = predict_one(model, queue, config, &request.body, trace);
            (status, body, JSON, headers)
        }
        ("POST", "/v1/predict_batch") => {
            let (status, body, headers) = predict_batch(model, queue, config, &request.body, trace);
            (status, body, JSON, headers)
        }
        ("POST", "/v1/ingest") => {
            let (status, body) = ingest(slot, config, &request.body, trace);
            (status, body, JSON, vec![])
        }
        (_, "/healthz" | "/metrics" | "/v1/predict" | "/v1/predict_batch" | "/v1/ingest") => {
            (405, error_body("method not allowed"), JSON, vec![])
        }
        (_, path) => (404, error_body(&format!("no such endpoint: {path}")), JSON, vec![]),
    }
}

fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("invalid request body: {e}"))
}

/// Seconds a 429'd client should wait before retrying: the backlog in
/// batches (`depth / max_batch`, rounded up) times the mean
/// batch-scoring time observed so far, clamped to `[1, 30]`. Before the
/// first batch has been scored there is no mean yet; 1 s is a safe
/// floor either way since the clamp guarantees `Retry-After >= 1`.
pub fn retry_after_secs(queue: &BatchQueue) -> u64 {
    let hist =
        fd_obs::histogram("serve.batch_score_us", &fd_obs::exponential_buckets(100.0, 4.0, 12));
    let mean_us = if hist.count() > 0 { hist.sum() / hist.count() as f64 } else { 0.0 };
    let backlog_batches = (queue.depth() as f64 / queue.max_batch() as f64).ceil();
    let secs = (backlog_batches * mean_us / 1e6).ceil() as u64;
    secs.clamp(1, 30)
}

/// Maps an enqueue rejection to its HTTP response. 429s carry a
/// `Retry-After` so well-behaved clients back off for roughly as long
/// as the backlog needs to drain, instead of hammering a full queue.
fn enqueue_failure(queue: &BatchQueue, err: EnqueueError) -> (u16, String, ExtraHeaders) {
    match err {
        EnqueueError::Full => (
            429,
            error_body("queue full, retry later"),
            vec![("retry-after".into(), retry_after_secs(queue).to_string())],
        ),
        EnqueueError::ShuttingDown => (503, error_body("server is shutting down"), vec![]),
    }
}

fn predict_one(
    model: &ServeModel,
    queue: &BatchQueue,
    config: &ServeConfig,
    body: &[u8],
    trace: &TraceCtx,
) -> (u16, String, ExtraHeaders) {
    let wire: WireRequest = match parse_body(body) {
        Ok(wire) => wire,
        Err(e) => return (400, error_body(&e), vec![]),
    };
    let score_request = match wire.into_target() {
        // By-id readouts answer inline off the precomputed (and
        // ingest-patched) states — no featurisation, no batcher trip.
        Ok(PredictTarget::ById(ty, id)) => {
            // Shard ownership guard: a by-id readout landing on a
            // worker that does not own the id means the router's shard
            // math disagrees with ours — refuse loudly (421) rather
            // than answer for an entity another shard owns.
            if let Some((index, total)) = config.shard {
                if id % total != index {
                    fd_obs::counter("serve.responses_421").inc();
                    return (
                        421,
                        error_body(&format!(
                            "id {id} belongs to shard {}/{total}, this worker is {index}/{total}",
                            id % total
                        )),
                        vec![],
                    );
                }
            }
            return match model.score_node(ty, id) {
                Ok(probabilities) => {
                    let response = PredictResponse {
                        mode: mode_name(model.mode()).into(),
                        labels: owned_labels(model),
                        probabilities,
                    };
                    (200, serde_json::to_string(&response).unwrap_or_else(|_| "{}".into()), vec![])
                }
                Err(e) => (404, error_body(&e), vec![]),
            };
        }
        Ok(PredictTarget::Inductive(r)) => r,
        Err(e) => return (400, error_body(&e), vec![]),
    };
    // Validate before enqueueing so the batcher only ever sees
    // well-formed jobs and bad requests fail fast with a 400.
    if let Err(e) = model.validate(&score_request) {
        return (400, error_body(&e), vec![]);
    }
    let receiver = match queue.enqueue(score_request, *trace) {
        Ok(rx) => rx,
        Err(e) => return enqueue_failure(queue, e),
    };
    match receiver.recv_timeout(Duration::from_millis(config.request_timeout_ms)) {
        Ok(Ok(probabilities)) => {
            let response = PredictResponse {
                mode: mode_name(model.mode()).into(),
                labels: owned_labels(model),
                probabilities,
            };
            (200, serde_json::to_string(&response).unwrap_or_else(|_| "{}".into()), vec![])
        }
        Ok(Err(e)) => (500, error_body(&e), vec![]),
        Err(RecvTimeoutError::Timeout) => {
            fd_obs::counter("serve.request_timeouts").inc();
            (504, error_body("scoring deadline exceeded"), vec![])
        }
        Err(RecvTimeoutError::Disconnected) => (500, error_body("batcher unavailable"), vec![]),
    }
}

fn predict_batch(
    model: &ServeModel,
    queue: &BatchQueue,
    config: &ServeConfig,
    body: &[u8],
    trace: &TraceCtx,
) -> (u16, String, ExtraHeaders) {
    let wire: WireBatch = match parse_body(body) {
        Ok(wire) => wire,
        Err(e) => return (400, error_body(&e), vec![]),
    };
    let mut score_requests = Vec::with_capacity(wire.requests.len());
    for (i, item) in wire.requests.into_iter().enumerate() {
        let score_request = match item.into_score_request() {
            Ok(r) => r,
            Err(e) => return (400, error_body(&format!("request {i}: {e}")), vec![]),
        };
        if let Err(e) = model.validate(&score_request) {
            return (400, error_body(&format!("request {i}: {e}")), vec![]);
        }
        score_requests.push(score_request);
    }
    let mut receivers = Vec::with_capacity(score_requests.len());
    for score_request in score_requests {
        match queue.enqueue(score_request, *trace) {
            Ok(rx) => receivers.push(rx),
            // Earlier items of this batch stay queued; their results are
            // dropped by the batcher when it finds the receivers dead.
            Err(e) => return enqueue_failure(queue, e),
        }
    }
    // One deadline for the whole batch, not per item.
    let deadline = Instant::now() + Duration::from_millis(config.request_timeout_ms);
    let mut results = Vec::with_capacity(receivers.len());
    for receiver in receivers {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match receiver.recv_timeout(remaining) {
            Ok(Ok(probabilities)) => results.push(probabilities),
            Ok(Err(e)) => return (500, error_body(&e), vec![]),
            Err(RecvTimeoutError::Timeout) => {
                fd_obs::counter("serve.request_timeouts").inc();
                return (504, error_body("scoring deadline exceeded"), vec![]);
            }
            Err(RecvTimeoutError::Disconnected) => {
                return (500, error_body("batcher unavailable"), vec![])
            }
        }
    }
    let response = BatchResponse {
        mode: mode_name(model.mode()).into(),
        labels: owned_labels(model),
        results,
    };
    (200, serde_json::to_string(&response).unwrap_or_else(|_| "{}".into()), vec![])
}

/// `POST /v1/ingest`: attach new nodes, run incremental diffusion, and
/// publish the grown model through the slot's update lock. Predict
/// traffic is never blocked — readers keep cloning whichever `Arc` is
/// current, and requests already pinned to the old model finish on it.
fn ingest(
    slot: &ModelSlot,
    config: &ServeConfig,
    body: &[u8],
    trace: &TraceCtx,
) -> (u16, String) {
    let batch: IngestBatch = match parse_body(body) {
        Ok(batch) => batch,
        Err(e) => {
            fd_obs::counter("serve.ingest_rejected").inc();
            return (400, error_body(&e));
        }
    };
    let nodes = batch.len();
    if nodes == 0 {
        fd_obs::counter("serve.ingest_rejected").inc();
        return (
            400,
            error_body("ingest batch is empty: provide at least one creator, subject or article"),
        );
    }
    if nodes > config.max_ingest_nodes {
        fd_obs::counter("serve.ingest_rejected").inc();
        return (
            413,
            error_body(&format!(
                "ingest batch attaches {nodes} nodes, limit is {} (raise --max-ingest-nodes)",
                config.max_ingest_nodes
            )),
        );
    }
    // The closure re-reads the current model *inside* the update lock,
    // so concurrent ingests (and SIGHUP reloads) serialise instead of
    // losing each other's nodes.
    let outcome = slot.update(|current| {
        let (next, report) = current.ingest(&batch)?;
        Ok((Arc::new(next), report))
    });
    match outcome {
        Ok(report) => {
            fd_obs::counter("serve.ingests").inc();
            fd_obs::counter("serve.ingest_nodes").add(nodes as u64);
            fd_obs::histogram("serve.ingest_attach_us", &fd_obs::exponential_buckets(50.0, 4.0, 10))
                .record(report.attach_us as f64);
            fd_obs::histogram(
                "serve.ingest_diffuse_us",
                &fd_obs::exponential_buckets(50.0, 4.0, 12),
            )
            .record(report.diffuse_us as f64);
            fd_obs::histogram("serve.ingest_affected", &fd_obs::exponential_buckets(1.0, 2.0, 12))
                .record(report.affected_base_nodes as f64);
            if trace.sampled {
                // The two phases run back to back and end roughly now;
                // reconstruct their spans from the reported durations.
                let end_us = fd_obs::trace::now_us();
                let diffuse_start = end_us.saturating_sub(report.diffuse_us);
                let attach_start = diffuse_start.saturating_sub(report.attach_us);
                trace.child().record("ingest.attach", attach_start, report.attach_us);
                trace.child().record("ingest.diffuse", diffuse_start, report.diffuse_us);
            }
            fd_obs::event(
                fd_obs::Level::Info,
                "serve.ingest",
                &[
                    ("nodes", nodes.into()),
                    ("affected_base", report.affected_base_nodes.into()),
                    ("articles_total", report.articles_total.into()),
                ],
            );
            (200, serde_json::to_string(&report).unwrap_or_else(|_| "{}".into()))
        }
        Err(e) => {
            fd_obs::counter("serve.ingest_rejected").inc();
            (400, error_body(&e))
        }
    }
}

/// Installs `SIGINT`/`SIGTERM` handlers that set a process-wide flag,
/// readable via [`signal_received`], plus a `SIGHUP` handler that sets
/// a reload flag readable via [`take_reload_request`]. Uses the libc
/// `signal(2)` symbol directly so no crate dependency is needed; the
/// handlers only touch atomics, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn mark(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" fn mark_reload(_signum: i32) {
        RELOAD_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, mark as extern "C" fn(i32) as usize);
        signal(SIGTERM, mark as extern "C" fn(i32) as usize);
        signal(SIGHUP, mark_reload as extern "C" fn(i32) as usize);
    }
}

/// No-op off Unix; `fdctl serve` then only stops when killed.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

static SIGNALLED: AtomicBool = AtomicBool::new(false);
static RELOAD_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has arrived since
/// [`install_signal_handlers`].
pub fn signal_received() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Consumes a pending `SIGHUP` reload request: true exactly once per
/// signal. The `fdctl serve` supervision loop polls this and responds
/// by reloading the bundle from disk and calling
/// [`Server::swap_model`].
pub fn take_reload_request() -> bool {
    RELOAD_REQUESTED.swap(false, Ordering::SeqCst)
}
