//! The router process: accept loop, admission control, shard fan-out,
//! and the job endpoints.
//!
//! Request path: a handler thread parses the request, derives its
//! trace context (the inbound `X-Request-Id` is forwarded upstream, so
//! router, shard and batcher spans share one trace), takes an
//! admission slot (bounded in-flight work → 429 + `Retry-After` under
//! overload), picks the owning shard, and hands the body to the
//! [`Dispatcher`] — which owns failover, hedging, retry budget, and
//! breakers. Upstream replies are relayed verbatim; `predict_batch`
//! fan-out merges raw JSON slices so routed scores stay bitwise
//! identical to a single process's.

use crate::dispatch::{DispatchConfig, Dispatcher, Outcome};
use crate::jobs::JobStore;
use crate::topology::Topology;
use crate::wire;
use fd_serve::http::{bind_reuse, read_request, write_response_ext, HttpError, Request};
use fd_obs::TraceCtx;
use serde::Serialize;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle connection handlers poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Tunables for [`Router::start`]; defaults match the documented
/// `fdctl route` defaults (see OPERATIONS.md).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// The shard/replica layout.
    pub topology: Topology,
    /// Failure-handling tunables (timeouts, budget, breakers).
    pub dispatch: DispatchConfig,
    /// End-to-end deadline per routed request (504 past it).
    pub deadline_ms: u64,
    /// Concurrent routed requests beyond which new work gets 429 —
    /// the router's bounded queue.
    pub inflight_bound: usize,
    /// Largest accepted request body (413 past it).
    pub max_body_bytes: usize,
    /// Replica `/healthz` probe period.
    pub probe_interval_ms: u64,
    /// Bulk-job spool directory; `None` disables `/v1/jobs`.
    pub spool_dir: Option<PathBuf>,
    /// Requests per upstream chunk when scoring a bulk job.
    pub job_chunk: usize,
    /// Deadline per bulk-job chunk.
    pub job_chunk_deadline_ms: u64,
}

impl RouterConfig {
    /// Defaults for `topology`; `addr` port 0.
    pub fn new(topology: Topology) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            topology,
            dispatch: DispatchConfig::default(),
            deadline_ms: 5_000,
            inflight_bound: 256,
            max_body_bytes: 8 << 20,
            probe_interval_ms: 200,
            spool_dir: None,
            job_chunk: 64,
            job_chunk_deadline_ms: 60_000,
        }
    }
}

/// A running router; [`Router::shutdown`] stops it cleanly.
pub struct Router {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Shared state the handler threads close over.
struct Ctx {
    dispatcher: Dispatcher,
    jobs: Option<JobStore>,
    config: RouterConfig,
    inflight: AtomicUsize,
}

impl Router {
    /// Binds, recovers any spooled jobs, and starts the accept loop,
    /// the health prober, and (when a spool is configured) the job
    /// runner.
    pub fn start(config: RouterConfig) -> Result<Self, String> {
        let listener =
            bind_reuse(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let jobs = match &config.spool_dir {
            Some(dir) => Some(JobStore::open(dir)?),
            None => None,
        };
        let dispatcher = Dispatcher::new(config.topology.clone(), config.dispatch.clone());
        let ctx = Arc::new(Ctx { dispatcher, jobs, config, inflight: AtomicUsize::new(0) });
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let interval = Duration::from_millis(ctx.config.probe_interval_ms.max(10));
                crate::dispatch::probe_loop(&ctx.dispatcher, interval, &stop);
            }));
        }
        if ctx.jobs.is_some() {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let jobs = ctx.jobs.as_ref().expect("job store checked above");
                jobs.run_worker(
                    &ctx.dispatcher,
                    &stop,
                    ctx.config.job_chunk,
                    Duration::from_millis(ctx.config.job_chunk_deadline_ms),
                );
            }));
        }
        {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || accept_loop(listener, ctx, stop)));
        }
        fd_obs::event(
            fd_obs::Level::Info,
            "router.start",
            &[
                ("addr", fd_obs::Value::Str(addr.to_string())),
                ("shards", ctx.config.topology.shard_count().into()),
                ("replicas", ctx.config.topology.replica_count().into()),
            ],
        );
        Ok(Self { addr, stop, threads })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without joining (signal-handler friendly).
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    /// Stops accepting, wakes the loops, and joins every thread.
    /// In-flight requests complete (handlers poll the flag between
    /// requests, not during one).
    pub fn shutdown(mut self) {
        self.request_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        fd_obs::event(fd_obs::Level::Info, "router.stop", &[]);
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<Ctx>, stop: Arc<AtomicBool>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        fd_obs::counter("router.connections").inc();
        let ctx = Arc::clone(&ctx);
        let stop = Arc::clone(&stop);
        handlers.push(std::thread::spawn(move || handle_connection(stream, &ctx, &stop)));
        handlers.retain(|h| !h.is_finished());
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ErrorBody { error: message.to_string() })
        .unwrap_or_else(|_| "{}".into())
}

/// RAII admission slot; holds one unit of the router's bounded
/// in-flight budget.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    /// Takes a slot unless `bound` are already held.
    fn acquire(inflight: &'a AtomicUsize, bound: usize) -> Option<Self> {
        let mut current = inflight.load(Ordering::Relaxed);
        loop {
            if current >= bound {
                return None;
            }
            match inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Slot(inflight)),
                Err(actual) => current = actual,
            }
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &Ctx, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let latency_hist =
        fd_obs::histogram("router.request_us", &fd_obs::exponential_buckets(50.0, 4.0, 12));
    loop {
        let request = match read_request(&mut stream, ctx.config.max_body_bytes) {
            Ok(request) => request,
            Err(HttpError::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(HttpError::Closed | HttpError::Io(_)) => return,
            Err(e @ (HttpError::HeadTooLarge | HttpError::BodyTooLarge(_))) => {
                let _ = write_response_ext(
                    &mut stream,
                    413,
                    &error_body(&e.to_string()),
                    false,
                    "application/json",
                    &[],
                );
                return;
            }
            Err(e @ HttpError::Malformed(_)) => {
                let _ = write_response_ext(
                    &mut stream,
                    400,
                    &error_body(&e.to_string()),
                    false,
                    "application/json",
                    &[],
                );
                return;
            }
        };
        fd_obs::counter("router.requests").inc();
        let trace = match request.request_id.as_deref() {
            Some(id) => TraceCtx::from_request_id(id),
            None => TraceCtx::root(),
        };
        // The id forwarded upstream: the shard derives the *same* trace
        // id from it, so one request is one trace across processes.
        let forward_id = request.request_id.clone().unwrap_or_else(|| trace.trace_hex());
        let started = Instant::now();
        let route_start_us = fd_obs::trace::now_us();
        let (status, body, content_type, extra) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(ctx, &request, &forward_id)
            }))
            .unwrap_or_else(|_| {
                fd_obs::counter("router.handler_panics").inc();
                (500, error_body("internal error"), "application/json", vec![])
            });
        latency_hist.record(started.elapsed().as_secs_f64() * 1e6);
        match status {
            429 => fd_obs::counter("router.responses_429").inc(),
            504 => fd_obs::counter("router.responses_504").inc(),
            _ => {}
        }
        if status >= 500 {
            fd_obs::counter("router.responses_5xx").inc();
        } else if status >= 400 {
            fd_obs::counter("router.responses_4xx").inc();
        } else {
            fd_obs::counter("router.responses_2xx").inc();
        }
        if trace.sampled {
            let end_us = fd_obs::trace::now_us();
            trace.record("route", route_start_us, end_us.saturating_sub(route_start_us));
        }
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        let mut headers: Vec<(&str, &str)> = vec![("x-request-id", &forward_id)];
        headers.extend(extra.iter().map(|(k, v): &(String, String)| (k.as_str(), v.as_str())));
        let write_ok =
            write_response_ext(&mut stream, status, &body, keep_alive, content_type, &headers)
                .is_ok();
        if !write_ok || !keep_alive {
            return;
        }
    }
}

type Response = (u16, String, &'static str, Vec<(String, String)>);

fn json(status: u16, body: String) -> Response {
    (status, body, "application/json", vec![])
}

/// Maps a dispatch outcome to the client's response, attributing
/// shed/timeout responses to the shard they came from.
fn outcome_response(outcome: Outcome, shard: usize) -> Response {
    match outcome {
        Outcome::Replied { status, body, retry_after } => {
            if status == 429 {
                fd_obs::counter(&format!("router.shard_429.s{shard}")).inc();
            }
            if status == 504 {
                fd_obs::counter(&format!("router.shard_504.s{shard}")).inc();
            }
            let headers = match retry_after {
                Some(value) => vec![("retry-after".to_string(), value)],
                None => vec![],
            };
            (status, body, "application/json", headers)
        }
        Outcome::DeadlineExceeded => {
            fd_obs::counter(&format!("router.shard_504.s{shard}")).inc();
            json(504, error_body("routing deadline exceeded"))
        }
        Outcome::Unavailable { detail } => {
            fd_obs::counter("router.responses_502").inc();
            json(502, error_body(&format!("no replica available: {detail}")))
        }
    }
}

/// The router's own 429: the bounded in-flight queue is full.
/// `Retry-After` estimates one mean request duration — roughly when a
/// slot frees up.
fn shed_response() -> Response {
    fd_obs::counter("router.shed").inc();
    let hist = fd_obs::histogram("router.request_us", &fd_obs::exponential_buckets(50.0, 4.0, 12));
    let mean_us = if hist.count() > 0 { hist.sum() / hist.count() as f64 } else { 0.0 };
    let secs = ((mean_us / 1e6).ceil() as u64).clamp(1, 30);
    (
        429,
        error_body("router at capacity, retry later"),
        "application/json",
        vec![("retry-after".to_string(), secs.to_string())],
    )
}

fn route(ctx: &Ctx, request: &Request, forward_id: &str) -> Response {
    let path = request.path.split('?').next().unwrap_or(&request.path);
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => json(200, health_body(ctx)),
        ("GET", "/metrics") => {
            let query = request.path.split_once('?').map(|(_, q)| q);
            if query.is_some_and(|q| q.split('&').any(|p| p == "format=json")) {
                json(200, fd_obs::snapshot())
            } else {
                (200, fd_obs::prometheus_text(), fd_obs::PROMETHEUS_CONTENT_TYPE, vec![])
            }
        }
        ("POST", "/v1/predict") => {
            let Some(_slot) = Slot::acquire(&ctx.inflight, ctx.config.inflight_bound) else {
                return shed_response();
            };
            predict(ctx, &request.body, forward_id)
        }
        ("POST", "/v1/predict_batch") => {
            let Some(_slot) = Slot::acquire(&ctx.inflight, ctx.config.inflight_bound) else {
                return shed_response();
            };
            predict_batch(ctx, &request.body, forward_id)
        }
        ("POST", "/v1/jobs") => submit_job(ctx, &request.body),
        ("GET", "/v1/jobs") => match &ctx.jobs {
            Some(jobs) => {
                let list = jobs.list();
                json(
                    200,
                    format!(
                        "{{\"jobs\":{}}}",
                        serde_json::to_string(&list).unwrap_or_else(|_| "[]".into())
                    ),
                )
            }
            None => json(404, error_body("job queue disabled: start the router with --spool-dir")),
        },
        ("GET", jobs_path) if jobs_path.starts_with("/v1/jobs/") => {
            job_query(ctx, &jobs_path["/v1/jobs/".len()..])
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/predict" | "/v1/predict_batch" | "/v1/jobs",
        ) => json(405, error_body("method not allowed")),
        (_, other) => json(404, error_body(&format!("no such endpoint: {other}"))),
    }
}

fn predict(ctx: &Ctx, body: &[u8], forward_id: &str) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return json(400, error_body("body is not UTF-8"));
    };
    // Routing key: by-id requests must reach the owning shard (the
    // worker 421s a miss); inductive requests can go anywhere, keyed
    // for load spread and retry affinity.
    let shard = match wire::usize_value(text, "id") {
        Some(id) => ctx.dispatcher.topology().shard_of_id(id),
        None => ctx.dispatcher.topology().shard_of_inductive(
            wire::usize_value(text, "creator"),
            wire::raw_string_value(text, "text").unwrap_or(""),
        ),
    };
    let deadline = Instant::now() + Duration::from_millis(ctx.config.deadline_ms);
    let outcome = ctx.dispatcher.dispatch(shard, "/v1/predict", text, forward_id, deadline);
    outcome_response(outcome, shard)
}

fn predict_batch(ctx: &Ctx, body: &[u8], forward_id: &str) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return json(400, error_body("body is not UTF-8"));
    };
    let Some(elements) = wire::raw_value(text, "requests").and_then(wire::array_elements) else {
        return json(400, error_body("invalid request body: requests must be a JSON array"));
    };
    if elements.is_empty() {
        return json(400, error_body("requests array is empty"));
    }
    let shards = ctx.dispatcher.topology().shard_count();
    let deadline = Instant::now() + Duration::from_millis(ctx.config.deadline_ms);
    // Contiguous chunks, one per shard, preserving order — batch items
    // are inductive (the worker rejects by-id in batches), so any shard
    // can score any chunk and the split is purely for parallelism.
    let per_shard = elements.len().div_ceil(shards);
    let chunks: Vec<(usize, String)> = elements
        .chunks(per_shard)
        .enumerate()
        .map(|(shard, chunk)| (shard, format!("{{\"requests\":[{}]}}", chunk.join(","))))
        .collect();
    let replies: Vec<(usize, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|(shard, chunk_body)| {
                let shard = *shard;
                let forward_id = format!("{forward_id}-b{shard}");
                let dispatcher = &ctx.dispatcher;
                scope.spawn(move || {
                    (
                        shard,
                        dispatcher.dispatch(
                            shard,
                            "/v1/predict_batch",
                            chunk_body,
                            &forward_id,
                            deadline,
                        ),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch chunk thread")).collect()
    });
    // Merge: relay the first non-200 as the batch's answer; otherwise
    // splice the chunks' raw result slices back together in order.
    let mut replies = replies;
    if let Some(failed) = replies
        .iter()
        .position(|(_, outcome)| !matches!(outcome, Outcome::Replied { status: 200, .. }))
    {
        let (shard, outcome) = replies.swap_remove(failed);
        return outcome_response(outcome, shard);
    }
    let mut mode_and_labels: Option<(&str, &str)> = None;
    let mut merged: Vec<&str> = Vec::with_capacity(elements.len());
    for (shard, outcome) in &replies {
        let Outcome::Replied { body, .. } = outcome else {
            unreachable!("non-200 chunks were surfaced above");
        };
        let Some(results) = wire::raw_value(body, "results").and_then(wire::array_elements) else {
            return json(502, error_body(&format!("shard {shard}: malformed batch response")));
        };
        if mode_and_labels.is_none() {
            mode_and_labels = Some((
                wire::raw_value(body, "mode").unwrap_or("\"unknown\""),
                wire::raw_value(body, "labels").unwrap_or("[]"),
            ));
        }
        merged.extend(results);
    }
    if merged.len() != elements.len() {
        return json(
            502,
            error_body(&format!("{} results for {} requests", merged.len(), elements.len())),
        );
    }
    let (mode, labels) = mode_and_labels.unwrap_or(("\"unknown\"", "[]"));
    json(
        200,
        format!("{{\"mode\":{mode},\"labels\":{labels},\"results\":[{}]}}", merged.join(",")),
    )
}

fn submit_job(ctx: &Ctx, body: &[u8]) -> Response {
    let Some(jobs) = &ctx.jobs else {
        return json(404, error_body("job queue disabled: start the router with --spool-dir"));
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return json(400, error_body("body is not UTF-8"));
    };
    let Some(requests) = wire::raw_value(text, "requests") else {
        return json(400, error_body("invalid request body: missing requests array"));
    };
    match jobs.submit(requests) {
        Ok(status) => json(202, serde_json::to_string(&status).unwrap_or_else(|_| "{}".into())),
        Err(e) => json(400, error_body(&e)),
    }
}

fn job_query(ctx: &Ctx, rest: &str) -> Response {
    let Some(jobs) = &ctx.jobs else {
        return json(404, error_body("job queue disabled: start the router with --spool-dir"));
    };
    match rest.split_once('/') {
        None => match jobs.status(rest) {
            Some(status) => {
                json(200, serde_json::to_string(&status).unwrap_or_else(|_| "{}".into()))
            }
            None => json(404, error_body(&format!("no such job: {rest}"))),
        },
        Some((id, "results")) => match jobs.results(id) {
            Ok(record) => json(200, record),
            Err((status, message)) => json(status, error_body(&message)),
        },
        Some(_) => json(404, error_body("no such endpoint")),
    }
}

#[derive(Serialize)]
struct ReplicaHealth {
    shard: usize,
    replica: usize,
    addr: String,
    breaker: String,
    up: f64,
}

#[derive(Serialize)]
struct RouterHealth {
    status: String,
    role: String,
    shards: usize,
    replicas: Vec<ReplicaHealth>,
    retry_budget: f64,
    inflight: usize,
    jobs: usize,
}

fn health_body(ctx: &Ctx) -> String {
    let replicas = ctx
        .dispatcher
        .all_replicas()
        .map(|replica| ReplicaHealth {
            shard: replica.shard,
            replica: replica.index,
            addr: replica.client.addr().to_string(),
            breaker: replica.breaker.state_name().to_string(),
            up: fd_obs::gauge(&format!("router.replica_up.{}", replica.tag())).get(),
        })
        .collect();
    let health = RouterHealth {
        status: "ok".into(),
        role: "router".into(),
        shards: ctx.dispatcher.topology().shard_count(),
        replicas,
        retry_budget: ctx.dispatcher.budget.balance(),
        inflight: ctx.inflight.load(Ordering::Relaxed),
        jobs: ctx.jobs.as_ref().map(|jobs| jobs.list().len()).unwrap_or(0),
    };
    serde_json::to_string(&health).unwrap_or_else(|_| "{}".into())
}
