//! End-to-end tests against a live server on localhost: concurrent
//! clients must get bitwise-identical answers to sequential scoring,
//! hostile input must map to 4xx (never a crash), and graceful
//! shutdown must complete in-flight requests.

use fd_core::{FakeDetector, FakeDetectorConfig, ScoreRequest};
use fd_data::{
    generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
use fd_serve::{HttpClient, ServeConfig, ServeModel, Server};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const EXPLICIT_DIM: usize = 30;
const SEQ_LEN: usize = 8;
const MAX_VOCAB: usize = 2000;

/// One tiny training run shared by every test (training dominates the
/// suite's runtime; serving itself is cheap).
fn model() -> Arc<ServeModel> {
    static MODEL: OnceLock<Arc<ServeModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let seed = 7;
            let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let train = TrainSets {
                articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
                creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
                subjects: CvSplits::new(corpus.subjects.len(), 10, &mut rng).fold(0).0,
            };
            let tokenized = TokenizedCorpus::build(&corpus, SEQ_LEN, MAX_VOCAB);
            let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, EXPLICIT_DIM);
            let ctx = ExperimentContext {
                corpus: &corpus,
                tokenized: &tokenized,
                explicit: &explicit,
                train: &train,
                mode: LabelMode::Binary,
                seed,
            };
            let config = FakeDetectorConfig {
                epochs: 1,
                validation_fraction: 0.0,
                ..FakeDetectorConfig::default()
            };
            let trained = FakeDetector::new(config).fit(&ctx);
            Arc::new(ServeModel::new(
                corpus,
                trained,
                train,
                LabelMode::Binary,
                EXPLICIT_DIM,
                SEQ_LEN,
                MAX_VOCAB,
            ))
        })
        .clone()
}

fn start(config: &ServeConfig) -> (Server, String) {
    let server = Server::start(model(), config).expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn ephemeral() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() }
}

fn client(addr: &str) -> HttpClient {
    let mut client = HttpClient::connect(addr).expect("connect");
    client.set_timeout(Duration::from_secs(30)).expect("timeout");
    client
}

fn request_for(i: usize) -> ScoreRequest {
    let (_, creators, subjects) = model().corpus_sizes();
    let text = format!("claim {i} about the budget deficit and medicare");
    ScoreRequest::article(text, Some(i % creators), vec![i % subjects])
}

/// The `/v1/predict` body of [`request_for`]`(i)`.
fn body_for(i: usize) -> String {
    let req = request_for(i);
    format!(
        "{{\"text\":\"{}\",\"creator\":{},\"subjects\":[{}]}}",
        req.text,
        req.creator.expect("article requests name a creator"),
        req.subjects[0]
    )
}

#[test]
fn concurrent_clients_get_bitwise_identical_responses() {
    let (server, addr) = start(&ephemeral());
    let (clients, per_client) = (8, 6);
    let total = clients * per_client;
    let bodies: Vec<String> = (0..total).map(body_for).collect();

    // Sequential reference: every request scored alone.
    let mut sequential = client(&addr);
    let reference: Vec<String> = bodies
        .iter()
        .map(|b| {
            let (status, response) = sequential.post("/v1/predict", b).expect("post");
            assert_eq!(status, 200, "{response}");
            response
        })
        .collect();

    // The same requests, concurrently, co-batched by the server.
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let chunk: Vec<(usize, String)> = (c * per_client..(c + 1) * per_client)
                .map(|i| (i, bodies[i].clone()))
                .collect();
            std::thread::spawn(move || {
                let mut client = client(&addr);
                chunk
                    .into_iter()
                    .map(|(i, body)| (i, client.post("/v1/predict", &body).expect("post")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for worker in workers {
        for (i, (status, response)) in worker.join().expect("client thread") {
            assert_eq!(status, 200, "request {i}: {response}");
            assert_eq!(response, reference[i], "request {i}: batched response drifted");
        }
    }

    // predict_batch agrees with predict: same probabilities, grouped.
    let batch_body = format!(
        "{{\"requests\":[{}]}}",
        bodies[..3].join(",")
    );
    let (status, response) = client(&addr).post("/v1/predict_batch", &batch_body).expect("post");
    assert_eq!(status, 200, "{response}");
    for single in &reference[..3] {
        let probs = single
            .split("\"probabilities\":")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("probabilities in single response");
        assert!(
            response.contains(probs),
            "batch response missing probabilities {probs}: {response}"
        );
    }
    server.shutdown();
}

#[test]
fn hostile_input_gets_4xx_and_never_kills_the_server() {
    let config = ServeConfig { max_body_bytes: 2048, ..ephemeral() };
    let (server, addr) = start(&config);

    // Malformed JSON.
    let (status, response) = client(&addr).post("/v1/predict", "not json").expect("post");
    assert_eq!(status, 400, "{response}");
    // Valid JSON, missing required field.
    let (status, _) = client(&addr).post("/v1/predict", "{\"creator\":1}").expect("post");
    assert_eq!(status, 400);
    // Unknown node type.
    let (status, _) = client(&addr)
        .post("/v1/predict", "{\"node_type\":\"moderator\",\"text\":\"x\"}")
        .expect("post");
    assert_eq!(status, 400);
    // Neighbour index out of range.
    let (status, response) = client(&addr)
        .post("/v1/predict", "{\"text\":\"x\",\"creator\":999999}")
        .expect("post");
    assert_eq!(status, 400, "{response}");
    // Wrong neighbour kind for the node type.
    let (status, _) = client(&addr)
        .post("/v1/predict", "{\"text\":\"x\",\"articles\":[0]}")
        .expect("post");
    assert_eq!(status, 400);
    // Oversized body.
    let huge = format!("{{\"text\":\"{}\"}}", "y".repeat(4096));
    let (status, _) = client(&addr).post("/v1/predict", &huge).expect("post");
    assert_eq!(status, 413);
    // Not HTTP at all.
    let (status, _) = client(&addr).raw(b"SING TO ME MUSE\r\n\r\n").expect("raw");
    assert_eq!(status, 400);
    // Unknown path / wrong method.
    let (status, _) = client(&addr).get("/v2/oracle").expect("get");
    assert_eq!(status, 404);
    let (status, _) = client(&addr)
        .raw(b"DELETE /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
        .expect("raw");
    assert_eq!(status, 405);

    // After all of that the server still answers.
    let (status, response) = client(&addr).get("/healthz").expect("get");
    assert_eq!(status, 200);
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    let (status, response) = client(&addr).post("/v1/predict", &body_for(0)).expect("post");
    assert_eq!(status, 200, "{response}");
    server.shutdown();
}

#[test]
fn metrics_endpoint_reports_serve_counters() {
    let (server, addr) = start(&ephemeral());
    let (status, response) = client(&addr).post("/v1/predict", &body_for(1)).expect("post");
    assert_eq!(status, 200, "{response}");

    // Default exposition is Prometheus text, with the matching content
    // type, and it must pass fd-obs's own format validator.
    let (status, exposition, headers) = client(&addr).get_with_headers("/metrics").expect("get");
    assert_eq!(status, 200);
    let content_type = |headers: &[(String, String)]| {
        headers.iter().find(|(n, _)| n == "content-type").map(|(_, v)| v.clone())
    };
    assert_eq!(
        content_type(&headers).as_deref(),
        Some(fd_obs::PROMETHEUS_CONTENT_TYPE),
        "Prometheus exposition must carry the 0.0.4 content type"
    );
    for key in ["fd_serve_requests_total", "fd_serve_batch_size_bucket", "fd_serve_queue_depth"] {
        assert!(exposition.contains(key), "prometheus exposition missing {key}:\n{exposition}");
    }
    let samples = fd_obs::validate_prometheus(&exposition).expect("parseable exposition");
    assert!(samples > 0, "exposition carried no samples");

    // The JSON snapshot survives behind ?format=json with its keys and
    // content type intact.
    let (status, snapshot, headers) =
        client(&addr).get_with_headers("/metrics?format=json").expect("get");
    assert_eq!(status, 200);
    assert_eq!(content_type(&headers).as_deref(), Some("application/json"));
    for key in ["serve.requests", "serve.batch_size", "serve.request_us", "serve.queue_depth"] {
        assert!(snapshot.contains(key), "metrics snapshot missing {key}");
    }
    server.shutdown();
}

#[test]
fn request_id_is_echoed_on_responses() {
    let (server, addr) = start(&ephemeral());
    let (status, _, headers) = client(&addr)
        .post_with_headers("/v1/predict", &body_for(3), &[("x-request-id", "req-echo-42")])
        .expect("post");
    assert_eq!(status, 200);
    let echoed = headers.iter().find(|(n, _)| n == "x-request-id").map(|(_, v)| v.as_str());
    assert_eq!(echoed, Some("req-echo-42"), "inbound request id must be echoed");

    // Without an inbound id the server still answers with one — the
    // hex trace id — so every response is correlatable.
    let (status, _, headers) =
        client(&addr).post_with_headers("/v1/predict", &body_for(3), &[]).expect("post");
    assert_eq!(status, 200);
    let generated = headers.iter().find(|(n, _)| n == "x-request-id").map(|(_, v)| v.as_str());
    let generated = generated.expect("generated x-request-id");
    assert_eq!(generated.len(), 16, "generated id is the 16-hex-digit trace id: {generated}");
    assert!(generated.chars().all(|c| c.is_ascii_hexdigit()), "{generated}");
    server.shutdown();
}

#[test]
fn one_request_produces_one_linked_trace_across_the_batcher() {
    // Tracing state is process-global; enable it for this test and pick
    // the trace out of the shared ring by the trace id that the known
    // X-Request-Id deterministically hashes to. Other tests running in
    // parallel only add spans under different trace ids.
    fd_obs::trace::set_enabled(true);
    fd_obs::trace::set_sample(1);
    let request_id = "trace-e2e-7f3a";
    let expected_trace = fd_obs::TraceCtx::from_request_id(request_id).trace_id;

    // --max-batch 8: the request rides the micro-batching path, so its
    // queue wait and scoring happen on the batcher thread — the spans
    // must still land in the handler's trace.
    let config = ServeConfig { max_batch: 8, ..ephemeral() };
    let (server, addr) = start(&config);
    let batch_body = format!("{{\"requests\":[{},{}]}}", body_for(4), body_for(5));
    let (status, response, headers) = client(&addr)
        .post_with_headers("/v1/predict_batch", &batch_body, &[("x-request-id", request_id)])
        .expect("post");
    assert_eq!(status, 200, "{response}");
    assert_eq!(
        headers.iter().find(|(n, _)| n == "x-request-id").map(|(_, v)| v.as_str()),
        Some(request_id)
    );
    server.shutdown();
    fd_obs::trace::set_enabled(false);

    let spans: Vec<fd_obs::trace::Span> = fd_obs::trace::snapshot_spans()
        .into_iter()
        .filter(|s| s.trace_id == expected_trace)
        .collect();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    for required in
        ["request", "http.parse", "queue.wait", "batch.assemble", "batch.score", "respond"]
    {
        assert!(names.contains(&required), "trace missing {required} span, got {names:?}");
    }
    // One trace: a single root, and every other span is its direct
    // child — queue wait and scoring recorded by the batcher thread
    // link back to the span the handler thread opened.
    let root = spans.iter().find(|s| s.name == "request").expect("root span");
    assert_eq!(root.parent_id, 0, "request span must be the root");
    for span in spans.iter().filter(|s| s.name != "request") {
        assert_eq!(
            span.parent_id, root.span_id,
            "{} span must be parented to the request root",
            span.name
        );
    }
    // The Chrome export keeps them one loadable trace.
    let json = fd_obs::trace::chrome_json(&spans);
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains(&format!("{expected_trace:016x}")), "{json}");
}

#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    // A long co-batching window, so a lone request sits in the queue
    // until shutdown flushes it — well before the window expires.
    let config = ServeConfig { max_delay_ms: 5000, ..ephemeral() };
    let (server, addr) = start(&config);

    let reference = {
        // Scored via a throwaway server with a normal window, to know
        // the expected answer independently of the drain path.
        let (fast, fast_addr) = start(&ephemeral());
        let (status, response) = client(&fast_addr).post("/v1/predict", &body_for(2)).expect("post");
        assert_eq!(status, 200, "{response}");
        fast.shutdown();
        response
    };

    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = client(&addr);
            let sent = Instant::now();
            let result = client.post("/v1/predict", &body_for(2)).expect("post");
            (result, sent.elapsed())
        })
    };
    // Let the request reach the queue, then shut down underneath it.
    std::thread::sleep(Duration::from_millis(300));
    server.shutdown();
    let ((status, response), waited) = in_flight.join().expect("in-flight client");
    assert_eq!(status, 200, "in-flight request must be answered, got: {response}");
    assert_eq!(response, reference, "drained response drifted");
    assert!(
        waited < Duration::from_millis(4500),
        "shutdown must flush the queue, not wait out the {}ms window (took {waited:?})",
        5000
    );
}

/// Pulls the `"probabilities":[…]` array out of a predict response.
fn parse_probabilities(response: &str) -> Vec<f32> {
    response
        .split("\"probabilities\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("probabilities in response")
        .split(',')
        .map(|v| v.trim().parse::<f32>().expect("float"))
        .collect()
}

#[test]
fn predict_wire_probabilities_are_bitwise_in_process_scores() {
    // The JSON float formatting must round-trip: each probability parsed
    // back from `/v1/predict` has exactly the bits `ServeModel::score`
    // returns in-process for the same request.
    let (server, addr) = start(&ephemeral());
    let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for i in 0..8 {
        let (status, response) = client(&addr).post("/v1/predict", &body_for(i)).expect("post");
        assert_eq!(status, 200, "{response}");
        let direct = model().score(&[request_for(i)]).expect("score").remove(0);
        assert_eq!(bits(&parse_probabilities(&response)), bits(&direct), "request {i}: {response}");
    }
    server.shutdown();
}
