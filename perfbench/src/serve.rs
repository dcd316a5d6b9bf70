//! `serve-routed` and `serve-ingest`: the serving tier driven by
//! constant-rate reads, beside either a closed-loop bulk client or a
//! closed-loop ingest client.
//!
//! The serving weights are fitted by a child process (`perfbench
//! prepare`) at the start of every run, so the measured process's set-up
//! time and peak memory price serving alone. The phase runs on the first
//! tier started; set-up is repeated after the phase and its median
//! reported.

use crate::inputs::{self, batch_body, due, GraphSummary, NewArticle, Plan, Read};
use crate::probe::{self, Snapshot, SpanCollector, SpanTally};
use crate::stats::{self, Pick};
use crate::{Args, Outcome};
use fd_core::{FakeDetector, FakeDetectorConfig, TrainedFakeDetector};
use fd_data::{
    generate_at_scale, Corpus, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
use fd_graph::{GraphOverlay, NodeType};
use fd_router::{Router, RouterConfig, Topology};
use fd_serve::{
    mode_name, parse_mode, BundleSplit, HttpClient, IngestReport, ServeConfig, ServeModel, Server,
    TrainBundle,
};
use fd_tensor::Matrix;
use fd_text::{encode_sequence, Tokenizer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Online predicts per second, both serving workloads. A constant: it
/// is never scaled from a capacity probe.
pub const ONLINE_RATE: f64 = 100.0;
/// Bulk `predict_batch` requests per second of `--seconds` (serve-routed).
pub const BULK_PER_S: usize = 360;
/// Ingests per second of `--seconds` (serve-ingest): few enough that
/// the closed-loop sequence ends while the online stream still runs.
pub const INGESTS_PER_S: usize = 55;
/// Times set-up is repeated; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Epochs of the child's fit. Serving cost does not depend on how well
/// the weights fit, only on their shapes.
const FIT_EPOCHS: usize = 1;
/// Shards of the routed tier (one replica each).
const SHARDS: usize = 2;
/// Sequential request pairs in the traced run's latency probe.
const PROBE_ROUNDS: usize = 400;
/// The serving guarantee of incremental diffusion (DESIGN.md).
const DELTA_BOUND: f32 = 1e-5;
/// Per-request client timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Preparation: corpus, fitted bundle and graph summary, in a child.

/// Files the preparation step left for this run, in a directory of the
/// run's own that is removed when the run ends.
struct Prepared {
    dir: PathBuf,
    corpus: PathBuf,
    bundle: PathBuf,
    graph: GraphSummary,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `perfbench prepare --seed N --out DIR`: generates the seed's corpus,
/// fits the serving weights, and writes corpus, bundle and graph summary
/// into `DIR`.
pub fn prepare_main(args: &[String]) -> Result<(), String> {
    let (seed, dir): (u64, PathBuf) = match args {
        [s, seed, o, dir] if s == "--seed" && o == "--out" => (
            seed.parse().map_err(|e| format!("--seed: {e}"))?,
            dir.into(),
        ),
        _ => return Err("usage: perfbench prepare --seed <n> --out <dir>".into()),
    };
    let corpus = generate_at_scale(&GeneratorConfig::politifact(), 1.0, seed);
    let counts = [
        corpus.articles.len(),
        corpus.creators.len(),
        corpus.subjects.len(),
    ];
    let train = inputs::train_split(seed, counts);
    let tokenized = TokenizedCorpus::build(&corpus, inputs::SEQ_LEN, inputs::MAX_VOCAB);
    let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, inputs::EXPLICIT_DIM);
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode: LabelMode::Binary,
        seed,
    };
    let config = FakeDetectorConfig {
        epochs: FIT_EPOCHS,
        validation_fraction: 0.0,
        ..FakeDetectorConfig::default()
    };
    let trained = FakeDetector::new(config).fit(&ctx);
    let bundle = TrainBundle {
        model_json: trained.to_json(),
        train: BundleSplit::from(train.clone()),
        mode: mode_name(LabelMode::Binary).into(),
        explicit_dim: inputs::EXPLICIT_DIM,
        seq_len: inputs::SEQ_LEN,
        max_vocab: inputs::MAX_VOCAB,
    };
    let summary = GraphSummary::of(&corpus.graph);
    write(&dir.join("corpus.json"), &corpus.to_json())?;
    write(
        &dir.join("bundle.json"),
        &serde_json::to_string(&bundle).map_err(|e| e.to_string())?,
    )?;
    write(
        &dir.join("graph.json"),
        &serde_json::to_string(&summary).map_err(|e| e.to_string())?,
    )
}

/// Runs the preparation child for `seed` into a fresh directory of this
/// run's own, beside the benchmark's sources. Nothing carries over from
/// an earlier run, so the files always come from the code being measured.
fn prepare(seed: u64) -> Result<Prepared, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!(".run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut prepared = Prepared {
        corpus: dir.join("corpus.json"),
        bundle: dir.join("bundle.json"),
        dir,
        graph: GraphSummary::default(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("prepare")
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(&prepared.dir)
        .env_remove("FD_LOG_FILE")
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn the preparation step: {e}"))?;
    if !status.success() {
        return Err(format!("the preparation step failed: {status}"));
    }
    prepared.graph = serde_json::from_str(&read(&prepared.dir.join("graph.json"))?)
        .map_err(|e| e.to_string())?;
    Ok(prepared)
}

fn load(p: &Prepared) -> Result<(Arc<ServeModel>, f64), String> {
    let start = Instant::now();
    let model = ServeModel::load(&p.corpus.to_string_lossy(), &p.bundle.to_string_lossy())?;
    Ok((Arc::new(model), start.elapsed().as_secs_f64() * 1e3))
}

// ---------------------------------------------------------------------------
// The tier.

/// A running serving tier: workers, their models, and (routed) the router.
struct Tier {
    models: Vec<Arc<ServeModel>>,
    servers: Vec<Server>,
    router: Option<Router>,
    /// Where clients send requests: the router, or the lone server.
    front: String,
    setup_s: f64,
    load_ms: Vec<f64>,
    /// The router's replica health-probe period, in seconds.
    probe_every_s: f64,
}

impl Tier {
    /// Loads each worker's model, starts the servers (and router), and
    /// returns once `first` has been answered with a 200.
    fn start(p: &Prepared, shards: Option<usize>, first: &str) -> Result<Tier, String> {
        let start = Instant::now();
        let workers = shards.unwrap_or(1);
        let (mut models, mut servers, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
        for index in 0..workers {
            let (model, ms) = load(p)?;
            load_ms.push(ms);
            let config = ServeConfig {
                addr: "127.0.0.1:0".into(),
                shard: shards.map(|n| (index, n)),
                ..ServeConfig::default()
            };
            servers.push(Server::start(Arc::clone(&model), &config)?);
            models.push(model);
        }
        let (mut router, mut probe_every_s) = (None, 0.0);
        if shards.is_some() {
            let spec: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let config = RouterConfig::new(Topology::parse(&spec.join(";"))?);
            probe_every_s = config.probe_interval_ms as f64 / 1e3;
            router = Some(Router::start(config)?);
        }
        let front = match &router {
            Some(r) => r.local_addr().to_string(),
            None => servers[0].local_addr().to_string(),
        };
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        loop {
            let answered = HttpClient::connect(&front)
                .and_then(|mut c| c.post("/v1/predict", first))
                .is_ok_and(|(status, _)| status == 200);
            if answered {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("{front} never answered {first}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let setup_s = start.elapsed().as_secs_f64();
        Ok(Tier {
            models,
            servers,
            router,
            front,
            setup_s,
            load_ms,
            probe_every_s,
        })
    }

    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Shuts the measured tier down and starts and stops the tier
/// `SETUP_REPEATS - 1` more times, returning the median set-up time and
/// the median worker load time over all `SETUP_REPEATS` set-ups. The
/// repeats run after the phase, once peak memory has been read: a
/// repeated load can find the previous model's freed pages still
/// resident (in one run RSS rose from 131 to 177 MiB across set-ups),
/// which `peak_rss_mb` would otherwise count.
fn repeat_setups(
    tier: Tier,
    p: &Prepared,
    shards: Option<usize>,
    first: &str,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let (mut setups, mut loads) = (vec![tier.setup_s], tier.load_ms.clone());
    tier.shutdown();
    for _ in 1..SETUP_REPEATS {
        let again = Tier::start(p, shards, first)?;
        setups.push(again.setup_s);
        loads.extend(again.load_ms.iter().copied());
        again.shutdown();
    }
    out.note("setup_s_each", setups.clone());
    out.note("load_ms_each", loads.clone());
    Ok((stats::median(&setups), stats::median(&loads)))
}

// ---------------------------------------------------------------------------
// Load generation.

fn connect(addr: &str) -> std::io::Result<HttpClient> {
    let mut client = HttpClient::connect(addr)?;
    client.set_timeout(CLIENT_TIMEOUT)?;
    Ok(client)
}

/// One stream's outcome. Latencies of failed operations are
/// `f64::INFINITY`, so they count as misses at every percentile.
#[derive(Default)]
struct Stream {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    failed: u64,
    /// Answers that differ from the first answer to the same body.
    drifted: u64,
    /// First 200 answer per distinct body.
    first: Vec<Option<String>>,
    wall_s: f64,
}

impl Stream {
    fn new(distinct: usize) -> Self {
        Self {
            first: vec![None; distinct],
            ..Self::default()
        }
    }

    fn record(&mut self, key: usize, result: std::io::Result<(u16, String)>, ms: f64) -> bool {
        match result {
            Ok((200, body)) => {
                self.latency_ms.push(ms);
                match &self.first[key] {
                    Some(first) if *first != body => self.drifted += 1,
                    Some(_) => {}
                    None => self.first[key] = Some(body),
                }
                true
            }
            _ => {
                self.latency_ms.push(f64::INFINITY);
                self.failed += 1;
                false
            }
        }
    }
}

/// The open-loop online stream over one connection: request `i` is due
/// at `start + i / ONLINE_RATE` and timed from that instant, so a stall
/// shows as latency on the requests behind it.
fn online(front: &str, bodies: &[String], order: &[usize], start: Instant) -> Stream {
    let mut stream = Stream::new(bodies.len());
    let mut client = connect(front).ok();
    for (i, &key) in order.iter().enumerate() {
        let due_at = start + due(i, ONLINE_RATE);
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        stream
            .lateness_ms
            .push(due_at.elapsed().as_secs_f64() * 1e3);
        let result = match client.as_mut() {
            Some(c) => c.post("/v1/predict", &bodies[key]),
            None => Err(std::io::Error::other("not connected")),
        };
        let ms = due_at.elapsed().as_secs_f64() * 1e3;
        if !stream.record(key, result, ms) {
            client = connect(front).ok();
        }
    }
    stream.wall_s = start.elapsed().as_secs_f64();
    stream
}

/// A closed-loop client sending `count` requests to `path`, cycling
/// through `bodies`.
fn closed_loop(front: &str, path: &str, bodies: &[String], count: usize) -> Stream {
    let mut stream = Stream::new(bodies.len());
    let mut client = connect(front).ok();
    let start = Instant::now();
    for i in 0..count {
        let key = i % bodies.len();
        let sent = Instant::now();
        let result = match client.as_mut() {
            Some(c) => c.post(path, &bodies[key]),
            None => Err(std::io::Error::other("not connected")),
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        if !stream.record(key, result, ms) {
            client = connect(front).ok();
        }
    }
    stream.wall_s = start.elapsed().as_secs_f64();
    stream
}

/// Posts each body once, sequentially, returning the answers (`None`
/// for a non-200).
fn answers(addr: &str, path: &str, bodies: &[String]) -> Result<Vec<Option<String>>, String> {
    let mut client = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    Ok(bodies
        .iter()
        .map(|b| match client.post(path, b) {
            Ok((200, body)) => Some(body),
            _ => None,
        })
        .collect())
}

/// Counts distinct bodies whose first answer differs from `reference`.
fn mismatches(first: &[Option<String>], reference: &[Option<String>]) -> u64 {
    first
        .iter()
        .zip(reference)
        .filter(|(seen, want)| seen.is_some() && (want.is_none() || *seen != *want))
        .count() as u64
}

fn record_timing(out: &mut Outcome, name: &str, pick: Pick) {
    out.metric(name, pick.value);
    out.note(&format!("{name}_samples"), pick.samples);
    out.note(&format!("{name}_percentile"), pick.percentile);
}

// ---------------------------------------------------------------------------
// The traced run's latency probe.

/// Sequential reads with nothing else in flight. Each round sends the
/// same body through the front door and then straight to the owning
/// worker; span collection alternates off and on between rounds.
struct ProbeResult {
    hop_us: f64,
    wait_us: f64,
    score_us: f64,
    http_us: f64,
    overhead_pct: f64,
}

fn latency_probe(tier: &Tier, reads: &[Read], out: &mut Outcome) -> Result<ProbeResult, String> {
    let workers: Vec<String> = tier
        .servers
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    let mut front = connect(&tier.front).map_err(|e| e.to_string())?;
    let mut direct: Vec<HttpClient> = workers
        .iter()
        .map(|w| connect(w))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (mut hop_us, mut direct_us) = (Vec::new(), Vec::new());
    let (mut front_off, mut front_on) = (Vec::new(), Vec::new());
    let before = Snapshot::take();
    let mut failed = 0;
    for round in 0..PROBE_ROUNDS {
        // Inductive reads only: they pass every layer (batcher included).
        let Read::Inductive(article) = &reads[1 + (round % (reads.len() - 1))] else {
            continue;
        };
        let body = Read::Inductive(article.clone()).body();
        let traced = round % 2 == 1;
        fd_obs::trace::set_enabled(traced);
        let owner = article.creator % workers.len();
        let t = Instant::now();
        let a = front.post("/v1/predict", &body);
        let via_front = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let b = direct[owner].post("/v1/predict", &body);
        let via_direct = t.elapsed().as_secs_f64() * 1e6;
        if !matches!((&a, &b), (Ok((200, x)), Ok((200, y))) if x == y) {
            failed += 1;
            continue;
        }
        if traced {
            front_on.push(via_front);
            hop_us.push(via_front - via_direct);
            direct_us.push(via_direct);
        } else {
            front_off.push(via_front);
        }
    }
    fd_obs::trace::set_enabled(false);
    let moved = Snapshot::take().since(&before);
    out.check(failed == 0, || {
        format!("{failed} latency-probe rounds failed or disagreed")
    });
    out.note("probe_rounds", PROBE_ROUNDS);
    if hop_us.is_empty() || front_off.is_empty() {
        return Err("the latency probe completed no rounds".into());
    }
    let wait = moved.hist("serve.queue_wait_us").mean();
    let score = moved.hist("serve.batch_score_us").mean();
    let direct_p50 = stats::median(&direct_us);
    out.note("probe_direct_us_p50", direct_p50);
    out.note("probe_queue_wait_us_mean", wait);
    out.note("probe_batch_score_us_mean", score);
    Ok(ProbeResult {
        hop_us: if tier.router.is_some() {
            stats::median(&hop_us)
        } else {
            0.0
        },
        wait_us: wait,
        score_us: score,
        http_us: stats::residual(direct_p50, &[wait, score]),
        overhead_pct: (stats::median(&front_on) / stats::median(&front_off) - 1.0) * 100.0,
    })
}

/// Times the featurisation `ServeModel::load` performs, by making the
/// same two calls on the prepared corpus.
fn featurise_ms(p: &Prepared) -> Result<f64, String> {
    let corpus = Corpus::from_json(&read(&p.corpus)?)?;
    let bundle: TrainBundle =
        serde_json::from_str(&read(&p.bundle)?).map_err(|e| format!("bundle: {e}"))?;
    let train: TrainSets = bundle.train.into();
    let start = Instant::now();
    let tokenized = TokenizedCorpus::build(&corpus, bundle.seq_len, bundle.max_vocab);
    std::hint::black_box(ExplicitFeatures::extract(
        &corpus,
        &tokenized,
        &train,
        bundle.explicit_dim,
    ));
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// What the measured phase moved, for the traced run's figures.
struct Phase {
    moved: Snapshot,
    minor_faults: u64,
    tally: SpanTally,
}

/// Per-layer figures both serving workloads report: the phase's
/// counters per unit of work, and the online read's breakdown into the
/// latency probe's parts. `read_ms` is the phase's online median, so the
/// read residual is what the sequential probe cannot see: contention with
/// the concurrent stream, and send lateness.
fn serve_layers(
    out: &mut Outcome,
    phase: &Phase,
    work_units: usize,
    read_ms: f64,
    probe: &ProbeResult,
) {
    let (moved, tally) = (&phase.moved, &phase.tally);
    out.check(tally.complete(), || {
        format!(
            "span ring dropped spans: saw {} of {}",
            tally.collected, tally.recorded
        )
    });
    out.note("spans_collected", tally.collected);
    let per_work = |v: u64| v as f64 / work_units as f64;
    let (parallel, serial) = (
        moved.counter("tensor.par.dispatch_parallel"),
        moved.counter("tensor.par.dispatch_serial"),
    );
    out.metric(
        "tensor.matmul_calls_per_work",
        per_work(moved.counter("tensor.matmul.calls")),
    );
    out.metric(
        "tensor.parallel_share",
        parallel as f64 / (parallel + serial).max(1) as f64,
    );
    out.metric("proc.minflt_per_work", per_work(phase.minor_faults));
    out.metric(
        "serve.batch_size_mean",
        moved.hist("serve.batch_size").mean(),
    );
    let read_us = read_ms * 1e3;
    let read = [
        ("core.read_pct", probe.score_us / read_us * 100.0),
        ("serve.queue_read_pct", probe.wait_us / read_us * 100.0),
        ("serve.http_read_pct", probe.http_us / read_us * 100.0),
        ("router.hop_read_pct", probe.hop_us / read_us * 100.0),
    ];
    for (name, value) in read {
        out.metric(name, value);
    }
    out.metric(
        "bench.read_residual_pct",
        stats::residual(100.0, &read.map(|(_, v)| v)),
    );
    out.metric("bench.trace_overhead_pct", probe.overhead_pct);
    out.note("read_ms", read_ms);
    out.note("probe_hop_us_p50", probe.hop_us);
    out.note("probe_http_us_p50", probe.http_us);
}

/// Records the work breakdown: each layer's share of `work_ms`, and the
/// residual the shares leave.
fn work_layers(out: &mut Outcome, work_ms: f64, parts_ms: &[(&str, f64)]) {
    let shares: Vec<f64> = parts_ms
        .iter()
        .map(|(_, ms)| ms / work_ms * 100.0)
        .collect();
    for ((name, _), share) in parts_ms.iter().zip(&shares) {
        out.metric(name, *share);
    }
    out.metric("bench.work_residual_pct", stats::residual(100.0, &shares));
    out.note("work_ms", work_ms);
}

// ---------------------------------------------------------------------------
// serve-routed.

pub fn routed(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prepared = prepare(args.seed)?;
    let online_n = (ONLINE_RATE * args.seconds as f64) as usize;
    let bulk_n = BULK_PER_S * args.seconds as usize;
    let plan = Plan::new(args.seed, &prepared.graph, online_n, 0);
    let bodies: Vec<String> = plan.reads.iter().map(Read::body).collect();
    let bulk_bodies: Vec<String> = plan.bulk.iter().map(|b| batch_body(b)).collect();

    let tier = Tier::start(&prepared, Some(SHARDS), &bodies[1])?;
    let spans = args.trace.then(SpanCollector::start);
    let jiffies = probe::cpu_jiffies();
    let faults = probe::minor_faults();
    let before = Snapshot::take();
    let phase = Instant::now();
    let start = Instant::now() + Duration::from_millis(10);
    let (online, bulk) = std::thread::scope(|s| {
        let online = s.spawn(|| online(&tier.front, &bodies, &plan.online, start));
        let bulk = s.spawn(|| {
            if let Some(wait) = start.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            closed_loop(&tier.front, "/v1/predict_batch", &bulk_bodies, bulk_n)
        });
        (
            online.join().expect("online stream"),
            bulk.join().expect("bulk stream"),
        )
    });
    let phase_s = phase.elapsed().as_secs_f64();
    let moved = Snapshot::take().since(&before);
    let minor_faults = probe::minor_faults() - faults;
    out.note(
        "host_steal_pct",
        probe::steal_pct(jiffies, probe::cpu_jiffies()),
    );
    let tally = spans.map(SpanCollector::finish);
    let peak = probe::peak_rss_mib();

    // Checks: every 200 equals the unsharded reference (a control server
    // over worker 0's model), and the counters moved by what was sent.
    let control = Server::start(
        Arc::clone(&tier.models[0]),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )?;
    let control_addr = control.local_addr().to_string();
    let reference = answers(&control_addr, "/v1/predict", &bodies)?;
    let bulk_reference = answers(&control_addr, "/v1/predict_batch", &bulk_bodies)?;
    control.shutdown();
    let wrong = online.drifted
        + bulk.drifted
        + mismatches(&online.first, &reference)
        + mismatches(&bulk.first, &bulk_reference);
    out.attempted = (online_n + bulk_n) as u64;
    out.failed = online.failed + bulk.failed + wrong;
    let issued = (online_n + bulk_n) as u64;
    let upstream = (online_n + SHARDS * bulk_n) as u64
        + moved.counter("router.retries")
        + moved.counter("router.hedges");
    let attempts = moved.counter_prefix_sum("router.attempts.");
    // The shards also answer the router's /healthz probes (one per
    // worker per probe interval), which the benchmark does not send.
    let probes = moved.counter("serve.requests").saturating_sub(attempts);
    let probe_bound = (SHARDS as f64 * (phase_s / tier.probe_every_s + 2.0)) as u64;
    out.check(moved.counter("router.requests") == issued, || {
        format!(
            "router.requests moved by {}, {issued} were sent",
            moved.counter("router.requests")
        )
    });
    out.check(attempts == upstream, || {
        format!("router attempts moved by {attempts}, {upstream} upstream calls were due")
    });
    out.check(
        moved.counter("serve.requests") >= attempts && probes <= probe_bound,
        || {
            format!(
                "serve.requests moved by {} for {attempts} routed attempts",
                moved.counter("serve.requests")
            )
        },
    );
    out.note("online_requests", online_n);
    out.note("bulk_requests", bulk_n);
    out.note("bulk_wall_s", bulk.wall_s);
    out.note("online_wall_s", online.wall_s);
    out.note(
        "lateness_ms_p99",
        stats::tail(&online.lateness_ms, 99.0).value,
    );
    out.note("health_probes_seen", probes);

    let work = stats::tail(&bulk.latency_ms, 50.0);
    let read = stats::tail(&online.latency_ms, 50.0);
    if !args.trace {
        let (setup_s, _) = repeat_setups(tier, &prepared, Some(SHARDS), &bodies[1], &mut out)?;
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", peak);
        record_timing(&mut out, "work_ms", work);
        record_timing(&mut out, "read_ms", read);
        let predict_p99 = stats::tail(&online.latency_ms, 99.0);
        out.note("read_p99_ms", predict_p99.value);
        out.note("read_p99_ms_percentile", predict_p99.percentile);
        let items =
            (bulk.latency_ms.iter().filter(|l| l.is_finite()).count() * inputs::BULK_ITEMS) as f64;
        out.note("bulk_items_per_s", items / bulk.wall_s);
        return Ok(out);
    }

    let phase = Phase {
        moved,
        minor_faults,
        tally: tally.expect("traced run collects spans"),
    };
    let requests = phase.moved.counter("router.requests").max(1);
    out.metric(
        "router.attempts_per_request",
        (requests + phase.moved.counter("router.retries") + phase.moved.counter("router.hedges"))
            as f64
            / requests as f64,
    );
    // A bulk request's items go to the shards in parallel chunks of
    // `BULK_ITEMS / SHARDS`; fd-core's part of it is one chunk's scoring
    // at the phase's mean cost per item, and fd-serve's the median
    // batch-queue wait (bulk chunks are most of the batches).
    let sizes = phase.moved.hist("serve.batch_size");
    let score_us_per_item = phase.moved.hist("serve.batch_score_us").sum / sizes.sum.max(1.0);
    let chunk = (inputs::BULK_ITEMS / SHARDS) as f64;
    work_layers(
        &mut out,
        work.value,
        &[
            ("core.work_pct", score_us_per_item * chunk / 1e3),
            (
                "serve.work_pct",
                phase.moved.hist("serve.queue_wait_us").percentile(0.5) / 1e3,
            ),
        ],
    );
    out.note("score_us_per_item", score_us_per_item);
    // In-process scoring of the bulk bodies: the fd-core cost of a bulk
    // item with no batching, HTTP or routing around it.
    let mut per_item = Vec::new();
    for batch in &plan.bulk {
        let requests: Vec<_> = batch.iter().map(NewArticle::score_request).collect();
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(tier.models[0].score(&requests)?);
            per_item.push(t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64);
        }
    }
    out.note("in_process_score_us_per_item", stats::median(&per_item));
    let probe = latency_probe(&tier, &plan.reads, &mut out)?;
    serve_layers(&mut out, &phase, bulk_n, read.value, &probe);
    out.metric("data.featurise_ms", featurise_ms(&prepared)?);
    let (_, load_ms) = repeat_setups(tier, &prepared, Some(SHARDS), &bodies[1], &mut out)?;
    out.metric("core.setup_ms", load_ms);
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve-ingest.

/// Replays the ingest sequence into the honest O(corpus) recompute over
/// the extended graph and returns the largest probability difference
/// from what the server reported for each ingested article.
fn recompute_delta(
    p: &Prepared,
    ingests: &[NewArticle],
    reports: &[IngestReport],
) -> Result<f32, String> {
    let corpus = Corpus::from_json(&read(&p.corpus)?)?;
    let bundle: TrainBundle =
        serde_json::from_str(&read(&p.bundle)?).map_err(|e| format!("bundle: {e}"))?;
    let trained = TrainedFakeDetector::from_json(&bundle.model_json)?;
    let train: TrainSets = bundle.train.into();
    let tokenized = TokenizedCorpus::build(&corpus, bundle.seq_len, bundle.max_vocab);
    let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, bundle.explicit_dim);
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode: parse_mode(&bundle.mode)?,
        seed: 0,
    };
    let mut overlay = GraphOverlay::new(&corpus.graph);
    let mut rows = Matrix::zeros(ingests.len(), explicit.dim);
    let mut sequences = Vec::with_capacity(ingests.len());
    for (k, article) in ingests.iter().enumerate() {
        overlay.add_article(article.creator, &article.subjects)?;
        let tokens = Tokenizer::default().tokenize(&article.text);
        rows.row_mut(k)
            .copy_from_slice(explicit.featurise_tokens(NodeType::Article, &tokens).row(0));
        sequences.push(encode_sequence(
            &tokens,
            &tokenized.vocab,
            tokenized.seq_len,
        ));
    }
    let new_explicit = [
        rows,
        Matrix::zeros(0, explicit.dim),
        Matrix::zeros(0, explicit.dim),
    ];
    let history = trained.extended_states_rounds(
        &ctx,
        &overlay,
        &new_explicit,
        &[sequences, Vec::new(), Vec::new()],
    )?;
    let last = &history.last().ok_or("no diffusion rounds")?[0];
    let mut delta = 0.0f32;
    for report in reports {
        let node = &report.articles[0];
        let full = trained.node_probabilities(NodeType::Article, last.row(node.id));
        for (a, b) in node.probabilities.iter().zip(&full) {
            delta = delta.max((a - b).abs());
        }
    }
    Ok(delta)
}

pub fn ingest(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prepared = prepare(args.seed)?;
    let online_n = (ONLINE_RATE * args.seconds as f64) as usize;
    let ingest_n = INGESTS_PER_S * args.seconds as usize;
    let plan = Plan::new(args.seed, &prepared.graph, online_n, ingest_n);
    let bodies: Vec<String> = plan.reads.iter().map(Read::body).collect();
    let ingest_bodies: Vec<String> = plan
        .ingests
        .iter()
        .map(|a| serde_json::to_string(&a.ingest_batch()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let tier = Tier::start(&prepared, None, &bodies[1])?;
    let base = Arc::clone(&tier.models[0]);
    let reference = answers(&tier.front, "/v1/predict", &bodies)?;
    out.check(reference.iter().all(Option::is_some), || {
        "a reference read failed".into()
    });
    let rss_before = probe::rss_mib();
    let spans = args.trace.then(SpanCollector::start);
    let jiffies = probe::cpu_jiffies();
    let faults = probe::minor_faults();
    let before = Snapshot::take();
    let start = Instant::now() + Duration::from_millis(10);
    let (online, writes) = std::thread::scope(|s| {
        let online = s.spawn(|| online(&tier.front, &bodies, &plan.online, start));
        let writes = s.spawn(|| {
            if let Some(wait) = start.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // Every ingest body is distinct, so the stream's drift check
            // is vacuous here; the recompute below checks the answers.
            closed_loop(&tier.front, "/v1/ingest", &ingest_bodies, ingest_n)
        });
        (
            online.join().expect("online stream"),
            writes.join().expect("ingest stream"),
        )
    });
    let moved = Snapshot::take().since(&before);
    let minor_faults = probe::minor_faults() - faults;
    out.note(
        "host_steal_pct",
        probe::steal_pct(jiffies, probe::cpu_jiffies()),
    );
    let tally = spans.map(SpanCollector::finish);
    let rss_after = probe::rss_mib();
    let peak = probe::peak_rss_mib();

    let reports: Vec<IngestReport> = writes
        .first
        .iter()
        .flatten()
        .map(|body| serde_json::from_str(body).map_err(|e| format!("ingest report: {e}")))
        .collect::<Result<_, _>>()?;
    let base_articles = prepared.graph.articles;
    let in_order = reports
        .iter()
        .enumerate()
        .all(|(k, r)| r.articles.len() == 1 && r.articles[0].id == base_articles + k);
    out.check(reports.len() == ingest_n && in_order, || {
        format!("{} of {ingest_n} ingests came back in order", reports.len())
    });
    let delta = recompute_delta(&prepared, &plan.ingests[..reports.len()], &reports)?;
    out.check(delta <= DELTA_BOUND, || {
        format!("ingested articles differ from the full recompute by {delta} > {DELTA_BOUND}")
    });
    let wrong = online.drifted + mismatches(&online.first, &reference);
    out.attempted = (online_n + ingest_n) as u64;
    out.failed = online.failed + writes.failed + wrong;
    let issued = (online_n + ingest_n) as u64;
    out.check(moved.counter("serve.requests") == issued, || {
        format!(
            "serve.requests moved by {}, {issued} were sent",
            moved.counter("serve.requests")
        )
    });
    out.check(moved.counter("serve.ingests") == ingest_n as u64, || {
        format!(
            "serve.ingests moved by {}, {ingest_n} were sent",
            moved.counter("serve.ingests")
        )
    });
    out.note("online_requests", online_n);
    out.note("ingests", ingest_n);
    out.note("ingest_wall_s", writes.wall_s);
    out.note("online_wall_s", online.wall_s);
    out.note(
        "lateness_ms_p99",
        stats::tail(&online.lateness_ms, 99.0).value,
    );
    out.note("max_abs_delta_vs_recompute", delta);

    let work = stats::tail(&writes.latency_ms, 50.0);
    let read = stats::tail(&online.latency_ms, 50.0);
    if !args.trace {
        let (setup_s, _) = repeat_setups(tier, &prepared, None, &bodies[1], &mut out)?;
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", peak);
        record_timing(&mut out, "work_ms", work);
        record_timing(&mut out, "read_ms", read);
        let predict_p99 = stats::tail(&online.latency_ms, 99.0);
        out.note("read_p99_ms", predict_p99.value);
        out.note("read_p99_ms_percentile", predict_p99.percentile);
        out.note("work_p95_ms", stats::tail(&writes.latency_ms, 95.0).value);
        return Ok(out);
    }

    let phase = Phase {
        moved,
        minor_faults,
        tally: tally.expect("traced run collects spans"),
    };
    let us =
        |f: fn(&IngestReport) -> u64| -> Vec<f64> { reports.iter().map(|r| f(r) as f64).collect() };
    let (attach, diffuse) = (us(|r| r.attach_us), us(|r| r.diffuse_us));
    let other: Vec<f64> = writes
        .latency_ms
        .iter()
        .zip(attach.iter().zip(&diffuse))
        .map(|(ms, (a, d))| stats::residual(ms * 1e3, &[*a, *d]))
        .collect();
    // An ingest's parts: fd-serve's overlay clone plus fd-graph's
    // `GraphOverlay` attach, fd-core's incremental diffusion, and the
    // rest of the handler (JSON, HTTP, slot swap), each at its median.
    work_layers(
        &mut out,
        work.value,
        &[
            ("graph.work_pct", stats::median(&attach) / 1e3),
            ("core.work_pct", stats::median(&diffuse) / 1e3),
            ("serve.work_pct", stats::median(&other) / 1e3),
        ],
    );
    let tenth = (reports.len() / 10).max(1);
    let lat = &writes.latency_ms;
    out.metric(
        "core.ingest_late_over_early",
        stats::median(&lat[lat.len() - tenth..]) / stats::median(&lat[..tenth]),
    );
    out.metric(
        "core.affected_base_nodes_mean",
        stats::mean(&us(|r| r.affected_base_nodes as u64)),
    );
    out.metric("serve.overlay_growth_mb", rss_after - rss_before);
    // The same sequence through `ServeModel::ingest` in-process, chained
    // from the base model: fd-core and the overlay without HTTP.
    let mut model = base;
    let mut replay_us = Vec::with_capacity(plan.ingests.len());
    let mut replay_drift = 0;
    for (article, served) in plan.ingests.iter().zip(&reports) {
        let t = Instant::now();
        let (next, report) = model.ingest(&article.ingest_batch())?;
        replay_us.push(t.elapsed().as_secs_f64() * 1e6);
        let same = report.articles[0]
            .probabilities
            .iter()
            .map(|p| p.to_bits())
            .eq(served.articles[0].probabilities.iter().map(|p| p.to_bits()));
        replay_drift += u64::from(!same);
        model = Arc::new(next);
    }
    out.check(replay_drift == 0, || {
        format!("{replay_drift} replayed ingests differ from the server's")
    });
    out.note("in_process_ingest_us_p50", stats::median(&replay_us));
    out.note("attach_us_p50", stats::median(&attach));
    out.note("diffuse_us_p50", stats::median(&diffuse));
    out.note("other_us_p50", stats::median(&other));
    let probe = latency_probe(&tier, &plan.reads, &mut out)?;
    serve_layers(&mut out, &phase, ingest_n, read.value, &probe);
    out.metric("data.featurise_ms", featurise_ms(&prepared)?);
    let (_, load_ms) = repeat_setups(tier, &prepared, None, &bodies[1], &mut out)?;
    out.metric("core.setup_ms", load_ms);
    Ok(out)
}
