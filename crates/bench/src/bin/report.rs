//! Report generation over the experiment outputs.
//!
//! Two modes:
//!
//! * `cargo run --release -p fd-bench --bin report [-- results_dir]`
//!   renders the `results/*.json` sweep outputs as the markdown tables
//!   EXPERIMENTS.md embeds.
//! * `cargo run --release -p fd-bench --bin report -- tensor [out.json]`
//!   times the tensor kernels — seed-era naive kernels vs the blocked
//!   serial kernels vs the row-parallel path — and a full model
//!   inference step across `FD_THREADS`, and writes the numbers to
//!   `BENCH_tensor.json`.
//! * `cargo run --release -p fd-bench --bin report -- train [out.json] [scale] [sweep_scales]`
//!   times full training epochs at Table-1 scale (default `scale` 1.0)
//!   across `FD_THREADS` {1,2,4,8} — then runs one neighbour-sampled epoch at
//!   each comma-separated corpus scale in `sweep_scales` (default
//!   `0.1,1,8`; pass `""` to skip), recording articles, epoch
//!   wall-clock and per-run peak RSS, and writes `BENCH_train.json`.
//! * `cargo run --release -p fd-bench --bin report -- serve [out.json] [clients] [per_client]`
//!   trains a small model, starts the fd-serve HTTP server in-process,
//!   drives it with concurrent keep-alive clients (default 32 × 12
//!   requests), verifies every response is bitwise-identical to the
//!   sequential reference pass, and writes throughput, latency
//!   percentiles and the observed batch-size histogram to
//!   `BENCH_serve.json`.
//! * `cargo run --release -p fd-bench --bin report -- load [out.json] [total] [slo_ms]`
//!   the open-loop load benchmark of the sharded serving tier: an
//!   in-process router in front of 2 shards × 2 replicas, driven at
//!   fixed arrival rates (latency measured from each request's
//!   *scheduled* arrival, so queueing delay is never hidden). A short
//!   closed-loop probe finds the tier's capacity; the harness then
//!   runs ≥100k requests at a rated load (60% of capacity, gated on
//!   p99 ≤ `slo_ms`) and a 2× overload phase, asserting the router
//!   sheds with `429 + Retry-After` while successful-request latency
//!   stays bounded — 429s must rise before latency collapses. Every
//!   200 is verified bitwise against a single-process unsharded
//!   control server. Writes `BENCH_load.json`.
//! * `cargo run --release -p fd-bench --bin report -- ingest [out.json] [scales]`
//!   the early-detection benchmark of `POST /v1/ingest`: at each
//!   comma-separated corpus scale (default `1,8`) it trains a model,
//!   starts the server in-process, ingests single articles at subject
//!   degrees 0–5 under continuous predict load, checks every ingested
//!   node against a full extended-graph recompute (documented bound
//!   1e-5), and writes per-degree latency percentiles, the delta
//!   curve, and the cross-scale latency ratio to `BENCH_ingest.json`.
//!   The ratio gate (< 4× between the largest and smallest scale) is
//!   the corpus-size-independence claim, enforced at run time.

use fd_metrics::{MetricKind, SweepResults};
use fd_obs::{event, Level};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next() {
        Some(mode) if mode == "tensor" => {
            let out = args.next().unwrap_or_else(|| "BENCH_tensor.json".into());
            tensor::write_report(&out);
        }
        Some(mode) if mode == "train" => {
            let out = args.next().unwrap_or_else(|| "BENCH_train.json".into());
            let scale: f64 = args
                .next()
                .map(|s| s.parse().unwrap_or_else(|e| panic!("bad scale `{s}`: {e}")))
                .unwrap_or(1.0);
            // Comma-separated corpus scales for the sampled-training
            // sweep (empty string disables it). Scales > 1 tile whole
            // Table-1 shards: 8 ≈ 112k articles.
            let sweep: Vec<f64> = args
                .next()
                .map(|s| {
                    s.split(',')
                        .filter(|t| !t.trim().is_empty())
                        .map(|t| {
                            t.trim()
                                .parse()
                                .unwrap_or_else(|e| panic!("bad sweep scale `{t}`: {e}"))
                        })
                        .collect()
                })
                .unwrap_or_else(|| vec![0.1, 1.0, 8.0]);
            train::write_report(&out, scale, &sweep);
        }
        // Internal: one scale-sweep point, run by `train` in a child
        // process so each point's VmHWM reading is its own.
        Some(mode) if mode == "train-scale-point" => {
            let scale: f64 = args
                .next()
                .expect("train-scale-point needs a scale")
                .parse()
                .unwrap_or_else(|e| panic!("bad scale: {e}"));
            let point = train::sampled_scale_run(scale);
            println!("{}", serde_json::to_string(&point).expect("serialise scale point"));
        }
        Some(mode) if mode == "ingest" => {
            let out = args.next().unwrap_or_else(|| "BENCH_ingest.json".into());
            // Comma-separated corpus scales; the latency-ratio gate
            // compares the last against the first.
            let scales: Vec<f64> = args
                .next()
                .map(|s| {
                    s.split(',')
                        .filter(|t| !t.trim().is_empty())
                        .map(|t| {
                            t.trim()
                                .parse()
                                .unwrap_or_else(|e| panic!("bad ingest scale `{t}`: {e}"))
                        })
                        .collect()
                })
                .unwrap_or_else(|| vec![1.0, 8.0]);
            ingest::write_report(&out, &scales);
        }
        Some(mode) if mode == "load" => {
            let out = args.next().unwrap_or_else(|| "BENCH_load.json".into());
            let total: usize = args
                .next()
                .map(|s| s.parse().unwrap_or_else(|e| panic!("bad total `{s}`: {e}")))
                .unwrap_or(105_000);
            let slo_ms: f64 = args
                .next()
                .map(|s| s.parse().unwrap_or_else(|e| panic!("bad slo_ms `{s}`: {e}")))
                .unwrap_or(500.0);
            load::write_report(&out, total, slo_ms);
        }
        Some(mode) if mode == "serve" => {
            let out = args.next().unwrap_or_else(|| "BENCH_serve.json".into());
            let clients: usize = args
                .next()
                .map(|s| s.parse().unwrap_or_else(|e| panic!("bad clients `{s}`: {e}")))
                .unwrap_or(32);
            let per_client: usize = args
                .next()
                .map(|s| s.parse().unwrap_or_else(|e| panic!("bad per_client `{s}`: {e}")))
                .unwrap_or(12);
            serve::write_report(&out, clients, per_client);
        }
        dir => markdown_report(&dir.unwrap_or_else(|| "results".into())),
    }
}

/// The FD_THREADS widths every scaling sweep runs at. Index 0 must be
/// the serial width (it is the speedup baseline) and the list must
/// contain 4 (the legacy `*_4t` keys read it back out).
const SWEEP_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Renders a `[(threads, ms)]` sweep as the `thread_scaling` object:
/// per-width median milliseconds and speedup over the 1-thread run.
/// Widths the machine cannot actually run in parallel (requested >
/// `machine_threads`) are annotated `"oversubscribed": true` — their
/// "speedup" is scheduling noise, not a runtime regression, and
/// consumers must not gate on it.
fn scaling_curve(sweep: &[(usize, f64)]) -> serde_json::Value {
    let serial_ms = sweep[0].1;
    let machine = machine_threads();
    serde_json::Value::from_content(serde::Content::Map(
        sweep
            .iter()
            .map(|&(threads, ms)| {
                let point = if threads > machine {
                    serde_json::json!({
                        "ms": (ms * 100.0).round() / 100.0,
                        "speedup_vs_1t": (serial_ms / ms * 100.0).round() / 100.0,
                        "oversubscribed": true,
                    })
                } else {
                    serde_json::json!({
                        "ms": (ms * 100.0).round() / 100.0,
                        "speedup_vs_1t": (serial_ms / ms * 100.0).round() / 100.0,
                    })
                };
                (threads.to_string(), point.as_content().clone())
            })
            .collect(),
    ))
}

/// Peak resident set size in MiB, read from `/proc/self/status`
/// `VmHWM` (Linux only; `None` elsewhere). Pair with
/// [`reset_peak_rss`] to scope the high-water mark to one run.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some((kb / 1024.0 * 100.0).round() / 100.0)
}

/// Rewinds the kernel's RSS high-water mark (`echo 5 >
/// /proc/self/clear_refs`), so the next [`peak_rss_mb`] read reflects
/// only memory touched after this call. Best-effort: when the write is
/// not supported the cumulative process peak stays in place, which is
/// still a valid upper bound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `available_parallelism()` as actually observed by this run — the
/// hardware half of the provenance header every BENCH_*.json carries.
/// Without it (plus the resolved width and SIMD tier), a flat scaling
/// curve on a 1-core container is indistinguishable from a runtime
/// regression.
fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn markdown_report(dir: &str) {
    for experiment in ["fig4", "fig5", "ablation"] {
        for entity in ["articles", "creators", "subjects"] {
            let path = format!("{dir}/{experiment}_{entity}.json");
            let Ok(json) = std::fs::read_to_string(&path) else {
                event(
                    Level::Info,
                    "report.skip",
                    &[("path", path.as_str().into()), ("reason", "not found".into())],
                );
                continue;
            };
            let results: SweepResults = match serde_json::from_str(&json) {
                Ok(r) => r,
                Err(e) => {
                    event(
                        Level::Error,
                        "report.skip",
                        &[("path", path.as_str().into()), ("reason", e.to_string().into())],
                    );
                    continue;
                }
            };
            println!("### {experiment} — {} ({})\n", results.entity, results.mode);
            print_markdown(&results);
        }
    }
}

fn print_markdown(results: &SweepResults) {
    for metric in MetricKind::ALL {
        let m = MetricKind::ALL.iter().position(|&k| k == metric).expect("member");
        println!("**{}**\n", metric.name());
        print!("| method |");
        for t in &results.thetas {
            print!(" θ={t} |");
        }
        println!();
        print!("|---|");
        for _ in &results.thetas {
            print!("---|");
        }
        println!();
        for series in &results.series {
            print!("| {} |", series.method);
            for point in &series.values {
                print!(" {:.3} |", point[m]);
            }
            println!();
        }
        println!();
    }
}

mod train {
    //! The `train` mode: full training-epoch timings at Table-1 scale
    //! across `FD_THREADS`, plus the sampled scale sweep.

    use fd_bench::{prepare, SweepConfig};
    use fd_core::{FakeDetector, FakeDetectorConfig, TrainMode};
    use fd_data::{ExperimentContext, ExplicitFeatures, LabelMode};
    use fd_tensor::parallel;

    fn round2(v: f64) -> f64 {
        (v * 100.0).round() / 100.0
    }

    fn median(samples: &[f64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        sorted[sorted.len() / 2]
    }

    /// Fits `epochs` full-graph steps and returns the per-epoch
    /// wall-clock milliseconds and loss curve the trainer recorded.
    fn epoch_times(
        ctx: &ExperimentContext<'_>,
        epochs: usize,
        threads: usize,
    ) -> (Vec<f64>, Vec<f32>) {
        let config = FakeDetectorConfig {
            epochs,
            validation_fraction: 0.0,
            ..FakeDetectorConfig::default()
        };
        parallel::with_thread_count(threads, || {
            let trained = FakeDetector::new(config).fit(ctx);
            let report = trained.report();
            (report.epoch_ms.clone(), report.losses.clone())
        })
    }

    /// One bounded-memory data point for the scale sweep: generates
    /// the corpus at `scale` (whole-number scales > 1 tile Table-1
    /// shards), runs a single neighbour-sampled epoch, and reports the
    /// epoch wall-clock plus the run's own peak RSS (the high-water
    /// mark is rewound first, so each scale prices only itself).
    /// Runs one scale-sweep point in a child `report train-scale-point`
    /// process and parses the JSON it prints on stdout. FD_LOG_FILE is
    /// stripped from the child's environment so it cannot truncate a
    /// log file the parent run owns.
    fn scale_point_in_child(scale: f64) -> serde_json::Value {
        let exe = std::env::current_exe().expect("locate the report binary");
        let out = std::process::Command::new(exe)
            .args(["train-scale-point", &scale.to_string()])
            .env_remove("FD_LOG_FILE")
            .output()
            .unwrap_or_else(|e| panic!("spawn scale-point child at scale {scale}: {e}"));
        assert!(
            out.status.success(),
            "scale-point child failed at scale {scale}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("scale-point child stdout is utf-8");
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .unwrap_or_else(|| panic!("no JSON line from scale-point child at scale {scale}"));
        serde_json::from_str(line).expect("parse scale-point child JSON")
    }

    pub fn sampled_scale_run(scale: f64) -> serde_json::Value {
        super::reset_peak_rss();
        let config = SweepConfig { scale, folds: 1, ..SweepConfig::default() };
        let prepared = prepare(&config);
        let (train, _test) = prepared.split(0, 1.0, config.seed);
        let explicit = ExplicitFeatures::extract(&prepared.corpus, &prepared.tokenized, &train, 60);
        let ctx = ExperimentContext {
            corpus: &prepared.corpus,
            tokenized: &prepared.tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed: 3,
        };
        let (batch_size, fanout, rounds) = (256, 8, 2);
        let model_cfg = FakeDetectorConfig {
            epochs: 1,
            validation_fraction: 0.0,
            train_mode: TrainMode::Sampled { batch_size, fanout, rounds },
            ..FakeDetectorConfig::default()
        };
        let trained = FakeDetector::new(model_cfg).fit(&ctx);
        let epoch_ms = trained.report().epoch_ms.first().copied().unwrap_or(0.0);
        fd_obs::event(
            fd_obs::Level::Info,
            "bench.scale_point",
            &[
                ("scale", scale.into()),
                ("articles", prepared.corpus.articles.len().into()),
                ("sampled_epoch_ms", epoch_ms.into()),
            ],
        );
        serde_json::json!({
            "scale": scale,
            "articles": prepared.corpus.articles.len(),
            "creators": prepared.corpus.creators.len(),
            "subjects": prepared.corpus.subjects.len(),
            "batch_size": batch_size,
            "fanout": fanout,
            "rounds": rounds,
            "sampled_epoch_ms": round2(epoch_ms),
            "peak_rss_mb": super::peak_rss_mb(),
        })
    }

    pub fn write_report(out_path: &str, scale: f64, sweep_scales: &[f64]) {
        let config = SweepConfig { scale, folds: 1, ..SweepConfig::default() };
        let prepared = prepare(&config);
        let (train, _test) = prepared.split(0, 1.0, config.seed);
        let explicit = ExplicitFeatures::extract(&prepared.corpus, &prepared.tokenized, &train, 60);
        let ctx = ExperimentContext {
            corpus: &prepared.corpus,
            tokenized: &prepared.tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed: 3,
        };

        let epochs = 3;

        // FD_THREADS sweep over the trainer. Identical loss
        // curves at every width are the deterministic-runtime contract;
        // a benchmark that traded answers for speed must fail loudly.
        let mut sweep = Vec::new();
        let mut serial_losses: Option<Vec<f32>> = None;
        for &threads in &super::SWEEP_WIDTHS {
            let (ms, losses) = epoch_times(&ctx, epochs, threads);
            match &serial_losses {
                None => serial_losses = Some(losses),
                Some(reference) => {
                    let drift = reference
                        .iter()
                        .zip(&losses)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                        || reference.len() != losses.len();
                    assert!(
                        !drift,
                        "loss curve at FD_THREADS={threads} is not bit-identical to serial"
                    );
                }
            }
            sweep.push((threads, median(&ms), ms));
        }
        let batched_serial_ms = sweep[0].2.clone();
        let batched_4t_ms = sweep[2].2.clone();
        let scaling: Vec<(usize, f64)> = sweep.iter().map(|&(t, m, _)| (t, m)).collect();
        let (serial, four_t) = (scaling[0].1, scaling[2].1);

        fd_obs::event(
            fd_obs::Level::Info,
            "bench.model_train",
            &[
                ("articles", prepared.corpus.articles.len().into()),
                ("batched_serial_epoch_ms", serial.into()),
                ("batched_parallel_4t_epoch_ms", four_t.into()),
            ],
        );
        // The bounded-memory scale sweep: each point runs in its own
        // child process. In-process, the kernel's RSS high-water mark
        // cannot rewind below the memory the allocator still retains
        // from the full-graph timing sweep above (~1.5 GiB at Table-1
        // scale), which would swamp every point's reading; a child's
        // VmHWM is genuinely its own.
        let scale_sweep: Vec<serde_json::Value> =
            sweep_scales.iter().map(|&s| scale_point_in_child(s)).collect();

        let report = serde_json::json!({
            "generator": "cargo run --release -p fd-bench --bin report -- train",
            "machine_threads": super::machine_threads(),
            "fd_threads_env": std::env::var("FD_THREADS").unwrap_or_default(),
            "fd_threads_resolved": parallel::current_threads(),
            "simd_level": fd_tensor::simd_level().name(),
            "scale": scale,
            "articles": prepared.corpus.articles.len(),
            "creators": prepared.corpus.creators.len(),
            "subjects": prepared.corpus.subjects.len(),
            "epochs_timed": epochs,
            "batched_serial_epoch_ms":
                batched_serial_ms.iter().map(|&v| round2(v)).collect::<Vec<_>>(),
            "batched_parallel_4t_epoch_ms":
                batched_4t_ms.iter().map(|&v| round2(v)).collect::<Vec<_>>(),
            "median_batched_serial_epoch_ms": round2(serial),
            "median_batched_parallel_4t_epoch_ms": round2(four_t),
            "thread_scaling": super::scaling_curve(&scaling),
            "losses_bit_identical_across_widths": true,
            "scale_sweep": scale_sweep,
        });
        let json = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("{out_path}: {e}"));
        fd_obs::event(fd_obs::Level::Info, "report.wrote", &[("path", out_path.into())]);
    }
}

mod serve {
    //! The `serve` mode: an end-to-end load benchmark of the fd-serve
    //! HTTP server. Trains a small model, starts the server on an
    //! ephemeral port, sends every request once sequentially to build a
    //! reference, then replays them from `clients` concurrent keep-alive
    //! connections. Responses must match the reference byte for byte —
    //! the micro-batching path is bitwise-deterministic, so any drift is
    //! a bug and the benchmark panics (which makes `scripts/bench.sh`
    //! fail loudly).

    use fd_core::{FakeDetector, FakeDetectorConfig, ScoreRequest};
    use fd_data::{
        generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
        TokenizedCorpus, TrainSets,
    };
    use fd_serve::{HttpClient, ServeConfig, ServeModel, Server};
    use fd_tensor::parallel;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn round2(v: f64) -> f64 {
        (v * 100.0).round() / 100.0
    }

    /// The latency histogram the load passes record into — fine
    /// exponential buckets (≈15% wide) from 50µs to ~30s, so the
    /// bucket-interpolated [`fd_obs::Histogram::percentile`] quotes
    /// match nearest-rank percentiles to well under bucket width.
    fn latency_histogram() -> &'static fd_obs::Histogram {
        fd_obs::histogram("bench.serve.latency_ms", &fd_obs::exponential_buckets(0.05, 1.15, 96))
    }

    /// A deterministic request body for request `i`, cycling node
    /// neighbours through the corpus so batches mix all three slots.
    fn request_body(i: usize, creators: usize, subjects: usize) -> String {
        let text = format!(
            "breaking statement {i} disputes the official budget and health care numbers"
        );
        format!(
            "{{\"text\":\"{text}\",\"creator\":{},\"subjects\":[{}]}}",
            i % creators,
            i % subjects
        )
    }

    /// Trains a small model once and wraps it in a serving handle.
    /// Shared with the `load` mode, which serves it from every worker
    /// of the sharded tier.
    pub(super) fn build_model() -> ServeModel {
        let seed = 42;
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.02), seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 10, &mut rng).fold(0).0,
        };
        let (explicit_dim, seq_len, max_vocab) = (60, 12, 6000);
        let tokenized = TokenizedCorpus::build(&corpus, seq_len, max_vocab);
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, explicit_dim);
        let ctx = ExperimentContext {
            corpus: &corpus,
            tokenized: &tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed,
        };
        let config = FakeDetectorConfig {
            epochs: 2,
            validation_fraction: 0.0,
            ..FakeDetectorConfig::default()
        };
        let trained = FakeDetector::new(config).fit(&ctx);
        drop((tokenized, explicit));
        ServeModel::new(corpus, trained, train, LabelMode::Binary, explicit_dim, seq_len, max_vocab)
    }

    /// Direct (in-process, no HTTP) scoring: the batch scorer's time and
    /// throughput on one 64-request batch, swept over FD_THREADS.
    fn scoring_section(model: &ServeModel, creators: usize, subjects: usize) -> serde_json::Value {
        let requests: Vec<ScoreRequest> = (0..64)
            .map(|i| {
                ScoreRequest::article(
                    format!("statement {i} disputes the official budget and health numbers"),
                    Some(i % creators),
                    vec![i % subjects],
                )
            })
            .collect();

        let median_batch_ms = || {
            let mut samples: Vec<f64> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(model.score(&requests).expect("score"));
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            samples[samples.len() / 2]
        };

        let sweep: Vec<(usize, f64)> = super::SWEEP_WIDTHS
            .iter()
            .map(|&t| (t, parallel::with_thread_count(t, median_batch_ms)))
            .collect();
        let batch_ms = sweep[0].1;
        serde_json::json!({
            "requests_per_batch": requests.len(),
            "batch_ms": round2(batch_ms),
            "throughput_rps": (requests.len() as f64 / (batch_ms / 1e3) * 100.0).round() / 100.0,
            "thread_scaling": super::scaling_curve(&sweep),
        })
    }

    /// A histogram's running totals, for scoping it to one phase.
    struct HistTotals {
        count: u64,
        sum: f64,
        buckets: Vec<u64>,
    }

    impl HistTotals {
        fn of(hist: &fd_obs::Histogram) -> Self {
            Self { count: hist.count(), sum: hist.sum(), buckets: hist.bucket_counts() }
        }

        /// What was recorded after `earlier` was taken.
        fn since(&self, earlier: &Self) -> Self {
            Self {
                count: self.count - earlier.count,
                sum: self.sum - earlier.sum,
                buckets: self.buckets.iter().zip(&earlier.buckets).map(|(a, b)| a - b).collect(),
            }
        }
    }

    /// Replays every body from `clients` concurrent keep-alive
    /// connections and asserts each response matches `reference`.
    /// Returns (wall-clock seconds, max latency ms); when
    /// `record_latency` is set, per-request latencies also go into
    /// [`latency_histogram`].
    fn concurrent_pass(
        addr: &str,
        bodies: &[String],
        reference: &[String],
        clients: usize,
        per_client: usize,
        record_latency: bool,
    ) -> (f64, f64) {
        let loaded = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.to_string();
                let slice: Vec<(usize, String)> = (c * per_client..(c + 1) * per_client)
                    .map(|i| (i, bodies[i].clone()))
                    .collect();
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("connect");
                    client.set_timeout(Duration::from_secs(30)).expect("timeout");
                    slice
                        .into_iter()
                        .map(|(i, body)| {
                            let sent = Instant::now();
                            let (status, response) =
                                client.post("/v1/predict", &body).expect("post");
                            (i, status, response, sent.elapsed().as_secs_f64() * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut max_ms = 0.0f64;
        for worker in workers {
            for (i, status, response, ms) in worker.join().expect("client thread") {
                assert_eq!(status, 200, "request {i} failed under load: {response}");
                assert_eq!(
                    response, reference[i],
                    "request {i}: batched response differs from sequential reference"
                );
                max_ms = max_ms.max(ms);
                if record_latency {
                    latency_histogram().record(ms);
                }
            }
        }
        (loaded.elapsed().as_secs_f64(), max_ms)
    }

    pub fn write_report(out_path: &str, clients: usize, per_client: usize) {
        assert!(clients >= 1 && per_client >= 1, "need at least one client and request");
        let model = build_model();
        let (articles, creators, subjects) = model.corpus_sizes();
        let scoring_json = scoring_section(&model, creators, subjects);
        let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
        let server = Server::start(Arc::new(model), &config).expect("start server");
        let addr = server.local_addr().to_string();

        let total = clients * per_client;
        let bodies: Vec<String> =
            (0..total).map(|i| request_body(i, creators, subjects)).collect();

        // Sequential reference pass: one connection, one request at a
        // time, so every request is scored in a batch of size 1.
        let mut reference = Vec::with_capacity(total);
        {
            let mut client = HttpClient::connect(&addr).expect("connect");
            client.set_timeout(Duration::from_secs(30)).expect("timeout");
            for body in &bodies {
                let (status, response) = client.post("/v1/predict", body).expect("post");
                assert_eq!(status, 200, "sequential reference request failed: {response}");
                reference.push(response);
            }
        }

        // Concurrent load: the same requests from `clients` keep-alive
        // connections at once. First with tracing off — the numbers the
        // report headlines — then the identical pass again with
        // FD_TRACE on at sample 1 to price the tracing hot path.
        //
        // The server's batch histograms also count the sequential and
        // traced passes, so the headline batching figures are deltas
        // taken around the untraced pass alone. (First registration
        // wins in fd-obs and the server registered these before any
        // request ran, so the placeholder bounds never take effect.)
        let batch_hist = fd_obs::histogram("serve.batch_size", &[1.0]);
        let wait_hist = fd_obs::histogram("serve.queue_wait_us", &[1.0]);
        let batch_before = HistTotals::of(batch_hist);
        let wait_before = HistTotals::of(wait_hist);
        let (wall_s, max_ms) = concurrent_pass(&addr, &bodies, &reference, clients, per_client, true);
        let batches = HistTotals::of(batch_hist).since(&batch_before);
        let waits = HistTotals::of(wait_hist).since(&wait_before);
        assert_eq!(
            batches.sum,
            total as f64,
            "the measured pass's batch sizes must sum to its {total} requests"
        );
        assert_eq!(waits.count, total as u64, "one queue wait per measured request");

        fd_obs::trace::set_enabled(true);
        fd_obs::trace::set_sample(1);
        let (traced_wall_s, _) =
            concurrent_pass(&addr, &bodies, &reference, clients, per_client, false);
        fd_obs::trace::set_enabled(false);
        let traced_spans = fd_obs::trace::take_spans().len();
        assert!(traced_spans > 0, "traced load pass recorded no spans");

        let draining = Instant::now();
        server.shutdown();
        let shutdown_ms = draining.elapsed().as_secs_f64() * 1e3;

        fd_obs::event(
            fd_obs::Level::Info,
            "bench.serve",
            &[
                ("clients", clients.into()),
                ("total_requests", total.into()),
                ("throughput_rps", (total as f64 / wall_s).into()),
                ("p99_ms", latency_histogram().percentile(0.99).into()),
            ],
        );
        let corpus_json = serde_json::json!({
            "articles": articles,
            "creators": creators,
            "subjects": subjects,
        });
        let latency_hist = latency_histogram();
        let latency_json = serde_json::json!({
            "p50": round2(latency_hist.percentile(0.50)),
            "p90": round2(latency_hist.percentile(0.90)),
            "p99": round2(latency_hist.percentile(0.99)),
            "max": round2(max_ms),
        });
        // Tracing overhead: identical load pass with FD_TRACE on at
        // sample 1 vs the off pass above. The off pass is the shipping
        // configuration — its cost over an uninstrumented build is one
        // relaxed atomic load per span site.
        let trace_json = serde_json::json!({
            "off_throughput_rps": round2(total as f64 / wall_s),
            "on_throughput_rps": round2(total as f64 / traced_wall_s),
            "on_sample": 1,
            "on_spans_recorded": traced_spans,
            "on_overhead_pct": round2((traced_wall_s / wall_s - 1.0) * 100.0),
        });
        let batch_json = serde_json::json!({
            "bounds": batch_hist.bounds().to_vec(),
            "buckets": batches.buckets,
            "batches": batches.count,
            "mean": round2(batches.sum / batches.count.max(1) as f64),
        });
        let report = serde_json::json!({
            "generator": "cargo run --release -p fd-bench --bin report -- serve",
            "machine_threads": super::machine_threads(),
            "fd_threads_env": std::env::var("FD_THREADS").unwrap_or_default(),
            "fd_threads_resolved": parallel::current_threads(),
            "simd_level": fd_tensor::simd_level().name(),
            "corpus": corpus_json,
            "max_batch": config.max_batch,
            "max_delay_ms": config.max_delay_ms,
            "clients": clients,
            "requests_per_client": per_client,
            "total_requests": total,
            "wall_s": round2(wall_s),
            "throughput_rps": round2(total as f64 / wall_s),
            "latency_ms": latency_json,
            "batch_size": batch_json,
            "queue_wait_us_mean": round2(waits.sum / waits.count.max(1) as f64),
            "bitwise_identical_to_sequential": true,
            "graceful_shutdown_ms": round2(shutdown_ms),
            "trace": trace_json,
            "scoring": scoring_json,
        });
        let json = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("{out_path}: {e}"));
        fd_obs::event(fd_obs::Level::Info, "report.wrote", &[("path", out_path.into())]);
    }
}

mod load {
    //! The `load` mode: an open-loop load harness for the sharded
    //! serving tier. An in-process `fd-router` fronts 2 shards × 2
    //! replicas of fd-serve (all sharing one trained model, so any
    //! answer is bitwise-comparable to the unsharded control server).
    //!
    //! Open-loop means arrivals follow a fixed schedule, not the
    //! clients' progress: request `i` of a phase is due at
    //! `start + i/rate`, and its latency is measured from that
    //! *scheduled* instant. A closed-loop harness slows its arrival
    //! rate exactly when the server struggles, hiding overload — this
    //! one keeps pushing and reports the queueing delay it caused.
    //!
    //! Three gates, all panicking on violation so `scripts/bench.sh`
    //! fails loudly:
    //!
    //! 1. every 200 is bitwise-identical to the control server;
    //! 2. at the rated load (60% of probed capacity) p99 ≤ the SLO and
    //!    shed/deadline responses stay ≈ 0;
    //! 3. at 2× the rated load the router says `429 + Retry-After` on
    //!    a meaningful fraction of requests while successful-request
    //!    p99 stays bounded — shedding must kick in *before* latency
    //!    collapses into the deadline.

    use fd_router::{Router, RouterConfig, Topology};
    use fd_serve::{HttpClient, ServeConfig, Server};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Router admission bound for the benchmark tier. Deliberately
    /// below the worker count so the overload phase exercises the
    /// bounded-queue shed path instead of piling work up in memory,
    /// and small enough that admitted work stays far from the routing
    /// deadline even on a single busy core.
    const INFLIGHT_BOUND: usize = 48;
    /// Open-loop sender threads. Must exceed [`INFLIGHT_BOUND`], or the
    /// harness itself becomes the admission limit and no 429 can ever
    /// happen. Kept modest: sender threads share the machine with the
    /// tier, and on a small box an army of them turns scheduler noise
    /// into phantom latency.
    const WORKERS: usize = 64;
    /// Rated load as a fraction of probed capacity. Conservative on
    /// purpose: the closed-loop probe quotes burst capacity, and the
    /// rated phase must hold its p99 for the whole (much longer) run —
    /// on a shared single-core box the gap between burst and sustained
    /// is real (a 72-second rated phase at 0.5× burst still shed ~1%).
    const RATED_FRACTION: f64 = 0.35;
    /// Distinct request bodies; requests cycle through them so the
    /// bitwise reference stays small while batches mix by-id readouts
    /// with inductive scoring.
    const UNIQUE_BODIES: usize = 256;

    fn round2(v: f64) -> f64 {
        (v * 100.0).round() / 100.0
    }

    /// Nearest-rank percentile of an unsorted latency sample.
    fn percentile(samples: &mut [f64], q: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = (q * samples.len() as f64).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1]
    }

    /// One phase's merged outcome counts and success latencies.
    #[derive(Default)]
    struct PhaseStats {
        ok: usize,
        shed: usize,
        deadline: usize,
        other: usize,
        mismatches: usize,
        missing_retry_after: usize,
        lat_ok_ms: Vec<f64>,
    }

    impl PhaseStats {
        fn total(&self) -> usize {
            self.ok + self.shed + self.deadline + self.other
        }

        fn merge(&mut self, other: PhaseStats) {
            self.ok += other.ok;
            self.shed += other.shed;
            self.deadline += other.deadline;
            self.other += other.other;
            self.mismatches += other.mismatches;
            self.missing_retry_after += other.missing_retry_after;
            self.lat_ok_ms.extend(other.lat_ok_ms);
        }

        fn shed_fraction(&self) -> f64 {
            self.shed as f64 / self.total().max(1) as f64
        }

        fn json(&mut self, scheduled_rps: f64, wall_s: f64) -> serde_json::Value {
            let (p50, p99, p999) = (
                percentile(&mut self.lat_ok_ms, 0.50),
                percentile(&mut self.lat_ok_ms, 0.99),
                percentile(&mut self.lat_ok_ms, 0.999),
            );
            let latency = serde_json::json!({
                "p50": round2(p50),
                "p99": round2(p99),
                "p999": round2(p999),
            });
            serde_json::json!({
                "scheduled_rps": round2(scheduled_rps),
                "achieved_rps": round2(self.total() as f64 / wall_s),
                "wall_s": round2(wall_s),
                "requests": self.total(),
                "ok": self.ok,
                "shed_429": self.shed,
                "deadline_504": self.deadline,
                "other_failures": self.other,
                "shed_fraction": round2(self.shed_fraction() * 100.0) / 100.0,
                "latency_ms": latency,
            })
        }
    }

    /// The request mix: every fourth body is a by-id readout (the
    /// sharded ownership path), the rest inductive scoring (served by
    /// any replica; routed for load spread).
    fn bodies(articles: usize, creators: usize, subjects: usize) -> Vec<String> {
        (0..UNIQUE_BODIES)
            .map(|i| {
                if i % 4 == 0 {
                    format!("{{\"id\":{}}}", (i * 7) % articles)
                } else {
                    format!(
                        "{{\"text\":\"urgent report {i} contradicts the senate budget figures\",\
                         \"creator\":{},\"subjects\":[{}]}}",
                        i % creators,
                        i % subjects
                    )
                }
            })
            .collect()
    }

    /// Sends every unique body once, sequentially, to the unsharded
    /// control server: the bitwise reference for the whole run.
    fn reference_pass(control_addr: &str, bodies: &[String]) -> Vec<String> {
        let mut client = HttpClient::connect(control_addr).expect("connect control");
        client.set_timeout(Duration::from_secs(30)).expect("timeout");
        bodies
            .iter()
            .map(|body| {
                let (status, response) = client.post("/v1/predict", body).expect("control post");
                assert_eq!(status, 200, "control reference request failed: {response}");
                response
            })
            .collect()
    }

    /// Closed-loop capacity probe: `clients` keep-alive connections
    /// hammer the router back-to-back; returns the achieved rate of
    /// *successful* responses — shed 429s are tolerated but do not
    /// count as capacity, or a saturated probe would quote its own
    /// rejection throughput as tier throughput. This is the
    /// denominator the rated/overload arrival rates derive from.
    fn closed_loop_probe(addr: &str, bodies: &Arc<Vec<String>>, clients: usize, per_client: usize) -> f64 {
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.to_string();
                let bodies = Arc::clone(bodies);
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("connect router");
                    client.set_timeout(Duration::from_secs(30)).expect("timeout");
                    let mut ok = 0usize;
                    for i in 0..per_client {
                        let body = &bodies[(c * per_client + i) % bodies.len()];
                        let (status, response) =
                            client.post("/v1/predict", body).expect("probe post");
                        assert!(
                            status == 200 || status == 429,
                            "probe request got {status}: {response}"
                        );
                        ok += usize::from(status == 200);
                    }
                    ok
                })
            })
            .collect();
        let ok: usize = handles.into_iter().map(|h| h.join().expect("probe client")).sum();
        assert!(ok > 0, "capacity probe saw no successful responses");
        ok as f64 / start.elapsed().as_secs_f64()
    }

    /// One open-loop phase: `total` requests at `rate_rps`, spread over
    /// [`WORKERS`] sender threads. Worker `w` owns requests
    /// `w, w+W, w+2W, …`; each is due at `start + i/rate` and its
    /// latency runs from that scheduled instant, so a sender that fell
    /// behind reports the lateness instead of quietly easing the load.
    fn open_loop(
        addr: &str,
        bodies: &Arc<Vec<String>>,
        reference: &Arc<Vec<String>>,
        rate_rps: f64,
        total: usize,
    ) -> (PhaseStats, f64) {
        let start = Instant::now();
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let addr = addr.to_string();
                let bodies = Arc::clone(bodies);
                let reference = Arc::clone(reference);
                std::thread::spawn(move || {
                    let mut client: Option<HttpClient> = None;
                    let mut stats = PhaseStats::default();
                    let mut i = w;
                    while i < total {
                        let due = start + Duration::from_secs_f64(i as f64 / rate_rps);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let body = &bodies[i % bodies.len()];
                        let result = (|| {
                            if client.is_none() {
                                let mut fresh = HttpClient::connect_timeout(
                                    &addr,
                                    Duration::from_secs(10),
                                )?;
                                fresh.set_timeout(Duration::from_secs(30))?;
                                client = Some(fresh);
                            }
                            client
                                .as_mut()
                                .expect("client just connected")
                                .post_with_headers("/v1/predict", body, &[])
                        })();
                        let ms = due.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok((200, response, _)) => {
                                stats.ok += 1;
                                stats.lat_ok_ms.push(ms);
                                if response != reference[i % reference.len()] {
                                    stats.mismatches += 1;
                                }
                            }
                            Ok((429, _, headers)) => {
                                stats.shed += 1;
                                if !headers.iter().any(|(name, _)| name == "retry-after") {
                                    stats.missing_retry_after += 1;
                                }
                            }
                            Ok((504, _, _)) => stats.deadline += 1,
                            Ok(_) => stats.other += 1,
                            Err(_) => {
                                // Transport error: count it and dial a
                                // fresh connection for the next request.
                                stats.other += 1;
                                client = None;
                            }
                        }
                        i += WORKERS;
                    }
                    stats
                })
            })
            .collect();
        let mut merged = PhaseStats::default();
        for handle in handles {
            merged.merge(handle.join().expect("load worker"));
        }
        (merged, start.elapsed().as_secs_f64())
    }

    pub fn write_report(out_path: &str, total_requests: usize, slo_ms: f64) {
        assert!(total_requests >= 1_000, "need at least 1000 requests for stable percentiles");
        let model = Arc::new(super::serve::build_model());
        let (articles, creators, subjects) = model.corpus_sizes();

        // The tier: 2 shards × 2 replicas plus the unsharded control,
        // all serving the same weights in this process on ephemeral
        // ports. The router's admission bound is lowered so overload
        // exercises the shed path (see INFLIGHT_BOUND).
        let shard_server = |index: usize| {
            let config = ServeConfig {
                addr: "127.0.0.1:0".into(),
                shard: Some((index, 2)),
                ..ServeConfig::default()
            };
            Server::start(Arc::clone(&model), &config).expect("start shard worker")
        };
        let tier = [shard_server(0), shard_server(0), shard_server(1), shard_server(1)];
        let control = {
            let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
            Server::start(Arc::clone(&model), &config).expect("start control server")
        };
        let spec = format!(
            "{},{};{},{}",
            tier[0].local_addr(),
            tier[1].local_addr(),
            tier[2].local_addr(),
            tier[3].local_addr()
        );
        let mut router_config =
            RouterConfig::new(Topology::parse(&spec).expect("tier topology"));
        router_config.inflight_bound = INFLIGHT_BOUND;
        let deadline_ms = router_config.deadline_ms;
        let router = Router::start(router_config).expect("start router");
        let router_addr = router.local_addr().to_string();

        let bodies = Arc::new(bodies(articles, creators, subjects));
        let reference = Arc::new(reference_pass(&control.local_addr().to_string(), &bodies));

        // Let the first health-probe round mark every replica up before
        // measuring anything.
        std::thread::sleep(Duration::from_millis(500));
        let max_rps = closed_loop_probe(&router_addr, &bodies, 32, 150);
        // Settle: the probe leaves the tier saturated, and the rated
        // phase must not start by shedding the probe's backlog.
        std::thread::sleep(Duration::from_millis(500));
        let rated_rps = RATED_FRACTION * max_rps;
        let overload_rps = 2.0 * rated_rps;
        let overload_n = total_requests / 5;
        let rated_n = total_requests - overload_n;

        eprintln!(
            "capacity probe: {max_rps:.0} rps; rated {rated_rps:.0} rps × {rated_n}, \
             overload {overload_rps:.0} rps × {overload_n}"
        );
        let (mut rated, rated_wall) =
            open_loop(&router_addr, &bodies, &reference, rated_rps, rated_n);
        // Drain between phases so overload starts from an idle tier.
        std::thread::sleep(Duration::from_millis(500));
        let (mut overload, overload_wall) =
            open_loop(&router_addr, &bodies, &reference, overload_rps, overload_n);

        let rated_p99 = percentile(&mut rated.lat_ok_ms, 0.99);
        let overload_p99 = percentile(&mut overload.lat_ok_ms, 0.99);

        // Gate 1: sharded answers are the single-process answers.
        assert_eq!(
            rated.mismatches + overload.mismatches,
            0,
            "routed responses drifted from the single-process control"
        );
        // Gate 2: the rated load meets its SLO without shedding.
        assert!(
            rated_p99 <= slo_ms,
            "rated-load p99 {rated_p99:.1}ms violates the {slo_ms}ms SLO"
        );
        assert!(
            rated.shed_fraction() < 0.01,
            "rated load shed {:.1}% of requests; the tier is under-provisioned",
            rated.shed_fraction() * 100.0
        );
        assert_eq!(rated.deadline, 0, "rated load hit the routing deadline");
        // Gate 3: overload sheds with 429s while successful-request
        // latency stays far from the deadline — backpressure must show
        // up before latency collapse does.
        assert!(
            overload.shed_fraction() > rated.shed_fraction() && overload.shed > 0,
            "2x overload shed {:.2}% (rated {:.2}%): the bounded queue never pushed back",
            overload.shed_fraction() * 100.0,
            rated.shed_fraction() * 100.0
        );
        assert!(
            overload_p99 <= (deadline_ms as f64) / 2.0,
            "overload success p99 {overload_p99:.0}ms collapsed toward the {deadline_ms}ms deadline"
        );
        assert_eq!(
            rated.missing_retry_after + overload.missing_retry_after,
            0,
            "a 429 arrived without a Retry-After header"
        );

        fd_obs::event(
            fd_obs::Level::Info,
            "bench.load",
            &[
                ("capacity_rps", max_rps.into()),
                ("rated_p99_ms", rated_p99.into()),
                ("overload_shed_fraction", overload.shed_fraction().into()),
            ],
        );
        let corpus_json = serde_json::json!({
            "articles": articles,
            "creators": creators,
            "subjects": subjects,
        });
        let tier_json = serde_json::json!({
            "shards": 2,
            "replicas_per_shard": 2,
            "router_inflight_bound": INFLIGHT_BOUND,
            "router_deadline_ms": deadline_ms,
        });
        let harness_json = serde_json::json!({
            "discipline": "open-loop (latency from scheduled arrival)",
            "workers": WORKERS,
            "unique_bodies": UNIQUE_BODIES,
            "by_id_fraction": 0.25,
        });
        let gates_json = serde_json::json!({
            "bitwise_identical_to_control": true,
            "rated_p99_within_slo": true,
            "overload_sheds_before_latency_collapse": true,
            "every_429_has_retry_after": true,
        });
        let report = serde_json::json!({
            "generator": "cargo run --release -p fd-bench --bin report -- load",
            "machine_threads": super::machine_threads(),
            "fd_threads_env": std::env::var("FD_THREADS").unwrap_or_default(),
            "fd_threads_resolved": fd_tensor::parallel::current_threads(),
            "simd_level": fd_tensor::simd_level().name(),
            "corpus": corpus_json,
            "tier": tier_json,
            "harness": harness_json,
            "rated_fraction_of_capacity": RATED_FRACTION,
            "capacity_probe_rps": round2(max_rps),
            "slo_p99_ms": slo_ms,
            "total_requests": rated.total() + overload.total(),
            "rated": rated.json(rated_rps, rated_wall),
            "overload": overload.json(overload_rps, overload_wall),
            "gates": gates_json,
        });
        let json = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("{out_path}: {e}"));
        fd_obs::event(fd_obs::Level::Info, "report.wrote", &[("path", out_path.into())]);

        router.shutdown();
        for server in tier {
            server.shutdown();
        }
        control.shutdown();
    }
}

mod ingest {
    //! The `ingest` mode: the early-detection benchmark of
    //! `POST /v1/ingest`. Per corpus scale it trains a model, serves it
    //! in-process, and times single-article ingests at subject degrees
    //! 0–5 while background clients hammer `/v1/predict` (every one of
    //! those must come back 200 — ingest never blocks serving). Each
    //! degree starts from the freshly loaded model, so degree is never
    //! mixed up with the history earlier degrees left behind. Every
    //! ingested node's probabilities are then checked against the
    //! honest O(corpus) extended-graph recompute, per degree, against
    //! the documented 1e-5 bound. Across scales, the median ingest
    //! latency of the largest corpus must stay under 4× the smallest —
    //! the measurable form of "ingest cost tracks the neighbourhood,
    //! not the corpus".
    //!
    //! History is measured on its own: per scale, a chain of
    //! [`HISTORY_INGESTS`] single-article ingests through
    //! `ServeModel::ingest`, whose last [`HISTORY_WINDOW`] must have a
    //! median within [`HISTORY_GATE`]× of the first — "ingest cost does
    //! not grow with the ingests before it".

    use fd_core::{FakeDetector, FakeDetectorConfig, TrainMode, TrainedFakeDetector};
    use fd_data::{
        generate_at_scale, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig,
        LabelMode, TokenizedCorpus, TrainSets,
    };
    use fd_graph::{GraphOverlay, NodeType};
    use fd_serve::{
        HttpClient, IngestArticle, IngestBatch, IngestReport, ServeConfig, ServeModel, Server,
    };
    use fd_tensor::Matrix;
    use fd_text::{encode_sequence, Tokenizer};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const EXPLICIT_DIM: usize = 40;
    const SEQ_LEN: usize = 10;
    const MAX_VOCAB: usize = 4000;
    /// The serving guarantee from DESIGN.md "Incremental diffusion".
    const DELTA_BOUND: f32 = 1e-5;
    const MAX_DEGREE: usize = 5;
    const INGESTS_PER_DEGREE: usize = 8;
    /// Length of the chained-ingest history run.
    const HISTORY_INGESTS: usize = 10_000;
    /// Ingests per end of the history run whose medians are compared.
    const HISTORY_WINDOW: usize = 1_000;
    /// Largest allowed last-over-first ratio of those medians.
    const HISTORY_GATE: f64 = 1.5;

    fn round2(v: f64) -> f64 {
        (v * 100.0).round() / 100.0
    }

    /// Nearest-rank percentile over an ascending-sorted sample.
    fn pctl(sorted: &[f64], q: f64) -> f64 {
        sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
    }

    fn median(samples: &[f64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        pctl(&sorted, 0.5)
    }

    /// The in-process mirror of the server's attach path over the
    /// frozen feature pipeline; its [`extended_states_rounds`] pass is
    /// the full-recompute reference every delta is judged against.
    ///
    /// [`extended_states_rounds`]: TrainedFakeDetector::extended_states_rounds
    struct Reference<'a> {
        ctx: ExperimentContext<'a>,
        trained: &'a TrainedFakeDetector,
        overlay: GraphOverlay,
        explicit_rows: [Vec<Vec<f32>>; 3],
        sequences: [Vec<Vec<usize>>; 3],
    }

    impl<'a> Reference<'a> {
        fn new(ctx: ExperimentContext<'a>, trained: &'a TrainedFakeDetector) -> Self {
            let overlay = GraphOverlay::new(&ctx.corpus.graph);
            Self {
                ctx,
                trained,
                overlay,
                explicit_rows: Default::default(),
                sequences: Default::default(),
            }
        }

        fn apply_article(&mut self, article: &IngestArticle) {
            self.overlay
                .add_article(article.creator, &article.subjects)
                .expect("bench sends valid articles");
            let tokens = Tokenizer::default().tokenize(&article.text);
            self.explicit_rows[0].push(
                self.ctx.explicit.featurise_tokens(NodeType::Article, &tokens).row(0).to_vec(),
            );
            self.sequences[0].push(encode_sequence(
                &tokens,
                &self.ctx.tokenized.vocab,
                self.ctx.tokenized.seq_len,
            ));
        }

        /// Final-round article probabilities via the honest O(corpus)
        /// recompute over the extended graph.
        fn full_recompute_article_probabilities(&self) -> Vec<Vec<f32>> {
            let new_explicit: [Matrix; 3] = std::array::from_fn(|slot| {
                let rows = &self.explicit_rows[slot];
                let mut m = Matrix::zeros(rows.len(), self.ctx.explicit.dim);
                for (k, row) in rows.iter().enumerate() {
                    m.row_mut(k).copy_from_slice(row);
                }
                m
            });
            let history = self
                .trained
                .extended_states_rounds(&self.ctx, &self.overlay, &new_explicit, &self.sequences)
                .expect("extended recompute");
            let last = history.last().expect("at least one round");
            (0..last[0].rows())
                .map(|i| self.trained.node_probabilities(NodeType::Article, last[0].row(i)))
                .collect()
        }
    }

    struct ScaleRun {
        json: serde_json::Value,
        median_ingest_ms: f64,
        history_ratio: f64,
    }

    /// Max |Δ| between reported `(id, probabilities)` pairs and the full
    /// recompute's article probabilities.
    fn max_delta(reported: &[(usize, Vec<f32>)], full: &[Vec<f32>]) -> f32 {
        let mut max_delta = 0.0f32;
        for (id, probs) in reported {
            for (a, b) in probs.iter().zip(&full[*id]) {
                max_delta = max_delta.max((a - b).abs());
            }
        }
        max_delta
    }

    /// [`HISTORY_INGESTS`] chained single-article ingests from the
    /// pristine `model`, each citing the next creator and the next
    /// subject in turn, timed per `ServeModel::ingest` call. Returns the
    /// history block and its last-over-first ratio.
    fn history_run(
        model: &Arc<ServeModel>,
        mut reference: Reference<'_>,
        creators_n: usize,
        subjects_n: usize,
    ) -> (serde_json::Value, f64) {
        let mut current = Arc::clone(model);
        let mut us = Vec::with_capacity(HISTORY_INGESTS);
        let mut reported = Vec::with_capacity(HISTORY_INGESTS);
        for k in 0..HISTORY_INGESTS {
            let article = IngestArticle {
                text: format!("follow-up claim {k} disputes the budget and health care record"),
                creator: k % creators_n,
                subjects: vec![k % subjects_n],
            };
            let batch = IngestBatch { articles: vec![article.clone()], ..IngestBatch::default() };
            let started = Instant::now();
            let (next, report) = current.ingest(&batch).expect("history ingest");
            us.push(started.elapsed().as_secs_f64() * 1e6);
            let node = &report.articles[0];
            reported.push((node.id, node.probabilities.clone()));
            reference.apply_article(&article);
            current = Arc::new(next);
        }
        let delta = max_delta(&reported, &reference.full_recompute_article_probabilities());
        assert!(
            delta <= DELTA_BOUND,
            "history run: max |Δ| {delta} exceeds the documented {DELTA_BOUND} bound"
        );
        let first = median(&us[..HISTORY_WINDOW]);
        let last = median(&us[us.len() - HISTORY_WINDOW..]);
        let ratio = last / first;
        let json = serde_json::json!({
            "ingests": HISTORY_INGESTS,
            "window": HISTORY_WINDOW,
            "first_window_ingest_us_p50": round2(first),
            "last_window_ingest_us_p50": round2(last),
            "last_over_first": round2(ratio),
            "gate": HISTORY_GATE,
            "max_abs_delta_vs_full_recompute": delta,
        });
        (json, ratio)
    }

    fn scale_run(scale: f64) -> ScaleRun {
        let seed = 42;
        let corpus = generate_at_scale(&GeneratorConfig::politifact(), scale, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 10, &mut rng).fold(0).0,
        };
        let tokenized = TokenizedCorpus::build(&corpus, SEQ_LEN, MAX_VOCAB);
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, EXPLICIT_DIM);
        let make_ctx = || ExperimentContext {
            corpus: &corpus,
            tokenized: &tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed,
        };
        let ctx = make_ctx();
        // Above Table-1 scale, train with the bounded-memory sampled
        // path (the ingest timings do not depend on how the weights
        // were fitted, only on the serving graph's size).
        let mut model_cfg = FakeDetectorConfig {
            epochs: 1,
            validation_fraction: 0.0,
            ..FakeDetectorConfig::default()
        };
        if scale > 1.0 {
            model_cfg.train_mode = TrainMode::Sampled { batch_size: 256, fanout: 8, rounds: 2 };
        }
        let trained = FakeDetector::new(model_cfg).fit(&ctx);
        let twin = TrainedFakeDetector::from_json(&trained.to_json()).expect("weights round-trip");

        let warmup = Instant::now();
        let model = ServeModel::new(
            corpus.clone(),
            twin,
            train.clone(),
            LabelMode::Binary,
            EXPLICIT_DIM,
            SEQ_LEN,
            MAX_VOCAB,
        );
        let warmup_ms = warmup.elapsed().as_secs_f64() * 1e3;
        let (articles_n, creators_n, subjects_n) = model.corpus_sizes();
        let model = Arc::new(model);
        let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
        let server = Server::start(Arc::clone(&model), &config).expect("start server");
        let addr = server.local_addr().to_string();

        // Background predict hammer: the zero-dropped-requests claim is
        // only worth stating if predicts actually overlap the ingests.
        let stop = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicUsize::new(0));
        let non_200 = Arc::new(AtomicUsize::new(0));
        let hammers: Vec<_> = (0..2)
            .map(|t| {
                let addr = addr.clone();
                let (stop, sent, non_200) =
                    (Arc::clone(&stop), Arc::clone(&sent), Arc::clone(&non_200));
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("hammer connect");
                    client.set_timeout(Duration::from_secs(30)).expect("timeout");
                    let mut i = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let body = format!(
                            "{{\"text\":\"load probe {t}-{i} on medicare\",\"creator\":{},\"subjects\":[{}]}}",
                            i % creators_n,
                            i % subjects_n
                        );
                        let (status, _) = client.post("/v1/predict", &body).expect("post");
                        sent.fetch_add(1, Ordering::SeqCst);
                        if status != 200 {
                            non_200.fetch_add(1, Ordering::SeqCst);
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        // An ingest takes well under a millisecond, so the whole degree
        // sweep is short: start it only once the hammers are sending.
        while sent.load(Ordering::SeqCst) < hammers.len() {
            assert!(!hammers.iter().any(|h| h.is_finished()), "a predict hammer died before sending");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Single-article ingests at subject degrees 0..=5 (the creator
        // edge is always present — degree counts the subjects cited).
        let mut ingest_client = HttpClient::connect(&addr).expect("connect");
        ingest_client.set_timeout(Duration::from_secs(60)).expect("timeout");
        let mut all_ms: Vec<f64> = Vec::new();
        struct DegreeSamples {
            ms: Vec<f64>,
            attach_us: Vec<f64>,
            diffuse_us: Vec<f64>,
            affected: Vec<f64>,
            reported: Vec<(usize, Vec<f32>)>,
        }
        let mut per_degree: Vec<DegreeSamples> = Vec::new();
        let mut references: Vec<Reference<'_>> = Vec::new();
        for degree in 0..=MAX_DEGREE {
            // Each degree starts from the freshly loaded model.
            server.swap_model(Arc::clone(&model));
            let mut reference = Reference::new(make_ctx(), &trained);
            let mut samples = DegreeSamples {
                ms: Vec::new(),
                attach_us: Vec::new(),
                diffuse_us: Vec::new(),
                affected: Vec::new(),
                reported: Vec::new(),
            };
            for i in 0..INGESTS_PER_DEGREE {
                let article = IngestArticle {
                    text: format!(
                        "breaking claim {degree}-{i} disputes the budget, immigration and health care record"
                    ),
                    creator: (degree * INGESTS_PER_DEGREE + i) % creators_n,
                    subjects: (0..degree).map(|k| (i * 7 + k) % subjects_n).collect(),
                };
                let batch =
                    IngestBatch { articles: vec![article.clone()], ..IngestBatch::default() };
                let body = serde_json::to_string(&batch).expect("batch json");
                let posted = Instant::now();
                let (status, response) =
                    ingest_client.post("/v1/ingest", &body).expect("post ingest");
                let ms = posted.elapsed().as_secs_f64() * 1e3;
                assert_eq!(status, 200, "ingest at degree {degree} failed: {response}");
                let report: IngestReport = serde_json::from_str(&response).expect("report json");
                samples.ms.push(ms);
                all_ms.push(ms);
                samples.attach_us.push(report.attach_us as f64);
                samples.diffuse_us.push(report.diffuse_us as f64);
                samples.affected.push(report.affected_base_nodes as f64);
                let node = &report.articles[0];
                samples.reported.push((node.id, node.probabilities.clone()));
                reference.apply_article(&article);
            }
            per_degree.push(samples);
            references.push(reference);
        }

        stop.store(true, Ordering::SeqCst);
        for hammer in hammers {
            hammer.join().expect("hammer thread");
        }
        server.shutdown();

        // The delta curve: every ingested article vs the full
        // extended-graph recompute of its degree's graph.
        let mut overall_delta = 0.0f32;
        let degrees_json: Vec<serde_json::Value> = per_degree
            .iter()
            .zip(&references)
            .enumerate()
            .map(|(degree, (samples, reference))| {
                let max_delta =
                    max_delta(&samples.reported, &reference.full_recompute_article_probabilities());
                assert!(
                    max_delta <= DELTA_BOUND,
                    "degree {degree}: max |Δ| {max_delta} exceeds the documented {DELTA_BOUND} bound"
                );
                overall_delta = overall_delta.max(max_delta);
                let mut sorted = samples.ms.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
                let mean =
                    |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
                serde_json::json!({
                    "degree": degree,
                    "ingests": samples.ms.len(),
                    "ingest_ms_p50": round2(pctl(&sorted, 0.50)),
                    "ingest_ms_p90": round2(pctl(&sorted, 0.90)),
                    "ingest_ms_max": round2(pctl(&sorted, 1.0)),
                    "attach_us_median": round2(median(&samples.attach_us)),
                    "diffuse_us_median": round2(median(&samples.diffuse_us)),
                    "affected_base_nodes_mean": round2(mean(&samples.affected)),
                    "max_abs_delta_vs_full_recompute": max_delta,
                })
            })
            .collect();

        let requests = sent.load(Ordering::SeqCst);
        let failures = non_200.load(Ordering::SeqCst);
        assert!(requests > 0, "the predict hammer must have overlapped the ingests");
        assert_eq!(failures, 0, "{failures} of {requests} predicts failed during ingest");

        let mut sorted = all_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ingest_ms = pctl(&sorted, 0.5);
        fd_obs::event(
            fd_obs::Level::Info,
            "bench.ingest_scale",
            &[
                ("scale", scale.into()),
                ("articles", articles_n.into()),
                ("median_ingest_ms", median_ingest_ms.into()),
                ("max_abs_delta", (overall_delta as f64).into()),
            ],
        );
        let hammer_json = serde_json::json!({
            "requests": requests,
            "non_200": failures,
        });
        let (history, history_ratio) =
            history_run(&model, Reference::new(make_ctx(), &trained), creators_n, subjects_n);
        let json = serde_json::json!({
            "scale": scale,
            "articles": articles_n,
            "creators": creators_n,
            "subjects": subjects_n,
            "warmup_full_diffusion_ms": round2(warmup_ms),
            "ingests": all_ms.len(),
            "ingest_ms_p50": round2(pctl(&sorted, 0.50)),
            "ingest_ms_p90": round2(pctl(&sorted, 0.90)),
            "ingest_ms_max": round2(pctl(&sorted, 1.0)),
            "degrees": degrees_json,
            "max_abs_delta_vs_full_recompute": overall_delta,
            "predict_hammer": hammer_json,
            "history": history,
        });
        ScaleRun { json, median_ingest_ms, history_ratio }
    }

    pub fn write_report(out_path: &str, scales: &[f64]) {
        assert!(!scales.is_empty(), "need at least one ingest scale");
        let runs: Vec<ScaleRun> = scales.iter().map(|&s| scale_run(s)).collect();
        let ratio = runs.last().expect("non-empty").median_ingest_ms / runs[0].median_ingest_ms;
        if runs.len() > 1 {
            assert!(
                ratio < 4.0,
                "median ingest latency grew {ratio:.2}× from scale {} to {} — \
                 ingest cost must track the neighbourhood, not the corpus",
                scales[0],
                scales[scales.len() - 1],
            );
        }
        let history_max = runs.iter().map(|r| r.history_ratio).fold(0.0, f64::max);
        assert!(
            history_max <= HISTORY_GATE,
            "the last {HISTORY_WINDOW} of {HISTORY_INGESTS} chained ingests ran {history_max:.2}× \
             slower than the first — ingest cost must not grow with ingest history",
        );
        let report = serde_json::json!({
            "generator": "cargo run --release -p fd-bench --bin report -- ingest",
            "machine_threads": super::machine_threads(),
            "fd_threads_env": std::env::var("FD_THREADS").unwrap_or_default(),
            "fd_threads_resolved": fd_tensor::parallel::current_threads(),
            "simd_level": fd_tensor::simd_level().name(),
            "delta_bound": DELTA_BOUND,
            "scales": runs.iter().map(|r| r.json.clone()).collect::<Vec<_>>(),
            "median_ingest_ms_ratio_last_vs_first": round2(ratio),
            "corpus_size_independent": ratio < 4.0,
            "history_last_over_first_max": round2(history_max),
            "history_independent": history_max <= HISTORY_GATE,
        });
        let json = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("{out_path}: {e}"));
        fd_obs::event(fd_obs::Level::Info, "report.wrote", &[("path", out_path.into())]);
    }
}

mod tensor {
    //! The `tensor` mode: kernel and model-step timings.

    use fd_tensor::{parallel, uniform_in, Matrix};
    use rand::{rngs::StdRng, SeedableRng};
    use std::time::Instant;

    /// Median wall-clock milliseconds of `runs` calls to `f`.
    fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
        let mut samples: Vec<f64> = (0..runs)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    }

    fn round2(v: f64) -> f64 {
        (v * 100.0).round() / 100.0
    }

    /// Times one kernel at `size`³ across the three implementations.
    fn kernel_section(
        name: &str,
        size: usize,
        runs: usize,
        naive: impl Fn(&Matrix, &Matrix) -> Matrix,
        blocked: impl Fn(&Matrix, &Matrix) -> Matrix,
    ) -> serde_json::Value {
        let mut rng = StdRng::seed_from_u64(42);
        let a = uniform_in(size, size, -1.0, 1.0, &mut rng);
        let b = uniform_in(size, size, -1.0, 1.0, &mut rng);

        let naive_ms = median_ms(runs, || naive(&a, &b));
        let sweep: Vec<(usize, f64)> = super::SWEEP_WIDTHS
            .iter()
            .map(|&t| (t, parallel::with_thread_count(t, || median_ms(runs, || blocked(&a, &b)))))
            .collect();
        let blocked_serial_ms = sweep[0].1;
        let blocked_4t_ms = sweep[2].1;

        fd_obs::event(
            fd_obs::Level::Info,
            "bench.kernel",
            &[
                ("kernel", name.into()),
                ("size", size.into()),
                ("naive_ms", naive_ms.into()),
                ("blocked_serial_ms", blocked_serial_ms.into()),
                ("blocked_parallel_4t_ms", blocked_4t_ms.into()),
            ],
        );
        serde_json::json!({
            "size": size,
            "naive_serial_ms": round2(naive_ms),
            "blocked_serial_ms": round2(blocked_serial_ms),
            "blocked_parallel_4t_ms": round2(blocked_4t_ms),
            "speedup_blocked_serial_vs_naive": round2(naive_ms / blocked_serial_ms),
            "speedup_parallel_4t_vs_naive": round2(naive_ms / blocked_4t_ms),
            "thread_scaling": super::scaling_curve(&sweep),
        })
    }

    /// Times a full FakeDetector inference step (diffusion + heads) on a
    /// small synthetic corpus, serial and row-parallel.
    fn model_section() -> serde_json::Value {
        use fd_bench::{prepare, SweepConfig};
        use fd_core::{FakeDetector, FakeDetectorConfig};
        use fd_data::{ExperimentContext, ExplicitFeatures, LabelMode};

        let config = SweepConfig { scale: 0.05, folds: 1, ..SweepConfig::default() };
        let prepared = prepare(&config);
        let (train, _test) = prepared.split(0, 1.0, config.seed);
        let explicit = ExplicitFeatures::extract(&prepared.corpus, &prepared.tokenized, &train, 60);
        let ctx = ExperimentContext {
            corpus: &prepared.corpus,
            tokenized: &prepared.tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed: 3,
        };
        let model_cfg = FakeDetectorConfig { epochs: 1, ..FakeDetectorConfig::default() };
        let trained = FakeDetector::new(model_cfg).fit(&ctx);
        let corpus = &prepared.corpus;

        let sweep: Vec<(usize, f64)> = super::SWEEP_WIDTHS
            .iter()
            .map(|&t| (t, parallel::with_thread_count(t, || median_ms(3, || trained.predict(&ctx)))))
            .collect();
        let batched_serial_ms = sweep[0].1;
        let batched_4t_ms = sweep[2].1;
        fd_obs::event(
            fd_obs::Level::Info,
            "bench.model_predict",
            &[
                ("articles", corpus.articles.len().into()),
                ("batched_serial_ms", batched_serial_ms.into()),
                ("batched_parallel_4t_ms", batched_4t_ms.into()),
            ],
        );
        serde_json::json!({
            "articles": corpus.articles.len(),
            "batched_serial_ms": round2(batched_serial_ms),
            "batched_parallel_4t_ms": round2(batched_4t_ms),
            "thread_scaling": super::scaling_curve(&sweep),
        })
    }

    pub fn write_report(out_path: &str) {
        let report = serde_json::json!({
            "generator": "cargo run --release -p fd-bench --bin report -- tensor",
            "machine_threads": super::machine_threads(),
            "fd_threads_env": std::env::var("FD_THREADS").unwrap_or_default(),
            "fd_threads_resolved": parallel::current_threads(),
            "simd_level": fd_tensor::simd_level().name(),
            "matmul": kernel_section("matmul", 512, 5, Matrix::matmul_naive, Matrix::matmul),
            "transpose_matmul": kernel_section(
                "transpose_matmul",
                512,
                5,
                Matrix::transpose_matmul_naive,
                Matrix::transpose_matmul,
            ),
            "matmul_transpose": kernel_section(
                "matmul_transpose",
                512,
                5,
                Matrix::matmul_transpose_naive,
                Matrix::matmul_transpose,
            ),
            "model_predict": model_section(),
        });
        let json = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("{out_path}: {e}"));
        fd_obs::event(fd_obs::Level::Info, "report.wrote", &[("path", out_path.into())]);
    }
}
