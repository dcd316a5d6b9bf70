//! `fdctl` — command-line workflow around the fakedetector library.
//!
//! ```sh
//! fdctl generate --scale 0.05 --seed 42 --out corpus.json   # whole scales > 1 tile Table-1 shards
//! fdctl train    --corpus corpus.json --out model.json [--mode binary|multi] [--theta 0.5] [--epochs 60]
//!                [--seed 42] [--explicit-dim 60] [--seq-len 12] [--max-vocab 6000] [--obs-out obs.json]
//!                [--checkpoint-dir ckpts/] [--checkpoint-every 5] [--checkpoint-keep 3] [--resume]
//!                [--batch-size 256 [--fanout 8] [--rounds 2]]  # neighbour-sampled minibatch mode
//! fdctl train    --scale 8 --out model.json [...]             # synthetic corpus, no corpus file
//! fdctl predict  --corpus corpus.json --model model.json [--out predictions.json]
//! fdctl evaluate --corpus corpus.json --model model.json
//! fdctl score    --corpus corpus.json --model model.json --text "..." [--creator 3] [--subjects 0,2]
//! fdctl serve    --corpus corpus.json --model model.json [--addr 127.0.0.1:7878] [--max-batch 32] [--max-delay-ms 2]
//!                [--queue-bound 1024] [--request-timeout-ms 10000] [--max-body-bytes 1048576]
//!                [--max-ingest-nodes 256] [--shard i/n]
//! fdctl route    --shards "127.0.0.1:7878,127.0.0.1:7879;127.0.0.1:7880,127.0.0.1:7881"
//!                [--addr 127.0.0.1:7800] [--spool-dir jobs/] [--deadline-ms 5000] [--inflight-bound 256]
//!                [--attempt-timeout-ms 2000] [--hedge-delay-ms 300] [--max-attempts 3] [--backoff-ms 25]
//!                [--breaker-threshold 3] [--breaker-open-ms 1000] [--retry-ratio 0.1]
//!                [--probe-interval-ms 200] [--job-chunk 64] [--job-chunk-deadline-ms 60000]
//!                [--max-body-bytes 8388608]
//! fdctl ingest   --addr 127.0.0.1:7878 --payload batch.json        # POST a prepared IngestBatch
//! fdctl ingest   --addr 127.0.0.1:7878 --text "..." --creator 3 [--subjects 0,2]  # one article inline
//! fdctl ckpt     inspect ckpts/ckpt-00000005.fdck
//! fdctl trace    summarize trace.json
//! fdctl analyze  --corpus corpus.json
//! fdctl obs      [--out OBS_train.json] [--scale 0.02] [--seed 42] [--epochs 8] [--check [--bench BENCH_train.json]]
//! ```
//!
//! A command refuses any option not listed for it above, naming it,
//! before it loads anything.
//!
//! `serve` reloads the bundle from disk on `SIGHUP` without dropping
//! in-flight requests; `train --checkpoint-dir … --resume` continues a
//! killed run bit-exactly (see OPERATIONS.md, "Checkpoints & recovery").
//!
//! `route` fronts N shards × M replicas of `serve --shard i/n` with
//! health-probed failover, hedged retries under a token-bucket budget,
//! per-replica circuit breakers, and a crash-safe bulk-scoring job
//! queue (see OPERATIONS.md, "Distributed serving").
//!
//! The train bundle ([`TrainBundle`], shared with `fd-serve`) embeds
//! everything needed to rebuild the feature pipeline (train indices,
//! feature width, sequence length, label mode), so `predict`/`score`/
//! `serve` only need the corpus file and the bundle. `serve` flags and
//! env vars are documented in OPERATIONS.md.

use fakedetector::prelude::*;
use fakedetector::serve::{parse_mode, BundleSplit, ServeConfig, ServeModel, Server, TrainBundle};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: fdctl <generate|train|predict|evaluate|score|serve|route|ingest|ckpt|trace|analyze|obs> [options]"
        );
        return ExitCode::FAILURE;
    };
    let result = if command == "ckpt" {
        cmd_ckpt(&args[1..])
    } else if command == "trace" {
        cmd_trace(&args[1..])
    } else {
        match COMMANDS.iter().find(|(name, ..)| name == command) {
            Some((_, run, keys)) => parse_options(&args[1..], keys).and_then(|opts| run(&opts)),
            None => Err(format!("unknown command {command}")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fdctl {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

type Handler = fn(&HashMap<String, String>) -> Result<(), String>;

/// Each `--key value` command, its handler, and the keys it reads (the
/// usage block above lists them).
const COMMANDS: &[(&str, Handler, &[&str])] = &[
    ("generate", cmd_generate, &["scale", "seed", "out"]),
    ("train", cmd_train, &[
        "corpus", "scale", "out", "mode", "theta", "seed", "epochs", "explicit-dim", "seq-len",
        "max-vocab", "obs-out", "checkpoint-dir", "checkpoint-every", "checkpoint-keep", "resume",
        "batch-size", "fanout", "rounds",
    ]),
    ("predict", cmd_predict, &["corpus", "model", "out"]),
    ("evaluate", cmd_evaluate, &["corpus", "model"]),
    ("score", cmd_score, &["corpus", "model", "text", "creator", "subjects"]),
    ("serve", cmd_serve, &[
        "corpus", "model", "addr", "max-batch", "max-delay-ms", "queue-bound",
        "request-timeout-ms", "max-body-bytes", "max-ingest-nodes", "shard",
    ]),
    ("route", cmd_route, &[
        "shards", "addr", "spool-dir", "deadline-ms", "inflight-bound", "max-body-bytes",
        "probe-interval-ms", "job-chunk", "job-chunk-deadline-ms", "attempt-timeout-ms",
        "hedge-delay-ms", "max-attempts", "backoff-ms", "breaker-threshold", "breaker-open-ms",
        "retry-ratio",
    ]),
    ("ingest", cmd_ingest, &["addr", "payload", "text", "creator", "subjects"]),
    ("analyze", cmd_analyze, &["corpus"]),
    ("obs", cmd_obs, &["out", "scale", "seed", "epochs", "check", "bench"]),
];

/// Parses `--key value` / `--flag` pairs, refusing any key outside
/// `known` so a misspelt or retired option fails instead of being
/// silently ignored.
fn parse_options(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches("--").to_string();
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown option {} (accepted: --{})", args[i], known.join(", --")));
        }
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            opts.insert(key, args[i + 1].clone());
            i += 2;
        } else {
            opts.insert(key, "true".to_string());
            i += 1;
        }
    }
    Ok(opts)
}

fn opt_parse<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("--{key}: cannot parse {raw:?}")),
    }
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("--{key} is required"))
}

fn load_corpus(opts: &HashMap<String, String>) -> Result<Corpus, String> {
    let path = required(opts, "corpus")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Corpus::from_json(&json)
}

/// Checks a `--scale` value the way [`generate_at_scale`] will: scales
/// above 1 tile whole Table-1 shards, so they must be whole numbers.
fn validate_scale(scale: f64) -> Result<(), String> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale {scale}: must be positive"));
    }
    if scale > 1.0 && (scale - scale.round()).abs() > 1e-9 {
        return Err(format!("--scale {scale}: scales above 1 must be whole shard counts"));
    }
    Ok(())
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let scale: f64 = opt_parse(opts, "scale", 0.05)?;
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let out = required(opts, "out")?;
    validate_scale(scale)?;
    let corpus = generate_at_scale(&GeneratorConfig::politifact(), scale, seed);
    std::fs::write(out, corpus.to_json()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "wrote {out}: {} articles / {} creators / {} subjects",
        corpus.articles.len(),
        corpus.creators.len(),
        corpus.subjects.len()
    );
    Ok(())
}

fn pipeline(
    corpus: &Corpus,
    train: &TrainSets,
    explicit_dim: usize,
    seq_len: usize,
    max_vocab: usize,
) -> (TokenizedCorpus, ExplicitFeatures) {
    let tokenized = TokenizedCorpus::build(corpus, seq_len, max_vocab);
    let explicit = ExplicitFeatures::extract(corpus, &tokenized, train, explicit_dim);
    (tokenized, explicit)
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), String> {
    let fit_options = fakedetector::core::FitOptions {
        checkpoint_dir: opts.get("checkpoint-dir").map(std::path::PathBuf::from),
        checkpoint_every: opt_parse(opts, "checkpoint-every", 5)?,
        checkpoint_keep: opt_parse(opts, "checkpoint-keep", 3)?,
        resume: opts.contains_key("resume"),
    };
    if fit_options.resume && fit_options.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    let out = required(opts, "out")?;
    let mode = parse_mode(opts.get("mode").map(String::as_str).unwrap_or("binary"))?;
    let theta: f64 = opt_parse(opts, "theta", 1.0)?;
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let epochs: usize = opt_parse(opts, "epochs", 60)?;
    if epochs == 0 {
        return Err("--epochs must be at least 1".into());
    }
    let explicit_dim: usize = opt_parse(opts, "explicit-dim", 60)?;
    let seq_len: usize = opt_parse(opts, "seq-len", 12)?;
    let max_vocab: usize = opt_parse(opts, "max-vocab", 6000)?;
    // `--batch-size` selects the neighbour-sampled minibatch trainer;
    // `--fanout`/`--rounds` refine it and are meaningless without it.
    let train_mode = if opts.contains_key("batch-size") {
        let batch_size: usize = opt_parse(opts, "batch-size", 256)?;
        let fanout: usize = opt_parse(opts, "fanout", 8)?;
        let rounds: usize = opt_parse(opts, "rounds", 2)?;
        if batch_size == 0 || rounds == 0 {
            return Err("--batch-size and --rounds must be at least 1".into());
        }
        TrainMode::Sampled { batch_size, fanout, rounds }
    } else if opts.contains_key("fanout") || opts.contains_key("rounds") {
        return Err("--fanout/--rounds need --batch-size (sampled minibatch mode)".into());
    } else {
        TrainMode::Full
    };
    // `--corpus file` trains on a saved corpus; `--scale N` generates a
    // synthetic Table-1-shaped one in memory (whole scales > 1 tile
    // that many shards — the bounded-memory path scale_smoke.sh
    // exercises at 100k+ articles).
    let corpus = if opts.contains_key("corpus") {
        load_corpus(opts)?
    } else if opts.contains_key("scale") {
        let scale: f64 = opt_parse(opts, "scale", 1.0)?;
        validate_scale(scale)?;
        let corpus = generate_at_scale(&GeneratorConfig::politifact(), scale, seed);
        eprintln!(
            "generated synthetic corpus at scale {scale}: {} articles / {} creators / {} subjects",
            corpus.articles.len(),
            corpus.creators.len(),
            corpus.subjects.len()
        );
        corpus
    } else {
        return Err("--corpus or --scale is required".into());
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let folds = [
        CvSplits::new(corpus.articles.len(), 10.min(corpus.articles.len()), &mut rng),
        CvSplits::new(corpus.creators.len(), 10.min(corpus.creators.len()), &mut rng),
        CvSplits::new(corpus.subjects.len(), 10.min(corpus.subjects.len()), &mut rng),
    ];
    let train = TrainSets {
        articles: sample_ratio(&folds[0].fold(0).0, theta, &mut rng),
        creators: sample_ratio(&folds[1].fold(0).0, theta, &mut rng),
        subjects: sample_ratio(&folds[2].fold(0).0, theta, &mut rng),
    };

    let (tokenized, explicit) = pipeline(&corpus, &train, explicit_dim, seq_len, max_vocab);
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode,
        seed,
    };
    eprintln!(
        "training on {} articles / {} creators / {} subjects ({epochs} epochs)…",
        train.articles.len(),
        train.creators.len(),
        train.subjects.len()
    );
    if let TrainMode::Sampled { batch_size, fanout, rounds } = train_mode {
        eprintln!(
            "neighbour-sampled minibatches: batch_size {batch_size}, fanout {fanout}, \
             {rounds} hop(s)"
        );
    }
    if let Some(dir) = &fit_options.checkpoint_dir {
        eprintln!(
            "checkpointing to {} every {} epoch(s), keeping {}{}",
            dir.display(),
            fit_options.checkpoint_every.max(1),
            fit_options.checkpoint_keep.max(2),
            if fit_options.resume { ", resuming from the newest valid checkpoint" } else { "" }
        );
    }
    let config = FakeDetectorConfig { epochs, train_mode, ..FakeDetectorConfig::default() };
    let trained = FakeDetector::new(config).fit_with(&ctx, &fit_options)?;
    eprintln!(
        "loss {:.2} -> {:.2}",
        trained.report().losses.first().unwrap(),
        trained.report().losses.last().unwrap()
    );

    let bundle = TrainBundle {
        model_json: trained.to_json(),
        train: BundleSplit {
            articles: train.articles,
            creators: train.creators,
            subjects: train.subjects,
        },
        mode: fakedetector::serve::mode_name(mode).into(),
        explicit_dim,
        seq_len,
        max_vocab,
    };
    let json = serde_json::to_string(&bundle).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    if let Some(obs_out) = opts.get("obs-out") {
        std::fs::write(obs_out, fakedetector::obs::snapshot())
            .map_err(|e| format!("{obs_out}: {e}"))?;
        eprintln!("wrote {obs_out}");
    }
    flush_trace()
}

fn load_bundle(
    opts: &HashMap<String, String>,
    corpus: &Corpus,
) -> Result<
    (
        fakedetector::core::TrainedFakeDetector,
        TrainSets,
        LabelMode,
        TokenizedCorpus,
        ExplicitFeatures,
    ),
    String,
> {
    let path = required(opts, "model")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let bundle: TrainBundle = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let trained = fakedetector::core::TrainedFakeDetector::from_json(&bundle.model_json)?;
    let train: TrainSets = bundle.train.into();
    let mode = parse_mode(&bundle.mode)?;
    let (tokenized, explicit) =
        pipeline(corpus, &train, bundle.explicit_dim, bundle.seq_len, bundle.max_vocab);
    Ok((trained, train, mode, tokenized, explicit))
}

fn cmd_predict(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let (trained, train, mode, tokenized, explicit) = load_bundle(opts, &corpus)?;
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode,
        seed: 0,
    };
    let predictions = trained.predict(&ctx);
    let payload = serde_json::json!({
        "mode": if mode == LabelMode::Binary { "binary" } else { "multi" },
        "articles": predictions.articles,
        "creators": predictions.creators,
        "subjects": predictions.subjects,
    });
    match opts.get("out") {
        Some(out) => {
            std::fs::write(out, payload.to_string()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => println!("{payload}"),
    }
    Ok(())
}

fn cmd_evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    use fakedetector::metrics::{classification_report, ConfusionMatrix};
    use fakedetector::prelude::NodeType;

    let corpus = load_corpus(opts)?;
    let (trained, train, mode, tokenized, explicit) = load_bundle(opts, &corpus)?;
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode,
        seed: 0,
    };
    let predictions = trained.predict(&ctx);
    let binary_labels = ["fake", "credible"];
    let multi_labels: Vec<&str> = Credibility::ALL.iter().map(|l| l.name()).collect();
    let labels: Vec<&str> = match mode {
        LabelMode::Binary => binary_labels.to_vec(),
        LabelMode::MultiClass => multi_labels.clone(),
    };
    for (ty, name) in [
        (NodeType::Article, "articles"),
        (NodeType::Creator, "creators"),
        (NodeType::Subject, "subjects"),
    ] {
        let trained_set: std::collections::HashSet<usize> =
            train.for_type(ty).iter().copied().collect();
        let mut cm = ConfusionMatrix::new(mode.n_classes());
        let n = match ty {
            NodeType::Article => corpus.articles.len(),
            NodeType::Creator => corpus.creators.len(),
            NodeType::Subject => corpus.subjects.len(),
        };
        for idx in 0..n {
            if trained_set.contains(&idx) {
                continue;
            }
            let truth = match ty {
                NodeType::Article => corpus.articles[idx].label,
                NodeType::Creator => corpus.creators[idx].label,
                NodeType::Subject => corpus.subjects[idx].label,
            };
            cm.record(mode.target(truth), predictions.for_type(ty)[idx]);
        }
        println!("== held-out {name} ({} entities) ==", cm.total());
        println!("{}", classification_report(&cm, &labels));
    }
    Ok(())
}

fn cmd_score(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let (trained, train, mode, tokenized, explicit) = load_bundle(opts, &corpus)?;
    let text = required(opts, "text")?;
    let creator: Option<usize> = match opts.get("creator") {
        Some(raw) => Some(raw.parse().map_err(|_| "--creator: not an index".to_string())?),
        None => None,
    };
    let subjects: Vec<usize> = match opts.get("subjects") {
        Some(raw) => raw
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("--subjects: bad index {s:?}")))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode,
        seed: 0,
    };
    let probs = trained.score_new_article(&ctx, text, creator, &subjects)?;
    match mode {
        LabelMode::Binary => {
            println!("p(credible) = {:.4}, p(fake) = {:.4}", probs[1], probs[0]);
        }
        LabelMode::MultiClass => {
            for (label, p) in Credibility::ALL.iter().zip(&probs) {
                println!("{:<15} {:.4}", label.name(), p);
            }
        }
    }
    Ok(())
}

/// Starts the inference server and blocks until SIGINT/SIGTERM, then
/// shuts down gracefully (drains the batching queue, completes every
/// in-flight request). All flags and the endpoint schemas are
/// documented in OPERATIONS.md.
fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus_path = required(opts, "corpus")?;
    let model_path = required(opts, "model")?;
    let shard = match opts.get("shard") {
        Some(raw) => Some(parse_shard_spec(raw)?),
        None => None,
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: opts.get("addr").cloned().unwrap_or(defaults.addr),
        max_batch: opt_parse(opts, "max-batch", defaults.max_batch)?,
        max_delay_ms: opt_parse(opts, "max-delay-ms", defaults.max_delay_ms)?,
        queue_bound: opt_parse(opts, "queue-bound", defaults.queue_bound)?,
        request_timeout_ms: opt_parse(opts, "request-timeout-ms", defaults.request_timeout_ms)?,
        max_body_bytes: opt_parse(opts, "max-body-bytes", defaults.max_body_bytes)?,
        max_ingest_nodes: opt_parse(opts, "max-ingest-nodes", defaults.max_ingest_nodes)?,
        shard,
    };
    if config.max_batch == 0 || config.queue_bound == 0 {
        return Err("--max-batch and --queue-bound must be at least 1".into());
    }

    eprintln!("loading {corpus_path} + {model_path}…");
    let model = Arc::new(ServeModel::load(corpus_path, model_path)?);
    let (articles, creators, subjects) = model.corpus_sizes();
    eprintln!("corpus: {articles} articles / {creators} creators / {subjects} subjects");
    if let Some((index, total)) = shard {
        // Sharding partitions ownership by `id % total`; a corpus whose
        // smallest entity type has fewer entities than shards would
        // leave some shards owning nothing of that type — refuse it
        // cleanly rather than serve a degenerate tier.
        let smallest = articles.min(creators).min(subjects);
        if smallest < total {
            return Err(format!(
                "--shard {index}/{total}: corpus has only {smallest} entities of its smallest \
                 type ({articles} articles / {creators} creators / {subjects} subjects), fewer \
                 than {total} shards — use fewer shards or a larger corpus"
            ));
        }
        eprintln!("shard worker {index}/{total}: owns entities with id % {total} == {index}");
    }

    fakedetector::serve::install_signal_handlers();
    let server = Server::start(model, &config).map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "listening on {} (max_batch {}, max_delay {}ms, queue bound {})",
        server.local_addr(),
        config.max_batch,
        config.max_delay_ms,
        config.queue_bound
    );
    eprintln!(
        "endpoints: POST /v1/predict, POST /v1/predict_batch, POST /v1/ingest, GET /healthz, GET /metrics"
    );
    eprintln!(
        "SIGHUP reloads {model_path} without dropping in-flight requests (discards ingested nodes)"
    );
    while !fakedetector::serve::signal_received() {
        if fakedetector::serve::take_reload_request() {
            // Load the new bundle fully before swapping; a bad file on
            // disk must leave the old model serving untouched.
            eprintln!("SIGHUP: reloading {corpus_path} + {model_path}…");
            match ServeModel::load(corpus_path, model_path) {
                Ok(new_model) => {
                    server.swap_model(Arc::new(new_model));
                    eprintln!("reload complete");
                }
                Err(e) => eprintln!("reload failed, keeping the current model: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("signal received, draining…");
    server.shutdown();
    eprintln!("stopped");
    flush_trace()
}

/// Parses `--shard i/n` into `(index, total)`. All failure modes exit
/// with a clear message via `Err` rather than panicking: malformed
/// specs, a zero shard count, and an index outside `0..n`.
fn parse_shard_spec(raw: &str) -> Result<(usize, usize), String> {
    let (i, n) = raw
        .split_once('/')
        .ok_or_else(|| format!("--shard {raw:?}: expected the form i/n, e.g. --shard 0/2"))?;
    let index: usize = i
        .trim()
        .parse()
        .map_err(|_| format!("--shard {raw:?}: shard index {i:?} is not a number"))?;
    let total: usize = n
        .trim()
        .parse()
        .map_err(|_| format!("--shard {raw:?}: shard count {n:?} is not a number"))?;
    if total == 0 {
        return Err(format!("--shard {raw:?}: shard count must be at least 1"));
    }
    if index >= total {
        return Err(format!(
            "--shard {raw:?}: shard index {index} is out of range for {total} shard(s) \
             (valid: 0..={})",
            total - 1
        ));
    }
    Ok((index, total))
}

/// Starts the sharded-tier router and blocks until SIGINT/SIGTERM.
/// `--shards` lays out the tier: `;` separates shards, `,` separates a
/// shard's replicas (each a `host:port` running `fdctl serve --shard
/// i/n`). Failure-handling tunables map one-to-one onto
/// [`fd_router::DispatchConfig`]; the runbook in OPERATIONS.md
/// ("Distributed serving") explains how to size them.
fn cmd_route(opts: &HashMap<String, String>) -> Result<(), String> {
    use fd_router::{Router, RouterConfig, Topology};
    use std::time::Duration;

    let spec = required(opts, "shards")?;
    let topology = Topology::parse(spec)?;
    let mut config = RouterConfig::new(topology);
    config.addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7800".to_string());
    config.deadline_ms = opt_parse(opts, "deadline-ms", config.deadline_ms)?;
    config.inflight_bound = opt_parse(opts, "inflight-bound", config.inflight_bound)?;
    config.max_body_bytes = opt_parse(opts, "max-body-bytes", config.max_body_bytes)?;
    config.probe_interval_ms = opt_parse(opts, "probe-interval-ms", config.probe_interval_ms)?;
    config.spool_dir = opts.get("spool-dir").map(std::path::PathBuf::from);
    config.job_chunk = opt_parse(opts, "job-chunk", config.job_chunk)?;
    config.job_chunk_deadline_ms =
        opt_parse(opts, "job-chunk-deadline-ms", config.job_chunk_deadline_ms)?;
    let d = &mut config.dispatch;
    d.attempt_timeout =
        Duration::from_millis(opt_parse(opts, "attempt-timeout-ms", millis(d.attempt_timeout))?);
    d.hedge_delay =
        Duration::from_millis(opt_parse(opts, "hedge-delay-ms", millis(d.hedge_delay))?);
    d.max_attempts = opt_parse(opts, "max-attempts", d.max_attempts)?;
    d.backoff_base = Duration::from_millis(opt_parse(opts, "backoff-ms", millis(d.backoff_base))?);
    d.breaker_threshold = opt_parse(opts, "breaker-threshold", d.breaker_threshold)?;
    d.breaker_open =
        Duration::from_millis(opt_parse(opts, "breaker-open-ms", millis(d.breaker_open))?);
    d.retry_ratio = opt_parse(opts, "retry-ratio", d.retry_ratio)?;
    if config.inflight_bound == 0 || config.job_chunk == 0 {
        return Err("--inflight-bound and --job-chunk must be at least 1".into());
    }
    if config.dispatch.max_attempts == 0 || config.dispatch.breaker_threshold == 0 {
        return Err("--max-attempts and --breaker-threshold must be at least 1".into());
    }
    if !config.dispatch.retry_ratio.is_finite() || config.dispatch.retry_ratio < 0.0 {
        return Err(format!(
            "--retry-ratio {}: must be a finite non-negative number",
            config.dispatch.retry_ratio
        ));
    }

    let shards = config.topology.shard_count();
    let replicas = config.topology.replica_count();
    let spool = config.spool_dir.clone();
    fakedetector::serve::install_signal_handlers();
    let router = Router::start(config).map_err(|e| format!("route: {e}"))?;
    eprintln!(
        "routing on {} across {shards} shard(s), {replicas} replica(s)",
        router.local_addr()
    );
    match &spool {
        Some(dir) => eprintln!("bulk jobs spooled to {} (POST /v1/jobs)", dir.display()),
        None => eprintln!("bulk jobs disabled (no --spool-dir)"),
    }
    eprintln!(
        "endpoints: POST /v1/predict, POST /v1/predict_batch, POST /v1/jobs, \
         GET /v1/jobs[/<id>[/results]], GET /healthz, GET /metrics"
    );
    while !fakedetector::serve::signal_received() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("signal received, draining…");
    router.shutdown();
    eprintln!("stopped");
    flush_trace()
}

/// `Duration` → whole milliseconds for flag defaults.
fn millis(d: std::time::Duration) -> u64 {
    d.as_millis() as u64
}

/// Posts an ingest batch to a running `fdctl serve` instance and prints
/// the server's report. Either `--payload batch.json` (a raw
/// [`IngestBatch`](fakedetector::serve::IngestBatch) document) or a
/// single inline article via `--text`/`--creator`/`--subjects`.
fn cmd_ingest(opts: &HashMap<String, String>) -> Result<(), String> {
    use fakedetector::serve::{HttpClient, IngestArticle, IngestBatch};

    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let body = match (opts.get("payload"), opts.get("text")) {
        (Some(_), Some(_)) => {
            return Err("provide either --payload or --text, not both".into());
        }
        (Some(path), None) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        (None, Some(text)) => {
            let creator: usize = required(opts, "creator")?
                .parse()
                .map_err(|_| "--creator: not an index".to_string())?;
            let subjects: Vec<usize> = match opts.get("subjects") {
                Some(raw) => raw
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("--subjects: bad index {s:?}")))
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            let batch = IngestBatch {
                creators: Vec::new(),
                subjects: Vec::new(),
                articles: vec![IngestArticle { text: text.clone(), creator, subjects }],
            };
            serde_json::to_string(&batch).map_err(|e| format!("encode batch: {e}"))?
        }
        (None, None) => return Err("--payload file.json or --text \"...\" is required".into()),
    };

    let mut client = HttpClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_timeout(std::time::Duration::from_secs(60))
        .map_err(|e| format!("set timeout: {e}"))?;
    let (status, response) = client.post("/v1/ingest", &body).map_err(|e| format!("post: {e}"))?;
    println!("{response}");
    if status == 200 {
        Ok(())
    } else {
        Err(format!("server returned HTTP {status}"))
    }
}

/// `fdctl ckpt inspect <file>`: prints the checkpoint header, epoch
/// cursor, per-section checksums, and overall validity. Exits non-zero
/// when the file fails verification, so scripts can gate on it.
fn cmd_ckpt(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("inspect") => {
            let [_, path] = args else {
                return Err("usage: fdctl ckpt inspect <file.fdck>".into());
            };
            let path = std::path::Path::new(path);
            let report = fakedetector::ckpt::inspect(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            print!("{}", report.render(path));
            if report.valid() {
                Ok(())
            } else {
                Err("checkpoint failed verification".into())
            }
        }
        Some(other) => Err(format!("unknown ckpt subcommand {other} (expected: inspect)")),
        None => Err("usage: fdctl ckpt inspect <file.fdck>".into()),
    }
}

/// One span pulled out of a Chrome `trace_event` file: enough to
/// reconstruct the parent/child tree and attribute self-time.
struct TraceSpan {
    name: String,
    dur_us: u64,
    span_id: u64,
    parent_id: u64,
    trace_id: u64,
}

/// Parses a Chrome `trace_event` JSON file (as written by
/// `FD_TRACE_FILE`) into flat spans. Errors on anything malformed —
/// this doubles as the well-formedness check `fdctl obs --check` runs.
fn parse_trace_file(path: &str) -> Result<Vec<TraceSpan>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = parsed["traceEvents"]
        .as_seq()
        .ok_or_else(|| format!("{path}: no traceEvents array"))?;
    let hex_id = |content: Option<&serde::Content>, what: &str, i: usize| -> Result<u64, String> {
        let s = content
            .and_then(serde::Content::as_str)
            .ok_or_else(|| format!("{path}: event {i} missing args.{what}"))?;
        u64::from_str_radix(s, 16)
            .map_err(|_| format!("{path}: event {i} args.{what} is not a hex id: {s:?}"))
    };
    let mut spans = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let fields = event.as_map().ok_or_else(|| format!("{path}: event {i} is not an object"))?;
        let get = |key: &str| serde::content_get(fields, key);
        let name = get("name")
            .and_then(serde::Content::as_str)
            .ok_or_else(|| format!("{path}: event {i} has no name"))?;
        if get("ph").and_then(serde::Content::as_str) != Some("X") {
            return Err(format!("{path}: event {i} is not a complete-span (ph=X) event"));
        }
        let ts = get("ts").and_then(serde::Content::as_u64);
        let dur = get("dur").and_then(serde::Content::as_u64);
        let (Some(_), Some(dur_us)) = (ts, dur) else {
            return Err(format!("{path}: event {i} missing numeric ts/dur"));
        };
        let args =
            get("args").and_then(serde::Content::as_map).ok_or_else(|| {
                format!("{path}: event {i} has no args (trace/span/parent ids)")
            })?;
        let arg = |key: &str| serde::content_get(args, key);
        spans.push(TraceSpan {
            name: name.to_string(),
            dur_us,
            span_id: hex_id(arg("span"), "span", i)?,
            parent_id: hex_id(arg("parent"), "parent", i)?,
            trace_id: hex_id(arg("trace"), "trace", i)?,
        });
    }
    if spans.is_empty() {
        return Err(format!("{path}: traceEvents is empty — was FD_TRACE on?"));
    }
    Ok(spans)
}

/// Nearest-rank percentile of a sorted slice; `sorted` must be
/// non-empty.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `fdctl trace summarize <file>`: per-span-name profile of a Chrome
/// trace file — count, total and self time (total minus time spent in
/// child spans), and p50/p95/p99 of span duration. Self-time ranks the
/// table, so the phase actually burning the time tops it even when an
/// enclosing span (`train.fit`, `request`) covers the whole run.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let [_, path] = args else {
                return Err("usage: fdctl trace summarize <trace.json>".into());
            };
            let spans = parse_trace_file(path)?;

            // Children's durations, keyed by (trace, parent span) —
            // subtracted from each parent to get self-time. Saturating:
            // clock skew between a parent's recorded window and its
            // children must not wrap.
            let mut child_time: HashMap<(u64, u64), u64> = HashMap::new();
            for span in &spans {
                *child_time.entry((span.trace_id, span.parent_id)).or_default() += span.dur_us;
            }

            struct NameStats {
                count: u64,
                total_us: u64,
                self_us: u64,
                durs: Vec<u64>,
            }
            let mut by_name: HashMap<&str, NameStats> = HashMap::new();
            let mut traces = std::collections::HashSet::new();
            for span in &spans {
                traces.insert(span.trace_id);
                let nested =
                    child_time.get(&(span.trace_id, span.span_id)).copied().unwrap_or(0);
                let stats = by_name.entry(span.name.as_str()).or_insert_with(|| NameStats {
                    count: 0,
                    total_us: 0,
                    self_us: 0,
                    durs: Vec::new(),
                });
                stats.count += 1;
                stats.total_us += span.dur_us;
                stats.self_us += span.dur_us.saturating_sub(nested);
                stats.durs.push(span.dur_us);
            }

            let mut rows: Vec<(&str, NameStats)> = by_name.into_iter().collect();
            rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));

            println!("{} spans, {} traces in {path}", spans.len(), traces.len());
            println!(
                "{:<18} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10}",
                "span", "count", "total_ms", "self_ms", "p50_us", "p95_us", "p99_us"
            );
            for (name, mut stats) in rows {
                stats.durs.sort_unstable();
                println!(
                    "{:<18} {:>7} {:>12.3} {:>12.3} {:>10} {:>10} {:>10}",
                    name,
                    stats.count,
                    stats.total_us as f64 / 1000.0,
                    stats.self_us as f64 / 1000.0,
                    nearest_rank(&stats.durs, 0.50),
                    nearest_rank(&stats.durs, 0.95),
                    nearest_rank(&stats.durs, 0.99),
                );
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown trace subcommand {other} (expected: summarize)")),
        None => Err("usage: fdctl trace summarize <trace.json>".into()),
    }
}

/// Drains the trace ring to `FD_TRACE_FILE` (when set) and reports the
/// written path on stderr. Commands call this on their way out so a
/// traced run always leaves a loadable file behind.
fn flush_trace() -> Result<(), String> {
    if let Some(path) = fakedetector::obs::trace::flush()? {
        eprintln!("wrote trace {path}");
    }
    Ok(())
}

fn cmd_analyze(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    println!(
        "{} articles / {} creators / {} subjects / {} topic links",
        corpus.articles.len(),
        corpus.creators.len(),
        corpus.subjects.len(),
        corpus.graph.n_subject_links()
    );
    let true_count = corpus.articles.iter().filter(|a| a.label.is_true_group()).count();
    println!(
        "article label balance: {:.1}% true group",
        100.0 * true_count as f64 / corpus.articles.len() as f64
    );
    println!("\ntop subjects:");
    for t in subject_tallies(&corpus).into_iter().take(10) {
        println!(
            "  {:<14} {:>5} articles, {:>4.1}% true",
            t.name,
            t.total(),
            100.0 * t.true_fraction()
        );
    }
    println!("\nmost prolific creators:");
    let mut by_volume: Vec<usize> = (0..corpus.creators.len()).collect();
    by_volume.sort_by_key(|&u| std::cmp::Reverse(corpus.graph.articles_of_creator(u).len()));
    for &u in by_volume.iter().take(5) {
        println!(
            "  {:<28} {:>4} articles, rated {}",
            corpus.creators[u].name,
            corpus.graph.articles_of_creator(u).len(),
            corpus.creators[u].label.name()
        );
    }
    Ok(())
}

/// Runs an instrumented smoke train (generate → featurise → fit →
/// predict → predict_proba), follows it with a short neighbour-sampled
/// pass, and writes the metrics snapshot to `--out` (default
/// `OBS_train.json`). With `--check` it additionally validates the
/// `FD_LOG_FILE` JSONL log, the snapshot's expected keys (including the
/// sampler/minibatch histograms), and — when `--bench BENCH_train.json`
/// is given — that file's provenance header; CI runs this under
/// `FD_LOG=debug`.
fn cmd_obs(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").map(String::as_str).unwrap_or("OBS_train.json");
    let scale: f64 = opt_parse(opts, "scale", 0.02)?;
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let epochs: usize = opt_parse(opts, "epochs", 8)?;
    let check = opts.contains_key("check");

    let corpus = generate(&GeneratorConfig::politifact().scaled(scale), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let train = TrainSets {
        articles: CvSplits::new(corpus.articles.len(), 10.min(corpus.articles.len()), &mut rng)
            .fold(0)
            .0,
        creators: CvSplits::new(corpus.creators.len(), 10.min(corpus.creators.len()), &mut rng)
            .fold(0)
            .0,
        subjects: CvSplits::new(corpus.subjects.len(), 10.min(corpus.subjects.len()), &mut rng)
            .fold(0)
            .0,
    };
    let (tokenized, explicit) = pipeline(&corpus, &train, 60, 12, 6000);
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode: LabelMode::Binary,
        seed,
    };
    // No validation split: every configured epoch runs, so the snapshot
    // check below can pin the exact epoch count.
    let config =
        FakeDetectorConfig { epochs, validation_fraction: 0.0, ..FakeDetectorConfig::default() };
    let trained = FakeDetector::new(config).fit(&ctx);
    let predictions = trained.predict(&ctx);
    let _probas = trained.predict_proba(&ctx);
    eprintln!(
        "smoke train done: {} epochs, {} entities scored",
        trained.report().losses.len(),
        predictions.articles.len() + predictions.creators.len() + predictions.subjects.len()
    );

    // A short neighbour-sampled pass through the same pipeline, so the
    // sampler/minibatch instruments (`train.phase.sample_us`,
    // `train.sampler.*`) carry data the check can validate.
    let sampled_epochs = 2usize;
    let sampled_cfg = FakeDetectorConfig {
        epochs: sampled_epochs,
        validation_fraction: 0.0,
        train_mode: TrainMode::Sampled { batch_size: 16, fanout: 4, rounds: 2 },
        ..FakeDetectorConfig::default()
    };
    let sampled = FakeDetector::new(sampled_cfg).fit(&ctx);
    eprintln!("sampled smoke train done: {} epochs", sampled.report().losses.len());

    let snapshot = fakedetector::obs::snapshot();
    std::fs::write(out, &snapshot).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    flush_trace()?;
    if check {
        check_obs(&snapshot, epochs + sampled_epochs)?;
        if let Some(bench_path) = opts.get("bench") {
            check_bench_provenance(bench_path)?;
        }
        eprintln!("obs check passed");
    }
    Ok(())
}

/// Validates the provenance header of a `BENCH_train.json` written by
/// `report -- train`: the hardware fields every report must carry, the
/// corpus `scale`, and — when a scale sweep ran — per-point `scale`,
/// `articles` and `peak_rss_mb` so bounded-memory claims stay auditable.
fn check_bench_provenance(path: &str) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let bench =
        parsed.as_content().as_map().ok_or_else(|| format!("{path}: not a JSON object"))?;
    let field = |name: &str| -> Result<&serde::Content, String> {
        serde::content_get(bench, name)
            .ok_or_else(|| format!("{path}: provenance header missing {name:?}"))
    };
    if field("scale")?.as_f64().is_none() {
        return Err(format!("{path}: scale is not a number"));
    }
    if field("machine_threads")?.as_u64().is_none() {
        return Err(format!("{path}: machine_threads is not a number"));
    }
    for name in ["fd_threads_resolved", "simd_level", "generator"] {
        field(name)?;
    }
    let sweep = field("scale_sweep")?
        .as_seq()
        .ok_or_else(|| format!("{path}: scale_sweep is not an array"))?;
    for (i, point) in sweep.iter().enumerate() {
        let point =
            point.as_map().ok_or_else(|| format!("{path}: scale_sweep[{i}] not an object"))?;
        for name in ["scale", "articles", "sampled_epoch_ms", "peak_rss_mb"] {
            if serde::content_get(point, name).and_then(serde::Content::as_f64).is_none() {
                return Err(format!("{path}: scale_sweep[{i}] missing numeric {name}"));
            }
        }
    }
    eprintln!("bench provenance ok: {path} ({} scale-sweep points)", sweep.len());
    Ok(())
}

/// Asserts the snapshot and the `FD_LOG_FILE` JSONL log carry what an
/// instrumented smoke train must produce. `epochs` is the total across
/// both smoke passes (full-graph + neighbour-sampled). Fails with a
/// description of the first missing piece.
fn check_obs(snapshot: &str, epochs: usize) -> Result<(), String> {
    use fakedetector::obs::Level;

    let parsed: serde_json::Value =
        serde_json::from_str(snapshot).map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
    let counters = parsed["counters"].as_map().ok_or("snapshot missing counters")?;
    let counter = |name: &str| -> Result<u64, String> {
        serde::content_get(counters, name)
            .and_then(serde::Content::as_u64)
            .ok_or_else(|| format!("snapshot missing counter {name}"))
    };
    let train_epochs = counter("train.epochs")?;
    if train_epochs != epochs as u64 {
        return Err(format!("train.epochs = {train_epochs}, expected {epochs}"));
    }
    for name in ["tensor.matmul.calls", "infer.predictions", "infer.proba"] {
        if counter(name)? == 0 {
            return Err(format!("counter {name} is zero"));
        }
    }
    if counter("tensor.par.dispatch_serial")? + counter("tensor.par.dispatch_parallel")? == 0 {
        return Err("no tensor.par dispatches recorded".into());
    }
    let histograms = parsed["histograms"].as_map().ok_or("snapshot missing histograms")?;
    let histogram_count = |name: &str| -> Result<u64, String> {
        let hist = serde::content_get(histograms, name)
            .and_then(serde::Content::as_map)
            .ok_or_else(|| format!("snapshot missing histogram {name}"))?;
        serde::content_get(hist, "count")
            .and_then(serde::Content::as_u64)
            .ok_or_else(|| format!("histogram {name} has no count"))
    };
    for name in ["train.epoch_us", "train.fit_us", "infer.predict_us", "infer.proba_us"] {
        if histogram_count(name)? == 0 {
            return Err(format!("histogram {name} is empty"));
        }
    }
    // Phase profiler: every epoch times its forward/backward/clip/
    // optimizer phases. Validate and checkpoint phases are registered
    // but stay empty here — the smoke train runs without a validation
    // split or checkpoint dir.
    for phase in ["forward", "backward", "clip", "optimizer"] {
        let name = format!("train.phase.{phase}_us");
        let count = histogram_count(&name)?;
        if count < epochs as u64 {
            return Err(format!("{name} recorded {count} laps, expected at least {epochs}"));
        }
    }
    for phase in ["validate", "checkpoint"] {
        histogram_count(&format!("train.phase.{phase}_us"))?;
    }
    // The neighbour-sampled smoke pass must populate the sampler
    // instruments: per-batch sampling time, the realised per-list
    // fan-out, and the compacted subgraph sizes.
    for name in [
        "train.phase.sample_us",
        "train.sampler.fanout",
        "train.sampler.subgraph_nodes",
        "train.sampler.subgraph_edges",
    ] {
        if histogram_count(name)? == 0 {
            return Err(format!("histogram {name} is empty"));
        }
    }

    // The Prometheus exposition of this very registry must parse under
    // our own validator — CI's scrape-format safety net.
    let samples = fakedetector::obs::validate_prometheus(&fakedetector::obs::prometheus_text())
        .map_err(|e| format!("prometheus exposition invalid: {e}"))?;
    if samples == 0 {
        return Err("prometheus exposition carried no samples".into());
    }

    // When this run was traced to a file, the file must be well-formed
    // Chrome JSON carrying the training phases.
    if fakedetector::obs::trace::enabled() {
        if let Ok(trace_path) = std::env::var("FD_TRACE_FILE") {
            let spans = parse_trace_file(&trace_path)?;
            for required in ["train.fit", "train.epoch", "train.forward", "train.backward"] {
                if !spans.iter().any(|s| s.name == required) {
                    return Err(format!("{trace_path}: no {required} span recorded"));
                }
            }
        }
    }

    if fakedetector::obs::level() < Level::Info {
        return Err("--check needs FD_LOG=info or debug for per-epoch events".into());
    }
    let log_path = std::env::var("FD_LOG_FILE")
        .map_err(|_| "--check needs FD_LOG_FILE so the JSONL log can be validated")?;
    let log = std::fs::read_to_string(&log_path).map_err(|e| format!("{log_path}: {e}"))?;
    let mut epoch_events = 0usize;
    for (lineno, line) in log.lines().enumerate() {
        let event: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("{log_path}:{}: invalid JSON: {e}", lineno + 1))?;
        if event["ts_us"].as_u64().is_none() {
            return Err(format!("{log_path}:{}: event without ts_us", lineno + 1));
        }
        if event["event"].as_str() == Some("train.epoch") {
            epoch_events += 1;
        }
    }
    if epoch_events != epochs {
        return Err(format!("{log_path}: {epoch_events} train.epoch events, expected {epochs}"));
    }
    Ok(())
}
