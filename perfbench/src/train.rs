//! `train-full` and `train-sampled`: `FakeDetector::fit` at Table-1
//! scale with the default configuration, validation off.
//!
//! One fit runs warm-up epochs and then a fixed count of timed epochs
//! (the workload's work); then the fitted model predicts the whole
//! corpus a fixed number of times (its reads). Set-up is featurisation,
//! the warm-up epochs, and the fit's work outside its epochs. A traced
//! run repeats the fit and the reads with span collection on, requires
//! its loss curve and predictions to equal the untraced ones bit for
//! bit, and reads the fd-obs phase histograms and counters they moved.

use crate::inputs::{self, EXPLICIT_DIM, MAX_VOCAB, SEQ_LEN};
use crate::probe::{self, Snapshot, SpanCollector};
use crate::stats;
use crate::{Args, Outcome};
use fd_core::{FakeDetector, FakeDetectorConfig, TrainMode, TrainedFakeDetector};
use fd_data::{
    generate_at_scale, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    Predictions, TokenizedCorpus,
};
use std::time::Instant;

/// Untimed epochs at the start of the full-graph fit. In a fresh process
/// its first epochs run slow while the heap grows to the tape's ~1.5 GiB
/// (one run: 3.3, 2.8, 2.5 s, then 2.2–2.4 s); the third is within ~10%.
const FULL_WARMUP: usize = 2;
/// Timed epochs of the full-graph fit: single epochs spread widely on a
/// shared host, their mean over eight far less.
const FULL_EPOCHS: usize = 8;
/// Untimed epochs at the start of the sampled fit, whose peak is ~220 MiB.
const SAMPLED_WARMUP: usize = 1;
/// Timed epochs of the sampled fit (one epoch is ~7 passes over the graph).
const SAMPLED_EPOCHS: usize = 1;
/// Whole-corpus predictions after the fit; `read_ms` is their median.
const READ_PASSES: usize = 5;
/// The sampled configuration ROADMAP's "≤ 2× full-graph" target names.
const SAMPLED: TrainMode = TrainMode::Sampled {
    batch_size: 256,
    fanout: 8,
    rounds: 2,
};

/// What one measured fit left behind.
struct Fit {
    wall_s: f64,
    epoch_ms: Vec<f64>,
    losses: Vec<f32>,
    /// fd-obs registry movement over the fit.
    moved: Snapshot,
    minor_faults: u64,
    trained: TrainedFakeDetector,
}

fn timed_fit(ctx: &ExperimentContext<'_>, config: FakeDetectorConfig) -> Fit {
    let before = Snapshot::take();
    let faults = probe::minor_faults();
    let start = Instant::now();
    let trained = FakeDetector::new(config).fit(ctx);
    let wall_s = start.elapsed().as_secs_f64();
    let minor_faults = probe::minor_faults() - faults;
    let moved = Snapshot::take().since(&before);
    let report = trained.report();
    Fit {
        wall_s,
        epoch_ms: report.epoch_ms.clone(),
        losses: report.losses.clone(),
        moved,
        minor_faults,
        trained,
    }
}

/// What the reads after a fit left behind.
struct Reads {
    /// Wall time of each whole-corpus prediction.
    ms: Vec<f64>,
    /// The first pass's predictions.
    first: Predictions,
    /// Passes whose predictions differ from the first's.
    drifted: u64,
    /// fd-obs registry movement over the reads.
    moved: Snapshot,
}

fn timed_reads(trained: &TrainedFakeDetector, ctx: &ExperimentContext<'_>) -> Reads {
    let before = Snapshot::take();
    let (mut ms, mut first, mut drifted) = (Vec::with_capacity(READ_PASSES), None, 0);
    for _ in 0..READ_PASSES {
        let start = Instant::now();
        let predictions = trained.predict(ctx);
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        match &first {
            Some(f) => drifted += u64::from(*f != predictions),
            None => first = Some(predictions),
        }
    }
    Reads {
        ms,
        first: first.expect("at least one read pass"),
        drifted,
        moved: Snapshot::take().since(&before),
    }
}

pub fn run(args: &Args, sampled: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let corpus = generate_at_scale(&GeneratorConfig::politifact(), 1.0, args.seed);
    let counts = [
        corpus.articles.len(),
        corpus.creators.len(),
        corpus.subjects.len(),
    ];
    let train = inputs::train_split(args.seed, counts);

    let start = Instant::now();
    let tokenized = TokenizedCorpus::build(&corpus, SEQ_LEN, MAX_VOCAB);
    let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, EXPLICIT_DIM);
    let featurise_s = start.elapsed().as_secs_f64();
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode: LabelMode::Binary,
        seed: args.seed,
    };
    let (mode, warmup, epochs) = if sampled {
        (SAMPLED, SAMPLED_WARMUP, SAMPLED_EPOCHS)
    } else {
        (TrainMode::Full, FULL_WARMUP, FULL_EPOCHS)
    };
    let total = warmup + epochs;
    let config = FakeDetectorConfig {
        epochs: total,
        validation_fraction: 0.0,
        train_mode: mode,
        ..FakeDetectorConfig::default()
    };

    let jiffies = probe::cpu_jiffies();
    let fit = timed_fit(&ctx, config.clone());
    // The fit's high-water mark, read before the reads add theirs.
    let peak = probe::peak_rss_mib();
    let reads = timed_reads(&fit.trained, &ctx);
    out.note(
        "host_steal_pct",
        probe::steal_pct(jiffies, probe::cpu_jiffies()),
    );

    out.attempted = (total + READ_PASSES) as u64;
    out.failed = reads.drifted;
    out.check(fit.epoch_ms.len() == total, || {
        format!(
            "fit ran {} epochs, {total} were asked for",
            fit.epoch_ms.len()
        )
    });
    out.check(fit.moved.counter("train.epochs") == total as u64, || {
        format!(
            "train.epochs moved by {}, {total} were run",
            fit.moved.counter("train.epochs")
        )
    });
    out.check(fit.losses.iter().all(|l| l.is_finite()), || {
        "a training loss is not finite".into()
    });
    out.check(
        reads.moved.hist("infer.predict_us").count == READ_PASSES as u64,
        || {
            format!(
                "infer.predict_us moved by {} for {READ_PASSES} reads",
                reads.moved.hist("infer.predict_us").count
            )
        },
    );
    out.note("warmup_epochs", warmup);
    out.note("timed_epochs", epochs);
    out.note("epoch_ms", fit.epoch_ms.clone());
    out.note("losses", fit.losses.clone());
    out.note("read_ms_each", reads.ms.clone());
    out.note("peak_rss_mb_after_reads", probe::peak_rss_mib());
    out.note("articles", counts[0]);
    out.note("train_items", ctx.train_items().len());

    let timed = |f: &Fit| f.epoch_ms[warmup.min(f.epoch_ms.len())..].to_vec();
    let outside_epochs_s = fit.wall_s - fit.epoch_ms.iter().sum::<f64>() / 1e3;
    if !args.trace {
        let warmup_s = fit.epoch_ms[..warmup].iter().sum::<f64>() / 1e3;
        out.metric("setup_s", featurise_s + warmup_s + outside_epochs_s);
        out.metric("peak_rss_mb", peak);
        out.metric("work_ms", stats::median(&timed(&fit)));
        out.metric("read_ms", stats::median(&reads.ms));
        out.note(
            "setup_parts_s",
            vec![featurise_s, warmup_s, outside_epochs_s],
        );
        return Ok(out);
    }

    let spans = SpanCollector::start();
    let traced = timed_fit(&ctx, config);
    let traced_reads = timed_reads(&traced.trained, &ctx);
    let tally = spans.finish();
    out.check(
        traced
            .losses
            .iter()
            .map(|l| l.to_bits())
            .eq(fit.losses.iter().map(|l| l.to_bits())),
        || "traced and untraced fits disagree on the loss curve".into(),
    );
    out.check(
        traced_reads.drifted == 0 && traced_reads.first == reads.first,
        || "traced and untraced models disagree on the predictions".into(),
    );
    out.check(traced.moved.counter("train.epochs") == total as u64, || {
        format!(
            "train.epochs moved by {} in the traced fit",
            traced.moved.counter("train.epochs")
        )
    });
    out.check(tally.complete(), || {
        format!(
            "span ring dropped spans: saw {} of {}",
            tally.collected, tally.recorded
        )
    });
    // The breakdown covers every epoch of the traced fit, warm-up
    // included: the phase histograms cannot tell the epochs apart.
    let phase_ms = |names: &[&str]| {
        names.iter().map(|n| traced.moved.hist(n).sum).sum::<f64>() / 1e3 / total as f64
    };
    let epoch_ms = stats::mean(&traced.epoch_ms);
    let share = |names: &[&str]| phase_ms(names) / epoch_ms * 100.0;
    let work = [
        ("core.work_pct", share(&["train.phase.forward_us"])),
        ("autograd.work_pct", share(&["train.phase.backward_us"])),
        (
            "nn.work_pct",
            share(&["train.phase.optimizer_us", "train.phase.clip_us"]),
        ),
        ("graph.work_pct", share(&["train.phase.sample_us"])),
    ];
    // The spans and the histograms time the same laps; they may differ
    // only by the spans' whole-microsecond truncation.
    for (span, hist) in [
        ("train.forward", "train.phase.forward_us"),
        ("train.backward", "train.phase.backward_us"),
        ("train.optimizer", "train.phase.optimizer_us"),
        ("train.sample", "train.phase.sample_us"),
    ] {
        let h = traced.moved.hist(hist);
        let s = tally.by_name_us.get(span).copied().unwrap_or(0) as f64;
        out.check((h.sum - s).abs() <= h.count as f64 + 1.0, || {
            format!("{span} spans total {s} us but {hist} sums {} us", h.sum)
        });
    }
    for (name, value) in work {
        out.metric(name, value);
    }
    out.metric(
        "bench.work_residual_pct",
        stats::residual(100.0, &work.map(|(_, v)| v)),
    );
    // A read is one `TrainedFakeDetector::predict` call: fd-core's own
    // latency histogram against the benchmark's wall clock.
    let read_core =
        traced_reads.moved.hist("infer.predict_us").sum / 1e3 / traced_reads.ms.iter().sum::<f64>()
            * 100.0;
    out.metric("core.read_pct", read_core);
    out.metric(
        "bench.read_residual_pct",
        stats::residual(100.0, &[read_core]),
    );
    let per_epoch = |v: u64| v as f64 / total as f64;
    let (parallel, serial) = (
        traced.moved.counter("tensor.par.dispatch_parallel"),
        traced.moved.counter("tensor.par.dispatch_serial"),
    );
    let seeds = (ctx.train_items().len() * total) as f64;
    out.metric("data.featurise_ms", featurise_s * 1e3);
    out.metric("core.setup_ms", outside_epochs_s * 1e3);
    out.metric(
        "tensor.matmul_calls_per_work",
        per_epoch(traced.moved.counter("tensor.matmul.calls")),
    );
    out.metric(
        "tensor.parallel_share",
        parallel as f64 / (parallel + serial).max(1) as f64,
    );
    out.metric("proc.minflt_per_work", per_epoch(traced.minor_faults));
    out.metric(
        "graph.subgraph_nodes_per_seed",
        traced.moved.hist("train.sampler.subgraph_nodes").sum / seeds,
    );
    out.metric(
        "bench.trace_overhead_pct",
        (stats::mean(&timed(&traced)) / stats::mean(&timed(&fit)) - 1.0) * 100.0,
    );
    out.note("epoch_ms_traced", traced.epoch_ms.clone());
    out.note("read_ms_traced", traced_reads.ms.clone());
    out.note("spans_collected", tally.collected);
    out.note(
        "epoch_breakdown_ms",
        vec![
            epoch_ms,
            phase_ms(&["train.phase.forward_us"]),
            phase_ms(&["train.phase.backward_us"]),
            phase_ms(&["train.phase.optimizer_us", "train.phase.clip_us"]),
            phase_ms(&["train.phase.sample_us"]),
            phase_ms(&["train.phase.validate_us", "train.phase.checkpoint_us"]),
        ],
    );
    Ok(out)
}
