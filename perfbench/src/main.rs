//! The repository's benchmark: one command that runs one workload's
//! fixed, seeded amount of work in its own process, checks every
//! output, and prints each metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-full|train-sampled|serve-routed|serve-ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! the per-layer ones (see `perfbench/README.md` for the metric → layer
//! map). The last line of standard output is the result object; the
//! line before it carries sample counts and provenance.

mod inputs;
mod probe;
mod serve;
mod stats;
mod train;

use serde::Content;
use std::process::ExitCode;

/// Every end-to-end metric, with its unit. An untraced run of every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_ms", "ms"),
    ("read_ms", "ms"),
];

/// Every per-layer metric, with its unit. A traced run of every workload
/// reports all of them. Each timing is taken on every workload; a share,
/// count or ratio of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("data.featurise_ms", "ms"),
    ("core.setup_ms", "ms"),
    ("core.work_pct", "%"),
    ("autograd.work_pct", "%"),
    ("nn.work_pct", "%"),
    ("graph.work_pct", "%"),
    ("serve.work_pct", "%"),
    ("bench.work_residual_pct", "%"),
    ("core.read_pct", "%"),
    ("serve.queue_read_pct", "%"),
    ("serve.http_read_pct", "%"),
    ("router.hop_read_pct", "%"),
    ("bench.read_residual_pct", "%"),
    ("tensor.matmul_calls_per_work", "count"),
    ("tensor.parallel_share", "ratio"),
    ("proc.minflt_per_work", "count"),
    ("graph.subgraph_nodes_per_seed", "count"),
    ("serve.batch_size_mean", "count"),
    ("router.attempts_per_request", "ratio"),
    ("core.affected_base_nodes_mean", "count"),
    ("core.ingest_late_over_early", "ratio"),
    ("serve.overlay_growth_mb", "MiB"),
    ("bench.trace_overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the constant-rate serving streams, in seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// A run's verdict and figures, printed as the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued (epochs, requests, ingests).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Check failures, each a one-line reason; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Reported metrics in order: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Sample counts and provenance for the detail line.
    pub detail: Vec<(String, Content)>,
}

impl Outcome {
    /// Records a metric, taking its unit from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of the benchmark"))
            .1;
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a detail field.
    pub fn note(&mut self, key: &str, value: impl serde::Serialize) {
        self.detail
            .push((key.to_string(), value.serialize_content()));
    }

    /// Fails the run with `reason` unless `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(reason());
        }
    }

    /// Orders the reported metrics as the run's list names them. A missing
    /// end-to-end metric or per-layer timing is a check failure; a
    /// missing per-layer share, count or ratio reads 0 (the workload does
    /// not exercise that layer).
    fn complete(&mut self, trace: bool) {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self.metrics.iter().find(|(n, ..)| n == name).map(|m| m.1);
            if value.is_none() && (!trace || TIME_UNITS.contains(&unit)) {
                self.problems.push(format!("{name} was not measured"));
            }
            ordered.push((name.to_string(), value.unwrap_or(0.0), unit.to_string()));
        }
        self.metrics = ordered;
    }
}

/// Units of the metrics that are timings.
const TIME_UNITS: [&str; 2] = ["s", "ms"];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// JSON has no infinity: a percentile that lands on a failed operation
/// is printed as this many milliseconds (or units) instead.
const MISS_VALUE: f64 = 1e9;

fn print_result(outcome: &Outcome) {
    let detail = Content::Map(outcome.detail.clone());
    println!(
        "{}",
        serde_json::Value::from_content(Content::Map(vec![("detail".into(), detail)]))
    );
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                *value
            } else {
                MISS_VALUE
            };
            (
                name.clone(),
                Content::Map(vec![
                    ("value".into(), Content::F64(value)),
                    ("unit".into(), Content::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    let failed = outcome.failed + outcome.problems.len() as u64;
    let result = Content::Map(vec![
        (
            "correct".into(),
            Content::Bool(outcome.problems.is_empty() && outcome.failed == 0),
        ),
        ("attempted".into(), Content::U64(outcome.attempted.max(1))),
        ("failed".into(), Content::U64(failed)),
        ("metrics".into(), Content::Map(metrics)),
    ]);
    println!("{}", serde_json::Value::from_content(result));
}

fn main() -> ExitCode {
    // Internal: the serving workloads fit their weights in a child
    // process, so the measured process prices serving alone.
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some("prepare") {
        return match serve::prepare_main(&raw[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench prepare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_before = probe::host_compute_ms();
    let mut outcome = match args.workload.as_str() {
        "train-full" => train::run(&args, false),
        "train-sampled" => train::run(&args, true),
        "serve-routed" => serve::routed(&args),
        "serve-ingest" => serve::ingest(&args),
        other => Err(format!("unknown workload {other}")),
    }
    .unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    outcome.note(
        "host_compute_ms",
        vec![host_before, probe::host_compute_ms()],
    );
    outcome.note("workload", args.workload.as_str());
    outcome.note("seed", args.seed);
    outcome.note("trace", args.trace);
    outcome.note("fd_threads", fd_tensor::parallel::current_threads());
    outcome.note(
        "machine_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    outcome.note("simd_level", fd_tensor::simd_level().name());
    outcome.complete(args.trace);
    outcome.note("problems", outcome.problems.clone());
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    print_result(&outcome);
    ExitCode::SUCCESS
}
