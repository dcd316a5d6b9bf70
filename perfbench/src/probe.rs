//! What the benchmark reads from the running program without adding
//! instrumentation to it: phase-scoped differences of the fd-obs
//! registry, the fd-obs span ring, and the process's own `/proc` files.

use serde::Content;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One fd-obs histogram as `fd_obs::snapshot()` renders it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries (last = overflow).
    pub buckets: Vec<u64>,
    /// Observations.
    pub count: u64,
    /// Sum of the observations.
    pub sum: f64,
}

impl Hist {
    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile by the estimator fd-obs itself uses
    /// (`Histogram::percentile`): linear within the bucket holding the
    /// rank, the first bucket from 0, the overflow bucket clamped to
    /// the last bound. 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let prev = cum;
            cum += c;
            if c > 0 && cum as f64 >= rank {
                if i >= self.bounds.len() {
                    break;
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (self.bounds[i] - lower) * frac;
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// Counters and histograms of the fd-obs registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Hist>,
}

fn f64_of(c: &Content) -> f64 {
    c.as_f64().unwrap_or(0.0)
}

impl Snapshot {
    /// The registry as it stands now.
    pub fn take() -> Self {
        Self::parse(&fd_obs::snapshot()).expect("fd_obs::snapshot renders valid JSON")
    }

    /// Parses the JSON `fd_obs::snapshot()` renders.
    pub fn parse(json: &str) -> Result<Self, String> {
        let value: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let mut snap = Snapshot::default();
        for (name, v) in value["counters"].as_map().unwrap_or(&[]) {
            snap.counters
                .insert(name.clone(), v.as_u64().ok_or("counter is not a u64")?);
        }
        for (name, h) in value["histograms"].as_map().unwrap_or(&[]) {
            let h = h.as_map().ok_or("histogram is not an object")?;
            let field =
                |key: &str| serde::content_get(h, key).ok_or(format!("histogram lacks {key}"));
            let seq = |key: &str| -> Result<Vec<Content>, String> {
                Ok(field(key)?
                    .as_seq()
                    .ok_or(format!("{key} is not an array"))?
                    .to_vec())
            };
            snap.histograms.insert(
                name.clone(),
                Hist {
                    bounds: seq("bounds")?.iter().map(f64_of).collect(),
                    buckets: seq("buckets")?
                        .iter()
                        .map(|b| b.as_u64().unwrap_or(0))
                        .collect(),
                    count: field("count")?.as_u64().ok_or("count is not a u64")?,
                    sum: f64_of(field("sum")?),
                },
            );
        }
        Ok(snap)
    }

    /// What moved between `before` and `self`: counter and histogram
    /// differences, so a figure covers only the phase between the two
    /// snapshots. Metrics first registered during the phase count from 0.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &after)| {
                let was = before.counters.get(name).copied().unwrap_or(0);
                (name.clone(), after.saturating_sub(was))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, after)| {
                let delta = match before.histograms.get(name) {
                    Some(was) if was.bounds == after.bounds => Hist {
                        bounds: after.bounds.clone(),
                        buckets: after
                            .buckets
                            .iter()
                            .zip(&was.buckets)
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect(),
                        count: after.count.saturating_sub(was.count),
                        sum: after.sum - was.sum,
                    },
                    _ => after.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// A counter's value (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram (empty when never registered).
    pub fn hist(&self, name: &str) -> Hist {
        self.histograms.get(name).cloned().unwrap_or_default()
    }
}

/// A span's identity in the ring: the same span read twice is one span.
type SpanKey = (u64, u64, u64, &'static str, u64, u64);

/// Collects the fd-obs span ring during a traced phase. The ring holds
/// `fd_obs::trace::RING_CAPACITY` spans and overwrites the oldest, so a
/// background thread re-reads it every few milliseconds and keeps each
/// distinct span once. Reading never clears the ring (a clear could
/// race a concurrent push and lose it); [`SpanCollector::finish`] checks
/// that every span recorded during the phase was seen.
pub struct SpanCollector {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<HashSet<SpanKey>>>,
    recorded_before: u64,
    reader: std::thread::JoinHandle<()>,
}

/// What a traced phase left in the span ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTally {
    /// Distinct spans the collector saw.
    pub collected: u64,
    /// Spans the program recorded during the phase (`recorded_total` delta).
    pub recorded: u64,
    /// Total duration of the collected spans by name, in microseconds.
    pub by_name_us: BTreeMap<&'static str, u64>,
}

impl SpanTally {
    /// True when no span was lost to the ring's drop-oldest policy.
    pub fn complete(&self) -> bool {
        self.collected == self.recorded
    }
}

const RING_READ_EVERY: Duration = Duration::from_millis(20);

fn read_ring(seen: &Mutex<HashSet<SpanKey>>) {
    let spans = fd_obs::trace::snapshot_spans();
    let mut seen = seen
        .lock()
        .expect("span set lock: the reader thread never panics holding it");
    for s in spans {
        seen.insert((
            s.trace_id,
            s.span_id,
            s.parent_id,
            s.name,
            s.start_us,
            s.dur_us,
        ));
    }
}

impl SpanCollector {
    /// Empties the ring, switches span collection on at sample rate 1,
    /// and starts the reader.
    pub fn start() -> Self {
        fd_obs::trace::set_sample(1);
        fd_obs::trace::set_enabled(true);
        let _ = fd_obs::trace::take_spans();
        let recorded_before = fd_obs::trace::recorded_total();
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let reader = {
            let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    read_ring(&seen);
                    std::thread::sleep(RING_READ_EVERY);
                }
            })
        };
        Self {
            stop,
            seen,
            recorded_before,
            reader,
        }
    }

    /// Stops collection and tallies what the phase recorded.
    pub fn finish(self) -> SpanTally {
        self.stop.store(true, Ordering::SeqCst);
        self.reader.join().expect("span reader thread");
        fd_obs::trace::set_enabled(false);
        read_ring(&self.seen);
        let recorded = fd_obs::trace::recorded_total() - self.recorded_before;
        let seen = self
            .seen
            .lock()
            .expect("span set lock after the reader joined");
        let mut by_name_us = BTreeMap::new();
        for &(_, _, _, name, _, dur) in seen.iter() {
            *by_name_us.entry(name).or_insert(0) += dur;
        }
        SpanTally {
            collected: seen.len() as u64,
            recorded,
            by_name_us,
        }
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Current resident set size (`VmRSS`) of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:").map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPU time stolen from this machine's virtual CPUs, as
/// (stolen, total) jiffies since boot (`/proc/stat`, all CPUs).
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal …; guest time is
    // already inside user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time the host withheld between two [`cpu_jiffies`]
/// readings, in percent: context for a noisy run, not a metric.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
    }
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    rest.split_whitespace()
        .nth(7)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Repetitions of the host-speed kernel; the median is reported.
const HOST_SPEED_REPS: usize = 7;

/// The host's current speed, for reading a run's figures: the median
/// wall time, in milliseconds, of a fixed kernel of the benchmark's own
/// code (a 96 × 96 f32 matrix product repeated 100 times; no repository
/// code runs in it, so no change to the program moves it). Context like
/// [`steal_pct`], not a metric: on a shared host it moves by up to ~70%
/// between runs, with the neighbours' load, and every timing with it.
pub fn host_compute_ms() -> f64 {
    const N: usize = 96;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.5).collect();
    let mut ms: Vec<f64> = (0..HOST_SPEED_REPS)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut c = vec![0f32; N * N];
            for _ in 0..100 {
                for i in 0..N {
                    for k in 0..N {
                        let aik = a[i * N + k];
                        let row = &mut c[i * N..(i + 1) * N];
                        for (cij, bkj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                            *cij += aik * bkj;
                        }
                    }
                }
                std::hint::black_box(&mut c);
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"{
  "ts_us": 5,
  "counters": {
    "router.attempts.s0r0": 4,
    "router.attempts.s1r0": 6,
    "serve.requests": 10
  },
  "gauges": {
    "serve.queue_depth": null
  },
  "histograms": {
    "serve.batch_size": {"bounds": [1, 2, 4], "buckets": [3, 1, 0, 0], "count": 4, "sum": 5}
  }
}"#;

    const AFTER: &str = r#"{
  "ts_us": 9,
  "counters": {
    "router.attempts.s0r0": 9,
    "router.attempts.s1r0": 6,
    "serve.ingests": 2,
    "serve.requests": 17
  },
  "gauges": {},
  "histograms": {
    "serve.batch_size": {"bounds": [1, 2, 4], "buckets": [5, 1, 2, 1], "count": 9, "sum": 26.5},
    "train.epoch_us": {"bounds": [100], "buckets": [0, 2], "count": 2, "sum": 900}
  }
}"#;

    #[test]
    fn snapshot_difference_covers_only_the_phase() {
        let before = Snapshot::parse(BEFORE).unwrap();
        let after = Snapshot::parse(AFTER).unwrap();
        let phase = after.since(&before);
        assert_eq!(phase.counter("serve.requests"), 7);
        assert_eq!(
            phase.counter("serve.ingests"),
            2,
            "registered mid-phase counts from 0"
        );
        assert_eq!(phase.counter("never.registered"), 0);
        assert_eq!(phase.counter_prefix_sum("router.attempts."), 5);
        let sizes = phase.hist("serve.batch_size");
        assert_eq!(sizes.buckets, vec![2, 0, 2, 1]);
        assert_eq!(sizes.count, 5);
        assert_eq!(sizes.sum, 21.5);
        assert_eq!(sizes.mean(), 4.3);
        assert_eq!(phase.hist("train.epoch_us").count, 2);
        assert_eq!(phase.hist("absent").count, 0);
    }

    #[test]
    fn an_idle_phase_differences_to_zero() {
        let snap = Snapshot::parse(AFTER).unwrap();
        let phase = snap.since(&snap);
        assert!(phase.counters.values().all(|&v| v == 0));
        assert!(phase
            .histograms
            .values()
            .all(|h| h.count == 0 && h.sum == 0.0));
    }

    #[test]
    fn histogram_percentile_matches_the_fd_obs_estimator() {
        let h = fd_obs::histogram("perfbench.test.hist", &[10.0, 20.0, 40.0]);
        for v in [1.0, 12.0, 15.0, 18.0, 30.0, 35.0, 90.0] {
            h.record(v);
        }
        let snap = Snapshot::take();
        let ours = snap.hist("perfbench.test.hist");
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(ours.percentile(q), h.percentile(q), "q = {q}");
        }
        assert_eq!(ours.sum, h.sum());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_mib() > 0.0 && rss_mib() <= peak_rss_mib());
        let before = minor_faults();
        let touched = vec![1u8; 8 << 20];
        std::hint::black_box(&touched);
        assert!(
            minor_faults() > before,
            "touching 8 MiB must fault pages in"
        );
    }
}
