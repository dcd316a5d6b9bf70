//! Sample statistics the benchmark reports: medians, tail percentiles
//! that never rest on fewer than ten samples, and breakdown residuals.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// One timing summary: the value, which percentile it is, and how many
/// samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The selected sample (`f64::INFINITY` when it is a miss).
    pub value: f64,
    /// The percentile actually used, in `0..=100`.
    pub percentile: f64,
    /// Samples the percentile was taken over, misses included.
    pub samples: usize,
}

/// Ascending copy of `samples`; non-finite values (misses) sort last.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank). Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    nearest_rank(&sorted(samples), 0.5)
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `wanted` percentile (e.g. 99), or — when fewer than
/// [`TAIL_SAMPLES`] samples would lie beyond it — the highest whole
/// percentile that keeps that many beyond it. A median (50) is always
/// taken as asked. Failed operations belong in `samples` as
/// `f64::INFINITY`, so they count as misses at every percentile.
pub fn tail(samples: &[f64], wanted: f64) -> Pick {
    let n = samples.len();
    assert!(n > 0, "percentile of an empty sample");
    let mut p = wanted;
    if wanted > 50.0 {
        while p > 50.0 && n - ((p / 100.0 * n as f64).ceil() as usize).min(n) < TAIL_SAMPLES {
            p = (p - 1.0).ceil().max(50.0);
        }
    }
    Pick {
        value: nearest_rank(&sorted(samples), p / 100.0),
        percentile: p,
        samples: n,
    }
}

/// What `parts` leave of `total`: the unattributed residual of a
/// breakdown (negative when the parts overlap or overshoot).
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_uses_the_wanted_percentile_when_ten_samples_lie_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let pick = tail(&samples, 99.0);
        assert_eq!(
            pick,
            Pick {
                value: 990.0,
                percentile: 99.0,
                samples: 1000
            }
        );
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let pick = tail(&samples, 99.0);
        assert_eq!(pick.percentile, 98.0);
        assert!(samples.len() - pick.value as usize >= TAIL_SAMPLES);
        assert_eq!(pick.samples, 999);
        // Too few samples for any tail: the median is the floor.
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few, 95.0).percentile, 50.0);
    }

    #[test]
    fn misses_count_against_every_percentile() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        for s in samples.iter_mut().take(12) {
            *s = f64::INFINITY;
        }
        let pick = tail(&samples, 95.0);
        assert_eq!(pick.percentile, 95.0);
        assert!(pick.value.is_infinite(), "12 misses of 200 must reach p95");
        assert_eq!(median(&samples), 112.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn breakdown_residual_is_what_the_parts_leave() {
        assert_eq!(residual(10.0, &[4.0, 3.5, 1.5]), 1.0);
        assert_eq!(residual(5.0, &[3.0, 3.0]), -1.0);
        assert_eq!(residual(2.0, &[]), 2.0);
    }
}
