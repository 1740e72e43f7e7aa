//! Order statistics over latency samples and over passes.
//!
//! Two kinds of estimator live here. *Within* a pass, samples are
//! summarised by percentiles (nearest-rank on the sorted samples). *Across*
//! passes, every pass replays the same inputs, so sample *i* is the same
//! work in every pass, and the time it took in the pass where it ran
//! fastest ([`fastest_per_sample`]) is the closest observation of the
//! program's own cost: interference on a shared box only ever adds time,
//! and it comes in bursts far shorter than a pass, so a whole pass is
//! rarely clean but nearly every sample is clean in some pass. The median
//! and quartiles over whole passes are kept as diagnostics so a noisy run
//! stays visible.

/// Sorts samples ascending. Samples are finite by construction (elapsed
/// times and counts), so `total_cmp` is a plain numeric order.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
/// `p` is in `(0, 100]`; an empty slice reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Smallest value; 0 for no values.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median with linear interpolation between the two middle values.
pub fn median(values: &[f64]) -> f64 {
    quantile_exclusive(&sorted(values.to_vec()), 0.5)
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses — the driver computes its
/// spreads with that function, so `selfcheck` must agree with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    (quantile_exclusive(&s, 0.25), quantile_exclusive(&s, 0.75))
}

fn quantile_exclusive(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            // Position q·(n+1) in 1-based ranks, clamped into the sample.
            let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
        }
    }
}

/// The estimator behind every end-to-end timing: for each sample position,
/// the smallest time any pass took for it. `passes` holds one slice of
/// samples per pass, in the order taken; positions beyond the shortest pass
/// are dropped (passes of one run replay the same inputs, so their lengths
/// are equal unless an operation failed).
pub fn fastest_per_sample(passes: &[&[f64]]) -> Vec<f64> {
    let len = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Which direction of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// By what share of `base` the value `now` is worse (positive) or
    /// better (negative).
    pub fn worse_by(self, base: f64, now: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (now - base) / base,
            Better::Higher => (base - now) / base,
        }
    }
}

/// `(estimate − median pass) ÷ estimate`, in percent: how far the typical
/// whole pass sat from the reported estimate, that is, the share of a pass
/// that was the host's and not the program's.
pub fn pass_spread_pct(estimate: f64, per_pass: &[f64]) -> f64 {
    if estimate == 0.0 {
        return 0.0;
    }
    ((estimate - median(per_pass)) / estimate).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        let s = sorted(vec![30.0, 10.0, 20.0]);
        assert_eq!(percentile(&s, 50.0), 20.0);
        assert_eq!(percentile(&s, 90.0), 30.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((Better::Lower.worse_by(100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 92.0) - 0.08).abs() < 1e-12);
        assert!(Better::Higher.worse_by(100.0, 110.0) < 0.0);
    }

    #[test]
    fn fastest_per_sample_takes_each_position_from_its_cleanest_pass() {
        // A burst hits a different sample in every pass; no pass is clean,
        // every sample is clean somewhere.
        let passes: [&[f64]; 3] = [&[9.0, 2.0, 3.0], &[1.0, 8.0, 3.5], &[1.5, 2.5, 7.0]];
        assert_eq!(fastest_per_sample(&passes), vec![1.0, 2.0, 3.0]);
        // A shorter pass (an operation failed) bounds the positions kept.
        let ragged: [&[f64]; 2] = [&[4.0, 5.0, 6.0], &[3.0, 7.0]];
        assert_eq!(fastest_per_sample(&ragged), vec![3.0, 5.0]);
        assert!(fastest_per_sample(&[]).is_empty());
    }

    #[test]
    fn pass_spread_is_distance_from_estimate_to_median_pass() {
        // estimate 5, median pass 4 -> 20 %
        let spread = pass_spread_pct(5.0, &[4.5, 3.0, 4.0]);
        assert!((spread - 20.0).abs() < 1e-9);
        assert_eq!(pass_spread_pct(0.0, &[1.0]), 0.0);
    }
}
