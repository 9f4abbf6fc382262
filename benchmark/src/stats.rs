//! Order statistics and the bound comparison of `BENCHMARK.json`.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First, second and third quartile the way Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) computes them — the
/// driver takes the spread of a metric from that function, so the
/// benchmark's own steadiness check must agree with it digit for digit.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the driver holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// Nearest-rank percentile (`p` in `(0, 100]`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The p90 of a latency sample, reported only when at least ten samples
/// lie beyond it (choosing-metrics §1); `None` otherwise.
pub fn p90_if_supported(xs: &[f64]) -> Option<f64> {
    (xs.len() >= 100).then(|| percentile(xs, 90.0))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Share of `base` by which `new` is worse (negative when it is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Outcome of holding a change's runs against the parent's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least ten pairs were run, the change wins at least nine tenths of
    /// those that differ, and the medians differ by more than the parent's
    /// own inter-quartile distance.
    Improved,
    /// Median no worse than the parent's by more than the bound.
    Within,
    /// Median worse than the parent's by more than the bound.
    Regressed,
    /// The parent's own run-to-run spread exceeds the bound, so neither
    /// "unchanged" nor "regressed" can be read off the medians.
    Unresolved,
}

/// Pairs of runs below which no gain is claimed (choosing-metrics §8).
pub const MIN_PAIRS: usize = 10;

/// Applies the rule of choosing-metrics §6–8 to two sample sets of one
/// metric on one workload. `base[i]` and `new[i]` are the i-th alternating
/// pair when the sets have equal length.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, better: Better) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| worsening(base[i], new[i], better) < 0.0).count();
    let losses = (0..pairs).filter(|&i| worsening(base[i], new[i], better) > 0.0).count();
    let base_iqr = if base.len() >= 2 {
        let [q1, _, q3] = quartiles(base);
        q3 - q1
    } else {
        0.0
    };
    let decided = wins + losses;
    if pairs >= MIN_PAIRS
        && decided > 0
        && wins * 10 >= decided * 9
        && (mb - mn).abs() > base_iqr
        && worsening(mb, mn, better) < 0.0
    {
        return Verdict::Improved;
    }
    if base.len() >= 2 && base_iqr / mb.abs() > bound {
        return Verdict::Unresolved;
    }
    if worsening(mb, mn, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90_if_supported(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90_if_supported(&enough), Some(90.0));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-15);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-15);
    }

    #[test]
    fn verdict_within_regressed_unresolved_improved() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0];
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&base, &same, 0.10, Better::Lower), Verdict::Within);
        let slow: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &slow, 0.10, Better::Lower), Verdict::Regressed);
        let fast: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&base, &fast, 0.10, Better::Lower), Verdict::Improved);
        // One faster pair is not a gain.
        assert_eq!(verdict(&base[..1], &fast[..1], 0.10, Better::Lower), Verdict::Within);
        // A parent whose own runs scatter by more than the bound cannot
        // certify "unchanged".
        let noisy = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.0, 15.0, 9.0, 11.0];
        let other = [10.5, 13.0, 7.5, 13.5, 8.5, 11.0, 6.5, 14.0, 9.5, 10.0];
        assert_eq!(verdict(&noisy, &other, 0.10, Better::Lower), Verdict::Unresolved);
    }
}
