//! Order statistics used for every reported timing.

/// Sorts a copy ascending; timings are finite, so `total_cmp` agrees with `<`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut copy = values.to_vec();
    copy.sort_by(f64::total_cmp);
    copy
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The conventional median (mean of the two middle values of an even count),
/// as Python's `statistics.median` — used where runs, not samples, are combined.
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it; `None` below twenty samples, where not even the median has.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|q| samples as f64 - (q * samples as f64).ceil() >= 10.0)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the driver applies to a set
/// of runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 / 4.0 - j as f64;
        data[j - 1] + delta * (data[j] - data[j - 1])
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread a bound is compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), 5.0);
        assert_eq!(percentile(&data, 0.9), 9.0);
        assert_eq!(percentile(&data, 0.91), 10.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Five equal groups: p10/p50/p90 are the group medians; `fwd_ladder`
        // relies on that for p50, the median of its middle rung.
        let grouped: Vec<f64> =
            (0..5).flat_map(|g| (0..7).map(move |i| (g * 100 + i) as f64)).collect();
        assert_eq!(percentile(&grouped, 0.1), 3.0);
        assert_eq!(percentile(&grouped, 0.5), 203.0);
        assert_eq!(percentile(&grouped, 0.9), 403.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(39), Some(0.5));
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&data), 5.5);
        assert_eq!(spread(&data), Some(1.0));
    }
}
