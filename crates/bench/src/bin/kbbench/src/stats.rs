//! Medians, percentiles and the quartile spread the driver uses.

/// Sorts the samples and returns them, for the helpers below.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank percentile of sorted samples; `p` in `(0, 1]`.
/// Zero when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Stretches a run's samples are cut into for [`quiet_quartile`].
pub const GROUPS: usize = 10;

/// Cuts samples, in the order they were taken, into at most `groups`
/// stretches of equal length and applies `f` to each.
pub fn by_group<T>(xs: &[T], groups: usize, f: impl Fn(&[T]) -> f64) -> Vec<f64> {
    let groups = groups.min(xs.len()).max(1);
    (0..groups).map(|g| f(&xs[g * xs.len() / groups..(g + 1) * xs.len() / groups])).collect()
}

/// The better quartile of the stretches' values (nearest rank: of ten,
/// the third best). Whatever else the host runs only ever slows a
/// stretch down, so the better quartile is what the program does when
/// left alone, and repeats where the median of a run does not.
pub fn quiet_quartile(values: Vec<f64>, lower_is_better: bool) -> f64 {
    percentile(&sorted(values), if lower_is_better { 0.25 } else { 0.75 })
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — the tail a sample count supports. `None` below
/// forty samples, where only the median is worth reporting.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so `check` judges spread the way
/// the driver does. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4, 1-based; clamping the index but not the
        // weight extrapolates from the end pair, as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median: the spread
/// the driver holds against a metric's bound.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(99), Some(0.75));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        for n in [40, 100, 200, 1000, 20_000] {
            let p = highest_supported_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "{n} samples at p{p}");
        }
    }

    #[test]
    fn the_quiet_quartile_is_the_third_best_of_ten_stretches() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let medians = by_group(&xs, GROUPS, median);
        assert_eq!(medians, (0..10).map(|g| f64::from(g * 10) + 4.5).collect::<Vec<_>>());
        assert_eq!(quiet_quartile(medians.clone(), true), 24.5);
        assert_eq!(quiet_quartile(medians, false), 74.5);
        // Fewer samples than stretches: one sample each; none: one empty stretch.
        assert_eq!(by_group(&[3.0, 1.0], GROUPS, median), [3.0, 1.0]);
        assert_eq!(by_group(&[], GROUPS, median), [0.0]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), Some(5.5 / 5.5));
        assert_eq!(median(&xs), 5.5);
    }
}
