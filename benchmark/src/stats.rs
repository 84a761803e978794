//! Order statistics the benchmark reports: the lower quartile a timing is
//! reported as, its median and quartiles (the same rule as Python's
//! `statistics.quantiles(v, n=4)`, which the driver uses), and the
//! "highest percentile with at least ten samples beyond it" rule from the
//! choosing-metrics guide.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Median (mean of the two middle samples for an even count). `None` on
/// an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the *exclusive* method — exactly
/// what `statistics.quantiles(values, n=4)` returns. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = ⌊i·m/4⌋ clamped to [1, n-1]; δ = i·m − 4j.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// What a repeated timing is reported as: the lower quartile of its
/// samples (clamped to the fastest one, which two or three samples can
/// extrapolate past). Neighbours on a shared host only ever add time, and
/// add it to a varying share of the samples, so the upper half of a run's
/// samples says more about the neighbours than about the code. Over ten
/// runs of the same binary the lower quartile spread half as much as the
/// median, in quiet stretches (0.4-2 % against 0.6-4 %) and in noisy ones
/// (4-14 % against 8-28 %). A tenth percentile is steadier still under
/// load but follows a fast clock state that a few percent of the samples
/// (sometimes more than a tenth) run in: 7-21 % spread in a quiet stretch.
/// The median is noted beside every reported time.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    match values {
        [] => None,
        [one] => Some(*one),
        _ => {
            let fastest = values.iter().copied().fold(f64::INFINITY, f64::min);
            quartiles(values).map(|[q1, _, _]| q1.max(fastest))
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it; `None` below twenty samples (not even the median
/// has ten on each side then).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 500];
    LADDER
        .into_iter()
        .find(|p| samples * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // Two samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn lower_quartile_ignores_a_slow_half_and_a_fast_few() {
        // 5 % fast, 45 % at the usual speed, 50 % disturbed.
        let mut v = vec![0.8; 5];
        v.extend([1.0; 45]);
        v.extend((0..50).map(|i| 1.2 + f64::from(i) * 0.03));
        assert_eq!(lower_quartile(&v), Some(1.0));
        assert_eq!(median(&v), Some(1.1));
        assert_eq!(lower_quartile(&[2.0]), Some(2.0));
        assert_eq!(
            lower_quartile(&[1.0, 2.0]),
            Some(1.0),
            "never below the fastest"
        );
        assert_eq!(lower_quartile(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
