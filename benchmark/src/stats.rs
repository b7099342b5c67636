//! The estimator: per-index minimum across replayed passes, then medians
//! and percentiles over ticks; plus the quartiles `compare` reports.

/// Element-wise minimum across passes of the same seeded tick sequence.
/// A slow phase or a spike hits one pass at a given tick, rarely all of
/// them, so the minimum is the de-noised sample for that tick.
///
/// Returns `None` when the passes disagree on the number of samples (they
/// replay identical sequences, so that is a failed determinism check).
pub fn min_across(passes: &[&[f64]]) -> Option<Vec<f64>> {
    let first = passes.first()?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted samples;
/// `0.0` for an empty sample so an unused span reads as zero, with its
/// sample count printed beside it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it — the tail statistic a sample of `n` can support. `50.0` when even
/// p75 is unsupported.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand)
    const LADDER: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];
    LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

/// `(q1, median, q3)` by the exclusive method — the same cut points as
/// Python's `statistics.quantiles(values, n=4)`, so `compare` and an
/// outside checker see the same spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_across_is_per_index() {
        let a = [3.0, 1.0, 9.0];
        let b = [2.0, 4.0, 8.0];
        let c = [5.0, 2.0, 7.0];
        assert_eq!(min_across(&[&a, &b, &c]), Some(vec![2.0, 1.0, 7.0]));
        assert_eq!(min_across(&[&a]), Some(a.to_vec()));
        assert_eq!(min_across(&[&a, &b[..2]]), None, "ragged passes");
        assert_eq!(min_across(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
