//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. Infinite samples (requests that missed) sort last,
/// so they reach a quantile only when more than `1 − q` of the samples
/// missed. Returns `NaN` for an empty input.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi || sorted[hi] == sorted[lo] {
                sorted[lo]
            } else {
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A quantile of a log₂-bucket histogram (bucket `i` covers
/// `[2^i, 2^{i+1})` ns), interpolated linearly inside the bucket that holds
/// the rank, in nanoseconds.
pub fn histogram_quantile_ns(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let next = seen + count as f64;
        if next >= target {
            let lo = (1u64 << i) as f64;
            let frac = ((target - seen) / count as f64).clamp(0.0, 1.0);
            return lo + lo * frac;
        }
        seen = next;
    }
    (1u64 << (buckets.len() - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn misses_reach_only_high_quantiles() {
        let mut v = vec![1.0; 99];
        v.push(f64::INFINITY);
        assert_eq!(quantile(&v, 0.5), 1.0);
        assert!(quantile(&v, 1.0).is_infinite());
    }

    #[test]
    fn histogram_quantile_stays_inside_the_bucket() {
        let mut b = [0u64; 40];
        b[10] = 4;
        let q = histogram_quantile_ns(&b, 0.5);
        assert!((1024.0..2048.0).contains(&q), "{q}");
    }
}
