//! Order statistics over measured samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (sorted in place).
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Quantile `q` of whole-nanosecond samples (sorted in place), reading
/// each value `x` as a bin `[x - 0.5, x + 0.5)` its tied samples fill
/// evenly. Many samples tie at the same nanosecond; this keeps the
/// fraction the rounding lost instead of reporting the tie's value.
pub fn binned_quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).clamp(0.0, v.len() as f64 - 1.0);
    let x = v[rank as usize];
    let lo = v.partition_point(|&s| s < x);
    let hi = v.partition_point(|&s| s <= x);
    x as f64 - 0.5 + (rank - lo as f64) / (hi - lo) as f64
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn binned_quantile_spreads_ties_over_their_bin() {
        // Ten samples: 10 (×4), 20 (×4), 30 (×2).
        let mut v = vec![30, 10, 20, 10, 20, 10, 30, 20, 10, 20];
        // Rank 5 is the second of the four 20s: 19.5 + 1/4.
        assert_eq!(binned_quantile(&mut v, 0.5), 19.75);
        assert_eq!(binned_quantile(&mut v, 0.0), 9.5);
        assert_eq!(binned_quantile(&mut v, 1.0), 30.0);
        assert_eq!(binned_quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
