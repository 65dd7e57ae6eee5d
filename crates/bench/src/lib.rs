//! Experiment harness reproducing every table and figure of the FIAT
//! paper (CoNEXT '22). Each module regenerates one artifact; the
//! `experiments` binary dispatches on the artifact name and prints the
//! same rows/series the paper reports. `ablations` prints the quality
//! side of the design choices DESIGN.md calls out; perfbench (its own
//! workspace under `perfbench/`) is the timing ledger.

pub mod ablations;
pub mod attack_exp;
pub mod bench_log;
pub mod chaos_exp;
pub mod control_exp;
pub mod corpus;
pub mod fig1;
pub mod fig2;
pub mod fingerprint_exp;
pub mod fleet_exp;
pub mod ml_tables;
pub mod oracle_exp;
pub mod soak_exp;
pub mod table6;
pub mod table7;
pub mod tolerance;

/// Render a CDF over raw values as (x, cumulative fraction) pairs at the
/// given percentile grid (e.g. every 5 %).
pub fn cdf(values: &mut [f64], points: usize) -> Vec<(f64, f64)> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if values.is_empty() {
        return Vec::new();
    }
    (0..=points)
        .map(|i| {
            let q = i as f64 / points as f64;
            let idx = ((values.len() - 1) as f64 * q).round() as usize;
            (values[idx], q)
        })
        .collect()
}

/// Weighted CDF: values with weights; returns (x, cumulative weight
/// fraction) at each distinct value.
pub fn weighted_cdf(pairs: &mut [(f64, f64)]) -> Vec<(f64, f64)> {
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    if total == 0.0 {
        return Vec::new();
    }
    let mut acc = 0.0;
    pairs
        .iter()
        .map(|(x, w)| {
            acc += w;
            (*x, acc / total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_monotone_and_bounded() {
        let mut v: Vec<f64> = (0..100).map(|i| (i * 7 % 100) as f64).collect();
        let c = cdf(&mut v, 20);
        assert_eq!(c.len(), 21);
        assert_eq!(c[0].1, 0.0);
        assert_eq!(c[20].1, 1.0);
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn weighted_cdf_sums_to_one() {
        let mut pairs = vec![(3.0, 2.0), (1.0, 1.0), (2.0, 1.0)];
        let c = weighted_cdf(&mut pairs);
        assert_eq!(c.last().unwrap().1, 1.0);
        // First value (1.0) carries a quarter of the weight.
        assert!((c[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert!(cdf(&mut Vec::new(), 10).is_empty());
        assert!(weighted_cdf(&mut Vec::new()).is_empty());
    }
}
