//! Order statistics over host-time samples.
//!
//! A percentile is only reported with the number of samples behind it,
//! and only where at least [`MIN_BEYOND`] samples lie beyond it — the
//! rule that keeps a tail figure from resting on one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile (nearest rank).
    pub value: f64,
    /// Samples the value was selected from.
    pub n: usize,
    /// Samples ranked strictly above the selected one.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0–100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples would lie beyond it (an empty set
/// has no percentile at all). The median (`p = 50`) needs only one
/// sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    let beyond = n - 1 - idx;
    if p > 50.0 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: v[idx],
        n,
        beyond,
    })
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: p90 is rank 90, with 9 beyond — refused.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), None);
        // 100 samples: rank 90, 10 beyond — reported, with its count.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&s, 90.0).expect("enough samples");
        assert_eq!(
            p,
            Percentile {
                value: 90.0,
                n: 100,
                beyond: 10
            }
        );
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        let p = percentile(&s, 90.0).expect("enough samples");
        assert_eq!((p.value, p.n, p.beyond), (180.0, 200, 20));
        let m = percentile(&s, 50.0).expect("median of a non-empty set");
        assert_eq!((m.value, m.beyond), (100.0, 100));
        assert_eq!(percentile(&[7.0], 50.0).map(|p| p.value), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
