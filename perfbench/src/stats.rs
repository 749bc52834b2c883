//! Order statistics over measured samples.

/// The median of `v` (mean of the middle pair for an even count; 0 for
/// an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile: the share of samples at or below `value`, in %.
    pub pct: f64,
    /// The number of samples the percentile was taken over.
    pub n: usize,
    /// False when fewer than `TAIL_BEYOND + 1` samples exist, so no
    /// percentile qualifies; `value` is then the maximum (`pct` 100).
    pub qualified: bool,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `v` with at least [`TAIL_BEYOND`] samples
/// strictly beyond it in rank. In ascending order the sample at index
/// `i` has `n - 1 - i` samples after it, so the answer is index
/// `n - 1 - TAIL_BEYOND`.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            pct: 100.0,
            n,
            qualified: false,
        };
    }
    let i = n - 1 - TAIL_BEYOND;
    Tail {
        value: s[i],
        pct: 100.0 * (i + 1) as f64 / n as f64,
        n,
        qualified: true,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=1000: p99 is the 990th value and 10 values lie above it.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v);
        assert!(t.qualified);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 1000);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_on_small_samples() {
        // 11 samples: only the minimum has ten beyond it.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v);
        assert!(t.qualified);
        assert_eq!(t.value, 0.0);
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
        // 20 samples: the 10th value, p50.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.pct), (10.0, 50.0));
    }

    #[test]
    fn tail_without_enough_samples_is_flagged_max() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert!(!t.qualified);
        assert_eq!((t.value, t.pct, t.n), (9.0, 100.0, 3));
        assert!(!tail(&[]).qualified);
    }
}
