//! Statistics collectors used by the experiment harness: streaming
//! mean/variance (Welford), Student-t 95% confidence intervals (the paper
//! reports "an average of 20 runs and 95% confidence intervals"), histograms,
//! and time-weighted averages.

use crate::time::{SimDuration, SimTime};

/// Streaming mean and variance via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use bcp_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Half-width of the 95% confidence interval for the mean
    /// (`t · s / √n`), 0 if fewer than two samples.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        t_critical_95(self.n - 1) * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        *self = Welford { n, mean, m2 };
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.push(x);
        }
        w
    }
}

impl Extend<f64> for Welford {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Two-sided Student-t critical value at 95% confidence for the given degrees
/// of freedom (df ≥ 1). Values above df=30 use the normal approximation.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Mean and 95% CI half-width of a slice of run-level samples.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let w: Welford = samples.iter().copied().collect();
    (w.mean(), w.ci95_half_width())
}

/// A fixed-bin-width histogram over `[0, bins · width)` with an overflow bin.
///
/// # Examples
///
/// ```
/// use bcp_sim::stats::Histogram;
///
/// let mut h = Histogram::new(10, 1.0);
/// h.record(0.5);
/// h.record(9.9);
/// h.record(100.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<u64>,
    width: f64,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `width` is not strictly positive.
    pub fn new(bins: usize, width: f64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            width.is_finite() && width > 0.0,
            "invalid bin width {width}"
        );
        Histogram {
            bins: vec![0; bins],
            width,
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Records a value.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.underflow += 1;
            return;
        }
        let idx = (x / self.width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Values ≥ the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Values < 0.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Approximate p-quantile (0 ≤ p ≤ 1) using bin upper edges; `None` when
    /// empty or when the quantile lands in the overflow bin.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = self.underflow;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as f64 + 1.0) * self.width);
            }
        }
        None
    }
}

/// Integrates a piecewise-constant signal over time, producing its
/// time-weighted average (e.g. mean buffer occupancy, mean radio power).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts integrating `initial` at time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            integral: 0.0,
            start,
        }
    }

    /// Records that the signal changed to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous update.
    pub fn update(&mut self, t: SimTime, value: f64) {
        let dt = t.duration_since(self.last_time).as_secs_f64();
        self.integral += self.last_value * dt;
        self.last_time = t;
        self.last_value = value;
    }

    /// The integral of the signal from start through `t`.
    pub fn integral_through(&self, t: SimTime) -> f64 {
        let dt = t.saturating_duration_since(self.last_time).as_secs_f64();
        self.integral + self.last_value * dt
    }

    /// Time-weighted mean of the signal from start through `t`.
    pub fn mean_through(&self, t: SimTime) -> f64 {
        let span = t.saturating_duration_since(self.start).as_secs_f64();
        if span == 0.0 {
            self.last_value
        } else {
            self.integral_through(t) / span
        }
    }

    /// The current (most recently set) value.
    pub fn value(&self) -> f64 {
        self.last_value
    }
}

/// A named sequence of `(x, y)` points with optional 95%-CI half-widths —
/// the unit of "one line in one figure" used by every experiment harness.
///
/// # Examples
///
/// ```
/// use bcp_sim::stats::Series;
///
/// let mut s = Series::new("DualRadio-500");
/// s.push(5.0, 0.12);
/// s.push_with_ci(10.0, 0.10, 0.01);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.points()[1], (10.0, 0.10, 0.01));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64, f64)>,
}

impl Series {
    /// Creates an empty series with a display label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point with zero CI.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y, 0.0));
    }

    /// Appends a point with a 95% CI half-width.
    pub fn push_with_ci(&mut self, x: f64, y: f64, ci: f64) {
        self.points.push((x, y, ci));
    }

    /// The `(x, y, ci)` triples in insertion order.
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at the given x, if a point exists there (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, ..)| *px == x)
            .map(|(_, y, _)| *y)
    }
}

/// Per-run duration accumulator: handy for summing airtime, idle time, etc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurationSum(SimDuration);

impl DurationSum {
    /// Creates a zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a span (saturating).
    pub fn add(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d);
    }

    /// Total accumulated span.
    pub fn total(&self) -> SimDuration {
        self.0
    }
}

crate::persist!(Welford { n, mean, m2 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let w: Welford = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(w.count(), 5);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!((w.sample_variance() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Welford = all.iter().copied().collect();
        let mut a: Welford = all[..37].iter().copied().collect();
        let b: Welford = all[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - seq.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn ci95_matches_hand_computation() {
        // n=5, sd=sqrt(2.5), t(4)=2.776 => hw = 2.776*sqrt(2.5/5)
        let w: Welford = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        let expected = 2.776 * (2.5f64 / 5.0).sqrt();
        assert!((w.ci95_half_width() - expected).abs() < 1e-9);
    }

    #[test]
    fn ci95_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.ci95_half_width(), 0.0);
        w.push(3.0);
        assert_eq!(w.ci95_half_width(), 0.0);
    }

    #[test]
    fn t_table_sane() {
        assert!(t_critical_95(1) > t_critical_95(5));
        assert!(t_critical_95(5) > t_critical_95(30));
        assert_eq!(t_critical_95(1000), 1.96);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn mean_ci95_wrapper() {
        let (m, hw) = mean_ci95(&[10.0, 10.0, 10.0]);
        assert_eq!(m, 10.0);
        assert_eq!(hw, 0.0);
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let mut h = Histogram::new(10, 1.0);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 10);
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1);
        }
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(2, 1.0);
        h.record(-1.0);
        h.record(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::from_secs(10), 100.0); // 0 for 10 s
        tw.update(SimTime::from_secs(20), 0.0); // 100 for 10 s
        let mean = tw.mean_through(SimTime::from_secs(20));
        assert!((mean - 50.0).abs() < 1e-9);
        // Continue at value 0 for another 20 s: mean drops to 25.
        let mean = tw.mean_through(SimTime::from_secs(40));
        assert!((mean - 25.0).abs() < 1e-9);
    }

    #[test]
    fn series_basics() {
        let mut s = Series::new("line");
        assert!(s.is_empty());
        s.push(1.0, 2.0);
        s.push_with_ci(3.0, 4.0, 0.5);
        assert_eq!(s.label(), "line");
        assert_eq!(s.len(), 2);
        assert_eq!(s.y_at(3.0), Some(4.0));
        assert_eq!(s.y_at(9.0), None);
    }

    #[test]
    fn duration_sum() {
        let mut s = DurationSum::new();
        s.add(SimDuration::from_millis(1));
        s.add(SimDuration::from_millis(2));
        assert_eq!(s.total(), SimDuration::from_millis(3));
    }
}
