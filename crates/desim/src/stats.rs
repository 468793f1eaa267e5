//! Statistics accumulators for simulations.

use crate::time::SimTime;

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`observe`](TimeWeighted::observe) with the *new* value whenever
/// the signal changes; the accumulator integrates the previous value over
/// the elapsed interval.
#[derive(Clone, Debug, Default)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64, // integral of value dt (seconds)
    span: f64,         // total observed seconds
    initialized: bool,
}

impl TimeWeighted {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the signal takes `value` from time `now` onward.
    pub fn observe(&mut self, now: SimTime, value: f64) {
        if self.initialized {
            let dt = now.saturating_sub(self.last_time).as_secs_f64();
            self.weighted_sum += self.last_value * dt;
            self.span += dt;
        } else {
            self.initialized = true;
        }
        self.last_time = now;
        self.last_value = value;
    }

    /// Time-weighted mean over the observed span (0 if nothing observed).
    pub fn mean(&self) -> f64 {
        if self.span <= 0.0 {
            // Degenerate: no elapsed time; report last value if any.
            if self.initialized {
                self.last_value
            } else {
                0.0
            }
        } else {
            self.weighted_sum / self.span
        }
    }
}

/// Plain sample statistics: count / mean / min / max.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// New, empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.mean += (x - self.mean) / self.n as f64;
    }

    /// Add a `SimTime` sample, in seconds.
    pub fn add_time(&mut self, t: SimTime) {
        self.add(t.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_square_wave() {
        let mut tw = TimeWeighted::new();
        tw.observe(SimTime::ZERO, 0.0);
        tw.observe(SimTime::from_secs(1), 10.0); // 0 for 1s
        tw.observe(SimTime::from_secs(3), 0.0); // 10 for 2s
        tw.observe(SimTime::from_secs(4), 0.0); // 0 for 1s
                                                // integral = 0*1 + 10*2 + 0*1 = 20 over 4s
        assert!((tw.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_empty_and_degenerate() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean(), 0.0);
        let mut tw2 = TimeWeighted::new();
        tw2.observe(SimTime::from_secs(5), 42.0);
        assert_eq!(tw2.mean(), 42.0, "no elapsed span: report last value");
    }

    #[test]
    fn tally_basic_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.add(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
    }

    #[test]
    fn tally_merge_matches_pooled() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &xs[..20] {
            a.add(x);
        }
        for &x in &xs[20..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn tally_merge_with_empty() {
        let mut a = Tally::new();
        a.add(3.0);
        let empty = Tally::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
        let mut e2 = Tally::new();
        e2.merge(&a);
        assert_eq!(e2.count(), 1);
        assert_eq!(e2.mean(), 3.0);
    }
}
