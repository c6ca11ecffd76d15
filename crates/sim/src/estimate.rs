use serde::{Deserialize, Serialize};
use std::fmt;

/// A Monte-Carlo estimate of a success probability: `successes` out of
/// `trials`, with Wilson score confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuccessEstimate {
    successes: u64,
    trials: u64,
}

impl SuccessEstimate {
    /// Creates an estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(trials > 0, "estimate needs at least one trial");
        assert!(successes <= trials, "successes cannot exceed trials");
        SuccessEstimate { successes, trials }
    }

    /// The number of successful trials.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// The number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate `successes / trials`.
    pub fn point(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// The binomial standard error of the point estimate.
    pub fn standard_error(&self) -> f64 {
        let p = self.point();
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// The Wilson score interval at the given z-value (1.96 for 95%).
    ///
    /// The Wilson interval behaves sensibly at the extremes `p ∈ {0, 1}` that
    /// high-probability experiments routinely produce, unlike the normal
    /// approximation.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        lv_engine::wilson::interval(self.successes, self.trials, z)
    }

    /// Whether the estimate is consistent (within the given z-interval) with
    /// the success probability being at least `target`.
    pub fn is_plausibly_at_least(&self, target: f64, z: f64) -> bool {
        self.wilson_interval(z).1 >= target
    }
}

impl fmt::Display for SuccessEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (low, high) = self.wilson_interval(1.96);
        write!(
            f,
            "{:.4} ({}/{} trials, 95% CI [{:.4}, {:.4}])",
            self.point(),
            self.successes,
            self.trials,
            low,
            high
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_standard_error() {
        let e = SuccessEstimate::new(75, 100);
        assert_eq!(e.point(), 0.75);
        assert_eq!(e.successes(), 75);
        assert_eq!(e.trials(), 100);
        assert!((e.standard_error() - (0.75f64 * 0.25 / 100.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_contains_the_point_estimate_and_stays_in_unit_range() {
        for (s, n) in [(0u64, 50u64), (50, 50), (25, 50), (1, 1000)] {
            let e = SuccessEstimate::new(s, n);
            let (low, high) = e.wilson_interval(1.96);
            assert!((0.0..=1.0).contains(&low));
            assert!((0.0..=1.0).contains(&high));
            assert!(low <= e.point() + 1e-12 && e.point() <= high + 1e-12);
        }
    }

    #[test]
    fn wilson_interval_narrows_with_more_trials() {
        let small = SuccessEstimate::new(8, 10).wilson_interval(1.96);
        let large = SuccessEstimate::new(800, 1000).wilson_interval(1.96);
        assert!(large.1 - large.0 < small.1 - small.0);
    }

    #[test]
    fn plausibility_check_uses_the_upper_bound() {
        let e = SuccessEstimate::new(95, 100);
        assert!(e.is_plausibly_at_least(0.97, 1.96));
        assert!(!e.is_plausibly_at_least(0.999, 1.96));
    }

    #[test]
    fn display_mentions_interval() {
        let text = SuccessEstimate::new(9, 10).to_string();
        assert!(text.contains("0.9"));
        assert!(text.contains("CI"));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = SuccessEstimate::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn too_many_successes_rejected() {
        let _ = SuccessEstimate::new(5, 4);
    }
}
