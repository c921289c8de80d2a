//! Latency accumulation for experiment reporting.

use std::fmt;

use crate::Duration;

/// Online mean/min/max accumulator for latency-like samples.
///
/// Used to report, e.g., measured cache-to-cache miss latency against the
/// paper's Table 2 closed-form values. Serializes to its four counters so
/// run reports can carry latency distributions.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct LatencyStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyStat {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        LatencyStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let ns = sample.as_ns();
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample in nanoseconds, or `None` if no samples were recorded.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_ns(self.min_ns))
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_ns(self.max_ns))
    }

    /// Sum of all samples.
    pub fn total(&self) -> Duration {
        Duration::from_ns(self.total_ns)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl fmt::Display for LatencyStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean_ns() {
            Some(mean) => write!(
                f,
                "n={} mean={:.1}ns min={}ns max={}ns",
                self.count, mean, self.min_ns, self.max_ns
            ),
            None => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stat_tracks_extremes() {
        let mut s = LatencyStat::new();
        assert_eq!(s.mean_ns(), None);
        s.record(Duration::from_ns(10));
        s.record(Duration::from_ns(30));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean_ns(), Some(20.0));
        assert_eq!(s.min(), Some(Duration::from_ns(10)));
        assert_eq!(s.max(), Some(Duration::from_ns(30)));
        assert_eq!(s.total(), Duration::from_ns(40));
    }

    #[test]
    fn latency_stat_merge() {
        let mut a = LatencyStat::new();
        a.record(Duration::from_ns(5));
        let mut b = LatencyStat::new();
        b.record(Duration::from_ns(15));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean_ns(), Some(10.0));
    }
}
