//! Counters and latency histograms used across the substrate and the
//! benchmark harness.

use crate::time::SimDuration;

/// Aggregate network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets injected by endpoints.
    pub sent: u64,
    /// Packets delivered to endpoints.
    pub delivered: u64,
    /// Packets lost on links (loss probability or failed links).
    pub dropped_loss: u64,
    /// Packets dropped by switch policy (flow-table `Drop`).
    pub dropped_policy: u64,
    /// Packets dropped by an inline processor (µmbox verdict).
    pub dropped_inline: u64,
    /// Packets that transited an inline processor.
    pub steered: u64,
    /// Packets copied to the mirror/capture channel.
    pub mirrored: u64,
    /// Packets discarded at an endpoint NIC (wrong destination MAC after a
    /// flood).
    pub nic_filtered: u64,
}

/// A simple sample-keeping histogram of durations.
///
/// Keeps raw samples (bounded by `cap`) so the harness can report exact
/// percentiles; the experiments generate at most a few hundred thousand
/// samples per run so this is cheap and exact.
#[derive(Debug, Clone)]
pub struct DurationHist {
    samples: Vec<u64>,
    cap: usize,
    /// Count of all recorded samples, including those beyond `cap`.
    pub count: u64,
    max_ns: u64,
}

impl Default for DurationHist {
    fn default() -> Self {
        DurationHist::new()
    }
}

impl DurationHist {
    /// A histogram retaining up to `cap` raw samples (percentiles are
    /// computed over retained samples; the maximum over all samples).
    pub(crate) fn with_capacity(cap: usize) -> DurationHist {
        DurationHist { samples: Vec::new(), cap, count: 0, max_ns: 0 }
    }

    /// A histogram with the default retention (1M samples).
    pub fn new() -> DurationHist {
        Self::with_capacity(1_000_000)
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
        if self.samples.len() < self.cap {
            self.samples.push(ns);
        }
    }

    /// Maximum recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The `p`-th percentile (0–100) over retained samples.
    pub(crate) fn percentile(&self, p: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        SimDuration::from_nanos(sorted[rank.min(sorted.len() - 1)])
    }

    /// Median (p50).
    pub fn median(&self) -> SimDuration {
        self.percentile(50.0)
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.count = 0;
        self.max_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = DurationHist::new();
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count, 100);
        let med = h.median().as_millis();
        assert!((50..=51).contains(&med), "median {med}");
        assert_eq!(h.percentile(99.0).as_millis(), 99);
        assert_eq!(h.max().as_millis(), 100);
        h.clear();
        assert_eq!(h.count, 0);
        assert_eq!(h.median(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_capacity_bound() {
        let mut h = DurationHist::with_capacity(10);
        for i in 0..100u64 {
            h.record(SimDuration::from_nanos(i));
        }
        assert_eq!(h.samples.len(), 10);
        assert_eq!(h.count, 100);
        assert_eq!(h.max().as_nanos(), 99);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = DurationHist::new();
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }
}
