//! The unified metrics registry.
//!
//! Before this crate, counters lived scattered across `core::metrics`,
//! `iotnet::switch` and `umbox` with ad-hoc reporting. The registry
//! gives them one home: named, typed metrics registered in any order,
//! with a **stable snapshot** — sorted by name *at snapshot time*, not
//! registration time — so two registries populated in different orders
//! (e.g. by worlds stepping through different code paths) render
//! identically.

use std::fmt::Write as _;

/// A metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonic count of occurrences.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
}

/// Named, typed metrics with a name-sorted snapshot.
///
/// Storage is insertion-ordered; ordering is imposed only by
/// `MetricsRegistry::snapshot`, which sorts by name. Re-registering a
/// counter name adds to it (so scattered per-component counters can be
/// absorbed additively); re-registering a gauge overwrites.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the counter `name`, creating it at `v` if absent.
    ///
    /// Panics if `name` is already registered as a gauge — a metric's
    /// type is part of its contract.
    pub fn counter(&mut self, name: &str, v: u64) {
        for (n, val) in &mut self.entries {
            if n == name {
                match val {
                    MetricValue::Counter(c) => *c += v,
                    MetricValue::Gauge(_) => panic!("metric {name:?} is a gauge, not a counter"),
                }
                return;
            }
        }
        self.entries.push((name.to_string(), MetricValue::Counter(v)));
    }

    /// Set the gauge `name` to `v`, creating it if absent.
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn gauge(&mut self, name: &str, v: f64) {
        for (n, val) in &mut self.entries {
            if n == name {
                match val {
                    MetricValue::Gauge(g) => *g = v,
                    MetricValue::Counter(_) => panic!("metric {name:?} is a counter, not a gauge"),
                }
                return;
            }
        }
        self.entries.push((name.to_string(), MetricValue::Gauge(v)));
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Name-sorted snapshot of all metrics.
    ///
    /// The sort happens here, at snapshot time — insertion order never
    /// leaks into the output, which is what makes snapshots comparable
    /// across worlds that registered metrics in different orders.
    pub(crate) fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut snap = self.entries.clone();
        snap.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }

    /// Render the snapshot as `name = value` lines (deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} = {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} = {g:.6}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_regardless_of_insertion_order() {
        // The satellite fix: ordering is imposed at snapshot time, so
        // two registries fed the same metrics in different orders
        // produce identical snapshots.
        let mut a = MetricsRegistry::new();
        a.counter("zeta", 1);
        a.counter("alpha", 2);
        a.gauge("mid", 0.5);

        let mut b = MetricsRegistry::new();
        b.gauge("mid", 0.5);
        b.counter("alpha", 2);
        b.counter("zeta", 1);

        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.render(), b.render());
        let names: Vec<String> = a.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn counters_absorb_additively() {
        let mut r = MetricsRegistry::new();
        r.counter("net.cache_hits", 3);
        r.counter("net.cache_hits", 4);
        assert_eq!(r.get("net.cache_hits"), Some(MetricValue::Counter(7)));
        assert_eq!(r.entries.len(), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.gauge("exposure", 1.0);
        r.gauge("exposure", 2.5);
        assert_eq!(r.get("exposure"), Some(MetricValue::Gauge(2.5)));
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn type_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge("x", 1.0);
        r.counter("x", 1);
    }

    #[test]
    fn render_is_deterministic_text() {
        let mut r = MetricsRegistry::new();
        r.counter("b", 2);
        r.gauge("a", 0.25);
        assert_eq!(r.render(), "a = 0.250000\nb = 2\n");
    }
}
