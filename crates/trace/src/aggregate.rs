//! In-process trace aggregation for `experiments --trace`.
//!
//! Consumes a recorded event stream and produces deterministic
//! summaries: per-component event-kind histograms, and top-K hot
//! switches / µmboxes by data-plane event volume. All maps are
//! `BTreeMap` so iteration (and thus rendering) is ordered; top-K ties
//! break by ascending id.

use crate::event::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregates a trace into per-component histograms and hot-spot
/// rankings.
#[derive(Debug, Clone, Default)]
pub struct TraceAggregator {
    /// `(component, kind)` → occurrence count.
    by_component: BTreeMap<(&'static str, &'static str), u64>,
    /// Switch id → data-plane events touching it.
    switch_heat: BTreeMap<u32, u64>,
    /// Device id → µmbox events touching its chain.
    umbox_heat: BTreeMap<u32, u64>,
    /// Total events observed.
    total: u64,
    /// Sim-time (ns) of the last event observed.
    last_ns: u64,
}

impl TraceAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event into the aggregate.
    pub(crate) fn observe(&mut self, at_ns: u64, event: &TraceEvent) {
        self.total += 1;
        self.last_ns = self.last_ns.max(at_ns);
        *self.by_component.entry((event.component(), event.kind())).or_insert(0) += 1;
        match event {
            TraceEvent::CacheHit { switch }
            | TraceEvent::CacheMiss { switch }
            | TraceEvent::PolicyDrop { switch } => {
                *self.switch_heat.entry(*switch).or_insert(0) += 1;
            }
            TraceEvent::UmboxEnter { device }
            | TraceEvent::UmboxExit { device, .. }
            | TraceEvent::UmboxCrash { device }
            | TraceEvent::UmboxRespawn { device } => {
                *self.umbox_heat.entry(*device).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Fold a whole recorded stream (as returned by
    /// [`crate::tracer::Tracer::events`]).
    pub fn observe_all(&mut self, events: &[(u64, TraceEvent)]) {
        for (at, ev) in events {
            self.observe(*at, ev);
        }
    }

    /// The `k` hottest switches by data-plane event count, hottest
    /// first; ties break by ascending switch id.
    pub(crate) fn top_switches(&self, k: usize) -> Vec<(u32, u64)> {
        top_k(&self.switch_heat, k)
    }

    /// The `k` hottest µmboxes (by protected-device id), hottest first;
    /// ties break by ascending device id.
    pub(crate) fn top_umboxes(&self, k: usize) -> Vec<(u32, u64)> {
        top_k(&self.umbox_heat, k)
    }

    /// Deterministic multi-line report: histogram grouped by component,
    /// then top-K hot switches and µmboxes.
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events, last at {} ns", self.total, self.last_ns);
        let mut current = "";
        for ((component, kind), count) in &self.by_component {
            if *component != current {
                current = component;
                let _ = writeln!(out, "[{component}]");
            }
            let _ = writeln!(out, "  {kind:<20} {count}");
        }
        let hot_sw = self.top_switches(k);
        if !hot_sw.is_empty() {
            let _ = writeln!(out, "hot switches:");
            for (id, n) in hot_sw {
                let _ = writeln!(out, "  sw{id:<4} {n}");
            }
        }
        let hot_ub = self.top_umboxes(k);
        if !hot_ub.is_empty() {
            let _ = writeln!(out, "hot umboxes:");
            for (id, n) in hot_ub {
                let _ = writeln!(out, "  dev{id:<4} {n}");
            }
        }
        out
    }
}

/// Top `k` entries by count descending, id ascending on ties.
fn top_k(heat: &BTreeMap<u32, u64>, k: usize) -> Vec<(u32, u64)> {
    let mut entries: Vec<(u32, u64)> = heat.iter().map(|(&id, &n)| (id, n)).collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_by_component_and_kind() {
        let mut agg = TraceAggregator::new();
        agg.observe(1, &TraceEvent::CacheHit { switch: 0 });
        agg.observe(2, &TraceEvent::CacheHit { switch: 1 });
        agg.observe(3, &TraceEvent::DirectiveIssued { device: 0, kind: "launch" });
        let count = |component, kind| agg.by_component.get(&(component, kind)).copied();
        assert_eq!(agg.total, 3);
        assert_eq!(count("iotnet", "cache-hit"), Some(2));
        assert_eq!(count("iotctl", "directive-issued"), Some(1));
        assert_eq!(count("umbox", "umbox-enter"), None);
    }

    #[test]
    fn top_k_orders_by_heat_then_id() {
        let mut agg = TraceAggregator::new();
        for _ in 0..3 {
            agg.observe(0, &TraceEvent::CacheMiss { switch: 2 });
        }
        agg.observe(0, &TraceEvent::CacheHit { switch: 5 });
        agg.observe(0, &TraceEvent::CacheHit { switch: 1 });
        assert_eq!(agg.top_switches(2), vec![(2, 3), (1, 1)]);
        assert_eq!(agg.top_switches(10), vec![(2, 3), (1, 1), (5, 1)]);
    }

    #[test]
    fn render_is_stable_across_observation_order() {
        let events = [
            (1, TraceEvent::UmboxEnter { device: 4 }),
            (2, TraceEvent::PolicyDrop { switch: 0 }),
            (3, TraceEvent::FaultFired { kind: "wire-down" }),
        ];
        let mut a = TraceAggregator::new();
        a.observe_all(&events);
        let mut b = TraceAggregator::new();
        for (at, ev) in events.iter().rev() {
            b.observe(*at, ev);
        }
        assert_eq!(a.render(3), b.render(3));
    }
}
