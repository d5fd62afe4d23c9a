//! The emission handle and the buffer behind it.
//!
//! A [`Tracer`] is a cheap cloneable handle. The world holds one; its
//! switches and µmbox chains keep clones, and the emitters it calls (the
//! fault scheduler, the delivery channel, the safety monitor) are lent
//! it for the call that emits. Disabled — the default — it is a `None`
//! and an [`Tracer::emit`] call is a branch on a niche: no allocation,
//! no formatting, no buffer. That is the zero-cost contract
//! `tests/alloc_counter.rs` pins.
//!
//! A trace is an output. Nothing inside a simulation reads it back, so
//! how a run is traced cannot change what the run does.
//!
//! Enabled, all clones share one `TraceBuffer` via `Rc<RefCell<_>>`
//! (worlds are single-threaded; parallel sweeps give each world its own
//! tracer and compare the rendered strings), and the buffer records
//! `(sim-time ns, event)` pairs in emission order, masked by
//! [`TraceConfig`].

use crate::event::{EventClass, TraceEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// Which event classes a tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record control-plane / lifecycle events (compact; golden files).
    pub control: bool,
    /// Record per-packet data-plane events (bulky; differential tests).
    pub packet: bool,
}

impl TraceConfig {
    /// Control-plane events only — the golden-trace profile.
    pub fn control_only() -> Self {
        TraceConfig { control: true, packet: false }
    }

    /// Everything — the differential-test profile.
    pub fn full() -> Self {
        TraceConfig { control: true, packet: true }
    }

    fn accepts(&self, class: EventClass) -> bool {
        match class {
            EventClass::Control => self.control,
            EventClass::Packet => self.packet,
        }
    }
}

/// The shared recording buffer: `(sim-time ns, event)` in emission
/// order.
#[derive(Debug)]
struct TraceBuffer {
    config: TraceConfig,
    events: Vec<(u64, TraceEvent)>,
}

/// Cloneable, zero-cost-when-disabled emission handle.
///
/// `Default` is the disabled tracer.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceBuffer>>>);

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    pub const fn disabled() -> Self {
        Tracer(None)
    }

    /// A recording tracer with the given class mask.
    pub fn new(config: TraceConfig) -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceBuffer { config, events: Vec::new() }))))
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record `event` at sim-time `at_ns` if enabled and the event's
    /// class is in the mask. Disabled: one branch, nothing else.
    #[inline]
    pub fn emit(&self, at_ns: u64, event: TraceEvent) {
        if let Some(buf) = &self.0 {
            let mut buf = buf.borrow_mut();
            if buf.config.accepts(event.class()) {
                buf.events.push((at_ns, event));
            }
        }
    }

    /// Number of recorded events (0 when disabled).
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    /// True when no events have been recorded (always true disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded `(sim-time ns, event)` pairs.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.0.as_ref().map_or_else(Vec::new, |b| b.borrow().events.clone())
    }

    /// Render the buffer as canonical JSONL — one event per line, each
    /// line terminated by `\n`. Empty string when disabled or empty.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(buf) = &self.0 {
            for (at, ev) in &buf.borrow().events {
                ev.write_json(*at, &mut out);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(5, TraceEvent::Failover { count: 1 });
        assert!(t.is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::new(TraceConfig::full());
        let u = t.clone();
        u.emit(1, TraceEvent::CacheMiss { switch: 0 });
        t.emit(2, TraceEvent::CacheHit { switch: 0 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_jsonl(), u.to_jsonl());
    }

    #[test]
    fn class_mask_filters_packet_events() {
        let t = Tracer::new(TraceConfig::control_only());
        t.emit(1, TraceEvent::CacheHit { switch: 0 });
        t.emit(2, TraceEvent::FaultFired { kind: "wire-down" });
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1.kind(), "fault-fired");
    }

    #[test]
    fn jsonl_preserves_emission_order_at_equal_times() {
        let t = Tracer::new(TraceConfig::full());
        t.emit(7, TraceEvent::UmboxEnter { device: 3 });
        t.emit(7, TraceEvent::UmboxExit { device: 3, verdict: "pass" });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("umbox-enter"));
        assert!(lines[1].contains("umbox-exit"));
    }
}
