//! The element processing model.
//!
//! A µmbox is a chain of small elements, in the spirit of Click (the
//! paper proposes "a lightweight Click version akin to TinyOS" as the
//! programming platform). Each element sees one packet and produces an
//! [`ElementOutcome`]: keep/transform/drop the packet, optionally reply
//! on the device's behalf, report a security event, and account its
//! processing cost.

use iotdev::env::{EnvValues, EnvVar};
use iotdev::events::SecurityEvent;
use iotnet::packet::Packet;
use iotnet::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// What an element did with a packet. No element answers with more than
/// one reply or reports more than one event per packet, so both are held
/// in the value and an outcome never allocates.
#[derive(Debug)]
pub struct ElementOutcome {
    /// The packet to hand to the next element (`None` = dropped).
    pub packet: Option<Packet>,
    /// A packet to emit instead (a proxy's answer). It skips the rest of
    /// the chain.
    pub reply: Option<Packet>,
    /// A security event to report to the controller.
    pub event: Option<SecurityEvent>,
    /// Processing cost.
    pub cost: SimDuration,
}

impl ElementOutcome {
    /// Pass the packet through unchanged.
    pub fn pass(packet: Packet, cost: SimDuration) -> ElementOutcome {
        ElementOutcome { packet: Some(packet), reply: None, event: None, cost }
    }

    /// Drop the packet.
    pub fn drop(cost: SimDuration) -> ElementOutcome {
        ElementOutcome { packet: None, reply: None, event: None, cost }
    }

    /// Drop the packet and reply on the device's behalf.
    pub fn reply(reply: Packet, cost: SimDuration) -> ElementOutcome {
        ElementOutcome { packet: None, reply: Some(reply), event: None, cost }
    }

    /// Attach an event.
    pub(crate) fn with_event(mut self, event: SecurityEvent) -> ElementOutcome {
        self.event = Some(event);
        self
    }
}

/// One packet-processing element.
pub trait Element {
    /// Process a packet at simulated time `now`.
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome;

    /// Short label for reports.
    fn label(&self) -> &'static str;
}

/// A shared sink through which chains deliver security events to the
/// simulation loop (and onward to the controller). Single-threaded
/// simulation ⇒ `Rc<RefCell<_>>`.
#[derive(Debug, Clone, Default)]
pub struct EventSink(Rc<RefCell<Vec<SecurityEvent>>>);

impl EventSink {
    /// A fresh sink.
    pub fn new() -> EventSink {
        EventSink::default()
    }

    /// Append events.
    pub(crate) fn push_all(&self, events: impl IntoIterator<Item = SecurityEvent>) {
        self.0.borrow_mut().extend(events);
    }

    /// Drain all pending events.
    pub fn drain(&self) -> Vec<SecurityEvent> {
        self.0.borrow_mut().drain(..).collect()
    }

    /// Move all pending events onto the end of `out`. Both buffers keep
    /// their capacity, so a per-tick drain never allocates once warm.
    pub fn drain_into(&self, out: &mut Vec<SecurityEvent>) {
        out.append(&mut self.0.borrow_mut());
    }

    /// Discard all pending events, keeping the buffer.
    pub fn clear(&self) {
        self.0.borrow_mut().clear();
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// A shared, controller-maintained view of the discrete environment,
/// read by context-gate elements (Figure 5's "global state identifies a
/// person in the room").
#[derive(Debug, Clone, Default)]
pub struct ViewHandle(Rc<RefCell<EnvValues>>);

impl ViewHandle {
    /// A fresh, empty view.
    pub fn new() -> ViewHandle {
        ViewHandle::default()
    }

    /// Controller-side: set a variable.
    pub fn set(&self, var: EnvVar, value: &'static str) {
        self.0.borrow_mut().set(var, value);
    }

    /// Gate-side: read a variable.
    pub fn get(&self, var: EnvVar) -> Option<&'static str> {
        self.0.borrow().get(var)
    }

    /// Forget every variable: the view of a home at t = 0, in the handle
    /// the home's chains and controller already share.
    pub fn clear(&self) {
        *self.0.borrow_mut() = EnvValues::default();
    }
}

/// Canonical per-packet costs for the element library, in the spirit of
/// the lightweight functions the paper expects ("the actual computation
/// that each micro-middlebox performs will be lightweight").
pub mod costs {
    use iotnet::time::SimDuration;

    /// Password proxy: TCP interpose + credential rewrite.
    pub(crate) const PROXY: SimDuration = SimDuration::from_micros(50);
    /// Signature IDS fixed cost per packet.
    pub(crate) const IDS_BASE: SimDuration = SimDuration::from_micros(15);
    /// Signature IDS per-signature marginal cost.
    pub(crate) const IDS_PER_SIG: SimDuration = SimDuration::from_micros(2);
    /// Rate limiter.
    pub(crate) const RATE_LIMIT: SimDuration = SimDuration::from_micros(2);
    /// Protocol whitelist / block filter.
    pub(crate) const FILTER: SimDuration = SimDuration::from_micros(3);
    /// Context gate (one shared-view lookup).
    pub(crate) const GATE: SimDuration = SimDuration::from_micros(5);
    /// Mirror (copy).
    pub(crate) const MIRROR: SimDuration = SimDuration::from_micros(8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::device::DeviceId;
    use iotdev::events::SecurityEventKind;

    #[test]
    fn event_sink_roundtrip() {
        let sink = EventSink::new();
        assert!(sink.is_empty());
        sink.push_all([SecurityEvent::new(
            SimTime::ZERO,
            DeviceId(1),
            SecurityEventKind::SmokeAlarm,
        )]);
        assert_eq!(sink.len(), 1);
        let drained = sink.drain();
        assert_eq!(drained.len(), 1);
        assert!(sink.is_empty());
        // Clones share state.
        let clone = sink.clone();
        clone.push_all([SecurityEvent::new(
            SimTime::ZERO,
            DeviceId(2),
            SecurityEventKind::SmokeAlarm,
        )]);
        assert_eq!(sink.len(), 1);
        // Draining into a buffer appends after what it already holds.
        let mut buffer = drained;
        sink.drain_into(&mut buffer);
        assert_eq!(buffer.iter().map(|e| e.device.0).collect::<Vec<_>>(), [1, 2]);
        assert!(sink.is_empty());
    }

    #[test]
    fn view_handle_shares_state() {
        let view = ViewHandle::new();
        let reader = view.clone();
        assert_eq!(reader.get(EnvVar::Occupancy), None);
        view.set(EnvVar::Occupancy, "present");
        assert_eq!(reader.get(EnvVar::Occupancy), Some("present"));
        view.set(EnvVar::Occupancy, "absent");
        assert_eq!(reader.get(EnvVar::Occupancy), Some("absent"));
    }
}
