//! The context gate (Figure 5).
//!
//! "Our µmbox's policy is set to allow the 'ON' messages to be sent to
//! Wemo only if the global state identifies a person in the room."
//!
//! The gate reads the controller-maintained [`ViewHandle`] — not the
//! physical environment directly — which is exactly the paper's
//! architecture (and what makes the control plane's consistency window,
//! experiment E8, observable: a stale view means a wrong gate decision).

use crate::element::{costs, Element, ElementOutcome, ViewHandle};
use iotdev::device::DeviceId;
use iotdev::env::EnvVar;
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::proto::AppMessage;
use iotnet::packet::Packet;
use iotnet::time::SimTime;

/// The Figure 5 context gate.
#[derive(Debug)]
pub(crate) struct ContextGate {
    /// The gated device.
    pub device: DeviceId,
    /// The variable the gate checks.
    pub var: EnvVar,
    /// The value required for actuation to pass.
    pub required: &'static str,
    /// The controller's view.
    view: ViewHandle,
}

impl ContextGate {
    /// A gate requiring `var == required` on `view`.
    pub(crate) fn new(
        device: DeviceId,
        var: EnvVar,
        required: &'static str,
        view: ViewHandle,
    ) -> ContextGate {
        ContextGate { device, var, required, view }
    }

    /// Only hazard-increasing verbs are gated (turning things ON, opening,
    /// unlocking). Safe-direction verbs (off/close/lock) always pass, so
    /// the "turn the Wemo off when nobody is home" recipe keeps working
    /// while the Figure 5 "ON only when someone is home" policy holds.
    fn is_gated_actuation(packet: &Packet) -> bool {
        use iotdev::proto::ControlAction::*;
        match AppMessage::decode(&packet.payload) {
            Ok(AppMessage::Control { action, .. }) | Ok(AppMessage::CloudCommand { action }) => {
                matches!(action, TurnOn | Open | Unlock)
            }
            _ => false,
        }
    }
}

impl Element for ContextGate {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        if !Self::is_gated_actuation(&packet) {
            return ElementOutcome::pass(packet, costs::GATE);
        }
        if self.view.get(self.var) == Some(self.required) {
            ElementOutcome::pass(packet, costs::GATE)
        } else {
            ElementOutcome::drop(costs::GATE).with_event(
                SecurityEvent::new(now, self.device, SecurityEventKind::BlockedActuation)
                    .from_remote(packet.ip.src),
            )
        }
    }

    fn label(&self) -> &'static str {
        "context-gate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::proto::{ports, AppMessage, ControlAction, ControlAuth};
    use iotnet::addr::{Ipv4Addr, MacAddr};
    use iotnet::packet::TransportHeader;

    fn control_pkt(action: ControlAction) -> Packet {
        Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(100, 64, 0, 9),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(4000, ports::CONTROL),
            AppMessage::Control { action, auth: ControlAuth::None }.encode(),
        )
    }

    #[test]
    fn fig5_blocks_on_when_nobody_home() {
        let view = ViewHandle::new();
        view.set(EnvVar::Occupancy, "absent");
        let mut gate = ContextGate::new(DeviceId(0), EnvVar::Occupancy, "present", view.clone());
        let out = gate.process(SimTime::ZERO, control_pkt(ControlAction::TurnOn));
        assert!(out.packet.is_none());
        assert_eq!(out.event.unwrap().kind, SecurityEventKind::BlockedActuation);
        // Somebody comes home: the same message passes.
        view.set(EnvVar::Occupancy, "present");
        let out = gate.process(SimTime::ZERO, control_pkt(ControlAction::TurnOn));
        assert!(out.packet.is_some());
    }

    #[test]
    fn unknown_view_fails_closed() {
        let gate_view = ViewHandle::new(); // controller never wrote it
        let mut gate = ContextGate::new(DeviceId(0), EnvVar::Occupancy, "present", gate_view);
        let out = gate.process(SimTime::ZERO, control_pkt(ControlAction::TurnOn));
        assert!(out.packet.is_none());
    }

    #[test]
    fn non_actuation_traffic_passes() {
        let view = ViewHandle::new();
        view.set(EnvVar::Occupancy, "absent");
        let mut gate = ContextGate::new(DeviceId(0), EnvVar::Occupancy, "present", view);
        // SetColor is tuning, not actuation.
        let out = gate.process(SimTime::ZERO, control_pkt(ControlAction::SetColor(1)));
        assert!(out.packet.is_some());
        // Telemetry is not gated either.
        let telemetry = Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(4000, ports::TELEMETRY),
            AppMessage::Telemetry { kind: iotdev::proto::TelemetryKind::Power, value: 1.0 }
                .encode(),
        );
        let out = gate.process(SimTime::ZERO, telemetry);
        assert!(out.packet.is_some());
    }

    #[test]
    fn cloud_backdoor_actuation_is_also_gated() {
        let view = ViewHandle::new();
        view.set(EnvVar::Occupancy, "absent");
        let mut gate = ContextGate::new(DeviceId(0), EnvVar::Occupancy, "present", view);
        let backdoor = Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(100, 64, 0, 9),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::tcp(4000, ports::CLOUD, 0, Default::default()),
            AppMessage::CloudCommand { action: ControlAction::TurnOn }.encode(),
        );
        assert!(gate.process(SimTime::ZERO, backdoor).packet.is_none());
    }
}
