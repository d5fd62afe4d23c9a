//! The signature IDS µmbox (the "modified Snort" of the paper's
//! prototype) and the DNS guard.
//!
//! The IDS executes crowdsourced [`AttackSignature`]s from the
//! repository against wire packets. A new ruleset arrives in a rebuilt
//! chain that the lifecycle model reconfigures in place (the paper's
//! "frequent reconfiguration without impacting availability"
//! requirement — the E9 experiment measures exactly this).

use crate::element::{costs, Element, ElementOutcome};
use iotdev::device::DeviceId;
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::proto::{ports, AppMessage};
use iotlearn::signature::{AttackSignature, Prefilter};
use iotnet::packet::Packet;
use iotnet::time::{SimDuration, SimTime};
use std::cell::OnceCell;
use std::rc::Rc;

/// The signature IDS element.
#[derive(Debug)]
pub struct SigIds {
    /// Protected device.
    pub device: DeviceId,
    /// Active ruleset, shared (`Rc`) with every other IDS protecting the
    /// same SKU — the controller interns one ruleset per SKU instead of
    /// cloning signature vectors per chain.
    signatures: Rc<[AttackSignature]>,
    /// One compiled [`Prefilter`] per signature (same order). Each is a
    /// *necessary* condition for its
    /// matcher, so skipping screened-out signatures cannot change which
    /// signature fires first — counters and events stay byte-identical.
    prefilters: Vec<Prefilter>,
    /// Matches so far.
    pub matches: u64,
}

fn compile_prefilters(signatures: &[AttackSignature]) -> Vec<Prefilter> {
    signatures.iter().map(|s| s.matcher.prefilter()).collect()
}

impl SigIds {
    /// An IDS with an initial ruleset (a `Vec` or an interned `Rc` slice).
    pub fn new(device: DeviceId, signatures: impl Into<Rc<[AttackSignature]>>) -> SigIds {
        let signatures = signatures.into();
        let prefilters = compile_prefilters(&signatures);
        SigIds { device, signatures, prefilters, matches: 0 }
    }

    fn per_packet_cost(&self) -> SimDuration {
        costs::IDS_BASE + costs::IDS_PER_SIG * self.signatures.len() as u64
    }
}

impl Element for SigIds {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        let cost = self.per_packet_cost();
        // One packed-header computation serves every signature's screen,
        // and one payload decode — made when the first admitted signature
        // asks for it — serves every matcher.
        let headers = packet.packed_headers();
        let decoded = OnceCell::new();
        for (sig, pf) in self.signatures.iter().zip(self.prefilters.iter()) {
            if pf.admits(&headers, &packet.payload)
                && sig.matcher.matches_decoded(&packet, &decoded)
            {
                self.matches += 1;
                return ElementOutcome::drop(cost).with_event(
                    SecurityEvent::new(now, self.device, SecurityEventKind::SignatureMatch)
                        .from_remote(packet.ip.src),
                );
            }
        }
        ElementOutcome::pass(packet, cost)
    }

    fn label(&self) -> &'static str {
        "sig-ids"
    }
}

/// The DNS guard: stops the open-resolver reflection vector (Table 1
/// row 6) by dropping recursive queries that did not originate on the
/// LAN, and rate-capping responses the device emits.
#[derive(Debug)]
pub(crate) struct DnsGuard {
    /// Protected device.
    pub device: DeviceId,
}

impl DnsGuard {
    /// A fresh guard.
    pub(crate) fn new(device: DeviceId) -> DnsGuard {
        DnsGuard { device }
    }
}

impl Element for DnsGuard {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        if packet.transport.dst_port() == ports::DNS {
            if let Ok(AppMessage::DnsQuery { recursion: true, .. }) =
                AppMessage::decode(&packet.payload)
            {
                // Reflection queries carry a spoofed (victim) source,
                // which is almost never on this LAN.
                if !packet.ip.src.is_private() {
                    return ElementOutcome::drop(costs::FILTER).with_event(
                        SecurityEvent::new(now, self.device, SecurityEventKind::OpenResolverQuery)
                            .from_remote(packet.ip.src),
                    );
                }
            }
        }
        ElementOutcome::pass(packet, costs::FILTER)
    }

    fn label(&self) -> &'static str {
        "dns-guard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::registry::Sku;
    use iotlearn::signature::{Matcher, Severity};
    use iotnet::addr::{Ipv4Addr, MacAddr};
    use iotnet::packet::TransportHeader;

    fn pkt(src: Ipv4Addr, dst_port: u16, msg: &AppMessage) -> Packet {
        Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            src,
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(4000, dst_port),
            msg.encode(),
        )
    }

    fn cloud_sig() -> AttackSignature {
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "cloud-bypass-backdoor",
            Matcher::CloudCommand,
            Severity::High,
        )
    }

    #[test]
    fn ids_drops_matching_traffic() {
        let mut ids = SigIds::new(DeviceId(0), vec![cloud_sig()]);
        let backdoor = pkt(
            Ipv4Addr::new(100, 64, 0, 9),
            ports::CLOUD,
            &AppMessage::CloudCommand { action: iotdev::proto::ControlAction::TurnOff },
        );
        let out = ids.process(SimTime::ZERO, backdoor);
        assert!(out.packet.is_none());
        assert_eq!(ids.matches, 1);
        assert_eq!(out.event.unwrap().kind, SecurityEventKind::SignatureMatch);
    }

    #[test]
    fn ids_passes_clean_traffic() {
        let mut ids = SigIds::new(DeviceId(0), vec![cloud_sig()]);
        let telemetry = pkt(
            Ipv4Addr::new(10, 0, 0, 7),
            ports::TELEMETRY,
            &AppMessage::Telemetry { kind: iotdev::proto::TelemetryKind::Power, value: 5.0 },
        );
        let out = ids.process(SimTime::ZERO, telemetry);
        assert!(out.packet.is_some());
        assert_eq!(ids.matches, 0);
    }

    #[test]
    fn ids_cost_scales_with_ruleset() {
        let small = SigIds::new(DeviceId(0), vec![cloud_sig()]);
        let big = SigIds::new(DeviceId(0), vec![cloud_sig(); 100]);
        assert!(big.per_packet_cost() > small.per_packet_cost());
    }

    #[test]
    fn dns_guard_blocks_external_recursion_only() {
        let mut guard = DnsGuard::new(DeviceId(0));
        let spoofed = pkt(
            Ipv4Addr::new(203, 0, 113, 50),
            ports::DNS,
            &AppMessage::DnsQuery { name: "amp.example".into(), recursion: true },
        );
        assert!(guard.process(SimTime::ZERO, spoofed).packet.is_none());
        // LAN query passes (a genuinely local resolver use).
        let local = pkt(
            Ipv4Addr::new(10, 0, 0, 3),
            ports::DNS,
            &AppMessage::DnsQuery { name: "printer.local".into(), recursion: true },
        );
        assert!(guard.process(SimTime::ZERO, local).packet.is_some());
        // Non-DNS traffic untouched.
        let other = pkt(
            Ipv4Addr::new(203, 0, 113, 50),
            ports::TELEMETRY,
            &AppMessage::Telemetry { kind: iotdev::proto::TelemetryKind::Status, value: 1.0 },
        );
        assert!(guard.process(SimTime::ZERO, other).packet.is_some());
    }
}
