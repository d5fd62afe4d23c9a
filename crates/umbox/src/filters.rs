//! Generic filtering elements: block filters, protocol whitelist, token
//! bucket rate limiter, and the mirror tap.

use crate::element::{costs, Element, ElementOutcome};
use iotdev::device::DeviceId;
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::proto::{ports, AppMessage, ControlAction};
use iotnet::packet::Packet;
use iotnet::time::SimTime;
use iotpolicy::posture::BlockClass;
use std::collections::BTreeSet;

/// Drops packets in a [`BlockClass`].
#[derive(Debug)]
pub(crate) struct BlockFilter {
    /// Protected device.
    pub device: DeviceId,
    /// What to block.
    pub class: BlockClass,
}

impl BlockFilter {
    /// A filter for one block class.
    pub(crate) fn new(device: DeviceId, class: BlockClass) -> BlockFilter {
        BlockFilter { device, class }
    }

    fn blocks(&self, packet: &Packet) -> bool {
        let msg = AppMessage::decode(&packet.payload).ok();
        match self.class {
            BlockClass::All => true,
            BlockClass::Actuation => {
                matches!(msg, Some(AppMessage::Control { .. } | AppMessage::CloudCommand { .. }))
            }
            BlockClass::OpenVerbs => matches!(
                msg,
                Some(AppMessage::Control {
                    action: ControlAction::Open | ControlAction::Unlock,
                    ..
                }) | Some(AppMessage::CloudCommand {
                    action: ControlAction::Open | ControlAction::Unlock,
                })
            ),
            BlockClass::OnVerbs => matches!(
                msg,
                Some(AppMessage::Control { action: ControlAction::TurnOn, .. })
                    | Some(AppMessage::CloudCommand { action: ControlAction::TurnOn })
            ),
            BlockClass::Cloud => packet.transport.dst_port() == ports::CLOUD,
            BlockClass::DnsResponses => {
                packet.transport.dst_port() == ports::DNS
                    && matches!(msg, Some(AppMessage::DnsQuery { recursion: true, .. }))
                    && !packet.ip.src.is_private()
            }
        }
    }
}

impl Element for BlockFilter {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        if self.blocks(&packet) {
            let mut out = ElementOutcome::drop(costs::FILTER);
            if matches!(self.class, BlockClass::Cloud) {
                out = out.with_event(
                    SecurityEvent::new(now, self.device, SecurityEventKind::BackdoorAccessed)
                        .from_remote(packet.ip.src),
                );
            }
            out
        } else {
            ElementOutcome::pass(packet, costs::FILTER)
        }
    }

    fn label(&self) -> &'static str {
        "block-filter"
    }
}

/// Only the device's declared protocol planes get through.
#[derive(Debug)]
pub(crate) struct ProtocolWhitelist {
    /// Allowed destination ports.
    pub allowed: BTreeSet<u16>,
}

impl ProtocolWhitelist {
    /// Whitelist the given ports.
    pub(crate) fn new(allowed: impl IntoIterator<Item = u16>) -> ProtocolWhitelist {
        ProtocolWhitelist { allowed: allowed.into_iter().collect() }
    }

    /// The standard plane set for a well-behaved device (no DNS, no
    /// cloud).
    pub(crate) fn standard() -> ProtocolWhitelist {
        ProtocolWhitelist::new([ports::MGMT, ports::CONTROL, ports::TELEMETRY])
    }
}

impl Element for ProtocolWhitelist {
    fn process(&mut self, _now: SimTime, packet: Packet) -> ElementOutcome {
        if self.allowed.contains(&packet.transport.dst_port()) {
            ElementOutcome::pass(packet, costs::FILTER)
        } else {
            ElementOutcome::drop(costs::FILTER)
        }
    }

    fn label(&self) -> &'static str {
        "protocol-whitelist"
    }
}

/// A token-bucket rate limiter.
#[derive(Debug)]
pub(crate) struct RateLimiter {
    /// Sustained packets per second.
    pub pps: u32,
    /// Bucket depth (burst tolerance).
    pub burst: u32,
    tokens: f64,
    last_refill: SimTime,
}

impl RateLimiter {
    /// A limiter at `pps` with a burst of the same size.
    pub(crate) fn new(pps: u32) -> RateLimiter {
        RateLimiter {
            pps,
            burst: pps.max(1),
            tokens: pps.max(1) as f64,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.duration_since(self.last_refill);
        self.last_refill = now;
        self.tokens =
            (self.tokens + elapsed.as_secs_f64() * self.pps as f64).min(self.burst as f64);
    }
}

impl Element for RateLimiter {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            ElementOutcome::pass(packet, costs::RATE_LIMIT)
        } else {
            ElementOutcome::drop(costs::RATE_LIMIT)
        }
    }

    fn label(&self) -> &'static str {
        "rate-limiter"
    }
}

/// A mirror tap: keeps (bounded) copies for forensics and passes the
/// packet on. The retention buffer is a ring (`VecDeque`), so evicting
/// the oldest copy is O(1) rather than shifting the whole buffer on
/// every packet once full.
#[derive(Debug)]
pub(crate) struct MirrorTap {
    /// Retained copies, oldest first.
    pub taps: std::collections::VecDeque<Packet>,
    capacity: usize,
}

impl MirrorTap {
    /// A tap retaining up to `capacity` packets.
    pub(crate) fn new(capacity: usize) -> MirrorTap {
        MirrorTap { taps: std::collections::VecDeque::new(), capacity }
    }
}

impl Element for MirrorTap {
    fn process(&mut self, _now: SimTime, packet: Packet) -> ElementOutcome {
        if self.taps.len() == self.capacity {
            self.taps.pop_front();
        }
        self.taps.push_back(packet.clone());
        ElementOutcome::pass(packet, costs::MIRROR)
    }

    fn label(&self) -> &'static str {
        "mirror-tap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::proto::ControlAuth;
    use iotnet::addr::{Ipv4Addr, MacAddr};
    use iotnet::packet::TransportHeader;

    fn pkt(dst_port: u16, msg: &AppMessage) -> Packet {
        Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(100, 64, 0, 9),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(4000, dst_port),
            msg.encode(),
        )
    }

    fn open_msg() -> AppMessage<'static> {
        AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::None }
    }

    fn close_msg() -> AppMessage<'static> {
        AppMessage::Control { action: ControlAction::Close, auth: ControlAuth::None }
    }

    #[test]
    fn open_verbs_block_is_selective() {
        let mut f = BlockFilter::new(DeviceId(0), BlockClass::OpenVerbs);
        assert!(f.process(SimTime::ZERO, pkt(ports::CONTROL, &open_msg())).packet.is_none());
        assert!(f.process(SimTime::ZERO, pkt(ports::CONTROL, &close_msg())).packet.is_some());
        // Unlock is an open-verb too.
        let unlock = AppMessage::Control { action: ControlAction::Unlock, auth: ControlAuth::None };
        assert!(f.process(SimTime::ZERO, pkt(ports::CONTROL, &unlock)).packet.is_none());
    }

    #[test]
    fn on_verbs_and_cloud_blocks() {
        let mut on = BlockFilter::new(DeviceId(0), BlockClass::OnVerbs);
        let turn_on =
            AppMessage::Control { action: ControlAction::TurnOn, auth: ControlAuth::None };
        let cloud_on = AppMessage::CloudCommand { action: ControlAction::TurnOn };
        assert!(on.process(SimTime::ZERO, pkt(ports::CONTROL, &turn_on)).packet.is_none());
        assert!(on.process(SimTime::ZERO, pkt(ports::CLOUD, &cloud_on)).packet.is_none());
        let mut cloud = BlockFilter::new(DeviceId(0), BlockClass::Cloud);
        let out = cloud.process(SimTime::ZERO, pkt(ports::CLOUD, &cloud_on));
        assert!(out.packet.is_none());
        assert_eq!(out.event.unwrap().kind, SecurityEventKind::BackdoorAccessed);
        assert!(cloud.process(SimTime::ZERO, pkt(ports::CONTROL, &turn_on)).packet.is_some());
    }

    #[test]
    fn block_all_blocks_everything() {
        let mut f = BlockFilter::new(DeviceId(0), BlockClass::All);
        assert!(f
            .process(
                SimTime::ZERO,
                pkt(
                    ports::TELEMETRY,
                    &AppMessage::Event { kind: iotdev::proto::EventKind::SmokeAlarm }
                )
            )
            .packet
            .is_none());
    }

    #[test]
    fn whitelist_drops_undeclared_planes() {
        let mut w = ProtocolWhitelist::standard();
        assert!(w
            .process(
                SimTime::ZERO,
                pkt(ports::CLOUD, &AppMessage::CloudCommand { action: ControlAction::TurnOn })
            )
            .packet
            .is_none());
        assert!(w
            .process(
                SimTime::ZERO,
                pkt(ports::DNS, &AppMessage::DnsQuery { name: "x".into(), recursion: true })
            )
            .packet
            .is_none());
        assert!(w.process(SimTime::ZERO, pkt(ports::CONTROL, &close_msg())).packet.is_some());
    }

    #[test]
    fn rate_limiter_enforces_rate() {
        let mut rl = RateLimiter::new(10);
        let mut passed = 0;
        // 100 packets at t=0: only the burst (10) passes.
        for _ in 0..100 {
            if rl.process(SimTime::ZERO, pkt(ports::TELEMETRY, &close_msg())).packet.is_some() {
                passed += 1;
            }
        }
        assert_eq!(passed, 10);
        // After a second, ~10 more tokens.
        let mut passed = 0;
        for _ in 0..100 {
            if rl
                .process(SimTime::from_secs(1), pkt(ports::TELEMETRY, &close_msg()))
                .packet
                .is_some()
            {
                passed += 1;
            }
        }
        assert_eq!(passed, 10);
    }

    #[test]
    fn mirror_keeps_bounded_copies() {
        let mut m = MirrorTap::new(3);
        for i in 0..5u16 {
            let mut p = pkt(ports::TELEMETRY, &close_msg());
            p.transport = TransportHeader::udp(i, ports::TELEMETRY);
            assert!(m.process(SimTime::ZERO, p).packet.is_some());
        }
        assert_eq!(m.taps.len(), 3);
        assert_eq!(m.taps[0].transport.src_port(), 2);
    }
}
