//! The password-proxy µmbox (Figure 4) and the login challenger
//! (Figure 3's "Robot Check").
//!
//! Figure 4's scenario: a camera ships with `admin`/`admin` hardcoded
//! and no way to remove it. The proxy interposes on the management
//! plane and enforces an *administrator-chosen* credential: logins that
//! present it are forwarded; every other login — including the burned-in
//! default — is answered with a denial **by the proxy**, so the
//! vulnerable firmware never even sees the attempt. The device is
//! patched without touching it.

use crate::element::{costs, Element, ElementOutcome};
use iotdev::device::{AdminCreds, DeviceId};
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::proto::{ports, AppMessage, AuthRef, MessageRef};
use iotnet::packet::{Packet, TransportHeader};
use iotnet::time::SimTime;

/// Build a denial the proxy sends on the device's behalf.
fn reply_for(original: &Packet, msg: AppMessage) -> Packet {
    let transport = match original.transport {
        TransportHeader::Tcp { src_port, dst_port, .. } => {
            TransportHeader::tcp(dst_port, src_port, 0, Default::default())
        }
        TransportHeader::Udp { src_port, dst_port } => TransportHeader::udp(dst_port, src_port),
    };
    Packet::new(
        original.eth.dst, // as if from the device
        original.eth.src,
        original.ip.dst,
        original.ip.src,
        transport,
        msg.encode(),
    )
}

/// The Figure 4 password proxy — an authenticating gateway for the whole
/// device, not just the login exchange.
///
/// * Management logins must present the administrator-chosen
///   credentials; everything else is denied *by the proxy* (the
///   vulnerable firmware never sees the attempt).
/// * Management commands are forwarded only for sources that logged in
///   through the proxy (a wide-open interface behind the proxy is no
///   longer wide open).
/// * Control-plane actuations must carry the enforced credentials or
///   come from an authorized source — this is the "network patch" for
///   `no-auth-control` devices like the Table 1 traffic lights.
#[derive(Debug)]
pub(crate) struct PasswordProxy {
    /// The protected device.
    pub device: DeviceId,
    /// The administrator-chosen credentials the proxy enforces.
    pub required: AdminCreds,
    /// Sources that have authenticated through the proxy.
    authorized: std::collections::BTreeSet<iotnet::addr::Ipv4Addr>,
    /// Logins denied at the proxy.
    pub blocked_logins: u64,
    /// Logins forwarded.
    pub allowed_logins: u64,
    /// Management commands denied (unvetted session).
    pub blocked_commands: u64,
    /// Control actuations denied.
    pub blocked_controls: u64,
}

impl PasswordProxy {
    /// A proxy enforcing `required` in front of `device`.
    pub(crate) fn new(device: DeviceId, required: AdminCreds) -> PasswordProxy {
        PasswordProxy {
            device,
            required,
            authorized: std::collections::BTreeSet::new(),
            blocked_logins: 0,
            blocked_commands: 0,
            blocked_controls: 0,
            allowed_logins: 0,
        }
    }

    fn creds_ok(&self, user: &str, pass: &str) -> bool {
        user == self.required.user && pass == self.required.pass
    }

    fn deny(&mut self, now: SimTime, packet: &Packet, msg: AppMessage) -> ElementOutcome {
        let event = SecurityEvent::new(now, self.device, SecurityEventKind::AuthFailureBurst)
            .from_remote(packet.ip.src);
        let total_blocked = self.blocked_logins + self.blocked_commands + self.blocked_controls;
        let reply = reply_for(packet, msg);
        let mut out = ElementOutcome::reply(reply, costs::PROXY);
        // One event per blocked attempt is too chatty for the controller;
        // report every third (burst semantics).
        if total_blocked.is_multiple_of(3) {
            out = out.with_event(event);
        }
        out
    }
}

impl Element for PasswordProxy {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        match (packet.transport.dst_port(), MessageRef::decode(&packet.payload)) {
            (ports::MGMT, Ok(MessageRef::MgmtLogin { user, pass })) => {
                if self.creds_ok(user, pass) {
                    self.allowed_logins += 1;
                    self.authorized.insert(packet.ip.src);
                    ElementOutcome::pass(packet, costs::PROXY)
                } else {
                    self.blocked_logins += 1;
                    self.deny(now, &packet, AppMessage::MgmtDenied)
                }
            }
            (ports::MGMT, Ok(MessageRef::MgmtCommand { .. })) => {
                if self.authorized.contains(&packet.ip.src) {
                    ElementOutcome::pass(packet, costs::PROXY)
                } else {
                    self.blocked_commands += 1;
                    self.deny(now, &packet, AppMessage::MgmtDenied)
                }
            }
            (ports::CONTROL, Ok(MessageRef::Control { auth, .. })) => {
                let ok = match auth {
                    AuthRef::Password { user, pass } => self.creds_ok(user, pass),
                    _ => self.authorized.contains(&packet.ip.src),
                };
                if ok {
                    ElementOutcome::pass(packet, costs::PROXY)
                } else {
                    self.blocked_controls += 1;
                    self.deny(now, &packet, AppMessage::ControlAck { ok: false })
                }
            }
            // Telemetry/DNS/cloud planes are out of the proxy's scope.
            _ => ElementOutcome::pass(packet, costs::PROXY),
        }
    }

    fn label(&self) -> &'static str {
        "password-proxy"
    }
}

/// Figure 3's login challenger: during suspicion, management logins must
/// come from a source that has solved a challenge. The simulation models
/// the challenge as an allowlist the controller can seed (the owner's
/// app passes; a bot does not).
#[derive(Debug)]
pub(crate) struct LoginChallenger {
    /// The protected device.
    pub device: DeviceId,
    /// Sources that have passed the challenge.
    pub cleared: Vec<iotnet::addr::Ipv4Addr>,
    /// Challenged (dropped) logins.
    pub challenged: u64,
}

impl LoginChallenger {
    /// A challenger with a pre-cleared source set.
    pub(crate) fn new(device: DeviceId, cleared: Vec<iotnet::addr::Ipv4Addr>) -> LoginChallenger {
        LoginChallenger { device, cleared, challenged: 0 }
    }
}

impl Element for LoginChallenger {
    fn process(&mut self, now: SimTime, packet: Packet) -> ElementOutcome {
        if packet.transport.dst_port() != ports::MGMT {
            return ElementOutcome::pass(packet, costs::FILTER);
        }
        if matches!(MessageRef::decode(&packet.payload), Ok(MessageRef::MgmtLogin { .. }))
            && !self.cleared.contains(&packet.ip.src)
        {
            self.challenged += 1;
            let reply = reply_for(&packet, AppMessage::MgmtDenied);
            return ElementOutcome::reply(reply, costs::FILTER).with_event(
                SecurityEvent::new(now, self.device, SecurityEventKind::AuthFailureBurst)
                    .from_remote(packet.ip.src),
            );
        }
        ElementOutcome::pass(packet, costs::FILTER)
    }

    fn label(&self) -> &'static str {
        "login-challenger"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use iotnet::addr::{Ipv4Addr, MacAddr};

    fn login_pkt(user: &str, pass: &str) -> Packet {
        Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(100, 64, 0, 9),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::tcp(40000, ports::MGMT, 1, Default::default()),
            AppMessage::MgmtLogin { user: user.to_owned().into(), pass: pass.to_owned().into() }
                .encode(),
        )
    }

    #[test]
    fn proxy_blocks_default_creds() {
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let out = proxy.process(SimTime::ZERO, login_pkt("admin", "admin"));
        assert!(out.packet.is_none(), "default creds must not reach the device");
        let reply = AppMessage::decode(&out.reply.unwrap().payload).unwrap();
        assert_eq!(reply, AppMessage::MgmtDenied);
        assert_eq!(proxy.blocked_logins, 1);
    }

    #[test]
    fn proxy_forwards_strong_creds() {
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let out = proxy.process(SimTime::ZERO, login_pkt("owner", "Str0ng!"));
        assert!(out.packet.is_some());
        assert!(out.reply.is_none());
        assert_eq!(proxy.allowed_logins, 1);
    }

    #[test]
    fn proxy_reply_is_addressed_to_the_attacker() {
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let pkt = login_pkt("admin", "admin");
        let out = proxy.process(SimTime::ZERO, pkt.clone());
        let reply = out.reply.unwrap();
        assert_eq!(reply.ip.dst, pkt.ip.src);
        assert_eq!(reply.ip.src, pkt.ip.dst); // appears to come from the device
        assert_eq!(reply.transport.dst_port(), pkt.transport.src_port());
    }

    #[test]
    fn proxy_events_are_batched() {
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let mut events = 0;
        for _ in 0..9 {
            events +=
                proxy.process(SimTime::ZERO, login_pkt("admin", "admin")).event.iter().count();
        }
        assert_eq!(events, 3);
    }

    #[test]
    fn proxy_gates_mgmt_commands_by_session() {
        use iotdev::proto::MgmtCommand;
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let cmd = Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(100, 64, 0, 9),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::tcp(40000, ports::MGMT, 1, Default::default()),
            AppMessage::MgmtCommand { token: 0, command: MgmtCommand::GetConfig }.encode(),
        );
        // Unvetted source: denied even though the device behind would
        // accept anything (open-mgmt-access).
        let out = proxy.process(SimTime::ZERO, cmd.clone());
        assert!(out.packet.is_none());
        assert_eq!(proxy.blocked_commands, 1);
        // After a proper login the same source's commands pass.
        proxy.process(SimTime::ZERO, login_pkt("owner", "Str0ng!"));
        let out = proxy.process(SimTime::ZERO, cmd);
        assert!(out.packet.is_some());
    }

    #[test]
    fn proxy_gates_control_plane() {
        use iotdev::proto::{ControlAction, ControlAuth};
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let ctl = |auth: ControlAuth| {
            Packet::new(
                MacAddr::from_index(9),
                MacAddr::from_index(1),
                Ipv4Addr::new(100, 64, 0, 9),
                Ipv4Addr::new(10, 0, 0, 5),
                TransportHeader::udp(40000, ports::CONTROL),
                AppMessage::Control { action: ControlAction::SetPhase(2), auth }.encode(),
            )
        };
        // Unauthenticated actuation (the traffic-light exploit): denied
        // with a spoofed negative ack.
        let out = proxy.process(SimTime::ZERO, ctl(ControlAuth::None));
        assert!(out.packet.is_none());
        assert_eq!(
            AppMessage::decode(&out.reply.unwrap().payload).unwrap(),
            AppMessage::ControlAck { ok: false }
        );
        // Owner-credentialed actuation (the hub) passes.
        let out = proxy.process(
            SimTime::ZERO,
            ctl(ControlAuth::Password { user: "owner".into(), pass: "Str0ng!".into() }),
        );
        assert!(out.packet.is_some());
        assert_eq!(proxy.blocked_controls, 1);
    }

    #[test]
    fn proxy_ignores_other_planes() {
        let mut proxy = PasswordProxy::new(DeviceId(0), AdminCreds::new("owner", "Str0ng!"));
        let mut pkt = login_pkt("admin", "admin");
        pkt.transport = TransportHeader::udp(40000, ports::TELEMETRY);
        let out = proxy.process(SimTime::ZERO, pkt);
        assert!(out.packet.is_some());
    }

    #[test]
    fn challenger_blocks_uncleared_sources() {
        let owner = Ipv4Addr::new(10, 0, 0, 2);
        let mut ch = LoginChallenger::new(DeviceId(0), vec![owner]);
        // Attacker challenged.
        let out = ch.process(SimTime::ZERO, login_pkt("owner", "Str0ng!"));
        assert!(out.packet.is_none());
        assert_eq!(ch.challenged, 1);
        // Owner passes.
        let mut pkt = login_pkt("owner", "Str0ng!");
        pkt.ip.src = owner;
        let out = ch.process(SimTime::ZERO, pkt);
        assert!(out.packet.is_some());
    }
}
