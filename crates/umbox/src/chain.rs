//! Posture → µmbox chain compilation, and the network attachment.
//!
//! The controller expresses *what* a device's traffic must traverse as a
//! [`Posture`]; this module compiles it into an ordered chain of
//! elements. A chain is itself an [`iotnet::net::InlineProcessor`]: it is
//! registered with the network by value, the network owns it from then
//! on, and a flow rule steers traffic through it.

use crate::element::{Element, ElementOutcome, EventSink, ViewHandle};
use crate::filters::{BlockFilter, MirrorTap, ProtocolWhitelist, RateLimiter};
use crate::gate::ContextGate;
use crate::ids::{DnsGuard, SigIds};
use crate::proxy::{LoginChallenger, PasswordProxy};
use iotdev::device::{AdminCreds, DeviceId};
use iotlearn::signature::AttackSignature;
use iotnet::addr::Ipv4Addr;
use iotnet::net::{InlineProcessor, InlineVerdict};
use iotnet::packet::Packet;
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::posture::{Posture, SecurityModule};
use trace::{TraceEvent, Tracer};

/// One slot in a chain: a closed enum rather than trait objects.
pub(crate) enum Slot {
    /// Block filter.
    Block(BlockFilter),
    /// Protocol whitelist.
    Whitelist(ProtocolWhitelist),
    /// Rate limiter.
    Rate(RateLimiter),
    /// DNS guard.
    Dns(DnsGuard),
    /// Signature IDS.
    Ids(SigIds),
    /// Context gate.
    Gate(ContextGate),
    /// Login challenger.
    Challenger(LoginChallenger),
    /// Password proxy.
    Proxy(PasswordProxy),
    /// Mirror tap.
    Mirror(MirrorTap),
}

impl Slot {
    fn as_element(&mut self) -> &mut dyn Element {
        match self {
            Slot::Block(e) => e,
            Slot::Whitelist(e) => e,
            Slot::Rate(e) => e,
            Slot::Dns(e) => e,
            Slot::Ids(e) => e,
            Slot::Gate(e) => e,
            Slot::Challenger(e) => e,
            Slot::Proxy(e) => e,
            Slot::Mirror(e) => e,
        }
    }
}

/// What a chain does with traffic while its µmbox instance is down
/// (crashed and awaiting watchdog respawn, or disruptively rebooting).
///
/// The trade-off is the classic one: `FailOpen` preserves availability
/// but leaves the device unprotected for the outage window; `FailClosed`
/// preserves the security invariant but blackholes the device. The chaos
/// experiment (E15) quantifies both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Pass traffic unfiltered while down (availability over security).
    /// The default, matching the implicit semantics of the boot window
    /// before a chain's steer rule is installed.
    #[default]
    FailOpen,
    /// Drop traffic while down (security over availability).
    FailClosed,
}

/// Everything the compiler needs besides the posture itself.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// The protected device.
    pub device: DeviceId,
    /// Credentials the password proxy enforces.
    pub required_creds: AdminCreds,
    /// Sources pre-cleared through login challenges (the owner's app).
    pub cleared_sources: Vec<Ipv4Addr>,
    /// The active signature ruleset for this device's SKU, interned so
    /// every chain protecting the same SKU shares one allocation.
    pub signatures: std::rc::Rc<[AttackSignature]>,
    /// The controller's environment view (context gates read this).
    pub view: ViewHandle,
    /// Where the chain reports security events.
    pub events: EventSink,
    /// What the chain does with traffic while its instance is down.
    pub failure_mode: FailureMode,
    /// Packet-class trace emission (µmbox enter/exit; disabled by default).
    pub tracer: Tracer,
}

/// A compiled chain attached (or attachable) to a steer point.
pub struct UmboxChain {
    /// The protected device.
    pub device: DeviceId,
    slots: Vec<Slot>,
    events: EventSink,
    /// Packets the chain dropped.
    pub dropped: u64,
    /// Packets the chain answered on the device's behalf (proxy denials).
    pub intercepted: u64,
    /// What to do with traffic while the backing instance is down.
    pub failure_mode: FailureMode,
    /// Whether the backing instance is currently down (set by the
    /// simulation loop from the lifecycle manager's serving state).
    pub down: bool,
    /// Packets passed unfiltered because the chain was down fail-open.
    pub fail_open_passed: u64,
    /// Packets dropped because the chain was down fail-closed.
    pub fail_closed_dropped: u64,
    /// Packet-class trace emission (disabled by default).
    tracer: Tracer,
}

impl UmboxChain {
    /// An empty chain (passes everything).
    pub(crate) fn empty(device: DeviceId, events: EventSink) -> UmboxChain {
        UmboxChain {
            device,
            slots: Vec::new(),
            events,
            dropped: 0,
            intercepted: 0,
            failure_mode: FailureMode::default(),
            down: false,
            fail_open_passed: 0,
            fail_closed_dropped: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Append a slot.
    pub(crate) fn push(&mut self, slot: Slot) {
        self.slots.push(slot);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the chain has no elements.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Run a packet through the chain (what the network calls on a
    /// steered packet).
    ///
    /// While the backing instance is down, the packet never reaches the
    /// elements: it is passed unfiltered (`FailOpen`) or dropped
    /// (`FailClosed`) at zero processing cost.
    pub fn run(&mut self, now: SimTime, packet: Packet) -> InlineVerdict {
        self.tracer.emit(now.as_nanos(), TraceEvent::UmboxEnter { device: self.device.0 });
        if self.down {
            return match self.failure_mode {
                FailureMode::FailOpen => {
                    self.fail_open_passed += 1;
                    self.exit_trace(now, "fail-open");
                    InlineVerdict::pass(packet, SimDuration::ZERO)
                }
                FailureMode::FailClosed => {
                    self.fail_closed_dropped += 1;
                    self.exit_trace(now, "fail-closed");
                    InlineVerdict::drop(SimDuration::ZERO)
                }
            };
        }
        let mut cost = SimDuration::ZERO;
        let mut current = packet;
        for slot in &mut self.slots {
            let ElementOutcome { packet, reply, event, cost: c } =
                slot.as_element().process(now, current);
            cost += c;
            self.events.push_all(event);
            if let Some(reply) = reply {
                // The element answered on the device's behalf.
                self.intercepted += 1;
                self.exit_trace(now, "intercept");
                return InlineVerdict::pass(reply, cost);
            }
            match packet {
                Some(p) => current = p,
                None => {
                    self.dropped += 1;
                    self.exit_trace(now, "drop");
                    return InlineVerdict::drop(cost);
                }
            }
        }
        self.exit_trace(now, "pass");
        InlineVerdict::pass(current, cost)
    }

    /// Emit the chain-exit trace event with the packet's verdict.
    fn exit_trace(&self, now: SimTime, verdict: &'static str) {
        self.tracer.emit(now.as_nanos(), TraceEvent::UmboxExit { device: self.device.0, verdict });
    }
}

impl InlineProcessor for UmboxChain {
    fn process(&mut self, now: SimTime, pkt: Packet) -> InlineVerdict {
        self.run(now, pkt)
    }
}

/// Compile a posture into a chain. Element order is fixed and security-
/// relevant: cheap drops first (block/whitelist/rate), then inspection
/// (DNS guard, IDS), then context and credential interposition, with the
/// mirror tap last so it sees exactly what the device would.
pub fn build_chain(posture: &Posture, config: &ChainConfig) -> UmboxChain {
    let mut chain = UmboxChain::empty(config.device, config.events.clone());
    chain.failure_mode = config.failure_mode;
    chain.tracer = config.tracer.clone();
    use iotpolicy::posture::BlockClass;

    for module in posture.modules() {
        if let SecurityModule::Block(BlockClass::All) = module {
            chain.push(Slot::Block(BlockFilter::new(config.device, BlockClass::All)));
        }
    }
    if posture.contains(&SecurityModule::ProtocolWhitelist) {
        chain.push(Slot::Whitelist(ProtocolWhitelist::standard()));
    }
    for module in posture.modules() {
        if let SecurityModule::RateLimit { pps } = module {
            chain.push(Slot::Rate(RateLimiter::new(*pps)));
        }
    }
    for module in posture.modules() {
        match module {
            SecurityModule::Block(BlockClass::All) => {} // already first
            SecurityModule::Block(BlockClass::DnsResponses) => {
                chain.push(Slot::Dns(DnsGuard::new(config.device)));
            }
            SecurityModule::Block(class) => {
                chain.push(Slot::Block(BlockFilter::new(config.device, *class)));
            }
            _ => {}
        }
    }
    for module in posture.modules() {
        if let SecurityModule::Ids { .. } = module {
            // `Rc::clone` — a refcount bump, not a ruleset copy.
            chain.push(Slot::Ids(SigIds::new(config.device, config.signatures.clone())));
        }
    }
    for module in posture.modules() {
        if let SecurityModule::ContextGate { var, value } = module {
            chain.push(Slot::Gate(ContextGate::new(
                config.device,
                *var,
                value,
                config.view.clone(),
            )));
        }
    }
    if posture.contains(&SecurityModule::ChallengeLogins) {
        chain.push(Slot::Challenger(LoginChallenger::new(
            config.device,
            config.cleared_sources.clone(),
        )));
    }
    if posture.contains(&SecurityModule::PasswordProxy) {
        chain.push(Slot::Proxy(PasswordProxy::new(config.device, config.required_creds.clone())));
    }
    if posture.contains(&SecurityModule::Mirror) {
        chain.push(Slot::Mirror(MirrorTap::new(1024)));
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::env::EnvVar;
    use iotdev::proto::{ports, AppMessage, ControlAction, ControlAuth};
    use iotnet::addr::MacAddr;
    use iotnet::packet::TransportHeader;
    use iotpolicy::posture::BlockClass;

    fn config() -> ChainConfig {
        ChainConfig {
            device: DeviceId(0),
            required_creds: AdminCreds::new("owner", "Str0ng!"),
            cleared_sources: vec![Ipv4Addr::new(10, 0, 0, 2)],
            signatures: Vec::new().into(),
            view: ViewHandle::new(),
            events: EventSink::new(),
            failure_mode: FailureMode::FailOpen,
            tracer: Tracer::disabled(),
        }
    }

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

    #[test]
    fn empty_posture_builds_empty_chain() {
        let chain = build_chain(&Posture::allow(), &config());
        assert!(chain.is_empty());
    }

    #[test]
    fn quarantine_chain_drops_everything() {
        let cfg = config();
        let mut chain = build_chain(&Posture::quarantine(), &cfg);
        let out = chain.run(
            SimTime::ZERO,
            pkt(
                ports::TELEMETRY,
                &AppMessage::Telemetry { kind: iotdev::proto::TelemetryKind::Status, value: 0.0 },
            ),
        );
        assert!(out.forward.is_empty());
        assert_eq!(chain.dropped, 1);
    }

    #[test]
    fn full_posture_chain_composes_in_order() {
        let posture = Posture::of(SecurityModule::PasswordProxy)
            .with(SecurityModule::Ids { ruleset: 1 })
            .with(SecurityModule::RateLimit { pps: 100 })
            .with(SecurityModule::ProtocolWhitelist)
            .with(SecurityModule::Mirror)
            .with(SecurityModule::ContextGate { var: EnvVar::Occupancy, value: "present" })
            .with(SecurityModule::Block(BlockClass::Cloud));
        let cfg = config();
        let mut chain = build_chain(&posture, &cfg);
        assert_eq!(chain.len(), 7);
        let mut labels = Vec::new();
        for slot in &mut chain.slots {
            labels.push(slot.as_element().label());
        }
        assert_eq!(
            labels,
            vec![
                "protocol-whitelist",
                "rate-limiter",
                "block-filter",
                "sig-ids",
                "context-gate",
                "password-proxy",
                "mirror-tap"
            ]
        );
    }

    #[test]
    fn chain_accumulates_cost_and_events() {
        let cfg = config();
        let posture = Posture::of(SecurityModule::PasswordProxy);
        let mut chain = build_chain(&posture, &cfg);
        let login =
            pkt(ports::MGMT, &AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() });
        for _ in 0..3 {
            let out = chain.run(SimTime::ZERO, login.clone());
            // Proxy answers with a denial on the device's behalf.
            assert_eq!(out.forward.len(), 1);
            assert!(out.latency > SimDuration::ZERO);
        }
        assert_eq!(cfg.events.drain().len(), 1); // batched: 1 per 3 blocked
        assert_eq!(chain.intercepted, 3);
    }

    #[test]
    fn down_chain_fails_open_or_closed() {
        let posture = Posture::quarantine(); // would drop everything if up
        let mut open = build_chain(&posture, &config());
        open.down = true;
        let p = pkt(
            ports::TELEMETRY,
            &AppMessage::Telemetry { kind: iotdev::proto::TelemetryKind::Status, value: 0.0 },
        );
        let out = open.run(SimTime::ZERO, p.clone());
        // Fail-open: the quarantine is bypassed while down.
        assert_eq!(out.forward.len(), 1);
        assert_eq!(open.fail_open_passed, 1);

        let mut cfg = config();
        cfg.failure_mode = FailureMode::FailClosed;
        let mut closed = build_chain(&Posture::allow(), &cfg); // would pass if up
        closed.down = true;
        assert!(closed.run(SimTime::ZERO, p.clone()).forward.is_empty());
        assert_eq!(closed.fail_closed_dropped, 1);

        // Back up: normal processing resumes.
        closed.down = false;
        assert_eq!(closed.run(SimTime::ZERO, p).forward.len(), 1);
    }

    #[test]
    fn gate_in_chain_respects_view() {
        let cfg = config();
        cfg.view.set(EnvVar::Occupancy, "absent");
        let posture =
            Posture::of(SecurityModule::ContextGate { var: EnvVar::Occupancy, value: "present" });
        let mut chain = build_chain(&posture, &cfg);
        let on = pkt(
            ports::CONTROL,
            &AppMessage::Control { action: ControlAction::TurnOn, auth: ControlAuth::None },
        );
        assert!(chain.run(SimTime::ZERO, on.clone()).forward.is_empty());
        cfg.view.set(EnvVar::Occupancy, "present");
        assert_eq!(chain.run(SimTime::ZERO, on).forward.len(), 1);
    }
}
