//! Cross-crate property tests: invariants that span the substrate
//! boundaries (policy ↔ chain compilation, world determinism, codec
//! composition with devices).

use iotsec_repro::iotdev::device::{AdminCreds, DeviceId};
use iotsec_repro::iotdev::env::EnvVar;
use iotsec_repro::iotdev::proto::AppMessage;
use iotsec_repro::iotnet::addr::{Ipv4Addr, MacAddr};
use iotsec_repro::iotnet::packet::{Packet, TransportHeader};
use iotsec_repro::iotnet::time::{SimDuration, SimTime};
use iotsec_repro::iotpolicy::posture::{BlockClass, Posture, SecurityModule};
use iotsec_repro::umbox::chain::{build_chain, ChainConfig};
use iotsec_repro::umbox::element::{EventSink, ViewHandle};
use proptest::prelude::*;

fn arb_posture() -> impl Strategy<Value = Posture> {
    let modules = prop::collection::vec(
        prop_oneof![
            Just(SecurityModule::PasswordProxy),
            Just(SecurityModule::Ids { ruleset: 1 }),
            Just(SecurityModule::RateLimit { pps: 100 }),
            Just(SecurityModule::ProtocolWhitelist),
            Just(SecurityModule::Mirror),
            Just(SecurityModule::ChallengeLogins),
            Just(SecurityModule::Block(BlockClass::Cloud)),
            Just(SecurityModule::Block(BlockClass::OpenVerbs)),
            Just(SecurityModule::Block(BlockClass::DnsResponses)),
            Just(SecurityModule::ContextGate { var: EnvVar::Occupancy, value: "present" }),
        ],
        0..6,
    );
    modules.prop_map(|ms| {
        let mut p = Posture::allow();
        for m in ms {
            p.add(m);
        }
        p
    })
}

fn config() -> ChainConfig {
    ChainConfig {
        device: DeviceId(0),
        required_creds: AdminCreds::owner_default(),
        cleared_sources: vec![Ipv4Addr::new(10, 0, 200, 1)],
        signatures: Vec::new().into(),
        view: ViewHandle::new(),
        events: EventSink::new(),
        failure_mode: umbox::chain::FailureMode::FailOpen,
        tracer: trace::Tracer::disabled(),
    }
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..64)
}

proptest! {
    /// Chain compilation is total and order-canonical: any posture
    /// compiles, and the same posture always yields the same chain shape.
    #[test]
    fn prop_chain_compilation_deterministic(posture in arb_posture()) {
        let a = build_chain(&posture, &config());
        let b = build_chain(&posture, &config());
        prop_assert_eq!(a.len(), b.len());
        // Non-empty posture ⇒ non-empty chain; allow ⇒ empty chain.
        prop_assert_eq!(posture.is_allow(), a.is_empty());
    }

    /// Chains never panic and never *create* traffic from junk: any
    /// payload is either passed, dropped, or answered with a single
    /// well-formed reply.
    #[test]
    fn prop_chain_total_on_arbitrary_payloads(
        posture in arb_posture(),
        payload in arb_payload(),
        dst_port in prop_oneof![Just(8080u16), Just(49153), Just(53), Just(8443), Just(5683), any::<u16>()],
    ) {
        let cfg = config();
        let mut chain = build_chain(&posture, &cfg);
        let pkt = Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            Ipv4Addr::new(100, 64, 0, 9),
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(40000, dst_port),
            payload.into(),
        );
        let verdict = chain.run(SimTime::ZERO, pkt);
        prop_assert!(verdict.forward.len() <= 1);
        for p in &verdict.forward {
            // Anything the chain emits is a frame the substrate models:
            // an IPv4 ethertype, and a TCP (6) or UDP (17) protocol byte.
            prop_assert_eq!(p.eth.ethertype, 0x0800);
            prop_assert!(matches!(p.ip.protocol, 6 | 17), "protocol {}", p.ip.protocol);
        }
    }

    /// Posture merge is commutative with respect to compiled chain size.
    #[test]
    fn prop_posture_merge_commutes(a in arb_posture(), b in arb_posture()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(build_chain(&ab, &config()).len(), build_chain(&ba, &config()).len());
    }
}

/// The whole world is deterministic: two runs with the same seed produce
/// identical metrics, and a different seed still produces the same
/// security outcome (the result is seed-stable, not seed-lucky).
#[test]
fn world_runs_are_deterministic() {
    use iotsec_repro::iotsec::defense::Defense;
    use iotsec_repro::iotsec::scenario;
    use iotsec_repro::iotsec::world::World;

    let run = |seed: u64| {
        let (mut d, _) = scenario::smart_home(Defense::iotsec(), seed);
        d.seed = seed;
        let mut w = World::new(&d);
        w.env.occupied = true;
        w.run_until_attack_done(SimDuration::from_secs(300));
        let m = w.report();
        (
            m.compromised.len(),
            m.privacy_leaked.len(),
            m.ddos_bytes_at_victim,
            m.umbox_drops,
            m.attack_outcomes.iter().map(|o| o.success).collect::<Vec<_>>(),
        )
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "same seed, same world");
    let c = run(2);
    assert_eq!(a.0, c.0, "security outcome is seed-stable");
    assert_eq!(a.4, c.4);
}

/// Device + codec composition: every reply a device generates re-encodes
/// and re-decodes to itself (every payload the world ships is encoded
/// bytes).
#[test]
fn device_replies_round_trip_on_the_wire() {
    use iotsec_repro::iotdev::device::{DeviceClass, IoTDevice};
    use iotsec_repro::iotdev::env::Environment;
    use iotsec_repro::iotdev::proto::ports;
    use iotsec_repro::iotdev::registry::Sku;
    use iotsec_repro::iotdev::vuln::Vulnerability;

    let mut dev = IoTDevice::new(
        DeviceId(0),
        Sku::new("avtech", "ip-cam", "1.3"),
        DeviceClass::Camera,
        Ipv4Addr::new(10, 0, 0, 5),
        vec![Vulnerability::default_admin_admin()],
    );
    let mut env = Environment::new();
    let msgs = [
        AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() },
        AppMessage::MgmtLogin { user: "x".into(), pass: "y".into() },
        AppMessage::MgmtCommand {
            token: 1,
            command: iotsec_repro::iotdev::proto::MgmtCommand::GetImage,
        },
    ];
    for (i, m) in msgs.iter().enumerate() {
        let out = dev.handle_message(
            SimTime::from_secs(i as u64),
            Ipv4Addr::new(100, 64, 0, 9),
            40000,
            ports::MGMT,
            m.clone(),
            &mut env,
        );
        for reply in out.messages {
            let encoded = reply.msg.encode();
            let decoded = AppMessage::decode(&encoded).unwrap();
            assert_eq!(decoded, reply.msg);
        }
    }
}
