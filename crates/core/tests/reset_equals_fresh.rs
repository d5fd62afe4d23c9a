//! Reset ≡ fresh, per type.
//!
//! Every type a resident world (E26) carries from one home to the next
//! has one reset, and its constructor ends in it — so "reset" and "built
//! cold" cannot drift apart. Each case here builds one value, dirties it
//! through its public API, resets it, and compares its `Debug` with a
//! second fresh value. After a reset every map a type owns is empty (or
//! holds one configured entry), so `Debug` output is deterministic.

use bytes::Bytes;
use iotctl::controller::{Controller, ControllerConfig};
use iotdev::attacker::{AttackPlan, AttackStep, Attacker};
use iotdev::device::{AdminCreds, DeviceClass, DeviceId, IoTDevice};
use iotdev::env::{EnvVar, Environment};
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::proto::{ports, AppMessage, ControlAction, MgmtCommand};
use iotdev::registry::Sku;
use iotdev::vuln::Vulnerability;
use iotnet::addr::{Ipv4Addr, MacAddr, PortNo, SwitchId};
use iotnet::capture::Capture;
use iotnet::engine::EventQueue;
use iotnet::flow::{FlowAction, FlowMatch, FlowRule, FlowTable, SteerId};
use iotnet::link::{Link, LinkParams};
use iotnet::net::{InlineProcessor, InlineVerdict, Network};
use iotnet::packet::{Packet, TransportHeader};
use iotnet::switch::Switch;
use iotnet::time::{SimDuration, SimTime};
use iotnet::topology::TopologyBuilder;
use iotpolicy::compile::PolicyCompiler;
use iotpolicy::recipe::{Recipe, RecipeAction, Trigger};
use iotsec::hub::Hub;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use trace::{TraceConfig, Tracer};
use umbox::element::ViewHandle;

/// Build a `T`, dirty it, reset it: it must print like a second fresh `T`.
fn assert_reset_is_fresh<T: Debug>(
    fresh: impl Fn() -> T,
    dirty: impl FnOnce(&mut T),
    reset: impl FnOnce(&mut T),
) {
    let mut used = fresh();
    dirty(&mut used);
    assert_ne!(format!("{used:?}"), format!("{:?}", fresh()), "the dirtying left no mark");
    reset(&mut used);
    assert_eq!(format!("{used:?}"), format!("{:?}", fresh()));
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn packet(src: u8, dst: u8, dst_port: u16) -> Packet {
    Packet::new(
        MacAddr::from_index(src.into()),
        MacAddr::from_index(dst.into()),
        ip(src),
        ip(dst),
        TransportHeader::udp(5000, dst_port),
        Bytes::from_static(b"payload"),
    )
}

#[test]
fn link_reset_is_fresh() {
    assert_reset_is_fresh(
        || Link::new(LinkParams::wifi()),
        |link| {
            let mut rng = StdRng::seed_from_u64(1);
            for i in 0..64 {
                link.transmit(SimTime::from_millis(i), 12_000, &mut rng);
            }
            link.burst_loss = Some(0.5);
            link.fail();
        },
        Link::reset_runtime,
    );
}

#[test]
fn flow_table_reset_is_fresh() {
    assert_reset_is_fresh(
        FlowTable::new,
        |table| {
            table.install(FlowRule::new(100, FlowMatch::to_host(ip(2)), FlowAction::Drop));
            table.install(FlowRule::new(50, FlowMatch::any(), FlowAction::Normal).with_cookie(7));
            table.lookup(PortNo(0), &packet(1, 2, 80));
            table.remove_by_cookie(7);
            table.lookup(PortNo(0), &packet(1, 3, 80));
        },
        FlowTable::recycle,
    );
}

#[test]
fn switch_reset_is_fresh() {
    assert_reset_is_fresh(
        || Switch::new(SwitchId(0), 4),
        |sw| {
            sw.set_tracer(Tracer::new(TraceConfig::full()));
            sw.install(FlowRule::new(100, FlowMatch::to_host(ip(9)), FlowAction::Drop));
            for (in_port, src, dst) in [(0, 1, 2), (1, 2, 1), (0, 1, 2), (2, 3, 9)] {
                sw.process_at(SimTime::ZERO, PortNo(in_port), &packet(src, dst, 80));
            }
        },
        Switch::reset_resident,
    );
}

#[test]
fn event_queue_reset_is_fresh() {
    assert_reset_is_fresh(
        || EventQueue::<u32>::with_capacity(16),
        |q| {
            for i in 0..32u32 {
                // Microsecond, millisecond and seconds-out offsets.
                let at = [4_000, 3_000_000, 5_000_000_000][i as usize % 3] * (i as u64 + 1);
                q.schedule(SimTime::from_nanos(at), i);
            }
            for _ in 0..20 {
                q.pop();
            }
        },
        EventQueue::reset,
    );
}

#[test]
fn capture_reset_is_fresh() {
    assert_reset_is_fresh(
        || Capture::new(4),
        |capture| {
            for i in 0..6 {
                capture.record(SimTime::from_millis(i), SwitchId(0), packet(1, 2, 80));
            }
        },
        Capture::recycle,
    );
}

struct Pass;
impl InlineProcessor for Pass {
    fn process(&mut self, _now: SimTime, pkt: Packet) -> InlineVerdict {
        InlineVerdict::pass(pkt, SimDuration::from_micros(50))
    }
}

#[test]
fn network_reset_is_fresh() {
    const SEED: u64 = 7;
    let fresh = || {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        b.attach_endpoint(sw, LinkParams::wifi());
        b.attach_endpoint(sw, LinkParams::wifi());
        // A bystander 40 ms away: its copy of a flood is the last to land.
        b.attach_endpoint(sw, LinkParams::wan());
        Network::new(b.build(), SEED)
    };
    assert_reset_is_fresh(
        fresh,
        |net| {
            let (a, z) = (net.endpoint_by_ip(ip(1)).unwrap(), net.endpoint_by_ip(ip(2)).unwrap());
            net.set_tracer(Tracer::new(TraceConfig::full()));
            net.install_rule(SwitchId(0), FlowRule::new(10, FlowMatch::any(), FlowAction::Mirror));
            net.register_steer(SteerId(1), Box::new(Pass), SimDuration::from_micros(200));
            net.install_rule(
                SwitchId(0),
                FlowRule::new(20, FlowMatch::to_host(ip(1)), FlowAction::Steer(SteerId(1))),
            );
            for i in 0..16u64 {
                let (from, to) = if i % 2 == 0 { (a, z) } else { (z, a) };
                let pkt = Packet::new(
                    net.mac_of(from),
                    net.mac_of(to),
                    net.ip_of(from),
                    net.ip_of(to),
                    TransportHeader::udp(5000, 80),
                    Bytes::from_static(b"payload"),
                );
                net.send(from, SimTime::from_millis(i), pkt);
            }
            // Half the traffic delivered, half still queued.
            assert!(!net.step_until(SimTime::from_millis(8)).is_empty());
            assert!(net.has_pending());
            // A frame for a MAC nobody owns floods, and every NIC discards
            // its copy. At 50 ms the queue is empty — each of those copies
            // is counted, not queued — and the bystander's is still in
            // flight: a resident home must not inherit it.
            net.step_until(SimTime::from_millis(30));
            let mut stray = packet(1, 99, 80);
            stray.eth.src = net.mac_of(a);
            net.send(a, SimTime::from_millis(30), stray);
            assert!(net.step_until(SimTime::from_millis(50)).is_empty());
            assert!(format!("{net:?}").contains("queue: EventQueue { len: 0,"));
            assert!(net.has_pending());
        },
        |net| net.reset_resident(SEED),
    );
}

#[test]
fn device_reset_is_fresh() {
    let owner = ip(2);
    assert_reset_is_fresh(
        || {
            IoTDevice::new(
                DeviceId(0),
                Sku::new("acme", "stat", "1.0"),
                DeviceClass::Thermostat,
                ip(5),
                vec![Vulnerability::DefaultCredentials {
                    user: "admin".into(),
                    pass: "admin".into(),
                }],
            )
        },
        |dev| {
            let mut env = Environment::new();
            let mut send = |dev: &mut IoTDevice, src: Ipv4Addr, msg: AppMessage| {
                dev.handle_message(SimTime::from_secs(1), src, 5000, ports::MGMT, msg, &mut env)
            };
            dev.hub = Some(owner);
            dev.owner = Some(owner);
            let stranger = Ipv4Addr::new(100, 64, 0, 99);
            let login = AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() };
            let reply = send(dev, stranger, login);
            let AppMessage::MgmtLoginOk { token } = reply.messages[0].msg else {
                panic!("the default account logs in: {reply:?}");
            };
            let set = MgmtCommand::SetPassword { new: "pwned".into() };
            send(dev, stranger, AppMessage::MgmtCommand { token, command: set });
            assert_eq!(dev.creds.pass, "pwned");
            send(dev, stranger, AppMessage::MgmtCommand { token, command: MgmtCommand::GetConfig });
            send(dev, ip(9), AppMessage::MgmtLogin { user: "x".into(), pass: "y".into() });
            let report = dev.tick(SimTime::from_secs(5), &mut env);
            assert!(!report.messages.is_empty(), "telemetry is due at 5 s");
        },
        IoTDevice::reset_runtime,
    );
}

#[test]
fn attacker_reset_is_fresh() {
    let target = ip(5);
    assert_reset_is_fresh(
        || {
            let steps = vec![
                AttackStep::DictionaryLogin { target },
                AttackStep::Mgmt { target, command: MgmtCommand::ExtractKeys },
                AttackStep::DnsReflect { reflector: target, victim: ip(50), queries: 3 },
                AttackStep::Wait { duration: SimDuration::from_secs(60) },
            ];
            Attacker::new(Ipv4Addr::new(100, 64, 0, 99), AttackPlan::new("campaign", steps))
        },
        |attacker| {
            attacker.learn_key(0xfeed);
            let mut now = SimTime::ZERO;
            let replies = [
                AppMessage::MgmtLoginOk { token: 7 },
                AppMessage::MgmtResult {
                    ok: true,
                    data: Bytes::copy_from_slice(&42u64.to_be_bytes()),
                },
            ];
            for reply in &replies {
                assert_eq!(attacker.poll(now).len(), 1);
                now += SimDuration::from_millis(100);
                attacker.on_delivery(now, target, reply);
            }
            assert_eq!(attacker.poll(now).len(), 3, "the reflection burst");
            attacker.poll(now);
            assert_eq!(attacker.outcomes().len(), 3);
            assert!(!attacker.done(), "the campaign is left mid-wait");
        },
        Attacker::reset_runtime,
    );
}

#[test]
fn hub_reset_is_fresh() {
    assert_reset_is_fresh(
        || {
            let mut hub = Hub::new(ip(1), AdminCreds::owner_default());
            hub.register(DeviceId(0), ip(5), DeviceClass::WindowActuator);
            hub.add_recipe(Recipe {
                id: 0,
                trigger: Trigger::EnvEquals(EnvVar::Temperature, "high"),
                action: RecipeAction { target: DeviceId(0), action: ControlAction::Open },
            });
            hub
        },
        |hub| {
            let mut env = Environment::new();
            assert!(hub.on_env(env.discretize()).is_empty());
            env.temperature_c = 45.0;
            assert_eq!(hub.on_env(env.discretize()).len(), 1, "the edge fires the recipe");
        },
        Hub::reset_runtime,
    );
}

#[test]
fn controller_reset_is_fresh() {
    let policy = {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::Camera, &[Vulnerability::OpenMgmtAccess]);
        c.env(EnvVar::Occupancy);
        c.build()
    };
    assert_reset_is_fresh(
        || Controller::new(policy.clone(), ControllerConfig::default(), ViewHandle::new()),
        |ctl| {
            assert!(!ctl.reconcile(SimTime::ZERO).is_empty(), "the standing mitigation installs");
            let at = SimTime::from_secs(1);
            ctl.ingest_env(at, &[(EnvVar::Occupancy, "present")]);
            ctl.ingest(SecurityEvent::new(at, DeviceId(0), SecurityEventKind::AuthFailureBurst));
            ctl.step(SimTime::from_secs(2));
            // Left with work queued, a view update in flight and an outage.
            ctl.ingest(SecurityEvent::new(at, DeviceId(0), SecurityEventKind::AuthFailureBurst));
            ctl.ingest_env(SimTime::from_secs(3), &[(EnvVar::Occupancy, "absent")]);
            ctl.inject_outage(SimTime::from_secs(3), SimDuration::from_secs(10));
        },
        |ctl| ctl.reset_runtime(ViewHandle::new()),
    );
}
