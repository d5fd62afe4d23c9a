//! Property pins for the E21 packed fast path (see DESIGN.md §11):
//!
//! 1. [`PackedHeaders`] pack↔unpack is a total bijection with the
//!    `(EthernetHeader, Ipv4Header, TransportHeader)` structs — including
//!    malformed combinations (IP protocol byte disagreeing with the
//!    transport variant) that only a field-faithful encoding preserves.
//! 2. [`PackedFlowKey`] equality mirrors equality of the seven matched
//!    header fields, in both directions.
//! 3. The flow-table contract, stated without a second implementation:
//!    `lookup_index` returns a rule the packet satisfies (field by field,
//!    per a matcher written here), none that it satisfies outranks it on
//!    `(priority, install order)`, and `None` only when it satisfies
//!    none — for arbitrary rule tables, packets and ingress ports,
//!    before and after a cookie removal; `lookup` bumps exactly that
//!    rule's hit counter, or `misses`.
//! 4. The traffic the event queue is chosen for: a defended home never
//!    has more than tens of events pending (`Network::queue_peak`), so a
//!    workload that deepens the queue says so here.
//! 5. The flood contract: a copy the receiving NIC discards is counted,
//!    not queued, and every count a queued, payload-carrying copy would
//!    have moved still moves — checked frame by frame against a learning
//!    switch modelled here, on a cold and on a recycled event queue.
//! 6. Link addressing: a fault set through a wire's `(NodeId, NodeId)` key
//!    is what the packet path, which reaches links by position, then sees.
//! 7. The step-boundary contract: after every `send` and every
//!    `step_until`, counters, event count, clock, `has_pending` and the
//!    delivery stream are those of a network in which *every* copy is a
//!    queued event — the model written here — for deadlines that fall
//!    between the arrivals of one flood's copies, and with one endpoint's
//!    inbound traffic steered through an inline processor that drops
//!    some frames and delays the rest.
//! 8. The switch contract: over random frame streams with rule installs,
//!    cookie removals and `table.clear()` in between, `process_at`'s
//!    decisions and every counter it keeps are those of a learning
//!    switch with a decision cache written here over two `BTreeMap`s —
//!    so nothing observable depends on how the switch's own two tables
//!    hash or probe.

use iotsec_repro::iotdev::device::DeviceId;
use iotsec_repro::iotlearn::AttackSignature;
use iotsec_repro::iotnet::addr::{EndpointId, Ipv4Addr, MacAddr, NodeId, PortNo, SwitchId};
use iotsec_repro::iotnet::flow::{
    FlowAction, FlowMatch, FlowRule, FlowTable, PackedFlowKey, SteerId,
};
use iotsec_repro::iotnet::link::{Link, LinkParams};
use iotsec_repro::iotnet::net::{Delivery, InlineProcessor, InlineVerdict, Network};
use iotsec_repro::iotnet::packet::{
    EthernetHeader, Ipv4Header, PackedHeaders, Packet, TcpFlags, TransportHeader,
};
use iotsec_repro::iotnet::stats::NetStats;
use iotsec_repro::iotnet::switch::{PortList, Switch, SwitchDecision};
use iotsec_repro::iotnet::time::{SimDuration, SimTime};
use iotsec_repro::iotnet::topology::{PortTarget, Topology, TopologyBuilder};
use iotsec_repro::iotsec::defense::Defense;
use iotsec_repro::iotsec::scenario;
use iotsec_repro::iotsec::world::{HomeOverrides, World};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

fn mac() -> impl Strategy<Value = MacAddr> {
    any::<u64>().prop_map(|b| {
        let w = b.to_be_bytes();
        MacAddr([w[2], w[3], w[4], w[5], w[6], w[7]])
    })
}

fn transport() -> impl Strategy<Value = TransportHeader> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(s, d)| TransportHeader::udp(s, d)),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u8>()).prop_map(|(s, d, seq, f)| {
            TransportHeader::tcp(
                s,
                d,
                seq,
                TcpFlags { syn: f & 1 != 0, ack: f & 2 != 0, fin: f & 4 != 0, rst: f & 8 != 0 },
            )
        }),
    ]
}

fn headers() -> impl Strategy<Value = (EthernetHeader, Ipv4Header, TransportHeader)> {
    (
        (mac(), mac(), any::<u16>()),
        ((any::<u32>(), any::<u32>()), (any::<u8>(), any::<u8>()), (any::<u8>(), any::<u16>())),
        transport(),
    )
        .prop_map(|((dst, src, ethertype), ((is, id), (proto, ttl), (dscp, total_len)), t)| {
            (
                EthernetHeader { dst, src, ethertype },
                Ipv4Header {
                    src: Ipv4Addr::from_u32(is),
                    dst: Ipv4Addr::from_u32(id),
                    // Deliberately independent of the transport variant:
                    // the packing keeps the protocol byte and the
                    // transport kind bit as separate fields.
                    protocol: proto,
                    ttl,
                    dscp,
                    total_len,
                },
                t,
            )
        })
}

/// Packets drawn from small per-field pools so the flow-key equality and
/// rule-match properties exercise both the equal and unequal cases.
fn pooled_packet() -> impl Strategy<Value = Packet> {
    ((0u32..3, 0u32..3), (0u8..3, 0u8..3), (0usize..3, 0usize..3, any::<bool>())).prop_map(
        |((ms, md), (is, id), (sp, dp, tcp))| {
            let ports = [7u16, 53, 5683];
            let t = if tcp {
                TransportHeader::tcp(ports[sp], ports[dp], 9, TcpFlags::SYN)
            } else {
                TransportHeader::udp(ports[sp], ports[dp])
            };
            Packet::new(
                MacAddr::from_index(ms),
                MacAddr::from_index(md),
                Ipv4Addr::new(10, 0, is, 1),
                Ipv4Addr::new(10, 0, id, 2),
                t,
                Default::default(),
            )
        },
    )
}

/// The seven fields [`PackedFlowKey`] packs, straight off the structs.
fn flow_fields(p: &Packet) -> (MacAddr, MacAddr, Ipv4Addr, Ipv4Addr, u8, u16, u16) {
    (
        p.eth.src,
        p.eth.dst,
        p.ip.src,
        p.ip.dst,
        p.ip.protocol,
        p.transport.src_port(),
        p.transport.dst_port(),
    )
}

/// A match field: a wildcard two times in three, so that a random rule
/// constrains two or three of its eight fields and random packets
/// satisfy a fair share of random rules.
fn sparse<T: Clone + 'static>(
    some: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), Just(None), some.prop_map(Some)]
}

fn opt_port() -> impl Strategy<Value = Option<PortNo>> {
    sparse(prop_oneof![Just(PortNo::ANY), (0u16..3).prop_map(PortNo)])
}

fn opt_mac() -> impl Strategy<Value = Option<MacAddr>> {
    sparse((0u32..3).prop_map(MacAddr::from_index))
}

fn opt_prefix() -> impl Strategy<Value = Option<(Ipv4Addr, u8)>> {
    // `/0` admits everything; a length past 32 reads as `/32`.
    sparse(
        (0u8..3, prop_oneof![Just(0u8), Just(8), Just(24), Just(32), Just(40)])
            .prop_map(|(o, len)| (Ipv4Addr::new(10, 0, o, 1), len)),
    )
}

fn opt_proto() -> impl Strategy<Value = Option<u8>> {
    sparse(prop_oneof![Just(6u8), Just(17u8)])
}

fn opt_tport() -> impl Strategy<Value = Option<u16>> {
    sparse(prop_oneof![Just(7u16), Just(53), Just(5683)])
}

fn flow_match() -> impl Strategy<Value = FlowMatch> {
    (
        (opt_port(), opt_mac(), opt_mac()),
        (opt_prefix(), opt_prefix(), opt_proto()),
        (opt_tport(), opt_tport()),
    )
        .prop_map(
            |((in_port, eth_src, eth_dst), (ip_src, ip_dst, ip_proto), (src_port, dst_port))| {
                FlowMatch {
                    in_port,
                    eth_src,
                    eth_dst,
                    ip_src,
                    ip_dst,
                    ip_proto,
                    src_port,
                    dst_port,
                }
            },
        )
}

fn flow_rule() -> impl Strategy<Value = FlowRule> {
    (0u16..4, flow_match(), 0u8..4, 0u64..2).prop_map(|(priority, matcher, action, cookie)| {
        let action = match action {
            0 => FlowAction::Normal,
            1 => FlowAction::Drop,
            2 => FlowAction::Mirror,
            _ => FlowAction::Steer(SteerId(1)),
        };
        FlowRule::new(priority, matcher, action).with_cookie(cookie)
    })
}

/// What it means for a packet to satisfy a match, field by field — the
/// prefix test written as a shifted XOR rather than the mask compare
/// `Ipv4Addr::in_prefix` uses.
fn satisfies(m: &FlowMatch, in_port: PortNo, p: &Packet) -> bool {
    let in_prefix = |want: Option<(Ipv4Addr, u8)>, got: Ipv4Addr| {
        want.is_none_or(|(pfx, len)| {
            len == 0 || (pfx.to_u32() ^ got.to_u32()) >> (32 - u32::from(len.min(32))) == 0
        })
    };
    m.in_port.is_none_or(|want| want == PortNo::ANY || want == in_port)
        && m.eth_src.is_none_or(|want| want == p.eth.src)
        && m.eth_dst.is_none_or(|want| want == p.eth.dst)
        && in_prefix(m.ip_src, p.ip.src)
        && in_prefix(m.ip_dst, p.ip.dst)
        && m.ip_proto.is_none_or(|want| want == p.ip.protocol)
        && m.src_port.is_none_or(|want| want == p.transport.src_port())
        && m.dst_port.is_none_or(|want| want == p.transport.dst_port())
}

/// One of the two deployment shapes: a smart home of `a + 1` devices for
/// an even `a`, an enterprise of `a % 3 + 1` edges × `b + 1` devices
/// otherwise.
fn shape(a: usize, b: usize) -> Topology {
    if a.is_multiple_of(2) {
        TopologyBuilder::smart_home(a + 1).0
    } else {
        TopologyBuilder::enterprise(a % 3 + 1, b + 1).0
    }
}

/// Where a generated frame is addressed.
#[derive(Debug, Clone, Copy)]
enum Dst {
    Broadcast,
    /// The MAC of the `n`-th endpoint, modulo the endpoint count —
    /// unknown to the switches until that endpoint has sent something.
    Endpoint(usize),
    /// A unicast MAC no endpoint owns.
    Nobody,
}

fn frame_spec() -> impl Strategy<Value = (usize, Dst)> {
    (
        0usize..64,
        prop_oneof![
            Just(Dst::Broadcast),
            Just(Dst::Nobody),
            (0usize..64).prop_map(Dst::Endpoint),
            (0usize..64).prop_map(Dst::Endpoint),
        ],
    )
}

/// The `n`-th frame of a run from endpoint `src`; the source port makes
/// every frame of a run distinct.
fn frame(net: &Network, src: EndpointId, dst: Dst, n: usize) -> Packet {
    let eps = net.topology().endpoint_count();
    let (dst_mac, dst_ip) = match dst {
        Dst::Broadcast => (MacAddr::BROADCAST, Ipv4Addr::new(255, 255, 255, 255)),
        Dst::Nobody => (MacAddr::from_index(9_999), Ipv4Addr::new(10, 9, 9, 9)),
        Dst::Endpoint(i) => {
            let ep = EndpointId((i % eps) as u32);
            (net.mac_of(ep), net.ip_of(ep))
        }
    };
    Packet::new(
        net.mac_of(src),
        dst_mac,
        net.ip_of(src),
        dst_ip,
        TransportHeader::udp(n as u16, 5683),
        vec![n as u8; n % 40].into(),
    )
}

fn stream(ds: &[Delivery]) -> Vec<(EndpointId, SimTime, Packet)> {
    ds.iter().map(|d| (d.endpoint, d.at, d.packet.clone())).collect()
}

/// Copies a directed link refused (loss or failure).
fn refused(t: &Topology, from: NodeId, to: NodeId) -> u64 {
    t.link(from, to).expect("wired").dropped
}

/// A test-side learning switch fabric that counts what one frame does,
/// given which wires refused their copy (read off the per-link counters,
/// which `NetStats` does not feed).
#[derive(Default)]
struct FloodModel {
    mac_tables: HashMap<SwitchId, HashMap<MacAddr, PortNo>>,
    refused_before: HashMap<(NodeId, NodeId), u64>,
}

/// What one frame did, per the model.
#[derive(Debug, Default, PartialEq, Eq)]
struct FrameCount {
    /// Copies put on a wire, the sender's uplink included.
    wires: u64,
    lost: u64,
    filtered: u64,
    /// Copies that reached a switch.
    switched: u64,
    /// Endpoints whose NIC accepted a copy, sorted.
    accepted: Vec<EndpointId>,
}

impl FloodModel {
    /// Whether the wire `from -> to` refused a copy since the last call
    /// for that wire. One frame crosses a wire of a tree at most once.
    fn lost_on(&mut self, t: &Topology, from: NodeId, to: NodeId) -> bool {
        let now = refused(t, from, to);
        let before = self.refused_before.insert((from, to), now).unwrap_or(0);
        assert!(now - before <= 1, "one frame, one copy per wire");
        now > before
    }

    fn frame(&mut self, t: &Topology, src: EndpointId, pkt: &Packet) -> FrameCount {
        let mut c = FrameCount { wires: 1, ..FrameCount::default() };
        let info = *t.endpoint(src);
        if self.lost_on(t, NodeId::Endpoint(src), NodeId::Switch(info.switch)) {
            c.lost = 1;
            return c;
        }
        let mut at_switch = vec![(info.switch, info.port)];
        while let Some((sw, in_port)) = at_switch.pop() {
            c.switched += 1;
            let table = self.mac_tables.entry(sw).or_default();
            table.insert(pkt.eth.src, in_port);
            let out: Vec<PortNo> = match table.get(&pkt.eth.dst) {
                Some(&p) if p == in_port => vec![],
                Some(&p) => vec![p],
                None => (0..t.ports_of(sw)).map(PortNo).filter(|&p| p != in_port).collect(),
            };
            for port in out {
                c.wires += 1;
                let target = t.port_target(sw, port);
                let to = match target {
                    PortTarget::Switch(peer, _) => NodeId::Switch(peer),
                    PortTarget::Endpoint(ep) => NodeId::Endpoint(ep),
                    PortTarget::Unwired => panic!("builders wire every port"),
                };
                if self.lost_on(t, NodeId::Switch(sw), to) {
                    c.lost += 1;
                    continue;
                }
                match target {
                    PortTarget::Switch(peer, back) => at_switch.push((peer, back)),
                    PortTarget::Endpoint(ep)
                        if pkt.eth.dst == t.endpoint(ep).mac || pkt.eth.dst.is_broadcast() =>
                    {
                        c.accepted.push(ep)
                    }
                    _ => c.filtered += 1,
                }
            }
        }
        c.accepted.sort();
        c
    }
}

/// The three wire kinds of property 7, slowest last: 100 µs, 2 ms, 40 ms.
fn wire_kind(k: u8) -> LinkParams {
    [LinkParams::lan(), LinkParams::wifi(), LinkParams::wan()][k as usize]
}

/// Where a modelled copy is headed.
enum Hop {
    /// Up an endpoint's wire, into switch port `from`.
    Switch { from: usize },
    /// Down to endpoint `ep`'s NIC, which accepts or discards it.
    Nic { ep: usize },
}

/// Property 7's steer point: the traffic addressed to endpoint `ep`
/// (modulo the count) detours `detour_us` to a [`DropByIndex`] that drops
/// every `drop_every`-th frame of the run.
#[derive(Debug, Clone, Copy)]
struct SteerSpec {
    ep: usize,
    detour_us: u64,
    drop_every: u16,
}

fn steer_spec() -> impl Strategy<Value = Option<SteerSpec>> {
    sparse((0usize..8, 0u64..3_000, 2u16..5).prop_map(|(ep, detour_us, drop_every)| SteerSpec {
        ep,
        detour_us,
        drop_every,
    }))
}

/// What [`DropByIndex`] takes to process a frame.
const INLINE_LATENCY: SimDuration = SimDuration::from_micros(50);

/// An inline processor that decides by the frame's index in the run (its
/// source port, see [`frame`]): multiples of `.0` are dropped, the rest
/// pass unchanged, each after [`INLINE_LATENCY`].
struct DropByIndex(u16);

impl DropByIndex {
    fn drops(&self, pkt: &Packet) -> bool {
        pkt.transport.src_port().is_multiple_of(self.0)
    }
}

impl InlineProcessor for DropByIndex {
    fn process(&mut self, _now: SimTime, pkt: Packet) -> InlineVerdict {
        if self.drops(&pkt) {
            InlineVerdict::drop(INLINE_LATENCY)
        } else {
            InlineVerdict::pass(pkt, INLINE_LATENCY)
        }
    }
}

/// One learning switch with endpoint `i` on port `i`, stated the plain
/// way: **every** copy a wire carries is an event, queued at its
/// `Link::transmit` arrival (clamped to the clock) and counted when it is
/// popped. A sorted map is the queue; the links and the loss-process RNG
/// are the model's own, so it shares nothing with the network under test
/// but `Link::transmit` and the seed. A frame addressed to the steered
/// endpoint is handed to the processor when it reaches the switch; a
/// survivor leaves `detour + latency` later through the ports normal
/// forwarding picks for the port it came in on.
struct QueuedModel {
    macs: Vec<MacAddr>,
    up: Vec<Link>,
    down: Vec<Link>,
    learned: HashMap<MacAddr, usize>,
    rng: StdRng,
    queue: BTreeMap<(SimTime, u64), (Hop, Packet)>,
    seq: u64,
    now: SimTime,
    stats: NetStats,
    processed: u64,
    /// The steered destination, the delay a survivor resumes after, and
    /// the processor.
    steer: Option<(Ipv4Addr, SimDuration, DropByIndex)>,
}

impl QueuedModel {
    fn new(net: &Network, kinds: &[u8], seed: u64, steer: Option<SteerSpec>) -> QueuedModel {
        let links = || kinds.iter().map(|&k| Link::new(wire_kind(k))).collect::<Vec<_>>();
        QueuedModel {
            macs: (0..kinds.len()).map(|i| net.mac_of(EndpointId(i as u32))).collect(),
            up: links(),
            down: links(),
            learned: HashMap::new(),
            // `Network::reset_resident`'s seeding, "network" in ASCII.
            rng: StdRng::seed_from_u64(seed ^ 0x006e_6574_776f_726b),
            queue: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
            stats: NetStats::default(),
            processed: 0,
            steer: steer.map(|s| {
                let ip = net.ip_of(EndpointId((s.ep % kinds.len()) as u32));
                let delay = SimDuration::from_micros(s.detour_us) + INLINE_LATENCY;
                (ip, delay, DropByIndex(s.drop_every))
            }),
        }
    }

    /// Put a copy on the wire `hop` crosses at `at`: queued if carried.
    fn transmit(&mut self, at: SimTime, hop: Hop, pkt: Packet) {
        let link = match hop {
            Hop::Switch { from } => &mut self.up[from],
            Hop::Nic { ep } => &mut self.down[ep],
        };
        match link.transmit(at, pkt.wire_bits(), &mut self.rng) {
            Some(t) => {
                self.queue.insert((t.max(self.now), self.seq), (hop, pkt));
                self.seq += 1;
            }
            None => self.stats.dropped_loss += 1,
        }
    }

    fn send(&mut self, src: usize, at: SimTime, pkt: Packet) {
        self.stats.sent += 1;
        self.transmit(at, Hop::Switch { from: src }, pkt);
    }

    fn step_until(&mut self, deadline: SimTime) -> Vec<(EndpointId, SimTime, Packet)> {
        let mut delivered = Vec::new();
        while let Some(first) = self.queue.first_entry() {
            if first.key().0 > deadline {
                break;
            }
            let ((at, _), (hop, pkt)) = first.remove_entry();
            self.now = at;
            self.processed += 1;
            match hop {
                Hop::Switch { from } => {
                    self.learned.insert(pkt.eth.src, from);
                    let mut leave = at;
                    if let Some((_, delay, processor)) =
                        self.steer.as_ref().filter(|(ip, ..)| pkt.ip.dst == *ip)
                    {
                        self.stats.steered += 1;
                        if processor.drops(&pkt) {
                            self.stats.dropped_inline += 1;
                            continue;
                        }
                        leave = at + *delay;
                    }
                    let known =
                        self.learned.get(&pkt.eth.dst).filter(|_| !pkt.eth.dst.is_multicast());
                    let out: Vec<usize> = match known {
                        Some(&p) if p == from => vec![],
                        Some(&p) => vec![p],
                        None => (0..self.macs.len()).filter(|&p| p != from).collect(),
                    };
                    for ep in out {
                        self.transmit(leave, Hop::Nic { ep }, pkt.clone());
                    }
                }
                Hop::Nic { ep } if pkt.eth.dst == self.macs[ep] || pkt.eth.dst.is_broadcast() => {
                    self.stats.delivered += 1;
                    delivered.push((EndpointId(ep as u32), at, pkt));
                }
                Hop::Nic { .. } => self.stats.nic_filtered += 1,
            }
        }
        delivered
    }
}

/// One step of property 7's drive.
#[derive(Debug, Clone, Copy)]
enum NetOp {
    /// A frame from endpoint `src` (modulo the count), stamped `us` after
    /// the last deadline — or before it, behind the network clock, so
    /// that the send is clamped.
    Send { src: usize, dst: Dst, early: bool, us: u64 },
    /// `step_until` a deadline `us` past the last one.
    Step { us: u64 },
}

fn net_op() -> impl Strategy<Value = NetOp> {
    // Gaps on the scale of each wire kind, so that a deadline lands
    // between the LAN, Wi-Fi and WAN copies of one flood.
    let gap = || prop_oneof![0u64..300, 300u64..6_000, 6_000u64..90_000];
    prop_oneof![
        (frame_spec(), any::<bool>(), 0u64..3_000)
            .prop_map(|((src, dst), early, us)| NetOp::Send { src, dst, early, us }),
        gap().prop_map(|us| NetOp::Step { us }),
        gap().prop_map(|us| NetOp::Step { us }),
    ]
}

/// Everything link counters say about a drained network: copies offered
/// to endpoint uplinks, copies refused anywhere, copies carried anywhere,
/// copies carried to an endpoint.
fn link_totals(t: &Topology) -> (u64, u64, u64, u64) {
    let (mut offered_up, mut lost, mut carried, mut carried_down) = (0, 0, 0, 0);
    for (a, b) in t.wires() {
        for (from, to) in [(a, b), (b, a)] {
            let l = t.link(from, to).expect("wired");
            lost += l.dropped;
            carried += l.carried;
            match (from, to) {
                (NodeId::Endpoint(_), _) => offered_up += l.carried + l.dropped,
                (_, NodeId::Endpoint(_)) => carried_down += l.carried,
                _ => {}
            }
        }
    }
    (offered_up, lost, carried, carried_down)
}

/// The learning switch of property 8, with ordered maps for both tables.
/// Its rule table is a [`FlowTable`] of its own, fed the same edits.
struct ModelSwitch {
    n_ports: u16,
    table: FlowTable,
    macs: BTreeMap<MacAddr, PortNo>,
    cache: BTreeMap<(PortNo, FlowFields), (Option<usize>, SwitchDecision)>,
    cache_epoch: u64,
    lookups: u64,
    hits: u64,
    policy_drops: u64,
}

type FlowFields = (MacAddr, MacAddr, Ipv4Addr, Ipv4Addr, u8, u16, u16);

impl ModelSwitch {
    fn normal_ports(&self, in_port: PortNo, p: &Packet) -> PortList {
        match self.macs.get(&p.eth.dst) {
            Some(&port) if !p.eth.dst.is_multicast() => {
                if port == in_port {
                    PortList::new()
                } else {
                    PortList::from_slice(&[port])
                }
            }
            _ => (0..self.n_ports).map(PortNo).filter(|port| *port != in_port).collect(),
        }
    }

    fn process(&mut self, in_port: PortNo, p: &Packet) -> SwitchDecision {
        if !p.eth.src.is_multicast() && self.macs.insert(p.eth.src, in_port) != Some(in_port) {
            self.cache.clear();
        }
        if self.cache_epoch != self.table.epoch() {
            self.cache_epoch = self.table.epoch();
            self.cache.clear();
        }
        self.lookups += 1;
        let key = (in_port, flow_fields(p));
        let (rule, decision) = match self.cache.get(&key) {
            Some(cached) => {
                self.hits += 1;
                cached.clone()
            }
            None => {
                let rule = self.table.lookup_index(in_port, p);
                let decision = match rule.map_or(FlowAction::Normal, |i| self.table.rule(i).action)
                {
                    FlowAction::Drop => SwitchDecision::Drop,
                    FlowAction::Output(port) => {
                        SwitchDecision::Output(PortList::from_slice(&[port]))
                    }
                    FlowAction::Steer(id) => SwitchDecision::Steer(id),
                    FlowAction::Mirror => SwitchDecision::MirrorAnd(self.normal_ports(in_port, p)),
                    FlowAction::Normal => SwitchDecision::Output(self.normal_ports(in_port, p)),
                };
                // The switch wipes a full cache before it inserts.
                if self.cache.len() >= 1024 {
                    self.cache.clear();
                }
                self.cache.insert(key, (rule, decision.clone()));
                (rule, decision)
            }
        };
        self.table.record(rule);
        self.policy_drops += u64::from(decision == SwitchDecision::Drop);
        decision
    }
}

/// What happens between two frames of property 8's stream.
#[derive(Debug, Clone)]
enum TableEdit {
    Install(FlowRule),
    RemoveCookie(u64),
    Clear,
}

fn table_edit() -> impl Strategy<Value = TableEdit> {
    prop_oneof![
        flow_rule().prop_map(TableEdit::Install),
        flow_rule().prop_map(TableEdit::Install),
        (0u64..2).prop_map(TableEdit::RemoveCookie),
        Just(TableEdit::Clear),
    ]
}

/// A frame of property 8: `(source station, destination, (ip octets,
/// port picks))`. Destinations past the station count are the broadcast
/// address and a MAC nobody owns.
type StationFrame = (usize, usize, (u8, u8, usize, usize));

fn station_frame() -> impl Strategy<Value = StationFrame> {
    (0usize..40, 0usize..42, (0u8..3, 0u8..3, 0usize..3, 0usize..3))
}

/// A step of property 8: an optional table edit, then one of the run's
/// few frames (so that frames recur with edits and other stations'
/// traffic in between), from its station's own port or — one time in
/// six — the next one over, one to three times in a row.
type SwitchStep = (Option<TableEdit>, usize, bool, usize);

fn switch_step() -> impl Strategy<Value = SwitchStep> {
    (sparse(table_edit()), 0usize..8, (0u8..6).prop_map(|m| m == 0), 1usize..4)
}

proptest! {
    /// Property 1: the packed-word encoding reconstructs the exact header
    /// structs — `unpack ∘ pack = id`, which also makes `pack` injective.
    #[test]
    fn packed_headers_roundtrip_is_identity(h in headers()) {
        let (eth, ip, t) = h;
        let packed = PackedHeaders::pack(&eth, &ip, &t);
        prop_assert_eq!(packed.unpack(), (eth, ip, t));
        // The word accessors agree with the struct fields.
        prop_assert_eq!(packed.dst_port(), t.dst_port());
        prop_assert_eq!(packed.ip_src(), ip.src);
        // Packing is stable: the same headers produce the same words.
        prop_assert_eq!(PackedHeaders::pack(&eth, &ip, &t), packed);
    }

    /// Property 2: two packets get equal flow keys iff every field the
    /// legacy struct key compared is equal — key equality is exactly
    /// seven-field equality, never a hash-style collision.
    #[test]
    fn flow_key_equality_iff_field_equality(a in pooled_packet(), b in pooled_packet()) {
        let keys_equal = PackedFlowKey::of(&a) == PackedFlowKey::of(&b);
        prop_assert_eq!(keys_equal, flow_fields(&a) == flow_fields(&b));
    }

    /// The key derived from pre-packed headers equals the one extracted
    /// from the packet — the switch's cached-key path and the direct path
    /// agree.
    #[test]
    fn flow_key_from_headers_matches_of(h in headers()) {
        let (eth, ip, t) = h;
        let p = Packet { eth, ip, transport: t, payload: Default::default() };
        prop_assert_eq!(
            PackedFlowKey::from_headers(&p.packed_headers()),
            PackedFlowKey::of(&p)
        );
    }

    /// Property 3: `lookup_index` returns the rule the contract names —
    /// and `FlowMatch::matches` agrees with the field-by-field statement
    /// of it — for every table, packet and ingress port (`PortNo::ANY`
    /// included), before and after a cookie removal shifts the rows.
    #[test]
    fn lookup_index_returns_the_best_satisfied_rule(
        rules in proptest::collection::vec(flow_rule(), 0..10),
        packets in proptest::collection::vec(pooled_packet(), 1..6),
        ports in proptest::collection::vec(0u16..3, 1..4),
    ) {
        let mut t = FlowTable::new();
        for r in &rules {
            t.install(r.clone());
        }
        let check = |t: &FlowTable| -> Result<(), TestCaseError> {
            for p in &packets {
                for port in ports.iter().map(|&n| PortNo(n)).chain([PortNo::ANY]) {
                    for (rule, _) in t.iter() {
                        prop_assert_eq!(
                            rule.matcher.matches(port, p),
                            satisfies(&rule.matcher, port, p)
                        );
                    }
                    // Rows sit in install order, so a rule's position is
                    // its order.
                    match t.lookup_index(port, p) {
                        Some(i) => {
                            let chosen = t.rule(i);
                            prop_assert!(satisfies(&chosen.matcher, port, p));
                            for j in (0..t.len()).filter(|&j| j != i) {
                                let other = t.rule(j);
                                prop_assert!(
                                    !satisfies(&other.matcher, port, p)
                                        || (other.priority, j) < (chosen.priority, i)
                                );
                            }
                        }
                        None => prop_assert!(
                            t.iter().all(|(rule, _)| !satisfies(&rule.matcher, port, p))
                        ),
                    }
                }
            }
            Ok(())
        };
        check(&t)?;
        prop_assert_eq!(t.remove_by_cookie(1), rules.iter().filter(|r| r.cookie == 1).count());
        let kept: Vec<&FlowRule> = rules.iter().filter(|r| r.cookie != 1).collect();
        prop_assert_eq!(t.iter().map(|(rule, _)| rule).collect::<Vec<_>>(), kept);
        check(&t)?;
    }

    /// Property 3, the counters: each `lookup` returns the rule
    /// `lookup_index` names and bumps that rule's hit counter and no
    /// other, or `misses` when there is none — also across a cookie
    /// removal, which must carry each surviving rule's count with it.
    #[test]
    fn lookup_bumps_exactly_the_chosen_counter(
        rules in proptest::collection::vec(flow_rule(), 0..10),
        packets in proptest::collection::vec((pooled_packet(), 0u16..4), 1..12),
    ) {
        let mut t = FlowTable::new();
        for r in &rules {
            t.install(r.clone());
        }
        let mut hits = vec![0u64; t.len()];
        let mut misses = 0u64;
        for (n, (p, port)) in packets.iter().enumerate() {
            if n == packets.len() / 2 {
                t.remove_by_cookie(1);
                // Drop the expected counts of the removed rules, in step.
                let mut keep = rules.iter().map(|r| r.cookie != 1);
                hits.retain(|_| keep.next().unwrap());
            }
            // Port 3 stands for a frame with no ingress port.
            let port = if *port == 3 { PortNo::ANY } else { PortNo(*port) };
            let want = t.lookup_index(port, p);
            match want {
                Some(i) => hits[i] += 1,
                None => misses += 1,
            }
            let want_rule = want.map(|i| t.rule(i).clone());
            prop_assert_eq!(t.lookup(port, p).cloned(), want_rule);
            prop_assert_eq!(t.iter().map(|(_, h)| h).collect::<Vec<_>>(), hits.clone());
            prop_assert_eq!(t.misses, misses);
        }
    }

    /// Property 5: frame by frame, the network's counters, its event
    /// count and its deliveries are what the modelled learning fabric
    /// says — with lossy wires.
    #[test]
    fn flood_copies_keep_every_count(
        a in 0usize..8,
        b in 0usize..4,
        seed in any::<u64>(),
        lossy in proptest::collection::vec((0usize..64, 1u32..6), 0..5),
        frames in proptest::collection::vec(frame_spec(), 1..40),
    ) {
        let mut net = Network::new(shape(a, b), seed);
        let wires = net.topology().wires();
        for &(w, tenths) in &lossy {
            let (x, y) = wires[w % wires.len()];
            net.topology_mut().set_wire_burst_loss(x, y, Some(f64::from(tenths) / 10.0));
        }
        let eps = net.topology().endpoint_count();
        let mut model = FloodModel::default();
        let mut now = SimTime::ZERO;
        for (n, &(src, dst)) in frames.iter().enumerate() {
            let src = EndpointId((src % eps) as u32);
            let pkt = frame(&net, src, dst, n);
            now += SimDuration::from_secs(1);
            let (stats0, events0) = (net.stats, net.events_processed());
            net.send(src, now, pkt.clone());
            let got = net.step_until(now + SimDuration::from_millis(999));
            prop_assert!(!net.has_pending());

            let want = model.frame(net.topology(), src, &pkt);
            let s = net.stats;
            prop_assert_eq!(s.sent - stats0.sent, 1);
            prop_assert_eq!(s.delivered - stats0.delivered, want.accepted.len() as u64);
            prop_assert_eq!(s.nic_filtered - stats0.nic_filtered, want.filtered);
            prop_assert_eq!(s.dropped_loss - stats0.dropped_loss, want.lost);
            // Every copy put on a wire ends as exactly one of these.
            prop_assert_eq!(
                want.accepted.len() as u64 + want.filtered + want.lost + want.switched,
                want.wires
            );
            // One event popped per copy a wire carried.
            prop_assert_eq!(net.events_processed() - events0, want.wires - want.lost);
            let mut reached: Vec<EndpointId> = got.iter().map(|d| d.endpoint).collect();
            reached.sort();
            prop_assert_eq!(&reached, &want.accepted);
            prop_assert!(got.iter().all(|d| d.packet == pkt && d.endpoint != src));
            if want.lost == 0 {
                match dst {
                    Dst::Broadcast => prop_assert_eq!(reached.len(), eps - 1),
                    Dst::Nobody => prop_assert!(reached.is_empty()),
                    Dst::Endpoint(i) => {
                        let owner = EndpointId((i % eps) as u32);
                        let expect = if owner == src { vec![] } else { vec![owner] };
                        prop_assert_eq!(reached, expect);
                    }
                }
            }
        }
    }

    /// Property 5, frames overlapping in flight: the aggregate counters
    /// equal what the per-link counters add up to, and the same network
    /// reset in place — the reuse a resident world performs — delivers
    /// over its already-used event queue the stream the cold build did.
    #[test]
    fn overlapping_floods_agree_across_queues_and_link_counters(
        a in 0usize..8,
        b in 0usize..4,
        seed in any::<u64>(),
        frames in proptest::collection::vec((frame_spec(), 0u64..3_000), 1..60),
    ) {
        let mut net = Network::new(shape(a, b), seed);
        let mut streams = Vec::new();
        for run in 0..2 {
            if run > 0 {
                net.reset_resident(seed);
            }
            let eps = net.topology().endpoint_count();
            let mut now = SimTime::ZERO;
            let mut got = Vec::new();
            for (n, &((src, dst), gap_us)) in frames.iter().enumerate() {
                now += SimDuration::from_micros(gap_us);
                got.extend(net.step_until(now));
                let src = EndpointId((src % eps) as u32);
                net.send(src, now, frame(&net, src, dst, n));
            }
            got.extend(net.step_until(SimTime::MAX));
            prop_assert!(!net.has_pending());
            let (offered_up, lost, carried, carried_down) = link_totals(net.topology());
            prop_assert_eq!(net.stats.sent, offered_up);
            prop_assert_eq!(net.stats.dropped_loss, lost);
            prop_assert_eq!(net.events_processed(), carried);
            prop_assert_eq!(net.stats.delivered + net.stats.nic_filtered, carried_down);
            prop_assert_eq!(net.stats.delivered, got.len() as u64);
            streams.push((stream(&got), net.stats, net.events_processed()));
        }
        prop_assert_eq!(&streams[0], &streams[1]);
    }

    /// Property 7: at **every** step boundary the network is where a
    /// network that queues every copy would be. One switch, endpoints on
    /// LAN, Wi-Fi and WAN wires (so one flood's copies arrive out of send
    /// order, 100 µs to 40 ms apart, and some are lost), unknown-unicast,
    /// learned-unicast and broadcast frames, sends stamped behind the
    /// clock, and deadlines that cut floods in half. This is what licenses
    /// counting a discarded copy instead of queueing it: it passed, as
    /// written, when those copies were queued. One run in three also
    /// steers one endpoint's inbound traffic through an inline processor
    /// that passes or drops by frame index, which licenses how the
    /// network holds its processors: it passed, as written, when the
    /// world's µmbox chains were shared with the network.
    #[test]
    fn every_step_boundary_matches_a_network_that_queues_every_copy(
        kinds in proptest::collection::vec(0u8..3, 3..8),
        seed in any::<u64>(),
        lossy in proptest::collection::vec((0usize..8, 1u32..6), 0..3),
        ops in proptest::collection::vec(net_op(), 1..80),
        steer in steer_spec(),
    ) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        for &k in &kinds {
            b.attach_endpoint(sw, wire_kind(k));
        }
        let mut net = Network::new(b.build(), seed);
        let mut model = QueuedModel::new(&net, &kinds, seed, steer);
        if let Some(s) = steer {
            let ip = net.ip_of(EndpointId((s.ep % kinds.len()) as u32));
            let detour = SimDuration::from_micros(s.detour_us);
            net.register_steer(SteerId(1), Box::new(DropByIndex(s.drop_every)), detour);
            let rule = FlowRule::new(1, FlowMatch::to_host(ip), FlowAction::Steer(SteerId(1)));
            net.install_rule(sw, rule);
        }
        for (i, _) in kinds.iter().enumerate() {
            prop_assert_eq!(net.topology().endpoint(EndpointId(i as u32)).port, PortNo(i as u16));
        }
        for &(ep, tenths) in &lossy {
            let (ep, loss) = (ep % kinds.len(), Some(f64::from(tenths) / 10.0));
            let node = NodeId::Endpoint(EndpointId(ep as u32));
            net.topology_mut().set_wire_burst_loss(node, NodeId::Switch(sw), loss);
            model.up[ep].burst_loss = loss;
            model.down[ep].burst_loss = loss;
        }
        let agree = |net: &Network, model: &QueuedModel| -> Result<(), TestCaseError> {
            prop_assert_eq!(net.stats, model.stats);
            prop_assert_eq!(net.events_processed(), model.processed);
            prop_assert_eq!(net.now(), model.now);
            prop_assert_eq!(net.has_pending(), !model.queue.is_empty());
            Ok(())
        };
        let mut deadline = SimTime::ZERO;
        // A last step far past the slowest wire drains both.
        let drain = NetOp::Step { us: 10_000_000 };
        for (n, op) in ops.into_iter().chain([drain]).enumerate() {
            match op {
                NetOp::Send { src, dst, early, us } => {
                    let src = src % kinds.len();
                    let us = SimDuration::from_micros(us);
                    let at = if early {
                        SimTime::from_nanos(deadline.as_nanos().saturating_sub(us.as_nanos()))
                    } else {
                        deadline + us
                    };
                    let pkt = frame(&net, EndpointId(src as u32), dst, n);
                    net.send(EndpointId(src as u32), at, pkt.clone());
                    model.send(src, at, pkt);
                }
                NetOp::Step { us } => {
                    deadline += SimDuration::from_micros(us);
                    let got = net.step_until(deadline);
                    prop_assert_eq!(stream(&got), model.step_until(deadline));
                }
            }
            agree(&net, &model)?;
        }
        prop_assert!(!net.has_pending());
    }

    /// Property 6: a wire failed or made lossy through its key carries
    /// nothing afterwards, in either direction, the copies it refuses
    /// are the ones `NetStats` counts as lost, and a heal through the key
    /// carries again.
    #[test]
    fn keyed_faults_are_what_the_packet_path_sees(
        a in 0usize..8,
        b in 0usize..4,
        wire in 0usize..64,
        fault in 0u8..2,
    ) {
        let mut net = Network::new(shape(a, b), 7);
        let wires = net.topology().wires();
        // Every wire lossless, so the faulted one is the only one refusing.
        for &(p, q) in &wires {
            net.topology_mut().set_wire_burst_loss(p, q, Some(0.0));
        }
        let (x, y) = wires[wire % wires.len()];
        match fault {
            0 => net.topology_mut().fail_wire(x, y),
            _ => net.topology_mut().set_wire_burst_loss(x, y, Some(1.0)),
        }
        // A broadcast from every endpoint offers every directed link a copy.
        let broadcast_from_all = |net: &mut Network| {
            let at = net.now() + SimDuration::from_secs(1);
            for e in 0..net.topology().endpoint_count() {
                let src = EndpointId(e as u32);
                net.send(src, at, frame(net, src, Dst::Broadcast, e));
            }
            net.step_until(SimTime::MAX);
        };
        broadcast_from_all(&mut net);
        let t = net.topology();
        for (from, to) in [(x, y), (y, x)] {
            let l = t.link(from, to).expect("wired");
            prop_assert_eq!(l.carried, 0);
            prop_assert!(refused(t, from, to) >= 1);
        }
        let (offered_up, lost, carried, _) = link_totals(t);
        prop_assert_eq!(lost, refused(t, x, y) + refused(t, y, x));
        prop_assert_eq!(net.stats.sent, offered_up);
        prop_assert_eq!(net.stats.dropped_loss, lost);
        prop_assert_eq!(net.events_processed(), carried);

        net.topology_mut().heal_wire(x, y);
        net.topology_mut().set_wire_burst_loss(x, y, Some(0.0));
        broadcast_from_all(&mut net);
        prop_assert_eq!(net.stats.dropped_loss, lost);
        for (from, to) in [(x, y), (y, x)] {
            prop_assert!(net.topology().link(from, to).expect("wired").carried >= 1);
        }
    }

    /// Property 8: the switch is the model switch — decision by decision
    /// and counter by counter — whatever is done to its rule table between
    /// frames, with floods wider than a `PortList`'s inline slots, with
    /// stations that move and with repeats that hit the decision cache.
    #[test]
    fn switch_is_a_learning_switch_with_a_decision_cache(
        stations in 2usize..41,
        n_ports in 2u16..42,
        frames in proptest::collection::vec(station_frame(), 1..8),
        steps in proptest::collection::vec(switch_step(), 1..80),
    ) {
        let mut sw = Switch::new(SwitchId(0), n_ports);
        let mut model = ModelSwitch {
            n_ports,
            table: FlowTable::new(),
            macs: BTreeMap::new(),
            cache: BTreeMap::new(),
            cache_epoch: 0,
            lookups: 0,
            hits: 0,
            policy_drops: 0,
        };
        for (edit, pick, moved, repeats) in steps {
            let (src, dst, (is, id, sp, dp)) = frames[pick % frames.len()];
            match edit {
                Some(TableEdit::Install(rule)) => {
                    sw.install(rule.clone());
                    model.table.install(rule);
                }
                Some(TableEdit::RemoveCookie(cookie)) => {
                    prop_assert_eq!(
                        sw.remove_by_cookie(cookie),
                        model.table.remove_by_cookie(cookie)
                    );
                }
                Some(TableEdit::Clear) => {
                    sw.table.clear();
                    model.table.clear();
                }
                None => {}
            }
            let src = src % stations;
            let dst_mac = match dst % (stations + 2) {
                d if d == stations => MacAddr::BROADCAST,
                d if d == stations + 1 => MacAddr::from_index(9_999),
                d => MacAddr::from_index(d as u32),
            };
            let in_port = PortNo((src as u16 + u16::from(moved)) % n_ports);
            let ports = [7u16, 53, 5683];
            let p = Packet::new(
                MacAddr::from_index(src as u32),
                dst_mac,
                Ipv4Addr::new(10, 0, is, 1),
                Ipv4Addr::new(10, 0, id, 2),
                TransportHeader::udp(ports[sp], ports[dp]),
                Default::default(),
            );
            for _ in 0..repeats {
                prop_assert_eq!(sw.process_at(SimTime::ZERO, in_port, &p), model.process(in_port, &p));
            }
            prop_assert_eq!(sw.cache_lookups, model.lookups);
            prop_assert_eq!(sw.cache_hits, model.hits);
            prop_assert_eq!(sw.policy_drops, model.policy_drops);
            prop_assert_eq!(sw.table.misses, model.table.misses);
            let hits = |t: &FlowTable| t.iter().map(|(_, hits)| hits).collect::<Vec<_>>();
            prop_assert_eq!(hits(&sw.table), hits(&model.table));
        }
        for station in 0..stations as u32 + 1 {
            let mac = MacAddr::from_index(station);
            prop_assert_eq!(sw.learned_port(mac), model.macs.get(&mac).copied());
        }
    }
}

/// The E21 `home-iotsec/s20151116/p24` cell (the benchmark's first cold
/// home): 5 513 of its 5 880 events are flood copies a NIC discards.
/// Every one must still be transmitted and counted, though none of them
/// is queued or popped.
#[test]
fn defended_p24_home_counters_are_pinned() {
    let (d, _) = scenario::scaled_home(Defense::iotsec(), 20151116, 24);
    let mut w = World::new(&d);
    w.env.occupied = true;
    w.run_until_attack_done(SimDuration::from_secs(300));
    let s = w.net.stats;
    assert_eq!(
        (s.sent, s.delivered, s.dropped_loss, s.nic_filtered, w.net.events_processed()),
        (215, 154, 33, 5513, 5880)
    );
}

/// Pin 4: the pending depths the binary-heap event queue was chosen at
/// (DESIGN.md §6) — the defended p24 home measured 50 of 367 scheduled,
/// a defended fleet home under the seven Table-1 signatures 3 of 22.
#[test]
fn defended_homes_keep_the_event_queue_shallow() {
    let peak_within = |w: &World, measured: usize, bound: usize| {
        let peak = w.net.queue_peak();
        assert!(
            peak <= bound,
            "pending depth grew {:.1}× ({measured} → {peak}) — re-open the queue choice, \
             DESIGN.md §6",
            peak as f64 / measured as f64
        );
    };
    let (d, _) = scenario::scaled_home(Defense::iotsec(), 20151116, 24);
    let mut w = World::new(&d);
    w.env.occupied = true;
    w.run_until_attack_done(SimDuration::from_secs(300));
    peak_within(&w, 50, 64);

    let (template, cam) = scenario::fleet_home(Defense::iotsec(), 0);
    let sku = &template.devices[cam.0 as usize].sku;
    let intel: Vec<AttackSignature> =
        (1..=7).filter_map(|row| AttackSignature::for_table1_row(row, sku)).collect();
    let mut w = World::new_home(&template, &HomeOverrides { seed: 1, extra_signatures: &intel });
    w.run_until_attack_done(SimDuration::from_secs(120));
    peak_within(&w, 3, 8);
}

/// Why that home floods (ROADMAP E36(a)), as a fact: the hub — a sink for
/// telemetry and events that transmits only when a recipe fires, and in
/// this campaign none does — is the one station the learning switch
/// never hears from, so every frame addressed to it floods, and nothing
/// else does. The tally of those frames is the test's own: a mirror rule
/// below every installed rule copies each frame for the hub into the
/// capture ring on its way to the forwarding it would have had anyway.
#[test]
fn p24_floods_have_one_cause() {
    let (d, _) = scenario::scaled_home(Defense::iotsec(), 20151116, 24);
    let mut w = World::new(&d);
    w.env.occupied = true;
    let sw = w.core_switch();
    let hub_ip = w.device(DeviceId(0)).hub.expect("devices report to the hub");
    let hub = w.net.endpoint_by_ip(hub_ip).expect("the hub is attached");
    w.net.install_rule(sw, FlowRule::new(1, FlowMatch::to_host(hub_ip), FlowAction::Mirror));
    w.run_until_attack_done(SimDuration::from_secs(300));

    // The tap changed nothing it was not meant to.
    let s = w.net.stats;
    assert_eq!(
        (s.sent, s.delivered, s.dropped_loss, s.nic_filtered, w.net.events_processed()),
        (215, 154, 33, 5513, 5880)
    );
    let floods = w.net.capture.len() as u64;
    assert_eq!(floods, s.mirrored);

    let t = w.net.topology();
    let offered = |from: NodeId, to: NodeId| {
        let l = t.link(from, to).expect("wired");
        l.carried + l.dropped
    };
    let mut lost_beside_the_hub = 0;
    for (ep, info) in t.endpoints() {
        let (node, switch) = (NodeId::Endpoint(ep), NodeId::Switch(info.switch));
        // A station is learned, on its own port, iff it has been heard.
        let heard = t.link(node, switch).expect("wired").carried > 0;
        assert_eq!(w.net.learned_port(sw, info.mac), heard.then_some(info.port), "{ep:?}");
        if ep != hub {
            lost_beside_the_hub += refused(t, switch, node);
        }
    }
    // The hub never transmits, so it is on no port...
    assert_eq!(offered(NodeId::Endpoint(hub), NodeId::Switch(sw)), 0);
    assert_eq!(w.net.learned_port(sw, t.endpoint(hub).mac), None);
    // ...so each frame for it went out of every port but its sender's,
    // and nothing else ever went out of the hub's port: every flood of
    // the run is one of these.
    assert_eq!(offered(NodeId::Switch(sw), NodeId::Endpoint(hub)), floods);
    // Beside the hub's own copy, each flood put `ports - 2` copies on
    // wires whose NIC would discard them; each was lost or discarded.
    let ports = u64::from(t.ports_of(sw));
    assert_eq!((floods, ports), (154, 38));
    assert_eq!(s.nic_filtered + lost_beside_the_hub, floods * (ports - 2));
}
