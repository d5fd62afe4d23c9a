//! The [`Network`]: wiring, switching, steering and delivery.
//!
//! The network owns the topology, the switches, a time-ordered event queue
//! and the registry of **inline processors** — the hook through which
//! µmboxes (built in the `umbox` crate) interpose on traffic; it owns each
//! processor, which its registrant reaches again by [`SteerId`]. Higher
//! layers drive the network with a simple inversion-of-control loop:
//!
//! ```text
//! loop {
//!     for delivery in net.step_until(deadline) {
//!         // hand each delivered packet to the owning device/attacker,
//!         // which may call net.send(...) in response
//!     }
//! }
//! ```
//!
//! This keeps `iotnet` entirely independent of device logic while still
//! modelling the paper's enforcement path: *device → first-hop switch →
//! (steer to µmbox) → destination*.

use crate::addr::{EndpointId, Ipv4Addr, MacAddr, PortNo, SwitchId};
use crate::capture::Capture;
use crate::engine::EventQueue;
use crate::flow::{FlowRule, SteerId};
use crate::hash::WordMap;
use crate::link::WireFrame;
use crate::packet::Packet;
use crate::stats::NetStats;
use crate::switch::{Ports, Switch, SwitchDecision};
use crate::time::{SimDuration, SimTime};
use crate::topology::{PortTarget, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use trace::Tracer;

/// A packet delivered to an endpoint.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Receiving endpoint.
    pub endpoint: EndpointId,
    /// Delivery time.
    pub at: SimTime,
    /// The packet.
    pub packet: Packet,
}

/// Packets surviving inline processing, stored inline for the dominant
/// verdicts. *Pass* (one packet) and *drop* (none) never touch the heap;
/// only multi-packet verdicts — a proxy answering with several replies —
/// spill to a `Vec`. This keeps the steered steady state allocation-free.
#[derive(Debug, Default)]
pub struct ForwardList {
    one: Option<Packet>,
    rest: Vec<Packet>,
}

impl ForwardList {
    /// An empty list (the drop verdict).
    pub(crate) fn new() -> ForwardList {
        ForwardList::default()
    }

    /// A single-packet list (the pass verdict), allocation-free.
    pub(crate) fn one(pkt: Packet) -> ForwardList {
        ForwardList { one: Some(pkt), rest: Vec::new() }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        usize::from(self.one.is_some()) + self.rest.len()
    }

    /// Whether no packets survived (the drop verdict).
    pub fn is_empty(&self) -> bool {
        self.one.is_none() && self.rest.is_empty()
    }
}

impl From<Vec<Packet>> for ForwardList {
    fn from(v: Vec<Packet>) -> ForwardList {
        ForwardList { one: None, rest: v }
    }
}

impl IntoIterator for ForwardList {
    type Item = Packet;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Packet>, std::vec::IntoIter<Packet>>;
    fn into_iter(self) -> Self::IntoIter {
        self.one.into_iter().chain(self.rest)
    }
}

impl<'a> IntoIterator for &'a ForwardList {
    type Item = &'a Packet;
    type IntoIter = std::iter::Chain<std::option::Iter<'a, Packet>, std::slice::Iter<'a, Packet>>;
    fn into_iter(self) -> Self::IntoIter {
        self.one.iter().chain(self.rest.iter())
    }
}

/// Outcome of inline processing: packets to keep forwarding (empty = drop)
/// plus the processing latency the detour added.
#[derive(Debug)]
pub struct InlineVerdict {
    /// Packets that continue from the steer switch (the original, a
    /// modified copy, a proxy reply toward the source — or nothing).
    pub forward: ForwardList,
    /// Processing latency added by the µmbox itself.
    pub latency: SimDuration,
}

impl InlineVerdict {
    /// Forward the packet unchanged with the given processing latency.
    pub fn pass(pkt: Packet, latency: SimDuration) -> InlineVerdict {
        InlineVerdict { forward: ForwardList::one(pkt), latency }
    }

    /// Drop the packet.
    pub fn drop(latency: SimDuration) -> InlineVerdict {
        InlineVerdict { forward: ForwardList::new(), latency }
    }
}

/// An inline packet processor — the attachment point for µmboxes.
///
/// Implementations live in the `umbox` crate; `iotnet` only defines the
/// contract, and owns what is registered (see [`Network::processor`]).
/// Processing is synchronous from the simulator's point of view; the
/// verdict's `latency` models the processing time and is added to the
/// forwarding delay of the surviving packets.
pub trait InlineProcessor: Any {
    /// Process one packet that the flow table steered here.
    fn process(&mut self, now: SimTime, pkt: Packet) -> InlineVerdict;
}

/// A registered steer point: the processor plus the fixed detour latency
/// of reaching it (e.g. tunnelling to the on-premise cluster and back).
struct SteerHandle {
    processor: Box<dyn InlineProcessor>,
    /// Fixed detour latency added to every steered packet (tunnel RTT).
    detour: SimDuration,
}

impl std::fmt::Debug for SteerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SteerHandle").field("detour", &self.detour).finish_non_exhaustive()
    }
}

enum NetEvent {
    AtSwitch {
        sw: SwitchId,
        in_port: PortNo,
        pkt: Packet,
    },
    /// A frame arriving at the endpoint that owns its destination MAC (or
    /// a broadcast): the NIC accepts it.
    AtEndpoint {
        ep: EndpointId,
        pkt: Packet,
    },
}

/// The simulated network.
///
/// ```
/// use iotnet::link::LinkParams;
/// use iotnet::net::Network;
/// use iotnet::packet::{Packet, TransportHeader};
/// use iotnet::time::SimTime;
/// use iotnet::topology::TopologyBuilder;
///
/// let mut b = TopologyBuilder::new();
/// let sw = b.add_switch();
/// let a = b.attach_endpoint(sw, LinkParams::lan());
/// let z = b.attach_endpoint(sw, LinkParams::lan());
/// let mut net = Network::new(b.build(), 42);
///
/// let pkt = Packet::new(
///     net.mac_of(a), net.mac_of(z), net.ip_of(a), net.ip_of(z),
///     TransportHeader::udp(5683, 5683), bytes::Bytes::from_static(b"hi"),
/// );
/// net.send(a, SimTime::ZERO, pkt);
/// let deliveries = net.step_until(SimTime::from_secs(1));
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].endpoint, z);
/// ```
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    switches: Vec<Switch>,
    queue: EventQueue<NetEvent>,
    /// Arrival times of flood copies in flight toward a NIC that will
    /// discard them, in send order. Such a copy is an event of the
    /// simulation but not a ticket in `queue`: all its arrival does is
    /// count, so [`Network::step_until_into`] counts it once its time has
    /// come.
    nic_discards: Vec<SimTime>,
    /// Most events `queue` has held at once since the last reset.
    queue_peak: usize,
    steer: WordMap<SteerId, SteerHandle>,
    deliveries: Vec<Delivery>,
    /// Mirrored-packet capture buffer.
    pub capture: Capture,
    rng: StdRng,
    /// Aggregate counters.
    pub stats: NetStats,
}

impl Network {
    /// Build a network over `topo`, seeding the loss-process RNG. The
    /// topology is all a network is built from; its state, down to the
    /// RNG seed, is written by [`Network::reset_resident`].
    pub fn new(topo: Topology, seed: u64) -> Network {
        let switches = (0..topo.switch_count())
            .map(|i| Switch::new(SwitchId(i as u32), topo.ports_of(SwitchId(i as u32))))
            .collect();
        // Room in the event queue's heap for a few packets per endpoint
        // plus inter-switch hops, so a steady state never grows it (the
        // E21 and `alloc_counter` pins rest on this). Generous by
        // measurement: a defended p24 home peaks at 50 pending of the 156
        // reserved, a fleet home at 3 of 64 (`Network::queue_peak`).
        let in_flight = (topo.endpoint_count() * 4 + topo.switch_count() * 2).max(64);
        let mut net = Network {
            topo,
            switches,
            queue: EventQueue::with_capacity(in_flight),
            nic_discards: Vec::new(),
            queue_peak: 0,
            steer: WordMap::default(),
            deliveries: Vec::new(),
            capture: Capture::new(65_536),
            rng: StdRng::seed_from_u64(0),
            stats: NetStats::default(),
        };
        net.reset_resident(seed);
        net
    }

    /// Bring the network to its t = 0 state for the home `seed` names:
    /// links, switches, the event queue, capture ring, delivery buffer
    /// and counters all return to their cold values with capacity
    /// retained, switches lose their tracer (see [`Network::set_tracer`]),
    /// and the loss-process RNG is reseeded. The constructor ends here,
    /// so a resident world's (E26) reset is a cold build by construction.
    pub fn reset_resident(&mut self, seed: u64) {
        self.topo.reset_links();
        for sw in &mut self.switches {
            sw.reset_resident();
        }
        self.queue.reset();
        self.nic_discards.clear();
        self.queue_peak = 0;
        self.steer.clear();
        self.deliveries.clear();
        self.capture.recycle();
        self.rng = StdRng::seed_from_u64(seed ^ 0x006e_6574_776f_726b_u64);
        self.stats = NetStats::default();
    }

    /// Attach a tracer to every switch (cache and policy-drop events).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for sw in &mut self.switches {
            sw.set_tracer(tracer.clone());
        }
    }

    /// Current simulated time (timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Immutable topology access.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (failure injection).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// The MAC address of an endpoint (the simulator's stand-in for ARP).
    pub fn mac_of(&self, ep: EndpointId) -> MacAddr {
        self.topo.endpoint(ep).mac
    }

    /// The IP address of an endpoint.
    pub fn ip_of(&self, ep: EndpointId) -> Ipv4Addr {
        self.topo.endpoint(ep).ip
    }

    /// The endpoint owning `ip`, if any.
    pub fn endpoint_by_ip(&self, ip: Ipv4Addr) -> Option<EndpointId> {
        self.topo.endpoint_by_ip(ip)
    }

    /// The port switch `sw` has learned `mac` on, if any.
    pub fn learned_port(&self, sw: SwitchId, mac: MacAddr) -> Option<PortNo> {
        self.switches[sw.0 as usize].learned_port(mac)
    }

    /// Install a flow rule on a switch.
    pub fn install_rule(&mut self, sw: SwitchId, rule: FlowRule) {
        self.switches[sw.0 as usize].install(rule);
    }

    /// Remove rules stamped with `cookie` from every switch; returns the
    /// number removed.
    pub fn remove_rules_by_cookie(&mut self, cookie: u64) -> usize {
        self.switches.iter_mut().map(|s| s.remove_by_cookie(cookie)).sum()
    }

    /// Register an inline processor under `id` with a fixed detour latency.
    /// Replaces any previous registration under the same id.
    pub fn register_steer(
        &mut self,
        id: SteerId,
        processor: Box<dyn InlineProcessor>,
        detour: SimDuration,
    ) {
        self.steer.insert(id, SteerHandle { processor, detour });
    }

    /// Remove, and drop, the steer registration under `id`, if any.
    pub fn unregister_steer(&mut self, id: SteerId) {
        self.steer.remove(&id);
    }

    /// The processor registered under `id`, if there is one and it is a `P`.
    pub fn processor<P: InlineProcessor>(&self, id: SteerId) -> Option<&P> {
        (self.steer.get(&id)?.processor.as_ref() as &dyn Any).downcast_ref()
    }

    /// [`Network::processor`], mutably.
    pub fn processor_mut<P: InlineProcessor>(&mut self, id: SteerId) -> Option<&mut P> {
        (self.steer.get_mut(&id)?.processor.as_mut() as &mut dyn Any).downcast_mut()
    }

    /// Inject a packet from `ep` at time `now` (must be ≥ the network
    /// clock; the event engine clamps earlier times forward).
    pub fn send(&mut self, ep: EndpointId, now: SimTime, pkt: Packet) {
        self.stats.sent += 1;
        let info = *self.topo.endpoint(ep);
        let uplink = self.topo.uplink(ep);
        match self.topo.link_at(uplink).transmit(now, pkt.wire_bits(), &mut self.rng) {
            Some(at) => {
                self.queue
                    .schedule(at, NetEvent::AtSwitch { sw: info.switch, in_port: info.port, pkt });
                self.note_queue_depth();
            }
            None => self.stats.dropped_loss += 1,
        }
    }

    /// Process queued events up to and including `deadline`, returning the
    /// packets delivered to endpoints in time order.
    pub fn step_until(&mut self, deadline: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.step_until_into(deadline, &mut out);
        out
    }

    /// [`Network::step_until`] appending into a caller-owned buffer, so a
    /// driver loop can reuse one `Vec`'s capacity across ticks instead of
    /// allocating a fresh delivery vector per step.
    pub fn step_until_into(&mut self, deadline: SimTime, out: &mut Vec<Delivery>) {
        while let Some((at, ev)) = self.queue.pop_until(deadline) {
            match ev {
                NetEvent::AtSwitch { sw, in_port, pkt } => {
                    // Handling a frame only schedules, so the depth after
                    // it is the deepest the queue got during it.
                    self.handle_at_switch(at, sw, in_port, pkt);
                    self.note_queue_depth();
                }
                NetEvent::AtEndpoint { ep, pkt } => {
                    self.stats.delivered += 1;
                    self.deliveries.push(Delivery { endpoint: ep, at, packet: pkt });
                }
            }
        }
        self.fold_nic_discards(deadline);
        out.append(&mut self.deliveries);
    }

    /// Count the discarded flood copies that have arrived by `deadline`,
    /// as popping them would have: one `nic_filtered` and one processed
    /// event each, and the clock at the latest of them. The clock matters
    /// because [`Network::send`] clamps against it. Runs once the queue
    /// holds nothing due by `deadline`, so the fold never overtakes a
    /// ticket.
    fn fold_nic_discards(&mut self, deadline: SimTime) {
        let in_flight = self.nic_discards.len();
        let mut latest = SimTime::ZERO;
        self.nic_discards.retain(|&at| {
            if at <= deadline {
                latest = latest.max(at);
            }
            at > deadline
        });
        let arrived = (in_flight - self.nic_discards.len()) as u64;
        self.stats.nic_filtered += arrived;
        self.queue.fold_elided(arrived, latest);
    }

    /// When the earliest pending event — queued, or a discarded flood
    /// copy still in flight — is due: [`Network::step_until_into`] with an
    /// earlier deadline does nothing.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time().into_iter().chain(self.nic_discards.iter().copied()).min()
    }

    /// Whether any event — queued, or a discarded flood copy still in
    /// flight — is yet to happen.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || !self.nic_discards.is_empty()
    }

    fn note_queue_depth(&mut self) {
        self.queue_peak = self.queue_peak.max(self.queue.len());
    }

    /// Most events the queue has held at once since the last reset: the
    /// depth the choice of queue rests on (DESIGN.md §6).
    pub fn queue_peak(&self) -> usize {
        self.queue_peak
    }

    /// Total events simulated over the network's lifetime: every ticket
    /// the event engine popped, and every flood copy counted without one.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed
    }

    /// Aggregate flow-decision-cache counters across every switch, as
    /// `(lookups, hits)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.switches.iter().fold((0, 0), |(l, h), s| (l + s.cache_lookups, h + s.cache_hits))
    }

    fn handle_at_switch(&mut self, at: SimTime, sw: SwitchId, in_port: PortNo, pkt: Packet) {
        match self.switches[sw.0 as usize].process_at(at, in_port, &pkt) {
            SwitchDecision::Drop => {
                self.stats.dropped_policy += 1;
            }
            SwitchDecision::Output(ports) => {
                self.forward_out(at, sw, in_port, ports, pkt);
            }
            SwitchDecision::MirrorAnd(ports) => {
                self.stats.mirrored += 1;
                self.capture.record(at, pkt.clone());
                self.forward_out(at, sw, in_port, ports, pkt);
            }
            SwitchDecision::Steer(id) => {
                self.stats.steered += 1;
                let Some(handle) = self.steer.get_mut(&id) else {
                    // Steer rule with no registered µmbox: fail closed, as
                    // the paper's security posture demands.
                    self.stats.dropped_policy += 1;
                    return;
                };
                let verdict = handle.processor.process(at, pkt);
                let resume_at = at + handle.detour + verdict.latency;
                if verdict.forward.is_empty() {
                    self.stats.dropped_inline += 1;
                }
                for out in verdict.forward {
                    // Resume with normal forwarding (not a table re-lookup)
                    // so the steer rule cannot loop on its own output.
                    let ports = self.switches[sw.0 as usize].normal(in_port, &out);
                    self.forward_out(resume_at, sw, in_port, ports, out);
                }
            }
        }
    }

    /// Put one copy of `pkt`, which reached switch `sw` on `in_port`, on
    /// the wire of every port `ports` names, in port order: one loop over
    /// the switch's port table, in which a single port is a flood of one.
    ///
    /// Each port's link transmits its copy (the loss draw, the queue, the
    /// counters) before anything else about the copy is decided. Endpoint
    /// MACs are fixed when the topology is built, so the switch already
    /// knows which NICs will discard their copy: of such a copy only the
    /// arrival time is kept (`nic_discards`). The copies that are kept —
    /// for a switch, or for a NIC that accepts them — are scheduled in
    /// port order, each one once the next is known, so the last takes the
    /// packet itself and a learned-unicast hop clones nothing.
    fn forward_out(
        &mut self,
        at: SimTime,
        sw: SwitchId,
        in_port: PortNo,
        ports: Ports,
        pkt: Packet,
    ) {
        let Network { topo, queue, nic_discards, rng, stats, .. } = self;
        let mut table = topo.port_table(sw);
        let all = table.ports;
        let (before, after) = match ports {
            Ports::None => return,
            Ports::One(p) => (all.get(usize::from(p.0)..=usize::from(p.0)).unwrap_or(&[]), &[][..]),
            Ports::Flood => {
                let (before, from_ingress) = all.split_at(all.len().min(usize::from(in_port.0)));
                (before, from_ingress.get(1..).unwrap_or(&[]))
            }
        };
        let dst = pkt.eth.dst;
        let mut frame = WireFrame::new(pkt.wire_bits());
        let mut kept: Option<(SimTime, PortTarget)> = None;
        for port in before.iter().chain(after) {
            let Some(t) = table.link(port).transmit_frame(at, &mut frame, rng) else {
                stats.dropped_loss += 1;
                continue;
            };
            match port.target {
                PortTarget::Endpoint(ep) if dst != table.mac_of(ep) && !dst.is_broadcast() => {
                    // `t` is past the pop being handled, so `schedule`
                    // would not have clamped it.
                    nic_discards.push(t);
                }
                target => {
                    if let Some((t, target)) = kept.replace((t, target)) {
                        queue.schedule(t, NetEvent::arrival(target, pkt.clone()));
                    }
                }
            }
        }
        if let Some((t, target)) = kept {
            queue.schedule(t, NetEvent::arrival(target, pkt));
        }
    }
}

impl NetEvent {
    /// A frame's arrival at what a switch port is wired to.
    fn arrival(target: PortTarget, pkt: Packet) -> NetEvent {
        match target {
            PortTarget::Switch(sw, in_port) => NetEvent::AtSwitch { sw, in_port, pkt },
            PortTarget::Endpoint(ep) => NetEvent::AtEndpoint { ep, pkt },
            PortTarget::Unwired => unreachable!("the builder adds a port only by wiring it"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;
    use crate::flow::{FlowAction, FlowMatch};
    use crate::link::{Link, LinkParams};
    use crate::packet::TransportHeader;
    use crate::topology::TopologyBuilder;
    use bytes::Bytes;
    use proptest::prelude::*;
    use rand::Rng;

    fn two_host_net() -> (Network, EndpointId, EndpointId, SwitchId) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let a = b.attach_endpoint(sw, LinkParams::lan());
        let c = b.attach_endpoint(sw, LinkParams::lan());
        (Network::new(b.build(), 7), a, c, sw)
    }

    fn pkt_between(net: &Network, from: EndpointId, to: EndpointId, payload: &[u8]) -> Packet {
        Packet::new(
            net.mac_of(from),
            net.mac_of(to),
            net.ip_of(from),
            net.ip_of(to),
            TransportHeader::udp(1000, 80),
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn end_to_end_delivery() {
        let (mut net, a, c, _) = two_host_net();
        let p = pkt_between(&net, a, c, b"ping");
        net.send(a, SimTime::ZERO, p);
        let deliveries = net.step_until(SimTime::from_secs(1));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].endpoint, c);
        assert_eq!(&deliveries[0].packet.payload[..], b"ping");
        // LAN link: 100us each hop, two hops.
        assert!(deliveries[0].at >= SimTime::from_micros(200));
        assert_eq!(net.stats.delivered, 1);
    }

    #[test]
    fn policy_drop_blocks_delivery() {
        let (mut net, a, c, sw) = two_host_net();
        let dst_ip = net.ip_of(c);
        net.install_rule(sw, FlowRule::new(100, FlowMatch::to_host(dst_ip), FlowAction::Drop));
        let p = pkt_between(&net, a, c, b"blocked");
        net.send(a, SimTime::ZERO, p);
        let deliveries = net.step_until(SimTime::from_secs(1));
        assert!(deliveries.is_empty());
        assert_eq!(net.stats.dropped_policy, 1);
    }

    #[test]
    fn mirror_captures_and_delivers() {
        let (mut net, a, c, sw) = two_host_net();
        net.install_rule(sw, FlowRule::new(100, FlowMatch::any(), FlowAction::Mirror));
        let p = pkt_between(&net, a, c, b"observed");
        net.send(a, SimTime::ZERO, p);
        let deliveries = net.step_until(SimTime::from_secs(1));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(net.capture.len(), 1);
        assert_eq!(net.stats.mirrored, 1);
    }

    struct CountingDropper {
        seen: u32,
    }
    impl InlineProcessor for CountingDropper {
        fn process(&mut self, _now: SimTime, _pkt: Packet) -> InlineVerdict {
            self.seen += 1;
            InlineVerdict::drop(SimDuration::from_micros(50))
        }
    }

    struct PassThrough;
    impl InlineProcessor for PassThrough {
        fn process(&mut self, _now: SimTime, pkt: Packet) -> InlineVerdict {
            InlineVerdict::pass(pkt, SimDuration::from_micros(50))
        }
    }

    #[test]
    fn steer_to_dropping_processor() {
        let (mut net, a, c, sw) = two_host_net();
        let id = SteerId(1);
        net.register_steer(
            id,
            Box::new(CountingDropper { seen: 0 }),
            SimDuration::from_micros(200),
        );
        net.install_rule(sw, FlowRule::new(100, FlowMatch::any(), FlowAction::Steer(id)));
        net.send(a, SimTime::ZERO, pkt_between(&net, a, c, b"x"));
        let deliveries = net.step_until(SimTime::from_secs(1));
        assert!(deliveries.is_empty());
        assert_eq!(net.stats.steered, 1);
        assert_eq!(net.stats.dropped_inline, 1);
        // The registrant reaches what it registered by id, as its type.
        assert_eq!(net.processor::<CountingDropper>(id).map(|p| p.seen), Some(1));
        net.processor_mut::<CountingDropper>(id).expect("registered").seen = 7;
        assert_eq!(net.processor::<CountingDropper>(id).map(|p| p.seen), Some(7));
        assert!(net.processor::<PassThrough>(id).is_none(), "another type is not there");
        net.unregister_steer(id);
        assert!(net.processor::<CountingDropper>(id).is_none());
    }

    #[test]
    fn steer_pass_adds_latency() {
        let (mut net, a, c, sw) = two_host_net();
        // First, measure direct latency.
        net.send(a, SimTime::ZERO, pkt_between(&net, a, c, b"direct"));
        let direct = net.step_until(SimTime::from_secs(1)).remove(0).at;
        // Now steer through a pass-through µmbox with 200us detour + 50us work.
        net.register_steer(SteerId(1), Box::new(PassThrough), SimDuration::from_micros(200));
        net.install_rule(sw, FlowRule::new(100, FlowMatch::any(), FlowAction::Steer(SteerId(1))));
        let t0 = net.now();
        net.send(a, t0, pkt_between(&net, a, c, b"steered"));
        let d = net.step_until(SimTime::from_secs(2)).remove(0);
        let steered_latency = d.at - t0;
        let direct_latency = direct - SimTime::ZERO;
        assert!(steered_latency >= direct_latency + SimDuration::from_micros(250));
    }

    #[test]
    fn steer_without_processor_fails_closed() {
        let (mut net, a, c, sw) = two_host_net();
        net.install_rule(sw, FlowRule::new(100, FlowMatch::any(), FlowAction::Steer(SteerId(99))));
        net.send(a, SimTime::ZERO, pkt_between(&net, a, c, b"x"));
        assert!(net.step_until(SimTime::from_secs(1)).is_empty());
        assert_eq!(net.stats.dropped_policy, 1);
    }

    #[test]
    fn multi_switch_forwarding() {
        let (topo, _core, _edges, eps, _wan, _cluster) = TopologyBuilder::enterprise(2, 2);
        let mut net = Network::new(topo, 3);
        // Device on edge 0 to device on edge 1: crosses the core.
        let from = eps[0];
        let to = eps[2];
        let p = pkt_between(&net, from, to, b"cross-edge");
        net.send(from, SimTime::ZERO, p);
        let deliveries = net.step_until(SimTime::from_secs(1));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].endpoint, to);
    }

    #[test]
    fn nic_filters_flooded_packets() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let a = b.attach_endpoint(sw, LinkParams::lan());
        let c = b.attach_endpoint(sw, LinkParams::lan());
        b.attach_endpoint(sw, LinkParams::lan());
        let mut net = Network::new(b.build(), 7);
        // Unknown unicast floods to c and the bystander; only c's NIC
        // accepts the frame.
        net.send(a, SimTime::ZERO, pkt_between(&net, a, c, b"flood"));
        let d = net.step_until(SimTime::from_secs(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].endpoint, c);
        assert_eq!(net.stats.nic_filtered, 1);
        // Three events were simulated — one hop up, two copies down — and
        // the discarded copy is the one that took no ticket.
        assert_eq!(net.events_processed(), 3);
        assert_eq!(net.events_processed() - net.stats.nic_filtered, 2);
        // The switch learned a's port from that frame: the reply is
        // unicast and no further copy reaches the bystander.
        net.send(c, net.now(), pkt_between(&net, c, a, b"back"));
        let d = net.step_until(SimTime::from_secs(2));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].endpoint, a);
        assert_eq!(net.stats.nic_filtered, 1);
    }

    #[test]
    fn next_due_walks_every_pending_event_flood_copies_included() {
        // Same flood as above, stepped from due instant to due instant:
        // stepping to just before `next_due` does nothing, stepping to it
        // does something, and the walk ends with nothing pending — the
        // discarded copy, which holds no ticket, is one of the stops.
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let a = b.attach_endpoint(sw, LinkParams::lan());
        let c = b.attach_endpoint(sw, LinkParams::wifi());
        b.attach_endpoint(sw, LinkParams::wan());
        let mut net = Network::new(b.build(), 7);
        assert_eq!(net.next_due(), None);
        net.send(a, SimTime::ZERO, pkt_between(&net, a, c, b"flood"));
        let mut stops = 0;
        while let Some(due) = net.next_due() {
            let before = net.events_processed();
            net.step_until(SimTime::from_nanos(due.as_nanos() - 1));
            assert_eq!(net.events_processed(), before, "early at {due}");
            net.step_until(due);
            assert!(net.events_processed() > before, "nothing was due at {due}");
            stops += 1;
        }
        assert_eq!((stops, net.events_processed(), net.stats.nic_filtered), (3, 3, 1));
        assert!(!net.has_pending());
    }

    #[test]
    fn failed_uplink_drops_sends() {
        let (mut net, a, c, sw) = two_host_net();
        net.topology_mut().fail_wire(NodeId::Endpoint(a), NodeId::Switch(sw));
        net.send(a, SimTime::ZERO, pkt_between(&net, a, c, b"x"));
        assert!(net.step_until(SimTime::from_secs(1)).is_empty());
        assert_eq!(net.stats.dropped_loss, 1);
    }

    #[test]
    fn deliveries_in_time_order() {
        let (mut net, a, c, _) = two_host_net();
        for i in 0..10 {
            let p = pkt_between(&net, a, c, &[i]);
            net.send(a, SimTime::from_millis(i as u64), p);
        }
        let d = net.step_until(SimTime::from_secs(1));
        assert_eq!(d.len(), 10);
        for w in d.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    /// One port of the flooding switch of the fan-out licence:
    /// `(switch-bound?, bandwidth class)`, `(latency class, fault)`.
    type PortSpec = ((bool, u8), (u8, u8));

    /// Switch 0 with one port per spec, in order: a switch-bound port
    /// wires a new switch, any other an endpoint. Fault 1 makes the wire
    /// lossy, 2 fails it and 3 starts a loss burst on it; any other
    /// leaves it clean.
    fn fan_out_net(spec: &[PortSpec]) -> Network {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let mut peers = Vec::new();
        for &((to_switch, bw), (lat, fault)) in spec {
            let params = LinkParams {
                latency: [
                    SimDuration::ZERO,
                    SimDuration::from_micros(100),
                    SimDuration::from_millis(2),
                ][usize::from(lat % 3)],
                bandwidth_bps: [0, u64::MAX, 1_000_000_000, 50_000_000][usize::from(bw % 4)],
                loss: if fault == 1 { 0.3 } else { 0.0 },
            };
            peers.push(if to_switch {
                let peer = b.add_switch();
                b.connect_switches(sw, peer, params);
                NodeId::Switch(peer)
            } else {
                NodeId::Endpoint(b.attach_endpoint(sw, params))
            });
        }
        let mut net = Network::new(b.build(), 11);
        for (&(_, (_, fault)), &peer) in spec.iter().zip(&peers) {
            match fault {
                2 => net.topo.fail_wire(NodeId::Switch(sw), peer),
                3 => net.topo.set_wire_burst_loss(NodeId::Switch(sw), peer, Some(0.5)),
                _ => {}
            }
        }
        net
    }

    /// The fan-out stated port by port: the decision's port list, then
    /// one [`Link::transmit`] per port in port order. Returns the kept
    /// copies as `(arrival, target)` in the order they are to be
    /// scheduled.
    fn reference_fan_out(
        net: &mut Network,
        at: SimTime,
        sw: SwitchId,
        in_port: PortNo,
        ports: Ports,
        pkt: &Packet,
    ) -> Vec<(SimTime, PortTarget)> {
        let list: Vec<PortNo> = match ports {
            Ports::None => Vec::new(),
            Ports::One(p) => vec![p],
            Ports::Flood => {
                (0..net.topo.ports_of(sw)).map(PortNo).filter(|&p| p != in_port).collect()
            }
        };
        let mut kept = Vec::new();
        for port in list {
            let Some((target, out)) = net.topo.port_out(sw, port) else {
                continue;
            };
            let Some(t) = net.topo.link_at(out).transmit(at, pkt.wire_bits(), &mut net.rng) else {
                net.stats.dropped_loss += 1;
                continue;
            };
            match target {
                PortTarget::Endpoint(ep)
                    if pkt.eth.dst != net.topo.endpoint(ep).mac && !pkt.eth.dst.is_broadcast() =>
                {
                    net.nic_discards.push(t);
                }
                target => kept.push((t, target)),
            }
        }
        kept
    }

    proptest! {
        /// The fan-out licence: forwarding a decision over the switch's
        /// port table is the reference's port-by-port loop — every link's
        /// state, the loss RNG, the discard tally, the counters, and which
        /// copies are kept for whom, in the order they pop — on random
        /// wirings with switch-bound ports, failed and bursting wires,
        /// bandwidths of 0 and `u64::MAX`, one-port switches, ingress
        /// anywhere, and broadcast, unknown and learned destinations.
        #[test]
        fn fan_out_is_one_transmit_per_port_in_port_order(
            spec in prop::collection::vec(
                ((0u8..4, 0u8..4), (0u8..3, 0u8..6)).prop_map(|((peer, bw), lat_fault)| {
                    ((peer == 0, bw), lat_fault)
                }),
                1..10,
            ),
            // Per frame: (ingress selector, port selector), (destination
            // kind, decision kind), send time in ns.
            frames in prop::collection::vec(
                ((0u16..4, 0u16..16), (0u8..4, 0u8..3), 0u64..3_000_000),
                1..6,
            ),
        ) {
            let (mut net, mut reference) = (fan_out_net(&spec), fan_out_net(&spec));
            let sw = SwitchId(0);
            let n = net.topo.ports_of(sw);
            let mut want = Vec::new();
            for ((ingress, pick), (dst_kind, decision), at) in frames {
                let in_port = PortNo(match ingress {
                    0 => 0,
                    1 => n - 1,
                    _ => pick % n,
                });
                // One past the last port names a port the switch lacks.
                let out = PortNo(pick % (n + 1));
                let dst = match dst_kind {
                    0 => MacAddr::BROADCAST,
                    1 => MacAddr::from_index(10_000),
                    2 => MacAddr([0x01, 0x00, 0x5e, 0, 0, 1]),
                    _ => match net.topo.port_target(sw, out) {
                        PortTarget::Endpoint(ep) => net.topo.endpoint(ep).mac,
                        _ => MacAddr::from_index(10_000),
                    },
                };
                let ports = match decision {
                    0 => Ports::Flood,
                    1 => Ports::One(out),
                    _ => Ports::None,
                };
                let pkt = Packet::new(
                    MacAddr::from_index(20_000),
                    dst,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    TransportHeader::udp(1000, 80),
                    Bytes::from_static(b"fan-out"),
                );
                let at = SimTime::from_nanos(at);
                net.forward_out(at, sw, in_port, ports, pkt.clone());
                want.extend(reference_fan_out(&mut reference, at, sw, in_port, ports, &pkt));
            }
            for (from, to) in net.topo.wires() {
                let (got, exp) = (net.topo.link(from, to), reference.topo.link(from, to));
                let counts = |l: Option<&Link>| l.map(|l| (l.carried, l.dropped));
                prop_assert_eq!(counts(got), counts(exp));
                prop_assert_eq!(format!("{got:?}"), format!("{exp:?}"));
            }
            prop_assert_eq!(net.rng.next_u64(), reference.rng.next_u64());
            prop_assert_eq!(&net.nic_discards, &reference.nic_discards);
            prop_assert_eq!(net.stats, reference.stats);
            // Nothing was popped, so nothing was clamped: the queue pops
            // the kept copies in time order, ties in the order scheduled.
            want.sort_by_key(|&(t, _)| t);
            let mut got = Vec::new();
            while let Some((t, ev)) = net.queue.pop() {
                got.push(match ev {
                    NetEvent::AtSwitch { sw, in_port, .. } => (t, PortTarget::Switch(sw, in_port)),
                    NetEvent::AtEndpoint { ep, .. } => (t, PortTarget::Endpoint(ep)),
                });
            }
            prop_assert_eq!(got, want);
        }
    }
}
