//! Deterministic fault injection for the network substrate.
//!
//! The chaos layer needs repeatable failure schedules: the same seed must
//! produce the same faults at the same simulated instants, run after run.
//! [`FaultScheduler`] therefore rides on the existing event queue
//! ([`EventQueue`]) rather than drawing random timers at runtime — every
//! fault is scheduled up front (or at least deterministically), and
//! [`FaultScheduler::apply_due`] drains the due ones into a [`Topology`]
//! each simulation tick.
//!
//! Supported fault shapes:
//!
//! * **Link flap** — a wire fails at one instant and *heals* at a later
//!   one ([`FaultScheduler::flap_wire`]). Both halves are scheduled
//!   together so a flap can never leave the wire down forever.
//! * **Loss burst** — a wire's loss probability is overridden for a
//!   window ([`FaultScheduler::loss_burst`]).

use crate::addr::NodeId;
use crate::engine::EventQueue;
use crate::time::SimTime;
use crate::topology::Topology;
use trace::{TraceEvent, Tracer};

/// One scheduled fault action against the topology.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NetFault {
    /// Fail both directions of the wire between two nodes.
    WireDown(NodeId, NodeId),
    /// Heal both directions of the wire between two nodes.
    WireHeal(NodeId, NodeId),
    /// Begin a loss burst: override the wire's loss probability.
    LossBurst(NodeId, NodeId, f64),
    /// End a loss burst: restore the wire's static loss probability.
    LossClear(NodeId, NodeId),
}

/// A seedless, deterministic fault schedule over the event queue.
///
/// Faults are enqueued with explicit times; ties apply in FIFO order
/// (the event queue is FIFO-stable), so a schedule built the same way
/// twice applies identically twice.
#[derive(Debug, Default)]
pub struct FaultScheduler {
    queue: EventQueue<NetFault>,
    /// Total fault actions applied so far.
    pub applied: u64,
    /// Control-class trace emission (fault fire/heal; disabled by default).
    tracer: Tracer,
}

impl FaultScheduler {
    /// An empty schedule.
    pub fn new() -> FaultScheduler {
        FaultScheduler::default()
    }

    /// Attach a tracer for fault fire/heal events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Schedule a link flap: the wire between `a` and `b` fails at
    /// `down_at` and heals at `heal_at`. Both halves are enqueued
    /// together, so every injected outage is bounded.
    pub fn flap_wire(&mut self, a: NodeId, b: NodeId, down_at: SimTime, heal_at: SimTime) {
        assert!(down_at <= heal_at, "flap must heal at or after it fails");
        self.queue.schedule(down_at, NetFault::WireDown(a, b));
        self.queue.schedule(heal_at, NetFault::WireHeal(a, b));
    }

    /// Schedule a loss burst on the wire between `a` and `b`: loss
    /// probability `loss` from `from` until `until`.
    pub fn loss_burst(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime, loss: f64) {
        assert!(from <= until, "burst must end at or after it starts");
        self.queue.schedule(from, NetFault::LossBurst(a, b, loss));
        self.queue.schedule(until, NetFault::LossClear(a, b));
    }

    /// Apply every fault action due at or before `now` to the topology,
    /// in schedule order. Returns how many actions were applied.
    pub fn apply_due(&mut self, now: SimTime, topo: &mut Topology) -> usize {
        let mut n = 0;
        while let Some((at, fault)) = self.queue.pop_until(now) {
            // The trace key is the fault's *scheduled* instant, not the tick
            // that drained it — schedules trace identically regardless of how
            // coarsely the caller polls.
            match fault {
                NetFault::WireDown(a, b) => {
                    self.tracer.emit(at.as_nanos(), TraceEvent::FaultFired { kind: "wire-down" });
                    topo.fail_wire(a, b);
                }
                NetFault::WireHeal(a, b) => {
                    self.tracer.emit(at.as_nanos(), TraceEvent::FaultHealed { kind: "wire-heal" });
                    topo.heal_wire(a, b);
                }
                NetFault::LossBurst(a, b, loss) => {
                    self.tracer.emit(at.as_nanos(), TraceEvent::FaultFired { kind: "loss-burst" });
                    topo.set_wire_burst_loss(a, b, Some(loss));
                }
                NetFault::LossClear(a, b) => {
                    self.tracer.emit(at.as_nanos(), TraceEvent::FaultHealed { kind: "loss-clear" });
                    topo.set_wire_burst_loss(a, b, None);
                }
            }
            n += 1;
        }
        self.applied += n as u64;
        n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::EndpointId;
    use crate::link::LinkParams;
    use crate::net::Network;
    use crate::packet::{Packet, TransportHeader};
    use crate::time::SimDuration;
    use crate::topology::TopologyBuilder;
    use bytes::Bytes;

    fn two_host_net() -> (Network, EndpointId, EndpointId) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let a = b.attach_endpoint(sw, LinkParams::lan());
        let c = b.attach_endpoint(sw, LinkParams::lan());
        (Network::new(b.build(), 7), a, c)
    }

    fn pkt(net: &Network, from: EndpointId, to: EndpointId, payload: &[u8]) -> Packet {
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
    fn flap_fails_then_heals_and_traffic_resumes() {
        let (mut net, a, c) = two_host_net();
        let (na, nsw) = (NodeId::Endpoint(a), NodeId::Switch(crate::addr::SwitchId(0)));
        let mut faults = FaultScheduler::new();
        faults.flap_wire(na, nsw, SimTime::from_secs(1), SimTime::from_secs(2));

        // During the flap the uplink is dead: the packet is dropped.
        faults.apply_due(SimTime::from_secs(1), net.topology_mut());
        net.send(a, SimTime::from_secs(1), pkt(&net, a, c, b"lost"));
        assert!(net.step_until(SimTime::from_millis(1500)).is_empty());

        // After the heal, traffic resumes.
        faults.apply_due(SimTime::from_secs(2), net.topology_mut());
        net.send(a, SimTime::from_secs(2), pkt(&net, a, c, b"back"));
        let deliveries = net.step_until(SimTime::from_secs(3));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(&deliveries[0].packet.payload[..], b"back");
        assert_eq!(faults.applied, 2);
        assert!(faults.queue.is_empty());
    }

    #[test]
    fn loss_burst_windows_correctly() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let e = b.attach_endpoint(sw, LinkParams::lan());
        let mut topo = b.build();
        let (ne, ns) = (NodeId::Endpoint(e), NodeId::Switch(sw));

        let mut faults = FaultScheduler::new();
        faults.loss_burst(ne, ns, SimTime::from_secs(1), SimTime::from_secs(2), 0.9);

        faults.apply_due(SimTime::from_secs(1), &mut topo);
        assert_eq!(topo.link(ne, ns).unwrap().effective_loss(), 0.9);
        assert_eq!(topo.link(ns, ne).unwrap().effective_loss(), 0.9);

        faults.apply_due(SimTime::from_secs(2), &mut topo);
        assert_eq!(topo.link(ne, ns).unwrap().effective_loss(), 0.0);
        assert_eq!(faults.applied, 2);
    }

    #[test]
    fn same_schedule_applies_identically() {
        let build = |faults: &mut FaultScheduler, topo: &Topology| {
            let w = topo.wires();
            let (a, b) = w[0];
            faults.flap_wire(a, b, SimTime::from_millis(100), SimTime::from_millis(400));
            faults.loss_burst(a, b, SimTime::from_millis(200), SimTime::from_millis(300), 0.5);
        };
        let run = || {
            let (mut topo, _, _, _, _, _) = TopologyBuilder::enterprise(2, 2);
            let mut faults = FaultScheduler::new();
            build(&mut faults, &topo);
            let mut trace = Vec::new();
            let mut t = SimTime::ZERO;
            while !faults.queue.is_empty() {
                t += SimDuration::from_millis(50);
                let n = faults.apply_due(t, &mut topo);
                if n > 0 {
                    trace.push((t, n, format!("{:?}", topo.wires())));
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
