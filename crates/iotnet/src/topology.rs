//! Topology graph and builders.
//!
//! A topology is a set of switches whose ports are wired either to other
//! switches or to endpoints (device NICs, the attacker host, cloud stubs).
//! Each wire carries a pair of directed [`Link`]s so asymmetric paths are
//! expressible. Builders construct the two deployment shapes the paper
//! targets: a smart home behind an IoT router, and an enterprise tree with
//! an on-premise NFV cluster.
//!
//! Every directed link lives in one `Vec<Link>`. The packet path reaches
//! a link by position — each switch port and each endpoint records the
//! index of the link leaving it — while fault injection names a wire by
//! its `(NodeId, NodeId)` key, which resolves to the same index.

use crate::addr::{EndpointId, Ipv4Addr, MacAddr, NodeId, PortNo, SwitchId};
use crate::hash::WordMap;
use crate::link::{Link, LinkParams};

/// Position of a directed link in [`Topology`]'s link vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkIx(u32);

/// A switch port: what it is wired to and the link leaving through it.
#[derive(Debug, Clone, Copy)]
struct Port {
    target: PortTarget,
    out: LinkIx,
}

/// An attached endpoint and its link towards the first-hop switch.
#[derive(Debug, Clone, Copy)]
struct Attachment {
    info: EndpointInfo,
    uplink: LinkIx,
}

/// What a switch port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTarget {
    /// Wired to a port on another switch.
    Switch(SwitchId, PortNo),
    /// Wired to an endpoint.
    Endpoint(EndpointId),
    /// Unused.
    Unwired,
}

/// Static information about an endpoint attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointInfo {
    /// The endpoint's MAC address.
    pub mac: MacAddr,
    /// The endpoint's IPv4 address.
    pub ip: Ipv4Addr,
    /// First-hop switch.
    pub switch: SwitchId,
    /// Port on the first-hop switch.
    pub port: PortNo,
}

/// A directed-link key: traffic flowing out of `from` towards `to`.
pub(crate) type LinkKey = (NodeId, NodeId);

/// The wiring of a network: switches, endpoints, and directed links.
#[derive(Default)]
pub struct Topology {
    switch_ports: Vec<Vec<Port>>,
    endpoints: Vec<Attachment>,
    links: Vec<Link>,
    ip_index: WordMap<Ipv4Addr, EndpointId>,
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `ip_index` only inverts `endpoints`; leaving the map out keeps
        // the output independent of hash order.
        f.debug_struct("Topology")
            .field("switch_ports", &self.switch_ports)
            .field("endpoints", &self.endpoints)
            .field("links", &self.links)
            .finish()
    }
}

impl Topology {
    /// Number of switches.
    pub(crate) fn switch_count(&self) -> usize {
        self.switch_ports.len()
    }

    /// Number of endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Ports (count) on a switch.
    pub fn ports_of(&self, sw: SwitchId) -> u16 {
        self.switch_ports[sw.0 as usize].len() as u16
    }

    /// What a given switch port is wired to.
    pub fn port_target(&self, sw: SwitchId, port: PortNo) -> PortTarget {
        self.port_out(sw, port).map_or(PortTarget::Unwired, |(target, _)| target)
    }

    /// What a switch port is wired to and the link leaving through it;
    /// `None` (never [`PortTarget::Unwired`]) for a port the switch does
    /// not have — the builder adds a port only by wiring it.
    pub(crate) fn port_out(&self, sw: SwitchId, port: PortNo) -> Option<(PortTarget, LinkIx)> {
        let p = self.switch_ports.get(sw.0 as usize)?.get(port.0 as usize)?;
        Some((p.target, p.out))
    }

    /// The link from an endpoint towards its first-hop switch.
    pub(crate) fn uplink(&self, ep: EndpointId) -> LinkIx {
        self.endpoints[ep.0 as usize].uplink
    }

    /// The link at a position handed out by [`Topology::port_out`] or
    /// [`Topology::uplink`].
    pub(crate) fn link_at(&mut self, ix: LinkIx) -> &mut Link {
        &mut self.links[ix.0 as usize]
    }

    /// Attachment info for an endpoint.
    pub fn endpoint(&self, ep: EndpointId) -> &EndpointInfo {
        &self.endpoints[ep.0 as usize].info
    }

    /// Iterate over all endpoints.
    pub fn endpoints(&self) -> impl Iterator<Item = (EndpointId, &EndpointInfo)> {
        self.endpoints.iter().enumerate().map(|(i, e)| (EndpointId(i as u32), &e.info))
    }

    /// Look up the endpoint owning an IP address.
    pub(crate) fn endpoint_by_ip(&self, ip: Ipv4Addr) -> Option<EndpointId> {
        self.ip_index.get(&ip).copied()
    }

    /// Resolve a directed-link key to its position: the uplink of an
    /// endpoint, or the link leaving the switch port that faces `to`.
    fn link_ix(&self, from: NodeId, to: NodeId) -> Option<LinkIx> {
        match (from, to) {
            (NodeId::Endpoint(ep), NodeId::Switch(sw)) => {
                let a = self.endpoints.get(ep.0 as usize)?;
                (a.info.switch == sw).then_some(a.uplink)
            }
            (NodeId::Switch(sw), NodeId::Endpoint(ep)) => {
                let info = self.endpoints.get(ep.0 as usize)?.info;
                (info.switch == sw)
                    .then(|| self.switch_ports[sw.0 as usize][info.port.0 as usize].out)
            }
            (NodeId::Switch(sw), NodeId::Switch(peer)) => self
                .switch_ports
                .get(sw.0 as usize)?
                .iter()
                .find(|p| matches!(p.target, PortTarget::Switch(s, _) if s == peer))
                .map(|p| p.out),
            (NodeId::Endpoint(_), NodeId::Endpoint(_)) => None,
        }
    }

    /// Mutable access to the directed link `from -> to`, if wired.
    pub(crate) fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        self.link_ix(from, to).map(|ix| self.link_at(ix))
    }

    /// Read access to the directed link `from -> to`, if wired.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.link_ix(from, to).map(|ix| &self.links[ix.0 as usize])
    }

    /// Apply `f` to both directions of the wire between two nodes.
    fn each_direction(&mut self, a: NodeId, b: NodeId, mut f: impl FnMut(&mut Link)) {
        for (from, to) in [(a, b), (b, a)] {
            if let Some(l) = self.link_mut(from, to) {
                f(l);
            }
        }
    }

    /// Fail both directions of the wire between two nodes.
    pub fn fail_wire(&mut self, a: NodeId, b: NodeId) {
        self.each_direction(a, b, Link::fail);
    }

    /// Heal both directions of the wire between two nodes: the link comes
    /// back up and traffic resumes. Counterpart to [`Topology::fail_wire`];
    /// the fault scheduler uses this for the "heal" half of a link flap.
    pub fn heal_wire(&mut self, a: NodeId, b: NodeId) {
        self.each_direction(a, b, Link::repair);
    }

    /// Set or clear a transient loss-probability override on both
    /// directions of the wire between two nodes.
    pub fn set_wire_burst_loss(&mut self, a: NodeId, b: NodeId, loss: Option<f64>) {
        self.each_direction(a, b, |l| l.burst_loss = loss);
    }

    /// Reset the runtime state of every link (both directions) back to
    /// freshly-built: up, idle, zeroed counters, no fault overrides.
    pub(crate) fn reset_links(&mut self) {
        for link in &mut self.links {
            link.reset_runtime();
        }
    }

    /// All undirected wires, each reported once as its lexicographically
    /// smaller directed key, in sorted order (deterministic regardless of
    /// insertion order — fault planning iterates this).
    pub fn wires(&self) -> Vec<LinkKey> {
        let mut keys = Vec::with_capacity(self.links.len() / 2);
        for (i, ports) in self.switch_ports.iter().enumerate() {
            let sw = SwitchId(i as u32);
            for p in ports {
                match p.target {
                    PortTarget::Endpoint(ep) => {
                        keys.push((NodeId::Switch(sw), NodeId::Endpoint(ep)));
                    }
                    PortTarget::Switch(peer, _) if sw < peer => {
                        keys.push((NodeId::Switch(sw), NodeId::Switch(peer)));
                    }
                    PortTarget::Switch(..) | PortTarget::Unwired => {}
                }
            }
        }
        keys.sort();
        keys
    }
}

/// Incremental topology builder.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    topo: Topology,
    next_ip: u32,
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> TopologyBuilder {
        TopologyBuilder { topo: Topology::default(), next_ip: 1 }
    }

    /// Add a switch with no ports yet; ports are added by wiring.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.topo.switch_ports.len() as u32);
        self.topo.switch_ports.push(Vec::new());
        id
    }

    /// Add the two directed links of a new wire; returns their positions
    /// in wiring order (`a -> b`, then `b -> a`).
    fn alloc_wire(&mut self, params: LinkParams) -> (LinkIx, LinkIx) {
        let ix = self.topo.links.len() as u32;
        self.topo.links.extend([Link::new(params), Link::new(params)]);
        (LinkIx(ix), LinkIx(ix + 1))
    }

    /// The next port of `sw`, wired to `target` over `out`.
    ///
    /// # Panics
    /// If `sw` already has `u16::MAX` ports. A port's number is the count
    /// before it and [`Topology::ports_of`] reports the count after it,
    /// both as `u16`: past the limit the count would read 0 and the next
    /// port would be numbered like port 0.
    fn alloc_port(&mut self, sw: SwitchId, target: PortTarget, out: LinkIx) -> PortNo {
        let ports = &mut self.topo.switch_ports[sw.0 as usize];
        let count = u16::try_from(ports.len() + 1).unwrap_or_else(|_| {
            panic!("{sw} already has {} ports, the most a switch can number", ports.len())
        });
        ports.push(Port { target, out });
        PortNo(count - 1)
    }

    /// Wire two switches together with symmetric link parameters.
    ///
    /// # Panics
    /// If `a == b` or the pair is already wired. The switches learn and
    /// flood without a spanning tree, so a second wire between one pair
    /// is a forwarding loop, and the `(NodeId, NodeId)` key could name
    /// only one of the two wires.
    pub fn connect_switches(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        params: LinkParams,
    ) -> (PortNo, PortNo) {
        assert!(
            a != b && self.topo.link(NodeId::Switch(a), NodeId::Switch(b)).is_none(),
            "{a} and {b} must be distinct switches with no wire between them yet"
        );
        let (ab, ba) = self.alloc_wire(params);
        let (pa, pb) = (PortNo(self.topo.ports_of(a)), PortNo(self.topo.ports_of(b)));
        self.alloc_port(a, PortTarget::Switch(b, pb), ab);
        self.alloc_port(b, PortTarget::Switch(a, pa), ba);
        (pa, pb)
    }

    /// Attach a new endpoint to `sw` with an auto-assigned `10.0.x.y`
    /// address and a MAC derived from the endpoint index.
    pub fn attach_endpoint(&mut self, sw: SwitchId, params: LinkParams) -> EndpointId {
        let ip = Ipv4Addr::from_index(self.next_ip);
        self.next_ip += 1;
        self.attach_endpoint_with(sw, params, ip)
    }

    /// Attach a new endpoint with an explicit IP address.
    pub fn attach_endpoint_with(
        &mut self,
        sw: SwitchId,
        params: LinkParams,
        ip: Ipv4Addr,
    ) -> EndpointId {
        let ep = EndpointId(self.topo.endpoints.len() as u32);
        let mac = MacAddr::from_index(ep.0 + 1);
        let (down, uplink) = self.alloc_wire(params);
        let port = self.alloc_port(sw, PortTarget::Endpoint(ep), down);
        self.topo
            .endpoints
            .push(Attachment { info: EndpointInfo { mac, ip, switch: sw, port }, uplink });
        self.topo.ip_index.insert(ip, ep);
        ep
    }

    /// Finish building.
    pub fn build(self) -> Topology {
        self.topo
    }

    /// A smart-home shape: one IoT router (a single switch) with `devices`
    /// Wi-Fi-attached device endpoints, plus a WAN uplink endpoint that
    /// stands in for "the Internet" (remote attackers and cloud services
    /// attach behind it in `iotdev`). Returns
    /// `(switch, device_endpoints, wan_endpoint)`.
    pub fn smart_home(devices: usize) -> (Topology, SwitchId, Vec<EndpointId>, EndpointId) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let eps: Vec<EndpointId> =
            (0..devices).map(|_| b.attach_endpoint(sw, LinkParams::wifi())).collect();
        let wan = b.attach_endpoint_with(sw, LinkParams::wan(), Ipv4Addr::new(100, 64, 0, 1));
        (b.build(), sw, eps, wan)
    }

    /// An enterprise shape: a core switch wired to `edges` edge switches,
    /// each with `devices_per_edge` device endpoints; a WAN uplink and an
    /// NFV-cluster attachment point hang off the core. Returns
    /// `(topology, core, edge_switches, device_endpoints, wan, cluster)`.
    #[allow(clippy::type_complexity)]
    pub fn enterprise(
        edges: usize,
        devices_per_edge: usize,
    ) -> (Topology, SwitchId, Vec<SwitchId>, Vec<EndpointId>, EndpointId, EndpointId) {
        let mut b = TopologyBuilder::new();
        let core = b.add_switch();
        let mut edge_switches = Vec::with_capacity(edges);
        let mut eps = Vec::with_capacity(edges * devices_per_edge);
        for _ in 0..edges {
            let e = b.add_switch();
            b.connect_switches(core, e, LinkParams::lan());
            for _ in 0..devices_per_edge {
                eps.push(b.attach_endpoint(e, LinkParams::wifi()));
            }
            edge_switches.push(e);
        }
        let wan = b.attach_endpoint_with(core, LinkParams::wan(), Ipv4Addr::new(100, 64, 0, 1));
        let cluster = b.attach_endpoint_with(core, LinkParams::lan(), Ipv4Addr::new(10, 200, 0, 1));
        (b.build(), core, edge_switches, eps, wan, cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_ports_symmetrically() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let (p0, p1) = b.connect_switches(s0, s1, LinkParams::lan());
        let t = b.build();
        assert_eq!(t.port_target(s0, p0), PortTarget::Switch(s1, p1));
        assert_eq!(t.port_target(s1, p1), PortTarget::Switch(s0, p0));
        assert!(t.link(NodeId::Switch(s0), NodeId::Switch(s1)).is_some());
        assert!(t.link(NodeId::Switch(s1), NodeId::Switch(s0)).is_some());
    }

    #[test]
    #[should_panic(expected = "already has 65535 ports, the most a switch can number")]
    fn a_switch_refuses_a_port_it_cannot_number() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        for _ in 0..u16::MAX {
            b.attach_endpoint(sw, LinkParams::lan());
        }
        assert_eq!(b.topo.ports_of(sw), u16::MAX);
        b.attach_endpoint(sw, LinkParams::lan());
    }

    #[test]
    fn endpoint_attachment_and_ip_index() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let e0 = b.attach_endpoint(s0, LinkParams::wifi());
        let e1 = b.attach_endpoint_with(s0, LinkParams::lan(), Ipv4Addr::new(192, 168, 1, 50));
        let t = b.build();
        assert_eq!(t.endpoint(e0).switch, s0);
        assert_ne!(t.endpoint(e0).ip, t.endpoint(e1).ip);
        assert_eq!(t.endpoint_by_ip(Ipv4Addr::new(192, 168, 1, 50)), Some(e1));
        assert_eq!(t.endpoint_by_ip(Ipv4Addr::new(1, 1, 1, 1)), None);
        assert_ne!(t.endpoint(e0).mac, t.endpoint(e1).mac);
    }

    #[test]
    fn smart_home_shape() {
        let (t, sw, eps, wan) = TopologyBuilder::smart_home(5);
        assert_eq!(t.switch_count(), 1);
        assert_eq!(eps.len(), 5);
        assert_eq!(t.endpoint_count(), 6); // 5 devices + WAN
        assert_eq!(t.endpoint(wan).switch, sw);
        assert_eq!(t.ports_of(sw), 6);
    }

    #[test]
    fn enterprise_shape() {
        let (t, core, edges, eps, wan, cluster) = TopologyBuilder::enterprise(3, 4);
        assert_eq!(t.switch_count(), 4);
        assert_eq!(edges.len(), 3);
        assert_eq!(eps.len(), 12);
        assert_eq!(t.endpoint(wan).switch, core);
        assert_eq!(t.endpoint(cluster).switch, core);
        // Core has: 3 edge uplinks + wan + cluster = 5 ports.
        assert_eq!(t.ports_of(core), 5);
        // Each edge: 1 core uplink + 4 devices.
        for e in edges {
            assert_eq!(t.ports_of(e), 5);
        }
    }

    #[test]
    fn wire_failure_is_bidirectional() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let e0 = b.attach_endpoint(s0, LinkParams::lan());
        let mut t = b.build();
        let ns = NodeId::Switch(s0);
        let ne = NodeId::Endpoint(e0);
        t.fail_wire(ns, ne);
        assert!(!t.link(ns, ne).unwrap().up);
        assert!(!t.link(ne, ns).unwrap().up);
    }

    #[test]
    fn heal_wire_restores_both_directions() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let e0 = b.attach_endpoint(s0, LinkParams::lan());
        let mut t = b.build();
        let ns = NodeId::Switch(s0);
        let ne = NodeId::Endpoint(e0);
        t.fail_wire(ns, ne);
        t.heal_wire(ns, ne);
        assert!(t.link(ns, ne).unwrap().up);
        assert!(t.link(ne, ns).unwrap().up);
    }

    /// The two deployment shapes, for the link-addressing tests.
    fn shapes() -> [Topology; 2] {
        [TopologyBuilder::smart_home(5).0, TopologyBuilder::enterprise(3, 4).0]
    }

    #[test]
    fn keyed_and_positional_addressing_reach_the_same_link() {
        for mut t in shapes() {
            let mut seen = vec![false; t.links.len()];
            let mut reach = |t: &mut Topology, ix: LinkIx, from: NodeId, to: NodeId| {
                assert!(!std::mem::replace(&mut seen[ix.0 as usize], true), "link named twice");
                let by_key: *const Link = t.link(from, to).expect("wired");
                assert!(std::ptr::eq(by_key, t.link_at(ix)), "{from} -> {to}");
                assert!(std::ptr::eq(by_key, t.link_mut(from, to).unwrap()));
            };
            for s in 0..t.switch_count() {
                let sw = SwitchId(s as u32);
                for p in 0..t.ports_of(sw) {
                    let (target, out) = t.port_out(sw, PortNo(p)).expect("every port is wired");
                    let to = match target {
                        PortTarget::Switch(peer, back) => {
                            assert_eq!(
                                t.port_target(peer, back),
                                PortTarget::Switch(sw, PortNo(p))
                            );
                            NodeId::Switch(peer)
                        }
                        PortTarget::Endpoint(ep) => NodeId::Endpoint(ep),
                        PortTarget::Unwired => panic!("port_out returned an unwired port"),
                    };
                    reach(&mut t, out, NodeId::Switch(sw), to);
                }
                assert_eq!(t.port_out(sw, PortNo(t.ports_of(sw))), None);
            }
            for e in 0..t.endpoint_count() {
                let ep = EndpointId(e as u32);
                let (sw, up) = (t.endpoint(ep).switch, t.uplink(ep));
                reach(&mut t, up, NodeId::Endpoint(ep), NodeId::Switch(sw));
            }
            assert!(seen.iter().all(|&s| s), "a link no port or uplink leads to");
        }
    }

    #[test]
    fn keys_of_unwired_pairs_resolve_to_nothing() {
        let (t, core, edges, eps, wan, _) = TopologyBuilder::enterprise(2, 2);
        let (e0, e1) = (NodeId::Switch(edges[0]), NodeId::Switch(edges[1]));
        assert!(t.link(e0, e1).is_none() && t.link(e1, e0).is_none());
        // eps[0] hangs off edge 0, not off the core or edge 1.
        let dev = NodeId::Endpoint(eps[0]);
        assert!(t.link(dev, NodeId::Switch(core)).is_none());
        assert!(t.link(e1, dev).is_none());
        assert!(t.link(dev, NodeId::Endpoint(wan)).is_none());
        assert!(t.link(NodeId::Switch(SwitchId(99)), dev).is_none());
        assert!(t.link(NodeId::Endpoint(EndpointId(99)), e0).is_none());
    }

    #[test]
    fn wires_enumerates_each_wire_once_sorted() {
        // 2 core-edge trunks + 6 device uplinks + wan + cluster = 10 wires.
        assert_eq!(TopologyBuilder::enterprise(2, 3).0.wires().len(), 10);
        for t in shapes() {
            let wires = t.wires();
            assert_eq!(wires.len() * 2, t.links.len());
            assert!(wires.windows(2).all(|w| w[0] < w[1]), "sorted, no wire twice");
            for &(a, b) in &wires {
                assert!(a < b);
                assert!(t.link(a, b).is_some() && t.link(b, a).is_some());
            }
        }
    }

    #[test]
    fn reset_links_resets_every_link() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        for mut t in shapes() {
            for (a, b) in t.wires() {
                t.set_wire_burst_loss(a, b, Some(0.5));
                for (from, to) in [(a, b), (b, a)] {
                    let l = t.link_mut(from, to).unwrap();
                    for _ in 0..8 {
                        l.transmit(crate::time::SimTime::from_millis(1), 800, &mut rng);
                    }
                }
                t.fail_wire(a, b);
            }
            t.reset_links();
            for l in &t.links {
                let fresh = Link::new(l.params);
                assert_eq!(format!("{l:?}"), format!("{fresh:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no wire between them yet")]
    fn wiring_a_switch_pair_twice_is_rejected() {
        let mut b = TopologyBuilder::new();
        let (s0, s1) = (b.add_switch(), b.add_switch());
        b.connect_switches(s0, s1, LinkParams::lan());
        b.connect_switches(s1, s0, LinkParams::lan());
    }

    #[test]
    #[should_panic(expected = "distinct switches")]
    fn wiring_a_switch_to_itself_is_rejected() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        b.connect_switches(s0, s0, LinkParams::lan());
    }

    #[test]
    fn wire_burst_helpers_hit_both_directions() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let e0 = b.attach_endpoint(s0, LinkParams::lan());
        let mut t = b.build();
        let (ns, ne) = (NodeId::Switch(s0), NodeId::Endpoint(e0));
        t.set_wire_burst_loss(ns, ne, Some(0.5));
        assert_eq!(t.link(ne, ns).unwrap().effective_loss(), 0.5);
        t.set_wire_burst_loss(ns, ne, None);
        assert_eq!(t.link(ns, ne).unwrap().effective_loss(), 0.0);
    }
}
