//! OpenFlow-style match/action rules.
//!
//! The IoTSec controller programs the network by installing flow rules on
//! first-hop switches: steer a device's traffic through its µmbox chain,
//! mirror suspicious flows to the controller, or block a message class
//! outright. The match structure is a wildcard-able subset of the OpenFlow
//! 1.0 12-tuple — enough to express every policy posture in the paper.

use crate::addr::{Ipv4Addr, MacAddr, PortNo};
use crate::packet::{ip_proto, PackedHeaders, Packet};

/// The 7-field flow identity packed into two `u128` words, in the same
/// bit-field style as [`PackedHeaders`]:
///
/// ```text
/// lo: | eth_src 48 | eth_dst 48 | ip_src 32 |          (128 bits exactly)
/// hi: | ip_dst 32 | proto 8 | src_port 16 | dst_port 16 | (72 bits, low)
/// ```
///
/// This is the key of the switch's flow-decision cache: a cache probe
/// hashes and compares two words instead of seven header fields. The
/// packing is a bijection of every field a [`FlowMatch`] can constrain,
/// so two packets get equal keys iff all of those fields are equal —
/// which is what makes a cached decision valid for the second packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedFlowKey {
    /// Ethernet source/destination + IPv4 source.
    pub lo: u128,
    /// IPv4 destination + protocol + ports.
    pub hi: u128,
}

impl PackedFlowKey {
    /// Extract the flow key from a packet's headers.
    pub fn of(packet: &Packet) -> PackedFlowKey {
        PackedFlowKey::from_headers(&packet.packed_headers())
    }

    /// Derive the flow key from already-packed headers — pure word
    /// shifts, no struct walk.
    pub fn from_headers(h: &PackedHeaders) -> PackedFlowKey {
        let eth_dst = h.a >> 80;
        let eth_src = (h.a >> 32) & 0xffff_ffff_ffff;
        let ip_src = (h.b >> 96) & 0xffff_ffff;
        let ip_dst = (h.b >> 64) & 0xffff_ffff;
        let proto = (h.b >> 8) & 0xff;
        let src_port = (h.b >> 32) & 0xffff;
        let dst_port = (h.b >> 16) & 0xffff;
        PackedFlowKey {
            lo: (eth_src << 80) | (eth_dst << 32) | ip_src,
            hi: (ip_dst << 40) | (proto << 32) | (src_port << 16) | dst_port,
        }
    }
}

/// A wildcard-able packet match.
///
/// `None` in any field means "match anything". IP addresses match against
/// a prefix; ports match exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatch {
    /// Ingress port on the switch.
    pub in_port: Option<PortNo>,
    /// Ethernet source.
    pub eth_src: Option<MacAddr>,
    /// Ethernet destination.
    pub eth_dst: Option<MacAddr>,
    /// IPv4 source prefix (address, prefix length).
    pub ip_src: Option<(Ipv4Addr, u8)>,
    /// IPv4 destination prefix (address, prefix length).
    pub ip_dst: Option<(Ipv4Addr, u8)>,
    /// IP protocol number.
    pub ip_proto: Option<u8>,
    /// Transport source port.
    pub src_port: Option<u16>,
    /// Transport destination port.
    pub dst_port: Option<u16>,
}

impl FlowMatch {
    /// Match everything.
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    /// Match traffic *to* a host address.
    pub fn to_host(ip: Ipv4Addr) -> FlowMatch {
        FlowMatch { ip_dst: Some((ip, 32)), ..FlowMatch::default() }
    }

    /// Match traffic to a specific TCP service on a host.
    pub fn to_tcp_service(ip: Ipv4Addr, port: u16) -> FlowMatch {
        FlowMatch {
            ip_dst: Some((ip, 32)),
            ip_proto: Some(ip_proto::TCP),
            dst_port: Some(port),
            ..FlowMatch::default()
        }
    }

    /// Match traffic to a specific UDP service on a host.
    pub fn to_udp_service(ip: Ipv4Addr, port: u16) -> FlowMatch {
        FlowMatch {
            ip_dst: Some((ip, 32)),
            ip_proto: Some(ip_proto::UDP),
            dst_port: Some(port),
            ..FlowMatch::default()
        }
    }

    /// Restrict this match to a given ingress port.
    pub fn with_in_port(mut self, port: PortNo) -> FlowMatch {
        self.in_port = Some(port);
        self
    }

    /// Whether `packet`, arriving on `in_port`, satisfies this match.
    pub fn matches(&self, in_port: PortNo, packet: &Packet) -> bool {
        if let Some(p) = self.in_port {
            if p != PortNo::ANY && p != in_port {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            if m != packet.eth.src {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            if m != packet.eth.dst {
                return false;
            }
        }
        if let Some((pfx, len)) = self.ip_src {
            if !packet.ip.src.in_prefix(pfx, len) {
                return false;
            }
        }
        if let Some((pfx, len)) = self.ip_dst {
            if !packet.ip.dst.in_prefix(pfx, len) {
                return false;
            }
        }
        if let Some(proto) = self.ip_proto {
            if proto != packet.ip.protocol {
                return false;
            }
        }
        if let Some(sp) = self.src_port {
            if sp != packet.transport.src_port() {
                return false;
            }
        }
        if let Some(dp) = self.dst_port {
            if dp != packet.transport.dst_port() {
                return false;
            }
        }
        true
    }
}

/// Identifier of a steer point (an inline µmbox attachment) on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SteerId(pub u32);

/// What to do with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowAction {
    /// Forward out a specific port.
    Output(PortNo),
    /// Forward normally (L2 destination lookup / spanning-tree flood).
    Normal,
    /// Drop the packet.
    Drop,
    /// Divert through the inline processor registered under this steer id
    /// (the µmbox hook); the processor's verdict decides the packet's fate.
    Steer(SteerId),
    /// Copy the packet to the controller/capture channel, then continue
    /// with normal forwarding.
    Mirror,
}

/// A prioritized flow rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRule {
    /// Higher priority wins; ties broken by later installation.
    pub priority: u16,
    /// Match predicate.
    pub matcher: FlowMatch,
    /// Action for matching packets.
    pub action: FlowAction,
    /// Cookie for bulk removal (the controller stamps rules with the
    /// posture epoch that installed them).
    pub cookie: u64,
}

impl FlowRule {
    /// Convenience constructor.
    pub fn new(priority: u16, matcher: FlowMatch, action: FlowAction) -> FlowRule {
        FlowRule { priority, matcher, action, cookie: 0 }
    }

    /// Set the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> FlowRule {
        self.cookie = cookie;
        self
    }
}

/// The quarantine rule set for a host (IDIoT-style minimal
/// allow-list). Every `(tcp, port)` service in `allow` stays reachable
/// — and the host may still *send* toward those service ports, so
/// telemetry to the hub keeps flowing — while everything else to or
/// from the host is dropped.
///
/// Allow rules sit 10 above `base_priority`, the two drop rules at
/// `base_priority`; the caller picks a base above its steer priority so
/// the quarantine drop outranks the chain steer, and stamps `cookie`
/// so the whole set lifts with a single cookie removal.
pub fn quarantine_rules(
    host_ip: Ipv4Addr,
    host_port: PortNo,
    allow: &[(bool, u16)],
    base_priority: u16,
    cookie: u64,
) -> Vec<FlowRule> {
    let mut rules = Vec::with_capacity(allow.len() * 2 + 2);
    for &(tcp, port) in allow {
        let (to, proto) = if tcp {
            (FlowMatch::to_tcp_service(host_ip, port), ip_proto::TCP)
        } else {
            (FlowMatch::to_udp_service(host_ip, port), ip_proto::UDP)
        };
        rules.push(FlowRule::new(base_priority + 10, to, FlowAction::Normal).with_cookie(cookie));
        let from = FlowMatch {
            in_port: Some(host_port),
            ip_proto: Some(proto),
            dst_port: Some(port),
            ..FlowMatch::default()
        };
        rules.push(FlowRule::new(base_priority + 10, from, FlowAction::Normal).with_cookie(cookie));
    }
    rules.push(
        FlowRule::new(base_priority, FlowMatch::to_host(host_ip), FlowAction::Drop)
            .with_cookie(cookie),
    );
    rules.push(
        FlowRule::new(base_priority, FlowMatch::any().with_in_port(host_port), FlowAction::Drop)
            .with_cookie(cookie),
    );
    rules
}

/// One installed rule with its bookkeeping.
#[derive(Debug)]
struct Row {
    rule: FlowRule,
    hits: u64,
    /// Installation order; breaks priority ties (later wins).
    seq: u64,
}

/// A priority-ordered flow table with per-rule hit counters.
///
/// Lookup is a linear scan with [`FlowMatch::matches`]. It runs only on
/// a switch decision-cache miss (141 times in a 5 880-event defended
/// home), which is why a compiled probe bought nothing end to end —
/// DESIGN.md §11.
#[derive(Debug, Default)]
pub struct FlowTable {
    rows: Vec<Row>,
    next_seq: u64,
    epoch: u64,
    /// Lookups that matched no rule.
    pub misses: u64,
}

impl FlowTable {
    /// An empty table: a table has no identity, so all of it is written
    /// by [`FlowTable::recycle`].
    pub fn new() -> FlowTable {
        let mut table = FlowTable::default();
        table.recycle();
        table
    }

    /// A counter bumped on every structural change (install / removal /
    /// clear). Rule *indices* are only meaningful within one epoch, which
    /// is what lets the switch's decision cache hold indices safely.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Install a rule. Later installations win priority ties (this mirrors
    /// OpenFlow's overlap behaviour closely enough for our controller,
    /// which always diffs epochs anyway).
    pub fn install(&mut self, rule: FlowRule) {
        self.rows.push(Row { rule, hits: 0, seq: self.next_seq });
        self.next_seq += 1;
        self.epoch += 1;
    }

    /// Remove every rule whose cookie equals `cookie`; returns how many
    /// were removed.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let before = self.rows.len();
        self.rows.retain(|row| row.rule.cookie != cookie);
        let removed = before - self.rows.len();
        if removed > 0 {
            self.epoch += 1;
        }
        removed
    }

    /// Remove all rules.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.epoch += 1;
    }

    /// Bring the table to its t = 0 state while retaining allocated
    /// capacity. Unlike [`FlowTable::clear`], this also rewinds
    /// `next_seq` (install order participates in priority tie-breaks),
    /// the table epoch, and the miss counter. The constructor ends here,
    /// so a resident world's reused table is a cold-built one.
    pub fn recycle(&mut self) {
        self.rows.clear();
        self.next_seq = 0;
        self.epoch = 0;
        self.misses = 0;
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Look up the best-matching rule for `packet` on `in_port`,
    /// incrementing its hit counter.
    pub fn lookup(&mut self, in_port: PortNo, packet: &Packet) -> Option<&FlowRule> {
        let best = self.lookup_index(in_port, packet);
        self.record(best);
        best.map(|i| &self.rows[i].rule)
    }

    /// The index of the best-matching rule (no counter updates): among
    /// the rules `packet` satisfies, the highest priority, the latest
    /// installed on a tie. Indices are stable only within the current
    /// [`FlowTable::epoch`].
    pub fn lookup_index(&self, in_port: PortNo, packet: &Packet) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.rule.matcher.matches(in_port, packet))
            .max_by_key(|(_, row)| (row.rule.priority, row.seq))
            .map(|(i, _)| i)
    }

    /// Account a lookup outcome: bump the rule's hit counter, or the miss
    /// counter. Used by the switch's decision cache to keep counters exact
    /// when the table scan itself is skipped.
    pub fn record(&mut self, index: Option<usize>) {
        match index {
            Some(i) => self.rows[i].hits += 1,
            None => self.misses += 1,
        }
    }

    /// The rule at `index` (panics if out of range; indices come from
    /// [`FlowTable::lookup_index`] within the same epoch).
    pub fn rule(&self, index: usize) -> &FlowRule {
        &self.rows[index].rule
    }

    /// Iterate over rules with their hit counts.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowRule, u64)> {
        self.rows.iter().map(|row| (&row.rule, row.hits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TransportHeader;
    use bytes::Bytes;

    fn pkt(src: Ipv4Addr, dst: Ipv4Addr, transport: TransportHeader) -> Packet {
        Packet::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            src,
            dst,
            transport,
            Bytes::new(),
        )
    }

    #[test]
    fn wildcard_matches_everything() {
        let m = FlowMatch::any();
        let p =
            pkt(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), TransportHeader::udp(1, 2));
        assert!(m.matches(PortNo(0), &p));
    }

    #[test]
    fn host_and_service_matches() {
        let cam = Ipv4Addr::new(10, 0, 0, 5);
        let p80 = pkt(
            Ipv4Addr::new(10, 0, 0, 9),
            cam,
            TransportHeader::tcp(5555, 80, 0, Default::default()),
        );
        let p81 = pkt(
            Ipv4Addr::new(10, 0, 0, 9),
            cam,
            TransportHeader::tcp(5555, 81, 0, Default::default()),
        );
        assert!(FlowMatch::to_host(cam).matches(PortNo(0), &p80));
        assert!(FlowMatch::to_tcp_service(cam, 80).matches(PortNo(0), &p80));
        assert!(!FlowMatch::to_tcp_service(cam, 80).matches(PortNo(0), &p81));
        assert!(!FlowMatch::to_udp_service(cam, 80).matches(PortNo(0), &p80));
    }

    #[test]
    fn in_port_restriction() {
        let m = FlowMatch::any().with_in_port(PortNo(3));
        let p =
            pkt(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), TransportHeader::udp(1, 2));
        assert!(m.matches(PortNo(3), &p));
        assert!(!m.matches(PortNo(4), &p));
    }

    #[test]
    fn priority_lookup_and_ties() {
        let cam = Ipv4Addr::new(10, 0, 0, 5);
        let mut t = FlowTable::new();
        t.install(FlowRule::new(10, FlowMatch::any(), FlowAction::Normal));
        t.install(FlowRule::new(100, FlowMatch::to_host(cam), FlowAction::Drop));
        let p = pkt(Ipv4Addr::new(10, 0, 0, 9), cam, TransportHeader::udp(1, 2));
        assert_eq!(t.lookup(PortNo(0), &p).unwrap().action, FlowAction::Drop);
        // Tie: later installation wins.
        t.install(FlowRule::new(100, FlowMatch::to_host(cam), FlowAction::Mirror));
        assert_eq!(t.lookup(PortNo(0), &p).unwrap().action, FlowAction::Mirror);
    }

    #[test]
    fn miss_counter_and_cookie_removal() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::to_host(Ipv4Addr::new(9, 9, 9, 9)), FlowAction::Drop)
                .with_cookie(42),
        );
        t.install(FlowRule::new(1, FlowMatch::any(), FlowAction::Normal).with_cookie(42));
        t.install(FlowRule::new(1, FlowMatch::any(), FlowAction::Normal).with_cookie(7));
        let p =
            pkt(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), TransportHeader::udp(1, 2));
        assert_eq!(t.remove_by_cookie(42), 2);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(PortNo(0), &p).is_some());
        t.clear();
        assert!(t.lookup(PortNo(0), &p).is_none());
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn quarantine_rules_allow_only_the_listed_services() {
        let dev = Ipv4Addr::new(10, 0, 0, 5);
        let hub = Ipv4Addr::new(10, 0, 0, 1);
        let dev_port = PortNo(2);
        let mut t = FlowTable::new();
        // Steer rule at 300, as the world installs it.
        t.install(FlowRule::new(300, FlowMatch::to_host(dev), FlowAction::Steer(SteerId(0))));
        for r in quarantine_rules(dev, dev_port, &[(false, 5683)], 400, 0x2005) {
            t.install(r);
        }
        // Telemetry inbound to the device survives.
        let telem_in = pkt(hub, dev, TransportHeader::udp(9, 5683));
        assert_eq!(t.lookup(PortNo(0), &telem_in).unwrap().action, FlowAction::Normal);
        // Telemetry outbound from the device survives.
        let telem_out = pkt(dev, hub, TransportHeader::udp(5683, 5683));
        assert_eq!(t.lookup(dev_port, &telem_out).unwrap().action, FlowAction::Normal);
        // Management inbound outranks the steer: dropped, not steered.
        let mgmt = pkt(hub, dev, TransportHeader::tcp(5555, 8080, 0, Default::default()));
        assert_eq!(t.lookup(PortNo(0), &mgmt).unwrap().action, FlowAction::Drop);
        // Anything else outbound from the device is dropped.
        let exfil = pkt(dev, hub, TransportHeader::udp(40000, 53));
        assert_eq!(t.lookup(dev_port, &exfil).unwrap().action, FlowAction::Drop);
        // Lifting the quarantine restores the steer.
        assert_eq!(t.remove_by_cookie(0x2005), 4);
        assert!(matches!(t.lookup(PortNo(0), &mgmt).unwrap().action, FlowAction::Steer(_)));
    }

    #[test]
    fn packed_key_equality_mirrors_field_equality() {
        let a =
            pkt(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), TransportHeader::udp(7, 9));
        let same =
            pkt(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), TransportHeader::udp(7, 9));
        assert_eq!(PackedFlowKey::of(&a), PackedFlowKey::of(&same));
        // Each keyed field flips the key.
        let other_port = pkt(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TransportHeader::udp(7, 10),
        );
        assert_ne!(PackedFlowKey::of(&a), PackedFlowKey::of(&other_port));
        let tcp = pkt(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TransportHeader::tcp(7, 9, 0, Default::default()),
        );
        assert_ne!(PackedFlowKey::of(&a), PackedFlowKey::of(&tcp));
    }

    #[test]
    fn hit_counters_increment() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(1, FlowMatch::any(), FlowAction::Normal));
        let p =
            pkt(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), TransportHeader::udp(1, 2));
        for _ in 0..5 {
            t.lookup(PortNo(0), &p);
        }
        assert_eq!(t.iter().next().unwrap().1, 5);
    }
}
