//! SDN switch model.
//!
//! Each switch has a set of ports, a priority [`FlowTable`] programmed by
//! the controller, a learning MAC table used by the `Normal` action, and
//! per-switch counters. The paper's enforcement story assumes every IoT
//! device's *first-hop* switch or AP is programmable; this model is that
//! first hop.
//!
//! Two things keep per-packet work off the hot loop:
//!
//! * A decision names its output as [`Ports`] — nowhere, one port, or a
//!   flood ("every port but the ingress, in port order") — never as a
//!   list of ports, so a [`SwitchDecision`] is `Copy` and a cached one,
//!   its rule included, is three words. Deciding a 37-port flood costs
//!   what deciding a unicast does; the network fans a flood out over
//!   the switch's port table ([`Network`]).
//! * A flow-decision cache memoizes the full `(in_port, flow key)` →
//!   decision mapping, skipping the linear table scan for repeat flows.
//!   The key is the two-word [`PackedFlowKey`] — every packet field a
//!   decision can depend on — and both of the switch's tables hash with
//!   [`WordHasher`](crate::hash::WordHasher): five word folds and a
//!   closing multiply for a probe of the cache. The cache is
//!   invalidated by flow-table changes (via [`FlowTable::epoch`])
//!   and by MAC-table learning changes, so cached decisions are always
//!   exactly what the slow path would have computed. Rule hit / miss
//!   counters are still updated on cache hits, keeping every counter
//!   byte-identical to an uncached run. A miss scans the table with
//!   [`FlowTable::lookup_index`]. Neither a miss nor the wipe a learned
//!   station causes touches the allocator.
//!
//! Both tables are bounded: the hasher is unkeyed and [`Network::send`]
//! takes any frame, so neither may grow with what arrives.
//!
//! [`Network`]: crate::net::Network
//! [`Network::send`]: crate::net::Network::send

use crate::addr::{MacAddr, PortNo, SwitchId};
use crate::flow::{FlowAction, FlowRule, FlowTable, PackedFlowKey};
use crate::hash::WordMap;
use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::hash_map::Entry;
use trace::{TraceEvent, Tracer};

/// The ports a forwarding decision sends a packet out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ports {
    /// None: the destination was learned on the ingress port, so the
    /// frame is already on the right segment.
    None,
    /// This one port.
    One(PortNo),
    /// Every port of the switch but the ingress, in port order.
    Flood,
}

/// Decisions cached per switch before the cache is wiped and refilled.
/// Sized for the workspace's scenarios (tens of devices × a few flows
/// each); wiping on overflow keeps the policy trivially correct.
const DECISION_CACHE_CAP: usize = 1024;

/// Stations learned per switch before the MAC table is wiped — what a CAM
/// that overflows does: every destination is unknown again, so unicast
/// floods until its station is next heard from. A hundred times the
/// largest home the workspace builds.
const MAC_TABLE_CAP: usize = 4096;

/// Forwarding decision produced by a switch for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Send out these ports (normal forwarding may flood).
    Output(Ports),
    /// Drop.
    Drop,
    /// Divert to the inline processor with this steer id; the network layer
    /// resumes forwarding with the processor's output packets.
    Steer(crate::flow::SteerId),
    /// Mirror to the capture/controller channel and also output normally.
    MirrorAnd(Ports),
}

#[derive(Debug, Clone, Copy)]
struct CachedDecision {
    /// The matched rule's index (`None` = table miss), replayed into the
    /// table's hit/miss counters on every cache hit.
    rule: Option<usize>,
    decision: SwitchDecision,
}

/// An SDN switch.
#[derive(Debug)]
pub struct Switch {
    /// This switch's id.
    pub id: SwitchId,
    /// Number of ports (ports are `0..n_ports`).
    pub n_ports: u16,
    /// The controller-programmed flow table.
    pub table: FlowTable,
    mac_table: WordMap<MacAddr, PortNo>,
    /// Decision cache keyed by the packed flow key — the two-word encoding
    /// of every packet field a forwarding decision can depend on (see
    /// [`PackedFlowKey`]). Packets differing only in payload share an entry.
    cache: WordMap<(PortNo, PackedFlowKey), CachedDecision>,
    /// Flow-table epoch the cache was filled against.
    cache_epoch: u64,
    /// Packets dropped by policy.
    pub policy_drops: u64,
    /// Decision-cache lookups (one per processed packet).
    pub cache_lookups: u64,
    /// Decision-cache hits (table scan skipped).
    pub cache_hits: u64,
    /// Packet-class trace emission (disabled by default; see `crates/trace`).
    tracer: Tracer,
}

impl Switch {
    /// A new switch with `n_ports` ports and an empty flow table. `id`
    /// and `n_ports` are its identity; everything else is written by
    /// [`Switch::reset_resident`].
    pub fn new(id: SwitchId, n_ports: u16) -> Switch {
        let mut sw = Switch {
            id,
            n_ports,
            table: FlowTable::new(),
            mac_table: WordMap::default(),
            cache: WordMap::default(),
            cache_epoch: 0,
            policy_drops: 0,
            cache_lookups: 0,
            cache_hits: 0,
            tracer: Tracer::disabled(),
        };
        sw.reset_resident();
        sw
    }

    /// Bring the switch to its t = 0 state (empty flow table at epoch 0,
    /// cleared MAC/decision caches, zeroed counters, no tracer) while
    /// retaining allocated capacity. The constructor ends here, so the
    /// switch a resident world reuses between rounds is a cold-built one
    /// by construction; whoever owns it re-attaches its tracer.
    pub fn reset_resident(&mut self) {
        self.table.recycle();
        self.mac_table.clear();
        self.cache.clear();
        self.cache_epoch = 0;
        self.policy_drops = 0;
        self.cache_lookups = 0;
        self.cache_hits = 0;
        self.tracer = Tracer::disabled();
    }

    /// Attach a tracer for cache and policy-drop events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Install a flow rule.
    pub fn install(&mut self, rule: FlowRule) {
        self.table.install(rule);
    }

    /// Remove rules stamped with `cookie`.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        self.table.remove_by_cookie(cookie)
    }

    /// The port a MAC was learned on, if any.
    pub fn learned_port(&self, mac: MacAddr) -> Option<PortNo> {
        self.mac_table.get(&mac).copied()
    }

    /// Process a packet arriving on `in_port` at `now`: learn the source
    /// MAC, then apply the flow table (falling back to `Normal` on a
    /// miss). `now` is the sim-time key for trace emission (cache
    /// hit/miss, policy drop).
    pub fn process_at(&mut self, now: SimTime, in_port: PortNo, packet: &Packet) -> SwitchDecision {
        if !packet.eth.src.is_multicast() && self.learn(packet.eth.src, in_port) {
            // A new or moved station changes what `Normal` forwarding does.
            self.cache.clear();
        }
        // The table is public, so catch *any* mutation (controller installs,
        // cookie removals, direct `table.clear()`) by epoch comparison.
        if self.cache_epoch != self.table.epoch() {
            self.cache_epoch = self.table.epoch();
            self.cache.clear();
        }
        let key = (in_port, PackedFlowKey::of(packet));
        self.cache_lookups += 1;
        if self.cache.len() >= DECISION_CACHE_CAP && !self.cache.contains_key(&key) {
            self.cache.clear();
        }
        let at = now.as_nanos();
        let CachedDecision { rule, decision } = match self.cache.entry(key) {
            Entry::Occupied(hit) => {
                self.cache_hits += 1;
                self.tracer.emit(at, TraceEvent::CacheHit { switch: self.id.0 });
                *hit.get()
            }
            Entry::Vacant(miss) => {
                self.tracer.emit(at, TraceEvent::CacheMiss { switch: self.id.0 });
                let rule = self.table.lookup_index(in_port, packet);
                let normal = || normal(&self.mac_table, in_port, packet);
                let decision = match rule.map_or(FlowAction::Normal, |i| self.table.rule(i).action)
                {
                    FlowAction::Drop => SwitchDecision::Drop,
                    FlowAction::Output(p) => SwitchDecision::Output(Ports::One(p)),
                    FlowAction::Steer(id) => SwitchDecision::Steer(id),
                    FlowAction::Mirror => SwitchDecision::MirrorAnd(normal()),
                    FlowAction::Normal => SwitchDecision::Output(normal()),
                };
                *miss.insert(CachedDecision { rule, decision })
            }
        };
        // Hit or miss, the counters move as the table scan moves them.
        self.table.record(rule);
        if decision == SwitchDecision::Drop {
            self.policy_drops += 1;
            self.tracer.emit(at, TraceEvent::PolicyDrop { switch: self.id.0 });
        }
        decision
    }

    /// Record that `mac` was heard on `port`; whether that is news.
    fn learn(&mut self, mac: MacAddr, port: PortNo) -> bool {
        match self.mac_table.get_mut(&mac) {
            Some(known) if *known == port => false,
            Some(known) => {
                *known = port;
                true
            }
            None => {
                if self.mac_table.len() >= MAC_TABLE_CAP {
                    self.mac_table.clear();
                }
                self.mac_table.insert(mac, port);
                true
            }
        }
    }

    /// Normal (learning L2) forwarding of a packet arriving on `in_port`.
    pub(crate) fn normal(&self, in_port: PortNo, packet: &Packet) -> Ports {
        normal(&self.mac_table, in_port, packet)
    }
}

/// [`Switch::normal`] over the one field it reads, for
/// [`Switch::process_at`] to call while it holds a slot of the cache:
/// known unicast goes out its learned port; unknown unicast and
/// broadcast flood.
fn normal(mac_table: &WordMap<MacAddr, PortNo>, in_port: PortNo, packet: &Packet) -> Ports {
    if packet.eth.dst.is_multicast() {
        return Ports::Flood;
    }
    match mac_table.get(&packet.eth.dst) {
        Some(&p) if p == in_port => Ports::None,
        Some(&p) => Ports::One(p),
        None => Ports::Flood,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use crate::flow::{FlowMatch, SteerId};
    use crate::packet::TransportHeader;
    use bytes::Bytes;

    fn pkt(src_mac: MacAddr, dst_mac: MacAddr) -> Packet {
        Packet::new(
            src_mac,
            dst_mac,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TransportHeader::udp(1, 2),
            Bytes::new(),
        )
    }

    #[test]
    fn learns_and_forwards() {
        let mut sw = Switch::new(SwitchId(0), 4);
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        // Unknown destination floods.
        let d = sw.process_at(SimTime::ZERO, PortNo(0), &pkt(a, b));
        assert_eq!(d, SwitchDecision::Output(Ports::Flood));
        // b replies from port 2; now a is known on port 0.
        let d = sw.process_at(SimTime::ZERO, PortNo(2), &pkt(b, a));
        assert_eq!(d, SwitchDecision::Output(Ports::One(PortNo(0))));
        // And b is now known on port 2.
        let d = sw.process_at(SimTime::ZERO, PortNo(0), &pkt(a, b));
        assert_eq!(d, SwitchDecision::Output(Ports::One(PortNo(2))));
        assert_eq!(sw.learned_port(a), Some(PortNo(0)));
    }

    #[test]
    fn same_segment_suppression() {
        let mut sw = Switch::new(SwitchId(0), 4);
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        sw.process_at(SimTime::ZERO, PortNo(1), &pkt(b, a)); // learn b on port 1
        let d = sw.process_at(SimTime::ZERO, PortNo(1), &pkt(a, b)); // b is back out the ingress port
        assert_eq!(d, SwitchDecision::Output(Ports::None));
    }

    #[test]
    fn broadcast_floods() {
        let mut sw = Switch::new(SwitchId(0), 3);
        let d = sw.process_at(
            SimTime::ZERO,
            PortNo(1),
            &pkt(MacAddr::from_index(1), MacAddr::BROADCAST),
        );
        assert_eq!(d, SwitchDecision::Output(Ports::Flood));
    }

    #[test]
    fn policy_drop_counted() {
        let mut sw = Switch::new(SwitchId(0), 2);
        sw.install(FlowRule::new(10, FlowMatch::any(), FlowAction::Drop));
        let d = sw.process_at(
            SimTime::ZERO,
            PortNo(0),
            &pkt(MacAddr::from_index(1), MacAddr::from_index(2)),
        );
        assert_eq!(d, SwitchDecision::Drop);
        assert_eq!(sw.policy_drops, 1);
    }

    #[test]
    fn steer_and_mirror_decisions() {
        let mut sw = Switch::new(SwitchId(0), 2);
        sw.install(FlowRule::new(10, FlowMatch::any(), FlowAction::Steer(SteerId(7))));
        let p = pkt(MacAddr::from_index(1), MacAddr::from_index(2));
        assert_eq!(sw.process_at(SimTime::ZERO, PortNo(0), &p), SwitchDecision::Steer(SteerId(7)));
        sw.table.clear();
        sw.install(FlowRule::new(10, FlowMatch::any(), FlowAction::Mirror));
        assert_eq!(
            sw.process_at(SimTime::ZERO, PortNo(0), &p),
            SwitchDecision::MirrorAnd(Ports::Flood)
        );
    }

    #[test]
    fn decision_cache_hits_repeat_flows_and_keeps_counters_exact() {
        let mut sw = Switch::new(SwitchId(0), 4);
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        let p = pkt(a, b);
        sw.process_at(SimTime::ZERO, PortNo(0), &p); // cold: learns a, caches the flood
        assert_eq!(sw.cache_hits, 0);
        let d = sw.process_at(SimTime::ZERO, PortNo(0), &p); // warm
        assert_eq!(sw.cache_hits, 1);
        assert_eq!(d, SwitchDecision::Output(Ports::Flood));
        // Counters advance on cache hits exactly as on table scans.
        assert_eq!(sw.table.misses, 2);
    }

    #[test]
    fn decision_cache_invalidated_by_table_change() {
        let mut sw = Switch::new(SwitchId(0), 2);
        let p = pkt(MacAddr::from_index(1), MacAddr::from_index(2));
        sw.process_at(SimTime::ZERO, PortNo(0), &p);
        sw.process_at(SimTime::ZERO, PortNo(0), &p);
        assert_eq!(sw.cache_hits, 1);
        sw.install(FlowRule::new(10, FlowMatch::any(), FlowAction::Drop));
        // The cached Output decision must not survive the install.
        assert_eq!(sw.process_at(SimTime::ZERO, PortNo(0), &p), SwitchDecision::Drop);
        assert_eq!(sw.policy_drops, 1);
    }

    #[test]
    fn decision_cache_invalidated_by_mac_learning() {
        let mut sw = Switch::new(SwitchId(0), 4);
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        // a → b floods (b unknown) and is cached.
        sw.process_at(SimTime::ZERO, PortNo(0), &pkt(a, b));
        // b appears on port 2: learning must invalidate the cached flood.
        sw.process_at(SimTime::ZERO, PortNo(2), &pkt(b, a));
        let d = sw.process_at(SimTime::ZERO, PortNo(0), &pkt(a, b));
        assert_eq!(d, SwitchDecision::Output(Ports::One(PortNo(2))));
    }

    #[test]
    fn mac_table_overflow_wipes_and_relearns() {
        let mut sw = Switch::new(SwitchId(0), 4);
        let known = MacAddr::from_index(20_000);
        sw.process_at(SimTime::ZERO, PortNo(3), &pkt(known, MacAddr::BROADCAST));
        let stranger = |i: u32| pkt(MacAddr::from_index(i), known);
        // While `known` is in the table, frames for it are unicast.
        assert_eq!(
            sw.process_at(SimTime::ZERO, PortNo(0), &stranger(0)),
            SwitchDecision::Output(Ports::One(PortNo(3)))
        );
        for i in 1..10_000 {
            sw.process_at(SimTime::ZERO, PortNo(0), &stranger(i));
            assert!(sw.mac_table.len() <= MAC_TABLE_CAP);
            assert!(sw.cache.len() <= DECISION_CACHE_CAP);
        }
        // The overflow forgot it, cached decisions with it: unknown
        // unicast floods...
        assert_eq!(sw.learned_port(known), None);
        assert_eq!(
            sw.process_at(SimTime::ZERO, PortNo(0), &stranger(0)),
            SwitchDecision::Output(Ports::Flood)
        );
        // ...until the station is heard from again.
        sw.process_at(SimTime::ZERO, PortNo(3), &pkt(known, MacAddr::BROADCAST));
        assert_eq!(sw.learned_port(known), Some(PortNo(3)));
        assert_eq!(
            sw.process_at(SimTime::ZERO, PortNo(0), &stranger(0)),
            SwitchDecision::Output(Ports::One(PortNo(3)))
        );
    }

    #[test]
    fn a_flood_is_one_decision_however_wide() {
        let p = pkt(MacAddr::from_index(1), MacAddr::from_index(2));
        for n_ports in [1, 4, 38, u16::MAX] {
            let mut sw = Switch::new(SwitchId(0), n_ports);
            let cold = sw.process_at(SimTime::ZERO, PortNo(0), &p);
            assert_eq!(cold, SwitchDecision::Output(Ports::Flood));
            assert_eq!(sw.process_at(SimTime::ZERO, PortNo(0), &p), cold);
            assert_eq!((sw.cache_lookups, sw.cache_hits), (2, 1));
        }
        // Rule and decision: three words, whatever the flood's width.
        assert!(std::mem::size_of::<CachedDecision>() <= 3 * std::mem::size_of::<u64>());
    }

    #[test]
    fn hit_counters_replayed_on_cached_drops() {
        let mut sw = Switch::new(SwitchId(0), 2);
        sw.install(FlowRule::new(10, FlowMatch::any(), FlowAction::Drop));
        let p = pkt(MacAddr::from_index(1), MacAddr::from_index(2));
        for _ in 0..5 {
            assert_eq!(sw.process_at(SimTime::ZERO, PortNo(0), &p), SwitchDecision::Drop);
        }
        assert_eq!(sw.policy_drops, 5);
        assert_eq!(sw.cache_hits, 4);
        // The drop rule's hit counter saw all five packets.
        assert_eq!(sw.table.iter().next().unwrap().1, 5);
    }
}
