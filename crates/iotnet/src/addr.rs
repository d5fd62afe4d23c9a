//! Addressing and identifiers.
//!
//! The simulator uses real-format MAC and IPv4 addresses, so the headers
//! in [`crate::packet`] carry the fields a real frame would, plus small
//! integer identifiers for switches, endpoints and topology nodes.

use core::fmt;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered unicast MAC derived from a small integer,
    /// convenient for assigning unique device MACs in generated topologies.
    pub const fn from_index(idx: u32) -> MacAddr {
        let b = idx.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether the multicast (group) bit is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

/// An IPv4 address.
///
/// A thin wrapper (rather than `std::net::Ipv4Addr`) so that we can add
/// the prefix-matching helpers flow rules use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Construct from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr([a, b, c, d])
    }

    /// Construct a `10.0.x.y` address from a small index, used when
    /// auto-assigning addresses in generated topologies.
    pub(crate) const fn from_index(idx: u32) -> Ipv4Addr {
        Ipv4Addr([10, ((idx >> 16) & 0xff) as u8, ((idx >> 8) & 0xff) as u8, (idx & 0xff) as u8])
    }

    /// The address as a big-endian `u32`.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Construct from a big-endian `u32`.
    pub const fn from_u32(v: u32) -> Ipv4Addr {
        Ipv4Addr(v.to_be_bytes())
    }

    /// Whether `self` falls inside `prefix/len`.
    pub(crate) fn in_prefix(self, prefix: Ipv4Addr, len: u8) -> bool {
        if len == 0 {
            return true;
        }
        let len = len.min(32);
        let mask = if len == 32 { u32::MAX } else { !(u32::MAX >> len) };
        (self.to_u32() & mask) == (prefix.to_u32() & mask)
    }

    /// Whether this address is in RFC1918 private space (the paper's
    /// deployments are homes and enterprises, i.e. private networks).
    pub fn is_private(self) -> bool {
        self.in_prefix(Ipv4Addr::new(10, 0, 0, 0), 8)
            || self.in_prefix(Ipv4Addr::new(172, 16, 0, 0), 12)
            || self.in_prefix(Ipv4Addr::new(192, 168, 0, 0), 16)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of an SDN switch in the topology.
    SwitchId
);
id_type!(
    /// Identifier of an attached endpoint (a device NIC, an attacker host,
    /// the controller's management interface, a cloud/WAN stub, ...).
    EndpointId
);

/// A switch port number (local to one switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Wildcard used in flow matches ("any ingress port").
    pub const ANY: PortNo = PortNo(u16::MAX);
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A node in the topology graph: either a switch or an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// An SDN switch.
    Switch(SwitchId),
    /// An attached endpoint.
    Endpoint(EndpointId),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Switch(s) => write!(f, "{s}"),
            NodeId::Endpoint(e) => write!(f, "{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_flags() {
        let m = MacAddr([0x02, 0, 0, 0, 0x01, 0x2a]);
        assert_eq!(m.to_string(), "02:00:00:00:01:2a");
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::from_index(7).is_multicast());
    }

    #[test]
    fn mac_from_index_unique() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
    }

    #[test]
    fn ipv4_prefix_matching() {
        let a = Ipv4Addr::new(10, 0, 1, 7);
        assert!(a.in_prefix(Ipv4Addr::new(10, 0, 0, 0), 8));
        assert!(a.in_prefix(Ipv4Addr::new(10, 0, 1, 0), 24));
        assert!(!a.in_prefix(Ipv4Addr::new(10, 0, 2, 0), 24));
        assert!(a.in_prefix(Ipv4Addr::new(0, 0, 0, 0), 0));
        assert!(a.in_prefix(a, 32));
        assert!(!Ipv4Addr::new(10, 0, 1, 8).in_prefix(a, 32));
    }

    #[test]
    fn ipv4_private_ranges() {
        assert!(Ipv4Addr::new(10, 1, 2, 3).is_private());
        assert!(Ipv4Addr::new(192, 168, 0, 1).is_private());
        assert!(Ipv4Addr::new(172, 31, 0, 1).is_private());
        assert!(!Ipv4Addr::new(172, 32, 0, 1).is_private());
        assert!(!Ipv4Addr::new(8, 8, 8, 8).is_private());
    }

    #[test]
    fn ipv4_u32_round_trip() {
        let a = Ipv4Addr::new(192, 168, 10, 20);
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
    }

    #[test]
    fn display_ids() {
        assert_eq!(SwitchId(3).to_string(), "SwitchId(3)");
        assert_eq!(EndpointId(9).to_string(), "EndpointId(9)");
        assert_eq!(PortNo(2).to_string(), "p2");
    }
}
