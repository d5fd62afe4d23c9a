//! Packet representation.
//!
//! Following the smoltcp philosophy, packets are explicit representation
//! types: three header structs with real-format addresses and fields, and
//! an application payload held as a ref-counted [`Bytes`] that the
//! `iotdev` protocol encodes. Nothing serializes the headers. The µmboxes
//! match on header fields, on the [`PackedHeaders`] words and on the
//! decoded payload, and a link charges serialization delay by
//! [`Packet::wire_len`], the length the frame would have on a wire.

use crate::addr::{Ipv4Addr, MacAddr};
use bytes::Bytes;

/// EtherType for IPv4 — the only L3 protocol the substrate models.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;

/// IP protocol numbers the substrate models.
pub mod ip_proto {
    /// TCP.
    pub(crate) const TCP: u8 = 6;
    /// UDP.
    pub(crate) const UDP: u8 = 17;
}

/// Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType (always `ETHERTYPE_IPV4` in this substrate).
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Wire length of the header in bytes.
    pub(crate) const LEN: usize = 14;
}

/// IPv4 header (no options — IHL is always 5 in this substrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol ([`ip_proto`]).
    pub protocol: u8,
    /// Time-to-live.
    pub ttl: u8,
    /// Differentiated services byte (kept because some µmboxes re-mark it).
    pub dscp: u8,
    /// Total length of IPv4 header plus everything after it.
    pub total_len: u16,
}

impl Ipv4Header {
    /// Wire length of the (option-less) header.
    pub(crate) const LEN: usize = 20;
}

/// TCP flag bits carried in [`TransportHeader::Tcp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
}

impl TcpFlags {
    /// A SYN-only segment (connection open).
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// A pure ACK.
    pub const ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };

    fn to_bits(self) -> u8 {
        (self.fin as u8)
            | ((self.syn as u8) << 1)
            | ((self.rst as u8) << 2)
            | ((self.ack as u8) << 4)
    }

    fn from_bits(b: u8) -> TcpFlags {
        TcpFlags { fin: b & 0x01 != 0, syn: b & 0x02 != 0, rst: b & 0x04 != 0, ack: b & 0x10 != 0 }
    }
}

/// Transport header: simplified UDP/TCP carrying ports (and, for TCP,
/// sequence numbers and flags — enough for the stateful-firewall and
/// proxy µmboxes to track connection establishment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportHeader {
    /// UDP.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// TCP (no window/checksum modelling; delivery is reliable in-order
    /// per link by construction of the event engine).
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Flags.
        flags: TcpFlags,
    },
}

impl TransportHeader {
    /// A UDP header.
    pub fn udp(src_port: u16, dst_port: u16) -> Self {
        TransportHeader::Udp { src_port, dst_port }
    }

    /// A TCP header with the given flags.
    pub fn tcp(src_port: u16, dst_port: u16, seq: u32, flags: TcpFlags) -> Self {
        TransportHeader::Tcp { src_port, dst_port, seq, flags }
    }

    /// IP protocol number of this header.
    pub(crate) fn protocol(&self) -> u8 {
        match self {
            TransportHeader::Udp { .. } => ip_proto::UDP,
            TransportHeader::Tcp { .. } => ip_proto::TCP,
        }
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        match *self {
            TransportHeader::Udp { src_port, .. } | TransportHeader::Tcp { src_port, .. } => {
                src_port
            }
        }
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        match *self {
            TransportHeader::Udp { dst_port, .. } | TransportHeader::Tcp { dst_port, .. } => {
                dst_port
            }
        }
    }

    /// Wire length in bytes (UDP: 8, TCP: 20 with no options).
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            TransportHeader::Udp { .. } => 8,
            TransportHeader::Tcp { .. } => 20,
        }
    }
}

/// A full packet: Ethernet + IPv4 + transport + application payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// L2 header.
    pub eth: EthernetHeader,
    /// L3 header.
    pub ip: Ipv4Header,
    /// L4 header.
    pub transport: TransportHeader,
    /// Application payload bytes (the `iotdev` protocol codec fills this).
    pub payload: Bytes,
}

impl Packet {
    /// Build a packet with sensible defaults (TTL 64, DSCP 0) and a
    /// correctly-sized `total_len`.
    pub fn new(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        transport: TransportHeader,
        payload: Bytes,
    ) -> Packet {
        let total_len = (Ipv4Header::LEN + transport.wire_len() + payload.len()) as u16;
        Packet {
            eth: EthernetHeader { src: eth_src, dst: eth_dst, ethertype: ETHERTYPE_IPV4 },
            ip: Ipv4Header {
                src: ip_src,
                dst: ip_dst,
                protocol: transport.protocol(),
                ttl: 64,
                dscp: 0,
                total_len,
            },
            transport,
            payload,
        }
    }

    /// Total wire length in bytes.
    pub fn wire_len(&self) -> usize {
        EthernetHeader::LEN + Ipv4Header::LEN + self.transport.wire_len() + self.payload.len()
    }

    /// Wire length in bits (used for transmission-delay computation).
    pub fn wire_bits(&self) -> u64 {
        self.wire_len() as u64 * 8
    }
}

/// All three packet headers packed into two `u128` words plus a `u32`
/// side word, in the bit-field register style the E19 packed-state
/// engine (and the arm-sysregs idiom it borrows) uses: the hot paths —
/// flow-key extraction, signature pre-filters, switch forwarding —
/// compare and mask whole words instead of walking three structs.
///
/// Layout (high bit → low bit):
///
/// ```text
/// a: | eth_dst 48 | eth_src 48 | ethertype 16 | ttl 8 | dscp 8 |
/// b: | ip_src 32 | ip_dst 32 | total_len 16 | src_port 16
///    | dst_port 16 | protocol 8 | kind 1 (pad 2) | tcp flags 5 |
/// seq: TCP sequence number (0 for UDP)
/// ```
///
/// The encoding is a **total bijection** with
/// `(EthernetHeader, Ipv4Header, TransportHeader)` — 286 raw header bits
/// do not fit two words, hence the `seq` side word — so
/// [`PackedHeaders::unpack`] reconstructs the exact structs. No
/// production path unpacks: `unpack` is the inverse that
/// `tests/packed_net_props.rs` holds [`PackedHeaders::pack`] to. The
/// payload is *not* packed: it rides alongside as its ref-counted
/// [`Bytes`], the fallback for data no fixed-width word can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedHeaders {
    /// L2 word: MACs, ethertype, TTL, DSCP.
    pub a: u128,
    /// L3/L4 word: addresses, lengths, ports, protocol, flags.
    pub b: u128,
    /// TCP sequence number side word (0 for UDP).
    pub seq: u32,
}

/// `kind` bit in word `b`: set for TCP, clear for UDP.
const PACKED_KIND_TCP: u128 = 1 << 7;

fn mac_to_u48(m: MacAddr) -> u128 {
    let b = m.0;
    (u128::from(b[0]) << 40)
        | (u128::from(b[1]) << 32)
        | (u128::from(b[2]) << 24)
        | (u128::from(b[3]) << 16)
        | (u128::from(b[4]) << 8)
        | u128::from(b[5])
}

fn mac_from_u48(v: u128) -> MacAddr {
    MacAddr([
        (v >> 40) as u8,
        (v >> 32) as u8,
        (v >> 24) as u8,
        (v >> 16) as u8,
        (v >> 8) as u8,
        v as u8,
    ])
}

impl PackedHeaders {
    /// Pack the three headers into words.
    pub fn pack(eth: &EthernetHeader, ip: &Ipv4Header, transport: &TransportHeader) -> Self {
        let a = (mac_to_u48(eth.dst) << 80)
            | (mac_to_u48(eth.src) << 32)
            | (u128::from(eth.ethertype) << 16)
            | (u128::from(ip.ttl) << 8)
            | u128::from(ip.dscp);
        let (kind, flag_bits, seq) = match *transport {
            TransportHeader::Udp { .. } => (0u128, 0u128, 0u32),
            TransportHeader::Tcp { seq, flags, .. } => {
                (PACKED_KIND_TCP, u128::from(flags.to_bits()), seq)
            }
        };
        let b = (u128::from(ip.src.to_u32()) << 96)
            | (u128::from(ip.dst.to_u32()) << 64)
            | (u128::from(ip.total_len) << 48)
            | (u128::from(transport.src_port()) << 32)
            | (u128::from(transport.dst_port()) << 16)
            | (u128::from(ip.protocol) << 8)
            | kind
            | flag_bits;
        PackedHeaders { a, b, seq }
    }

    /// Reconstruct the exact header structs: the inverse of
    /// [`PackedHeaders::pack`].
    pub fn unpack(&self) -> (EthernetHeader, Ipv4Header, TransportHeader) {
        let eth = EthernetHeader {
            dst: mac_from_u48(self.a >> 80),
            src: mac_from_u48((self.a >> 32) & 0xffff_ffff_ffff),
            ethertype: (self.a >> 16) as u16,
        };
        let ip = Ipv4Header {
            src: Ipv4Addr::from_u32((self.b >> 96) as u32),
            dst: Ipv4Addr::from_u32((self.b >> 64) as u32),
            protocol: (self.b >> 8) as u8,
            ttl: (self.a >> 8) as u8,
            dscp: self.a as u8,
            total_len: (self.b >> 48) as u16,
        };
        let src_port = (self.b >> 32) as u16;
        let dst_port = (self.b >> 16) as u16;
        let transport = if self.b & PACKED_KIND_TCP != 0 {
            TransportHeader::Tcp {
                src_port,
                dst_port,
                seq: self.seq,
                flags: TcpFlags::from_bits((self.b & 0x1f) as u8),
            }
        } else {
            TransportHeader::Udp { src_port, dst_port }
        };
        (eth, ip, transport)
    }

    /// Destination port, straight off the packed word (pre-filters).
    pub fn dst_port(&self) -> u16 {
        (self.b >> 16) as u16
    }

    /// Source IPv4 address, straight off the packed word (pre-filters).
    pub fn ip_src(&self) -> Ipv4Addr {
        Ipv4Addr::from_u32((self.b >> 96) as u32)
    }
}

impl From<&Packet> for PackedHeaders {
    fn from(p: &Packet) -> Self {
        PackedHeaders::pack(&p.eth, &p.ip, &p.transport)
    }
}

impl Packet {
    /// The packed-word view of this packet's headers.
    pub fn packed_headers(&self) -> PackedHeaders {
        PackedHeaders::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet(payload: &[u8]) -> Packet {
        Packet::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TransportHeader::udp(5000, 80),
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn wire_len_counts_each_header_once() {
        // Ethernet 14 + IPv4 20 + UDP 8 + payload 9; the link's
        // serialization delay reads this.
        let udp = sample_packet(b"hello iot");
        assert_eq!(udp.wire_len(), 51);
        assert_eq!(udp.wire_bits(), 51 * 8);
        assert_eq!(usize::from(udp.ip.total_len), 51 - EthernetHeader::LEN);
        let tcp = Packet::new(
            MacAddr::from_index(3),
            MacAddr::from_index(4),
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(192, 168, 1, 1),
            TransportHeader::tcp(43122, 443, 0xdead_beef, TcpFlags::SYN),
            Bytes::new(),
        );
        assert_eq!(tcp.wire_len(), 14 + 20 + 20);
    }

    #[test]
    fn packed_headers_round_trip_udp_and_tcp() {
        let udp = sample_packet(b"hello iot");
        let (eth, ip, transport) = udp.packed_headers().unpack();
        assert_eq!((eth, ip, transport), (udp.eth, udp.ip, udp.transport));

        let tcp = Packet::new(
            MacAddr::from_index(3),
            MacAddr::BROADCAST,
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(192, 168, 1, 1),
            TransportHeader::tcp(43122, 443, 0xdead_beef, TcpFlags::SYN),
            Bytes::new(),
        );
        let packed = PackedHeaders::from(&tcp);
        let (eth, ip, transport) = packed.unpack();
        assert_eq!((eth, ip, transport), (tcp.eth, tcp.ip, tcp.transport));
        assert_eq!(packed.dst_port(), 443);
        assert_eq!(packed.ip_src(), Ipv4Addr::new(8, 8, 8, 8));
    }

    #[test]
    fn packed_headers_preserve_independent_ip_protocol() {
        // `ip.protocol` is its own field: a (malformed) packet whose IP
        // protocol disagrees with the transport variant must survive the
        // word round trip bit-for-bit — the encoding keeps the protocol
        // byte and the transport kind bit separately.
        let mut p = sample_packet(b"");
        p.ip.protocol = 99;
        p.ip.ttl = 1;
        p.ip.dscp = 0xb8;
        let (eth, ip, transport) = p.packed_headers().unpack();
        assert_eq!((eth, ip, transport), (p.eth, p.ip, p.transport));
    }
}
