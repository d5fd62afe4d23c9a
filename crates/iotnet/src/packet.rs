//! Packet representation and wire codec.
//!
//! Following the smoltcp philosophy, packets are explicit representation
//! types that can be emitted to and parsed from real wire bytes. The
//! simulator mostly moves the structured [`Packet`] around (cheap, and the
//! payload is a ref-counted [`Bytes`]), but the codec matters for three
//! reasons: signature-based µmboxes match on wire bytes, the capture layer
//! stores wire bytes, and byte-accurate encode/decode gives the property
//! tests a real invariant to check.

use crate::addr::{Ipv4Addr, MacAddr};
use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;

/// Errors produced when parsing wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the header demands.
    Truncated,
    /// An EtherType we do not model (only IPv4 is supported).
    UnsupportedEtherType(u16),
    /// An IP protocol number we do not model.
    UnsupportedProtocol(u8),
    /// IPv4 header checksum mismatch.
    BadChecksum,
    /// IPv4 version or IHL field malformed.
    Malformed,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "truncated packet"),
            ParseError::UnsupportedEtherType(t) => write!(f, "unsupported ethertype 0x{t:04x}"),
            ParseError::UnsupportedProtocol(p) => write!(f, "unsupported ip protocol {p}"),
            ParseError::BadChecksum => write!(f, "bad ipv4 header checksum"),
            ParseError::Malformed => write!(f, "malformed header"),
        }
    }
}

impl std::error::Error for ParseError {}

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

    /// Emit to wire bytes.
    pub(crate) fn emit(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype);
    }

    /// Parse from wire bytes, returning the header and bytes consumed.
    pub(crate) fn parse(data: &[u8]) -> Result<(Self, usize), ParseError> {
        if data.len() < Self::LEN {
            return Err(ParseError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]);
        Ok((EthernetHeader { dst: MacAddr(dst), src: MacAddr(src), ethertype }, Self::LEN))
    }
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

    /// Emit to wire bytes, computing the header checksum.
    pub(crate) fn emit(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(self.dscp);
        buf.put_u16(self.total_len);
        buf.put_u16(0); // identification
        buf.put_u16(0x4000); // don't fragment
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.0);
        buf.put_slice(&self.dst.0);
        let cksum = internet_checksum(&buf[start..start + Self::LEN]);
        buf[start + 10..start + 12].copy_from_slice(&cksum.to_be_bytes());
    }

    /// Parse from wire bytes, verifying the checksum.
    pub(crate) fn parse(data: &[u8]) -> Result<(Self, usize), ParseError> {
        if data.len() < Self::LEN {
            return Err(ParseError::Truncated);
        }
        if data[0] >> 4 != 4 {
            return Err(ParseError::Malformed);
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < Self::LEN || data.len() < ihl {
            return Err(ParseError::Malformed);
        }
        if internet_checksum(&data[..ihl]) != 0 {
            return Err(ParseError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        let ttl = data[8];
        let protocol = data[9];
        let mut src = [0u8; 4];
        let mut dst = [0u8; 4];
        src.copy_from_slice(&data[12..16]);
        dst.copy_from_slice(&data[16..20]);
        Ok((
            Ipv4Header {
                src: Ipv4Addr(src),
                dst: Ipv4Addr(dst),
                protocol,
                ttl,
                dscp: data[1],
                total_len,
            },
            ihl,
        ))
    }
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

    /// Emit to wire bytes. `payload_len` is needed for the UDP length field.
    pub(crate) fn emit(&self, buf: &mut BytesMut, payload_len: usize) {
        match *self {
            TransportHeader::Udp { src_port, dst_port } => {
                buf.put_u16(src_port);
                buf.put_u16(dst_port);
                buf.put_u16((8 + payload_len) as u16);
                buf.put_u16(0); // checksum unused (reliable substrate)
            }
            TransportHeader::Tcp { src_port, dst_port, seq, flags } => {
                buf.put_u16(src_port);
                buf.put_u16(dst_port);
                buf.put_u32(seq);
                buf.put_u32(0); // ack number unused
                buf.put_u8(5 << 4); // data offset 5 words
                buf.put_u8(flags.to_bits());
                buf.put_u16(0xffff); // window
                buf.put_u16(0); // checksum unused
                buf.put_u16(0); // urgent
            }
        }
    }

    /// Parse from wire bytes given the IP protocol number.
    pub(crate) fn parse(protocol: u8, data: &[u8]) -> Result<(Self, usize), ParseError> {
        match protocol {
            ip_proto::UDP => {
                if data.len() < 8 {
                    return Err(ParseError::Truncated);
                }
                Ok((
                    TransportHeader::Udp {
                        src_port: u16::from_be_bytes([data[0], data[1]]),
                        dst_port: u16::from_be_bytes([data[2], data[3]]),
                    },
                    8,
                ))
            }
            ip_proto::TCP => {
                if data.len() < 20 {
                    return Err(ParseError::Truncated);
                }
                let off = ((data[12] >> 4) as usize) * 4;
                if off < 20 || data.len() < off {
                    return Err(ParseError::Malformed);
                }
                Ok((
                    TransportHeader::Tcp {
                        src_port: u16::from_be_bytes([data[0], data[1]]),
                        dst_port: u16::from_be_bytes([data[2], data[3]]),
                        seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                        flags: TcpFlags::from_bits(data[13]),
                    },
                    off,
                ))
            }
            other => Err(ParseError::UnsupportedProtocol(other)),
        }
    }
}

/// A full packet: Ethernet + IPv4 + transport + application payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// L2 header.
    pub eth: EthernetHeader,
    /// L3 header. `total_len` is recomputed on [`Packet::to_wire`].
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

    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.eth.emit(&mut buf);
        let mut ip = self.ip;
        ip.total_len = (Ipv4Header::LEN + self.transport.wire_len() + self.payload.len()) as u16;
        ip.protocol = self.transport.protocol();
        ip.emit(&mut buf);
        self.transport.emit(&mut buf, self.payload.len());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parse from wire bytes.
    pub fn from_wire(data: &[u8]) -> Result<Packet, ParseError> {
        let (eth, n1) = EthernetHeader::parse(data)?;
        if eth.ethertype != ETHERTYPE_IPV4 {
            return Err(ParseError::UnsupportedEtherType(eth.ethertype));
        }
        let (ip, n2) = Ipv4Header::parse(&data[n1..])?;
        let (transport, n3) = TransportHeader::parse(ip.protocol, &data[n1 + n2..])?;
        let payload_start = n1 + n2 + n3;
        let payload_end = (n1 + ip.total_len as usize).min(data.len());
        let payload = Bytes::copy_from_slice(&data[payload_start..payload_end.max(payload_start)]);
        Ok(Packet { eth, ip, transport, payload })
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
/// [`PackedHeaders::unpack`] reconstructs the exact structs for the
/// trace layer and the wire codec ([`From`]/[`Into`] both ways). The
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

    /// Reconstruct the exact header structs (the trace layer and wire
    /// codec consume these).
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

impl From<PackedHeaders> for (EthernetHeader, Ipv4Header, TransportHeader) {
    fn from(p: PackedHeaders) -> Self {
        p.unpack()
    }
}

impl Packet {
    /// The packed-word view of this packet's headers.
    pub fn packed_headers(&self) -> PackedHeaders {
        PackedHeaders::from(self)
    }
}

/// RFC 1071 internet checksum over `data`.
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn udp_round_trip() {
        let p = sample_packet(b"hello iot");
        let wire = p.to_wire();
        assert_eq!(wire.len(), p.wire_len());
        let q = Packet::from_wire(&wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn tcp_round_trip() {
        let p = Packet::new(
            MacAddr::from_index(3),
            MacAddr::from_index(4),
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(192, 168, 1, 1),
            TransportHeader::tcp(43122, 443, 0xdeadbeef, TcpFlags::SYN),
            Bytes::new(),
        );
        let q = Packet::from_wire(&p.to_wire()).unwrap();
        assert_eq!(p, q);
        match q.transport {
            TransportHeader::Tcp { flags, seq, .. } => {
                assert!(flags.syn && !flags.ack);
                assert_eq!(seq, 0xdeadbeef);
            }
            _ => panic!("expected tcp"),
        }
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
        let (eth, ip, transport) = packed.into();
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

    #[test]
    fn checksum_detects_corruption() {
        let p = sample_packet(b"payload");
        let mut wire = p.to_wire().to_vec();
        // Flip a bit in the IP source address.
        wire[EthernetHeader::LEN + 12] ^= 0x01;
        assert_eq!(Packet::from_wire(&wire), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        let p = sample_packet(b"x");
        let wire = p.to_wire();
        assert_eq!(Packet::from_wire(&wire[..10]), Err(ParseError::Truncated));
        assert!(matches!(
            Packet::from_wire(&wire[..EthernetHeader::LEN + 4]),
            Err(ParseError::Truncated)
        ));
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut wire = sample_packet(b"").to_wire().to_vec();
        wire[12] = 0x86; // 0x86dd = IPv6
        wire[13] = 0xdd;
        assert_eq!(Packet::from_wire(&wire), Err(ParseError::UnsupportedEtherType(0x86dd)));
    }

    #[test]
    fn internet_checksum_known_vector() {
        // Example from RFC 1071 section 3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    proptest! {
        #[test]
        fn prop_round_trip_udp(
            sp in any::<u16>(), dp in any::<u16>(),
            src in any::<u32>(), dst in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let p = Packet::new(
                MacAddr::from_index(src & 0xffff),
                MacAddr::from_index(dst & 0xffff),
                Ipv4Addr::from_u32(src),
                Ipv4Addr::from_u32(dst),
                TransportHeader::udp(sp, dp),
                Bytes::from(payload),
            );
            let q = Packet::from_wire(&p.to_wire()).unwrap();
            prop_assert_eq!(p, q);
        }

        #[test]
        fn prop_round_trip_tcp(
            sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
            syn in any::<bool>(), ack in any::<bool>(), fin in any::<bool>(), rst in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let p = Packet::new(
                MacAddr::from_index(9),
                MacAddr::from_index(10),
                Ipv4Addr::new(10, 0, 0, 9),
                Ipv4Addr::new(10, 0, 0, 10),
                TransportHeader::tcp(sp, dp, seq, TcpFlags { syn, ack, fin, rst }),
                Bytes::from(payload),
            );
            let q = Packet::from_wire(&p.to_wire()).unwrap();
            prop_assert_eq!(p, q);
        }

        #[test]
        fn prop_checksum_of_emitted_header_is_zero(
            src in any::<u32>(), dst in any::<u32>(), ttl in 1u8..255,
        ) {
            let hdr = Ipv4Header {
                src: Ipv4Addr::from_u32(src),
                dst: Ipv4Addr::from_u32(dst),
                protocol: ip_proto::UDP,
                ttl,
                dscp: 0,
                total_len: 20,
            };
            let mut buf = BytesMut::new();
            hdr.emit(&mut buf);
            prop_assert_eq!(internet_checksum(&buf), 0);
        }
    }
}
