//! Attack signatures in their common format.
//!
//! The paper's repository needs "traces or signatures, expressed in a
//! common format". A signature is SKU-scoped (the granularity §4 argues
//! honeypots cannot cover) and carries an executable [`Matcher`] the IDS
//! µmbox evaluates against wire packets.

use iotdev::proto::{ports, tag, AuthRef, MessageRef};
use iotdev::registry::Sku;
use iotnet::packet::{PackedHeaders, Packet};
use std::cell::OnceCell;

/// How bad a match is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reconnaissance / policy-relevant but not directly harmful.
    Low,
    /// Credential abuse, data exposure.
    Medium,
    /// Actuation or takeover.
    High,
}

/// An executable packet predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Matcher {
    /// A management login using specific (default) credentials.
    DefaultCredLogin {
        /// Username.
        user: String,
        /// Password.
        pass: String,
    },
    /// Any management-plane packet from outside RFC1918 space (exposed
    /// management interfaces are LAN services; WAN access is the attack).
    MgmtFromExternal,
    /// A control request authenticated by a known-leaked key.
    KeyAuthControl {
        /// The leaked key fingerprint.
        key: u64,
    },
    /// A control request with no authentication at all.
    UnauthenticatedControl,
    /// Any vendor-cloud command (the backdoor plane).
    CloudCommand,
    /// A recursive DNS query arriving from outside the LAN (reflection).
    RecursiveDnsFromExternal,
    /// Raw payload substring (the classic Snort-style content match).
    PayloadContains(
        /// The byte needle.
        Vec<u8>,
    ),
    /// Matches everything — only ever produced by malicious or broken
    /// reporters; the repository's data-quality defenses exist to keep
    /// this out (a published match-all signature is a denial of service).
    MatchAll,
}

impl Matcher {
    /// Evaluate against a wire packet.
    pub fn matches(&self, pkt: &Packet) -> bool {
        self.matches_decoded(pkt, &OnceCell::new())
    }

    /// [`Matcher::matches`] for a caller that runs several matchers over
    /// one packet: `decoded` holds the packet's payload decode from the
    /// first matcher that needs it on, so the IDS decodes a packet at
    /// most once however many signatures its prefilters admit. The decode
    /// borrows the payload, so it copies no string. The cell must be fresh
    /// for each packet.
    pub fn matches_decoded<'p>(
        &self,
        pkt: &'p Packet,
        decoded: &OnceCell<Option<MessageRef<'p>>>,
    ) -> bool {
        let msg = || *decoded.get_or_init(|| MessageRef::decode(&pkt.payload).ok());
        match self {
            Matcher::DefaultCredLogin { user, pass } => matches!(
                msg(),
                Some(MessageRef::MgmtLogin { user: u, pass: p }) if u == user && p == pass
            ),
            Matcher::MgmtFromExternal => {
                pkt.transport.dst_port() == ports::MGMT && !pkt.ip.src.is_private()
            }
            Matcher::KeyAuthControl { key } => matches!(
                msg(),
                Some(MessageRef::Control { auth: AuthRef::Key(k), .. }) if k == *key
            ),
            Matcher::UnauthenticatedControl => {
                matches!(msg(), Some(MessageRef::Control { auth: AuthRef::None, .. }))
            }
            Matcher::CloudCommand => matches!(msg(), Some(MessageRef::CloudCommand { .. })),
            Matcher::RecursiveDnsFromExternal => {
                !pkt.ip.src.is_private()
                    && matches!(msg(), Some(MessageRef::DnsQuery { recursion: true, .. }))
            }
            Matcher::PayloadContains(needle) => {
                !needle.is_empty() && pkt.payload.windows(needle.len()).any(|w| w == &needle[..])
            }
            Matcher::MatchAll => true,
        }
    }

    /// Whether this matcher is plausibly selective (used as a cheap
    /// static screen by the repository: match-all and empty-needle
    /// matchers are flagged before any voting happens).
    pub fn is_selective(&self) -> bool {
        match self {
            Matcher::MatchAll => false,
            Matcher::PayloadContains(needle) => !needle.is_empty(),
            _ => true,
        }
    }

    /// The cheapest necessary condition for this matcher — the IDS runs it
    /// against the packed header words and the first payload byte before
    /// paying for a [`MessageRef`] decode. See [`Prefilter`].
    pub fn prefilter(&self) -> Prefilter {
        match self {
            Matcher::DefaultCredLogin { .. } => Prefilter::Tag(tag::MGMT_LOGIN),
            Matcher::MgmtFromExternal => Prefilter::MgmtExternal,
            Matcher::KeyAuthControl { .. } => Prefilter::Tag(tag::CONTROL),
            Matcher::UnauthenticatedControl => Prefilter::Tag(tag::CONTROL),
            Matcher::CloudCommand => Prefilter::Tag(tag::CLOUD_COMMAND),
            Matcher::RecursiveDnsFromExternal => Prefilter::TagAndExternalSrc(tag::DNS_QUERY),
            Matcher::PayloadContains(_) | Matcher::MatchAll => Prefilter::Always,
        }
    }
}

/// A constant-time *necessary* condition for [`Matcher::matches`], checked
/// against the packed header words ([`PackedHeaders`]) and the first
/// payload byte — no decode, no allocation.
///
/// Soundness rests on the wire format: every encoded message starts with
/// its variant's tag byte ([`tag`]), so a successful decode to variant `V` implies
/// `payload[0] == tag(V)`. A prefilter may therefore *admit* packets the
/// full matcher rejects (it is a screen, not a decision), but it never
/// rejects a packet the matcher would flag — the IDS still runs the full
/// matcher on admitted packets, keeping counters and security events
/// byte-identical to an unscreened run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefilter {
    /// Payload must start with this message wire tag ([`tag`]).
    Tag(u8),
    /// Wire tag plus a non-RFC1918 source address.
    TagAndExternalSrc(u8),
    /// Management-port destination and a non-RFC1918 source (the matcher
    /// never decodes, so neither does the screen).
    MgmtExternal,
    /// No cheap screen exists — always run the full matcher.
    Always,
}

impl Prefilter {
    /// Whether the packet survives the screen and the full matcher must run.
    #[inline]
    pub fn admits(&self, headers: &PackedHeaders, payload: &[u8]) -> bool {
        match *self {
            Prefilter::Tag(t) => payload.first() == Some(&t),
            Prefilter::TagAndExternalSrc(t) => {
                payload.first() == Some(&t) && !headers.ip_src().is_private()
            }
            Prefilter::MgmtExternal => {
                headers.dst_port() == ports::MGMT && !headers.ip_src().is_private()
            }
            Prefilter::Always => true,
        }
    }
}

/// A SKU-scoped attack signature — the unit the repository exchanges.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AttackSignature {
    /// Repository-assigned id (0 until published).
    pub id: u64,
    /// The SKU it applies to.
    pub sku: Sku,
    /// The vulnerability class it flags (`Vulnerability::id` string).
    pub vuln_id: String,
    /// The executable matcher.
    pub matcher: Matcher,
    /// Severity of a match.
    pub severity: Severity,
}

impl AttackSignature {
    /// Construct an (unpublished) signature.
    pub fn new(sku: Sku, vuln_id: &str, matcher: Matcher, severity: Severity) -> AttackSignature {
        AttackSignature { id: 0, sku, vuln_id: vuln_id.into(), matcher, severity }
    }

    /// The canonical signature set for one of the seven Table 1 rows —
    /// what an honest deployment that observed the exploit would publish.
    pub fn for_table1_row(row: u8, sku: &Sku) -> Option<AttackSignature> {
        let sig = match row {
            1 => AttackSignature::new(
                sku.clone(),
                "default-credentials",
                Matcher::DefaultCredLogin { user: "admin".into(), pass: "admin".into() },
                Severity::Medium,
            ),
            2 | 3 => AttackSignature::new(
                sku.clone(),
                "open-mgmt-access",
                Matcher::MgmtFromExternal,
                Severity::Medium,
            ),
            4 => AttackSignature::new(
                sku.clone(),
                "exposed-key-pair",
                Matcher::KeyAuthControl { key: 0x5eed_c0de_5eed_c0de },
                Severity::High,
            ),
            5 => AttackSignature::new(
                sku.clone(),
                "no-auth-control",
                Matcher::UnauthenticatedControl,
                Severity::High,
            ),
            6 => AttackSignature::new(
                sku.clone(),
                "open-dns-resolver",
                Matcher::RecursiveDnsFromExternal,
                Severity::Medium,
            ),
            7 => AttackSignature::new(
                sku.clone(),
                "cloud-bypass-backdoor",
                Matcher::CloudCommand,
                Severity::High,
            ),
            _ => return None,
        };
        Some(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::proto::{AppMessage, ControlAction, ControlAuth};
    use iotnet::addr::{Ipv4Addr, MacAddr};
    use iotnet::packet::TransportHeader;

    fn pkt_with(src: Ipv4Addr, dst_port: u16, msg: &AppMessage) -> Packet {
        Packet::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            src,
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(4000, dst_port),
            msg.encode(),
        )
    }

    const LAN: Ipv4Addr = Ipv4Addr([10, 0, 0, 9]);
    const WAN: Ipv4Addr = Ipv4Addr([100, 64, 0, 9]);

    #[test]
    fn default_cred_matcher() {
        let m = Matcher::DefaultCredLogin { user: "admin".into(), pass: "admin".into() };
        let hit = pkt_with(
            WAN,
            ports::MGMT,
            &AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() },
        );
        let miss = pkt_with(
            WAN,
            ports::MGMT,
            &AppMessage::MgmtLogin { user: "owner".into(), pass: "x".into() },
        );
        assert!(m.matches(&hit));
        assert!(!m.matches(&miss));
    }

    #[test]
    fn mgmt_from_external_only_flags_wan() {
        let m = Matcher::MgmtFromExternal;
        let msg = AppMessage::MgmtLogin { user: "a".into(), pass: "b".into() };
        assert!(m.matches(&pkt_with(WAN, ports::MGMT, &msg)));
        assert!(!m.matches(&pkt_with(LAN, ports::MGMT, &msg)));
        // Non-mgmt plane from WAN: not this matcher's business.
        assert!(!m.matches(&pkt_with(WAN, ports::CONTROL, &msg)));
    }

    #[test]
    fn key_and_unauth_control_matchers() {
        let key = Matcher::KeyAuthControl { key: 42 };
        let unauth = Matcher::UnauthenticatedControl;
        let with_key = pkt_with(
            WAN,
            ports::CONTROL,
            &AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::Key(42) },
        );
        let with_none = pkt_with(
            WAN,
            ports::CONTROL,
            &AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::None },
        );
        assert!(key.matches(&with_key));
        assert!(!key.matches(&with_none));
        assert!(unauth.matches(&with_none));
        assert!(!unauth.matches(&with_key));
    }

    #[test]
    fn dns_matcher_requires_external_and_recursion() {
        let m = Matcher::RecursiveDnsFromExternal;
        let q = AppMessage::DnsQuery { name: "x.example".into(), recursion: true };
        let q_no_rec = AppMessage::DnsQuery { name: "x.example".into(), recursion: false };
        assert!(m.matches(&pkt_with(WAN, ports::DNS, &q)));
        assert!(!m.matches(&pkt_with(LAN, ports::DNS, &q)));
        assert!(!m.matches(&pkt_with(WAN, ports::DNS, &q_no_rec)));
    }

    #[test]
    fn payload_contains_and_selectivity() {
        let m = Matcher::PayloadContains(b"admin".to_vec());
        let hit = pkt_with(
            WAN,
            ports::MGMT,
            &AppMessage::MgmtLogin { user: "admin".into(), pass: "x".into() },
        );
        assert!(m.matches(&hit));
        assert!(m.is_selective());
        assert!(!Matcher::MatchAll.is_selective());
        assert!(!Matcher::PayloadContains(vec![]).is_selective());
        assert!(!Matcher::PayloadContains(vec![]).matches(&hit));
        assert!(Matcher::MatchAll.matches(&hit));
    }

    #[test]
    fn prefilter_admits_whenever_matcher_fires() {
        // The screen is a necessary condition: over every matcher × a
        // battery of packets (hits and misses alike), matches ⇒ admits.
        let matchers = vec![
            Matcher::DefaultCredLogin { user: "admin".into(), pass: "admin".into() },
            Matcher::MgmtFromExternal,
            Matcher::KeyAuthControl { key: 42 },
            Matcher::UnauthenticatedControl,
            Matcher::CloudCommand,
            Matcher::RecursiveDnsFromExternal,
            Matcher::PayloadContains(b"admin".to_vec()),
            Matcher::MatchAll,
        ];
        let msgs = vec![
            AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() },
            AppMessage::MgmtLogin { user: "owner".into(), pass: "x".into() },
            AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::Key(42) },
            AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::None },
            AppMessage::CloudCommand { action: ControlAction::Open },
            AppMessage::DnsQuery { name: "x.example".into(), recursion: true },
            AppMessage::DnsQuery { name: "x.example".into(), recursion: false },
            AppMessage::Telemetry { kind: iotdev::proto::TelemetryKind::Power, value: 2.0 },
        ];
        let mut packets = Vec::new();
        for msg in &msgs {
            for src in [LAN, WAN] {
                for port in [ports::MGMT, ports::CONTROL, ports::DNS, ports::CLOUD] {
                    packets.push(pkt_with(src, port, msg));
                }
            }
        }
        // Undecodable payloads exercise the same implication trivially.
        let mut garbled = pkt_with(WAN, ports::MGMT, &msgs[0]);
        garbled.payload = bytes::Bytes::from_static(b"\xff junk");
        packets.push(garbled);
        let mut fired = 0;
        for m in &matchers {
            let pf = m.prefilter();
            for p in &packets {
                if m.matches(p) {
                    fired += 1;
                    assert!(
                        pf.admits(&p.packed_headers(), &p.payload),
                        "{m:?} matched a packet its prefilter rejected"
                    );
                }
            }
        }
        assert!(fired > 10, "battery too weak: only {fired} matcher hits");
    }

    #[test]
    fn table1_signature_set_is_complete() {
        let sku = Sku::new("v", "m", "1");
        for row in 1..=7 {
            let sig = AttackSignature::for_table1_row(row, &sku).unwrap();
            assert!(sig.matcher.is_selective(), "row {row}");
        }
        assert!(AttackSignature::for_table1_row(8, &sku).is_none());
    }
}
