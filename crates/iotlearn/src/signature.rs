//! Attack signatures and their common exchange format.
//!
//! The paper's repository needs "traces or signatures, expressed in a
//! common format". A signature is SKU-scoped (the granularity §4 argues
//! honeypots cannot cover) and carries an executable [`Matcher`] the IDS
//! µmbox evaluates against wire packets. Signatures serialize to JSON via
//! [`AttackSignature::to_json`]/[`AttackSignature::from_json`] — that is
//! the wire format of the repository.

use iotdev::proto::{ports, tag, AppMessage, ControlAuth};
use iotdev::registry::Sku;
use iotnet::packet::{PackedHeaders, Packet};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;

/// How bad a match is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Reconnaissance / policy-relevant but not directly harmful.
    Low,
    /// Credential abuse, data exposure.
    Medium,
    /// Actuation or takeover.
    High,
}

/// An executable packet predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
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
    /// most once however many signatures its prefilters admit. The cell
    /// must be fresh for each packet.
    pub fn matches_decoded(&self, pkt: &Packet, decoded: &OnceCell<Option<AppMessage>>) -> bool {
        let msg = || decoded.get_or_init(|| AppMessage::decode(&pkt.payload).ok()).as_ref();
        match self {
            Matcher::DefaultCredLogin { user, pass } => matches!(
                msg(),
                Some(AppMessage::MgmtLogin { user: u, pass: p }) if u == user && p == pass
            ),
            Matcher::MgmtFromExternal => {
                pkt.transport.dst_port() == ports::MGMT && !pkt.ip.src.is_private()
            }
            Matcher::KeyAuthControl { key } => matches!(
                msg(),
                Some(AppMessage::Control { auth: ControlAuth::Key(k), .. }) if k == key
            ),
            Matcher::UnauthenticatedControl => {
                matches!(msg(), Some(AppMessage::Control { auth: ControlAuth::None, .. }))
            }
            Matcher::CloudCommand => matches!(msg(), Some(AppMessage::CloudCommand { .. })),
            Matcher::RecursiveDnsFromExternal => {
                !pkt.ip.src.is_private()
                    && matches!(msg(), Some(AppMessage::DnsQuery { recursion: true, .. }))
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
    /// paying for a full [`AppMessage`] decode. See [`Prefilter`].
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
/// Soundness rests on the wire format: [`AppMessage::encode`] writes the
/// variant's tag byte first, so a successful decode to variant `V` implies
/// `payload[0] == tag(V)`. A prefilter may therefore *admit* packets the
/// full matcher rejects (it is a screen, not a decision), but it never
/// rejects a packet the matcher would flag — the IDS still runs the full
/// matcher on admitted packets, keeping counters and security events
/// byte-identical to an unscreened run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefilter {
    /// Payload must start with this [`AppMessage`] wire tag.
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
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

    /// Serialize to the repository's JSON wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str(&format!("{{\"id\":{},\"sku\":{{", self.id));
        out.push_str(&format!(
            "\"vendor\":{},\"model\":{},\"firmware\":{}",
            json::string(&self.sku.vendor),
            json::string(&self.sku.model),
            json::string(&self.sku.firmware)
        ));
        out.push_str(&format!("}},\"vuln_id\":{},\"matcher\":", json::string(&self.vuln_id)));
        match &self.matcher {
            Matcher::DefaultCredLogin { user, pass } => out.push_str(&format!(
                "{{\"kind\":\"DefaultCredLogin\",\"user\":{},\"pass\":{}}}",
                json::string(user),
                json::string(pass)
            )),
            Matcher::MgmtFromExternal => out.push_str("{\"kind\":\"MgmtFromExternal\"}"),
            Matcher::KeyAuthControl { key } => {
                out.push_str(&format!("{{\"kind\":\"KeyAuthControl\",\"key\":{key}}}"))
            }
            Matcher::UnauthenticatedControl => {
                out.push_str("{\"kind\":\"UnauthenticatedControl\"}")
            }
            Matcher::CloudCommand => out.push_str("{\"kind\":\"CloudCommand\"}"),
            Matcher::RecursiveDnsFromExternal => {
                out.push_str("{\"kind\":\"RecursiveDnsFromExternal\"}")
            }
            Matcher::PayloadContains(needle) => {
                let bytes: Vec<String> = needle.iter().map(|b| b.to_string()).collect();
                out.push_str(&format!(
                    "{{\"kind\":\"PayloadContains\",\"needle\":[{}]}}",
                    bytes.join(",")
                ));
            }
            Matcher::MatchAll => out.push_str("{\"kind\":\"MatchAll\"}"),
        }
        let sev = match self.severity {
            Severity::Low => "Low",
            Severity::Medium => "Medium",
            Severity::High => "High",
        };
        out.push_str(&format!(",\"severity\":\"{sev}\"}}"));
        out
    }

    /// Parse the repository's JSON wire format.
    pub fn from_json(text: &str) -> Result<AttackSignature, String> {
        json::parse_signature(text)
    }
}

/// Minimal JSON writer/parser for the signature wire format. serde here is
/// a compile-only marker shim (crates/shims/README.md), so the one format
/// the repository actually exchanges is hand-rolled and schema-specific.
mod json {
    use super::{AttackSignature, Matcher, Severity};
    use iotdev::registry::Sku;

    /// Escape and quote a string.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl<'a> Parser<'a> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.i < self.s.len() && self.s[self.i] == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.ws();
            self.s.get(self.i).copied()
        }

        fn str_val(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let b = *self.s.get(self.i).ok_or("unterminated string")?;
                self.i += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.s.get(self.i).ok_or("bad escape")?;
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex =
                                    self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                                self.i += 4;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            }
                            _ => return Err("unknown escape".into()),
                        }
                    }
                    b => {
                        // Re-assemble multi-byte UTF-8 sequences.
                        let len = match b {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let start = self.i - 1;
                        self.i = start + len;
                        let chunk = self.s.get(start..self.i).ok_or("truncated utf8")?;
                        out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    }
                }
            }
        }

        fn u64_val(&mut self) -> Result<u64, String> {
            self.ws();
            let start = self.i;
            while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
                self.i += 1;
            }
            if start == self.i {
                return Err(format!("expected number at byte {start}"));
            }
            std::str::from_utf8(&self.s[start..self.i])
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())
        }

        /// Iterate `key: value` pairs of an object, dispatching on key.
        fn object(
            &mut self,
            mut field: impl FnMut(&mut Parser<'a>, &str) -> Result<(), String>,
        ) -> Result<(), String> {
            self.eat(b'{')?;
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                let key = self.str_val()?;
                self.eat(b':')?;
                field(self, &key)?;
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }
    }

    fn sku(p: &mut Parser<'_>) -> Result<Sku, String> {
        let (mut vendor, mut model, mut firmware) = (None, None, None);
        p.object(|p, key| {
            let v = p.str_val()?;
            match key {
                "vendor" => vendor = Some(v),
                "model" => model = Some(v),
                "firmware" => firmware = Some(v),
                _ => return Err(format!("unknown sku field {key:?}")),
            }
            Ok(())
        })?;
        Ok(Sku {
            vendor: vendor.ok_or("sku missing vendor")?,
            model: model.ok_or("sku missing model")?,
            firmware: firmware.ok_or("sku missing firmware")?,
        })
    }

    fn matcher(p: &mut Parser<'_>) -> Result<Matcher, String> {
        let mut kind = None;
        let (mut user, mut pass, mut key, mut needle) = (None, None, None, None);
        p.object(|p, field| {
            match field {
                "kind" => kind = Some(p.str_val()?),
                "user" => user = Some(p.str_val()?),
                "pass" => pass = Some(p.str_val()?),
                "key" => key = Some(p.u64_val()?),
                "needle" => {
                    let mut bytes = Vec::new();
                    p.eat(b'[')?;
                    if p.peek() == Some(b']') {
                        p.i += 1;
                    } else {
                        loop {
                            let b = p.u64_val()?;
                            bytes.push(u8::try_from(b).map_err(|e| e.to_string())?);
                            match p.peek() {
                                Some(b',') => p.i += 1,
                                Some(b']') => {
                                    p.i += 1;
                                    break;
                                }
                                _ => return Err("bad needle array".into()),
                            }
                        }
                    }
                    needle = Some(bytes);
                }
                _ => return Err(format!("unknown matcher field {field:?}")),
            }
            Ok(())
        })?;
        match kind.as_deref().ok_or("matcher missing kind")? {
            "DefaultCredLogin" => Ok(Matcher::DefaultCredLogin {
                user: user.ok_or("DefaultCredLogin missing user")?,
                pass: pass.ok_or("DefaultCredLogin missing pass")?,
            }),
            "MgmtFromExternal" => Ok(Matcher::MgmtFromExternal),
            "KeyAuthControl" => {
                Ok(Matcher::KeyAuthControl { key: key.ok_or("KeyAuthControl missing key")? })
            }
            "UnauthenticatedControl" => Ok(Matcher::UnauthenticatedControl),
            "CloudCommand" => Ok(Matcher::CloudCommand),
            "RecursiveDnsFromExternal" => Ok(Matcher::RecursiveDnsFromExternal),
            "PayloadContains" => {
                Ok(Matcher::PayloadContains(needle.ok_or("PayloadContains missing needle")?))
            }
            "MatchAll" => Ok(Matcher::MatchAll),
            other => Err(format!("unknown matcher kind {other:?}")),
        }
    }

    pub fn parse_signature(text: &str) -> Result<AttackSignature, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let (mut id, mut sig_sku, mut vuln_id, mut m, mut severity) =
            (None, None, None, None, None);
        p.object(|p, field| {
            match field {
                "id" => id = Some(p.u64_val()?),
                "sku" => sig_sku = Some(sku(p)?),
                "vuln_id" => vuln_id = Some(p.str_val()?),
                "matcher" => m = Some(matcher(p)?),
                "severity" => {
                    severity = Some(match p.str_val()?.as_str() {
                        "Low" => Severity::Low,
                        "Medium" => Severity::Medium,
                        "High" => Severity::High,
                        other => return Err(format!("unknown severity {other:?}")),
                    })
                }
                _ => return Err(format!("unknown signature field {field:?}")),
            }
            Ok(())
        })?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(AttackSignature {
            id: id.ok_or("signature missing id")?,
            sku: sig_sku.ok_or("signature missing sku")?,
            vuln_id: vuln_id.ok_or("signature missing vuln_id")?,
            matcher: m.ok_or("signature missing matcher")?,
            severity: severity.ok_or("signature missing severity")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::proto::ControlAction;
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

    #[test]
    fn signatures_serialize_to_the_common_format() {
        let sku = Sku::new("belkin", "wemo", "1.0");
        for row in 1..=7 {
            let sig = AttackSignature::for_table1_row(row, &sku).unwrap();
            let json = sig.to_json();
            let back = AttackSignature::from_json(&json).unwrap();
            assert_eq!(sig, back, "row {row}: {json}");
        }
        // Escapes and raw payload bytes survive the trip too.
        let tricky = AttackSignature::new(
            Sku::new("acme \"iot\"", "λ-hub", "2.0\n"),
            "payload\\path",
            Matcher::PayloadContains(vec![0, 34, 92, 255]),
            Severity::Low,
        );
        assert_eq!(AttackSignature::from_json(&tricky.to_json()).unwrap(), tricky);
        assert!(AttackSignature::from_json("{\"id\":1}").is_err());
    }
}
