//! Signature mining: from captured attack traffic to a publishable
//! signature.
//!
//! §4.1 says users "could publish traces or signatures". Publishing raw
//! traces leaks private data (the paper's privacy concern), so the
//! practical pipeline is: capture the attack window locally, *mine* a
//! selective matcher from it, publish only the matcher. This module is
//! that miner. It recognizes the behavioural fingerprints of the Table 1
//! exploit classes in wire traffic and emits the corresponding
//! [`Matcher`] — the concrete realization of "traces, expressed in a
//! common format".

use crate::signature::{AttackSignature, Matcher, Severity};
use iotdev::proto::{ports, AppMessage, ControlAuth};
use iotdev::registry::Sku;
use iotnet::packet::Packet;
use std::collections::{BTreeMap, BTreeSet};

/// How many distinct external sources must exhibit a pattern before the
/// miner treats a *login* as a credential-stuffing signature rather than
/// a fat-fingered owner. Single-shot control/cloud/DNS abuse is mined
/// immediately — one unauthenticated actuation is already an attack.
const LOGIN_SOURCES_THRESHOLD: usize = 1;

/// Mine signatures from a captured attack window.
///
/// The miner is deliberately conservative: it only emits matchers that
/// are selective by construction (never a match-all), and it
/// deduplicates. The capture should cover the attack window — in the
/// platform this is the mirror tap's contents or the switch capture
/// buffer.
pub fn mine_signatures(capture: &[Packet], sku: &Sku) -> Vec<AttackSignature> {
    let mut out: Vec<AttackSignature> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut push = |sig: AttackSignature| {
        let key = format!("{:?}", sig.matcher);
        if seen.insert(key) {
            out.push(sig);
        }
    };

    // Credential-guessing: the same (user, pass) tried from external
    // sources. Mined as a DefaultCredLogin matcher for the *successful*
    // credentials if any login from an external source got an OK — the
    // burned-in default. Otherwise, repeated denials from one source are
    // brute-force, which the proxy/challenger handles without needing a
    // signature.
    let mut login_attempts: BTreeMap<(String, String), BTreeSet<[u8; 4]>> = BTreeMap::new();
    for pkt in capture {
        let Ok(msg) = AppMessage::decode(&pkt.payload) else { continue };
        let external = !pkt.ip.src.is_private();
        match msg {
            AppMessage::MgmtLogin { user, pass } if external => {
                let key = (user.into_owned(), pass.into_owned());
                login_attempts.entry(key).or_default().insert(pkt.ip.src.0);
            }
            AppMessage::Control { auth, .. } if external => match auth {
                ControlAuth::None => push(AttackSignature::new(
                    sku.clone(),
                    "no-auth-control",
                    Matcher::UnauthenticatedControl,
                    Severity::High,
                )),
                ControlAuth::Key(key) => push(AttackSignature::new(
                    sku.clone(),
                    "exposed-key-pair",
                    Matcher::KeyAuthControl { key },
                    Severity::High,
                )),
                _ => {}
            },
            AppMessage::CloudCommand { .. } if external => push(AttackSignature::new(
                sku.clone(),
                "cloud-bypass-backdoor",
                Matcher::CloudCommand,
                Severity::High,
            )),
            AppMessage::DnsQuery { recursion: true, .. } if external => {
                push(AttackSignature::new(
                    sku.clone(),
                    "open-dns-resolver",
                    Matcher::RecursiveDnsFromExternal,
                    Severity::Medium,
                ));
            }
            // Management *commands* from external sources indicate an
            // exposed management interface.
            AppMessage::MgmtCommand { .. }
                if external && pkt.transport.dst_port() == ports::MGMT =>
            {
                push(AttackSignature::new(
                    sku.clone(),
                    "open-mgmt-access",
                    Matcher::MgmtFromExternal,
                    Severity::Medium,
                ));
            }
            _ => {}
        }
    }
    for ((user, pass), sources) in login_attempts {
        if sources.len() >= LOGIN_SOURCES_THRESHOLD && is_well_known_default(&user, &pass) {
            push(AttackSignature::new(
                sku.clone(),
                "default-credentials",
                Matcher::DefaultCredLogin { user, pass },
                Severity::Medium,
            ));
        }
    }
    out
}

/// The well-known default dictionary the miner recognizes (mirrors the
/// attacker's [`iotdev::attacker::default_dictionary`] — defenders read
/// the same breach reports).
fn is_well_known_default(user: &str, pass: &str) -> bool {
    iotdev::attacker::default_dictionary().iter().any(|&(u, p)| u == user && p == pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::proto::ControlAction;
    use iotnet::addr::{Ipv4Addr, MacAddr};
    use iotnet::packet::TransportHeader;

    const WAN: Ipv4Addr = Ipv4Addr([100, 64, 0, 9]);
    const LAN: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);

    fn pkt(src: Ipv4Addr, dst_port: u16, msg: &AppMessage) -> Packet {
        Packet::new(
            MacAddr::from_index(9),
            MacAddr::from_index(1),
            src,
            Ipv4Addr::new(10, 0, 0, 5),
            TransportHeader::udp(4000, dst_port),
            msg.encode(),
        )
    }

    fn sku() -> Sku {
        Sku::new("avtech", "ip-cam", "1.3")
    }

    #[test]
    fn mines_default_cred_attack() {
        let capture = vec![
            pkt(
                WAN,
                ports::MGMT,
                &AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() },
            ),
            pkt(
                WAN,
                ports::MGMT,
                &AppMessage::MgmtLogin { user: "admin".into(), pass: "1234".into() },
            ),
        ];
        let sigs = mine_signatures(&capture, &sku());
        assert!(sigs.iter().any(|s| matches!(
            &s.matcher,
            Matcher::DefaultCredLogin { user, pass } if user == "admin" && pass == "admin"
        )));
        // Every mined matcher is selective.
        assert!(sigs.iter().all(|s| s.matcher.is_selective()));
    }

    #[test]
    fn owner_typo_is_not_mined() {
        // An owner's unusual password from the LAN never becomes a
        // signature (privacy: credentials only mined when they are
        // well-known defaults tried from outside).
        let capture = vec![pkt(
            LAN,
            ports::MGMT,
            &AppMessage::MgmtLogin { user: "owner".into(), pass: "S3cure!pass".into() },
        )];
        assert!(mine_signatures(&capture, &sku()).is_empty());
        let capture = vec![pkt(
            WAN,
            ports::MGMT,
            &AppMessage::MgmtLogin { user: "owner".into(), pass: "weird-guess".into() },
        )];
        assert!(mine_signatures(&capture, &sku()).is_empty());
    }

    #[test]
    fn mines_each_exploit_class() {
        let capture = vec![
            pkt(
                WAN,
                ports::CONTROL,
                &AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::None },
            ),
            pkt(
                WAN,
                ports::CONTROL,
                &AppMessage::Control {
                    action: ControlAction::Open,
                    auth: ControlAuth::Key(0xBEEF),
                },
            ),
            pkt(WAN, ports::CLOUD, &AppMessage::CloudCommand { action: ControlAction::TurnOff }),
            pkt(
                WAN,
                ports::DNS,
                &AppMessage::DnsQuery { name: "amp.example".into(), recursion: true },
            ),
            pkt(
                WAN,
                ports::MGMT,
                &AppMessage::MgmtCommand {
                    token: 0,
                    command: iotdev::proto::MgmtCommand::GetConfig,
                },
            ),
        ];
        let sigs = mine_signatures(&capture, &sku());
        let ids: BTreeSet<&str> = sigs.iter().map(|s| s.vuln_id.as_str()).collect();
        for expected in [
            "no-auth-control",
            "exposed-key-pair",
            "cloud-bypass-backdoor",
            "open-dns-resolver",
            "open-mgmt-access",
        ] {
            assert!(ids.contains(expected), "missing {expected}: {ids:?}");
        }
    }

    #[test]
    fn lan_traffic_mines_nothing() {
        let capture = vec![
            pkt(
                LAN,
                ports::CONTROL,
                &AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::None },
            ),
            pkt(LAN, ports::CLOUD, &AppMessage::CloudCommand { action: ControlAction::TurnOff }),
        ];
        assert!(mine_signatures(&capture, &sku()).is_empty());
    }

    #[test]
    fn mined_signatures_are_deduplicated() {
        let capture: Vec<Packet> = (0..50)
            .map(|_| {
                pkt(WAN, ports::CLOUD, &AppMessage::CloudCommand { action: ControlAction::TurnOff })
            })
            .collect();
        assert_eq!(mine_signatures(&capture, &sku()).len(), 1);
    }

    #[test]
    fn mined_signature_matches_the_traffic_it_came_from() {
        let attack =
            pkt(WAN, ports::CLOUD, &AppMessage::CloudCommand { action: ControlAction::TurnOff });
        let sigs = mine_signatures(std::slice::from_ref(&attack), &sku());
        assert!(sigs[0].matcher.matches(&attack), "mined matcher must match its own evidence");
    }
}
