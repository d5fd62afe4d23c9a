//! The attacker: a network endpoint that exploits Table 1 flaws and
//! chains multi-stage, cyber-physical campaigns.
//!
//! An [`Attacker`] executes an [`AttackPlan`] — an ordered list of
//! [`AttackStep`]s — as a state machine driven by the simulation loop:
//! `poll` emits the next step's packets, `on_delivery` consumes replies,
//! and per-step [`AttackOutcome`]s accumulate as ground truth for the
//! experiments ("did the campaign succeed with defense X in place?").

use crate::device::OutMessage;
use crate::proto::{ports, AppMessage, ControlAction, ControlAuth, MgmtCommand};
use iotnet::addr::Ipv4Addr;
use iotnet::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// How a control-plane step authenticates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackAuth {
    /// No credentials (works only against `no-auth-control` devices).
    None,
    /// Explicit credentials (e.g. well-known defaults).
    Creds {
        /// Username.
        user: String,
        /// Password.
        pass: String,
    },
    /// A session token captured by an earlier successful login against
    /// the same target.
    Session,
    /// A key pair stolen earlier via `ExtractKeys` (from any device of
    /// the SKU — the paper's point about fleet-wide keys).
    StolenKey,
}

/// One step of an attack plan.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackStep {
    /// Probe a management interface (any answer counts as "present").
    Probe {
        /// Target device address.
        target: Ipv4Addr,
    },
    /// Attempt one management login.
    Login {
        /// Target device address.
        target: Ipv4Addr,
        /// Username to try.
        user: Cow<'static, str>,
        /// Password to try.
        pass: Cow<'static, str>,
    },
    /// Run a dictionary of well-known default credentials.
    DictionaryLogin {
        /// Target device address.
        target: Ipv4Addr,
    },
    /// Issue a management command (uses a captured session token if one
    /// exists for the target, else token 0 — which only wide-open
    /// interfaces accept).
    Mgmt {
        /// Target device address.
        target: Ipv4Addr,
        /// The command.
        command: MgmtCommand<'static>,
    },
    /// Send a control-plane actuation.
    Control {
        /// Target device address.
        target: Ipv4Addr,
        /// The action.
        action: ControlAction,
        /// Authentication method.
        auth: AttackAuth,
    },
    /// Send a vendor-cloud backdoor command.
    Cloud {
        /// Target device address.
        target: Ipv4Addr,
        /// The action.
        action: ControlAction,
    },
    /// Reflect DNS off an open resolver toward a victim (source-spoofed).
    DnsReflect {
        /// The open resolver to bounce off.
        reflector: Ipv4Addr,
        /// The spoofed source — where the amplified responses land.
        victim: Ipv4Addr,
        /// Number of queries to fire.
        queries: u32,
    },
    /// Wait for the physical world to evolve (e.g. for the room to heat
    /// up after cutting the AC).
    Wait {
        /// How long.
        duration: SimDuration,
    },
}

impl AttackStep {
    /// Short label for reports.
    pub(crate) fn label(&self) -> String {
        match self {
            AttackStep::Probe { target } => format!("probe {target}"),
            AttackStep::Login { target, user, .. } => format!("login {user}@{target}"),
            AttackStep::DictionaryLogin { target } => format!("dictionary-login {target}"),
            AttackStep::Mgmt { target, command } => format!("mgmt {command:?} @{target}"),
            AttackStep::Control { target, action, .. } => format!("control {action:?} @{target}"),
            AttackStep::Cloud { target, action } => format!("cloud {action:?} @{target}"),
            AttackStep::DnsReflect { reflector, victim, queries } => {
                format!("dns-reflect x{queries} via {reflector} -> {victim}")
            }
            AttackStep::Wait { duration } => format!("wait {duration}"),
        }
    }
}

/// An ordered campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// Campaign name (for reports).
    pub name: String,
    /// The steps, executed in order.
    pub steps: Vec<AttackStep>,
}

impl AttackPlan {
    /// Build a plan.
    pub fn new(name: &str, steps: Vec<AttackStep>) -> AttackPlan {
        AttackPlan { name: name.into(), steps }
    }
}

/// The recorded result of one step.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Step index in the plan.
    pub step: usize,
    /// Step label: the attacker's one copy of it, shared.
    pub label: Arc<str>,
    /// Whether the step achieved its goal.
    pub success: bool,
    /// When the outcome was decided.
    pub at: SimTime,
}

/// A message the attacker wants injected, possibly with a spoofed source
/// (DNS reflection).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackerEmit {
    /// The message.
    pub out: OutMessage,
    /// Spoofed source address, if any.
    pub spoof_src: Option<Ipv4Addr>,
}

/// The default credential dictionary (well-known IoT defaults), tried in
/// order.
const DICTIONARY: [(&str, &str); 5] = [
    ("admin", "admin"),
    ("admin", "1234"),
    ("root", "root"),
    ("admin", "password"),
    ("user", "user"),
];

/// The default credential dictionary (well-known IoT defaults).
pub fn default_dictionary() -> &'static [(&'static str, &'static str)] {
    &DICTIONARY
}

/// The login an attacker sends for dictionary entry `i`: its strings are
/// the dictionary's own, not copies.
fn dictionary_login(i: usize) -> AppMessage<'static> {
    let (user, pass) = DICTIONARY[i];
    AppMessage::MgmtLogin { user: user.into(), pass: pass.into() }
}

const REPLY_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Bottom of the ephemeral source-port range the attacker cycles through.
const FIRST_SRC_PORT: u16 = 40_000;

#[derive(Debug)]
enum AttackerState {
    Idle,
    Awaiting { deadline: SimTime, dict_idx: usize },
    Waiting { until: SimTime },
    Done,
}

/// The attacker endpoint.
#[derive(Debug)]
pub struct Attacker {
    /// The attacker's own address (on the WAN side in most scenarios).
    pub ip: Ipv4Addr,
    plan: AttackPlan,
    /// Each step's label, written out once: a label is a `format!` of
    /// the step's addresses, and a campaign that is replayed home after
    /// home would otherwise spell the same few strings every round.
    labels: Vec<Arc<str>>,
    step_idx: usize,
    state: AttackerState,
    tokens: HashMap<Ipv4Addr, u32>,
    stolen_keys: Vec<u64>,
    outcomes: Vec<AttackOutcome>,
    next_src_port: u16,
    /// Total DNS queries fired (for the DDoS accounting).
    pub dns_queries_sent: u64,
}

impl Attacker {
    /// An attacker at `ip` executing `plan` with the well-known default
    /// dictionary ([`default_dictionary`]) — its identity; the campaign's
    /// progress is written by [`Attacker::reset_runtime`].
    pub fn new(ip: Ipv4Addr, plan: AttackPlan) -> Attacker {
        let mut attacker = Attacker {
            ip,
            labels: plan.steps.iter().map(|step| step.label().into()).collect(),
            plan,
            step_idx: 0,
            state: AttackerState::Idle,
            tokens: HashMap::new(),
            stolen_keys: Vec::new(),
            outcomes: Vec::new(),
            next_src_port: 0,
            dns_queries_sent: 0,
        };
        attacker.reset_runtime();
        attacker
    }

    /// Whether the plan has finished.
    pub fn done(&self) -> bool {
        matches!(self.state, AttackerState::Done)
    }

    /// Rewind the campaign to t = 0 — step 0, idle, no tokens, keys, or
    /// outcomes, first source port — keeping the plan and source IP. The
    /// constructor ends here, so the attacker a resident world (E26)
    /// reuses across rounds is a cold-built one; whoever owns it re-seeds
    /// out-of-band keys via [`Attacker::learn_key`].
    pub fn reset_runtime(&mut self) {
        self.step_idx = 0;
        self.state = AttackerState::Idle;
        self.tokens.clear();
        self.stolen_keys.clear();
        self.outcomes.clear();
        self.next_src_port = FIRST_SRC_PORT;
        self.dns_queries_sent = 0;
    }

    /// Per-step outcomes so far.
    pub fn outcomes(&self) -> &[AttackOutcome] {
        &self.outcomes
    }

    /// A key stolen during the campaign, if any.
    pub(crate) fn stolen_key(&self) -> Option<u64> {
        self.stolen_keys.first().copied()
    }

    /// Seed a key obtained out of band — e.g. extracted offline from a
    /// publicly downloadable firmware image, which is precisely how the
    /// Table 1 row 4 CCTV keys leaked (the key is fleet-wide).
    pub fn learn_key(&mut self, key: u64) {
        self.stolen_keys.push(key);
    }

    /// A captured session token for `target`, if any.
    pub(crate) fn token_for(&self, target: Ipv4Addr) -> Option<u32> {
        self.tokens.get(&target).copied()
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_src_port;
        self.next_src_port = self.next_src_port.wrapping_add(1).max(FIRST_SRC_PORT);
        p
    }

    fn record(&mut self, now: SimTime, success: bool) {
        let label = self.labels[self.step_idx].clone();
        self.outcomes.push(AttackOutcome { step: self.step_idx, label, success, at: now });
        self.step_idx += 1;
        self.state = if self.step_idx >= self.plan.steps.len() {
            AttackerState::Done
        } else {
            AttackerState::Idle
        };
    }

    fn emit_to(&mut self, target: Ipv4Addr, msg: AppMessage<'static>) -> AttackerEmit {
        let dst_port = msg.plane_port();
        AttackerEmit {
            out: OutMessage { dst: target, dst_port, src_port: self.alloc_port(), msg },
            spoof_src: None,
        }
    }

    /// The instant from which [`Attacker::poll_into`] next does anything:
    /// a wait's end, a reply's deadline, the start of time while a step is
    /// waiting to be launched, never once the plan is over. A reply that
    /// arrives earlier reaches [`Attacker::on_delivery`] as a packet.
    pub fn next_due(&self) -> Option<SimTime> {
        match self.state {
            AttackerState::Idle => Some(SimTime::ZERO),
            AttackerState::Awaiting { deadline, .. } => Some(deadline),
            AttackerState::Waiting { until } => Some(until),
            AttackerState::Done => None,
        }
    }

    /// Drive the attacker: append the packets to inject at `now` to
    /// `out`. The buffer is the caller's and a login's strings are the
    /// plan's or the dictionary's, so a poll allocates only for what a
    /// step spells out anew (a DNS query's name).
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<AttackerEmit>) {
        match self.state {
            AttackerState::Done => {}
            AttackerState::Waiting { until } => {
                if now >= until {
                    self.record(now, true);
                }
            }
            AttackerState::Awaiting { deadline, dict_idx } => {
                if now < deadline {
                    return;
                }
                // Timed out; dictionary steps try the next entry.
                match self.plan.steps[self.step_idx] {
                    AttackStep::DictionaryLogin { target } if dict_idx + 1 < DICTIONARY.len() => {
                        out.push(self.emit_to(target, dictionary_login(dict_idx + 1)));
                        self.state = AttackerState::Awaiting {
                            deadline: now + REPLY_TIMEOUT,
                            dict_idx: dict_idx + 1,
                        };
                    }
                    _ => self.record(now, false),
                }
            }
            AttackerState::Idle => {
                let Some(step) = self.plan.steps.get(self.step_idx) else {
                    self.state = AttackerState::Done;
                    return;
                };
                let (target, msg) = match step {
                    AttackStep::Probe { target } => (
                        *target,
                        AppMessage::MgmtLogin { user: "probe".into(), pass: "probe".into() },
                    ),
                    AttackStep::Login { target, user, pass } => {
                        (*target, AppMessage::MgmtLogin { user: user.clone(), pass: pass.clone() })
                    }
                    AttackStep::DictionaryLogin { target } => (*target, dictionary_login(0)),
                    AttackStep::Mgmt { target, command } => {
                        let token = self.token_for(*target).unwrap_or(0);
                        (*target, AppMessage::MgmtCommand { token, command: command.clone() })
                    }
                    AttackStep::Control { target, action, auth } => {
                        let auth = match auth {
                            AttackAuth::None => ControlAuth::None,
                            AttackAuth::Creds { user, pass } => ControlAuth::Password {
                                user: user.clone().into(),
                                pass: pass.clone().into(),
                            },
                            AttackAuth::Session => {
                                ControlAuth::Token(self.token_for(*target).unwrap_or(0))
                            }
                            AttackAuth::StolenKey => {
                                ControlAuth::Key(self.stolen_key().unwrap_or(0))
                            }
                        };
                        (*target, AppMessage::Control { action: *action, auth })
                    }
                    AttackStep::Cloud { target, action } => {
                        (*target, AppMessage::CloudCommand { action: *action })
                    }
                    &AttackStep::DnsReflect { reflector, victim, queries } => {
                        for i in 0..queries {
                            let msg = AppMessage::DnsQuery {
                                name: format!("amp{i}.example").into(),
                                recursion: true,
                            };
                            let src_port = self.alloc_port();
                            out.push(AttackerEmit {
                                out: OutMessage {
                                    dst: reflector,
                                    dst_port: ports::DNS,
                                    src_port,
                                    msg,
                                },
                                spoof_src: Some(victim),
                            });
                        }
                        self.dns_queries_sent += queries as u64;
                        // Fire-and-forget: responses go to the victim.
                        self.record(now, true);
                        return;
                    }
                    &AttackStep::Wait { duration } => {
                        self.state = AttackerState::Waiting { until: now + duration };
                        return;
                    }
                };
                out.push(self.emit_to(target, msg));
                self.state = AttackerState::Awaiting { deadline: now + REPLY_TIMEOUT, dict_idx: 0 };
            }
        }
    }

    /// Feed a packet delivered to the attacker's endpoint.
    pub fn on_delivery(&mut self, now: SimTime, from: Ipv4Addr, msg: &AppMessage<'_>) {
        let AttackerState::Awaiting { dict_idx, .. } = self.state else {
            return;
        };
        let Some(step) = self.plan.steps.get(self.step_idx) else {
            return;
        };
        let success = match (step, msg) {
            (AttackStep::Probe { target }, _) if from == *target => true,
            (AttackStep::Login { target, .. }, AppMessage::MgmtLoginOk { token })
            | (AttackStep::DictionaryLogin { target }, AppMessage::MgmtLoginOk { token })
                if from == *target =>
            {
                self.tokens.insert(*target, *token);
                true
            }
            (AttackStep::Login { target, .. }, AppMessage::MgmtDenied) if from == *target => false,
            (AttackStep::DictionaryLogin { target }, AppMessage::MgmtDenied) if from == *target => {
                if dict_idx + 1 < DICTIONARY.len() {
                    // Try the next dictionary entry immediately: poll fires it.
                    self.state = AttackerState::Awaiting { deadline: now, dict_idx };
                    return;
                }
                false
            }
            (AttackStep::Mgmt { target, command }, AppMessage::MgmtResult { ok, data })
                if from == *target =>
            {
                if *ok && *command == MgmtCommand::ExtractKeys && data.len() >= 8 {
                    let mut k = [0u8; 8];
                    k.copy_from_slice(&data[..8]);
                    self.stolen_keys.push(u64::from_be_bytes(k));
                }
                *ok
            }
            (AttackStep::Mgmt { target, .. }, AppMessage::MgmtDenied) if from == *target => false,
            (AttackStep::Control { target, .. }, AppMessage::ControlAck { ok })
            | (AttackStep::Cloud { target, .. }, AppMessage::ControlAck { ok })
                if from == *target =>
            {
                *ok
            }
            _ => return,
        };
        self.record(now, success);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceClass, DeviceId, IoTDevice};
    use crate::env::Environment;
    use crate::registry::Sku;
    use crate::vuln::Vulnerability;

    /// Whether every step succeeded (and the plan completed).
    fn campaign_succeeded(atk: &Attacker) -> bool {
        atk.done()
            && atk.outcomes.len() == atk.plan.steps.len()
            && atk.outcomes.iter().all(|o| o.success)
    }

    /// One poll into a fresh buffer.
    fn poll(attacker: &mut Attacker, now: SimTime) -> Vec<AttackerEmit> {
        let mut out = Vec::new();
        attacker.poll_into(now, &mut out);
        out
    }

    fn drive(attacker: &mut Attacker, device: &mut IoTDevice, rounds: usize) {
        // A minimal in-memory "network": zero-latency, loss-free.
        let mut env = Environment::new();
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            let emits = poll(attacker, now);
            for e in emits {
                let src = e.spoof_src.unwrap_or(attacker.ip);
                if e.out.dst == device.ip {
                    let out = device.handle_message(
                        now,
                        src,
                        e.out.src_port,
                        e.out.dst_port,
                        e.out.msg.clone(),
                        &mut env,
                    );
                    for m in out.messages {
                        if m.dst == attacker.ip {
                            attacker.on_delivery(now, device.ip, &m.msg);
                        }
                    }
                }
            }
            now += SimDuration::from_millis(100);
            if attacker.done() {
                break;
            }
        }
    }

    fn cam_with_default_creds() -> IoTDevice {
        IoTDevice::new(
            DeviceId(0),
            Sku::new("avtech", "ip-cam", "1.3"),
            DeviceClass::Camera,
            Ipv4Addr::new(10, 0, 0, 5),
            vec![Vulnerability::default_admin_admin()],
        )
    }

    #[test]
    fn poll_before_next_due_does_nothing() {
        // A reply that never comes, then a wait: polled every 100 ms, the
        // attacker emits or records only on the first poll at or after
        // the instant `next_due` named.
        let target = Ipv4Addr::new(10, 0, 0, 5);
        let wait = AttackStep::Wait { duration: SimDuration::from_millis(750) };
        let plan = AttackPlan::new("timeouts", vec![AttackStep::Probe { target }, wait]);
        let mut atk = Attacker::new(Ipv4Addr::new(100, 64, 0, 9), plan);
        let mut now = SimTime::ZERO;
        while let Some(due) = atk.next_due() {
            now += SimDuration::from_millis(100);
            let before = (atk.outcomes().len(), format!("{:?}", atk.state));
            let emitted = !poll(&mut atk, now).is_empty();
            let moved = emitted || before != (atk.outcomes().len(), format!("{:?}", atk.state));
            assert_eq!(moved, now >= due, "at {now}: next_due said {due}");
        }
        assert!(atk.done());
        assert_eq!(atk.outcomes().len(), 2);
    }

    #[test]
    fn dictionary_login_cracks_default_creds() {
        let mut cam = cam_with_default_creds();
        let target = cam.ip;
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new(
                "crack",
                vec![
                    AttackStep::DictionaryLogin { target },
                    AttackStep::Mgmt { target, command: MgmtCommand::GetImage },
                ],
            ),
        );
        drive(&mut atk, &mut cam, 100);
        assert!(campaign_succeeded(&atk), "{:?}", atk.outcomes());
        assert!(cam.privacy_leaked);
        assert!(atk.token_for(target).is_some());
    }

    #[test]
    fn dictionary_fails_on_secure_device() {
        let mut cam = IoTDevice::new(
            DeviceId(0),
            Sku::new("secure", "cam", "9"),
            DeviceClass::Camera,
            Ipv4Addr::new(10, 0, 0, 5),
            vec![],
        );
        let target = cam.ip;
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new("crack", vec![AttackStep::DictionaryLogin { target }]),
        );
        drive(&mut atk, &mut cam, 100);
        assert!(atk.done());
        assert!(!campaign_succeeded(&atk));
        assert!(!cam.privacy_leaked);
    }

    #[test]
    fn key_theft_then_replay() {
        let key = 0x5eed_c0de_5eed_c0de;
        let mut cam = IoTDevice::new(
            DeviceId(0),
            Sku::new("cctvcorp", "dvr-cam", "4.1"),
            DeviceClass::Camera,
            Ipv4Addr::new(10, 0, 0, 6),
            vec![Vulnerability::ExposedKeyPair { key }, Vulnerability::OpenMgmtAccess],
        );
        let target = cam.ip;
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new(
                "steal-key",
                vec![
                    AttackStep::Mgmt { target, command: MgmtCommand::ExtractKeys },
                    AttackStep::Control {
                        target,
                        action: ControlAction::TurnOff,
                        auth: AttackAuth::StolenKey,
                    },
                ],
            ),
        );
        drive(&mut atk, &mut cam, 100);
        assert!(campaign_succeeded(&atk), "{:?}", atk.outcomes());
        assert_eq!(atk.stolen_key(), Some(key));
        assert!(cam.compromised);
    }

    #[test]
    fn cloud_backdoor_campaign() {
        let mut plug = IoTDevice::new(
            DeviceId(0),
            Sku::new("belkin", "wemo", "1.1"),
            DeviceClass::SmartPlug,
            Ipv4Addr::new(10, 0, 0, 7),
            vec![Vulnerability::CloudBypassBackdoor],
        );
        let target = plug.ip;
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new(
                "backdoor-off",
                vec![AttackStep::Cloud { target, action: ControlAction::TurnOff }],
            ),
        );
        drive(&mut atk, &mut plug, 100);
        assert!(campaign_succeeded(&atk));
        assert!(plug.compromised);
    }

    #[test]
    fn dns_reflect_spoofs_victim() {
        let victim = Ipv4Addr::new(203, 0, 113, 50);
        let reflector = Ipv4Addr::new(10, 0, 0, 8);
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new(
                "ddos",
                vec![AttackStep::DnsReflect { reflector, victim, queries: 25 }],
            ),
        );
        let emits = poll(&mut atk, SimTime::ZERO);
        assert_eq!(emits.len(), 25);
        assert!(emits.iter().all(|e| e.spoof_src == Some(victim)));
        assert!(emits.iter().all(|e| e.out.dst == reflector));
        assert!(atk.done());
        assert!(campaign_succeeded(&atk));
        assert_eq!(atk.dns_queries_sent, 25);
    }

    #[test]
    fn wait_step_elapses() {
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new(
                "patience",
                vec![AttackStep::Wait { duration: SimDuration::from_secs(10) }],
            ),
        );
        assert!(poll(&mut atk, SimTime::ZERO).is_empty());
        assert!(!atk.done());
        poll(&mut atk, SimTime::from_secs(5));
        assert!(!atk.done());
        poll(&mut atk, SimTime::from_secs(10));
        assert!(atk.done());
        assert!(campaign_succeeded(&atk));
    }

    #[test]
    fn unanswered_probe_times_out_as_failure() {
        let mut atk = Attacker::new(
            Ipv4Addr::new(100, 64, 0, 9),
            AttackPlan::new(
                "probe-the-void",
                vec![AttackStep::Probe { target: Ipv4Addr::new(10, 0, 0, 99) }],
            ),
        );
        poll(&mut atk, SimTime::ZERO);
        poll(&mut atk, SimTime::from_secs(5)); // past the timeout
        assert!(atk.done());
        assert!(!campaign_succeeded(&atk));
        assert!(!atk.outcomes()[0].success);
    }
}
