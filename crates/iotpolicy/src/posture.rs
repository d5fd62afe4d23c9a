//! Security postures.
//!
//! A posture is the paper's `Posture(Sₖ, Dᵢ)`: the set of security
//! modules a device's traffic must traverse in a given system state,
//! plus blocking decisions. The `umbox` crate realizes each module as a
//! micro-middlebox; the controller diffs posture vectors between states
//! to decide what to (re)deploy.

use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::proto::ports;
use serde::Serialize;
use smallvec::SmallVec;
use std::collections::BTreeMap;

/// Classes of messages a posture can block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum BlockClass {
    /// Block everything to/from the device.
    All,
    /// Block control-plane actuation ("open"/"on"/... commands).
    Actuation,
    /// Block a specific actuation verb class: open/unlock style.
    OpenVerbs,
    /// Block power-on commands.
    OnVerbs,
    /// Block the vendor-cloud channel.
    Cloud,
    /// Block outbound DNS responses (the reflection mitigation).
    DnsResponses,
}

/// A security module in a device's posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum SecurityModule {
    /// Interpose on management logins and require strong credentials
    /// (the Figure 4 password-proxy µmbox).
    PasswordProxy,
    /// Signature IDS with the given ruleset generation.
    Ids {
        /// Ruleset generation (bumped when the repository publishes new
        /// signatures).
        ruleset: u16,
    },
    /// Token-bucket rate limiting.
    RateLimit {
        /// Packets per second.
        pps: u32,
    },
    /// Only allow the device's declared protocol planes.
    ProtocolWhitelist,
    /// Block a class of messages.
    Block(BlockClass),
    /// Permit actuation only while an environment variable holds a value
    /// (the Figure 5 "only if somebody is home" gate).
    ContextGate {
        /// Gated variable.
        var: EnvVar,
        /// Required value.
        value: &'static str,
    },
    /// Mirror traffic to the controller/capture channel.
    Mirror,
    /// Robot-check style challenge on management logins (Figure 3's
    /// response to a brute-force attempt).
    ChallengeLogins,
}

impl SecurityModule {
    /// Whether this module drops traffic (vs. inspecting/transforming).
    pub fn is_blocking(&self) -> bool {
        matches!(self, SecurityModule::Block(_))
    }
}

/// Filler value for [`Posture`]'s inline module buffer (`SmallVec`
/// requires `Default`); never observable — slots past the length are
/// not part of the set.
impl Default for SecurityModule {
    fn default() -> Self {
        SecurityModule::PasswordProxy
    }
}

/// The posture of one device in one state: an ordered set of modules.
///
/// Postures are almost always one or two modules (a gate, a proxy, or
/// the two-module quarantine), so the set lives inline — the packed
/// state-space engine interns hundreds of thousands of them and the
/// inline representation keeps that cold path allocation-free.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Posture {
    modules: SmallVec<SecurityModule, 2>,
}

impl Posture {
    /// The empty ("allow, uninstrumented") posture.
    pub fn allow() -> Posture {
        Posture::default()
    }

    /// A posture with one module.
    pub fn of(module: SecurityModule) -> Posture {
        let mut p = Posture::default();
        p.add(module);
        p
    }

    /// A fully-quarantined posture: block everything and mirror what
    /// arrives for forensics.
    pub fn quarantine() -> Posture {
        let mut p = Posture::default();
        p.add(SecurityModule::Block(BlockClass::All));
        p.add(SecurityModule::Mirror);
        p
    }

    /// Add a module (idempotent, keeps sorted order).
    pub fn add(&mut self, module: SecurityModule) -> &mut Self {
        if let Err(pos) = self.modules.binary_search(&module) {
            self.modules.insert(pos, module);
        }
        self
    }

    /// Builder-style [`Posture::add`].
    pub fn with(mut self, module: SecurityModule) -> Posture {
        self.add(module);
        self
    }

    /// Remove every module, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.modules.clear();
    }

    /// Union with another posture.
    pub fn merge(&mut self, other: &Posture) {
        for m in &other.modules {
            self.add(*m);
        }
    }

    /// The modules, sorted.
    pub fn modules(&self) -> &[SecurityModule] {
        &self.modules
    }

    /// Feed the tagged fingerprint words of this posture, keyed as
    /// device `dev`, into an FNV-style eater — one map entry's worth of
    /// [`PostureVector::fingerprint`]'s stream. Exposed so the packed
    /// engine can fingerprint a class from its interned per-slot
    /// postures without materializing the full vector; the word
    /// encoding here *is* the fingerprint definition, shared by both.
    pub(crate) fn fingerprint_words(&self, dev: DeviceId, eat: &mut impl FnMut(u64)) {
        // Tag device and module words differently so the flattened
        // stream cannot alias across map entries.
        eat(1 << 56 | dev.0 as u64);
        for m in self.modules() {
            let word: u64 = match m {
                SecurityModule::PasswordProxy => 1,
                SecurityModule::Ids { ruleset } => 2 | (*ruleset as u64) << 8,
                SecurityModule::RateLimit { pps } => 3 | (*pps as u64) << 8,
                SecurityModule::ProtocolWhitelist => 4,
                SecurityModule::Block(class) => {
                    let c = match class {
                        BlockClass::All => 0u64,
                        BlockClass::Actuation => 1,
                        BlockClass::OpenVerbs => 2,
                        BlockClass::OnVerbs => 3,
                        BlockClass::Cloud => 4,
                        BlockClass::DnsResponses => 5,
                    };
                    5 | c << 8
                }
                SecurityModule::ContextGate { var, value } => {
                    for b in value.bytes() {
                        eat(3 << 56 | b as u64);
                    }
                    6 | (*var as u64) << 8
                }
                SecurityModule::Mirror => 7,
                SecurityModule::ChallengeLogins => 8,
            };
            eat(2 << 56 | word);
        }
    }

    /// Whether no modules apply.
    pub fn is_allow(&self) -> bool {
        self.modules.is_empty()
    }

    /// Whether the posture contains a module.
    pub fn contains(&self, module: &SecurityModule) -> bool {
        self.modules.binary_search(module).is_ok()
    }

    /// Whether any module blocks all traffic.
    pub fn blocks_all(&self) -> bool {
        self.contains(&SecurityModule::Block(BlockClass::All))
    }

    /// Whether two postures are operationally contradictory (one allows
    /// everything, the other blocks everything) — used by conflict
    /// detection on equal-priority rules.
    pub(crate) fn contradicts(&self, other: &Posture) -> bool {
        (self.is_allow() && other.blocks_all()) || (other.is_allow() && self.blocks_all())
    }
}

/// One allowed service (protocol plane, destination port) on a device
/// — an entry in a per-class allow-list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ServiceAllow {
    /// True for TCP, false for UDP.
    pub tcp: bool,
    /// Destination port.
    pub port: u16,
}

impl ServiceAllow {
    /// A TCP service.
    pub fn tcp(port: u16) -> ServiceAllow {
        ServiceAllow { tcp: true, port }
    }

    /// A UDP service.
    pub fn udp(port: u16) -> ServiceAllow {
        ServiceAllow { tcp: false, port }
    }
}

/// The protocol planes a device class legitimately speaks — its normal
/// service surface, IDIoT-style: a least-privilege profile derived from
/// what the class *is*, not from observed traffic. Sorted and deduped.
pub fn class_allowlist(class: DeviceClass) -> Vec<ServiceAllow> {
    let mut list = vec![ServiceAllow::tcp(ports::MGMT), ServiceAllow::udp(ports::TELEMETRY)];
    let actuated = matches!(
        class,
        DeviceClass::SmartPlug
            | DeviceClass::WindowActuator
            | DeviceClass::LightBulb
            | DeviceClass::SmartLock
            | DeviceClass::Oven
            | DeviceClass::Thermostat
            | DeviceClass::TrafficLight
    );
    if actuated {
        list.push(ServiceAllow::udp(ports::CONTROL));
    }
    let cloud = matches!(
        class,
        DeviceClass::Camera
            | DeviceClass::SmartPlug
            | DeviceClass::SetTopBox
            | DeviceClass::Refrigerator
    );
    if cloud {
        list.push(ServiceAllow::tcp(ports::CLOUD));
    }
    if matches!(class, DeviceClass::SmartPlug | DeviceClass::SetTopBox | DeviceClass::Refrigerator)
    {
        list.push(ServiceAllow::udp(ports::DNS));
    }
    list.sort();
    list.dedup();
    list
}

/// The minimal service subset a quarantined device keeps: telemetry to
/// the hub only, so monitoring and forensics continue while every
/// management, actuation, cloud and DNS plane is cut. By construction a
/// subset of [`class_allowlist`] for every class (pinned by a property
/// test) — quarantine never *grants* a plane the normal posture denies.
pub fn quarantine_allowlist(_class: DeviceClass) -> Vec<ServiceAllow> {
    vec![ServiceAllow::udp(ports::TELEMETRY)]
}

/// FNV-1a, a word at a time, over the tagged word stream of `postures`
/// in the order given — the one fold behind
/// [`PostureVector::fingerprint`] and the packed engine's id-tuple
/// fingerprint, which must agree word for word.
pub(crate) fn fingerprint_postures<'a>(
    postures: impl Iterator<Item = (DeviceId, &'a Posture)>,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (dev, posture) in postures {
        posture.fingerprint_words(dev, &mut |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        });
    }
    h
}

/// The postures of every device in one state.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct PostureVector {
    /// Per-device postures. Devices absent from the map are `allow`.
    pub by_device: BTreeMap<DeviceId, Posture>,
}

impl PostureVector {
    /// An empty (all-allow) vector.
    pub fn new() -> PostureVector {
        PostureVector::default()
    }

    /// The posture of a device (allow if unset).
    pub fn posture(&self, id: DeviceId) -> Posture {
        self.by_device.get(&id).cloned().unwrap_or_default()
    }

    /// A stable 64-bit fingerprint of the whole vector — the FSM
    /// continuity token. The safety monitor records it before a
    /// controller failover and compares once the promoted standby has
    /// resynced: a standby that silently reset active FSM postures
    /// (lost checkpoint, drained replay log) produces a different
    /// fingerprint, which is the `fsm-continuity` invariant violation.
    ///
    /// FNV-1a over a tagged word encoding of the semantic content: the
    /// map is a `BTreeMap` and module sets are sorted, so the word
    /// stream — and the hash — is a pure function of the postures. The
    /// encoding is allocation-free on purpose: the packed state-space
    /// engine fingerprints every distinct posture class it interns, so
    /// this sits on the E19 cold path millions of sweeps deep.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_postures(self.by_device.iter().map(|(dev, posture)| (*dev, posture)))
    }

    /// The devices whose posture differs between `self` (old) and `new`,
    /// in id order, each with its old and new posture borrowed (`None`
    /// where the vector has no entry, which is `allow`) — the
    /// reconfiguration set the controller must touch, found in one walk
    /// over the two sorted maps.
    pub fn changes<'a>(
        &'a self,
        new: &'a PostureVector,
    ) -> impl Iterator<Item = (DeviceId, Option<&'a Posture>, Option<&'a Posture>)> + 'a {
        let (mut old, mut new) =
            (self.by_device.iter().peekable(), new.by_device.iter().peekable());
        std::iter::from_fn(move || loop {
            let id = match (old.peek(), new.peek()) {
                (None, None) => return None,
                (Some((a, _)), Some((b, _))) => (**a).min(**b),
                (Some((id, _)), None) | (None, Some((id, _))) => **id,
            };
            let a = old.next_if(|(k, _)| **k == id).map(|(_, p)| p);
            let b = new.next_if(|(k, _)| **k == id).map(|(_, p)| p);
            let same = match (a, b) {
                (Some(a), Some(b)) => a == b,
                (Some(p), None) | (None, Some(p)) => p.is_allow(),
                (None, None) => true,
            };
            if !same {
                return Some((id, a, b));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_idempotent_and_sorted() {
        let mut p = Posture::allow();
        p.add(SecurityModule::Mirror);
        p.add(SecurityModule::PasswordProxy);
        p.add(SecurityModule::Mirror);
        assert_eq!(p.modules().len(), 2);
        let mut sorted = p.modules().to_vec();
        sorted.sort();
        assert_eq!(sorted, p.modules());
    }

    #[test]
    fn quarantine_blocks_all() {
        let q = Posture::quarantine();
        assert!(q.blocks_all());
        assert!(!q.is_allow());
        assert!(q.contains(&SecurityModule::Mirror));
    }

    #[test]
    fn merge_unions() {
        let mut a = Posture::of(SecurityModule::PasswordProxy);
        let b = Posture::of(SecurityModule::Ids { ruleset: 1 });
        a.merge(&b);
        assert_eq!(a.modules().len(), 2);
    }

    #[test]
    fn contradiction_detection() {
        assert!(Posture::allow().contradicts(&Posture::quarantine()));
        assert!(Posture::quarantine().contradicts(&Posture::allow()));
        assert!(!Posture::of(SecurityModule::Mirror).contradicts(&Posture::quarantine()));
        assert!(!Posture::allow().contradicts(&Posture::allow()));
    }

    #[test]
    fn vector_diff_finds_changes() {
        let mut old = PostureVector::new();
        old.by_device.insert(DeviceId(0), Posture::of(SecurityModule::PasswordProxy));
        old.by_device.insert(DeviceId(1), Posture::of(SecurityModule::Mirror));
        let mut new = PostureVector::new();
        new.by_device.insert(DeviceId(0), Posture::of(SecurityModule::PasswordProxy));
        new.by_device.insert(DeviceId(1), Posture::quarantine());
        new.by_device.insert(DeviceId(2), Posture::of(SecurityModule::Mirror));
        // An explicit `allow` entry is no entry.
        new.by_device.insert(DeviceId(3), Posture::allow());
        let changes: Vec<_> = old.changes(&new).collect();
        let quarantine = Posture::quarantine();
        let mirror = Posture::of(SecurityModule::Mirror);
        assert_eq!(
            changes,
            vec![
                (DeviceId(1), Some(&mirror), Some(&quarantine)),
                (DeviceId(2), None, Some(&mirror)),
            ]
        );
        assert_eq!(new.changes(&old).count(), 2);
    }

    #[test]
    fn unset_device_is_allow() {
        let v = PostureVector::new();
        assert!(v.posture(DeviceId(9)).is_allow());
    }

    #[test]
    fn fingerprint_tracks_semantic_content() {
        let mut a = PostureVector::new();
        a.by_device.insert(DeviceId(0), Posture::of(SecurityModule::PasswordProxy));
        let mut b = PostureVector::new();
        b.by_device.insert(DeviceId(0), Posture::of(SecurityModule::PasswordProxy));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.by_device.insert(DeviceId(1), Posture::quarantine());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(PostureVector::new().fingerprint(), PostureVector::new().fingerprint());
    }

    #[test]
    fn quarantine_allowlist_is_a_subset_for_every_class() {
        for class in DeviceClass::ALL {
            let normal = class_allowlist(class);
            for svc in quarantine_allowlist(class) {
                assert!(
                    normal.contains(&svc),
                    "{class:?}: quarantine grants {svc:?} outside the normal allow-list"
                );
            }
            assert!(
                quarantine_allowlist(class).len() < normal.len(),
                "{class:?}: quarantine must be strictly narrower"
            );
        }
    }

    #[test]
    fn allowlists_follow_device_planes() {
        let lock = class_allowlist(DeviceClass::SmartLock);
        assert!(lock.contains(&ServiceAllow::udp(ports::CONTROL)), "locks are actuated");
        assert!(!lock.contains(&ServiceAllow::udp(ports::DNS)), "locks don't resolve names");
        let plug = class_allowlist(DeviceClass::SmartPlug);
        assert!(plug.contains(&ServiceAllow::udp(ports::DNS)), "the plug is the open resolver");
        let sensor = class_allowlist(DeviceClass::MotionSensor);
        assert!(!sensor.contains(&ServiceAllow::udp(ports::CONTROL)), "sensors aren't actuated");
    }
}
