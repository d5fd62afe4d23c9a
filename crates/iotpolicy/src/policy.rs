//! The FSM policy: `state pattern → per-device postures`.
//!
//! Enumerating `Posture(Sₖ, Dᵢ)` for every state explicitly is the
//! paper's brute-force formulation; in practice policies are written as
//! prioritized **patterns** (partial assignments over contexts and
//! environment variables) exactly as Figure 3 does: "when the
//! fire-alarm's context is `suspicious`, block `open` messages to the
//! window actuator". Pattern evaluation gives the same semantics as full
//! enumeration while staying writable by humans and prunable by
//! machines.
//!
//! **How a rule is held.** A compiled home has dozens of rules, and
//! nearly every one pins one device's context and sets one device's
//! posture. A rule's postures and a pattern's pins are therefore a
//! [`SmallMap`]: sorted by key like a `BTreeMap`, iterated and printed
//! like one, but holding its one entry in the value, so compiling a rule
//! asks the allocator for nothing. A rule's origin is a [`RuleOrigin`]:
//! the compiler's templates keep their parts (a device id, a vuln id, a
//! SKU) and render the report text only when it is printed.

use crate::context::SecurityContext;
use crate::posture::{Posture, PostureVector};
use crate::state_space::{StateSchema, SystemState};
use iotdev::device::DeviceId;
use iotdev::env::EnvVar;
use iotdev::registry::Sku;
use std::fmt;

/// A map sorted by key that holds one entry without allocating.
///
/// It keeps the part of `BTreeMap`'s behaviour the policy layer reads:
/// [`SmallMap::iter`], [`SmallMap::keys`] and [`SmallMap::values`] walk
/// the entries in ascending key order, [`SmallMap::insert`] replaces the
/// value of a key it already holds, and `Debug` prints `{k: v, ...}`.
/// A second entry moves both into a `Vec`; entries are never removed, so
/// one entry is always inline and two or more are always on the heap.
#[derive(Clone)]
pub struct SmallMap<K, V> {
    entries: Entries<K, V>,
}

#[derive(Clone)]
enum Entries<K, V> {
    Empty,
    One([(K, V); 1]),
    Many(Vec<(K, V)>),
}

impl<K, V> SmallMap<K, V> {
    /// An empty map.
    pub const fn new() -> SmallMap<K, V> {
        SmallMap { entries: Entries::Empty }
    }

    fn as_slice(&self) -> &[(K, V)] {
        match &self.entries {
            Entries::Empty => &[],
            Entries::One(one) => one,
            Entries::Many(many) => many,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(K, V)] {
        match &mut self.entries {
            Entries::Empty => &mut [],
            Entries::One(one) => one,
            Entries::Many(many) => many,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.as_slice().iter())
    }

    /// The keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.as_slice().iter().map(|(k, _)| k)
    }

    /// The values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.as_slice().iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> SmallMap<K, V> {
    /// The value held for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let entries = self.as_slice();
        entries.binary_search_by(|(k, _)| k.cmp(key)).ok().map(|i| &entries[i].1)
    }

    /// Set `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.as_slice().binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.as_mut_slice()[i].1, value)),
            Err(i) => {
                self.entries = match std::mem::replace(&mut self.entries, Entries::Empty) {
                    Entries::Empty => Entries::One([(key, value)]),
                    Entries::One([held]) => {
                        let mut entries = Vec::with_capacity(2);
                        entries.push(held);
                        entries.insert(i, (key, value));
                        Entries::Many(entries)
                    }
                    Entries::Many(mut entries) => {
                        entries.insert(i, (key, value));
                        Entries::Many(entries)
                    }
                };
                None
            }
        }
    }
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for SmallMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<K: Eq, V: Eq> Eq for SmallMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SmallMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a, K, V> IntoIterator for &'a SmallMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// The entries of a [`SmallMap`], in ascending key order.
pub struct Iter<'a, K, V>(std::slice::Iter<'a, (K, V)>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// A partial assignment over the state space: unconstrained slots match
/// anything.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatePattern {
    /// Required device contexts.
    pub contexts: SmallMap<DeviceId, SecurityContext>,
    /// Required environment values.
    pub env: SmallMap<EnvVar, &'static str>,
}

impl StatePattern {
    /// The match-anything pattern.
    pub fn any() -> StatePattern {
        StatePattern::default()
    }

    /// Require a device context.
    pub fn context(mut self, id: DeviceId, ctx: SecurityContext) -> StatePattern {
        self.contexts.insert(id, ctx);
        self
    }

    /// Require an environment value.
    pub fn env(mut self, var: EnvVar, value: &'static str) -> StatePattern {
        self.env.insert(var, value);
        self
    }

    /// Whether `state` (under `schema`) satisfies the pattern.
    ///
    /// Constraints on devices or variables the schema does not track are
    /// unsatisfiable — a policy referring to unknown slots never fires,
    /// which is the fail-closed reading.
    pub(crate) fn matches(&self, schema: &StateSchema, state: &SystemState) -> bool {
        for (id, want) in &self.contexts {
            match schema.context_of(state, *id) {
                Some(have) if have == *want => {}
                _ => return false,
            }
        }
        for (var, want) in &self.env {
            match schema.env_value(state, *var) {
                Some(have) if have == *want => {}
                _ => return false,
            }
        }
        true
    }

    /// Whether two patterns can match a common state (used by conflict
    /// detection): they overlap unless they pin the same slot to
    /// different values.
    pub(crate) fn overlaps(&self, other: &StatePattern) -> bool {
        for (id, a) in &self.contexts {
            if let Some(b) = other.contexts.get(id) {
                if a != b {
                    return false;
                }
            }
        }
        for (var, a) in &self.env {
            if let Some(b) = other.env.get(var) {
                if a != b {
                    return false;
                }
            }
        }
        true
    }
}

/// Where a rule came from, for reports. The compiler's templates keep
/// their parts and render them on demand; `Display` writes the text a
/// report shows ("vuln:open-dns-resolver:dev3"), and `Debug` writes that
/// text as a quoted string.
#[derive(Clone, PartialEq, Eq)]
pub enum RuleOrigin {
    /// Free text, as [`PolicyRule::with_origin`] gives it.
    Text(String),
    /// A known flaw's standing mitigation: `vuln:<vuln id>:<device>`.
    Vuln {
        /// The vulnerability class id ([`iotdev::vuln::Vulnerability::id`]).
        vuln: &'static str,
        /// The mitigated device.
        device: DeviceId,
    },
    /// Suspicious-context escalation: `escalate:suspicious:<device>`.
    Suspicious(DeviceId),
    /// Quarantine on compromise: `escalate:quarantine:<device>`.
    Quarantine(DeviceId),
    /// An actuation gate: `gate:<target>:<var>=<value>`.
    Gate {
        /// The gated device.
        target: DeviceId,
        /// The gating variable.
        var: EnvVar,
        /// The value actuation requires.
        value: &'static str,
    },
    /// Open verbs to `protected` blocked while `watched` is in `ctx`:
    /// `protect:<protected>:on-<ctx>-of:<watched>`.
    Protect {
        /// The protected device.
        protected: DeviceId,
        /// The watched device's context.
        ctx: SecurityContext,
        /// The watched device.
        watched: DeviceId,
    },
    /// A repository signature's standing IDS: `repo:<sku>`.
    Repo(Sku),
}

impl Default for RuleOrigin {
    fn default() -> Self {
        RuleOrigin::Text(String::new())
    }
}

impl fmt::Display for RuleOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleOrigin::Text(text) => fmt::Display::fmt(text, f),
            RuleOrigin::Vuln { vuln, device } => write!(f, "vuln:{vuln}:{device}"),
            RuleOrigin::Suspicious(device) => write!(f, "escalate:suspicious:{device}"),
            RuleOrigin::Quarantine(device) => write!(f, "escalate:quarantine:{device}"),
            RuleOrigin::Gate { target, var, value } => write!(f, "gate:{target}:{var:?}={value}"),
            RuleOrigin::Protect { protected, ctx, watched } => {
                write!(f, "protect:{protected}:on-{}-of:{watched}", ctx.name())
            }
            RuleOrigin::Repo(sku) => write!(f, "repo:{sku}"),
        }
    }
}

impl fmt::Debug for RuleOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// One prioritized policy rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRule {
    /// Higher wins; equal priorities merge (and are checked for
    /// contradictions by the conflict detector).
    pub priority: u16,
    /// When the rule applies.
    pub pattern: StatePattern,
    /// What each affected device's posture becomes.
    pub postures: SmallMap<DeviceId, Posture>,
    /// When true, this rule *replaces* everything accumulated by
    /// lower-priority rules for its devices instead of merging with it
    /// (quarantine is the canonical override).
    pub override_lower: bool,
    /// Human-readable origin (for reports: "fig3-window-block",
    /// "vuln:open-dns-resolver:dev3", "recipe:42").
    pub origin: RuleOrigin,
}

impl PolicyRule {
    /// Build a rule affecting one device.
    pub fn new(
        priority: u16,
        pattern: StatePattern,
        device: DeviceId,
        posture: Posture,
    ) -> PolicyRule {
        let mut postures = SmallMap::new();
        postures.insert(device, posture);
        let origin = RuleOrigin::default();
        PolicyRule { priority, pattern, postures, override_lower: false, origin }
    }

    /// Attach an origin label.
    pub fn with_origin(self, origin: &str) -> PolicyRule {
        self.with_rule_origin(RuleOrigin::Text(origin.into()))
    }

    /// Attach a structured origin.
    pub fn with_rule_origin(mut self, origin: RuleOrigin) -> PolicyRule {
        self.origin = origin;
        self
    }

    /// Mark the rule as replacing lower-priority postures.
    pub(crate) fn overriding(mut self) -> PolicyRule {
        self.override_lower = true;
        self
    }

    /// Add another device's posture to the same rule.
    pub fn and_device(mut self, device: DeviceId, posture: Posture) -> PolicyRule {
        self.postures.insert(device, posture);
        self
    }
}

/// The compiled policy for one deployment.
#[derive(Debug, Clone, Default)]
pub struct FsmPolicy {
    /// The deployment's state schema.
    pub schema: StateSchema,
    /// Rules, in installation order.
    pub rules: Vec<PolicyRule>,
    /// Posture applied to every device in every state, underneath the
    /// rules (usually `allow`; strict deployments use `ProtocolWhitelist`).
    pub baseline: Posture,
}

impl FsmPolicy {
    /// An empty policy over a schema.
    pub fn new(schema: StateSchema) -> FsmPolicy {
        FsmPolicy { schema, rules: Vec::new(), baseline: Posture::allow() }
    }

    /// Install a rule.
    pub fn add_rule(&mut self, rule: PolicyRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// The posture vector in `state`.
    ///
    /// Per device: matching rules apply in ascending priority order (ties
    /// in installation order); each rule *merges* its posture with what
    /// lower layers accumulated, unless it is marked
    /// `PolicyRule::overriding`, in which case it replaces them. The
    /// baseline sits underneath everything.
    pub fn evaluate(&self, state: &SystemState) -> PostureVector {
        let mut out = PostureVector::new();
        self.evaluate_into(state, &mut Vec::new(), &mut out);
        out
    }

    /// [`FsmPolicy::evaluate`] into buffers the caller keeps: `matching`
    /// is scratch, and `out` is overwritten with the posture vector in
    /// `state`, a posture it already holds rewritten in place. Once the
    /// buffers have held what a state needs, evaluating it again asks the
    /// allocator for nothing.
    pub fn evaluate_into(
        &self,
        state: &SystemState,
        matching: &mut Vec<(u16, usize)>,
        out: &mut PostureVector,
    ) {
        matching.clear();
        let rules = self.rules.iter().enumerate();
        matching.extend(
            rules
                .filter(|(_, r)| r.pattern.matches(&self.schema, state))
                .map(|(i, r)| (r.priority, i)),
        );
        matching.sort_unstable();
        out.by_device.retain(|id, _| self.schema.device_slot(*id).is_some());
        for dev in &self.schema.devices {
            // Rules merge in order and an overriding one replaces what
            // came before it: the last overriding rule that names the
            // device and the rules after it decide, over the baseline.
            let names = |i: usize| self.rules[i].postures.get(&dev.id);
            let from = matching
                .iter()
                .rposition(|&(_, i)| self.rules[i].override_lower && names(i).is_some())
                .unwrap_or(0);
            let fill = |p: &mut Posture| {
                p.clear();
                p.merge(&self.baseline);
                for q in matching[from..].iter().filter_map(|&(_, i)| names(i)) {
                    p.merge(q);
                }
            };
            match out.by_device.get_mut(&dev.id) {
                Some(p) => {
                    fill(p);
                    if p.is_allow() {
                        out.by_device.remove(&dev.id);
                    }
                }
                None => {
                    let mut p = Posture::allow();
                    fill(&mut p);
                    if !p.is_allow() {
                        out.by_device.insert(dev.id, p);
                    }
                }
            }
        }
    }

    /// The posture of a single device in `state`.
    pub fn posture_for(&self, state: &SystemState, id: DeviceId) -> Posture {
        self.evaluate(state).posture(id)
    }
}

/// The paper's Figure 3 policy, expressed directly: a fire alarm and a
/// window actuator.
///
/// * Fire-alarm backdoor accessed (context `suspicious`) → block `open`
///   messages to the window (stop the physical break-in).
/// * Window password brute-forced (context `suspicious`) → challenge
///   management logins on the window ("Robot Check" in the figure).
///
/// ```
/// use iotdev::device::DeviceId;
/// use iotpolicy::context::SecurityContext;
/// use iotpolicy::policy::figure3_policy;
/// use iotpolicy::posture::{BlockClass, SecurityModule};
///
/// let (alarm, window) = (DeviceId(0), DeviceId(1));
/// let policy = figure3_policy(alarm, window);
/// let calm = policy.schema.initial_state();
/// assert!(policy.posture_for(&calm, window).is_allow());
///
/// let alarm_hacked = calm.with_context(&policy.schema, alarm, SecurityContext::Suspicious);
/// assert!(policy
///     .posture_for(&alarm_hacked, window)
///     .contains(&SecurityModule::Block(BlockClass::OpenVerbs)));
/// ```
pub fn figure3_policy(fire_alarm: DeviceId, window: DeviceId) -> FsmPolicy {
    use crate::posture::{BlockClass, SecurityModule};
    use iotdev::device::DeviceClass;

    let mut schema = StateSchema::new();
    schema
        .add_device(fire_alarm, DeviceClass::FireAlarm)
        .add_device(window, DeviceClass::WindowActuator)
        .add_env(EnvVar::Smoke)
        .add_env(EnvVar::Window);

    let mut policy = FsmPolicy::new(schema);
    policy.add_rule(
        PolicyRule::new(
            100,
            StatePattern::any().context(fire_alarm, SecurityContext::Suspicious),
            window,
            Posture::of(SecurityModule::Block(BlockClass::OpenVerbs)),
        )
        .with_origin("fig3-block-open-on-firealarm-suspicion"),
    );
    policy.add_rule(
        PolicyRule::new(
            100,
            StatePattern::any().context(window, SecurityContext::Suspicious),
            window,
            Posture::of(SecurityModule::ChallengeLogins),
        )
        .with_origin("fig3-robot-check-on-bruteforce"),
    );
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posture::{BlockClass, SecurityModule};
    use iotdev::device::DeviceClass;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const ALARM: DeviceId = DeviceId(0);
    const WINDOW: DeviceId = DeviceId(1);

    #[test]
    fn figure3_normal_state_is_open_season() {
        let policy = figure3_policy(ALARM, WINDOW);
        let state = policy.schema.initial_state();
        assert!(policy.posture_for(&state, WINDOW).is_allow());
        assert!(policy.posture_for(&state, ALARM).is_allow());
    }

    #[test]
    fn figure3_firealarm_suspicion_blocks_window_open() {
        let policy = figure3_policy(ALARM, WINDOW);
        let state = policy.schema.initial_state().with_context(
            &policy.schema,
            ALARM,
            SecurityContext::Suspicious,
        );
        let p = policy.posture_for(&state, WINDOW);
        assert!(p.contains(&SecurityModule::Block(BlockClass::OpenVerbs)));
        // The alarm itself is not blocked — the posture targets the
        // *window*, the cross-device part the strawmen cannot express.
        assert!(policy.posture_for(&state, ALARM).is_allow());
    }

    #[test]
    fn figure3_window_bruteforce_gets_challenge() {
        let policy = figure3_policy(ALARM, WINDOW);
        let state = policy.schema.initial_state().with_context(
            &policy.schema,
            WINDOW,
            SecurityContext::Suspicious,
        );
        let p = policy.posture_for(&state, WINDOW);
        assert!(p.contains(&SecurityModule::ChallengeLogins));
        assert!(!p.contains(&SecurityModule::Block(BlockClass::OpenVerbs)));
    }

    #[test]
    fn both_suspicious_merges_equal_priority_rules() {
        let policy = figure3_policy(ALARM, WINDOW);
        let state = policy
            .schema
            .initial_state()
            .with_context(&policy.schema, ALARM, SecurityContext::Suspicious)
            .with_context(&policy.schema, WINDOW, SecurityContext::Suspicious);
        let p = policy.posture_for(&state, WINDOW);
        assert!(p.contains(&SecurityModule::Block(BlockClass::OpenVerbs)));
        assert!(p.contains(&SecurityModule::ChallengeLogins));
    }

    #[test]
    fn higher_priority_overrides() {
        let mut schema = StateSchema::new();
        schema.add_device(DeviceId(0), DeviceClass::Camera);
        let mut policy = FsmPolicy::new(schema);
        policy.add_rule(PolicyRule::new(
            10,
            StatePattern::any(),
            DeviceId(0),
            Posture::quarantine(),
        ));
        policy.add_rule(
            PolicyRule::new(
                50,
                StatePattern::any(),
                DeviceId(0),
                Posture::of(SecurityModule::Mirror),
            )
            .overriding(),
        );
        let p = policy.posture_for(&policy.schema.initial_state(), DeviceId(0));
        assert!(!p.blocks_all(), "override must replace the quarantine");
        assert!(p.contains(&SecurityModule::Mirror));
    }

    #[test]
    fn env_patterns_gate_rules() {
        let mut schema = StateSchema::new();
        schema.add_device(DeviceId(0), DeviceClass::LightBulb).add_env(EnvVar::Smoke);
        let mut policy = FsmPolicy::new(schema);
        policy.add_rule(PolicyRule::new(
            10,
            StatePattern::any().env(EnvVar::Smoke, "yes"),
            DeviceId(0),
            Posture::of(SecurityModule::Mirror),
        ));
        let calm = policy.schema.initial_state();
        assert!(policy.posture_for(&calm, DeviceId(0)).is_allow());
        let smoky = calm.clone().with_env(&policy.schema, EnvVar::Smoke, "yes");
        assert!(policy.posture_for(&smoky, DeviceId(0)).contains(&SecurityModule::Mirror));
    }

    #[test]
    fn pattern_overlap_semantics() {
        let a = StatePattern::any().context(DeviceId(0), SecurityContext::Suspicious);
        let b = StatePattern::any().env(EnvVar::Smoke, "yes");
        let c = StatePattern::any().context(DeviceId(0), SecurityContext::Normal);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(StatePattern::any().overlaps(&a));
    }

    #[test]
    fn unknown_slots_fail_closed() {
        let policy = figure3_policy(ALARM, WINDOW);
        let pattern = StatePattern::any().context(DeviceId(99), SecurityContext::Normal);
        assert!(!pattern.matches(&policy.schema, &policy.schema.initial_state()));
        let pattern = StatePattern::any().env(EnvVar::Door, "locked");
        assert!(!pattern.matches(&policy.schema, &policy.schema.initial_state()));
    }

    #[test]
    fn baseline_applies_under_rules() {
        let mut schema = StateSchema::new();
        schema.add_device(DeviceId(0), DeviceClass::Camera);
        let mut policy = FsmPolicy::new(schema);
        policy.baseline = Posture::of(SecurityModule::ProtocolWhitelist);
        let p = policy.posture_for(&policy.schema.initial_state(), DeviceId(0));
        assert!(p.contains(&SecurityModule::ProtocolWhitelist));
    }

    /// `(key, value)` inserts in the order given, in ascending key order
    /// (a stable sort, so a repeated key's later value still wins) or in
    /// descending key order.
    fn ordered(inserts: &[(u8, u8)], order: u8) -> Vec<(u8, u8)> {
        let mut out = inserts.to_vec();
        match order % 3 {
            0 => {}
            1 => out.sort_by_key(|(k, _)| *k),
            _ => out.sort_by_key(|(k, _)| std::cmp::Reverse(*k)),
        }
        out
    }

    /// The map and its `BTreeMap` twin after the same inserts, each
    /// insert's returned value compared on the way.
    fn both(inserts: &[(u8, u8)]) -> (SmallMap<DeviceId, u8>, BTreeMap<DeviceId, u8>) {
        let (mut small, mut twin) = (SmallMap::new(), BTreeMap::new());
        for &(k, v) in inserts {
            let key = DeviceId(k.into());
            assert_eq!(small.insert(key, v), twin.insert(key, v), "insert {key:?}");
        }
        (small, twin)
    }

    proptest! {
        #[test]
        fn prop_small_map_reads_as_a_btree_map(
            a in proptest::collection::vec((0u8..6, any::<u8>()), 0..10),
            a_order in 0u8..3,
            b in proptest::collection::vec((0u8..6, 0u8..2), 0..10),
            b_order in 0u8..3,
        ) {
            // Keys 0..6 and up to ten inserts: 0-6 distinct keys, with
            // repeats. Values of `b` are 0 or 1, so it sometimes equals
            // its reordering.
            let (small, twin) = both(&ordered(&a, a_order));
            prop_assert!(small.iter().eq(twin.iter()));
            prop_assert!((&small).into_iter().eq(&twin));
            prop_assert!(small.keys().eq(twin.keys()));
            prop_assert!(small.values().eq(twin.values()));
            prop_assert_eq!(small.len(), twin.len());
            prop_assert_eq!(small.is_empty(), twin.is_empty());
            for k in 0..8u32 {
                // 6 and 7 are never inserted: misses past the last key.
                prop_assert_eq!(small.get(&DeviceId(k)), twin.get(&DeviceId(k)));
            }
            prop_assert_eq!(format!("{small:?}"), format!("{twin:?}"));
            prop_assert_eq!(format!("{small:#?}"), format!("{twin:#?}"));
            prop_assert!(small == small.clone());
            for order in 0..3 {
                let (other, other_twin) = both(&ordered(&b, b_order + order));
                let (again, again_twin) = both(&ordered(&b, b_order));
                prop_assert_eq!(small == other, twin == other_twin);
                prop_assert_eq!(again == other, again_twin == other_twin);
            }
        }
    }

    #[test]
    fn evaluate_into_one_reused_vector_is_evaluate() {
        // Figure 3 plus an overriding quarantine of the window on smoke,
        // with and without a baseline: every state, in odometer order and
        // back, evaluated over the last state's vector and scratch, so
        // postures appear, grow, shrink, are replaced and vanish in place.
        let mut policy = figure3_policy(ALARM, WINDOW);
        policy.add_rule(
            PolicyRule::new(
                200,
                StatePattern::any().env(EnvVar::Smoke, "yes"),
                WINDOW,
                Posture::quarantine(),
            )
            .overriding(),
        );
        for baseline in [Posture::allow(), Posture::of(SecurityModule::ProtocolWhitelist)] {
            policy.baseline = baseline;
            let states: Vec<SystemState> = policy.schema.iter_states().collect();
            let (mut matching, mut out) = (Vec::new(), PostureVector::new());
            for state in states.iter().chain(states.iter().rev()) {
                policy.evaluate_into(state, &mut matching, &mut out);
                assert_eq!(out, policy.evaluate(state), "{state:?}");
            }
        }
    }
}
