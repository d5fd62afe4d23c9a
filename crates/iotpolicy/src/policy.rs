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

use crate::context::SecurityContext;
use crate::posture::{Posture, PostureVector};
use crate::state_space::{StateSchema, SystemState};
use iotdev::device::DeviceId;
use iotdev::env::EnvVar;
use serde::Serialize;
use std::collections::BTreeMap;

/// A partial assignment over the state space: unconstrained slots match
/// anything.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct StatePattern {
    /// Required device contexts.
    pub contexts: BTreeMap<DeviceId, SecurityContext>,
    /// Required environment values.
    pub env: BTreeMap<EnvVar, &'static str>,
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
    pub fn matches(&self, schema: &StateSchema, state: &SystemState) -> bool {
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

    /// Number of constrained slots.
    pub fn specificity(&self) -> usize {
        self.contexts.len() + self.env.len()
    }
}

/// One prioritized policy rule.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyRule {
    /// Higher wins; equal priorities merge (and are checked for
    /// contradictions by the conflict detector).
    pub priority: u16,
    /// When the rule applies.
    pub pattern: StatePattern,
    /// What each affected device's posture becomes.
    pub postures: BTreeMap<DeviceId, Posture>,
    /// When true, this rule *replaces* everything accumulated by
    /// lower-priority rules for its devices instead of merging with it
    /// (quarantine is the canonical override).
    pub override_lower: bool,
    /// Human-readable origin (for reports: "fig3-window-block",
    /// "vuln:open-dns-resolver", "recipe:42").
    pub origin: String,
}

impl PolicyRule {
    /// Build a rule affecting one device.
    pub fn new(
        priority: u16,
        pattern: StatePattern,
        device: DeviceId,
        posture: Posture,
    ) -> PolicyRule {
        let mut postures = BTreeMap::new();
        postures.insert(device, posture);
        PolicyRule { priority, pattern, postures, override_lower: false, origin: String::new() }
    }

    /// Attach an origin label.
    pub fn with_origin(mut self, origin: &str) -> PolicyRule {
        self.origin = origin.into();
        self
    }

    /// Mark the rule as replacing lower-priority postures.
    pub fn overriding(mut self) -> PolicyRule {
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
#[derive(Debug, Clone, Default, Serialize)]
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
    /// [`PolicyRule::overriding`], in which case it replaces them. The
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

    /// Exhaustively enumerate `(state, posture-vector)` pairs. Only for
    /// small schemas (tests and the E1/A1 experiments).
    pub fn enumerate(&self) -> Vec<(SystemState, PostureVector)> {
        self.schema
            .iter_states()
            .map(|s| {
                let v = self.evaluate(&s);
                (s, v)
            })
            .collect()
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

    #[test]
    fn enumerate_covers_space() {
        let policy = figure3_policy(ALARM, WINDOW);
        let all = policy.enumerate();
        assert_eq!(all.len() as u128, policy.schema.size());
    }
}
