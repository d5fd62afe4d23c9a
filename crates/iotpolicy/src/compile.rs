//! Compiling deployment knowledge into an [`FsmPolicy`].
//!
//! The paper's policies come from three sources, and the compiler folds
//! in all three:
//!
//! 1. **Vulnerability knowledge** (Table 1 / the signature repository):
//!    each vulnerability class maps to a standing mitigation posture —
//!    the password proxy for default/weak credentials, the DNS guard for
//!    open resolvers, a cloud-channel block for vendor backdoors.
//! 2. **Context escalation** (Figure 3): when a device's context turns
//!    `suspicious` its posture hardens (challenges, mirroring, rate
//!    limits); `compromised` devices are quarantined.
//! 3. **Cross-device safety** (Figure 5 / IFTTT recipes): actuation on a
//!    hazardous device is gated on environmental context ("only if the
//!    camera sees someone home").

use crate::context::SecurityContext;
use crate::policy::{FsmPolicy, PolicyRule, RuleOrigin, StatePattern};
use crate::posture::{BlockClass, Posture, SecurityModule};
use crate::state_space::StateSchema;
use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::vuln::Vulnerability;

/// Priorities used by the compiler (rules with higher numbers win).
pub mod priority {
    /// Standing vulnerability mitigations.
    pub const MITIGATION: u16 = 50;
    /// Cross-device safety gates.
    pub(crate) const SAFETY_GATE: u16 = 60;
    /// Suspicious-context escalation.
    pub(crate) const SUSPICIOUS: u16 = 80;
    /// Compromised-context quarantine.
    pub(crate) const QUARANTINE: u16 = 90;
}

/// The standing mitigation posture for one vulnerability class — the
/// "network patch" of Figure 4.
pub(crate) fn mitigation_for(vuln: &Vulnerability) -> Posture {
    match vuln {
        Vulnerability::DefaultCredentials { .. } | Vulnerability::OpenMgmtAccess => {
            Posture::of(SecurityModule::PasswordProxy)
        }
        Vulnerability::NoAuthControl => Posture::of(SecurityModule::PasswordProxy),
        Vulnerability::ExposedKeyPair { .. } => Posture::of(SecurityModule::Ids { ruleset: 1 }),
        Vulnerability::OpenDnsResolver => {
            Posture::of(SecurityModule::Block(BlockClass::DnsResponses))
        }
        Vulnerability::CloudBypassBackdoor => Posture::of(SecurityModule::Block(BlockClass::Cloud)),
    }
}

/// Incremental policy compiler.
#[derive(Debug, Default)]
pub struct PolicyCompiler {
    schema: StateSchema,
    rules: Vec<PolicyRule>,
}

impl PolicyCompiler {
    /// Start compiling.
    pub fn new() -> PolicyCompiler {
        PolicyCompiler::default()
    }

    /// Register a device. Its context domain includes `unpatched` when it
    /// ships with vulnerabilities; standing mitigations and escalation
    /// rules are added automatically.
    pub fn device(
        &mut self,
        id: DeviceId,
        class: DeviceClass,
        vulns: &[Vulnerability],
    ) -> &mut Self {
        use SecurityContext::{Compromised, Normal, Suspicious, Unpatched};
        let contexts = if vulns.is_empty() {
            vec![Normal, Suspicious, Compromised]
        } else {
            vec![Normal, Unpatched, Suspicious, Compromised]
        };
        self.schema.add_device_with(id, class, contexts);

        for vuln in vulns {
            self.rules.push(
                PolicyRule::new(
                    priority::MITIGATION,
                    StatePattern::any(),
                    id,
                    mitigation_for(vuln),
                )
                .with_rule_origin(RuleOrigin::Vuln { vuln: vuln.id(), device: id }),
            );
        }

        // Escalation: suspicious → challenge + mirror + rate-limit.
        self.rules.push(
            PolicyRule::new(
                priority::SUSPICIOUS,
                StatePattern::any().context(id, SecurityContext::Suspicious),
                id,
                Posture::of(SecurityModule::ChallengeLogins)
                    .with(SecurityModule::Mirror)
                    .with(SecurityModule::RateLimit { pps: 50 }),
            )
            .with_rule_origin(RuleOrigin::Suspicious(id)),
        );
        // Quarantine on compromise.
        self.rules.push(
            PolicyRule::new(
                priority::QUARANTINE,
                StatePattern::any().context(id, SecurityContext::Compromised),
                id,
                Posture::quarantine(),
            )
            .overriding()
            .with_rule_origin(RuleOrigin::Quarantine(id)),
        );
        self
    }

    /// Track an environment variable in the schema.
    pub fn env(&mut self, var: EnvVar) -> &mut Self {
        self.schema.add_env(var);
        self
    }

    /// Figure 5: permit actuation on `target` only while `var == value`
    /// (e.g. the oven's plug accepts "ON" only while `Occupancy =
    /// present`).
    pub fn gate_actuation(
        &mut self,
        target: DeviceId,
        var: EnvVar,
        value: &'static str,
    ) -> &mut Self {
        self.schema.add_env(var);
        self.rules.push(
            PolicyRule::new(
                priority::SAFETY_GATE,
                StatePattern::any(),
                target,
                Posture::of(SecurityModule::ContextGate { var, value }),
            )
            .with_rule_origin(RuleOrigin::Gate { target, var, value }),
        );
        self
    }

    /// Figure 3: while `watched` is suspicious (or worse), block
    /// open-style verbs to `protected` (the fire-alarm → window rule).
    pub fn protect_on_suspicion(&mut self, watched: DeviceId, protected: DeviceId) -> &mut Self {
        for ctx in [SecurityContext::Suspicious, SecurityContext::Compromised] {
            self.rules.push(
                PolicyRule::new(
                    priority::SAFETY_GATE,
                    StatePattern::any().context(watched, ctx),
                    protected,
                    Posture::of(SecurityModule::Block(BlockClass::OpenVerbs)),
                )
                .with_rule_origin(RuleOrigin::Protect { protected, ctx, watched }),
            );
        }
        self
    }

    /// Add a hand-written rule verbatim.
    pub fn rule(&mut self, rule: PolicyRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Finish: produce the policy. Its rules are the compiler's vector,
    /// in the order they were added, handed over rather than copied.
    pub fn build(self) -> FsmPolicy {
        FsmPolicy { rules: self.rules, ..FsmPolicy::new(self.schema) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAM: DeviceId = DeviceId(0);
    const PLUG: DeviceId = DeviceId(1);

    fn compiled() -> FsmPolicy {
        let mut c = PolicyCompiler::new();
        c.device(CAM, DeviceClass::Camera, &[Vulnerability::default_admin_admin()]);
        c.device(PLUG, DeviceClass::SmartPlug, &[Vulnerability::CloudBypassBackdoor]);
        c.gate_actuation(PLUG, EnvVar::Occupancy, "present");
        c.build()
    }

    #[test]
    fn vuln_mitigations_are_standing() {
        let policy = compiled();
        let state = policy.schema.initial_state();
        let cam = policy.posture_for(&state, CAM);
        assert!(cam.contains(&SecurityModule::PasswordProxy));
        let plug = policy.posture_for(&state, PLUG);
        assert!(plug.contains(&SecurityModule::Block(BlockClass::Cloud)));
    }

    #[test]
    fn vulnerable_devices_get_unpatched_context() {
        let policy = compiled();
        let dev = &policy.schema.devices[0];
        assert!(dev.contexts.contains(&SecurityContext::Unpatched));
        // A clean device would not.
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(5), DeviceClass::LightBulb, &[]);
        let p = c.build();
        assert!(!p.schema.devices[0].contexts.contains(&SecurityContext::Unpatched));
    }

    #[test]
    fn suspicion_escalates_on_top_of_mitigation() {
        let policy = compiled();
        let state = policy.schema.initial_state().with_context(
            &policy.schema,
            CAM,
            SecurityContext::Suspicious,
        );
        let p = policy.posture_for(&state, CAM);
        assert!(p.contains(&SecurityModule::ChallengeLogins));
        assert!(p.contains(&SecurityModule::Mirror));
        // Escalation layers *on top of* the standing mitigation: the
        // password proxy keeps covering the unfixable default account.
        assert!(p.contains(&SecurityModule::PasswordProxy));
    }

    #[test]
    fn compromise_quarantines() {
        let policy = compiled();
        let state = policy.schema.initial_state().with_context(
            &policy.schema,
            PLUG,
            SecurityContext::Compromised,
        );
        assert!(policy.posture_for(&state, PLUG).blocks_all());
    }

    #[test]
    fn actuation_gate_present_in_all_states() {
        let policy = compiled();
        for state in policy.schema.iter_states().take(64) {
            let p = policy.posture_for(&state, PLUG);
            if policy.schema.context_of(&state, PLUG) == Some(SecurityContext::Compromised) {
                assert!(p.blocks_all());
            } else {
                assert!(
                    p.contains(&SecurityModule::ContextGate {
                        var: EnvVar::Occupancy,
                        value: "present"
                    }),
                    "state {state:?}"
                );
            }
        }
    }

    #[test]
    fn mitigation_mapping_covers_all_classes() {
        for vuln in Vulnerability::all_classes() {
            assert!(!mitigation_for(&vuln).is_allow(), "{} unmitigated", vuln.id());
        }
    }

    #[test]
    fn protect_on_suspicion_compiles_fig3() {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[]);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        let policy = c.build();
        let state = policy.schema.initial_state().with_context(
            &policy.schema,
            DeviceId(0),
            SecurityContext::Suspicious,
        );
        assert!(policy
            .posture_for(&state, DeviceId(1))
            .contains(&SecurityModule::Block(BlockClass::OpenVerbs)));
    }
}
