//! Taming state explosion (§3.2's "open question").
//!
//! The paper: *"we believe that in practice it might be possible to prune
//! and collapse this giant FSM by exploiting some domain-specific
//! opportunities. For example, if we know that two specific device types
//! are inherently independent, or if the intended security posture is the
//! same for a set of similar states, then we can potentially prune the
//! state space."* This module implements both opportunities:
//!
//! * **Independence factoring** — a union–find over the slots each policy
//!   rule actually touches partitions the schema into independent
//!   components; the controller tracks each component separately, so the
//!   effective state count is the *sum* of component sizes instead of
//!   their *product*.
//! * **Posture collapsing** — states with identical posture vectors are
//!   operationally indistinguishable; counting equivalence classes
//!   measures how much of the product space is real.
//!
//! Factoring is *sound*: rules never span components (by construction),
//! so evaluating a device's posture from its component's projection gives
//! exactly the full-state answer. A property test pins this down.

use crate::policy::FsmPolicy;
use crate::state_space::StateSchema;
use std::collections::HashMap;

/// A slot in the schema: a device's context or an environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Device slot index.
    Device(usize),
    /// Environment-variable slot index.
    Env(usize),
}

/// One independent component of the factored space.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Member slots.
    pub slots: Vec<Slot>,
    /// Exact number of states of this component.
    pub size: u128,
}

/// The factored state space.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredSpace {
    /// Independent components.
    pub components: Vec<Component>,
}

impl FactoredSpace {
    /// Effective number of states the controller must track: the sum of
    /// component sizes (each component evolves independently).
    pub fn effective_states(&self) -> u128 {
        self.components.iter().map(|c| c.size).sum()
    }

    /// The raw product-space size, for the explosion ratio.
    pub(crate) fn raw_states(&self) -> u128 {
        self.components.iter().map(|c| c.size).product()
    }

    /// Explosion ratio: raw / effective (≥ 1).
    pub fn reduction_ratio(&self) -> f64 {
        let eff = self.effective_states().max(1) as f64;
        self.raw_states() as f64 / eff
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

fn slot_sizes(schema: &StateSchema) -> Vec<(Slot, u128)> {
    let mut slots = Vec::new();
    for (i, d) in schema.devices.iter().enumerate() {
        slots.push((Slot::Device(i), d.contexts.len() as u128));
    }
    for (j, v) in schema.env_vars.iter().enumerate() {
        slots.push((Slot::Env(j), v.domain().len() as u128));
    }
    slots
}

/// Factor a policy's schema into independent components: two slots are
/// coupled iff some rule mentions both (in its pattern or its posture
/// targets).
pub fn factor(policy: &FsmPolicy) -> FactoredSpace {
    let schema = &policy.schema;
    let slots = slot_sizes(schema);
    let index_of = |slot: Slot| -> usize {
        match slot {
            Slot::Device(i) => i,
            Slot::Env(j) => schema.devices.len() + j,
        }
    };
    let mut uf = UnionFind::new(slots.len());
    for rule in &policy.rules {
        let mut touched: Vec<Slot> = Vec::new();
        for id in rule.pattern.contexts.keys() {
            if let Some(i) = schema.device_slot(*id) {
                touched.push(Slot::Device(i));
            }
        }
        for var in rule.pattern.env.keys() {
            if let Some(j) = schema.env_slot(*var) {
                touched.push(Slot::Env(j));
            }
        }
        for id in rule.postures.keys() {
            if let Some(i) = schema.device_slot(*id) {
                touched.push(Slot::Device(i));
            }
        }
        // Context gates reference an env var inside the posture itself.
        for posture in rule.postures.values() {
            for module in posture.modules() {
                if let crate::posture::SecurityModule::ContextGate { var, .. } = module {
                    if let Some(j) = schema.env_slot(*var) {
                        touched.push(Slot::Env(j));
                    }
                }
            }
        }
        for pair in touched.windows(2) {
            uf.union(index_of(pair[0]), index_of(pair[1]));
        }
        if let (Some(first), true) = (touched.first(), touched.len() > 1) {
            // windows(2) already chains everything; this keeps the intent
            // explicit for a single touched slot (no-op).
            let _ = first;
        }
    }
    let mut groups: HashMap<usize, Vec<(Slot, u128)>> = HashMap::new();
    for (slot, size) in &slots {
        let root = uf.find(index_of(*slot));
        groups.entry(root).or_default().push((*slot, *size));
    }
    let mut components: Vec<Component> = groups
        .into_values()
        .map(|members| Component {
            size: members.iter().map(|(_, s)| *s).product(),
            slots: members.into_iter().map(|(s, _)| s).collect(),
        })
        .collect();
    components.sort_by_key(|c| c.slots.clone().into_iter().map(slot_key).min());
    components.iter_mut().for_each(|c| c.slots.sort_by_key(|s| slot_key(*s)));
    FactoredSpace { components }
}

fn slot_key(s: Slot) -> (u8, usize) {
    match s {
        Slot::Device(i) => (0, i),
        Slot::Env(j) => (1, j),
    }
}

/// Count posture-equivalence classes by full enumeration. `None` if the
/// space exceeds `limit` states.
///
/// Runs on the packed memoized engine ([`crate::explore`]) when the
/// schema packs into a `u128` word — each distinct rule-match set is
/// evaluated once, each state costs a handful of word operations — and
/// falls back to `collapse_count_naive` otherwise. The two engines are
/// differentially tested equal over the same space.
pub fn collapse_count(policy: &FsmPolicy, limit: u128) -> Option<usize> {
    if policy.schema.size() > limit {
        return None;
    }
    match crate::explore::explore_packed(policy, 1) {
        Some(stats) => Some(stats.classes as usize),
        None => collapse_count_naive(policy, limit),
    }
}

/// The legacy class count: clone and evaluate every state through
/// [`FsmPolicy::evaluate`], key classes by the canonical `Debug`
/// rendering. Kept as the differential reference (and the fallback for
/// unpackable schemas); E19 benchmarks it against the packed engines.
pub(crate) fn collapse_count_naive(policy: &FsmPolicy, limit: u128) -> Option<usize> {
    if policy.schema.size() > limit {
        return None;
    }
    // Key classes by a canonical rendering (PostureVector is ordered
    // maps/sorted vecs throughout, so Debug output is canonical) to keep
    // this linear in the number of states.
    let mut classes: std::collections::HashSet<String> = std::collections::HashSet::new();
    for state in policy.schema.iter_states() {
        let v = policy.evaluate(&state);
        classes.insert(format!("{v:?}"));
    }
    Some(classes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PolicyCompiler;
    use crate::policy::figure3_policy;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::env::EnvVar;
    use iotdev::vuln::Vulnerability;

    #[test]
    fn unrelated_devices_factor_apart() {
        // Two devices with only per-device escalation rules: independent.
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::Camera, &[]);
        c.device(DeviceId(1), DeviceClass::LightBulb, &[]);
        let policy = c.build();
        let f = factor(&policy);
        assert_eq!(f.components.len(), 2);
        // 3 contexts each: raw 9, effective 6.
        assert_eq!(f.raw_states(), 9);
        assert_eq!(f.effective_states(), 6);
        assert!(f.reduction_ratio() > 1.0);
    }

    #[test]
    fn cross_device_rule_couples() {
        let policy = figure3_policy(DeviceId(0), DeviceId(1));
        let f = factor(&policy);
        // The fire alarm and the window are coupled by the fig3 rule; the
        // two env vars (smoke, window) are untouched by rules → separate.
        let dev_component =
            f.components.iter().find(|c| c.slots.contains(&Slot::Device(0))).unwrap();
        assert!(dev_component.slots.contains(&Slot::Device(1)));
    }

    #[test]
    fn context_gate_couples_env_var() {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::SmartPlug, &[]);
        c.env(EnvVar::Occupancy);
        c.gate_actuation(DeviceId(0), EnvVar::Occupancy, "present");
        let policy = c.build();
        let f = factor(&policy);
        let plug_comp =
            f.components.iter().find(|comp| comp.slots.contains(&Slot::Device(0))).unwrap();
        let occ_slot = Slot::Env(policy.schema.env_slot(EnvVar::Occupancy).unwrap());
        assert!(plug_comp.slots.contains(&occ_slot));
    }

    #[test]
    fn factoring_is_sound_exhaustively() {
        // Evaluate every device's posture from its component projection
        // and compare with the full-state evaluation.
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[Vulnerability::NoAuthControl]);
        c.device(DeviceId(2), DeviceClass::LightBulb, &[]);
        c.env(EnvVar::Smoke);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        let policy = c.build();
        let f = factor(&policy);
        for state in policy.schema.iter_states() {
            let full = policy.evaluate(&state);
            for comp in &f.components {
                // Slots outside the component reset to their first value.
                let mut projected = policy.schema.initial_state();
                for slot in &comp.slots {
                    match *slot {
                        Slot::Device(i) => projected.contexts[i] = state.contexts[i],
                        Slot::Env(j) => projected.env[j] = state.env[j],
                    }
                }
                let part = policy.evaluate(&projected);
                for slot in &comp.slots {
                    if let Slot::Device(i) = slot {
                        let id = policy.schema.devices[*i].id;
                        assert_eq!(
                            full.posture(id),
                            part.posture(id),
                            "device {id} state {state:?} component {comp:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn collapse_counts_real_classes() {
        let policy = figure3_policy(DeviceId(0), DeviceId(1));
        let classes = collapse_count(&policy, 1 << 16).unwrap();
        // 16 raw states but far fewer distinct posture vectors.
        assert!(classes < 16, "classes = {classes}");
        assert!(classes >= 3); // normal/alarm-suspicious/window-suspicious at least
    }

    #[test]
    fn collapse_respects_limit() {
        let policy = figure3_policy(DeviceId(0), DeviceId(1));
        assert!(collapse_count(&policy, 4).is_none());
        assert!(collapse_count_naive(&policy, 4).is_none());
    }

    #[test]
    fn packed_and_naive_collapse_agree() {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[Vulnerability::NoAuthControl]);
        c.env(EnvVar::Smoke);
        c.env(EnvVar::Temperature);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        let policy = c.build();
        assert_eq!(
            collapse_count(&policy, 1 << 20).unwrap(),
            collapse_count_naive(&policy, 1 << 20).unwrap(),
        );
    }

    #[test]
    fn reduction_grows_with_devices() {
        // The E1 shape: raw grows exponentially, effective linearly, so
        // the ratio explodes with device count.
        let ratio_at = |n: u32| {
            let mut c = PolicyCompiler::new();
            for i in 0..n {
                c.device(DeviceId(i), DeviceClass::Camera, &[]);
            }
            factor(&c.build()).reduction_ratio()
        };
        let r4 = ratio_at(4);
        let r8 = ratio_at(8);
        assert!(r8 > r4 * 10.0, "r4={r4} r8={r8}");
    }
}
