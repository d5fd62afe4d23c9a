//! The system state space `S = Π|Cᵢ| × Π|Eⱼ|`.
//!
//! A [`StateSchema`] declares, for one deployment, which devices exist
//! (with the context values each can take) and which environment
//! variables are tracked. A [`SystemState`] is one point in the product
//! space. The schema can count its states exactly (the paper's
//! combinatorial-explosion observation, experiment E1) and iterate them
//! for exhaustive checking on small deployments.

use crate::context::SecurityContext;
use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotnet::hash::WordMap;

/// One device's slot in the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceVar {
    /// The device.
    pub id: DeviceId,
    /// Its class (used by pruning and compilation).
    pub class: DeviceClass,
    /// The context values this device can take.
    pub contexts: Vec<SecurityContext>,
}

/// The shape of a deployment's state space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateSchema {
    /// Devices, in slot order.
    pub devices: Vec<DeviceVar>,
    /// Tracked environment variables, in slot order.
    pub env_vars: Vec<EnvVar>,
    /// Precomputed id → slot maps, maintained by the `add_*` methods.
    /// Pattern compilation and rule factoring resolve slots per rule per
    /// lookup; with hundreds of devices the former O(devices) scan
    /// dominated policy compilation.
    dev_index: WordMap<DeviceId, usize>,
    /// Indexed by the variable itself.
    env_index: [Option<usize>; EnvVar::ALL.len()],
}

impl StateSchema {
    /// An empty schema.
    pub fn new() -> StateSchema {
        StateSchema::default()
    }

    /// Add a device with the default two-valued context domain
    /// (`normal` / `suspicious`).
    pub(crate) fn add_device(&mut self, id: DeviceId, class: DeviceClass) -> &mut Self {
        self.add_device_with(id, class, vec![SecurityContext::Normal, SecurityContext::Suspicious])
    }

    /// Add a device with an explicit context domain.
    pub fn add_device_with(
        &mut self,
        id: DeviceId,
        class: DeviceClass,
        contexts: Vec<SecurityContext>,
    ) -> &mut Self {
        assert!(!contexts.is_empty(), "context domain must be non-empty");
        // First occurrence wins, matching what the linear scan resolved.
        self.dev_index.entry(id).or_insert(self.devices.len());
        self.devices.push(DeviceVar { id, class, contexts });
        self
    }

    /// Track an environment variable.
    pub fn add_env(&mut self, var: EnvVar) -> &mut Self {
        if self.env_index[var as usize].is_none() {
            self.env_index[var as usize] = Some(self.env_vars.len());
            self.env_vars.push(var);
        }
        self
    }

    /// Slot index of a device — O(1) via the precomputed index.
    pub(crate) fn device_slot(&self, id: DeviceId) -> Option<usize> {
        self.dev_index.get(&id).copied()
    }

    /// Slot index of an environment variable — O(1) via the precomputed
    /// index.
    pub(crate) fn env_slot(&self, var: EnvVar) -> Option<usize> {
        self.env_index[var as usize]
    }

    /// Exact size of the state space: `Π|Cᵢ| × Π|Eⱼ|`.
    ///
    /// Returns a `u128`; realistic deployments overflow `u64` fast, which
    /// is the paper's point.
    pub fn size(&self) -> u128 {
        let dev: u128 = self.devices.iter().map(|d| d.contexts.len() as u128).product();
        let env: u128 = self.env_vars.iter().map(|v| v.domain().len() as u128).product();
        dev.saturating_mul(env)
    }

    /// The fully-`normal`, first-env-value state.
    pub fn initial_state(&self) -> SystemState {
        let mut state = SystemState::default();
        self.reset_state(&mut state);
        state
    }

    /// Overwrite `state` with [`StateSchema::initial_state`] in place,
    /// keeping its buffers.
    pub fn reset_state(&self, state: &mut SystemState) {
        state.contexts.clear();
        state.contexts.extend(self.devices.iter().map(|d| d.contexts[0]));
        state.env.clear();
        state.env.resize(self.env_vars.len(), 0);
    }

    /// Iterate the entire space in odometer order. Only sensible for
    /// small schemas; the exhaustive-equivalence experiments guard size.
    pub fn iter_states(&self) -> StateIter<'_> {
        StateIter { schema: self, next: Some(self.initial_state()) }
    }

    /// The env-variable domain value of `state` at `var`, if tracked.
    pub(crate) fn env_value(&self, state: &SystemState, var: EnvVar) -> Option<&'static str> {
        let slot = self.env_slot(var)?;
        var.domain().get(state.env[slot] as usize).copied()
    }

    /// The context of `id` in `state`, if the device is in the schema.
    pub(crate) fn context_of(&self, state: &SystemState, id: DeviceId) -> Option<SecurityContext> {
        let slot = self.device_slot(id)?;
        state.contexts.get(slot).copied()
    }
}

/// One concrete system state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SystemState {
    /// Per-device contexts, by schema slot.
    pub contexts: Vec<SecurityContext>,
    /// Per-env-var domain indices, by schema slot.
    pub env: Vec<u8>,
}

impl SystemState {
    /// Set the context of the device in `slot`.
    pub fn with_context(
        mut self,
        schema: &StateSchema,
        id: DeviceId,
        ctx: SecurityContext,
    ) -> Self {
        self.set_context(schema, id, ctx);
        self
    }

    /// [`SystemState::with_context`] in place.
    pub fn set_context(&mut self, schema: &StateSchema, id: DeviceId, ctx: SecurityContext) {
        if let Some(slot) = schema.device_slot(id) {
            self.contexts[slot] = ctx;
        }
    }

    /// Set an environment variable by value name.
    pub fn with_env(mut self, schema: &StateSchema, var: EnvVar, value: &str) -> Self {
        self.set_env(schema, var, value);
        self
    }

    /// [`SystemState::with_env`] in place.
    pub fn set_env(&mut self, schema: &StateSchema, var: EnvVar, value: &str) {
        if let Some(slot) = schema.env_slot(var) {
            if let Some(idx) = var.domain().iter().position(|v| *v == value) {
                self.env[slot] = idx as u8;
            }
        }
    }
}

/// Odometer-order iterator over a schema's full state space.
pub struct StateIter<'a> {
    schema: &'a StateSchema,
    next: Option<SystemState>,
}

impl Iterator for StateIter<'_> {
    type Item = SystemState;

    fn next(&mut self) -> Option<SystemState> {
        let current = self.next.clone()?;
        // Advance the odometer: env vars are the low digits, devices high.
        let mut s = current.clone();
        let mut carried = true;
        for (slot, var) in self.schema.env_vars.iter().enumerate() {
            if !carried {
                break;
            }
            let dom = var.domain().len() as u8;
            s.env[slot] += 1;
            if s.env[slot] < dom {
                carried = false;
            } else {
                s.env[slot] = 0;
            }
        }
        if carried {
            for (slot, dev) in self.schema.devices.iter().enumerate() {
                let cur_idx = dev.contexts.iter().position(|c| *c == s.contexts[slot]).unwrap_or(0);
                if cur_idx + 1 < dev.contexts.len() {
                    s.contexts[slot] = dev.contexts[cur_idx + 1];
                    carried = false;
                    break;
                } else {
                    s.contexts[slot] = dev.contexts[0];
                }
            }
        }
        self.next = if carried { None } else { Some(s) };
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_device_schema() -> StateSchema {
        let mut s = StateSchema::new();
        s.add_device(DeviceId(0), DeviceClass::FireAlarm)
            .add_device(DeviceId(1), DeviceClass::WindowActuator)
            .add_env(EnvVar::Smoke)
            .add_env(EnvVar::Window);
        s
    }

    #[test]
    fn size_is_product() {
        let s = two_device_schema();
        // 2 contexts × 2 contexts × |smoke|=2 × |window|=2 = 16.
        assert_eq!(s.size(), 16);
    }

    #[test]
    fn iterator_visits_each_state_once() {
        let s = two_device_schema();
        let states: Vec<_> = s.iter_states().collect();
        assert_eq!(states.len() as u128, s.size());
        let mut dedup = states.clone();
        dedup.sort_by_key(|st| (st.contexts.clone(), st.env.clone()));
        dedup.dedup();
        assert_eq!(dedup.len(), states.len());
    }

    #[test]
    fn state_explosion_overflows_u64_scale() {
        // 40 devices with 4 contexts and all 7 env vars: the "brute force
        // is impractical" regime the paper warns about.
        let mut s = StateSchema::new();
        for i in 0..40 {
            s.add_device_with(DeviceId(i), DeviceClass::Camera, SecurityContext::ALL.to_vec());
        }
        for v in EnvVar::ALL {
            s.add_env(v);
        }
        assert!(s.size() > u64::MAX as u128 / 4);
    }

    #[test]
    fn slot_indices_match_positions() {
        let s = two_device_schema();
        for (i, d) in s.devices.iter().enumerate() {
            assert_eq!(s.device_slot(d.id), Some(i));
        }
        for (j, v) in s.env_vars.iter().enumerate() {
            assert_eq!(s.env_slot(*v), Some(j));
        }
        assert_eq!(s.device_slot(DeviceId(99)), None);
        assert_eq!(s.env_slot(EnvVar::Door), None);
        // Duplicate device id: the first slot wins, as the old linear
        // scan resolved it.
        let mut dup = StateSchema::new();
        dup.add_device(DeviceId(7), DeviceClass::Camera).add_device(DeviceId(7), DeviceClass::Oven);
        assert_eq!(dup.device_slot(DeviceId(7)), Some(0));
        // Re-adding a tracked env var keeps its slot.
        let mut env = StateSchema::new();
        env.add_env(EnvVar::Smoke).add_env(EnvVar::Window).add_env(EnvVar::Smoke);
        assert_eq!(env.env_slot(EnvVar::Smoke), Some(0));
        assert_eq!(env.env_slot(EnvVar::Window), Some(1));
    }

    #[test]
    fn state_accessors() {
        let s = two_device_schema();
        let st = s
            .initial_state()
            .with_context(&s, DeviceId(0), SecurityContext::Suspicious)
            .with_env(&s, EnvVar::Smoke, "yes");
        assert_eq!(s.context_of(&st, DeviceId(0)), Some(SecurityContext::Suspicious));
        assert_eq!(s.context_of(&st, DeviceId(1)), Some(SecurityContext::Normal));
        assert_eq!(s.env_value(&st, EnvVar::Smoke), Some("yes"));
        assert_eq!(s.env_value(&st, EnvVar::Window), Some("closed"));
        assert_eq!(s.env_value(&st, EnvVar::Door), None); // untracked
    }

    #[test]
    fn with_env_and_context_builders() {
        let schema = two_device_schema();
        let st = schema
            .initial_state()
            .with_context(&schema, DeviceId(1), SecurityContext::Suspicious)
            .with_env(&schema, EnvVar::Window, "open");
        assert_eq!(schema.context_of(&st, DeviceId(1)), Some(SecurityContext::Suspicious));
        assert_eq!(schema.env_value(&st, EnvVar::Window), Some("open"));
    }

    proptest! {
        #[test]
        fn prop_iter_count_matches_closed_form(
            n_devices in 0usize..4,
            ctx_sizes in proptest::collection::vec(1usize..4, 0..4),
            env_mask in 0u8..8,
        ) {
            let mut schema = StateSchema::new();
            for i in 0..n_devices {
                let n_ctx = ctx_sizes.get(i).copied().unwrap_or(2);
                schema.add_device_with(
                    DeviceId(i as u32),
                    DeviceClass::Camera,
                    SecurityContext::ALL[..n_ctx].to_vec(),
                );
            }
            for (bit, var) in [EnvVar::Smoke, EnvVar::Window, EnvVar::Occupancy].iter().enumerate() {
                if env_mask & (1 << bit) != 0 {
                    schema.add_env(*var);
                }
            }
            let count = schema.iter_states().count() as u128;
            prop_assert_eq!(count, schema.size());
        }
    }
}
