//! `GlobalView` against an independent map-backed model.
//!
//! The view keeps its environment in a fixed `EnvVar`-indexed array; the
//! model below keeps it in a `BTreeMap`, the way the view itself did
//! before, and re-states the fold rules from the module docs. Under random
//! interleavings of environment reports (partial, repeated, out-of-domain
//! values included) and security events the two must agree call by call on
//! the `changed` result, and afterwards on `version`, `updated_at`, every
//! `env_value`, every context, and the policy state the controller builds
//! from the view.

use iotctl::controller::{Controller, ControllerConfig};
use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotnet::time::SimTime;
use iotpolicy::compile::PolicyCompiler;
use iotpolicy::context::SecurityContext;
use iotpolicy::policy::FsmPolicy;
use iotpolicy::state_space::SystemState;
use proptest::prelude::*;
use std::collections::BTreeMap;
use umbox::element::ViewHandle;

#[derive(Default)]
struct MapView {
    contexts: BTreeMap<DeviceId, SecurityContext>,
    env: BTreeMap<EnvVar, &'static str>,
    version: u64,
    updated_at: SimTime,
}

impl MapView {
    fn set_env(&mut self, var: EnvVar, value: &'static str) -> bool {
        self.env.insert(var, value) != Some(value)
    }

    fn escalate(&mut self, device: DeviceId, to: SecurityContext) -> bool {
        let cur = self.contexts.get(&device).copied().unwrap_or(SecurityContext::Normal);
        let next = cur.escalate(to);
        if next != cur {
            self.contexts.insert(device, next);
        }
        next != cur
    }

    fn apply_env_report(&mut self, at: SimTime, values: &[(EnvVar, &'static str)]) -> bool {
        let mut changed = false;
        for (var, value) in values {
            changed |= self.set_env(*var, value);
        }
        if changed {
            self.version += 1;
            self.updated_at = at;
        }
        changed
    }

    fn apply_event(&mut self, event: &SecurityEvent) -> bool {
        use SecurityEventKind::*;
        let changed = match event.kind {
            BackdoorAccessed | UnauthenticatedActuation => {
                self.escalate(event.device, SecurityContext::Compromised)
            }
            AuthFailureBurst
            | DefaultCredentialLogin
            | BlockedActuation
            | OpenResolverQuery
            | SignatureMatch
            | AnomalyFlagged
            | Unresponsive => self.escalate(event.device, SecurityContext::Suspicious),
            SmokeAlarm => self.set_env(EnvVar::Smoke, "yes"),
            SmokeCleared => self.set_env(EnvVar::Smoke, "no"),
            OccupancyChanged(p) => {
                self.set_env(EnvVar::Occupancy, if p { "present" } else { "absent" })
            }
            WindowChanged(o) => self.set_env(EnvVar::Window, if o { "open" } else { "closed" }),
        };
        if changed {
            self.version += 1;
            self.updated_at = event.at;
        }
        changed
    }

    fn state(&self, policy: &FsmPolicy) -> SystemState {
        let mut state = policy.schema.initial_state();
        for (id, ctx) in &self.contexts {
            state = state.with_context(&policy.schema, *id, *ctx);
        }
        for (var, value) in &self.env {
            state = state.with_env(&policy.schema, *var, value);
        }
        state
    }
}

const KINDS: [SecurityEventKind; 15] = [
    SecurityEventKind::AuthFailureBurst,
    SecurityEventKind::DefaultCredentialLogin,
    SecurityEventKind::BackdoorAccessed,
    SecurityEventKind::UnauthenticatedActuation,
    SecurityEventKind::BlockedActuation,
    SecurityEventKind::OpenResolverQuery,
    SecurityEventKind::SmokeAlarm,
    SecurityEventKind::SmokeCleared,
    SecurityEventKind::OccupancyChanged(true),
    SecurityEventKind::OccupancyChanged(false),
    SecurityEventKind::WindowChanged(true),
    SecurityEventKind::WindowChanged(false),
    SecurityEventKind::SignatureMatch,
    SecurityEventKind::AnomalyFlagged,
    SecurityEventKind::Unresponsive,
];

#[derive(Debug, Clone)]
enum Op {
    Report(Vec<(EnvVar, &'static str)>),
    Event(DeviceId, SecurityEventKind),
}

/// One `(var, value)` pair: any variable, any value of its domain, or a
/// value outside every domain (the view stores it; the policy state
/// ignores it).
fn pair() -> impl Strategy<Value = (EnvVar, &'static str)> {
    (0usize..EnvVar::ALL.len(), 0usize..4).prop_map(|(v, pick)| {
        let var = EnvVar::ALL[v];
        (var, var.domain().get(pick).copied().unwrap_or("out-of-domain"))
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(pair(), 0..10).prop_map(Op::Report),
        // Device 5 is outside the policy's schema on purpose.
        (0u32..6, 0usize..KINDS.len()).prop_map(|(d, k)| Op::Event(DeviceId(d), KINDS[k])),
    ]
}

fn gated_controller() -> Controller {
    let mut c = PolicyCompiler::new();
    c.device(DeviceId(0), DeviceClass::Camera, &[]);
    c.device(DeviceId(1), DeviceClass::SmartPlug, &[]);
    c.device(DeviceId(2), DeviceClass::WindowActuator, &[]);
    c.device(DeviceId(3), DeviceClass::FireAlarm, &[]);
    c.gate_actuation(DeviceId(1), EnvVar::Occupancy, "present");
    c.gate_actuation(DeviceId(2), EnvVar::Smoke, "yes");
    c.gate_actuation(DeviceId(2), EnvVar::Temperature, "high");
    c.protect_on_suspicion(DeviceId(3), DeviceId(2));
    Controller::new(c.build(), ControllerConfig::default(), ViewHandle::new())
}

proptest! {
    #[test]
    fn prop_array_view_equals_map_model(ops in prop::collection::vec(op(), 0..48)) {
        let mut ctl = gated_controller();
        let mut model = MapView::default();
        for (i, op) in ops.iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            let (got, want) = match op {
                Op::Report(values) => {
                    (ctl.view.apply_env_report(at, values), model.apply_env_report(at, values))
                }
                Op::Event(device, kind) => {
                    let e = SecurityEvent::new(at, *device, *kind);
                    (ctl.view.apply_event(&e), model.apply_event(&e))
                }
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(ctl.view.version, model.version);
            prop_assert_eq!(ctl.view.updated_at, model.updated_at);
            for var in EnvVar::ALL {
                prop_assert_eq!(ctl.view.env_value(var), model.env.get(&var).copied());
            }
            prop_assert_eq!(&ctl.view.contexts, &model.contexts);
            prop_assert_eq!(ctl.state_from_view(), model.state(&ctl.policy));
        }
    }
}
