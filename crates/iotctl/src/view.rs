//! The controller's global view: device contexts + environment.
//!
//! The view is assembled from security events (reported by devices and
//! µmboxes) and periodic environment reports (from sensors via the hub).
//! It is versioned so consistency experiments can measure staleness
//! precisely.

use iotdev::device::DeviceId;
use iotdev::env::{EnvValues, EnvVar};
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotnet::time::SimTime;
use iotpolicy::context::SecurityContext;
use iotpolicy::state_space::{StateSchema, SystemState};
use std::collections::BTreeMap;

/// The controller's view of the world.
#[derive(Debug, Clone, Default)]
pub struct GlobalView {
    /// Device security contexts (devices default to `Normal`).
    pub contexts: BTreeMap<DeviceId, SecurityContext>,
    /// Environment values as last reported (empty until first reported).
    pub env: EnvValues,
    /// Monotone version, bumped on every change.
    pub version: u64,
    /// Time of the last change.
    pub updated_at: SimTime,
}

impl GlobalView {
    /// A fresh, empty view.
    pub(crate) fn new() -> GlobalView {
        GlobalView::default()
    }

    /// The context of a device (defaults to `Normal`).
    pub(crate) fn context(&self, id: DeviceId) -> SecurityContext {
        self.contexts.get(&id).copied().unwrap_or(SecurityContext::Normal)
    }

    /// An environment value, if known.
    pub fn env_value(&self, var: EnvVar) -> Option<&'static str> {
        self.env.get(var)
    }

    fn bump(&mut self, at: SimTime) {
        self.version += 1;
        self.updated_at = at;
    }

    /// Fold one security event into the view; returns whether the view
    /// changed.
    ///
    /// Escalation mapping: device-confirmed takeovers
    /// (`BackdoorAccessed`, `UnauthenticatedActuation`) mark the device
    /// `Compromised`; everything else suspicious marks it `Suspicious`;
    /// physical events update the environment.
    pub fn apply_event(&mut self, event: &SecurityEvent) -> bool {
        let mut changed = false;
        match event.kind {
            SecurityEventKind::BackdoorAccessed | SecurityEventKind::UnauthenticatedActuation => {
                changed = self.escalate(event.device, SecurityContext::Compromised);
            }
            k if k.is_suspicious() => {
                changed = self.escalate(event.device, SecurityContext::Suspicious);
            }
            SecurityEventKind::SmokeAlarm => changed = self.env.set(EnvVar::Smoke, "yes"),
            SecurityEventKind::SmokeCleared => changed = self.env.set(EnvVar::Smoke, "no"),
            SecurityEventKind::OccupancyChanged(present) => {
                changed =
                    self.env.set(EnvVar::Occupancy, if present { "present" } else { "absent" });
            }
            SecurityEventKind::WindowChanged(open) => {
                changed = self.env.set(EnvVar::Window, if open { "open" } else { "closed" });
            }
            SecurityEventKind::Unresponsive => {
                changed = self.escalate(event.device, SecurityContext::Suspicious);
            }
            _ => {}
        }
        if changed {
            self.bump(event.at);
        }
        changed
    }

    /// Apply an environment report (from sensors/hub); returns whether
    /// anything changed.
    pub fn apply_env_report(&mut self, at: SimTime, values: &[(EnvVar, &'static str)]) -> bool {
        let mut changed = false;
        for &(var, value) in values {
            changed |= self.env.set(var, value);
        }
        if changed {
            self.bump(at);
        }
        changed
    }

    fn escalate(&mut self, device: DeviceId, to: SecurityContext) -> bool {
        let cur = self.context(device);
        let next = cur.escalate(to);
        if next != cur {
            self.contexts.insert(device, next);
            true
        } else {
            false
        }
    }

    /// Overwrite `state` with the policy state this view describes under
    /// `schema`: the initial state, then every known context and
    /// environment value (an unknown variable keeps its first domain
    /// value, the benign default).
    pub(crate) fn write_state(&self, schema: &StateSchema, state: &mut SystemState) {
        schema.reset_state(state);
        for (&id, &ctx) in &self.contexts {
            state.set_context(schema, id, ctx);
        }
        for (var, value) in self.env.iter() {
            state.set_env(schema, var, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotnet::addr::Ipv4Addr;

    fn ev(kind: SecurityEventKind) -> SecurityEvent {
        SecurityEvent::new(SimTime::from_secs(1), DeviceId(0), kind)
            .from_remote(Ipv4Addr::new(100, 64, 0, 9))
    }

    #[test]
    fn suspicious_events_escalate_once() {
        let mut v = GlobalView::new();
        assert!(v.apply_event(&ev(SecurityEventKind::AuthFailureBurst)));
        assert_eq!(v.context(DeviceId(0)), SecurityContext::Suspicious);
        let version = v.version;
        // Re-applying the same level does not churn the version.
        assert!(!v.apply_event(&ev(SecurityEventKind::AuthFailureBurst)));
        assert_eq!(v.version, version);
    }

    #[test]
    fn takeover_events_mark_compromised_and_never_deescalate() {
        let mut v = GlobalView::new();
        v.apply_event(&ev(SecurityEventKind::BackdoorAccessed));
        assert_eq!(v.context(DeviceId(0)), SecurityContext::Compromised);
        // A later merely-suspicious event cannot downgrade.
        v.apply_event(&ev(SecurityEventKind::AuthFailureBurst));
        assert_eq!(v.context(DeviceId(0)), SecurityContext::Compromised);
    }

    #[test]
    fn blocked_actuation_is_only_suspicious() {
        let mut v = GlobalView::new();
        v.apply_event(&ev(SecurityEventKind::BlockedActuation));
        assert_eq!(v.context(DeviceId(0)), SecurityContext::Suspicious);
    }

    #[test]
    fn physical_events_update_env() {
        let mut v = GlobalView::new();
        v.apply_event(&ev(SecurityEventKind::SmokeAlarm));
        assert_eq!(v.env_value(EnvVar::Smoke), Some("yes"));
        v.apply_event(&ev(SecurityEventKind::OccupancyChanged(false)));
        assert_eq!(v.env_value(EnvVar::Occupancy), Some("absent"));
        v.apply_event(&ev(SecurityEventKind::WindowChanged(true)));
        assert_eq!(v.env_value(EnvVar::Window), Some("open"));
        v.apply_event(&ev(SecurityEventKind::SmokeCleared));
        assert_eq!(v.env_value(EnvVar::Smoke), Some("no"));
    }

    #[test]
    fn env_reports_and_versioning() {
        let mut v = GlobalView::new();
        let v0 = v.version;
        assert!(v.apply_env_report(SimTime::from_secs(2), &[(EnvVar::Temperature, "high")]));
        assert!(v.version > v0);
        // Unchanged report: no version bump.
        let v1 = v.version;
        assert!(!v.apply_env_report(SimTime::from_secs(3), &[(EnvVar::Temperature, "high")]));
        assert_eq!(v.version, v1);
    }
}
