//! Directives: what the controller tells the data plane to do.
//!
//! The simulation world executes these against the network (flow rules)
//! and the µmbox lifecycle manager. Ordering matters: the planner emits
//! make-before-break sequences (launch/reconfigure the new chain before
//! any un-steering), so a device is never left unprotected mid-update.

use iotdev::device::DeviceId;
use iotpolicy::posture::{Posture, SecurityModule};

/// How urgent a directive is when the delivery channel must shed.
///
/// The derive order is the semantic order — `quarantine > revoke >
/// patch-proxy > telemetry` — so `Ord` comparisons read naturally:
/// under queue pressure the lowest tier loses first, and an admission
/// controller under backlog keeps only the upper tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Pure observation: mirror-only postures, retires back to allow.
    Telemetry,
    /// Inline mediation: proxies, IDS, gates, rate limits, whitelists.
    PatchProxy,
    /// Partial revocation: a blocking module cuts a message class.
    Revoke,
    /// Full quarantine: a block-all posture.
    Quarantine,
}

impl Criticality {
    /// Stable label for trace payloads.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Criticality::Telemetry => "telemetry",
            Criticality::PatchProxy => "patch-proxy",
            Criticality::Revoke => "revoke",
            Criticality::Quarantine => "quarantine",
        }
    }
}

/// One control-plane directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Launch a µmbox chain realizing `posture` for `device` and steer
    /// the device's traffic through it.
    Launch {
        /// The device.
        device: DeviceId,
        /// The posture to realize.
        posture: Posture,
    },
    /// Reconfigure the device's existing chain to `posture` in place.
    Reconfigure {
        /// The device.
        device: DeviceId,
        /// The new posture.
        posture: Posture,
    },
    /// Retire the device's chain and stop steering.
    Retire {
        /// The device.
        device: DeviceId,
    },
}

impl Directive {
    /// The device a directive concerns.
    pub fn device(&self) -> DeviceId {
        match self {
            Directive::Launch { device, .. }
            | Directive::Reconfigure { device, .. }
            | Directive::Retire { device } => *device,
        }
    }

    /// The delivery criticality, derived from the directive's content.
    ///
    /// Deliberately *not* a stored field: the idempotence ID
    /// (`directive_id`) hashes the directive's debug
    /// representation, so an extra field would change every ID and
    /// break dedup across versions. Deriving keeps the wire content —
    /// and the IDs — exactly as they were.
    pub fn criticality(&self) -> Criticality {
        match self {
            Directive::Retire { .. } => Criticality::Telemetry,
            Directive::Launch { posture, .. } | Directive::Reconfigure { posture, .. } => {
                if posture.blocks_all() {
                    Criticality::Quarantine
                } else if posture.modules().iter().any(|m| m.is_blocking()) {
                    Criticality::Revoke
                } else if posture.modules().iter().all(|m| matches!(m, SecurityModule::Mirror)) {
                    Criticality::Telemetry
                } else {
                    Criticality::PatchProxy
                }
            }
        }
    }
}

/// Plan the directive sequence that moves a device from `old` to `new`.
pub(crate) fn plan_transition(device: DeviceId, old: &Posture, new: &Posture) -> Option<Directive> {
    match (old.is_allow(), new.is_allow()) {
        (true, true) => None,
        (true, false) => Some(Directive::Launch { device, posture: new.clone() }),
        (false, true) => Some(Directive::Retire { device }),
        (false, false) => {
            if old == new {
                None
            } else {
                Some(Directive::Reconfigure { device, posture: new.clone() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotpolicy::posture::SecurityModule;

    #[test]
    fn transitions_cover_the_matrix() {
        let dev = DeviceId(3);
        let allow = Posture::allow();
        let proxy = Posture::of(SecurityModule::PasswordProxy);
        let hard = Posture::quarantine();
        assert_eq!(plan_transition(dev, &allow, &allow), None);
        assert_eq!(
            plan_transition(dev, &allow, &proxy),
            Some(Directive::Launch { device: dev, posture: proxy.clone() })
        );
        assert_eq!(plan_transition(dev, &proxy, &allow), Some(Directive::Retire { device: dev }));
        assert_eq!(
            plan_transition(dev, &proxy, &hard),
            Some(Directive::Reconfigure { device: dev, posture: hard.clone() })
        );
        assert_eq!(plan_transition(dev, &hard, &hard), None);
    }

    #[test]
    fn directive_device_accessor() {
        assert_eq!(Directive::Retire { device: DeviceId(7) }.device(), DeviceId(7));
    }

    #[test]
    fn criticality_orders_quarantine_over_revoke_over_proxy_over_telemetry() {
        assert!(Criticality::Quarantine > Criticality::Revoke);
        assert!(Criticality::Revoke > Criticality::PatchProxy);
        assert!(Criticality::PatchProxy > Criticality::Telemetry);
    }

    #[test]
    fn criticality_is_derived_from_content() {
        let dev = DeviceId(1);
        let launch = |p: Posture| Directive::Launch { device: dev, posture: p };
        assert_eq!(launch(Posture::quarantine()).criticality(), Criticality::Quarantine);
        assert_eq!(
            launch(Posture::of(SecurityModule::Block(
                iotpolicy::posture::BlockClass::DnsResponses
            )))
            .criticality(),
            Criticality::Revoke
        );
        assert_eq!(
            launch(Posture::of(SecurityModule::PasswordProxy)).criticality(),
            Criticality::PatchProxy
        );
        assert_eq!(
            launch(Posture::of(SecurityModule::Mirror)).criticality(),
            Criticality::Telemetry
        );
        assert_eq!(
            Directive::Retire { device: dev }.criticality(),
            Criticality::Telemetry,
            "retire relaxes protection; it must never outrank installs"
        );
        // Reconfigure follows the same posture-derived rule as launch.
        let reconf = Directive::Reconfigure { device: dev, posture: Posture::quarantine() };
        assert_eq!(reconf.criticality(), Criticality::Quarantine);
    }
}
