//! Defense configurations.
//!
//! The evaluation compares three worlds:
//!
//! * **None** — the Internet of 2015: devices reachable as deployed.
//! * **Perimeter** — the traditional-IT baseline: a stateful perimeter
//!   firewall at the gateway. Crucially, it has the *UPnP pinholes* real
//!   deployments have — vulnerable devices that expose services (that is
//!   how SHODAN found every row of Table 1) punch through the perimeter,
//!   and LAN-resident attackers never touch it. This models the paper's
//!   "static perimeter defenses are unable to secure IoT devices".
//! * **IoTSec** — the paper's architecture: compiled FSM policy,
//!   context-tracking controller (flat or hierarchical), per-device
//!   µmbox chains on pooled micro-VMs.

use iotdev::proto::ports;
use iotdev::vuln::Vulnerability;
use iotnet::time::SimDuration;
use umbox::lifecycle::VmKind;

/// IoTSec configuration knobs (the experiment axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoTSecConfig {
    /// Hierarchical (coupling-partitioned) vs flat control plane.
    pub hierarchical: bool,
    /// Controller → data-plane view propagation delay (E8's axis).
    pub view_propagation: SimDuration,
    /// How µmboxes are instantiated (E9's axis).
    pub vm_kind: VmKind,
    /// Whether IDS chains are pre-loaded with the Table 1 signature set
    /// (as if the crowdsourced repository had already distributed them).
    pub signatures: bool,
}

impl Default for IoTSecConfig {
    fn default() -> Self {
        IoTSecConfig {
            hierarchical: false,
            view_propagation: SimDuration::from_millis(20),
            vm_kind: VmKind::UnikernelPooled,
            signatures: true,
        }
    }
}

/// The defense under test.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Defense {
    /// No network defense at all.
    #[default]
    None,
    /// Stateful perimeter firewall with UPnP pinholes.
    Perimeter,
    /// The paper's system.
    IoTSec(IoTSecConfig),
}

impl Defense {
    /// IoTSec with default knobs.
    pub fn iotsec() -> Defense {
        Defense::IoTSec(IoTSecConfig::default())
    }

    /// Whether this defense deploys the IoTSec stack.
    pub fn is_iotsec(&self) -> bool {
        matches!(self, Defense::IoTSec(_))
    }
}

/// The WAN-facing ports a vulnerable device exposes through the
/// perimeter (how each Table 1 row was reachable from the Internet in
/// the first place).
pub(crate) fn upnp_pinholes(vulns: &[Vulnerability]) -> Vec<u16> {
    let mut ports_open = Vec::new();
    for v in vulns {
        match v {
            Vulnerability::DefaultCredentials { .. } | Vulnerability::OpenMgmtAccess => {
                ports_open.push(ports::MGMT);
            }
            Vulnerability::ExposedKeyPair { .. } => {
                ports_open.push(ports::MGMT);
                ports_open.push(ports::CONTROL);
            }
            Vulnerability::NoAuthControl => ports_open.push(ports::CONTROL),
            Vulnerability::OpenDnsResolver => ports_open.push(ports::DNS),
            Vulnerability::CloudBypassBackdoor => ports_open.push(ports::CLOUD),
        }
    }
    ports_open.sort_unstable();
    ports_open.dedup();
    ports_open
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinholes_match_exposure_classes() {
        assert_eq!(upnp_pinholes(&[Vulnerability::default_admin_admin()]), vec![ports::MGMT]);
        assert_eq!(upnp_pinholes(&[Vulnerability::OpenDnsResolver]), vec![ports::DNS]);
        assert_eq!(upnp_pinholes(&[Vulnerability::CloudBypassBackdoor]), vec![ports::CLOUD]);
        let both = upnp_pinholes(&[Vulnerability::ExposedKeyPair { key: 1 }]);
        assert!(both.contains(&ports::MGMT) && both.contains(&ports::CONTROL));
        // Clean devices expose nothing.
        assert!(upnp_pinholes(&[]).is_empty());
    }

    #[test]
    fn defaults() {
        assert_eq!(Defense::default(), Defense::None);
        assert!(Defense::iotsec().is_iotsec());
        let cfg = IoTSecConfig::default();
        assert!(cfg.signatures);
        assert_eq!(cfg.vm_kind, VmKind::UnikernelPooled);
    }
}
