//! Security-relevant events.
//!
//! Devices and µmboxes report context changes to the IoTSec controller —
//! the paper's "events from devices and µmboxes" arrow in Figure 2. These
//! events are what flips a device's security context from `normal` to
//! `suspicious`/`compromised` in the policy state machine (Figure 3).

use crate::device::DeviceId;
use iotnet::addr::Ipv4Addr;
use iotnet::time::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityEventKind {
    /// Repeated failed management logins from one source (brute-force).
    AuthFailureBurst,
    /// A management login succeeded using known-default credentials.
    DefaultCredentialLogin,
    /// A command arrived over the vendor-cloud backdoor channel.
    BackdoorAccessed,
    /// An unauthenticated actuation command was accepted.
    UnauthenticatedActuation,
    /// A µmbox blocked an actuation attempt before it reached the device
    /// (the device is under attack, but not compromised).
    BlockedActuation,
    /// A DNS query from a non-local source was answered (open resolver
    /// in use — likely reflection).
    OpenResolverQuery,
    /// The device raised its smoke alarm.
    SmokeAlarm,
    /// The smoke alarm cleared.
    SmokeCleared,
    /// The camera/motion sensor's occupancy verdict changed.
    OccupancyChanged(bool),
    /// The window actuator reported a position change.
    WindowChanged(bool),
    /// A signature µmbox matched attack traffic.
    SignatureMatch,
    /// An anomaly detector flagged the device's behaviour.
    AnomalyFlagged,
    /// The device stopped responding (crash/failure injection).
    Unresponsive,
}

impl SecurityEventKind {
    /// Whether this event should escalate the device's security context
    /// (as opposed to merely updating the environment view).
    pub fn is_suspicious(self) -> bool {
        matches!(
            self,
            SecurityEventKind::AuthFailureBurst
                | SecurityEventKind::DefaultCredentialLogin
                | SecurityEventKind::BackdoorAccessed
                | SecurityEventKind::UnauthenticatedActuation
                | SecurityEventKind::BlockedActuation
                | SecurityEventKind::OpenResolverQuery
                | SecurityEventKind::SignatureMatch
                | SecurityEventKind::AnomalyFlagged
        )
    }
}

/// A timestamped, attributed security event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityEvent {
    /// When it happened.
    pub at: SimTime,
    /// The device it concerns.
    pub device: DeviceId,
    /// What happened.
    pub kind: SecurityEventKind,
    /// The remote address involved, if any.
    pub remote: Option<Ipv4Addr>,
}

impl SecurityEvent {
    /// Construct an event.
    pub fn new(at: SimTime, device: DeviceId, kind: SecurityEventKind) -> SecurityEvent {
        SecurityEvent { at, device, kind, remote: None }
    }

    /// Attach the remote peer address.
    pub fn from_remote(mut self, remote: Ipv4Addr) -> SecurityEvent {
        self.remote = Some(remote);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspicion_classification() {
        assert!(SecurityEventKind::AuthFailureBurst.is_suspicious());
        assert!(SecurityEventKind::BackdoorAccessed.is_suspicious());
        assert!(SecurityEventKind::SignatureMatch.is_suspicious());
        assert!(!SecurityEventKind::SmokeAlarm.is_suspicious());
        assert!(!SecurityEventKind::OccupancyChanged(true).is_suspicious());
        assert!(!SecurityEventKind::WindowChanged(false).is_suspicious());
    }

    #[test]
    fn builder_attaches_remote() {
        let e = SecurityEvent::new(SimTime::ZERO, DeviceId(3), SecurityEventKind::SmokeAlarm)
            .from_remote(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(e.remote, Some(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(e.device, DeviceId(3));
    }
}
