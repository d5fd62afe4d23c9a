//! Deterministic chaos: the fault schedule of a run.
//!
//! A [`ChaosConfig`] attached to a [`crate::Deployment`] turns the world
//! into a hostile place in a *reproducible* way: every fault — link
//! flaps, loss bursts, µmbox crashes, controller outages — is
//! either placed explicitly or derived from `seed` alone, so two runs
//! with the same deployment and the same chaos seed produce
//! byte-identical [`crate::metrics::Metrics`].
//!
//! The config also fixes the *degradation semantics* of the enforcement
//! path while it is degraded:
//!
//! * [`FailureMode`] decides what a chain does with traffic while its
//!   µmbox instance is down — `FailOpen` passes unfiltered (availability
//!   over security), `FailClosed` drops (security over availability).
//! * `watchdog_delay` is how long a crashed instance sits before the
//!   lifecycle watchdog respawns it from the pool.
//! * `standby_controller` pairs the flat controller with a warm standby
//!   ([`iotctl::failover`]), and `delivery` sizes the hardened directive
//!   channel ([`iotctl::delivery`]) that chaos runs route directives
//!   through.

use iotctl::delivery::DeliveryConfig;
use iotdev::device::DeviceId;
use iotnet::time::{SimDuration, SimTime};
use umbox::chain::FailureMode;

/// The fault schedule and degradation semantics of a chaos run.
///
/// Counts (`link_flaps`, `loss_bursts`, …) are placed pseudo-randomly
/// from `seed` within `[0, horizon)`; the `*_at` vectors place faults
/// explicitly (experiments use these for precise timelines). Both kinds
/// compose.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for pseudo-random fault placement (independent of the
    /// deployment's traffic seed).
    pub seed: u64,
    /// Window within which seeded faults are placed.
    pub horizon: SimDuration,

    /// Seeded device-uplink flaps (fail, then heal).
    pub link_flaps: u32,
    /// How long a flapped uplink stays down before healing.
    pub flap_downtime: SimDuration,
    /// Seeded loss bursts on device uplinks.
    pub loss_bursts: u32,
    /// Loss probability during a burst.
    pub burst_loss: f64,
    /// Seeded µmbox crashes (of devices that have a chain installed).
    pub umbox_crashes: u32,
    /// Seeded controller outages.
    pub controller_outages: u32,
    /// Controller-outage duration.
    pub outage_len: SimDuration,

    /// Explicit uplink flaps: `(device, down_at, heal_at)`.
    pub flap_uplink: Vec<(DeviceId, SimTime, SimTime)>,
    /// Explicit µmbox crashes: `(at, device)`.
    pub crash_at: Vec<(SimTime, DeviceId)>,
    /// Explicit controller outages: `(from, duration)`.
    pub outage_at: Vec<(SimTime, SimDuration)>,

    /// What a chain does with traffic while its instance is down.
    pub failure_mode: FailureMode,
    /// Crash-to-respawn delay of the lifecycle watchdog.
    pub watchdog_delay: SimDuration,
    /// Pair the flat controller with a warm standby.
    pub standby_controller: bool,
    /// Directive-delivery channel capacity.
    pub delivery: DeliveryConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            horizon: SimDuration::from_secs(60),
            link_flaps: 0,
            flap_downtime: SimDuration::from_secs(2),
            loss_bursts: 0,
            burst_loss: 0.5,
            umbox_crashes: 0,
            controller_outages: 0,
            outage_len: SimDuration::from_secs(10),
            flap_uplink: Vec::new(),
            crash_at: Vec::new(),
            outage_at: Vec::new(),
            failure_mode: FailureMode::FailOpen,
            watchdog_delay: SimDuration::from_secs(5),
            standby_controller: false,
            delivery: DeliveryConfig::default(),
        }
    }
}

impl ChaosConfig {
    /// An empty schedule (chaos plumbing active, no faults).
    pub fn new() -> ChaosConfig {
        ChaosConfig::default()
    }

    /// Set the placement seed.
    pub fn with_seed(mut self, seed: u64) -> ChaosConfig {
        self.seed = seed;
        self
    }

    /// Crash `device`'s µmbox at `at` (respawned after
    /// `watchdog_delay`).
    pub fn crash(mut self, at: SimTime, device: DeviceId) -> ChaosConfig {
        self.crash_at.push((at, device));
        self
    }

    /// Flap `device`'s uplink: down at `down_at`, healed at `heal_at`.
    pub fn flap(mut self, device: DeviceId, down_at: SimTime, heal_at: SimTime) -> ChaosConfig {
        self.flap_uplink.push((device, down_at, heal_at));
        self
    }

    /// Take the controller down at `from` for `duration`.
    pub fn outage(mut self, from: SimTime, duration: SimDuration) -> ChaosConfig {
        self.outage_at.push((from, duration));
        self
    }

    /// Chains drop traffic while their instance is down.
    pub fn fail_closed(mut self) -> ChaosConfig {
        self.failure_mode = FailureMode::FailClosed;
        self
    }

    /// Deploy a warm standby controller.
    pub fn with_standby(mut self) -> ChaosConfig {
        self.standby_controller = true;
        self
    }

    /// Set the watchdog respawn delay.
    pub fn with_watchdog(mut self, delay: SimDuration) -> ChaosConfig {
        self.watchdog_delay = delay;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ChaosConfig::new()
            .with_seed(7)
            .crash(SimTime::from_secs(5), DeviceId(1))
            .flap(DeviceId(0), SimTime::from_secs(1), SimTime::from_secs(3))
            .outage(SimTime::from_secs(10), SimDuration::from_secs(20))
            .fail_closed()
            .with_standby();
        assert_eq!(c.seed, 7);
        assert_eq!(c.crash_at.len(), 1);
        assert_eq!(c.flap_uplink.len(), 1);
        assert_eq!(c.outage_at.len(), 1);
        assert_eq!(c.failure_mode, FailureMode::FailClosed);
        assert!(c.standby_controller);
    }
}
