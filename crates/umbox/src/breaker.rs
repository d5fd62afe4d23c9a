//! Per-µmbox circuit breakers.
//!
//! The chaos layer (PR 1) respawns a crashed µmbox after a fixed
//! watchdog delay — which is the right reflex for a one-off fault, but
//! under a crash *storm* it turns the lifecycle manager into a fork
//! bomb: every respawn burns a pooled unikernel slot, boots, and
//! crashes again, while the device's chain flaps between protected and
//! down. The breaker is the standard remedy, made deterministic:
//!
//! ```text
//!            crash ≥ TRIP_AFTER within WINDOW
//!   Closed ──────────────────────────────────► Open
//!     ▲                                          │ COOLDOWN elapses
//!     │ TRIAL window clean                       ▼
//!     └────────────────────────────────────── HalfOpen
//!                 (a crash in HalfOpen re-opens immediately)
//! ```
//!
//! While open, the device's chain serves its [`crate::chain::FailureMode`]
//! fallback (fail-open pass-through or fail-closed drop) and the
//! watchdog respawn is held until the cooldown expires
//! ([`crate::lifecycle::LifecycleManager::hold_respawn`]). Every
//! transition is a pure function of sim-time and the crash schedule, so
//! breaker behavior is pinned by the golden-trace harness like any
//! other enforcement-path event.

use iotdev::device::DeviceId;
use iotnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Crashes within `WINDOW` that trip the breaker.
const TRIP_AFTER: u32 = 2;
/// Sliding window over which crashes are counted.
const WINDOW: SimDuration = SimDuration::from_secs(30);
/// How long the breaker stays open before probing again.
const COOLDOWN: SimDuration = SimDuration::from_secs(15);
/// Clean serving time required in half-open before re-closing.
const TRIAL: SimDuration = SimDuration::from_secs(5);

/// Whether breakers run; their timings are the constants above, all
/// sim-time (no wall-clock anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Master switch; disabled breakers never leave `Closed`.
    pub enabled: bool,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { enabled: true }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Healthy: crashes are counted but the chain serves normally.
    Closed,
    /// Tripped: the chain serves its failure-mode fallback and respawns
    /// are held until the stored instant.
    Open {
        /// When the cooldown expires and the breaker half-opens.
        until: SimTime,
    },
    /// Probing: one respawned instance serves a trial window; a crash
    /// re-opens, a clean window re-closes.
    HalfOpen {
        /// When the trial window began.
        since: SimTime,
    },
}

/// A state transition worth tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// Closed/half-open → open.
    Tripped,
    /// Open → half-open (cooldown expired).
    HalfOpened,
    /// Half-open → closed (clean trial).
    Reclosed,
}

/// One device's breaker.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    /// Current state.
    pub state: BreakerState,
    /// Crash instants still inside the sliding window.
    recent: Vec<SimTime>,
    /// Times this breaker has tripped.
    pub trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub(crate) fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker { cfg, state: BreakerState::Closed, recent: Vec::new(), trips: 0 }
    }

    /// The hold deadline while open.
    pub(crate) fn open_until(&self) -> Option<SimTime> {
        match self.state {
            BreakerState::Open { until } => Some(until),
            _ => None,
        }
    }

    /// Record a crash at `now`. Returns `Some(Tripped)` exactly when
    /// this crash opens the breaker.
    pub(crate) fn on_crash(&mut self, now: SimTime) -> Option<BreakerEvent> {
        if !self.cfg.enabled {
            return None;
        }
        match self.state {
            BreakerState::Open { .. } => None,
            BreakerState::HalfOpen { .. } => {
                // The probe instance crashed: straight back to open.
                self.trip(now);
                Some(BreakerEvent::Tripped)
            }
            BreakerState::Closed => {
                let horizon = SimTime::from_nanos(now.as_nanos().saturating_sub(WINDOW.as_nanos()));
                self.recent.retain(|&t| t >= horizon);
                self.recent.push(now);
                if self.recent.len() as u32 >= TRIP_AFTER {
                    self.trip(now);
                    Some(BreakerEvent::Tripped)
                } else {
                    None
                }
            }
        }
    }

    /// Advance the state machine at `now`; `serving` is whether the
    /// device's instance currently serves traffic (half-open trials only
    /// count clean time while an instance is actually up).
    pub(crate) fn tick(&mut self, now: SimTime, serving: bool) -> Option<BreakerEvent> {
        if !self.cfg.enabled {
            return None;
        }
        match self.state {
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen { since: now };
                Some(BreakerEvent::HalfOpened)
            }
            BreakerState::HalfOpen { since } if serving && now >= since + TRIAL => {
                self.state = BreakerState::Closed;
                self.recent.clear();
                Some(BreakerEvent::Reclosed)
            }
            _ => None,
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open { until: now + COOLDOWN };
        self.recent.clear();
        self.trips += 1;
    }
}

/// The per-device breaker bank the world consults. Devices get a
/// breaker lazily on their first crash; a `BTreeMap` keeps every
/// iteration (and therefore every trace emission order) deterministic.
#[derive(Debug)]
pub struct BreakerBank {
    cfg: BreakerConfig,
    breakers: BTreeMap<DeviceId, CircuitBreaker>,
}

impl BreakerBank {
    /// An empty bank.
    pub fn new(cfg: BreakerConfig) -> BreakerBank {
        BreakerBank { cfg, breakers: BTreeMap::new() }
    }

    /// Record a crash for `device` at `now`.
    pub fn on_crash(&mut self, device: DeviceId, now: SimTime) -> Option<BreakerEvent> {
        if !self.cfg.enabled {
            return None;
        }
        self.breakers.entry(device).or_insert_with(|| CircuitBreaker::new(self.cfg)).on_crash(now)
    }

    /// Advance `device`'s breaker (no-op for devices that never
    /// crashed).
    pub fn tick(&mut self, device: DeviceId, now: SimTime, serving: bool) -> Option<BreakerEvent> {
        self.breakers.get_mut(&device).and_then(|b| b.tick(now, serving))
    }

    /// The respawn hold deadline for `device` while its breaker is
    /// open.
    pub fn open_until(&self, device: DeviceId) -> Option<SimTime> {
        self.breakers.get(&device).and_then(|b| b.open_until())
    }

    /// Total trips across all devices.
    pub fn trips(&self) -> u64 {
        self.breakers.values().map(|b| b.trips).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_on_repeated_crashes_within_window() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        assert_eq!(b.on_crash(SimTime::from_secs(1)), None);
        assert_eq!(b.on_crash(SimTime::from_secs(2)), Some(BreakerEvent::Tripped));
        assert!(b.open_until().is_some());
        assert_eq!(b.open_until(), Some(SimTime::from_secs(17)));
        assert_eq!(b.trips, 1);
        // Further crashes while open neither re-trip nor extend.
        assert_eq!(b.on_crash(SimTime::from_secs(3)), None);
        assert_eq!(b.open_until(), Some(SimTime::from_secs(17)));
    }

    #[test]
    fn crashes_outside_the_window_do_not_trip() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        assert_eq!(b.on_crash(SimTime::from_secs(1)), None);
        assert_eq!(b.on_crash(SimTime::from_secs(40)), None);
        assert_eq!(b.on_crash(SimTime::from_secs(41)), Some(BreakerEvent::Tripped));
    }

    #[test]
    fn full_cycle_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.on_crash(SimTime::from_secs(1));
        b.on_crash(SimTime::from_secs(2));
        assert!(b.open_until().is_some());
        // Cooldown not yet over.
        assert_eq!(b.tick(SimTime::from_secs(10), false), None);
        // Cooldown over: half-open.
        assert_eq!(b.tick(SimTime::from_secs(17), false), Some(BreakerEvent::HalfOpened));
        assert!(b.open_until().is_none());
        // Trial time only counts; not serving yet.
        assert_eq!(b.tick(SimTime::from_secs(22), false), None);
        // Serving through the trial: re-close.
        assert_eq!(b.tick(SimTime::from_secs(23), true), Some(BreakerEvent::Reclosed));
        assert_eq!(b.state, BreakerState::Closed);
        // The window reset with the close: one crash does not re-trip.
        assert_eq!(b.on_crash(SimTime::from_secs(24)), None);
    }

    #[test]
    fn crash_during_half_open_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.on_crash(SimTime::from_secs(1));
        b.on_crash(SimTime::from_secs(2));
        b.tick(SimTime::from_secs(17), false);
        assert_eq!(b.on_crash(SimTime::from_secs(18)), Some(BreakerEvent::Tripped));
        assert_eq!(b.open_until(), Some(SimTime::from_secs(33)));
        assert_eq!(b.trips, 2);
    }

    #[test]
    fn disabled_breaker_never_leaves_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig { enabled: false });
        for s in 0..10 {
            assert_eq!(b.on_crash(SimTime::from_secs(s)), None);
        }
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.trips, 0);
    }

    #[test]
    fn bank_tracks_devices_independently() {
        let mut bank = BreakerBank::new(BreakerConfig::default());
        let (a, b) = (DeviceId(0), DeviceId(1));
        bank.on_crash(a, SimTime::from_secs(1));
        bank.on_crash(b, SimTime::from_secs(1));
        assert_eq!(bank.on_crash(a, SimTime::from_secs(2)), Some(BreakerEvent::Tripped));
        assert!(bank.open_until(a).is_some());
        assert!(bank.open_until(b).is_none());
        assert_eq!(bank.open_until(a), Some(SimTime::from_secs(17)));
        assert_eq!(bank.open_until(b), None);
        assert_eq!(bank.trips(), 1);
        // Untouched devices tick as a no-op.
        assert_eq!(bank.tick(DeviceId(9), SimTime::from_secs(5), true), None);
    }
}
