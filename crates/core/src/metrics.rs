//! Ground-truth outcome metrics.
//!
//! The simulator knows exactly what happened — which devices accepted
//! attacker actuation, what data left, whether the window ended up open
//! with nobody home. These are the rows of the Table 1 / end-to-end
//! experiment outputs.

use iotctl::delivery::DeliveryStats;
use iotctl::safety::SafetyStats;
use iotdev::attacker::AttackOutcome;
use iotdev::device::DeviceId;
use iotnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated outcome of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Devices that accepted attacker control.
    pub compromised: BTreeSet<DeviceId>,
    /// Devices whose sensitive data left to a non-owner.
    pub privacy_leaked: BTreeSet<DeviceId>,
    /// Whether the run ended (or passed through) a physical breach
    /// state: window open or door unlocked while nobody is home.
    pub physical_breach: bool,
    /// When the first breach state was entered.
    pub breach_at: Option<SimTime>,
    /// Amplified DNS bytes delivered to the victim host.
    pub ddos_bytes_at_victim: u64,
    /// DNS queries the attacker fired.
    pub ddos_queries: u64,
    /// Packets dropped by µmbox chains.
    pub umbox_drops: u64,
    /// Packets answered by µmbox chains on a device's behalf (proxy
    /// denials).
    pub umbox_intercepts: u64,
    /// Packets dropped by switch policy (perimeter, quarantine rules).
    pub policy_drops: u64,
    /// Control-plane directives executed.
    pub directives: u64,
    /// Security events the controller processed.
    pub controller_events: u64,
    /// Per-step attacker outcomes.
    pub attack_outcomes: Vec<AttackOutcome>,
    /// Recipes the hub fired.
    pub recipes_fired: u64,
    /// Per-device cumulative time the device sat without effective
    /// protection: its chain's instance down, or its security events
    /// arriving while the control plane was down (chaos runs only).
    pub unprotected: BTreeMap<DeviceId, SimDuration>,
    /// Cumulative downtime spent in fail-open mode — windows where
    /// traffic crossed a down chain unfiltered.
    pub fail_open_exposure: SimDuration,
    /// Packets a down chain passed unfiltered (fail-open).
    pub missed_blocks: u64,
    /// Packets a down chain dropped outright (fail-closed).
    pub fail_closed_drops: u64,
    /// µmbox crash events injected.
    pub umbox_crashes: u64,
    /// µmbox instances the watchdog respawned.
    pub umbox_respawns: u64,
    /// Standby promotions the replicated control plane performed.
    pub controller_failovers: u64,
    /// Network faults the scheduler applied.
    pub faults_injected: u64,
    /// Directive-delivery channel counters (chaos runs only).
    pub delivery: DeliveryStats,
    /// Safety-monitor counters (safety-enabled runs only).
    pub safety: SafetyStats,
    /// Directives the admission controller refused under backlog.
    pub admission_shed: u64,
    /// Circuit-breaker trips across all devices.
    pub breaker_trips: u64,
}

impl Metrics {
    /// Whether the whole campaign succeeded (every step).
    pub fn campaign_succeeded(&self) -> bool {
        !self.attack_outcomes.is_empty() && self.attack_outcomes.iter().all(|o| o.success)
    }

    /// How many campaign steps succeeded.
    pub fn steps_succeeded(&self) -> usize {
        self.attack_outcomes.iter().filter(|o| o.success).count()
    }

    /// Whether the attack demonstrably reached its target: a device
    /// accepted attacker control, sensitive data left the home, or
    /// amplified traffic hit the DDoS victim. This is the vacuity
    /// oracle for defense-off arms — a defended run only *proves*
    /// anything if the same scenario lands undefended (see
    /// `iotsec-fuzz`'s differential oracle and the E23 campaign).
    pub fn attack_reached_target(&self) -> bool {
        !self.compromised.is_empty()
            || !self.privacy_leaked.is_empty()
            || self.ddos_bytes_at_victim > 0
    }

    /// Total unprotected time summed over every device.
    pub fn unprotected_total(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for d in self.unprotected.values() {
            total += *d;
        }
        total
    }

    /// A one-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "compromised={} leaks={} breach={} ddos_bytes={} steps_ok={}/{}",
            self.compromised.len(),
            self.privacy_leaked.len(),
            self.physical_breach,
            self.ddos_bytes_at_victim,
            self.steps_succeeded(),
            self.attack_outcomes.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_success_requires_all_steps() {
        let mut m = Metrics::default();
        assert!(!m.campaign_succeeded()); // empty = nothing succeeded
        m.attack_outcomes.push(AttackOutcome {
            step: 0,
            label: "a".into(),
            success: true,
            at: SimTime::ZERO,
        });
        assert!(m.campaign_succeeded());
        m.attack_outcomes.push(AttackOutcome {
            step: 1,
            label: "b".into(),
            success: false,
            at: SimTime::ZERO,
        });
        assert!(!m.campaign_succeeded());
        assert_eq!(m.steps_succeeded(), 1);
    }

    #[test]
    fn summary_is_stable() {
        let m = Metrics::default();
        assert!(m.summary().contains("compromised=0"));
    }
}
