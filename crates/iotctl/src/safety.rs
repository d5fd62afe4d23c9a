//! Runtime safety monitor for the enforcement path.
//!
//! The chaos layer (PR 1) injects faults; the trace layer (PR 3) records
//! what happened. This module closes the loop: a [`SafetyMonitor`] that
//! *subscribes to the deterministic trace stream* (reusing the
//! Control-class events from `trace` — no parallel instrumentation
//! channel) plus a small set of per-device data-plane facts, and checks
//! four invariants every simulation tick:
//!
//! * **Fail-closed coverage** — no packet traverses a port whose
//!   required µmbox chain is down. A down fail-open chain that passes
//!   packets is a coverage hole; every tick it leaks is a violation.
//! * **Posture monotonicity** — the *effective* posture of a device
//!   never becomes more permissive during a controller outage than it
//!   was when the outage began.
//! * **Bounded staleness** — the controller's view cannot go stale
//!   beyond a per-device-class budget; actuators get a tighter budget
//!   than sensors because a stale actuation gate does physical harm.
//! * **FSM policy continuity** — active policy FSMs never silently
//!   reset across a failover: after a promotion, the installed-posture
//!   fingerprint must not remain *empty* past a recovery window when it
//!   was non-empty before.
//!
//! Violations are recorded as [`TraceEvent::SafetyViolation`] events —
//! they land in the same deterministic stream the golden-trace harness
//! diffs. When escalation is enabled, repeated violations (or a circuit
//! breaker trip, observed from the stream) push the device into a
//! **quarantine posture**: an IDIoT-style per-class minimal allow-list
//! installed into the edge switch (see `iotnet::flow::quarantine_rules`
//! and `iotpolicy::posture::quarantine_allowlist`).
//!
//! The monitor is pure with respect to sim-time: identical tick inputs
//! produce identical violations, escalations and trace output, so the
//! golden-trace harness pins its behavior like any other subsystem.

use crate::directive::Criticality;
use iotdev::device::{DeviceClass, DeviceId};
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::posture::PostureVector;
use std::collections::{BTreeMap, BTreeSet};
use trace::event::TraceEvent;
use trace::tracer::Tracer;
use umbox::breaker::BreakerConfig;

/// Tighter staleness budget for actuating classes (locks, plugs, ovens,
/// traffic lights...): a stale gate can do physical harm.
const ACTUATOR_STALENESS_BUDGET: SimDuration = SimDuration::from_secs(5);
/// How long after a failover the installed-posture fingerprint may
/// remain empty before the monitor calls it a silent FSM reset.
const CONTINUITY_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Violations a device may accrue before escalation to quarantine.
const QUARANTINE_AFTER: u32 = 3;

/// Safety-monitor tuning. `None` in the deployment means the whole
/// subsystem is inert (no monitor, no breakers, no admission control).
#[derive(Debug, Clone, Copy)]
pub struct SafetyConfig {
    /// Staleness budget for non-actuating device classes.
    pub staleness_budget: SimDuration,
    /// Whether the monitor escalates at all. `false` = detect-only
    /// (used as the measurement baseline in experiment E18).
    pub escalate: bool,
    /// Directive backlog above which the admission controller sheds
    /// whole-class recomputes below [`Criticality::Revoke`].
    pub admission_backlog: usize,
    /// Whether per-µmbox circuit breakers run (their timings are
    /// constants in `umbox::breaker`).
    pub breaker: BreakerConfig,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            staleness_budget: SimDuration::from_secs(10),
            escalate: true,
            admission_backlog: 32,
            breaker: BreakerConfig::default(),
        }
    }
}

impl SafetyConfig {
    /// A detect-only configuration: same invariants, same budgets, but
    /// no escalation and no breakers. E18 runs this as the baseline so
    /// both arms *measure* violations identically and differ only in
    /// whether anything acts on them.
    pub fn detect_only() -> Self {
        SafetyConfig {
            escalate: false,
            breaker: BreakerConfig { enabled: false },
            ..SafetyConfig::default()
        }
    }

    /// The staleness budget for a device class.
    pub(crate) fn staleness_budget_for(&self, class: DeviceClass) -> SimDuration {
        if is_actuator(class) {
            ACTUATOR_STALENESS_BUDGET
        } else {
            self.staleness_budget
        }
    }
}

/// Whether a class actuates the physical world (tighter staleness
/// budget). Mirrors the control-plane set in
/// `iotpolicy::posture::class_allowlist`.
fn is_actuator(class: DeviceClass) -> bool {
    matches!(
        class,
        DeviceClass::SmartPlug
            | DeviceClass::WindowActuator
            | DeviceClass::LightBulb
            | DeviceClass::SmartLock
            | DeviceClass::Oven
            | DeviceClass::Thermostat
            | DeviceClass::TrafficLight
    )
}

/// Admission decision for a directive about to enter the delivery
/// channel: under backlog pressure only [`Criticality::Revoke`] and
/// above are admitted — whole-class posture recomputes (patch proxies,
/// telemetry retires) wait for the backlog to drain.
pub fn admit(cfg: &SafetyConfig, backlog: usize, criticality: Criticality) -> bool {
    backlog <= cfg.admission_backlog || criticality >= Criticality::Revoke
}

/// Counters the monitor accumulates; exported with the run metrics.
#[derive(Debug, Clone, Default)]
pub struct SafetyStats {
    /// Total invariant violations recorded.
    pub violations: u64,
    /// Fail-closed coverage holes (ticks that leaked packets).
    pub coverage_violations: u64,
    /// Staleness-budget overruns (one per device per outage episode).
    pub staleness_violations: u64,
    /// Posture-monotonicity regressions during outages.
    pub monotonicity_violations: u64,
    /// Silent FSM resets across failover.
    pub continuity_violations: u64,
    /// Devices escalated into the quarantine posture.
    pub quarantines: u64,
    /// Sim-time device-ticks spent quarantined (ns, summed per device).
    pub quarantine_time_ns: u64,
    /// Summed sim-time from fault onset to first detection (ns).
    pub detection_latency_ns_total: u64,
    /// Detection episodes with a measured latency.
    pub detections: u64,
}

/// Per-device data-plane facts the world hands the monitor each tick.
///
/// These are *observations*, not a side channel: everything here is
/// already true in the world state, and the monitor only combines them
/// with the trace stream — it never mutates the world directly.
#[derive(Debug, Clone, Copy)]
pub struct DeviceFacts {
    /// The device.
    pub device: DeviceId,
    /// Its class (selects the staleness budget and quarantine list).
    pub class: DeviceClass,
    /// Whether a required µmbox chain is steered for this device.
    pub protected: bool,
    /// Whether that chain is currently down (crash or breaker-open).
    pub chain_down: bool,
    /// Whether the chain fails open (passes unfiltered while down).
    pub fail_open: bool,
    /// Cumulative packets the chain passed unfiltered while down.
    pub fail_open_passed: u64,
}

impl DeviceFacts {
    /// Whether the device's traffic is effectively mediated right now.
    fn mediated(&self) -> bool {
        self.protected && !(self.chain_down && self.fail_open)
    }
}

/// The runtime safety monitor. Create one per world when
/// [`SafetyConfig`] is set; call [`SafetyMonitor::tick`] once per
/// simulation tick after the control step.
pub struct SafetyMonitor {
    cfg: SafetyConfig,
    /// The deterministic trace stream: read via a cursor (Control-class
    /// events only matter) and written for violation/quarantine events.
    tracer: Tracer,
    cursor: usize,
    stats: SafetyStats,
    /// Fingerprint of an empty installed vector (the reset signature).
    empty_fingerprint: u64,
    /// Controller outage episode currently in progress.
    outage_since: Option<SimTime>,
    /// Devices mediated when the current outage began.
    mediated_at_outage: BTreeSet<DeviceId>,
    /// Devices already flagged for staleness this episode.
    staleness_flagged: BTreeSet<DeviceId>,
    /// Devices already flagged for monotonicity this episode.
    monotonicity_flagged: BTreeSet<DeviceId>,
    /// Cumulative fail-open counter at the last tick, per device.
    last_fail_open: BTreeMap<DeviceId, u64>,
    /// When each device's chain was first seen down (current episode).
    chain_down_since: BTreeMap<DeviceId, SimTime>,
    /// Devices whose current down-episode already has a measured
    /// detection latency.
    latency_measured: BTreeSet<DeviceId>,
    /// Last fingerprint observed while the controller was healthy and
    /// no recovery was pending.
    healthy_fingerprint: Option<u64>,
    /// Armed by a `Failover` trace event: (pre-failover fingerprint,
    /// recovery deadline).
    expected_recovery: Option<(u64, SimTime)>,
    /// Per-device violation tallies (drive escalation).
    violation_count: BTreeMap<DeviceId, u32>,
    /// Devices in the quarantine posture. Sticky for the run: releasing
    /// quarantine would itself violate posture monotonicity mid-chaos.
    quarantined: BTreeSet<DeviceId>,
    last_tick: Option<SimTime>,
}

impl SafetyMonitor {
    /// A monitor reading from (and emitting into) `tracer`.
    pub fn new(cfg: SafetyConfig, tracer: Tracer) -> SafetyMonitor {
        SafetyMonitor {
            cfg,
            tracer,
            cursor: 0,
            stats: SafetyStats::default(),
            empty_fingerprint: PostureVector::new().fingerprint(),
            outage_since: None,
            mediated_at_outage: BTreeSet::new(),
            staleness_flagged: BTreeSet::new(),
            monotonicity_flagged: BTreeSet::new(),
            last_fail_open: BTreeMap::new(),
            chain_down_since: BTreeMap::new(),
            latency_measured: BTreeSet::new(),
            healthy_fingerprint: None,
            expected_recovery: None,
            violation_count: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            last_tick: None,
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &SafetyConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &SafetyStats {
        &self.stats
    }

    fn record(&mut self, now: SimTime, device: DeviceId, invariant: &'static str) {
        self.stats.violations += 1;
        match invariant {
            "fail-closed-coverage" => self.stats.coverage_violations += 1,
            "bounded-staleness" => self.stats.staleness_violations += 1,
            "posture-monotonicity" => self.stats.monotonicity_violations += 1,
            _ => self.stats.continuity_violations += 1,
        }
        *self.violation_count.entry(device).or_insert(0) += 1;
        self.tracer
            .emit(now.as_nanos(), TraceEvent::SafetyViolation { device: device.0, invariant });
    }

    /// Evaluate every invariant for this tick.
    ///
    /// * `ctl_down` — whether the control plane can currently serve.
    /// * `installed_fingerprint` — the active controller's
    ///   installed-posture fingerprint (continuity invariant).
    /// * `facts` — per-device observations, in device-id order.
    ///
    /// Returns the devices that must *newly* enter quarantine, in id
    /// order; the world realizes each by installing the per-class
    /// minimal allow-list at the device's edge switch.
    pub fn tick(
        &mut self,
        now: SimTime,
        ctl_down: bool,
        installed_fingerprint: u64,
        facts: &[DeviceFacts],
    ) -> Vec<DeviceId> {
        // Accrue time-in-quarantine before processing this tick.
        if let Some(last) = self.last_tick {
            let dt = now.duration_since(last).as_nanos();
            self.stats.quarantine_time_ns += dt * self.quarantined.len() as u64;
        }
        self.last_tick = Some(now);

        // 1. Drain the trace stream: failovers arm the continuity
        //    check; breaker trips escalate straight to quarantine.
        let mut tripped: Vec<DeviceId> = Vec::new();
        for (_, event) in self.tracer.events_since(self.cursor) {
            self.cursor += 1;
            match event {
                TraceEvent::Failover { .. } => {
                    let pre = self.healthy_fingerprint.unwrap_or(self.empty_fingerprint);
                    self.expected_recovery = Some((pre, now + CONTINUITY_WINDOW));
                }
                TraceEvent::BreakerTrip { device } => tripped.push(DeviceId(device)),
                _ => {}
            }
        }

        // 2. Controller outage bookkeeping (staleness + monotonicity
        //    both key off the episode).
        if ctl_down {
            if self.outage_since.is_none() {
                self.outage_since = Some(now);
                self.mediated_at_outage =
                    facts.iter().filter(|f| f.mediated()).map(|f| f.device).collect();
            }
        } else {
            self.outage_since = None;
            self.mediated_at_outage.clear();
            self.staleness_flagged.clear();
            self.monotonicity_flagged.clear();
        }

        // 3. Per-device invariants.
        for f in facts {
            // Fail-closed coverage: a down chain that leaked packets
            // this tick is a coverage hole.
            let last = self.last_fail_open.insert(f.device, f.fail_open_passed).unwrap_or(0);
            let leaked = f.fail_open_passed.saturating_sub(last);
            if f.chain_down {
                let since = *self.chain_down_since.entry(f.device).or_insert(now);
                if leaked > 0 {
                    self.record(now, f.device, "fail-closed-coverage");
                    if self.latency_measured.insert(f.device) {
                        self.stats.detection_latency_ns_total +=
                            now.duration_since(since).as_nanos();
                        self.stats.detections += 1;
                    }
                }
            } else {
                self.chain_down_since.remove(&f.device);
                self.latency_measured.remove(&f.device);
            }

            if let Some(since) = self.outage_since {
                // Bounded staleness: the data plane is enforcing a view
                // whose age exceeds the class budget.
                if now.duration_since(since) > self.cfg.staleness_budget_for(f.class)
                    && self.staleness_flagged.insert(f.device)
                {
                    self.record(now, f.device, "bounded-staleness");
                }
                // Posture monotonicity: mediated at outage start, now
                // effectively permissive — the outage *relaxed* it.
                if self.mediated_at_outage.contains(&f.device)
                    && !f.mediated()
                    && self.monotonicity_flagged.insert(f.device)
                {
                    self.record(now, f.device, "posture-monotonicity");
                }
            }
        }

        // 4. FSM continuity across failover: once the controller is
        //    healthy again, an installed vector still *empty* past the
        //    recovery window means the promoted replica silently lost
        //    its FSMs (the log replay or reconcile never happened).
        if !ctl_down {
            if let Some((pre, deadline)) = self.expected_recovery {
                if installed_fingerprint == pre
                    || (installed_fingerprint != self.empty_fingerprint && now >= deadline)
                {
                    // Recovered (or legitimately evolved past the
                    // pre-failover posture while replaying the log).
                    self.expected_recovery = None;
                } else if now >= deadline {
                    self.record(now, DeviceId(0), "fsm-continuity");
                    self.expected_recovery = None;
                }
            } else {
                self.healthy_fingerprint = Some(installed_fingerprint);
            }
        }

        // 5. Escalation: breaker trips quarantine immediately; repeat
        //    offenders quarantine after `QUARANTINE_AFTER` violations.
        let mut newly = Vec::new();
        if self.cfg.escalate {
            for device in tripped {
                if self.quarantined.insert(device) {
                    newly.push(device);
                }
            }
            for f in facts {
                let count = self.violation_count.get(&f.device).copied().unwrap_or(0);
                if count >= QUARANTINE_AFTER && self.quarantined.insert(f.device) {
                    newly.push(f.device);
                }
            }
            newly.sort_unstable();
            self.stats.quarantines += newly.len() as u64;
            for device in &newly {
                self.tracer
                    .emit(now.as_nanos(), TraceEvent::QuarantineInstalled { device: device.0 });
            }
        }
        newly
    }
}

/// One invariant violation found in a trace, either recorded live by
/// the [`SafetyMonitor`] or derived structurally by [`check_trace`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Sim-time of the violating event (ns).
    pub at_ns: u64,
    /// The device concerned (0 for world-level invariants).
    pub device: u32,
    /// Which invariant failed (stable label, see module docs).
    pub invariant: &'static str,
}

/// Pure trace-level invariant check: everything the safety layer
/// promises that is decidable from the deterministic event stream
/// alone, callable outside the world loop (the E23 vet oracle runs it
/// over finished traces; tests feed it synthetic streams).
///
/// Invariants checked, with their `invariant` labels:
///
/// * **monitor pass-through** — every [`TraceEvent::SafetyViolation`]
///   the live monitor recorded is surfaced verbatim under its original
///   label (`fail-closed-coverage`, `bounded-staleness`,
///   `posture-monotonicity`, `fsm-continuity`).
/// * **`trace-order`** — Control-class timestamps never decrease: the
///   control plane's history is a valid sim-time order. (Packet-class
///   events are stamped with network arrival times that legitimately
///   lag the world clock, so they are exempt.)
/// * **`quarantine-reinstall`** — quarantine is sticky for a run; a
///   second [`TraceEvent::QuarantineInstalled`] for the same device
///   means posture monotonicity broke inside the escalation path
///   itself.
/// * **`post-quarantine-leak`** — no compromised flow crosses the edge
///   post-quarantine: once a device is quarantined, any
///   [`TraceEvent::UmboxExit`] with a `fail-open` verdict for it is
///   traffic that crossed the edge *unfiltered* past the allow-list.
/// * **`breaker-fsm`** — breaker events respect the trip → half-open →
///   (close | re-trip) state machine per device.
/// * **`mixed-failure-mode`** — a chain's failure mode is fixed at
///   deployment; one device emitting both `fail-open` and
///   `fail-closed` verdicts in a single run is a config split-brain.
/// * **`delivery-unquiesced`** — directive delivery eventually
///   quiesces: by the end of the trace every issued directive has
///   resolved (delivered, deduped, shed, or admission-shed).
pub fn check_trace(events: &[(u64, TraceEvent)]) -> Vec<Violation> {
    #[derive(Clone, Copy, PartialEq)]
    enum Breaker {
        Closed,
        Open,
        Half,
    }
    let mut out = Vec::new();
    let mut last_at = 0u64;
    let mut quarantined: BTreeSet<u32> = BTreeSet::new();
    let mut breaker: BTreeMap<u32, Breaker> = BTreeMap::new();
    // Per-device (issued, resolved) directive tallies.
    let mut issued: BTreeMap<u32, u64> = BTreeMap::new();
    let mut resolved: BTreeMap<u32, u64> = BTreeMap::new();
    let mut verdict_mode: BTreeMap<u32, &'static str> = BTreeMap::new();
    for &(at, ref event) in events {
        // Packet-class events carry network arrival times that can lag
        // the world clock; only the control plane promises order.
        if event.class() == trace::EventClass::Control {
            if at < last_at {
                out.push(Violation { at_ns: at, device: 0, invariant: "trace-order" });
            }
            last_at = last_at.max(at);
        }
        match *event {
            TraceEvent::SafetyViolation { device, invariant } => {
                out.push(Violation { at_ns: at, device, invariant });
            }
            TraceEvent::QuarantineInstalled { device } if !quarantined.insert(device) => {
                out.push(Violation { at_ns: at, device, invariant: "quarantine-reinstall" });
            }
            TraceEvent::QuarantineInstalled { .. } => {}
            TraceEvent::UmboxExit { device, verdict } => {
                if verdict == "fail-open" && quarantined.contains(&device) {
                    out.push(Violation { at_ns: at, device, invariant: "post-quarantine-leak" });
                }
                if verdict == "fail-open" || verdict == "fail-closed" {
                    let mode = verdict_mode.entry(device).or_insert(verdict);
                    if *mode != verdict {
                        out.push(Violation { at_ns: at, device, invariant: "mixed-failure-mode" });
                    }
                }
            }
            TraceEvent::BreakerTrip { device } => {
                let state = breaker.entry(device).or_insert(Breaker::Closed);
                if *state == Breaker::Open {
                    out.push(Violation { at_ns: at, device, invariant: "breaker-fsm" });
                }
                *state = Breaker::Open;
            }
            TraceEvent::BreakerHalfOpen { device } => {
                let state = breaker.entry(device).or_insert(Breaker::Closed);
                if *state != Breaker::Open {
                    out.push(Violation { at_ns: at, device, invariant: "breaker-fsm" });
                }
                *state = Breaker::Half;
            }
            TraceEvent::BreakerClose { device } => {
                let state = breaker.entry(device).or_insert(Breaker::Closed);
                if *state != Breaker::Half {
                    out.push(Violation { at_ns: at, device, invariant: "breaker-fsm" });
                }
                *state = Breaker::Closed;
            }
            TraceEvent::DirectiveIssued { device, .. } => {
                *issued.entry(device).or_insert(0) += 1;
            }
            TraceEvent::DirectiveDelivered { device, .. }
            | TraceEvent::DirectiveDeduped { device }
            | TraceEvent::DirectiveShed { device, .. }
            | TraceEvent::AdmissionShed { device } => {
                *resolved.entry(device).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for (&device, &n) in &issued {
        if n > resolved.get(&device).copied().unwrap_or(0) {
            out.push(Violation { at_ns: last_at, device, invariant: "delivery-unquiesced" });
        }
    }
    out.sort();
    out
}

/// [`check_trace`] plus the fail-closed-deployment obligation: breaker
/// trips (or anything else) must never fail a FailClosed chain *open* —
/// a single `fail-open` µmbox verdict in the whole run is flagged as
/// **`fail-open-in-fail-closed`**. Use on traces of deployments whose
/// chaos config is fail-closed (the vet oracle's default arm).
pub fn check_trace_fail_closed(events: &[(u64, TraceEvent)]) -> Vec<Violation> {
    let mut out = check_trace(events);
    for &(at, ref event) in events {
        if let TraceEvent::UmboxExit { device, verdict: "fail-open" } = *event {
            out.push(Violation { at_ns: at, device, invariant: "fail-open-in-fail-closed" });
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::tracer::{TraceConfig, Tracer};

    fn facts(device: u32, protected: bool, down: bool, passed: u64) -> DeviceFacts {
        DeviceFacts {
            device: DeviceId(device),
            class: DeviceClass::Camera,
            protected,
            chain_down: down,
            fail_open: true,
            fail_open_passed: passed,
        }
    }

    fn monitor(cfg: SafetyConfig) -> (SafetyMonitor, Tracer) {
        let tracer = Tracer::new(TraceConfig::control_only());
        (SafetyMonitor::new(cfg, tracer.clone()), tracer)
    }

    #[test]
    fn healthy_world_records_no_violations() {
        let (mut m, _t) = monitor(SafetyConfig::default());
        for s in 0..20u64 {
            let now = SimTime::from_millis(100 * s);
            let out = m.tick(now, false, 42, &[facts(1, true, false, 0)]);
            assert!(out.is_empty());
        }
        assert_eq!(m.stats().violations, 0);
    }

    #[test]
    fn leaking_down_chain_is_a_coverage_violation_per_tick() {
        let (mut m, _t) = monitor(SafetyConfig { escalate: false, ..SafetyConfig::default() });
        m.tick(SimTime::ZERO, false, 1, &[facts(1, true, false, 0)]);
        // Chain goes down at t=1s; packets leak at t=2s and t=3s.
        m.tick(SimTime::from_secs(1), false, 1, &[facts(1, true, true, 0)]);
        m.tick(SimTime::from_secs(2), false, 1, &[facts(1, true, true, 3)]);
        m.tick(SimTime::from_secs(3), false, 1, &[facts(1, true, true, 5)]);
        // A down chain that leaks nothing this tick is not a new hole.
        m.tick(SimTime::from_secs(4), false, 1, &[facts(1, true, true, 5)]);
        assert_eq!(m.stats().coverage_violations, 2);
        // Latency measured once, from down-onset (1s) to first leak (2s).
        assert_eq!(m.stats().detections, 1);
        assert_eq!(m.stats().detection_latency_ns_total, SimDuration::from_secs(1).as_nanos());
    }

    #[test]
    fn staleness_uses_the_class_budget_once_per_episode() {
        let cfg = SafetyConfig { escalate: false, ..SafetyConfig::default() };
        let (mut m, _t) = monitor(cfg);
        let sensor = facts(1, true, false, 0);
        let actuator = DeviceFacts { class: DeviceClass::SmartLock, ..facts(2, true, false, 0) };
        // Outage starts at t=0 and runs 12s.
        for s in 0..=12u64 {
            m.tick(SimTime::from_secs(s), true, 1, &[sensor, actuator]);
        }
        // Actuator flagged past 5s, sensor past 10s; each exactly once.
        assert_eq!(m.stats().staleness_violations, 2);
        // A second outage episode flags again.
        m.tick(SimTime::from_secs(13), false, 1, &[sensor, actuator]);
        for s in 14..=26u64 {
            m.tick(SimTime::from_secs(s), true, 1, &[sensor, actuator]);
        }
        assert_eq!(m.stats().staleness_violations, 4);
    }

    #[test]
    fn outage_relaxation_is_a_monotonicity_violation() {
        let cfg = SafetyConfig { escalate: false, ..SafetyConfig::default() };
        let (mut m, _t) = monitor(cfg);
        // Mediated when the outage begins...
        m.tick(SimTime::ZERO, true, 1, &[facts(1, true, false, 0)]);
        // ...then the chain goes down fail-open mid-outage.
        m.tick(SimTime::from_secs(1), true, 1, &[facts(1, true, true, 0)]);
        assert_eq!(m.stats().monotonicity_violations, 1);
        // Already unmediated when a *later* outage begins: no regression.
        m.tick(SimTime::from_secs(2), false, 1, &[facts(1, true, true, 0)]);
        m.tick(SimTime::from_secs(3), true, 1, &[facts(1, true, true, 0)]);
        assert_eq!(m.stats().monotonicity_violations, 1);
    }

    #[test]
    fn silent_fsm_reset_across_failover_is_flagged() {
        let cfg = SafetyConfig { escalate: false, ..SafetyConfig::default() };
        let empty = PostureVector::new().fingerprint();
        let (mut m, t) = monitor(cfg);
        // Healthy with a non-empty installed vector.
        m.tick(SimTime::ZERO, false, 99, &[]);
        t.emit(SimTime::from_secs(1).as_nanos(), TraceEvent::Failover { count: 1 });
        m.tick(SimTime::from_secs(1), true, 99, &[]);
        // Promoted replica serves but its installed vector stays empty
        // past the continuity window: silent reset.
        for s in 2..=12u64 {
            m.tick(SimTime::from_secs(s), false, empty, &[]);
        }
        assert_eq!(m.stats().continuity_violations, 1);
    }

    #[test]
    fn recovered_fingerprint_satisfies_continuity() {
        let cfg = SafetyConfig { escalate: false, ..SafetyConfig::default() };
        let (mut m, t) = monitor(cfg);
        m.tick(SimTime::ZERO, false, 99, &[]);
        t.emit(SimTime::from_secs(1).as_nanos(), TraceEvent::Failover { count: 1 });
        m.tick(SimTime::from_secs(1), true, 99, &[]);
        // The promoted replica reconciles back to the same posture.
        for s in 2..=12u64 {
            m.tick(SimTime::from_secs(s), false, 99, &[]);
        }
        assert_eq!(m.stats().continuity_violations, 0);
    }

    #[test]
    fn repeat_offenders_escalate_to_quarantine_and_stay_there() {
        let (mut m, _t) = monitor(SafetyConfig::default());
        m.tick(SimTime::ZERO, false, 1, &[facts(1, true, false, 0)]);
        // Two leaking ticks: two violations, still below the threshold.
        m.tick(SimTime::from_secs(1), false, 1, &[facts(1, true, true, 2)]);
        m.tick(SimTime::from_secs(2), false, 1, &[facts(1, true, true, 4)]);
        assert!(m.quarantined.is_empty());
        let newly = m.tick(SimTime::from_secs(3), false, 1, &[facts(1, true, true, 6)]);
        assert_eq!(newly, vec![DeviceId(1)]);
        assert!(m.quarantined.iter().eq([&DeviceId(1)]));
        assert_eq!(m.stats().quarantines, 1);
        // Sticky: no re-quarantine, but time accrues.
        let again = m.tick(SimTime::from_secs(4), false, 1, &[facts(1, true, true, 8)]);
        assert!(again.is_empty());
        assert_eq!(m.stats().quarantine_time_ns, SimDuration::from_secs(1).as_nanos());
    }

    #[test]
    fn breaker_trip_in_the_stream_quarantines_immediately() {
        let (mut m, t) = monitor(SafetyConfig::default());
        m.tick(SimTime::ZERO, false, 1, &[facts(7, true, false, 0)]);
        t.emit(SimTime::from_secs(1).as_nanos(), TraceEvent::BreakerTrip { device: 7 });
        let newly = m.tick(SimTime::from_secs(1), false, 1, &[facts(7, true, true, 0)]);
        assert_eq!(newly, vec![DeviceId(7)]);
    }

    #[test]
    fn detect_only_never_escalates() {
        let (mut m, t) = monitor(SafetyConfig::detect_only());
        t.emit(SimTime::from_secs(1).as_nanos(), TraceEvent::BreakerTrip { device: 7 });
        for s in 1..10u64 {
            let newly = m.tick(SimTime::from_secs(s), false, 1, &[facts(7, true, true, s * 5)]);
            assert!(newly.is_empty());
        }
        assert!(m.stats().coverage_violations > 0, "still detects");
        assert_eq!(m.stats().quarantines, 0);
    }

    fn invariants(events: &[(u64, TraceEvent)]) -> Vec<&'static str> {
        check_trace(events).into_iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn check_trace_passes_a_clean_stream() {
        let events = vec![
            (0, TraceEvent::DirectiveIssued { device: 1, kind: "launch" }),
            (0, TraceEvent::DirectiveDelivered { device: 1, kind: "launch" }),
            (5, TraceEvent::BreakerTrip { device: 1 }),
            (9, TraceEvent::BreakerHalfOpen { device: 1 }),
            (12, TraceEvent::BreakerClose { device: 1 }),
            (15, TraceEvent::UmboxExit { device: 1, verdict: "pass" }),
        ];
        assert!(check_trace(&events).is_empty());
    }

    #[test]
    fn check_trace_surfaces_monitor_violations_verbatim() {
        let events =
            vec![(3, TraceEvent::SafetyViolation { device: 4, invariant: "bounded-staleness" })];
        let out = check_trace(&events);
        assert_eq!(out, vec![Violation { at_ns: 3, device: 4, invariant: "bounded-staleness" }]);
    }

    #[test]
    fn check_trace_rejects_time_travel() {
        let events = vec![
            (10, TraceEvent::UmboxRespawn { device: 1 }),
            (5, TraceEvent::UmboxRespawn { device: 1 }),
        ];
        assert_eq!(invariants(&events), vec!["trace-order"]);
    }

    #[test]
    fn check_trace_flags_quarantine_reinstall() {
        let events = vec![
            (1, TraceEvent::QuarantineInstalled { device: 2 }),
            (2, TraceEvent::QuarantineInstalled { device: 2 }),
        ];
        assert_eq!(invariants(&events), vec!["quarantine-reinstall"]);
    }

    #[test]
    fn check_trace_flags_post_quarantine_fail_open_flows() {
        // Unfiltered traffic before quarantine is a coverage problem the
        // monitor handles; *after* quarantine it is an edge-crossing
        // leak the allow-list should have killed at the switch.
        let events = vec![
            (1, TraceEvent::UmboxExit { device: 3, verdict: "fail-open" }),
            (2, TraceEvent::QuarantineInstalled { device: 3 }),
            (3, TraceEvent::UmboxExit { device: 3, verdict: "fail-open" }),
        ];
        assert_eq!(
            check_trace(&events),
            vec![Violation { at_ns: 3, device: 3, invariant: "post-quarantine-leak" }]
        );
    }

    #[test]
    fn check_trace_enforces_the_breaker_state_machine() {
        // Half-open without a preceding trip.
        assert_eq!(
            invariants(&[(1, TraceEvent::BreakerHalfOpen { device: 1 })]),
            vec!["breaker-fsm"]
        );
        // Close without a half-open trial.
        assert_eq!(
            invariants(&[
                (1, TraceEvent::BreakerTrip { device: 1 }),
                (2, TraceEvent::BreakerClose { device: 1 }),
            ]),
            vec!["breaker-fsm"]
        );
        // Re-trip from half-open is legal.
        assert!(check_trace(&[
            (1, TraceEvent::BreakerTrip { device: 1 }),
            (2, TraceEvent::BreakerHalfOpen { device: 1 }),
            (3, TraceEvent::BreakerTrip { device: 1 }),
        ])
        .is_empty());
    }

    #[test]
    fn check_trace_flags_mixed_failure_modes() {
        let events = vec![
            (1, TraceEvent::UmboxExit { device: 5, verdict: "fail-closed" }),
            (2, TraceEvent::UmboxExit { device: 5, verdict: "fail-open" }),
        ];
        assert_eq!(invariants(&events), vec!["mixed-failure-mode"]);
    }

    #[test]
    fn check_trace_requires_delivery_to_quiesce() {
        let pending = vec![
            (1, TraceEvent::DirectiveIssued { device: 1, kind: "launch" }),
            (1, TraceEvent::DirectiveIssued { device: 2, kind: "launch" }),
            (2, TraceEvent::DirectiveDelivered { device: 1, kind: "launch" }),
        ];
        assert_eq!(
            check_trace(&pending),
            vec![Violation { at_ns: 2, device: 2, invariant: "delivery-unquiesced" }]
        );
        // Shed, deduped and admission-shed all count as resolution.
        let resolved = vec![
            (1, TraceEvent::DirectiveIssued { device: 1, kind: "launch" }),
            (1, TraceEvent::DirectiveIssued { device: 2, kind: "launch" }),
            (1, TraceEvent::DirectiveIssued { device: 3, kind: "launch" }),
            (2, TraceEvent::DirectiveShed { device: 1, criticality: "telemetry" }),
            (2, TraceEvent::DirectiveDeduped { device: 2 }),
            (2, TraceEvent::AdmissionShed { device: 3 }),
        ];
        assert!(check_trace(&resolved).is_empty());
    }

    #[test]
    fn fail_closed_variant_rejects_any_fail_open_verdict() {
        let events = vec![(4, TraceEvent::UmboxExit { device: 1, verdict: "fail-open" })];
        assert!(check_trace(&events).is_empty());
        assert_eq!(
            check_trace_fail_closed(&events),
            vec![Violation { at_ns: 4, device: 1, invariant: "fail-open-in-fail-closed" }]
        );
    }

    #[test]
    fn admission_keeps_the_upper_tiers_under_backlog() {
        let cfg = SafetyConfig { admission_backlog: 4, ..SafetyConfig::default() };
        // Under budget: everything admitted.
        assert!(admit(&cfg, 3, Criticality::Telemetry));
        // Over budget: only revoke and quarantine pass.
        assert!(!admit(&cfg, 5, Criticality::Telemetry));
        assert!(!admit(&cfg, 5, Criticality::PatchProxy));
        assert!(admit(&cfg, 5, Criticality::Revoke));
        assert!(admit(&cfg, 5, Criticality::Quarantine));
    }
}
