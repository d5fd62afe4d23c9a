//! The (flat) IoTSec controller.
//!
//! The controller ingests security events and environment reports into
//! its [`GlobalView`], evaluates the [`FsmPolicy`] at the current system
//! state, diffs posture vectors and emits [`Directive`]s. Two costs are
//! modelled explicitly because the paper's scalability argument depends
//! on them:
//!
//! * **Service time** per event grows with the number of policy rules in
//!   the controller's scope (policy evaluation is the controller's inner
//!   loop). Events queue; queueing delay is the responsiveness metric of
//!   experiment E7.
//! * **View propagation delay** from the controller to the data-plane
//!   gates ([`ViewHandle`]) models the consistency spectrum of
//!   experiment E8 — `ZERO` is strong consistency, anything larger is
//!   eventual.

use crate::directive::{plan_transition, Directive};
use crate::view::GlobalView;
use iotdev::env::EnvVar;
use iotdev::events::SecurityEvent;
use iotnet::stats::DurationHist;
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::policy::FsmPolicy;
use iotpolicy::posture::{Posture, PostureVector};
use iotpolicy::state_space::SystemState;
use std::collections::VecDeque;
use umbox::element::ViewHandle;

/// Fixed per-event processing cost.
const SERVICE_BASE: SimDuration = SimDuration::from_micros(200);
/// Additional per-event cost per policy rule in scope.
const SERVICE_PER_RULE: SimDuration = SimDuration::from_micros(10);

/// Controller tuning.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Delay before view changes reach data-plane gates (`ZERO` =
    /// strong consistency).
    pub view_propagation: SimDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig { view_propagation: SimDuration::from_millis(20) }
    }
}

/// Controller counters.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Events processed.
    pub events_processed: u64,
    /// Directives emitted.
    pub directives: u64,
    /// Event queueing+service latency distribution.
    pub latency: DurationHist,
    /// Maximum queue depth observed.
    pub max_queue: usize,
}

/// The buffers a reconciliation works in, kept between reconciliations
/// and emptied, capacity kept, by [`Controller::reset_runtime`].
#[derive(Debug, Default)]
struct Reconcile {
    /// The policy state built from the view.
    state: SystemState,
    /// [`FsmPolicy::evaluate_into`]'s matching rules.
    matching: Vec<(u16, usize)>,
    /// The posture vector the last reconciliation replaced, which the
    /// next one overwrites with its target.
    target: PostureVector,
}

/// The flat (single-instance) controller.
#[derive(Debug)]
pub struct Controller {
    /// The compiled policy this controller enforces.
    pub policy: FsmPolicy,
    /// The assembled view.
    pub view: GlobalView,
    config: ControllerConfig,
    queue: VecDeque<(SimTime, SecurityEvent)>,
    busy_until: SimTime,
    /// Posture vector currently installed in the data plane.
    pub installed: PostureVector,
    gate_view: ViewHandle,
    pending_view: VecDeque<(SimTime, EnvVar, &'static str)>,
    /// The controller is down (crashed, rebooting, re-syncing) until this
    /// instant; events queue but nothing is processed meanwhile.
    outage_until: SimTime,
    /// Counters.
    pub stats: ControllerStats,
    scratch: Reconcile,
}

impl Controller {
    /// A controller enforcing `policy`, pushing gate state into
    /// `gate_view`. Policy and configuration are its identity; the rest,
    /// gate binding included, is written by [`Controller::reset_runtime`].
    pub fn new(policy: FsmPolicy, config: ControllerConfig, gate_view: ViewHandle) -> Controller {
        let mut controller = Controller {
            policy,
            view: GlobalView::new(),
            config,
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            installed: PostureVector::new(),
            gate_view: gate_view.clone(),
            pending_view: VecDeque::new(),
            outage_until: SimTime::ZERO,
            stats: ControllerStats::default(),
            scratch: Reconcile::default(),
        };
        controller.reset_runtime(gate_view);
        controller
    }

    /// Bring the controller to its t = 0 state — empty view and queues,
    /// idle, nothing installed, zeroed stats — keeping the compiled
    /// policy, the configuration and every buffer's capacity, and binding
    /// `gate_view`, which the caller has emptied. The constructor ends
    /// here, so a reset controller is one built by [`Controller::new`]
    /// with the same policy and config.
    pub fn reset_runtime(&mut self, gate_view: ViewHandle) {
        self.view = GlobalView::new();
        self.queue.clear();
        self.busy_until = SimTime::ZERO;
        self.installed = PostureVector::new();
        self.gate_view = gate_view;
        self.pending_view.clear();
        self.outage_until = SimTime::ZERO;
        let ControllerStats { events_processed, directives, latency, max_queue } = &mut self.stats;
        (*events_processed, *directives, *max_queue) = (0, 0, 0);
        latency.clear();
        let Reconcile { state, matching, target } = &mut self.scratch;
        state.contexts.clear();
        state.env.clear();
        matching.clear();
        target.by_device.clear();
    }

    /// Take the controller down from `from` for `duration` (fault
    /// injection, or a failover re-sync window). Events keep queueing;
    /// they are served once the outage ends, paying the full backlog
    /// latency. Overlapping outages extend the existing one.
    pub fn inject_outage(&mut self, from: SimTime, duration: SimDuration) {
        self.outage_until = self.outage_until.max(from + duration);
    }

    /// Whether the controller is down at `now`.
    pub fn is_down(&self, now: SimTime) -> bool {
        now < self.outage_until
    }

    /// The per-event service time at the current policy size.
    pub(crate) fn service_time(&self) -> SimDuration {
        SERVICE_BASE + SERVICE_PER_RULE * self.policy.rules.len() as u64
    }

    /// Enqueue an event (arrival time = event time).
    pub fn ingest(&mut self, event: SecurityEvent) {
        self.queue.push_back((event.at, event));
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
    }

    /// Ingest an environment report immediately (cheap, version-checked).
    pub fn ingest_env(&mut self, at: SimTime, values: &[(EnvVar, &'static str)]) {
        if self.view.apply_env_report(at, values) {
            for (var, value) in values {
                self.pending_view.push_back((at + self.config.view_propagation, *var, value));
            }
        }
    }

    /// The instant from which [`Controller::step`] next does anything:
    /// the earliest view update waiting to reach the gates, or the moment
    /// the front of the event queue finishes service (`step` serves it on
    /// the first call at or after `start + service_time`).
    pub fn next_due(&self) -> Option<SimTime> {
        let view = self.pending_view.front().map(|(due, ..)| *due);
        let served = self.queue.front().map(|(arrival, _)| {
            self.busy_until.max(self.outage_until).max(*arrival) + self.service_time()
        });
        view.into_iter().chain(served).min()
    }

    /// Process queued work up to `now`; returns directives to execute.
    pub fn step(&mut self, now: SimTime) -> Vec<Directive> {
        if self.is_down(now) {
            // Down: nothing is served, nothing propagates.
            return Vec::new();
        }
        // Propagate due view updates to the data-plane gates.
        while let Some((due, var, value)) = self.pending_view.front().copied() {
            if due > now {
                break;
            }
            self.pending_view.pop_front();
            self.gate_view.set(var, value);
        }

        // Serve queued events. Work could not start before the end of any
        // outage, so backlog latencies include the down time.
        self.busy_until = self.busy_until.max(self.outage_until);
        let service = self.service_time();
        let mut changed = false;
        while let Some((arrival, _)) = self.queue.front().copied() {
            let start = self.busy_until.max(arrival);
            let done = start + service;
            if done > now {
                break;
            }
            let (_, event) = self.queue.pop_front().unwrap();
            self.busy_until = done;
            self.stats.events_processed += 1;
            self.stats.latency.record(done.duration_since(arrival));
            changed |= self.view.apply_event(&event);
        }
        if !changed {
            return Vec::new();
        }

        self.reconcile(now)
    }

    /// Recompute postures from the current view and emit the directive
    /// diff. The state, the evaluation and the target vector are written
    /// over the buffers the last reconciliation left, and the diff borrows
    /// both vectors' postures, so only a directive owns anything new.
    pub fn reconcile(&mut self, _now: SimTime) -> Vec<Directive> {
        let Reconcile { state, matching, target } = &mut self.scratch;
        self.view.write_state(&self.policy.schema, state);
        self.policy.evaluate_into(state, matching, target);
        let allow = Posture::allow();
        let directives: Vec<Directive> = self
            .installed
            .changes(target)
            .filter_map(|(device, old, new)| {
                plan_transition(device, old.unwrap_or(&allow), new.unwrap_or(&allow))
            })
            .collect();
        std::mem::swap(&mut self.installed, target);
        self.stats.directives += directives.len() as u64;
        directives
    }

    /// Build the policy-state from the view (unknown env vars keep their
    /// first domain value — the benign default).
    pub fn state_from_view(&self) -> SystemState {
        let mut state = SystemState::default();
        self.view.write_state(&self.policy.schema, &mut state);
        state
    }

    /// Semantic fingerprint of the posture vector this controller
    /// believes is installed in the data plane.
    ///
    /// The safety monitor's FSM-continuity invariant compares this
    /// across a failover: once the promoted replica has re-synced and
    /// reconciled, its fingerprint must return to the pre-failover
    /// value — a silently reset policy FSM shows up as a fingerprint
    /// that never recovers.
    pub fn installed_fingerprint(&self) -> u64 {
        self.installed.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::events::SecurityEventKind;
    use iotdev::vuln::Vulnerability;
    use iotpolicy::compile::PolicyCompiler;
    use iotpolicy::posture::SecurityModule;

    fn fig3_controller() -> Controller {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[Vulnerability::CloudBypassBackdoor]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[]);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        Controller::new(c.build(), ControllerConfig::default(), ViewHandle::new())
    }

    fn event(device: u32, kind: SecurityEventKind, at: SimTime) -> SecurityEvent {
        SecurityEvent::new(at, DeviceId(device), kind)
    }

    #[test]
    fn initial_reconcile_installs_standing_mitigations() {
        let mut ctl = fig3_controller();
        let directives = ctl.reconcile(SimTime::ZERO);
        // The fire alarm ships with a backdoor → standing Block(Cloud).
        assert!(directives
            .iter()
            .any(|d| matches!(d, Directive::Launch { device: DeviceId(0), .. })));
    }

    #[test]
    fn suspicion_drives_fig3_directives() {
        let mut ctl = fig3_controller();
        ctl.reconcile(SimTime::ZERO);
        ctl.ingest(event(0, SecurityEventKind::SignatureMatch, SimTime::from_millis(10)));
        let directives = ctl.step(SimTime::from_secs(1));
        // The *window* gets a new posture because the *alarm* is
        // suspicious — the cross-device reaction.
        let win = directives.iter().find(|d| d.device() == DeviceId(1)).unwrap();
        match win {
            Directive::Launch { posture, .. } | Directive::Reconfigure { posture, .. } => {
                assert!(posture
                    .contains(&SecurityModule::Block(iotpolicy::posture::BlockClass::OpenVerbs)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn events_queue_and_latency_is_recorded() {
        let mut ctl = fig3_controller();
        ctl.reconcile(SimTime::ZERO);
        // A burst: all 100 events arrive at the same instant, so the
        // tail of the queue pays ~99 service times of queueing delay.
        for _ in 0..100 {
            ctl.ingest(event(0, SecurityEventKind::AuthFailureBurst, SimTime::from_millis(1)));
        }
        assert_eq!(ctl.queue.len(), 100);
        ctl.step(SimTime::from_secs(10));
        assert!(ctl.queue.is_empty());
        assert_eq!(ctl.stats.events_processed, 100);
        // The 100th event waited behind 99 service times.
        assert!(ctl.stats.latency.max() > ctl.service_time() * 50);
    }

    #[test]
    fn step_respects_now_budget() {
        let mut ctl = fig3_controller();
        ctl.reconcile(SimTime::ZERO);
        for i in 0..100 {
            ctl.ingest(event(0, SecurityEventKind::AuthFailureBurst, SimTime::from_millis(i)));
        }
        // Only ~service-budget worth of events fit in 1 ms.
        ctl.step(SimTime::from_millis(1));
        assert!(!ctl.queue.is_empty());
    }

    #[test]
    fn view_propagation_delays_gate_updates() {
        let gate_view = ViewHandle::new();
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::SmartPlug, &[]);
        c.gate_actuation(DeviceId(0), EnvVar::Occupancy, "present");
        let mut ctl = Controller::new(
            c.build(),
            ControllerConfig { view_propagation: SimDuration::from_millis(50) },
            gate_view.clone(),
        );
        ctl.ingest_env(SimTime::from_secs(1), &[(EnvVar::Occupancy, "present")]);
        ctl.step(SimTime::from_secs(1));
        assert_eq!(gate_view.get(EnvVar::Occupancy), None); // not yet propagated
        ctl.step(SimTime::from_secs(1) + SimDuration::from_millis(50));
        assert_eq!(gate_view.get(EnvVar::Occupancy), Some("present"));
    }

    #[test]
    fn strong_consistency_is_the_zero_delay_limit() {
        let gate_view = ViewHandle::new();
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::SmartPlug, &[]);
        c.gate_actuation(DeviceId(0), EnvVar::Occupancy, "present");
        let mut ctl = Controller::new(
            c.build(),
            ControllerConfig { view_propagation: SimDuration::ZERO },
            gate_view.clone(),
        );
        ctl.ingest_env(SimTime::from_secs(1), &[(EnvVar::Occupancy, "absent")]);
        ctl.step(SimTime::from_secs(1));
        assert_eq!(gate_view.get(EnvVar::Occupancy), Some("absent"));
    }

    #[test]
    fn outage_stalls_processing_and_backlog_pays_for_it() {
        let mut ctl = fig3_controller();
        ctl.reconcile(SimTime::ZERO);
        ctl.inject_outage(SimTime::from_secs(1), SimDuration::from_secs(10));
        assert!(ctl.is_down(SimTime::from_secs(5)));
        assert!(!ctl.is_down(SimTime::from_secs(11)));

        ctl.ingest(event(0, SecurityEventKind::SignatureMatch, SimTime::from_secs(2)));
        // Mid-outage: nothing happens.
        assert!(ctl.step(SimTime::from_secs(5)).is_empty());
        assert_eq!(ctl.stats.events_processed, 0);
        // After the outage: the event is served, and its latency includes
        // the down time it waited out.
        let directives = ctl.step(SimTime::from_secs(12));
        assert!(!directives.is_empty());
        assert!(ctl.stats.latency.max() >= SimDuration::from_secs(9));
    }

    #[test]
    fn next_due_is_when_step_next_does_anything() {
        // An idle controller is never due.
        let mut ctl = fig3_controller();
        ctl.reconcile(SimTime::ZERO);
        assert_eq!(ctl.next_due(), None);
        // A queued event is due when its service completes, behind any
        // outage — and `step` one nanosecond earlier is a no-op, at that
        // instant serves it.
        let arrival = SimTime::from_millis(2);
        ctl.inject_outage(SimTime::from_millis(1), SimDuration::from_secs(3));
        ctl.ingest(event(0, SecurityEventKind::SignatureMatch, arrival));
        let due = ctl.next_due().expect("an event is queued");
        assert_eq!(due, SimTime::from_millis(3_001) + ctl.service_time());
        assert!(ctl.step(SimTime::from_nanos(due.as_nanos() - 1)).is_empty());
        assert_eq!(ctl.stats.events_processed, 0);
        assert!(!ctl.step(due).is_empty());
        assert_eq!(ctl.next_due(), None);
        // A view update on its way to the gates is due when it lands.
        ctl.ingest_env(SimTime::from_secs(9), &[(EnvVar::Smoke, "yes")]);
        assert_eq!(ctl.next_due(), Some(SimTime::from_secs(9) + SimDuration::from_millis(20)));
    }

    #[test]
    fn service_time_grows_with_policy() {
        let small = fig3_controller();
        let mut c = PolicyCompiler::new();
        for i in 0..50 {
            c.device(DeviceId(i), DeviceClass::Camera, &[Vulnerability::default_admin_admin()]);
        }
        let big = Controller::new(c.build(), ControllerConfig::default(), ViewHandle::new());
        assert!(big.service_time() > small.service_time());
    }
}
