//! Primary/standby controller replication with view re-sync on failover.
//!
//! The paper's controller is *logically* centralized; a real deployment
//! cannot afford a single point of failure in the enforcement path. This
//! module pairs the flat [`Controller`] with a warm standby:
//!
//! * Events and environment reports are delivered to the primary and
//!   appended to a replay log; every second (`CHECKPOINT_INTERVAL`) the
//!   log is drained into the standby, keeping its view warm (but it
//!   emits no directives while passive).
//! * When the primary has been down for 5 s (`DETECT_AFTER`, missed
//!   heartbeats), the standby is promoted. Promotion replays the
//!   un-checkpointed log tail into the standby and pays a 2 s `RESYNC`
//!   outage window before the new primary serves.
//! * The promoted controller's installed-posture vector starts empty, so
//!   its first reconcile re-emits the full posture for its view — the
//!   delivery layer's idempotent directive IDs (see
//!   [`crate::delivery`]) suppress re-execution of postures the data
//!   plane already has.

use crate::controller::{Controller, ControllerConfig};
use crate::directive::Directive;
use iotdev::env::{EnvValues, EnvVar};
use iotdev::events::SecurityEvent;
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::policy::FsmPolicy;
use umbox::element::ViewHandle;

/// How long the primary must be unresponsive before the standby is
/// promoted (missed-heartbeat threshold).
const DETECT_AFTER: SimDuration = SimDuration::from_secs(5);
/// Outage window the promoted standby pays to re-sync its view before
/// serving.
const RESYNC: SimDuration = SimDuration::from_secs(2);
/// How often the standby's view is checkpointed from the replay log.
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// A primary controller with one warm standby.
pub struct ReplicatedController {
    active: Controller,
    standby: Option<Controller>,
    /// Events and environment reports since the standby's last
    /// checkpoint (the replay log). Appended to only while a standby
    /// exists to replay them into; empty from the promotion on.
    log: Vec<SecurityEvent>,
    env_log: Vec<(SimTime, EnvValues)>,
    last_checkpoint: SimTime,
    down_since: Option<SimTime>,
    /// Promotions performed (0 or 1 — there is a single standby).
    pub failovers: u64,
    /// Events processed by controllers that have since been replaced.
    retired_events: u64,
}

impl ReplicatedController {
    /// A replicated pair enforcing `policy`. Both replicas push gate
    /// state into the same `gate_view`; only the active one steps.
    pub fn new(
        policy: FsmPolicy,
        config: ControllerConfig,
        gate_view: ViewHandle,
    ) -> ReplicatedController {
        ReplicatedController {
            active: Controller::new(policy.clone(), config, gate_view.clone()),
            standby: Some(Controller::new(policy, config, gate_view)),
            log: Vec::new(),
            env_log: Vec::new(),
            last_checkpoint: SimTime::ZERO,
            down_since: None,
            failovers: 0,
            retired_events: 0,
        }
    }

    /// Enqueue an event: delivered to the active replica and, while a
    /// standby remains, appended to the replay log.
    pub fn ingest(&mut self, event: SecurityEvent) {
        self.active.ingest(event);
        if self.standby.is_some() {
            self.log.push(event);
        }
    }

    /// Ingest an environment report (active replica + replay log).
    pub fn ingest_env(&mut self, at: SimTime, values: &[(EnvVar, &'static str)]) {
        self.active.ingest_env(at, values);
        if self.standby.is_some() {
            self.env_log.push((at, EnvValues::from_pairs(values)));
        }
    }

    /// Take the active replica down (fault injection).
    pub fn inject_outage(&mut self, from: SimTime, duration: SimDuration) {
        self.active.inject_outage(from, duration);
    }

    /// Whether the pair can currently process work: false while the
    /// active replica is down (including a promotion re-sync window).
    pub fn is_down(&self, now: SimTime) -> bool {
        self.active.is_down(now)
    }

    /// Drain the replay log into `sb`, in arrival order per kind.
    fn replay(
        env_log: &mut Vec<(SimTime, EnvValues)>,
        log: &mut Vec<SecurityEvent>,
        sb: &mut Controller,
    ) {
        for (at, report) in env_log.drain(..) {
            let mut pairs = [(EnvVar::Temperature, ""); EnvVar::ALL.len()];
            let mut known = 0;
            for pair in report.iter() {
                pairs[known] = pair;
                known += 1;
            }
            sb.ingest_env(at, &pairs[..known]);
        }
        for e in log.drain(..) {
            sb.ingest(e);
        }
    }

    /// Drain the replay log into the standby, warming its view. The
    /// standby only ingests — it never emits directives while passive.
    fn checkpoint(&mut self, now: SimTime) {
        if let Some(sb) = &mut self.standby {
            Self::replay(&mut self.env_log, &mut self.log, sb);
        }
        self.last_checkpoint = now;
    }

    /// Process queued work up to `now`; returns directives to execute.
    ///
    /// Handles heartbeat checkpointing, failure detection and promotion.
    pub fn step(&mut self, now: SimTime) -> Vec<Directive> {
        if !self.active.is_down(now) {
            self.down_since = None;
            if now.duration_since(self.last_checkpoint) >= CHECKPOINT_INTERVAL {
                self.checkpoint(now);
            }
            return self.active.step(now);
        }

        // The active replica is down. Wait out the detection threshold,
        // then promote the standby (if one remains).
        let since = *self.down_since.get_or_insert(now);
        if now.duration_since(since) >= DETECT_AFTER {
            if let Some(mut sb) = self.standby.take() {
                // Re-sync: replay the un-checkpointed log tail, then pay
                // the resync window before the new primary serves.
                Self::replay(&mut self.env_log, &mut self.log, &mut sb);
                sb.inject_outage(now, RESYNC);
                self.retired_events += self.active.stats.events_processed;
                self.active = sb;
                self.down_since = None;
                self.failovers += 1;
                return self.active.step(now); // empty: still re-syncing
            }
        }
        Vec::new()
    }

    /// Recompute postures on the active replica and emit the diff.
    pub fn reconcile(&mut self, now: SimTime) -> Vec<Directive> {
        self.active.reconcile(now)
    }

    /// Events processed across all replicas that have held the active
    /// role.
    pub fn events_processed(&self) -> u64 {
        self.retired_events + self.active.stats.events_processed
    }

    /// Installed-posture fingerprint of the active replica (see
    /// [`Controller::installed_fingerprint`]). Right after a promotion
    /// this reflects the standby's empty installed vector; the
    /// FSM-continuity invariant requires it to converge back to the
    /// pre-failover value once re-sync and reconcile complete.
    pub fn installed_fingerprint(&self) -> u64 {
        self.active.installed_fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::events::SecurityEventKind;
    use iotdev::vuln::Vulnerability;
    use iotpolicy::compile::PolicyCompiler;

    fn policy() -> FsmPolicy {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[Vulnerability::CloudBypassBackdoor]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[]);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        c.build()
    }

    fn replicated() -> ReplicatedController {
        ReplicatedController::new(policy(), ControllerConfig::default(), ViewHandle::new())
    }

    fn sig_match(at: SimTime) -> SecurityEvent {
        SecurityEvent::new(at, DeviceId(0), SecurityEventKind::SignatureMatch)
    }

    #[test]
    fn healthy_pair_behaves_like_a_flat_controller() {
        let mut rc = replicated();
        rc.reconcile(SimTime::ZERO);
        rc.ingest(sig_match(SimTime::from_millis(10)));
        let directives = rc.step(SimTime::from_secs(1));
        assert!(directives.iter().any(|d| d.device() == DeviceId(1)));
        assert_eq!(rc.failovers, 0);
        assert!(rc.standby.is_some());
    }

    #[test]
    fn failover_promotes_standby_and_reemits_posture() {
        let mut rc = replicated();
        rc.reconcile(SimTime::ZERO);

        // The primary dies at t=10s for a long time.
        rc.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        // An attack event arrives during the outage.
        rc.ingest(sig_match(SimTime::from_secs(11)));
        assert!(rc.step(SimTime::from_secs(11)).is_empty());
        // Still inside the detection threshold: no promotion yet.
        assert!(rc.step(SimTime::from_secs(13)).is_empty());
        assert_eq!(rc.failovers, 0);

        // Detection threshold passes (11 s + 5 s): the standby is promoted
        // but pays its re-sync window first.
        assert!(rc.step(SimTime::from_secs(16)).is_empty());
        assert_eq!(rc.failovers, 1);
        assert!(rc.standby.is_none());
        assert!(rc.is_down(SimTime::from_secs(17))); // re-syncing until 18 s

        // After the re-sync the new primary serves the replayed event and
        // re-emits posture — including the standing mitigation its empty
        // installed-vector diff regenerates, plus the cross-device
        // reaction to the replayed signature match.
        let directives = rc.step(SimTime::from_secs(20));
        assert!(!rc.is_down(SimTime::from_secs(20)));
        assert!(directives.iter().any(|d| d.device() == DeviceId(0)));
        assert!(directives.iter().any(|d| d.device() == DeviceId(1)));
    }

    #[test]
    fn nothing_is_logged_once_the_standby_is_spent() {
        let mut rc = replicated();
        rc.reconcile(SimTime::ZERO);
        let report = [(EnvVar::Occupancy, "present"), (EnvVar::Smoke, "no")];

        // While the standby exists, the tail since the last checkpoint is
        // kept, and a checkpoint hands it over.
        rc.ingest_env(SimTime::from_millis(100), &report);
        rc.ingest(sig_match(SimTime::from_millis(100)));
        assert_eq!((rc.log.len(), rc.env_log.len()), (1, 1));
        rc.step(SimTime::from_secs(1));
        assert_eq!((rc.log.len(), rc.env_log.len()), (0, 0));
        let standby = rc.standby.as_ref().expect("not promoted yet");
        assert_eq!(standby.view.env_value(EnvVar::Occupancy), Some("present"));
        assert_eq!(standby.stats.max_queue, 1);

        // Promote (down at 10 s, promoted at 15 s, re-synced at 17 s), then
        // take the new (and last) active down as well: for the whole
        // outage nobody could replay a log, so none is kept.
        rc.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        rc.step(SimTime::from_secs(10));
        rc.step(SimTime::from_secs(15));
        assert_eq!(rc.failovers, 1);
        rc.inject_outage(SimTime::from_secs(17), SimDuration::from_secs(30));
        for tick in 0..200u64 {
            let now = SimTime::from_secs(17) + SimDuration::from_millis(100 * tick);
            rc.ingest_env(now, &report);
            rc.ingest(sig_match(now));
            assert!(rc.step(now).is_empty());
        }
        assert!(rc.is_down(SimTime::from_secs(37)));
        assert_eq!((rc.log.len(), rc.env_log.len()), (0, 0));

        // Recovery: the queued events are served, checkpoints keep
        // advancing, and the logs stay empty.
        let directives = rc.step(SimTime::from_secs(60));
        assert!(directives.iter().any(|d| d.device() == DeviceId(1)));
        assert_eq!(rc.last_checkpoint, SimTime::from_secs(60));
        // One event served by the first primary, then the checkpointed
        // copy of it and the 200 outage events by the promoted replica.
        assert_eq!(rc.events_processed(), 1 + 1 + 200);
        rc.ingest_env(SimTime::from_secs(61), &report);
        rc.step(SimTime::from_secs(61));
        assert_eq!(rc.last_checkpoint, SimTime::from_secs(61));
        assert_eq!((rc.log.len(), rc.env_log.len()), (0, 0));
    }

    #[test]
    fn recovery_is_much_faster_than_riding_out_the_outage() {
        // With failover the pair is back after detect + resync (5 s + 2 s);
        // a flat controller without a standby rides out the whole outage.
        let mut rc = replicated();
        rc.reconcile(SimTime::ZERO);
        rc.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        rc.step(SimTime::from_secs(10)); // failure first observed
        rc.step(SimTime::from_secs(15)); // promotion
                                         // Back at 17s — nearly two minutes before the injected outage ends.
        assert!(!rc.is_down(SimTime::from_secs(17)));

        let mut single = Controller::new(policy(), ControllerConfig::default(), ViewHandle::new());
        single.reconcile(SimTime::ZERO);
        single.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        single.step(SimTime::from_secs(15));
        assert!(single.is_down(SimTime::from_secs(17)));
        assert!(single.is_down(SimTime::from_secs(129)));
    }
}
