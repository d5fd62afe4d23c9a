//! Primary/standby controller replication with view re-sync on failover.
//!
//! The paper's controller is *logically* centralized; a real deployment
//! cannot afford a single point of failure in the enforcement path. This
//! module pairs the flat [`Controller`] with a warm standby:
//!
//! * Events and environment reports are delivered to the primary and
//!   appended to a replay log; every `checkpoint_interval` the log is
//!   drained into the standby, keeping its view warm (but it emits no
//!   directives while passive).
//! * When the primary has been down for `detect_after` (missed
//!   heartbeats), the standby is promoted. Promotion replays the
//!   un-checkpointed log tail into the standby and pays a `resync`
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
use serde::Serialize;
use umbox::element::ViewHandle;

/// Failover tuning.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FailoverConfig {
    /// How long the primary must be unresponsive before the standby is
    /// promoted (missed-heartbeat threshold).
    pub detect_after: SimDuration,
    /// Outage window the promoted standby pays to re-sync its view
    /// before serving.
    pub resync: SimDuration,
    /// How often the standby's view is checkpointed from the replay log.
    pub checkpoint_interval: SimDuration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            detect_after: SimDuration::from_secs(5),
            resync: SimDuration::from_secs(2),
            checkpoint_interval: SimDuration::from_secs(1),
        }
    }
}

/// A primary controller with one warm standby.
pub struct ReplicatedController {
    active: Controller,
    standby: Option<Controller>,
    cfg: FailoverConfig,
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
        cfg: FailoverConfig,
    ) -> ReplicatedController {
        ReplicatedController {
            active: Controller::new(policy.clone(), config, gate_view.clone()),
            standby: Some(Controller::new(policy, config, gate_view)),
            cfg,
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
            if now.duration_since(self.last_checkpoint) >= self.cfg.checkpoint_interval {
                self.checkpoint(now);
            }
            return self.active.step(now);
        }

        // The active replica is down. Wait out the detection threshold,
        // then promote the standby (if one remains).
        let since = *self.down_since.get_or_insert(now);
        if now.duration_since(since) >= self.cfg.detect_after {
            if let Some(mut sb) = self.standby.take() {
                // Re-sync: replay the un-checkpointed log tail, then pay
                // the resync window before the new primary serves.
                Self::replay(&mut self.env_log, &mut self.log, &mut sb);
                sb.inject_outage(now, self.cfg.resync);
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

    /// The currently active replica.
    pub fn active(&self) -> &Controller {
        &self.active
    }

    /// Installed-posture fingerprint of the active replica (see
    /// [`Controller::installed_fingerprint`]). Right after a promotion
    /// this reflects the standby's empty installed vector; the
    /// FSM-continuity invariant requires it to converge back to the
    /// pre-failover value once re-sync and reconcile complete.
    pub fn installed_fingerprint(&self) -> u64 {
        self.active.installed_fingerprint()
    }

    /// Whether a warm standby is still available.
    pub fn has_standby(&self) -> bool {
        self.standby.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::events::SecurityEventKind;
    use iotdev::vuln::Vulnerability;
    use iotpolicy::compile::PolicyCompiler;

    fn replicated(cfg: FailoverConfig) -> ReplicatedController {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[Vulnerability::CloudBypassBackdoor]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[]);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        ReplicatedController::new(c.build(), ControllerConfig::default(), ViewHandle::new(), cfg)
    }

    fn sig_match(at: SimTime) -> SecurityEvent {
        SecurityEvent::new(at, DeviceId(0), SecurityEventKind::SignatureMatch)
    }

    #[test]
    fn healthy_pair_behaves_like_a_flat_controller() {
        let mut rc = replicated(FailoverConfig::default());
        rc.reconcile(SimTime::ZERO);
        rc.ingest(sig_match(SimTime::from_millis(10)));
        let directives = rc.step(SimTime::from_secs(1));
        assert!(directives.iter().any(|d| d.device() == DeviceId(1)));
        assert_eq!(rc.failovers, 0);
        assert!(rc.has_standby());
    }

    #[test]
    fn failover_promotes_standby_and_reemits_posture() {
        let cfg = FailoverConfig {
            detect_after: SimDuration::from_secs(2),
            resync: SimDuration::from_secs(1),
            checkpoint_interval: SimDuration::from_secs(1),
        };
        let mut rc = replicated(cfg);
        rc.reconcile(SimTime::ZERO);

        // The primary dies at t=10s for a long time.
        rc.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        // An attack event arrives during the outage.
        rc.ingest(sig_match(SimTime::from_secs(11)));
        assert!(rc.step(SimTime::from_secs(11)).is_empty());

        // Detection threshold passes: the standby is promoted but pays
        // its re-sync window first.
        assert!(rc.step(SimTime::from_secs(13)).is_empty());
        assert_eq!(rc.failovers, 1);
        assert!(!rc.has_standby());
        assert!(rc.is_down(SimTime::from_secs(13))); // re-syncing

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
        let cfg = FailoverConfig {
            detect_after: SimDuration::from_secs(2),
            resync: SimDuration::from_secs(1),
            checkpoint_interval: SimDuration::from_secs(1),
        };
        let mut rc = replicated(cfg);
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
        assert_eq!(standby.queue_depth(), 1);

        // Promote, then take the new (and last) active down as well: for
        // the whole outage nobody could replay a log, so none is kept.
        rc.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        rc.step(SimTime::from_secs(10));
        rc.step(SimTime::from_secs(12));
        assert_eq!(rc.failovers, 1);
        rc.inject_outage(SimTime::from_secs(13), SimDuration::from_secs(30));
        for tick in 0..200u64 {
            let now = SimTime::from_secs(13) + SimDuration::from_millis(100 * tick);
            rc.ingest_env(now, &report);
            rc.ingest(sig_match(now));
            assert!(rc.step(now).is_empty());
        }
        assert!(rc.is_down(SimTime::from_secs(33)));
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
        // With failover the pair is back in ~detect+resync; without it,
        // the outage runs its full course.
        let cfg = FailoverConfig {
            detect_after: SimDuration::from_secs(2),
            resync: SimDuration::from_secs(1),
            checkpoint_interval: SimDuration::from_secs(1),
        };
        let mut rc = replicated(cfg);
        rc.reconcile(SimTime::ZERO);
        rc.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        rc.step(SimTime::from_secs(10)); // failure first observed
        rc.step(SimTime::from_secs(12)); // promotion
                                         // Back at 13s — two minutes before the injected outage would end.
        assert!(!rc.is_down(SimTime::from_secs(13)));

        let mut single =
            replicated(FailoverConfig { detect_after: SimDuration::from_secs(1_000_000), ..cfg });
        single.reconcile(SimTime::ZERO);
        single.inject_outage(SimTime::from_secs(10), SimDuration::from_secs(120));
        single.step(SimTime::from_secs(12));
        assert!(single.is_down(SimTime::from_secs(13)));
        assert!(single.is_down(SimTime::from_secs(129)));
    }
}
