//! Hardened directive delivery: idempotent IDs, bounded queueing and
//! retry with exponential backoff.
//!
//! Directives travel from the controller to the data plane over a
//! channel that can be unreachable (controller outage, failover
//! re-sync). The channel provides three guarantees the chaos layer
//! exercises:
//!
//! * **Idempotence.** Every directive carries a content-derived ID; a
//!   re-delivery of the directive a device already has (e.g. the full
//!   posture a freshly promoted standby re-emits) is suppressed instead
//!   of re-executed, so failover never bounces healthy chains.
//! * **Bounded queue with prioritized shedding.** At most `capacity`
//!   envelopes wait. When the queue is full the *lowest-criticality,
//!   newest* directive is shed ([`Criticality`]: quarantine > revoke >
//!   patch-proxy > telemetry; within the losing tier the newest entry
//!   loses, so an older directive that is closer to delivery survives
//!   its peers). A quarantine directive is therefore only ever shed if
//!   the entire queue is already quarantine-criticality — the
//!   no-critical-shed guarantee E18 pins.
//! * **Retry with backoff.** While the channel is unreachable, due
//!   envelopes re-arm with exponentially growing delays (capped), and
//!   every attempt is counted.

use crate::directive::{Criticality, Directive};
use iotdev::device::DeviceId;
use iotnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use trace::{TraceEvent, Tracer};

/// First retry delay while unreachable.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(100);
/// Retry delay ceiling.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(5);

/// Delivery-channel tuning.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryConfig {
    /// Maximum envelopes queued before shedding.
    pub capacity: usize,
}

impl Default for DeliveryConfig {
    fn default() -> Self {
        DeliveryConfig { capacity: 64 }
    }
}

/// Delivery counters.
#[derive(Debug, Clone, Default)]
pub struct DeliveryStats {
    /// Directives submitted by the controller.
    pub submitted: u64,
    /// Directives handed to the data plane.
    pub delivered: u64,
    /// Re-deliveries suppressed by the idempotence check.
    pub deduped: u64,
    /// Retry attempts made while the channel was unreachable.
    pub retries: u64,
    /// Directives shed because the queue was full.
    pub shed: u64,
    /// Quarantine-criticality directives shed. Structurally this can
    /// only happen when the whole queue is quarantine-tier; the E18
    /// safety gate requires it to stay zero in every cell.
    pub shed_critical: u64,
}

/// A directive in flight.
#[derive(Debug, Clone)]
pub(crate) struct DirectiveEnvelope {
    /// Content-derived idempotence ID.
    pub id: u64,
    /// The directive itself.
    pub directive: Directive,
    /// Shedding tier, computed from the directive at submit time (not
    /// stored in the directive — see [`Directive::criticality`]).
    pub criticality: Criticality,
    /// Delivery attempts so far.
    pub attempts: u32,
    /// Earliest next attempt.
    pub next_attempt: SimTime,
}

/// Content-derived idempotence ID: FNV-1a over the directive's debug
/// representation. Two directives with identical content (same device,
/// kind and posture) share an ID.
pub(crate) fn directive_id(directive: &Directive) -> u64 {
    trace::digest::fnv64(format!("{directive:?}").as_bytes())
}

/// The controller → data-plane directive channel.
pub struct DeliveryChannel {
    cfg: DeliveryConfig,
    queue: VecDeque<DirectiveEnvelope>,
    /// The ID of the last directive actually applied per device — the
    /// idempotence horizon. A newer, *different* directive for the same
    /// device always goes through.
    last_applied: BTreeMap<DeviceId, u64>,
    /// Counters.
    pub stats: DeliveryStats,
    /// Control-class trace emission (shed/retry/dedup; disabled by
    /// default).
    tracer: Tracer,
}

impl DeliveryChannel {
    /// An empty channel.
    pub fn new(cfg: DeliveryConfig) -> DeliveryChannel {
        DeliveryChannel {
            cfg,
            queue: VecDeque::new(),
            last_applied: BTreeMap::new(),
            stats: DeliveryStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer for channel-internal events (shed, retry, dedup).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Submit a directive for delivery. Under queue pressure the
    /// lowest-criticality, newest entry is shed: if the incoming
    /// directive itself sits at (or below) the queue's lowest tier it
    /// is refused — it is the newest of that tier — and `false` is
    /// returned; otherwise the newest entry of the lowest tier is
    /// evicted to make room and the submission succeeds.
    pub fn submit(&mut self, now: SimTime, directive: Directive) -> bool {
        self.stats.submitted += 1;
        let criticality = directive.criticality();
        if self.queue.len() >= self.cfg.capacity {
            let min_crit = self.queue.iter().map(|e| e.criticality).min().unwrap_or(criticality);
            if criticality <= min_crit {
                self.shed(now, directive.device(), criticality);
                return false;
            }
            let victim = self
                .queue
                .iter()
                .rposition(|e| e.criticality == min_crit)
                .expect("full queue has a lowest-criticality entry");
            let evicted = self.queue.remove(victim).expect("victim index in range");
            self.shed(now, evicted.directive.device(), evicted.criticality);
        }
        let id = directive_id(&directive);
        self.queue.push_back(DirectiveEnvelope {
            id,
            directive,
            criticality,
            attempts: 0,
            next_attempt: now,
        });
        true
    }

    fn shed(&mut self, now: SimTime, device: DeviceId, criticality: Criticality) {
        self.stats.shed += 1;
        if criticality == Criticality::Quarantine {
            self.stats.shed_critical += 1;
        }
        self.tracer.emit(
            now.as_nanos(),
            TraceEvent::DirectiveShed { device: device.0, criticality: criticality.label() },
        );
    }

    /// Advance the channel to `now`. When `reachable`, every queued
    /// envelope is delivered in order (idempotent re-deliveries are
    /// suppressed) and the surviving directives are returned for
    /// execution. When unreachable, due envelopes re-arm with
    /// exponential backoff instead.
    pub fn pump(&mut self, now: SimTime, reachable: bool) -> Vec<Directive> {
        if !reachable {
            for env in &mut self.queue {
                if env.next_attempt <= now {
                    env.attempts += 1;
                    self.stats.retries += 1;
                    self.tracer.emit(
                        now.as_nanos(),
                        TraceEvent::DirectiveRetry {
                            device: env.directive.device().0,
                            attempt: env.attempts,
                        },
                    );
                    let exp = env.attempts.saturating_sub(1).min(16);
                    let backoff = (BASE_BACKOFF * (1u64 << exp)).min(MAX_BACKOFF);
                    env.next_attempt = now + backoff;
                }
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(env) = self.queue.pop_front() {
            let device = env.directive.device();
            if self.last_applied.get(&device) == Some(&env.id) {
                self.stats.deduped += 1;
                self.tracer.emit(now.as_nanos(), TraceEvent::DirectiveDeduped { device: device.0 });
                continue;
            }
            self.last_applied.insert(device, env.id);
            self.stats.delivered += 1;
            out.push(env.directive);
        }
        out
    }

    /// Envelopes currently waiting.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotpolicy::posture::{Posture, SecurityModule};

    fn launch(device: u32) -> Directive {
        Directive::Launch {
            device: DeviceId(device),
            posture: Posture::of(SecurityModule::PasswordProxy),
        }
    }

    #[test]
    fn ids_are_content_derived() {
        assert_eq!(directive_id(&launch(1)), directive_id(&launch(1)));
        assert_ne!(directive_id(&launch(1)), directive_id(&launch(2)));
        assert_ne!(
            directive_id(&launch(1)),
            directive_id(&Directive::Retire { device: DeviceId(1) })
        );
    }

    #[test]
    fn redelivery_of_the_current_posture_is_suppressed() {
        let mut ch = DeliveryChannel::new(DeliveryConfig::default());
        ch.submit(SimTime::ZERO, launch(1));
        assert_eq!(ch.pump(SimTime::ZERO, true).len(), 1);
        // A failover re-emits the same posture: suppressed.
        ch.submit(SimTime::from_secs(1), launch(1));
        assert!(ch.pump(SimTime::from_secs(1), true).is_empty());
        assert_eq!(ch.stats.deduped, 1);
        // But a *different* directive for the device goes through, and a
        // later re-issue of the original is a real state change again.
        ch.submit(SimTime::from_secs(2), Directive::Retire { device: DeviceId(1) });
        ch.submit(SimTime::from_secs(2), launch(1));
        assert_eq!(ch.pump(SimTime::from_secs(2), true).len(), 2);
    }

    #[test]
    fn bounded_queue_sheds_lowest_criticality_newest_first() {
        // Uniform criticality: the incoming directive is the newest of
        // the lowest tier, so it is the one refused (the pre-Criticality
        // behavior, preserved byte-for-byte for uniform queues).
        let mut ch = DeliveryChannel::new(DeliveryConfig { capacity: 2 });
        assert!(ch.submit(SimTime::ZERO, launch(1)));
        assert!(ch.submit(SimTime::ZERO, launch(2)));
        assert!(!ch.submit(SimTime::ZERO, launch(3))); // shed
        assert_eq!(ch.stats.shed, 1);
        assert_eq!(ch.stats.shed_critical, 0);
        // The older envelopes are still intact and deliverable.
        let out = ch.pump(SimTime::ZERO, true);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.device() != DeviceId(3)));
    }

    #[test]
    fn quarantine_evicts_the_newest_of_the_lowest_tier() {
        let mut ch = DeliveryChannel::new(DeliveryConfig { capacity: 2 });
        // Two telemetry-tier entries; device 2's is the newer.
        assert!(ch.submit(SimTime::ZERO, Directive::Retire { device: DeviceId(1) }));
        assert!(ch.submit(SimTime::ZERO, Directive::Retire { device: DeviceId(2) }));
        // A quarantine install outranks both: device 2 (newest of the
        // lowest tier) is evicted, device 1 keeps its delivery slot.
        let q = Directive::Launch { device: DeviceId(3), posture: Posture::quarantine() };
        assert!(ch.submit(SimTime::ZERO, q));
        assert_eq!(ch.stats.shed, 1);
        assert_eq!(ch.stats.shed_critical, 0);
        let out = ch.pump(SimTime::ZERO, true);
        let devs: Vec<DeviceId> = out.iter().map(|d| d.device()).collect();
        assert_eq!(devs, vec![DeviceId(1), DeviceId(3)]);
    }

    #[test]
    fn quarantine_is_only_shed_against_quarantine() {
        let mut ch = DeliveryChannel::new(DeliveryConfig { capacity: 1 });
        let q =
            |dev: u32| Directive::Launch { device: DeviceId(dev), posture: Posture::quarantine() };
        assert!(ch.submit(SimTime::ZERO, q(1)));
        // The queue is all quarantine-tier; the incoming quarantine is
        // the newest of that tier and loses. This is the only path that
        // can increment shed_critical.
        assert!(!ch.submit(SimTime::ZERO, q(2)));
        assert_eq!(ch.stats.shed_critical, 1);
        assert_eq!(ch.depth(), 1);
    }

    #[test]
    fn unreachable_channel_backs_off_exponentially() {
        let mut ch = DeliveryChannel::new(DeliveryConfig { capacity: 8 });
        ch.submit(SimTime::ZERO, launch(1));

        // Attempt 1 at t=0 → next at 100ms; attempt 2 → +200ms; etc.
        assert!(ch.pump(SimTime::ZERO, false).is_empty());
        assert_eq!(ch.stats.retries, 1);
        // Not yet due: no new attempt.
        ch.pump(SimTime::from_millis(50), false);
        assert_eq!(ch.stats.retries, 1);
        ch.pump(SimTime::from_millis(100), false);
        assert_eq!(ch.stats.retries, 2);
        ch.pump(SimTime::from_millis(300), false);
        assert_eq!(ch.stats.retries, 3);
        // Backoff is capped at `MAX_BACKOFF`: pumps 10 s apart are each
        // due, and the last one re-arms exactly one cap later.
        for i in 0..10 {
            ch.pump(SimTime::from_secs(10 + 10 * i), false);
        }
        assert_eq!(ch.stats.retries, 13);
        assert_eq!(ch.queue[0].next_attempt, SimTime::from_secs(100) + MAX_BACKOFF);
        assert_eq!(ch.depth(), 1);

        // The channel heals: the envelope finally delivers.
        let out = ch.pump(SimTime::from_secs(200), true);
        assert_eq!(out.len(), 1);
        assert_eq!(ch.stats.delivered, 1);
    }
}
