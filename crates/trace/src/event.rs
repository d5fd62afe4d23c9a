//! The event vocabulary of the enforcement path, and its canonical
//! serialization.
//!
//! Every variant carries only primitive fields (`u32` ids, `u64`
//! nanosecond spans, `&'static str` labels) so this crate needs no
//! dependency on the crates that emit — the ids are interpreted by the
//! reader, exactly like a wire format. The JSONL rendering uses a fixed
//! key order and integer-only values, which makes a byte compare of two
//! traces a semantic compare (the golden-trace contract).

/// Coarse event class, used by [`crate::tracer::TraceConfig`] to mask
/// what a buffer records.
///
/// The split tracks volume: `Control` events are a handful per directive
/// or fault (compact enough to check into git as golden traces), while
/// `Packet` events fire per packet and are compared in memory by the
/// differential property tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Control-plane and lifecycle events: directive issue → delivery →
    /// install, µmbox launch/ready/swap/retire, crash/respawn/failover,
    /// fault fire/heal, controller outage.
    Control,
    /// Per-packet data-plane events: µmbox enter/exit, flow-decision
    /// cache hit/miss, policy drops.
    Packet,
}

/// One traced event on the enforcement path.
///
/// The timestamp is *not* part of the event — the buffer stores
/// `(sim-time nanos, event)` pairs — so the same vocabulary serves both
/// the live emitters and the aggregator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The control plane issued a directive for a device.
    DirectiveIssued {
        /// Target device id.
        device: u32,
        /// Directive kind: `"launch"`, `"reconfigure"` or `"retire"`.
        kind: &'static str,
    },
    /// A directive reached the data plane (survived the delivery
    /// channel, or took the direct path in non-chaos runs — the event is
    /// emitted symmetrically so the two paths trace identically).
    DirectiveDelivered {
        /// Target device id.
        device: u32,
        /// Directive kind.
        kind: &'static str,
    },
    /// A directive was executed (steer rules installed, chain built or
    /// retired).
    DirectiveInstalled {
        /// Target device id.
        device: u32,
        /// Directive kind.
        kind: &'static str,
    },
    /// The delivery channel suppressed an idempotent re-delivery.
    DirectiveDeduped {
        /// Target device id.
        device: u32,
    },
    /// The delivery channel shed a directive under queue pressure. The
    /// victim is the lowest-criticality, newest entry (see
    /// `iotctl::delivery`), so the payload names the tier that lost.
    DirectiveShed {
        /// Target device id.
        device: u32,
        /// Criticality label of the shed directive: `"telemetry"`,
        /// `"patch-proxy"`, `"revoke"` or `"quarantine"`.
        criticality: &'static str,
    },
    /// The admission controller refused a low-criticality recompute
    /// because the directive backlog exceeded its budget.
    AdmissionShed {
        /// Target device id of the refused directive.
        device: u32,
    },
    /// The delivery channel retried while unreachable.
    DirectiveRetry {
        /// Target device id.
        device: u32,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A µmbox launch was requested; the instance serves from `ready_ns`.
    UmboxLaunch {
        /// Protected device id.
        device: u32,
        /// Sim-time (ns) at which the instance starts serving.
        ready_ns: u64,
    },
    /// A booted µmbox's steer rule went live.
    UmboxReady {
        /// Protected device id.
        device: u32,
    },
    /// An in-place chain reconfiguration was applied.
    UmboxSwap {
        /// Protected device id.
        device: u32,
    },
    /// A µmbox chain was retired and its steer rule removed.
    UmboxRetire {
        /// Protected device id.
        device: u32,
    },
    /// Fault injection crashed a µmbox instance.
    UmboxCrash {
        /// Protected device id.
        device: u32,
    },
    /// The lifecycle watchdog respawned a crashed instance.
    UmboxRespawn {
        /// Protected device id.
        device: u32,
    },
    /// The warm standby was promoted to primary.
    Failover {
        /// Cumulative failover count after this promotion.
        count: u64,
    },
    /// A controller outage was injected.
    CtlOutage {
        /// Outage duration in nanoseconds.
        duration_ns: u64,
    },
    /// A network fault fired (wire down, loss burst begins,
    /// partition cut).
    FaultFired {
        /// Fault kind label, e.g. `"wire-down"`.
        kind: &'static str,
    },
    /// A network fault healed (wire heal, burst clears, partition
    /// heals).
    FaultHealed {
        /// Fault kind label, e.g. `"wire-heal"`.
        kind: &'static str,
    },
    /// A switch's flow-decision cache answered a lookup.
    CacheHit {
        /// Switch id.
        switch: u32,
    },
    /// A switch's flow-decision cache missed (full table scan).
    CacheMiss {
        /// Switch id.
        switch: u32,
    },
    /// A switch dropped a packet by policy.
    PolicyDrop {
        /// Switch id.
        switch: u32,
    },
    /// The safety monitor observed an invariant violation.
    SafetyViolation {
        /// Affected device id (`0` for deployment-wide invariants).
        device: u32,
        /// Invariant label: `"fail-closed-coverage"`,
        /// `"posture-monotonicity"`, `"bounded-staleness"` or
        /// `"fsm-continuity"`.
        invariant: &'static str,
    },
    /// A µmbox circuit breaker tripped (closed/half-open → open) after
    /// repeated crashes; the chain now serves its failure-mode fallback
    /// and the watchdog respawn is held until the cooldown expires.
    BreakerTrip {
        /// Protected device id.
        device: u32,
    },
    /// A circuit breaker's cooldown expired (open → half-open): the
    /// next respawned instance serves a trial window.
    BreakerHalfOpen {
        /// Protected device id.
        device: u32,
    },
    /// A circuit breaker observed a clean trial window and re-closed.
    BreakerClose {
        /// Protected device id.
        device: u32,
    },
    /// The safety monitor escalated a device to the quarantine posture:
    /// a per-class minimal allow-list installed into its edge switch.
    QuarantineInstalled {
        /// Quarantined device id.
        device: u32,
    },
    /// The state-space engine finished expanding one BFS depth: the
    /// exploration-progress event of experiment E19. Emitted with
    /// `at_ns = depth`, so a control-only golden trace of an exploration
    /// is the frontier histogram itself.
    SpaceFrontier {
        /// BFS depth (number of single-slot moves from the initial
        /// state).
        depth: u32,
        /// Number of states first reached at this depth.
        frontier: u64,
    },
    /// A fleet home published a crowdsourced signature discovery to its
    /// neighborhood aggregator (E20). Emitted with `at_ns = round`, so a
    /// control-only golden fleet trace is the propagation schedule
    /// itself.
    FleetDiscovery {
        /// Discovering home id.
        home: u32,
        /// Repository-assigned signature id.
        signature: u64,
    },
    /// A neighborhood aggregator flushed a batch of directive installs
    /// upward/downward during a fleet round barrier (E20). Emitted with
    /// `at_ns = round`.
    FleetBatch {
        /// Neighborhood aggregator id.
        neighborhood: u32,
        /// Number of per-home installs carried by this batch.
        installs: u32,
    },
    /// A home's installed ruleset advanced to a new region intel epoch
    /// (E20). Emitted with `at_ns = round`.
    FleetInstall {
        /// Home id.
        home: u32,
        /// Region intel epoch now installed at this home.
        epoch: u32,
    },
    /// Fleet chaos injected a fault at the aggregation tier (E25):
    /// a flush was dropped/duplicated, an aggregator crashed, a
    /// neighborhood was partitioned from the region, or an install wave
    /// was delayed. Emitted with `at_ns = round`, only on chaos-on runs.
    FleetFault {
        /// Affected neighborhood aggregator id.
        neighborhood: u32,
        /// Fault kind label: `"flush-drop"`, `"flush-dup"`,
        /// `"agg-crash"`, `"partition"` or `"install-delay"`.
        kind: &'static str,
    },
    /// The fleet recovery path repaired a prior fault (E25): a retried
    /// flush landed, a crashed aggregator respawned, or a partitioned
    /// neighborhood rejoined and was fast-forwarded. Emitted with
    /// `at_ns = round`, only on chaos-on runs.
    FleetRecover {
        /// Recovered neighborhood aggregator id.
        neighborhood: u32,
        /// Recovery kind label: `"flush-retry"`, `"agg-respawn"` or
        /// `"rejoin-fast-forward"`.
        kind: &'static str,
    },
    /// The region absorbed a signature into its canonical intel set
    /// (E25). Emitted with `at_ns = round` once per newly-known
    /// signature, only on chaos-on runs, so `check_fleet_trace` can
    /// join discoveries to region knowledge without the fleet state.
    FleetAbsorb {
        /// Repository-assigned signature id now known to the region.
        signature: u64,
        /// Region epoch after this absorbing round's bump.
        epoch: u32,
    },
    /// The fleet declared degraded mode (E25): a published discovery has
    /// exceeded its staleness budget without every home installing the
    /// goal epoch. Emitted with `at_ns = round` once per overdue round,
    /// only on chaos-on runs — the explicit fail-closed signal the
    /// bounded-staleness invariant requires.
    FleetDegraded {
        /// Goal region epoch the fleet is still converging toward.
        epoch: u32,
        /// Number of homes still below the goal epoch.
        waiting: u32,
    },
    /// A packet entered a µmbox chain.
    UmboxEnter {
        /// Protected device id.
        device: u32,
    },
    /// A packet left a µmbox chain with a verdict.
    UmboxExit {
        /// Protected device id.
        device: u32,
        /// Verdict: `"pass"`, `"drop"`, `"intercept"`, `"fail-open"` or
        /// `"fail-closed"`.
        verdict: &'static str,
    },
}

impl TraceEvent {
    /// The event's class (what [`crate::tracer::TraceConfig`] masks on).
    pub fn class(&self) -> EventClass {
        match self {
            TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::PolicyDrop { .. }
            | TraceEvent::UmboxEnter { .. }
            | TraceEvent::UmboxExit { .. } => EventClass::Packet,
            _ => EventClass::Control,
        }
    }

    /// Stable kind label (the `"e"` field of the JSONL rendering).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceEvent::DirectiveIssued { .. } => "directive-issued",
            TraceEvent::DirectiveDelivered { .. } => "directive-delivered",
            TraceEvent::DirectiveInstalled { .. } => "directive-installed",
            TraceEvent::DirectiveDeduped { .. } => "directive-deduped",
            TraceEvent::DirectiveShed { .. } => "directive-shed",
            TraceEvent::AdmissionShed { .. } => "admission-shed",
            TraceEvent::DirectiveRetry { .. } => "directive-retry",
            TraceEvent::UmboxLaunch { .. } => "umbox-launch",
            TraceEvent::UmboxReady { .. } => "umbox-ready",
            TraceEvent::UmboxSwap { .. } => "umbox-swap",
            TraceEvent::UmboxRetire { .. } => "umbox-retire",
            TraceEvent::UmboxCrash { .. } => "umbox-crash",
            TraceEvent::UmboxRespawn { .. } => "umbox-respawn",
            TraceEvent::Failover { .. } => "failover",
            TraceEvent::CtlOutage { .. } => "ctl-outage",
            TraceEvent::FaultFired { .. } => "fault-fired",
            TraceEvent::FaultHealed { .. } => "fault-healed",
            TraceEvent::SafetyViolation { .. } => "safety-violation",
            TraceEvent::BreakerTrip { .. } => "breaker-trip",
            TraceEvent::BreakerHalfOpen { .. } => "breaker-half-open",
            TraceEvent::BreakerClose { .. } => "breaker-close",
            TraceEvent::QuarantineInstalled { .. } => "quarantine-install",
            TraceEvent::SpaceFrontier { .. } => "space-frontier",
            TraceEvent::FleetDiscovery { .. } => "fleet-discovery",
            TraceEvent::FleetBatch { .. } => "fleet-batch",
            TraceEvent::FleetInstall { .. } => "fleet-install",
            TraceEvent::FleetFault { .. } => "fleet-fault",
            TraceEvent::FleetRecover { .. } => "fleet-recover",
            TraceEvent::FleetAbsorb { .. } => "fleet-absorb",
            TraceEvent::FleetDegraded { .. } => "fleet-degraded",
            TraceEvent::CacheHit { .. } => "cache-hit",
            TraceEvent::CacheMiss { .. } => "cache-miss",
            TraceEvent::PolicyDrop { .. } => "policy-drop",
            TraceEvent::UmboxEnter { .. } => "umbox-enter",
            TraceEvent::UmboxExit { .. } => "umbox-exit",
        }
    }

    /// The emitting component (for the aggregator's per-component
    /// histograms).
    pub(crate) fn component(&self) -> &'static str {
        match self {
            TraceEvent::DirectiveIssued { .. }
            | TraceEvent::DirectiveDelivered { .. }
            | TraceEvent::DirectiveInstalled { .. }
            | TraceEvent::DirectiveDeduped { .. }
            | TraceEvent::DirectiveShed { .. }
            | TraceEvent::AdmissionShed { .. }
            | TraceEvent::DirectiveRetry { .. }
            | TraceEvent::Failover { .. }
            | TraceEvent::CtlOutage { .. }
            | TraceEvent::SafetyViolation { .. }
            | TraceEvent::QuarantineInstalled { .. } => "iotctl",
            TraceEvent::BreakerTrip { .. }
            | TraceEvent::BreakerHalfOpen { .. }
            | TraceEvent::BreakerClose { .. }
            | TraceEvent::UmboxLaunch { .. }
            | TraceEvent::UmboxReady { .. }
            | TraceEvent::UmboxSwap { .. }
            | TraceEvent::UmboxRetire { .. }
            | TraceEvent::UmboxCrash { .. }
            | TraceEvent::UmboxRespawn { .. }
            | TraceEvent::UmboxEnter { .. }
            | TraceEvent::UmboxExit { .. } => "umbox",
            TraceEvent::FaultFired { .. }
            | TraceEvent::FaultHealed { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::PolicyDrop { .. } => "iotnet",
            TraceEvent::SpaceFrontier { .. } => "iotpolicy",
            TraceEvent::FleetDiscovery { .. }
            | TraceEvent::FleetBatch { .. }
            | TraceEvent::FleetInstall { .. }
            | TraceEvent::FleetFault { .. }
            | TraceEvent::FleetRecover { .. }
            | TraceEvent::FleetAbsorb { .. }
            | TraceEvent::FleetDegraded { .. } => "fleet",
        }
    }

    /// Append the canonical JSON line for this event at sim-time
    /// `at_ns` to `out` (no trailing newline).
    ///
    /// Key order is fixed — `t`, `e`, then variant fields in declaration
    /// order — and all values are integers or fixed label strings, so
    /// identical event streams render to identical bytes.
    pub fn write_json(&self, at_ns: u64, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{{\"t\":{},\"e\":\"{}\"", at_ns, self.kind());
        match self {
            TraceEvent::DirectiveIssued { device, kind }
            | TraceEvent::DirectiveDelivered { device, kind }
            | TraceEvent::DirectiveInstalled { device, kind } => {
                let _ = write!(out, ",\"dev\":{device},\"kind\":\"{kind}\"");
            }
            TraceEvent::DirectiveDeduped { device } | TraceEvent::AdmissionShed { device } => {
                let _ = write!(out, ",\"dev\":{device}");
            }
            TraceEvent::DirectiveShed { device, criticality } => {
                let _ = write!(out, ",\"dev\":{device},\"crit\":\"{criticality}\"");
            }
            TraceEvent::DirectiveRetry { device, attempt } => {
                let _ = write!(out, ",\"dev\":{device},\"attempt\":{attempt}");
            }
            TraceEvent::UmboxLaunch { device, ready_ns } => {
                let _ = write!(out, ",\"dev\":{device},\"ready\":{ready_ns}");
            }
            TraceEvent::UmboxReady { device }
            | TraceEvent::UmboxSwap { device }
            | TraceEvent::UmboxRetire { device }
            | TraceEvent::UmboxCrash { device }
            | TraceEvent::UmboxRespawn { device }
            | TraceEvent::UmboxEnter { device } => {
                let _ = write!(out, ",\"dev\":{device}");
            }
            TraceEvent::Failover { count } => {
                let _ = write!(out, ",\"count\":{count}");
            }
            TraceEvent::CtlOutage { duration_ns } => {
                let _ = write!(out, ",\"dur\":{duration_ns}");
            }
            TraceEvent::FaultFired { kind } | TraceEvent::FaultHealed { kind } => {
                let _ = write!(out, ",\"kind\":\"{kind}\"");
            }
            TraceEvent::SafetyViolation { device, invariant } => {
                let _ = write!(out, ",\"dev\":{device},\"inv\":\"{invariant}\"");
            }
            TraceEvent::BreakerTrip { device }
            | TraceEvent::BreakerHalfOpen { device }
            | TraceEvent::BreakerClose { device }
            | TraceEvent::QuarantineInstalled { device } => {
                let _ = write!(out, ",\"dev\":{device}");
            }
            TraceEvent::CacheHit { switch }
            | TraceEvent::CacheMiss { switch }
            | TraceEvent::PolicyDrop { switch } => {
                let _ = write!(out, ",\"sw\":{switch}");
            }
            TraceEvent::UmboxExit { device, verdict } => {
                let _ = write!(out, ",\"dev\":{device},\"verdict\":\"{verdict}\"");
            }
            TraceEvent::SpaceFrontier { depth, frontier } => {
                let _ = write!(out, ",\"depth\":{depth},\"frontier\":{frontier}");
            }
            TraceEvent::FleetDiscovery { home, signature } => {
                let _ = write!(out, ",\"home\":{home},\"sig\":{signature}");
            }
            TraceEvent::FleetBatch { neighborhood, installs } => {
                let _ = write!(out, ",\"nbhd\":{neighborhood},\"installs\":{installs}");
            }
            TraceEvent::FleetInstall { home, epoch } => {
                let _ = write!(out, ",\"home\":{home},\"epoch\":{epoch}");
            }
            TraceEvent::FleetFault { neighborhood, kind }
            | TraceEvent::FleetRecover { neighborhood, kind } => {
                let _ = write!(out, ",\"nbhd\":{neighborhood},\"kind\":\"{kind}\"");
            }
            TraceEvent::FleetAbsorb { signature, epoch } => {
                let _ = write!(out, ",\"sig\":{signature},\"epoch\":{epoch}");
            }
            TraceEvent::FleetDegraded { epoch, waiting } => {
                let _ = write!(out, ",\"epoch\":{epoch},\"waiting\":{waiting}");
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_is_canonical() {
        let mut out = String::new();
        TraceEvent::DirectiveIssued { device: 3, kind: "launch" }.write_json(100, &mut out);
        assert_eq!(out, r#"{"t":100,"e":"directive-issued","dev":3,"kind":"launch"}"#);
        out.clear();
        TraceEvent::CacheHit { switch: 0 }.write_json(4096, &mut out);
        assert_eq!(out, r#"{"t":4096,"e":"cache-hit","sw":0}"#);
        out.clear();
        TraceEvent::UmboxExit { device: 1, verdict: "drop" }.write_json(7, &mut out);
        assert_eq!(out, r#"{"t":7,"e":"umbox-exit","dev":1,"verdict":"drop"}"#);
        out.clear();
        TraceEvent::DirectiveShed { device: 2, criticality: "telemetry" }.write_json(9, &mut out);
        assert_eq!(out, r#"{"t":9,"e":"directive-shed","dev":2,"crit":"telemetry"}"#);
        out.clear();
        TraceEvent::SafetyViolation { device: 4, invariant: "fail-closed-coverage" }
            .write_json(11, &mut out);
        assert_eq!(out, r#"{"t":11,"e":"safety-violation","dev":4,"inv":"fail-closed-coverage"}"#);
        out.clear();
        TraceEvent::BreakerTrip { device: 5 }.write_json(13, &mut out);
        assert_eq!(out, r#"{"t":13,"e":"breaker-trip","dev":5}"#);
        out.clear();
        TraceEvent::QuarantineInstalled { device: 5 }.write_json(15, &mut out);
        assert_eq!(out, r#"{"t":15,"e":"quarantine-install","dev":5}"#);
        out.clear();
        TraceEvent::SpaceFrontier { depth: 2, frontier: 84 }.write_json(2, &mut out);
        assert_eq!(out, r#"{"t":2,"e":"space-frontier","depth":2,"frontier":84}"#);
        out.clear();
        TraceEvent::FleetDiscovery { home: 7, signature: 9001 }.write_json(1, &mut out);
        assert_eq!(out, r#"{"t":1,"e":"fleet-discovery","home":7,"sig":9001}"#);
        out.clear();
        TraceEvent::FleetBatch { neighborhood: 2, installs: 100 }.write_json(1, &mut out);
        assert_eq!(out, r#"{"t":1,"e":"fleet-batch","nbhd":2,"installs":100}"#);
        out.clear();
        TraceEvent::FleetInstall { home: 0, epoch: 1 }.write_json(2, &mut out);
        assert_eq!(out, r#"{"t":2,"e":"fleet-install","home":0,"epoch":1}"#);
        out.clear();
        TraceEvent::FleetFault { neighborhood: 3, kind: "flush-drop" }.write_json(4, &mut out);
        assert_eq!(out, r#"{"t":4,"e":"fleet-fault","nbhd":3,"kind":"flush-drop"}"#);
        out.clear();
        TraceEvent::FleetRecover { neighborhood: 3, kind: "flush-retry" }.write_json(5, &mut out);
        assert_eq!(out, r#"{"t":5,"e":"fleet-recover","nbhd":3,"kind":"flush-retry"}"#);
        out.clear();
        TraceEvent::FleetAbsorb { signature: 9001, epoch: 2 }.write_json(4, &mut out);
        assert_eq!(out, r#"{"t":4,"e":"fleet-absorb","sig":9001,"epoch":2}"#);
        out.clear();
        TraceEvent::FleetDegraded { epoch: 2, waiting: 40 }.write_json(9, &mut out);
        assert_eq!(out, r#"{"t":9,"e":"fleet-degraded","epoch":2,"waiting":40}"#);
    }

    #[test]
    fn classes_split_control_from_packet() {
        assert_eq!(TraceEvent::FaultFired { kind: "wire-down" }.class(), EventClass::Control);
        assert_eq!(TraceEvent::Failover { count: 1 }.class(), EventClass::Control);
        assert_eq!(TraceEvent::CacheMiss { switch: 2 }.class(), EventClass::Packet);
        assert_eq!(TraceEvent::UmboxEnter { device: 0 }.class(), EventClass::Packet);
        // Exploration progress is control class: one event per BFS depth,
        // compact enough for control-only goldens.
        assert_eq!(
            TraceEvent::SpaceFrontier { depth: 0, frontier: 1 }.class(),
            EventClass::Control
        );
        assert_eq!(TraceEvent::SpaceFrontier { depth: 0, frontier: 1 }.component(), "iotpolicy");
        // Fleet propagation events are control class: a handful per
        // round, compact enough for the E20 propagation golden.
        for ev in [
            TraceEvent::FleetDiscovery { home: 0, signature: 1 },
            TraceEvent::FleetBatch { neighborhood: 0, installs: 1 },
            TraceEvent::FleetInstall { home: 0, epoch: 1 },
            TraceEvent::FleetFault { neighborhood: 0, kind: "partition" },
            TraceEvent::FleetRecover { neighborhood: 0, kind: "rejoin-fast-forward" },
            TraceEvent::FleetAbsorb { signature: 1, epoch: 1 },
            TraceEvent::FleetDegraded { epoch: 1, waiting: 1 },
        ] {
            assert_eq!(ev.class(), EventClass::Control, "{}", ev.kind());
            assert_eq!(ev.component(), "fleet", "{}", ev.kind());
        }
    }

    #[test]
    fn components_cover_the_enforcement_path() {
        let shed = TraceEvent::DirectiveShed { device: 0, criticality: "telemetry" };
        assert_eq!(shed.component(), "iotctl");
        assert_eq!(TraceEvent::UmboxCrash { device: 0 }.component(), "umbox");
        assert_eq!(TraceEvent::PolicyDrop { switch: 0 }.component(), "iotnet");
        assert_eq!(TraceEvent::SafetyViolation { device: 0, invariant: "x" }.component(), "iotctl");
        assert_eq!(TraceEvent::QuarantineInstalled { device: 0 }.component(), "iotctl");
        assert_eq!(TraceEvent::AdmissionShed { device: 0 }.component(), "iotctl");
        assert_eq!(TraceEvent::BreakerTrip { device: 0 }.component(), "umbox");
        assert_eq!(TraceEvent::BreakerHalfOpen { device: 0 }.component(), "umbox");
        assert_eq!(TraceEvent::BreakerClose { device: 0 }.component(), "umbox");
    }

    #[test]
    fn safety_events_are_control_class() {
        // The safety monitor reads the control mask; if any of these
        // slipped into the packet class a control-only golden would miss
        // them and the monitor would go blind under control_only runs.
        for ev in [
            TraceEvent::SafetyViolation { device: 0, invariant: "bounded-staleness" },
            TraceEvent::BreakerTrip { device: 0 },
            TraceEvent::BreakerHalfOpen { device: 0 },
            TraceEvent::BreakerClose { device: 0 },
            TraceEvent::QuarantineInstalled { device: 0 },
            TraceEvent::AdmissionShed { device: 0 },
        ] {
            assert_eq!(ev.class(), EventClass::Control, "{}", ev.kind());
        }
    }
}
