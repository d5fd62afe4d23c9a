//! E21 — the zero-alloc event engine and the packed packet path,
//! measured.
//!
//! Two measurements, one determinism gate:
//!
//! 1. **World sweep** — the E16 scaled-home grid
//!    ([`crate::exp_perf::standard_jobs`], 18 world instances) runs
//!    serially, twice: the first pass records the reference digests and
//!    the three engine counters, and the second (`packed-serial`) must
//!    reproduce those digests byte-for-byte. (Thread-count determinism of
//!    the same grid is E16's gate.)
//! 2. **Steady-state allocation probe** — a warm two-host network with a
//!    steered IDS chain runs `schedule → fire → forward → verdict`
//!    rounds while a caller-supplied allocation counter watches; the
//!    measured window must execute with **zero** allocations.
//!
//! `BENCH_E21.json` holds the digests, counters and the alloc-free
//! verdict, and the CI `engine-gate` job byte-compares it; time per event
//! is the `benchmark/` harness's `iotnet.engine.ns_per_event`. A digest
//! divergence — or a steady state that allocates — fails the run
//! (non-zero exit via the runner). The record keeps the `packed-serial` /
//! `packed_*` key names it was first blessed with, so its history diffs
//! as deletions only.

use crate::report::{hit_rate, quoted, Doc, Leg, Obj, Report, SEED};
use crate::sweep::{run_world_job, totals, WorldOutcome};
use crate::Table;
use iotdev::device::{AdminCreds, DeviceId};
use iotdev::proto::{ports, AppMessage, TelemetryKind};
use iotdev::registry::Sku;
use iotlearn::signature::{AttackSignature, Matcher, Severity};
use iotnet::flow::{FlowAction, FlowMatch, FlowRule, SteerId};
use iotnet::link::LinkParams;
use iotnet::net::{Delivery, Network};
use iotnet::packet::{Packet, TransportHeader};
use iotnet::time::{SimDuration, SimTime};
use iotnet::topology::TopologyBuilder;
use iotpolicy::posture::{Posture, SecurityModule};
use trace::tracer::Tracer;
use umbox::chain::{build_chain, ChainConfig, FailureMode};
use umbox::element::{EventSink, ViewHandle};

/// Steady-probe round spacing (2^21 ns ≈ 2.1 ms): every round drains
/// before the next is sent.
const STEADY_STEP_NS: u64 = 1 << 21;
/// Warm-up rounds. Every round is the same exchange, so the event heap
/// and every buffer on the packet path have held their peak after the
/// first; allocation in the measured window then genuinely means a
/// steady-state leak. The count is kept because `packed_events` is a
/// stable field of the record.
const STEADY_WARM: u64 = 576;
/// Measured rounds.
const STEADY_MEASURE: u64 = 64;

/// Steady-state allocation probe result.
pub struct SteadyProbe {
    /// Engine events popped in the measured window.
    pub events: u64,
    /// Packets delivered in the measured window.
    pub delivered: u64,
    /// Heap allocations observed in the measured window.
    pub allocs: u64,
}

/// Everything E21 measures.
pub struct EngineReport {
    /// The reference pass, one outcome per job: the source of the
    /// digests and the three engine counters.
    pub reference: Vec<WorldOutcome>,
    /// The second pass: `identical` iff it reproduced every reference
    /// digest.
    pub sweep: Leg,
    /// Steady-state allocation probe.
    pub steady: SteadyProbe,
}

impl EngineReport {
    /// The second pass identical *and* the steady state allocation-free.
    pub fn deterministic(&self) -> bool {
        self.sweep.identical && self.steady.allocs == 0
    }
}

impl Report for EngineReport {
    fn table(&self) -> Table {
        let (events, lookups, hits) = totals(&self.reference);
        let rate = hit_rate(hits, lookups);
        let mut table = Table::new(
            "E21: event engine + packed packet path — one serial sweep",
            &["leg", "threads", "jobs", "events", "cache hit rate", "identical"],
        );
        table.rowd(&[
            self.sweep.label.clone(),
            self.sweep.threads.to_string(),
            self.reference.len().to_string(),
            events.to_string(),
            format!("{rate:.3}"),
            self.sweep.identical.to_string(),
        ]);
        table
    }

    fn summary(&self) -> String {
        format!(
            "E21 summary: {} jobs, {} events, steady-state allocs/round {:.2} \
             (alloc-free: {}), deterministic: {}",
            self.reference.len(),
            totals(&self.reference).0,
            self.steady.allocs as f64 / STEADY_MEASURE as f64,
            self.steady.allocs == 0,
            self.deterministic(),
        )
    }

    fn passed(&self) -> bool {
        self.deterministic()
    }

    /// Digests, counters, the alloc-free verdict and sweep agreement.
    fn record(&self) -> Option<Doc> {
        let (events, lookups, hits) = totals(&self.reference);
        let doc = Doc::new("BENCH_E21.json")
            .field("experiment", quoted("e21"))
            .field("seed", SEED)
            .field("jobs", self.reference.len())
            .field("events_total", events)
            .field("cache_lookups", lookups)
            .field("cache_hits", hits)
            .field(
                "steady_state",
                Obj::new()
                    .field("measured_rounds", STEADY_MEASURE)
                    .field("packed_events", self.steady.events)
                    .field("packed_allocs", self.steady.allocs)
                    .field("packed_alloc_free", self.steady.allocs == 0),
            )
            .rows("digests", self.reference.iter().map(|o| quoted(o.digest())))
            .rows("legs", [self.sweep.json()])
            .field("deterministic", self.deterministic());
        Some(doc)
    }
}

/// The steady-state fixture: two LAN hosts on one switch, every packet
/// steered through an IDS chain whose prefilters screen the (benign)
/// telemetry without a payload decode — the packet path end to end.
fn steady_net() -> (Network, iotnet::addr::EndpointId, Packet) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch();
    let a = b.attach_endpoint(sw, LinkParams::lan());
    let z = b.attach_endpoint(sw, LinkParams::lan());
    let mut net = Network::new(b.build(), SEED);

    let signatures: Vec<AttackSignature> = vec![
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "cloud-bypass-backdoor",
            Matcher::CloudCommand,
            Severity::High,
        ),
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "unauthenticated-control",
            Matcher::UnauthenticatedControl,
            Severity::High,
        ),
        AttackSignature::new(
            Sku::new("belkin", "wemo", "1.1"),
            "mgmt-from-wan",
            Matcher::MgmtFromExternal,
            Severity::Medium,
        ),
    ];
    let config = ChainConfig {
        device: DeviceId(0),
        required_creds: AdminCreds::new("owner", "Str0ng!"),
        cleared_sources: Vec::new(),
        signatures: signatures.into(),
        view: ViewHandle::new(),
        events: EventSink::new(),
        failure_mode: FailureMode::FailOpen,
        tracer: Tracer::disabled(),
    };
    let chain = build_chain(&Posture::of(SecurityModule::Ids { ruleset: 1 }), &config);
    net.register_steer(SteerId(1), Box::new(chain), SimDuration::from_micros(200));
    net.install_rule(sw, FlowRule::new(100, FlowMatch::any(), FlowAction::Steer(SteerId(1))));

    let pkt = Packet::new(
        net.mac_of(a),
        net.mac_of(z),
        net.ip_of(a),
        net.ip_of(z),
        TransportHeader::udp(4000, ports::TELEMETRY),
        AppMessage::Telemetry { kind: TelemetryKind::Power, value: 21.0 }.encode(),
    );
    (net, a, pkt)
}

fn steady_round(
    net: &mut Network,
    a: iotnet::addr::EndpointId,
    pkt: &Packet,
    round: u64,
    buf: &mut Vec<Delivery>,
) -> u64 {
    let t = SimTime::from_nanos(round * STEADY_STEP_NS);
    net.send(a, t, pkt.clone());
    buf.clear();
    net.step_until_into(SimTime::from_nanos((round + 1) * STEADY_STEP_NS), buf);
    buf.len() as u64
}

/// Run the warm steady-state loop, reading the allocation counter only
/// around the measured window.
fn steady_probe(alloc_count: &dyn Fn() -> u64) -> SteadyProbe {
    let (mut net, a, pkt) = steady_net();
    let mut buf: Vec<Delivery> = Vec::new();
    for round in 0..STEADY_WARM {
        steady_round(&mut net, a, &pkt, round, &mut buf);
    }
    let events_before = net.events_processed();
    let mut delivered = 0u64;
    let allocs_before = alloc_count();
    for round in STEADY_WARM..STEADY_WARM + STEADY_MEASURE {
        delivered += steady_round(&mut net, a, &pkt, round, &mut buf);
    }
    let allocs = alloc_count() - allocs_before;
    SteadyProbe { events: net.events_processed() - events_before, delivered, allocs }
}

/// E21 — sweep the E16 grid, probe the steady state through
/// `alloc_count` (a reader of the process's allocation counter; the
/// `experiments` binary installs a counting global allocator and passes
/// it in).
pub fn engine(alloc_count: &dyn Fn() -> u64) -> EngineReport {
    let jobs = crate::exp_perf::standard_jobs(SEED);

    // Steady-state probe first, on a quiet process.
    let steady = steady_probe(alloc_count);

    let pass = || jobs.iter().map(run_world_job).collect::<Vec<WorldOutcome>>();
    let reference = pass();
    let sweep =
        Leg { label: "packed-serial".to_string(), threads: 1, identical: pass() == reference };
    EngineReport { reference, sweep, steady }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A null counter: unit tests exercise the probe's determinism, not
    /// the allocator (the real count is wired up by the `experiments`
    /// binary and pinned by `tests/alloc_counter.rs`).
    fn no_counter() -> u64 {
        0
    }

    #[test]
    fn steady_probe_delivers_once_per_round() {
        let probe = steady_probe(&no_counter);
        assert!(probe.events > 0, "the probe must actually run the engine");
        assert_eq!(probe.delivered, STEADY_MEASURE);
    }
}
