//! E21 — the zero-alloc arena event engine and the packed packet path,
//! measured.
//!
//! Three measurements, one determinism gate:
//!
//! 1. **World sweep** — the E16 scaled-home grid
//!    ([`crate::exp_perf::standard_jobs`], 18 world instances) runs
//!    serially, twice: an untimed pass records the reference digests and
//!    the three engine counters, and the timed pass must reproduce those
//!    digests byte-for-byte. (Thread-count determinism of the same grid
//!    is E16's gate.)
//! 2. **Steady-state allocation probe** — a warm two-host network with a
//!    steered IDS chain runs `schedule → fire → forward → verdict`
//!    rounds while a caller-supplied allocation counter watches; the
//!    measured window must execute with **zero** allocations.
//! 3. **Queue micro-benchmark** — a synthetic schedule/pop storm through
//!    the timer wheel, for a ns/event number uncontaminated by world
//!    logic.
//!
//! Wall-clock numbers land only in the `wall_ms`-marked volatile section
//! of `BENCH_E21.json`; digests, counters and the alloc-free verdict are
//! byte-stable, and the CI `engine-gate` job diffs them with
//! `git diff -I'wall_ms'`. A digest divergence — or a steady state that
//! allocates — fails the run (non-zero exit via the runner). The record
//! keeps the `packed-serial` / `packed_*` key names it was first blessed
//! with, so its history diffs as deletions only.

use crate::sweep::{run_world_job, WorldOutcome};
use crate::Table;
use iotdev::device::{AdminCreds, DeviceId};
use iotdev::proto::{ports, AppMessage, TelemetryKind};
use iotdev::registry::Sku;
use iotlearn::signature::{AttackSignature, Matcher, Severity};
use iotnet::engine::EventQueue;
use iotnet::flow::{FlowAction, FlowMatch, FlowRule, SteerId};
use iotnet::link::LinkParams;
use iotnet::net::{Delivery, Network};
use iotnet::packet::{Packet, TransportHeader};
use iotnet::time::{SimDuration, SimTime};
use iotnet::topology::TopologyBuilder;
use iotpolicy::posture::{Posture, SecurityModule};
use std::time::Instant;
use trace::tracer::Tracer;
use umbox::chain::{build_chain, ChainConfig, FailureMode};
use umbox::element::{EventSink, ViewHandle};

/// The repo-wide experiment seed.
pub const SEED: u64 = 20151116;

/// Steady-probe round spacing: 2^21 ns, an exact multiple of the timer
/// wheel's level-0 slot width (2^12 ns) and level-1 slot width (2^18 ns).
/// Every round therefore lands its events in a slot-index pattern that
/// repeats with a short period, so a modest warm phase provably touches
/// every wheel slot the measured phase will use — allocation in the
/// measured window then genuinely means a steady-state leak, not a cold
/// slot vector.
const STEADY_STEP_NS: u64 = 1 << 21;
/// Warm-up rounds. At 2^21 ns per round the wheel's level-2 slot index
/// advances once every 8 rounds (lap = 512 rounds) and the overflow
/// re-anchor fires at the 2^30 ns boundary (round 512), so 576 rounds
/// covers one full level-2 lap plus the first overflow crossing — every
/// slot vector and heap the measured window can touch is already warm.
const STEADY_WARM: u64 = 576;
/// Measured rounds (well clear of the next overflow crossing at 1024).
const STEADY_MEASURE: u64 = 64;

/// Events scheduled and popped by the queue micro-benchmark.
const MICRO_EVENTS: u64 = 1 << 18;
/// Batch size of the micro-benchmark's schedule/pop cycle.
const MICRO_BATCH: u64 = 4096;

/// Steady-state allocation probe result.
pub struct SteadyProbe {
    /// Engine events popped in the measured window.
    pub events: u64,
    /// Packets delivered in the measured window.
    pub delivered: u64,
    /// Heap allocations observed in the measured window.
    pub allocs: u64,
}

/// The E21 report: the printed table plus everything the JSON needs.
pub struct EngineReport {
    /// Rendered sweep table.
    pub table: Table,
    /// World instances in the sweep.
    pub jobs: usize,
    /// Reference digests (the untimed pass), one per job.
    pub digests: Vec<String>,
    /// Engine events processed by the sweep.
    pub events_total: u64,
    /// Flow-decision-cache lookups in the sweep.
    pub cache_lookups: u64,
    /// Flow-decision-cache hits in the sweep.
    pub cache_hits: u64,
    /// Whether the timed pass reproduced every reference digest.
    pub sweep_identical: bool,
    /// Timed-pass wall time (volatile; never gated on).
    pub sweep_wall_ms: u128,
    /// Steady-state allocation probe.
    pub steady: SteadyProbe,
    /// Micro-benchmark wall time (volatile).
    pub micro_wall_ns: u128,
    /// The timed pass identical *and* the steady state allocation-free.
    pub deterministic: bool,
    /// One-line human summary.
    pub summary: String,
}

impl EngineReport {
    /// Aggregate flow-cache hit rate of the sweep.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// `BENCH_E21.json`: a stable section (digests, counters, the
    /// alloc-free verdict, sweep agreement) plus a `timing_wall_ms`
    /// section where **every** volatile line contains `wall_ms`, so CI
    /// can assert byte stability with `git diff -I'wall_ms'`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e21\",\n");
        out.push_str(&format!("  \"seed\": {SEED},\n"));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"events_total\": {},\n", self.events_total));
        out.push_str(&format!("  \"cache_lookups\": {},\n", self.cache_lookups));
        out.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!(
            "  \"steady_state\": {{\"measured_rounds\": {STEADY_MEASURE}, \
             \"packed_events\": {}, \"packed_allocs\": {}, \
             \"packed_alloc_free\": {}}},\n",
            self.steady.events,
            self.steady.allocs,
            self.steady.allocs == 0,
        ));
        out.push_str("  \"digests\": [\n");
        for (i, d) in self.digests.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\"{}\n",
                d,
                if i + 1 == self.digests.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"legs\": [\n    {{\"label\": \"packed-serial\", \"threads\": 1, \
             \"identical\": {}}}\n  ],\n",
            self.sweep_identical,
        ));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"timing_wall_ms\": [\n");
        // Host-dependent rates, from the timed pass's wall clock.
        let wall_s = self.sweep_wall_ms.max(1) as f64 / 1000.0;
        out.push_str(&format!(
            "    {{\"leg\": \"packed-serial\", \"sweep_wall_ms\": {}, \"ns_per_event\": {:.1}, \
             \"events_per_sec\": {:.0}}},\n",
            self.sweep_wall_ms,
            (self.sweep_wall_ms as f64 * 1e6) / (self.events_total.max(1) as f64),
            self.events_total as f64 / wall_s,
        ));
        out.push_str(&format!(
            "    {{\"micro\": \"queue-wheel\", \"micro_wall_ms\": {}, \"ns_per_event\": {:.1}}}\n",
            self.micro_wall_ns / 1_000_000,
            self.micro_wall_ns as f64 / MICRO_EVENTS as f64,
        ));
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
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

/// Schedule/pop [`MICRO_EVENTS`] synthetic events through the timer
/// wheel in batches, returning the wall time in nanoseconds. The
/// xorshift offsets exercise near (wheel slots) and far (overflow tier)
/// schedules.
fn micro_queue_wall_ns() -> u128 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(MICRO_BATCH as usize);
    let mut x = SEED | 1;
    let mut popped = 0u64;
    let start = Instant::now();
    while popped < MICRO_EVENTS {
        let base = q.now().as_nanos();
        for i in 0..MICRO_BATCH {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            // Simulated latencies are microseconds to low milliseconds
            // (LAN hops, µmbox detours); one event in 64 sits seconds out
            // to keep the overflow tier honest.
            let offset = if i % 64 == 0 { r % 4_000_000_000 } else { r % 4_000_000 };
            q.schedule(SimTime::from_nanos(base + offset), i);
        }
        while q.pop().is_some() {
            popped += 1;
        }
    }
    start.elapsed().as_nanos()
}

/// E21 — sweep the E16 grid, probe the steady state through
/// `alloc_count` (a reader of the process's allocation counter; the
/// `experiments` binary installs a counting global allocator and passes
/// it in), and build the report.
pub fn engine(alloc_count: &dyn Fn() -> u64) -> EngineReport {
    let jobs = crate::exp_perf::standard_jobs(SEED);

    // Steady-state probe first, on a quiet process.
    let steady = steady_probe(alloc_count);

    // Queue micro-benchmark: warm once (page cache, lazy init), then time.
    micro_queue_wall_ns();
    let micro_wall_ns = micro_queue_wall_ns();

    // Untimed reference pass, so the timed pass does not absorb the
    // process's cold-start cost.
    let reference: Vec<WorldOutcome> = jobs.iter().map(run_world_job).collect();
    let digests: Vec<String> = reference.iter().map(|o| o.digest()).collect();
    let events_total: u64 = reference.iter().map(|o| o.events_processed).sum();
    let cache_lookups: u64 = reference.iter().map(|o| o.cache_lookups).sum();
    let cache_hits: u64 = reference.iter().map(|o| o.cache_hits).sum();

    let start = Instant::now();
    let timed: Vec<WorldOutcome> = jobs.iter().map(run_world_job).collect();
    let sweep_wall_ms = start.elapsed().as_millis();
    let sweep_identical = timed.iter().map(|o| o.digest()).eq(digests.iter().cloned());

    let deterministic = sweep_identical && steady.allocs == 0;
    let mut report = EngineReport {
        table: Table::new(
            "E21: arena engine + packed packet path — one serial sweep",
            &["leg", "threads", "jobs", "events", "cache hit rate", "identical", "wall ms"],
        ),
        jobs: jobs.len(),
        digests,
        events_total,
        cache_lookups,
        cache_hits,
        sweep_identical,
        sweep_wall_ms,
        steady,
        micro_wall_ns,
        deterministic,
        summary: String::new(),
    };
    report.table.rowd(&[
        "packed-serial".to_string(),
        "1".to_string(),
        report.jobs.to_string(),
        events_total.to_string(),
        format!("{:.3}", report.cache_hit_rate()),
        sweep_identical.to_string(),
        sweep_wall_ms.to_string(),
    ]);
    report.summary = format!(
        "E21 summary: {} jobs, {} events, steady-state allocs/round {:.2} \
         (alloc-free: {}), micro ns/event wheel={:.0}, deterministic: {}",
        report.jobs,
        report.events_total,
        report.steady.allocs as f64 / STEADY_MEASURE as f64,
        report.steady.allocs == 0,
        report.micro_wall_ns as f64 / MICRO_EVENTS as f64,
        report.deterministic,
    );
    report
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

    #[test]
    fn micro_queue_pops_every_event() {
        // The function would spin forever if the storm did not drain.
        assert!(micro_queue_wall_ns() > 0);
    }

    #[test]
    fn json_volatile_lines_all_carry_wall_ms() {
        let report = EngineReport {
            table: Table::new("t", &["a"]),
            jobs: 18,
            digests: vec!["home-iotsec/s1/p0: c=0".to_string()],
            events_total: 1000,
            cache_lookups: 500,
            cache_hits: 400,
            sweep_identical: true,
            sweep_wall_ms: 5,
            steady: SteadyProbe { events: 128, delivered: 64, allocs: 0 },
            micro_wall_ns: 5_000_000,
            deterministic: true,
            summary: String::new(),
        };
        let json = report.render_json();
        let mut in_timing = false;
        for line in json.lines() {
            if line.contains("\"timing_wall_ms\"") {
                in_timing = true;
            }
            if in_timing && line.contains('{') {
                assert!(line.contains("wall_ms"), "volatile line lacks marker: {line}");
            }
            if line.contains("ns_per_event") {
                assert!(line.contains("wall_ms"), "host-dependent line lacks marker: {line}");
            }
        }
        assert!(json.contains("\"packed_alloc_free\": true"));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.ends_with("}\n"));
    }
}
