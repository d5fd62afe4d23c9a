//! The only file that names the repository's APIs.
//!
//! Everything the workloads, the traced run and the layer probes need
//! from the library crates is wrapped here behind plain numbers, so a
//! refactor of those crates re-points this file and nothing else (the
//! README lists the calls that would move). It deliberately names no
//! reference twin — no heap event queue, no scan lookup, no naive
//! explorer — so collapsing those cannot touch the benchmark; the
//! recycled-build hooks appear only in [`Spanned`]'s pass-through.

use crate::spans::{HomeCounts, HomeTrace, Kind, SpanSink};
use iotctl::aggregate::{InstallLedger, NeighborhoodBuffer, RegionIntel};
use iotctl::controller::{Controller, ControllerConfig};
use iotdev::device::{AdminCreds, DeviceClass, DeviceId, IoTDevice};
use iotdev::env::{EnvVar, Environment};
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::proto::{ports, AppMessage, TelemetryKind};
use iotdev::registry::Sku;
use iotdev::vuln::Vulnerability;
use iotlearn::signature::{Matcher, Severity};
use iotlearn::AttackSignature;
use iotnet::addr::{Ipv4Addr, MacAddr, PortNo, SwitchId};
use iotnet::engine::EventQueue;
use iotnet::flow::{FlowAction, FlowMatch, FlowRule, FlowTable, SteerId};
use iotnet::link::LinkParams;
use iotnet::net::{Delivery, Network};
use iotnet::packet::{PackedHeaders, Packet, TransportHeader};
use iotnet::switch::Switch;
use iotnet::time::{SimDuration, SimTime};
use iotnet::topology::TopologyBuilder;
use iotpolicy::compile::PolicyCompiler;
use iotpolicy::explore::{bfs_packed, explore_packed};
use iotpolicy::intern::Interner;
use iotpolicy::policy::FsmPolicy;
use iotpolicy::posture::{Posture, SecurityModule};
use iotsec::defense::Defense;
use iotsec::hub::Hub;
use iotsec::scenario;
use iotsec::world::{ResidentWorld, World, WorldScrap};
use iotsec_fleet::{
    check_fleet_trace, Fleet, FleetChaos, FleetConfig, FleetScenario, FleetTraceSpec, HomeOutcome,
    HomeWorld, ResidentStats,
};
use std::hint::black_box;
use std::sync::Arc;
use trace::digest::Fnv64;
use trace::{TraceConfig, TraceEvent, Tracer};
use umbox::chain::{build_chain, ChainConfig, FailureMode, UmboxChain};
use umbox::element::{EventSink, ViewHandle};

/// Fold words into the repository's chained FNV digest.
pub fn digest_words(words: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// home_packets: one cold defended home
// ---------------------------------------------------------------------

/// Background devices added to the smart home (the E16/E21 `p24` cell).
pub const HOME_EXTRA_DEVICES: u32 = 24;

/// What one cold home did; every field is simulated, so it repeats
/// exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HomeStats {
    pub events: u64,
    pub ticks: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub blocks: u64,
    pub compromised: u32,
    pub leaked: u32,
}

impl HomeStats {
    /// A defended home failed if the campaign got anywhere or no µmbox
    /// ever blocked anything.
    pub fn failed(&self) -> bool {
        self.compromised > 0 || self.leaked > 0 || self.blocks == 0
    }

    pub fn digest(&self) -> u64 {
        digest_words(&[
            self.events,
            self.ticks,
            self.cache_lookups,
            self.cache_hits,
            self.blocks,
            u64::from(self.compromised),
            u64::from(self.leaked),
        ])
    }
}

/// World ticks advanced so far.
fn ticks_of(w: &World, tick: SimDuration) -> u64 {
    w.clock.as_nanos() / tick.as_nanos()
}

/// One home's generated input: the deployment a seed expands to. Made in
/// set-up, so the timed op sees inputs only.
pub struct HomeInput(iotsec::Deployment);

pub fn home_input(seed: u64) -> HomeInput {
    HomeInput(scenario::scaled_home(Defense::iotsec(), seed, HOME_EXTRA_DEVICES).0)
}

/// Build, run and report one defended scaled home from scratch. With a
/// sink, the three phases are recorded as children of one home span.
pub fn run_cold_home(input: &HomeInput, index: u32, sink: Option<&SpanSink>) -> HomeStats {
    let deployment = &input.0;
    let mut trace = sink.filter(|s| s.recording()).map(|s| s.home(index, 0));
    let mut phase = |kind: Kind| {
        if let Some(t) = &mut trace {
            t.phase(kind);
        }
    };
    let mut w = World::new(deployment);
    w.env.occupied = true;
    phase(Kind::Build);
    w.run_until_attack_done(SimDuration::from_secs(300));
    phase(Kind::Run);
    let m = w.report();
    let (cache_lookups, cache_hits) = w.net.cache_stats();
    let stats = HomeStats {
        events: w.net.events_processed(),
        ticks: ticks_of(&w, deployment.tick),
        cache_lookups,
        cache_hits,
        blocks: m.umbox_drops + m.umbox_intercepts,
        compromised: m.compromised.len() as u32,
        leaked: m.privacy_leaked.len() as u32,
    };
    phase(Kind::Outcome);
    if let Some(t) = trace {
        t.finish(HomeCounts {
            homes: 1,
            ticks: stats.ticks,
            events: stats.events,
            blocks: stats.blocks,
            cache_lookups,
            cache_hits,
        });
    }
    stats
}

// ---------------------------------------------------------------------
// fleet_*: the fleet behind a span-recording scenario
// ---------------------------------------------------------------------

/// Homes per scheduling chunk (the E26 shape).
pub const CHUNK: u32 = 64;

/// [`FleetScenario`] with spans around the resident path's five calls.
/// Without a sink every hook is a plain delegation, which is how the
/// end-to-end legs run.
pub struct Spanned {
    inner: FleetScenario,
    sink: Option<Arc<SpanSink>>,
    /// Resident mode pins chunk `c` to worker `c % workers`, so a home's
    /// worker follows from its index.
    workers: u32,
}

impl Spanned {
    pub fn new(homes: u32, workers: usize, sink: Option<Arc<SpanSink>>) -> Spanned {
        Spanned { inner: FleetScenario::new(homes), sink, workers: workers.max(1) as u32 }
    }
}

impl HomeWorld for Spanned {
    type Resident = ResidentWorld;

    fn run_home(&self, home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
        self.inner.run_home(home, seed, intel)
    }

    fn run_home_recycled(
        &self,
        home: u32,
        seed: u64,
        intel: &[AttackSignature],
        scrap: &mut WorldScrap,
    ) -> HomeOutcome {
        self.inner.run_home_recycled(home, seed, intel, scrap)
    }

    fn run_home_resident(
        &self,
        home: u32,
        seed: u64,
        epoch: u32,
        intel: &Arc<[AttackSignature]>,
        slot: &mut Option<ResidentWorld>,
        scrap: &mut WorldScrap,
        stats: &mut ResidentStats,
    ) -> HomeOutcome {
        let template = self.inner.template();
        let recording = |s: &&SpanSink| s.recording() && World::supports_resident(template);
        let Some(sink) = self.sink.as_deref().filter(recording) else {
            return self.inner.run_home_resident(home, seed, epoch, intel, slot, scrap, stats);
        };
        let mut trace = sink.home(home, (home / CHUNK) % self.workers);
        // The same steps, in the same order, as the scenario's own
        // resident hook; `spanned_fleet_matches_the_bare_scenario` pins
        // the equivalence.
        let run = |w: &mut World, trace: &mut HomeTrace<'_>| {
            w.run_until_attack_done(self.inner.horizon());
            trace.phase(Kind::Run);
            let out = self.inner.outcome_of(home, seed, w);
            let (cache_lookups, cache_hits) = w.net.cache_stats();
            let counts = HomeCounts {
                homes: 1,
                ticks: ticks_of(w, template.tick),
                events: out.events,
                blocks: out.blocks,
                cache_lookups,
                cache_hits,
            };
            trace.phase(Kind::Outcome);
            (out, counts)
        };
        let (out, counts) = match slot {
            Some(res) => {
                let w = res.get_mut();
                if w.resident_epoch() != Some(epoch) {
                    let d = w.apply_intel_delta(epoch, intel);
                    if d.noop {
                        stats.noop_installs += 1;
                    } else {
                        stats.delta_installs += 1;
                        stats.policy_recompiles += u64::from(d.recompiled);
                        stats.devices_patched += u64::from(d.devices_patched);
                        stats.devices_kept += u64::from(d.devices_kept);
                    }
                    trace.phase(Kind::Delta);
                }
                w.rebind_home(seed);
                stats.resident_runs += 1;
                trace.phase(Kind::Rebind);
                run(w, &mut trace)
            }
            None => {
                stats.full_builds += 1;
                let mut w = World::new_home_resident(template, seed, epoch, intel, scrap);
                trace.phase(Kind::Build);
                let done = run(&mut w, &mut trace);
                *slot = Some(ResidentWorld::new(w));
                done
            }
        };
        trace.finish(counts);
        out
    }

    fn discovery(&self, home: u32) -> Option<AttackSignature> {
        self.inner.discovery(home)
    }
}

/// The fleet a workload asks for. `chaos` carries the chaos seed and the
/// weather horizon in rounds.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub homes: u32,
    /// Homes per neighborhood aggregator.
    pub neighborhood: u32,
    pub threads: usize,
    pub seed: u64,
    pub chaos: Option<(u64, u32)>,
}

/// Cumulative simulated totals of a fleet; identical across legs and
/// reruns of the same shape and round script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetTotals {
    pub digest: u64,
    pub rounds: u32,
    pub events: u64,
    pub leaked: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub faults: u64,
    pub recoveries: u64,
    pub degraded_rounds: u64,
    pub converged: bool,
    // The resident pools' accounting.
    pub full_builds: u64,
    pub resident_runs: u64,
    pub delta_installs: u64,
    pub noop_installs: u64,
    pub policy_recompiles: u64,
    pub resident_dropped: u64,
}

/// The `idx`-th novel signature of the churn feed.
fn churn_signature(sku: &Sku, idx: u32) -> AttackSignature {
    AttackSignature::new(
        sku.clone(),
        &format!("bench-churn-{idx}"),
        Matcher::MatchAll,
        Severity::Medium,
    )
}

/// A resident fleet of [`Spanned`] homes plus what drives and judges it.
pub struct FleetRun {
    fleet: Fleet<Spanned>,
    shape: FleetShape,
    sink: Option<Arc<SpanSink>>,
    /// Control-plane trace of a chaos fleet (disabled otherwise).
    tracer: Tracer,
    cam_sku: Sku,
    injected: u32,
    rounds: u32,
}

impl FleetRun {
    /// Build the fleet and switch residency on. Chaos fleets trace their
    /// control plane so the run can be checked afterwards.
    pub fn new(shape: FleetShape, sink: Option<Arc<SpanSink>>) -> FleetRun {
        let scenario = Spanned::new(shape.homes, shape.threads, sink.clone());
        let cam_sku = scenario
            .discovery(0)
            .expect("the fleet scenario always has a discoverable camera signature")
            .sku;
        let cfg = FleetConfig {
            homes: shape.homes,
            neighborhood: shape.neighborhood,
            chunk: CHUNK,
            threads: shape.threads,
            seed: shape.seed,
        };
        let (mut fleet, tracer) = match shape.chaos {
            Some((seed, horizon)) => {
                let tracer = Tracer::new(TraceConfig::control_only());
                let chaos = FleetChaos::new(seed).with_horizon(horizon);
                (Fleet::with_chaos(scenario, cfg, chaos, tracer.clone()), tracer)
            }
            None => (Fleet::new(scenario, cfg), Tracer::disabled()),
        };
        fleet.set_resident(true);
        FleetRun { fleet, shape, sink, tracer, cam_sku, injected: 0, rounds: 0 }
    }

    /// Queue one novel camera-SKU signature (the E26 churn-hit feed): the
    /// next barrier absorbs it, so the round after runs at a new epoch
    /// and every home misses the memo.
    pub fn inject(&mut self) {
        let sig = churn_signature(&self.cam_sku, self.injected);
        self.injected += 1;
        self.fleet.inject_intel(vec![sig]);
    }

    /// Run one round; returns how many homes executed a world.
    pub fn round(&mut self) -> u32 {
        let round = self.rounds;
        self.rounds += 1;
        match &self.sink {
            Some(sink) if sink.recording() => {
                let span = sink.begin_round(round);
                let summary = self.fleet.round();
                sink.end_round(span);
                summary.executed
            }
            _ => self.fleet.round().executed,
        }
    }

    pub fn converged(&self) -> bool {
        self.fleet.converged()
    }

    pub fn totals(&self) -> FleetTotals {
        let r = self.fleet.report();
        let s = self.fleet.resident_stats();
        FleetTotals {
            digest: r.digest,
            rounds: r.rounds,
            events: r.events,
            leaked: r.leaked,
            memo_hits: r.memo_hits,
            memo_misses: r.memo_misses,
            faults: r.faults,
            recoveries: r.recoveries,
            degraded_rounds: r.degraded_rounds,
            converged: r.converged,
            full_builds: s.full_builds,
            resident_runs: s.resident_runs,
            delta_installs: s.delta_installs,
            noop_installs: s.noop_installs,
            policy_recompiles: s.policy_recompiles,
            resident_dropped: s.dropped,
        }
    }

    /// Control-plane trace events emitted so far (0 without chaos).
    pub fn trace_events(&self) -> usize {
        self.tracer.len()
    }

    /// Judge the chaos trace with the repository's pure checker; returns
    /// the number of violations.
    pub fn check_trace(&self) -> usize {
        let events: Vec<(u64, TraceEvent)> = self.tracer.events();
        let spec = FleetTraceSpec {
            homes: self.shape.homes,
            rounds: self.rounds,
            staleness_budget: FleetChaos::new(0).policy.staleness_budget,
            grace: 2,
        };
        let sink = self.sink.as_ref().filter(|s| s.recording());
        let start = sink.map(|s| s.now());
        let violations = check_fleet_trace(&events, &spec).len();
        if let Some((sink, start_ns)) = sink.zip(start) {
            sink.root(Kind::CheckTrace, spec.rounds, start_ns);
        }
        violations
    }
}

// ---------------------------------------------------------------------
// space_explore: the policy state space, no network and no world
// ---------------------------------------------------------------------

/// The E1/E19 population policy: `cameras` cameras, every third shipping
/// default credentials, `cameras / 4` protect-on-suspicion pairs, and
/// occupancy as the one tracked environment variable.
pub struct ExplorePolicy(FsmPolicy);

pub fn explore_policy(cameras: u32) -> ExplorePolicy {
    let mut c = PolicyCompiler::new();
    for i in 0..cameras {
        let vulns = if i % 3 == 0 { vec![Vulnerability::default_admin_admin()] } else { vec![] };
        c.device(DeviceId(i), DeviceClass::Camera, &vulns);
    }
    for p in 0..(cameras / 4).min(cameras / 2) {
        c.protect_on_suspicion(DeviceId(2 * p), DeviceId(2 * p + 1));
    }
    c.env(EnvVar::Occupancy);
    ExplorePolicy(c.build())
}

/// One exhaustive sweep plus one frontier BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOut {
    pub states: u64,
    pub classes: u64,
    /// Sweep digest line plus BFS shell histogram and frontier digest.
    pub digest: String,
}

/// Sweep then BFS at `threads`; with a sink each is one root span.
pub fn explore_once(policy: &ExplorePolicy, threads: usize, sink: Option<&SpanSink>) -> ExploreOut {
    let sink = sink.filter(|s| s.recording());
    let span = |kind: Kind, start_ns: u64| {
        if let Some(s) = sink {
            s.root(kind, 0, start_ns);
        }
    };
    let t0 = sink.map_or(0, SpanSink::now);
    let sweep = explore_packed(&policy.0, threads).expect("camera policies pack into one word");
    span(Kind::Sweep, t0);
    let t1 = sink.map_or(0, SpanSink::now);
    let bfs = bfs_packed(&policy.0, threads, &Tracer::disabled())
        .expect("camera policies pack into one word");
    span(Kind::Bfs, t1);
    ExploreOut {
        states: sweep.states as u64,
        classes: sweep.classes,
        digest: format!("{} {} fd={:016x}", sweep.digest(), bfs.histogram(), bfs.frontier_digest),
    }
}

// ---------------------------------------------------------------------
// Layer probes: micro-loops over one public function per layer
// ---------------------------------------------------------------------

/// One probe: `batch` runs a fixed number of iterations of one layer
/// call on inputs shaped like the workloads' and returns how many it
/// ran. The harness times batches; state lives in the closure.
pub struct Probe {
    /// The per-layer metric this probe feeds (ns per iteration).
    pub metric: &'static str,
    /// The metric that takes its allocator calls per iteration, if any.
    pub allocs_metric: Option<&'static str>,
    pub batch: Box<dyn FnMut() -> u64>,
}

fn probe(metric: &'static str, batch: impl FnMut() -> u64 + 'static) -> Probe {
    Probe { metric, allocs_metric: None, batch: Box::new(batch) }
}

fn lan_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + i as u8)
}

/// Telemetry from device `i` to the hub: the benign bulk of home traffic.
fn telemetry_packet(i: u32) -> Packet {
    Packet::new(
        MacAddr::from_index(10 + i),
        MacAddr::from_index(1),
        lan_ip(i),
        Ipv4Addr::new(10, 0, 0, 2),
        TransportHeader::udp(ports::TELEMETRY, ports::TELEMETRY),
        AppMessage::Telemetry { kind: TelemetryKind::Power, value: 21.0 }.encode(),
    )
}

/// The dictionary login the fleet campaign opens with, from the WAN.
fn login_packet() -> Packet {
    Packet::new(
        MacAddr::from_index(200),
        MacAddr::from_index(10),
        Ipv4Addr::new(203, 0, 113, 7),
        lan_ip(0),
        TransportHeader::udp(40_000, ports::MGMT),
        AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() }.encode(),
    )
}

/// The standing-IDS chain a fleet camera gets once the row 1 signature
/// is installed, plus the sink its drops report into.
fn ids_chain_config() -> ChainConfig {
    let sku = Sku::new("dlink", "dcs-930l", "1.0");
    let signatures: Vec<AttackSignature> =
        (1..=7u8).filter_map(|row| AttackSignature::for_table1_row(row, &sku)).collect();
    ChainConfig {
        device: DeviceId(0),
        required_creds: AdminCreds::owner_default(),
        cleared_sources: Vec::new(),
        signatures: signatures.into(),
        view: ViewHandle::new(),
        events: EventSink::new(),
        failure_mode: FailureMode::FailClosed,
        tracer: Tracer::disabled(),
    }
}

fn ids_chain(config: &ChainConfig) -> UmboxChain {
    build_chain(&Posture::of(SecurityModule::Ids { ruleset: 1 }), config)
}

/// One steer rule per defended device — the table a defended `p24` home
/// ends up with — plus the catch-all.
fn home_flow_rules(devices: u32) -> Vec<FlowRule> {
    let mut rules: Vec<FlowRule> = (0..devices)
        .map(|i| FlowRule::new(300, FlowMatch::to_host(lan_ip(i)), FlowAction::Steer(SteerId(i))))
        .collect();
    rules.push(FlowRule::new(1, FlowMatch::any(), FlowAction::Normal));
    rules
}

/// The compiled policy of one fleet home (camera, bulb, motion sensor,
/// every environment variable), as the world's builder compiles it.
fn fleet_home_policy() -> FsmPolicy {
    let (template, _) = scenario::fleet_home(Defense::iotsec(), 0);
    let mut c = PolicyCompiler::new();
    for (i, setup) in template.devices.iter().enumerate() {
        c.device(DeviceId(i as u32), setup.class, &setup.vulns);
    }
    for var in EnvVar::ALL {
        c.env(var);
    }
    c.build()
}

/// Every layer probe, in the order they are run.
pub fn probes() -> Vec<Probe> {
    let home = home_input(crate::DEFAULT_SEED).0;
    let devices = home.devices.len() as u32;
    let mut out = Vec::new();

    // iotnet: the timer wheel alone, offsets shaped like LAN hops with
    // one far event in 64 keeping the overflow tier honest.
    let mut q: EventQueue<u64> = EventQueue::with_capacity(4096);
    let mut x = crate::DEFAULT_SEED | 1;
    out.push(probe("iotnet.engine.ns_per_event", move || {
        let base = q.now().as_nanos();
        for i in 0..4096u64 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let offset = if i % 64 == 0 { r % 4_000_000_000 } else { r % 4_000_000 };
            q.schedule(SimTime::from_nanos(base + offset), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        4096
    }));

    let mut table = FlowTable::new();
    for rule in home_flow_rules(devices) {
        table.install(rule);
    }
    let to_devices: Vec<Packet> = (0..8)
        .map(|i| {
            let mut p = login_packet();
            p.ip.dst = lan_ip(i * 4);
            p
        })
        .collect();
    let pkts = to_devices.clone();
    out.push(probe("iotnet.flow.ns_per_lookup", move || {
        for i in 0..1024usize {
            black_box(table.lookup(PortNo(0), &pkts[i % pkts.len()]).is_some());
        }
        1024
    }));

    let mut sw = Switch::new(SwitchId(0), devices as u16 + 4);
    for rule in home_flow_rules(devices) {
        sw.install(rule);
    }
    let pkts = to_devices;
    out.push(probe("iotnet.switch.ns_per_packet", move || {
        for i in 0..1024usize {
            black_box(sw.process_at(SimTime::ZERO, PortNo(0), &pkts[i % pkts.len()]));
        }
        1024
    }));

    // Two LAN hosts, every packet steered through the IDS chain: send →
    // switch → chain → switch → deliver. 2^21 ns rounds keep the wheel in
    // a short repeating slot pattern, so steady state allocates nothing.
    let mut b = TopologyBuilder::new();
    let sw_id = b.add_switch();
    let a = b.attach_endpoint(sw_id, LinkParams::lan());
    let z = b.attach_endpoint(sw_id, LinkParams::lan());
    let mut net = Network::new(b.build(), crate::DEFAULT_SEED);
    let steer_cfg = ids_chain_config();
    net.register_steer(SteerId(1), Box::new(ids_chain(&steer_cfg)), SimDuration::from_micros(200));
    net.install_rule(sw_id, FlowRule::new(100, FlowMatch::any(), FlowAction::Steer(SteerId(1))));
    let pkt = Packet::new(
        net.mac_of(a),
        net.mac_of(z),
        net.ip_of(a),
        net.ip_of(z),
        TransportHeader::udp(4000, ports::TELEMETRY),
        AppMessage::Telemetry { kind: TelemetryKind::Power, value: 21.0 }.encode(),
    );
    let mut buf: Vec<Delivery> = Vec::new();
    let mut round = 0u64;
    let delivery = probe("iotnet.net.ns_per_delivery", move || {
        let mut delivered = 0;
        for _ in 0..256 {
            net.send(a, SimTime::from_nanos(round << 21), pkt.clone());
            buf.clear();
            round += 1;
            net.step_until_into(SimTime::from_nanos(round << 21), &mut buf);
            delivered += buf.len() as u64;
        }
        delivered
    });
    out.push(Probe { allocs_metric: Some("iotnet.net.allocs_per_delivery"), ..delivery });

    // umbox: the standing IDS on a packet it passes and one it drops.
    for (metric, pkt) in [
        ("umbox.chain.ns_per_packet_pass", telemetry_packet(0)),
        ("umbox.chain.ns_per_packet_drop", login_packet()),
    ] {
        let cfg = ids_chain_config();
        let mut chain = ids_chain(&cfg);
        out.push(probe(metric, move || {
            for _ in 0..1024 {
                black_box(chain.run(SimTime::ZERO, pkt.clone()).latency);
            }
            // Drops report security events; the world drains them every
            // tick, so the probe does too.
            black_box(cfg.events.drain().len());
            1024
        }));
    }
    let cfg = ids_chain_config();
    out.push(probe("umbox.chain.build_us", move || {
        for _ in 0..64 {
            black_box(ids_chain(&cfg).len());
        }
        64
    }));

    // iotdev: one tick of every device of the p24 mix, one login handled,
    // one environment step.
    let hub_ip = Ipv4Addr::new(10, 0, 0, 2);
    let mut devs: Vec<IoTDevice> = home
        .devices
        .iter()
        .enumerate()
        .map(|(i, setup)| {
            let mut d = IoTDevice::new(
                DeviceId(i as u32),
                setup.sku.clone(),
                setup.class,
                lan_ip(i as u32),
                setup.vulns.clone(),
            );
            d.hub = Some(hub_ip);
            d
        })
        .collect();
    let mut env = Environment::new();
    env.occupied = true;
    let mut now_ms = 0u64;
    out.push(probe("iotdev.device.ns_per_tick", move || {
        for _ in 0..16 {
            now_ms += 100;
            env.begin_tick();
            for d in &mut devs {
                black_box(d.tick(SimTime::from_millis(now_ms), &mut env).messages.len());
            }
        }
        16 * devs.len() as u64
    }));

    let mut cam = IoTDevice::new(
        DeviceId(0),
        home.devices[0].sku.clone(),
        DeviceClass::Camera,
        lan_ip(0),
        Vec::new(),
    );
    let mut env = Environment::new();
    out.push(probe("iotdev.device.ns_per_message", move || {
        for _ in 0..1024 {
            let msg = AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() };
            let src = Ipv4Addr::new(203, 0, 113, 7);
            let reply = cam.handle_message(SimTime::ZERO, src, 40_000, ports::MGMT, msg, &mut env);
            black_box(reply.messages.len());
        }
        1024
    }));

    let mut env = Environment::new();
    out.push(probe("iotdev.env.ns_per_step", move || {
        for _ in 0..4096 {
            env.begin_tick();
            env.step(0.1);
            black_box(env.discretize());
        }
        4096
    }));

    // core: the hub's per-tick environment check with the smart home's
    // recipes and no edge to fire on (the common tick).
    let mut hub = Hub::new(hub_ip, AdminCreds::owner_default());
    for (i, setup) in home.devices.iter().enumerate() {
        hub.register(DeviceId(i as u32), lan_ip(i as u32), setup.class);
    }
    for recipe in &home.recipes {
        hub.add_recipe(recipe.clone());
    }
    let denv = Environment::new().discretize();
    out.push(probe("core.hub.ns_per_on_env", move || {
        for _ in 0..4096 {
            black_box(hub.on_env(denv).len());
        }
        4096
    }));

    // iotctl: the controller's tick with nothing queued (environment
    // report + step), and with one view-changing event to serve.
    let env_report: Vec<(EnvVar, &'static str)> =
        EnvVar::ALL.iter().map(|v| (*v, denv.get(*v))).collect();
    let mut ctl =
        Controller::new(fleet_home_policy(), ControllerConfig::default(), ViewHandle::new());
    ctl.reconcile(SimTime::ZERO);
    let report = env_report.clone();
    let mut now_ms = 0u64;
    out.push(probe("iotctl.controller.ns_per_step_idle", move || {
        for _ in 0..4096 {
            now_ms += 100;
            let now = SimTime::from_millis(now_ms);
            ctl.ingest_env(now, &report);
            black_box(ctl.step(now).len());
        }
        4096
    }));
    let mut ctl =
        Controller::new(fleet_home_policy(), ControllerConfig::default(), ViewHandle::new());
    ctl.reconcile(SimTime::ZERO);
    let mut now_ms = 0u64;
    out.push(probe("iotctl.controller.ns_per_step_event", move || {
        for i in 0..1024u64 {
            now_ms += 100;
            let kind = SecurityEventKind::OccupancyChanged(i % 2 == 0);
            ctl.ingest(SecurityEvent::new(SimTime::from_millis(now_ms - 50), DeviceId(2), kind));
            black_box(ctl.step(SimTime::from_millis(now_ms)).len());
        }
        1024
    }));

    // The fleet barrier's building blocks over 10^4 homes: collect one
    // discovery, flush every neighborhood, absorb, wave the installs.
    const HOMES: u32 = 10_000;
    let mut buffers: Vec<NeighborhoodBuffer<AttackSignature>> =
        (0..HOMES / 100).map(|_| NeighborhoodBuffer::new()).collect();
    let mut region: RegionIntel<AttackSignature> = RegionIntel::new();
    let mut ledger = InstallLedger::new(HOMES as usize);
    let sig = AttackSignature::for_table1_row(1, &home.devices[0].sku)
        .expect("row 1 has a canonical signature");
    let mut epoch = 0u32;
    out.push(probe("iotctl.aggregate.ns_per_home_barrier", move || {
        epoch += 1;
        buffers[0].collect_from(0, sig.clone());
        let mut upward = Vec::new();
        for b in &mut buffers {
            upward.extend(b.flush());
        }
        black_box(region.absorb(upward));
        for n in 0..HOMES / 100 {
            black_box(ledger.install_batch(n * 100..(n + 1) * 100, epoch));
        }
        u64::from(HOMES)
    }));

    // iotlearn: screen + full match, one packet that hits and one that
    // the prefilter turns away.
    let row1 = AttackSignature::for_table1_row(1, &home.devices[0].sku)
        .expect("row 1 has a canonical signature");
    let (hit, miss) = (login_packet(), telemetry_packet(0));
    out.push(probe("iotlearn.signature.ns_per_match", move || {
        let screen = row1.matcher.prefilter();
        for _ in 0..512 {
            for pkt in [&hit, &miss] {
                let headers: PackedHeaders = pkt.packed_headers();
                black_box(screen.admits(&headers, &pkt.payload) && row1.matcher.matches(pkt));
            }
        }
        1024
    }));

    // iotpolicy: compiling one fleet home's policy; interning a snapshot
    // the table already holds.
    out.push(probe("iotpolicy.compile.us_per_policy", || {
        for _ in 0..64 {
            black_box(fleet_home_policy().rules.len());
        }
        64
    }));
    let snapshot: Vec<AttackSignature> =
        (0..20).map(|i| churn_signature(&home.devices[0].sku, i)).collect();
    let mut interner: Interner<AttackSignature> = Interner::new();
    let held = interner.intern(&snapshot);
    out.push(probe("iotpolicy.intern.ns_per_intern", move || {
        for _ in 0..1024 {
            black_box(Arc::ptr_eq(&interner.intern(&snapshot), &held));
        }
        1024
    }));

    // trace: one control-plane event into a recording tracer (a fresh
    // buffer per batch, so growth is paid as a real run pays it) and into
    // a disabled one.
    for (metric, enabled) in [("trace.emit_ns_enabled", true), ("trace.emit_ns_disabled", false)] {
        out.push(probe(metric, move || {
            let tracer =
                if enabled { Tracer::new(TraceConfig::control_only()) } else { Tracer::disabled() };
            for i in 0..4096u32 {
                black_box(&tracer)
                    .emit(u64::from(i), TraceEvent::FleetInstall { home: i, epoch: 1 });
            }
            black_box(tracer.len());
            4096
        }));
    }
    out
}

/// Devices in one home of each kind, for the probe-based estimate of
/// where `run` time goes.
pub fn devices_per_home() -> (u32, u32) {
    let cold = home_input(crate::DEFAULT_SEED).0.devices.len() as u32;
    let fleet = scenario::fleet_home(Defense::iotsec(), 0).0.devices.len() as u32;
    (cold, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span-recording scenario must be the bare scenario as far as
    /// the fleet can tell: same chained digest, same resident accounting,
    /// serial and at two workers, with spans actually being recorded.
    #[test]
    fn spanned_fleet_matches_the_bare_scenario() {
        const HOMES: u32 = 150;
        for threads in [1usize, 2] {
            let cfg = FleetConfig {
                homes: HOMES,
                neighborhood: 50,
                chunk: CHUNK,
                threads,
                seed: crate::DEFAULT_SEED,
            };
            let mut bare = Fleet::new(FleetScenario::new(HOMES), cfg);
            bare.set_resident(true);
            let sku = FleetScenario::new(HOMES).discovery(0).expect("camera signature").sku;

            let sink = Arc::new(SpanSink::new(threads));
            sink.set_recording(true);
            let shape =
                FleetShape { homes: HOMES, neighborhood: 50, threads, seed: cfg.seed, chaos: None };
            let mut spanned = FleetRun::new(shape, Some(sink.clone()));

            for round in 0..5 {
                if round > 0 {
                    bare.inject_intel(vec![churn_signature(&sku, round - 1)]);
                    spanned.inject();
                }
                let executed = bare.round().executed;
                assert_eq!(spanned.round(), executed);
            }
            let (report, totals) = (bare.report(), spanned.totals());
            assert_eq!(totals.digest, report.digest, "threads={threads}");
            assert_eq!(totals.events, report.events);
            assert_eq!(totals.leaked, report.leaked);
            let s = bare.resident_stats();
            assert_eq!(
                (totals.full_builds, totals.resident_runs, totals.delta_installs),
                (s.full_builds, s.resident_runs, s.delta_installs)
            );
            assert_eq!(
                (totals.noop_installs, totals.policy_recompiles, totals.resident_dropped),
                (s.noop_installs, s.policy_recompiles, s.dropped)
            );
            let spans = sink.take();
            let homes = spans.iter().filter(|s| s.kind == Kind::Home).count() as u64;
            assert_eq!(homes, report.memo_misses, "one home span per executed home-round");
            assert_eq!(sink.counts().homes, homes);
            assert_eq!(sink.counts().events, report.events);
            assert_eq!(spans.iter().filter(|s| s.kind == Kind::Round).count(), 5);
        }
    }

    #[test]
    fn cold_home_reproduces_the_e21_golden_and_records_three_phases() {
        let sink = SpanSink::new(1);
        sink.set_recording(true);
        let stats = run_cold_home(&home_input(crate::DEFAULT_SEED), 0, Some(&sink));
        assert_eq!(
            (stats.events, stats.cache_lookups, stats.cache_hits, stats.blocks),
            (5880, 213, 72, 59),
            "BENCH_E21.json: home-iotsec/s20151116/p24"
        );
        assert!(!stats.failed());
        assert_eq!(stats, run_cold_home(&home_input(crate::DEFAULT_SEED), 0, None));
        let kinds: Vec<Kind> = sink.take().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [Kind::Home, Kind::Build, Kind::Run, Kind::Outcome]);
    }

    #[test]
    fn every_probe_runs_and_names_a_declared_metric() {
        for mut p in probes() {
            for name in std::iter::once(p.metric).chain(p.allocs_metric) {
                assert!(crate::metrics::def(name).is_some(), "{name} is not declared");
            }
            assert!((p.batch)() > 0, "{} ran nothing", p.metric);
        }
    }
}
