//! Allocation accounting for the clone-churn work: world construction
//! interns per-device signature rulesets behind `Rc` slices, so handing
//! a ruleset to a chain must be allocation-free, and building the same
//! deployment twice must allocate exactly the same amount (no hidden
//! nondeterministic cloning).
//!
//! Lives here (not in `crates/core`) because a counting allocator needs
//! `unsafe impl GlobalAlloc` and the core crate is `#![deny(unsafe_code)]`
//! (its one exemption is `ResidentWorld`'s `unsafe impl Send`); an
//! integration test is its own crate, so the lint does not apply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed while running `f`. The test binary holds a
/// single test function, so no sibling test threads pollute the count.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// Bytes requested from the allocator while running `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.load(Ordering::Relaxed);
    let result = f();
    (BYTES.load(Ordering::Relaxed) - before, result)
}

/// `(allocations, bytes)` requested while running `f`.
fn cost_of(f: impl FnOnce()) -> (u64, u64) {
    let (bytes, (allocs, ())) = bytes_during(|| allocs_during(f));
    (allocs, bytes)
}

/// Minimum allocation count over `n` trials (absorbs one-off lazy-init
/// noise from the runtime or test harness).
fn min_allocs_over<R>(n: usize, mut f: impl FnMut() -> R) -> u64 {
    (0..n).map(|_| allocs_during(&mut f).0).min().unwrap()
}

#[test]
fn world_construction_allocation_profile() {
    use iotsec_repro::iotdev::device::DeviceId;
    use iotsec_repro::iotsec::defense::Defense;
    use iotsec_repro::iotsec::scenario;
    use iotsec_repro::iotsec::world::World;

    let (d, _) = scenario::smart_home(Defense::iotsec(), 42);

    // 1. Same deployment, same allocation count: World::new clones
    // nothing whose size depends on run-to-run state (the old code
    // cloned ChaosConfig plans and per-device vuln vectors it then
    // rebuilt anyway; any reintroduced clone shows up here as a count
    // change between builds).
    let first = min_allocs_over(3, || World::new(&d));
    let second = min_allocs_over(3, || World::new(&d));
    assert_eq!(first, second, "World::new must allocate deterministically");

    // 2. Handing out a device's signature ruleset is an Rc refcount
    // bump, not a Vec clone: zero allocations.
    let w = World::new(&d);
    let handout = min_allocs_over(5, || {
        for i in 0..7u32 {
            std::hint::black_box(w.signatures_for(DeviceId(i)));
        }
    });
    assert_eq!(handout, 0, "signatures_for must not clone the ruleset");

    // 3. The population axis scales world size but not per-device
    // signature cloning: 16 extra *clean* devices add bounded per-device
    // setup, far below what re-cloning the 7 vulnerable rulesets per
    // device would cost. Guard the ratio rather than an absolute count
    // so the bound survives allocator-agnostic refactors.
    let (big, _) = scenario::scaled_home(Defense::iotsec(), 42, 16);
    let big_count = min_allocs_over(3, || World::new(&big));
    assert!(
        big_count < first * 4,
        "scaled world ({big_count} allocs) must stay within 4x the base ({first})"
    );

    // 3b. The cold builds, exactly (the same in debug and release),
    // counted by site with a backtracing allocator (DESIGN.md §6):
    //
    // | component                                     | smart | p24 |
    // |-----------------------------------------------|-------|-----|
    // | policy compile (context domains, rule vector, |    33 |  87 |
    // |   the escalation posture's third module)      |       |     |
    // | devices (owner credentials, flaw lists)       |    33 |  81 |
    // | intel (signatures, each non-empty ruleset)    |    26 |  26 |
    // | network (topology, ports, wires, queue)       |    18 |  26 |
    // | µmbox launches (chains, lifecycle, cluster)   |    26 |  26 |
    // | attacker (plan, step labels)                  |    20 |  20 |
    // | world (entity table, buffers)                 |    12 |  13 |
    // | hub (directory, recipes)                      |     7 |  11 |
    // | the controller's first reconciliation         |     7 |   7 |
    // | **`World::new`**                              |   182 | 297 |
    //
    // They were 377 and 782: every rule held a map node for its posture
    // and another for its pattern and formatted its origin string (the
    // policy compile was 171 and 419), every device and signature copied
    // its SKU's three strings (54 and 126), and every device without a
    // signature had an empty ruleset of its own.
    const SMART_HOME_BUILD_ALLOCS: u64 = 182;
    const P24_HOME_BUILD_ALLOCS: u64 = 297;
    assert_eq!(first, SMART_HOME_BUILD_ALLOCS, "World::new on the smart home");
    let (p24, _) = scenario::scaled_home(Defense::iotsec(), 42, 24);
    let p24_count = min_allocs_over(3, || World::new(&p24));
    assert_eq!(p24_count, P24_HOME_BUILD_ALLOCS, "World::new on the p24 home");

    // 4. The packed state-space inner loop (E19) is allocation-free
    // once the memo tables are warm: odometer stepping is register
    // arithmetic and every rule-match set resolves to an already
    // interned posture class, so sweeping the whole space a second time
    // must not touch the allocator at all.
    use iotsec_repro::iotpolicy::packed::MemoPolicy;

    let policy = iotsec_bench::exp_policy::policy_for(6, 1);
    let mut memo = MemoPolicy::new(&policy).expect("E19 policy family packs");
    // Warm sweep: intern every posture class the space can produce.
    let mut cursor = Some(memo.layout().first());
    while let Some(p) = cursor {
        std::hint::black_box(memo.class_of(p));
        cursor = memo.layout().next(p);
    }
    let sweep = min_allocs_over(3, || {
        let mut quiet: u64 = 0;
        let mut cursor = Some(memo.layout().first());
        while let Some(p) = cursor {
            let class = memo.class_of(p);
            quiet += memo.is_quiet(class) as u64;
            cursor = memo.layout().next(p);
        }
        std::hint::black_box(quiet)
    });
    assert_eq!(sweep, 0, "warm packed sweep must not allocate");

    // 4b. The shell count is one odometer pass: it asks for the layout,
    // its digits and one counter per shell — O(slots), not O(states).
    // 9 cameras are 93 312 states and 12 are 3 359 232; the search this
    // replaced asked for 590 300 B and 20 972 080 B there (a visited
    // arena and two frontier buffers).
    use iotsec_repro::iotpolicy::explore::bfs_packed;
    use iotsec_repro::trace::tracer::Tracer;

    for (n, pairs, bound) in [(9, 2, 1 << 10), (12, 3, 2 << 10)] {
        let cameras = iotsec_bench::exp_policy::policy_for(n, pairs);
        let (bytes, bfs) = bytes_during(|| bfs_packed(&cameras, 1, &Tracer::disabled()));
        assert_eq!(bfs.expect("E19 policy family packs").visited, cameras.schema.size());
        assert!(bytes <= bound, "shell pass over {n} cameras requested {bytes} B (> {bound} B)");
    }

    // 5. The warm fleet tick (E20): once a fleet's intel epoch stops
    // moving, a whole round is memo replay — every home's outcome is a
    // `(home, epoch)` memo hit, the merge writes Copy outcomes and folds
    // the digest in place, and the barrier flushes empty buffers into a
    // no-op absorb. A steady-state fleet round must not allocate at all.
    warm_fleet_round_is_allocation_free();

    // 6. The full engine tick (E21): schedule → fire → forward → verdict
    // through a steered IDS chain is allocation-free once warm. The
    // event heap keeps the capacity `Network::new` reserved and its
    // entries carry their packets inline, the decision cache is keyed
    // by the packed flow key, the IDS prefilter screens the benign
    // traffic without a payload decode, and pass/drop verdicts carry
    // packets inline — so a steady round never touches the allocator.
    steady_engine_tick_is_allocation_free();

    // 7. Cold home builds: a build reserves nothing for buffers no home
    // fills. The mirror-capture ring is written only by a `Mirror` rule,
    // which no deployment installs; reserving it at build was 360 KB of
    // a 415 KB home. The ring still works for whoever does mirror.
    cold_home_build_reserves_no_capture_ring();

    // 8. Resident home rounds (E26): a cold build still interns
    // signatures, compiles the policy and constructs every device. A
    // resident world serves the next home by resetting in place
    // (`rebind_home`), so a steady-state home-round must allocate a
    // fraction of what a build does.
    resident_rebind_amortizes_construction();

    // 9. The tick loop (DESIGN.md §6): a tick in which nothing happens
    // costs no allocation at all, and a whole resident home-round
    // allocates a small, exactly repeatable number of times.
    idle_ticks_are_allocation_free();

    // 10. The per-event sites (DESIGN.md §6, "Allocation discipline"): a
    // message that fits a `Bytes` inline is encoded and decoded without
    // the allocator, the IDS decodes a packet once however many signatures
    // want to look at it, and a flood decision is a word, not a list of
    // 37 ports, so deciding one allocates nothing, cached or not.
    short_messages_encode_and_decode_without_allocating();
    ids_decodes_a_packet_once();
    a_flood_decision_allocates_nothing();
}

fn short_messages_encode_and_decode_without_allocating() {
    use iotsec_repro::iotdev::proto::{
        AppMessage, ControlAction, ControlAuth, EventKind, MgmtCommand, TelemetryKind,
    };
    use iotsec_repro::iotnet::addr::Ipv4Addr;

    let user = || "admin".to_string();
    let pass = user;
    let short = [
        AppMessage::MgmtLogin { user: user().into(), pass: pass().into() },
        AppMessage::MgmtLoginOk { token: 7 },
        AppMessage::MgmtDenied,
        AppMessage::MgmtCommand { token: 7, command: MgmtCommand::GetImage },
        AppMessage::MgmtCommand {
            token: 7,
            command: MgmtCommand::SetPassword { new: pass().into() },
        },
        AppMessage::MgmtResult {
            ok: true,
            data: 0x5eed_c0de_5eed_c0de_u64.to_be_bytes().to_vec().into(),
        },
        AppMessage::Control { action: ControlAction::SetTarget(21), auth: ControlAuth::None },
        AppMessage::Control { action: ControlAction::Unlock, auth: ControlAuth::Token(7) },
        AppMessage::Control { action: ControlAction::TurnOff, auth: ControlAuth::Key(u64::MAX) },
        AppMessage::Control {
            action: ControlAction::Open,
            auth: ControlAuth::Password { user: user().into(), pass: pass().into() },
        },
        AppMessage::ControlAck { ok: true },
        AppMessage::Telemetry { kind: TelemetryKind::Power, value: 21.0 },
        AppMessage::Event { kind: EventKind::SmokeAlarm },
        AppMessage::DnsQuery { name: "amp0.example".into(), recursion: true },
        AppMessage::DnsResponse {
            name: "amp0.example".into(),
            addr: Ipv4Addr::new(1, 2, 3, 4),
            answers: 0,
        },
        AppMessage::CloudCommand { action: ControlAction::TurnOff },
    ];
    for msg in &short {
        let (allocs, wire) = allocs_during(|| msg.encode());
        assert!(wire.len() <= 30, "{msg:?} is {} bytes on the wire", wire.len());
        assert_eq!(allocs, 0, "encoding {msg:?} ({} bytes) allocated", wire.len());
        // The decode borrows every string from the wire, and an inline
        // payload's data is copied into an inline `Bytes`.
        let (allocs, back) = allocs_during(|| AppMessage::decode(&wire));
        assert_eq!(allocs, 0, "decoding {msg:?} ({} bytes) allocated", wire.len());
        assert_eq!(back.as_ref(), Ok(msg));
    }
    // Past 30 bytes a payload is shared, not inline: one allocation, the
    // `Arc`, whether or not the builder had to spill on the way.
    for answers in [1u16, 2, 40] {
        let long =
            AppMessage::DnsResponse { name: "a".into(), addr: Ipv4Addr::new(1, 2, 3, 4), answers };
        let (allocs, wire) = allocs_during(|| long.encode());
        assert!(wire.len() > 30 && allocs >= 1, "{} bytes, {allocs} allocations", wire.len());
    }
}

fn ids_decodes_a_packet_once() {
    use iotsec_repro::iotdev::device::DeviceId;
    use iotsec_repro::iotdev::proto::{ports, AppMessage};
    use iotsec_repro::iotdev::registry::Sku;
    use iotsec_repro::iotlearn::signature::{AttackSignature, Matcher, Severity};
    use iotsec_repro::iotnet::addr::{Ipv4Addr, MacAddr};
    use iotsec_repro::iotnet::packet::{Packet, TransportHeader};
    use iotsec_repro::iotnet::time::SimTime;
    use iotsec_repro::umbox::element::Element;
    use iotsec_repro::umbox::ids::SigIds;

    let sku = Sku::new("dlink", "dcs-930l", "1.0");
    let ids_with = |n: u32| {
        let signatures: Vec<AttackSignature> = (0..n)
            .map(|i| {
                let matcher = Matcher::DefaultCredLogin {
                    user: format!("user{i}"),
                    pass: format!("pass{i}"),
                };
                AttackSignature::new(sku.clone(), "default-credentials", matcher, Severity::Medium)
            })
            .collect();
        SigIds::new(DeviceId(0), signatures)
    };
    // A login no signature names: every prefilter admits it (the tag is
    // right), every matcher has to look inside, and it passes.
    let login = Packet::new(
        MacAddr::from_index(200),
        MacAddr::from_index(10),
        Ipv4Addr::new(203, 0, 113, 7),
        Ipv4Addr::new(10, 0, 0, 10),
        TransportHeader::udp(40_000, ports::MGMT),
        AppMessage::MgmtLogin { user: "admin".into(), pass: "hunter2".into() }.encode(),
    );
    let inspect = |ids: &mut SigIds| {
        let frame = login.clone();
        let (allocs, outcome) = allocs_during(|| ids.process(SimTime::ZERO, frame));
        assert!(outcome.packet.is_some() && outcome.event.is_none());
        allocs
    };
    let (one, twelve) = (inspect(&mut ids_with(1)), inspect(&mut ids_with(12)));
    assert_eq!(one, twelve, "allocations under 1 and under 12 login signatures");
    assert_eq!(one, 0, "a login's strings are read in place, not copied out of the payload");
}

fn a_flood_decision_allocates_nothing() {
    use iotsec_repro::iotnet::addr::{Ipv4Addr, MacAddr, PortNo, SwitchId};
    use iotsec_repro::iotnet::packet::{Packet, TransportHeader};
    use iotsec_repro::iotnet::switch::{Ports, Switch, SwitchDecision};
    use iotsec_repro::iotnet::time::SimTime;

    // The p24 home's switch: 38 ports, so a flood leaves on 37.
    let mut sw = Switch::new(SwitchId(0), 38);
    let to_nobody = |station: u32| {
        Packet::new(
            MacAddr::from_index(station),
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 10),
            Ipv4Addr::new(10, 0, 0, 2),
            TransportHeader::udp(5683, 5683),
            Default::default(),
        )
    };
    let flood = SwitchDecision::Output(Ports::Flood);
    // Warm both tables, then empty them the way a resident world does:
    // the capacity stays.
    for station in 10..18 {
        let port = PortNo(station as u16 - 10);
        assert_eq!(sw.process_at(SimTime::ZERO, port, &to_nobody(station)), flood);
    }
    sw.reset_resident();
    assert_eq!(sw.process_at(SimTime::ZERO, PortNo(3), &to_nobody(10)), flood);
    // A new station is learned, which wipes the decision cache, and its
    // frame floods; then the first station's flood is decided afresh.
    let (learned, decision) =
        allocs_during(|| sw.process_at(SimTime::ZERO, PortNo(5), &to_nobody(11)));
    assert_eq!((learned, decision), (0, flood), "learning a station and deciding its flood");
    let (again, decision) =
        allocs_during(|| sw.process_at(SimTime::ZERO, PortNo(3), &to_nobody(10)));
    assert_eq!((again, decision), (0, flood), "deciding a 37-port flood after the wipe");
    assert_eq!((sw.cache_lookups, sw.cache_hits), (3, 0));
}

fn idle_ticks_are_allocation_free() {
    use iotsec_fleet::{FleetScenario, HomeWorld};
    use iotsec_repro::iotlearn::AttackSignature;
    use iotsec_repro::iotnet::time::SimDuration;
    use iotsec_repro::iotsec::world::{World, WorldScrap};
    use std::sync::Arc;

    /// One resident home-round (rebind + run), at both seeds, in debug
    /// and in release. It was 543 with heap-`Vec` class ticks, 158 before
    /// payloads went inline, 86 before the attacker, the controller and
    /// the µmbox elements stopped allocating, 21 before the lifecycle
    /// dropped the reconfiguration histogram nothing read and 20 before
    /// the network owned each µmbox chain by value (one `Box` where the
    /// shared `Rc` cell and its registry wrapper were two); DESIGN.md §6
    /// lists them by site. Device-coasted ticks skip phases, never add to
    /// them, and the physics trajectory grows only where a run starts: the
    /// count must not rise with either.
    const HOME_ROUND_ALLOCS: u64 = 19;
    /// Devices report telemetry every 5 s of sim time, all on the same
    /// tick; the reports cross the network during the tick after.
    const TELEMETRY_MS: u64 = 5_000;
    const TICK_MS: u64 = 100;

    let scenario = FleetScenario::new(1);
    let template = scenario.template();
    let sig = scenario.discovery(0).expect("the E20 camera signature exists");
    let intel: Arc<[AttackSignature]> = vec![sig].into();
    let horizon = scenario.horizon();

    for seed in [42u64, 7] {
        let mut w = World::new_home_resident(template, seed, 1, &intel, &mut WorldScrap::default());
        w.run_until_attack_done(horizon);
        let mut home_round = || {
            allocs_during(|| {
                w.rebind_home(seed);
                w.run_until_attack_done(horizon);
            })
            .0
        };
        let (first, second) = (home_round(), home_round());
        assert_eq!(first, second, "a resident home-round must allocate deterministically");
        assert_eq!(first, HOME_ROUND_ALLOCS, "a resident home-round's allocations");

        // The campaign is over and every µmbox is steering: from here on
        // the only thing that happens is periodic telemetry. Every tick
        // outside a report and its delivery must leave the allocator alone.
        assert!(w.attack_done());
        let mut quiet = 0;
        for _ in 0..3 * TELEMETRY_MS / TICK_MS {
            let (allocs, ()) = allocs_during(|| w.step());
            if w.clock.as_nanos() / 1_000_000 % TELEMETRY_MS >= 2 * TICK_MS {
                assert_eq!(allocs, 0, "idle tick at {:?} allocated", w.clock);
                quiet += 1;
            }
        }
        assert!(quiet >= 140, "only {quiet} idle ticks were observed");

        // The run loop (DESIGN.md §6) does not execute such ticks at all.
        // From 300 ms past a report, four seconds hold nothing due: `run`
        // executes their first tick, coasts through the other 39, and the
        // allocator hears of neither.
        while w.clock.as_nanos() / 1_000_000 % TELEMETRY_MS != 3 * TICK_MS {
            w.step();
        }
        let (executed, ticks) = (w.ticks_executed(), w.ticks_simulated());
        let (allocs, ()) = allocs_during(|| w.run(SimDuration::from_secs(4)));
        assert_eq!(allocs, 0, "a coasted stretch allocated");
        assert_eq!(w.ticks_simulated(), ticks + 40);
        assert_eq!(w.ticks_executed(), executed + 1, "39 of the 40 ticks are coasted");

        // A second from the tick before a report: the report tick runs
        // in full, the next one, on which only its frames arrive at the
        // hub, runs device-coasted, and the other eight are coasted. The
        // allocator hears of none of them.
        while w.clock.as_nanos() / 1_000_000 % TELEMETRY_MS != TELEMETRY_MS - TICK_MS {
            w.step();
        }
        let executed = w.ticks_executed();
        let (allocs, ()) = allocs_during(|| w.run(SimDuration::from_secs(1)));
        assert_eq!(allocs, 0, "a report and its device-coasted delivery tick allocated");
        assert_eq!(w.ticks_executed(), executed + 2, "the report and its delivery are executed");

        // Coasted ticks allocated nothing when they were executed either:
        // a home-round run asks the allocator for exactly what the same
        // home-round stepped tick by tick asks for, to the byte.
        let ran = cost_of(|| {
            w.rebind_home(seed);
            w.run_until_attack_done(horizon);
        });
        let (ran_executed, ran_clock) = (w.ticks_executed(), w.clock);
        let stepped = cost_of(|| {
            w.rebind_home(seed);
            let tick = SimDuration::from_millis(TICK_MS);
            let end = w.clock + horizon;
            while !w.attack_done() && w.clock + tick <= end {
                w.step();
            }
            for _ in 0..2_000 / TICK_MS {
                w.step();
            }
        });
        assert_eq!(w.clock, ran_clock, "the stepped home-round covers the same ticks");
        assert!(ran_executed * 4 < w.ticks_executed(), "{ran_executed} of {}", w.ticks_executed());
        assert_eq!(ran, stepped, "(allocations, bytes) of a home-round, run vs stepped");
        assert_eq!(ran.0, first, "and the pinned home-round above is that home-round");
    }
}

fn resident_rebind_amortizes_construction() {
    use iotsec_fleet::{FleetScenario, HomeWorld};
    use iotsec_repro::iotlearn::AttackSignature;
    use iotsec_repro::iotsec::world::{HomeOverrides, World, WorldScrap};
    use std::sync::Arc;

    let scenario = FleetScenario::new(1);
    let template = scenario.template();
    assert!(World::supports_resident(template), "the E20 home must support residency");
    let sig = scenario.discovery(0).expect("the E20 camera signature exists");
    let intel: Arc<[AttackSignature]> = vec![sig].into();
    let horizon = scenario.horizon();
    let seed = 42u64;

    // The resident machine, built once and carried across rounds.
    let mut w = World::new_home_resident(template, seed, 1, &intel, &mut WorldScrap::default());
    w.run_until_attack_done(horizon);

    // Semantics first: a rebound resident run is byte-equal to a cold run.
    let cold = scenario.run_home(0, seed, &intel);
    w.rebind_home(seed);
    w.run_until_attack_done(horizon);
    assert_eq!(scenario.outcome_of(0, seed, &mut w), cold, "rebind must not change the outcome");

    // The rebuild baseline: every active home-round pays a full
    // `World::new_home` build.
    let overrides = HomeOverrides { seed, extra_signatures: &intel };
    let cold_bytes = (0..3)
        .map(|_| {
            bytes_during(|| {
                let mut c = World::new_home(template, &overrides);
                c.run_until_attack_done(horizon);
            })
            .0
        })
        .min()
        .unwrap();
    let rebind_bytes = (0..3)
        .map(|_| {
            bytes_during(|| {
                w.rebind_home(seed);
                w.run_until_attack_done(horizon);
            })
            .0
        })
        .min()
        .unwrap();
    // E26's gate, in miniature (`bench::exp_resident::MIN_BYTES_RATIO`).
    assert!(
        rebind_bytes * 3 <= cold_bytes,
        "a resident home-round must be >=3x lighter than a rebuilt one \
         (rebind {rebind_bytes} B, cold {cold_bytes} B)"
    );

    // A content-identical install is a no-op epoch bump: zero allocations.
    let same: Arc<[AttackSignature]> = intel.to_vec().into();
    let (allocs, delta) = allocs_during(|| w.apply_intel_delta(2, &same));
    assert!(delta.noop, "content-equal intel must install as a noop: {delta:?}");
    assert_eq!(allocs, 0, "a noop delta install must not allocate");
}

fn cold_home_build_reserves_no_capture_ring() {
    use iotsec_fleet::FleetScenario;
    use iotsec_repro::iotdev::proto::{ports, AppMessage, TelemetryKind};
    use iotsec_repro::iotnet::addr::EndpointId;
    use iotsec_repro::iotnet::capture::Capture;
    use iotsec_repro::iotnet::flow::{FlowAction, FlowMatch, FlowRule};
    use iotsec_repro::iotnet::packet::{Packet, TransportHeader};
    use iotsec_repro::iotnet::time::SimTime;
    use iotsec_repro::iotsec::world::{HomeOverrides, World};

    let (allocs, _ring) = allocs_during(|| Capture::new(65_536));
    assert_eq!(allocs, 0, "an empty capture ring must not allocate");

    let scenario = FleetScenario::new(1);
    let template = scenario.template();
    let overrides = HomeOverrides { seed: 42, extra_signatures: &[] };
    let cold_bytes =
        (0..3).map(|_| bytes_during(|| World::new_home(template, &overrides)).0).min().unwrap();
    assert!(cold_bytes < 80_000, "a cold E20 home build requested {cold_bytes} B (>= 80 KB)");

    // The ring is there when asked for: mirror at the home's one switch
    // and put one frame on the wire.
    let mut w = World::new_home(template, &overrides);
    let sw = w.core_switch();
    w.net.install_rule(sw, FlowRule::new(500, FlowMatch::any(), FlowAction::Mirror));
    let (a, z) = (EndpointId(0), EndpointId(1));
    let frame = Packet::new(
        w.net.mac_of(a),
        w.net.mac_of(z),
        w.net.ip_of(a),
        w.net.ip_of(z),
        TransportHeader::udp(4000, ports::TELEMETRY),
        AppMessage::Telemetry { kind: TelemetryKind::Power, value: 21.0 }.encode(),
    );
    w.net.send(a, SimTime::ZERO, frame);
    w.net.step_until(SimTime::from_secs(1));
    assert_eq!(w.net.capture.len(), 1, "a mirrored frame must be captured exactly once");
    assert_eq!(w.net.stats.mirrored, 1);
}

/// Round spacing of the steady-state loop (every round drains before
/// the next is sent) and its warm-up: every round is the same exchange,
/// so the event heap has held its peak depth after the first. The same
/// values as `bench::exp_engine`'s steady probe.
const STEADY_STEP_NS: u64 = 1 << 21;
const STEADY_WARM: u64 = 576;
const STEADY_MEASURE: u64 = 64;

fn warm_fleet_round_is_allocation_free() {
    use iotsec_fleet::{Fleet, FleetConfig, FleetScenario};

    // At two workers too: a quiesced round has no home to execute, so it
    // deals no hands and spawns no threads.
    for threads in [1, 2] {
        let cfg = FleetConfig { homes: 8, neighborhood: 3, chunk: 2, threads, seed: 42 };
        let mut fleet = Fleet::new(FleetScenario::new(8), cfg);
        // Warm rounds: round 0 breaches and installs the discovered
        // signature (epoch 0 → 1), round 1 populates the epoch-1 memo,
        // round 2 proves the fleet has quiesced.
        fleet.run(3);
        let quiesced = fleet.report();
        assert_eq!(quiesced.epoch, 1, "the fleet must have quiesced before measuring");

        let allocs = min_allocs_over(3, || {
            let r = fleet.round();
            assert_eq!(r.executed, 0, "a quiesced round must be pure memo replay");
            assert_eq!(r.memo_hits, 8);
            std::hint::black_box(fleet.digest())
        });
        assert_eq!(allocs, 0, "warm fleet round (memo → merge → barrier), {threads} workers");
    }
}

fn steady_engine_tick_is_allocation_free() {
    use iotsec_repro::iotdev::device::{AdminCreds, DeviceId};
    use iotsec_repro::iotdev::proto::{ports, AppMessage, TelemetryKind};
    use iotsec_repro::iotdev::registry::Sku;
    use iotsec_repro::iotlearn::signature::{AttackSignature, Matcher, Severity};
    use iotsec_repro::iotnet::flow::{FlowAction, FlowMatch, FlowRule, SteerId};
    use iotsec_repro::iotnet::link::LinkParams;
    use iotsec_repro::iotnet::net::{Delivery, Network};
    use iotsec_repro::iotnet::packet::{Packet, TransportHeader};
    use iotsec_repro::iotnet::time::{SimDuration, SimTime};
    use iotsec_repro::iotnet::topology::TopologyBuilder;
    use iotsec_repro::iotpolicy::posture::{Posture, SecurityModule};
    use iotsec_repro::trace::tracer::Tracer;
    use iotsec_repro::umbox::chain::{build_chain, ChainConfig, FailureMode};
    use iotsec_repro::umbox::element::{EventSink, ViewHandle};

    let mut b = TopologyBuilder::new();
    let sw = b.add_switch();
    let a = b.attach_endpoint(sw, LinkParams::lan());
    let z = b.attach_endpoint(sw, LinkParams::lan());
    let mut net = Network::new(b.build(), 21);

    let signatures: Vec<AttackSignature> = vec![AttackSignature::new(
        Sku::new("belkin", "wemo", "1.1"),
        "cloud-bypass-backdoor",
        Matcher::CloudCommand,
        Severity::High,
    )];
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

    let mut buf: Vec<Delivery> = Vec::new();
    let round = |net: &mut Network, buf: &mut Vec<Delivery>, r: u64| {
        let t = SimTime::from_nanos(r * STEADY_STEP_NS);
        net.send(a, t, pkt.clone());
        buf.clear();
        net.step_until_into(SimTime::from_nanos((r + 1) * STEADY_STEP_NS), buf);
        buf.len() as u64
    };
    let mut delivered = 0u64;
    for r in 0..STEADY_WARM {
        delivered += round(&mut net, &mut buf, r);
    }
    assert_eq!(delivered, STEADY_WARM, "warm rounds must deliver one packet each");

    let events_before = net.events_processed();
    let (allocs, delivered) = allocs_during(|| {
        let mut delivered = 0u64;
        for r in STEADY_WARM..STEADY_WARM + STEADY_MEASURE {
            delivered += round(&mut net, &mut buf, r);
        }
        delivered
    });
    assert_eq!(delivered, STEADY_MEASURE);
    assert!(net.events_processed() > events_before, "the engine must have fired events");
    assert_eq!(allocs, 0, "warm engine tick (schedule→fire→forward→verdict) must not allocate");
}
