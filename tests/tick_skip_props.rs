//! The differential oracle for the tick loop (DESIGN.md §6): a world
//! advanced by `World::run` / `World::run_until_attack_done` must be
//! indistinguishable from its twin advanced by a hand loop of
//! `World::step`, the one-tick primitive — at every boundary between two
//! `run` calls, with the state a test may poke between them poked.
//!
//! "Indistinguishable" is everything a caller can read: the packet-level
//! trace stream line for line, the report, the clock and the ticks it
//! simulated, every environment float bit for bit, what the gates read
//! of it, each camera's next image, the network counters, queue peak and
//! decision-cache counts. Only the executed-tick count is *meant* to
//! differ, and it is bounded on its own. Where `run`
//! executes fewer ticks than it simulates, this file is the licence;
//! where it executes all of them (both sides step), it passes trivially.

use iotsec_repro::iotctl::safety::SafetyConfig;
use iotsec_repro::iotdev::classes::{DeviceLogic, PlugLoad};
use iotsec_repro::iotdev::device::{DeviceClass, DeviceId};
use iotsec_repro::iotdev::env::{EnvVar, Environment};
use iotsec_repro::iotdev::proto::{AppMessage, ControlAction, EventKind};
use iotsec_repro::iotlearn::AttackSignature;
use iotsec_repro::iotnet::flow::{FlowAction, FlowMatch, FlowRule};
use iotsec_repro::iotnet::time::{SimDuration, SimTime};
use iotsec_repro::iotpolicy::recipe::{Recipe, RecipeAction, Trigger};
use iotsec_repro::iotsec::chaos::ChaosConfig;
use iotsec_repro::iotsec::defense::{Defense, IoTSecConfig};
use iotsec_repro::iotsec::deployment::{Deployment, DeviceSetup};
use iotsec_repro::iotsec::scenario as sc;
use iotsec_repro::iotsec::world::{HomeOverrides, World, WorldScrap};
use iotsec_repro::trace::{first_divergence, render_divergence, TraceConfig, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The canned templates every resident oracle runs (`iotsec::world`'s
/// `resident_equals_rebuild_on_every_canned_scenario`), the p24 home the
/// benchmark's `home_packets` builds, and the enterprise site.
fn templates(defense: &Defense) -> Vec<(String, Deployment)> {
    let mut all: Vec<(String, Deployment)> = (1..=7)
        .map(|row| (format!("table1-row{row}"), sc::table1_row(row, defense.clone()).0))
        .collect();
    all.push(("figure3".into(), sc::figure3(defense.clone()).0));
    all.push(("figure4".into(), sc::figure4(defense.clone()).0));
    all.push(("figure5".into(), sc::figure5(defense.clone()).0));
    all.push(("breakin-chain".into(), sc::breakin_chain(defense.clone()).0));
    all.push(("smart-home".into(), sc::smart_home(defense.clone(), 1).0));
    all.push(("scaled-home-8".into(), sc::scaled_home(defense.clone(), 1, 8).0));
    all.push(("fleet-home".into(), sc::fleet_home(defense.clone(), 1).0));
    all.push(("p24-home".into(), sc::scaled_home(defense.clone(), 20151116, 24).0));
    all.push(("enterprise".into(), sc::enterprise(defense.clone(), 3).0));
    all
}

/// One signature for every SKU the template deploys, cycling through
/// Table 1's matchers.
fn intel_for(template: &Deployment) -> Vec<AttackSignature> {
    template
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| {
            AttackSignature::for_table1_row((i % 7) as u8 + 1, &d.sku).expect("rows 1..=7")
        })
        .collect()
}

fn env_bits(e: &Environment) -> (Vec<u64>, [bool; 5], u32) {
    (
        [
            e.temperature_c,
            e.ambient_c,
            e.smoke_density,
            e.light_level,
            e.daylight,
            e.ac_duty,
            e.ac_setpoint_c,
            e.oven_duty,
            e.power_w,
            e.unattended_oven_s,
        ]
        .iter()
        .map(|f| f.to_bits())
        .collect(),
        [e.occupied, e.window_open, e.door_locked, e.ac_breaker_on, e.oven_breaker_on],
        e.bulbs_on,
    )
}

/// Everything a caller can read off a world, except its trace.
fn observe(w: &World, devices: usize) -> String {
    let devices: Vec<String> = (0..devices as u32)
        .map(|i| {
            let d = w.device(DeviceId(i));
            format!(
                "{:?} image={:?} compromised={} leaked={} dns={}",
                d.logic,
                d.logic.image_data(),
                d.compromised,
                d.privacy_leaked,
                d.dns_reflections
            )
        })
        .collect();
    let gates = EnvVar::ALL.map(|var| w.gate_view().get(var));
    format!(
        "clock={:?} ticks={}\nenv={:?}\ngates={gates:?}\nstats={:?}\n\
         events={} peak={} cache={:?} pending={} done={} victim={}\n\
         report={:?}\ndevices={devices:#?}",
        w.clock,
        w.ticks_simulated(),
        env_bits(&w.env),
        w.net.stats,
        w.net.events_processed(),
        w.net.queue_peak(),
        w.net.cache_stats(),
        w.net.has_pending(),
        w.attack_done(),
        w.victim_bytes(),
        w.report(),
    )
}

/// `World::run`, by hand: the loop `run` was before it could skip.
fn step_for(w: &mut World, tick: SimDuration, duration: SimDuration) {
    let end = w.clock + duration;
    while w.clock + tick <= end {
        w.step();
    }
}

/// `World::run_until_attack_done`, by hand.
fn step_until_attack_done(w: &mut World, tick: SimDuration, limit: SimDuration) {
    let end = w.clock + limit;
    while !w.attack_done() && w.clock + tick <= end {
        w.step();
    }
    step_for(w, tick, SimDuration::from_secs(2));
}

/// What a test does to a world between two `run` calls.
fn poke(w: &mut World, rng_draw: u32) {
    match rng_draw % 6 {
        0 => w.env.occupied = !w.env.occupied,
        1 => w.env.window_open = true,
        2 => w.env.daylight = if w.env.daylight > 0.0 { 0.0 } else { 50.0 },
        3 => w.env.door_locked = !w.env.door_locked,
        _ => {}
    }
}

/// Run one world by `run*`, its twin by `step`, over the same random
/// split of `horizon` with the same pokes, comparing after every segment.
/// Returns the world that ran.
fn check_pair(label: &str, d: &Deployment, horizon: SimDuration, seed: u64) -> World {
    check_pair_from(label, d, horizon, seed, |_| {})
}

/// One `run*` call of a pair: the poke before it, how long, and whether
/// it is `run_until_attack_done`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    draw: u32,
    span: SimDuration,
    until_done: bool,
}

/// [`check_pair`] over worlds `prepare` has set the scene in.
fn check_pair_from(
    label: &str,
    d: &Deployment,
    horizon: SimDuration,
    seed: u64,
    prepare: impl Fn(&mut World),
) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = rng.gen_range(1..8u32);
    let mut left = horizon.as_nanos();
    let segments: Vec<Segment> = (0..count)
        .map(|seg| {
            let draw = rng.gen_range(0..1_000u32);
            // Segment lengths are not multiples of the tick, so a `run`
            // ends between grid points and the next one starts there.
            let span = if seg + 1 == count { left } else { rng.gen_range(0..left.max(2) / 2 + 1) };
            left -= span;
            let until_done = rng.gen_range(0..4u32) == 0;
            Segment { draw, span: SimDuration::from_nanos(span), until_done }
        })
        .collect();
    check_segments(&format!("{label} seed {seed}"), d, &segments, prepare)
}

/// Run one world by `run*`, its twin by `step`, over `segments`,
/// comparing after every one. Returns the world that ran.
fn check_segments(
    label: &str,
    d: &Deployment,
    segments: &[Segment],
    prepare: impl Fn(&mut World),
) -> World {
    let (run_trace, step_trace) =
        (Tracer::new(TraceConfig::full()), Tracer::new(TraceConfig::full()));
    let mut ran = World::new_traced(d, run_trace.clone());
    let mut stepped = World::new_traced(d, step_trace.clone());
    prepare(&mut ran);
    prepare(&mut stepped);
    for (seg, &Segment { draw, span, until_done }) in segments.iter().enumerate() {
        poke(&mut ran, draw);
        poke(&mut stepped, draw);
        if until_done {
            ran.run_until_attack_done(span);
            step_until_attack_done(&mut stepped, d.tick, span);
        } else {
            ran.run(span);
            step_for(&mut stepped, d.tick, span);
        }
        let at =
            format!("{label} segment {seg}/{} ({span}, until_done={until_done})", segments.len());
        if let Some(div) = first_divergence(&step_trace.to_jsonl(), &run_trace.to_jsonl()) {
            panic!("{at}: trace diverged from the stepped twin:\n{}", render_divergence(&div));
        }
        let n = d.devices.len();
        assert_eq!(observe(&ran, n), observe(&stepped, n), "{at}: state diverged");
        let (run_ticks, step_ticks) = (ran.ticks_executed(), stepped.ticks_executed());
        assert!(run_ticks <= step_ticks, "{at}: ran {run_ticks} ticks of {step_ticks}");
        assert_eq!(
            step_ticks,
            stepped.clock.as_nanos() / d.tick.as_nanos(),
            "{at}: a stepped world executes every tick it simulates"
        );
    }
    ran
}

fn horizon_of(label: &str) -> SimDuration {
    // The break-in chain waits 1 800 s for the room to heat up.
    SimDuration::from_secs(if label.starts_with("breakin") { 2_000 } else { 45 })
}

#[test]
fn run_equals_step_on_every_canned_template() {
    for defense in [Defense::None, Defense::iotsec()] {
        let name = if defense.is_iotsec() { "iotsec" } else { "none" };
        for (label, template) in templates(&defense) {
            for intel in [false, true] {
                let mut d = template.clone();
                if intel {
                    d.subscribed_signatures = intel_for(&template);
                }
                let label = format!("{label}/{name}/intel={intel}");
                for seed in [1u64, 2] {
                    check_pair(&label, &d, horizon_of(&label), seed);
                }
            }
        }
    }
}

#[test]
fn run_equals_step_under_every_other_defense_and_layer() {
    let hier = Defense::IoTSec(IoTSecConfig { hierarchical: true, ..IoTSecConfig::default() });
    for (defense, name) in [(Defense::Perimeter, "perimeter"), (hier, "hier")] {
        for (label, d) in templates(&defense) {
            let label = format!("{label}/{name}");
            check_pair(&label, &d, horizon_of(&label), 5);
        }
    }
    // Worlds whose layers accrue per tick by definition execute every
    // tick; they are held to the same oracle.
    for (label, template) in templates(&Defense::iotsec()) {
        let cam = DeviceId(0);
        let mut chaos = template.clone();
        chaos.chaos(
            ChaosConfig::new()
                .crash(SimTime::from_secs(3), cam)
                .outage(SimTime::from_secs(5), SimDuration::from_secs(4))
                .with_standby()
                .with_watchdog(SimDuration::from_secs(2)),
        );
        check_pair(&format!("{label}/chaos"), &chaos, SimDuration::from_secs(30), 6);
        let mut safe = template.clone();
        safe.safety(SafetyConfig::default());
        check_pair(&format!("{label}/safety"), &safe, SimDuration::from_secs(30), 6);
    }
}

/// A home in which everything is coupled through the room: an empty
/// house turns the oven on, the unattended oven smokes, the smoke alarm
/// turns the bulb red, the lit room (no daylight) opens the window, the
/// open window turns the bulb off again.
fn coupled_home(defense: Defense) -> Deployment {
    let mut d = Deployment::new();
    d.device(DeviceSetup::clean(DeviceClass::SmartPlug).powering(PlugLoad::Oven));
    let oven = d.device(DeviceSetup::clean(DeviceClass::Oven));
    d.device(DeviceSetup::clean(DeviceClass::FireAlarm));
    d.device(DeviceSetup::clean(DeviceClass::Thermostat));
    d.device(DeviceSetup::clean(DeviceClass::Camera));
    let bulb = d.device(DeviceSetup::clean(DeviceClass::LightBulb));
    let window = d.device(DeviceSetup::clean(DeviceClass::WindowActuator));
    d.device(DeviceSetup::clean(DeviceClass::LightSensor));
    let recipes = [
        (Trigger::EnvEquals(EnvVar::Occupancy, "absent"), oven, ControlAction::TurnOn),
        (
            Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeAlarm),
            bulb,
            ControlAction::SetColor(1),
        ),
        (Trigger::EnvEquals(EnvVar::Light, "bright"), window, ControlAction::Open),
        (Trigger::EnvEquals(EnvVar::Window, "open"), bulb, ControlAction::TurnOff),
    ];
    for (id, (trigger, target, action)) in recipes.into_iter().enumerate() {
        d.recipe(Recipe { id: id as u32, trigger, action: RecipeAction { target, action } });
    }
    d.defend_with(defense);
    d
}

#[test]
fn run_equals_step_where_deliveries_change_what_a_tick_derives() {
    // The recipe's command reaches the bulb and its ack the hub inside
    // one tick, after that tick counted the bulb dark; nothing is left
    // in flight, and the next tick — in which the room is lit and the
    // hub sees the edge — must still be executed.
    for defense in [Defense::None, Defense::iotsec()] {
        let d = coupled_home(defense);
        let mut fired = 0;
        for seed in 0..12 {
            let w = check_pair_from("coupled-home", &d, SimDuration::from_secs(400), seed, |w| {
                w.env.occupied = false;
                w.env.daylight = 0.0;
            });
            fired = fired.max(w.report().recipes_fired);
        }
        // The pokes cut some chains short; at least one seed runs it whole.
        assert!(fired >= 4, "oven, bulb, window, bulb: {fired} recipes fired");
    }
}

#[test]
fn run_equals_step_when_the_room_is_changed_between_runs() {
    // No actuator owns the window or the door here, so what a caller
    // writes into `env` between two runs stays written: the first tick
    // of the next run must see it (the breach, the hub's edge).
    let mut d = Deployment::new();
    d.device(DeviceSetup::clean(DeviceClass::Refrigerator));
    let bulb = d.device(DeviceSetup::clean(DeviceClass::LightBulb));
    d.recipe(Recipe {
        id: 0,
        trigger: Trigger::EnvEquals(EnvVar::Window, "open"),
        action: RecipeAction { target: bulb, action: ControlAction::TurnOn },
    });
    for defense in [Defense::None, Defense::iotsec()] {
        d.defend_with(defense);
        for seed in 0..16 {
            check_pair_from("bare-room", &d, SimDuration::from_secs(60), seed, |w| {
                w.env.occupied = false;
            });
        }
    }
}

/// A home in which a delivery changes nothing but what the next device
/// pass adds up: an open window makes the hub light a bulb (dark →
/// bright) and cut an oven's plug (2 000 W → standby, high → normal), and
/// the normal draw lights a second bulb. Bulbs and plugs are steady
/// whatever they hold, and no device is due for seconds after.
fn accumulator_home(defense: Defense) -> Deployment {
    let mut d = Deployment::new();
    let bulb = d.device(DeviceSetup::clean(DeviceClass::LightBulb));
    let plug = d.device(DeviceSetup::clean(DeviceClass::SmartPlug).powering(PlugLoad::Oven));
    let lamp = d.device(DeviceSetup::clean(DeviceClass::LightBulb));
    let recipes = [
        (Trigger::EnvEquals(EnvVar::Window, "open"), bulb, ControlAction::TurnOn),
        (Trigger::EnvEquals(EnvVar::Window, "open"), plug, ControlAction::TurnOff),
        (Trigger::EnvEquals(EnvVar::PowerDraw, "normal"), lamp, ControlAction::TurnOn),
    ];
    for (id, (trigger, target, action)) in recipes.into_iter().enumerate() {
        d.recipe(Recipe { id: id as u32, trigger, action: RecipeAction { target, action } });
    }
    d.defend_with(defense);
    d
}

#[test]
fn run_equals_step_where_a_delivery_moves_only_an_accumulator() {
    // The commands land a tick after the edge that sent them and nothing
    // is due but their acks: the tick after must still run the device
    // pass that counts the lit bulb and the dropped load.
    let prepare = |w: &mut World| {
        w.env.window_open = true;
        w.env.daylight = 0.0;
    };
    for defense in [Defense::None, Defense::iotsec()] {
        let d = accumulator_home(defense);
        let whole = [Segment { draw: 5, span: SimDuration::from_secs(20), until_done: false }];
        let w = check_segments("accumulator-home", &d, &whole, prepare);
        assert_eq!(w.report().recipes_fired, 3, "bulb, plug, then the lamp on the normal draw");
        assert_eq!((w.env.bulbs_on, w.env.discretize().light), (2, "bright"));
        for seed in 0..8 {
            check_pair_from("accumulator-home", &d, SimDuration::from_secs(20), seed, prepare);
        }
    }
}

#[test]
fn a_device_coasted_tick_reports_a_moved_discretization() {
    // Nothing in this room senses the temperature: it warms toward the
    // 28 °C ambient unwatched, so the tick on which it passes 27 °C has
    // no device work and is device-coasted. The hub's "high" edge and the
    // controller's view (read through the gates) must still move on it.
    let mut d = Deployment::new();
    d.device(DeviceSetup::clean(DeviceClass::Refrigerator));
    let bulb = d.device(DeviceSetup::clean(DeviceClass::LightBulb));
    d.recipe(Recipe {
        id: 0,
        trigger: Trigger::EnvEquals(EnvVar::Temperature, "high"),
        action: RecipeAction { target: bulb, action: ControlAction::TurnOn },
    });
    d.defend_with(Defense::iotsec());
    let recipe = |w: &World| w.report().recipes_fired > 0;
    let viewed = |w: &World| w.gate_view().get(EnvVar::Temperature) == Some("high");
    check_crossings(
        "unwatched warming",
        &d,
        6_000,
        |_| {},
        &[("the hub's temperature recipe fires", &recipe), ("the gates read high", &viewed)],
    );
}

#[test]
fn run_equals_step_where_a_served_event_contradicts_the_last_report() {
    // Someone leaves, comes back and leaves again, one tick apart. Each
    // motion event is served a tick after the report of the same change,
    // so the "present" one lands after the room is empty again and moves
    // the controller's view off the report it just had. A stepped world
    // hands the next tick's report over and its gates learn "absent"; a
    // run must not skip that report, or its gates read "present" for good.
    let mut d = Deployment::new();
    d.device(DeviceSetup::clean(DeviceClass::MotionSensor));
    d.device(DeviceSetup::clean(DeviceClass::Refrigerator));
    d.defend_with(Defense::iotsec());
    let run = |draw, span| Segment { draw, span, until_done: false };
    let (settle, flip) = (5, 0); // `poke` does nothing / flips `occupied`
    let schedule = [
        run(settle, SimDuration::from_secs(1)),
        run(flip, d.tick),
        run(flip, d.tick),
        run(flip, SimDuration::from_secs(2)),
    ];
    let w = check_segments("in-out-in-out", &d, &schedule, |_| {});
    assert_eq!(w.gate_view().get(EnvVar::Occupancy), Some("absent"));
}

/// A resident machine rebound to a home and *run* must equal a cold
/// build of that home *stepped* — the reset and the skip, composed.
#[test]
fn rebound_and_run_equals_cold_and_stepped() {
    let empty: Arc<[AttackSignature]> = Vec::new().into();
    for defense in [Defense::None, Defense::iotsec()] {
        for (label, template) in templates(&defense) {
            if !World::supports_resident(&template) {
                continue;
            }
            let n = template.devices.len();
            let armed: Arc<[AttackSignature]> = intel_for(&template).into();
            let mut resident =
                World::new_home_resident(&template, 11, 0, &empty, &mut WorldScrap::default());
            resident.run_until_attack_done(horizon_of(&label));
            for (leg, (seed, epoch, intel)) in
                [(12u64, 0u32, &empty), (13, 1, &armed), (14, 1, &armed)].into_iter().enumerate()
            {
                if resident.resident_epoch() != Some(epoch) {
                    resident.apply_intel_delta(epoch, intel);
                }
                resident.rebind_home(seed);
                // The first tick of a rebound home is executed, whatever
                // the previous home left the machine believing.
                resident.run(template.tick);
                let executed = resident.ticks_executed();
                assert_eq!(executed, 1, "{label} leg {leg}: first tick after a rebind");
                resident.run_until_attack_done(horizon_of(&label));
                let overrides = HomeOverrides { seed, extra_signatures: intel };
                let mut cold = World::new_home(&template, &overrides);
                step_for(&mut cold, template.tick, template.tick);
                step_until_attack_done(&mut cold, template.tick, horizon_of(&label));
                assert_eq!(
                    observe(&resident, n),
                    observe(&cold, n),
                    "{label} leg {leg} (seed {seed}, epoch {epoch}): rebound+run diverged from cold+stepped"
                );
            }
        }
    }
}

/// A resident machine's physics is served from the trajectory its earlier
/// homes stepped (DESIGN.md §6, "A resident world never steps the same
/// physics twice"); a cold build steps every tick of its one home. Rebound
/// across seeds and rounds — some rounds with `env` written between the
/// rebind and the run — and run, the resident must equal a cold build of
/// the same home run the same way: the network's trace line for line,
/// what the hub was told and when (every telemetry value bit for bit), and
/// everything [`observe`] reads. Every canned template runs, the p24 home
/// with its thermostats and fire alarm among them, whose coasted
/// stretches are stepped tick by tick rather than walked.
#[test]
fn a_resident_home_round_equals_a_cold_one_trace_for_trace() {
    // Rounds revisit seeds, so the trajectory holds the very rooms each
    // round steps; an ambient written by hand is a room it does not hold.
    let rounds: [(u64, Option<f64>); 6] =
        [(12, None), (13, None), (12, Some(31.5)), (12, None), (13, Some(28.0)), (12, Some(24.25))];
    let empty: Arc<[AttackSignature]> = Vec::new().into();
    let mut replayed = 0;
    for defense in [Defense::None, Defense::iotsec()] {
        for (label, template) in templates(&defense) {
            if !World::supports_resident(&template) {
                continue;
            }
            let horizon = horizon_of(&label);
            let mut resident =
                World::new_home_resident(&template, 11, 0, &empty, &mut WorldScrap::default());
            resident.run_until_attack_done(horizon);
            for (round, &(seed, ambient)) in rounds.iter().enumerate() {
                let home_round = |w: &mut World| {
                    if let Some(ambient) = ambient {
                        w.env.ambient_c = ambient;
                    }
                    let trace = Tracer::new(TraceConfig::full());
                    w.net.set_tracer(trace.clone());
                    if w.device(DeviceId(0)).hub.is_some() {
                        tap_the_hub(w);
                    }
                    w.run_until_attack_done(horizon);
                    (trace.to_jsonl(), hub_inbox(w), observe(w, template.devices.len()))
                };
                resident.rebind_home(seed);
                let got = home_round(&mut resident);
                let overrides = HomeOverrides { seed, extra_signatures: &[] };
                let want = home_round(&mut World::new_home(&template, &overrides));
                let at = format!("{label} round {round} (seed {seed}, ambient {ambient:?})");
                if let Some(div) = first_divergence(&want.0, &got.0) {
                    panic!("{at}: trace diverged from the cold home:\n{}", render_divergence(&div));
                }
                assert_eq!(got.1, want.1, "{at}: what the hub was told, and when");
                assert_eq!(got.2, want.2, "{at}: state diverged from the cold home");
                replayed += 1;
            }
        }
    }
    assert!(replayed >= 150, "only {replayed} resident home-rounds were checked");
}

/// Mirror every frame addressed to the hub into the capture ring: each
/// telemetry value and device event, with the instant it crossed the
/// switch. (A mirror rule below every installed rule changes no
/// forwarding — `tests/packed_net_props.rs` pins that.)
fn tap_the_hub(w: &mut World) {
    let hub_ip = w.device(DeviceId(0)).hub.expect("devices report to the hub");
    let sw = w.core_switch();
    w.net.install_rule(sw, FlowRule::new(1, FlowMatch::to_host(hub_ip), FlowAction::Mirror));
}

fn hub_inbox(w: &World) -> Vec<String> {
    let frames = w.net.capture.iter();
    frames.map(|c| format!("{:?} {:?}", c.at, AppMessage::decode(&c.packet.payload))).collect()
}

/// Something that becomes true of a world on one tick and stays true.
type Probe<'a> = &'a dyn Fn(&World) -> bool;

/// Step a prepared world over `ticks` ticks, noting the first tick on
/// which each probe holds; then hold worlds that *run* to it. One call
/// over the whole horizon must end in the stepped twin's state with the
/// same hub inbox, and for each crossing a run to the tick before it must
/// not show it and one tick more must.
fn check_crossings(
    label: &str,
    d: &Deployment,
    ticks: u64,
    prepare: impl Fn(&mut World),
    probes: &[(&str, Probe<'_>)],
) {
    let build = || {
        let mut w = World::new(d);
        prepare(&mut w);
        tap_the_hub(&mut w);
        w
    };
    let mut stepped = build();
    let mut crossed: Vec<Option<u64>> = vec![None; probes.len()];
    for t in 1..=ticks {
        stepped.step();
        for (slot, (_, probe)) in crossed.iter_mut().zip(probes) {
            if slot.is_none() && probe(&stepped) {
                *slot = Some(t);
            }
        }
    }
    let mut ran = build();
    ran.run(d.tick * ticks);
    let n = d.devices.len();
    assert_eq!(observe(&ran, n), observe(&stepped, n), "{label}: one run over the horizon");
    assert_eq!(hub_inbox(&ran), hub_inbox(&stepped), "{label}: what the hub was told, and when");
    let executed = ran.ticks_executed();
    assert!(executed * 2 < ticks, "{label}: {executed} of {ticks} ticks executed");
    for ((name, probe), at) in probes.iter().zip(crossed) {
        let at = at.unwrap_or_else(|| panic!("{label}: {name} never happened"));
        assert!(at > 1, "{label}: {name} holds from the start");
        let mut w = build();
        w.run(d.tick * (at - 1));
        assert!(!probe(&w), "{label}: {name} one tick early (tick {at})");
        w.run(d.tick);
        assert!(probe(&w), "{label}: {name} not on tick {at}");
    }
}

/// The skip stops on the crossing tick, not near it: the paper's
/// implicit-coupling example (cut the AC's plug, the room heats past the
/// thermostat's band and then past the hub's "high", the recipe opens the
/// window on an empty house) and the unattended-oven chain (120 s of
/// grace, smoke builds to the alarm threshold) each run in one call.
#[test]
fn the_skip_stops_on_the_crossing_tick() {
    let (d, _plug, window) = sc::breakin_chain(Defense::None);
    let cooling =
        |w: &World| matches!(&w.device(DeviceId(1)).logic, DeviceLogic::Thermostat(t) if t.cooling);
    let recipe = |w: &World| w.report().recipes_fired > 0;
    let open =
        |w: &World| matches!(&w.device(window).logic, DeviceLogic::WindowActuator(a) if a.open);
    let breach = |w: &World| w.report().physical_breach;
    check_crossings(
        "break-in",
        &d,
        20_000,
        |w| w.env.occupied = false,
        &[
            ("thermostat demands cooling", &cooling),
            ("the hub's temperature recipe fires", &recipe),
            ("the window opens", &open),
            ("the breach", &breach),
        ],
    );

    let d = coupled_home(Defense::None);
    let oven_on = |w: &World| w.env.oven_duty > 0.0;
    let smoking = |w: &World| w.env.smoke_density > 0.0;
    let alarm =
        |w: &World| matches!(&w.device(DeviceId(2)).logic, DeviceLogic::FireAlarm(a) if a.alarming);
    let lit = |w: &World| w.report().recipes_fired >= 2;
    check_crossings(
        "unattended oven",
        &d,
        4_000,
        |w| {
            w.env.occupied = false;
            w.env.daylight = 0.0;
        },
        &[
            ("the oven heats", &oven_on),
            ("the grace period ends", &smoking),
            ("the smoke alarm sounds", &alarm),
            ("the alarm's recipe fires", &lit),
        ],
    );
}
