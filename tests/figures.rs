//! Integration tests reproducing the paper's Figures 3–5 end to end:
//! real packets through the simulated network, real device FSMs, the
//! real controller and µmbox chains.

use iotsec_repro::iotdev::device::{AdminCreds, DeviceId};
use iotsec_repro::iotdev::proto::MgmtCommand;
use iotsec_repro::iotnet::time::SimDuration;
use iotsec_repro::iotsec::defense::Defense;
use iotsec_repro::iotsec::deployment::StepSpec;
use iotsec_repro::iotsec::scenario;
use iotsec_repro::iotsec::world::World;

// ---------------------------------------------------------------------
// Figure 4: the IoT security gateway (password proxy).
// ---------------------------------------------------------------------

#[test]
fn fig4_current_world_attacker_reads_camera() {
    let (d, cam) = scenario::figure4(Defense::None);
    let mut w = World::new(&d);
    w.run_until_attack_done(SimDuration::from_secs(120));
    let m = w.report();
    assert!(
        m.campaign_succeeded(),
        "the 'current world' side of Figure 4: {:?}",
        m.attack_outcomes
    );
    assert!(m.privacy_leaked.contains(&cam));
}

#[test]
fn fig4_with_iotsec_camera_is_patched_in_the_network() {
    let (d, cam) = scenario::figure4(Defense::iotsec());
    let mut w = World::new(&d);
    w.run_until_attack_done(SimDuration::from_secs(120));
    let m = w.report();
    assert!(!m.campaign_succeeded());
    assert!(!m.privacy_leaked.contains(&cam));
    // The device itself is untouched — the *network* was patched, which
    // is the whole point of Figure 4.
    assert!(!w.device(cam).compromised);
    // The attack was actually absorbed by the data plane, not by luck.
    assert!(m.umbox_drops + m.umbox_intercepts + m.policy_drops > 0);
}

#[test]
fn fig4_owner_still_works_under_iotsec() {
    // The proxy must not lock the owner out: the administrator-chosen
    // credentials pass through it and open the camera, while the
    // burned-in `admin`/`admin` is refused before the firmware sees it.
    // The three logins come from one remote address (the owner's phone,
    // away from home), in the attacker's seat.
    const OWNER: (&str, &str) = ("owner", "S3cure!pass");
    assert_eq!(AdminCreds::owner_default(), AdminCreds::new(OWNER.0, OWNER.1));
    let (mut d, cam) = scenario::figure4(Defense::iotsec());
    d.campaign(vec![
        StepSpec::Login(cam, "admin", "admin"),
        StepSpec::Login(cam, OWNER.0, OWNER.1),
        StepSpec::Mgmt(cam, MgmtCommand::GetImage),
    ]);
    let mut w = World::new(&d);
    w.run_until_attack_done(SimDuration::from_secs(120));
    let m = w.report();
    let succeeded: Vec<bool> = m.attack_outcomes.iter().map(|o| o.success).collect();
    assert_eq!(succeeded, [false, true, true], "{:?}", m.attack_outcomes);
    // The default login died at the proxy, which answered it itself.
    assert!(m.umbox_intercepts > 0);
}

// ---------------------------------------------------------------------
// Figure 5: the cross-device policy (context gate).
// ---------------------------------------------------------------------

#[test]
fn fig5_current_world_backdoor_controls_the_oven_plug() {
    let (d, wemo, _) = scenario::figure5(Defense::None);
    let mut w = World::new(&d);
    w.env.occupied = false; // nobody home
    w.run_until_attack_done(SimDuration::from_secs(120));
    let m = w.report();
    assert!(m.campaign_succeeded(), "{:?}", m.attack_outcomes);
    assert!(m.compromised.contains(&wemo));
    // The oven's power is attacker-controlled while the house is empty.
    assert!(w.device(wemo).logic.is_on().unwrap());
}

#[test]
fn fig5_iotsec_blocks_on_when_nobody_home() {
    let (d, wemo, _) = scenario::figure5(Defense::iotsec());
    let mut w = World::new(&d);
    w.env.occupied = false;
    w.run_until_attack_done(SimDuration::from_secs(180));
    let m = w.report();
    // The backdoor "ON" was dropped by the context gate (and the cloud
    // block): the plug never turned back on.
    assert!(!w.device(wemo).logic.is_on().unwrap() || m.compromised.is_empty());
    assert!(!m.campaign_succeeded(), "{:?}", m.attack_outcomes);
}

#[test]
fn fig5_perimeter_cannot_express_the_policy() {
    // The Wemo's cloud channel has a pinhole (that's row 7's exposure),
    // so the perimeter passes the backdoor traffic: the attack succeeds.
    let (d, wemo, _) = scenario::figure5(Defense::Perimeter);
    let mut w = World::new(&d);
    w.env.occupied = false;
    w.run_until_attack_done(SimDuration::from_secs(120));
    let m = w.report();
    assert!(m.compromised.contains(&wemo), "{:?}", m.attack_outcomes);
}

// ---------------------------------------------------------------------
// Figure 3: the FSM policy (context-dependent posture).
// ---------------------------------------------------------------------

#[test]
fn fig3_without_iotsec_backdoor_then_window_opens() {
    let (d, alarm, window) = scenario::figure3(Defense::None);
    let mut w = World::new(&d);
    w.env.occupied = false;
    w.run_until_attack_done(SimDuration::from_secs(120));
    let m = w.report();
    assert!(m.campaign_succeeded(), "{:?}", m.attack_outcomes);
    assert!(m.compromised.contains(&alarm));
    assert!(m.compromised.contains(&window));
    assert!(w.env.window_open);
    assert!(m.physical_breach);
}

#[test]
fn fig3_iotsec_blocks_open_after_backdoor_touch() {
    let (d, _alarm, window) = scenario::figure3(Defense::iotsec());
    let mut w = World::new(&d);
    w.env.occupied = false;
    w.run_until_attack_done(SimDuration::from_secs(180));
    let m = w.report();
    // The open message to the window must not take effect.
    assert!(!w.env.window_open, "window opened despite Figure 3 policy");
    assert!(!m.compromised.contains(&window));
    assert!(!m.physical_breach);
}

// ---------------------------------------------------------------------
// The §2.1 implicit-coupling break-in chain.
// ---------------------------------------------------------------------

#[test]
fn breakin_chain_succeeds_without_defense() {
    let (d, plug, _window) = scenario::breakin_chain(Defense::None);
    let mut w = World::new(&d);
    w.env.occupied = false;
    w.env.ambient_c = 35.0;
    w.run_until_attack_done(SimDuration::from_secs(3600));
    let m = w.report();
    assert!(m.compromised.contains(&plug));
    assert!(w.env.window_open, "the IFTTT recipe should have opened the window");
    assert!(m.physical_breach, "attacker achieved a physical breach without touching the window");
    assert!(m.recipes_fired >= 1);
}

#[test]
fn breakin_chain_stopped_by_iotsec() {
    let (d, plug, _window) = scenario::breakin_chain(Defense::iotsec());
    let mut w = World::new(&d);
    w.env.occupied = false;
    w.env.ambient_c = 35.0;
    w.run_until_attack_done(SimDuration::from_secs(3600));
    let m = w.report();
    // The cloud block kills stage 1: the plug stays on, the AC keeps
    // cooling, the recipe never fires.
    assert!(!m.compromised.contains(&plug), "{:?}", m.attack_outcomes);
    assert!(!w.env.window_open);
    assert!(!m.physical_breach);
}

#[test]
fn fig3_state_trace_matches_figure() {
    // Drive the Figure 3 FSM at the policy level and assert the exact
    // posture transitions the figure draws.
    use iotsec_repro::iotpolicy::context::SecurityContext;
    use iotsec_repro::iotpolicy::policy::figure3_policy;
    use iotsec_repro::iotpolicy::posture::{BlockClass, SecurityModule};

    let alarm = DeviceId(0);
    let window = DeviceId(1);
    let policy = figure3_policy(alarm, window);

    // State 1: <normal, ok> / <normal, close> — no posture.
    let s1 = policy.schema.initial_state();
    assert!(policy.posture_for(&s1, window).is_allow());

    // State 2: fire-alarm backdoor accessed → block "open" to window.
    let s2 = s1.clone().with_context(&policy.schema, alarm, SecurityContext::Suspicious);
    assert!(policy
        .posture_for(&s2, window)
        .contains(&SecurityModule::Block(BlockClass::OpenVerbs)));

    // State 3: window password brute-forced → robot check on window.
    let s3 = s1.with_context(&policy.schema, window, SecurityContext::Suspicious);
    assert!(policy.posture_for(&s3, window).contains(&SecurityModule::ChallengeLogins));
}
