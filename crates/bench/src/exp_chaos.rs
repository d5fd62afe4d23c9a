//! E15 — chaos engineering: deterministic fault injection across the
//! enforcement path.
//!
//! Three questions, three tables:
//!
//! 1. **Degradation semantics.** A camera's µmbox crashes just before
//!    the attack lands. Fail-open trades security for availability (the
//!    attack crosses unfiltered); fail-closed trades availability for
//!    security (the attack — and everything else — is dropped until the
//!    watchdog respawns the instance).
//! 2. **Controller failover.** A long controller outage with and
//!    without a warm standby: the standby's detect + re-sync window
//!    bounds the reaction blackout, cutting cumulative unprotected time
//!    by an order of magnitude.
//! 3. **Determinism.** The same chaos seed reproduces byte-identical
//!    metrics — faults, crashes and outages included — which is what
//!    makes chaos runs debuggable at all.

use crate::Table;
use iotnet::time::{SimDuration, SimTime};
use iotsec::chaos::ChaosConfig;
use iotsec::defense::Defense;
use iotsec::deployment::StepSpec;
use iotsec::scenario;
use iotsec::world::World;

/// E15a — fail-open vs fail-closed while the camera's µmbox is down.
pub fn failure_modes() -> Table {
    let mut t = Table::new(
        "E15a: crash during attack — fail-open leaks, fail-closed holds",
        &[
            "failure mode",
            "privacy leaked",
            "unfiltered pkts",
            "dropped pkts",
            "crashes",
            "respawns",
            "unprotected",
        ],
    );
    for fail_closed in [false, true] {
        let mut chaos = ChaosConfig::new()
            .crash(SimTime::from_secs(5), iotdev::device::DeviceId(0))
            .with_watchdog(SimDuration::from_secs(30));
        if fail_closed {
            chaos = chaos.fail_closed();
        }
        let (mut d, cam) = scenario::table1_row(1, Defense::iotsec());
        // Strike inside the downtime window (crash at 5 s, watchdog 30 s).
        d.campaign.insert(0, StepSpec::Wait(SimDuration::from_secs(6)));
        d.chaos(chaos);
        let mut w = World::new(&d);
        w.run_until_attack_done(SimDuration::from_secs(60));
        let m = w.report();
        t.rowd(&[
            if fail_closed { "fail-closed" } else { "fail-open" }.to_string(),
            m.privacy_leaked.contains(&cam).to_string(),
            m.missed_blocks.to_string(),
            m.fail_closed_drops.to_string(),
            m.umbox_crashes.to_string(),
            m.umbox_respawns.to_string(),
            format!("{:.1}s", m.unprotected_total().as_secs_f64()),
        ]);
    }
    t
}

/// E15b — riding out a controller outage vs failing over to a standby.
pub fn failover() -> Table {
    let mut t = Table::new(
        "E15b: 60s controller outage — warm standby vs riding it out",
        &[
            "control plane",
            "failovers",
            "unprotected",
            "directives delivered",
            "deduped",
            "retries",
        ],
    );
    for standby in [false, true] {
        let mut chaos =
            ChaosConfig::new().outage(SimTime::from_secs(5), SimDuration::from_secs(60));
        if standby {
            chaos = chaos.with_standby();
        }
        let (mut d, _) = scenario::table1_row(1, Defense::iotsec());
        d.campaign.insert(0, StepSpec::Wait(SimDuration::from_secs(10)));
        d.chaos(chaos);
        let mut w = World::new(&d);
        w.run(SimDuration::from_secs(90));
        let m = w.report();
        t.rowd(&[
            if standby { "primary + standby" } else { "single" }.to_string(),
            m.controller_failovers.to_string(),
            format!("{:.1}s", m.unprotected_total().as_secs_f64()),
            m.delivery.delivered.to_string(),
            m.delivery.deduped.to_string(),
            m.delivery.retries.to_string(),
        ]);
    }
    t
}

/// E15c — identical chaos seeds reproduce byte-identical metrics.
pub fn determinism(seed: u64) -> Table {
    let mut t = Table::new(
        "E15c: chaos determinism — same seed, byte-identical metrics",
        &["chaos seed", "faults applied", "crashes", "replay identical"],
    );
    let run = |chaos_seed: u64| {
        let chaos = ChaosConfig {
            link_flaps: 3,
            loss_bursts: 2,
            umbox_crashes: 2,
            controller_outages: 1,
            outage_len: SimDuration::from_secs(8),
            horizon: SimDuration::from_secs(40),
            ..ChaosConfig::default()
        }
        .with_seed(chaos_seed);
        let (mut d, _) = scenario::table1_row(1, Defense::iotsec());
        d.chaos(chaos);
        let mut w = World::new(&d);
        // Run past the fault horizon so the whole schedule plays out.
        w.run(SimDuration::from_secs(45));
        w.report()
    };
    for chaos_seed in [seed, seed ^ 0xDEAD] {
        let a = run(chaos_seed);
        let b = run(chaos_seed);
        t.rowd(&[
            format!("{chaos_seed:#x}"),
            a.faults_injected.to_string(),
            a.umbox_crashes.to_string(),
            (format!("{a:?}") == format!("{b:?}")).to_string(),
        ]);
    }
    t
}

/// All E15 tables.
pub fn chaos(seed: u64) -> Vec<Table> {
    vec![failure_modes(), failover(), determinism(seed)]
}
