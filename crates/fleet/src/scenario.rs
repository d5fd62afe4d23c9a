//! The canonical E20 home scenario: a zero-day only the fleet can fix.
//!
//! Every home deploys [`iotsec::scenario::fleet_home`]: a camera whose
//! Table 1 row 1 default-credential flaw is *undisclosed*, so the local
//! policy compiler has nothing to mitigate and the dictionary-login
//! campaign leaks camera images in every home. Sentinel homes that
//! observe the breach publish the canonical row 1 signature; once the
//! aggregator hierarchy installs it, the standing IDS drops the
//! `admin`/`admin` login fleet-wide and the same campaign dies — the
//! paper's crowdsourcing story (§4.1) at population scale.

use crate::fleet::{HomeOutcome, HomeWorld, ResidentStats};
use iotdev::device::DeviceId;
use iotlearn::AttackSignature;
use iotnet::time::SimDuration;
use iotsec::defense::Defense;
use iotsec::deployment::Deployment;
use iotsec::world::{HomeOverrides, ResidentWorld, World, WorldScrap};
use std::sync::Arc;
use trace::digest::Fnv64;

/// The shared home template plus the sentinel discovery rule.
///
/// The template [`Deployment`] is built once and shared read-only by
/// every worker; per-home construction only varies the seed and the
/// borrowed intel slice (see [`World::new_home`]).
pub struct FleetScenario {
    template: Deployment,
    cam: DeviceId,
    horizon: SimDuration,
    /// Homes with `home % sentinel_stride == 0` publish a signature when
    /// the attack reaches its target (≥ 1 guarantees home 0 is a
    /// sentinel, so one discovery always exists to propagate).
    sentinel_stride: u32,
}

impl FleetScenario {
    /// The standard E20 scenario: IoTSec-defended homes, a 120-sim-second
    /// attack horizon, sentinels every `sentinel_stride` homes.
    pub fn new(sentinel_stride: u32) -> FleetScenario {
        let (template, cam) = iotsec::scenario::fleet_home(Defense::iotsec(), 0);
        FleetScenario {
            template,
            cam,
            horizon: SimDuration::from_secs(120),
            sentinel_stride: sentinel_stride.max(1),
        }
    }

    /// The shared template deployment (for differential tests that run
    /// homes individually through [`World::new_home`]).
    pub fn template(&self) -> &Deployment {
        &self.template
    }

    /// The attack horizon each home runs to.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Fold a finished home world into its canonical outcome (shared by
    /// the fleet path and the differential tests).
    pub fn outcome_of(&self, home: u32, seed: u64, w: &mut World) -> HomeOutcome {
        let m = w.report();
        let blocks = m.umbox_drops + m.umbox_intercepts;
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h.write_u32(m.compromised.len() as u32);
        h.write_u32(m.privacy_leaked.len() as u32);
        h.write_u64(blocks);
        h.write_u32(m.steps_succeeded() as u32);
        h.write_u64(w.net.events_processed());
        HomeOutcome {
            digest: h.finish(),
            compromised: m.compromised.len() as u32,
            leaked: m.privacy_leaked.len() as u32,
            blocks,
            events: w.net.events_processed(),
            discovered: m.attack_reached_target() && home.is_multiple_of(self.sentinel_stride),
            flagged: 0,
        }
    }
}

/// Add a finished home-round's tick counts to the resident stats.
fn count_ticks(w: &World, stats: &mut ResidentStats) {
    stats.ticks_executed += w.ticks_executed();
    stats.ticks_simulated += w.ticks_simulated();
}

impl HomeWorld for FleetScenario {
    type Resident = ResidentWorld;

    fn run_home(&self, home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
        let overrides = HomeOverrides { seed, extra_signatures: intel };
        let mut w = World::new_home(&self.template, &overrides);
        w.run_until_attack_done(self.horizon);
        self.outcome_of(home, seed, &mut w)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_home_resident(
        &self,
        home: u32,
        seed: u64,
        epoch: u32,
        intel: &Arc<[AttackSignature]>,
        slot: &mut Option<Self::Resident>,
        scrap: &mut WorldScrap,
        stats: &mut ResidentStats,
    ) -> HomeOutcome {
        if !World::supports_resident(&self.template) {
            stats.full_builds += 1;
            return self.run_home(home, seed, intel);
        }
        match slot {
            Some(res) => {
                let w = res.get_mut();
                if w.resident_epoch() != Some(epoch) {
                    let d = w.apply_intel_delta(epoch, intel);
                    if d.noop {
                        stats.noop_installs += 1;
                    } else {
                        stats.delta_installs += 1;
                        if d.recompiled {
                            stats.policy_recompiles += 1;
                        }
                        stats.devices_patched += u64::from(d.devices_patched);
                        stats.devices_kept += u64::from(d.devices_kept);
                    }
                }
                w.rebind_home(seed);
                stats.resident_runs += 1;
                w.run_until_attack_done(self.horizon);
                count_ticks(w, stats);
                self.outcome_of(home, seed, w)
            }
            None => {
                stats.full_builds += 1;
                let mut w = World::new_home_resident(&self.template, seed, epoch, intel, scrap);
                w.run_until_attack_done(self.horizon);
                count_ticks(&w, stats);
                let out = self.outcome_of(home, seed, &mut w);
                *slot = Some(ResidentWorld::new(w));
                out
            }
        }
    }

    fn discovery(&self, _home: u32) -> Option<AttackSignature> {
        AttackSignature::for_table1_row(1, &self.template.devices[self.cam.0 as usize].sku)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{home_seed, Fleet, FleetConfig};

    #[test]
    fn undefended_home_leaks_then_signature_blocks() {
        let s = FleetScenario::new(1);
        let seed = home_seed(42, 0);
        let naked = s.run_home(0, seed, &[]);
        assert!(naked.leaked > 0, "zero-day must land without intel: {naked:?}");
        assert!(naked.discovered);
        let sig = s.discovery(0).unwrap();
        let armed = s.run_home(0, seed, &[sig]);
        assert_eq!(armed.leaked, 0, "signature must block the campaign: {armed:?}");
        assert!(armed.blocks > 0, "the IDS must have dropped the login: {armed:?}");
        assert!(!armed.discovered);
    }

    #[test]
    fn one_discovery_protects_the_whole_fleet() {
        let cfg = FleetConfig { homes: 6, neighborhood: 2, chunk: 2, threads: 1, seed: 42 };
        let mut fleet = Fleet::new(FleetScenario::new(6), cfg);
        let r0 = fleet.round();
        assert_eq!(r0.discoveries, 1, "only home 0 is a sentinel");
        assert_eq!(r0.epoch, 1);
        assert_eq!(r0.installs, 6);
        let _r1 = fleet.round();
        let report = fleet.report();
        // Round 0: all homes leak. Round 1: none do.
        assert_eq!(report.leaked, 6);
        assert!(fleet.outcome(3).blocks > 0);
    }

    /// The E26 oracle at fleet scale: a fleet left at its default —
    /// resident: persistent per-worker worlds, delta intel installs —
    /// must be byte-identical to the rebuild reference — same chained
    /// digest, same report — at every thread count, and must actually
    /// run resident (not fall back to full builds).
    #[test]
    fn resident_fleet_is_byte_identical_to_rebuild_fleet() {
        let cfg = FleetConfig { homes: 8, neighborhood: 4, chunk: 2, threads: 1, seed: 42 };
        let mut rebuild = Fleet::new(FleetScenario::new(8), cfg);
        rebuild.set_resident(false);
        let baseline = rebuild.run(3);
        assert_eq!(rebuild.resident_stats().resident_runs, 0);
        for threads in [1usize, 2, 4] {
            let cfg = FleetConfig { homes: 8, neighborhood: 4, chunk: 2, threads, seed: 42 };
            let mut fleet = Fleet::new(FleetScenario::new(8), cfg);
            let report = fleet.run(3);
            assert_eq!(report, baseline, "threads={threads}");
            let stats = fleet.resident_stats();
            assert!(stats.resident_runs > 0, "must reuse worlds: {stats:?}");
            assert!(
                stats.full_builds <= threads.max(1) as u64,
                "at most one cold build per worker: {stats:?}"
            );
            assert!(stats.delta_installs > 0, "epoch 1 must delta-install: {stats:?}");
            assert!(stats.policy_recompiles > 0, "camera signature flips membership: {stats:?}");
        }
    }
}
