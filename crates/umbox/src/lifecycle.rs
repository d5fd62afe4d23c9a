//! µmbox lifecycle: instantiation, reconfiguration, teardown.
//!
//! §5.2: "we can create custom micro VMs that can be rapidly
//! booted/rebooted" (the paper cites ClickOS and Jitsu). The lifecycle
//! model carries the latency constants that make the agility experiment
//! (E9) meaningful:
//!
//! | kind                 | instantiation          | source |
//! |----------------------|------------------------|--------|
//! | pooled unikernel     | ~1.5 ms (attach)       | pre-booted pool |
//! | unikernel cold boot  | ~25 ms                 | ClickOS/Jitsu-class |
//! | container            | ~300 ms                | docker-class |
//! | full VM              | ~15 s                  | Ubuntu VM (the paper's own prototype used these) |
//! | monolithic appliance | ~15 min (procurement/provisioning) | traditional enterprise middlebox |
//!
//! Reconfiguration of a running µmbox (ruleset swap, gate retarget) is
//! in-place and non-disruptive; a full VM must instead be rebooted.

use iotdev::device::DeviceId;
use iotnet::stats::DurationHist;
use iotnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// How a µmbox is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmKind {
    /// Attach a pre-booted unikernel from the pool.
    UnikernelPooled,
    /// Cold-boot a unikernel.
    Unikernel,
    /// Start a container.
    Container,
    /// Boot a full VM (the paper's own Squid/Snort-in-Ubuntu prototype).
    FullVm,
    /// Provision a traditional monolithic appliance (the baseline the
    /// paper argues against).
    Monolithic,
}

impl VmKind {
    /// Instantiation latency.
    pub(crate) fn boot_latency(self) -> SimDuration {
        match self {
            VmKind::UnikernelPooled => SimDuration::from_micros(1_500),
            VmKind::Unikernel => SimDuration::from_millis(25),
            VmKind::Container => SimDuration::from_millis(300),
            VmKind::FullVm => SimDuration::from_secs(15),
            VmKind::Monolithic => SimDuration::from_secs(900),
        }
    }

    /// Reconfiguration latency, and whether reconfiguration interrupts
    /// service (`true` = traffic dropped during the window).
    pub fn reconfigure(self) -> (SimDuration, bool) {
        match self {
            VmKind::UnikernelPooled | VmKind::Unikernel => (SimDuration::from_micros(800), false),
            VmKind::Container => (SimDuration::from_millis(5), false),
            VmKind::FullVm => (SimDuration::from_secs(2), true),
            VmKind::Monolithic => (SimDuration::from_secs(60), true),
        }
    }

    /// Memory footprint in MiB (for the resource model).
    pub(crate) fn footprint_mib(self) -> u32 {
        match self {
            VmKind::UnikernelPooled | VmKind::Unikernel => 8,
            VmKind::Container => 64,
            VmKind::FullVm => 512,
            VmKind::Monolithic => 4096,
        }
    }
}

/// Lifecycle state of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UmboxState {
    /// Booting; ready at the stored time.
    Booting {
        /// When it becomes ready.
        ready_at: SimTime,
    },
    /// Serving traffic.
    Running,
    /// Reconfiguring; if `disruptive`, traffic drops until `done_at`.
    Reconfiguring {
        /// When reconfiguration completes.
        done_at: SimTime,
        /// Whether traffic is dropped meanwhile.
        disruptive: bool,
    },
    /// Crashed (fault injection); the watchdog begins a respawn at the
    /// stored time. Not serving meanwhile.
    Crashed {
        /// When the watchdog notices the crash and starts the respawn.
        restart_at: SimTime,
    },
    /// Destroyed.
    Dead,
}

/// Handle to a managed instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UmboxId(pub u32);

/// One managed µmbox instance.
#[derive(Debug, Clone)]
pub struct UmboxInstance {
    /// The device it protects.
    pub device: DeviceId,
    /// Realization.
    pub kind: VmKind,
    /// Current state.
    pub state: UmboxState,
}

impl UmboxInstance {
    /// Whether the instance serves traffic at `now`.
    pub fn is_serving(&self, now: SimTime) -> bool {
        match self.state {
            UmboxState::Running => true,
            UmboxState::Booting { ready_at } => now >= ready_at,
            UmboxState::Reconfiguring { done_at, disruptive } => !disruptive || now >= done_at,
            UmboxState::Crashed { .. } => false,
            UmboxState::Dead => false,
        }
    }
}

/// The lifecycle manager: launch, reconfigure, retire; plus a pool of
/// pre-booted unikernels.
#[derive(Debug)]
pub struct LifecycleManager {
    // BTreeMap so watchdog respawns consume pool slots in id order — a
    // HashMap would make simultaneous respawns racy on the pool and break
    // the chaos layer's bit-for-bit reproducibility.
    instances: BTreeMap<UmboxId, UmboxInstance>,
    next_id: u32,
    /// Pre-booted unikernels available for instant attach.
    pub pool_available: u32,
    /// How long the watchdog takes to notice a crashed instance and start
    /// the respawn.
    pub watchdog_delay: SimDuration,
    /// Crashes injected so far.
    pub crashes: u64,
    /// Watchdog respawns performed so far.
    pub respawns: u64,
    /// Instantiation latencies observed.
    pub boot_hist: DurationHist,
}

impl LifecycleManager {
    /// A manager with `pool` pre-booted unikernels.
    pub fn new(pool: u32) -> LifecycleManager {
        LifecycleManager {
            instances: BTreeMap::new(),
            next_id: 0,
            pool_available: pool,
            watchdog_delay: SimDuration::from_secs(5),
            crashes: 0,
            respawns: 0,
            boot_hist: DurationHist::new(),
        }
    }

    /// Launch a µmbox for `device` as `kind` at time `now`. A pooled
    /// request falls back to a cold unikernel boot when the pool is dry.
    /// Returns the handle and the time the instance starts serving.
    pub fn launch(&mut self, device: DeviceId, kind: VmKind, now: SimTime) -> (UmboxId, SimTime) {
        let effective = if kind == VmKind::UnikernelPooled {
            if self.pool_available > 0 {
                self.pool_available -= 1;
                VmKind::UnikernelPooled
            } else {
                VmKind::Unikernel
            }
        } else {
            kind
        };
        let latency = effective.boot_latency();
        self.boot_hist.record(latency);
        let ready_at = now + latency;
        let id = UmboxId(self.next_id);
        self.next_id += 1;
        self.instances.insert(
            id,
            UmboxInstance { device, kind: effective, state: UmboxState::Booting { ready_at } },
        );
        (id, ready_at)
    }

    /// Crash an instance at `now` (fault injection). The instance stops
    /// serving immediately; the watchdog notices after
    /// [`LifecycleManager::watchdog_delay`] and respawns it from the pool
    /// (see [`LifecycleManager::advance`]). A crashed pooled slot is lost
    /// — it does not return to the pool. No-op on unknown/dead handles.
    pub fn crash(&mut self, id: UmboxId, now: SimTime) {
        if let Some(inst) = self.instances.get_mut(&id) {
            if inst.state == UmboxState::Dead {
                return;
            }
            inst.state = UmboxState::Crashed { restart_at: now + self.watchdog_delay };
            self.crashes += 1;
        }
    }

    /// Push a crashed instance's watchdog restart out to at least
    /// `until`. This is the circuit-breaker hold: while a device's
    /// breaker is open there is no point burning pool slots on respawns
    /// that will crash again, so the watchdog is deferred to the end of
    /// the cooldown. No-op unless the instance is currently crashed or
    /// the deadline already lies past `until`.
    pub fn hold_respawn(&mut self, id: UmboxId, until: SimTime) {
        if let Some(inst) = self.instances.get_mut(&id) {
            if let UmboxState::Crashed { restart_at } = inst.state {
                if until > restart_at {
                    inst.state = UmboxState::Crashed { restart_at: until };
                }
            }
        }
    }

    /// Reconfigure an instance at `now`; returns when the new
    /// configuration is active. Panics on unknown/dead handles (caller
    /// bug).
    pub fn reconfigure(&mut self, id: UmboxId, now: SimTime) -> SimTime {
        let inst = self.instances.get_mut(&id).expect("unknown umbox");
        assert!(inst.state != UmboxState::Dead, "reconfiguring a dead umbox");
        if let UmboxState::Crashed { restart_at } = inst.state {
            // A crashed instance can't apply the reconfig; the new
            // configuration goes live once the watchdog respawn completes.
            return restart_at + inst.kind.boot_latency();
        }
        let (latency, disruptive) = inst.kind.reconfigure();
        let done_at = now + latency;
        inst.state = UmboxState::Reconfiguring { done_at, disruptive };
        done_at
    }

    /// The earliest deadline [`LifecycleManager::advance`] is waiting for:
    /// a boot or reconfiguration completing, a watchdog firing.
    pub fn next_due(&self) -> Option<SimTime> {
        let deadline = |inst: &UmboxInstance| match inst.state {
            UmboxState::Booting { ready_at } => Some(ready_at),
            UmboxState::Reconfiguring { done_at, .. } => Some(done_at),
            UmboxState::Crashed { restart_at } => Some(restart_at),
            UmboxState::Running | UmboxState::Dead => None,
        };
        self.instances.values().filter_map(deadline).min()
    }

    /// Mark booting/reconfiguring instances whose deadline passed as
    /// running, and respawn crashed instances whose watchdog fired
    /// (called from the simulation loop).
    ///
    /// Returns the respawned instances as `(device, restart time)` in
    /// instance-id order — deterministic, so the caller can emit respawn
    /// trace events in a stable order.
    pub fn advance(&mut self, now: SimTime) -> Vec<(DeviceId, SimTime)> {
        let mut respawned = Vec::new();
        // One pass in id order, so the watchdog consumes the pool
        // deterministically; a tick with nothing due allocates nothing.
        for inst in self.instances.values_mut() {
            if let UmboxState::Crashed { restart_at } = inst.state {
                if now >= restart_at {
                    let effective = if inst.kind == VmKind::UnikernelPooled {
                        if self.pool_available > 0 {
                            self.pool_available -= 1;
                            VmKind::UnikernelPooled
                        } else {
                            VmKind::Unikernel
                        }
                    } else {
                        inst.kind
                    };
                    let latency = effective.boot_latency();
                    self.boot_hist.record(latency);
                    inst.kind = effective;
                    inst.state = UmboxState::Booting { ready_at: restart_at + latency };
                    self.respawns += 1;
                    respawned.push((inst.device, restart_at));
                }
            }
            match inst.state {
                UmboxState::Booting { ready_at } if now >= ready_at => {
                    inst.state = UmboxState::Running;
                }
                UmboxState::Reconfiguring { done_at, .. } if now >= done_at => {
                    inst.state = UmboxState::Running;
                }
                _ => {}
            }
        }
        respawned
    }

    /// Retire an instance; pooled/unikernel slots return to the pool.
    pub fn retire(&mut self, id: UmboxId) {
        if let Some(inst) = self.instances.get_mut(&id) {
            if matches!(inst.kind, VmKind::UnikernelPooled) {
                self.pool_available += 1;
            }
            inst.state = UmboxState::Dead;
        }
    }

    /// Look up an instance.
    pub fn get(&self, id: UmboxId) -> Option<&UmboxInstance> {
        self.instances.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_matches_the_papers_argument() {
        assert!(VmKind::UnikernelPooled.boot_latency() < VmKind::Unikernel.boot_latency());
        assert!(VmKind::Unikernel.boot_latency() < VmKind::Container.boot_latency());
        assert!(VmKind::Container.boot_latency() < VmKind::FullVm.boot_latency());
        assert!(VmKind::FullVm.boot_latency() < VmKind::Monolithic.boot_latency());
        // The headline ratio: pooled unikernel vs appliance is ~6 orders.
        let ratio = VmKind::Monolithic.boot_latency().as_nanos() as f64
            / VmKind::UnikernelPooled.boot_latency().as_nanos() as f64;
        assert!(ratio > 1e5, "ratio {ratio}");
    }

    #[test]
    fn pooled_launch_is_fast_until_pool_dries() {
        let mut mgr = LifecycleManager::new(2);
        let (_, t1) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        let (_, t2) = mgr.launch(DeviceId(1), VmKind::UnikernelPooled, SimTime::ZERO);
        let (id3, t3) = mgr.launch(DeviceId(2), VmKind::UnikernelPooled, SimTime::ZERO);
        assert_eq!(t1.as_micros(), 1500);
        assert_eq!(t2.as_micros(), 1500);
        assert_eq!(t3.as_millis(), 25); // fell back to a cold boot
        assert_eq!(mgr.get(id3).unwrap().kind, VmKind::Unikernel);
        assert_eq!(mgr.pool_available, 0);
    }

    #[test]
    fn instances_become_running_and_serve() {
        let mut mgr = LifecycleManager::new(1);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        assert!(!mgr.get(id).unwrap().is_serving(SimTime::ZERO));
        assert!(mgr.get(id).unwrap().is_serving(ready));
        mgr.advance(ready);
        assert_eq!(mgr.get(id).unwrap().state, UmboxState::Running);
    }

    #[test]
    fn next_due_is_the_earliest_deadline_advance_waits_for() {
        let mut mgr = LifecycleManager::new(1);
        assert_eq!(mgr.next_due(), None);
        let (a, ready_a) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        let (_, ready_b) = mgr.launch(DeviceId(1), VmKind::FullVm, SimTime::ZERO);
        assert_eq!(mgr.next_due(), Some(ready_a));
        mgr.advance(ready_a);
        assert_eq!(mgr.next_due(), Some(ready_b));
        mgr.advance(ready_b);
        assert_eq!(mgr.next_due(), None, "running instances wait for nothing");
        let done = mgr.reconfigure(a, ready_b);
        assert_eq!(mgr.next_due(), Some(done));
        mgr.crash(a, ready_b);
        assert_eq!(mgr.next_due(), Some(ready_b + mgr.watchdog_delay));
        mgr.retire(a);
        assert_eq!(mgr.next_due(), None);
    }

    #[test]
    fn nondisruptive_reconfig_keeps_serving() {
        let mut mgr = LifecycleManager::new(1);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        mgr.advance(ready);
        let done = mgr.reconfigure(id, ready);
        // Unikernel reconfig is non-disruptive: serving throughout.
        assert!(mgr.get(id).unwrap().is_serving(ready + SimDuration::from_micros(1)));
        mgr.advance(done);
        assert_eq!(mgr.get(id).unwrap().state, UmboxState::Running);
    }

    #[test]
    fn fullvm_reconfig_has_an_outage_window() {
        let mut mgr = LifecycleManager::new(0);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::FullVm, SimTime::ZERO);
        mgr.advance(ready);
        let done = mgr.reconfigure(id, ready);
        // During the window the full VM drops traffic.
        assert!(!mgr.get(id).unwrap().is_serving(ready + SimDuration::from_millis(1)));
        assert!(mgr.get(id).unwrap().is_serving(done));
    }

    #[test]
    fn retire_returns_pooled_slots() {
        let mut mgr = LifecycleManager::new(1);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        assert_eq!(mgr.pool_available, 0);
        mgr.advance(ready);
        mgr.retire(id);
        assert_eq!(mgr.pool_available, 1);
        assert!(!mgr.get(id).unwrap().is_serving(ready));
        assert!(mgr.instances.values().all(|i| i.state == UmboxState::Dead));
    }

    #[test]
    fn crash_stops_service_and_watchdog_respawns_from_pool() {
        let mut mgr = LifecycleManager::new(2);
        mgr.watchdog_delay = SimDuration::from_secs(5);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        mgr.advance(ready);
        assert!(mgr.get(id).unwrap().is_serving(ready));

        let crash_at = SimTime::from_secs(10);
        mgr.crash(id, crash_at);
        assert!(!mgr.get(id).unwrap().is_serving(crash_at));
        assert_eq!(mgr.crashes, 1);
        // The crashed pooled slot is lost, not returned.
        assert_eq!(mgr.pool_available, 1);

        // Before the watchdog fires nothing happens.
        mgr.advance(crash_at + SimDuration::from_secs(1));
        assert!(!mgr.get(id).unwrap().is_serving(crash_at + SimDuration::from_secs(1)));

        // Watchdog fires: respawn attaches a fresh pooled unikernel and
        // reports the respawned device keyed by the watchdog-fire instant.
        let restart = crash_at + mgr.watchdog_delay;
        assert_eq!(mgr.advance(restart), vec![(DeviceId(0), restart)]);
        let back = restart + VmKind::UnikernelPooled.boot_latency();
        assert!(mgr.get(id).unwrap().is_serving(back));
        assert_eq!(mgr.respawns, 1);
        assert_eq!(mgr.pool_available, 0);
    }

    #[test]
    fn hold_respawn_defers_the_watchdog() {
        let mut mgr = LifecycleManager::new(2);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        mgr.advance(ready);
        mgr.crash(id, SimTime::from_secs(10));
        let normal_restart = SimTime::from_secs(10) + mgr.watchdog_delay;
        let hold_until = SimTime::from_secs(40);
        mgr.hold_respawn(id, hold_until);
        // The watchdog instant passes without a respawn.
        assert!(mgr.advance(normal_restart).is_empty());
        // An earlier hold never pulls the deadline back in.
        mgr.hold_respawn(id, SimTime::from_secs(20));
        assert!(mgr.advance(SimTime::from_secs(25)).is_empty());
        assert_eq!(mgr.advance(hold_until), vec![(DeviceId(0), hold_until)]);
        // Holding a running instance is a no-op.
        mgr.hold_respawn(id, SimTime::from_secs(99));
        assert!(matches!(mgr.get(id).unwrap().state, UmboxState::Booting { .. }));
    }

    #[test]
    fn respawn_falls_back_to_cold_boot_when_pool_is_dry() {
        let mut mgr = LifecycleManager::new(1);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        mgr.advance(ready);
        assert_eq!(mgr.pool_available, 0);
        mgr.crash(id, SimTime::from_secs(1));
        let restart = SimTime::from_secs(1) + mgr.watchdog_delay;
        mgr.advance(restart);
        assert_eq!(mgr.get(id).unwrap().kind, VmKind::Unikernel);
        assert!(mgr.get(id).unwrap().is_serving(restart + VmKind::Unikernel.boot_latency()));
    }

    #[test]
    fn reconfigure_during_crash_defers_to_the_respawn() {
        let mut mgr = LifecycleManager::new(1);
        let (id, ready) = mgr.launch(DeviceId(0), VmKind::UnikernelPooled, SimTime::ZERO);
        mgr.advance(ready);
        mgr.crash(id, SimTime::from_secs(1));
        let done = mgr.reconfigure(id, SimTime::from_secs(2));
        // Still crashed; the new config activates with the respawn.
        assert!(matches!(mgr.get(id).unwrap().state, UmboxState::Crashed { .. }));
        assert!(done >= SimTime::from_secs(1) + mgr.watchdog_delay);
    }

    #[test]
    fn histograms_record() {
        let mut mgr = LifecycleManager::new(0);
        for i in 0..10 {
            mgr.launch(DeviceId(i), VmKind::Unikernel, SimTime::ZERO);
        }
        assert_eq!(mgr.boot_hist.count, 10);
        assert_eq!(mgr.boot_hist.median().as_millis(), 25);
    }
}
