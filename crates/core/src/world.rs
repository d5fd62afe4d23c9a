//! The simulation world: Figure 2 running.
//!
//! The world owns the network, the physical environment, the devices,
//! the hub, the attacker, and — when IoTSec is deployed — the controller
//! and the µmbox runtime. A fixed tick (default 100 ms) drives device
//! FSMs, physics, the hub and the attacker; the packet-level event
//! engine runs at full resolution between ticks. The tick is the
//! semantic grid, not the unit of work: [`World::run`] executes the
//! ticks in which something is due, runs their device pass only where a
//! device has work, and replays only the physics of the rest
//! (DESIGN.md §6).

use crate::chaos::ChaosConfig;
use crate::defense::{upnp_pinholes, Defense, IoTSecConfig};
use crate::deployment::{AttackerLocation, Deployment, Site, StepSpec};
use crate::hub::Hub;
use crate::metrics::Metrics;
use crate::trajectory::Trajectory;
use iotctl::controller::{Controller, ControllerConfig};
use iotctl::delivery::DeliveryChannel;
use iotctl::directive::Directive;
use iotctl::failover::ReplicatedController;
use iotctl::hier::{HierarchicalController, Partitioning};
use iotctl::safety::{self, DeviceFacts, SafetyMonitor};
use iotdev::attacker::{AttackPlan, AttackStep, Attacker, AttackerEmit};
use iotdev::classes::{DeviceLogic, PlugLoad};
use iotdev::device::{AdminCreds, DeviceId, DeviceOutput, IoTDevice, OutMessage};
use iotdev::env::{DiscreteEnv, EnvVar, Environment};
use iotdev::events::SecurityEvent;
use iotdev::proto::AppMessage;
use iotdev::vuln::Vulnerability;
use iotlearn::signature::{AttackSignature, Matcher, Severity};
use iotnet::addr::{EndpointId, Ipv4Addr, NodeId, SwitchId};
use iotnet::faults::FaultScheduler;
use iotnet::flow::{FlowAction, FlowMatch, FlowRule, SteerId};
use iotnet::hash::WordMap;
use iotnet::link::LinkParams;
use iotnet::net::Network;
use iotnet::packet::{Packet, TcpFlags, TransportHeader};
use iotnet::time::{SimDuration, SimTime};
use iotnet::topology::TopologyBuilder;
use iotpolicy::compile::PolicyCompiler;
use iotpolicy::policy::{FsmPolicy, RuleOrigin};
use iotpolicy::posture::Posture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use trace::{TraceEvent, Tracer};
use umbox::breaker::{BreakerBank, BreakerEvent};
use umbox::chain::{build_chain, ChainConfig, FailureMode, UmboxChain};
use umbox::element::{EventSink, ViewHandle};
use umbox::lifecycle::{LifecycleManager, UmboxId};
use umbox::resource::Cluster;

/// Who owns an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entity {
    Device(usize),
    Hub,
    Attacker,
    Victim,
}

enum ControlPlane {
    Flat(Box<Controller>),
    Hier(Box<HierarchicalController>),
    /// A flat controller paired with a warm standby (chaos runs).
    Replicated(Box<ReplicatedController>),
}

impl ControlPlane {
    fn ingest(&mut self, event: SecurityEvent) {
        match self {
            ControlPlane::Flat(c) => c.ingest(event),
            ControlPlane::Hier(h) => h.ingest(event),
            ControlPlane::Replicated(r) => r.ingest(event),
        }
    }

    fn ingest_env(&mut self, at: SimTime, values: &[(EnvVar, &'static str)]) {
        match self {
            ControlPlane::Flat(c) => c.ingest_env(at, values),
            ControlPlane::Hier(h) => h.ingest_env(at, values),
            ControlPlane::Replicated(r) => r.ingest_env(at, values),
        }
    }

    fn step(&mut self, now: SimTime) -> Vec<Directive> {
        match self {
            ControlPlane::Flat(c) => c.step(now),
            ControlPlane::Hier(h) => h.step(now),
            ControlPlane::Replicated(r) => r.step(now),
        }
    }

    /// Whether the view's environment is `env`, so that reporting `env`
    /// again would change nothing. A served event can move it off the
    /// last report; the planes with more than one view answer no.
    fn holds_env(&self, env: &DiscreteEnv) -> bool {
        match self {
            ControlPlane::Flat(c) => {
                EnvVar::ALL.iter().all(|&v| c.view.env.get(v) == Some(env.get(v)))
            }
            ControlPlane::Hier(_) | ControlPlane::Replicated(_) => false,
        }
    }

    /// The instant from which `step` next does anything. The replicated
    /// plane logs every environment report it is handed, so it is always
    /// due (`World::polls_every_tick` keeps such worlds off this path).
    fn next_due(&self) -> Option<SimTime> {
        match self {
            ControlPlane::Flat(c) => c.next_due(),
            ControlPlane::Hier(h) => h.next_due(),
            ControlPlane::Replicated(_) => Some(SimTime::ZERO),
        }
    }

    fn reconcile(&mut self, now: SimTime) -> Vec<Directive> {
        match self {
            ControlPlane::Flat(c) => c.reconcile(now),
            ControlPlane::Hier(h) => h.reconcile(now),
            ControlPlane::Replicated(r) => r.reconcile(now),
        }
    }

    fn events_processed(&self) -> u64 {
        match self {
            ControlPlane::Flat(c) => c.stats.events_processed,
            ControlPlane::Hier(h) => h.total_processed(),
            ControlPlane::Replicated(r) => r.events_processed(),
        }
    }

    /// Whether the control plane can process work right now.
    fn is_down(&self, now: SimTime) -> bool {
        match self {
            ControlPlane::Flat(c) => c.is_down(now),
            ControlPlane::Hier(_) => false,
            ControlPlane::Replicated(r) => r.is_down(now),
        }
    }

    /// Inject an outage. The hierarchical control plane has no single
    /// point of failure to take down, so the injection is a no-op there.
    fn inject_outage(&mut self, from: SimTime, duration: SimDuration) {
        match self {
            ControlPlane::Flat(c) => c.inject_outage(from, duration),
            ControlPlane::Hier(_) => {}
            ControlPlane::Replicated(r) => r.inject_outage(from, duration),
        }
    }

    fn failovers(&self) -> u64 {
        match self {
            ControlPlane::Replicated(r) => r.failovers,
            _ => 0,
        }
    }

    /// Installed-posture fingerprint of the (active) controller, for
    /// the safety monitor's FSM-continuity invariant. The hierarchical
    /// plane has no single installed vector — and no single failover to
    /// survive — so it reports a constant.
    fn installed_fingerprint(&self) -> u64 {
        match self {
            ControlPlane::Flat(c) => c.installed_fingerprint(),
            ControlPlane::Replicated(r) => r.installed_fingerprint(),
            ControlPlane::Hier(_) => 0,
        }
    }
}

/// A device's live µmbox: its chain's steer point and its instance.
#[derive(Clone, Copy)]
struct UmboxSlot {
    steer: SteerId,
    instance: UmboxId,
}

impl UmboxSlot {
    fn chain(self, net: &Network) -> &UmboxChain {
        net.processor(self.steer).expect("a live slot's chain is registered")
    }
}

/// An empty token: nothing is banked between home builds. The frozen
/// benchmark harness names this type in the resident signatures it
/// implements and calls ([`World::new_home_resident`]'s last parameter);
/// it goes with those parameters at the E38(e) unfreeze.
#[derive(Debug, Default)]
pub struct WorldScrap {}

/// What one home accumulates between t = 0 and its report.
/// [`World::reset_home`] replaces it wholesale, so a field added here
/// starts every home — cold-built or rebound — at its `Default`.
#[derive(Default)]
struct HomeState {
    lifecycle: Option<LifecycleManager>,
    cluster: Option<Cluster>,
    victim_bytes: u64,
    /// Steer points registered so far; their ids count from 1.
    steers: u32,
    /// When a physical breach state was first entered.
    breach_at: Option<SimTime>,
    retired_drops: u64,
    retired_intercepts: u64,
    retired_fail_open: u64,
    retired_fail_closed: u64,
    unprotected: BTreeMap<DeviceId, SimDuration>,
    fail_open_exposure: SimDuration,
    /// Devices whose security events arrived while the control plane was
    /// down — exposed until it returns and reacts.
    blocked_reaction: BTreeSet<DeviceId>,
    /// Failover count at the last tick, for edge-triggered trace events.
    last_failovers: u64,
    /// Whole-class recomputes refused by the admission controller.
    admission_shed: u64,
    /// Ticks executed, in full or device-coasted; the clock counts the
    /// ticks simulated.
    ticks_executed: u64,
    /// Physics steps taken, executed or coasted: the tick index of the
    /// next one in the trajectory.
    steps: u64,
    /// A delivery reached a device since the last full device pass, so
    /// the accumulators that pass derived may be stale.
    touched: bool,
    /// The discretization the hub and the control plane were last handed;
    /// `None` once a served event has moved the control plane's view off it.
    reported: Option<DiscreteEnv>,
}

/// The per-home containers whose capacity outlives the home:
/// [`World::reset_home`] empties them in place, so steady-state ticks
/// and resident home-rounds never re-grow them.
#[derive(Default)]
struct HomeBuffers {
    /// The controller's data-plane view (what gates read) and the sink
    /// chains report into: handles the controller and every chain share,
    /// so a new home keeps them and starts from their contents emptied.
    gate_view: ViewHandle,
    event_sink: EventSink,
    chains: WordMap<DeviceId, UmboxSlot>,
    pending_steers: Vec<(SimTime, DeviceId, UmboxChain, UmboxId)>,
    /// Keyed by the steer point of the chain each replaces, which retiring
    /// removes: a swap reaches only the chain it was built for.
    pending_swaps: Vec<(SimTime, SteerId, UmboxChain)>,
    pending_events: Vec<SecurityEvent>,
    /// Delivery buffer handed to [`Network::step_until_into`].
    delivery_scratch: Vec<iotnet::net::Delivery>,
    /// Output buffer handed to [`IoTDevice::tick_into`]; empty between
    /// devices.
    device_out: DeviceOutput,
    /// Output buffer handed to [`Attacker::poll_into`]; empty between
    /// polls.
    attacker_out: Vec<AttackerEmit>,
    /// Per-device fact rows rebuilt for the safety monitor each tick.
    facts_scratch: Vec<DeviceFacts>,
}

impl HomeBuffers {
    fn clear(&mut self) {
        self.gate_view.clear();
        self.event_sink.clear();
        self.chains.clear();
        self.pending_steers.clear();
        self.pending_swaps.clear();
        self.pending_events.clear();
        self.delivery_scratch.clear();
        self.facts_scratch.clear();
    }
}

/// The running world.
///
/// Its fields are of three kinds. *Structure* is what the deployment
/// decides and the builder assembles once: devices, hub, attacker, the
/// compiled policy inside the control plane, signatures, wiring.
/// *Home state* (`clock`, `env`, the network's runtime, `home`, `buf`)
/// is written by the private `reset_home` and nowhere else — the builder
/// ends in it and [`World::rebind_home`] is nothing but it, so a resident
/// home is a cold-built one by construction. The chaos layer keeps its
/// schedules and their cursors, and the safety monitor its episodes,
/// tallies and quarantines, outside that reset, which is why
/// [`World::supports_resident`] excludes them.
pub struct World {
    /// Current simulated time.
    pub clock: SimTime,
    tick: SimDuration,
    /// The network substrate.
    pub net: Network,
    /// The physical environment.
    pub env: Environment,
    devices: Vec<IoTDevice>,
    /// Indices of the devices whose class senses the physics: the only
    /// ones a coasted stretch has to keep asking whether they are steady.
    physics_watchers: Vec<usize>,
    device_endpoints: Vec<EndpointId>,
    /// Who owns each endpoint, indexed by [`EndpointId`].
    entities: Vec<Option<Entity>>,
    hub: Hub,
    hub_ep: EndpointId,
    attacker: Option<(Attacker, EndpointId)>,
    control: Option<ControlPlane>,
    cfg: Option<IoTSecConfig>,
    site: Site,
    /// Watchdog delay a chaos schedule imposes on each home's lifecycle.
    watchdog_delay: Option<SimDuration>,
    /// Per-device plug-load override, applied over the factory FSM.
    plug_loads: Vec<Option<PlugLoad>>,
    pre_stolen_keys: Vec<u64>,
    /// Per-device interned signature rulesets (repository subscriptions
    /// plus vuln-derived rules), written by `install_intel`. Chains
    /// share these by `Rc` refcount instead of rebuilding the signature
    /// vector on every launch/reconfigure.
    device_signatures: Vec<Rc<[AttackSignature]>>,
    /// Per-device standing-IDS membership: whether some repository
    /// signature, subscribed or regional, names the device's SKU. The
    /// compiled policy depends on intel through this vector alone.
    standing_ids: Vec<bool>,
    core_switch: SwitchId,
    device_switch: Vec<SwitchId>,
    /// What every chain of this world is built from. The hub's address,
    /// the shared handles, the failure mode and the tracer are the
    /// world's; each launch writes in its device, that device's current
    /// credentials (over the strings the last one left) and its ruleset.
    chain_config: ChainConfig,
    home: HomeState,
    buf: HomeBuffers,
    // --- chaos layer (all inert unless `chaos_enabled`) ----------------
    /// Whether a chaos schedule was installed. The schedule itself lives
    /// in `faults`/`crash_plan`/`outage_plan`; the full `ChaosConfig` is
    /// consumed at construction, not cloned into the world.
    chaos_enabled: bool,
    faults: FaultScheduler,
    /// Sorted µmbox crash schedule; `crash_idx` is the cursor.
    crash_plan: Vec<(SimTime, DeviceId)>,
    crash_idx: usize,
    /// Sorted controller outage schedule; `outage_idx` is the cursor.
    outage_plan: Vec<(SimTime, SimDuration)>,
    outage_idx: usize,
    delivery: Option<DeliveryChannel>,
    /// Structured trace emission (disabled by default; zero-cost then).
    tracer: Tracer,
    // --- safety layer (all inert unless `deployment.safety` is set) -----
    /// The runtime safety monitor. The world hands it each failover and
    /// breaker trip where it records them, and lends it `tracer` for its
    /// own events.
    safety: Option<SafetyMonitor>,
    /// Per-µmbox circuit breakers (only when the breaker is enabled).
    breakers: Option<BreakerBank>,
    /// Resident-mode bookkeeping (E26): `Some` only for worlds built by
    /// [`World::new_home_resident`], which survive across fleet rounds
    /// and take intel updates via [`World::apply_intel_delta`] instead
    /// of being rebuilt.
    resident: Option<Box<ResidentBind>>,
}

/// What a resident world (E26) keeps across homes: the intel installed on
/// it and the template `install_intel` reads its inputs from, to take an
/// intel delta, and the physics its homes have stepped. A cold world
/// steps each tick of its one home once, so it keeps no trajectory.
struct ResidentBind {
    /// Intel epoch currently installed on this world.
    epoch: u32,
    /// The installed snapshot itself (content, not just the number — a
    /// content-equal snapshot installs as a no-op).
    intel: Arc<[AttackSignature]>,
    template: Deployment,
    trajectory: Trajectory,
}

/// What [`World::apply_intel_delta`] did, for the fleet's
/// delta-vs-full install accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaInstall {
    /// The new snapshot was content-identical: only the epoch advanced.
    pub noop: bool,
    /// A standing-IDS membership flip forced a policy recompile.
    pub recompiled: bool,
    /// Devices whose signature ruleset was repatched.
    pub devices_patched: u32,
    /// Devices whose matching set was unchanged and kept as-is.
    pub devices_kept: u32,
}

/// A resident [`World`] handed off between fleet rounds (E26).
///
/// `World` is not `Send`: its interior uses `Rc`/`RefCell` for state
/// shared *within one home* (signature rulesets, the tracer, the gate
/// view). A resident world, however, must outlive the scoped worker
/// thread that ran it and be picked up by the next round's worker. That
/// hand-off is serial — the fleet keeps each resident world in one
/// worker's state, lends that state as an exclusive `&mut` to at most
/// one scoped thread per round (a round that spawns none serves it on
/// the coordinator), and joins the thread before the coordinator (or
/// the next round's thread) can reach it again. So no
/// two threads ever touch a world concurrently, the borrow checker —
/// not a lock discipline — enforces it, and every `Rc` clone lives
/// inside the world being moved (none escapes to another thread). Under
/// those invariants a cross-thread *move* is sound, which is exactly
/// what this wrapper's `unsafe impl Send` asserts.
pub struct ResidentWorld(World);

// SAFETY: see the type-level docs — `ResidentWorld` is not `Sync` and
// hands out the world only through `&mut self`, so a world is only ever
// reached by the one thread holding the exclusive borrow (the scoped
// worker it was lent to, joined before anyone else reads), and all
// interior shared pointers (`Rc`/`RefCell`) are confined to the wrapped
// world, so none is ever cloned or dropped on two threads at once.
#[allow(unsafe_code)]
unsafe impl Send for ResidentWorld {}

impl ResidentWorld {
    /// Wrap a world for cross-round residency.
    pub fn new(world: World) -> ResidentWorld {
        ResidentWorld(world)
    }

    /// Exclusive access to the wrapped world.
    pub fn get_mut(&mut self) -> &mut World {
        &mut self.0
    }
}

/// Per-home construction overrides for fleet worlds (E20).
///
/// A fleet shares one read-only [`Deployment`] template across 10⁴–10⁶
/// homes; the only per-home inputs are the home's seed and the region's
/// current crowdsourced intel epoch, borrowed from the region's interned
/// snapshot so construction clones signatures at most once per device,
/// never per home.
#[derive(Debug, Clone, Copy)]
pub struct HomeOverrides<'a> {
    /// Replaces the template's `seed` for this home's network RNG.
    pub seed: u64,
    /// Region intel installed on top of the template's own
    /// `subscribed_signatures` (treated identically: standing IDS for
    /// matching SKUs plus membership in each device's interned ruleset).
    pub extra_signatures: &'a [AttackSignature],
}

impl World {
    /// Build a world from a deployment description.
    pub fn new(deployment: &Deployment) -> World {
        World::new_traced(deployment, Tracer::disabled())
    }

    /// Build a world that emits structured trace events into `tracer`.
    ///
    /// The caller keeps its own clone of the handle (clones share one
    /// buffer) and serializes it after the run. With a disabled tracer
    /// this is exactly [`World::new`].
    pub fn new_traced(deployment: &Deployment, tracer: Tracer) -> World {
        World::build(deployment, tracer, None)
    }

    /// Build one home world of a fleet from a shared template (E20).
    ///
    /// The template deployment is read-only and shared across every home
    /// of the fleet; the overrides carry the only two things that vary
    /// per home — its seed and the region's current interned intel
    /// epoch. With `seed = deployment.seed` and no extra signatures this
    /// is exactly [`World::new`].
    pub fn new_home(template: &Deployment, home: &HomeOverrides<'_>) -> World {
        World::build(template, Tracer::disabled(), Some(home))
    }

    /// Whether a deployment template is eligible for resident-world
    /// execution (E26). Residency requires that a world's behavior be a
    /// pure function of `(template, seed, intel)` reachable by in-place
    /// reset: chaos schedules (and their cursors) and the safety monitor
    /// (its outage episodes, violation tallies and sticky quarantines)
    /// carry state the reset does not write, and the perimeter and
    /// hierarchical defenses install build-time structure the reset path
    /// does not replay, so those fall back to rebuild-per-round.
    pub fn supports_resident(template: &Deployment) -> bool {
        template.chaos.is_none()
            && template.safety.is_none()
            && match &template.defense {
                Defense::None => true,
                Defense::IoTSec(c) => !c.hierarchical,
                Defense::Perimeter => false,
            }
    }

    /// Build a resident home world (E26): a [`World::new_home`] build
    /// that also keeps what later rounds need to install intel deltas
    /// ([`World::apply_intel_delta`]) and rebind to a new `(seed)` in
    /// place ([`World::rebind_home`]) instead of rebuilding from scratch.
    pub fn new_home_resident(
        template: &Deployment,
        seed: u64,
        epoch: u32,
        intel: &Arc<[AttackSignature]>,
        _scrap: &mut WorldScrap,
    ) -> World {
        debug_assert!(World::supports_resident(template));
        let overrides = HomeOverrides { seed, extra_signatures: intel };
        let mut world = World::build(template, Tracer::disabled(), Some(&overrides));
        let (intel, template) = (Arc::clone(intel), template.clone());
        let trajectory = Trajectory::default();
        world.resident = Some(Box::new(ResidentBind { epoch, intel, template, trajectory }));
        world
    }

    /// The intel epoch installed on a resident world (`None` for
    /// ordinary worlds).
    pub fn resident_epoch(&self) -> Option<u32> {
        self.resident.as_ref().map(|b| b.epoch)
    }

    /// Install a new intel snapshot on a resident world without
    /// rebuilding it: the builder's own intel install, run against the
    /// new snapshot. Rulesets whose content changed are replaced and the
    /// controller policy is recompiled only when a device's standing-IDS
    /// membership flipped. Content-identical snapshots advance the
    /// epoch and touch nothing else.
    ///
    /// Must be called between runs (before [`World::rebind_home`]); the
    /// next rebind launches chains against the installed rulesets, so
    /// the world is byte-identical to a cold build at the new epoch.
    pub fn apply_intel_delta(
        &mut self,
        epoch: u32,
        intel: &Arc<[AttackSignature]>,
    ) -> DeltaInstall {
        let mut bind = self.resident.take().expect("apply_intel_delta needs a resident world");
        let noop = Arc::ptr_eq(&bind.intel, intel) || bind.intel[..] == intel[..];
        bind.epoch = epoch;
        bind.intel = Arc::clone(intel);
        let out = if noop {
            DeltaInstall { noop, ..DeltaInstall::default() }
        } else {
            let (out, policy) = self.install_intel(&bind.template, intel);
            if let (Some(policy), Some(ControlPlane::Flat(c))) = (policy, &mut self.control) {
                c.policy = policy;
            }
            out
        };
        self.resident = Some(bind);
        out
    }

    /// The part of a build that depends on intel, for the builder and
    /// for every later epoch: each device's ruleset, which devices a
    /// repository signature puts a standing IDS in front of, and — when
    /// there is no control plane yet to hold one, or that membership
    /// moved — the policy compiled from it, for the caller to install.
    /// Reports what differs from what the world held before.
    fn install_intel(
        &mut self,
        template: &Deployment,
        extra: &[AttackSignature],
    ) -> (DeltaInstall, Option<FsmPolicy>) {
        let subscribed = &template.subscribed_signatures;
        // Most devices have no signature; they share one empty ruleset.
        let empty: Rc<[AttackSignature]> = Rc::new([]);
        let rulesets: Vec<Rc<[AttackSignature]>> = template
            .devices
            .iter()
            .map(|d| {
                let ruleset =
                    build_signatures(self.cfg.as_ref(), &d.sku, &d.vulns, subscribed, extra);
                if ruleset.is_empty() {
                    Rc::clone(&empty)
                } else {
                    ruleset.into()
                }
            })
            .collect();
        let matched: Vec<bool> = template
            .devices
            .iter()
            .map(|d| subscribed.iter().chain(extra).any(|s| s.sku == d.sku))
            .collect();
        let kept = self.device_signatures.iter().zip(&rulesets).filter(|(a, b)| a == b).count();
        let compile =
            self.cfg.is_some() && (self.control.is_none() || matched != self.standing_ids);
        let out = DeltaInstall {
            noop: false,
            recompiled: compile,
            devices_patched: (self.device_signatures.len() - kept) as u32,
            devices_kept: kept as u32,
        };
        self.device_signatures = rulesets;
        self.standing_ids = matched;
        (out, compile.then(|| compile_home_policy(template, &self.standing_ids)))
    }

    /// Rebind a resident world to a new home `(seed)` in place: the same
    /// reset to t = 0 and initial reconciliation every build ends in,
    /// over buffers that keep their capacity — after which the world is
    /// observably identical to a cold [`World::new_home`] build at the
    /// currently installed intel epoch.
    pub fn rebind_home(&mut self, seed: u64) {
        assert!(self.resident.is_some(), "rebind_home needs a resident world");
        self.reset_home(seed);
        self.install_standing_mitigations();
    }

    /// Bring the world to t = 0 of the home `seed` names — the one writer
    /// of start-of-home state, for a first home and for every later one.
    /// Each component's own reset writes its fresh values; what is left
    /// here is what only the world knows: which tracer, hub, plug loads
    /// and out-of-band keys this deployment binds them to.
    fn reset_home(&mut self, seed: u64) {
        self.clock = SimTime::ZERO;
        self.env = Environment::new();
        self.net.reset_resident(seed);
        self.net.set_tracer(self.tracer.clone());
        self.home = HomeState::default();
        self.buf.clear();
        if self.cfg.is_some() {
            /// Pre-booted unikernel pool size.
            const POOL: u32 = 64;
            let mut lc = LifecycleManager::new(POOL);
            if let Some(delay) = self.watchdog_delay {
                lc.watchdog_delay = delay;
            }
            self.home.lifecycle = Some(lc);
            self.home.cluster = Some(cluster_for(self.site));
        }
        let hub_ip = Some(self.hub.ip);
        for (dev, load) in self.devices.iter_mut().zip(&self.plug_loads) {
            dev.reset_runtime();
            dev.hub = hub_ip;
            dev.owner = hub_ip;
            if let (Some(load), DeviceLogic::SmartPlug(plug)) = (load, &mut dev.logic) {
                plug.load = *load;
            }
        }
        self.hub.reset_runtime();
        if let Some((attacker, _)) = &mut self.attacker {
            attacker.reset_runtime();
            for key in &self.pre_stolen_keys {
                attacker.learn_key(*key);
            }
        }
        if let Some(ControlPlane::Flat(c)) = &mut self.control {
            c.reset_runtime(self.buf.gate_view.clone());
        }
    }

    /// The t = 0 reconciliation, run by the builder and replayed by every
    /// rebind: standing mitigations install before any traffic flows.
    fn install_standing_mitigations(&mut self) {
        if let Some(mut control) = self.control.take() {
            let directives = control.reconcile(SimTime::ZERO);
            self.control = Some(control);
            for d in directives {
                let (device, kind) = (d.device().0, directive_kind(&d));
                self.tracer.emit(0, TraceEvent::DirectiveIssued { device, kind });
                self.tracer.emit(0, TraceEvent::DirectiveDelivered { device, kind });
                self.execute_directive(d, SimTime::ZERO);
            }
        }
    }

    fn build(deployment: &Deployment, tracer: Tracer, home: Option<&HomeOverrides<'_>>) -> World {
        assert!(
            deployment.tick > SimDuration::ZERO,
            "Deployment.tick must be positive: a zero tick never advances the clock"
        );
        let seed = home.map_or(deployment.seed, |h| h.seed);
        let extra: &[AttackSignature] = home.map_or(&[], |h| h.extra_signatures);
        // --- topology -----------------------------------------------------
        let mut b = TopologyBuilder::new();
        let (core, edge_switches): (SwitchId, Vec<SwitchId>) = match deployment.site {
            Site::Home => {
                let sw = b.add_switch();
                (sw, vec![sw])
            }
            Site::Enterprise { edges } => {
                let core = b.add_switch();
                let edges = (0..edges.max(1))
                    .map(|_| {
                        let e = b.add_switch();
                        b.connect_switches(core, e, LinkParams::lan());
                        e
                    })
                    .collect();
                (core, edges)
            }
        };
        // Devices spread round-robin over the edge switches.
        let device_switch: Vec<SwitchId> =
            (0..deployment.devices.len()).map(|i| edge_switches[i % edge_switches.len()]).collect();
        let device_endpoints: Vec<EndpointId> =
            device_switch.iter().map(|sw| b.attach_endpoint(*sw, LinkParams::wifi())).collect();
        let hub_ep = b.attach_endpoint_with(core, LinkParams::lan(), Ipv4Addr::new(10, 0, 200, 1));
        let attacker_ep =
            (!deployment.campaign.is_empty()).then(|| match deployment.attacker_location {
                AttackerLocation::Wan => {
                    b.attach_endpoint_with(core, LinkParams::wan(), Ipv4Addr::new(100, 64, 0, 99))
                }
                AttackerLocation::Lan => b.attach_endpoint(edge_switches[0], LinkParams::wifi()),
            });
        let victim_ep = deployment.needs_victim().then(|| {
            b.attach_endpoint_with(core, LinkParams::wan(), Ipv4Addr::new(203, 0, 113, 50))
        });
        let net = Network::new(b.build(), seed);

        // --- devices ------------------------------------------------------
        let mut devices = Vec::with_capacity(deployment.devices.len());
        let mut entities = vec![None; net.topology().endpoint_count()];
        for (i, setup) in deployment.devices.iter().enumerate() {
            let ep = device_endpoints[i];
            devices.push(IoTDevice::new(
                DeviceId(i as u32),
                setup.sku.clone(),
                setup.class,
                net.ip_of(ep),
                setup.all_vulns(), // the device has every flaw it shipped with
            ));
            entities[ep.0 as usize] = Some(Entity::Device(i));
        }

        // --- hub ----------------------------------------------------------
        let mut hub = Hub::new(net.ip_of(hub_ep), AdminCreds::owner_default());
        for (i, dev) in devices.iter().enumerate() {
            hub.register(DeviceId(i as u32), dev.ip, dev.class);
        }
        for r in &deployment.recipes {
            hub.add_recipe(r.clone());
        }
        entities[hub_ep.0 as usize] = Some(Entity::Hub);

        // --- attacker -----------------------------------------------------
        let victim_ip = victim_ep.map(|ep| net.ip_of(ep));
        let attacker = attacker_ep.map(|ep| {
            entities[ep.0 as usize] = Some(Entity::Attacker);
            let plan = resolve_plan(&deployment.campaign, &devices, victim_ip);
            (Attacker::new(net.ip_of(ep), plan), ep)
        });
        if let Some(ep) = victim_ep {
            entities[ep.0 as usize] = Some(Entity::Victim);
        }

        let cfg = match &deployment.defense {
            Defense::IoTSec(config) => Some(*config),
            _ => None,
        };
        let buf = HomeBuffers::default();
        let chain_config = ChainConfig {
            device: DeviceId(0),
            required_creds: AdminCreds::new("", ""),
            cleared_sources: vec![hub.ip],
            signatures: Rc::from([]),
            view: buf.gate_view.clone(),
            events: buf.event_sink.clone(),
            failure_mode: deployment.chaos.as_ref().map(|c| c.failure_mode).unwrap_or_default(),
            tracer: tracer.clone(),
        };
        let mut world = World {
            clock: SimTime::ZERO,
            tick: deployment.tick,
            net,
            env: Environment::new(),
            physics_watchers: (0..devices.len())
                .filter(|&i| devices[i].class.senses_physics())
                .collect(),
            devices,
            device_endpoints,
            entities,
            hub,
            hub_ep,
            attacker,
            control: None,
            cfg,
            site: deployment.site,
            watchdog_delay: deployment.chaos.as_ref().map(|c| c.watchdog_delay),
            plug_loads: deployment.devices.iter().map(|s| s.load).collect(),
            pre_stolen_keys: deployment.pre_stolen_keys.clone(),
            device_signatures: Vec::new(),
            standing_ids: Vec::new(),
            core_switch: core,
            device_switch,
            chain_config,
            home: HomeState::default(),
            buf,
            chaos_enabled: deployment.chaos.is_some(),
            faults: FaultScheduler::new(),
            crash_plan: Vec::new(),
            crash_idx: 0,
            outage_plan: Vec::new(),
            outage_idx: 0,
            delivery: None,
            tracer,
            safety: None,
            breakers: None,
            resident: None,
        };
        if let Some(chaos) = &deployment.chaos {
            world.install_chaos(chaos);
        }
        if let Some(scfg) = &deployment.safety {
            world.safety = Some(SafetyMonitor::new(*scfg));
            world.breakers = scfg.breaker.enabled.then(|| BreakerBank::new(scfg.breaker));
        }
        let (_, policy) = world.install_intel(deployment, extra);
        world.reset_home(seed);

        // --- defense ------------------------------------------------------
        // Wired onto the home `reset_home` just started, because it lives
        // in that home's state: perimeter rules in the switches' tables,
        // the control plane bound to the home's gate view.
        match &deployment.defense {
            Defense::None => {}
            Defense::Perimeter => {
                if let (Some((_, atk_ep)), AttackerLocation::Wan) =
                    (&world.attacker, deployment.attacker_location)
                {
                    let wan_port = world.net.topology().endpoint(*atk_ep).port;
                    // Pinholes first (higher priority), then default-deny
                    // for WAN-originated traffic.
                    for dev in &world.devices {
                        for port in upnp_pinholes(&dev.vulns) {
                            let matcher = if matches!(
                                port,
                                iotdev::proto::ports::MGMT | iotdev::proto::ports::CLOUD
                            ) {
                                FlowMatch::to_tcp_service(dev.ip, port)
                            } else {
                                FlowMatch::to_udp_service(dev.ip, port)
                            }
                            .with_in_port(wan_port);
                            world.net.install_rule(
                                core,
                                FlowRule::new(200, matcher, FlowAction::Normal)
                                    .with_cookie(u64::MAX),
                            );
                        }
                    }
                    world.net.install_rule(
                        core,
                        FlowRule::new(
                            150,
                            FlowMatch::any().with_in_port(wan_port),
                            FlowAction::Drop,
                        )
                        .with_cookie(u64::MAX),
                    );
                }
            }
            Defense::IoTSec(config) => {
                let policy = policy.expect("a defended home with no control plane compiles one");
                let ctl_config = ControllerConfig { view_propagation: config.view_propagation };
                let gate_view = world.buf.gate_view.clone();
                let standby = deployment.chaos.as_ref().is_some_and(|c| c.standby_controller);
                world.control = Some(if config.hierarchical {
                    ControlPlane::Hier(Box::new(HierarchicalController::new(
                        policy,
                        Partitioning::ByCoupling,
                        ctl_config,
                        gate_view,
                    )))
                } else if standby {
                    ControlPlane::Replicated(Box::new(ReplicatedController::new(
                        policy, ctl_config, gate_view,
                    )))
                } else {
                    ControlPlane::Flat(Box::new(Controller::new(policy, ctl_config, gate_view)))
                });
            }
        }

        world.install_standing_mitigations();
        world
    }

    /// Access a device.
    pub fn device(&self, id: DeviceId) -> &IoTDevice {
        &self.devices[id.0 as usize]
    }

    /// Whether the campaign has finished.
    pub fn attack_done(&self) -> bool {
        self.attacker.as_ref().is_none_or(|(a, _)| a.done())
    }

    /// Bytes of (amplified) traffic delivered to the victim host.
    pub fn victim_bytes(&self) -> u64 {
        self.home.victim_bytes
    }

    /// The controller's data-plane view (what gates read).
    pub fn gate_view(&self) -> &ViewHandle {
        &self.buf.gate_view
    }

    /// The core/gateway switch (where the WAN, hub and NFV cluster
    /// attach).
    pub fn core_switch(&self) -> SwitchId {
        self.core_switch
    }

    /// The first-hop switch of a device.
    pub fn switch_of(&self, id: DeviceId) -> SwitchId {
        self.device_switch[id.0 as usize]
    }

    /// Materialize a chaos schedule: explicit faults verbatim, counted
    /// faults placed by a dedicated RNG seeded from `chaos.seed` alone
    /// (never the traffic RNG — placement must not perturb traffic).
    fn install_chaos(&mut self, chaos: &ChaosConfig) {
        /// How long a seeded loss burst lasts.
        const BURST_LEN: SimDuration = SimDuration::from_secs(1);
        let uplink = |d: DeviceId| {
            (
                NodeId::Endpoint(self.device_endpoints[d.0 as usize]),
                NodeId::Switch(self.device_switch[d.0 as usize]),
            )
        };
        let mut faults = FaultScheduler::new();
        for (device, down_at, heal_at) in &chaos.flap_uplink {
            let (a, b) = uplink(*device);
            faults.flap_wire(a, b, *down_at, *heal_at);
        }
        let mut crash_plan = chaos.crash_at.clone();
        let mut outage_plan = chaos.outage_at.clone();

        let mut rng = StdRng::seed_from_u64(chaos.seed);
        let n = self.devices.len();
        let pick_device =
            |rng: &mut StdRng| DeviceId(((rng.gen::<f64>() * n as f64) as usize).min(n - 1) as u32);
        let pick_time = |rng: &mut StdRng| {
            SimTime::ZERO
                + SimDuration::from_secs_f64(chaos.horizon.as_secs_f64() * rng.gen::<f64>())
        };
        if n > 0 {
            for _ in 0..chaos.link_flaps {
                let (a, b) = uplink(pick_device(&mut rng));
                let at = pick_time(&mut rng);
                faults.flap_wire(a, b, at, at + chaos.flap_downtime);
            }
            for _ in 0..chaos.loss_bursts {
                let (a, b) = uplink(pick_device(&mut rng));
                let at = pick_time(&mut rng);
                faults.loss_burst(a, b, at, at + BURST_LEN, chaos.burst_loss);
            }
            for _ in 0..chaos.umbox_crashes {
                let device = pick_device(&mut rng);
                crash_plan.push((pick_time(&mut rng), device));
            }
        }
        for _ in 0..chaos.controller_outages {
            outage_plan.push((pick_time(&mut rng), chaos.outage_len));
        }
        crash_plan.sort();
        outage_plan.sort();
        self.faults = faults;
        self.crash_plan = crash_plan;
        self.outage_plan = outage_plan;
        self.delivery = Some(DeliveryChannel::new(chaos.delivery));
    }

    /// Apply every fault whose time has come: network faults to the
    /// topology, crashes to the lifecycle, outages to the control plane.
    fn apply_chaos(&mut self, now: SimTime) {
        if !self.chaos_enabled {
            return;
        }
        self.faults.apply_due(&self.tracer, now, self.net.topology_mut());
        while self.crash_idx < self.crash_plan.len() && self.crash_plan[self.crash_idx].0 <= now {
            let (_, device) = self.crash_plan[self.crash_idx];
            self.crash_idx += 1;
            if let Some(slot) = self.buf.chains.get(&device) {
                if let Some(lc) = &mut self.home.lifecycle {
                    lc.crash(slot.instance, now);
                    self.tracer.emit(now.as_nanos(), TraceEvent::UmboxCrash { device: device.0 });
                    // Feed the circuit breaker: a trip holds the
                    // watchdog respawn until the cooldown elapses, so
                    // the chain rides its FailureMode fallback instead
                    // of a crash/respawn/crash loop.
                    if let Some(bank) = &mut self.breakers {
                        if bank.on_crash(device, now) == Some(BreakerEvent::Tripped) {
                            self.tracer
                                .emit(now.as_nanos(), TraceEvent::BreakerTrip { device: device.0 });
                            if let Some(monitor) = &mut self.safety {
                                monitor.on_breaker_trip(device);
                            }
                            if let Some(until) = bank.open_until(device) {
                                lc.hold_respawn(slot.instance, until);
                            }
                        }
                    }
                }
            }
        }
        while self.outage_idx < self.outage_plan.len() && self.outage_plan[self.outage_idx].0 <= now
        {
            let (from, duration) = self.outage_plan[self.outage_idx];
            self.outage_idx += 1;
            if let Some(control) = &mut self.control {
                control.inject_outage(from, duration);
                self.tracer.emit(
                    now.as_nanos(),
                    TraceEvent::CtlOutage { duration_ns: duration.as_nanos() },
                );
            }
        }
    }

    /// Per-tick availability accounting (chaos runs only): push lifecycle
    /// serving state into each chain's `down` flag and accrue
    /// unprotected time for down chains and for devices whose events the
    /// control plane could not react to.
    fn account_degradation(&mut self, now: SimTime) {
        if let Some(lc) = &self.home.lifecycle {
            for (device, slot) in &self.buf.chains {
                let serving = lc.get(slot.instance).is_some_and(|i| i.is_serving(now));
                let chain = self
                    .net
                    .processor_mut::<UmboxChain>(slot.steer)
                    .expect("a live slot's chain is registered");
                chain.down = !serving;
                if !serving {
                    *self.home.unprotected.entry(*device).or_insert(SimDuration::ZERO) += self.tick;
                    if chain.failure_mode == FailureMode::FailOpen {
                        self.home.fail_open_exposure += self.tick;
                    }
                }
            }
        }
        for device in &self.home.blocked_reaction {
            *self.home.unprotected.entry(*device).or_insert(SimDuration::ZERO) += self.tick;
        }
    }

    /// Advance one tick, executing every phase of it. [`World::run`]
    /// runs the same body, skipping only what it can show does nothing;
    /// called directly this is the reference the run loop is tested
    /// against.
    pub fn step(&mut self) {
        self.execute(true);
    }

    /// One tick. A full tick runs every phase; a device-coasted one
    /// (`!full`, chosen by `advance` only when every device is steady,
    /// none is due and none has been reached by a delivery since the last
    /// full device pass) runs only the phases that would do something:
    /// the device pass is a frame count, the environment report runs on
    /// a discretization the hub and the control plane do not hold yet,
    /// and the attacker, control plane and lifecycle run once their
    /// `next_due` has come.
    fn execute(&mut self, full: bool) {
        self.clock += self.tick;
        self.home.ticks_executed += 1;
        let now = self.clock;
        let due = move |at: Option<SimTime>| full || at.is_some_and(|at| at <= now);

        // 0. Chaos: apply due network faults, crashes and outages.
        self.apply_chaos(now);

        // 1. Activate µmboxes that finished booting / reconfiguring.
        self.activate_pending(now);

        // 2. Device FSM ticks + physics. On a device-coasted tick the pass
        // would change nothing but camera frames and re-sum the
        // accumulators to what they hold.
        if full {
            self.home.touched = false;
            self.env.begin_tick();
            let mut out = std::mem::take(&mut self.buf.device_out);
            for i in 0..self.devices.len() {
                self.devices[i].tick_into(now, &mut self.env, &mut out);
                self.dispatch(self.device_endpoints[i], now, &mut out);
            }
            self.buf.device_out = out;
        } else {
            for dev in &mut self.devices {
                dev.coast(1);
            }
        }
        self.step_physics();
        self.home.steps += 1;
        if (self.env.window_open || !self.env.door_locked) && !self.env.occupied {
            self.home.breach_at.get_or_insert(now);
        }

        // 3. Hub: env-edge recipes + environment reporting. Handing the
        // hub or the control plane the discretization it holds changes
        // nothing.
        let denv = self.env.discretize();
        if full || self.home.reported != Some(denv) {
            self.home.reported = Some(denv);
            for m in self.hub.on_env(denv) {
                self.send_message(self.hub_ep, now, &m, None);
            }
            if let Some(control) = &mut self.control {
                control.ingest_env(now, &EnvVar::ALL.map(|var| (var, denv.get(var))));
            }
        }

        // 4. Attacker, into a buffer lent out and returned like the ones
        // below.
        if let Some((attacker, ep)) = self.attacker.as_mut().filter(|(a, _)| due(a.next_due())) {
            let (mut emits, ep) = (std::mem::take(&mut self.buf.attacker_out), *ep);
            attacker.poll_into(now, &mut emits);
            for AttackerEmit { out, spoof_src } in emits.drain(..) {
                self.send_message(ep, now, &out, spoof_src);
            }
            self.buf.attacker_out = emits;
        }

        // 5. Drain the packet plane (replies can cascade within a tick).
        // The delivery buffer is taken out of the world for the duration
        // of each round (`route_delivery` needs `&mut self`) and put back
        // with its capacity intact, so steady-state ticks never allocate.
        let mut deliveries = std::mem::take(&mut self.buf.delivery_scratch);
        loop {
            deliveries.clear();
            self.net.step_until_into(now, &mut deliveries);
            if deliveries.is_empty() {
                break;
            }
            for d in deliveries.drain(..) {
                self.route_delivery(d);
            }
        }
        self.buf.delivery_scratch = deliveries;

        // 6. Control plane: collect events, step, execute directives.
        // The event buffer leaves the world for the ingest loop only and
        // goes back with its capacity, like the delivery buffer above.
        let mut events = std::mem::take(&mut self.buf.pending_events);
        self.buf.event_sink.drain_into(&mut events);
        let mut directives = Vec::new();
        let mut reachable = true;
        let has_events = !events.is_empty();
        if let Some(control) = self.control.as_mut().filter(|c| has_events || due(c.next_due())) {
            let down = control.is_down(now);
            for e in events.drain(..) {
                if down {
                    // Nobody is home to react — the event's device stays
                    // exposed until the control plane returns.
                    self.home.blocked_reaction.insert(e.device);
                }
                control.ingest(e);
            }
            if !down {
                self.home.blocked_reaction.clear();
            }
            let served = control.events_processed();
            directives = control.step(now);
            if control.events_processed() != served
                && self.home.reported.is_some_and(|env| !control.holds_env(&env))
            {
                self.home.reported = None;
            }
            reachable = !control.is_down(now);
            for d in &directives {
                let (device, kind) = (d.device().0, directive_kind(d));
                self.tracer.emit(now.as_nanos(), TraceEvent::DirectiveIssued { device, kind });
            }
            let failovers = control.failovers();
            if failovers > self.home.last_failovers {
                self.home.last_failovers = failovers;
                self.tracer.emit(now.as_nanos(), TraceEvent::Failover { count: failovers });
                if let Some(monitor) = &mut self.safety {
                    monitor.on_failover(now);
                }
            }
        }
        events.clear();
        self.buf.pending_events = events;
        if self.control.is_some() {
            // Chaos runs route directives through the hardened delivery
            // channel (idempotent IDs, bounded queue, retry/backoff);
            // legacy runs keep the direct path bit-for-bit.
            if let Some(channel) = &mut self.delivery {
                for d in directives.drain(..) {
                    // Admission control (safety layer): when the
                    // backlog exceeds its budget, whole-class
                    // recomputes below `Revoke` wait — the queue's
                    // remaining capacity is kept for directives that
                    // tighten postures.
                    if let Some(monitor) = &self.safety {
                        if !safety::admit(monitor.config(), channel.depth(), d.criticality()) {
                            self.home.admission_shed += 1;
                            self.tracer.emit(
                                now.as_nanos(),
                                TraceEvent::AdmissionShed { device: d.device().0 },
                            );
                            continue;
                        }
                    }
                    channel.submit(&self.tracer, now, d);
                }
                directives = channel.pump(&self.tracer, now, reachable);
            }
            for d in directives {
                let (device, kind) = (d.device().0, directive_kind(&d));
                self.tracer.emit(now.as_nanos(), TraceEvent::DirectiveDelivered { device, kind });
                self.execute_directive(d, now);
            }
        }
        if let Some(lc) = self.home.lifecycle.as_mut().filter(|lc| due(lc.next_due())) {
            for (device, _restart_at) in lc.advance(now) {
                self.tracer.emit(now.as_nanos(), TraceEvent::UmboxRespawn { device: device.0 });
            }
        }

        // Circuit-breaker state machine: open breakers half-open once
        // the cooldown elapses (the respawned instance gets a trial),
        // and re-close after a clean trial window.
        if let (Some(bank), Some(lc)) = (&mut self.breakers, &self.home.lifecycle) {
            for device in (0..self.devices.len() as u32).map(DeviceId) {
                let Some(slot) = self.buf.chains.get(&device) else { continue };
                let serving = lc.get(slot.instance).is_some_and(|i| i.is_serving(now));
                match bank.tick(device, now, serving) {
                    Some(BreakerEvent::HalfOpened) => self
                        .tracer
                        .emit(now.as_nanos(), TraceEvent::BreakerHalfOpen { device: device.0 }),
                    Some(BreakerEvent::Reclosed) => self
                        .tracer
                        .emit(now.as_nanos(), TraceEvent::BreakerClose { device: device.0 }),
                    _ => {}
                }
            }
        }

        // 7. Chaos: degradation accounting for this tick.
        if self.chaos_enabled {
            self.account_degradation(now);
        }

        // 8. Safety monitor: evaluate every invariant against this
        //    tick's trace events and data-plane facts; realize any
        //    escalations as quarantine flow rules at the edge.
        if self.safety.is_some() {
            self.safety_tick(now);
        }
    }

    /// Gather per-device facts, run the safety monitor, and install the
    /// quarantine posture for any device it escalates.
    fn safety_tick(&mut self, now: SimTime) {
        let mut facts = std::mem::take(&mut self.buf.facts_scratch);
        facts.clear();
        facts.extend((0..self.devices.len()).map(|i| {
            let device = DeviceId(i as u32);
            let (protected, chain_down, fail_open, passed) = match self.buf.chains.get(&device) {
                Some(slot) => {
                    let chain = slot.chain(&self.net);
                    (
                        true,
                        chain.down,
                        chain.failure_mode == FailureMode::FailOpen,
                        chain.fail_open_passed,
                    )
                }
                None => (false, false, false, 0),
            };
            DeviceFacts {
                device,
                class: self.devices[i].class,
                protected,
                chain_down,
                fail_open,
                fail_open_passed: passed,
            }
        }));
        let ctl_down = self.control.as_ref().is_some_and(|c| c.is_down(now));
        let fingerprint = self.control.as_ref().map_or(0, |c| c.installed_fingerprint());
        let monitor = self.safety.as_mut().expect("caller checked");
        let newly = monitor.tick(&self.tracer, now, ctl_down, fingerprint, &facts);
        self.buf.facts_scratch = facts;
        for device in newly {
            self.install_quarantine(device);
        }
    }

    /// Install the IDIoT-style quarantine posture for `device`: its
    /// class's minimal allow-list as flow rules at the edge switch,
    /// outranking the steer rule — non-essential traffic dies at the
    /// switch instead of traversing a broken chain.
    fn install_quarantine(&mut self, device: DeviceId) {
        let dev = &self.devices[device.0 as usize];
        let allow: Vec<(bool, u16)> = iotpolicy::posture::quarantine_allowlist(dev.class)
            .iter()
            .map(|s| (s.tcp, s.port))
            .collect();
        let port = self.net.topology().endpoint(self.device_endpoints[device.0 as usize]).port;
        let rules = iotnet::flow::quarantine_rules(
            dev.ip,
            port,
            &allow,
            QUARANTINE_PRIORITY,
            quarantine_cookie(device),
        );
        let sw = self.device_switch[device.0 as usize];
        for rule in rules {
            self.net.install_rule(sw, rule);
        }
    }

    /// Run for a duration.
    pub fn run(&mut self, duration: SimDuration) {
        self.advance(self.clock + duration, false);
    }

    /// Run until the campaign completes (or `limit` elapses).
    pub fn run_until_attack_done(&mut self, limit: SimDuration) {
        self.advance(self.clock + limit, true);
        // A little settling time for physics and the control plane.
        self.run(SimDuration::from_secs(2));
    }

    /// Ticks simulated so far: grid points the clock has passed.
    pub fn ticks_simulated(&self) -> u64 {
        self.clock.as_nanos() / self.tick.as_nanos()
    }

    /// Ticks executed so far — at most [`World::ticks_simulated`], and
    /// fewer wherever [`World::run`] found stretches in which nothing
    /// was due.
    pub fn ticks_executed(&self) -> u64 {
        self.home.ticks_executed
    }

    /// The run loop: bring the clock to the last grid point at or before
    /// `end` — or, with `until_attack_done`, to the first one at which
    /// the campaign is over — executing the ticks in which something is
    /// due, coasting through the rest, and running a device pass only on
    /// the executed ticks in which a device has work.
    ///
    /// What a tick derives — the `bulbs_on` / `power_w` accumulators in
    /// the device pass, the discretization the hub and the control plane
    /// hold in the report — is derived before the packet plane drains.
    /// It stays current after an executed tick in which no delivery
    /// reached a device (only a delivery changes a device between device
    /// passes) and after which the control plane's view still holds the
    /// last report (only a served event can move it). After such a tick
    /// the loop may coast, and the next executed tick may coast its
    /// devices if every one is steady and none is due. The first tick of
    /// every call is executed in full: `env`, `net` and `clock` are
    /// `pub`, and callers change them between calls.
    ///
    /// A resident world's trajectory is sized here, for every tick up to
    /// `end`, so that no tick grows it.
    fn advance(&mut self, end: SimTime, until_attack_done: bool) {
        let polled = self.polls_every_tick();
        if let Some(bind) = &mut self.resident {
            let ticks = (end - self.clock).as_nanos() / self.tick.as_nanos();
            bind.trajectory.reserve(self.home.steps.saturating_add(ticks));
        }
        // A tick may be coasted only strictly before `stop`: up to `end`
        // and strictly before the earliest `next_due`.
        let past_end = end + SimDuration::from_nanos(1);
        let mut settled = false;
        while !(until_attack_done && self.attack_done()) {
            if settled {
                self.coast(self.next_due().map_or(past_end, |due| due.min(past_end)));
            }
            let now = self.clock + self.tick;
            if now > end {
                return;
            }
            let idle =
                |d: &IoTDevice| d.next_due().is_none_or(|due| due > now) && d.steady(&self.env);
            let full = !settled || !self.devices.iter().all(idle);
            self.execute(full);
            settled = !polled && !self.home.touched && self.home.reported.is_some();
        }
    }

    /// Whether this world's layers accrue *per tick* by definition, so
    /// that every tick must be executed: a chaos schedule
    /// (`account_degradation` adds one tick of unprotected time per down
    /// chain per tick, the `DeliveryChannel` pumps its retry timers, the
    /// `Replicated` plane logs every environment report) or a safety
    /// layer (the monitor evaluates its invariants and the breakers run
    /// their cooldowns against every tick's facts). Decided from what the
    /// deployment installed, as [`World::supports_resident`] is.
    fn polls_every_tick(&self) -> bool {
        self.chaos_enabled || self.safety.is_some()
    }

    /// The earliest instant from which some time-driven component does
    /// anything: each fires on the first tick at or after its instant.
    /// Physics and the classes that read it have no instant — `coast`
    /// watches them tick by tick.
    fn next_due(&self) -> Option<SimTime> {
        let devices = self.devices.iter().filter_map(IoTDevice::next_due);
        let steers = self.buf.pending_steers.iter().map(|p| p.0);
        let swaps = self.buf.pending_swaps.iter().map(|p| p.0);
        devices
            .chain(steers)
            .chain(swaps)
            .chain(self.attacker.as_ref().and_then(|(a, _)| a.next_due()))
            .chain(self.net.next_due())
            .chain(self.control.as_ref().and_then(ControlPlane::next_due))
            .chain(self.home.lifecycle.as_ref().and_then(LifecycleManager::next_due))
            .min()
    }

    /// Simulate the ticks strictly before `stop` in which nothing is due
    /// without executing them: what [`World::step`] would have done in
    /// each is one Euler step of the physics (replayed, not solved — the
    /// `f64` bits reach thermostat, light and smoke telemetry) and one
    /// frame per streaming camera. Stops *before* the first tick that
    /// would not have been a no-op after all: one in which a device is not
    /// [`IoTDevice::steady`], or after whose physics step the hub and the
    /// controller would be told a different discretization than the one
    /// they hold ([`Environment::bands`] is all of it that physics moves).
    fn coast(&mut self, stop: SimTime) {
        let tick = self.tick;
        if self.clock + tick >= stop || !self.devices.iter().all(|d| d.steady(&self.env)) {
            return;
        }
        let reported = self.env.bands();
        let first = self.home.steps;
        // Nothing acts on a device during the stretch, so only physics
        // can unsettle one, and only one that senses it. With no such
        // device, a stretch this machine has stepped before is walked
        // along its trajectory: each entry's bands, and nothing else.
        let walk = self.resident.as_deref().filter(|_| self.physics_watchers.is_empty());
        if let Some(bind) = walk {
            let mut last = None;
            for step in bind.trajectory.replay(self.home.steps, &self.env) {
                if self.clock + tick >= stop || step.bands != reported {
                    break;
                }
                self.clock += tick;
                self.home.steps += 1;
                last = Some(step);
            }
            if let Some(step) = last {
                self.env.clone_from(&step.post);
            }
        }
        while self.clock + tick < stop
            && self.physics_watchers.iter().all(|&i| self.devices[i].steady(&self.env))
        {
            let before = self.env.clone();
            self.step_physics();
            if self.env.bands() != reported {
                self.env = before;
                break;
            }
            self.clock += tick;
            self.home.steps += 1;
        }
        for dev in &mut self.devices {
            dev.coast(self.home.steps - first);
        }
    }

    /// One Euler step of the room, the home's `home.steps`-th. A resident
    /// world takes it through its trajectory, which serves a step it has
    /// recorded from these bits and records the others.
    fn step_physics(&mut self) {
        let dt = self.tick.as_secs_f64();
        match &mut self.resident {
            Some(bind) => bind.trajectory.step(self.home.steps, &mut self.env, dt),
            None => self.env.step(dt),
        }
    }

    fn activate_pending(&mut self, now: SimTime) {
        /// Extra detour latency for steering through the µmbox substrate
        /// (≈ 2× the cluster link for an enterprise; ~0 on an IoT router).
        const STEER_DETOUR: SimDuration = SimDuration::from_micros(200);
        let mut i = 0;
        while i < self.buf.pending_steers.len() {
            if self.buf.pending_steers[i].0 <= now {
                let (_, device, chain, instance) = self.buf.pending_steers.remove(i);
                self.home.steers += 1;
                let steer = SteerId(self.home.steers);
                let detour = self.cfg.map_or(SimDuration::ZERO, |_| STEER_DETOUR);
                self.net.register_steer(steer, Box::new(chain), detour);
                let ip = self.devices[device.0 as usize].ip;
                let sw = self.device_switch[device.0 as usize];
                self.net.install_rule(
                    sw,
                    FlowRule::new(300, FlowMatch::to_host(ip), FlowAction::Steer(steer))
                        .with_cookie(cookie(device)),
                );
                self.buf.chains.insert(device, UmboxSlot { steer, instance });
                self.tracer.emit(now.as_nanos(), TraceEvent::UmboxReady { device: device.0 });
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.buf.pending_swaps.len() {
            if self.buf.pending_swaps[i].0 <= now {
                let (_, steer, mut new_chain) = self.buf.pending_swaps.remove(i);
                if let Some(old) = self.net.processor_mut::<UmboxChain>(steer) {
                    // An in-place reconfiguration keeps the instance's
                    // counters (it is the same µmbox, new rules).
                    new_chain.dropped = old.dropped;
                    new_chain.intercepted = old.intercepted;
                    new_chain.down = old.down;
                    new_chain.fail_open_passed = old.fail_open_passed;
                    new_chain.fail_closed_dropped = old.fail_closed_dropped;
                    let device = new_chain.device.0;
                    *old = new_chain;
                    self.tracer.emit(now.as_nanos(), TraceEvent::UmboxSwap { device });
                }
            } else {
                i += 1;
            }
        }
    }

    /// The interned signature ruleset for `device` — an `Rc` refcount
    /// bump, never a clone of the rules (`tests/alloc_counter.rs` pins
    /// this down with a counting allocator).
    pub fn signatures_for(&self, device: DeviceId) -> Rc<[AttackSignature]> {
        Rc::clone(&self.device_signatures[device.0 as usize])
    }

    /// The chain configuration for `device`, written over the last one.
    fn chain_config(&mut self, device: DeviceId) -> &ChainConfig {
        let config = &mut self.chain_config;
        config.device = device;
        config.required_creds.clone_from(&self.devices[device.0 as usize].creds);
        config.signatures = Rc::clone(&self.device_signatures[device.0 as usize]);
        config
    }

    fn execute_directive(&mut self, directive: Directive, now: SimTime) {
        self.tracer.emit(
            now.as_nanos(),
            TraceEvent::DirectiveInstalled {
                device: directive.device().0,
                kind: directive_kind(&directive),
            },
        );
        match directive {
            Directive::Launch { device, posture } => self.launch_umbox(device, &posture, now),
            Directive::Reconfigure { device, posture } => match self.buf.chains.get(&device) {
                Some(&UmboxSlot { steer, instance }) => {
                    let new_chain = build_chain(&posture, self.chain_config(device));
                    let done_at =
                        self.home.lifecycle.as_mut().map(|lc| lc.reconfigure(instance, now));
                    self.buf.pending_swaps.push((done_at.unwrap_or(now), steer, new_chain));
                }
                // Reconfigure for a chain still booting: queue a launch
                // with the final posture instead.
                None => self.launch_umbox(device, &posture, now),
            },
            Directive::Retire { device } => {
                if let Some(slot) = self.buf.chains.remove(&device) {
                    self.tracer.emit(now.as_nanos(), TraceEvent::UmboxRetire { device: device.0 });
                    let chain = slot.chain(&self.net);
                    self.home.retired_drops += chain.dropped;
                    self.home.retired_intercepts += chain.intercepted;
                    self.home.retired_fail_open += chain.fail_open_passed;
                    self.home.retired_fail_closed += chain.fail_closed_dropped;
                    self.net.remove_rules_by_cookie(cookie(device));
                    self.net.unregister_steer(slot.steer);
                    if let Some(lc) = &mut self.home.lifecycle {
                        lc.retire(slot.instance);
                    }
                    if let Some(cl) = &mut self.home.cluster {
                        cl.release(device);
                    }
                }
            }
        }
    }

    fn launch_umbox(&mut self, device: DeviceId, posture: &Posture, now: SimTime) {
        // Replace any existing chain outright (covers repeated launches).
        if self.buf.chains.contains_key(&device) {
            self.execute_directive(Directive::Retire { device }, now);
        }
        let Some(cfg) = self.cfg else { return };
        if let Some(cl) = &mut self.home.cluster {
            if cl.place(device, cfg.vm_kind).is_err() {
                return; // capacity exhausted: the device stays unprotected
            }
        }
        let Some(lc) = &mut self.home.lifecycle else { return };
        let (instance, ready_at) = lc.launch(device, cfg.vm_kind, now);
        self.tracer.emit(
            now.as_nanos(),
            TraceEvent::UmboxLaunch { device: device.0, ready_ns: ready_at.as_nanos() },
        );
        let chain = build_chain(posture, self.chain_config(device));
        self.buf.pending_steers.push((ready_at, device, chain, instance));
    }

    fn route_delivery(&mut self, d: iotnet::net::Delivery) {
        let Some(entity) = self.entities[d.endpoint.0 as usize] else { return };
        let Ok(msg) = AppMessage::decode(&d.packet.payload) else { return };
        match entity {
            Entity::Device(i) => {
                self.home.touched = true;
                let mut out = self.devices[i].handle_message(
                    d.at,
                    d.packet.ip.src,
                    d.packet.transport.src_port(),
                    d.packet.transport.dst_port(),
                    msg,
                    &mut self.env,
                );
                self.dispatch(self.device_endpoints[i], d.at, &mut out);
            }
            Entity::Hub => {
                if let AppMessage::Event { kind } = msg {
                    for m in self.hub.on_event(d.packet.ip.src, kind) {
                        self.send_message(self.hub_ep, d.at, &m, None);
                    }
                }
            }
            Entity::Attacker => {
                if let Some((attacker, _)) = &mut self.attacker {
                    attacker.on_delivery(d.at, d.packet.ip.src, &msg);
                }
            }
            Entity::Victim => {
                self.home.victim_bytes += d.packet.wire_len() as u64;
            }
        }
    }

    /// Send what a device produced and queue what it reported, leaving
    /// `out` empty with its capacity.
    fn dispatch(&mut self, from: EndpointId, at: SimTime, out: &mut DeviceOutput) {
        for m in out.messages.drain(..) {
            self.send_message(from, at, &m, None);
        }
        self.buf.pending_events.append(&mut out.events);
    }

    fn send_message(
        &mut self,
        from: EndpointId,
        at: SimTime,
        m: &OutMessage,
        spoof: Option<Ipv4Addr>,
    ) {
        let Some(dst_ep) = self.net.endpoint_by_ip(m.dst) else { return };
        let transport = if m.msg.is_tcp_plane() {
            TransportHeader::tcp(m.src_port, m.dst_port, 0, TcpFlags::ACK)
        } else {
            TransportHeader::udp(m.src_port, m.dst_port)
        };
        let pkt = Packet::new(
            self.net.mac_of(from),
            self.net.mac_of(dst_ep),
            spoof.unwrap_or_else(|| self.net.ip_of(from)),
            m.dst,
            transport,
            m.msg.encode(),
        );
        self.net.send(from, at, pkt);
    }

    /// Assemble the run's metrics.
    pub fn report(&self) -> Metrics {
        let mut metrics = Metrics {
            physical_breach: self.home.breach_at.is_some(),
            breach_at: self.home.breach_at,
            ddos_bytes_at_victim: self.home.victim_bytes,
            policy_drops: self.net.stats.dropped_policy,
            ..Metrics::default()
        };
        for dev in &self.devices {
            if dev.compromised {
                metrics.compromised.insert(dev.id);
            }
            if dev.privacy_leaked {
                metrics.privacy_leaked.insert(dev.id);
            }
        }
        if let Some((attacker, _)) = &self.attacker {
            metrics.attack_outcomes = attacker.outcomes().to_vec();
            metrics.ddos_queries = attacker.dns_queries_sent;
        }
        metrics.umbox_drops += self.home.retired_drops;
        metrics.umbox_intercepts += self.home.retired_intercepts;
        metrics.missed_blocks += self.home.retired_fail_open;
        metrics.fail_closed_drops += self.home.retired_fail_closed;
        for slot in self.buf.chains.values() {
            let chain = slot.chain(&self.net);
            metrics.umbox_drops += chain.dropped;
            metrics.umbox_intercepts += chain.intercepted;
            metrics.missed_blocks += chain.fail_open_passed;
            metrics.fail_closed_drops += chain.fail_closed_dropped;
        }
        if let Some(control) = &self.control {
            metrics.controller_events = control.events_processed();
            metrics.controller_failovers = control.failovers();
        }
        metrics.unprotected = self.home.unprotected.clone();
        metrics.fail_open_exposure = self.home.fail_open_exposure;
        metrics.faults_injected = self.faults.applied;
        if let Some(lc) = &self.home.lifecycle {
            metrics.umbox_crashes = lc.crashes;
            metrics.umbox_respawns = lc.respawns;
        }
        if let Some(channel) = &self.delivery {
            metrics.delivery = channel.stats.clone();
        }
        if let Some(monitor) = &self.safety {
            metrics.safety = monitor.stats().clone();
        }
        metrics.admission_shed = self.home.admission_shed;
        if let Some(bank) = &self.breakers {
            metrics.breaker_trips = bank.trips();
        }
        metrics.recipes_fired = self.hub.fired;
        metrics
    }
}

fn cookie(device: DeviceId) -> u64 {
    0x1000 + device.0 as u64
}

/// Quarantine rules outrank the steer rule (priority 300): drops and
/// allow-list exceptions both decide at the switch before any steering.
const QUARANTINE_PRIORITY: u16 = 400;

/// Cookie range for quarantine rules, disjoint from steer cookies
/// (`0x1000 + device`).
fn quarantine_cookie(device: DeviceId) -> u64 {
    0x2000 + device.0 as u64
}

/// The fixed trace label for a directive (stable across refactors; the
/// golden traces pin these strings).
fn directive_kind(d: &Directive) -> &'static str {
    match d {
        Directive::Launch { .. } => "launch",
        Directive::Reconfigure { .. } => "reconfigure",
        Directive::Retire { .. } => "retire",
    }
}

/// Compile a home's controller policy from the template's devices in id
/// order, its actuation gates and protect pairs, and `matched` — per
/// device, whether some repository signature names its SKU, which puts
/// a standing IDS in front of it.
fn compile_home_policy(template: &Deployment, matched: &[bool]) -> FsmPolicy {
    let mut compiler = PolicyCompiler::new();
    for (i, (setup, &matched)) in template.devices.iter().zip(matched).enumerate() {
        let id = DeviceId(i as u32);
        compiler.device(id, setup.class, &setup.vulns);
        if matched {
            compiler.rule(
                iotpolicy::policy::PolicyRule::new(
                    iotpolicy::compile::priority::MITIGATION,
                    iotpolicy::policy::StatePattern::any(),
                    id,
                    Posture::of(iotpolicy::posture::SecurityModule::Ids { ruleset: 1 }),
                )
                .with_rule_origin(RuleOrigin::Repo(setup.sku.clone())),
            );
        }
    }
    for var in EnvVar::ALL {
        compiler.env(var);
    }
    for (device, var, value) in &template.gates {
        compiler.gate_actuation(*device, *var, value);
    }
    for (watched, protected) in &template.protect_pairs {
        compiler.protect_on_suspicion(*watched, *protected);
    }
    compiler.build()
}

/// The µmbox host a site runs its chains on.
fn cluster_for(site: Site) -> Cluster {
    match site {
        Site::Home => Cluster::iot_router(),
        Site::Enterprise { .. } => {
            Cluster::enterprise(4, 8192, umbox::resource::PlacementPolicy::LeastLoaded)
        }
    }
}

/// One device's signature ruleset, for `install_intel` to intern: repository
/// subscriptions matching its SKU (which apply regardless of local
/// vulnerability knowledge — that is their whole point), plus rules
/// derived from operator-known flaws when `cfg.signatures` is enabled.
fn build_signatures(
    cfg: Option<&IoTSecConfig>,
    sku: &iotdev::registry::Sku,
    vulns: &[Vulnerability],
    subscribed: &[AttackSignature],
    extra: &[AttackSignature],
) -> Vec<AttackSignature> {
    let Some(cfg) = cfg else { return Vec::new() };
    let matching = subscribed.iter().chain(extra.iter()).filter(|s| s.sku == *sku).cloned();
    if !cfg.signatures {
        return matching.collect();
    }
    matching
        .chain(vulns.iter().map(|v| {
            let matcher = match v {
                Vulnerability::DefaultCredentials { user, pass } => {
                    Matcher::DefaultCredLogin { user: user.clone(), pass: pass.clone() }
                }
                Vulnerability::OpenMgmtAccess => Matcher::MgmtFromExternal,
                Vulnerability::ExposedKeyPair { key } => Matcher::KeyAuthControl { key: *key },
                Vulnerability::NoAuthControl => Matcher::UnauthenticatedControl,
                Vulnerability::OpenDnsResolver => Matcher::RecursiveDnsFromExternal,
                Vulnerability::CloudBypassBackdoor => Matcher::CloudCommand,
            };
            AttackSignature::new(sku.clone(), v.id(), matcher, Severity::High)
        }))
        .collect()
}

fn resolve_plan(steps: &[StepSpec], devices: &[IoTDevice], victim: Option<Ipv4Addr>) -> AttackPlan {
    let ip = |id: DeviceId| devices[id.0 as usize].ip;
    let resolved = steps
        .iter()
        .map(|s| match s {
            StepSpec::Probe(d) => AttackStep::Probe { target: ip(*d) },
            StepSpec::Login(d, user, pass) => {
                AttackStep::Login { target: ip(*d), user: (*user).into(), pass: (*pass).into() }
            }
            StepSpec::DictionaryLogin(d) => AttackStep::DictionaryLogin { target: ip(*d) },
            StepSpec::Mgmt(d, command) => {
                AttackStep::Mgmt { target: ip(*d), command: command.clone() }
            }
            StepSpec::Control(d, action, auth) => {
                AttackStep::Control { target: ip(*d), action: *action, auth: auth.clone() }
            }
            StepSpec::Cloud(d, action) => AttackStep::Cloud { target: ip(*d), action: *action },
            StepSpec::DnsReflect { reflector, queries } => AttackStep::DnsReflect {
                reflector: ip(*reflector),
                victim: victim.expect("victim host required for DnsReflect"),
                queries: *queries,
            },
            StepSpec::Wait(duration) => AttackStep::Wait { duration: *duration },
        })
        .collect();
    AttackPlan::new("campaign", resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeviceSetup;
    use iotdev::device::DeviceClass;
    use iotdev::proto::{ControlAction, MgmtCommand};
    use trace::tracer::TraceConfig;

    fn camera_deployment(defense: Defense) -> Deployment {
        let mut d = Deployment::new();
        let cam = d.device(DeviceSetup::table1_row(1)); // admin/admin camera
        d.campaign(vec![
            StepSpec::DictionaryLogin(cam),
            StepSpec::Mgmt(cam, MgmtCommand::GetImage),
        ]);
        d.defend_with(defense);
        d
    }

    #[test]
    fn undefended_camera_is_cracked() {
        let mut w = World::new(&camera_deployment(Defense::None));
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        assert!(m.campaign_succeeded(), "{:?}", m.attack_outcomes);
        assert!(m.privacy_leaked.contains(&DeviceId(0)));
    }

    #[test]
    fn perimeter_does_not_save_an_exposed_camera() {
        // The camera has a UPnP pinhole on the management port — that is
        // how it got on SHODAN — so the perimeter passes the attack.
        let mut w = World::new(&camera_deployment(Defense::Perimeter));
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        assert!(m.campaign_succeeded(), "{:?}", m.attack_outcomes);
        assert!(m.privacy_leaked.contains(&DeviceId(0)));
    }

    #[test]
    fn perimeter_blocks_unexposed_services() {
        // A clean camera exposes nothing: the WAN probe dies at the wall.
        let mut d = Deployment::new();
        let cam = d.device(DeviceSetup::clean(DeviceClass::Camera));
        d.campaign(vec![StepSpec::Probe(cam)]);
        d.defend_with(Defense::Perimeter);
        let mut w = World::new(&d);
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        assert!(!m.campaign_succeeded());
        assert!(m.policy_drops > 0);
    }

    #[test]
    fn iotsec_password_proxy_patches_the_camera() {
        let mut w = World::new(&camera_deployment(Defense::iotsec()));
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        assert!(!m.campaign_succeeded(), "{:?}", m.attack_outcomes);
        assert!(m.privacy_leaked.is_empty());
        assert!(!w.device(DeviceId(0)).privacy_leaked);
    }

    #[test]
    fn iotsec_blocks_cloud_backdoor() {
        let mut d = Deployment::new();
        let plug = d.device(DeviceSetup::table1_row(7)); // cloud backdoor Wemo
        d.campaign(vec![StepSpec::Cloud(plug, ControlAction::TurnOff)]);
        d.defend_with(Defense::iotsec());
        let mut w = World::new(&d);
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        assert!(m.compromised.is_empty(), "{:?}", m.attack_outcomes);
        // And without IoTSec the same campaign wins.
        let mut d2 = Deployment::new();
        let plug = d2.device(DeviceSetup::table1_row(7));
        d2.campaign(vec![StepSpec::Cloud(plug, ControlAction::TurnOff)]);
        let mut w2 = World::new(&d2);
        w2.run_until_attack_done(SimDuration::from_secs(120));
        assert!(w2.report().compromised.contains(&plug));
    }

    #[test]
    fn dns_reflection_amplifies_without_defense_only() {
        let run = |defense: Defense| {
            let mut d = Deployment::new();
            let plug = d.device(DeviceSetup::table1_row(6)); // open resolver
            d.campaign(vec![
                StepSpec::DnsReflect { reflector: plug, queries: 50 },
                StepSpec::Wait(SimDuration::from_secs(5)),
            ]);
            d.defend_with(defense);
            let mut w = World::new(&d);
            w.run_until_attack_done(SimDuration::from_secs(60));
            w.report()
        };
        let open = run(Defense::None);
        assert!(open.ddos_bytes_at_victim > 10_000, "bytes {}", open.ddos_bytes_at_victim);
        let defended = run(Defense::iotsec());
        assert_eq!(defended.ddos_bytes_at_victim, 0);
    }

    #[test]
    fn crashed_umbox_fail_open_leaks_fail_closed_blocks() {
        // The camera's µmbox crashes at t=5s with a long watchdog; the
        // attack strikes at t=6s, inside the downtime window. Fail-open
        // passes the attack unfiltered; fail-closed drops it.
        let run = |chaos: ChaosConfig| {
            let mut d = Deployment::new();
            let cam = d.device(DeviceSetup::table1_row(1));
            d.campaign(vec![
                StepSpec::Wait(SimDuration::from_secs(6)),
                StepSpec::DictionaryLogin(cam),
                StepSpec::Mgmt(cam, MgmtCommand::GetImage),
            ]);
            d.defend_with(Defense::iotsec());
            d.chaos(
                chaos.crash(SimTime::from_secs(5), cam).with_watchdog(SimDuration::from_secs(30)),
            );
            let mut w = World::new(&d);
            w.run_until_attack_done(SimDuration::from_secs(60));
            w.report()
        };
        let open = run(ChaosConfig::new());
        assert!(open.privacy_leaked.contains(&DeviceId(0)), "{:?}", open.attack_outcomes);
        assert!(open.missed_blocks > 0);
        assert_eq!(open.umbox_crashes, 1);
        assert!(open.fail_open_exposure > SimDuration::ZERO);

        let closed = run(ChaosConfig::new().fail_closed());
        assert!(closed.privacy_leaked.is_empty(), "{:?}", closed.attack_outcomes);
        assert!(closed.compromised.is_empty());
        assert!(closed.fail_closed_drops > 0);
        assert_eq!(closed.fail_open_exposure, SimDuration::ZERO);
        assert!(closed.unprotected_total() > SimDuration::ZERO);
    }

    #[test]
    fn standby_failover_shrinks_unprotected_time() {
        // A 60 s controller outage starts at t=5s; the attack (and its
        // security events) land at t=10s. A single controller leaves the
        // camera's events unanswered until the outage ends; the standby
        // is promoted after detect+resync and reacts ~50 s earlier.
        let run = |standby: bool| {
            let mut d = Deployment::new();
            let cam = d.device(DeviceSetup::table1_row(1));
            d.campaign(vec![
                StepSpec::Wait(SimDuration::from_secs(10)),
                StepSpec::DictionaryLogin(cam),
            ]);
            d.defend_with(Defense::iotsec());
            let mut chaos =
                ChaosConfig::new().outage(SimTime::from_secs(5), SimDuration::from_secs(60));
            if standby {
                chaos = chaos.with_standby();
            }
            d.chaos(chaos);
            let mut w = World::new(&d);
            w.run(SimDuration::from_secs(80));
            w.report()
        };
        let single = run(false);
        let paired = run(true);
        assert_eq!(single.controller_failovers, 0);
        assert_eq!(paired.controller_failovers, 1);
        // The single controller leaves the camera's events unanswered for
        // most of the outage; the pair recovers (detect + resync ≈ 7 s)
        // before the attack even lands, so its exposure is zero.
        assert!(single.unprotected_total() > SimDuration::from_secs(30));
        assert!(
            paired.unprotected_total() < single.unprotected_total(),
            "paired {:?} vs single {:?}",
            paired.unprotected_total(),
            single.unprotected_total()
        );
    }

    /// A camera whose chain crashes twice inside the breaker window,
    /// under the armed safety layer.
    fn breaker_deployment() -> Deployment {
        let mut d = Deployment::new();
        let cam = d.device(DeviceSetup::table1_row(1));
        d.campaign(vec![
            StepSpec::Wait(SimDuration::from_secs(8)),
            StepSpec::DictionaryLogin(cam),
            StepSpec::Mgmt(cam, MgmtCommand::GetImage),
        ]);
        d.defend_with(Defense::iotsec());
        d.chaos(
            ChaosConfig::new()
                .crash(SimTime::from_secs(2), cam)
                .crash(SimTime::from_secs(4), cam)
                .with_watchdog(SimDuration::from_secs(1)),
        );
        d.safety(iotctl::safety::SafetyConfig::default());
        d
    }

    #[test]
    fn repeated_crashes_trip_the_breaker_and_quarantine_the_device() {
        let mut w = World::new(&breaker_deployment());
        w.run_until_attack_done(SimDuration::from_secs(60));
        let m = w.report();
        assert!(m.breaker_trips >= 1, "second crash inside the window must trip");
        assert_eq!(m.safety.quarantines, 1, "the trip escalates to quarantine");
        // The quarantine allow-list admits telemetry only: the mgmt-port
        // attack dies at the switch, not in the (down) chain.
        assert!(m.policy_drops > 0);
        assert!(!m.campaign_succeeded(), "{:?}", m.attack_outcomes);
        assert!(m.safety.quarantine_time_ns > 0);
    }

    /// How a run is traced does not change what the defense does: the
    /// breaker trip escalates to quarantine under every trace mask, the
    /// packet-only one included.
    #[test]
    fn breaker_escalation_is_independent_of_the_trace_mask() {
        let report = |tracer: Tracer| {
            let mut w = World::new_traced(&breaker_deployment(), tracer);
            w.run_until_attack_done(SimDuration::from_secs(60));
            w.report()
        };
        let untraced = report(Tracer::disabled());
        assert_eq!(untraced.safety.quarantines, 1);
        let packet_only = TraceConfig { control: false, packet: true };
        for config in [TraceConfig::control_only(), TraceConfig::full(), packet_only] {
            let traced = report(Tracer::new(config));
            assert_eq!(format!("{traced:?}"), format!("{untraced:?}"), "{config:?}");
        }
    }

    /// Worlds that share one tracer share nothing else: a healthy safety
    /// world reports the same metrics after a faulty one has written its
    /// breaker trip into the shared stream as it does alone.
    #[test]
    fn a_shared_tracer_carries_no_fault_between_worlds() {
        let mut healthy = camera_deployment(Defense::iotsec());
        healthy.safety(iotctl::safety::SafetyConfig::default());
        let report = |d: &Deployment, tracer: &Tracer| {
            let mut w = World::new_traced(d, tracer.clone());
            w.run_until_attack_done(SimDuration::from_secs(60));
            w.report()
        };
        let alone = report(&healthy, &Tracer::new(TraceConfig::control_only()));
        assert_eq!(alone.safety.quarantines, 0);
        let shared = Tracer::new(TraceConfig::control_only());
        assert!(report(&breaker_deployment(), &shared).breaker_trips >= 1);
        let after = report(&healthy, &shared);
        assert_eq!(format!("{after:?}"), format!("{alone:?}"));
    }

    #[test]
    fn safety_layer_sees_no_violations_without_faults() {
        let mut d = camera_deployment(Defense::iotsec());
        d.safety(iotctl::safety::SafetyConfig::default());
        let mut w = World::new(&d);
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        assert_eq!(m.safety.violations, 0);
        assert_eq!(m.safety.quarantines, 0);
        assert_eq!(m.breaker_trips, 0);
        assert_eq!(m.admission_shed, 0);
    }

    /// Observable fingerprint of a finished run — the same quantities
    /// the fleet folds into its home-outcome digest.
    fn run_fingerprint(w: &mut World) -> (Vec<u32>, Vec<u32>, u64, u64, usize, u64) {
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        (
            m.compromised.iter().map(|d| d.0).collect(),
            m.privacy_leaked.iter().map(|d| d.0).collect(),
            m.umbox_drops + m.umbox_intercepts,
            m.controller_events,
            m.steps_succeeded(),
            w.net.events_processed(),
        )
    }

    #[test]
    fn resident_world_is_byte_equivalent_to_rebuild() {
        // The E26 oracle in miniature: one resident world carried across
        // (seed, intel) legs must match a cold rebuild on every leg —
        // including an intel delta that flips the camera's standing-IDS
        // membership (policy recompile) and one that is a pure no-op.
        let (template, cam) = crate::scenario::fleet_home(Defense::iotsec(), 0);
        assert!(World::supports_resident(&template));
        let sig = AttackSignature::for_table1_row(1, &template.devices[cam.0 as usize].sku)
            .expect("row 1 has a signature");
        let empty: Arc<[AttackSignature]> = Vec::new().into();
        let armed: Arc<[AttackSignature]> = vec![sig].into();
        // (seed, epoch, snapshot) legs: reseed at same epoch, epoch bump
        // with a membership flip, then a same-content "bump" (no-op).
        let legs: Vec<(u64, u32, &Arc<[AttackSignature]>)> =
            vec![(7, 0, &empty), (8, 0, &empty), (9, 1, &armed), (10, 1, &armed)];

        let mut resident = World::new_home_resident(
            &template,
            legs[0].0,
            legs[0].1,
            legs[0].2,
            &mut WorldScrap::default(),
        );
        for (i, (seed, epoch, intel)) in legs.iter().enumerate() {
            if i > 0 {
                if resident.resident_epoch() != Some(*epoch) {
                    let d = resident.apply_intel_delta(*epoch, intel);
                    assert!(!d.noop);
                    assert!(d.recompiled, "camera membership flips at epoch 1");
                }
                resident.rebind_home(*seed);
            }
            let got = run_fingerprint(&mut resident);
            let overrides = HomeOverrides { seed: *seed, extra_signatures: intel };
            let mut cold = World::new_home(&template, &overrides);
            let want = run_fingerprint(&mut cold);
            assert_eq!(got, want, "leg {i} (seed {seed}, epoch {epoch}) diverged");
        }
        // A same-content epoch advance is a pure no-op install.
        let d = resident.apply_intel_delta(2, &armed);
        assert!(d.noop);
        assert_eq!(resident.resident_epoch(), Some(2));
    }

    #[test]
    fn resident_home_does_not_keep_the_previous_homes_password() {
        // The break-in chain with a twist: after the heat has opened the
        // window, the attacker logs into the window actuator with its
        // burned-in default account and changes the owner's password. The
        // next home on the same resident machine must start with the
        // owner's password again — or its own hub is locked out and the
        // recipe that should breach it silently fails.
        let mut d = Deployment::new();
        let plug = d.device(DeviceSetup::table1_row(7).powering(PlugLoad::AirConditioner));
        let window = d.device(DeviceSetup::clean(DeviceClass::WindowActuator).with_vuln(
            Vulnerability::DefaultCredentials { user: "admin".into(), pass: "admin".into() },
        ));
        d.recipe(iotpolicy::recipe::Recipe {
            id: 0,
            trigger: iotpolicy::recipe::Trigger::EnvEquals(EnvVar::Temperature, "high"),
            action: iotpolicy::recipe::RecipeAction { target: window, action: ControlAction::Open },
        });
        d.campaign(vec![
            StepSpec::Cloud(plug, ControlAction::TurnOff),
            StepSpec::Wait(SimDuration::from_secs(1800)),
            StepSpec::DictionaryLogin(window),
            StepSpec::Mgmt(window, MgmtCommand::SetPassword { new: "pwned".into() }),
        ]);
        assert!(World::supports_resident(&d));

        let observe = |w: &mut World| {
            w.run_until_attack_done(SimDuration::from_secs(2000));
            let m = w.report();
            (w.env.window_open, m.physical_breach, m.recipes_fired, m.attack_outcomes)
        };
        let intel: Arc<[AttackSignature]> = Vec::new().into();
        let mut resident = World::new_home_resident(&d, 21, 0, &intel, &mut WorldScrap::default());
        for (leg, seed) in [21u64, 22].into_iter().enumerate() {
            if leg > 0 {
                resident.rebind_home(seed);
            }
            let got = observe(&mut resident);
            let want =
                observe(&mut World::new_home(&d, &HomeOverrides { seed, extra_signatures: &[] }));
            assert!(want.0, "the recipe opens the cold home's window");
            assert_eq!(got, want, "leg {leg} (seed {seed}) diverged from the cold build");
        }
    }

    #[test]
    fn resident_equals_rebuild_on_every_canned_scenario() {
        // Every other resident oracle runs `fleet_home`; this one shows
        // the reset path and the intel install each canned template,
        // defended and not.
        use crate::scenario as sc;
        let templates = |defense: Defense| -> Vec<Deployment> {
            let mut all: Vec<Deployment> =
                (1..=7).map(|row| sc::table1_row(row, defense.clone()).0).collect();
            all.push(sc::figure3(defense.clone()).0);
            all.push(sc::figure4(defense.clone()).0);
            all.push(sc::figure5(defense.clone()).0);
            all.push(sc::breakin_chain(defense.clone()).0);
            all.push(sc::smart_home(defense.clone(), 1).0);
            all.push(sc::scaled_home(defense.clone(), 1, 8).0);
            all.push(sc::fleet_home(defense, 1).0);
            all
        };
        let observe = |w: &mut World| {
            w.run_until_attack_done(SimDuration::from_secs(120));
            let net = &w.net;
            format!(
                "{:?}\n{:?} events={} peak={} cache={:?}\nclock={:?} ticks={}/{}",
                w.report(),
                net.stats,
                net.events_processed(),
                net.queue_peak(),
                net.cache_stats(),
                w.clock,
                w.ticks_executed(),
                w.ticks_simulated(),
            )
        };
        let empty: Arc<[AttackSignature]> = Vec::new().into();
        let mut admitted = 0;
        for defense in [Defense::None, Defense::iotsec()] {
            for (t, template) in templates(defense).iter().enumerate() {
                if !World::supports_resident(template) {
                    continue;
                }
                admitted += 1;
                let mut resident =
                    World::new_home_resident(template, 11, 0, &empty, &mut WorldScrap::default());
                for seed in [11u64, 12, 13] {
                    if seed > 11 {
                        resident.rebind_home(seed);
                    }
                    let overrides = HomeOverrides { seed, extra_signatures: &[] };
                    assert_eq!(
                        observe(&mut resident),
                        observe(&mut World::new_home(template, &overrides)),
                        "template {t}, seed {seed}: resident diverged from the cold build"
                    );
                }
                // One signature for every SKU the template deploys, cycling
                // through Table 1's matchers; installed, then withdrawn.
                let sigs = template.devices.iter().enumerate().map(|(i, d)| {
                    AttackSignature::for_table1_row((i % 7) as u8 + 1, &d.sku).expect("rows 1..=7")
                });
                let armed: Arc<[AttackSignature]> = sigs.collect();
                for (epoch, intel) in [(1, &armed), (2, &empty)] {
                    resident.apply_intel_delta(epoch, intel);
                    resident.rebind_home(14);
                    let overrides = HomeOverrides { seed: 14, extra_signatures: intel };
                    assert_eq!(
                        observe(&mut resident),
                        observe(&mut World::new_home(template, &overrides)),
                        "template {t}, epoch {epoch}: installed intel diverged from the cold build"
                    );
                }
            }
        }
        assert_eq!(admitted, 28, "every canned home template supports residency");
    }

    #[test]
    fn a_reconfiguration_reaches_only_the_chain_it_was_built_for() {
        // `DeliveryChannel::pump` may hand one tick several directives for
        // one device. Reconfigure → Retire → Launch in one tick: the swap
        // was built for the retired chain and must not land on the new one.
        let cam = DeviceId(0);
        let live = |w: &World| w.buf.chains.get(&cam).map(|slot| slot.chain(&w.net).len());
        let mut w = World::new(&camera_deployment(Defense::iotsec()));
        let quarantine = Posture::quarantine();
        w.execute_directive(
            Directive::Launch { device: cam, posture: quarantine.clone() },
            w.clock,
        );
        w.run(SimDuration::from_secs(1));
        assert_eq!(live(&w), Some(2), "the quarantine chain is up");
        let now = w.clock;
        w.execute_directive(Directive::Reconfigure { device: cam, posture: quarantine }, now);
        w.execute_directive(Directive::Retire { device: cam }, now);
        let mirror = Posture::of(iotpolicy::posture::SecurityModule::Mirror);
        w.execute_directive(Directive::Launch { device: cam, posture: mirror }, now);
        w.run(SimDuration::from_secs(1));
        assert_eq!(live(&w), Some(1), "the mirror chain, not the stale quarantine");
    }

    #[test]
    #[should_panic(expected = "Deployment.tick must be positive")]
    fn a_zero_tick_is_rejected_at_build() {
        // `while clock + tick <= end` never ends on a zero tick, and the
        // run loop divides by it.
        let mut d = camera_deployment(Defense::None);
        d.tick = SimDuration::ZERO;
        World::new(&d);
    }

    #[test]
    fn run_executes_the_ticks_in_which_something_is_due() {
        // A defended camera home: the campaign, the µmbox boots and one
        // telemetry round per five seconds are all that is ever due.
        let mut w = World::new(&camera_deployment(Defense::iotsec()));
        w.run_until_attack_done(SimDuration::from_secs(120));
        w.run(SimDuration::from_secs(60));
        let (executed, ticks) = (w.ticks_executed(), w.ticks_simulated());
        assert!(ticks > 600 && executed * 4 < ticks, "{executed} of {ticks} ticks executed");
        // `step` always executes, and counts.
        w.step();
        assert_eq!((w.ticks_executed(), w.ticks_simulated()), (executed + 1, ticks + 1));
        // Layers that accrue per tick keep every tick.
        for layered in [
            |d: &mut Deployment| {
                d.chaos(ChaosConfig::new());
            },
            |d: &mut Deployment| {
                d.safety(iotctl::safety::SafetyConfig::default());
            },
        ] {
            let mut d = camera_deployment(Defense::iotsec());
            layered(&mut d);
            let mut w = World::new(&d);
            w.run(SimDuration::from_secs(30));
            assert_eq!((w.ticks_executed(), w.ticks_simulated()), (300, 300));
        }
    }

    #[test]
    fn environment_breach_detection() {
        // No window device in this deployment — the actuator FSM would
        // re-assert its own (closed) position each tick.
        let mut d = Deployment::new();
        let _cam = d.device(DeviceSetup::clean(DeviceClass::Camera));
        let mut w = World::new(&d);
        w.env.occupied = false;
        w.env.window_open = true;
        w.step();
        assert!(w.report().physical_breach);
        assert!(w.report().breach_at.is_some());
    }

    #[test]
    fn compiled_rule_origins_render_as_pinned() {
        // Every origin template: a vuln mitigation per known flaw, both
        // escalations per device, an actuation gate, a protect pair in
        // both contexts, and a repository signature's standing IDS.
        let mut d = Deployment::new();
        let cam = d.device(DeviceSetup::table1_row(1));
        let plug = d.device(DeviceSetup::table1_row(7));
        let alarm = d.device(DeviceSetup::clean(DeviceClass::FireAlarm));
        let window = d.device(DeviceSetup::clean(DeviceClass::WindowActuator));
        d.gate(plug, EnvVar::Occupancy, "present");
        d.protect(alarm, window);
        let sig = AttackSignature::for_table1_row(1, &d.devices[cam.0 as usize].sku);
        d.subscribed_signatures.push(sig.expect("row 1 has a signature"));
        d.defend_with(Defense::iotsec());
        let w = World::new(&d);
        let Some(ControlPlane::Flat(c)) = &w.control else { panic!("a flat control plane") };
        let mut policy = c.policy.clone();
        let origins: Vec<String> = policy.rules.iter().map(|r| r.origin.to_string()).collect();
        assert_eq!(
            origins,
            [
                "vuln:default-credentials:dev0",
                "escalate:suspicious:dev0",
                "escalate:quarantine:dev0",
                "repo:avtech/ip-cam/1.3",
                "vuln:cloud-bypass-backdoor:dev1",
                "escalate:suspicious:dev1",
                "escalate:quarantine:dev1",
                "escalate:suspicious:dev2",
                "escalate:quarantine:dev2",
                "escalate:suspicious:dev3",
                "escalate:quarantine:dev3",
                "gate:dev1:Occupancy=present",
                "protect:dev3:on-suspicious-of:dev2",
                "protect:dev3:on-compromised-of:dev2",
            ]
        );
        // A rule prints as it always has: maps as maps, the origin as a
        // quoted string.
        assert_eq!(
            format!("{:?}", policy.rules[3]),
            "PolicyRule { priority: 50, pattern: StatePattern { contexts: {}, env: {} }, \
             postures: {DeviceId(0): Posture { modules: [Ids { ruleset: 1 }] }}, \
             override_lower: false, origin: \"repo:avtech/ip-cam/1.3\" }"
        );
        assert_eq!(
            format!("{:?}", policy.rules[12]),
            "PolicyRule { priority: 60, pattern: StatePattern { contexts: {DeviceId(2): Suspicious}, \
             env: {} }, postures: {DeviceId(3): Posture { modules: [Block(OpenVerbs)] }}, \
             override_lower: false, origin: \"protect:dev3:on-suspicious-of:dev2\" }"
        );

        // A hand-written allow at quarantine priority contradicts the
        // compiled quarantine of the camera.
        policy.add_rule(
            iotpolicy::policy::PolicyRule::new(
                90,
                iotpolicy::policy::StatePattern::any()
                    .context(cam, iotpolicy::context::SecurityContext::Compromised),
                cam,
                Posture::allow(),
            )
            .with_origin("owner-allow"),
        );
        let conflicts = iotpolicy::conflict::find_reachable_rule_conflicts(&policy);
        let descriptions: Vec<&str> = conflicts.iter().map(|c| c.description.as_str()).collect();
        assert_eq!(
            descriptions,
            ["rules 'escalate:quarantine:dev0' and 'owner-allow' contradict on dev0 \
                 in a reachable state"]
        );
    }
}
