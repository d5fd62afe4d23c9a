//! The fleet engine: chunked execution, hierarchical intel, home-order
//! merge.
//!
//! A fleet round has three strictly separated parts:
//!
//! 1. **Execute** (parallel): every home runs — or is served from its
//!    slot — against the intel epoch installed at the last barrier. The
//!    per-home slots are split into disjoint `&mut` chunks; chunk `c`
//!    goes to worker `c % threads`, and one `serve` body runs them,
//!    inline when `threads <= 1` and on scoped threads otherwise.
//!    Workers share only read-only state (the scenario, the ledger, the
//!    snapshots); everything a worker writes — its slots, its resident
//!    world, its counters — it holds by exclusive borrow, so there is
//!    nothing to lock and nothing to race.
//! 2. **Merge** (serial, coordinator): outcomes are folded into the
//!    chained fleet digest in home order, totals accumulate, and fresh
//!    discoveries flow into the discovering home's neighborhood buffer.
//! 3. **Barrier** (serial, coordinator): neighborhood buffers flush
//!    upward in neighborhood order, the region unions them into its
//!    canonical `BTreeSet`, and — if anything was new — the epoch bumps,
//!    the snapshot is interned once, and batched installs bring every
//!    home to the new epoch before the next round.
//!
//! **The slot is the memo.** A home's slot keeps the outcome of its
//! latest execution and the epoch it ran against. Ledger epochs only
//! advance, so that pair is the only memo entry a later round can ask
//! for: equal epochs are a hit, anything else re-executes.
//!
//! Determinism: parts 2 and 3 are serial and iterate in home /
//! neighborhood order; part 1 computes a pure function of
//! `(home, epoch)` per home into a position-indexed slot, under a
//! chunk → worker deal that depends only on the fleet shape — so the
//! chained digest (and every counter) is byte-identical at any thread
//! count, which `experiments e20` and `tests/fleet_props.rs` enforce.
//!
//! **Chaos (E25).** A fleet built with [`Fleet::with_chaos`] runs the
//! same three parts under a seeded [`crate::chaos::FleetChaos`]
//! schedule: flushes can be dropped/duplicated/reordered, aggregators
//! crash and respawn empty (the region holds the epoch), neighborhoods
//! partition from the region for whole rounds, and install waves slip.
//! Every fault decision is rolled serially at the barrier as a pure
//! function of `(chaos seed, round, neighborhood)`, so chaos-on runs
//! stay byte-identical at any thread count. Under chaos homes diverge
//! in installed epoch, so execution serves each home at *its* ledger
//! epoch. A fleet built without a schedule runs the very same barrier
//! under [`FleetChaos::calm`]: no roll fires, every home shares one
//! epoch, and the weather-only trace events are never emitted — same
//! digest bytes, same trace, same `BENCH_E20.json`.

use crate::chaos::FleetChaos;
use iotctl::aggregate::{Directory, InstallLedger, NeighborhoodBuffer, RegionIntel};
use iotlearn::AttackSignature;
use iotpolicy::intern::Interner;
use iotsec::world::WorldScrap;
use std::sync::Arc;
use trace::digest::Fnv64;
use trace::{TraceEvent, Tracer};

/// The `Copy` outcome of one home for one round. Sitting in the home's
/// `Slot` must be allocation-free, so this is fixed-size by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HomeOutcome {
    /// Per-home outcome digest (a pure function of `(home, intel)`).
    pub digest: u64,
    /// Devices compromised.
    pub compromised: u32,
    /// Devices with data exposure.
    pub leaked: u32,
    /// µmbox drops + intercepts.
    pub blocks: u64,
    /// Simulation events the home's engine processed.
    pub events: u64,
    /// Whether this home observed the attack well enough to publish a
    /// crowdsourced signature (sentinel homes only).
    pub discovered: bool,
    /// Safety-monitor violations flagged for this home (the vet arm).
    pub flagged: u32,
}

/// Resident-pool accounting (E26): how home runs were served and what
/// each epoch install cost. Aggregated across workers by
/// [`Fleet::resident_stats`] and exported through `MetricsRegistry`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Homes that built a world from scratch (cold slot, unsupported
    /// template, or post-crash rebuild).
    pub full_builds: u64,
    /// Homes served by rebinding a resident world in place.
    pub resident_runs: u64,
    /// Epoch advances installed as per-device patches (content changed).
    pub delta_installs: u64,
    /// Epoch advances with content-identical intel (epoch bump only).
    pub noop_installs: u64,
    /// Delta installs that flipped a standing-IDS membership and
    /// recompiled the policy.
    pub policy_recompiles: u64,
    /// Devices whose signature ruleset was repatched across all delta
    /// installs.
    pub devices_patched: u64,
    /// Devices kept as-is across all delta installs.
    pub devices_kept: u64,
    /// Resident worlds dropped by chaos worker crashes (each forces one
    /// full rebuild).
    pub dropped: u64,
    /// Ticks the resident machines executed, over all their home-rounds.
    pub ticks_executed: u64,
    /// Ticks those home-rounds simulated: what a tick-by-tick run would
    /// have executed.
    pub ticks_simulated: u64,
}

impl ResidentStats {
    fn merge(&mut self, o: &ResidentStats) {
        self.full_builds += o.full_builds;
        self.resident_runs += o.resident_runs;
        self.delta_installs += o.delta_installs;
        self.noop_installs += o.noop_installs;
        self.policy_recompiles += o.policy_recompiles;
        self.devices_patched += o.devices_patched;
        self.devices_kept += o.devices_kept;
        self.dropped += o.dropped;
        self.ticks_executed += o.ticks_executed;
        self.ticks_simulated += o.ticks_simulated;
    }
}

/// One home's outcome slot, which is also its memo: the outcome of the
/// home's most recent execution and the intel epoch it ran against.
/// Ledger epochs only advance, so the latest `(epoch, out)` is the only
/// entry any later round can ask for.
#[derive(Clone, Copy, Default)]
struct Slot {
    epoch: u32,
    /// Whether the home has executed at all (`out` is meaningful).
    ran: bool,
    out: HomeOutcome,
}

/// Everything one worker carries across rounds, lent `&mut` to exactly
/// one thread per round (chunk `c` always runs on worker `c % threads`).
struct WorkerState<R> {
    /// The persistent resident world (E26), once built.
    resident: Option<R>,
    stats: ResidentStats,
    /// Homes served from their slot / executed, cumulative.
    hits: u64,
    misses: u64,
}

impl<R> Default for WorkerState<R> {
    fn default() -> WorkerState<R> {
        WorkerState { resident: None, stats: ResidentStats::default(), hits: 0, misses: 0 }
    }
}

/// One home scenario family: how to run home `h` against an intel
/// snapshot, and what a discovering home publishes.
///
/// `run_home` must be a **pure function** of `(home, seed, intel)` —
/// the memo and the serial≡parallel digest both assume it.
pub trait HomeWorld: Sync {
    /// The per-worker resident state (E26): a persistent constructed
    /// world the scenario rebinds per home instead of rebuilding.
    /// Scenarios without a resident mode use `()`.
    type Resident: Send;

    /// Build and run one home world entirely on the calling thread.
    fn run_home(&self, home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome;

    /// [`HomeWorld::run_home`] under the name, and with the empty
    /// [`WorldScrap`] token, the frozen benchmark harness still forwards.
    /// Nothing outside `benchmark/` calls or overrides it; it goes at
    /// the E38(e) unfreeze.
    fn run_home_recycled(
        &self,
        home: u32,
        seed: u64,
        intel: &[AttackSignature],
        _scrap: &mut WorldScrap,
    ) -> HomeOutcome {
        self.run_home(home, seed, intel)
    }

    /// [`HomeWorld::run_home`] with a persistent per-worker resident
    /// slot (E26). When the slot holds a world, the scenario
    /// installs the intel epoch as a delta and rebinds in place; when it
    /// is empty (first round, or after a chaos crash dropped it), the
    /// scenario builds fresh and parks the world in the slot. Must
    /// return **exactly** what `run_home` returns — residency is a
    /// construction-amortization, never a semantic one; the rebuild-
    /// equivalence oracle in `tests/fleet_resident_props.rs` pins digest
    /// and trace byte-equality. The default ignores the slot and always
    /// rebuilds, so synthetic scenarios need not care. `_scrap` is the
    /// harness-pinned empty token (see [`HomeWorld::run_home_recycled`]).
    #[allow(clippy::too_many_arguments)]
    fn run_home_resident(
        &self,
        home: u32,
        seed: u64,
        epoch: u32,
        intel: &Arc<[AttackSignature]>,
        _slot: &mut Option<Self::Resident>,
        _scrap: &mut WorldScrap,
        stats: &mut ResidentStats,
    ) -> HomeOutcome {
        let _ = epoch;
        stats.full_builds += 1;
        self.run_home(home, seed, intel)
    }

    /// Materialize the signature home `home` publishes on discovery.
    /// Called on the coordinator thread only, once per discovering home.
    fn discovery(&self, home: u32) -> Option<AttackSignature>;
}

/// Fleet shape and execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of home worlds.
    pub homes: u32,
    /// Homes per neighborhood aggregator.
    pub neighborhood: u32,
    /// Homes per chunk (the granule dealt to workers: chunk `c` runs on
    /// worker `c % threads`).
    pub chunk: u32,
    /// Worker threads; `<= 1` is the serial reference path.
    pub threads: usize,
    /// Fleet seed; each home derives its own via [`home_seed`].
    pub seed: u64,
}

impl FleetConfig {
    /// Same fleet, different worker count.
    pub fn with_threads(mut self, threads: usize) -> FleetConfig {
        self.threads = threads;
        self
    }
}

/// What one round did (executions vs memo hits, discoveries, installs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// Round index (0-based).
    pub round: u32,
    /// Homes that actually built and ran a world this round.
    pub executed: u32,
    /// Homes served from the memo this round.
    pub memo_hits: u32,
    /// Fresh signature discoveries published this round.
    pub discoveries: u32,
    /// Intel epoch installed fleet-wide after this round's barrier.
    pub epoch: u32,
    /// Per-home installs delivered at this round's barrier.
    pub installs: u64,
}

/// Cumulative fleet report over all rounds run so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Number of homes.
    pub homes: u32,
    /// Rounds completed.
    pub rounds: u32,
    /// The chained fleet digest (home-order fold of every round).
    pub digest: u64,
    /// Final installed intel epoch.
    pub epoch: u32,
    /// Distinct intel items known to the region.
    pub intel_len: usize,
    /// Total signature discoveries published.
    pub discoveries: u64,
    /// Total per-home directive installs delivered.
    pub installs: u64,
    /// Total non-empty install batches.
    pub batches: u64,
    /// Homes served from the memo, cumulative.
    pub memo_hits: u64,
    /// Homes that built and ran a world, cumulative.
    pub memo_misses: u64,
    /// Distinct interned intel snapshots.
    pub interned: usize,
    /// Total simulation events across all home runs.
    pub events: u64,
    /// Total µmbox blocks across all home runs.
    pub blocks: u64,
    /// Total compromised devices across all home runs.
    pub compromised: u64,
    /// Total privacy-leaked devices across all home runs.
    pub leaked: u64,
    /// Total safety violations flagged across all home runs.
    pub flagged: u64,
    /// Chaos faults injected (0 chaos-off).
    pub faults: u64,
    /// Chaos recoveries completed (0 chaos-off).
    pub recoveries: u64,
    /// Rounds the fleet declared degraded (0 chaos-off).
    pub degraded_rounds: u64,
    /// Every published discovery absorbed and every home at the region
    /// epoch (always `true` chaos-off).
    pub converged: bool,
}

impl FleetReport {
    /// The digest as the fixed-width hex string checked into
    /// `BENCH_E20.json` and compared between legs.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// Derive home `home`'s world seed from the fleet seed (splitmix64
/// finalizer — deterministic, well-spread, collision-free in practice).
pub fn home_seed(fleet_seed: u64, home: u32) -> u64 {
    let mut z = fleet_seed ^ (u64::from(home) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pending flush retry: the dropped batch, how many times it has been
/// attempted, and the round it next pumps (bounded exponential backoff,
/// the E15 `DeliveryChannel` discipline lifted to batches).
#[derive(Debug)]
struct RetryState {
    batch: Vec<AttackSignature>,
    attempt: u32,
    due: u32,
}

/// Per-neighborhood aggregator recovery state (all inert chaos-off).
#[derive(Debug, Default)]
struct AggState {
    /// Barriers with `round < partitioned_until` are missed; 0 when
    /// connected.
    partitioned_until: u32,
    /// A dropped flush awaiting its bounded-backoff retry. Survives
    /// aggregator crashes: a flushed-and-dropped batch sits in the
    /// aggregator's write-ahead checkpoint, unlike the in-memory
    /// collection buffer a crash wipes.
    retry: Option<RetryState>,
    /// A due install wave slipped to the next round (delayed waves land
    /// unconditionally, so the slip is bounded at one round each).
    delayed_wave: bool,
    /// Rejoined from a partition at this barrier (one-shot, drives the
    /// `rejoin-fast-forward` recover event).
    rejoined: bool,
    /// Crashed at this barrier (one-shot: the respawned aggregator
    /// misses this round's install wave).
    down: bool,
}

/// One published discovery the fleet has not yet converged on: the
/// degraded-mode accounting unit (chaos-on only).
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// Repository signature id (joins discoveries to absorbs).
    signature: u64,
    /// Round of first publication (staleness counts from here).
    published: u32,
    /// Region epoch that carries this signature, once absorbed.
    goal: Option<u32>,
}

/// The fleet engine. See the module docs for the round structure.
pub struct Fleet<S: HomeWorld> {
    scenario: S,
    cfg: FleetConfig,
    dir: Directory,
    /// One slot per home, split into disjoint `cfg.chunk`-sized pieces
    /// each round; doubles as the memo (see [`Slot`]).
    slots: Vec<Slot>,
    /// Per-worker state (index = worker, slot 0 serial).
    workers: Vec<WorkerState<S::Resident>>,
    /// Per-neighborhood upward discovery buffers.
    buffers: Vec<NeighborhoodBuffer<AttackSignature>>,
    /// The regional canonical intel union.
    region: RegionIntel<AttackSignature>,
    /// Region-level intern table for intel snapshots.
    interner: Interner<AttackSignature>,
    /// Per-home installed epochs + install/batch counters.
    ledger: InstallLedger,
    /// The currently installed interned snapshot (shared by every home).
    intel: Arc<[AttackSignature]>,
    /// Every interned snapshot by epoch (`snapshots[e]` is the intel at
    /// epoch `e`; index 0 is the empty pre-discovery snapshot). Epochs
    /// are dense, so this grows by one per absorbing round. Under chaos
    /// homes sit at different epochs and execution serves each from its
    /// own entry; chaos-off only the top entry is ever read. Entries
    /// below the installed-epoch floor are GC'd to `None` (E26) — no
    /// home can ever read them again, and dropping the `Arc` lets the
    /// interner retire the allocation.
    snapshots: Vec<Option<Arc<[AttackSignature]>>>,
    /// Fleet-wide installed-epoch floor (`ledger.min_epoch()`; chaos-off
    /// every home is equal, so it is also every home's epoch).
    installed_epoch: u32,
    /// Which homes have already published their discovery (so warm
    /// rounds stay allocation-free instead of re-publishing). An
    /// aggregator crash clears the flags of the homes whose buffered
    /// reports it lost, and they re-publish from memoized outcomes.
    published: Vec<bool>,
    /// The chaos schedule. `None` (the default) runs the barrier under
    /// [`FleetChaos::calm`] and mutes the weather-only trace events.
    chaos: Option<FleetChaos>,
    /// Per-neighborhood recovery state (inert chaos-off).
    aggs: Vec<AggState>,
    /// Duplicated flushes in flight: `(due round, batch)` — delivered to
    /// the region one round late, exercising at-least-once absorption.
    late_dups: Vec<(u32, Vec<AttackSignature>)>,
    /// Published-but-not-yet-converged discoveries (degraded-mode
    /// accounting; chaos-on only).
    outstanding: Vec<Outstanding>,
    /// Whether rounds run in resident mode (E26): persistent per-worker
    /// worlds and delta installs instead of a rebuild per home. On
    /// unless [`Fleet::set_resident`] asked for the rebuild reference.
    resident_on: bool,
    /// Out-of-band intel queued by [`Fleet::inject_intel`]; drained into
    /// the next barrier's upward flow (bench/test epoch-churn driver).
    feed: Vec<AttackSignature>,
    /// Chained fleet digest across rounds.
    digest: Fnv64,
    tracer: Tracer,
    round: u32,
    discoveries: u64,
    events: u64,
    blocks: u64,
    compromised: u64,
    leaked: u64,
    flagged: u64,
    faults: u64,
    recoveries: u64,
    degraded_rounds: u64,
}

impl<S: HomeWorld> Fleet<S> {
    /// Build a fleet (no tracing).
    pub fn new(scenario: S, cfg: FleetConfig) -> Fleet<S> {
        Fleet::with_tracer(scenario, cfg, Tracer::disabled())
    }

    /// Build a fleet that emits [`TraceEvent::FleetDiscovery`] /
    /// [`TraceEvent::FleetBatch`] / [`TraceEvent::FleetInstall`] events
    /// (at `at_ns = round`) into `tracer` — the propagation golden.
    pub fn with_tracer(scenario: S, cfg: FleetConfig, tracer: Tracer) -> Fleet<S> {
        Fleet::build(scenario, cfg, None, tracer)
    }

    /// Build a fleet under a seeded [`FleetChaos`] schedule. Faults and
    /// recoveries additionally emit [`TraceEvent::FleetFault`] /
    /// [`TraceEvent::FleetRecover`] / [`TraceEvent::FleetAbsorb`] /
    /// [`TraceEvent::FleetDegraded`] (chaos-on runs only, so chaos-off
    /// goldens never change).
    pub fn with_chaos(
        scenario: S,
        cfg: FleetConfig,
        chaos: FleetChaos,
        tracer: Tracer,
    ) -> Fleet<S> {
        Fleet::build(scenario, cfg, Some(chaos), tracer)
    }

    fn build(scenario: S, cfg: FleetConfig, chaos: Option<FleetChaos>, tracer: Tracer) -> Fleet<S> {
        let homes = cfg.homes;
        let dir = Directory::new(homes, cfg.neighborhood);
        let empty: Arc<[AttackSignature]> = Vec::new().into();
        Fleet {
            scenario,
            cfg,
            dir,
            slots: vec![Slot::default(); homes as usize],
            workers: (0..cfg.threads.max(1)).map(|_| WorkerState::default()).collect(),
            buffers: (0..dir.neighborhoods()).map(|_| NeighborhoodBuffer::new()).collect(),
            region: RegionIntel::new(),
            interner: Interner::new(),
            ledger: InstallLedger::new(homes as usize),
            intel: empty.clone(),
            snapshots: vec![Some(empty)],
            installed_epoch: 0,
            published: vec![false; homes as usize],
            chaos,
            aggs: (0..dir.neighborhoods()).map(|_| AggState::default()).collect(),
            late_dups: Vec::new(),
            outstanding: Vec::new(),
            resident_on: true,
            feed: Vec::new(),
            digest: Fnv64::new(),
            tracer,
            round: 0,
            discoveries: 0,
            events: 0,
            blocks: 0,
            compromised: 0,
            leaked: 0,
            flagged: 0,
            faults: 0,
            recoveries: 0,
            degraded_rounds: 0,
        }
    }

    /// Run one fleet round: execute every home, merge in home order,
    /// propagate discoveries through the aggregator hierarchy.
    ///
    /// A *quiesced* round (no new intel, every home memoized) performs
    /// zero heap allocations on the serial path — the warm-fleet
    /// section of `tests/alloc_counter.rs` pins this.
    pub fn round(&mut self) -> RoundSummary {
        let round = self.round;
        let epoch = self.installed_epoch;
        let (hits_before, misses_before) = self.memo_counts();

        // --- 1. execute -------------------------------------------------
        //
        // Each home runs against the epoch *it* has installed (per the
        // ledger): under chaos homes diverge while waves are lost or
        // delayed; chaos-off every home sits at `installed_epoch`. A
        // home whose slot already holds that epoch's outcome is a memo
        // hit.
        {
            let scenario = &self.scenario;
            let snapshots = &self.snapshots;
            let ledger = &self.ledger;
            let fleet_seed = self.cfg.seed;
            let resident_on = self.resident_on;
            let serve = |w: &mut WorkerState<S::Resident>, start: u32, slots: &mut [Slot]| {
                for (home, slot) in (start..).zip(slots) {
                    let epoch = ledger.epoch_of(home);
                    if slot.ran && slot.epoch == epoch {
                        w.hits += 1;
                        continue;
                    }
                    let intel = snapshots[epoch as usize]
                        .as_ref()
                        .expect("a home's installed epoch never drops below the GC floor");
                    let seed = home_seed(fleet_seed, home);
                    let out = if resident_on {
                        scenario.run_home_resident(
                            home,
                            seed,
                            epoch,
                            intel,
                            &mut w.resident,
                            &mut WorldScrap::default(),
                            &mut w.stats,
                        )
                    } else {
                        scenario.run_home(home, seed, intel)
                    };
                    *slot = Slot { epoch, ran: true, out };
                    w.misses += 1;
                }
            };
            // Chunk `c` runs on worker `c % threads` in both modes, so a
            // worker's resident world only ever serves "its" homes and
            // `ResidentStats` do not depend on thread timing.
            let chunk = self.cfg.chunk.max(1) as usize;
            let chunks = self.slots.chunks_mut(chunk).zip((0u32..).step_by(chunk));
            if let [only] = &mut self.workers[..] {
                for (slots, start) in chunks {
                    serve(only, start, slots);
                }
            } else {
                let threads = self.workers.len();
                let mut hands: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
                for (c, piece) in chunks.enumerate() {
                    hands[c % threads].push(piece);
                }
                std::thread::scope(|s| {
                    for (w, hand) in self.workers.iter_mut().zip(hands) {
                        let serve = &serve;
                        s.spawn(move || {
                            for (slots, start) in hand {
                                serve(w, start, slots);
                            }
                        });
                    }
                });
            }
        }

        // --- 2. merge (serial, home order) ------------------------------
        self.digest.write_u32(round);
        self.digest.write_u32(epoch);
        let mut discoveries = 0u32;
        for home in 0..self.cfg.homes {
            let out = self.slots[home as usize].out;
            self.digest.write_u32(home);
            self.digest.write_u64(out.digest);
            self.digest.write_u64(out.blocks);
            self.digest.write_u32(out.compromised);
            self.digest.write_u32(out.leaked);
            self.digest.write_u32(out.flagged);
            self.events += out.events;
            self.blocks += out.blocks;
            self.compromised += u64::from(out.compromised);
            self.leaked += u64::from(out.leaked);
            self.flagged += u64::from(out.flagged);
            if out.discovered && !self.published[home as usize] {
                if let Some(sig) = self.scenario.discovery(home) {
                    self.published[home as usize] = true;
                    discoveries += 1;
                    self.tracer.emit(
                        u64::from(round),
                        TraceEvent::FleetDiscovery { home, signature: sig.id },
                    );
                    if self.chaos.is_some()
                        && !self.outstanding.iter().any(|o| o.signature == sig.id)
                    {
                        self.outstanding.push(Outstanding {
                            signature: sig.id,
                            published: round,
                            goal: None,
                        });
                    }
                    self.buffers[self.dir.neighborhood_of(home) as usize].collect_from(home, sig);
                }
            }
        }
        self.discoveries += u64::from(discoveries);

        // --- 3. barrier (serial, neighborhood order) --------------------
        let installs_before = self.ledger.installs();
        self.barrier(round);
        self.digest.write_u32(self.installed_epoch);
        self.gc_intel();

        self.round += 1;
        let (hits, misses) = self.memo_counts();
        RoundSummary {
            round,
            executed: (misses - misses_before) as u32,
            memo_hits: (hits - hits_before) as u32,
            discoveries,
            epoch: self.installed_epoch,
            installs: self.ledger.installs() - installs_before,
        }
    }

    /// The barrier: flush → absorb → install waves, where every step
    /// faces the schedule's weather and is backed by the corresponding
    /// recovery mechanism. A fleet built without a schedule runs the
    /// same code under [`FleetChaos::calm`], on which nothing fires: all
    /// flushes survive in neighborhood order, every wave lands at once,
    /// and the events that only describe weather (`fleet-absorb`
    /// included) stay unemitted. Entirely serial; every fault decision
    /// is a pure function of `(chaos seed, round, neighborhood)`, so the
    /// whole round is thread-count invariant.
    fn barrier(&mut self, round: u32) {
        let chaos = self.chaos.unwrap_or(FleetChaos::calm());
        let tr = u64::from(round);
        let policy = chaos.policy;

        // Injected out-of-band intel and duplicated flushes from earlier
        // rounds land first — the at-least-once leg the region's epoch
        // contract absorbs as a no-op.
        let mut upward: Vec<AttackSignature> = std::mem::take(&mut self.feed);
        let mut i = 0;
        while i < self.late_dups.len() {
            if self.late_dups[i].0 == round {
                upward.extend(self.late_dups.remove(i).1);
            } else {
                i += 1;
            }
        }

        // Per-neighborhood fault rolls + flushes, neighborhood order.
        let mut surviving: Vec<Vec<AttackSignature>> = Vec::new();
        for n in 0..self.dir.neighborhoods() {
            let ni = n as usize;

            // Partition bookkeeping: rejoin first, then maybe cut anew.
            if self.aggs[ni].partitioned_until != 0 && round >= self.aggs[ni].partitioned_until {
                self.aggs[ni].partitioned_until = 0;
                self.aggs[ni].rejoined = true;
            }
            if self.aggs[ni].partitioned_until == 0 && chaos.partition_begins(round, n) {
                self.aggs[ni].partitioned_until =
                    round.saturating_add(chaos.partition_rounds.max(1));
                self.aggs[ni].rejoined = false;
                self.tracer.emit(tr, TraceEvent::FleetFault { neighborhood: n, kind: "partition" });
                self.faults += 1;
            }
            let connected = self.aggs[ni].partitioned_until == 0;

            // Crash: the in-memory collection buffer is lost and its
            // source homes must re-publish; the respawned aggregator sits
            // out this round's install wave.
            if chaos.crashes_agg(round, n) {
                self.tracer.emit(tr, TraceEvent::FleetFault { neighborhood: n, kind: "agg-crash" });
                self.faults += 1;
                for home in self.buffers[ni].crash() {
                    self.published[home as usize] = false;
                }
                self.aggs[ni].down = true;
                // In resident mode the crash also takes down the worker
                // co-located with this aggregator: its resident worlds
                // are lost and rebuild from `(home, seed, intel)` — the
                // pure function is the recovery story, so outcomes (and
                // thus digest and trace) are unchanged.
                if self.resident_on {
                    let wi = ni % self.workers.len();
                    let w = &mut self.workers[wi];
                    if w.resident.take().is_some() {
                        w.stats.dropped += 1;
                    }
                }
                self.tracer
                    .emit(tr, TraceEvent::FleetRecover { neighborhood: n, kind: "agg-respawn" });
                self.recoveries += 1;
            }

            if !connected {
                continue; // no flushes up, no retries pumped, no waves down
            }

            // Pump a due retry: each attempt faces the weather again,
            // backing off exponentially up to the cap.
            if self.aggs[ni].retry.as_ref().is_some_and(|r| r.due <= round) {
                let mut retry = self.aggs[ni].retry.take().expect("checked above");
                if chaos.drops_flush(round, n, retry.attempt) {
                    self.tracer
                        .emit(tr, TraceEvent::FleetFault { neighborhood: n, kind: "flush-drop" });
                    self.faults += 1;
                    retry.attempt += 1;
                    retry.due = round.saturating_add(policy.backoff(retry.attempt));
                    self.aggs[ni].retry = Some(retry);
                } else {
                    self.tracer.emit(
                        tr,
                        TraceEvent::FleetRecover { neighborhood: n, kind: "flush-retry" },
                    );
                    self.recoveries += 1;
                    surviving.push(retry.batch);
                }
            }

            // Fresh flush.
            let batch = self.buffers[ni].flush();
            if batch.is_empty() {
                continue;
            }
            if chaos.drops_flush(round, n, 0) {
                self.tracer
                    .emit(tr, TraceEvent::FleetFault { neighborhood: n, kind: "flush-drop" });
                self.faults += 1;
                if policy.retry {
                    match &mut self.aggs[ni].retry {
                        Some(r) => r.batch.extend(batch),
                        None => {
                            let due = round.saturating_add(policy.backoff(1));
                            self.aggs[ni].retry = Some(RetryState { batch, attempt: 1, due });
                        }
                    }
                }
                // `no-retry` weakness: the batch is gone — the checker's
                // `lost-discovery` invariant exists to catch exactly this.
            } else {
                if chaos.dups_flush(round, n) {
                    self.tracer
                        .emit(tr, TraceEvent::FleetFault { neighborhood: n, kind: "flush-dup" });
                    self.faults += 1;
                    self.late_dups.push((round + 1, batch.clone()));
                }
                surviving.push(batch);
            }
        }

        // Reorder: the surviving flushes reach the region rotated — a
        // metamorphic fault the canonical set-union must not notice.
        let rot = chaos.reorders(round, surviving.len());
        if rot > 0 {
            self.tracer.emit(
                tr,
                TraceEvent::FleetFault { neighborhood: rot as u32, kind: "flush-reorder" },
            );
            self.faults += 1;
            surviving.rotate_left(rot);
        }
        for batch in surviving {
            upward.extend(batch);
        }

        // Absorb once and name every newly-known signature in the trace.
        let novel = self.region.absorb_returning_novel(upward);
        let absorbed = !novel.is_empty();
        if absorbed {
            let new_epoch = self.region.epoch();
            if self.chaos.is_some() {
                for sig in &novel {
                    self.tracer
                        .emit(tr, TraceEvent::FleetAbsorb { signature: sig.id, epoch: new_epoch });
                }
            }
            for o in &mut self.outstanding {
                if o.goal.is_none() && novel.iter().any(|s| s.id == o.signature) {
                    o.goal = Some(new_epoch);
                }
            }
            let snapshot = self.region.snapshot();
            self.intel = self.interner.intern(&snapshot);
            self.snapshots.push(Some(self.intel.clone()));
        }

        // Install waves, neighborhood order. A wave is due on a fresh
        // absorb, when a delayed wave lands, or — with reconciliation —
        // whenever the neighborhood is behind (rejoined partitions,
        // crashed-out aggregators, previously missed waves).
        let goal = self.region.epoch();
        for n in 0..self.dir.neighborhoods() {
            let ni = n as usize;
            if self.aggs[ni].partitioned_until != 0 {
                continue; // cut off: no waves reach these homes
            }
            let range = self.dir.homes_of(n);
            let behind = range.clone().any(|h| self.ledger.epoch_of(h) < goal);
            let down = self.aggs[ni].down;
            let wave_due =
                self.aggs[ni].delayed_wave || (behind && !down && (absorbed || policy.reconcile));
            if wave_due {
                if !self.aggs[ni].delayed_wave && chaos.delays_install(round, n) {
                    self.tracer.emit(
                        tr,
                        TraceEvent::FleetFault { neighborhood: n, kind: "install-delay" },
                    );
                    self.faults += 1;
                    self.aggs[ni].delayed_wave = true;
                } else {
                    self.aggs[ni].delayed_wave = false;
                    let advancing =
                        range.clone().filter(|&h| self.ledger.epoch_of(h) < goal).count() as u32;
                    if advancing > 0 {
                        if self.aggs[ni].rejoined && policy.reconcile {
                            self.tracer.emit(
                                tr,
                                TraceEvent::FleetRecover {
                                    neighborhood: n,
                                    kind: "rejoin-fast-forward",
                                },
                            );
                            self.recoveries += 1;
                        }
                        self.tracer.emit(
                            tr,
                            TraceEvent::FleetBatch { neighborhood: n, installs: advancing },
                        );
                        for home in range.clone() {
                            if self.ledger.epoch_of(home) < goal {
                                self.tracer
                                    .emit(tr, TraceEvent::FleetInstall { home, epoch: goal });
                            }
                        }
                        let advanced = self.ledger.install_batch(range, goal);
                        debug_assert_eq!(advanced, advancing);
                    }
                }
            }
            self.aggs[ni].rejoined = false;
            self.aggs[ni].down = false;
        }
        self.installed_epoch = self.ledger.min_epoch();

        // Degraded accounting: retire converged discoveries, then
        // declare (once per round) if anything outstanding has blown the
        // staleness budget. `unbounded-staleness` weakness: the fleet
        // stays silent and the checker's `staleness-budget` invariant
        // fires instead.
        let ledger = &self.ledger;
        self.outstanding.retain(|o| match o.goal {
            Some(g) => !ledger.all_at_least(g),
            None => true,
        });
        let mut worst_goal: Option<u32> = None;
        for o in &self.outstanding {
            if round - o.published >= policy.staleness_budget {
                let g = o.goal.unwrap_or(goal + 1);
                worst_goal = Some(worst_goal.map_or(g, |w: u32| w.max(g)));
            }
        }
        if let Some(g) = worst_goal {
            if policy.declare_degraded {
                let waiting = if g <= goal { self.ledger.waiting_below(g) } else { self.cfg.homes };
                self.tracer.emit(tr, TraceEvent::FleetDegraded { epoch: g, waiting });
                self.degraded_rounds += 1;
            }
        }
    }

    /// Epoch GC (E26), run after every barrier: no home can ever again
    /// read a snapshot below the installed-epoch floor (ledger epochs
    /// only advance), so those entries drop their `Arc` and the interner
    /// retires allocations nothing else references. Bounds intel memory
    /// by the live epoch *window* instead of the full epoch history;
    /// idempotent and allocation-free on quiesced rounds.
    fn gc_intel(&mut self) {
        let floor = self.ledger.min_epoch();
        for e in self.snapshots.iter_mut().take(floor as usize) {
            *e = None;
        }
        self.interner.retain_shared();
    }

    /// Switch resident-world execution (E26) on or off for subsequent
    /// rounds. On (the default), each worker keeps a persistent world,
    /// takes intel epochs as delta installs, and rebinds per home; a
    /// scenario whose template cannot run resident
    /// ([`iotsec::world::World::supports_resident`]) rebuilds per home
    /// on its own. Off is the rebuild-per-round reference the
    /// equivalence oracles compare against — same digest, same trace,
    /// every home a [`HomeWorld::run_home`]. Turning residency off
    /// leaves parked worlds in place; they are simply not used.
    pub fn set_resident(&mut self, on: bool) {
        self.resident_on = on;
    }

    /// Queue out-of-band intel for the next barrier's upward flow, as if
    /// a neighborhood had flushed it (deduplicated by the region's
    /// canonical union exactly like any discovery). The epoch-churn
    /// driver for `bench::exp_resident` and the resident proptests.
    pub fn inject_intel(&mut self, sigs: Vec<AttackSignature>) {
        self.feed.extend(sigs);
    }

    /// Cumulative `(memo hits, memo misses)` across all workers.
    fn memo_counts(&self) -> (u64, u64) {
        self.workers.iter().fold((0, 0), |(h, m), w| (h + w.hits, m + w.misses))
    }

    /// Aggregated resident-pool stats across all workers.
    pub fn resident_stats(&self) -> ResidentStats {
        let mut total = ResidentStats::default();
        for w in &self.workers {
            total.merge(&w.stats);
        }
        total
    }

    /// Every published discovery absorbed, every retry drained, and
    /// every home at the region epoch. Chaos-off this is trivially true
    /// after any absorbing round's barrier.
    pub fn converged(&self) -> bool {
        self.outstanding.is_empty()
            && self.ledger.all_at_least(self.region.epoch())
            && self.aggs.iter().all(|a| a.retry.is_none())
            && self.late_dups.is_empty()
    }

    /// Run `rounds` rounds and return the cumulative report.
    pub fn run(&mut self, rounds: u32) -> FleetReport {
        for _ in 0..rounds {
            self.round();
        }
        self.report()
    }

    /// The cumulative report so far.
    pub fn report(&self) -> FleetReport {
        let (memo_hits, memo_misses) = self.memo_counts();
        FleetReport {
            homes: self.cfg.homes,
            rounds: self.round,
            digest: self.digest.finish(),
            epoch: self.installed_epoch,
            intel_len: self.intel.len(),
            discoveries: self.discoveries,
            installs: self.ledger.installs(),
            batches: self.ledger.batches(),
            memo_hits,
            memo_misses,
            // GC-invariant: live + retired, i.e. exactly the pre-GC
            // distinct count, so epoch GC never changes reported dedup.
            interned: self.interner.distinct_total(),
            events: self.events,
            blocks: self.blocks,
            compromised: self.compromised,
            leaked: self.leaked,
            flagged: self.flagged,
            faults: self.faults,
            recoveries: self.recoveries,
            degraded_rounds: self.degraded_rounds,
            converged: self.converged(),
        }
    }

    /// The chained fleet digest after the rounds run so far.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Home `home`'s outcome from the most recent round.
    pub fn outcome(&self, home: u32) -> HomeOutcome {
        let slot = &self.slots[home as usize];
        assert!(slot.ran, "no round has run yet");
        slot.out
    }

    /// The currently installed interned intel snapshot. Every home
    /// shares this exact allocation (`Arc::ptr_eq`-comparable).
    pub fn intel(&self) -> &Arc<[AttackSignature]> {
        &self.intel
    }

    /// The epoch installed at one home (per the ledger).
    pub fn installed_at(&self, home: u32) -> u32 {
        self.ledger.epoch_of(home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::registry::Sku;
    use iotlearn::signature::{Matcher, Severity};

    /// A synthetic scenario: outcome digest mixes `(seed, intel len)`;
    /// homes divisible by `stride` discover once attacked (attacked =
    /// intel empty).
    struct Synthetic {
        stride: u32,
    }

    impl HomeWorld for Synthetic {
        type Resident = ();

        fn run_home(&self, home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
            let mut h = Fnv64::new();
            h.write_u64(seed);
            h.write_u64(intel.len() as u64);
            let attacked = intel.is_empty();
            HomeOutcome {
                digest: h.finish(),
                compromised: u32::from(attacked),
                leaked: 0,
                blocks: u64::from(!attacked),
                events: 10,
                discovered: attacked && home.is_multiple_of(self.stride),
                flagged: 0,
            }
        }

        fn discovery(&self, _home: u32) -> Option<AttackSignature> {
            Some(AttackSignature::new(
                Sku::new("v", "m", "1"),
                "default-credentials",
                Matcher::MatchAll,
                Severity::Medium,
            ))
        }
    }

    /// Shapes for the thread-invariance tests: 13 chunks (so 16 workers
    /// leave some idle) and a fleet smaller than one chunk.
    const SHAPES: [(u32, u32); 2] = [(37, 3), (2, 3)];

    #[test]
    fn serial_and_parallel_digests_match() {
        for (homes, chunk) in SHAPES {
            let run = |threads: usize| {
                let cfg = FleetConfig { homes, neighborhood: 5, chunk, threads, seed: 7 };
                Fleet::new(Synthetic { stride: 10 }, cfg).run(3)
            };
            let serial = run(1);
            for threads in [2usize, 4, 16] {
                assert_eq!(run(threads), serial, "homes={homes} threads={threads}");
            }
        }
    }

    #[test]
    fn discovery_propagates_in_one_round() {
        let cfg = FleetConfig { homes: 12, neighborhood: 4, chunk: 2, threads: 1, seed: 1 };
        let mut fleet = Fleet::new(Synthetic { stride: 12 }, cfg);
        let r0 = fleet.round();
        // Round 0: everyone attacked, home 0 discovers, installs land at
        // the barrier.
        assert_eq!(r0.discoveries, 1);
        assert_eq!(r0.epoch, 1);
        assert_eq!(r0.installs, 12);
        for home in 0..12 {
            assert_eq!(fleet.installed_at(home), 1);
        }
        // Round 1: everyone defended, nothing new.
        let r1 = fleet.round();
        assert_eq!(r1.discoveries, 0);
        assert_eq!(r1.installs, 0);
        assert_eq!(fleet.outcome(0).blocks, 1);
        // Round 2: fully memoized.
        let r2 = fleet.round();
        assert_eq!(r2.executed, 0);
        assert_eq!(r2.memo_hits, 12);
    }

    /// Resident dispatch — what a fleet does unless told otherwise —
    /// must produce the same report as the rebuild reference at every
    /// thread count, even when the scenario only implements the
    /// fallback (`Resident = ()` ⇒ every run is a full build).
    #[test]
    fn resident_dispatch_matches_rebuild_at_every_thread_count() {
        for (homes, chunk) in SHAPES {
            let cfg = FleetConfig { homes, neighborhood: 5, chunk, threads: 1, seed: 7 };
            let mut rebuild = Fleet::new(Synthetic { stride: 10 }, cfg);
            rebuild.set_resident(false);
            let baseline = rebuild.run(3);
            assert_eq!(rebuild.resident_stats(), ResidentStats::default());
            for threads in [1usize, 2, 4, 16] {
                let mut fleet = Fleet::new(Synthetic { stride: 10 }, cfg.with_threads(threads));
                let report = fleet.run(3);
                assert_eq!(report, baseline, "homes={homes} threads={threads}");
                let stats = fleet.resident_stats();
                assert_eq!(stats.resident_runs, 0, "fallback scenario never goes resident");
                assert!(stats.full_builds > 0);
            }
        }
    }

    #[test]
    fn memo_serves_quiesced_rounds() {
        let cfg = FleetConfig { homes: 8, neighborhood: 8, chunk: 8, threads: 1, seed: 3 };
        let mut fleet = Fleet::new(Synthetic { stride: 1 }, cfg);
        fleet.run(4);
        let report = fleet.report();
        // Round 0 (epoch 0) and round 1 (epoch 1) execute; rounds 2-3
        // are pure memo hits.
        assert_eq!(report.memo_misses, 16);
        assert_eq!(report.memo_hits, 16);
        assert_eq!(report.interned, 1);
    }

    // ---- E25 chaos / recovery ---------------------------------------

    use crate::chaos::RecoveryPolicy;
    use crate::safety::{check_fleet_trace, FleetTraceSpec};
    use trace::tracer::TraceConfig;

    const CHAOS_ROUNDS: u32 = 24;

    fn chaos_cfg(seed: u64) -> FleetConfig {
        FleetConfig { homes: 24, neighborhood: 4, chunk: 3, threads: 1, seed }
    }

    /// Run a chaos-on fleet with a trace attached; return the fleet and
    /// its event stream.
    fn run_chaos(
        cfg: FleetConfig,
        chaos: FleetChaos,
        rounds: u32,
    ) -> (Fleet<Synthetic>, Vec<(u64, TraceEvent)>) {
        let tracer = Tracer::new(TraceConfig::control_only());
        let mut fleet = Fleet::with_chaos(Synthetic { stride: 24 }, cfg, chaos, tracer.clone());
        fleet.run(rounds);
        (fleet, tracer.events())
    }

    fn spec_for(cfg: &FleetConfig, chaos: &FleetChaos, rounds: u32) -> FleetTraceSpec {
        FleetTraceSpec {
            homes: cfg.homes,
            rounds,
            staleness_budget: chaos.policy.staleness_budget,
            grace: 2,
        }
    }

    /// A schedule with every probability at zero is the clean fleet:
    /// same report, same events apart from the `fleet-absorb` lines only
    /// an attached schedule emits. This is what licenses running
    /// chaos-off fleets through the one barrier.
    #[test]
    fn zero_intensity_chaos_matches_the_clean_fleet() {
        let calm = FleetChaos { seed: 99, ..FleetChaos::calm() };
        let cfg = chaos_cfg(7);
        let tracer = Tracer::new(TraceConfig::control_only());
        let mut clean = Fleet::with_tracer(Synthetic { stride: 24 }, cfg, tracer.clone());
        let clean_report = clean.run(CHAOS_ROUNDS);
        let (chaotic, mut events) = run_chaos(cfg, calm, CHAOS_ROUNDS);
        assert_eq!(chaotic.report(), clean_report);
        assert_eq!(clean_report.faults, 0);
        assert!(chaotic.converged());
        let with_absorbs = events.len();
        events.retain(|(_, e)| !matches!(e, TraceEvent::FleetAbsorb { .. }));
        assert!(events.len() < with_absorbs, "the attached schedule must name its absorbs");
        assert_eq!(events, tracer.events());
    }

    /// The acceptance core: chaos-on runs are byte-identical across
    /// thread counts and reruns (every fault decision is rolled serially
    /// on the coordinator).
    #[test]
    fn chaos_reports_are_thread_invariant_and_rerun_stable() {
        for chaos_seed in [1u64, 2, 3] {
            let chaos = FleetChaos::new(chaos_seed);
            let (reference, _) = run_chaos(chaos_cfg(7), chaos, CHAOS_ROUNDS);
            let reference = reference.report();
            let (rerun, _) = run_chaos(chaos_cfg(7), chaos, CHAOS_ROUNDS);
            assert_eq!(rerun.report(), reference, "rerun diverged (chaos seed {chaos_seed})");
            for threads in [2usize, 4] {
                let (par, _) = run_chaos(chaos_cfg(7).with_threads(threads), chaos, CHAOS_ROUNDS);
                assert_eq!(
                    par.report(),
                    reference,
                    "{threads}-thread run diverged (chaos seed {chaos_seed})"
                );
            }
        }
    }

    /// With the full recovery stack the fleet rides out real fault
    /// weather: it converges and the trace checker finds nothing.
    #[test]
    fn standard_policy_recovers_and_passes_the_checker() {
        let mut exercised = 0u64;
        for chaos_seed in 0..8u64 {
            let chaos = FleetChaos::new(chaos_seed);
            let cfg = chaos_cfg(7);
            let (fleet, events) = run_chaos(cfg, chaos, CHAOS_ROUNDS);
            exercised += fleet.report().faults;
            assert!(fleet.converged(), "fleet did not converge (chaos seed {chaos_seed})");
            let violations = check_fleet_trace(&events, &spec_for(&cfg, &chaos, CHAOS_ROUNDS));
            assert!(
                violations.is_empty(),
                "checker flagged a recovered run (chaos seed {chaos_seed}): {violations:?}"
            );
        }
        assert!(exercised > 0, "no faults fired across any seed — schedule too calm to test");
    }

    /// The `no-retry` seeded weakness: with every flush dropped and no
    /// retries, the sentinel's discovery never reaches the region and
    /// the checker reports it lost. The standard policy is hammered by
    /// the same total-loss weather, so this arm contrasts against the
    /// zero-intensity clean run instead.
    #[test]
    fn no_retry_weakness_loses_the_discovery() {
        let chaos = FleetChaos {
            drop_pm: 1000,
            dup_pm: 0,
            reorder_pm: 0,
            crash_pm: 0,
            partition_pm: 0,
            delay_pm: 0,
            ..FleetChaos::new(5)
        }
        .with_policy(RecoveryPolicy::no_retry());
        let cfg = chaos_cfg(7);
        let (fleet, events) = run_chaos(cfg, chaos, CHAOS_ROUNDS);
        assert!(!fleet.converged());
        let violations = check_fleet_trace(&events, &spec_for(&cfg, &chaos, CHAOS_ROUNDS));
        assert!(
            violations.iter().any(|v| v.invariant == "lost-discovery"),
            "expected lost-discovery, got {violations:?}"
        );
    }

    /// The `no-reconcile` seeded weakness: a neighborhood partitioned
    /// across the fleet's only absorbing round rejoins to silence —
    /// nothing new is ever absorbed, so without reconciliation its homes
    /// stay at epoch 0 forever and the checker reports them
    /// unrecovered. The standard policy on the identical schedule
    /// fast-forwards them and stays clean.
    #[test]
    fn no_reconcile_weakness_leaves_rejoined_homes_behind() {
        let mut demonstrated = false;
        for chaos_seed in 0..64u64 {
            // Faults confined to the first 4 rounds so the checker's
            // post-fault convergence window opens; the weakness is that
            // rejoined neighborhoods never converge even in the calm.
            let chaos = FleetChaos {
                drop_pm: 0,
                dup_pm: 0,
                reorder_pm: 0,
                crash_pm: 0,
                partition_pm: 400,
                partition_rounds: 2,
                delay_pm: 0,
                ..FleetChaos::new(chaos_seed)
            }
            .with_horizon(4);
            let cfg = chaos_cfg(7);
            let weak = chaos
                .with_policy(RecoveryPolicy { reconcile: false, ..RecoveryPolicy::standard() });
            let (fleet, events) = run_chaos(cfg, weak, CHAOS_ROUNDS);
            let violations = check_fleet_trace(&events, &spec_for(&cfg, &weak, CHAOS_ROUNDS));
            if violations.iter().any(|v| v.invariant == "unrecovered") {
                assert!(!fleet.converged());
                // The full stack rides out the identical schedule.
                let (sound, sound_events) = run_chaos(cfg, chaos, CHAOS_ROUNDS);
                assert!(sound.converged(), "standard policy failed (chaos seed {chaos_seed})");
                let sound_violations =
                    check_fleet_trace(&sound_events, &spec_for(&cfg, &chaos, CHAOS_ROUNDS));
                assert!(sound_violations.is_empty(), "{sound_violations:?}");
                demonstrated = true;
                break;
            }
        }
        assert!(demonstrated, "no schedule in the scan demonstrated the weakness");
    }

    /// The `unbounded-staleness` seeded weakness: a long partition keeps
    /// homes behind past the budget; the sound policy declares degraded
    /// mode every overdue round, the weakened one stays silent and the
    /// checker reports the blown budget.
    #[test]
    fn unbounded_staleness_weakness_blows_the_budget_silently() {
        let tight = RecoveryPolicy { staleness_budget: 1, ..RecoveryPolicy::standard() };
        let silent = RecoveryPolicy { declare_degraded: false, ..tight };
        let mut demonstrated = false;
        for chaos_seed in 0..64u64 {
            let chaos = FleetChaos {
                drop_pm: 0,
                dup_pm: 0,
                reorder_pm: 0,
                crash_pm: 0,
                partition_pm: 300,
                partition_rounds: 4,
                delay_pm: 0,
                ..FleetChaos::new(chaos_seed)
            };
            let cfg = chaos_cfg(7);
            let weak = chaos.with_policy(silent);
            let (_, events) = run_chaos(cfg, weak, CHAOS_ROUNDS);
            let violations = check_fleet_trace(&events, &spec_for(&cfg, &weak, CHAOS_ROUNDS));
            if violations.iter().any(|v| v.invariant == "staleness-budget") {
                // Same weather, declarations on: the budget overrun is
                // announced, so the checker stays quiet.
                let sound = chaos.with_policy(tight);
                let (fleet, sound_events) = run_chaos(cfg, sound, CHAOS_ROUNDS);
                assert!(fleet.report().degraded_rounds > 0);
                let sound_violations =
                    check_fleet_trace(&sound_events, &spec_for(&cfg, &sound, CHAOS_ROUNDS));
                assert!(sound_violations.is_empty(), "{sound_violations:?}");
                demonstrated = true;
                break;
            }
        }
        assert!(demonstrated, "no schedule in the scan demonstrated the weakness");
    }

    /// Crash-and-republish: an aggregator crash wipes its buffer before
    /// that round's flush, losing the sentinel's buffered report — but
    /// the cleared `published` flag makes the home republish from its
    /// memoized outcome next round, so the discovery still lands. A
    /// republication shows up as a second `fleet-discovery` for the same
    /// home.
    #[test]
    fn aggregator_crash_republishes_lost_reports() {
        let mut demonstrated = false;
        for chaos_seed in 0..64u64 {
            let chaos = FleetChaos {
                drop_pm: 0,
                dup_pm: 0,
                reorder_pm: 0,
                crash_pm: 400,
                partition_pm: 0,
                delay_pm: 0,
                ..FleetChaos::new(chaos_seed)
            };
            let cfg = chaos_cfg(7);
            let (fleet, events) = run_chaos(cfg, chaos, CHAOS_ROUNDS);
            let republications = events
                .iter()
                .filter(|(_, e)| matches!(e, TraceEvent::FleetDiscovery { home: 0, .. }))
                .count();
            if republications >= 2 {
                assert!(fleet.converged(), "republished discovery never landed");
                let violations = check_fleet_trace(&events, &spec_for(&cfg, &chaos, CHAOS_ROUNDS));
                assert!(violations.is_empty(), "{violations:?}");
                demonstrated = true;
                break;
            }
        }
        assert!(demonstrated, "no schedule in the scan crashed a loaded aggregator");
    }
}
