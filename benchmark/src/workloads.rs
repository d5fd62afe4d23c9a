//! The five workloads as repeatable *episodes*.
//!
//! An episode is a fixed amount of work: set-up (inputs generated from
//! the seed, fleets built and warmed), then a timed window of a fixed
//! number of ops. Work is fixed by count, so an episode's simulated
//! statistics and digest repeat exactly and op `i` is the same work in
//! every episode of a run; a leg repeats whole episodes until its share of
//! `--seconds` is spent, which gives every op and the set-up many
//! repetitions to take a floor over (see `run.rs`). The workload name
//! selects sizes and a round script here and nowhere else — the library
//! only ever sees the generated inputs.

use crate::adapter::{self, ExploreOut, FleetRun, FleetShape, FleetTotals, HomeInput, HomeStats};
use crate::alloc;
use crate::spans::SpanSink;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HomePackets,
    FleetChurn,
    FleetQuiet,
    FleetChaos,
    SpaceExplore,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HomePackets,
        Workload::FleetChurn,
        Workload::FleetQuiet,
        Workload::FleetChaos,
        Workload::SpaceExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HomePackets => "home_packets",
            Workload::FleetChurn => "fleet_churn",
            Workload::FleetQuiet => "fleet_quiet",
            Workload::FleetChaos => "fleet_chaos",
            Workload::SpaceExplore => "space_explore",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `work_per_s` counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::HomePackets => "homes",
            Workload::FleetChurn | Workload::FleetQuiet => "home-rounds",
            Workload::FleetChaos => "executed home-rounds",
            Workload::SpaceExplore => "states",
        }
    }

    /// What one op is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::HomePackets => "one cold home",
            Workload::FleetChurn | Workload::FleetQuiet | Workload::FleetChaos => "one fleet round",
            Workload::SpaceExplore => "one sweep + BFS",
        }
    }

    /// Whether the library runs this workload on its own worker threads.
    /// A cold home is one single-threaded world, so it has no `_t2` leg.
    pub fn has_workers(self) -> bool {
        self != Workload::HomePackets
    }

    /// The percentile of an episode's op floors that `op_tail_us` reports:
    /// the highest of p90/p99 that leaves ten ops beyond it where an
    /// episode has that many (128 homes, 1 000 quiet rounds), p90 of the
    /// 12 or 25 rounds of the other fleets, and the one op of a sweep.
    pub fn tail(self) -> f64 {
        match self {
            Workload::FleetQuiet => 0.99,
            Workload::HomePackets | Workload::FleetChurn | Workload::FleetChaos => 0.90,
            Workload::SpaceExplore => 1.0,
        }
    }
}

/// How much work one episode of each workload holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// home_packets: homes per episode.
    pub home_block: u32,
    /// fleet_churn: homes, timed rounds.
    pub churn: (u32, u32),
    /// fleet_quiet: homes, timed rounds.
    pub quiet: (u32, u32),
    /// fleet_chaos: homes, homes per neighborhood, weather rounds, round cap.
    pub chaos: (u32, u32, u32, u32),
    /// space_explore: cameras swept, cameras of the pre-flight sweep.
    pub explore: (u32, u32),
}

impl Sizes {
    /// The measured configuration: episodes of 25–130 ms on the builder's
    /// host, ops of 0.06–25 ms, so a 20 s run repeats every op 70–500
    /// times and its floor has settled.
    pub const FULL: Sizes = Sizes {
        home_block: 128,
        churn: (128, 12),
        quiet: (1000, 1000),
        chaos: (100, 10, 24, 72),
        explore: (9, 8),
    };

    /// Homes in `w`'s fleet (0 when the workload has no fleet).
    pub fn fleet_homes(&self, w: Workload) -> u32 {
        match w {
            Workload::FleetChurn => self.churn.0,
            Workload::FleetQuiet => self.quiet.0,
            Workload::FleetChaos => self.chaos.0,
            Workload::HomePackets | Workload::SpaceExplore => 0,
        }
    }

    /// Same scripts at smoke-test size.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        home_block: 4,
        churn: (24, 3),
        quiet: (48, 8),
        chaos: (40, 10, 6, 40),
        explore: (6, 4),
    };
}

/// One episode's measurements. Times are host nanoseconds; everything
/// else is simulated and repeats exactly.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    pub setup_ns: u64,
    /// Per-op latency, in op order. Ops tile the timed window: each
    /// starts where the previous one ended.
    pub ops_ns: Vec<u64>,
    /// Work units completed in the window.
    pub units: u64,
    /// Simulation events processed in the window.
    pub events: u64,
    /// Heap bytes requested in the window (meaningful on serial legs).
    pub alloc_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Must agree across every leg and rerun, and with `golden.json` at
    /// the default seed.
    pub digest: String,
    /// A fixed point shared with a checked-in `BENCH_E*.json`.
    pub anchor: String,
    /// Deterministic per-layer counters, by metric name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Episode {
    /// Wall of the timed window.
    pub fn window_ns(&self) -> u64 {
        self.ops_ns.iter().sum()
    }
}

/// Run one episode of `w` at `threads` workers (1 = serial).
pub fn episode(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    threads: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Episode {
    match w {
        Workload::HomePackets => home_packets(sizes.home_block, seed, sink),
        Workload::FleetChurn => fleet_churn(sizes.churn, seed, threads, sink),
        Workload::FleetQuiet => fleet_quiet(sizes.quiet, seed, threads, sink),
        Workload::FleetChaos => fleet_chaos(sizes.chaos, seed, threads, sink),
        Workload::SpaceExplore => space_explore(sizes.explore, threads, sink),
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Spans and their counters cover the timed window only; set-up has its
/// own metric.
fn record(sink: Option<&Arc<SpanSink>>, on: bool) {
    if let Some(sink) = sink {
        sink.set_recording(on);
    }
}

/// Op latencies that tile the timed window: every lap ends where the
/// next one begins, so nothing in the window goes untimed.
struct Laps {
    last: Instant,
    ns: Vec<u64>,
}

impl Laps {
    fn start(ops: usize) -> Laps {
        Laps { ns: Vec::with_capacity(ops), last: Instant::now() }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.ns.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// Run `body` as the timed window of at most `ops` ops: spans on, this
/// thread's allocation counter read around it. `body` calls `lap` after
/// each op. Returns `(result, op latencies, bytes)`.
fn window<T>(
    sink: Option<&Arc<SpanSink>>,
    ops: usize,
    body: impl FnOnce(&mut Laps) -> T,
) -> (T, Vec<u64>, u64) {
    record(sink, true);
    let mut laps = Laps::start(ops);
    let alloc_before = alloc::bytes();
    let out = body(&mut laps);
    let alloc_bytes = alloc::bytes() - alloc_before;
    record(sink, false);
    (out, laps.ns, alloc_bytes)
}

fn home_packets(block: u32, seed: u64, sink: Option<&Arc<SpanSink>>) -> Episode {
    let t = Instant::now();
    let inputs: Vec<HomeInput> =
        (0..block).map(|i| adapter::home_input(seed + u64::from(i))).collect();
    let setup_ns = ns(t);

    let sink_ref = sink.map(Arc::as_ref);
    let (homes, ops_ns, alloc_bytes) = window(sink, inputs.len(), |laps| -> Vec<HomeStats> {
        let mut homes = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            homes.push(adapter::run_cold_home(input, i as u32, sink_ref));
            laps.lap();
        }
        homes
    });

    let first = homes.first().copied().unwrap_or_default();
    let digests: Vec<u64> = homes.iter().map(HomeStats::digest).collect();
    Episode {
        setup_ns,
        ops_ns,
        units: u64::from(block),
        events: homes.iter().map(|h| h.events).sum(),
        alloc_bytes,
        attempted: u64::from(block),
        failed: homes.iter().filter(|h| h.failed()).count() as u64,
        digest: format!("{:016x}", adapter::digest_words(&digests)),
        anchor: format!(
            "ev={} cl={} ch={} ub={}",
            first.events, first.cache_lookups, first.cache_hits, first.blocks
        ),
        // Per-home counters come from the traced run's span sink.
        counts: Vec::new(),
    }
}

/// The counters every fleet episode reports: what the timed window
/// added to the fleet's totals.
fn fleet_counts(before: &FleetTotals, after: &FleetTotals) -> Vec<(&'static str, f64)> {
    let d = |f: fn(&FleetTotals) -> u64| (f(after) - f(before)) as f64;
    let (hits, misses) = (d(|t| t.memo_hits), d(|t| t.memo_misses));
    vec![
        ("fleet.memo_hits", hits),
        ("fleet.memo_misses", misses),
        ("fleet.memo_hit_rate", crate::stats::ratio(hits, hits + misses)),
        ("fleet.full_builds", d(|t| t.full_builds)),
        ("fleet.resident_runs", d(|t| t.resident_runs)),
        ("fleet.delta_installs", d(|t| t.delta_installs)),
        ("fleet.noop_installs", d(|t| t.noop_installs)),
        ("fleet.policy_recompiles", d(|t| t.policy_recompiles)),
        ("fleet.resident_dropped", d(|t| t.resident_dropped)),
        ("fleet.faults", d(|t| t.faults)),
        ("fleet.recoveries", d(|t| t.recoveries)),
        ("fleet.degraded_rounds", d(|t| t.degraded_rounds)),
    ]
}

fn fleet_churn(
    (homes, rounds): (u32, u32),
    seed: u64,
    threads: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Episode {
    // Set-up: build, the breach round, the first defended round. Each
    // signature enters the feed one round before the round that must run
    // at its epoch, so every timed round misses the memo.
    let t = Instant::now();
    let shape = FleetShape { homes, neighborhood: 100, threads, seed, chaos: None };
    let mut fleet = FleetRun::new(shape, sink.cloned());
    fleet.round();
    fleet.inject();
    fleet.round();
    let setup_ns = ns(t);

    let before = fleet.totals();
    let mut executed = 0u64;
    let ((), ops_ns, alloc_bytes) = window(sink, rounds as usize, |laps| {
        for _ in 0..rounds {
            fleet.inject();
            executed += u64::from(fleet.round());
            laps.lap();
        }
    });
    let after = fleet.totals();
    Episode {
        setup_ns,
        ops_ns,
        units: executed,
        events: after.events - before.events,
        alloc_bytes,
        attempted: u64::from(homes) * u64::from(rounds),
        // After warm-up every home is defended: a leak is a failed
        // home-round, and so is a home the memo served stale.
        failed: (after.leaked - before.leaked) + (u64::from(homes) * u64::from(rounds) - executed),
        digest: format!("{:016x}", after.digest),
        anchor: String::new(),
        counts: fleet_counts(&before, &after),
    }
}

fn fleet_quiet(
    (homes, rounds): (u32, u32),
    seed: u64,
    threads: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Episode {
    // Set-up: build, breach, first defended round, first memoized round.
    let t = Instant::now();
    let shape = FleetShape { homes, neighborhood: 100, threads, seed, chaos: None };
    let mut fleet = FleetRun::new(shape, sink.cloned());
    for _ in 0..3 {
        fleet.round();
    }
    let setup_ns = ns(t);

    let before = fleet.totals();
    let mut busy_rounds = 0u64;
    let ((), ops_ns, alloc_bytes) = window(sink, rounds as usize, |laps| {
        for _ in 0..rounds {
            busy_rounds += u64::from(fleet.round() != 0);
            laps.lap();
        }
    });
    let after = fleet.totals();
    Episode {
        setup_ns,
        ops_ns,
        units: u64::from(homes) * u64::from(rounds),
        events: 0,
        alloc_bytes,
        attempted: u64::from(rounds),
        // A quiesced round that executed any world did not bypass them.
        failed: busy_rounds,
        digest: format!("{:016x}", after.digest),
        anchor: String::new(),
        counts: fleet_counts(&before, &after),
    }
}

fn fleet_chaos(
    (homes, neighborhood, horizon, cap): (u32, u32, u32, u32),
    seed: u64,
    threads: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Episode {
    // The weather is part of the workload's shape, like its size: every
    // seed meets the same fault schedule with differently seeded homes.
    // A schedule per seed moves the homes a round executes in steps of a
    // whole neighborhood, which no amount of repetition averages out of
    // the per-round latencies.
    let chaos = Some((crate::DEFAULT_SEED ^ 0xE25, horizon));
    // Set-up: build plus the first weather round (every slot cold).
    let t = Instant::now();
    let shape = FleetShape { homes, neighborhood, threads, seed, chaos };
    let mut fleet = FleetRun::new(shape, sink.cloned());
    fleet.inject();
    fleet.round();
    let setup_ns = ns(t);

    // One novel signature per weather round, then calm rounds until the
    // fleet reports convergence.
    let before = fleet.totals();
    let mut executed = 0u64;
    let ((), ops_ns, alloc_bytes) = window(sink, cap as usize, |laps| {
        let mut round = 1;
        while round < cap && (round < horizon || !fleet.converged()) {
            if round < horizon {
                fleet.inject();
            }
            executed += u64::from(fleet.round());
            laps.lap();
            round += 1;
        }
    });
    let after = fleet.totals();

    // Judged after the window, but still a span of the traced run.
    record(sink, true);
    let violations = fleet.check_trace();
    record(sink, false);
    let clean = after.converged && violations == 0;
    let mut counts = fleet_counts(&before, &after);
    counts.push(("fleet.converge_rounds", f64::from(after.rounds)));
    counts.push(("trace.events_per_round", fleet.trace_events() as f64 / f64::from(after.rounds)));
    Episode {
        setup_ns,
        units: executed,
        events: after.events - before.events,
        alloc_bytes,
        attempted: ops_ns.len() as u64,
        // Unconverged or checker-dirty: no round of the episode counts.
        failed: if clean { 0 } else { ops_ns.len() as u64 },
        ops_ns,
        digest: format!(
            "{:016x} rounds={} faults={} recoveries={} violations={violations}",
            after.digest, after.rounds, after.faults, after.recoveries
        ),
        anchor: String::new(),
        counts,
    }
}

fn space_explore(
    (cameras, preflight): (u32, u32),
    threads: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Episode {
    // Set-up: compile both policies and explore the small one once — the
    // pre-flight whose digest line `BENCH_E19.json` already pins.
    let t = Instant::now();
    let policy = adapter::explore_policy(cameras);
    let small = adapter::explore_once(&adapter::explore_policy(preflight), 1, None);
    let setup_ns = ns(t);

    let (ExploreOut { states, classes, digest }, ops_ns, alloc_bytes) = window(sink, 1, |laps| {
        let out = adapter::explore_once(&policy, threads, sink.map(Arc::as_ref));
        laps.lap();
        out
    });
    Episode {
        setup_ns,
        ops_ns,
        units: states,
        events: 0,
        alloc_bytes,
        attempted: 1,
        failed: u64::from(states == 0 || classes == 0),
        digest,
        anchor: small.digest,
        counts: vec![
            ("iotpolicy.explore.states", states as f64),
            ("iotpolicy.explore.classes", classes as f64),
        ],
    }
}
