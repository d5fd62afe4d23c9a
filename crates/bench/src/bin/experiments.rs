//! The experiment runner: regenerates every table and figure of the
//! paper plus the quantitative E-series.
//!
//! ```text
//! cargo run --release -p iotsec-bench --bin experiments            # all
//! cargo run --release -p iotsec-bench --bin experiments table1     # one
//! cargo run --release -p iotsec-bench --bin experiments e16 --threads 4
//! cargo run --release -p iotsec-bench --bin experiments --trace    # E17 trace harness
//! ```
//!
//! `--homes N` / `--rounds N` override the fleet-shaped arms'
//! (e20/e25/e26) population and round count for ad-hoc scaling runs —
//! leave them off when regenerating the checked-in BENCH_*.json files,
//! which CI byte-compares at the committed defaults.
//! `--threads N` sets the worker count for the E16 parallel sweep. If
//! E16's parallel digests diverge from the serial reference the process
//! exits non-zero — the CI perf-smoke job depends on that. The `e18` arm
//! always writes `BENCH_E18.json` (sim-time metrics only, so the file
//! is byte-stable) and exits non-zero on any safety-gate failure — the
//! CI safety-gate job depends on *that*. The `e19` arm always writes
//! `BENCH_E19.json` (stable digests plus a `wall_ms`-marked volatile
//! timing section) and exits non-zero if any state-space engine
//! diverges from the serial packed reference — the CI state-space-gate
//! job depends on that. The `e20` arm always writes `BENCH_E20.json`
//! (stable fleet digest, propagation counters and leg agreement plus a
//! `wall_ms` volatile section carrying homes/sec, directives/sec and
//! bytes/home) and exits non-zero if any fleet leg — serial rerun or
//! chunk-parallel — diverges from the serial reference, or if
//! the one-discovery → fleet-wide-install propagation fact fails — the
//! CI fleet-gate job depends on that. The `e21` arm always writes `BENCH_E21.json`
//! (stable sweep digests, engine counters and the steady-state
//! allocation verdict plus a `wall_ms` volatile timing section) and
//! exits non-zero if the timed serial sweep fails to reproduce the
//! reference digests, or if the steady state allocates at all (this
//! binary installs a counting global allocator so E21 can measure
//! allocs/event for real) — the CI engine-gate job depends on that.
//! The `e23` arm always writes `BENCH_E23.json`
//! (stable campaign fingerprint and shrink statistics plus a `wall_ms`
//! volatile line) and exits non-zero if the vet campaign finds a
//! violation or a vacuous scenario, if the parallel sweep diverges from
//! the serial reference, or if the weakened-defense arm fails to
//! produce a shrinkable violation — the CI vet-gate job depends on
//! that. The `e25` arm always writes `BENCH_E25.json` (stable per-cell
//! convergence rounds, digests and fault/recovery counters plus a
//! `wall_ms` volatile section) and exits non-zero if any chaos cell
//! fails to recover by the deadline, trips the fleet trace checker, or
//! diverges on rerun — the CI fleet-chaos-gate job depends on that.
//! The `e26` arm always writes `BENCH_E26.json` (stable per-arm fleet
//! digests, memo and resident-stats counters plus a `wall_ms` volatile
//! section carrying steady-state homes/sec, bytes/home-round and the
//! rebuild-vs-resident ratios) and exits non-zero if any resident leg
//! diverges from its rebuild reference or the churn arms fail the
//! amortization gate — the CI resident-gate job depends on that.

use iotsec_bench::report::emit;
use iotsec_bench::{
    exp_anomaly, exp_chaos, exp_crowd, exp_ctl, exp_engine, exp_fleet, exp_fleet_chaos, exp_models,
    exp_perf, exp_pipeline, exp_policy, exp_resident, exp_safety, exp_space, exp_trace, exp_umbox,
    exp_vet, exp_world, Table, SEED,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator: E21's steady-state probe reads this to pin
/// allocs/event for real (the library crates are `#![forbid(unsafe_code)]`,
/// so the counter lives in the binary, mirroring `tests/alloc_counter.rs`).
/// Counts allocations and reallocations; frees are irrelevant to the
/// zero-alloc claim.
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

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// What the command line hands an experiment: `--threads N`, and the
/// fleet-shaped arms' (e20/e25/e26) `--homes N` / `--rounds N`
/// overrides, where `None` keeps the experiment's committed default
/// (the byte-stable configuration CI gates on).
struct Ctx {
    threads: usize,
    homes: Option<u32>,
    rounds: Option<u32>,
}

/// Runs one experiment to completion; returns whether its gate held
/// ([`Report::passed`]; a plain table always passes).
///
/// [`Report::passed`]: iotsec_bench::report::Report::passed
type Run = fn(&Ctx) -> bool;

/// An experiment's id and aliases, and how to run it.
type Experiment = (&'static [&'static str], Run);

fn print(tables: impl IntoIterator<Item = Table>) -> bool {
    tables.into_iter().for_each(|t| t.print());
    true
}

/// Every experiment, in `all` order: its id, its aliases, how to run it.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1", "t1"], |_| print([exp_world::table1()])),
    (&["table2", "t2"], |_| print([exp_policy::table2(SEED)])),
    (&["fig3", "f3"], |_| print([exp_world::figure3()])),
    (&["fig4", "f4"], |_| print([exp_world::figure4()])),
    (&["fig5", "f5"], |_| print([exp_world::figure5()])),
    (&["state_space", "e1"], |_| print([exp_policy::state_space()])),
    (&["state_space_ablation", "a1"], |_| print([exp_policy::state_space_ablation()])),
    (&["conflicts", "e2"], |_| print([exp_policy::conflicts(SEED)])),
    (&["crowd", "e3", "a3"], |_| print([exp_crowd::crowd(SEED)])),
    (&["coverage", "e4"], |_| print([exp_crowd::coverage(SEED)])),
    (&["fuzz", "e5"], |_| print([exp_models::fuzz(SEED)])),
    (&["attack_graph", "e6"], |_| print([exp_models::attack_graph(SEED)])),
    (&["control_plane", "e7", "a2"], |_| print([exp_ctl::control_plane()])),
    (&["consistency", "e8"], |_| print([exp_ctl::consistency()])),
    (&["umbox_agility", "e9"], |_| print([exp_umbox::umbox_agility()])),
    (&["dataplane", "e10"], |_| print([exp_umbox::dataplane()])),
    (&["endtoend", "e11"], |_| print(exp_world::endtoend())),
    (&["anomaly", "e12"], |_| print([exp_anomaly::anomaly(SEED)])),
    (&["mining", "e13"], |_| print([exp_pipeline::mining()])),
    (&["fingerprinting", "e14"], |_| print([exp_pipeline::fingerprinting(SEED)])),
    (&["chaos", "e15"], |_| print(exp_chaos::chaos(SEED))),
    (&["perf", "e16"], |c| emit(&exp_perf::perf(SEED, c.threads))),
    (&["trace", "e17"], |c| emit(&exp_trace::trace(SEED, c.threads))),
    (&["safety", "e18"], |_| emit(&exp_safety::safety(SEED))),
    (&["space", "e19"], |_| emit(&exp_space::space())),
    (&["fleet", "e20"], |c| emit(&exp_fleet::fleet(&alloc_bytes, c.homes, c.rounds))),
    (&["engine", "e21"], |_| emit(&exp_engine::engine(&alloc_count))),
    (&["vet", "e23"], |c| emit(&exp_vet::vet(SEED, c.threads))),
    (&["fleet_chaos", "e25"], |c| emit(&exp_fleet_chaos::fleet_chaos(c.homes, c.rounds))),
    (&["resident", "e26"], |c| emit(&exp_resident::resident(&alloc_bytes, c.homes, c.rounds))),
];

/// Resolve every requested id (or alias) before anything runs. No ids,
/// or `all` among them, is every experiment.
fn plan(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            let known = EXPERIMENTS.iter().find(|(names, _)| names.contains(&id.as_str()));
            known.ok_or_else(|| {
                let all: Vec<&str> = EXPERIMENTS.iter().map(|(names, _)| names[0]).collect();
                format!("unknown experiment '{id}'. available: all {}", all.join(" "))
            })
        })
        .collect()
}

/// Parse a count flag's value: a positive integer (`0` is rejected —
/// a fleet of no homes, rounds or workers measures nothing).
fn parse_positive<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    v.parse()
        .ok()
        .filter(|n| *n != T::default())
        .ok_or_else(|| format!("{flag} needs a positive integer, got '{v}'"))
}

/// The next argument as `flag`'s positive count, or usage exit 2.
fn positive_arg<T>(flag: &str, args: &mut impl Iterator<Item = String>) -> T
where
    T: std::str::FromStr + Default + PartialEq,
{
    parse_positive(flag, &args.next().unwrap_or_default()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut ctx = Ctx { threads: 2, homes: None, rounds: None };
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => ids.push("trace".to_string()),
            "--threads" => ctx.threads = positive_arg(&arg, &mut args),
            "--homes" => ctx.homes = Some(positive_arg(&arg, &mut args)),
            "--rounds" => ctx.rounds = Some(positive_arg(&arg, &mut args)),
            _ => ids.push(arg),
        }
    }
    let to_run = plan(&ids).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    println!("# IoTSec reproduction — experiment run (seed {SEED})");
    let mut diverged = false;
    for (_, run) in to_run {
        diverged |= !run(&ctx);
    }
    if diverged {
        eprintln!(
            "determinism check FAILED: a rerun or parallel leg diverged from its serial reference"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_positive, plan, EXPERIMENTS};

    #[test]
    fn count_flags_reject_zero_and_garbage() {
        assert_eq!(parse_positive::<u32>("--homes", "128"), Ok(128));
        assert_eq!(parse_positive::<usize>("--threads", "1"), Ok(1));
        for bad in ["0", "", "-3", "two", "4294967296"] {
            let err = parse_positive::<u32>("--rounds", bad).unwrap_err();
            assert_eq!(err, format!("--rounds needs a positive integer, got '{bad}'"));
        }
    }

    /// `experiments e20 bogus` used to run the 10⁴-home fleet and write
    /// `BENCH_E20.json` before noticing `bogus`: every id is resolved
    /// before the first experiment starts.
    #[test]
    fn unknown_ids_are_rejected_before_anything_runs() {
        let ids = |ids: &[&str]| -> Vec<String> { ids.iter().map(|i| i.to_string()).collect() };
        let err = plan(&ids(&["e20", "bogus", "e21"])).map(|_| ()).unwrap_err();
        assert!(err.starts_with("unknown experiment 'bogus'. available: all table1 table2 "));
        assert!(err.ends_with(" vet fleet_chaos resident"));

        // An id or alias names its experiment; `all` (or nothing) is
        // every experiment, in order.
        let typed = ids(&["e16", "trace", "a3"]);
        let names: Vec<&str> = plan(&typed).unwrap().iter().map(|(names, _)| names[0]).collect();
        assert_eq!(names, ["perf", "trace", "crowd"]);
        assert_eq!(plan(&[]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(plan(&ids(&["fig3", "all"])).unwrap()[0].0[0], "table1");
        let mut all: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        let spelled: usize = EXPERIMENTS.iter().map(|(names, _)| names.len()).sum();
        assert_eq!(all.len(), spelled, "an id or alias names two experiments");
    }
}
