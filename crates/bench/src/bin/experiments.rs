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
//! `--threads N` sets the worker count of the legs that take one (E16,
//! E17, E23). Each gated id exits non-zero when its gate fails, and
//! E18–E26 always write their record, which CI byte-compares with the
//! checked-in file. Which id writes what, and what fails it:
//!
//! - `e16` (no record): the parallel sweep diverges from the serial one.
//! - `e18` → `BENCH_E18.json`: a safety gate fails.
//! - `e19` → `BENCH_E19.json`: a state-space engine or thread count
//!   diverges from the packed-serial reference.
//! - `e20` → `BENCH_E20.json`: a fleet leg diverges from the serial
//!   reference, or one discovery does not reach every home in one epoch.
//! - `e21` → `BENCH_E21.json`: the second sweep diverges from the
//!   reference, or the warm steady state allocates.
//! - `e23` → `BENCH_E23.json`: the vet campaign finds a violation or a
//!   vacuous scenario, diverges across threads or on rerun, or its
//!   weakened arm yields no shrinkable violation.
//! - `e25` → `BENCH_E25.json`: a chaos cell misses its deadline, trips
//!   the fleet trace checker, or diverges on rerun.
//! - `e26` → `BENCH_E26.json`: a resident leg diverges from its rebuild
//!   reference, or a churn arm fails the amortization gate.
//!
//! Time is measured by the `benchmark/` harness, not here.

use iotsec_bench::report::emit;
use iotsec_bench::{
    exp_anomaly, exp_chaos, exp_crowd, exp_ctl, exp_engine, exp_fleet, exp_fleet_chaos, exp_models,
    exp_perf, exp_pipeline, exp_policy, exp_resident, exp_safety, exp_space, exp_trace, exp_umbox,
    exp_vet, exp_world, Table, SEED,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator: E21's steady-state probe reads its allocation
/// count to pin the zero-alloc claim, and E26's amortization gate reads
/// its byte count (the library crates are `#![forbid(unsafe_code)]`, so
/// the counter lives in the binary, mirroring `tests/alloc_counter.rs`).
/// Counts allocations and reallocations; frees are irrelevant to both.
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

/// What the command line hands an experiment: `--threads N`.
struct Ctx {
    threads: usize,
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
    (&["fleet", "e20"], |_| emit(&exp_fleet::fleet(exp_fleet::FLEET_HOMES, exp_fleet::ROUNDS))),
    (&["engine", "e21"], |_| emit(&exp_engine::engine(&alloc_count))),
    (&["vet", "e23"], |c| emit(&exp_vet::vet(SEED, c.threads))),
    (&["fleet_chaos", "e25"], |_| {
        emit(&exp_fleet_chaos::fleet_chaos(exp_fleet_chaos::HOMES, exp_fleet_chaos::MAX_ROUNDS))
    }),
    (&["resident", "e26"], |_| {
        emit(&exp_resident::resident(&alloc_bytes, exp_resident::HOMES, exp_resident::ROUNDS))
    }),
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
/// zero workers would run nothing).
fn parse_positive(flag: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer, got '{v}'"))
}

/// The next argument as `flag`'s positive count, or usage exit 2.
fn positive_arg(flag: &str, args: &mut impl Iterator<Item = String>) -> usize {
    parse_positive(flag, &args.next().unwrap_or_default()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut ctx = Ctx { threads: 2 };
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => ids.push("trace".to_string()),
            "--threads" => ctx.threads = positive_arg(&arg, &mut args),
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
        assert_eq!(parse_positive("--threads", "128"), Ok(128));
        assert_eq!(parse_positive("--threads", "1"), Ok(1));
        for bad in ["0", "", "-3", "two", "18446744073709551616"] {
            let err = parse_positive("--threads", bad).unwrap_err();
            assert_eq!(err, format!("--threads needs a positive integer, got '{bad}'"));
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
