//! The experiment runner: regenerates every table and figure of the
//! paper plus the quantitative E-series.
//!
//! ```text
//! cargo run --release -p iotsec-bench --bin experiments            # all
//! cargo run --release -p iotsec-bench --bin experiments table1     # one
//! cargo run --release -p iotsec-bench --bin experiments e16 --threads 4
//! cargo run --release -p iotsec-bench --bin experiments all --json # + BENCH_E16.json
//! cargo run --release -p iotsec-bench --bin experiments --trace    # E17 trace harness
//! ```
//!
//! `--homes N` / `--rounds N` override the fleet-shaped arms'
//! (e20/e25/e26) population and round count for ad-hoc scaling runs —
//! leave them off when regenerating the checked-in BENCH_*.json files,
//! which CI byte-compares at the committed defaults.
//! `--threads N` sets the worker count for the E16 parallel sweep;
//! `--json` writes `BENCH_E16.json` with one record per experiment run
//! (wall-clock for each, plus engine/cache counters for E16). If E16's
//! parallel digests diverge from the serial reference the process exits
//! non-zero — the CI perf-smoke job depends on that. The `e18` arm
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

use iotsec_bench::{
    exp_anomaly, exp_chaos, exp_crowd, exp_ctl, exp_engine, exp_fleet, exp_fleet_chaos, exp_models,
    exp_perf, exp_pipeline, exp_policy, exp_resident, exp_safety, exp_space, exp_trace, exp_umbox,
    exp_vet, exp_world, metrics,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const SEED: u64 = 20151116; // HotNets '15, November 16

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

/// One experiment's JSON record. Every record carries the full field
/// set; only E16 populates the engine counters.
struct Record {
    experiment: String,
    wall_ms: u128,
    events_processed: u64,
    cache_hit_rate: f64,
    threads: usize,
    deterministic: bool,
}

/// CLI overrides for the fleet-shaped arms (e20/e25/e26): `--homes N`
/// and `--rounds N`. `None` keeps each experiment's committed defaults
/// (the byte-stable configuration CI gates on).
#[derive(Clone, Copy, Default)]
struct FleetOverrides {
    homes: Option<u32>,
    rounds: Option<u32>,
}

fn run(id: &str, threads: usize, fleet_cfg: FleetOverrides) -> Option<(u64, f64, bool)> {
    match id {
        "table1" | "t1" => exp_world::table1().print(),
        "table2" | "t2" => exp_policy::table2(SEED).print(),
        "fig3" | "f3" => exp_world::figure3().print(),
        "fig4" | "f4" => exp_world::figure4().print(),
        "fig5" | "f5" => exp_world::figure5().print(),
        "state_space" | "e1" => exp_policy::state_space().print(),
        "state_space_ablation" | "a1" => exp_policy::state_space_ablation().print(),
        "conflicts" | "e2" => exp_policy::conflicts(SEED).print(),
        "crowd" | "e3" | "a3" => exp_crowd::crowd(SEED).print(),
        "coverage" | "e4" => exp_crowd::coverage(SEED).print(),
        "fuzz" | "e5" => exp_models::fuzz(SEED).print(),
        "attack_graph" | "e6" => exp_models::attack_graph(SEED).print(),
        "control_plane" | "e7" | "a2" => exp_ctl::control_plane().print(),
        "consistency" | "e8" => exp_ctl::consistency().print(),
        "umbox_agility" | "e9" => exp_umbox::umbox_agility().print(),
        "dataplane" | "e10" => exp_umbox::dataplane().print(),
        "endtoend" | "e11" => {
            for t in exp_world::endtoend() {
                t.print();
            }
        }
        "anomaly" | "e12" => exp_anomaly::anomaly(SEED).print(),
        "mining" | "e13" => exp_pipeline::mining().print(),
        "fingerprinting" | "e14" => exp_pipeline::fingerprinting(SEED).print(),
        "chaos" | "e15" => {
            for t in exp_chaos::chaos(SEED) {
                t.print();
            }
        }
        "perf" | "e16" => {
            let report = exp_perf::perf(SEED, threads);
            report.table.print();
            println!(
                "E16 summary: serial {} ms, parallel({}) {} ms, speedup {:.2}x, \
                 {} events, cache hit rate {:.3}, deterministic: {}",
                report.wall_ms_serial,
                report.threads,
                report.wall_ms_parallel,
                report.speedup(),
                report.events_processed,
                report.cache_hit_rate,
                report.deterministic,
            );
            println!();
            return Some((report.events_processed, report.cache_hit_rate, report.deterministic));
        }
        "trace" | "e17" => {
            let report = exp_trace::trace(SEED, threads);
            report.table.print();
            println!("{}", report.summary);
            for d in &report.divergences {
                println!("{d}");
            }
            println!(
                "E17 summary: {} trace events, parallel-vs-serial identical: {}",
                report.events, report.threads_identical,
            );
            println!();
            return Some((report.events, 0.0, report.threads_identical));
        }
        "safety" | "e18" => {
            let report = exp_safety::safety(SEED);
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E18.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            return Some((report.violations_baseline, 0.0, report.deterministic()));
        }
        "space" | "e19" => {
            let report = exp_space::space();
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E19.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            return Some((report.states_total(), report.memo_hit_rate(), report.deterministic));
        }
        "fleet" | "e20" => {
            let report = exp_fleet::fleet(&alloc_bytes, fleet_cfg.homes, fleet_cfg.rounds);
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E20.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            return Some((report.reference.events, 0.0, report.deterministic));
        }
        "engine" | "e21" => {
            let report = exp_engine::engine(&alloc_count);
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E21.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            return Some((report.events_total, report.cache_hit_rate(), report.deterministic));
        }
        "vet" | "e23" => {
            let report = exp_vet::vet(SEED, threads);
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E23.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            return Some((report.scenarios as u64, 0.0, report.deterministic()));
        }
        "fleet_chaos" | "e25" => {
            let report = exp_fleet_chaos::fleet_chaos(fleet_cfg.homes, fleet_cfg.rounds);
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E25.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            let faults: u64 = report.cells.iter().map(|c| c.faults).sum();
            return Some((faults, 0.0, report.deterministic));
        }
        "resident" | "e26" => {
            let report = exp_resident::resident(&alloc_bytes, fleet_cfg.homes, fleet_cfg.rounds);
            report.table.print();
            println!("{}", report.summary);
            println!();
            let path = "BENCH_E26.json";
            std::fs::write(path, report.render_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path}");
            let runs: u64 = report.arms.iter().map(|a| a.stats.resident_runs).sum();
            return Some((runs, 0.0, report.deterministic));
        }
        _ => return None,
    }
    Some((0, 0.0, true))
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "state_space",
    "state_space_ablation",
    "conflicts",
    "crowd",
    "coverage",
    "fuzz",
    "attack_graph",
    "control_plane",
    "consistency",
    "umbox_agility",
    "dataplane",
    "endtoend",
    "anomaly",
    "mining",
    "fingerprinting",
    "chaos",
    "perf",
    "trace",
    "safety",
    "space",
    "fleet",
    "engine",
    "vet",
    "fleet_chaos",
    "resident",
];

fn render_json(seed: u64, threads: usize, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"experiment\": \"{}\", \"seed\": {}, \"threads\": {}, \"wall_ms\": {}, \
             \"events_processed\": {}, \"cache_hit_rate\": {:.4}, \"deterministic\": {}}}{}\n",
            r.experiment,
            seed,
            r.threads,
            r.wall_ms,
            r.events_processed,
            r.cache_hit_rate,
            r.deterministic,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
    let mut json = false;
    let mut threads = 2usize;
    let mut fleet_cfg = FleetOverrides::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--trace" => ids.push("trace".to_string()),
            "--threads" => threads = positive_arg(&arg, &mut args),
            "--homes" => fleet_cfg.homes = Some(positive_arg(&arg, &mut args)),
            "--rounds" => fleet_cfg.rounds = Some(positive_arg(&arg, &mut args)),
            _ => ids.push(arg),
        }
    }
    let to_run: Vec<&str> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ALL.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };

    println!("# IoTSec reproduction — experiment run (seed {SEED})");
    let mut records = Vec::new();
    let mut diverged = false;
    for id in &to_run {
        metrics::reset();
        let start = Instant::now();
        let Some((events, hit_rate, deterministic)) = run(id, threads, fleet_cfg) else {
            eprintln!("unknown experiment '{id}'. available: all {}", ALL.join(" "));
            std::process::exit(2);
        };
        let wall_ms = start.elapsed().as_millis();
        // Experiments that run worlds on this thread accumulate their
        // engine counters in the thread-local registry; prefer those
        // over the (often zero) values the arm returned directly.
        let (reg_events, reg_rate) = metrics::take();
        let (events, hit_rate) =
            if reg_events > 0 { (reg_events, reg_rate) } else { (events, hit_rate) };
        diverged |= !deterministic;
        records.push(Record {
            experiment: id.to_string(),
            wall_ms,
            events_processed: events,
            cache_hit_rate: hit_rate,
            threads,
            deterministic,
        });
    }
    if json {
        let path = "BENCH_E16.json";
        std::fs::write(path, render_json(SEED, threads, &records)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path} ({} records)", records.len());
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
    use super::parse_positive;

    #[test]
    fn count_flags_reject_zero_and_garbage() {
        assert_eq!(parse_positive::<u32>("--homes", "128"), Ok(128));
        assert_eq!(parse_positive::<usize>("--threads", "1"), Ok(1));
        for bad in ["0", "", "-3", "two", "4294967296"] {
            let err = parse_positive::<u32>("--rounds", bad).unwrap_err();
            assert_eq!(err, format!("--rounds needs a positive integer, got '{bad}'"));
        }
    }
}
