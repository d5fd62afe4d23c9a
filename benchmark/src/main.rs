//! `perfbench` — the repository's one perf ledger.
//!
//! Driver form (what `BENCHMARK.json`'s command expands to):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! measures one workload in this process and prints one JSON object as
//! the last line of stdout. For people:
//!
//! ```text
//! perfbench run   [--seed N] [--workload W] [--seconds S] [--json FILE]
//! perfbench trace [--seed N] [--workload W] [--seconds S] [--json FILE]
//! perfbench compare A.json B.json
//! perfbench golden      # golden.json for the code as built
//! perfbench manifest    # BENCHMARK.json from the tables in metrics.rs
//! ```
//!
//! `run`/`trace` start one child process per workload (so `peak_rss_mb`
//! is that workload's own), print every metric by name with its unit,
//! and exit non-zero on any correctness failure. See `README.md`.

mod adapter;
mod alloc;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

#[cfg(test)]
mod tests;

use json::Value;
use run::Options;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Sizes, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The repo-wide experiment seed.
pub const DEFAULT_SEED: u64 = 20151116;
/// `run_seconds` of `BENCHMARK.json`, the default for `run`/`trace`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                out.workload =
                    Some(Workload::parse(name).ok_or_else(|| {
                        format!("unknown workload `{name}` (one of: {})", known())
                    })?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => out.json = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => out.files.push(file.to_string()),
        }
    }
    Ok(out)
}

/// Where the traced run leaves its spans: `out/` beside `Cargo.toml`.
fn trace_file(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", workload.name()))
}

/// Driver form: measure here, notes to stderr, the result line to stdout.
fn measure(args: &Args) -> ExitCode {
    let Some(workload) = args.workload else {
        eprintln!("--workload is required");
        return ExitCode::from(2);
    };
    let outcome = run::run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::FULL,
        trace_file: args.trace.then(|| trace_file(workload)),
    });
    for note in &outcome.notes {
        eprintln!("[{}] {note}", workload.name());
    }
    println!("{}", outcome.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run` / `trace`: one child per workload, then the table.
fn run_all(args: &Args, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    let mut results = Vec::new();
    println!("{:<14} {:<40} {:>18} unit", "workload", "metric", "value");
    for w in workloads {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().ok_or("no output".to_string()).and_then(json::parse);
        let result = match parsed {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{}: unreadable result ({e}); exit {}", w.name(), output.status);
                ok = false;
                continue;
            }
        };
        let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
        let count = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        ok &= correct && output.status.success();
        for (name, entry) in result.get("metrics").map_or(&[][..], Value::members) {
            let value = entry.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{:<14} {:<40} {:>18.4} {unit}", w.name(), name, value);
        }
        println!(
            "{:<14} {:<40} {:>18} count",
            w.name(),
            "ops_attempted / ops_failed",
            format!("{} / {}", count("attempted"), count("failed")),
        );
        println!("{:<14} {:<40} {:>18}", w.name(), "correct", correct);
        results.push((w.name().to_string(), result));
    }
    if let Some(path) = &args.json {
        let doc = json::obj([
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("results", Value::Obj(results)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a workload was incorrect or did not finish");
        ExitCode::FAILURE
    }
}

/// `compare A B`: two `run --json` files must agree within each
/// end-to-end metric's bound, both ways, and both must be correct.
fn compare(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("compare takes two files written by `run --json`");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| json::parse(&t))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot read results: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (workload, ra) in a.get("results").map_or(&[][..], Value::members) {
        let Some(rb) = b.get("results").and_then(|r| r.get(workload)) else {
            println!("{workload:<14} missing from the second file");
            ok = false;
            continue;
        };
        for r in [ra, rb] {
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                println!("{workload:<14} reported incorrect results");
                ok = false;
            }
        }
        for d in metrics::END_TO_END {
            let value = |r: &Value| {
                r.get("metrics")?.get(d.name)?.get("value")?.as_f64().filter(|v| *v > 0.0)
            };
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                println!("{workload:<14} {:<16} missing or zero", d.name);
                ok = false;
                continue;
            };
            // How much worse the worse of the two is than the better one.
            let worse = va.max(vb) / va.min(vb) - 1.0;
            let verdict = if worse > d.bound { "FAIL" } else { "" };
            ok &= worse <= d.bound;
            println!(
                "{workload:<14} {:<16} {va:>14.4} {vb:>14.4} {:>7.1}% {:>5.0}% {verdict}",
                d.name,
                worse * 100.0,
                d.bound * 100.0,
            );
        }
    }
    if ok {
        println!("repeatable: every end-to-end metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("NOT repeatable");
        ExitCode::FAILURE
    }
}

/// `golden`: print `golden.json` for the code as built (default seed,
/// full size, one serial episode each).
fn print_golden() -> ExitCode {
    let entries = Workload::ALL
        .map(|w| {
            let e = workloads::episode(w, &Sizes::FULL, DEFAULT_SEED, 1, None);
            let entry =
                json::obj([("digest", Value::Str(e.digest)), ("anchor", Value::Str(e.anchor))]);
            (w.name().to_string(), entry)
        })
        .to_vec();
    println!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{");
    for (i, (name, entry)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        println!("    \"{name}\": {}{comma}", entry.render());
    }
    println!("  }}\n}}");
    ExitCode::SUCCESS
}

/// `BENCHMARK.json` as the tables in `metrics.rs` define it.
fn manifest() -> String {
    let defs = |defs: &[metrics::Def], bounded: bool| {
        let lines: Vec<String> = defs
            .iter()
            .map(|d| {
                let bound =
                    if bounded { format!(", \"bound\": {}", d.bound) } else { String::new() };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                )
            })
            .collect();
        lines.join(",\n")
    };
    let workloads: Vec<String> = metrics::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        defs(metrics::END_TO_END, true),
        defs(metrics::PER_LAYER, false),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "golden" | "manifest")) => (c, &argv[1..]),
        _ => ("measure", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload W --seed N --seconds S --trace 0|1");
            eprintln!(
                "       perfbench run|trace [--seed N] [--workload W] [--seconds S] [--json FILE]"
            );
            eprintln!(
                "       perfbench compare A.json B.json | perfbench golden | perfbench manifest"
            );
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => run_all(&args, false),
        "trace" => run_all(&args, true),
        "compare" => compare(&args.files),
        "golden" => print_golden(),
        "manifest" => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        _ => measure(&args),
    }
}
