//! Tests of the harness as a whole: the names it prints are exactly the
//! names `BENCHMARK.json` declares, and a tiny run of every workload is
//! correct and shows the bypasses the workloads were designed around.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{run, Options, Outcome};
use crate::workloads::{Sizes, Workload};
use std::collections::HashMap;

/// A file at the repository root.
fn root_text(name: &str) -> String {
    let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn root_json(name: &str) -> Value {
    json::parse(&root_text(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    let name =
        |v: &Value| v.get("name").and_then(Value::as_str).expect("entry has a name").to_string();
    doc.get(key).expect("section exists").items().iter().map(name).collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Options { workload, seed: 7, seconds: 0.2, trace, sizes: Sizes::TINY, trace_file: None })
}

#[test]
fn benchmark_json_is_the_manifest_the_tables_generate() {
    let on_disk = root_text("BENCHMARK.json");
    assert_eq!(on_disk, crate::manifest(), "regenerate with `perfbench manifest > BENCHMARK.json`");
}

#[test]
fn benchmark_json_stays_inside_the_driver_contract() {
    let doc = root_json("BENCHMARK.json");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut all = names(&doc, "workloads");
    assert!((2..=8).contains(&all.len()));
    all.extend(names(&doc, "end_to_end"));
    all.extend(names(&doc, "per_layer"));
    for n in &all {
        assert!(valid(n), "bad name {n:?}");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for d in END_TO_END {
        assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound {}", d.name, d.bound);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s takes the largest bound");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            d.unit.len() <= 16
                && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

/// `golden.json`'s anchors are fixed points of results the repository
/// already checks in: the first cold home is E21's defended `p24` cell at
/// the default seed, the explorer's pre-flight is E19's 8-device row.
#[test]
fn golden_anchors_are_the_checked_in_bench_results() {
    let golden = json::parse(include_str!("../golden.json")).expect("golden.json is valid JSON");
    let anchor = |w: &str| {
        let entry = golden.get("workloads").and_then(|g| g.get(w)).expect("workload has a golden");
        entry.get("anchor").and_then(Value::as_str).expect("golden has an anchor").to_string()
    };
    let text =
        |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or_default().to_string();

    let e21 = root_json("BENCH_E21.json");
    let cell = e21
        .get("digests")
        .expect("E21 lists digests")
        .items()
        .iter()
        .filter_map(Value::as_str)
        .find(|d| d.starts_with("home-iotsec/s20151116/p24:"))
        .expect("E21 has the defended p24 cell at the default seed");
    for field in anchor("home_packets").split(' ') {
        assert!(cell.split(' ').any(|f| f == field), "{field} is not in `{cell}`");
    }

    let e19 = root_json("BENCH_E19.json");
    let row = e19
        .get("populations")
        .expect("E19 lists populations")
        .items()
        .iter()
        .find(|p| p.get("devices").and_then(Value::as_f64) == Some(8.0))
        .expect("E19 has an 8-device row");
    assert_eq!(anchor("space_explore"), format!("{} {}", text(row, "digest"), text(row, "bfs")));
}

/// Every workload, at smoke size: exactly the declared names come out, in
/// both modes, the run is correct, and no end-to-end metric is zero.
#[test]
fn tiny_runs_print_exactly_the_declared_names() {
    let doc = root_json("BENCHMARK.json");
    let declared: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(&doc, "workloads"), declared);
    for w in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = tiny(w, trace);
            assert!(outcome.correct, "{} trace={trace}: {:?}", w.name(), outcome.notes);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let printed: Vec<String> = outcome.metrics.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(printed, names(&doc, key), "{} trace={trace}", w.name());
            assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()));
            if !trace {
                for (name, value) in &outcome.metrics {
                    assert!(*value > 0.0, "{} {name} = {value}", w.name());
                }
            }
            // The driver reads the last stdout line: it must parse back.
            let line = json::parse(&outcome.render()).expect("result line is JSON");
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

/// The bypass design, checked where it is cheap to check: quiet rounds
/// hit the memo every time and allocate nothing, churn rounds never hit
/// it, the explorer touches no world or network span, and the spans that
/// are recorded account for the wall they cover.
#[test]
fn traced_runs_show_the_designed_bypasses() {
    let layer =
        |w: Workload| -> HashMap<&'static str, f64> { tiny(w, true).metrics.into_iter().collect() };

    let quiet = layer(Workload::FleetQuiet);
    assert_eq!(quiet["fleet.memo_hit_rate"], 1.0);
    assert_eq!(quiet["fleet.memo_misses"], 0.0);
    assert_eq!(quiet["bench.alloc_bytes_per_op"], 0.0);
    assert_eq!(quiet["fleet.self_share"], 1.0);
    assert_eq!(quiet["core.run_us_p50"], 0.0);

    let churn = layer(Workload::FleetChurn);
    assert_eq!(churn["fleet.memo_hit_rate"], 0.0);
    assert!(churn["fleet.delta_installs"] > 0.0);
    assert!(churn["core.run_share"] > 0.5);
    assert!(churn["core.ticks_per_home"] > 0.0);

    let chaos = layer(Workload::FleetChaos);
    assert!(chaos["fleet.faults"] > 0.0);
    assert!(chaos["fleet.converge_rounds"] > 0.0);
    assert!(chaos["trace.events_per_round"] > 0.0);

    let explore = layer(Workload::SpaceExplore);
    for (name, value) in &explore {
        // The hub probe is a micro-loop, not a span of this workload.
        let span_or_count = name.starts_with("core.") || name.starts_with("fleet.");
        if span_or_count && *name != "core.hub.ns_per_on_env" {
            assert_eq!(*value, 0.0, "space_explore touched {name}");
        }
    }
    assert!(explore["iotpolicy.explore.sweep_ms"] > 0.0);
    assert!(explore["iotpolicy.explore.sweep_ms_t2"] > 0.0);

    let home = layer(Workload::HomePackets);
    assert_eq!(home["fleet.self_share"], 0.0);
    assert!(home["core.build_share"] > 0.0);
    for (w, m) in [("home_packets", &home), ("fleet_churn", &churn), ("fleet_chaos", &chaos)] {
        assert!(m["bench.span_coverage_share"] >= 0.90, "{w}: {}", m["bench.span_coverage_share"]);
        assert!(m["bench.span_coverage_share"] <= 1.0 + 1e-9);
    }
}
