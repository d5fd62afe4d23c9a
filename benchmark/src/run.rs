//! One measured run of one workload: legs, verification, metrics.
//!
//! `--trace 0` runs one serial leg with spans off and reports the
//! end-to-end metrics. `--trace 1` runs a serial and a two-worker leg,
//! each alternating spans-off and spans-on episodes (their difference is
//! the tracing overhead), then the layer probes, and reports the
//! per-layer metrics. Every leg starts with one untimed warm-up episode,
//! a two-worker leg additionally with a two-thread spin, because the
//! first parallel work after idle reads far slow here.
//!
//! Every host-time number is a **floor**: the fastest of the repetitions
//! of one piece of identical work. The simulator is deterministic, so op
//! `i` of an episode is the same work in every episode of a run, and
//! whatever else shares the host can only add time to it. On the
//! builder's host the median of a fixed 1 ms loop moves by 10–25 % from
//! one 20 s run to the next while its minimum moves by under 2 %
//! (README, "How steady"), so floors are what two commits can be
//! compared on. An episode's floor window is the sum of its ops' floors.

use crate::adapter;
use crate::alloc;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self, Kind, Span, SpanSink};
use crate::stats::{median, percentile, ratio};
use crate::workloads::{episode, Episode, Sizes, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker count of every `_t2` leg (this host has two cores).
pub const T2: usize = 2;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the traced run writes its spans (`None`: keep them in memory).
    pub trace_file: Option<std::path::PathBuf>,
}

/// What the driver's result line carries, plus notes for people.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts, digests and any verification failure, one per line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line JSON object the driver reads.
    pub fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = crate::metrics::def(name).map_or("", |d| d.unit);
                let entry = json::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        json::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

/// Episodes of one leg, after one untimed warm-up.
struct Leg {
    warm: Episode,
    /// Timed episodes that ran with spans off.
    plain: Vec<Episode>,
    /// Timed episodes that ran with spans on.
    traced: Vec<Episode>,
    /// The spans of the traced episode with the shortest window: one real
    /// episode, so its spans are consistent with each other, and the one
    /// the host disturbed least. The others repeat it span for span.
    fastest_trace: Vec<Span>,
}

impl Leg {
    fn timed(&self) -> impl Iterator<Item = &Episode> {
        self.plain.iter().chain(&self.traced)
    }
}

/// Keep both cores busy for `d`, so the leg that follows does not pay
/// for waking one.
fn spin(d: Duration) {
    std::thread::scope(|s| {
        for _ in 0..T2 {
            s.spawn(move || {
                let start = Instant::now();
                let mut x = 0u64;
                while start.elapsed() < d {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(i),
                        );
                    }
                }
            });
        }
    });
}

/// Repeat episodes for `budget` (at least `min` of them). With a sink,
/// every other episode records spans into it, so the two kinds interleave
/// and drift hits both alike.
fn run_leg(
    o: &Options,
    threads: usize,
    budget: Duration,
    min: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Leg {
    if threads > 1 {
        spin(Duration::from_secs_f64((o.seconds / 10.0).min(1.0)));
    }
    let warm = episode(o.workload, &o.sizes, o.seed, threads, None);
    let mut leg = Leg { warm, plain: Vec::new(), traced: Vec::new(), fastest_trace: Vec::new() };
    let mut fastest_ns = u64::MAX;
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        match sink.filter(|_| done % 2 == 1) {
            Some(sink) => {
                let e = episode(o.workload, &o.sizes, o.seed, threads, Some(sink));
                let spans = sink.take();
                if e.window_ns() < fastest_ns {
                    (fastest_ns, leg.fastest_trace) = (e.window_ns(), spans);
                }
                leg.traced.push(e);
            }
            None => leg.plain.push(episode(o.workload, &o.sizes, o.seed, threads, None)),
        }
        done += 1;
    }
    leg
}

/// The fastest each op ran across `episodes`, in ns.
fn op_floors<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> Vec<f64> {
    let mut floors: Vec<u64> = Vec::new();
    for e in episodes {
        if floors.is_empty() {
            floors.clone_from(&e.ops_ns);
        }
        for (floor, &ns) in floors.iter_mut().zip(&e.ops_ns) {
            *floor = (*floor).min(ns);
        }
    }
    floors.into_iter().map(|ns| ns as f64).collect()
}

/// `per_window` things per host second of a window of `window_ns`.
fn per_second(per_window: u64, window_ns: f64) -> f64 {
    ratio(per_window as f64, window_ns / 1e9)
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-in digests for the default seed at full size.
fn golden(workload: Workload) -> (String, String) {
    let doc = json::parse(include_str!("../golden.json")).expect("golden.json is valid JSON");
    let entry = doc.get("workloads").and_then(|w| w.get(workload.name()));
    let field = |k: &str| {
        entry.and_then(|e| e.get(k)).and_then(Value::as_str).unwrap_or_default().to_string()
    };
    (field("digest"), field("anchor"))
}

/// Every leg and rerun must reproduce the first episode's digest; at the
/// default seed and full size that digest must be the checked-in one.
/// Returns the number of disagreeing episodes and says why.
fn verify<'a>(
    o: &Options,
    episodes: impl Iterator<Item = &'a Episode>,
    notes: &mut Vec<String>,
) -> u64 {
    let mut mismatches = 0;
    let mut reference: Option<&Episode> = None;
    for e in episodes {
        let first = *reference.get_or_insert(e);
        if e.digest != first.digest || e.anchor != first.anchor {
            mismatches += 1;
            notes.push(format!("digest mismatch: `{}` vs `{}`", e.digest, first.digest));
        }
    }
    if let Some(first) = reference {
        notes.push(format!("digest {} {}", first.digest, first.anchor));
        if o.seed == crate::DEFAULT_SEED && o.sizes == Sizes::FULL {
            let (digest, anchor) = golden(o.workload);
            if first.digest != digest || first.anchor != anchor {
                mismatches += 1;
                notes.push(format!("golden mismatch: expected `{digest}` `{anchor}`"));
            }
        }
    }
    mismatches
}

/// Verify every leg and total the op accounting: `(attempted, failed)`.
fn judge(o: &Options, legs: &[&Leg], notes: &mut Vec<String>) -> (u64, u64) {
    let timed = || legs.iter().flat_map(|l| l.timed());
    let mismatches = verify(o, legs.iter().map(|l| &l.warm).chain(timed()), notes);
    let attempted = timed().map(|e| e.attempted).sum();
    let failed = timed().map(|e| e.failed).sum::<u64>() + mismatches;
    (attempted, failed)
}

pub fn run(o: &Options) -> Outcome {
    if o.trace {
        run_traced(o)
    } else {
        run_end_to_end(o)
    }
}

fn run_end_to_end(o: &Options) -> Outcome {
    let serial = run_leg(o, 1, Duration::from_secs_f64(o.seconds * 0.9), 3, None);

    let mut notes = Vec::new();
    let (attempted, failed) = judge(o, &[&serial], &mut notes);
    let floors = op_floors(&serial.plain);
    let window_ns: f64 = floors.iter().sum();
    let windows: Vec<f64> = serial.plain.iter().map(|e| e.window_ns() as f64).collect();
    let setup_ns = serial.plain.iter().map(|e| e.setup_ns).min().unwrap_or(0);
    notes.push(format!(
        "{} serial episodes of {} ops; op = {}, tail = p{:.0}; work = {}",
        serial.plain.len(),
        floors.len(),
        o.workload.op(),
        o.workload.tail() * 100.0,
        o.workload.work_unit(),
    ));
    notes.push(format!(
        "window: floor {:.3} ms, median {:.3} ms (host added {:.1}%)",
        window_ns / 1e6,
        median(&windows) / 1e6,
        (ratio(median(&windows), window_ns) - 1.0) * 100.0,
    ));
    let values: HashMap<&str, f64> = HashMap::from([
        ("work_per_s", per_second(serial.warm.units, window_ns)),
        ("op_p50_us", median(&floors) / 1e3),
        ("op_tail_us", percentile(&floors, o.workload.tail()) / 1e3),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", setup_ns as f64 / 1e9),
    ]);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|d| (d.name, values[d.name])).collect(),
        notes,
    }
}

/// Durations (ns) of every span of `kind`.
fn durs(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans.iter().filter(|s| s.kind == kind).map(|s| s.dur_ns() as f64).collect()
}

/// Per-layer numbers from the serial traced episodes' spans; `fleet_homes`
/// is the fleet's size (0 when the workload has no fleet).
fn span_metrics(
    spans: &[Span],
    own: &[u64],
    fleet_homes: u32,
    out: &mut HashMap<&'static str, f64>,
) {
    let sum = |kind: Kind| durs(spans, kind).iter().sum::<f64>();
    let p = |kind: Kind, q: f64| percentile(&durs(spans, kind), q) / 1e3;
    // What the spans have to account for: every root.
    let wall: f64 = spans.iter().filter(|s| s.parent == 0).map(|s| s.dur_ns() as f64).sum();
    let round_self: Vec<f64> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.kind == Kind::Round)
        .map(|(_, &o)| o as f64)
        .collect();
    let fleet_self: f64 = round_self.iter().sum();
    let leaves = [Kind::Build, Kind::Delta, Kind::Rebind, Kind::Run, Kind::Outcome];
    let leaf_sum: f64 = leaves.iter().map(|&k| sum(k)).sum();

    out.insert("fleet.round_self_us", median(&round_self) / 1e3);
    let homes_served = round_self.len() as f64 * f64::from(fleet_homes);
    out.insert("fleet.self_ns_per_home", ratio(fleet_self, homes_served));
    out.insert("fleet.self_share", ratio(fleet_self, wall));
    out.insert("fleet.check_trace_ms", median(&durs(spans, Kind::CheckTrace)) / 1e6);
    out.insert("core.home_round_us_p50", p(Kind::Home, 0.50));
    out.insert("core.home_round_us_p99", p(Kind::Home, 0.99));
    out.insert("core.build_us_p50", p(Kind::Build, 0.50));
    out.insert("core.delta_us_p50", p(Kind::Delta, 0.50));
    out.insert("core.rebind_us_p50", p(Kind::Rebind, 0.50));
    out.insert("core.run_us_p50", p(Kind::Run, 0.50));
    out.insert("core.run_us_p99", p(Kind::Run, 0.99));
    out.insert("core.outcome_us_p50", p(Kind::Outcome, 0.50));
    out.insert("core.build_share", ratio(sum(Kind::Build), wall));
    out.insert("core.rebind_share", ratio(sum(Kind::Rebind), wall));
    out.insert("core.run_share", ratio(sum(Kind::Run), wall));
    out.insert("iotpolicy.explore.sweep_ms", median(&durs(spans, Kind::Sweep)) / 1e6);
    out.insert("iotpolicy.explore.bfs_ms", median(&durs(spans, Kind::Bfs)) / 1e6);
    let explore = sum(Kind::Sweep) + sum(Kind::Bfs) + sum(Kind::CheckTrace);
    out.insert("bench.span_coverage_share", ratio(fleet_self + leaf_sum + explore, wall));
}

/// Busy share and worker imbalance from a traced two-worker leg.
fn t2_span_metrics(spans: &[Span], out: &mut HashMap<&'static str, f64>) {
    let mut busy: HashMap<u32, [f64; T2]> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == Kind::Home && s.parent != 0) {
        busy.entry(s.parent).or_default()[s.worker as usize % T2] += s.dur_ns() as f64;
    }
    let rounds: f64 = spans
        .iter()
        .filter(|s| s.kind == Kind::Round && busy.contains_key(&s.id))
        .map(|s| s.dur_ns() as f64)
        .sum();
    let total: f64 = busy.values().flatten().sum();
    let imbalance: Vec<f64> = busy
        .values()
        .map(|b| {
            let (max, min) = (b[0].max(b[1]), b[0].min(b[1]));
            ratio(max - min, max)
        })
        .collect();
    out.insert("fleet.t2_home_round_us_p50", median(&durs(spans, Kind::Home)) / 1e3);
    out.insert("fleet.t2_busy_share", ratio(total, T2 as f64 * rounds));
    out.insert("fleet.t2_worker_imbalance", median(&imbalance));
    out.insert("iotpolicy.explore.sweep_ms_t2", median(&durs(spans, Kind::Sweep)) / 1e6);
    out.insert("iotpolicy.explore.bfs_ms_t2", median(&durs(spans, Kind::Bfs)) / 1e6);
}

/// Time every layer probe for `budget` each: ns per iteration of its
/// fastest batch (one untimed batch first), and allocator calls per
/// iteration for a probe that names a metric for them.
fn probe_metrics(budget: Duration, out: &mut HashMap<&'static str, f64>) {
    for mut probe in adapter::probes() {
        (probe.batch)();
        let mut ns = f64::INFINITY;
        let (mut calls, mut iters) = (0u64, 0u64);
        let start = Instant::now();
        while iters == 0 || start.elapsed() < budget {
            let calls_before = alloc::calls();
            let t = Instant::now();
            let n = (probe.batch)().max(1);
            ns = ns.min(t.elapsed().as_nanos() as f64 / n as f64);
            calls += alloc::calls() - calls_before;
            iters += n;
        }
        let scaled = if crate::metrics::def(probe.metric).is_some_and(|d| d.unit == "us") {
            ns / 1e3
        } else {
            ns
        };
        out.insert(probe.metric, scaled);
        if let Some(allocs_metric) = probe.allocs_metric {
            out.insert(allocs_metric, calls as f64 / iters as f64);
        }
    }
}

fn run_traced(o: &Options) -> Outcome {
    let sink = Arc::new(SpanSink::new(1));
    let serial = run_leg(o, 1, Duration::from_secs_f64(o.seconds * 0.42), 4, Some(&sink));
    let spans = &serial.fastest_trace[..];
    let own = spans::self_times(spans);

    let sink_t2 = Arc::new(SpanSink::new(T2));
    let t2 = o
        .workload
        .has_workers()
        .then(|| run_leg(o, T2, Duration::from_secs_f64(o.seconds * 0.3), 4, Some(&sink_t2)));

    let mut notes = Vec::new();
    let legs: Vec<&Leg> = std::iter::once(&serial).chain(&t2).collect();
    let (attempted, failed) = judge(o, &legs, &mut notes);

    let mut v: HashMap<&'static str, f64> = HashMap::new();
    // Deterministic counters: any serial episode carries the same ones.
    v.extend(serial.warm.counts.iter().copied());
    span_metrics(spans, &own, o.sizes.fleet_homes(o.workload), &mut v);
    probe_metrics(Duration::from_secs_f64(o.seconds * 0.01), &mut v);

    // Counts taken where the spans were. Every traced episode adds the
    // same ones to the sink, so one episode's are the total's share.
    let c = sink.counts();
    let per_episode = |count: u64| count as f64 / serial.traced.len() as f64;
    let (homes, ticks, events) =
        (per_episode(c.homes), per_episode(c.ticks), per_episode(c.events));
    let (lookups, blocks) = (per_episode(c.cache_lookups), per_episode(c.blocks));
    let run_ns: f64 = durs(spans, Kind::Run).iter().sum();
    if homes > 0.0 {
        v.insert("core.ticks_per_home", ticks / homes);
        v.insert("core.events_per_home", events / homes);
        v.insert("iotnet.switch.cache_lookups_per_home", lookups / homes);
        v.insert(
            "iotnet.switch.cache_hit_rate",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
        );
        v.insert("umbox.blocks_per_home", blocks / homes);
        v.insert("core.ns_per_tick", ratio(run_ns, ticks));
        v.insert("core.ns_per_event", ratio(run_ns, events));
        // What the probes can explain of `run`: per tick, every device's
        // FSM step, the environment, the hub and the idle controller;
        // per event, the queue; per switched packet, the switch; per
        // block, the chain that dropped it. The rest is unattributed.
        let (cold_devices, fleet_devices) = adapter::devices_per_home();
        let devices =
            if o.workload == Workload::HomePackets { cold_devices } else { fleet_devices };
        let g = |k: &str| v.get(k).copied().unwrap_or(0.0);
        let per_tick = f64::from(devices) * g("iotdev.device.ns_per_tick")
            + g("iotdev.env.ns_per_step")
            + g("core.hub.ns_per_on_env")
            + g("iotctl.controller.ns_per_step_idle");
        let explained = ticks * per_tick
            + events * g("iotnet.engine.ns_per_event")
            + lookups * g("iotnet.switch.ns_per_packet")
            + blocks * g("umbox.chain.ns_per_packet_drop");
        v.insert("core.unattributed_share", 1.0 - ratio(explained, run_ns));
    }

    // The harness's own accounting, on floors like the end-to-end run.
    let floors = op_floors(&serial.plain);
    let window_ns: f64 = floors.iter().sum();
    let traced_ns: f64 = op_floors(&serial.traced).iter().sum();
    let windows: Vec<f64> = serial.plain.iter().map(|e| e.window_ns() as f64).collect();
    v.insert("bench.trace_overhead_share", ratio(traced_ns, window_ns) - 1.0);
    v.insert("bench.host_noise_share", ratio(median(&windows), window_ns) - 1.0);
    v.insert(
        "bench.alloc_bytes_per_op",
        ratio(serial.warm.alloc_bytes as f64, floors.len() as f64),
    );
    v.insert("bench.events_per_s", per_second(serial.warm.events, window_ns));
    v.insert("bench.op_samples", (floors.len() * serial.plain.len()) as f64);
    if let Some(t2) = &t2 {
        t2_span_metrics(&t2.fastest_trace, &mut v);
        let t2_rate = per_second(t2.warm.units, op_floors(&t2.plain).iter().sum());
        v.insert("bench.work_per_s_t2", t2_rate);
        let warm_rate = per_second(t2.warm.units, t2.warm.window_ns() as f64);
        v.insert("bench.t2_warm_ratio", ratio(warm_rate, t2_rate));
    }

    if let Some(path) = &o.trace_file {
        match spans::write_jsonl(path, o.workload.name(), spans, &own) {
            Ok(()) => notes.push(format!(
                "{} spans of the fastest of {} traced episodes written to {}",
                spans.len(),
                serial.traced.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            // `+ 0.0`: an empty sum of floats is -0.0, which prints as "-0".
            .map(|d| (d.name, v.get(d.name).copied().unwrap_or(0.0) + 0.0))
            .collect(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_floors_take_each_ops_fastest_repetition() {
        let episode = |ops: &[u64]| Episode { ops_ns: ops.to_vec(), ..Episode::default() };
        let episodes = [episode(&[5, 9, 7]), episode(&[6, 4, 8]), episode(&[7, 6, 3])];
        let floors = op_floors(&episodes);
        assert_eq!(floors, [5.0, 4.0, 3.0]);
        // The floor window undercuts every episode's own window.
        let fastest = episodes.iter().map(Episode::window_ns).min().unwrap() as f64;
        assert!(floors.iter().sum::<f64>() < fastest);
        assert!(op_floors(&[]).is_empty());
    }
}
