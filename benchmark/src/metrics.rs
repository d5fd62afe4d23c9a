//! The names the benchmark prints: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` repeats
//! this table for the driver; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference by which the metric may get worse before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// `(name, why)`; `why` is the one line `BENCHMARK.json` carries.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "home_packets",
        "Cold defended 35-device homes: event-bound, the packet path (engine, switch, flow, umbox, device handlers) does the work; fleet, memo and barrier do none.",
    ),
    (
        "fleet_churn",
        "Resident fleet, a new intel epoch every round: tick-bound home-rounds through rebind/delta/run, memo never hits, packet path nearly idle.",
    ),
    (
        "fleet_quiet",
        "Quiesced resident fleet: 100% memo hits, so wall is fleet dispatch, memo probe, merge and barrier only; every world layer is bypassed.",
    ),
    (
        "fleet_chaos",
        "Resident fleet under seeded faults with the tracer on: chaos barrier, crash-evicted slots rebuilt cold, mixed epochs, trace checked afterwards.",
    ),
    (
        "space_explore",
        "Policy state-space sweep plus BFS over 9 cameras: iotpolicy only, no network, world or fleet; the control for every other optimisation.",
    ),
];

/// Every workload reports every one of these. The bounds are the widest
/// the driver accepts: identical runs on this shared two-vCPU host differ
/// by 10–25% (README, "How steady"), so a tighter bound would only reject
/// noise. The two-worker rate, `op_tail_us` and the allocation and event
/// rates are per-layer `bench.*` metrics because they cannot repeat even
/// within that.
pub const END_TO_END: &[Def] = &[
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_tail_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: &[Def] = &[
    // fleet: spans
    layer("fleet.round_self_us", "us", Lower),
    layer("fleet.self_ns_per_home", "ns", Lower),
    layer("fleet.self_share", "ratio", Lower),
    layer("fleet.t2_busy_share", "ratio", Higher),
    layer("fleet.t2_worker_imbalance", "ratio", Lower),
    layer("fleet.t2_home_round_us_p50", "us", Lower),
    layer("fleet.check_trace_ms", "ms", Lower),
    // fleet: counts
    layer("fleet.memo_hits", "count", Higher),
    layer("fleet.memo_misses", "count", Lower),
    layer("fleet.memo_hit_rate", "ratio", Higher),
    layer("fleet.full_builds", "count", Lower),
    layer("fleet.resident_runs", "count", Higher),
    layer("fleet.delta_installs", "count", Lower),
    layer("fleet.noop_installs", "count", Higher),
    layer("fleet.policy_recompiles", "count", Lower),
    layer("fleet.resident_dropped", "count", Lower),
    layer("fleet.faults", "count", Lower),
    layer("fleet.recoveries", "count", Higher),
    layer("fleet.degraded_rounds", "count", Lower),
    layer("fleet.converge_rounds", "count", Lower),
    // core: spans
    layer("core.home_round_us_p50", "us", Lower),
    layer("core.home_round_us_p99", "us", Lower),
    layer("core.build_us_p50", "us", Lower),
    layer("core.delta_us_p50", "us", Lower),
    layer("core.rebind_us_p50", "us", Lower),
    layer("core.run_us_p50", "us", Lower),
    layer("core.run_us_p99", "us", Lower),
    layer("core.outcome_us_p50", "us", Lower),
    layer("core.build_share", "ratio", Lower),
    layer("core.rebind_share", "ratio", Lower),
    layer("core.run_share", "ratio", Lower),
    // core: counts, derived, probe
    layer("core.ticks_per_home", "count", Lower),
    layer("core.events_per_home", "count", Lower),
    layer("core.ns_per_tick", "ns", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.unattributed_share", "ratio", Lower),
    layer("core.hub.ns_per_on_env", "ns", Lower),
    // iotnet
    layer("iotnet.engine.ns_per_event", "ns", Lower),
    layer("iotnet.flow.ns_per_lookup", "ns", Lower),
    layer("iotnet.switch.ns_per_packet", "ns", Lower),
    layer("iotnet.net.ns_per_delivery", "ns", Lower),
    layer("iotnet.net.allocs_per_delivery", "count", Lower),
    layer("iotnet.switch.cache_lookups_per_home", "count", Lower),
    layer("iotnet.switch.cache_hit_rate", "ratio", Higher),
    // umbox
    layer("umbox.chain.ns_per_packet_pass", "ns", Lower),
    layer("umbox.chain.ns_per_packet_drop", "ns", Lower),
    layer("umbox.chain.build_us", "us", Lower),
    layer("umbox.blocks_per_home", "count", Higher),
    // iotdev
    layer("iotdev.device.ns_per_tick", "ns", Lower),
    layer("iotdev.device.ns_per_message", "ns", Lower),
    layer("iotdev.env.ns_per_step", "ns", Lower),
    // iotctl
    layer("iotctl.controller.ns_per_step_idle", "ns", Lower),
    layer("iotctl.controller.ns_per_step_event", "ns", Lower),
    layer("iotctl.aggregate.ns_per_home_barrier", "ns", Lower),
    // iotlearn
    layer("iotlearn.signature.ns_per_match", "ns", Lower),
    // iotpolicy
    layer("iotpolicy.explore.sweep_ms", "ms", Lower),
    layer("iotpolicy.explore.bfs_ms", "ms", Lower),
    layer("iotpolicy.explore.sweep_ms_t2", "ms", Lower),
    layer("iotpolicy.explore.bfs_ms_t2", "ms", Lower),
    layer("iotpolicy.explore.states", "count", Lower),
    layer("iotpolicy.explore.classes", "count", Lower),
    layer("iotpolicy.compile.us_per_policy", "us", Lower),
    layer("iotpolicy.intern.ns_per_intern", "ns", Lower),
    // trace
    layer("trace.emit_ns_enabled", "ns", Lower),
    layer("trace.emit_ns_disabled", "ns", Lower),
    layer("trace.events_per_round", "count", Lower),
    // bench: the harness's own accounting
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.host_noise_share", "ratio", Lower),
    layer("bench.work_per_s_t2", "1/s", Higher),
    layer("bench.t2_warm_ratio", "ratio", Higher),
    layer("bench.span_coverage_share", "ratio", Higher),
    layer("bench.alloc_bytes_per_op", "B", Lower),
    layer("bench.events_per_s", "1/s", Higher),
    layer("bench.op_samples", "count", Higher),
];

/// The definition of an end-to-end or per-layer metric.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
