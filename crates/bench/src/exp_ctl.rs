//! Control-plane experiments: E7/A2 (flat vs hierarchical scalability)
//! and E8 (consistency under churn).

use crate::Table;
use iotctl::controller::{Controller, ControllerConfig};
use iotctl::hier::{HierarchicalController, Partitioning};
use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::events::{SecurityEvent, SecurityEventKind};
use iotdev::vuln::Vulnerability;
use iotnet::time::{SimDuration, SimTime};
use iotpolicy::compile::PolicyCompiler;
use iotpolicy::policy::FsmPolicy;
use umbox::element::ViewHandle;

fn deployment_policy(n: u32) -> FsmPolicy {
    let mut c = PolicyCompiler::new();
    for i in 0..n {
        let vulns = if i % 4 == 0 { vec![Vulnerability::default_admin_admin()] } else { vec![] };
        c.device(DeviceId(i), DeviceClass::Camera, &vulns);
    }
    // Sparse coupling: one protect pair per 10 devices.
    for p in 0..(n / 10) {
        c.protect_on_suspicion(DeviceId(p * 10), DeviceId(p * 10 + 1));
    }
    c.build()
}

fn event_burst(n_devices: u32, events: u64) -> Vec<SecurityEvent> {
    (0..events)
        .map(|i| {
            SecurityEvent::new(
                SimTime::from_micros(i * 50),
                DeviceId((i % n_devices as u64) as u32),
                SecurityEventKind::AuthFailureBurst,
            )
        })
        .collect()
}

/// E7 — event latency, flat vs hierarchical (coupling-partitioned),
/// with the A2 random-partition ablation as the fourth column.
pub fn control_plane() -> Table {
    let mut t = Table::new(
        "E7/A2: control-plane responsiveness — 500-event burst, per-event latency",
        &["devices", "flat p50 / max", "hier(coupling) p50 / max", "hier(random,4) p50 / max"],
    );
    for n in [10u32, 50, 100, 250, 500] {
        let events = event_burst(n, 500);

        let mut flat =
            Controller::new(deployment_policy(n), ControllerConfig::default(), ViewHandle::new());
        flat.reconcile(SimTime::ZERO);
        for e in events.clone() {
            flat.ingest(e);
        }
        flat.step(SimTime::from_secs(3600));
        let flat_stats = (flat.stats.latency.median(), flat.stats.latency.max());

        let run_hier = |partitioning: Partitioning| {
            let mut h = HierarchicalController::new(
                deployment_policy(n),
                partitioning,
                ControllerConfig::default(),
                ViewHandle::new(),
            );
            h.reconcile(SimTime::ZERO);
            for e in events.clone() {
                h.ingest(e);
            }
            h.step(SimTime::from_secs(3600));
            (h.worst_median(), h.worst_latency())
        };
        let hier = run_hier(Partitioning::ByCoupling);
        let rand = run_hier(Partitioning::Random { parts: 4, seed: 9 });

        t.rowd(&[
            n.to_string(),
            format!("{} / {}", flat_stats.0, flat_stats.1),
            format!("{} / {}", hier.0, hier.1),
            format!("{} / {}", rand.0, rand.1),
        ]);
    }
    t
}

/// E8 — consistency: how long the data-plane view lags a context change,
/// and what that does to gate decisions, per propagation setting.
pub fn consistency() -> Table {
    let mut t = Table::new(
        "E8: view-consistency window vs wrong gate decisions",
        &["propagation", "stale window", "racing ONs admitted (of 20)"],
    );
    for propagation_ms in [0u64, 10, 50, 200, 1000, 5000] {
        let propagation = SimDuration::from_millis(propagation_ms);
        let gate_view = ViewHandle::new();
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::SmartPlug, &[]);
        c.gate_actuation(DeviceId(0), EnvVar::Occupancy, "present");
        let mut ctl = Controller::new(
            c.build(),
            ControllerConfig { view_propagation: propagation },
            gate_view.clone(),
        );
        // Start with somebody home; the gate learns it.
        ctl.ingest_env(SimTime::ZERO, &[(EnvVar::Occupancy, "present")]);
        ctl.step(SimTime::ZERO + propagation);

        // The house empties at t0; attacker fires 20 ON attempts spread
        // over the next 2 s. Every attempt that hits a still-"present"
        // view is a wrong admission.
        let t0 = SimTime::from_secs(10);
        ctl.ingest_env(t0, &[(EnvVar::Occupancy, "absent")]);
        let mut admitted = 0;
        for k in 0..20u64 {
            let at = t0 + SimDuration::from_millis(k * 100);
            ctl.step(at);
            if gate_view.get(EnvVar::Occupancy) == Some("present") {
                admitted += 1;
            }
        }
        t.rowd(&[format!("{propagation}"), format!("{propagation}"), admitted.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_wins_at_scale() {
        // At 250 devices the hierarchical worst latency must be well
        // below flat's (the E7 shape).
        let n = 250;
        let events = event_burst(n, 500);
        let mut flat =
            Controller::new(deployment_policy(n), ControllerConfig::default(), ViewHandle::new());
        flat.reconcile(SimTime::ZERO);
        for e in events.clone() {
            flat.ingest(e);
        }
        flat.step(SimTime::from_secs(3600));
        let mut hier = HierarchicalController::new(
            deployment_policy(n),
            Partitioning::ByCoupling,
            ControllerConfig::default(),
            ViewHandle::new(),
        );
        hier.reconcile(SimTime::ZERO);
        for e in events {
            hier.ingest(e);
        }
        hier.step(SimTime::from_secs(3600));
        let flat_max = flat.stats.latency.max();
        let hier_max = hier.worst_latency();
        assert!(
            hier_max.as_nanos() * 5 < flat_max.as_nanos(),
            "hier {hier_max} vs flat {flat_max}"
        );
    }

    #[test]
    fn consistency_monotone_in_propagation() {
        let s = consistency().render();
        let admitted: Vec<u32> = s
            .lines()
            .filter(|l| l.starts_with("| ") && !l.contains("propagation"))
            .filter_map(|l| l.split('|').nth(3)?.trim().parse().ok())
            .collect();
        assert!(admitted.len() >= 4);
        for w in admitted.windows(2) {
            assert!(w[0] <= w[1], "{admitted:?}");
        }
        assert_eq!(admitted[0], 0, "strong consistency admits nothing: {admitted:?}");
    }
}
