//! E12 — anomaly detection on device behaviour, with and without
//! context conditioning.

use crate::Table;
use iotdev::device::DeviceId;
use iotlearn::anomaly::{AnomalyConfig, AnomalyDetector, Plane, Window};
use iotnet::addr::Ipv4Addr;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

const HUB: Ipv4Addr = Ipv4Addr([10, 0, 200, 1]);
const ATTACKER: Ipv4Addr = Ipv4Addr([100, 64, 0, 99]);

fn normal_window(rng: &mut StdRng, occupied: bool) -> Window {
    let mut w = Window::default();
    // Devices chat more when somebody is home (actuations, streaming).
    let telemetry = if occupied { 8 + rng.gen_range(0..5) } else { 2 + rng.gen_range(0..2) };
    for _ in 0..telemetry {
        w.record(Plane::Telemetry, HUB);
    }
    if occupied && rng.gen_bool(0.4) {
        w.record(Plane::Control, HUB);
    }
    w
}

fn attack_window(rng: &mut StdRng, kind: u8) -> Window {
    let mut w = Window::default();
    match kind {
        // DNS reflection burst.
        0 => {
            for _ in 0..100 + rng.gen_range(0..50) {
                w.record(Plane::Dns, Ipv4Addr([203, 0, 113, 50]));
            }
        }
        // Exfiltration to a new peer at roughly normal volume.
        1 => {
            for _ in 0..6 {
                w.record(Plane::Mgmt, ATTACKER);
            }
        }
        // Mimicry: telemetry-rate traffic while the house is empty —
        // exactly what only a context-conditioned profile can see.
        _ => {
            for _ in 0..10 {
                w.record(Plane::Telemetry, HUB);
            }
        }
    }
    w
}

/// One detector evaluation: (detection rate, false-positive rate).
pub fn evaluate(context_conditioned: bool, seed: u64) -> (f64, f64) {
    let dev = DeviceId(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut det = AnomalyDetector::new(AnomalyConfig { context_conditioned });
    for _ in 0..300 {
        let occupied = rng.gen_bool(0.5);
        let ctx = if occupied { "present" } else { "absent" };
        det.train(dev, ctx, &normal_window(&mut rng, occupied));
    }
    det.seal();

    let mut fp = 0;
    const NORMALS: u64 = 300;
    for _ in 0..NORMALS {
        let occupied = rng.gen_bool(0.5);
        let ctx = if occupied { "present" } else { "absent" };
        if det.score(dev, ctx, &normal_window(&mut rng, occupied)).flagged {
            fp += 1;
        }
    }
    let mut tp = 0;
    const ATTACKS: u64 = 300;
    for i in 0..ATTACKS {
        // Attacks land while the house is empty (kind 2 is the mimicry).
        let w = attack_window(&mut rng, (i % 3) as u8);
        if det.score(dev, "absent", &w).flagged {
            tp += 1;
        }
    }
    (tp as f64 / ATTACKS as f64, fp as f64 / NORMALS as f64)
}

/// E12 — the context-conditioning ablation.
pub fn anomaly(seed: u64) -> Table {
    let mut t = Table::new(
        "E12: anomaly detection — context conditioning on/off",
        &["profile", "detection rate", "false-positive rate"],
    );
    for (label, conditioned) in
        [("context-conditioned (per occupancy)", true), ("single profile (unconditioned)", false)]
    {
        let (tpr, fpr) = evaluate(conditioned, seed);
        t.rowd(&[
            label.to_string(),
            format!("{:.0}%", tpr * 100.0),
            format!("{:.1}%", fpr * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditioning_improves_detection() {
        let (tpr_on, fpr_on) = evaluate(true, 5);
        let (tpr_off, _) = evaluate(false, 5);
        assert!(tpr_on > tpr_off, "conditioned {tpr_on} vs flat {tpr_off}");
        assert!(tpr_on > 0.9, "conditioned detection {tpr_on}");
        assert!(fpr_on < 0.1, "false positives {fpr_on}");
    }
}
