//! World-level experiments: Table 1, Figures 3–5 and the end-to-end
//! campaign (E11).

use crate::Table;
use iotdev::registry::SkuRegistry;
use iotnet::time::SimDuration;
use iotsec::defense::{Defense, IoTSecConfig};
use iotsec::metrics::Metrics;
use iotsec::scenario;
use iotsec::world::World;

fn defense_label(d: &Defense) -> &'static str {
    match d {
        Defense::None => "none",
        Defense::Perimeter => "perimeter",
        Defense::IoTSec(cfg) if cfg.hierarchical => "iotsec-hier",
        Defense::IoTSec(_) => "iotsec",
    }
}

/// Whether the row's exploit landed (the same notion the paper's Table 1
/// reports: data exposure, actuator control, or DDoS participation).
pub fn exploit_landed(row: u8, m: &Metrics) -> bool {
    match row {
        1..=3 => !m.privacy_leaked.is_empty(),
        4 | 5 | 7 => !m.compromised.is_empty(),
        6 => m.ddos_bytes_at_victim > 0,
        _ => unreachable!(),
    }
}

/// T1 — Table 1 reproduced, with outcome columns per defense.
pub fn table1() -> Table {
    let registry = SkuRegistry::table1();
    let mut t = Table::new(
        "T1: Table 1 — known IoT vulnerabilities, exploited under each defense",
        &["row", "device", "population", "vulnerability", "undefended", "perimeter", "iotsec"],
    );
    for row in 1..=7u8 {
        let entry = registry.by_row(row).unwrap();
        let mut outcome = Vec::new();
        for defense in [Defense::None, Defense::Perimeter, Defense::iotsec()] {
            let (d, _) = scenario::table1_row(row, defense);
            let mut w = World::new(&d);
            w.run_until_attack_done(SimDuration::from_secs(120));
            let m = w.report();
            outcome.push(if exploit_landed(row, &m) { "EXPLOITED" } else { "protected" });
        }
        t.rowd(&[
            row.to_string(),
            format!("{} ({})", entry.sku, entry.class.name()),
            entry.population.to_string(),
            entry.description.to_string(),
            outcome[0].to_string(),
            outcome[1].to_string(),
            outcome[2].to_string(),
        ]);
    }
    t
}

/// F4 — Figure 4: the password-proxy security gateway.
pub fn figure4() -> Table {
    let mut t = Table::new(
        "F4: Figure 4 — patching an exposed password with a proxy umbox",
        &["defense", "dictionary login", "image stolen", "config stolen", "proxy intercepts"],
    );
    for defense in [Defense::None, Defense::Perimeter, Defense::iotsec()] {
        let label = defense_label(&defense);
        let (d, cam) = scenario::figure4(defense);
        let mut w = World::new(&d);
        w.run_until_attack_done(SimDuration::from_secs(120));
        let m = w.report();
        let login_ok = m.attack_outcomes.first().map(|o| o.success).unwrap_or(false);
        t.rowd(&[
            label.to_string(),
            if login_ok { "SUCCEEDED" } else { "blocked" }.to_string(),
            m.privacy_leaked.contains(&cam).to_string(),
            (m.steps_succeeded() >= 3).to_string(),
            m.umbox_intercepts.to_string(),
        ]);
    }
    t
}

/// F5 — Figure 5: the cross-device context gate.
pub fn figure5() -> Table {
    let mut t = Table::new(
        "F5: Figure 5 — allow ON to the Wemo only when somebody is home",
        &[
            "defense",
            "backdoor OFF landed",
            "backdoor ON landed",
            "attacker controls power",
            "umbox drops",
        ],
    );
    for defense in [Defense::None, Defense::Perimeter, Defense::iotsec()] {
        let label = defense_label(&defense);
        let (d, wemo, _) = scenario::figure5(defense);
        let mut w = World::new(&d);
        w.env.occupied = false;
        w.run_until_attack_done(SimDuration::from_secs(180));
        let m = w.report();
        let off_landed = m.attack_outcomes.first().map(|o| o.success).unwrap_or(false);
        let on_landed = m.attack_outcomes.get(1).map(|o| o.success).unwrap_or(false);
        t.rowd(&[
            label.to_string(),
            off_landed.to_string(),
            on_landed.to_string(),
            m.compromised.contains(&wemo).to_string(),
            m.umbox_drops.to_string(),
        ]);
    }
    t
}

/// F3 — Figure 3: the fire-alarm / window FSM policy, executed.
pub fn figure3() -> Table {
    let mut t = Table::new(
        "F3: Figure 3 — FSM policy: backdoor on the alarm blocks 'open' to the window",
        &[
            "defense",
            "backdoor touched",
            "window open sent",
            "window ended open",
            "physical breach",
        ],
    );
    for defense in [Defense::None, Defense::iotsec()] {
        let label = defense_label(&defense);
        let (d, _alarm, _window) = scenario::figure3(defense);
        let mut w = World::new(&d);
        w.env.occupied = false;
        w.run_until_attack_done(SimDuration::from_secs(180));
        let m = w.report();
        t.rowd(&[
            label.to_string(),
            m.attack_outcomes.first().map(|o| o.success).unwrap_or(false).to_string(),
            (m.attack_outcomes.len() > 1).to_string(),
            w.env.window_open.to_string(),
            m.physical_breach.to_string(),
        ]);
    }
    t
}

/// E11 — end-to-end smart-home campaign under every defense, plus the
/// break-in chain.
pub fn endtoend() -> Vec<Table> {
    let mut sweep = Table::new(
        "E11a: smart home (11 devices, 7 flaws) under a full exploit sweep",
        &["defense", "compromised", "privacy leaks", "ddos bytes", "steps ok", "umbox blocks"],
    );
    let defenses: Vec<Defense> = vec![
        Defense::None,
        Defense::Perimeter,
        Defense::iotsec(),
        Defense::IoTSec(IoTSecConfig { hierarchical: true, ..IoTSecConfig::default() }),
    ];
    for defense in defenses {
        let label = defense_label(&defense);
        let (d, _) = scenario::smart_home(defense, 7);
        let mut w = World::new(&d);
        w.env.occupied = true;
        w.run_until_attack_done(SimDuration::from_secs(300));
        let m = w.report();
        sweep.rowd(&[
            label.to_string(),
            m.compromised.len().to_string(),
            m.privacy_leaked.len().to_string(),
            m.ddos_bytes_at_victim.to_string(),
            format!("{}/{}", m.steps_succeeded(), m.attack_outcomes.len()),
            (m.umbox_drops + m.umbox_intercepts).to_string(),
        ]);
    }

    let mut chain = Table::new(
        "E11b: the multi-stage cyber-physical break-in chain",
        &["defense", "plug compromised", "temp (C)", "window open", "physical breach"],
    );
    for defense in [Defense::None, Defense::Perimeter, Defense::iotsec()] {
        let label = defense_label(&defense);
        let (d, plug, _) = scenario::breakin_chain(defense);
        let mut w = World::new(&d);
        w.env.occupied = false;
        w.env.ambient_c = 35.0;
        w.run_until_attack_done(SimDuration::from_secs(3600));
        let m = w.report();
        chain.rowd(&[
            label.to_string(),
            m.compromised.contains(&plug).to_string(),
            format!("{:.1}", w.env.temperature_c),
            w.env.window_open.to_string(),
            m.physical_breach.to_string(),
        ]);
    }
    vec![sweep, chain]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let t = table1();
        assert_eq!(t.len(), 7);
        let s = t.render();
        // The headline shape: undefended exploited, iotsec protected.
        assert!(s.matches("EXPLOITED").count() >= 13, "{s}");
        for line in s.lines().filter(|l| l.starts_with("| ")) {
            if line.contains("EXPLOITED") || line.contains("protected") {
                assert!(
                    line.trim_end().ends_with("protected |"),
                    "iotsec column must protect: {line}"
                );
            }
        }
    }

    #[test]
    fn figure_tables_render() {
        assert_eq!(figure4().len(), 3);
        assert_eq!(figure5().len(), 3);
        assert_eq!(figure3().len(), 2);
    }
}
