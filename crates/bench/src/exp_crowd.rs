//! Crowdsourcing experiments: E3 (signature quality under poisoning,
//! with the A3 ablation) and E4 (honeypot vs crowd coverage).

use crate::Table;
use iotdev::registry::Sku;
use iotlearn::repo::{RepoConfig, SignatureRepo};
use iotlearn::signature::{AttackSignature, Matcher, Severity};
use iotnet::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Outcome of one crowd simulation.
#[derive(Debug, Clone, Copy)]
pub struct CrowdOutcome {
    /// Valid signatures standing at the end.
    pub published_valid: usize,
    /// Bad signatures that were ever published (the DoS events).
    pub published_bad: u64,
}

/// Simulate `rounds` of repository activity with a crowd of `n`
/// reporters, a malicious fraction, and a configuration.
pub fn run_crowd(
    n: usize,
    malicious_fraction: f64,
    rounds: u64,
    config: RepoConfig,
    seed: u64,
) -> CrowdOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut repo = SignatureRepo::new(config);
    let reporters: Vec<_> = (0..n).map(|_| repo.register()).collect();
    let n_mal = (n as f64 * malicious_fraction).round() as usize;
    let (malicious, honest) = reporters.split_at(n_mal);
    let sku = Sku::new("belkin", "wemo", "1.0");

    for round in 0..rounds {
        // A third of malicious reporters submit garbage each round: half
        // match-alls (screenable), half plausible-looking junk.
        for (i, m) in malicious.iter().enumerate() {
            if !(round as usize + i).is_multiple_of(3) {
                continue;
            }
            let sig = if rng.gen_bool(0.5) {
                AttackSignature::new(sku.clone(), "fake", Matcher::MatchAll, Severity::High)
            } else {
                AttackSignature::new(
                    sku.clone(),
                    "fake",
                    Matcher::PayloadContains(vec![rng.gen::<u8>()]),
                    Severity::High,
                )
            };
            if let Some(sub) = repo.submit(*m, sig) {
                // Malicious reporters approve each other's garbage.
                for m2 in malicious {
                    repo.vote(*m2, sub, true);
                }
                for h in honest.iter().take(6) {
                    repo.vote(*h, sub, false);
                }
            }
        }
        // One honest observation per round.
        if let Some(h) = honest.get(round as usize % honest.len().max(1)) {
            let sig = AttackSignature::new(
                sku.clone(),
                "open-dns-resolver",
                Matcher::RecursiveDnsFromExternal,
                Severity::Medium,
            );
            if let Some(sub) = repo.submit(*h, sig) {
                for h2 in honest.iter().rev().take(6) {
                    repo.vote(*h2, sub, true);
                }
                for m in malicious.iter().take(6) {
                    repo.vote(*m, sub, false);
                }
            }
        }
        let published = repo.process(SimTime::from_secs(round * 60));
        for sig in published {
            repo.resolve(sig.id, sig.vuln_id == "open-dns-resolver");
        }
    }
    let published_valid =
        repo.published().iter().filter(|s| s.vuln_id == "open-dns-resolver").count();
    CrowdOutcome { published_valid, published_bad: repo.published_bad }
}

/// E3 — signature quality vs malicious fraction, with and without the
/// reputation/voting defenses (A3 ablation columns).
pub fn crowd(seed: u64) -> Table {
    let mut t = Table::new(
        "E3/A3: crowdsourced signature quality under poisoning",
        &[
            "malicious %",
            "full: valid pub / bad pub",
            "no-reputation: valid / bad",
            "no-screen: valid / bad",
        ],
    );
    let full = RepoConfig::default();
    let no_rep = RepoConfig { use_reputation: false, ..RepoConfig::default() };
    let no_screen = RepoConfig { screen_unselective: false, ..RepoConfig::default() };
    for frac in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let a = run_crowd(100, frac, 60, full, seed);
        let b = run_crowd(100, frac, 60, no_rep, seed);
        let c = run_crowd(100, frac, 60, no_screen, seed);
        t.rowd(&[
            format!("{:.0}%", frac * 100.0),
            format!("{} / {}", a.published_valid, a.published_bad),
            format!("{} / {}", b.published_valid, b.published_bad),
            format!("{} / {}", c.published_valid, c.published_bad),
        ]);
    }
    t
}

/// E4 — honeypot coverage vs crowdsourcing.
///
/// `n_skus` SKUs with a Zipf-like deployment distribution; attacks land
/// on SKUs proportionally to popularity. A honeypot farm of size `H`
/// covers the `H` most popular SKUs; a crowd with participation `p`
/// covers a SKU if at least one of its deployments participates.
pub fn coverage(seed: u64) -> Table {
    let mut t = Table::new(
        "E4: attack-signature coverage — honeypot farm vs crowdsourcing",
        &["strategy", "cost parameter", "SKUs covered", "attack coverage"],
    );
    let n_skus = 1000usize;
    let mut rng = StdRng::seed_from_u64(seed);
    // Zipf-ish deployment counts.
    let deployments: Vec<u64> =
        (0..n_skus).map(|i| (100_000.0 / (i + 1) as f64).ceil() as u64).collect();
    let total: u64 = deployments.iter().sum();
    // Attack mass per SKU ∝ deployments.
    let attack_weight = |i: usize| deployments[i] as f64 / total as f64;

    for honeypots in [10usize, 100, 1000] {
        let covered = honeypots.min(n_skus);
        let mass: f64 = (0..covered).map(attack_weight).sum();
        t.rowd(&[
            "honeypots (top-K SKUs)".to_string(),
            format!("K = {honeypots}"),
            covered.to_string(),
            format!("{:.1}%", mass * 100.0),
        ]);
    }
    for participation in [0.001f64, 0.01, 0.05] {
        let mut covered = 0usize;
        let mut mass = 0.0;
        for (i, d) in deployments.iter().enumerate() {
            // P(at least one participant among d deployments).
            let p_cover = 1.0 - (1.0 - participation).powf(*d as f64);
            if rng.gen_bool(p_cover.clamp(0.0, 1.0)) {
                covered += 1;
                mass += attack_weight(i);
            }
        }
        t.rowd(&[
            "crowdsourcing".to_string(),
            format!("participation = {:.1}%", participation * 100.0),
            covered.to_string(),
            format!("{:.1}%", mass * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defended_repo_contains_moderate_poisoning() {
        // A few plausible-looking junk signatures slip through before
        // their submitters' reputations collapse — then get retracted.
        // The invariant is containment: bad publications stay a small
        // fraction of the valid stream (vs. hundreds without defenses).
        let out = run_crowd(100, 0.2, 40, RepoConfig::default(), 1);
        assert!(out.published_valid > 20, "{out:?}");
        assert!((out.published_bad as f64) < 0.25 * out.published_valid as f64, "{out:?}");
    }

    #[test]
    fn undefended_repo_leaks_garbage() {
        let cfg = RepoConfig { use_reputation: false, screen_unselective: false, quorum: 1.0 };
        let out = run_crowd(100, 0.4, 40, cfg, 1);
        assert!(out.published_bad > 0, "{out:?}");
    }

    #[test]
    fn coverage_tables_render() {
        let t = coverage(5);
        assert_eq!(t.len(), 6);
    }
}
