//! The crowdsourced signature repository (§4.1).
//!
//! A publish–subscribe service keyed by SKU, with the three defenses the
//! paper proposes for its three challenges:
//!
//! * **Incentives** — contributors receive new signatures with *priority*
//!   (zero notification delay); free-riders see them after a lag.
//! * **Privacy** — published signatures are anonymized: the repository
//!   strips reporter identity before redistribution, so subscribers
//!   learn *what* to match, never *who* was breached.
//! * **Data quality** — submissions face a static selectivity screen,
//!   then a reputation-weighted vote; a submission publishes only when
//!   enough weighted approval accumulates. Reporter reputations follow a
//!   Beta model updated by eventual ground truth, so persistent poisoners
//!   lose influence (experiment E3 sweeps the malicious fraction).

use crate::signature::AttackSignature;
use iotdev::registry::Sku;
use iotnet::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// An opaque reporter handle. The repository knows reporters only by
/// these ids; published signatures never carry them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReporterId(pub u32);

/// A submission awaiting admission.
#[derive(Debug, Clone)]
pub(crate) struct Submission {
    /// Submission id.
    pub id: u64,
    /// The candidate signature (already anonymized: no reporter field).
    pub signature: AttackSignature,
    /// Weighted approval mass accumulated.
    pub approval: f64,
    /// Weighted disapproval mass.
    pub disapproval: f64,
    submitter: ReporterId,
    voters: Vec<(ReporterId, bool)>,
}

/// A notification queued for a subscriber.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Notification {
    /// The published signature.
    pub signature: AttackSignature,
    /// Earliest time the subscriber may act on it.
    pub available_at: SimTime,
}

#[derive(Debug, Clone)]
struct ReporterState {
    /// Beta-reputation counters: validated contributions vs bad ones.
    alpha: f64,
    beta: f64,
    /// Contribution count (for the priority incentive).
    contributions: u64,
}

impl ReporterState {
    fn reputation(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
}

/// Reject votes from reporters below this reputation.
const MIN_VOTE_REPUTATION: f64 = 0.2;
/// Notification lag for non-contributors (contributors get zero — the
/// incentive mechanism).
const FREERIDER_LAG: SimDuration = SimDuration::from_secs(3600);

/// Repository configuration.
#[derive(Debug, Clone, Copy)]
pub struct RepoConfig {
    /// Weighted approval mass needed to publish.
    pub quorum: f64,
    /// Whether the static selectivity screen is enabled.
    pub screen_unselective: bool,
    /// Whether reputation weighting is enabled (ablation A3 switches
    /// these off).
    pub use_reputation: bool,
}

impl Default for RepoConfig {
    fn default() -> Self {
        RepoConfig { quorum: 2.0, screen_unselective: true, use_reputation: true }
    }
}

/// Private provenance record: signature id, submitter, and each voter
/// with their vote direction.
type Provenance = (u64, ReporterId, Vec<(ReporterId, bool)>);

/// The repository.
///
/// ```
/// use iotdev::registry::Sku;
/// use iotlearn::repo::{RepoConfig, SignatureRepo};
/// use iotlearn::signature::{AttackSignature, Matcher, Severity};
/// use iotnet::time::SimTime;
///
/// // New reporters carry reputation 0.5, so one vote meets a 0.5 quorum.
/// let mut repo = SignatureRepo::new(RepoConfig { quorum: 0.5, ..RepoConfig::default() });
/// let (reporter, voter, subscriber) = (repo.register(), repo.register(), repo.register());
/// let sku = Sku::new("belkin", "wemo", "1.0");
/// repo.subscribe(subscriber, &sku);
///
/// let sig = AttackSignature::new(
///     sku, "open-dns-resolver", Matcher::RecursiveDnsFromExternal, Severity::Medium,
/// );
/// let submission = repo.submit(reporter, sig).unwrap();
/// repo.vote(voter, submission, true);
/// assert_eq!(repo.process(SimTime::ZERO).len(), 1);
///
/// // The free-riding subscriber sees it only after the incentive lag.
/// assert!(repo.fetch(subscriber, SimTime::ZERO).is_empty());
/// assert_eq!(repo.fetch(subscriber, SimTime::from_secs(3600)).len(), 1);
/// ```
#[derive(Debug)]
pub struct SignatureRepo {
    config: RepoConfig,
    reporters: HashMap<ReporterId, ReporterState>,
    next_reporter: u32,
    pending: Vec<Submission>,
    next_submission: u64,
    published: Vec<AttackSignature>,
    next_signature: u64,
    subscriptions: HashMap<Sku, Vec<ReporterId>>,
    inboxes: HashMap<ReporterId, Vec<Notification>>,
    /// Private provenance (signature id → submitter + approving voters);
    /// never exposed to subscribers — this is the anonymization boundary.
    provenance: Vec<Provenance>,
    /// Published signatures later proven bad (the DoS the paper worries
    /// about: a malicious signature blocking legitimate traffic).
    pub published_bad: u64,
}

impl SignatureRepo {
    /// A repository with the given configuration.
    pub fn new(config: RepoConfig) -> SignatureRepo {
        SignatureRepo {
            config,
            reporters: HashMap::new(),
            next_reporter: 0,
            pending: Vec::new(),
            next_submission: 0,
            published: Vec::new(),
            next_signature: 1,
            subscriptions: HashMap::new(),
            inboxes: HashMap::new(),
            provenance: Vec::new(),
            published_bad: 0,
        }
    }

    /// Register a reporter (a deployment). New reporters start with a
    /// neutral-low reputation: they must earn influence.
    pub fn register(&mut self) -> ReporterId {
        let id = ReporterId(self.next_reporter);
        self.next_reporter += 1;
        self.reporters.insert(id, ReporterState { alpha: 1.0, beta: 1.0, contributions: 0 });
        self.inboxes.insert(id, Vec::new());
        id
    }

    /// Current reputation of a reporter.
    pub fn reputation(&self, id: ReporterId) -> f64 {
        self.reporters.get(&id).map_or(0.0, |r| r.reputation())
    }

    /// Subscribe a reporter to a SKU's signature feed.
    pub fn subscribe(&mut self, id: ReporterId, sku: &Sku) {
        self.subscriptions.entry(sku.clone()).or_default().push(id);
    }

    /// Submit a signature. Returns the submission id, or `None` if the
    /// static screen rejected it outright.
    pub fn submit(&mut self, reporter: ReporterId, mut signature: AttackSignature) -> Option<u64> {
        let screened = self.config.screen_unselective && !signature.matcher.is_selective();
        if screened {
            // A screened submission still dings the submitter: publishing
            // a match-all "signature" is at best incompetent.
            if let Some(r) = self.reporters.get_mut(&reporter) {
                r.beta += 1.0;
            }
            return None;
        }
        signature.id = 0; // not yet published
        let id = self.next_submission;
        self.next_submission += 1;
        if let Some(r) = self.reporters.get_mut(&reporter) {
            r.contributions += 1;
        }
        self.pending.push(Submission {
            id,
            signature,
            approval: 0.0,
            disapproval: 0.0,
            submitter: reporter,
            voters: Vec::new(),
        });
        Some(id)
    }

    /// Vote on a pending submission. Votes are weighted by reputation
    /// when enabled; each reporter votes once per submission and cannot
    /// vote on their own.
    pub fn vote(&mut self, voter: ReporterId, submission: u64, approve: bool) {
        let Some(weight) = self.vote_weight(voter) else { return };
        let Some(sub) = self.pending.iter_mut().find(|s| s.id == submission) else {
            return;
        };
        if sub.submitter == voter || sub.voters.iter().any(|(v, _)| *v == voter) {
            return;
        }
        sub.voters.push((voter, approve));
        if approve {
            sub.approval += weight;
        } else {
            sub.disapproval += weight;
        }
    }

    fn vote_weight(&self, voter: ReporterId) -> Option<f64> {
        let rep = self.reporters.get(&voter)?.reputation();
        if self.config.use_reputation {
            if rep < MIN_VOTE_REPUTATION {
                return None;
            }
            Some(rep)
        } else {
            Some(1.0)
        }
    }

    /// Admit/reject pending submissions; queue notifications for
    /// subscribers of each published signature's SKU at time `now`.
    /// Returns the signatures published this round.
    pub fn process(&mut self, now: SimTime) -> Vec<AttackSignature> {
        let quorum = self.config.quorum;
        let mut newly_published = Vec::new();
        let mut keep = Vec::new();
        for mut sub in std::mem::take(&mut self.pending) {
            if sub.approval >= quorum && sub.approval > sub.disapproval {
                sub.signature.id = self.next_signature;
                self.next_signature += 1;
                newly_published.push(sub);
            } else if sub.disapproval >= quorum {
                if let Some(r) = self.reporters.get_mut(&sub.submitter) {
                    r.beta += 1.0;
                }
            } else {
                keep.push(sub);
            }
        }
        self.pending = keep;

        let mut round = Vec::with_capacity(newly_published.len());
        for sub in newly_published {
            let sku = sub.signature.sku.clone();
            let subscribers = self.subscriptions.get(&sku).cloned().unwrap_or_default();
            for subscriber in subscribers {
                let is_contributor =
                    self.reporters.get(&subscriber).map_or(0, |r| r.contributions) > 0;
                let lag = if is_contributor { SimDuration::ZERO } else { FREERIDER_LAG };
                self.inboxes.entry(subscriber).or_default().push(Notification {
                    signature: sub.signature.clone(), // anonymized: no submitter
                    available_at: now + lag,
                });
            }
            self.published.push(sub.signature.clone());
            // Remember provenance privately for reputation resolution.
            self.provenance.push((sub.signature.id, sub.submitter, sub.voters));
            round.push(sub.signature);
        }
        round
    }

    /// All published signatures.
    pub fn published(&self) -> &[AttackSignature] {
        &self.published
    }

    /// Notifications available to a subscriber at `now` (drains them).
    pub fn fetch(&mut self, subscriber: ReporterId, now: SimTime) -> Vec<AttackSignature> {
        let Some(inbox) = self.inboxes.get_mut(&subscriber) else { return Vec::new() };
        let (ready, later): (Vec<_>, Vec<_>) = inbox.drain(..).partition(|n| n.available_at <= now);
        *inbox = later;
        ready.into_iter().map(|n| n.signature).collect()
    }

    /// Ground-truth resolution: the simulation harness (which knows
    /// whether a published signature was genuine) reports back, and
    /// reputations update — submitter and approving voters gain on a
    /// valid signature, lose on a bad one.
    pub fn resolve(&mut self, signature_id: u64, was_valid: bool) {
        let Some(pos) = self.provenance.iter().position(|(id, _, _)| *id == signature_id) else {
            return;
        };
        let (_, submitter, voters) = self.provenance.remove(pos);
        if !was_valid {
            self.published_bad += 1;
            self.published.retain(|s| s.id != signature_id);
        }
        let bump = |r: &mut ReporterState, was_right: bool| {
            if was_right {
                r.alpha += 1.0;
            } else {
                r.beta += 2.0; // being wrong costs more than honesty earns
            }
        };
        if let Some(r) = self.reporters.get_mut(&submitter) {
            bump(r, was_valid);
        }
        // A voter was right iff their vote direction matches the ground
        // truth: approving a valid signature or rejecting a bad one.
        for (v, approved) in voters {
            if let Some(r) = self.reporters.get_mut(&v) {
                bump(r, approved == was_valid);
            }
        }
    }
}

// The provenance store lives outside the struct literal above; declare it
// via a small extension because publication strips identity from
// everything subscribers can see.
impl SignatureRepo {
    /// Number of published signatures still standing.
    pub fn published_count(&self) -> usize {
        self.published.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{Matcher, Severity};

    fn sku() -> Sku {
        Sku::new("belkin", "wemo", "1.0")
    }

    fn good_sig() -> AttackSignature {
        AttackSignature::new(
            sku(),
            "open-dns-resolver",
            Matcher::RecursiveDnsFromExternal,
            Severity::Medium,
        )
    }

    fn evil_sig() -> AttackSignature {
        AttackSignature::new(sku(), "fake", Matcher::MatchAll, Severity::High)
    }

    #[test]
    fn publish_flow_with_votes() {
        let mut repo = SignatureRepo::new(RepoConfig::default());
        let alice = repo.register();
        let bob = repo.register();
        let carol = repo.register();
        let dave = repo.register();
        repo.subscribe(dave, &sku());
        let sub = repo.submit(alice, good_sig()).unwrap();
        assert!(repo.process(SimTime::ZERO).is_empty()); // no quorum yet
        repo.vote(bob, sub, true);
        repo.vote(carol, sub, true);
        // Default reputations are 0.5 each → approval 1.0 < quorum 2.0.
        assert!(repo.process(SimTime::ZERO).is_empty());
        let erin = repo.register();
        let frank = repo.register();
        repo.vote(erin, sub, true);
        repo.vote(frank, sub, true);
        let published = repo.process(SimTime::ZERO);
        assert_eq!(published.len(), 1);
        assert!(published[0].id > 0);
        assert_eq!(repo.published_count(), 1);
    }

    #[test]
    fn screen_rejects_match_all() {
        let mut repo = SignatureRepo::new(RepoConfig::default());
        let mallory = repo.register();
        let before = repo.reputation(mallory);
        assert!(repo.submit(mallory, evil_sig()).is_none());
        assert!(repo.reputation(mallory) < before);
        // With the screen disabled (ablation), it becomes a pending sub.
        let mut repo =
            SignatureRepo::new(RepoConfig { screen_unselective: false, ..RepoConfig::default() });
        let mallory = repo.register();
        assert!(repo.submit(mallory, evil_sig()).is_some());
    }

    #[test]
    fn self_votes_and_double_votes_ignored() {
        let mut repo = SignatureRepo::new(RepoConfig::default());
        let alice = repo.register();
        let bob = repo.register();
        let sub = repo.submit(alice, good_sig()).unwrap();
        repo.vote(alice, sub, true); // self-vote: ignored
        repo.vote(bob, sub, true);
        repo.vote(bob, sub, true); // double: ignored
        assert!((repo.pending[0].approval - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disapproval_quorum_rejects_and_dings_submitter() {
        let mut repo = SignatureRepo::new(RepoConfig { quorum: 1.0, ..RepoConfig::default() });
        let mallory = repo.register();
        let bob = repo.register();
        let carol = repo.register();
        let sub = repo
            .submit(
                mallory,
                AttackSignature::new(
                    sku(),
                    "fake",
                    Matcher::PayloadContains(b"x".to_vec()),
                    Severity::Low,
                ),
            )
            .unwrap();
        let rep_before = repo.reputation(mallory);
        repo.vote(bob, sub, false);
        repo.vote(carol, sub, false);
        repo.process(SimTime::ZERO);
        assert_eq!(repo.published_count(), 0);
        assert!(repo.pending.is_empty(), "rejected, not left pending");
        assert!(repo.reputation(mallory) < rep_before);
    }

    #[test]
    fn contributors_get_priority_notifications() {
        let mut repo = SignatureRepo::new(RepoConfig { quorum: 0.5, ..RepoConfig::default() });
        let contributor = repo.register();
        let freerider = repo.register();
        let voter = repo.register();
        repo.subscribe(contributor, &sku());
        repo.subscribe(freerider, &sku());
        // The contributor has contributed something before.
        repo.submit(contributor, good_sig()).unwrap();
        let sub2 = repo.submit(contributor, good_sig()).unwrap();
        repo.vote(voter, sub2, true);
        repo.process(SimTime::from_secs(100));
        // At publication time: contributor sees it immediately...
        assert_eq!(repo.fetch(contributor, SimTime::from_secs(100)).len(), 1);
        // ...the free-rider only after the lag.
        assert!(repo.fetch(freerider, SimTime::from_secs(100)).is_empty());
        assert_eq!(repo.fetch(freerider, SimTime::from_secs(100 + 3600)).len(), 1);
    }

    #[test]
    fn resolution_updates_reputation_and_retracts() {
        let mut repo = SignatureRepo::new(RepoConfig { quorum: 0.5, ..RepoConfig::default() });
        let mallory = repo.register();
        let sheep = repo.register();
        // Mallory slips a selective-looking but bogus signature through.
        let sub = repo
            .submit(
                mallory,
                AttackSignature::new(
                    sku(),
                    "bogus",
                    Matcher::PayloadContains(b"\x01".to_vec()),
                    Severity::High,
                ),
            )
            .unwrap();
        repo.vote(sheep, sub, true);
        let published = repo.process(SimTime::ZERO);
        assert_eq!(published.len(), 1);
        let rep_before = repo.reputation(mallory);
        repo.resolve(published[0].id, false);
        assert_eq!(repo.published_bad, 1);
        assert_eq!(repo.published_count(), 0); // retracted
        assert!(repo.reputation(mallory) < rep_before);
        // Honest resolution raises reputation.
        let honest = repo.register();
        let voter = repo.register();
        let sub = repo.submit(honest, good_sig()).unwrap();
        repo.vote(voter, sub, true);
        let published = repo.process(SimTime::ZERO);
        let before = repo.reputation(honest);
        repo.resolve(published[0].id, true);
        assert!(repo.reputation(honest) > before);
    }

    #[test]
    fn low_reputation_voters_lose_the_franchise() {
        let mut repo = SignatureRepo::new(RepoConfig { quorum: 0.5, ..RepoConfig::default() });
        let mallory = repo.register();
        // Tank mallory's reputation with screened garbage.
        for _ in 0..10 {
            repo.submit(mallory, evil_sig());
        }
        assert!(repo.reputation(mallory) < 0.2);
        let alice = repo.register();
        let sub = repo.submit(alice, good_sig()).unwrap();
        repo.vote(mallory, sub, false); // vote carries no weight
        assert_eq!(repo.pending[0].disapproval, 0.0);
    }
}
