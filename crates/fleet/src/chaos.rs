//! The fleet-tier chaos schedule and recovery policy (E25).
//!
//! E15 proved the single-home enforcement path under adversity; this
//! module aims the same discipline at the aggregation tier. A
//! [`FleetChaos`] is a *schedule*, not a process: every fault decision
//! is a pure function of `(seed, round, neighborhood, salt)` rolled on
//! the serial coordinator, so a chaos-on run is byte-identical across
//! `--threads {1,2,4}` and reruns for free — workers never see the
//! chaos at all. The fleet has one barrier; without a schedule it runs
//! under [`FleetChaos::calm`], on which no decision ever fires, and the
//! events that only describe weather are emitted only when a schedule
//! was attached — which is what keeps `BENCH_E20.json` and every
//! chaos-off golden byte-for-byte unchanged.
//!
//! The fault vocabulary matches the ISSUE's threat model for the
//! home → neighborhood → region hierarchy:
//!
//! * **flush-drop** — a neighborhood's upward flush is lost in transit;
//!   countered by idempotent bounded-backoff retries
//!   ([`RecoveryPolicy::retry`], the E15 `DeliveryChannel` pattern
//!   lifted to batches).
//! * **flush-dup** — the flush arrives *and* a duplicate lands one
//!   round later (at-least-once delivery); absorbed harmlessly by the
//!   [`iotctl::aggregate::RegionIntel`] epoch contract.
//! * **flush-reorder** — this round's surviving flushes reach the
//!   region in rotated order; a pure metamorphic fault, since the
//!   region unions into a canonical set.
//! * **agg-crash** — a neighborhood aggregator loses its unflushed
//!   buffer and respawns by replaying the checkpointed
//!   [`iotctl::aggregate::RegionLog`]; the lost reports' source homes
//!   re-publish from their memoized outcomes.
//! * **partition** — a whole neighborhood is cut from the region for
//!   [`FleetChaos::partition_rounds`] rounds (no flushes up, no install
//!   waves down); on rejoin, reconciliation fast-forwards it to the
//!   current epoch in one wave ([`RecoveryPolicy::reconcile`]).
//! * **install-delay** — a due install wave slips one round; delayed
//!   waves land unconditionally the next round, so the slip is bounded.
//!
//! Probabilities are per-mille (`0..=1000`) per neighborhood per round.
//! [`RecoveryPolicy`] exists separately so the seeded *weaknesses* the
//! acceptance criteria demand (retry disabled, reconciliation disabled,
//! degraded declaration disabled) are one-flag mutations the fuzz
//! oracle and repro corpus can name.

/// Bounded-backoff / reconciliation / degraded-mode switches — the
/// recovery half of the fault model, separated so weakened arms are
/// single-flag mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retry dropped flushes with bounded exponential backoff. Off is
    /// the `no-retry` seeded weakness: a dropped flush is lost forever
    /// and `check_fleet_trace` reports `lost-discovery`.
    pub retry: bool,
    /// Fast-forward behind neighborhoods (rejoined partitions, missed
    /// waves) to the current epoch each barrier. Off is the
    /// `no-reconcile` seeded weakness: a rejoined neighborhood only
    /// catches up if fresh intel happens to be absorbed later, and
    /// `check_fleet_trace` reports `unrecovered`.
    pub reconcile: bool,
    /// Rounds a published discovery may wait before every home has
    /// installed its epoch; past this the fleet must either have
    /// converged or be declaring degraded mode every round.
    pub staleness_budget: u32,
    /// Declare `fleet-degraded` when overdue. Off is the
    /// `unbounded-staleness` seeded weakness: the fleet silently blows
    /// the budget and `check_fleet_trace` reports `staleness-budget`.
    pub declare_degraded: bool,
    /// Retry backoff cap in rounds (the bounded half of
    /// bounded-backoff).
    pub max_backoff: u32,
}

impl RecoveryPolicy {
    /// The full recovery stack: retries, reconciliation, degraded
    /// declarations, a 4-round backoff cap and an 8-round staleness
    /// budget.
    pub fn standard() -> RecoveryPolicy {
        RecoveryPolicy {
            retry: true,
            reconcile: true,
            staleness_budget: 8,
            declare_degraded: true,
            max_backoff: 4,
        }
    }

    /// The `no-retry` seeded weakness.
    pub fn no_retry() -> RecoveryPolicy {
        RecoveryPolicy { retry: false, ..RecoveryPolicy::standard() }
    }

    /// Backoff (in rounds) before retry `attempt` (1-based):
    /// `min(2^(attempt-1), max_backoff)`, at least 1.
    pub(crate) fn backoff(&self, attempt: u32) -> u32 {
        1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX).min(self.max_backoff.max(1))
    }
}

/// A deterministic fleet fault schedule. See the module docs for the
/// fault vocabulary; all probabilities are per-mille per neighborhood
/// per round, rolled on the coordinator only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetChaos {
    /// Chaos seed (independent of the fleet seed, so the same fleet can
    /// face many schedules).
    pub seed: u64,
    /// P(flush dropped) per non-empty flush.
    pub drop_pm: u32,
    /// P(flush duplicated into the next round) per surviving flush.
    pub dup_pm: u32,
    /// P(this round's surviving flushes reach the region rotated) per
    /// round.
    pub reorder_pm: u32,
    /// P(aggregator crash) per neighborhood per round.
    pub crash_pm: u32,
    /// P(partition begins) per connected neighborhood per round.
    pub partition_pm: u32,
    /// Rounds a partition lasts once begun (clamped to ≥ 1).
    pub partition_rounds: u32,
    /// P(due install wave delayed one round) per neighborhood.
    pub delay_pm: u32,
    /// Fault-injection window: faults are only injected in rounds
    /// `0..horizon` (`u32::MAX` = forever). Recovery machinery — retry
    /// pumps, partition expiry, delayed waves — keeps running past the
    /// horizon, so a bounded window is how a run demonstrates (and the
    /// checker judges) post-fault convergence: weather, then calm, then
    /// every home back at the region epoch.
    pub horizon: u32,
    /// The recovery half of the model.
    pub policy: RecoveryPolicy,
}

impl FleetChaos {
    /// A mild default schedule at `seed`: every fault axis enabled at
    /// low intensity, full recovery stack.
    pub fn new(seed: u64) -> FleetChaos {
        FleetChaos {
            seed,
            drop_pm: 150,
            dup_pm: 150,
            reorder_pm: 100,
            crash_pm: 60,
            partition_pm: 60,
            partition_rounds: 2,
            delay_pm: 100,
            horizon: u32::MAX,
            policy: RecoveryPolicy::standard(),
        }
    }

    /// The schedule on which nothing ever fires — what a fleet built
    /// without chaos runs its barrier under.
    pub fn calm() -> FleetChaos {
        FleetChaos {
            drop_pm: 0,
            dup_pm: 0,
            reorder_pm: 0,
            crash_pm: 0,
            partition_pm: 0,
            delay_pm: 0,
            ..FleetChaos::new(0)
        }
    }

    /// Same schedule, different recovery policy (the weakened arms).
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> FleetChaos {
        self.policy = policy;
        self
    }

    /// Same schedule, faults confined to rounds `0..horizon`.
    pub fn with_horizon(mut self, horizon: u32) -> FleetChaos {
        self.horizon = horizon;
        self
    }

    /// The deterministic per-decision roll: a splitmix64 finalizer over
    /// `(seed, round, lane, salt)`. Pure, so any replay — same seed,
    /// same round structure — rolls identically regardless of thread
    /// count or host.
    fn roll(&self, round: u32, lane: u32, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(round) + 1))
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(u64::from(lane) + 1))
            .wrapping_add(salt.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Roll a per-mille probability. Never fires past the horizon.
    fn chance(&self, pm: u32, round: u32, lane: u32, salt: u64) -> bool {
        round < self.horizon
            && pm > 0
            && self.roll(round, lane, salt) % 1000 < u64::from(pm.min(1000))
    }

    /// Does neighborhood `n`'s flush get dropped this `attempt`
    /// (0 = first try, 1.. = retries — each retry faces the weather
    /// independently)?
    pub(crate) fn drops_flush(&self, round: u32, n: u32, attempt: u32) -> bool {
        self.chance(self.drop_pm, round, n, 0x1000 + u64::from(attempt))
    }

    /// Does neighborhood `n`'s surviving flush also land a duplicate
    /// next round?
    pub(crate) fn dups_flush(&self, round: u32, n: u32) -> bool {
        self.chance(self.dup_pm, round, n, 0x2000)
    }

    /// Rotation amount for this round's surviving flush list (`0` = in
    /// order); `len` is the number of flushes that survived.
    pub(crate) fn reorders(&self, round: u32, len: usize) -> usize {
        if len < 2 || !self.chance(self.reorder_pm, round, 0, 0x3000) {
            return 0;
        }
        (self.roll(round, 1, 0x3001) as usize) % len
    }

    /// Does neighborhood `n`'s aggregator crash at this barrier?
    pub(crate) fn crashes_agg(&self, round: u32, n: u32) -> bool {
        self.chance(self.crash_pm, round, n, 0x4000)
    }

    /// Does a partition cut neighborhood `n` off starting this barrier?
    pub(crate) fn partition_begins(&self, round: u32, n: u32) -> bool {
        self.chance(self.partition_pm, round, n, 0x5000)
    }

    /// Is neighborhood `n`'s due install wave delayed one round?
    pub(crate) fn delays_install(&self, round: u32, n: u32) -> bool {
        self.chance(self.delay_pm, round, n, 0x6000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_the_inputs() {
        let c = FleetChaos::new(7);
        for round in 0..20 {
            for n in 0..10 {
                assert_eq!(c.drops_flush(round, n, 0), c.drops_flush(round, n, 0));
                assert_eq!(c.crashes_agg(round, n), c.crashes_agg(round, n));
                assert_eq!(c.partition_begins(round, n), c.partition_begins(round, n));
            }
        }
    }

    #[test]
    fn zero_pm_never_fires_and_full_pm_always_fires() {
        let calm = FleetChaos::calm();
        let storm = FleetChaos {
            drop_pm: 1000,
            dup_pm: 1000,
            crash_pm: 1000,
            partition_pm: 1000,
            delay_pm: 1000,
            ..FleetChaos::new(1)
        };
        for round in 0..50 {
            for n in 0..8 {
                assert!(!calm.drops_flush(round, n, 0));
                assert!(!calm.crashes_agg(round, n));
                assert!(!calm.dups_flush(round, n));
                assert!(!calm.partition_begins(round, n));
                assert!(!calm.delays_install(round, n));
                assert!(storm.drops_flush(round, n, 0));
                assert!(storm.crashes_agg(round, n));
                assert!(storm.dups_flush(round, n));
                assert!(storm.partition_begins(round, n));
                assert!(storm.delays_install(round, n));
            }
        }
        assert_eq!(calm.reorders(3, 10), 0);
    }

    #[test]
    fn retries_face_independent_weather() {
        // At 50% drop, some (round, n) must drop the first attempt and
        // pass a retry — otherwise retries would be pointless.
        let c = FleetChaos { drop_pm: 500, ..FleetChaos::new(3) };
        let mut recovered = false;
        for round in 0..64 {
            if c.drops_flush(round, 0, 0) && !c.drops_flush(round, 0, 1) {
                recovered = true;
            }
        }
        assert!(recovered);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RecoveryPolicy::standard();
        assert_eq!(p.backoff(1), 1);
        assert_eq!(p.backoff(2), 2);
        assert_eq!(p.backoff(3), 4);
        assert_eq!(p.backoff(4), 4, "capped at max_backoff");
        assert_eq!(p.backoff(40), 4, "shift overflow saturates to the cap");
        let zero = RecoveryPolicy { max_backoff: 0, ..p };
        assert_eq!(zero.backoff(1), 1, "cap clamps to at least one round");
    }

    #[test]
    fn no_retry_flips_exactly_one_flag() {
        let s = RecoveryPolicy::standard();
        assert_eq!(RecoveryPolicy::no_retry(), RecoveryPolicy { retry: false, ..s });
    }

    #[test]
    fn no_fault_fires_at_or_past_the_horizon() {
        let c = FleetChaos {
            drop_pm: 1000,
            dup_pm: 1000,
            reorder_pm: 1000,
            crash_pm: 1000,
            partition_pm: 1000,
            delay_pm: 1000,
            ..FleetChaos::new(3)
        }
        .with_horizon(5);
        assert!(c.drops_flush(4, 0, 0), "inside the window the weather still rages");
        for round in 5..40 {
            for n in 0..8 {
                assert!(!c.drops_flush(round, n, 0));
                assert!(!c.drops_flush(round, n, 3), "retries are calm past the horizon too");
                assert!(!c.dups_flush(round, n));
                assert!(!c.crashes_agg(round, n));
                assert!(!c.partition_begins(round, n));
                assert!(!c.delays_install(round, n));
            }
            assert_eq!(c.reorders(round, 5), 0);
        }
    }

    #[test]
    fn reorder_rotation_is_within_bounds() {
        let c = FleetChaos { reorder_pm: 1000, ..FleetChaos::new(9) };
        for round in 0..32 {
            let r = c.reorders(round, 5);
            assert!(r < 5);
        }
        assert_eq!(c.reorders(0, 1), 0, "singleton lists cannot be reordered");
        assert_eq!(c.reorders(0, 0), 0);
    }
}
