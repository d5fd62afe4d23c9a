//! Property tests for the packed-state engine (E19): the bitfield
//! encoding must be a bijection onto the legacy representation, packed
//! odometer iteration must replay the legacy iterator byte-for-byte,
//! and every engine — naive, packed-serial, packed-parallel — must
//! agree on counts, digests, BFS shells and reachable conflicts. The
//! shell count in `bfs_packed` is held to two independent specs kept
//! here: a reference search ([`reference_bfs`]) and the closed form
//! ([`product_shells`]).

use iotsec_repro::iotdev::device::{DeviceClass, DeviceId};
use iotsec_repro::iotdev::env::EnvVar;
use iotsec_repro::iotpolicy::conflict::{
    find_reachable_rule_conflicts, find_reachable_rule_conflicts_naive,
};
use iotsec_repro::iotpolicy::context::SecurityContext;
use iotsec_repro::iotpolicy::explore::{
    bfs_naive, bfs_packed, explore_naive, explore_packed, BfsStats,
};
use iotsec_repro::iotpolicy::packed::{MemoPolicy, PackedLayout};
use iotsec_repro::iotpolicy::policy::{FsmPolicy, PolicyRule, StatePattern};
use iotsec_repro::iotpolicy::posture::{BlockClass, Posture, SecurityModule};
use iotsec_repro::iotpolicy::state_space::StateSchema;
use iotsec_repro::trace::digest::fnv64;
use iotsec_repro::trace::tracer::Tracer;
use proptest::prelude::*;
use std::collections::HashSet;

/// Build a schema from raw generator output: each device picks a class
/// and a domain that is a distinct-value prefix of the context space
/// (length 1–4, so >2-valued domains and degenerate 1-valued domains
/// are both exercised); env vars draw from the full [`EnvVar`] list
/// (duplicates collapse, exactly as the builder promises).
fn schema_from(devices: &[(u8, u8)], envs: &[u8]) -> StateSchema {
    let mut schema = StateSchema::new();
    for (i, (class, nctx)) in devices.iter().enumerate() {
        let class = DeviceClass::ALL[*class as usize % DeviceClass::ALL.len()];
        let n = (*nctx as usize % SecurityContext::ALL.len()) + 1;
        schema.add_device_with(DeviceId(i as u32), class, SecurityContext::ALL[..n].to_vec());
    }
    for e in envs {
        schema.add_env(EnvVar::ALL[*e as usize % EnvVar::ALL.len()]);
    }
    schema
}

/// A device id no generated schema carries.
const STRAY: DeviceId = DeviceId(99);

/// One generated rule: `((priority, override_lower, stray), pins,
/// (target, module))`. A pin is `(slot, value)` over the schema's device-then-env
/// slots; a device pin draws from all four contexts, so on a narrower
/// domain it can name a value the slot never takes (an infeasible
/// pattern). `target` past the last device, or `stray`, puts a posture
/// on [`STRAY`].
type RawRule = ((u16, bool, bool), Vec<(u8, u8)>, (u8, u8));

fn policy_from(schema: StateSchema, strict: bool, rules: &[RawRule]) -> FsmPolicy {
    const MODULES: [SecurityModule; 6] = [
        SecurityModule::Mirror,
        SecurityModule::PasswordProxy,
        SecurityModule::ProtocolWhitelist,
        SecurityModule::Ids { ruleset: 1 },
        SecurityModule::RateLimit { pps: 10 },
        SecurityModule::Block(BlockClass::All),
    ];
    let (n_dev, n_env) = (schema.devices.len(), schema.env_vars.len());
    let mut policy = FsmPolicy::new(schema);
    if strict {
        policy.baseline = Posture::of(SecurityModule::ProtocolWhitelist);
    }
    for ((priority, override_lower, stray), pins, (target, module)) in rules {
        let mut pattern = StatePattern::any();
        for (slot, value) in pins {
            let slot = *slot as usize % (n_dev + n_env);
            pattern = if slot < n_dev {
                pattern.context(DeviceId(slot as u32), SecurityContext::ALL[*value as usize % 4])
            } else {
                let var = policy.schema.env_vars[slot - n_dev];
                pattern.env(var, var.domain()[*value as usize % var.domain().len()])
            };
        }
        let target = *target as usize % (n_dev + 1);
        let device = if target == n_dev { STRAY } else { DeviceId(target as u32) };
        let posture = Posture::of(MODULES[*module as usize % MODULES.len()]);
        let mut rule = PolicyRule::new(*priority, pattern, device, posture);
        if *stray {
            rule = rule.and_device(STRAY, Posture::of(SecurityModule::Mirror));
        }
        rule.override_lower = *override_lower;
        policy.add_rule(rule);
    }
    policy
}

/// The frontier search `bfs_packed` no longer runs: hash-set visited,
/// [`PackedLayout::successors`] as the transition relation, level by
/// level from the initial state, digest = XOR of
/// `fnv64(depth_le ‖ word_le)` over every `(depth, state)`. It is the
/// spec of `visited`, `depths` and `frontier_digest`, and the search to
/// start from if the relation is ever restricted (DESIGN.md §9).
fn reference_bfs(layout: &PackedLayout) -> BfsStats {
    let mut stats = BfsStats::default();
    let mut visited = HashSet::from([layout.first().0]);
    let mut frontier = vec![layout.first()];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        stats.depths.push(frontier.len() as u64);
        let mut next = Vec::new();
        for &p in &frontier {
            let mut bytes = [0u8; 20];
            bytes[..4].copy_from_slice(&depth.to_le_bytes());
            bytes[4..].copy_from_slice(&p.0.to_le_bytes());
            stats.frontier_digest ^= fnv64(&bytes);
            layout.successors(p, |s| {
                if visited.insert(s.0) {
                    next.push(s);
                }
            });
        }
        frontier = next;
        depth += 1;
    }
    stats.visited = visited.len() as u128;
    stats
}

/// Slot radices in digit order: environment slots, then devices.
fn radices(schema: &StateSchema) -> Vec<u64> {
    let env = schema.env_vars.iter().map(|v| v.domain().len() as u64);
    env.chain(schema.devices.iter().map(|d| d.contexts.len() as u64)).collect()
}

/// Coefficients of ∏(1 + (rᵢ − 1)·x) over the slots that can move:
/// coefficient *k* counts the states with exactly *k* slots off their
/// initial value, which is shell *k* of a search whose moves set any one
/// slot to any other value.
fn product_shells(radices: &[u64]) -> Vec<u64> {
    let mut shells = vec![1u64];
    for r in radices.iter().filter(|r| **r > 1) {
        shells.push(0);
        for k in (1..shells.len()).rev() {
            shells[k] += shells[k - 1] * (r - 1);
        }
    }
    shells
}

/// `bfs_packed` against the closed form on one policy.
fn assert_shells_are_the_product(policy: &FsmPolicy) {
    let bfs = bfs_packed(policy, 1, &Tracer::disabled()).expect("the policy packs");
    let radices = radices(&policy.schema);
    assert_eq!(bfs.depths, product_shells(&radices), "radices {radices:?}");
    assert_eq!(bfs.depths.len(), 1 + radices.iter().filter(|r| **r > 1).count());
    let layout = PackedLayout::of(&policy.schema).expect("the policy packs");
    assert_eq!(bfs.visited, layout.size());
    assert_eq!(bfs.visited, policy.schema.size());
}

/// E19's four populations (n = 12 is 3 359 232 states, past any search
/// a test could afford) have the shells their layouts predict.
#[test]
fn e19_populations_have_product_shells() {
    for &n in iotsec_bench::exp_space::POPULATIONS {
        assert_shells_are_the_product(&iotsec_bench::exp_policy::policy_for(n, n / 4));
    }
}

proptest! {
    /// The engines agree beyond the E1 family: random schemas of 1–6
    /// slots (radices 1–4 — a context domain has at most four values —
    /// so single-valued and non-power-of-two slots both occur), 0–8
    /// rules pinning 0–3 slots with tied and distinct priorities,
    /// overriding or merging, postures on devices inside and outside
    /// the schema, over an allow or a strict baseline.
    #[test]
    fn prop_engines_agree_on_random_policies(
        devices in prop::collection::vec((0u8..13, 0u8..4), 1..5),
        envs in prop::collection::vec(0u8..7, 0..3),
        strict in any::<bool>(),
        rules in prop::collection::vec(
            (
                (0u16..4, any::<bool>(), any::<bool>()),
                prop::collection::vec((0u8..6, 0u8..4), 0..4),
                (0u8..5, 0u8..6),
            ),
            0..9,
        ),
    ) {
        let policy = policy_from(schema_from(&devices, &envs), strict, &rules);
        let naive = explore_naive(&policy);
        prop_assert_eq!(naive.states, policy.schema.size());
        for threads in 1..=4 {
            let packed = explore_packed(&policy, threads).expect("small schemas always pack");
            prop_assert!(packed.digest() == naive.digest(), "threads={threads}: {packed:?} vs {naive:?}");
        }
        let mut memo = MemoPolicy::new(&policy).expect("small schemas always pack");
        let layout = memo.layout().clone();
        for state in policy.schema.iter_states() {
            let p = layout.encode(&policy.schema, &state);
            prop_assert_eq!(memo.evaluate(p), policy.evaluate(&state));
        }
    }

    /// Packed encode/decode is a bijection: every legacy state maps to
    /// a distinct word and back to itself, and the odometer
    /// rank/from_rank pair inverts on every state.
    #[test]
    fn prop_packed_roundtrip_is_bijective(
        devices in prop::collection::vec((0u8..13, 0u8..4), 0..5),
        envs in prop::collection::vec(0u8..7, 0..4),
    ) {
        let schema = schema_from(&devices, &envs);
        let layout = PackedLayout::of(&schema).expect("small schemas always pack");
        prop_assert_eq!(layout.size(), schema.size());
        let mut seen = std::collections::HashSet::new();
        for (rank, state) in schema.iter_states().enumerate() {
            let p = layout.encode(&schema, &state);
            prop_assert!(seen.insert(p), "encode must be injective");
            prop_assert_eq!(&layout.decode(&schema, p), &state);
            prop_assert_eq!(layout.rank(p), rank as u128);
            prop_assert_eq!(layout.from_rank(rank as u128), p);
        }
        prop_assert_eq!(seen.len() as u128, layout.size());
    }

    /// The packed odometer (`first`/`next`) replays the legacy iterator
    /// in exactly its order — the identity every digest in the repo
    /// leans on.
    #[test]
    fn prop_packed_iteration_matches_legacy_order(
        devices in prop::collection::vec((0u8..13, 0u8..4), 0..5),
        envs in prop::collection::vec(0u8..7, 0..4),
    ) {
        let schema = schema_from(&devices, &envs);
        let layout = PackedLayout::of(&schema).expect("small schemas always pack");
        let mut cursor = Some(layout.first());
        let mut count: u128 = 0;
        for state in schema.iter_states() {
            let p = cursor.expect("packed iteration ended early");
            prop_assert_eq!(&layout.decode(&schema, p), &state);
            cursor = layout.next(p);
            count += 1;
        }
        prop_assert!(cursor.is_none(), "packed iteration ran long");
        prop_assert_eq!(count, schema.size());
    }

    /// All three exhaustive engines agree on the E1/E19 policy family:
    /// identical state counts, class counts and order-independent
    /// digests, serial vs parallel vs naive.
    #[test]
    fn prop_engines_agree_on_policy_family(
        n in 2u32..7,
        pairs in 0u32..3,
        threads in 2usize..4,
    ) {
        let policy = iotsec_bench::exp_policy::policy_for(n, pairs);
        let naive = explore_naive(&policy);
        let serial = explore_packed(&policy, 1).expect("policy family packs");
        let parallel = explore_packed(&policy, threads).expect("policy family packs");
        prop_assert_eq!(naive.digest(), serial.digest());
        prop_assert_eq!(serial.digest(), parallel.digest());
        prop_assert_eq!(serial.states, policy.schema.size());
    }

    /// The shells agree with the naive clone-heavy search over legacy
    /// states, and `threads` is ignored: 1 and 4 return equal stats.
    #[test]
    fn prop_bfs_shells_match_naive(
        n in 2u32..6,
        pairs in 0u32..3,
    ) {
        let policy = iotsec_bench::exp_policy::policy_for(n, pairs);
        let tracer = Tracer::disabled();
        let bfs = bfs_packed(&policy, 1, &tracer).expect("policy family packs");
        prop_assert_eq!(&bfs, &bfs_packed(&policy, 4, &tracer).expect("policy family packs"));
        prop_assert_eq!(bfs_naive(&policy).histogram(), bfs.histogram());
        prop_assert_eq!(bfs.visited, policy.schema.size());
    }

    /// `bfs_packed` equals the reference search — visited count, every
    /// shell and the frontier digest, the one field `bfs_naive` cannot
    /// check — on random schemas (radices 1–4, so single-valued and
    /// non-power-of-two slots both occur) and on the policy family.
    #[test]
    fn prop_bfs_matches_reference_search(
        devices in prop::collection::vec((0u8..13, 0u8..4), 1..5),
        envs in prop::collection::vec(0u8..7, 0..3),
        n in 2u32..7,
        pairs in 0u32..3,
    ) {
        let random = FsmPolicy::new(schema_from(&devices, &envs));
        for policy in [random, iotsec_bench::exp_policy::policy_for(n, pairs)] {
            let layout = PackedLayout::of(&policy.schema).expect("small schemas always pack");
            let bfs = bfs_packed(&policy, 1, &Tracer::disabled()).expect("small schemas always pack");
            prop_assert_eq!(bfs, reference_bfs(&layout));
        }
    }

    /// The closed form is the spec: shells are the coefficients of
    /// ∏(1 + (rᵢ − 1)·x), one per movable slot plus the initial state.
    #[test]
    fn prop_bfs_shells_are_the_product(
        devices in prop::collection::vec((0u8..13, 0u8..4), 1..5),
        envs in prop::collection::vec(0u8..7, 0..3),
        n in 2u32..7,
        pairs in 0u32..3,
    ) {
        assert_shells_are_the_product(&FsmPolicy::new(schema_from(&devices, &envs)));
        assert_shells_are_the_product(&iotsec_bench::exp_policy::policy_for(n, pairs));
    }

    /// The packed co-activation conflict scan equals the exhaustive
    /// witness search on every policy in the family.
    #[test]
    fn prop_reachable_conflicts_match_witness_search(
        n in 2u32..7,
        pairs in 0u32..3,
    ) {
        let policy = iotsec_bench::exp_policy::policy_for(n, pairs);
        let packed = find_reachable_rule_conflicts(&policy);
        let naive = find_reachable_rule_conflicts_naive(&policy, 1 << 20)
            .expect("family fits under the witness-scan limit");
        prop_assert_eq!(packed, naive);
    }
}
