//! Property tests for the packed-state engine (E19): the bitfield
//! encoding must be a bijection onto the legacy representation, packed
//! odometer iteration must replay the legacy iterator byte-for-byte,
//! and every engine — naive, packed-serial, packed-parallel — must
//! agree on counts, digests, BFS shells and reachable conflicts.

use iotsec_repro::iotdev::device::{DeviceClass, DeviceId};
use iotsec_repro::iotdev::env::EnvVar;
use iotsec_repro::iotpolicy::conflict::{
    find_reachable_rule_conflicts, find_reachable_rule_conflicts_naive,
};
use iotsec_repro::iotpolicy::context::SecurityContext;
use iotsec_repro::iotpolicy::explore::{bfs_naive, bfs_packed, explore_naive, explore_packed};
use iotsec_repro::iotpolicy::packed::{MemoPolicy, PackedLayout};
use iotsec_repro::iotpolicy::policy::{FsmPolicy, PolicyRule, StatePattern};
use iotsec_repro::iotpolicy::posture::{BlockClass, Posture, SecurityModule};
use iotsec_repro::iotpolicy::state_space::StateSchema;
use iotsec_repro::trace::tracer::Tracer;
use proptest::prelude::*;

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

    /// BFS agrees the same way: the packed frontier search visits the
    /// same shells as the naive clone-heavy search, and the parallel
    /// expansion is byte-identical to serial (digest included).
    #[test]
    fn prop_bfs_shells_and_parallel_identity(
        n in 2u32..6,
        pairs in 0u32..3,
        threads in 2usize..4,
    ) {
        let policy = iotsec_bench::exp_policy::policy_for(n, pairs);
        let tracer = Tracer::disabled();
        let serial = bfs_packed(&policy, 1, &tracer).expect("policy family packs");
        let parallel = bfs_packed(&policy, threads, &tracer).expect("policy family packs");
        prop_assert_eq!(serial.histogram(), parallel.histogram());
        prop_assert_eq!(serial.frontier_digest, parallel.frontier_digest);
        prop_assert_eq!(bfs_naive(&policy).histogram(), serial.histogram());
        prop_assert_eq!(serial.visited, policy.schema.size());
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
