//! Packed-state encoding and memoized policy evaluation (the E19
//! engine).
//!
//! The naive representation of one point in `S = Π|Cᵢ| × Π|Eⱼ|` is a
//! [`SystemState`]: two heap vectors, cloned per visited state. Model
//! checkers in the SPIN/Murphi lineage instead pack the whole state
//! into a machine word; this module does the same for the paper's
//! product space:
//!
//! * [`PackedLayout`] — computed once per [`StateSchema`]: each device
//!   context and environment variable gets a fixed bit field inside one
//!   `u128` word (`⌈log₂ radix⌉` bits per slot), plus the mixed-radix
//!   stride used to rank states in **odometer order** — exactly the
//!   order the legacy [`StateSchema::iter_states`] visits (environment
//!   slots are the low digits, devices the high ones; a property test
//!   pins the equivalence).
//! * [`PackedState`] — one state as one `u128`. Encode/decode to
//!   [`SystemState`] is a bijection; iteration, ranking and successor
//!   generation are pure register arithmetic with zero allocation.
//! * `PackedPattern` — a policy rule pattern compiled to a
//!   `(mask, value)` pair: a state matches iff `word & mask == value`,
//!   one AND and one compare instead of two `BTreeMap` walks.
//! * [`MemoPolicy`] — memoized policy evaluation. The posture vector of
//!   a state is a pure function of *which rules match it* (the rule
//!   set, not the state itself), so evaluation keys a transition table
//!   by the 256-bit rule-match mask and interns each distinct
//!   [`PostureVector`] once. After warm-up the per-state cost is
//!   `rules × (AND + CMP)` plus one hash lookup — no FSM re-walk, no
//!   allocation (pinned by `tests/alloc_counter.rs`).

use crate::policy::FsmPolicy;
use crate::posture::{fingerprint_postures, PostureVector};
use crate::state_space::{StateSchema, SystemState};
use iotnet::hash::{WordHasher, WordMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// One slot's bit field inside the packed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotBits {
    /// Bit offset of the field.
    pub shift: u32,
    /// Field width in bits (`0` for single-valued domains).
    pub bits: u32,
    /// Domain size (number of values the slot ranges over).
    pub radix: u64,
}

impl SlotBits {
    /// The field mask, already shifted into place.
    #[inline]
    pub(crate) fn mask(&self) -> u128 {
        if self.bits == 0 {
            0
        } else {
            ((1u128 << self.bits) - 1) << self.shift
        }
    }

    /// Extract this slot's domain index from a packed word.
    #[inline]
    pub(crate) fn index_of(&self, word: u128) -> usize {
        if self.bits == 0 {
            0
        } else {
            ((word >> self.shift) & ((1u128 << self.bits) - 1)) as usize
        }
    }
}

/// One system state packed into a single word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedState(pub u128);

/// The bit layout of a schema's packed state space.
///
/// Digit order (for odometer iteration and ranking) is environment
/// slots first, then device slots — the legacy iterator's order.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLayout {
    env: Vec<SlotBits>,
    dev: Vec<SlotBits>,
    size: u128,
}

impl PackedLayout {
    /// Compute the layout for `schema`, or `None` when the packed word
    /// would exceed 127 bits — a space that large (> 10³⁸ states) is
    /// beyond exhaustive exploration anyway, and callers fall back to
    /// the legacy representation.
    pub fn of(schema: &StateSchema) -> Option<PackedLayout> {
        let mut shift = 0u32;
        let mut size: u128 = 1;
        let mut place = |radix: u64| -> Option<SlotBits> {
            debug_assert!(radix >= 1, "domains are non-empty by construction");
            let bits = if radix <= 1 { 0 } else { 64 - (radix - 1).leading_zeros() };
            let slot = SlotBits { shift, bits, radix };
            shift = shift.checked_add(bits)?;
            if shift > 127 {
                return None;
            }
            size = size.checked_mul(radix as u128)?;
            Some(slot)
        };
        let mut env = Vec::with_capacity(schema.env_vars.len());
        for var in &schema.env_vars {
            env.push(place(var.domain().len() as u64)?);
        }
        let mut dev = Vec::with_capacity(schema.devices.len());
        for d in &schema.devices {
            dev.push(place(d.contexts.len() as u64)?);
        }
        Some(PackedLayout { env, dev, size })
    }

    /// Exact number of states (`Π radix`), identical to
    /// [`StateSchema::size`] for packable schemas.
    pub fn size(&self) -> u128 {
        self.size
    }

    /// The device slot's bit field.
    pub(crate) fn dev_slot(&self, slot: usize) -> SlotBits {
        self.dev[slot]
    }

    /// The environment slot's bit field.
    pub(crate) fn env_slot(&self, slot: usize) -> SlotBits {
        self.env[slot]
    }

    /// Every slot in digit order: environment slots, then devices.
    pub(crate) fn slots(&self) -> impl Iterator<Item = &SlotBits> {
        self.env.iter().chain(self.dev.iter())
    }

    /// The first state in odometer order: every slot at domain index 0
    /// (== [`StateSchema::initial_state`]).
    pub fn first(&self) -> PackedState {
        PackedState(0)
    }

    /// The state after `p` in odometer order (`None` past the last).
    /// Environment slots are the low digits, devices the high —
    /// byte-compatible with the legacy iterator. Pure register
    /// arithmetic: no allocation.
    #[inline]
    pub fn next(&self, p: PackedState) -> Option<PackedState> {
        self.next_masked(p).map(|(n, _)| n)
    }

    /// [`PackedLayout::next`] plus the **changed region**: the union of
    /// the field masks of every slot that moved (the lower slots that
    /// wrapped to 0 and the one that carried). Because slot fields are
    /// laid out in digit order from bit 0 upward, the region is always
    /// a contiguous run of low bits — the key to incremental rule-mask
    /// maintenance ([`MemoPolicy::mask_step`]): a pattern whose mask
    /// misses the region kept its match bit.
    #[inline]
    pub(crate) fn next_masked(&self, p: PackedState) -> Option<(PackedState, u128)> {
        let mut word = p.0;
        let mut changed: u128 = 0;
        for slot in self.slots() {
            changed |= slot.mask();
            let idx = slot.index_of(word) as u64;
            if idx + 1 < slot.radix {
                return Some((PackedState(word + (1u128 << slot.shift)), changed));
            }
            word &= !slot.mask();
        }
        None
    }

    /// The odometer rank of `p` (position in iteration order,
    /// `0..size`).
    pub fn rank(&self, p: PackedState) -> u128 {
        let mut rank: u128 = 0;
        let mut stride: u128 = 1;
        for slot in self.slots() {
            rank += slot.index_of(p.0) as u128 * stride;
            stride *= slot.radix as u128;
        }
        rank
    }

    /// The state at odometer rank `rank` (must be `< size`).
    pub fn from_rank(&self, rank: u128) -> PackedState {
        assert!(rank < self.size, "rank {rank} out of range {}", self.size);
        let mut word: u128 = 0;
        let mut rest = rank;
        for slot in self.slots() {
            let idx = rest % slot.radix as u128;
            rest /= slot.radix as u128;
            word |= idx << slot.shift;
        }
        PackedState(word)
    }

    /// Pack a [`SystemState`] (contexts resolved against the schema's
    /// per-device domains).
    pub fn encode(&self, schema: &StateSchema, state: &SystemState) -> PackedState {
        let mut word: u128 = 0;
        for (slot, bits) in self.env.iter().enumerate() {
            word |= (state.env[slot] as u128) << bits.shift;
        }
        for (slot, bits) in self.dev.iter().enumerate() {
            let idx = schema.devices[slot]
                .contexts
                .iter()
                .position(|c| *c == state.contexts[slot])
                .expect("state context outside the schema domain");
            word |= (idx as u128) << bits.shift;
        }
        PackedState(word)
    }

    /// Unpack into the legacy representation.
    pub fn decode(&self, schema: &StateSchema, p: PackedState) -> SystemState {
        SystemState {
            contexts: self
                .dev
                .iter()
                .enumerate()
                .map(|(slot, bits)| schema.devices[slot].contexts[bits.index_of(p.0)])
                .collect(),
            env: self.env.iter().map(|bits| bits.index_of(p.0) as u8).collect(),
        }
    }

    /// Visit every one-slot neighbour of `p`: each slot changed to each
    /// *other* value in its domain, in digit order then ascending value
    /// order. This is the transition relation whose shells
    /// [`crate::explore::bfs_packed`] counts — context escalations and
    /// environment flips are all one-slot moves.
    #[inline]
    pub fn successors(&self, p: PackedState, mut visit: impl FnMut(PackedState)) {
        for slot in self.slots() {
            let current = slot.index_of(p.0) as u64;
            let cleared = p.0 & !slot.mask();
            // Which value to skip is data, not a branch: testing
            // `idx != current` mispredicts about once per slot.
            for i in 0..slot.radix - 1 {
                let idx = i + (i >= current) as u64;
                visit(PackedState(cleared | ((idx as u128) << slot.shift)));
            }
        }
    }
}

/// A rule pattern compiled against a layout: `word & mask == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedPattern {
    /// Union of the constrained slots' field masks.
    pub mask: u128,
    /// Required field values, already shifted into place.
    pub value: u128,
    /// False when the pattern constrains a slot or value the schema
    /// does not carry — it then matches nothing (the fail-closed
    /// reading [`crate::policy::StatePattern::matches`] implements).
    pub feasible: bool,
}

impl PackedPattern {
    /// Compile `pattern` against `schema`'s layout.
    pub(crate) fn compile(
        layout: &PackedLayout,
        schema: &StateSchema,
        pattern: &crate::policy::StatePattern,
    ) -> PackedPattern {
        let mut out = PackedPattern { mask: 0, value: 0, feasible: true };
        for (id, want) in &pattern.contexts {
            let Some(slot) = schema.device_slot(*id) else {
                out.feasible = false;
                continue;
            };
            let Some(idx) = schema.devices[slot].contexts.iter().position(|c| c == want) else {
                out.feasible = false;
                continue;
            };
            let bits = layout.dev_slot(slot);
            out.mask |= bits.mask();
            out.value |= (idx as u128) << bits.shift;
        }
        for (var, want) in &pattern.env {
            let Some(slot) = schema.env_slot(*var) else {
                out.feasible = false;
                continue;
            };
            let Some(idx) = var.domain().iter().position(|v| v == want) else {
                out.feasible = false;
                continue;
            };
            let bits = layout.env_slot(slot);
            out.mask |= bits.mask();
            out.value |= (idx as u128) << bits.shift;
        }
        out
    }

    /// Whether some state in the product space satisfies *both*
    /// patterns. Patterns are conjunctions of slot pins over a full
    /// product space, so a common state exists iff the two agree on
    /// every slot both pin — and both are feasible at all.
    pub(crate) fn overlaps(&self, other: &PackedPattern) -> bool {
        self.feasible
            && other.feasible
            && (self.value ^ other.value) & (self.mask & other.mask) == 0
    }
}

/// Upper bound on rule count for the memoized engine (the rule-match
/// mask is four `u64` words).
pub(crate) const MAX_MEMO_RULES: usize = 256;

/// Which rules matched a state: the memoization key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RuleMask([u64; 4]);

/// Four word folds. The derived impl hashes `[u64; 4]` as a length
/// prefix plus one 32-byte `write`: a fifth fold on every probe of every
/// mask-keyed table, and 33 under a hasher that folds `write` byte by
/// byte.
impl Hash for RuleMask {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.0 {
            state.write_u64(word);
        }
    }
}

impl RuleMask {
    #[inline]
    fn set(&mut self, rule: usize) {
        self.0[rule / 64] |= 1 << (rule % 64);
    }

    #[inline]
    fn clear(&mut self, rule: usize) {
        self.0[rule / 64] &= !(1 << (rule % 64));
    }

    #[inline]
    fn contains(&self, rule: usize) -> bool {
        self.0[rule / 64] & (1 << (rule % 64)) != 0
    }

    /// Set intersection.
    #[inline]
    fn and(&self, other: &RuleMask) -> RuleMask {
        RuleMask([
            self.0[0] & other.0[0],
            self.0[1] & other.0[1],
            self.0[2] & other.0[2],
            self.0[3] & other.0[3],
        ])
    }
}

/// One slot's outcome table: sub-mask → posture id, and the postures.
#[derive(Debug, Default)]
struct SlotOutcome {
    by_sub: WordMap<RuleMask, u32>,
    postures: Vec<crate::posture::Posture>,
}

/// Per-slot outcome tables, shareable between engines over one policy.
type SlotOutcomes = Arc<Mutex<Vec<SlotOutcome>>>;

/// Memoized packed evaluation of one [`FsmPolicy`].
///
/// `class_of` maps a packed state to a **class id**: an index into the
/// interned table of distinct [`PostureVector`]s. Two states get the
/// same id iff the policy prescribes them identical postures, so class
/// ids double as the posture-collapse equivalence classes of
/// [`crate::prune`].
#[derive(Debug)]
pub struct MemoPolicy<'a> {
    policy: &'a FsmPolicy,
    layout: PackedLayout,
    /// Rule indices sorted by `(priority, index)` — the evaluation
    /// order of [`FsmPolicy::evaluate`].
    eval_order: Vec<u32>,
    /// Per rule (policy order): its postures with the device resolved
    /// to a schema slot, so the cold path accumulates into a flat
    /// per-slot vector instead of a `BTreeMap` keyed by device id.
    /// Postures naming devices outside the schema are dropped here —
    /// [`FsmPolicy::evaluate`] ignores them too.
    rule_postures: Vec<Vec<(usize, crate::posture::Posture)>>,
    /// The feasible patterns flattened to `(rule index, mask, value)`
    /// so the per-state loop skips infeasible rules (which can never
    /// match) and streams two words per rule instead of a struct with
    /// a branch on `feasible`.
    feasible: Vec<(u32, u128, u128)>,
    memo: WordMap<RuleMask, u32>,
    /// One-entry cache in front of `memo`: consecutive states in
    /// odometer order usually trip the same rule set (only the low
    /// digits moved), and comparing four words in registers is far
    /// cheaper than probing a multi-megabyte hash table.
    last: Option<(RuleMask, u32)>,
    /// Per slot: the rules whose postures touch it. A slot's final
    /// posture is a pure function of `mask ∩ slot_affect[slot]` (rules
    /// accumulate per-slot independently), which is what makes the
    /// slot-decomposed memo below exact.
    slot_affect: Vec<RuleMask>,
    /// Per slot: sub-mask → index into `slot_postures[slot]`. Distinct
    /// per-slot outcomes number in the tens even when full classes
    /// number in the hundreds of thousands, so cold evaluation becomes
    /// one probe per slot — no posture merging, no map building. This
    /// is the engine's own cache in front of `outcomes`.
    slot_memo: Vec<WordMap<RuleMask, u32>>,
    /// Per slot: the interned final postures (baseline included),
    /// **deduplicated by value** — two sub-masks producing the same
    /// posture share one id, so classes compare exactly by their
    /// per-device id tuples. Always a prefix of the same slot's list
    /// in `outcomes`.
    slot_postures: Vec<Vec<crate::posture::Posture>>,
    /// The table that hands out slot-posture ids, locked only on this
    /// engine's first sighting of a `(slot, sub-mask)` pair. Engines
    /// built over one table (the workers of a parallel sweep) agree on
    /// every id, so their class tuples compare across engines.
    outcomes: SlotOutcomes,
    /// Per schema position: the slot its device id resolves to (the
    /// *first* slot for duplicate ids, exactly as the id-keyed map in
    /// [`FsmPolicy::evaluate`] shares entries).
    resolved_slots: Vec<usize>,
    /// Schema positions in ascending-device-id order with duplicate ids
    /// removed — the iteration order of a materialized vector's
    /// `BTreeMap`, used to stream fingerprints straight from the
    /// interned slot postures.
    fp_order: Vec<(iotdev::device::DeviceId, usize)>,
    /// Class id → its per-position slot-posture ids, a fixed-stride
    /// arena (`stride == schema.devices.len()`). This *is* the class
    /// table: the full [`PostureVector`] materializes on demand.
    class_pids: Vec<u32>,
    /// Tuple hash → first class id; exact identity is the arena slice.
    tuple_index: WordMap<u64, u32>,
    /// `(tuple hash, class id)` pairs beyond the first per hash.
    tuple_overflow: Vec<(u64, u32)>,
    /// Scratch for the per-position ids of the class being interned.
    pid_scratch: Vec<u32>,
    /// Class id → fingerprint, cached at intern time so digests never
    /// re-fingerprint the class table.
    class_fps: Vec<u64>,
    /// Class id → "quiet" (all-allow) flag, cached for the same reason.
    class_quiet: Vec<bool>,
    lookups: u64,
    hits: u64,
}

impl<'a> MemoPolicy<'a> {
    /// Build the engine, or `None` when the schema does not pack into
    /// 127 bits or the policy exceeds `MAX_MEMO_RULES` rules.
    pub fn new(policy: &'a FsmPolicy) -> Option<MemoPolicy<'a>> {
        MemoPolicy::sharing(policy, SlotOutcomes::default())
    }

    /// A fresh engine over the same policy and the same slot-outcome
    /// table: what each further worker of a parallel sweep runs.
    pub(crate) fn sibling(&self) -> MemoPolicy<'a> {
        MemoPolicy::sharing(self.policy, self.outcomes.clone())
            .expect("this engine packed, so its sibling does")
    }

    fn sharing(policy: &'a FsmPolicy, outcomes: SlotOutcomes) -> Option<MemoPolicy<'a>> {
        if policy.rules.len() > MAX_MEMO_RULES {
            return None;
        }
        let layout = PackedLayout::of(&policy.schema)?;
        let patterns: Vec<PackedPattern> = policy
            .rules
            .iter()
            .map(|r| PackedPattern::compile(&layout, &policy.schema, &r.pattern))
            .collect();
        let mut feasible: Vec<(u32, u128, u128)> = patterns
            .iter()
            .enumerate()
            .filter(|(_, pat)| pat.feasible)
            .map(|(i, pat)| (i as u32, pat.mask, pat.value))
            .collect();
        // Ascending by lowest constrained bit, so `mask_step` can stop
        // at the first pattern above the odometer's changed region
        // (unconstrained patterns sort last: trailing_zeros(0) == 128).
        feasible.sort_by_key(|(_, m, _)| m.trailing_zeros());
        let mut eval_order: Vec<u32> = (0..policy.rules.len() as u32).collect();
        eval_order.sort_by_key(|i| (policy.rules[*i as usize].priority, *i));
        let rule_postures: Vec<Vec<(usize, crate::posture::Posture)>> = policy
            .rules
            .iter()
            .map(|r| {
                r.postures
                    .iter()
                    .filter_map(|(dev, p)| {
                        policy.schema.device_slot(*dev).map(|slot| (slot, p.clone()))
                    })
                    .collect()
            })
            .collect();
        let n_slots = policy.schema.devices.len();
        let mut slot_affect = vec![RuleMask([0; 4]); n_slots];
        for (idx, postures) in rule_postures.iter().enumerate() {
            for (slot, _) in postures {
                slot_affect[*slot].set(idx);
            }
        }
        let resolved_slots: Vec<usize> = policy
            .schema
            .devices
            .iter()
            .map(|d| policy.schema.device_slot(d.id).expect("device is in its schema"))
            .collect();
        let mut fp_order: Vec<(iotdev::device::DeviceId, usize)> =
            policy.schema.devices.iter().enumerate().map(|(pos, d)| (d.id, pos)).collect();
        fp_order.sort_by_key(|(id, pos)| (*id, *pos));
        fp_order.dedup_by_key(|(id, _)| *id);
        outcomes.lock().unwrap().resize_with(n_slots, SlotOutcome::default);
        Some(MemoPolicy {
            policy,
            layout,
            eval_order,
            rule_postures,
            feasible,
            memo: WordMap::default(),
            last: None,
            slot_affect,
            slot_memo: vec![WordMap::default(); n_slots],
            slot_postures: vec![Vec::new(); n_slots],
            outcomes,
            resolved_slots,
            fp_order,
            class_pids: Vec::new(),
            tuple_index: WordMap::default(),
            tuple_overflow: Vec::new(),
            pid_scratch: Vec::new(),
            class_fps: Vec::new(),
            class_quiet: Vec::new(),
            lookups: 0,
            hits: 0,
        })
    }

    /// The schema's packed layout.
    pub fn layout(&self) -> &PackedLayout {
        &self.layout
    }

    /// `(lookups, memo hits)` so far.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Number of distinct posture classes seen so far.
    pub(crate) fn class_count(&self) -> usize {
        self.class_fps.len()
    }

    /// The posture vector of class `id`, materialized from the
    /// slot-posture arena. Classes are stored as per-position id
    /// tuples; only callers that need the full vector pay for building
    /// one.
    pub(crate) fn class(&self, id: u32) -> PostureVector {
        let stride = self.resolved_slots.len();
        let start = id as usize * stride;
        self.materialize(&self.class_pids[start..start + stride])
    }

    /// Whether class `id` is the all-allow ("quiet") posture vector.
    pub fn is_quiet(&self, id: u32) -> bool {
        self.class_quiet[id as usize]
    }

    /// The cached fingerprint of class `id` (computed once at intern
    /// time).
    pub(crate) fn class_fingerprint(&self, id: u32) -> u64 {
        self.class_fps[id as usize]
    }

    /// The rule-match mask of `p`: one AND + CMP per feasible rule, no
    /// allocation. Infeasible patterns were dropped at build time —
    /// they match nothing, so their mask bits stay zero for free.
    #[inline]
    pub(crate) fn mask_of(&self, p: PackedState) -> RuleMask {
        let mut mask = RuleMask([0; 4]);
        for (i, m, v) in &self.feasible {
            if p.0 & m == *v {
                mask.set(*i as usize);
            }
        }
        mask
    }

    /// Re-test only the patterns whose mask intersects `changed` (the
    /// region reported by [`PackedLayout::next_masked`] for the step
    /// that produced `p`), updating `mask` in place. The feasible list
    /// is sorted by lowest constrained bit and `changed` is a
    /// contiguous run of low bits, so the first untouched pattern ends
    /// the scan — on a typical odometer step only the rules pinning
    /// the lowest digit are re-evaluated.
    #[inline]
    pub(crate) fn mask_step(&self, mask: &mut RuleMask, p: PackedState, changed: u128) {
        for (i, m, v) in &self.feasible {
            if m & changed == 0 {
                break;
            }
            if p.0 & m == *v {
                mask.set(*i as usize);
            } else {
                mask.clear(*i as usize);
            }
        }
    }

    /// The class id of `p`. Hot path: rule-mask computation (one AND +
    /// CMP per rule) and a last-mask check or one hash probe —
    /// allocation only on the first sighting of a new rule set.
    #[inline]
    pub fn class_of(&mut self, p: PackedState) -> u32 {
        let mask = self.mask_of(p);
        self.class_of_mask(mask)
    }

    /// [`MemoPolicy::class_of`] for a rule mask the caller already
    /// holds — the memo half of the hot path, used by sweeps that
    /// maintain the mask incrementally via [`MemoPolicy::mask_step`].
    #[inline]
    pub(crate) fn class_of_mask(&mut self, mask: RuleMask) -> u32 {
        self.lookups += 1;
        if let Some((last_mask, id)) = self.last {
            if last_mask == mask {
                self.hits += 1;
                return id;
            }
        }
        if let Some(&id) = self.memo.get(&mask) {
            self.hits += 1;
            self.last = Some((mask, id));
            return id;
        }
        let id = self.intern_rule_set(mask);
        self.memo.insert(mask, id);
        self.last = Some((mask, id));
        id
    }

    /// Evaluate `p` through the memo: same result as
    /// [`FsmPolicy::evaluate`] on the decoded state (differentially
    /// tested).
    pub fn evaluate(&mut self, p: PackedState) -> PostureVector {
        let id = self.class_of(p);
        self.class(id)
    }

    /// The per-position slot-posture ids of the class `mask` produces,
    /// written into `out`. This is the cold evaluation: one sub-mask
    /// probe per slot, with the actual posture folding happening only
    /// on the first sighting of a `(slot, sub-mask)` pair — a handful
    /// of times total, however many classes the sweep interns.
    fn pids_for_mask(&mut self, mask: RuleMask, out: &mut Vec<u32>) {
        out.clear();
        for pos in 0..self.resolved_slots.len() {
            let rslot = self.resolved_slots[pos];
            let sub = mask.and(&self.slot_affect[rslot]);
            let pid = match self.slot_memo[rslot].get(&sub) {
                Some(&pid) => pid,
                None => self.resolve_slot(rslot, sub),
            };
            out.push(pid);
        }
    }

    /// First sighting of `(slot, sub)` by this engine: take its id from
    /// the outcome table, folding the posture there if no engine has
    /// yet, and catch this engine's posture list up to the table's.
    fn resolve_slot(&mut self, slot: usize, sub: RuleMask) -> u32 {
        let mut outcomes = self.outcomes.lock().unwrap();
        let table = &mut outcomes[slot];
        let pid = match table.by_sub.get(&sub) {
            Some(&pid) => pid,
            None => {
                let p = self.merge_slot(slot, sub);
                // Dedup by value: two sub-masks with the same final
                // posture share one id, so id-tuple equality is
                // exactly posture-vector equality.
                let pid = match table.postures.iter().position(|q| *q == p) {
                    Some(existing) => existing,
                    None => {
                        table.postures.push(p);
                        table.postures.len() - 1
                    }
                } as u32;
                table.by_sub.insert(sub, pid);
                pid
            }
        };
        let known = self.slot_postures[slot].len();
        self.slot_postures[slot].extend_from_slice(&table.postures[known..]);
        drop(outcomes);
        self.slot_memo[slot].insert(sub, pid);
        pid
    }

    /// Materialize the full posture vector of a per-position id tuple.
    fn materialize(&self, pids: &[u32]) -> PostureVector {
        let mut vec = PostureVector::new();
        for (pos, dev) in self.policy.schema.devices.iter().enumerate() {
            let win = &self.slot_postures[self.resolved_slots[pos]][pids[pos] as usize];
            if !win.is_allow() {
                vec.by_device.insert(dev.id, win.clone());
            }
        }
        vec
    }

    /// Cold half of the slot-decomposed memo: fold the rules in `sub`
    /// (a sub-mask of rules touching `slot`) over that slot alone, in
    /// evaluation order, then union in the baseline — the restriction
    /// of [`FsmPolicy::evaluate`]'s accumulator loop to one device.
    fn merge_slot(&self, slot: usize, sub: RuleMask) -> crate::posture::Posture {
        let mut acc = crate::posture::Posture::default();
        for idx in &self.eval_order {
            if !sub.contains(*idx as usize) {
                continue;
            }
            let rule = &self.policy.rules[*idx as usize];
            for (s, posture) in &self.rule_postures[*idx as usize] {
                if *s != slot {
                    continue;
                }
                if rule.override_lower {
                    acc = posture.clone();
                } else {
                    acc.merge(posture);
                }
            }
        }
        let mut out = self.policy.baseline.clone();
        out.merge(&acc);
        out
    }

    /// The fingerprint and quiet flag of an id tuple, streamed straight
    /// from the interned slot postures in ascending-device-id order
    /// through the fold [`PostureVector::fingerprint`] uses, without
    /// building the map.
    fn fp_of_pids(&self, pids: &[u32]) -> (u64, bool) {
        let mut quiet = true;
        let wins = self.fp_order.iter().filter_map(|(dev, pos)| {
            let win = &self.slot_postures[self.resolved_slots[*pos]][pids[*pos] as usize];
            (!win.is_allow()).then_some((*dev, win))
        });
        let h = fingerprint_postures(wins.inspect(|_| quiet = false));
        (h, quiet)
    }

    /// Cold path: resolve the rule set to its per-slot outcome tuple
    /// and intern it. No posture vector is built — class identity is
    /// the tuple.
    fn intern_rule_set(&mut self, mask: RuleMask) -> u32 {
        let mut pids = std::mem::take(&mut self.pid_scratch);
        self.pids_for_mask(mask, &mut pids);
        let id = self.intern_tuple(&pids, None);
        self.pid_scratch = pids;
        id
    }

    /// Intern an id tuple, caching its `(fingerprint, quiet)` alongside
    /// — `known` when another engine over the same outcome table
    /// already computed them.
    fn intern_tuple(&mut self, pids: &[u32], known: Option<(u64, bool)>) -> u32 {
        let mut th = WordHasher::default();
        for &pid in pids {
            th.write_u32(pid);
        }
        let th = th.finish();
        let stride = self.resolved_slots.len();
        let tuple_eq = |arena: &[u32], id: u32| -> bool {
            &arena[id as usize * stride..id as usize * stride + stride] == pids
        };
        let id = self.class_fps.len() as u32;
        match self.tuple_index.entry(th) {
            std::collections::hash_map::Entry::Occupied(first) => {
                let first = *first.get();
                if tuple_eq(&self.class_pids, first) {
                    return first;
                }
                for (oth, oid) in &self.tuple_overflow {
                    if *oth == th && tuple_eq(&self.class_pids, *oid) {
                        return *oid;
                    }
                }
                self.tuple_overflow.push((th, id));
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
        self.class_pids.extend_from_slice(pids);
        let (fp, quiet) = known.unwrap_or_else(|| self.fp_of_pids(pids));
        self.class_fps.push(fp);
        self.class_quiet.push(quiet);
        id
    }

    /// Fold in the classes of `other`, an engine over the same outcome
    /// table (so equal tuples are equal classes): afterwards this
    /// engine's class table is the union of the two.
    pub(crate) fn absorb(&mut self, other: &MemoPolicy<'_>) {
        debug_assert!(Arc::ptr_eq(&self.outcomes, &other.outcomes));
        for (slot, theirs) in other.slot_postures.iter().enumerate() {
            let known = self.slot_postures[slot].len().min(theirs.len());
            self.slot_postures[slot].extend_from_slice(&theirs[known..]);
        }
        let stride = self.resolved_slots.len();
        for id in 0..other.class_count() {
            let pids = &other.class_pids[id * stride..(id + 1) * stride];
            self.intern_tuple(pids, Some((other.class_fps[id], other.class_quiet[id])));
        }
        self.lookups += other.lookups;
        self.hits += other.hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PolicyCompiler;
    use crate::context::SecurityContext;
    use crate::policy::{figure3_policy, StatePattern};
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::env::EnvVar;
    use iotdev::vuln::Vulnerability;

    fn mixed_policy() -> FsmPolicy {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[Vulnerability::NoAuthControl]);
        c.device(DeviceId(2), DeviceClass::SmartPlug, &[]);
        c.env(EnvVar::Temperature); // 3-valued: a non-power-of-two radix
        c.env(EnvVar::Occupancy);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        c.gate_actuation(DeviceId(2), EnvVar::Occupancy, "present");
        c.build()
    }

    #[test]
    fn rule_mask_hashes_as_four_words() {
        /// Counts calls: `(write_u64, every other write)`.
        #[derive(Default)]
        struct Counting(u32, u32);
        impl Hasher for Counting {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, _: &[u8]) {
                self.1 += 1;
            }
            fn write_u64(&mut self, _: u64) {
                self.0 += 1;
            }
        }
        let mut mask = RuleMask([0; 4]);
        mask.set(3);
        mask.set(200);
        let mut h = Counting::default();
        mask.hash(&mut h);
        assert_eq!((h.0, h.1), (4, 0), "(write_u64 calls, byte-slice writes)");
    }

    #[test]
    fn layout_size_matches_schema() {
        let policy = mixed_policy();
        let layout = PackedLayout::of(&policy.schema).unwrap();
        assert_eq!(layout.size(), policy.schema.size());
    }

    #[test]
    fn huge_schemas_refuse_to_pack() {
        let mut s = StateSchema::new();
        for i in 0..70 {
            s.add_device_with(DeviceId(i), DeviceClass::Camera, SecurityContext::ALL.to_vec());
        }
        // 70 devices × 2 bits = 140 bits > 127.
        assert!(PackedLayout::of(&s).is_none());
    }

    #[test]
    fn encode_decode_round_trips_over_the_whole_space() {
        let policy = mixed_policy();
        let layout = PackedLayout::of(&policy.schema).unwrap();
        for state in policy.schema.iter_states() {
            let p = layout.encode(&policy.schema, &state);
            assert_eq!(layout.decode(&policy.schema, p), state);
        }
    }

    #[test]
    fn packed_iteration_matches_legacy_order() {
        let policy = mixed_policy();
        let layout = PackedLayout::of(&policy.schema).unwrap();
        let mut cursor = Some(layout.first());
        let mut count: u128 = 0;
        for (rank, state) in policy.schema.iter_states().enumerate() {
            let p = cursor.expect("packed iteration ended early");
            assert_eq!(layout.decode(&policy.schema, p), state, "rank {rank}");
            assert_eq!(layout.rank(p), rank as u128);
            assert_eq!(layout.from_rank(rank as u128), p);
            cursor = layout.next(p);
            count += 1;
        }
        assert_eq!(cursor, None, "packed iteration must end with the legacy iterator");
        assert_eq!(count, layout.size());
    }

    #[test]
    fn successors_change_exactly_one_slot() {
        let policy = mixed_policy();
        let layout = PackedLayout::of(&policy.schema).unwrap();
        let p = layout.from_rank(7);
        let base = layout.decode(&policy.schema, p);
        let mut seen = std::collections::HashSet::new();
        let mut n = 0u64;
        layout.successors(p, |s| {
            let st = layout.decode(&policy.schema, s);
            let diff = st.contexts.iter().zip(&base.contexts).filter(|(a, b)| a != b).count()
                + st.env.iter().zip(&base.env).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1, "successor must differ in exactly one slot");
            assert!(seen.insert(s), "duplicate successor");
            n += 1;
        });
        let expected: u64 = policy
            .schema
            .devices
            .iter()
            .map(|d| d.contexts.len() as u64 - 1)
            .chain(policy.schema.env_vars.iter().map(|v| v.domain().len() as u64 - 1))
            .sum();
        assert_eq!(n, expected);
    }

    #[test]
    fn memo_matches_naive_evaluation_exhaustively() {
        let policy = mixed_policy();
        let mut memo = MemoPolicy::new(&policy).unwrap();
        let layout = memo.layout().clone();
        for state in policy.schema.iter_states() {
            let p = layout.encode(&policy.schema, &state);
            assert_eq!(memo.evaluate(p), policy.evaluate(&state), "state {state:?}");
        }
        let (lookups, hits) = memo.stats();
        assert_eq!(lookups, policy.schema.size() as u64);
        assert!(hits > lookups / 2, "memo must absorb repeated rule sets: {hits}/{lookups}");
        assert!(memo.class_count() >= 2);
    }

    #[test]
    fn siblings_agree_on_ids_and_absorb_to_the_union() {
        let policy = mixed_policy();
        let mut whole = MemoPolicy::new(&policy).unwrap();
        let mut low = MemoPolicy::new(&policy).unwrap();
        let mut high = low.sibling();
        let layout = whole.layout().clone();
        let half = layout.size() / 2;
        // `high` goes first, so each sibling meets slot outcomes the
        // other has not and their posture lists grow out of step.
        for rank in (half..layout.size()).chain(0..half) {
            let p = layout.from_rank(rank);
            whole.class_of(p);
            if rank < half { &mut low } else { &mut high }.class_of(p);
        }
        low.absorb(&high);
        assert_eq!(low.class_count(), whole.class_count());
        assert_eq!(low.stats().0, layout.size() as u64);
        let classes = |m: &MemoPolicy| -> std::collections::BTreeSet<u64> {
            (0..m.class_count() as u32).map(|id| m.class(id).fingerprint()).collect()
        };
        assert_eq!(classes(&low), classes(&whole));
        for id in 0..low.class_count() as u32 {
            assert_eq!(low.class(id).fingerprint(), low.class_fingerprint(id));
        }
    }

    #[test]
    fn packed_pattern_overlap_agrees_with_witness_search() {
        let policy = mixed_policy();
        let layout = PackedLayout::of(&policy.schema).unwrap();
        let pats: Vec<StatePattern> = vec![
            StatePattern::any(),
            StatePattern::any().context(DeviceId(0), SecurityContext::Suspicious),
            StatePattern::any().context(DeviceId(0), SecurityContext::Normal),
            StatePattern::any().env(EnvVar::Occupancy, "present"),
            StatePattern::any().context(DeviceId(99), SecurityContext::Normal), // infeasible
        ];
        let packed: Vec<PackedPattern> =
            pats.iter().map(|p| PackedPattern::compile(&layout, &policy.schema, p)).collect();
        for (i, a) in packed.iter().enumerate() {
            for (j, b) in packed.iter().enumerate() {
                let witness = policy.schema.iter_states().any(|s| {
                    pats[i].matches(&policy.schema, &s) && pats[j].matches(&policy.schema, &s)
                });
                assert_eq!(a.overlaps(b), witness, "patterns {i} and {j}");
            }
        }
    }

    #[test]
    fn infeasible_patterns_match_nothing() {
        let policy = figure3_policy(DeviceId(0), DeviceId(1));
        let layout = PackedLayout::of(&policy.schema).unwrap();
        let pat = PackedPattern::compile(
            &layout,
            &policy.schema,
            &StatePattern::any().env(EnvVar::Door, "locked"),
        );
        assert!(!pat.feasible);
        assert!(!pat.overlaps(&pat), "no state satisfies it");
    }

    #[test]
    fn rule_cap_falls_back() {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::Camera, &[]);
        let mut policy = c.build();
        for i in 0..(MAX_MEMO_RULES + 1) {
            policy.add_rule(crate::policy::PolicyRule::new(
                (i % 7) as u16,
                StatePattern::any(),
                DeviceId(0),
                crate::posture::Posture::of(crate::posture::SecurityModule::Mirror),
            ));
        }
        assert!(MemoPolicy::new(&policy).is_none());
    }
}
