//! State-space exploration: exhaustive sweeps and frontier BFS over the
//! packed engine (experiment E19).
//!
//! Three interchangeable engines compute the same [`SpaceStats`]:
//!
//! * [`explore_naive`] — the legacy formulation: clone a
//!   [`crate::state_space::SystemState`] per state, re-walk the rule
//!   list through [`FsmPolicy::evaluate`]. The reference the fast
//!   engines are differentially tested against.
//! * [`explore_packed`] with `threads <= 1` — packed serial: odometer
//!   over `u128` words with memoized evaluation
//!   ([`crate::packed::MemoPolicy`]), zero allocation per state.
//! * [`explore_packed`] with `threads > 1` — packed parallel: the rank
//!   space is cut into fixed chunks that workers claim off one atomic
//!   cursor (the pattern of `bench`'s sweep runner), and chunk results
//!   merge in **chunk order** into order-independent digests —
//!   so counts, class sets and quiet-state digests are byte-identical
//!   to the serial engines regardless of scheduling.
//!
//! [`bfs_packed`] explores the same space as a breadth-first frontier
//! expansion from the initial state (successor relation = one slot
//! changes value), with a dense word-indexed bitset visited arena when
//! the packed word fits [`DENSE_WORD_BITS_MAX`] bits and a hashed set
//! otherwise, emitting one control-class
//! [`TraceEvent::SpaceFrontier`] per depth.

use crate::packed::{FxBuild, MemoPolicy, PackedState, RuleMask};
use crate::policy::FsmPolicy;
use fixedbitset::FixedBitSet;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::Mutex;
use trace::event::TraceEvent;
use trace::tracer::Tracer;

/// Ranks per chunk in the parallel sweep, and frontier
/// states per chunk in the parallel BFS expansion.
pub const CHUNK: u128 = 1 << 14;

/// Largest packed-word width for which the BFS visited set uses a dense
/// bitset indexed by the word itself (2²⁸ bits = 32 MiB); wider spaces
/// fall back to a hashed set.
pub const DENSE_WORD_BITS_MAX: u32 = 28;

/// FNV-1a over a byte slice.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of a state rank — the per-state term of the order-independent
/// (XOR-merged) digests.
fn fnv_rank(rank: u128) -> u64 {
    fnv64(&rank.to_le_bytes())
}

/// Aggregate result of one exhaustive sweep. Every field is either a
/// count or an XOR-of-FNV digest, so partial results merge by addition /
/// XOR in any order — the determinism argument of the parallel engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpaceStats {
    /// States visited (the schema's exact size).
    pub states: u128,
    /// Distinct posture-vector equivalence classes.
    pub classes: u64,
    /// XOR of the distinct classes' fingerprints.
    pub class_digest: u64,
    /// States whose posture vector is all-allow ("quiet").
    pub quiet_states: u128,
    /// XOR of `fnv(rank)` over the quiet states.
    pub quiet_digest: u64,
    /// Memoized-evaluation `(lookups, hits)` — engine diagnostics, only
    /// meaningful (and only deterministic) for the serial packed engine;
    /// zero for the naive engine. Not part of [`SpaceStats::digest`].
    pub memo: (u64, u64),
}

impl SpaceStats {
    /// Canonical rendering of the *semantic* fields (excludes the memo
    /// diagnostics): two engines agree iff their digests are equal.
    pub fn digest(&self) -> String {
        format!(
            "states={} classes={} cd={:016x} quiet={} qd={:016x}",
            self.states, self.classes, self.class_digest, self.quiet_states, self.quiet_digest
        )
    }
}

/// Interned set of distinct posture vectors, keyed by fingerprint with
/// an equality-checked collision chain. Fingerprints are computed once
/// per vector and cached — never recomputed for the digest.
#[derive(Default)]
struct ClassSet {
    by_fp: HashMap<u64, Vec<usize>, FxBuild>,
    vecs: Vec<crate::posture::PostureVector>,
    fps: Vec<u64>,
}

impl ClassSet {
    /// Intern `v`, returning its id.
    fn intern(&mut self, v: &crate::posture::PostureVector) -> usize {
        self.intern_with_fp(v.fingerprint(), v)
    }

    /// Intern `v` whose fingerprint the caller already computed.
    fn intern_with_fp(&mut self, fp: u64, v: &crate::posture::PostureVector) -> usize {
        let chain = self.by_fp.entry(fp).or_default();
        for &id in chain.iter() {
            if self.vecs[id] == *v {
                return id;
            }
        }
        let id = self.vecs.len();
        chain.push(id);
        self.vecs.push(v.clone());
        self.fps.push(fp);
        id
    }

    fn digest(&self) -> u64 {
        self.fps.iter().fold(0, |a, b| a ^ b)
    }
}

/// Exhaustive sweep with the legacy engine: one [`SystemState`] clone
/// and one full rule-list walk per state. The differential reference.
///
/// [`SystemState`]: crate::state_space::SystemState
pub fn explore_naive(policy: &FsmPolicy) -> SpaceStats {
    let mut classes = ClassSet::default();
    let mut stats = SpaceStats::default();
    for (rank, state) in policy.schema.iter_states().enumerate() {
        let v = policy.evaluate(&state);
        if v.by_device.is_empty() {
            stats.quiet_states += 1;
            stats.quiet_digest ^= fnv_rank(rank as u128);
        }
        classes.intern(&v);
        stats.states += 1;
    }
    stats.classes = classes.vecs.len() as u64;
    stats.class_digest = classes.digest();
    stats
}

/// Per-chunk partial result of the parallel sweep.
struct ChunkOut {
    states: u128,
    quiet_states: u128,
    quiet_digest: u64,
    /// `(fingerprint, posture vector)` pairs whose rule set this worker
    /// was the first to evaluate (per the shared cold table). Distinct
    /// masks can still map to equal vectors, so the merge re-interns —
    /// but with the fingerprint precomputed.
    new_classes: Vec<(u64, crate::posture::PostureVector)>,
}

/// Number of lock shards in the parallel sweep's shared cold table.
const MEMO_SHARDS: usize = 64;

/// One shard of the shared cold table: rule mask → `(fingerprint, quiet)`.
type MemoShard = Mutex<HashMap<RuleMask, (u64, bool), FxBuild>>;

/// The parallel sweep's shared memo: rule mask → `(fingerprint, quiet)`,
/// sharded by mask hash so each distinct rule set is evaluated **once
/// across all workers** (the cold evaluation builds a full posture
/// vector — by far the most expensive step in the sweep). Workers front
/// this with a per-worker unsharded cache, so the locks only see first
/// sightings.
struct SharedMemo {
    shards: Vec<MemoShard>,
    build: FxBuild,
}

impl SharedMemo {
    fn new() -> SharedMemo {
        SharedMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(HashMap::default())).collect(),
            build: FxBuild::default(),
        }
    }

    fn shard(&self, mask: &RuleMask) -> &MemoShard {
        &self.shards[self.build.hash_one(mask) as usize % MEMO_SHARDS]
    }

    /// Resolve `mask`, evaluating via `memo` at most once globally. The
    /// boolean is true when this caller won the evaluation race and owns
    /// exporting the class.
    fn resolve(&self, memo: &MemoPolicy<'_>, mask: RuleMask, out: &mut ChunkOut) -> (u64, bool) {
        let shard = self.shard(&mask);
        if let Some(&v) = shard.lock().unwrap().get(&mask) {
            return v;
        }
        // Evaluate outside the lock: a racing worker may duplicate the
        // work, but only the insert winner exports the class.
        let vec = memo.posture_for_mask(mask);
        let fp = vec.fingerprint();
        let quiet = vec.by_device.is_empty();
        let mut guard = shard.lock().unwrap();
        if let Some(&v) = guard.get(&mask) {
            return v;
        }
        guard.insert(mask, (fp, quiet));
        drop(guard);
        out.new_classes.push((fp, vec));
        (fp, quiet)
    }
}

/// Exhaustive sweep with the packed engine. `None` when the schema does
/// not pack (see [`MemoPolicy::new`]). `threads <= 1` runs serially —
/// the canonical packed engine; `threads > 1` cuts the rank space into
/// [`CHUNK`]-sized chunks claimed off an atomic cursor, each worker
/// holding its own [`MemoPolicy`], and merges the chunk results in
/// chunk order. Counts and digests are identical in all three modes.
pub fn explore_packed(policy: &FsmPolicy, threads: usize) -> Option<SpaceStats> {
    if threads <= 1 {
        return explore_packed_serial(policy);
    }
    let memo_probe = MemoPolicy::new(policy)?;
    let layout = memo_probe.layout().clone();
    drop(memo_probe);
    let size = layout.size();
    let n_chunks = size.div_ceil(CHUNK) as usize;

    let next_chunk = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ChunkOut>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let shared = SharedMemo::new();

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            let next_chunk = &next_chunk;
            let slots = &slots;
            let layout = &layout;
            let shared = &shared;
            scope.spawn(move |_| {
                let memo = MemoPolicy::new(policy).expect("probed packable above");
                // Per-worker lock-free cache over the shared cold table,
                // fronted by a one-entry last-mask cache (consecutive
                // ranks usually trip the same rule set).
                let mut local: HashMap<RuleMask, (u64, bool), FxBuild> = HashMap::default();
                let mut last: Option<(RuleMask, (u64, bool))> = None;
                loop {
                    let chunk = next_chunk.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    let start = chunk as u128 * CHUNK;
                    let end = (start + CHUNK).min(size);
                    let mut out = ChunkOut {
                        states: 0,
                        quiet_states: 0,
                        quiet_digest: 0,
                        new_classes: Vec::new(),
                    };
                    // Full mask once at the chunk's first rank, then
                    // incremental maintenance along the odometer.
                    let mut p = layout.from_rank(start);
                    let mut mask = memo.mask_of(p);
                    for rank in start..end {
                        let (_, quiet) = match last {
                            Some((last_mask, v)) if last_mask == mask => v,
                            _ => {
                                let v = match local.get(&mask) {
                                    Some(&v) => v,
                                    None => {
                                        let v = shared.resolve(&memo, mask, &mut out);
                                        local.insert(mask, v);
                                        v
                                    }
                                };
                                last = Some((mask, v));
                                v
                            }
                        };
                        if quiet {
                            out.quiet_states += 1;
                            out.quiet_digest ^= fnv_rank(rank);
                        }
                        out.states += 1;
                        if rank + 1 < end {
                            let (n, changed) =
                                layout.next_masked(p).expect("odometer ended inside the range");
                            p = n;
                            memo.mask_step(&mut mask, n, changed);
                        }
                    }
                    *slots[chunk].lock().unwrap() = Some(out);
                }
            });
        }
    })
    .expect("exploration worker panicked");

    let mut stats = SpaceStats::default();
    let mut classes = ClassSet::default();
    for slot in &slots {
        let out = slot.lock().unwrap().take().expect("every chunk must report");
        stats.states += out.states;
        stats.quiet_states += out.quiet_states;
        stats.quiet_digest ^= out.quiet_digest;
        for (fp, v) in &out.new_classes {
            classes.intern_with_fp(*fp, v);
        }
    }
    stats.classes = classes.vecs.len() as u64;
    stats.class_digest = classes.digest();
    Some(stats)
}

/// The serial packed engine: the zero-alloc inner loop the allocation
/// profile test pins.
fn explore_packed_serial(policy: &FsmPolicy) -> Option<SpaceStats> {
    let mut memo = MemoPolicy::new(policy)?;
    let layout = memo.layout().clone();
    let mut stats = SpaceStats::default();
    let mut p = layout.first();
    let mut mask = memo.mask_of(p);
    let mut rank: u128 = 0;
    loop {
        let id = memo.class_of_mask(mask);
        if memo.is_quiet(id) {
            stats.quiet_states += 1;
            stats.quiet_digest ^= fnv_rank(rank);
        }
        stats.states += 1;
        rank += 1;
        // Incremental mask maintenance: only rules touching the
        // odometer's changed low digits are re-tested.
        match layout.next_masked(p) {
            Some((n, changed)) => {
                p = n;
                memo.mask_step(&mut mask, n, changed);
            }
            None => break,
        }
    }
    stats.classes = memo.class_count() as u64;
    stats.class_digest =
        (0..memo.class_count() as u32).map(|id| memo.class_fingerprint(id)).fold(0, |a, b| a ^ b);
    stats.memo = memo.stats();
    Some(stats)
}

/// Result of a frontier BFS from the initial state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BfsStats {
    /// Total states reached.
    pub visited: u128,
    /// Frontier size per depth (`depths[0] == 1`, the initial state).
    pub depths: Vec<u64>,
    /// XOR of `fnv(depth ‖ word)` over every `(depth, state)` pair —
    /// zero for the naive engine, which has no packed words to hash.
    pub frontier_digest: u64,
}

impl BfsStats {
    /// Canonical rendering for differential comparison (digest last so
    /// naive/packed comparisons can strip it).
    pub fn histogram(&self) -> String {
        let shells: Vec<String> = self.depths.iter().map(|d| d.to_string()).collect();
        format!("visited={} shells=[{}]", self.visited, shells.join(","))
    }
}

/// Visited-state arena: dense word-indexed bitset when the packed word
/// is narrow enough, hashed otherwise. The dense arm costs one shift
/// and an OR per probe; the hashed arm is the graceful degradation.
enum Visited {
    Dense(FixedBitSet),
    Hashed(HashSet<u128>),
}

impl Visited {
    fn for_layout(layout: &crate::packed::PackedLayout) -> Visited {
        if layout.total_bits() <= DENSE_WORD_BITS_MAX {
            Visited::Dense(FixedBitSet::with_capacity(layout.word_space() as usize))
        } else {
            Visited::Hashed(HashSet::new())
        }
    }

    /// Whether the bitset arm is in use (surface for tests and E19).
    fn is_dense(&self) -> bool {
        matches!(self, Visited::Dense(_))
    }

    #[inline]
    fn contains(&self, p: PackedState) -> bool {
        match self {
            Visited::Dense(bits) => bits.contains(p.0 as usize),
            Visited::Hashed(set) => set.contains(&p.0),
        }
    }

    /// Insert and return whether the state was already present.
    #[inline]
    fn put(&mut self, p: PackedState) -> bool {
        match self {
            Visited::Dense(bits) => bits.put(p.0 as usize),
            Visited::Hashed(set) => !set.insert(p.0),
        }
    }

    fn count(&self) -> u128 {
        match self {
            Visited::Dense(bits) => bits.count_ones() as u128,
            Visited::Hashed(set) => set.len() as u128,
        }
    }
}

fn fnv_depth_word(depth: u32, word: u128) -> u64 {
    let mut bytes = [0u8; 20];
    bytes[..4].copy_from_slice(&depth.to_le_bytes());
    bytes[4..].copy_from_slice(&word.to_le_bytes());
    fnv64(&bytes)
}

/// Whether a packed BFS over this policy's schema would use the dense
/// visited arena (E19 reports this per population).
pub fn bfs_uses_dense_visited(policy: &FsmPolicy) -> Option<bool> {
    let layout = crate::packed::PackedLayout::of(&policy.schema)?;
    Some(layout.total_bits() <= DENSE_WORD_BITS_MAX)
}

/// Frontier BFS over the packed space from the initial state; successors
/// flip one slot to one other value. `None` when the schema does not
/// pack. `threads > 1` expands each frontier in [`CHUNK`]-sized slices
/// on a scoped pool — workers only *read* the visited arena (it is
/// mutated exclusively by the merge, between depths), and slice results
/// merge in slice order, so the per-depth frontier vectors are
/// byte-identical to the serial expansion. One
/// [`TraceEvent::SpaceFrontier`] is emitted per depth with
/// `at_ns = depth`.
pub fn bfs_packed(policy: &FsmPolicy, threads: usize, tracer: &Tracer) -> Option<BfsStats> {
    let layout = crate::packed::PackedLayout::of(&policy.schema)?;
    let mut visited = Visited::for_layout(&layout);
    let mut stats = BfsStats::default();
    let mut frontier: Vec<u128> = vec![layout.first().0];
    visited.put(layout.first());
    let mut depth: u32 = 0;
    while !frontier.is_empty() {
        for w in &frontier {
            stats.frontier_digest ^= fnv_depth_word(depth, *w);
        }
        stats.depths.push(frontier.len() as u64);
        tracer.emit(
            depth as u64,
            TraceEvent::SpaceFrontier { depth, frontier: frontier.len() as u64 },
        );
        let candidates: Vec<Vec<u128>> = if threads <= 1 || frontier.len() < CHUNK as usize {
            vec![expand_slice(&layout, &visited, &frontier)]
        } else {
            let slices: Vec<&[u128]> = frontier.chunks(CHUNK as usize).collect();
            let outs: Vec<Mutex<Option<Vec<u128>>>> =
                slices.iter().map(|_| Mutex::new(None)).collect();
            let next_slice = std::sync::atomic::AtomicUsize::new(0);
            crossbeam::scope(|scope| {
                for _ in 0..threads {
                    let slices = &slices;
                    let outs = &outs;
                    let next_slice = &next_slice;
                    let layout = &layout;
                    let visited = &visited;
                    scope.spawn(move |_| loop {
                        let i = next_slice.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= slices.len() {
                            break;
                        }
                        *outs[i].lock().unwrap() = Some(expand_slice(layout, visited, slices[i]));
                    });
                }
            })
            .expect("BFS expansion worker panicked");
            outs.into_iter()
                .map(|m| m.into_inner().unwrap().expect("every slice must report"))
                .collect()
        };
        let mut next = Vec::new();
        for chunk in candidates {
            for cand in chunk {
                if !visited.put(PackedState(cand)) {
                    next.push(cand);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    stats.visited = visited.count();
    debug_assert!(visited.is_dense() == (layout.total_bits() <= DENSE_WORD_BITS_MAX));
    Some(stats)
}

/// Expand one frontier slice: successors of each member not yet in the
/// (frozen) visited arena, in enumeration order. Duplicates within and
/// across slices are removed by the caller's ordered merge.
fn expand_slice(
    layout: &crate::packed::PackedLayout,
    visited: &Visited,
    slice: &[u128],
) -> Vec<u128> {
    let mut out = Vec::new();
    for w in slice {
        layout.successors(PackedState(*w), |s| {
            if !visited.contains(s) {
                out.push(s.0);
            }
        });
    }
    out
}

/// Frontier BFS with the legacy state representation (hash-set visited,
/// cloned [`SystemState`]s). Reference for the packed BFS shell
/// histogram; its `frontier_digest` is zero (no packed words to hash).
///
/// [`SystemState`]: crate::state_space::SystemState
pub fn bfs_naive(policy: &FsmPolicy) -> BfsStats {
    use crate::state_space::SystemState;
    let schema = &policy.schema;
    let mut stats = BfsStats::default();
    let mut visited: HashSet<SystemState> = HashSet::new();
    let initial = schema.initial_state();
    visited.insert(initial.clone());
    let mut frontier = vec![initial];
    while !frontier.is_empty() {
        stats.depths.push(frontier.len() as u64);
        let mut next = Vec::new();
        for state in &frontier {
            // Same successor relation as the packed engine: each env
            // slot, then each device slot, set to each other value.
            for (slot, var) in schema.env_vars.iter().enumerate() {
                for idx in 0..var.domain().len() as u8 {
                    if idx != state.env[slot] {
                        let mut s = state.clone();
                        s.env[slot] = idx;
                        if visited.insert(s.clone()) {
                            next.push(s);
                        }
                    }
                }
            }
            for (slot, dev) in schema.devices.iter().enumerate() {
                for ctx in &dev.contexts {
                    if *ctx != state.contexts[slot] {
                        let mut s = state.clone();
                        s.contexts[slot] = *ctx;
                        if visited.insert(s.clone()) {
                            next.push(s);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    stats.visited = visited.len() as u128;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PolicyCompiler;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::env::EnvVar;
    use iotdev::vuln::Vulnerability;

    fn small_policy() -> FsmPolicy {
        let mut c = PolicyCompiler::new();
        c.device(DeviceId(0), DeviceClass::FireAlarm, &[]);
        c.device(DeviceId(1), DeviceClass::WindowActuator, &[Vulnerability::NoAuthControl]);
        c.device(DeviceId(2), DeviceClass::SmartPlug, &[]);
        c.env(EnvVar::Temperature);
        c.env(EnvVar::Occupancy);
        c.protect_on_suspicion(DeviceId(0), DeviceId(1));
        c.gate_actuation(DeviceId(2), EnvVar::Occupancy, "present");
        c.build()
    }

    #[test]
    fn packed_serial_matches_naive() {
        let policy = small_policy();
        let naive = explore_naive(&policy);
        let packed = explore_packed(&policy, 1).unwrap();
        assert_eq!(naive.digest(), packed.digest());
        assert_eq!(naive.states, policy.schema.size());
        assert!(naive.classes >= 2);
        let (lookups, hits) = packed.memo;
        assert_eq!(lookups as u128, naive.states);
        assert!(hits > 0);
    }

    #[test]
    fn packed_parallel_matches_serial_at_multiple_widths() {
        let policy = small_policy();
        let serial = explore_packed(&policy, 1).unwrap();
        for threads in [2, 3, 4] {
            let par = explore_packed(&policy, threads).unwrap();
            assert_eq!(serial.digest(), par.digest(), "threads={threads}");
        }
    }

    #[test]
    fn bfs_covers_the_product_space() {
        // Every state of a product space is reachable by single-slot
        // moves, so BFS must visit exactly size() states, in Hamming
        // shells around the initial state.
        let policy = small_policy();
        let bfs = bfs_packed(&policy, 1, &Tracer::disabled()).unwrap();
        assert_eq!(bfs.visited, policy.schema.size());
        assert_eq!(bfs.depths[0], 1);
        let total: u64 = bfs.depths.iter().sum();
        assert_eq!(total as u128, bfs.visited);
        // Max depth = number of slots (change every slot once).
        assert_eq!(bfs.depths.len(), 5 + 1);
    }

    #[test]
    fn bfs_naive_and_packed_agree_on_shells() {
        let policy = small_policy();
        let naive = bfs_naive(&policy);
        let packed = bfs_packed(&policy, 1, &Tracer::disabled()).unwrap();
        assert_eq!(naive.histogram(), packed.histogram());
    }

    #[test]
    fn bfs_parallel_is_byte_identical() {
        let policy = small_policy();
        let serial = bfs_packed(&policy, 1, &Tracer::disabled()).unwrap();
        for threads in [2, 4] {
            let par = bfs_packed(&policy, threads, &Tracer::disabled()).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn bfs_traces_one_event_per_depth() {
        let policy = small_policy();
        let tracer = Tracer::new(trace::tracer::TraceConfig::control_only());
        let bfs = bfs_packed(&policy, 1, &tracer).unwrap();
        let events = tracer.events();
        assert_eq!(events.len(), bfs.depths.len());
        for (i, (at, ev)) in events.iter().enumerate() {
            assert_eq!(*at, i as u64);
            match ev {
                TraceEvent::SpaceFrontier { depth, frontier } => {
                    assert_eq!(*depth as usize, i);
                    assert_eq!(*frontier, bfs.depths[i]);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn dense_visited_is_used_for_small_spaces() {
        let policy = small_policy();
        assert_eq!(bfs_uses_dense_visited(&policy), Some(true));
    }

    #[test]
    fn unpackable_schema_returns_none() {
        let mut s = crate::state_space::StateSchema::new();
        for i in 0..70 {
            s.add_device_with(
                DeviceId(i),
                DeviceClass::Camera,
                crate::context::SecurityContext::ALL.to_vec(),
            );
        }
        let policy = FsmPolicy::new(s);
        assert!(explore_packed(&policy, 1).is_none());
        assert!(bfs_packed(&policy, 1, &Tracer::disabled()).is_none());
        assert!(bfs_uses_dense_visited(&policy).is_none());
    }
}
