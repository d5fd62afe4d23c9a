//! State-space exploration: exhaustive sweeps and the shells around the
//! initial state, over the packed engine (experiment E19).
//!
//! Two engines compute the same [`SpaceStats`]:
//!
//! * [`explore_naive`] — the legacy formulation: clone a
//!   [`crate::state_space::SystemState`] per state, re-walk the rule
//!   list through [`FsmPolicy::evaluate`]. The reference the packed
//!   engine is differentially tested against.
//! * [`explore_packed`] — odometer over `u128` words with memoized
//!   evaluation ([`crate::packed::MemoPolicy`]), zero allocation per
//!   state. The rank space is cut into fixed chunks that workers claim
//!   off one atomic cursor; one worker or many, it is the same loop,
//!   and every result is a count, an XOR digest or a set union — so
//!   counts, class sets and quiet-state digests are byte-identical at
//!   every thread count regardless of scheduling.
//!
//! # Shells, counted
//!
//! [`bfs_packed`] reports how many states lie within *k* moves of the
//! initial state, one control-class [`TraceEvent::SpaceFrontier`] per
//! *k*. A move sets any one slot to any other value of its domain
//! ([`crate::packed::PackedLayout::successors`]; [`bfs_naive`] spells
//! out the same relation over legacy states) and the initial state is
//! the all-zero word, so the graph is a Hamming graph: a state's depth
//! is the number of its slots that are not at index 0, and the shell
//! sizes are the coefficients of ∏ᵢ(1 + (rᵢ − 1)·x) over the slot
//! radices rᵢ. Nothing has to be searched. One odometer pass over the
//! layout carries `(word, depth)` — a slot leaving index 0 adds one, a
//! slot wrapping back to it takes one away — and folds each state into
//! its shell's count and into the `(depth, word)` digest. The digest is
//! why the pass enumerates at all: it is an XOR over every state and is
//! pinned in `BENCH_E19.json` and the harness's golden.
//!
//! This was a frontier search until PR 24 (a dense word-indexed visited
//! bitset, a hashed set past 28 bits, two frontier buffers); DESIGN.md
//! §9 keeps its figures. A relation that is ever *restricted* — FSM
//! edges instead of any-to-any — needs a search again; the reference
//! one lives in `tests/state_space_props.rs`, which holds this pass to
//! it.

use crate::packed::{FxBuild, MemoPolicy};
use crate::policy::FsmPolicy;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use trace::digest::fnv64;
use trace::event::TraceEvent;
use trace::tracer::Tracer;

/// Ranks per chunk of the sweep: the unit workers claim.
pub const CHUNK: u128 = 1 << 14;

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
    /// Memoized-evaluation `(lookups, hits)` — engine diagnostics.
    /// `lookups` is the state count and `hits` is `lookups` minus the
    /// distinct rule sets each worker met, so `hits` is deterministic
    /// only on one thread; zero for the naive engine. Not part of
    /// [`SpaceStats::digest`].
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

/// The naive engine's interned set of distinct posture vectors, keyed
/// by fingerprint with an equality-checked collision chain.
#[derive(Default)]
struct ClassSet {
    by_fp: HashMap<u64, Vec<usize>, FxBuild>,
    vecs: Vec<crate::posture::PostureVector>,
    fps: Vec<u64>,
}

impl ClassSet {
    fn intern(&mut self, v: &crate::posture::PostureVector) {
        let fp = v.fingerprint();
        let chain = self.by_fp.entry(fp).or_default();
        if chain.iter().all(|&id| self.vecs[id] != *v) {
            chain.push(self.vecs.len());
            self.vecs.push(v.clone());
            self.fps.push(fp);
        }
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

/// Exhaustive sweep with the packed engine. `None` when the schema does
/// not pack (see [`MemoPolicy::new`]). The rank space is cut into
/// [`CHUNK`]-sized chunks claimed off an atomic cursor by
/// `min(threads, chunks)` workers — the calling thread is one of them,
/// so `threads <= 1` spawns nothing and is the same loop run alone.
/// Every worker holds its own [`MemoPolicy`] over one shared
/// slot-outcome table, which makes their class tuples comparable; the
/// merge is a union of the workers' class tables. Counts and digests
/// are identical at every thread count.
pub fn explore_packed(policy: &FsmPolicy, threads: usize) -> Option<SpaceStats> {
    explore_chunked(policy, threads, CHUNK)
}

/// [`explore_packed`] with the chunk size exposed to the unit tests.
fn explore_chunked<'a>(policy: &'a FsmPolicy, threads: usize, chunk: u128) -> Option<SpaceStats> {
    let first = MemoPolicy::new(policy)?;
    let size = first.layout().size();
    let n_chunks = size.div_ceil(chunk) as usize;
    let next_chunk = AtomicUsize::new(0);

    // One worker: sweep claimed chunks, returning the engine (its class
    // table is the result) and the quiet count and digest, which add
    // and XOR across workers in any order.
    let serve = |mut memo: MemoPolicy<'a>| {
        let layout = memo.layout().clone();
        let (mut quiet_states, mut quiet_digest) = (0u128, 0u64);
        loop {
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let start = c as u128 * chunk;
            // Full mask once at the chunk's first rank, then
            // incremental maintenance along the odometer: only rules
            // touching the changed low digits are re-tested.
            let mut p = layout.from_rank(start);
            let mut mask = memo.mask_of(p);
            for rank in start..(start + chunk).min(size) {
                let id = memo.class_of_mask(mask);
                if memo.is_quiet(id) {
                    quiet_states += 1;
                    quiet_digest ^= fnv_rank(rank);
                }
                if let Some((n, changed)) = layout.next_masked(p) {
                    p = n;
                    memo.mask_step(&mut mask, n, changed);
                }
            }
        }
        (memo, quiet_states, quiet_digest)
    };

    let workers = threads.clamp(1, n_chunks);
    let (memo, quiet_states, quiet_digest) = crossbeam::scope(|scope| {
        let hands: Vec<_> = (1..workers)
            .map(|_| {
                let (memo, serve) = (first.sibling(), &serve);
                scope.spawn(move |_| serve(memo))
            })
            .collect();
        let (mut memo, mut quiet_states, mut quiet_digest) = serve(first);
        for hand in hands {
            let (theirs, quiet, digest) = hand.join().expect("exploration worker panicked");
            memo.absorb(&theirs);
            quiet_states += quiet;
            quiet_digest ^= digest;
        }
        (memo, quiet_states, quiet_digest)
    })
    .expect("exploration worker panicked");

    let classes = memo.class_count() as u32;
    let (lookups, hits) = memo.stats();
    Some(SpaceStats {
        states: lookups as u128,
        classes: classes as u64,
        class_digest: (0..classes).map(|id| memo.class_fingerprint(id)).fold(0, |a, b| a ^ b),
        quiet_states,
        quiet_digest,
        memo: (lookups, hits),
    })
}

/// The shells around the initial state: what a frontier BFS from it
/// finds, however computed.
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

/// FNV-1a of `depth ‖ word` (4 + 16 little-endian bytes).
fn fnv_depth_word(depth: u32, word: u128) -> u64 {
    let mut bytes = [0u8; 20];
    bytes[..4].copy_from_slice(&depth.to_le_bytes());
    bytes[4..].copy_from_slice(&word.to_le_bytes());
    fnv64(&bytes)
}

/// Shell sizes around the initial state and the `(depth, word)` digest,
/// in one odometer pass over the packed space (module docs: the moves
/// set one slot to any other value, so depth is the number of slots off
/// index 0 and there is nothing to search). `None` when the schema does
/// not pack. Memory is O(slots) at any width. One
/// [`TraceEvent::SpaceFrontier`] is emitted per depth with
/// `at_ns = depth`.
///
/// `threads` is accepted and ignored (the harness's call shape).
pub fn bfs_packed(policy: &FsmPolicy, _threads: usize, tracer: &Tracer) -> Option<BfsStats> {
    let layout = crate::packed::PackedLayout::of(&policy.schema)?;
    // One `(step, mask, last)` per digit: the field's unit, its mask and
    // its value at the last index. A single-valued slot never leaves
    // index 0: it is no digit of the odometer and no unit of depth.
    let mut digits = Vec::with_capacity(layout.slots().count());
    digits.extend(
        layout
            .slots()
            .filter(|s| s.radix > 1)
            .map(|s| (1u128 << s.shift, s.mask(), ((s.radix - 1) as u128) << s.shift)),
    );
    // The deepest shell — every digit off 0 — is never empty.
    let mut stats = BfsStats { depths: vec![0; digits.len() + 1], ..BfsStats::default() };
    let (mut word, mut depth) = (0u128, 0usize);
    'states: loop {
        stats.frontier_digest ^= fnv_depth_word(depth as u32, word);
        stats.depths[depth] += 1;
        for &(step, mask, last) in &digits {
            let field = word & mask;
            if field != last {
                word += step;
                depth += (field == 0) as usize;
                continue 'states;
            }
            // Wrapping from its last index, which is not 0.
            word &= !mask;
            depth -= 1;
        }
        break;
    }
    for (depth, &frontier) in stats.depths.iter().enumerate() {
        stats.visited += frontier as u128;
        tracer.emit(depth as u64, TraceEvent::SpaceFrontier { depth: depth as u32, frontier });
    }
    Some(stats)
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
    fn small_chunks_and_many_workers_change_nothing() {
        // 144 states: chunk sizes 1, 7 and 64 give 144, 21 and 3 chunks,
        // so every worker claims several and the last chunk is short.
        let policy = small_policy();
        let naive = explore_naive(&policy);
        let serial = explore_packed(&policy, 1).unwrap();
        assert_eq!(serial.digest(), naive.digest());
        for chunk in [1, 7, 64] {
            assert_eq!(explore_chunked(&policy, 1, chunk).unwrap(), serial, "chunk={chunk}");
            for threads in 2..=4 {
                let par = explore_chunked(&policy, threads, chunk).unwrap();
                // `memo.1` counts per-worker first sightings, so it is
                // the one field scheduling may move.
                let par = SpaceStats { memo: serial.memo, ..par };
                assert_eq!(par, serial, "chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn more_threads_than_chunks_still_sweeps_every_state() {
        let policy = small_policy();
        let par = explore_packed(&policy, 16).unwrap();
        assert_eq!(par, explore_packed(&policy, 1).unwrap());
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
    }
}
