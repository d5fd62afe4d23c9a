//! Region-level interning of shared rulesets and vuln intel (E20).
//!
//! The paper's §5.1 scalability argument is that per-device policies are
//! *shared*, not per-home: one crowdsourced signature set serves every
//! subscribed home in a metro region. The fleet tier therefore interns
//! each distinct intel snapshot exactly once per region and hands every
//! home an `Arc` to the same allocation — 10⁵ homes hold 10⁵ pointers,
//! not 10⁵ copies. Interning is keyed by value equality over the sorted
//! snapshot, so two epochs with identical content share one allocation
//! and pointer equality (`Arc::ptr_eq`) becomes a cheap "nothing
//! changed" test on the install path.

use std::sync::Arc;

/// A value-keyed intern table handing out shared `Arc<[T]>` snapshots.
///
/// Lookups are a linear scan over previously interned snapshots: the
/// table holds one entry per *distinct intel epoch* (a handful over a
/// fleet run), not per home, so a scan beats a hash table and keeps the
/// structure dependency-free.
#[derive(Debug, Default)]
pub struct Interner<T> {
    snapshots: Vec<Arc<[T]>>,
    retired: u64,
}

impl<T: Clone + PartialEq> Interner<T> {
    /// An empty intern table.
    pub fn new() -> Interner<T> {
        Interner { snapshots: Vec::new(), retired: 0 }
    }

    /// Intern a snapshot: returns the shared allocation for this exact
    /// sequence, allocating only the first time it is seen.
    ///
    /// The caller is responsible for presenting snapshots in a canonical
    /// (sorted, deduplicated) order — the table compares sequences, it
    /// does not normalize them.
    pub fn intern(&mut self, items: &[T]) -> Arc<[T]> {
        if let Some(found) = self.snapshots.iter().find(|s| s.as_ref() == items) {
            return Arc::clone(found);
        }
        let snap: Arc<[T]> = items.to_vec().into();
        self.snapshots.push(Arc::clone(&snap));
        snap
    }

    /// Epoch GC (E26): retire every interned snapshot whose only
    /// remaining owner is the table itself (`Arc::strong_count == 1`).
    /// The caller first drops its own handles to unreachable epochs —
    /// anything below the fleet's minimum installed epoch — and then
    /// this sweep bounds the table's footprint by the *live* epoch
    /// window instead of the full epoch history. Returns the number of
    /// snapshots retired this sweep.
    ///
    /// A retired snapshot's content could in principle recur; it would
    /// simply be re-interned as a new allocation. Retirement trades that
    /// (never observed in practice — intel snapshots grow monotonically)
    /// for a bounded footprint.
    pub fn retain_shared(&mut self) -> usize {
        let before = self.snapshots.len();
        self.snapshots.retain(|s| Arc::strong_count(s) > 1);
        let retired = before - self.snapshots.len();
        self.retired += retired as u64;
        retired
    }

    /// Total distinct snapshots ever interned: currently live plus
    /// retired. This is the GC-invariant counter fleet reports use, so
    /// enabling epoch GC does not change reported dedup figures.
    pub fn distinct_total(&self) -> usize {
        self.snapshots.len() + self.retired as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_snapshots_share_one_allocation() {
        let mut t: Interner<u32> = Interner::new();
        let a = t.intern(&[1, 2, 3]);
        let b = t.intern(&[1, 2, 3]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.snapshots.len(), 1);
    }

    #[test]
    fn distinct_snapshots_get_distinct_allocations() {
        let mut t: Interner<u32> = Interner::new();
        let a = t.intern(&[1, 2]);
        let b = t.intern(&[1, 2, 3]);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(t.snapshots.len(), 2);
        // Order matters: the table does not normalize.
        let c = t.intern(&[2, 1]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(t.snapshots.len(), 3);
    }

    #[test]
    fn retain_shared_retires_only_unreferenced_snapshots() {
        let mut t: Interner<u32> = Interner::new();
        let live = t.intern(&[1, 2]);
        let dead = t.intern(&[3, 4]);
        drop(dead);
        assert_eq!(t.retain_shared(), 1);
        assert_eq!(t.snapshots.len(), 1);
        assert_eq!(t.retired, 1);
        // The GC-invariant total still counts the retired snapshot.
        assert_eq!(t.distinct_total(), 2);
        // The live snapshot survives and is still shared.
        let again = t.intern(&[1, 2]);
        assert!(Arc::ptr_eq(&live, &again));
        // A second sweep with no drops retires nothing.
        assert_eq!(t.retain_shared(), 0);
        assert_eq!(t.distinct_total(), 2);
    }

    #[test]
    fn footprint_is_bounded_under_epoch_churn() {
        // Long-run pin: an ever-growing epoch history with a sliding
        // live window must not grow the table monotonically.
        let mut t: Interner<u32> = Interner::new();
        let mut window: std::collections::VecDeque<Arc<[u32]>> = Default::default();
        for epoch in 0..1000u32 {
            window.push_back(t.intern(&[epoch]));
            while window.len() > 4 {
                window.pop_front();
            }
            t.retain_shared();
            assert!(t.snapshots.len() <= 5, "interner footprint grew past the live window");
        }
        assert_eq!(t.distinct_total(), 1000);
    }

    #[test]
    fn empty_snapshot_is_interned_once() {
        let mut t: Interner<u32> = Interner::new();
        let a = t.intern(&[]);
        let b = t.intern(&[]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.snapshots.len(), 1);
    }
}
