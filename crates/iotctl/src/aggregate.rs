//! The fleet controller hierarchy: home → neighborhood → region (E20).
//!
//! [`hier::HierarchicalController`](crate::hier) scales *within* one
//! home by partitioning devices; this module scales *across* homes. A
//! metro/ISP fleet is partitioned into fixed-size neighborhoods, each
//! served by an aggregator that collects crowdsourced discoveries from
//! its homes and flushes them upward in one batch per round; the
//! regional tier unions all batches into a canonical intel set and bumps
//! an epoch counter, and directive installs flow back down batched per
//! neighborhood. Everything here is generic over the intel item type
//! `T` (the fleet crate instantiates it with
//! `iotlearn::AttackSignature`) because the control plane does not
//! depend on the learning crate — the hierarchy moves opaque ordered
//! values.
//!
//! Determinism: discoveries are drained in home order, the region set is
//! a `BTreeSet` (canonical iteration order regardless of arrival
//! order), and batches flush in neighborhood order — so the install
//! schedule is a pure function of the per-round outcomes, independent
//! of worker-thread interleaving.

use std::collections::BTreeSet;

/// Maps homes to fixed-size neighborhoods and back.
///
/// Home `h` belongs to neighborhood `h / size`; neighborhoods are
/// contiguous id ranges so chunk-order iteration over homes is also
/// neighborhood-order iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directory {
    homes: u32,
    size: u32,
}

impl Directory {
    /// A directory for `homes` homes in neighborhoods of `size`
    /// (the last neighborhood may be smaller). `size` is clamped to at
    /// least 1.
    pub fn new(homes: u32, size: u32) -> Directory {
        Directory { homes, size: size.max(1) }
    }

    /// Number of neighborhoods.
    pub fn neighborhoods(&self) -> u32 {
        self.homes.div_ceil(self.size)
    }

    /// The neighborhood a home belongs to.
    pub fn neighborhood_of(&self, home: u32) -> u32 {
        home / self.size
    }

    /// The homes of one neighborhood, as an id range.
    pub fn homes_of(&self, neighborhood: u32) -> std::ops::Range<u32> {
        // Saturating: near `u32::MAX` homes the last neighborhood's end
        // would wrap and yield an empty range.
        let start = neighborhood.saturating_mul(self.size).min(self.homes);
        let end = start.saturating_add(self.size).min(self.homes);
        start..end
    }
}

/// One neighborhood aggregator's upward buffer: discoveries collected
/// from its homes during a round, flushed as a single batch at the
/// round barrier.
///
/// Each entry remembers the home that reported it, so an aggregator
/// *crash* — which loses everything buffered but not yet flushed — can
/// name exactly the homes whose reports evaporated; the fleet recovery
/// path resets those homes' published flags and they re-publish from
/// their memoized outcomes (E25).
#[derive(Debug)]
pub struct NeighborhoodBuffer<T> {
    pending: Vec<(u32, T)>,
}

impl<T: Ord> NeighborhoodBuffer<T> {
    /// An empty buffer.
    pub fn new() -> NeighborhoodBuffer<T> {
        NeighborhoodBuffer { pending: Vec::new() }
    }

    /// Collect one discovery from a member home, remembering the source
    /// so [`NeighborhoodBuffer::crash`] can report whose intel was lost.
    pub fn collect_from(&mut self, home: u32, item: T) {
        self.pending.push((home, item));
    }

    /// Flush the buffered discoveries upward in canonical (sorted)
    /// order.
    pub fn flush(&mut self) -> Vec<T> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut out = std::mem::take(&mut self.pending);
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(_, item)| item).collect()
    }

    /// Crash the aggregator: every buffered (unflushed) report is lost.
    /// Returns the distinct source homes whose reports evaporated, in
    /// home order, so the recovery path can make them re-publish. Nothing
    /// flows upward.
    pub fn crash(&mut self) -> Vec<u32> {
        let mut homes: Vec<u32> = self.pending.drain(..).map(|(home, _)| home).collect();
        homes.sort_unstable();
        homes.dedup();
        homes
    }
}

impl<T: Ord> Default for NeighborhoodBuffer<T> {
    fn default() -> NeighborhoodBuffer<T> {
        NeighborhoodBuffer::new()
    }
}

/// The regional intel tier: the canonical union of everything every
/// neighborhood has reported, versioned by an epoch counter.
///
/// # The epoch contract
///
/// The epoch is **dense** and **absorb-driven**: it starts at 0, bumps
/// by exactly 1 per absorbing call that added at least one novel item,
/// and never moves otherwise. In particular absorb is **idempotent
/// under at-least-once delivery**: re-absorbing a batch that was
/// already absorbed (a duplicated flush, a replayed wave, a rejoining
/// neighborhood re-reporting) is a no-op — same item set, same epoch.
/// Downstream the epoch is therefore a version number of the canonical
/// intel set: `epoch == n` names exactly one snapshot for the life of
/// the region, which is what lets the fleet memoize `(home, epoch)`
/// outcomes and retry install waves without de-duplication bookkeeping.
///
/// The epoch never wraps. At `u32::MAX` no bump is left, so the region
/// refuses every batch: it inserts nothing, keeps its epoch and reports
/// nothing novel. A wrapped epoch 0 would make every slot that ran at
/// epoch 0 a false memo hit.
#[derive(Debug)]
pub struct RegionIntel<T> {
    items: BTreeSet<T>,
    epoch: u32,
}

impl<T: Clone + Ord> RegionIntel<T> {
    /// An empty region at epoch 0.
    pub fn new() -> RegionIntel<T> {
        RegionIntel { items: BTreeSet::new(), epoch: 0 }
    }

    /// Absorb one flushed batch. Returns `true` (and bumps the epoch)
    /// if the batch contained anything new; re-reports of known intel —
    /// including exact duplicates of previously absorbed batches —
    /// leave the epoch untouched so quiesced rounds stay quiesced and
    /// at-least-once delivery is safe (see the epoch contract above).
    pub fn absorb(&mut self, batch: Vec<T>) -> bool {
        !self.absorb_returning_novel(batch).is_empty()
    }

    /// [`RegionIntel::absorb`], but returns the novel items themselves
    /// (in `Ord` order) instead of a flag — empty means the batch was a
    /// duplicate and the epoch did not move. The caller emits
    /// per-signature absorb events from it (E25).
    pub fn absorb_returning_novel(&mut self, batch: Vec<T>) -> Vec<T> {
        // An epoch names one snapshot, so a bump that cannot happen must
        // not change the snapshot either: refuse the batch whole.
        let Some(next) = self.epoch.checked_add(1) else {
            return Vec::new();
        };
        let mut novel = Vec::new();
        for item in batch {
            if self.items.insert(item.clone()) {
                novel.push(item);
            }
        }
        if !novel.is_empty() {
            // Batches from different neighborhoods are concatenated, so
            // novelty order is arrival order — re-sort for `Ord` order.
            // Within-batch duplicates were already absorbed once by the
            // insert guard.
            novel.sort();
            self.epoch = next;
        }
        novel
    }

    /// Current intel epoch (bumped once per absorbing round, not per
    /// item).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The canonical snapshot: every known item in `Ord` order, ready
    /// for the intern table.
    pub fn snapshot(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }
}

impl<T: Clone + Ord> Default for RegionIntel<T> {
    fn default() -> RegionIntel<T> {
        RegionIntel::new()
    }
}

/// Per-home install bookkeeping: which intel epoch each home has
/// installed, plus fleet-wide install/batch counters for the E20
/// directives/sec report.
#[derive(Debug)]
pub struct InstallLedger {
    installed: Vec<u32>,
    installs: u64,
    batches: u64,
}

impl InstallLedger {
    /// A ledger for `homes` homes, all at epoch 0.
    pub fn new(homes: usize) -> InstallLedger {
        InstallLedger { installed: vec![0; homes], installs: 0, batches: 0 }
    }

    /// The epoch currently installed at a home.
    pub fn epoch_of(&self, home: u32) -> u32 {
        self.installed[home as usize]
    }

    /// Record a batched install bringing every home of `range` up to
    /// `epoch`. Returns the number of homes actually advanced (0 when
    /// the batch was a no-op; no batch is counted then).
    pub fn install_batch(&mut self, range: std::ops::Range<u32>, epoch: u32) -> u32 {
        let mut advanced = 0;
        for home in range {
            let slot = &mut self.installed[home as usize];
            if *slot < epoch {
                *slot = epoch;
                advanced += 1;
            }
        }
        if advanced > 0 {
            self.batches += 1;
            self.installs += u64::from(advanced);
        }
        advanced
    }

    /// Total per-home installs performed.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Total non-empty install batches delivered.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// `true` iff every home has installed at least `epoch`.
    pub fn all_at_least(&self, epoch: u32) -> bool {
        self.installed.iter().all(|&e| e >= epoch)
    }

    /// The lowest epoch installed at any home — the fleet-wide floor
    /// (0 for a zero-home fleet). Under chaos, homes diverge and the
    /// floor bounds which intel snapshots any home can still ask for;
    /// chaos-off it equals every home's epoch.
    pub fn min_epoch(&self) -> u32 {
        self.installed.iter().copied().min().unwrap_or(0)
    }

    /// Number of homes still strictly below `epoch` — the `waiting`
    /// count of a `fleet-degraded` declaration (E25).
    pub fn waiting_below(&self, epoch: u32) -> u32 {
        self.installed.iter().filter(|&&e| e < epoch).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_partitions_contiguously() {
        let d = Directory::new(10, 4);
        assert_eq!(d.neighborhoods(), 3);
        assert_eq!(d.homes_of(0), 0..4);
        assert_eq!(d.homes_of(1), 4..8);
        assert_eq!(d.homes_of(2), 8..10);
        for h in 0..10 {
            assert!(d.homes_of(d.neighborhood_of(h)).contains(&h));
        }
    }

    #[test]
    fn directory_clamps_zero_size() {
        let d = Directory::new(3, 0);
        assert_eq!(d.neighborhoods(), 3);
        assert_eq!(d.homes_of(2), 2..3);
    }

    #[test]
    fn directory_last_neighborhood_survives_u32_max_homes() {
        let d = Directory::new(u32::MAX, 100);
        let last = d.neighborhoods() - 1;
        assert_eq!(d.homes_of(last), 4_294_967_200..u32::MAX);
        assert_eq!(d.neighborhood_of(u32::MAX - 1), last);
        assert!(d.homes_of(last + 1).is_empty(), "past the end is empty, not wrapped");
    }

    #[test]
    fn buffer_flushes_sorted() {
        let mut b: NeighborhoodBuffer<u32> = NeighborhoodBuffer::new();
        assert!(b.flush().is_empty());
        b.collect_from(0, 9);
        b.collect_from(0, 3);
        assert_eq!(b.pending.len(), 2);
        assert_eq!(b.flush(), vec![3, 9]);
        assert_eq!(b.pending.len(), 0);
    }

    #[test]
    fn region_epoch_bumps_only_on_new_intel() {
        let mut r: RegionIntel<u32> = RegionIntel::new();
        assert!(r.absorb(vec![5, 1]));
        assert_eq!(r.epoch(), 1);
        assert_eq!(r.snapshot(), vec![1, 5]);
        // Re-reporting known intel is a no-op round.
        assert!(!r.absorb(vec![1, 5]));
        assert_eq!(r.epoch(), 1);
        assert!(r.absorb(vec![5, 7]));
        assert_eq!(r.epoch(), 2);
        assert_eq!(r.snapshot(), vec![1, 5, 7]);
    }

    #[test]
    fn ledger_counts_installs_and_skips_noop_batches() {
        let mut l = InstallLedger::new(6);
        assert_eq!(l.install_batch(0..3, 1), 3);
        assert_eq!(l.install_batch(0..3, 1), 0);
        assert_eq!(l.install_batch(3..6, 1), 3);
        assert_eq!((l.installs(), l.batches()), (6, 2));
        assert!(l.all_at_least(1));
        assert!(!l.all_at_least(2));
        assert_eq!(l.epoch_of(4), 1);
    }

    #[test]
    fn directory_edge_shapes() {
        // Homes not divisible by the neighborhood size: the tail
        // neighborhood is short but non-empty.
        let ragged = Directory::new(7, 3);
        assert_eq!(ragged.neighborhoods(), 3);
        assert_eq!(ragged.homes_of(2), 6..7);
        assert_eq!(ragged.neighborhood_of(6), 2);
        // Single-home neighborhoods: the identity partition.
        let singles = Directory::new(4, 1);
        assert_eq!(singles.neighborhoods(), 4);
        for h in 0..4 {
            assert_eq!(singles.neighborhood_of(h), h);
            assert_eq!(singles.homes_of(h), h..h + 1);
        }
        // Zero-home fleet: no neighborhoods, nothing to iterate.
        let empty = Directory::new(0, 5);
        assert_eq!(empty.homes, 0);
        assert_eq!(empty.neighborhoods(), 0);
        // Neighborhood larger than the fleet: one short neighborhood.
        let wide = Directory::new(3, 100);
        assert_eq!(wide.neighborhoods(), 1);
        assert_eq!(wide.homes_of(0), 0..3);
    }

    #[test]
    fn ledger_boundary_epochs() {
        // Zero-home ledger: vacuously converged at any epoch, floor 0.
        let empty = InstallLedger::new(0);
        assert!(empty.all_at_least(0));
        assert!(empty.all_at_least(u32::MAX));
        assert_eq!(empty.min_epoch(), 0);
        assert_eq!(empty.waiting_below(u32::MAX), 0);

        let mut l = InstallLedger::new(3);
        // Epoch 0 is where every home starts: installing it is a no-op
        // and counts no batch.
        assert_eq!(l.install_batch(0..3, 0), 0);
        assert_eq!((l.installs(), l.batches()), (0, 0));
        assert!(l.all_at_least(0));
        // An empty range is a no-op at any epoch.
        assert_eq!(l.install_batch(1..1, 9), 0);
        assert_eq!(l.batches(), 0);
        // Skipping epochs is allowed (a rejoin fast-forward): the slot
        // jumps straight to the target.
        assert_eq!(l.install_batch(0..1, 5), 1);
        assert_eq!(l.epoch_of(0), 5);
        assert_eq!(l.min_epoch(), 0);
        assert_eq!(l.waiting_below(5), 2);
        // A stale wave (lower epoch) never regresses an installed slot.
        assert_eq!(l.install_batch(0..1, 2), 0);
        assert_eq!(l.epoch_of(0), 5);
        // The u32::MAX epoch installs like any other.
        assert_eq!(l.install_batch(0..3, u32::MAX), 3);
        assert!(l.all_at_least(u32::MAX));
        assert_eq!(l.min_epoch(), u32::MAX);
    }

    #[test]
    fn absorb_is_idempotent_under_duplicated_batches() {
        let mut r: RegionIntel<u32> = RegionIntel::new();
        assert_eq!(r.absorb_returning_novel(vec![5, 1, 5]), vec![1, 5]);
        assert_eq!(r.epoch(), 1);
        // The exact same batch again — at-least-once delivery — is a
        // no-op: no novel items, same epoch, same snapshot.
        assert!(r.absorb_returning_novel(vec![5, 1, 5]).is_empty());
        assert!(!r.absorb(vec![1, 5]));
        assert_eq!(r.epoch(), 1);
        assert_eq!(r.snapshot(), vec![1, 5]);
        // A partially-novel duplicate bumps once and reports only the
        // novelty, in Ord order even across concatenated batches.
        assert_eq!(r.absorb_returning_novel(vec![9, 1, 7, 5]), vec![7, 9]);
        assert_eq!(r.epoch(), 2);
    }

    #[test]
    fn region_refuses_novel_intel_at_the_last_epoch() {
        let mut r: RegionIntel<u32> = RegionIntel { items: BTreeSet::new(), epoch: u32::MAX - 1 };
        assert_eq!(r.absorb_returning_novel(vec![3]), vec![3]);
        assert_eq!(r.epoch(), u32::MAX);
        // No bump is left, so the next novel batch is refused whole:
        // nothing inserted, nothing reported, the same epoch.
        assert!(r.absorb_returning_novel(vec![4, 3]).is_empty());
        assert!(!r.absorb(vec![5]));
        assert_eq!(r.epoch(), u32::MAX);
        assert_eq!(r.snapshot(), vec![3]);
    }

    #[test]
    fn buffer_crash_names_lost_sources_and_flush_survives() {
        let mut b: NeighborhoodBuffer<u32> = NeighborhoodBuffer::new();
        b.collect_from(4, 40);
        b.collect_from(2, 20);
        b.collect_from(4, 41);
        assert_eq!(b.pending.len(), 3);
        // Crash: buffered reports are lost; the distinct sources come
        // back in home order.
        assert_eq!(b.crash(), vec![2, 4]);
        assert_eq!(b.pending.len(), 0);
        // Crashing an empty buffer loses nothing.
        assert!(b.crash().is_empty());
        // The respawned buffer flushes normally, item-sorted.
        b.collect_from(2, 20);
        b.collect_from(4, 7);
        assert_eq!(b.flush(), vec![7, 20]);
    }
}
