//! Two-level **virtual-real** cache hierarchy (Wang, Baer & Levy \[25\]),
//! as adopted by the paper in §3.1–§3.3.
//!
//! L1 is virtually indexed and virtually tagged (exposing all address bits
//! to the I-Poly hash without translation delay); L2 is physically indexed
//! and tagged. Inclusion (`L1 ⊆ L2`) is enforced explicitly: when L2
//! evicts a line, any L1 copy is invalidated. Because the L1 and L2 index
//! functions are unrelated pseudo-random hashes, that invalidation usually
//! punches a *hole* at an L1 location the refill does not plug — the
//! effect §3.3 models with `P_H = (2^{m_1} − 1)/2^{m_2}`.
//!
//! The hierarchy also keeps at most one virtual alias of a physical block
//! in L1 at a time (§3.3 cause 2), invalidating the previous alias when a
//! second virtual address maps to the same physical block.

use crate::cache::{Cache, WritePolicy};
use crate::model::{extra, AccessOutcome, ComponentStats, MemoryModel, ModelStats, ServicePoint};
use crate::stats::CacheStats;
use crate::vm::PageMapper;
use cac_core::{CacheGeometry, Error, IndexSpec};
use cac_trace::{MemRef, TraceOp};
use std::collections::HashMap;
use std::ops::Sub;

/// Counters specific to the two-level hierarchy.
///
/// The three invalidation counters correspond one-to-one to the §3.3
/// list of hole causes: L2 replacements, virtual-alias removal, and
/// external coherency actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 lines invalidated to preserve Inclusion after an L2 eviction.
    pub inclusion_invalidations: u64,
    /// Holes created at L1 (inclusion invalidations whose slot was not
    /// coincidentally refilled by the access in progress).
    pub holes_created: u64,
    /// L1 lines invalidated because a second virtual alias of the same
    /// physical block was brought in.
    pub alias_invalidations: u64,
    /// L1 lines invalidated by external coherency actions (§3.3 cause 3);
    /// every one of these is a hole.
    pub external_invalidations_l1: u64,
    /// L2 lines invalidated by external coherency actions.
    pub external_invalidations_l2: u64,
}

/// Field-wise difference, for batched-replay deltas.
impl Sub for HierarchyStats {
    type Output = HierarchyStats;
    fn sub(self, rhs: HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            inclusion_invalidations: self.inclusion_invalidations - rhs.inclusion_invalidations,
            holes_created: self.holes_created - rhs.holes_created,
            alias_invalidations: self.alias_invalidations - rhs.alias_invalidations,
            external_invalidations_l1: self.external_invalidations_l1
                - rhs.external_invalidations_l1,
            external_invalidations_l2: self.external_invalidations_l2
                - rhs.external_invalidations_l2,
        }
    }
}

/// Counters attributable to one batched replay
/// ([`TwoLevelHierarchy::run_trace`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyRun {
    /// L1 counters for the replayed trace.
    pub l1: CacheStats,
    /// L2 counters for the replayed trace.
    pub l2: CacheStats,
    /// Hierarchy (hole/alias/inclusion) counters for the replayed trace.
    pub hierarchy: HierarchyStats,
}

/// What an external (bus) invalidation found in this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome {
    /// The block was resident in (and removed from) L2.
    pub l2_invalidated: bool,
    /// A virtual copy was resident in (and removed from) L1 — a hole.
    pub l1_invalidated: bool,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Hit at L1.
    pub l1_hit: bool,
    /// Hit at L2 (only meaningful when L1 missed or for write-through
    /// traffic).
    pub l2_hit: bool,
}

/// A virtually-indexed L1 over a physically-indexed L2 with explicit
/// inclusion enforcement.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, IndexSpec};
/// use cac_sim::hierarchy::TwoLevelHierarchy;
/// use cac_sim::vm::PageMapper;
///
/// let l1 = CacheGeometry::new(8 * 1024, 32, 2)?;
/// let l2 = CacheGeometry::new(256 * 1024, 32, 2)?;
/// let mut h = TwoLevelHierarchy::new(
///     l1, IndexSpec::ipoly_skewed(),
///     l2, IndexSpec::modulo(),
///     PageMapper::randomized(4096, 1 << 26, 42),
/// )?;
/// h.read(0x10_0000);
/// assert!(h.read(0x10_0000).l1_hit);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TwoLevelHierarchy {
    l1: Cache,
    l2: Cache,
    mapper: PageMapper,
    /// Reverse map for inclusion: physical block → virtual block resident
    /// at L1. At most one alias per physical block is allowed in L1.
    l1_contents: HashMap<u64, u64>,
    stats: HierarchyStats,
    /// The demand stream as the processor sees it: an access is a hit
    /// when it was serviced at L1 or L2 (i.e. before memory).
    demand: CacheStats,
}

impl TwoLevelHierarchy {
    /// Builds the hierarchy. L1 uses the paper's write-through /
    /// no-write-allocate policy; L2 is write-back / write-allocate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if the block sizes differ or L2 is
    /// smaller than L1, plus any placement-validation error.
    pub fn new(
        l1_geom: CacheGeometry,
        l1_spec: IndexSpec,
        l2_geom: CacheGeometry,
        l2_spec: IndexSpec,
        mapper: PageMapper,
    ) -> Result<Self, Error> {
        if l1_geom.block() != l2_geom.block() {
            return Err(Error::OutOfRange {
                what: "L2 block size",
                value: l2_geom.block(),
                constraint: "equal to L1 block size",
            });
        }
        if l2_geom.capacity() < l1_geom.capacity() {
            return Err(Error::OutOfRange {
                what: "L2 capacity",
                value: l2_geom.capacity(),
                constraint: ">= L1 capacity",
            });
        }
        Ok(TwoLevelHierarchy {
            l1: Cache::build(l1_geom, l1_spec)?,
            l2: Cache::builder(l2_geom)
                .index_spec(l2_spec)
                .write_policy(WritePolicy::WriteBackAllocate)
                .build()?,
            mapper,
            l1_contents: HashMap::new(),
            stats: HierarchyStats::default(),
            demand: CacheStats::default(),
        })
    }

    /// Physical block address for a virtual block address.
    fn pa_block_of(&mut self, va_block: u64) -> u64 {
        let offset_bits = self.l1.geometry().offset_bits();
        let pa = self.mapper.translate(va_block << offset_bits);
        pa >> offset_bits
    }

    /// Performs a read at virtual address `va`.
    pub fn read(&mut self, va: u64) -> HierarchyAccess {
        self.access(va, false)
    }

    /// Performs a write at virtual address `va`.
    pub fn write(&mut self, va: u64) -> HierarchyAccess {
        self.access(va, true)
    }

    /// Performs an access at virtual address `va`.
    pub fn access(&mut self, va: u64, is_write: bool) -> HierarchyAccess {
        let res = self.access_inner(va, is_write);
        let hit = res.l1_hit || res.l2_hit;
        if is_write {
            self.demand.record_write(hit);
        } else {
            self.demand.record_read(hit);
        }
        res
    }

    fn access_inner(&mut self, va: u64, is_write: bool) -> HierarchyAccess {
        let geom = self.l1.geometry();
        let va_block = geom.block_addr(va);
        let pa = self.mapper.translate(va);
        let pa_block = geom.block_addr(pa);

        let l1_res = self.l1.access(va, is_write);
        if l1_res.hit {
            // Write-through: the write also updates L2. Inclusion makes
            // this a guaranteed L2 hit unless the write races a hole; the
            // write-back L2 absorbs either way.
            if is_write {
                let _ = self.l2.access(pa, true);
            }
            return HierarchyAccess {
                l1_hit: true,
                l2_hit: true,
            };
        }

        // L1 missed. Maintain the reverse map for a fill that happened
        // (reads always fill; write misses do not under no-write-allocate).
        if l1_res.filled {
            if let Some(victim_va) = l1_res.evicted {
                let victim_pa = self.pa_block_of(victim_va);
                self.l1_contents.remove(&victim_pa);
            }
            // Virtual-alias control: at most one alias per physical block.
            if let Some(&old_va) = self.l1_contents.get(&pa_block) {
                if old_va != va_block && self.l1.invalidate_block(old_va) {
                    self.stats.alias_invalidations += 1;
                }
            }
            self.l1_contents.insert(pa_block, va_block);
        }

        // L2 access with the physical address.
        let l2_res = self.l2.access(pa, is_write);
        if let Some(victim_pa_block) = l2_res.evicted {
            // Inclusion: the evicted L2 line must not survive in L1.
            if let Some(victim_va) = self.l1_contents.remove(&victim_pa_block) {
                if self.l1.invalidate_block(victim_va) {
                    self.stats.inclusion_invalidations += 1;
                    // If the invalidated line occupied the slot the current
                    // fill just took, the refill would have plugged it; the
                    // sequential model already handled that case (the fill
                    // evicted it first and it is no longer in the map), so
                    // every invalidation reaching this point is a hole.
                    self.stats.holes_created += 1;
                }
            }
        }
        HierarchyAccess {
            l1_hit: false,
            l2_hit: l2_res.hit,
        }
    }

    /// Replays a full instruction trace through the hierarchy, performing
    /// the memory references and skipping everything else. Returns the
    /// counters attributable to this trace; totals keep accumulating as
    /// with per-op calls, and the counters are identical to what the
    /// equivalent `for op { access(..) }` loop would produce.
    pub fn run_trace<I>(&mut self, ops: I) -> HierarchyRun
    where
        I: IntoIterator<Item = TraceOp>,
    {
        self.run_refs(ops.into_iter().filter_map(|op| op.mem_ref()))
    }

    /// Replays a bare memory-reference trace; see
    /// [`TwoLevelHierarchy::run_trace`].
    pub fn run_refs<I>(&mut self, refs: I) -> HierarchyRun
    where
        I: IntoIterator<Item = MemRef>,
    {
        let (l1, l2, h) = (self.l1.stats(), self.l2.stats(), self.stats);
        for r in refs {
            self.access(r.addr, r.is_write);
        }
        HierarchyRun {
            l1: self.l1.stats() - l1,
            l2: self.l2.stats() - l2,
            hierarchy: self.stats - h,
        }
    }

    /// Translates a virtual address through this node's page table.
    ///
    /// Public so a snooping bus can broadcast the *physical* address of a
    /// write made by this node (reverse translation is exactly what the
    /// virtual-real hierarchy is designed to avoid needing for its own
    /// coherence actions).
    pub fn translate(&mut self, va: u64) -> u64 {
        self.mapper.translate(va)
    }

    /// Applies an external coherency invalidation for physical address
    /// `pa` (§3.3 cause 3): the block is removed from L2 and, to keep the
    /// hierarchy consistent, any virtual copy is removed from L1 — which
    /// punches a hole there.
    pub fn snoop_invalidate(&mut self, pa: u64) -> SnoopOutcome {
        let pa_block = self.l2.geometry().block_addr(pa);
        let l2_invalidated = self.l2.invalidate_block(pa_block);
        if l2_invalidated {
            self.stats.external_invalidations_l2 += 1;
        }
        let l1_invalidated = match self.l1_contents.remove(&pa_block) {
            Some(va_block) => self.l1.invalidate_block(va_block),
            None => false,
        };
        if l1_invalidated {
            self.stats.external_invalidations_l1 += 1;
        }
        SnoopOutcome {
            l2_invalidated,
            l1_invalidated,
        }
    }

    /// `true` if this node holds the physical block anywhere in its
    /// hierarchy (used by coherence invariant checks).
    pub fn holds_physical_block(&self, pa_block: u64) -> bool {
        self.l2.probe_block(pa_block).is_some() || self.l1_contents.contains_key(&pa_block)
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Hierarchy-specific counters.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Fraction of L2 misses that created a hole at L1 — the quantity the
    /// paper's §3.3 simulation reports (average < 0.1%, never > 1.2% with
    /// a 1MB L2).
    pub fn hole_rate(&self) -> f64 {
        let m = self.l2.stats().misses;
        if m == 0 {
            0.0
        } else {
            self.stats.holes_created as f64 / m as f64
        }
    }

    /// The L1 cache (read-only).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache (read-only).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Verifies Inclusion: every valid L1 line's physical block is
    /// resident in L2. Intended for tests; cost is `O(L1 lines)`.
    pub fn check_inclusion(&mut self) -> bool {
        let va_blocks: Vec<u64> = self.l1.resident_blocks().collect();
        va_blocks.into_iter().all(|va_block| {
            let pa_block = self.pa_block_of(va_block);
            self.l2.probe_block(pa_block).is_some()
        })
    }

    /// Invalidates both levels and clears all counters. Established page
    /// mappings are kept — the OS page table outlives a cache flush.
    pub fn reset(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l1_contents.clear();
        self.stats = HierarchyStats::default();
        self.demand = CacheStats::default();
    }
}

impl MemoryModel for TwoLevelHierarchy {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        let a = TwoLevelHierarchy::access(self, r.addr, r.is_write);
        if a.l1_hit {
            AccessOutcome::hit_at(ServicePoint::Level(0))
        } else if a.l2_hit {
            AccessOutcome::hit_at(ServicePoint::Level(1))
        } else {
            AccessOutcome {
                filled: !r.is_write,
                ..AccessOutcome::miss()
            }
        }
    }

    fn stats(&self) -> ModelStats {
        let s = self.stats;
        ModelStats {
            demand: self.demand,
            components: vec![
                ComponentStats {
                    name: "l1".to_owned(),
                    stats: self.l1.stats(),
                },
                ComponentStats {
                    name: "l2".to_owned(),
                    stats: self.l2.stats(),
                },
            ],
            extras: vec![
                extra("inclusion-invalidations", s.inclusion_invalidations),
                extra("holes-created", s.holes_created),
                extra("alias-invalidations", s.alias_invalidations),
                extra("external-invalidations-l1", s.external_invalidations_l1),
                extra("external-invalidations-l2", s.external_invalidations_l2),
            ],
        }
    }

    fn reset(&mut self) {
        TwoLevelHierarchy::reset(self);
    }

    fn describe(&self) -> String {
        format!(
            "virtual-real hierarchy: L1 {} ({}) / L2 {} ({})",
            self.l1.geometry(),
            self.l1.index_fn().label(),
            self.l2.geometry(),
            self.l2.index_fn().label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy() -> TwoLevelHierarchy {
        // Small caches so evictions happen quickly: 1KB L1 / 4KB L2.
        let l1 = CacheGeometry::new(1024, 32, 1).unwrap();
        let l2 = CacheGeometry::new(4096, 32, 1).unwrap();
        TwoLevelHierarchy::new(
            l1,
            IndexSpec::ipoly_skewed(),
            l2,
            IndexSpec::modulo(),
            PageMapper::identity(),
        )
        .unwrap()
    }

    #[test]
    fn basic_hit_flow() {
        let mut h = small_hierarchy();
        let a = h.read(0x1000);
        assert!(!a.l1_hit);
        assert!(!a.l2_hit);
        let b = h.read(0x1000);
        assert!(b.l1_hit);
        assert_eq!(h.l1_stats().misses, 1);
        assert_eq!(h.l2_stats().misses, 1);
    }

    #[test]
    fn inclusion_maintained_under_pressure() {
        let mut h = small_hierarchy();
        // Touch far more blocks than L2 holds; inclusion must hold at
        // every point (checked at the end and implied by hole counting).
        for i in 0..4096u64 {
            h.read(i * 32 * 3);
        }
        assert!(h.check_inclusion());
        assert!(h.stats().inclusion_invalidations > 0);
    }

    #[test]
    fn holes_are_counted() {
        let mut h = small_hierarchy();
        for i in 0..8192u64 {
            h.read((i * 97) % 100_000 * 32);
        }
        let s = h.stats();
        assert!(s.holes_created > 0);
        assert!(s.holes_created <= s.inclusion_invalidations);
        assert!(h.hole_rate() > 0.0);
        assert!(h.hole_rate() < 1.0);
    }

    #[test]
    fn write_through_reaches_l2() {
        let mut h = small_hierarchy();
        h.read(0x40); // fill both levels
        let before = h.l2_stats().writes;
        h.write(0x40); // L1 hit, written through
        assert_eq!(h.l2_stats().writes, before + 1);
    }

    #[test]
    fn write_miss_does_not_fill_l1() {
        let mut h = small_hierarchy();
        let a = h.write(0x9000);
        assert!(!a.l1_hit);
        assert!(!h.l1().contains(0x9000));
        // But L2 allocates (write-back/write-allocate).
        assert!(h.l2().contains(0x9000));
        assert!(h.check_inclusion());
    }

    #[test]
    fn alias_control_keeps_one_copy() {
        // 16-frame aliased mapping: virtual pages 0 and 16 are the same
        // physical page.
        let l1 = CacheGeometry::new(1024, 32, 1).unwrap();
        let l2 = CacheGeometry::new(4096, 32, 1).unwrap();
        let mut h = TwoLevelHierarchy::new(
            l1,
            IndexSpec::ipoly_skewed(),
            l2,
            IndexSpec::modulo(),
            PageMapper::aliased(4096, 16),
        )
        .unwrap();
        let va_a = 0x123u64;
        let va_b = 16 * 4096 + 0x123; // alias of va_a
        h.read(va_a);
        h.read(va_b);
        assert!(h.stats().alias_invalidations >= 1);
        // Only the second alias remains at L1.
        assert!(!h.l1().contains(va_a));
        assert!(h.l1().contains(va_b));
        // Interleaved aliases keep trading places but stay consistent.
        for _ in 0..10 {
            h.read(va_a);
            h.read(va_b);
        }
        assert!(h.check_inclusion());
    }

    #[test]
    fn geometry_validation() {
        let l1 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        let l2_small = CacheGeometry::new(4 * 1024, 32, 2).unwrap();
        assert!(TwoLevelHierarchy::new(
            l1,
            IndexSpec::modulo(),
            l2_small,
            IndexSpec::modulo(),
            PageMapper::identity(),
        )
        .is_err());
        let l2_wrong_block = CacheGeometry::new(64 * 1024, 64, 2).unwrap();
        assert!(TwoLevelHierarchy::new(
            l1,
            IndexSpec::modulo(),
            l2_wrong_block,
            IndexSpec::modulo(),
            PageMapper::identity(),
        )
        .is_err());
    }

    #[test]
    fn snoop_invalidate_removes_both_levels() {
        let mut h = small_hierarchy();
        h.read(0x1000);
        assert!(h.l1().contains(0x1000));
        let out = h.snoop_invalidate(0x1000);
        assert!(out.l2_invalidated);
        assert!(out.l1_invalidated);
        assert!(!h.l1().contains(0x1000));
        assert!(!h.holds_physical_block(0x1000 / 32));
        assert_eq!(h.stats().external_invalidations_l1, 1);
        assert_eq!(h.stats().external_invalidations_l2, 1);
        // Next access is a compulsory-style refill.
        assert!(!h.read(0x1000).l1_hit);
        assert!(h.check_inclusion());
    }

    #[test]
    fn snoop_of_absent_block_is_a_clean_miss() {
        let mut h = small_hierarchy();
        let out = h.snoop_invalidate(0xdead_0000);
        assert!(!out.l2_invalidated);
        assert!(!out.l1_invalidated);
        assert_eq!(h.stats().external_invalidations_l1, 0);
    }

    #[test]
    fn snoop_on_l2_only_block_creates_no_l1_hole() {
        let mut h = small_hierarchy();
        h.write(0x9000); // no-write-allocate: L2 only
        let out = h.snoop_invalidate(0x9000);
        assert!(out.l2_invalidated);
        assert!(!out.l1_invalidated);
    }

    #[test]
    fn hole_rate_tracks_paper_model_order_of_magnitude() {
        // 8KB direct-mapped L1 / 256KB direct-mapped L2 with random pages:
        // the analytical P_H is 0.031; the measured rate should be within
        // a small factor of that (it depends on residency, which the
        // model's "always resident" assumption upper-bounds).
        let l1 = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
        let l2 = CacheGeometry::new(256 * 1024, 32, 1).unwrap();
        let mut h = TwoLevelHierarchy::new(
            l1,
            IndexSpec::ipoly(),
            l2,
            IndexSpec::modulo(),
            PageMapper::randomized(4096, 1 << 28, 7),
        )
        .unwrap();
        // Working set of 16K blocks (512KB) streams through repeatedly so
        // L2 keeps evicting.
        for round in 0..6u64 {
            for i in 0..16384u64 {
                h.read((i * 32) + (round % 2) * 11);
            }
        }
        let rate = h.hole_rate();
        assert!(rate < 0.05, "hole rate {rate} implausibly high");
        assert!(h.check_inclusion());
    }
}
