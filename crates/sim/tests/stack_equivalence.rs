//! Equivalence guard for the generic N-level stack.
//!
//! With two levels (write-through L1 over a write-back L2, Inclusion
//! on, no sidecars) the generic [`Hierarchy`] is the
//! [`TwoLevelHierarchy`] under an identity page mapping — counter for
//! counter. One-level stacks with victim and stream sidecars are checked
//! against a naive model in `oracle.rs`.

use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::hierarchy::TwoLevelHierarchy;
use cac_sim::model::{MemoryModel, ServicePoint};
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::vm::PageMapper;

/// Deterministic mixed traffic over a working set that overflows both
/// cache levels.
fn traffic(n: usize) -> impl Iterator<Item = (u64, bool)> {
    let mut x = 0x1234_5678_9abc_def0u64;
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ((x >> 8) % (1 << 20), x.is_multiple_of(5))
    })
}

#[test]
fn two_level_stack_matches_the_virtual_real_hierarchy_under_identity() {
    let l1 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let l2 = CacheGeometry::new(64 * 1024, 32, 2).unwrap();
    let mut vr = TwoLevelHierarchy::new(
        l1,
        IndexSpec::ipoly_skewed(),
        l2,
        IndexSpec::modulo(),
        PageMapper::identity(),
    )
    .unwrap();
    let mut stack = Hierarchy::builder()
        .level(LevelBuilder::new(l1).index_spec(IndexSpec::ipoly_skewed()))
        .level(
            LevelBuilder::new(l2)
                .index_spec(IndexSpec::modulo())
                .write_back(),
        )
        .build()
        .unwrap();

    for (addr, is_write) in traffic(200_000) {
        let a = vr.access(addr, is_write);
        let b = stack.access(addr, is_write);
        let stack_l1_hit = b.served_by == ServicePoint::Level(0);
        assert_eq!(a.l1_hit, stack_l1_hit, "addr {addr:#x}");
    }
    assert_eq!(vr.l1_stats(), stack.level(0).stats());
    assert_eq!(vr.l2_stats(), stack.level(1).stats());
    assert_eq!(
        vr.stats().inclusion_invalidations,
        stack.inclusion_invalidations()
    );
    assert_eq!(vr.stats().holes_created, stack.holes_created());
    // Identity mapping ⇒ no aliases, so the generic stack models the
    // complete behaviour.
    assert_eq!(vr.stats().alias_invalidations, 0);
    // The unified demand view agrees too.
    assert_eq!(
        MemoryModel::stats(&vr).demand,
        MemoryModel::stats(&stack).demand
    );
}
