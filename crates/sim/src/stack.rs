//! Generic N-level cache hierarchies with per-level sidecars.
//!
//! [`crate::hierarchy::TwoLevelHierarchy`] models the paper's §3
//! *virtual-real* two-level design, with its virtual-alias control and
//! hole accounting. This module provides the general case it
//! specializes: a physically-addressed stack of any number of
//! [`Cache`] levels, with Inclusion enforced between levels (an
//! eviction at level *j* invalidates the block everywhere above, the
//! §3.2 property that makes snooping cheap), and with the structures
//! of Jouppi's organization \[13\] — a victim buffer and sequential
//! stream buffers — plus a Kroft MSHR file, attachable as *sidecars* to
//! **any** level.
//!
//! Semantics per level, processor side first:
//!
//! 1. the cache array is probed (and filled on a read miss, as
//!    [`Cache::access`] does);
//! 2. on a miss, the victim buffer is probed — a hit swaps the block
//!    back (the fill of step 1 *is* the swap-back) and the access is
//!    serviced here, generating no next-level traffic;
//! 3. then the stream-buffer heads — a head hit services the access and
//!    advances that stream by one block;
//! 4. a full miss allocates a stream (reads), presents the block to the
//!    MSHR file (bookkeeping only — occupancy never changes hit/miss
//!    behaviour), and falls through to the next level, as a read when
//!    this level allocated (the downstream traffic is the fill fetch)
//!    or as the original write when it did not (write-through).
//!
//! Any line a level's cache evicts drops into that level's victim
//! buffer when one is attached; blocks leaving a level entirely trigger
//! the Inclusion invalidation of all levels above it.
//!
//! With two levels, default policies and no sidecars, the stack
//! reproduces the [`TwoLevelHierarchy`] counters exactly under an
//! identity page mapping (`crates/sim/tests/stack_equivalence.rs`
//! holds the guard).
//!
//! # Jouppi's organizations
//!
//! The paper's related work (§2) compares I-Poly placement with
//! Jouppi's victim cache and stream buffers. Those are one-level
//! stacks: the `[victim]`, `[stream]` and `[jouppi]` config sections
//! build a level with a victim buffer, stream buffers, or both, wrapped
//! in a [`SidecarCache`]. The wrapper passes stores through untouched
//! (the comparison is by load miss ratio) and keeps each section's
//! report format. `crates/sim/tests/oracle.rs` checks one-level stacks
//! access by access against a naive model of the sidecars, on read
//! traffic; `crates/bench/tests/config_equivalence.rs` pins the three
//! sections' reports on mixed read/write traffic.
//!
//! [`TwoLevelHierarchy`]: crate::hierarchy::TwoLevelHierarchy
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::stack::{Hierarchy, LevelBuilder};
//!
//! // Three levels: 8KB skewed-I-Poly L1 with a 4-line victim buffer,
//! // 256KB L2, 2MB L3 (both write-back).
//! let mut h = Hierarchy::builder()
//!     .level(
//!         LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2)?)
//!             .index_spec(IndexSpec::ipoly_skewed())
//!             .victim_buffer(4),
//!     )
//!     .level(LevelBuilder::new(CacheGeometry::new(256 * 1024, 32, 2)?).write_back())
//!     .level(LevelBuilder::new(CacheGeometry::new(2 << 20, 32, 4)?).write_back())
//!     .build()?;
//! h.access(0x1234, false);
//! assert!(h.access(0x1234, false).hit);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::assoc::VictimQueue;
use crate::cache::{Cache, CacheBuilder, WritePolicy};
use crate::model::{extra, AccessOutcome, ComponentStats, MemoryModel, ModelStats, ServicePoint};
use crate::mshr::MshrFile;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;
use cac_core::{CacheGeometry, Error, IndexSpec};
use cac_trace::MemRef;

/// Default MSHR fill latency presented to an attached [`MshrFile`]
/// (cycles); purely bookkeeping.
pub const DEFAULT_MISS_PENALTY: u64 = 20;

/// Declarative description of one hierarchy level: a cache plus
/// optional sidecars. Consumed by [`HierarchyBuilder::level`].
#[derive(Debug, Clone)]
pub struct LevelBuilder {
    cache: CacheBuilder,
    victim_lines: Option<usize>,
    stream: Option<(usize, usize)>,
    mshrs: Option<usize>,
    miss_penalty: u64,
}

impl LevelBuilder {
    /// Starts a level with the paper's L1 defaults: modulo indexing,
    /// LRU, write-through / no-write-allocate, no sidecars.
    pub fn new(geom: CacheGeometry) -> Self {
        LevelBuilder {
            cache: CacheBuilder::new(geom),
            victim_lines: None,
            stream: None,
            mshrs: None,
            miss_penalty: DEFAULT_MISS_PENALTY,
        }
    }

    /// Sets the placement scheme.
    #[must_use]
    pub fn index_spec(mut self, spec: IndexSpec) -> Self {
        self.cache = self.cache.index_spec(spec);
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.cache = self.cache.replacement(policy);
        self
    }

    /// Sets the write policy.
    #[must_use]
    pub fn write_policy(mut self, policy: WritePolicy) -> Self {
        self.cache = self.cache.write_policy(policy);
        self
    }

    /// Shorthand for write-back / write-allocate (the paper's L2).
    #[must_use]
    pub fn write_back(self) -> Self {
        self.write_policy(WritePolicy::WriteBackAllocate)
    }

    /// Seeds the random-replacement stream.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cache = self.cache.seed(seed);
        self
    }

    /// Attaches a fully-associative LRU victim buffer of `lines` entries
    /// (Jouppi's configuration is 4).
    #[must_use]
    pub fn victim_buffer(mut self, lines: usize) -> Self {
        self.victim_lines = Some(lines);
        self
    }

    /// Attaches `buffers` sequential stream buffers of `depth` blocks
    /// each (Jouppi's configuration is 4 × 4).
    #[must_use]
    pub fn stream_buffers(mut self, buffers: usize, depth: usize) -> Self {
        self.stream = Some((buffers, depth));
        self
    }

    /// Attaches a Kroft MSHR file of `registers` entries (the paper's
    /// processor allows 8 outstanding misses). Bookkeeping only.
    #[must_use]
    pub fn mshrs(mut self, registers: usize) -> Self {
        self.mshrs = Some(registers);
        self
    }

    /// Fill latency reported to the MSHR file on a miss, in cycles.
    #[must_use]
    pub fn miss_penalty(mut self, cycles: u64) -> Self {
        self.miss_penalty = cycles;
        self
    }

    fn build(self) -> Result<Level, Error> {
        for (what, v) in [
            ("victim buffer lines", self.victim_lines),
            ("stream buffers", self.stream.map(|(n, _)| n)),
            ("stream buffer depth", self.stream.map(|(_, d)| d)),
            ("MSHR registers", self.mshrs),
        ] {
            if v == Some(0) {
                return Err(Error::OutOfRange {
                    what,
                    value: 0,
                    constraint: ">= 1",
                });
            }
        }
        Ok(Level {
            cache: self.cache.build()?,
            victim: self.victim_lines.map(VictimQueue::new),
            streams: self.stream.map(|(buffers, depth)| StreamSet {
                heads: Vec::with_capacity(buffers),
                last_used: Vec::with_capacity(buffers),
                capacity: buffers,
                depth,
            }),
            mshr: self.mshrs.map(MshrFile::new),
            miss_penalty: self.miss_penalty,
            victim_hits: 0,
            stream_hits: 0,
        })
    }
}

/// A set of sequential stream buffers attached to one level, under
/// Jouppi's head-only policy.
///
/// A buffer allocated after a miss on block `b` prefetches
/// `b + 1 ..= b + depth`, and a head hit pops the head and prefetches
/// the next block in sequence. So a buffer always holds `depth`
/// consecutive blocks, and its head alone describes it: `heads[i]` is
/// buffer `i`'s head, the only block a probe may hit. A head hit
/// advances the head by one. The heads form one flat array, scanned
/// first match first (two streams may converge on one head).
#[derive(Debug)]
struct StreamSet {
    heads: Vec<u64>,
    /// LRU stamps for reallocation, parallel to `heads`.
    last_used: Vec<u64>,
    capacity: usize,
    depth: usize,
}

impl StreamSet {
    /// Head-only probe: a hit advances the stream and refreshes its LRU
    /// stamp.
    #[inline]
    fn take_head(&mut self, block: u64, clock: u64) -> bool {
        let Some(i) = self.heads.iter().position(|&h| h == block) else {
            return false;
        };
        self.heads[i] += 1;
        self.last_used[i] = clock;
        true
    }

    /// (Re)allocates the LRU buffer to a fresh stream after `block`.
    fn allocate(&mut self, block: u64, clock: u64) {
        if self.heads.len() < self.capacity {
            self.heads.push(block + 1);
            self.last_used.push(clock);
        } else {
            let lru = (0..self.last_used.len())
                .min_by_key(|&i| self.last_used[i])
                .expect("at least one buffer");
            self.heads[lru] = block + 1;
            self.last_used[lru] = clock;
        }
    }
}

/// One level: cache array plus attached sidecars.
#[derive(Debug)]
struct Level {
    cache: Cache,
    victim: Option<VictimQueue>,
    streams: Option<StreamSet>,
    mshr: Option<MshrFile>,
    miss_penalty: u64,
    victim_hits: u64,
    stream_hits: u64,
}

/// What one level did with an access (see [`Level::access`]).
struct Step {
    /// Where the access was serviced at this level, if it was.
    served: Option<ServicePoint>,
    /// Whether the cache array brought the block in.
    filled: bool,
    /// A block that left the level entirely.
    departed: Option<u64>,
}

impl Level {
    /// This level's share of an access, steps 1–4 of the [module
    /// docs](self): the array probe (and fill), the read sidecars on a
    /// miss, the eviction into the victim buffer, and a full miss's
    /// stream allocation and MSHR request.
    // Forced inline into the level loop, like `Hierarchy::access` itself.
    #[inline(always)]
    fn access(&mut self, i: usize, addr: u64, is_write: bool, clock: u64) -> Step {
        let res = self.cache.access(addr, is_write);
        if res.hit {
            return Step {
                served: Some(ServicePoint::Level(i as u8)),
                filled: false,
                departed: None,
            };
        }
        let block = self.cache.geometry().block_addr(addr);
        // Probe the read sidecars *before* buffering this access's own
        // eviction, so a block cannot be dropped from the victim buffer
        // by the very access that wants it back.
        let mut served = None;
        if !is_write {
            if self.victim.as_mut().is_some_and(|v| v.take(block)) {
                // The fill `res` performed *is* the swap-back.
                self.victim_hits += 1;
                served = Some(ServicePoint::Victim(i as u8));
            } else if let Some(s) = &mut self.streams {
                if s.take_head(block, clock) {
                    self.stream_hits += 1;
                    served = Some(ServicePoint::Stream(i as u8));
                } else {
                    s.allocate(block, clock);
                }
            }
        }
        if served.is_none() {
            if let Some(m) = &mut self.mshr {
                m.request(block, clock, self.miss_penalty);
            }
        }
        Step {
            served,
            filled: res.filled,
            departed: self.buffer_eviction(res.evicted),
        }
    }

    /// Drops a block the cache array evicted into the victim buffer when
    /// one is attached. Returns the block that left the level entirely.
    #[inline]
    fn buffer_eviction(&mut self, evicted: Option<u64>) -> Option<u64> {
        let block = evicted?;
        match &mut self.victim {
            Some(v) => v.push(block),
            None => Some(block),
        }
    }
}

/// Builder for a [`Hierarchy`]; see the [module docs](self).
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    levels: Vec<LevelBuilder>,
    inclusion: bool,
}

impl HierarchyBuilder {
    /// Starts an empty builder with Inclusion enforcement on (the
    /// paper's §3.2 choice).
    pub fn new() -> Self {
        HierarchyBuilder {
            levels: Vec::new(),
            inclusion: true,
        }
    }

    /// Appends a level (processor side first).
    #[must_use]
    pub fn level(mut self, level: LevelBuilder) -> Self {
        self.levels.push(level);
        self
    }

    /// Enables or disables Inclusion enforcement between levels.
    #[must_use]
    pub fn inclusion(mut self, enforce: bool) -> Self {
        self.inclusion = enforce;
        self
    }

    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if there are no levels, if block sizes differ
    /// across levels, or if capacities shrink going away from the
    /// processor (Inclusion requires each level to cover the one
    /// above, §3.2); plus any per-level cache validation error.
    pub fn build(self) -> Result<Hierarchy, Error> {
        if self.levels.is_empty() {
            return Err(Error::config(
                "a hierarchy needs at least one level (the paper's §4 machine has two)",
            ));
        }
        for (i, pair) in self.levels.windows(2).enumerate() {
            let (a, b) = (pair[0].cache.geometry(), pair[1].cache.geometry());
            if a.block() != b.block() {
                return Err(Error::config(format!(
                    "level {} block size {} != level {} block size {}; all levels must \
                     share one line size (the paper's L1 and L2 both use 32-byte lines, §4)",
                    i + 1,
                    a.block(),
                    i + 2,
                    b.block()
                )));
            }
            if b.capacity() < a.capacity() {
                return Err(Error::config(format!(
                    "level {} capacity {} < level {} capacity {}; Inclusion requires each \
                     level to cover the one above it (§3.2)",
                    i + 2,
                    b.capacity(),
                    i + 1,
                    a.capacity()
                )));
            }
        }
        Ok(Hierarchy {
            levels: self
                .levels
                .into_iter()
                .map(LevelBuilder::build)
                .collect::<Result<_, _>>()?,
            inclusion: self.inclusion,
            clock: 0,
            demand: CacheStats::default(),
            inclusion_invalidations: 0,
            holes_created: 0,
        })
    }
}

/// A physically-addressed N-level cache stack with per-level sidecars;
/// see the [module docs](self) for semantics and an example.
#[derive(Debug)]
pub struct Hierarchy {
    levels: Vec<Level>,
    inclusion: bool,
    clock: u64,
    demand: CacheStats,
    inclusion_invalidations: u64,
    holes_created: u64,
}

impl Hierarchy {
    /// Starts a [`HierarchyBuilder`].
    pub fn builder() -> HierarchyBuilder {
        HierarchyBuilder::new()
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The cache array of level `i` (0 = closest to the processor).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_levels()`.
    pub fn level(&self, i: usize) -> &Cache {
        &self.levels[i].cache
    }

    /// The demand stream's counters (hit = serviced before memory).
    pub fn demand_stats(&self) -> CacheStats {
        self.demand
    }

    /// Upper-level lines invalidated to preserve Inclusion.
    pub fn inclusion_invalidations(&self) -> u64 {
        self.inclusion_invalidations
    }

    /// Inclusion invalidations that punched a hole at level 0.
    pub fn holes_created(&self) -> u64 {
        self.holes_created
    }

    /// Invalidates everything (caches and sidecars) and clears all
    /// counters.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.cache.flush();
            if let Some(v) = &mut level.victim {
                v.clear();
            }
            if let Some(s) = &mut level.streams {
                s.heads.clear();
                s.last_used.clear();
            }
            if let Some(m) = &mut level.mshr {
                m.reset();
            }
            level.victim_hits = 0;
            level.stream_hits = 0;
        }
        self.clock = 0;
        self.demand = CacheStats::default();
        self.inclusion_invalidations = 0;
        self.holes_created = 0;
    }

    /// Removes `block` from every level above `from` (cache array and
    /// victim buffer), counting Inclusion invalidations and holes.
    fn invalidate_above(&mut self, from: usize, block: u64) {
        for k in 0..from {
            if self.levels[k].cache.invalidate_block(block) {
                self.inclusion_invalidations += 1;
                if k == 0 {
                    self.holes_created += 1;
                }
            }
            if let Some(v) = &mut self.levels[k].victim {
                v.invalidate(block);
            }
        }
    }

    /// Applies Inclusion to a block that left level `i` entirely.
    /// Returns it if it left the whole organization (`i` is the last,
    /// memory-side level).
    #[inline]
    fn depart(&mut self, i: usize, departed: Option<u64>) -> Option<u64> {
        let block = departed?;
        if self.inclusion && i > 0 {
            self.invalidate_above(i, block);
        }
        (i + 1 == self.levels.len()).then_some(block)
    }

    /// Performs an access; `is_write` selects each level's write-policy
    /// path, exactly as [`Cache::access`] does. The outcome's `evicted`
    /// reports a block the *last* level pushed out — under Inclusion
    /// that is exactly a block leaving the organization entirely
    /// (upper-level evictions stay resident below).
    // Forced inline, into the `MemoryModel` adapters and through them
    // into the replay loop; `SidecarCache` passes a constant `false` that
    // folds the write paths away. On `[victim]` replay an out-of-line
    // body measured ~15% slower per reference.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let mut down_is_write = is_write;
        let mut served = None;
        let mut left_org = None;
        for i in 0..self.levels.len() {
            let step = self.levels[i].access(i, addr, down_is_write, self.clock);
            left_org = self.depart(i, step.departed).or(left_org);
            if step.served.is_some() {
                // Only the cache array services writes.
                if down_is_write {
                    left_org = self.propagate_write(i, addr).or(left_org);
                }
                served = step.served;
                break;
            }
            // Full miss at this level: fall through to the next level —
            // as a read when this level allocated (the downstream
            // traffic is its fill fetch).
            down_is_write &= !step.filled;
        }
        let hit = served.is_some();
        if is_write {
            self.demand.record_write(hit);
        } else {
            self.demand.record_read(hit);
        }
        match served {
            Some(point) => AccessOutcome {
                evicted: left_org,
                ..AccessOutcome::hit_at(point)
            },
            None => AccessOutcome {
                filled: !is_write,
                evicted: left_org,
                ..AccessOutcome::miss()
            },
        }
    }

    /// Propagates a write serviced at level `i` through the levels below
    /// while the receiving level's policy is write-through. Returns any
    /// block the last level pushed out along the way.
    fn propagate_write(&mut self, i: usize, addr: u64) -> Option<u64> {
        let mut j = i;
        let mut left_org = None;
        while j + 1 < self.levels.len()
            && self.levels[j].cache.write_policy() == WritePolicy::WriteThroughNoAllocate
        {
            j += 1;
            let evicted = self.levels[j].cache.access(addr, true).evicted;
            let departed = self.levels[j].buffer_eviction(evicted);
            left_org = self.depart(j, departed).or(left_org);
        }
        left_org
    }

    /// Performs a read access.
    pub fn read(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, false)
    }

    /// Performs a write access.
    pub fn write(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, true)
    }
}

impl MemoryModel for Hierarchy {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        Hierarchy::access(self, r.addr, r.is_write)
    }

    fn stats(&self) -> ModelStats {
        let mut components = Vec::with_capacity(self.levels.len());
        let mut extras = vec![
            extra("inclusion-invalidations", self.inclusion_invalidations),
            extra("holes-created", self.holes_created),
        ];
        for (i, level) in self.levels.iter().enumerate() {
            let name = format!("l{}", i + 1);
            components.push(ComponentStats {
                name: name.clone(),
                stats: level.cache.stats(),
            });
            if level.victim.is_some() {
                extras.push(extra(format!("{name}-victim-hits"), level.victim_hits));
            }
            if level.streams.is_some() {
                extras.push(extra(format!("{name}-stream-hits"), level.stream_hits));
            }
            if let Some(m) = &level.mshr {
                let s = m.stats();
                extras.push(extra(format!("{name}-mshr-primary"), s.primary));
                extras.push(extra(format!("{name}-mshr-secondary"), s.secondary));
                extras.push(extra(format!("{name}-mshr-rejections"), s.rejections));
            }
        }
        ModelStats {
            demand: self.demand,
            components,
            extras,
        }
    }

    fn reset(&mut self) {
        Hierarchy::reset(self);
    }

    fn describe(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut d = format!(
                    "L{} {} ({})",
                    i + 1,
                    l.cache.geometry(),
                    l.cache.index_fn().label()
                );
                if let Some(v) = &l.victim {
                    d.push_str(&format!(" +victim[{}]", v.capacity()));
                }
                if let Some(s) = &l.streams {
                    d.push_str(&format!(" +stream[{}x{}]", s.capacity, s.depth));
                }
                if let Some(m) = &l.mshr {
                    d.push_str(&format!(" +mshr[{}]", m.capacity()));
                }
                d
            })
            .collect();
        format!("hierarchy: {}", levels.join(" / "))
    }
}

/// A one-level [`Hierarchy`] with a victim buffer, stream buffers, or
/// both: the organizations of the `[victim]`, `[stream]` and `[jouppi]`
/// config sections.
///
/// Jouppi's buffers are a read mechanism and the paper compares
/// organizations by load miss ratio, so stores pass through untouched
/// and are only counted. Reads go through [`Hierarchy::access`]. The
/// report keeps the format these organizations have always had, chosen
/// by which sidecars the level has: one component named `victim`,
/// `stream` or `jouppi`, its demand counters, that organization's
/// extras in a fixed order, and its `describe()` line.
#[derive(Debug)]
pub struct SidecarCache {
    hierarchy: Hierarchy,
    stores: u64,
}

/// The report shape of a [`SidecarCache`], from the sidecars it has.
#[derive(Clone, Copy)]
enum Shape {
    /// A victim buffer only.
    Victim,
    /// Stream buffers only.
    Stream,
    /// Both (Jouppi's full design \[13\]).
    Jouppi,
}

impl SidecarCache {
    /// Builds the one-level hierarchy around `level`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if `level` has neither a victim buffer
    /// nor stream buffers, or has MSHRs; otherwise any error
    /// [`HierarchyBuilder::build`] reports (zero-sized sidecars, cache
    /// validation).
    pub fn new(level: LevelBuilder) -> Result<Self, Error> {
        if level.victim_lines.is_none() && level.stream.is_none() {
            return Err(Error::config(
                "a sidecar organization needs a victim buffer or stream buffers",
            ));
        }
        if level.mshrs.is_some() {
            return Err(Error::config("a sidecar organization has no MSHRs"));
        }
        Ok(SidecarCache {
            hierarchy: Hierarchy::builder().level(level).build()?,
            stores: 0,
        })
    }

    fn shape(&self) -> Shape {
        let level = &self.hierarchy.levels[0];
        match (level.victim.is_some(), level.streams.is_some()) {
            (true, false) => Shape::Victim,
            (false, true) => Shape::Stream,
            _ => Shape::Jouppi,
        }
    }
}

impl MemoryModel for SidecarCache {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        if r.is_write {
            self.stores += 1;
            return AccessOutcome::bypass();
        }
        self.hierarchy.access(r.addr, false)
    }

    fn stats(&self) -> ModelStats {
        let level = &self.hierarchy.levels[0];
        let demand = self.hierarchy.demand;
        let main_hits = demand.hits - level.victim_hits - level.stream_hits;
        let (name, mut extras) = match self.shape() {
            Shape::Victim => (
                "victim",
                vec![
                    extra("main-hits", main_hits),
                    extra("victim-hits", level.victim_hits),
                ],
            ),
            Shape::Stream => {
                // A buffer always holds `depth` blocks, and every full
                // miss after the first `capacity` reallocates one buffer,
                // flushing its blocks unused.
                let flushed = level.streams.as_ref().map_or(0, |s| {
                    s.depth as u64 * demand.misses.saturating_sub(s.capacity as u64)
                });
                (
                    "stream",
                    vec![
                        extra("cache-hits", main_hits),
                        extra("stream-hits", level.stream_hits),
                        extra("flushed-unused", flushed),
                    ],
                )
            }
            Shape::Jouppi => (
                "jouppi",
                vec![
                    extra("main-hits", main_hits),
                    extra("victim-hits", level.victim_hits),
                    extra("stream-hits", level.stream_hits),
                ],
            ),
        };
        extras.push(extra("stores-bypassed", self.stores));
        let mut m = ModelStats::single(name, demand);
        m.extras = extras;
        m
    }

    fn reset(&mut self) {
        self.hierarchy.reset();
        self.stores = 0;
    }

    fn describe(&self) -> String {
        let level = &self.hierarchy.levels[0];
        let geom = level.cache.geometry();
        let lines = level.victim.as_ref().map_or(0, VictimQueue::capacity);
        let (buffers, depth) = level
            .streams
            .as_ref()
            .map_or((0, 0), |s| (s.capacity, s.depth));
        match self.shape() {
            Shape::Victim => {
                format!("victim cache: {geom} + {lines}-line fully-associative buffer")
            }
            Shape::Stream => format!(
                "{geom}, {} placement + {buffers}x{depth} stream buffers",
                level.cache.index_fn().label()
            ),
            Shape::Jouppi => format!(
                "Jouppi organization: {geom} + {lines}-line victim buffer + \
                 {buffers}x{depth} stream buffers"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        Hierarchy::builder()
            .level(
                LevelBuilder::new(CacheGeometry::new(1024, 32, 1).unwrap())
                    .index_spec(IndexSpec::ipoly_skewed()),
            )
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()).write_back())
            .build()
            .unwrap()
    }

    #[test]
    fn validation_rejects_malformed_stacks() {
        assert!(Hierarchy::builder().build().is_err());
        // Shrinking capacity.
        let bad = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(8192, 32, 1).unwrap()))
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()))
            .build();
        assert!(bad.is_err());
        // Mismatched block sizes.
        let bad = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()))
            .level(LevelBuilder::new(CacheGeometry::new(8192, 64, 1).unwrap()))
            .build();
        assert!(bad.is_err());
        // Zero-sized sidecars.
        let geom = CacheGeometry::new(4096, 32, 1).unwrap();
        for level in [
            LevelBuilder::new(geom).victim_buffer(0),
            LevelBuilder::new(geom).stream_buffers(0, 4),
            LevelBuilder::new(geom).stream_buffers(4, 0),
        ] {
            assert!(Hierarchy::builder().level(level).build().is_err());
        }
    }

    #[test]
    fn basic_hit_flow_and_service_levels() {
        let mut h = two_level();
        let first = h.access(0x1000, false);
        assert!(!first.hit);
        assert_eq!(first.served_by, ServicePoint::Memory);
        assert_eq!(h.access(0x1000, false).served_by, ServicePoint::Level(0));
        // Push the block out of L1 only; it should then hit at L2.
        let evicter = 0x1000 + 1024 * 3; // likely conflicting eventually
        for i in 0..64u64 {
            h.access(evicter + i * 1024, false);
        }
        let again = h.access(0x1000, false);
        assert!(matches!(
            again.served_by,
            ServicePoint::Level(_) | ServicePoint::Memory
        ));
        let s = MemoryModel::stats(&h);
        assert_eq!(s.demand.accesses, 67);
        assert_eq!(s.components.len(), 2);
        assert_eq!(s.components[0].name, "l1");
    }

    #[test]
    fn inclusion_is_maintained() {
        let mut h = two_level();
        for i in 0..4096u64 {
            h.access(i * 32 * 3, false);
        }
        assert!(h.inclusion_invalidations() > 0);
        assert_eq!(h.inclusion_invalidations(), h.holes_created());
        // Every L1-resident block must be in L2.
        let l2_blocks: std::collections::HashSet<u64> = h.level(1).resident_blocks().collect();
        for b in h.level(0).resident_blocks() {
            assert!(l2_blocks.contains(&b), "L1 block {b:#x} missing from L2");
        }
    }

    #[test]
    fn three_level_stack_services_at_the_right_depth() {
        let mut h = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(512, 32, 1).unwrap()))
            .level(LevelBuilder::new(CacheGeometry::new(2048, 32, 1).unwrap()).write_back())
            .level(LevelBuilder::new(CacheGeometry::new(8192, 32, 1).unwrap()).write_back())
            .build()
            .unwrap();
        // Fill well past L1 and L2 capacity.
        for i in 0..256u64 {
            h.access(i * 32, false);
        }
        // A recent block should be in L1; an older one may be deeper.
        let mut seen_deeper = false;
        for i in 0..256u64 {
            let out = h.access(i * 32, false);
            if matches!(
                out.served_by,
                ServicePoint::Level(1) | ServicePoint::Level(2)
            ) {
                seen_deeper = true;
            }
        }
        assert!(seen_deeper, "no access was serviced below L1");
        let s = MemoryModel::stats(&h);
        assert_eq!(s.components.len(), 3);
        assert!(s.demand.hits > 0);
    }

    #[test]
    fn victim_sidecar_catches_conflicts_like_a_victim_cache() {
        let mut h = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 1).unwrap()).victim_buffer(4))
            .build()
            .unwrap();
        let a = 0u64;
        let b = 8 * 1024; // same direct-mapped set
        h.access(a, false);
        h.access(b, false);
        let out = h.access(a, false);
        assert_eq!(out.served_by, ServicePoint::Victim(0));
        assert!(out.hit);
        let s = MemoryModel::stats(&h);
        assert_eq!(s.extra("l1-victim-hits"), Some(1));
        assert_eq!(s.demand.misses, 2);
    }

    #[test]
    fn stream_sidecar_rescues_sequential_misses() {
        let mut h = Hierarchy::builder()
            .level(
                LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 1).unwrap())
                    .stream_buffers(4, 4),
            )
            .build()
            .unwrap();
        for i in 0..1024u64 {
            h.access(i * 32, false);
        }
        let s = MemoryModel::stats(&h);
        assert_eq!(s.demand.misses, 1, "{:?}", s.demand);
        assert_eq!(s.extra("l1-stream-hits"), Some(1023));
    }

    /// One direct-mapped 8KB level with the given sidecars (Jouppi's
    /// configuration is 4 victim lines and 4x4 stream buffers).
    fn jouppi_level(victim: Option<usize>, streams: Option<(usize, usize)>) -> LevelBuilder {
        let mut lb = LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 1).unwrap());
        if let Some(lines) = victim {
            lb = lb.victim_buffer(lines);
        }
        if let Some((buffers, depth)) = streams {
            lb = lb.stream_buffers(buffers, depth);
        }
        lb
    }

    fn one_level(level: LevelBuilder) -> Hierarchy {
        Hierarchy::builder().level(level).build().unwrap()
    }

    #[test]
    fn outcomes_name_the_servicing_structure() {
        let mut h = one_level(jouppi_level(Some(4), Some((4, 4))));
        assert_eq!(h.read(0x0000).served_by, ServicePoint::Memory);
        assert_eq!(h.read(0x0008).served_by, ServicePoint::Level(0));
        h.read(0x2000); // same DM set as 0x0000: spills it to the victim buffer
        assert_eq!(h.read(0x0000).served_by, ServicePoint::Victim(0));
        let out = h.read(0x2020); // prefetched by 0x2000's stream
        assert_eq!(out.served_by, ServicePoint::Stream(0));
        assert!(out.hit);
    }

    #[test]
    fn mixed_workload_uses_the_array_and_both_sidecars() {
        let mut h = one_level(jouppi_level(Some(4), Some((4, 4))));
        for round in 0..32u64 {
            h.read(0x0000);
            h.read(0x0008); // same block: array hit
            h.read(0x2000); // same set: victim material
            h.read(0x4_0000 + round * 32); // sequential: stream material
        }
        let s = MemoryModel::stats(&h);
        let (victim, stream) = (s.extra("l1-victim-hits"), s.extra("l1-stream-hits"));
        let array = h.level(0).stats().hits;
        assert!(array > 0 && victim > Some(0) && stream > Some(0), "{s:?}");
        assert_eq!(
            array + victim.unwrap() + stream.unwrap() + s.demand.misses,
            s.demand.accesses
        );
    }

    #[test]
    fn victim_buffer_capacity_limits_protection() {
        // 8 blocks conflicting on one set overwhelm a 4-entry buffer under
        // cyclic access.
        let mut h = one_level(jouppi_level(Some(4), None));
        for _ in 0..5 {
            for i in 0..8u64 {
                h.read(i * 8 * 1024);
            }
        }
        assert!(h.demand_stats().miss_ratio() > 0.5);
    }

    #[test]
    fn wide_column_conflicts_overwhelm_both_sidecars() {
        // 64 blocks colliding on one set: 4 victim lines and non-
        // sequential strides leave Jouppi's organization helpless — the
        // gap I-Poly placement closes.
        let mut h = one_level(jouppi_level(Some(4), Some((4, 4))));
        for _pass in 0..8 {
            for i in 0..64u64 {
                h.read(i * 8192);
            }
        }
        let s = MemoryModel::stats(&h);
        assert_eq!(s.extra("l1-stream-hits"), Some(0), "{s:?}");
        assert!(s.demand.miss_ratio() > 0.8, "{s:?}");
    }

    #[test]
    fn stream_hits_are_head_only() {
        let mut h = one_level(jouppi_level(None, Some((1, 4))));
        h.read(0); // allocates a stream prefetching blocks 1..=4
                   // Skipping the head (block 1) to block 2 is NOT a stream hit
                   // under the head-only policy: it reallocates the buffer.
        assert_eq!(h.read(2 * 32).served_by, ServicePoint::Memory);
        assert_eq!(h.read(3 * 32).served_by, ServicePoint::Stream(0));
    }

    #[test]
    fn interleaved_streams_fit_in_separate_buffers() {
        let mut h = one_level(jouppi_level(None, Some((4, 4))));
        // Three interleaved sequential streams far apart.
        for i in 0..512u64 {
            h.read(i * 32);
            h.read(0x1000_0000 + i * 32);
            h.read(0x2000_0000 + i * 32);
        }
        assert_eq!(h.demand_stats().misses, 3, "one allocation per stream");
    }

    #[test]
    fn too_many_streams_thrash_the_buffers() {
        let level = jouppi_level(None, Some((2, 4)));
        let mut c = SidecarCache::new(level).unwrap();
        // Six interleaved streams over two buffers: constant reallocation.
        for i in 0..64u64 {
            for s in 0..6u64 {
                c.access(MemRef {
                    pc: 0,
                    addr: (s << 28) + i * 32,
                    is_write: false,
                });
            }
        }
        let s = c.stats();
        assert!(s.demand.misses > 300, "{s:?}");
        assert!(s.extra("flushed-unused") > Some(0), "{s:?}");
    }

    #[test]
    fn cache_hits_do_not_touch_stream_buffers() {
        let mut h = one_level(jouppi_level(None, Some((4, 4))));
        h.read(0x40);
        assert_eq!(h.read(0x40).served_by, ServicePoint::Level(0));
        assert_eq!(h.read(0x48).served_by, ServicePoint::Level(0)); // same block
        assert_eq!(h.level(0).stats().hits, 2);
        assert_eq!(MemoryModel::stats(&h).extra("l1-stream-hits"), Some(0));
    }

    #[test]
    fn stream_buffers_work_with_ipoly_placement() {
        let mut h = one_level(
            LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2).unwrap())
                .index_spec(IndexSpec::ipoly_skewed())
                .stream_buffers(4, 4),
        );
        for i in 0..512u64 {
            h.read(i * 32);
        }
        let s = MemoryModel::stats(&h);
        let rescued = s.extra("l1-stream-hits").unwrap() as f64;
        assert!(rescued / (rescued + s.demand.misses as f64) > 0.9, "{s:?}");
    }

    #[test]
    fn sidecar_cache_passes_stores_through_and_counts_them() {
        let level = jouppi_level(Some(4), Some((4, 4)));
        let mut c = SidecarCache::new(level).unwrap();
        let read = |addr| MemRef {
            pc: 0,
            addr,
            is_write: false,
        };
        let write = |addr| MemRef {
            pc: 0,
            addr,
            is_write: true,
        };
        assert_eq!(c.access(write(0x40)).served_by, ServicePoint::Bypass);
        // The store allocated nothing: the read still misses.
        assert_eq!(c.access(read(0x40)).served_by, ServicePoint::Memory);
        c.access(write(0x40));
        let s = c.stats();
        assert_eq!(s.demand.accesses, 1);
        assert_eq!(s.demand.writes, 0);
        assert_eq!(s.extra("stores-bypassed"), Some(2));
        assert_eq!(s.components[0].name, "jouppi");
        c.reset();
        assert_eq!(c.stats().extra("stores-bypassed"), Some(0));
        assert_eq!(c.stats().demand, CacheStats::default());
    }

    #[test]
    fn sidecar_cache_report_shape_follows_its_sidecars() {
        for (victim, stream, name, first) in [
            (Some(4), None, "victim", "main-hits"),
            (None, Some((4, 4)), "stream", "cache-hits"),
            (Some(4), Some((4, 4)), "jouppi", "main-hits"),
        ] {
            let c = SidecarCache::new(jouppi_level(victim, stream)).unwrap();
            let s = c.stats();
            assert_eq!(s.components[0].name, name);
            assert_eq!(s.extras[0].0, first, "{name}");
            assert_eq!(
                s.extras.iter().any(|(k, _)| k == "victim-hits"),
                victim.is_some(),
                "{name}"
            );
            assert_eq!(
                s.extras.iter().any(|(k, _)| k == "stream-hits"),
                stream.is_some(),
                "{name}"
            );
        }
        // A level without sidecars, or with MSHRs, has no report shape.
        let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
        assert!(SidecarCache::new(LevelBuilder::new(geom)).is_err());
        assert!(SidecarCache::new(LevelBuilder::new(geom).victim_buffer(4).mshrs(8)).is_err());
    }

    #[test]
    fn writes_propagate_through_write_through_levels() {
        let mut h = two_level();
        h.access(0x40, false); // resident in both levels
        let l2_writes_before = h.level(1).stats().writes;
        let out = h.access(0x40, true); // L1 write-through hit
        assert_eq!(out.served_by, ServicePoint::Level(0));
        assert_eq!(h.level(1).stats().writes, l2_writes_before + 1);
        // A write miss at L1 (no-allocate) lands at L2 as a write.
        let miss = h.access(0x9000, true);
        assert!(!h.level(0).contains(0x9000));
        assert!(h.level(1).contains(0x9000));
        assert!(!miss.hit || h.level(1).stats().writes > l2_writes_before);
    }

    #[test]
    fn mshr_sidecar_is_bookkeeping_only() {
        let mk = |mshrs: Option<usize>| {
            let mut lb = LevelBuilder::new(CacheGeometry::new(1024, 32, 1).unwrap());
            if let Some(n) = mshrs {
                lb = lb.mshrs(n);
            }
            Hierarchy::builder()
                .level(lb)
                .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()).write_back())
                .build()
                .unwrap()
        };
        let mut with = mk(Some(8));
        let mut without = mk(None);
        let mut x = 0x9e37u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (1 << 18);
            let w = x.is_multiple_of(5);
            with.access(addr, w);
            without.access(addr, w);
        }
        assert_eq!(with.demand_stats(), without.demand_stats());
        assert_eq!(with.level(0).stats(), without.level(0).stats());
        assert_eq!(with.level(1).stats(), without.level(1).stats());
        let s = MemoryModel::stats(&with);
        assert!(s.extra("l1-mshr-primary").unwrap() > 0);
        // reset() clears the MSHR counters along with everything else.
        with.reset();
        let s = MemoryModel::stats(&with);
        assert_eq!(s.extra("l1-mshr-primary"), Some(0));
        assert_eq!(s.extra("l1-mshr-secondary"), Some(0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = two_level();
        for i in 0..512u64 {
            h.access(i * 32, i % 3 == 0);
        }
        h.reset();
        assert_eq!(h.demand_stats(), CacheStats::default());
        assert_eq!(h.level(0).resident_lines(), 0);
        assert_eq!(h.level(1).resident_lines(), 0);
        assert_eq!(h.inclusion_invalidations(), 0);
    }
}
