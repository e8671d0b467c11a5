//! Oracle equivalence: a deliberately naive reference cache against the
//! production [`Cache`] on randomized mixed read/write traces.
//!
//! The production cache is aggressively specialized — LUT-compiled
//! placement, packed metadata words, monomorphized probe kernels, and an
//! O(1) engine for one-set geometries. This suite re-implements the
//! *semantics* from first principles with none of those tricks
//! (`Vec<Option<Line>>` storage, per-probe `IndexFunction` calls, victim
//! selection by scanning, an independently-implemented copy of the
//! replacement RNG) and checks both the per-op path and the batched
//! kernel path against it, per access, across every replacement ×
//! write-policy combination.
//!
//! On top of that naive cache, [`SidecarOracle`] models Jouppi's
//! sidecars just as plainly — a victim FIFO in a `Vec` searched by
//! linear scan, stream buffers as explicit FIFOs of prefetched blocks —
//! and checks a one-level [`Hierarchy`] against it access by access,
//! plus the `[victim]` / `[stream]` / `[jouppi]` report counters of
//! [`SidecarCache`] on mixed read/write traffic.

use cac_core::{CacheGeometry, IndexFunction, IndexSpec};
use cac_sim::cache::{Cache, WritePolicy};
use cac_sim::model::{MemoryModel, ServicePoint};
use cac_sim::replacement::ReplacementPolicy;
use cac_sim::stack::{Hierarchy, LevelBuilder, SidecarCache};
use cac_sim::stats::CacheStats;
use cac_trace::MemRef;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// The seed `Cache::builder` uses by default; the oracle's RNG copy
/// must start from the same stream.
const DEFAULT_SEED: u64 = 0x5eed_cace;

/// One resident line of the naive model.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    last_touch: u64,
    fill_time: u64,
}

/// A naive reference cache: way-major `Vec<Option<Line>>`, per-probe
/// index-function calls, victim selection by scanning all candidates.
struct Oracle {
    geom: CacheGeometry,
    index: Arc<dyn IndexFunction>,
    sets: usize,
    ways: usize,
    lines: Vec<Option<Line>>,
    policy: ReplacementPolicy,
    write_policy: WritePolicy,
    rng_state: u64,
    clock: u64,
    stats: CacheStats,
}

/// What one access did, in the shape of the fields of
/// [`cac_sim::model::AccessOutcome`] the oracle can predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    hit: bool,
    way: Option<u32>,
    evicted: Option<u64>,
    filled: bool,
}

impl Oracle {
    fn new(
        geom: CacheGeometry,
        spec: IndexSpec,
        policy: ReplacementPolicy,
        write_policy: WritePolicy,
    ) -> Self {
        let sets = geom.num_sets() as usize;
        let ways = geom.ways() as usize;
        // An independent copy of the documented selector seeding:
        // splitmix64 scramble of the seed, low bit forced to one.
        let mut z = DEFAULT_SEED.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Oracle {
            geom,
            index: spec.build(geom).expect("valid spec"),
            sets,
            ways,
            lines: vec![None; sets * ways],
            policy,
            write_policy,
            rng_state: z | 1,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    fn next_random(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    fn slot(&self, way: usize, set: u32) -> usize {
        way * self.sets + set as usize
    }

    fn access(&mut self, addr: u64, is_write: bool) -> Outcome {
        let block = self.geom.block_addr(addr);
        self.clock += 1;
        // Probe every way in order with the raw index function.
        for w in 0..self.ways {
            let set = self.index.set_index(block, w as u32);
            let slot = self.slot(w, set);
            if let Some(line) = &mut self.lines[slot] {
                if line.tag == block {
                    line.last_touch = self.clock;
                    if is_write && self.write_policy == WritePolicy::WriteBackAllocate {
                        line.dirty = true;
                    }
                    if is_write {
                        self.stats.record_write(true);
                    } else {
                        self.stats.record_read(true);
                    }
                    return Outcome {
                        hit: true,
                        way: Some(w as u32),
                        evicted: None,
                        filled: false,
                    };
                }
            }
        }
        // Miss.
        if is_write {
            self.stats.record_write(false);
        } else {
            self.stats.record_read(false);
        }
        let wb = self.write_policy == WritePolicy::WriteBackAllocate;
        if is_write && !wb {
            return Outcome {
                hit: false,
                way: None,
                evicted: None,
                filled: false,
            };
        }
        // Fill: first invalid way, else the policy's victim.
        let mut target: Option<usize> = None;
        for w in 0..self.ways {
            let set = self.index.set_index(block, w as u32);
            if self.lines[self.slot(w, set)].is_none() {
                target = Some(w);
                break;
            }
        }
        let mut evicted = None;
        let way = match target {
            Some(w) => w,
            None => {
                let w = match self.policy {
                    ReplacementPolicy::Lru => (0..self.ways)
                        .min_by_key(|&w| {
                            let set = self.index.set_index(block, w as u32);
                            self.lines[self.slot(w, set)].expect("valid").last_touch
                        })
                        .expect("ways >= 1"),
                    ReplacementPolicy::Fifo => (0..self.ways)
                        .min_by_key(|&w| {
                            let set = self.index.set_index(block, w as u32);
                            self.lines[self.slot(w, set)].expect("valid").fill_time
                        })
                        .expect("ways >= 1"),
                    ReplacementPolicy::Random => (self.next_random() % self.ways as u64) as usize,
                    other => unreachable!("policy {other:?} not modelled"),
                };
                let set = self.index.set_index(block, w as u32);
                let victim = self.lines[self.slot(w, set)].expect("valid");
                self.stats.evictions += 1;
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
                evicted = Some(victim.tag);
                w
            }
        };
        let set = self.index.set_index(block, way as u32);
        let slot = self.slot(way, set);
        self.lines[slot] = Some(Line {
            tag: block,
            dirty: is_write && wb,
            last_touch: self.clock,
            fill_time: self.clock,
        });
        Outcome {
            hit: false,
            way: Some(way as u32),
            evicted,
            filled: true,
        }
    }

    fn resident(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.lines.iter().flatten().map(|l| l.tag).collect();
        v.sort_unstable();
        v
    }
}

/// One stream buffer of the naive model: the prefetched blocks (front
/// = head, the only block a probe may hit), the next block to prefetch,
/// and the LRU stamp.
struct NaiveStream {
    fifo: VecDeque<u64>,
    next: u64,
    last_used: u64,
}

/// A naive model of one cache level with Jouppi's sidecars, on top of
/// the naive [`Oracle`] cache (LRU, write-through / no-write-allocate):
/// a victim FIFO searched by linear scan, and stream buffers as explicit
/// FIFOs with the head-only policy and LRU reallocation. Reads only.
struct SidecarOracle {
    cache: Oracle,
    /// Victim FIFO, oldest first, and its capacity.
    victim: Option<(Vec<u64>, usize)>,
    streams: Vec<NaiveStream>,
    /// Stream-buffer count and depth.
    stream_shape: Option<(usize, usize)>,
    clock: u64,
    /// Counters: victim hits, stream hits, prefetched blocks flushed
    /// unused by a reallocation.
    victim_hits: u64,
    stream_hits: u64,
    flushed: u64,
}

impl SidecarOracle {
    fn new(
        geom: CacheGeometry,
        spec: IndexSpec,
        victim: Option<usize>,
        stream_shape: Option<(usize, usize)>,
    ) -> Self {
        SidecarOracle {
            cache: Oracle::new(
                geom,
                spec,
                ReplacementPolicy::Lru,
                WritePolicy::WriteThroughNoAllocate,
            ),
            victim: victim.map(|lines| (Vec::new(), lines)),
            streams: Vec::new(),
            stream_shape,
            clock: 0,
            victim_hits: 0,
            stream_hits: 0,
            flushed: 0,
        }
    }

    /// One read: where it was serviced, and the block that left the
    /// level entirely (out of the victim FIFO's far end, or straight
    /// out of the cache without a victim buffer).
    fn read(&mut self, addr: u64) -> (ServicePoint, Option<u64>) {
        self.clock += 1;
        let block = self.cache.geom.block_addr(addr);
        let out = self.cache.access(addr, false);
        if out.hit {
            return (ServicePoint::Level(0), None);
        }
        let mut served = ServicePoint::Memory;
        if let Some((fifo, _)) = &mut self.victim {
            if let Some(i) = fifo.iter().position(|&b| b == block) {
                fifo.remove(i);
                self.victim_hits += 1;
                served = ServicePoint::Victim(0);
            }
        }
        if let (ServicePoint::Memory, Some((buffers, depth))) = (served, self.stream_shape) {
            if let Some(s) = self
                .streams
                .iter_mut()
                .find(|s| s.fifo.front() == Some(&block))
            {
                s.fifo.pop_front();
                while s.fifo.len() < depth {
                    s.fifo.push_back(s.next);
                    s.next += 1;
                }
                s.last_used = self.clock;
                self.stream_hits += 1;
                served = ServicePoint::Stream(0);
            } else {
                let fresh = NaiveStream {
                    fifo: (block + 1..=block + depth as u64).collect(),
                    next: block + depth as u64 + 1,
                    last_used: self.clock,
                };
                if self.streams.len() < buffers {
                    self.streams.push(fresh);
                } else {
                    let lru = (0..self.streams.len())
                        .min_by_key(|&i| self.streams[i].last_used)
                        .expect("buffers >= 1");
                    self.flushed += self.streams[lru].fifo.len() as u64;
                    self.streams[lru] = fresh;
                }
            }
        }
        let departed = match (&mut self.victim, out.evicted) {
            (Some((fifo, lines)), Some(evicted)) => {
                let dropped = (fifo.len() == *lines).then(|| fifo.remove(0));
                fifo.push(evicted);
                dropped
            }
            (_, evicted) => evicted,
        };
        (served, departed)
    }
}

fn policies() -> [ReplacementPolicy; 3] {
    [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ]
}

fn write_policies() -> [WritePolicy; 2] {
    [
        WritePolicy::WriteThroughNoAllocate,
        WritePolicy::WriteBackAllocate,
    ]
}

/// Replays `refs` against the oracle, a per-op `Cache` and a batched
/// (kernel-path) `Cache`, checking per-access outcomes, final counters
/// and final contents.
fn check_equivalence(
    geom: CacheGeometry,
    spec: IndexSpec,
    policy: ReplacementPolicy,
    wp: WritePolicy,
    refs: &[MemRef],
) -> Result<(), TestCaseError> {
    let build = || {
        Cache::builder(geom)
            .index_spec(spec.clone())
            .replacement(policy)
            .write_policy(wp)
            .build()
            .expect("valid cache")
    };
    let mut oracle = Oracle::new(geom, spec.clone(), policy, wp);
    let mut per_op = build();
    let mut batched = build();
    for (i, r) in refs.iter().enumerate() {
        let want = oracle.access(r.addr, r.is_write);
        let got = per_op.access(r.addr, r.is_write);
        let got = Outcome {
            hit: got.hit,
            way: got.way,
            evicted: got.evicted,
            filled: got.filled,
        };
        prop_assert_eq!(
            got,
            want,
            "ref {} ({:#x} {}) under {:?}/{:?}/{}",
            i,
            r.addr,
            if r.is_write { "W" } else { "R" },
            policy,
            wp,
            spec
        );
    }
    let delta = batched.run_refs_slice(refs);
    prop_assert_eq!(per_op.stats(), oracle.stats);
    prop_assert_eq!(delta, oracle.stats);
    let mut got: Vec<u64> = per_op.resident_blocks().collect();
    got.sort_unstable();
    prop_assert_eq!(got, oracle.resident());
    let mut got: Vec<u64> = batched.resident_blocks().collect();
    got.sort_unstable();
    prop_assert_eq!(got, oracle.resident());
    Ok(())
}

/// Address/op mix: a handful of hot sets plus a wide tail, so traces
/// exercise hits, conflicts and evictions at every geometry.
fn trace(len: usize) -> impl Strategy<Value = Vec<MemRef>> {
    proptest::collection::vec((0u32..1 << 18, 0u32..8), len..len + 1).prop_map(|raw| {
        raw.into_iter()
            .map(|(a, w)| MemRef {
                pc: 0,
                addr: u64::from(a) & !3,
                is_write: w == 0,
            })
            .collect()
    })
}

/// Read traffic for the sidecars: sequential runs (stream material),
/// jumps, and returns to a cache-sized stride (conflict material), with
/// one store in eight for the report check.
fn sidecar_trace(len: usize) -> impl Strategy<Value = Vec<MemRef>> {
    proptest::collection::vec((0u32..1 << 18, 0u32..16), len..len + 1).prop_map(|raw| {
        let mut cursor = 0u64;
        raw.into_iter()
            .map(|(a, kind)| {
                cursor = match kind % 4 {
                    0 => u64::from(a) & !3,
                    1 | 2 => cursor + 32,
                    _ => cursor ^ 0x1000,
                };
                MemRef {
                    pc: 0,
                    addr: cursor,
                    is_write: kind >= 14,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A one-level [`Hierarchy`] with victim and/or stream sidecars
    /// against [`SidecarOracle`], access by access (hit, service point,
    /// departed block), on the reads of the trace; then the
    /// [`SidecarCache`] report counters on the full mixed trace.
    #[test]
    fn one_level_sidecars_match_oracle(
        refs in sidecar_trace(600),
        two_way in 0usize..2,
        skewed in 0usize..2,
        victim_lines in 0usize..9,
        buffers in 0usize..5,
        depth in 1usize..5,
    ) {
        prop_assume!(victim_lines > 0 || buffers > 0);
        let ways = if two_way == 1 { 2 } else { 1 };
        let geom = CacheGeometry::new(4096, 32, ways).unwrap();
        let spec = if skewed == 1 { IndexSpec::ipoly_skewed() } else { IndexSpec::modulo() };
        let victim = (victim_lines > 0).then_some(victim_lines);
        let streams = (buffers > 0).then_some((buffers, depth));
        let level = || {
            let mut lb = LevelBuilder::new(geom).index_spec(spec.clone());
            if let Some(lines) = victim {
                lb = lb.victim_buffer(lines);
            }
            if let Some((n, d)) = streams {
                lb = lb.stream_buffers(n, d);
            }
            lb
        };
        let mut oracle = SidecarOracle::new(geom, spec.clone(), victim, streams);
        let mut stack = Hierarchy::builder().level(level()).build().unwrap();
        for (i, r) in refs.iter().filter(|r| !r.is_write).enumerate() {
            let (want, departed) = oracle.read(r.addr);
            let got = stack.read(r.addr);
            prop_assert_eq!(got.served_by, want, "read {} ({:#x})", i, r.addr);
            prop_assert_eq!(got.hit, want != ServicePoint::Memory, "read {}", i);
            prop_assert_eq!(got.evicted, departed, "read {} ({:#x})", i, r.addr);
        }

        let mut model = SidecarCache::new(level()).unwrap();
        model.run_refs(&refs);
        let s = model.stats();
        let reads = refs.iter().filter(|r| !r.is_write).count() as u64;
        let misses = reads - oracle.cache.stats.hits - oracle.victim_hits - oracle.stream_hits;
        prop_assert_eq!(s.demand.reads, reads);
        prop_assert_eq!(s.demand.misses, misses);
        prop_assert_eq!(s.demand.writes, 0);
        prop_assert_eq!(s.extra("stores-bypassed"), Some(refs.len() as u64 - reads));
        let name = match (victim, streams) {
            (Some(_), None) => "victim",
            (None, Some(_)) => "stream",
            _ => "jouppi",
        };
        prop_assert_eq!(s.components[0].name.as_str(), name);
        let main = if name == "stream" { "cache-hits" } else { "main-hits" };
        prop_assert_eq!(s.extra(main), Some(oracle.cache.stats.hits));
        if victim.is_some() {
            prop_assert_eq!(s.extra("victim-hits"), Some(oracle.victim_hits));
        }
        if streams.is_some() {
            prop_assert_eq!(s.extra("stream-hits"), Some(oracle.stream_hits));
        }
        if name == "stream" {
            prop_assert_eq!(s.extra("flushed-unused"), Some(oracle.flushed));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Set-associative shapes (kernel ways 1/2/4 plus the 8-way
    /// fallback), conventional and skewed placements, all replacement ×
    /// write policies.
    #[test]
    fn set_associative_matches_oracle(
        refs in trace(400),
        way_sel in 0usize..4,
        spec_sel in 0usize..3,
        cap_bits in 10u32..13,
    ) {
        let ways = [1u32, 2, 4, 8][way_sel];
        let spec = [IndexSpec::modulo(), IndexSpec::ipoly_skewed(), IndexSpec::xor_skewed()]
            [spec_sel].clone();
        let geom = CacheGeometry::new(1u64 << cap_bits, 32, ways).unwrap();
        for policy in policies() {
            for wp in write_policies() {
                check_equivalence(geom, spec.clone(), policy, wp, &refs)?;
            }
        }
    }

    /// Fully-associative geometries: the O(1) engine (hash probes,
    /// intrusive LRU/FIFO list, lowest-free-slot reuse) against the
    /// naive scan, all replacement × write policies.
    #[test]
    fn fully_associative_matches_oracle(
        refs in trace(400),
        cap_bits in 9u32..13,
    ) {
        let geom = CacheGeometry::fully_associative(1u64 << cap_bits, 32).unwrap();
        for policy in policies() {
            for wp in write_policies() {
                check_equivalence(geom, IndexSpec::modulo(), policy, wp, &refs)?;
            }
        }
    }

    /// Interleaving invalidations with accesses keeps all three in
    /// lockstep (exercises the engine's free-slot heap and the packed
    /// dirty bit on externally removed lines).
    #[test]
    fn invalidations_stay_in_lockstep(
        refs in trace(300),
        fully in 0usize..2,
    ) {
        let geom = if fully == 1 {
            CacheGeometry::fully_associative(1 << 10, 32).unwrap()
        } else {
            CacheGeometry::new(1 << 10, 32, 2).unwrap()
        };
        let mut oracle = Oracle::new(
            geom, IndexSpec::modulo(), ReplacementPolicy::Lru, WritePolicy::WriteBackAllocate);
        let mut cache = Cache::builder(geom)
            .write_policy(WritePolicy::WriteBackAllocate)
            .build()
            .unwrap();
        for (i, r) in refs.iter().enumerate() {
            oracle.access(r.addr, r.is_write);
            cache.access(r.addr, r.is_write);
            if i % 7 == 0 {
                // Invalidate the block of the previous reference.
                let block = geom.block_addr(refs[i.saturating_sub(1)].addr);
                let removed = cache.invalidate_block(block);
                let mut oracle_removed = false;
                for w in 0..oracle.ways {
                    let set = oracle.index.set_index(block, w as u32);
                    let slot = oracle.slot(w, set);
                    if oracle.lines[slot].map(|l| l.tag) == Some(block) {
                        let line = oracle.lines[slot].take().expect("checked");
                        oracle.stats.invalidations += 1;
                        if line.dirty {
                            oracle.stats.writebacks += 1;
                        }
                        oracle_removed = true;
                        break;
                    }
                }
                prop_assert_eq!(removed, oracle_removed, "ref {}", i);
            }
        }
        prop_assert_eq!(cache.stats(), oracle.stats);
        let mut got: Vec<u64> = cache.resident_blocks().collect();
        got.sort_unstable();
        prop_assert_eq!(got, oracle.resident());
    }
}
