//! Multi-configuration sweep engine: decode the reference stream
//! **once**, drive every model from it.
//!
//! Every headline experiment of the paper is a *sweep* — the same
//! reference stream replayed against a matrix of cache configurations
//! (the Figure 1 stride sweep, the §2.1 organization comparison, the
//! miss-ratio tables). Replaying each configuration independently pays
//! the trace cost (synthetic generation, varint decode, text parsing)
//! once **per configuration**: O(configs × refs) work for what is one
//! pass over the data. This module provides the two engines that
//! collapse it to O(refs + configs × accesses):
//!
//! * [`Sweep`] — a chunk-broadcast replay engine. One producer refills
//!   reusable reference chunks from a [`RefSource`] (a binary trace, a
//!   text trace, a synthetic workload iterator, an in-memory slice),
//!   and each worker thread owns a *shard* of the model set, so
//!   models stay cache-resident with their worker while a chunk is
//!   replayed against all of them. Counters are byte-identical to
//!   running each model alone (`crates/sim/tests/sweep_equivalence.rs`).
//! * [`LruStackSweep`] — an exact one-pass **Mattson stack-distance**
//!   engine for the LRU / modulus-indexed cache family: a single
//!   traversal maintains per-set reuse stacks and a distance histogram,
//!   from which the miss count of *every* size × associativity of a
//!   given line size is read off exactly — dozens of independent
//!   replays become one traversal. The fully-associative (1-set)
//!   family costs O(log footprint) per reference, each multi-set family
//!   a scan of one set's stack, and a block's first access no scan at
//!   all. An optional 1-in-K set-sampling mode trades exactness for a
//!   further K× cost reduction on giant sweeps.
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::cache::Cache;
//! use cac_sim::model::MemoryModel;
//! use cac_sim::sweep::Sweep;
//! use cac_trace::stride::VectorStride;
//!
//! let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
//! // Figure 1, one stride, all four placement schemes — one pass.
//! let refs: Vec<_> = VectorStride::paper_figure1(512, 16).collect();
//! let mut models: Vec<Box<dyn MemoryModel>> = [
//!     IndexSpec::modulo(),
//!     IndexSpec::xor_skewed(),
//!     IndexSpec::ipoly(),
//!     IndexSpec::ipoly_skewed(),
//! ]
//! .into_iter()
//! .map(|s| Ok(Box::new(Cache::build(geom, s)?) as Box<dyn MemoryModel>))
//! .collect::<Result<_, cac_core::Error>>()?;
//! let stats = Sweep::new().run_refs(&mut models, &refs);
//! // The pathological stride thrashes modulo placement; skewed I-Poly
//! // sees only the 64 compulsory misses.
//! assert!(stats[0].demand.miss_ratio() > 0.9);
//! assert_eq!(stats[3].demand.misses, 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::model::{MemoryModel, ModelStats};
use cac_core::Error;
use cac_trace::io::{IterRefSource, RefSource, DEFAULT_CHUNK_OPS};
use cac_trace::MemRef;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Per-model result of a sweep ([`Sweep::run_source_isolated`]): the
/// model's counter delta, the reason its replay panicked, or the
/// budget's cancellation.
///
/// A failed model is quarantined from the first panic on — it sees no
/// further references — and its partial counters are discarded; sibling
/// models in the same sweep (even the same worker shard) are unaffected
/// and their results are byte-identical to a sweep without the failed
/// model present.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelOutcome {
    /// The model replayed the whole stream; its counter delta.
    Completed(ModelStats),
    /// The model panicked; replay of *this model only* was abandoned.
    Failed {
        /// The panic payload (or a placeholder for non-string panics).
        reason: String,
    },
    /// The sweep's [`SweepBudget`] tripped before the stream ended;
    /// replay of the whole sweep was abandoned and this model's partial
    /// counters were discarded (a partial miss count is not an estimate
    /// of anything — callers should re-price the cell analytically).
    Cancelled {
        /// References broadcast before the budget tripped.
        refs_replayed: u64,
    },
}

impl ModelOutcome {
    /// The stats delta, if the model completed.
    pub fn stats(&self) -> Option<&ModelStats> {
        match self {
            ModelOutcome::Completed(s) => Some(s),
            ModelOutcome::Failed { .. } | ModelOutcome::Cancelled { .. } => None,
        }
    }

    /// True if the model panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, ModelOutcome::Failed { .. })
    }

    /// True if the sweep's budget tripped before the stream ended.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ModelOutcome::Cancelled { .. })
    }

    /// The failure reason, if the model panicked.
    pub fn failure(&self) -> Option<&str> {
        match self {
            ModelOutcome::Completed(_) | ModelOutcome::Cancelled { .. } => None,
            ModelOutcome::Failed { reason } => Some(reason),
        }
    }
}

/// A replay budget for [`Sweep::run_source_isolated`], checked
/// at chunk boundaries by the producer (a record-count watchdog — no
/// signals, no threads killed mid-access).
///
/// When the budget trips, the producer stops feeding references and
/// every not-yet-poisoned model reports [`ModelOutcome::Cancelled`]
/// with its partial counters discarded. A stream that ends before the
/// budget trips is a normal completion.
///
/// * `max_refs` is **deterministic**: the trip point depends only on
///   the stream and the chunk size, so reruns cancel at the same
///   reference count (the budget may overshoot by at most one chunk).
/// * `max_secs` is wall-clock and therefore machine-dependent; use it
///   as a backstop, not for reproducible experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepBudget {
    /// Cancel once this many references have been broadcast.
    pub max_refs: Option<u64>,
    /// Cancel once this much wall-clock time has elapsed.
    pub max_secs: Option<f64>,
}

impl SweepBudget {
    /// No budget: sweeps run to stream exhaustion.
    pub fn unlimited() -> Self {
        SweepBudget::default()
    }

    /// A deterministic reference-count budget.
    pub fn refs(max: u64) -> Self {
        SweepBudget {
            max_refs: Some(max),
            max_secs: None,
        }
    }

    /// A wall-clock budget (machine-dependent; see type docs).
    pub fn secs(max: f64) -> Self {
        SweepBudget {
            max_refs: None,
            max_secs: Some(max),
        }
    }

    fn exceeded(&self, fed: u64, started: Instant) -> bool {
        if self.max_refs.is_some_and(|max| fed >= max) {
            return true;
        }
        self.max_secs
            .is_some_and(|max| started.elapsed().as_secs_f64() >= max)
    }
}

/// Renders a caught panic payload as a failure reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_owned()
    }
}

/// Replays `chunk` against every not-yet-poisoned model of a shard,
/// catching panics and quarantining the panicking model.
fn replay_isolated(
    shard: &mut [Box<dyn MemoryModel>],
    poisoned: &mut [Option<String>],
    chunk: &[MemRef],
) {
    for (m, poison) in shard.iter_mut().zip(poisoned.iter_mut()) {
        if poison.is_some() {
            continue;
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| {
            m.run_refs(chunk);
        })) {
            *poison = Some(panic_reason(payload));
        }
    }
}

/// Multi-model replay engine configuration (builder style).
///
/// `workers = 0` (the default) uses the machine's available
/// parallelism; `workers = 1` runs inline on the calling thread with no
/// thread-spawn cost at all — the right choice when the caller already
/// parallelises across sweep items (as `cac fig1` does across strides).
#[derive(Debug, Clone)]
pub struct Sweep {
    workers: usize,
    chunk_ops: usize,
    budget: SweepBudget,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

impl Sweep {
    /// Engine with default chunking ([`DEFAULT_CHUNK_OPS`]) and
    /// auto-detected worker count.
    pub fn new() -> Self {
        Sweep {
            workers: 0,
            chunk_ops: DEFAULT_CHUNK_OPS,
            budget: SweepBudget::unlimited(),
        }
    }

    /// Sets the worker-thread count (`0` = available parallelism,
    /// `1` = run inline on the calling thread).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the reference-chunk length. Chunks should fit the host L2
    /// so the replay of model *i + 1* finds the chunk still resident.
    #[must_use]
    pub fn chunk_ops(mut self, chunk_ops: usize) -> Self {
        self.chunk_ops = chunk_ops.max(1);
        self
    }

    /// Sets the replay budget, honored by [`Sweep::run_source_isolated`];
    /// [`Sweep::run_refs`] and [`Sweep::run_source`] have no outcome
    /// channel to report a cancellation through and ignore it.
    #[must_use]
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    fn effective_workers(&self, models: usize) -> usize {
        let auto = if self.workers == 0 {
            thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        auto.min(models).max(1)
    }

    /// Replays an in-memory reference slice against every model: the
    /// slice is fed to [`Sweep::run_source`] through an
    /// [`IterRefSource`].
    ///
    /// Returns one per-model counter delta (`stats after - before`), in
    /// model order — exactly what `models[i].run_refs(refs)` alone
    /// would have returned.
    pub fn run_refs(
        &self,
        models: &mut [Box<dyn MemoryModel>],
        refs: &[MemRef],
    ) -> Vec<ModelStats> {
        match self.run_source(models, IterRefSource::new(refs.iter().copied())) {
            Ok(stats) => stats,
            Err(never) => match never {},
        }
    }

    /// Streams a [`RefSource`] through every model with no budget, as
    /// [`Sweep::run_source_isolated`] does.
    ///
    /// Returns per-model counter deltas as [`Sweep::run_refs`] does.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/read errors. Chunks replayed
    /// before the error stay applied to every model.
    ///
    /// # Panics
    ///
    /// If a model panics, with that model's panic message, once the
    /// stream has been replayed through its siblings.
    pub fn run_source<S: RefSource>(
        &self,
        models: &mut [Box<dyn MemoryModel>],
        source: S,
    ) -> Result<Vec<ModelStats>, S::Error> {
        let unlimited = Sweep {
            budget: SweepBudget::unlimited(),
            ..self.clone()
        };
        let outcomes = unlimited.run_source_isolated(models, source)?;
        Ok(outcomes
            .into_iter()
            .map(|o| match o {
                ModelOutcome::Completed(stats) => stats,
                ModelOutcome::Failed { reason } => panic!("{reason}"),
                ModelOutcome::Cancelled { .. } => unreachable!("an unlimited sweep never cancels"),
            })
            .collect())
    }

    /// The replay engine: streams a [`RefSource`] through every model.
    /// The source is decoded **once** into reusable chunks. With one
    /// worker the chunks replay inline on the calling thread; otherwise
    /// they are broadcast to worker threads, each of which owns a shard
    /// of the model set. Every model of a shard sees chunk *c* before
    /// any of them sees chunk *c + 1*, so the chunk stays cache-resident
    /// across that shard's models.
    ///
    /// Each model's replay of each chunk runs under
    /// [`std::panic::catch_unwind`], so one poisoned configuration
    /// yields a [`ModelOutcome::Failed`] row instead of tearing down the
    /// whole sweep; completed models' deltas are byte-identical to
    /// replaying each model alone. When a [`SweepBudget`] is set, the
    /// producer checks it at every chunk boundary and cancels the whole
    /// sweep ([`ModelOutcome::Cancelled`]) once it trips.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/read errors (model panics are
    /// *not* errors — they surface as `Failed` outcomes). Whole chunks
    /// delivered before the error stay applied to every model; the
    /// chunk whose read failed is dropped, whatever the source left in
    /// it.
    pub fn run_source_isolated<S: RefSource>(
        &self,
        models: &mut [Box<dyn MemoryModel>],
        mut source: S,
    ) -> Result<Vec<ModelOutcome>, S::Error> {
        let before: Vec<ModelStats> = models.iter().map(|m| m.stats()).collect();
        let workers = self.effective_workers(models.len());
        let mut poisoned: Vec<Option<String>> = vec![None; models.len()];
        let started = Instant::now();
        let mut fed: u64 = 0;
        let mut cancelled = false;
        let mut result = Ok(());
        if workers <= 1 {
            let mut buf = Vec::with_capacity(self.chunk_ops);
            loop {
                match source.read_ref_chunk(&mut buf, self.chunk_ops) {
                    Ok(0) => break,
                    Ok(n) => {
                        // Budget check *after* a successful read, so a
                        // stream that ends exactly at the budget is a
                        // normal completion, not a cancellation.
                        if self.budget.exceeded(fed, started) {
                            cancelled = true;
                            break;
                        }
                        replay_isolated(models, &mut poisoned, &buf);
                        fed += n as u64;
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        } else {
            let shard = models.len().div_ceil(workers);
            result = thread::scope(|s| {
                // Bounded broadcast: each worker gets its own queue of
                // Arc'd chunks; the bound keeps a slow shard from
                // letting chunks pile up unboundedly.
                let mut senders = Vec::new();
                for (shard, poison) in models.chunks_mut(shard).zip(poisoned.chunks_mut(shard)) {
                    let (tx, rx) = mpsc::sync_channel::<Arc<Vec<MemRef>>>(2);
                    senders.push(tx);
                    s.spawn(move || {
                        for chunk in rx.iter() {
                            replay_isolated(shard, poison, &chunk);
                        }
                    });
                }
                // Producer (this thread): refill a recycled buffer,
                // broadcast it, reclaim buffers all workers are done
                // with. `strong_count == 1` means only the producer's
                // own handle is left, so the buffer can be reused
                // without copying.
                let mut in_flight: VecDeque<Arc<Vec<MemRef>>> = VecDeque::new();
                loop {
                    let recyclable = in_flight.front().is_some_and(|a| Arc::strong_count(a) == 1);
                    let mut buf = if recyclable {
                        Arc::try_unwrap(in_flight.pop_front().expect("checked"))
                            .expect("sole owner")
                    } else {
                        Vec::with_capacity(self.chunk_ops)
                    };
                    match source.read_ref_chunk(&mut buf, self.chunk_ops) {
                        Ok(0) => return Ok(()),
                        Ok(n) => {
                            if self.budget.exceeded(fed, started) {
                                cancelled = true;
                                return Ok(());
                            }
                            let chunk = Arc::new(buf);
                            for tx in &senders {
                                // Workers catch model panics, so a
                                // receiver only disappears on a bug in
                                // the worker itself, which resurfaces
                                // when the scope joins.
                                let _ = tx.send(chunk.clone());
                            }
                            in_flight.push_back(chunk);
                            fed += n as u64;
                        }
                        Err(e) => return Err(e),
                    }
                }
            });
        }
        let cancelled_at = cancelled.then_some(fed);
        result.map(|()| collect_outcomes(models, before, poisoned, cancelled_at))
    }
}

/// Folds post-sweep model state and poison markers into per-model
/// outcomes, discarding the partial counters of failed models. When the
/// budget cancelled the sweep (`cancelled_at = Some(refs fed)`), models
/// that had not already poisoned themselves report
/// [`ModelOutcome::Cancelled`] — a panic recorded before the trip still
/// wins, it carries more information.
fn collect_outcomes(
    models: &[Box<dyn MemoryModel>],
    before: Vec<ModelStats>,
    poisoned: Vec<Option<String>>,
    cancelled_at: Option<u64>,
) -> Vec<ModelOutcome> {
    models
        .iter()
        .zip(before)
        .zip(poisoned)
        .map(|((m, b), poison)| match (poison, cancelled_at) {
            (Some(reason), _) => ModelOutcome::Failed { reason },
            (None, Some(refs_replayed)) => ModelOutcome::Cancelled { refs_replayed },
            (None, None) => ModelOutcome::Completed(m.stats() - b),
        })
        .collect()
}

// ---------------------------------------------------------------------
// One-pass Mattson stack-distance engine
// ---------------------------------------------------------------------

/// Exact one-pass miss-ratio curves for the LRU, modulus-indexed cache
/// family (Mattson et al., 1970).
///
/// LRU has the *inclusion* property: the content of an `A`-way set is
/// always a subset of the content of the same set with more ways. One
/// traversal that maintains, per set, the blocks in LRU order (a
/// "reuse stack") therefore determines every associativity at once: an
/// access whose block sits at stack depth `d` hits in every cache of
/// that set count with associativity `> d` and misses in the rest.
/// Recording a histogram of depths per set count yields the **exact**
/// miss count of every `(sets, ways)` combination of a given line size
/// in one pass — the per-combination replays of a size × associativity
/// grid collapse into a single traversal.
///
/// Exactness holds for reference streams replayed with
/// allocate-on-miss, touch-on-hit semantics for every access: that is
/// any read-only stream (the paper's Figure 1 stride traces, load
/// miss-ratio studies), or mixed streams against write-allocate LRU
/// caches ([`crate::cache::WritePolicy::WriteBackAllocate`]). Under
/// no-write-allocate, whether a *write* moves its block to MRU depends
/// on the associativity, so no single stack order represents all
/// configurations — use the [`Sweep`] engine for those.
///
/// # Cost
///
/// One shared table records when every block was last accessed. It
/// gives the 1-set family's depth directly, in O(log footprint) per
/// reference with no stack to scan (Bennett & Kruskal's stack
/// processing), and it tells whether a block was ever seen. A block
/// seen for the first time is cold in every family, so it goes to the
/// front of each set's stack without a scan. A block seen before is
/// found by scanning its set's stack in each multi-set family, so those
/// cost O(footprint / sets) per reference on average. Memory is
/// O(footprint) per family plus the table's O(footprint).
///
/// # Set sampling
///
/// [`LruStackSweep::with_set_sampling`] keeps only blocks whose low
/// index bits match one residue class (1 in K), which selects the same
/// 1-in-K subset of sets in **every** configuration with at least K
/// sets. Miss *ratios* over the sampled stream are unbiased estimates
/// of the full-stream ratios; [`LruStackSweep::sampling_note`] renders
/// the caveat for reports.
///
/// # Example
///
/// ```
/// use cac_sim::sweep::LruStackSweep;
/// use cac_trace::stride::VectorStride;
///
/// // 32-byte lines; all set counts of an 8KB cache at 1/2/4 ways plus
/// // fully-associative, in one pass.
/// let mut sweep = LruStackSweep::new(32, &[256, 128, 64, 1])?;
/// let refs: Vec<_> = VectorStride::paper_figure1(128, 16).collect();
/// sweep.run_refs(&refs);
/// // 8KB direct-mapped = 256 sets x 1 way; fully assoc = 1 set x 256.
/// let dm = sweep.misses(256, 1).unwrap();
/// let fa = sweep.misses(1, 256).unwrap();
/// assert!(dm > fa);
/// assert_eq!(fa, 64); // compulsory only: the vector fits
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LruStackSweep {
    line: u64,
    block_bits: u32,
    families: Vec<SetFamily>,
    /// Every observed block's latest access, in time order: the 1-set
    /// family's stack, and the first-touch test for every family.
    recency: Recency,
    /// Sampling modulus (1 = every block) and the kept residue.
    sample_k: u64,
    refs_seen: u64,
    refs_sampled: u64,
}

/// Per-set reuse stacks and the distance histogram for one set count.
#[derive(Debug, Clone)]
struct SetFamily {
    sets: u32,
    /// Per-set LRU stacks, MRU first. Sampled-out sets stay empty, and
    /// the 1-set family has none: [`Recency`] gives its depths.
    stacks: Vec<Vec<u64>>,
    /// `hist[d]` = accesses that found their block at stack depth `d`.
    hist: Vec<u64>,
    /// Accesses whose block was not on the stack (compulsory for the
    /// whole family).
    cold: u64,
}

/// Where `block` sits in a reuse stack, if it is there.
///
/// This scan is the per-set families' hot loop: a set's stack holds
/// every distinct block the set has seen. Scanned one entry per branch,
/// the loop is a few bytes long and its speed swung by up to ~1.4x
/// between builds of the same source, with where the linker placed it
/// (x86-64). Comparing four entries per step was faster than either
/// extreme in every placement measured. A stack's blocks are distinct,
/// so the first match is the only one.
#[inline]
fn stack_depth(stack: &[u64], block: u64) -> Option<usize> {
    let mut chunks = stack.chunks_exact(4);
    let base = match chunks.position(|c| c.contains(&block)) {
        Some(i) => 4 * i,
        None => stack.len() - chunks.remainder().len(),
    };
    stack[base..]
        .iter()
        .position(|&b| b == block)
        .map(|j| base + j)
}

/// Slots a fresh [`Recency`] starts with (a multiple of 64); each
/// renumbering resizes the table to about twice the footprint.
const MIN_SLOTS: usize = 256;

/// Multiplicative hashing for block numbers: one multiply, with the
/// well-mixed high half rotated down to the low bits `HashMap` takes
/// its bucket index from. Block numbers come from traces, and a trace
/// crafted to collide them would slow each lookup to O(footprint), the
/// cost every reference paid when the 1-set family scanned a stack.
#[derive(Debug, Default, Clone, Copy)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }
}

/// The order of every observed block's latest access: the
/// fully-associative LRU stack, without a stack to scan (Bennett &
/// Kruskal's stack processing).
///
/// Each access takes the next *slot*, and a slot is live while it holds
/// some block's latest access. A block last accessed at slot `s` sits
/// at stack depth "live slots after `s`", the number of distinct blocks
/// accessed since. Live bits are kept 64 slots to a word, and a Fenwick
/// tree counts the live slots of every word before the one being
/// filled, so a depth costs O(log footprint): a popcount in the block's
/// word plus a prefix sum over words. Reuse within the last 64 accesses
/// touches only the word being filled. When the slots run out, the live
/// ones are renumbered in time order into a table of about twice the
/// footprint, so memory stays O(footprint) and renumbering costs O(1)
/// per reference, amortized.
#[derive(Debug, Clone)]
struct Recency {
    /// Block -> its entry, numbered in order of first access. The map
    /// holds entries rather than slots so that renumbering rewrites
    /// `slot_of` without a single lookup.
    entry_of: HashMap<u64, u32, BuildHasherDefault<BlockHasher>>,
    /// Entry -> slot of its block's latest access.
    slot_of: Vec<u32>,
    /// Slot -> the entry whose latest access it holds, where live.
    owner: Vec<u32>,
    /// Live bits, 64 slots to a word.
    live: Vec<u64>,
    /// Fenwick tree over the live counts of the *sealed* words, those
    /// before `next / 64`; node `i` covers words `i - lowbit(i) .. i`.
    tree: Vec<u32>,
    /// The next unused slot.
    next: usize,
}

impl Recency {
    fn new() -> Self {
        Recency {
            entry_of: HashMap::default(),
            slot_of: Vec::new(),
            owner: vec![0; MIN_SLOTS],
            live: vec![0; MIN_SLOTS / 64],
            tree: vec![0; MIN_SLOTS / 64 + 1],
            next: 0,
        }
    }

    /// Records an access to `block` and returns its fully-associative
    /// stack depth, or `None` on its first access.
    fn touch(&mut self, block: u64) -> Option<usize> {
        if self.next == self.owner.len() {
            self.renumber();
        }
        let slot = self.next;
        let fresh = self.slot_of.len() as u32;
        let entry = *self.entry_of.entry(block).or_insert(fresh);
        let depth = if entry == fresh {
            self.slot_of.push(slot as u32);
            None
        } else {
            let last = std::mem::replace(&mut self.slot_of[entry as usize], slot as u32);
            Some(self.unlink(last as usize))
        };
        self.owner[slot] = entry;
        self.live[slot / 64] |= 1 << (slot % 64);
        self.next += 1;
        if self.next.is_multiple_of(64) {
            // The word just filled is sealed: the tree counts it now.
            let word = self.next / 64 - 1;
            self.add(word, self.live[word].count_ones() as i32);
        }
        depth
    }

    /// Clears live slot `last`; returns how many live slots follow it.
    fn unlink(&mut self, last: usize) -> usize {
        let (word, bit) = (last / 64, last % 64);
        let later = (self.live[word] & (u64::MAX << bit << 1)).count_ones() as usize;
        self.live[word] &= !(1 << bit);
        if word == self.next / 64 {
            return later;
        }
        // Every live slot is in a sealed word or the word being filled,
        // so those after `word` are all live ones minus the prefix.
        let depth = later + self.slot_of.len() - self.prefix(word);
        self.add(word, -1);
        depth
    }

    /// Live slots in the sealed words `0..=word`.
    fn prefix(&self, word: usize) -> usize {
        let mut i = word + 1;
        let mut n = 0;
        while i > 0 {
            n += self.tree[i];
            i &= i - 1;
        }
        n as usize
    }

    fn add(&mut self, word: usize, delta: i32) {
        let mut i = word + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Moves the live slots, in time order, to the front of a table of
    /// about twice their number.
    fn renumber(&mut self) {
        let mut kept = 0;
        for word in 0..self.live.len() {
            let mut bits = self.live[word];
            while bits != 0 {
                let entry = self.owner[word * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                self.owner[kept] = entry;
                self.slot_of[entry as usize] = kept as u32;
                kept += 1;
            }
        }
        let slots = (2 * kept).next_multiple_of(64).max(MIN_SLOTS);
        self.owner.resize(slots, 0);
        let words = slots / 64;
        self.live.clear();
        self.live
            .extend((0..words).map(|w| match kept.saturating_sub(64 * w) {
                n if n >= 64 => u64::MAX,
                n => (1 << n) - 1,
            }));
        // The full words are sealed, 64 live slots each.
        let full = kept / 64;
        self.tree.clear();
        self.tree.extend(
            (0..=words)
                .map(|i| (64 * (i.min(full) - (i - (i & i.wrapping_neg())).min(full))) as u32),
        );
        self.next = kept;
    }
}

impl LruStackSweep {
    /// Creates an engine for `line`-byte blocks covering every given
    /// set count (duplicates are merged). A `(sets, ways)` query then
    /// describes the cache of capacity `sets * ways * line`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] unless `line` and every set count are powers
    /// of two (the modulus family the paper's conventional caches use),
    /// with at least one set count given.
    pub fn new(line: u64, set_counts: &[u32]) -> Result<Self, Error> {
        if line < 2 || !line.is_power_of_two() {
            return Err(Error::config(format!(
                "stack-distance sweep needs a power-of-two line size of at least 2, got {line}"
            )));
        }
        let mut counts: Vec<u32> = set_counts.to_vec();
        counts.sort_unstable();
        counts.dedup();
        if counts.is_empty() {
            return Err(Error::config(
                "stack-distance sweep needs at least one set count",
            ));
        }
        if let Some(bad) = counts.iter().find(|c| **c == 0 || !c.is_power_of_two()) {
            return Err(Error::config(format!(
                "stack-distance sweep set counts must be powers of two (modulus \
                 indexing), got {bad}"
            )));
        }
        Ok(LruStackSweep {
            line,
            block_bits: line.trailing_zeros(),
            families: counts
                .into_iter()
                .map(|sets| SetFamily {
                    sets,
                    stacks: vec![Vec::new(); if sets == 1 { 0 } else { sets as usize }],
                    hist: Vec::new(),
                    cold: 0,
                })
                .collect(),
            recency: Recency::new(),
            sample_k: 1,
            refs_seen: 0,
            refs_sampled: 0,
        })
    }

    /// Enables 1-in-`k` set sampling: only blocks with
    /// `block_addr % k == 0` are observed.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] unless `k` is a power of two no larger than
    /// the smallest *multi-set* family configured (larger `k` would
    /// leave some configurations with no sampled set at all). A 1-set
    /// (fully-associative) family never constrains `k`: every sampled
    /// block lands in its only set, so it always retains samples — this
    /// is what lets a sampled pass still feed
    /// [`crate::analytic::AnalyticModel::from_sweep`].
    pub fn with_set_sampling(mut self, k: u32) -> Result<Self, Error> {
        if k == 0 || !k.is_power_of_two() {
            return Err(Error::config(format!(
                "set-sampling factor must be a power of two, got {k}"
            )));
        }
        let min_sets = self
            .families
            .iter()
            .map(|f| f.sets)
            .find(|s| *s > 1)
            .unwrap_or(1);
        if k > min_sets && min_sets > 1 {
            return Err(Error::config(format!(
                "set-sampling factor {k} exceeds the smallest multi-set count {min_sets}; \
                 every configuration must retain at least one sampled set"
            )));
        }
        self.sample_k = u64::from(k);
        Ok(self)
    }

    /// The configured line size in bytes.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// The sampling factor K (1 = exact, no sampling).
    pub fn sampling(&self) -> u64 {
        self.sample_k
    }

    /// References presented to the engine (sampled or not).
    pub fn refs_seen(&self) -> u64 {
        self.refs_seen
    }

    /// References that fell in the sampled residue class and were
    /// observed. Equal to [`LruStackSweep::refs_seen`] when sampling is
    /// off.
    pub fn refs_sampled(&self) -> u64 {
        self.refs_sampled
    }

    /// Observes one reference.
    pub fn observe(&mut self, addr: u64) {
        self.refs_seen += 1;
        let block = addr >> self.block_bits;
        if self.sample_k > 1 && !block.is_multiple_of(self.sample_k) {
            return;
        }
        self.refs_sampled += 1;
        let full = self.recency.touch(block);
        for family in &mut self.families {
            let depth = if family.sets == 1 {
                full
            } else {
                let set = (block & u64::from(family.sets - 1)) as usize;
                let stack = &mut family.stacks[set];
                // A block seen before is on its set's stack; one never
                // seen is cold in every family and needs no scan.
                let depth = full.and_then(|_| stack_depth(stack, block));
                match depth {
                    Some(depth) => stack[..=depth].rotate_right(1),
                    None => stack.insert(0, block),
                }
                depth
            };
            match depth {
                Some(depth) => {
                    if family.hist.len() <= depth {
                        family.hist.resize(depth + 1, 0);
                    }
                    family.hist[depth] += 1;
                }
                None => family.cold += 1,
            }
        }
    }

    /// Observes every reference of a slice (reads and writes alike; see
    /// the type docs for when that is exact).
    pub fn run_refs(&mut self, refs: &[MemRef]) {
        for r in refs {
            self.observe(r.addr);
        }
    }

    /// Streams a [`RefSource`] through the engine.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/read errors; references observed
    /// before the error remain counted.
    pub fn run_source<S: RefSource>(&mut self, mut source: S) -> Result<(), S::Error> {
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
        while source.read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
            self.run_refs(&buf);
        }
        Ok(())
    }

    fn family(&self, sets: u32) -> Option<&SetFamily> {
        self.families.iter().find(|f| f.sets == sets)
    }

    /// Exact misses of the sampled stream in the `(sets, ways)` LRU
    /// cache, or `None` if that set count was not configured or `ways`
    /// is 0.
    pub fn misses(&self, sets: u32, ways: u32) -> Option<u64> {
        if ways == 0 {
            return None;
        }
        let family = self.family(sets)?;
        let deep: u64 = family.hist.iter().skip(ways as usize).sum();
        Some(family.cold + deep)
    }

    /// Hits of the sampled stream in the `(sets, ways)` cache.
    pub fn hits(&self, sets: u32, ways: u32) -> Option<u64> {
        self.misses(sets, ways).map(|m| self.refs_sampled - m)
    }

    /// Miss ratio of the sampled stream in the `(sets, ways)` cache
    /// (exact when sampling is off, an unbiased estimate otherwise).
    /// `None` for unconfigured set counts or before any reference.
    pub fn miss_ratio(&self, sets: u32, ways: u32) -> Option<f64> {
        if self.refs_sampled == 0 {
            return None;
        }
        self.misses(sets, ways)
            .map(|m| m as f64 / self.refs_sampled as f64)
    }

    /// Worst-case binomial standard error of a reported miss ratio
    /// under set sampling, or `None` when the engine is exact
    /// (sampling off). Exposed numerically so analytic validators can
    /// widen their error bounds programmatically instead of scraping
    /// the text note.
    pub fn sampling_standard_error(&self) -> Option<f64> {
        if self.sample_k <= 1 {
            return None;
        }
        let n = self.refs_sampled.max(1) as f64;
        // p(1-p)/n is maximised at p = 0.5.
        Some((0.25 / n).sqrt())
    }

    /// A report-ready caveat line when sampling is on (`None` when the
    /// engine is exact): the sampled fraction and the worst-case
    /// binomial standard error of a reported miss ratio.
    pub fn sampling_note(&self) -> Option<String> {
        let se = self.sampling_standard_error()?;
        Some(format!(
            "set sampling 1/{}: ratios estimated from {} of {} refs \
             (worst-case standard error ±{:.2} miss-%)",
            self.sample_k,
            self.refs_sampled,
            self.refs_seen,
            se * 100.0
        ))
    }

    /// A copy of the recorded stack-distance histogram for one
    /// configured set count (the raw material of the
    /// [`analytic`](crate::analytic) tier), or `None` for set counts
    /// the sweep was not configured with.
    pub fn histogram(&self, sets: u32) -> Option<crate::analytic::StackHistogram> {
        let family = self.family(sets)?;
        Some(crate::analytic::StackHistogram {
            cold: family.cold,
            depths: family.hist.clone(),
            refs: self.refs_sampled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use cac_core::{CacheGeometry, IndexSpec};
    use cac_trace::stride::VectorStride;

    fn models(specs: &[IndexSpec]) -> Vec<Box<dyn MemoryModel>> {
        let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        specs
            .iter()
            .map(|s| Box::new(Cache::build(geom, s.clone()).unwrap()) as Box<dyn MemoryModel>)
            .collect()
    }

    fn mixed_refs(n: u64) -> Vec<MemRef> {
        (0..n)
            .map(|i| MemRef {
                pc: 0x1000 + i,
                addr: (i.wrapping_mul(0x9E37_79B9) >> 5) & 0xF_FFFF,
                is_write: i % 7 == 0,
            })
            .collect()
    }

    #[test]
    fn engine_matches_sequential_replay_any_worker_count() {
        let refs = mixed_refs(30_000);
        let specs = [
            IndexSpec::modulo(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::xor_skewed(),
        ];
        let mut reference = models(&specs);
        let expect: Vec<ModelStats> = reference.iter_mut().map(|m| m.run_refs(&refs)).collect();
        for workers in [1usize, 2, 5] {
            let mut swept = models(&specs);
            let got = Sweep::new()
                .workers(workers)
                .chunk_ops(977)
                .run_refs(&mut swept, &refs);
            assert_eq!(got, expect, "workers {workers}");
        }
    }

    #[test]
    fn source_and_slice_paths_agree() {
        let refs = mixed_refs(25_000);
        let specs = [IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        let mut by_slice = models(&specs);
        let expect = Sweep::new().run_refs(&mut by_slice, &refs);
        for workers in [1usize, 3] {
            let mut by_source = models(&specs);
            let got = Sweep::new()
                .workers(workers)
                .chunk_ops(1013)
                .run_source(&mut by_source, IterRefSource::new(refs.iter().copied()))
                .unwrap();
            assert_eq!(got, expect, "workers {workers}");
        }
    }

    /// Runs the isolated engine over an in-memory slice.
    fn isolated(
        sweep: Sweep,
        ms: &mut [Box<dyn MemoryModel>],
        refs: &[MemRef],
    ) -> Vec<ModelOutcome> {
        match sweep.run_source_isolated(ms, IterRefSource::new(refs.iter().copied())) {
            Ok(outcomes) => outcomes,
            Err(never) => match never {},
        }
    }

    #[test]
    fn isolated_sweep_matches_plain_sweep_when_nothing_fails() {
        let refs = mixed_refs(20_000);
        let specs = [IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        let mut plain = models(&specs);
        let expect = Sweep::new().run_refs(&mut plain, &refs);
        for workers in [1usize, 3] {
            let mut ms = models(&specs);
            let got = isolated(Sweep::new().workers(workers).chunk_ops(977), &mut ms, &refs);
            let got: Vec<&ModelStats> = got.iter().map(|o| o.stats().unwrap()).collect();
            assert_eq!(got, expect.iter().collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn poisoned_model_degrades_without_touching_siblings() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(15_000);
        let specs = [IndexSpec::modulo(), IndexSpec::xor_skewed()];
        let mut healthy = models(&specs);
        let expect = Sweep::new().run_refs(&mut healthy, &refs);

        for workers in [1usize, 2, 4] {
            // Poison sandwiched between healthy models.
            let mut mixed: Vec<Box<dyn MemoryModel>> = Vec::new();
            mixed.push(models(&specs[..1]).pop().unwrap());
            mixed.push(Box::new(PoisonModel::new(4_000)));
            mixed.push(models(&specs[1..]).pop().unwrap());
            let outcomes = isolated(
                Sweep::new().workers(workers).chunk_ops(1013),
                &mut mixed,
                &refs,
            );
            assert_eq!(outcomes.len(), 3, "workers {workers}");
            assert_eq!(outcomes[0].stats(), Some(&expect[0]), "workers {workers}");
            assert!(outcomes[1].is_failed(), "workers {workers}");
            assert!(
                outcomes[1].failure().unwrap().contains("poison model"),
                "workers {workers}: {:?}",
                outcomes[1].failure()
            );
            assert_eq!(outcomes[2].stats(), Some(&expect[1]), "workers {workers}");
        }
    }

    #[test]
    fn plain_sweep_re_raises_a_model_panic_with_its_reason() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(100);
        for workers in [1usize, 2] {
            let mut ms: Vec<Box<dyn MemoryModel>> = vec![
                models(&[IndexSpec::modulo()]).pop().unwrap(),
                Box::new(PoisonModel::new(10)),
            ];
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                Sweep::new().workers(workers).run_refs(&mut ms, &refs)
            }))
            .expect_err("a poisoned model must panic a plain sweep");
            let reason = panic_reason(payload);
            assert!(
                reason.contains("configured trigger 10"),
                "workers {workers}: {reason}"
            );
        }
    }

    #[test]
    fn immediate_panic_is_reported_with_its_reason() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(100);
        let mut ms: Vec<Box<dyn MemoryModel>> = vec![Box::new(PoisonModel::new(0))];
        let outcomes = isolated(Sweep::new().workers(1), &mut ms, &refs);
        let reason = outcomes[0].failure().expect("must fail");
        assert!(reason.contains("configured trigger 0"), "{reason}");
    }

    /// Delivers `good` whole chunks, then leaves a partial chunk in the
    /// buffer and fails.
    struct FailAfter<'a> {
        refs: &'a [MemRef],
        good: usize,
    }

    impl RefSource for FailAfter<'_> {
        type Error = &'static str;

        fn read_ref_chunk(
            &mut self,
            out: &mut Vec<MemRef>,
            max: usize,
        ) -> Result<usize, Self::Error> {
            out.clear();
            let n = self.refs.len().min(max);
            if self.good == 0 {
                out.extend_from_slice(&self.refs[..n / 2]);
                return Err("decode failed");
            }
            self.good -= 1;
            out.extend_from_slice(&self.refs[..n]);
            self.refs = &self.refs[n..];
            Ok(n)
        }
    }

    #[test]
    fn source_error_keeps_exactly_the_whole_chunks_read_before_it() {
        let refs = mixed_refs(20_000);
        let specs = [IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        let (chunk, good) = (1000, 7);
        let mut reference = models(&specs);
        let expect: Vec<ModelStats> = reference
            .iter_mut()
            .map(|m| m.run_refs(&refs[..chunk * good]))
            .collect();
        for workers in [1usize, 2] {
            let mut ms = models(&specs);
            let source = FailAfter { refs: &refs, good };
            let err = Sweep::new()
                .workers(workers)
                .chunk_ops(chunk)
                .run_source_isolated(&mut ms, source)
                .expect_err("the source error propagates");
            assert_eq!(err, "decode failed");
            let got: Vec<ModelStats> = ms.iter().map(|m| m.stats()).collect();
            assert_eq!(got, expect, "workers {workers}");
        }
    }

    #[test]
    fn budget_cancels_all_models_deterministically() {
        let refs = mixed_refs(50_000);
        let specs = [IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        for workers in [1usize, 3] {
            let budgeted = Sweep::new()
                .workers(workers)
                .chunk_ops(1000)
                .budget(SweepBudget::refs(10_000));
            let mut ms = models(&specs);
            let outcomes = isolated(budgeted.clone(), &mut ms, &refs);
            for o in &outcomes {
                // Trips at the first chunk boundary at/after the limit.
                assert_eq!(
                    o,
                    &ModelOutcome::Cancelled {
                        refs_replayed: 10_000
                    },
                    "workers {workers}"
                );
                assert!(o.is_cancelled() && o.stats().is_none() && o.failure().is_none());
            }
            // The plain entry points ignore the budget.
            let mut ms = models(&specs);
            let stats = budgeted.run_refs(&mut ms, &refs);
            assert!(stats.iter().all(|s| s.demand.accesses == 50_000));
        }
    }

    #[test]
    fn budget_larger_than_stream_is_a_normal_completion() {
        let refs = mixed_refs(5_000);
        let specs = [IndexSpec::modulo(), IndexSpec::xor_skewed()];
        let mut plain = models(&specs);
        let expect = Sweep::new().run_refs(&mut plain, &refs);
        let mut ms = models(&specs);
        let outcomes = isolated(
            Sweep::new().workers(1).budget(SweepBudget::refs(1_000_000)),
            &mut ms,
            &refs,
        );
        let got: Vec<&ModelStats> = outcomes.iter().map(|o| o.stats().unwrap()).collect();
        assert_eq!(got, expect.iter().collect::<Vec<_>>());
        // A stream ending exactly at the budget also completes.
        let mut ms = models(&specs);
        let outcomes = isolated(
            Sweep::new()
                .workers(1)
                .chunk_ops(1000)
                .budget(SweepBudget::refs(5_000)),
            &mut ms,
            &refs,
        );
        assert!(outcomes.iter().all(|o| o.stats().is_some()));
    }

    #[test]
    fn poison_before_budget_trip_stays_failed() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(20_000);
        let mut ms: Vec<Box<dyn MemoryModel>> = vec![
            Box::new(PoisonModel::new(100)),
            models(&[IndexSpec::modulo()]).pop().unwrap(),
        ];
        let outcomes = isolated(
            Sweep::new()
                .workers(1)
                .chunk_ops(1000)
                .budget(SweepBudget::refs(5_000)),
            &mut ms,
            &refs,
        );
        assert!(outcomes[0].is_failed());
        assert!(outcomes[1].is_cancelled());
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(SweepBudget::unlimited(), SweepBudget::default());
        assert_eq!(SweepBudget::refs(5).max_refs, Some(5));
        assert_eq!(SweepBudget::secs(2.0).max_secs, Some(2.0));
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let mut ms = models(&[IndexSpec::modulo()]);
        let stats = Sweep::new().run_refs(&mut ms, &[]);
        assert_eq!(stats[0].demand.accesses, 0);
        let mut none: Vec<Box<dyn MemoryModel>> = Vec::new();
        assert!(Sweep::new().run_refs(&mut none, &mixed_refs(10)).is_empty());
    }

    #[test]
    fn stack_sweep_matches_figure1_compulsory_bound() {
        let mut sweep = LruStackSweep::new(32, &[128]).unwrap();
        let refs: Vec<MemRef> = VectorStride::paper_figure1(1, 16).collect();
        sweep.run_refs(&refs);
        // 64 sequential 8-byte elements = 16 blocks, all resident at
        // 2 ways x 128 sets: compulsory only.
        assert_eq!(sweep.misses(128, 2), Some(16));
        assert_eq!(sweep.hits(128, 2), Some(refs.len() as u64 - 16));
        assert_eq!(sweep.refs_seen(), refs.len() as u64);
    }

    #[test]
    fn stack_sweep_validation() {
        assert!(LruStackSweep::new(31, &[64]).is_err());
        assert!(LruStackSweep::new(32, &[]).is_err());
        assert!(LruStackSweep::new(32, &[48]).is_err());
        assert!(LruStackSweep::new(32, &[64])
            .unwrap()
            .misses(32, 1)
            .is_none());
        assert!(LruStackSweep::new(32, &[64])
            .unwrap()
            .misses(64, 0)
            .is_none());
        assert!(LruStackSweep::new(32, &[64, 128])
            .unwrap()
            .with_set_sampling(128)
            .is_err());
        assert!(LruStackSweep::new(32, &[64])
            .unwrap()
            .with_set_sampling(3)
            .is_err());
    }

    #[test]
    fn sampling_k1_is_exact_and_k4_is_close() {
        let refs = mixed_refs(60_000);
        let mut exact = LruStackSweep::new(32, &[64, 128]).unwrap();
        exact.run_refs(&refs);
        let mut k1 = LruStackSweep::new(32, &[64, 128])
            .unwrap()
            .with_set_sampling(1)
            .unwrap();
        k1.run_refs(&refs);
        assert_eq!(k1.misses(128, 2), exact.misses(128, 2));
        assert!(k1.sampling_note().is_none());

        let mut k4 = LruStackSweep::new(32, &[64, 128])
            .unwrap()
            .with_set_sampling(4)
            .unwrap();
        k4.run_refs(&refs);
        assert!(k4.refs_sampled() < refs.len() as u64 / 2);
        let exact_ratio = exact.miss_ratio(128, 2).unwrap();
        let sampled_ratio = k4.miss_ratio(128, 2).unwrap();
        assert!(
            (exact_ratio - sampled_ratio).abs() < 0.05,
            "exact {exact_ratio:.4} vs sampled {sampled_ratio:.4}"
        );
        assert!(k4.sampling_note().unwrap().contains("1/4"));
    }
}
