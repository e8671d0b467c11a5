//! The out-of-order pipeline: dispatch → issue → execute → commit.
//!
//! The model is a cycle-driven scoreboard over a reorder buffer (ROB):
//!
//! * **Dispatch** (4/cycle): takes instructions from the trace while ROB
//!   space and physical registers allow. Branches are predicted here; a
//!   misprediction stalls dispatch until the branch resolves (trace-driven
//!   recovery model).
//! * **Issue** (4/cycle, oldest-first): an instruction issues when its
//!   source producers have completed and its functional unit (Table 1)
//!   and, for memory ops, an effective-address unit and memory port are
//!   free. Loads access the lockup-free data cache; stores compute their
//!   address and expose it to the ARB check.
//! * **Memory dependence speculation**: loads issue past stores with
//!   unknown addresses. When a store's address resolves and a younger
//!   load to the same word has already issued, the load is replayed
//!   (completion pushed past the store) and counted as a violation.
//!   Store-buffer forwarding satisfies loads whose producing store is
//!   already resolved.
//! * **Commit** (4/cycle, in order): stores write through to the cache at
//!   commit, as §3.4 prescribes.
//!
//! Each cycle touches only the entries that can change. The ROB is a
//! power-of-two ring indexed by an op's dynamic index, with a parallel
//! array of completion cycles. Issue walks only the unissued ops (the
//! reservation station), oldest first. Forwarding scans only older
//! in-flight stores, and the ARB check only younger in-flight loads. A
//! cycle in which nothing commits, issues or dispatches and no load
//! reaches the cache changes no state, so the model jumps to the next
//! cycle at which a completion, a busy unit or fetch recovery can change
//! something, crediting the skipped cycles to the stall counter this one
//! charged. A load turned away because every MSHR is busy retries through
//! the cache each cycle, so such cycles are never skipped.

use crate::bpred::BranchPredictor;
use crate::config::CpuConfig;
use crate::dcache::{DataCache, LoadResponse};
use crate::stats::CpuStats;
use cac_core::Error;
use cac_trace::record::{OpClass, TraceOp};
use std::collections::VecDeque;

/// A ROB entry; op `idx` lives at `rob[idx & mask]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: TraceOp,
    mispredicted: bool,
    forwarded: bool,
}

/// An unissued op in the waiting list.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    idx: u64,
    /// Dynamic indices of in-flight producers of each source operand.
    producers: [Option<u64>; 2],
}

/// An in-flight load or store, in a load or store queue.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    idx: u64,
    /// `addr & !7` (ARB / forwarding granularity).
    word: u64,
}

/// Marks an op that has not issued in [`Processor::done_at`].
const NOT_ISSUED: u64 = u64::MAX;

/// The processor model. Create with a [`CpuConfig`], drive with
/// [`Processor::run`].
#[derive(Debug)]
pub struct Processor {
    config: CpuConfig,
    bpred: BranchPredictor,
    dcache: DataCache,
    /// Ring of `rob_entries.next_power_of_two()` slots.
    rob: Vec<Slot>,
    /// Cycle each in-flight op's result is ready ([`NOT_ISSUED`] before
    /// it issues), parallel to `rob`.
    done_at: Vec<u64>,
    mask: u64,
    /// Oldest in-flight op; `head_idx..next_idx` are in flight.
    head_idx: u64,
    next_idx: u64,
    /// Unissued ops, oldest first.
    waiting: Vec<Waiting>,
    /// In-flight loads and stores, oldest first.
    loads: VecDeque<MemOp>,
    stores: VecDeque<MemOp>,
    /// Latest in-flight writer of each architectural register.
    reg_producer: [Option<u64>; 64],
    cycle: u64,
    /// Cycle at which dispatch may resume after a misprediction
    /// (`u64::MAX` while the offending branch has not issued yet).
    fetch_resume: u64,
    fu_simple_int: u64,
    fu_complex_int: u64,
    fu_ea: [u64; 2],
    fu_fp_add: u64,
    fu_fp_mul: u64,
    fu_fp_div: u64,
    free_int_regs: u32,
    free_fp_regs: u32,
    stats: CpuStats,
}

/// Claims a functional unit free by `cycle` for `busy` cycles, returning
/// the cycle the result is ready.
fn claim(unit: &mut u64, cycle: u64, busy: u64, latency: u64) -> Option<u64> {
    if *unit > cycle {
        return None;
    }
    *unit = cycle + busy;
    Some(cycle + latency)
}

impl Processor {
    /// Builds the processor.
    ///
    /// # Errors
    ///
    /// Propagates cache/placement validation errors; the physical register
    /// files must be at least as large as the 32-entry architectural
    /// files.
    pub fn new(config: CpuConfig) -> Result<Self, Error> {
        for (what, v) in [
            ("int physical registers", config.int_phys_regs),
            ("fp physical registers", config.fp_phys_regs),
        ] {
            if v < 32 {
                return Err(Error::OutOfRange {
                    what,
                    value: u64::from(v),
                    constraint: ">= 32 (architectural state)",
                });
            }
        }
        let dcache = DataCache::new(&config)?;
        let bpred = BranchPredictor::new(config.bht_entries);
        let free_int_regs = config.int_phys_regs - 32;
        let free_fp_regs = config.fp_phys_regs - 32;
        let ring = config.rob_entries.next_power_of_two();
        let empty = Slot {
            op: TraceOp::compute(0, OpClass::IntAlu, 0, [None, None]),
            mispredicted: false,
            forwarded: false,
        };
        Ok(Processor {
            config,
            bpred,
            dcache,
            rob: vec![empty; ring],
            done_at: vec![NOT_ISSUED; ring],
            mask: ring as u64 - 1,
            head_idx: 0,
            next_idx: 0,
            waiting: Vec::new(),
            loads: VecDeque::new(),
            stores: VecDeque::new(),
            reg_producer: [None; 64],
            cycle: 0,
            fetch_resume: 0,
            fu_simple_int: 0,
            fu_complex_int: 0,
            fu_ea: [0; 2],
            fu_fp_add: 0,
            fu_fp_mul: 0,
            fu_fp_div: 0,
            free_int_regs,
            free_fp_regs,
            stats: CpuStats::default(),
        })
    }

    /// Runs the pipeline over `trace` until at least `max_instructions`
    /// commit (or the trace ends). Because commit retires up to
    /// `commit_width` instructions per cycle, the final count may exceed
    /// the target by up to `commit_width - 1`. Returns the accumulated
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to make forward progress (an internal
    /// invariant violation), after a generous cycle bound.
    pub fn run<I: Iterator<Item = TraceOp>>(
        &mut self,
        mut trace: I,
        max_instructions: u64,
    ) -> CpuStats {
        let target = self.stats.instructions + max_instructions;
        let cycle_bound = self.cycle + 400 * max_instructions + 100_000;
        let mut trace_done = false;
        while self.stats.instructions < target {
            let stalls = (self.stats.fetch_stall_cycles, self.stats.rob_stall_cycles);
            let committed = self.commit();
            let issued = self.issue();
            let dispatched = !trace_done
                && match self.dispatch(&mut trace) {
                    Some(took) => took,
                    None => {
                        trace_done = true;
                        true
                    }
                };
            if trace_done && self.head_idx == self.next_idx {
                break;
            }
            if !(committed || issued || dispatched) {
                // Until the next timer fires, every cycle repeats this one.
                let skipped = self
                    .next_timer()
                    .min(cycle_bound)
                    .saturating_sub(self.cycle + 1);
                self.stats.fetch_stall_cycles +=
                    (self.stats.fetch_stall_cycles - stalls.0) * skipped;
                self.stats.rob_stall_cycles += (self.stats.rob_stall_cycles - stalls.1) * skipped;
                self.cycle += skipped;
            }
            self.cycle += 1;
            assert!(
                self.cycle < cycle_bound,
                "pipeline stopped making progress at cycle {}",
                self.cycle
            );
        }
        self.stats()
    }

    /// Accumulated statistics so far.
    pub fn stats(&self) -> CpuStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s.dcache = self.dcache.stats();
        s.predictor = self.dcache.predictor_stats();
        s.tlb = self.dcache.tlb_stats();
        s.branch_mispredictions = self.bpred.mispredictions();
        s
    }

    /// The processor configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The earliest cycle after this one at which an op completes, a
    /// unit frees up or fetch recovers (`u64::MAX` if none).
    fn next_timer(&self) -> u64 {
        let later = |next: u64, &t: &u64| if t > self.cycle { next.min(t) } else { next };
        // Slots of committed ops hold cycles already past, so the whole
        // ring can be scanned.
        let ops = self.done_at.iter().fold(u64::MAX, later);
        [
            self.fetch_resume,
            self.fu_simple_int,
            self.fu_complex_int,
            self.fu_ea[0],
            self.fu_ea[1],
            self.fu_fp_add,
            self.fu_fp_mul,
            self.fu_fp_div,
        ]
        .iter()
        .fold(ops, later)
    }

    /// Commits up to `commit_width` completed ops in order. Returns
    /// whether any committed.
    fn commit(&mut self) -> bool {
        let mut committed = 0;
        while committed < self.config.commit_width && self.head_idx < self.next_idx {
            let idx = self.head_idx;
            let pos = (idx & self.mask) as usize;
            if self.done_at[pos] > self.cycle {
                break;
            }
            let slot = self.rob[pos];
            self.head_idx += 1;
            committed += 1;
            self.stats.instructions += 1;
            match slot.op.class {
                OpClass::Load => {
                    self.stats.loads += 1;
                    self.loads.pop_front();
                }
                OpClass::Store => {
                    self.stats.stores += 1;
                    self.stores.pop_front();
                    // Write-through at commit.
                    self.dcache.store(slot.op.addr.unwrap_or(0));
                }
                OpClass::Branch => self.stats.branches += 1,
                _ => {}
            }
            if slot.forwarded {
                self.stats.forwarded_loads += 1;
            }
            if let Some(dst) = slot.op.dst {
                if dst >= 32 {
                    self.free_fp_regs += 1;
                } else {
                    self.free_int_regs += 1;
                }
                if self.reg_producer[dst as usize] == Some(idx) {
                    self.reg_producer[dst as usize] = None;
                }
            }
        }
        committed > 0
    }

    /// `true` if the producer of an operand has completed by `cycle`.
    fn producer_done(&self, producer: Option<u64>) -> bool {
        producer.is_none_or(|p| {
            p < self.head_idx || self.done_at[(p & self.mask) as usize] <= self.cycle
        })
    }

    /// Issues up to `issue_width` waiting ops, oldest first. Returns
    /// whether any issued or a load reached the data cache.
    fn issue(&mut self) -> bool {
        let mut issued = 0;
        let mut ports_used = 0;
        let mut probed = false;
        let mut kept = 0;
        for i in 0..self.waiting.len() {
            let w = self.waiting[i];
            if issued < self.config.issue_width
                && self.producer_done(w.producers[0])
                && self.producer_done(w.producers[1])
                && self.try_issue(w.idx, &mut ports_used, &mut probed)
            {
                issued += 1;
            } else {
                self.waiting[kept] = w;
                kept += 1;
            }
        }
        self.waiting.truncate(kept);
        issued > 0 || probed
    }

    /// Issues op `idx`, whose operands are ready, if its unit and (for
    /// memory ops) a port are free this cycle, setting its completion
    /// cycle. `probed` records a load presented to the data cache, even
    /// one it turned away.
    fn try_issue(&mut self, idx: u64, ports_used: &mut u32, probed: &mut bool) -> bool {
        let pos = (idx & self.mask) as usize;
        let Slot {
            op, mispredicted, ..
        } = self.rob[pos];
        let cycle = self.cycle;
        let done = match op.class {
            OpClass::IntAlu | OpClass::Branch => claim(&mut self.fu_simple_int, cycle, 1, 1),
            OpClass::IntMul => claim(&mut self.fu_complex_int, cycle, 1, 9), // pipelined
            OpClass::IntDiv => claim(&mut self.fu_complex_int, cycle, 67, 67), // unpipelined
            OpClass::FpAdd => claim(&mut self.fu_fp_add, cycle, 1, 4),
            OpClass::FpMul => claim(&mut self.fu_fp_mul, cycle, 1, 4),
            OpClass::FpDiv => claim(&mut self.fu_fp_div, cycle, 16, 16),
            OpClass::FpSqrt => claim(&mut self.fu_fp_div, cycle, 35, 35),
            OpClass::Load | OpClass::Store => self.issue_memory(idx, op, ports_used, probed),
        };
        let Some(done) = done else { return false };
        if op.class == OpClass::Branch {
            self.bpred.update(op.pc, op.taken);
            if mispredicted {
                self.fetch_resume = done + 1;
            }
        }
        self.done_at[pos] = done;
        true
    }

    /// The memory half of [`Processor::try_issue`]: claims a port and an
    /// effective-address unit, then forwards or accesses the cache (loads)
    /// or resolves the address and runs the ARB check (stores).
    fn issue_memory(
        &mut self,
        idx: u64,
        op: TraceOp,
        ports_used: &mut u32,
        probed: &mut bool,
    ) -> Option<u64> {
        if *ports_used == self.config.mem_ports {
            return None;
        }
        let cycle = self.cycle;
        let ea = self.fu_ea.iter().position(|&f| f <= cycle)?;
        let word = op.addr.map_or(0, |a| a & !7);
        let done = if op.class == OpClass::Load {
            // Store-buffer forwarding: an older store to the same word
            // whose address is resolved. Older stores with unresolved
            // addresses are speculatively bypassed (ARB).
            let forwarded = self
                .stores
                .iter()
                .take_while(|s| s.idx < idx)
                .any(|s| s.word == word && self.done_at[(s.idx & self.mask) as usize] <= cycle);
            let addr_ready = cycle + 1; // EA unit
            let done = if forwarded {
                addr_ready + 1
            } else {
                *probed = true;
                match self.dcache.load(op.pc, op.addr.unwrap_or(0), addr_ready) {
                    LoadResponse::Ready { at, .. } => at,
                    LoadResponse::Blocked => return None, // retry next cycle
                }
            };
            self.rob[(idx & self.mask) as usize].forwarded = forwarded;
            done
        } else {
            // The address resolves; younger loads to the same word that
            // already issued must replay (ARB).
            let done = cycle + 1;
            for load in self.loads.iter().rev().take_while(|l| l.idx > idx) {
                let pos = (load.idx & self.mask) as usize;
                if load.word == word && self.done_at[pos] != NOT_ISSUED {
                    self.done_at[pos] = self.done_at[pos].max(done + 2);
                    self.rob[pos].forwarded = true;
                    self.stats.memory_violations += 1;
                }
            }
            done
        };
        self.fu_ea[ea] = cycle + 1;
        *ports_used += 1;
        Some(done)
    }

    /// Dispatches up to `fetch_width` instructions. Returns `None` when
    /// the trace is exhausted, otherwise whether any instruction left the
    /// trace.
    fn dispatch<I: Iterator<Item = TraceOp>>(&mut self, trace: &mut I) -> Option<bool> {
        if self.cycle < self.fetch_resume {
            self.stats.fetch_stall_cycles += 1;
            return Some(false);
        }
        let mut dispatched = 0;
        while dispatched < self.config.fetch_width {
            if self.next_idx - self.head_idx == self.config.rob_entries as u64 {
                self.stats.rob_stall_cycles += 1;
                break;
            }
            if self.cycle < self.fetch_resume {
                break; // mispredicted branch just dispatched
            }
            let op = trace.next()?;
            // Rename: claim a physical register for the destination.
            if let Some(dst) = op.dst {
                let pool = if dst >= 32 {
                    &mut self.free_fp_regs
                } else {
                    &mut self.free_int_regs
                };
                if *pool == 0 {
                    // Unreachable while `rob_entries <= phys_regs - 32`
                    // (the paper's 32 <= 64 - 32): the ROB fills first.
                    // Otherwise the op is dropped.
                    debug_assert!(
                        false,
                        "physical registers exhausted; configuration has fewer phys regs than ROB entries"
                    );
                    return Some(true);
                }
                *pool -= 1;
            }
            let producers = op.srcs.map(|s| {
                s.filter(|&r| r != 0)
                    .and_then(|r| self.reg_producer[r as usize])
            });
            let idx = self.next_idx;
            self.next_idx += 1;
            if let Some(dst) = op.dst {
                if dst != 0 {
                    self.reg_producer[dst as usize] = Some(idx);
                }
            }
            let mut mispredicted = false;
            if op.is_branch() {
                let predicted = self.bpred.predict_and_track(op.pc, op.taken);
                if predicted != op.taken {
                    mispredicted = true;
                    self.fetch_resume = u64::MAX;
                }
            }
            let pos = (idx & self.mask) as usize;
            self.rob[pos] = Slot {
                op,
                mispredicted,
                forwarded: false,
            };
            self.done_at[pos] = NOT_ISSUED;
            self.waiting.push(Waiting { idx, producers });
            let word = op.addr.map_or(0, |a| a & !7);
            match op.class {
                OpClass::Load => self.loads.push_back(MemOp { idx, word }),
                OpClass::Store => self.stores.push_back(MemOp { idx, word }),
                _ => {}
            }
            dispatched += 1;
        }
        Some(dispatched > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_core::IndexSpec;
    use cac_trace::kernels::{ArrayWalk, LoopKernel};
    use cac_trace::record::TraceOp;

    fn cpu(spec: IndexSpec) -> Processor {
        Processor::new(CpuConfig::paper_baseline(spec).unwrap()).unwrap()
    }

    /// A trace of independent single-cycle integer ops.
    fn indep_ints(n: usize) -> Vec<TraceOp> {
        (0..n)
            .map(|i| {
                TraceOp::compute(
                    0x400 + (i as u64 % 16) * 4,
                    OpClass::IntAlu,
                    0,
                    [None, None],
                )
            })
            .collect()
    }

    #[test]
    fn independent_int_ops_bound_by_fu_width() {
        // One simple-integer unit: IPC must approach 1.0, not 4.0.
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(indep_ints(5000).into_iter(), 5000);
        assert_eq!(s.instructions, 5000);
        assert!(s.ipc() <= 1.05, "ipc {}", s.ipc());
        assert!(s.ipc() > 0.8, "ipc {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // Each op reads the previous result: IPC ~1 (1-cycle latency);
        // now with FP adds (4-cycle latency) IPC ~0.25.
        let ops: Vec<TraceOp> = (0..2000)
            .map(|i| TraceOp::compute(0x400 + (i % 8) * 4, OpClass::FpAdd, 33, [Some(33), None]))
            .collect();
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(ops.into_iter(), 2000);
        assert!(s.ipc() < 0.3, "ipc {}", s.ipc());
        assert!(s.ipc() > 0.2, "ipc {}", s.ipc());
    }

    #[test]
    fn cache_misses_throttle_loads() {
        // Loads marching through memory: every 4th access a new block
        // (8-byte elements), 20-cycle penalty, vs all-hits to one block.
        let streaming: Vec<TraceOp> = (0..3000)
            .map(|i| TraceOp::load(0x400, i * 8, 2, None))
            .collect();
        let hot: Vec<TraceOp> = (0..3000)
            .map(|_| TraceOp::load(0x400, 0x100, 2, None))
            .collect();
        let mut p1 = cpu(IndexSpec::modulo());
        let s1 = p1.run(streaming.into_iter(), 3000);
        let mut p2 = cpu(IndexSpec::modulo());
        let s2 = p2.run(hot.into_iter(), 3000);
        assert!(s1.ipc() < s2.ipc());
        assert!(s1.dcache.misses > 500);
        assert_eq!(s2.dcache.misses, 1);
    }

    #[test]
    fn mispredictions_cost_fetch_stalls() {
        let mut taken = false;
        let alternating: Vec<TraceOp> = (0..2000)
            .map(|_| {
                taken = !taken;
                TraceOp::branch(0x500, taken, 0x400, None)
            })
            .collect();
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(alternating.into_iter(), 2000);
        assert!(s.branch_accuracy() < 0.7);
        assert!(s.fetch_stall_cycles > 500);
        let steady: Vec<TraceOp> = (0..2000)
            .map(|_| TraceOp::branch(0x500, true, 0x400, None))
            .collect();
        let mut p2 = cpu(IndexSpec::modulo());
        let s2 = p2.run(steady.into_iter(), 2000);
        assert!(s2.ipc() > s.ipc());
    }

    #[test]
    fn store_load_forwarding_and_violations() {
        // store to X, load from X, repeatedly: loads should forward (or
        // replay), never read stale timing for free.
        let mut ops = Vec::new();
        for i in 0..500u64 {
            ops.push(TraceOp::store(0x600, 0x9000, 2, None));
            ops.push(TraceOp::load(0x604 + (i % 2) * 8, 0x9000, 3, None));
        }
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(ops.into_iter(), 1000);
        assert_eq!(s.instructions, 1000);
        assert!(s.forwarded_loads + s.memory_violations > 100);
    }

    #[test]
    fn rob_limits_inflight_window() {
        // Long-latency FP divides at the ROB head block commit; the
        // window fills and dispatch stalls.
        let ops: Vec<TraceOp> = (0..400)
            .map(|i| {
                if i % 8 == 0 {
                    TraceOp::compute(0x700, OpClass::FpDiv, 34, [Some(34), None])
                } else {
                    TraceOp::compute(0x704 + (i % 8) * 4, OpClass::IntAlu, 0, [None, None])
                }
            })
            .collect();
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(ops.into_iter(), 400);
        assert!(s.rob_stall_cycles > 10);
    }

    #[test]
    fn ipoly_beats_modulo_on_conflict_workload() {
        // The headline effect, end to end: a conflict-heavy loop nest on
        // the full processor model.
        let mut k = LoopKernel::template("conflict");
        k.loads = (0..4)
            .map(|i| ArrayWalk::sequential(0x0100_0000 + i * 0x1000, 16, 8))
            .collect();
        k.int_ops = 3;
        let run = |spec: IndexSpec| {
            let mut p = cpu(spec);
            p.run(k.generator(5), 40_000)
        };
        let conv = run(IndexSpec::modulo());
        let poly = run(IndexSpec::ipoly_skewed());
        assert!(
            poly.load_miss_ratio_pct() < conv.load_miss_ratio_pct() / 3.0,
            "conv {:.1}% vs ipoly {:.1}%",
            conv.load_miss_ratio_pct(),
            poly.load_miss_ratio_pct()
        );
        assert!(
            poly.ipc() > conv.ipc() * 1.1,
            "conv IPC {:.3} vs ipoly IPC {:.3}",
            conv.ipc(),
            poly.ipc()
        );
    }

    /// A register-serialized load chain over a small strided ring: each
    /// load's address register is the previous load's destination, so the
    /// cache-access latency sits squarely on the critical path — while
    /// the address *sequence* is a constant stride the §3.4 predictor can
    /// learn. This is precisely the scenario where the XOR delay hurts
    /// and address prediction recovers it.
    fn serial_strided_loads(n: usize) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp::load(0x400, 0x1000 + (i as u64 % 64) * 8, 2, Some(2)))
            .collect()
    }

    #[test]
    fn xor_critical_path_penalty_reduces_ipc() {
        let base = CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).unwrap();
        let mut p1 = Processor::new(base.clone()).unwrap();
        let s1 = p1.run(serial_strided_loads(10_000).into_iter(), 10_000);
        let mut p2 = Processor::new(base.with_xor_in_critical_path()).unwrap();
        let s2 = p2.run(serial_strided_loads(10_000).into_iter(), 10_000);
        // Serial chain: ~(1 + 2) cycles/load without the penalty,
        // ~(1 + 3) with it.
        assert!(
            s2.ipc() < s1.ipc() * 0.85,
            "in-CP {:.3} should trail no-CP {:.3}",
            s2.ipc(),
            s1.ipc()
        );
    }

    #[test]
    fn address_prediction_recovers_xor_penalty() {
        let cp = CpuConfig::paper_baseline(IndexSpec::ipoly_skewed())
            .unwrap()
            .with_xor_in_critical_path();
        let mut no_pred = Processor::new(cp.clone()).unwrap();
        let s_no = no_pred.run(serial_strided_loads(10_000).into_iter(), 10_000);
        let mut with_pred = Processor::new(cp.with_address_prediction()).unwrap();
        let s_yes = with_pred.run(serial_strided_loads(10_000).into_iter(), 10_000);
        // Correct predictions overlap the access with the address
        // computation: effective hit time drops from 3 to 1.
        assert!(
            s_yes.ipc() > s_no.ipc() * 1.2,
            "pred {:.3} vs no-pred {:.3}",
            s_yes.ipc(),
            s_no.ipc()
        );
        assert!(s_yes.predictor.unwrap().usable_rate() > 0.5);
    }

    #[test]
    fn run_is_resumable() {
        let mut p = cpu(IndexSpec::modulo());
        let ops = indep_ints(2000);
        let s1 = p.run(ops.clone().into_iter().take(1000), 1000);
        let s2 = p.run(ops.into_iter().skip(1000), 1000);
        assert_eq!(s1.instructions, 1000);
        assert_eq!(s2.instructions, 2000);
        assert!(s2.cycles >= s1.cycles);
    }

    #[test]
    fn rejects_undersized_register_files() {
        let mut c = CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap();
        c.int_phys_regs = 16;
        assert!(Processor::new(c).is_err());
    }
}
