//! Aggregate statistics of a simulation run.

use cac_core::predictor::PredictorStats;
use cac_sim::stats::CacheStats;
use cac_sim::tlb::TlbStats;
use std::fmt;

/// Counters produced by [`crate::Processor::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Branch mispredictions (resolved).
    pub branch_mispredictions: u64,
    /// Memory-dependence violations detected (ARB replays).
    pub memory_violations: u64,
    /// Loads satisfied by store-buffer forwarding.
    pub forwarded_loads: u64,
    /// Cycles dispatch was stalled with a full ROB.
    pub rob_stall_cycles: u64,
    /// Cycles fetch was stalled recovering from a misprediction.
    pub fetch_stall_cycles: u64,
    /// L1 data-cache counters.
    pub dcache: CacheStats,
    /// Address-predictor counters (when prediction is enabled).
    pub predictor: Option<PredictorStats>,
    /// TLB counters (when the L1 is physically indexed, §3.1 option 1).
    pub tlb: Option<TlbStats>,
}

impl CpuStats {
    /// Instructions committed per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Load miss ratio (%) — the metric of the paper's Tables 2–3.
    pub fn load_miss_ratio_pct(&self) -> f64 {
        self.dcache.read_miss_ratio() * 100.0
    }

    /// Branch prediction accuracy in `[0, 1]`.
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.branch_mispredictions as f64 / self.branches as f64
        }
    }
}

impl fmt::Display for CpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IPC {:.3} ({} instr / {} cycles), load miss {:.2}%, branch acc {:.1}%",
            self.ipc(),
            self.instructions,
            self.cycles,
            self.load_miss_ratio_pct(),
            self.branch_accuracy() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = CpuStats {
            instructions: 300,
            cycles: 200,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        s.branches = 100;
        s.branch_mispredictions = 10;
        assert!((s.branch_accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(CpuStats::default().ipc(), 0.0);
        assert_eq!(CpuStats::default().branch_accuracy(), 1.0);
    }

    #[test]
    fn display_mentions_ipc() {
        let s = CpuStats {
            instructions: 100,
            cycles: 100,
            ..Default::default()
        };
        assert!(s.to_string().contains("IPC 1.000"));
    }
}
