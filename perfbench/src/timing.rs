//! The `timing_table2` workload: the 18 SPEC-model workloads through
//! the out-of-order core under every processor configuration of the
//! paper's Table 2, the whole table per request.
//!
//! Requests call `cac_cpu::Processor::run` on traces generated in
//! set-up. The first table is checked bit for bit against
//! `cac_bench::table2::run_benchmark`, which regenerates the traces
//! itself; later tables must repeat the first.

use cac_bench::table2::{run_benchmark, Table2Row, TRACE_SLACK};
use cac_core::IndexSpec;
use cac_cpu::{CpuConfig, CpuStats, Processor};
use cac_trace::{SpecBenchmark, TraceOp};

use crate::digest::Digest;
use crate::spans;
use crate::R;

/// The processor configurations `run_benchmark` simulates, by name.
pub fn configs() -> R<Vec<(&'static str, CpuConfig)>> {
    let e = |e: cac_core::Error| e.to_string();
    let conv8 = || CpuConfig::paper_baseline(IndexSpec::modulo()).map_err(e);
    let ipoly = || CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).map_err(e);
    Ok(vec![
        (
            "conv16",
            CpuConfig::paper_16kb(IndexSpec::modulo()).map_err(e)?,
        ),
        ("conv8", conv8()?),
        ("conv8_pred", conv8()?.with_address_prediction()),
        ("ipoly", ipoly()?),
        ("ipoly_cp", ipoly()?.with_xor_in_critical_path()),
        (
            "ipoly_cp_pred",
            ipoly()?
                .with_xor_in_critical_path()
                .with_address_prediction(),
        ),
    ])
}

/// One simulated row: the stats of every configuration, in
/// [`configs`] order.
pub type RowStats = Vec<CpuStats>;

/// The set-up timing workload.
pub struct Timing {
    pub ops: u64,
    pub seed: u64,
    configs: Vec<(&'static str, CpuConfig)>,
    traces: Vec<(SpecBenchmark, Vec<TraceOp>)>,
}

impl Timing {
    /// Generates every benchmark's trace (ops plus the slack
    /// `run_benchmark` adds) and checks every configuration builds.
    pub fn setup(seed: u64, ops: u64) -> R<Timing> {
        let configs = configs()?;
        for (name, c) in &configs {
            Processor::new(c.clone()).map_err(|e| format!("{name}: {e}"))?;
        }
        let traces = SpecBenchmark::all()
            .into_iter()
            .map(|b| {
                (
                    b,
                    b.generator(seed).take(ops as usize + TRACE_SLACK).collect(),
                )
            })
            .collect();
        Ok(Timing {
            ops,
            seed,
            configs,
            traces,
        })
    }

    /// One request: every benchmark's row, under every configuration.
    pub fn table(&self) -> R<Vec<RowStats>> {
        self.traces
            .iter()
            .map(|(_, trace)| {
                self.configs
                    .iter()
                    .map(|(name, c)| {
                        spans::span(&format!("cpu.pipeline.{name}"), || {
                            let mut cpu = Processor::new(c.clone()).map_err(|e| e.to_string())?;
                            Ok(cpu.run(trace.iter().copied(), self.ops))
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The benchmarks, in table order.
    pub fn benches(&self) -> Vec<SpecBenchmark> {
        self.traces.iter().map(|(b, _)| *b).collect()
    }
}

/// A row's results in `Table2Row` form, computed exactly as
/// `run_benchmark` computes them.
pub fn table2_row(bench: SpecBenchmark, s: &RowStats) -> Table2Row {
    Table2Row {
        bench,
        conv16_ipc: s[0].ipc(),
        conv16_miss: s[0].load_miss_ratio_pct(),
        conv8_ipc: s[1].ipc(),
        conv8_ipc_pred: s[2].ipc(),
        conv8_miss: s[1].load_miss_ratio_pct(),
        ipoly_ipc: s[3].ipc(),
        ipoly_miss: s[3].load_miss_ratio_pct(),
        ipoly_cp_ipc: s[4].ipc(),
        ipoly_cp_ipc_pred: s[5].ipc(),
    }
}

fn fields(r: &Table2Row) -> [f64; 9] {
    [
        r.conv16_ipc,
        r.conv16_miss,
        r.conv8_ipc,
        r.conv8_ipc_pred,
        r.conv8_miss,
        r.ipoly_ipc,
        r.ipoly_miss,
        r.ipoly_cp_ipc,
        r.ipoly_cp_ipc_pred,
    ]
}

/// Digest of a table's IPC and miss counters.
pub fn table_digest(t: &[RowStats]) -> u64 {
    let mut d = Digest::default();
    for c in t.iter().flatten() {
        d.word(c.instructions)
            .word(c.cycles)
            .word(c.loads)
            .word(c.stores)
            .word(c.branches)
            .word(c.branch_mispredictions)
            .cache(&c.dcache);
    }
    d.value()
}

/// Whether a simulated row equals `run_benchmark`'s row bit for bit.
pub fn matches_reference(bench: SpecBenchmark, s: &RowStats, ops: u64, seed: u64) -> bool {
    let reference = run_benchmark(bench, ops, seed);
    fields(&table2_row(bench, s))
        .iter()
        .zip(fields(&reference))
        .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Mean absolute error against the paper's Table 2 rows:
/// `(IPC, load miss %)`.
pub fn paper_error(rows: &[Table2Row]) -> (f64, f64) {
    let (mut ipc, mut miss, mut ni, mut nm) = (0.0, 0.0, 0usize, 0usize);
    for r in rows {
        let p = r.bench.paper_row();
        for (a, b) in [
            (r.conv16_ipc, p.conv16_ipc),
            (r.conv8_ipc, p.conv8_ipc),
            (r.conv8_ipc_pred, p.conv8_ipc_pred),
            (r.ipoly_ipc, p.ipoly_ipc),
            (r.ipoly_cp_ipc, p.ipoly_cp_ipc),
            (r.ipoly_cp_ipc_pred, p.ipoly_cp_ipc_pred),
        ] {
            ipc += (a - b).abs();
            ni += 1;
        }
        for (a, b) in [
            (r.conv16_miss, p.conv16_miss),
            (r.conv8_miss, p.conv8_miss),
            (r.ipoly_miss, p.ipoly_miss),
        ] {
            miss += (a - b).abs();
            nm += 1;
        }
    }
    (ipc / ni.max(1) as f64, miss / nm.max(1) as f64)
}

/// Fixed-seed canary: every benchmark through `run_benchmark`, digested.
pub fn canary() -> u64 {
    let mut d = Digest::default();
    for b in SpecBenchmark::all() {
        for f in fields(&run_benchmark(b, 2_000, 12345)) {
            d.word(f.to_bits());
        }
    }
    d.value()
}
