//! The layer ledger: the unit cost of every layer, measured in the
//! traced run by calling each layer's public function alone on a prefix
//! of the workload's own input. Every workload reports every layer, so
//! a change to one layer shows on each workload's ledger even where
//! that workload's requests never reach it.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cac_corpus::Corpus;
use cac_cpu::Processor;
use cac_sim::config::SimConfig;
use cac_sim::journal::{fingerprint, Journal};
use cac_sim::model::MemoryModel;
use cac_sim::sweep::Sweep;
use cac_trace::io::DEFAULT_CHUNK_OPS;
use cac_trace::kernels::mem_refs;
use cac_trace::{MemRef, SpecBenchmark, TraceOp};

use crate::countfs::CountingFs;
use crate::fleet::{self, CONFIGS};
use crate::report::{median, Metrics};
use crate::timing;
use crate::R;

/// Inputs of one ledger pass.
pub struct LedgerInput {
    pub bench: SpecBenchmark,
    pub seed: u64,
    pub ops: usize,
    pub cpu_instr: u64,
    pub reps: usize,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn build_all(cfgs: &[SimConfig]) -> R<Vec<Box<dyn MemoryModel>>> {
    cfgs.iter()
        .map(|c| c.build().map_err(|e| e.to_string()))
        .collect()
}

/// Runs the ledger `reps` times under `work` and reports each metric's
/// median.
pub fn ledger(root: &Path, work: &Path, input: &LedgerInput) -> R<Metrics> {
    let cfg_dir = work.join("configs");
    std::fs::create_dir_all(&cfg_dir).map_err(|e| e.to_string())?;
    let mut cfg_paths = Vec::new();
    for (stem, text) in fleet::example_texts(root)? {
        let p = cfg_dir.join(format!("{stem}.toml"));
        std::fs::write(&p, text).map_err(|e| e.to_string())?;
        cfg_paths.push(p.to_string_lossy().into_owned());
    }
    let cpu_configs = timing::configs()?;
    let fs_layer = Arc::new(CountingFs::default());

    let mut samples: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| match samples
        .iter_mut()
        .find(|(n, _, _)| n == name)
    {
        Some((_, _, s)) => s.push(v),
        None => samples.push((name.to_owned(), unit, vec![v])),
    };

    for rep in 0..input.reps {
        let start = Instant::now();
        let ops: Vec<TraceOp> = input.bench.generator(input.seed).take(input.ops).collect();
        put(
            "trace.gen.ns_per_op",
            "ns/op",
            secs(start) * 1e9 / ops.len() as f64,
        );

        let src = work.join(format!("ledger-{rep}.cact"));
        fleet::write_source(&src, &ops)?;
        let mut corpus =
            Corpus::init(&work.join(format!("corpus-{rep}"))).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let entry = corpus
            .add_with("ledger", &src, fs_layer.as_ref())
            .map_err(|e| e.to_string())?
            .clone();
        put(
            "trace.columnar.encode_ns_per_op",
            "ns/op",
            secs(start) * 1e9 / entry.ops as f64,
        );
        put(
            "trace.columnar.bytes_per_op",
            "B/op",
            entry.bytes as f64 / entry.ops as f64,
        );
        let path = corpus.trace_path(&entry);

        let start = Instant::now();
        let refs = fleet::decode_refs(&path)?;
        let decode_s = secs(start);
        let nrefs = refs.len() as f64;
        put(
            "trace.columnar.decode_ns_per_ref",
            "ns/ref",
            decode_s * 1e9 / nrefs,
        );

        let start = Instant::now();
        let mut cfgs = Vec::new();
        for p in &cfg_paths {
            let c = SimConfig::load(p).map_err(|e| e.to_string())?;
            c.build().map_err(|e| e.to_string())?;
            cfgs.push(c);
        }
        put(
            "sim.config.build_us",
            "us",
            secs(start) * 1e6 / cfgs.len() as f64,
        );

        let mut kernels_s = 0.0;
        let mut journal = Journal::new(fingerprint(&["perfbench ledger"]));
        for (stem, cfg) in CONFIGS.iter().zip(&cfgs) {
            let mut m = cfg.build().map_err(|e| e.to_string())?;
            let start = Instant::now();
            let stats = fleet::run_chunked(m.as_mut(), &refs);
            let t = secs(start);
            kernels_s += t;
            put(
                &format!("sim.kernel.{stem}.ns_per_ref"),
                "ns/ref",
                t * 1e9 / nrefs,
            );
            journal.record(&format!("ledger/{stem}"), &stats);
        }

        let mut models = build_all(&cfgs)?;
        let mut reader = fleet::open_reader(&path)?;
        let start = Instant::now();
        Sweep::new()
            .workers(1)
            .chunk_ops(DEFAULT_CHUNK_OPS)
            .run_source_isolated(&mut models, &mut reader)
            .map_err(|e| e.to_string())?;
        let sweep_s = secs(start);
        put(
            "sim.sweep.overhead_ns_per_model_ref",
            "ns/ref",
            (sweep_s - decode_s - kernels_s) * 1e9 / (nrefs * cfgs.len() as f64),
        );

        let mut models = build_all(&cfgs)?;
        let mut reader = fleet::open_reader(&path)?;
        let start = Instant::now();
        Sweep::new()
            .workers(1)
            .chunk_ops(DEFAULT_CHUNK_OPS)
            .run_source(&mut models, &mut reader)
            .map_err(|e| e.to_string())?;
        let stream_s = secs(start);
        let mut models = build_all(&cfgs)?;
        let start = Instant::now();
        Sweep::new()
            .workers(1)
            .chunk_ops(DEFAULT_CHUNK_OPS)
            .run_refs(&mut models, &refs);
        put("sim.sweep.stream_vs_mem", "ratio", secs(start) / stream_s);

        // Engine (generate once, build all, one pass) against per-config
        // regenerate + build + replay, as `cac bench sweep` compares.
        let start = Instant::now();
        let gen_refs: Vec<MemRef> =
            mem_refs(input.bench.generator(input.seed).take(input.ops)).collect();
        let mut models = build_all(&cfgs)?;
        Sweep::new()
            .workers(1)
            .chunk_ops(DEFAULT_CHUNK_OPS)
            .run_refs(&mut models, &gen_refs);
        let engine_s = secs(start);
        let start = Instant::now();
        for cfg in &cfgs {
            let alone: Vec<MemRef> =
                mem_refs(input.bench.generator(input.seed).take(input.ops)).collect();
            let mut m = cfg.build().map_err(|e| e.to_string())?;
            m.run_refs(&alone);
        }
        put(
            "sim.sweep.engine_vs_percfg",
            "ratio",
            secs(start) / engine_s,
        );

        let cfg_refs: Vec<&SimConfig> = cfgs.iter().collect();
        let mut reader = fleet::open_reader(&path)?;
        let start = Instant::now();
        fleet::screen(&cfg_refs, |stack| {
            stack.run_source(&mut reader).map_err(|e| e.to_string())
        })?;
        put(
            "sim.analytic.screen_ns_per_ref",
            "ns/ref",
            secs(start) * 1e9 / nrefs,
        );

        let jpath = work.join(format!("ledger-{rep}.journal"));
        let start = Instant::now();
        journal
            .save_with(&jpath, fs_layer.as_ref())
            .map_err(|e| e.to_string())?;
        put("sim.journal.save_ms", "ms", secs(start) * 1e3);
        let start = Instant::now();
        Journal::load(&jpath, journal.fingerprint()).map_err(|e| e.to_string())?;
        put("sim.journal.load_ms", "ms", secs(start) * 1e3);

        for (name, c) in &cpu_configs {
            let mut cpu = Processor::new(c.clone()).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let s = cpu.run(ops.iter().copied(), input.cpu_instr);
            let t = secs(start);
            put(
                &format!("cpu.pipeline.{name}.ns_per_instr"),
                "ns/instr",
                t * 1e9 / s.instructions.max(1) as f64,
            );
            put(
                &format!("cpu.pipeline.{name}.sim_cycles"),
                "count",
                s.cycles as f64,
            );
        }
    }
    let c = fs_layer.counts();
    let mut out = Metrics::default();
    for (name, unit, s) in &samples {
        out.push(name.clone(), median(s), unit);
    }
    out.push(
        "trace.commitfs.fsync_ms",
        c.fsync_ns as f64 / 1e6 / c.fsyncs.max(1) as f64,
        "ms",
    );
    Ok(out)
}
