//! The corpus workloads: `fleet_cold`, `row_edit` and `column_edit`.
//!
//! All three drive `cac_corpus::run::run` over stored CACT v3 traces ×
//! the 14 `examples/*.toml` organizations, closed-loop and with one
//! sweep worker. Untraced requests call `run`; traced requests repeat
//! the same work by calling each layer's public functions in turn
//! ([`Fleet::decomposed_run`]). Every report is checked cell by cell
//! against an oracle that replays the generated references straight
//! through `MemoryModel::run_refs` and prices the analytic screen from
//! an in-memory `LruStackSweep`, sharing no code with the corpus path.

use std::collections::HashMap;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cac_corpus::run::{
    pruned_stats, run, CellOutcome, RunOptions, RunReport, WorkSummary, DEGRADED_FLAG, FAILED_FLAG,
    PRUNED_FLAG, PRUNED_PREDICTED,
};
use cac_corpus::{content_hash, Corpus, CorpusLock, RunnerLease};
use cac_sim::analytic::{prune_dominated, AnalyticModel};
use cac_sim::config::SimConfig;
use cac_sim::journal::{fingerprint, Journal};
use cac_sim::model::{MemoryModel, ModelStats};
use cac_sim::sweep::{LruStackSweep, ModelOutcome, Sweep};
use cac_trace::io::{write_trace_binary, ColumnarTraceReader, DecodeMode, DEFAULT_CHUNK_OPS};
use cac_trace::kernels::mem_refs;
use cac_trace::{MemRef, SpecBenchmark, TraceOp};

use crate::countfs::CountingFs;
use crate::digest;
use crate::spans;
use crate::{mix_seed, R};

/// The 14 equivalence-locked example organizations.
pub const CONFIGS: [&str; 14] = [
    "column_ipoly",
    "direct_mapped",
    "four_way",
    "fully_assoc",
    "hash_rehash",
    "ipoly",
    "ipoly_skewed",
    "ipoly_two_level",
    "jouppi",
    "stream_buffers",
    "three_level_sidecars",
    "two_way",
    "victim",
    "xor_skewed",
];

/// The analytic screen's band, as `cac corpus run --prune analytic`
/// uses by default.
const PRUNE_BAND: f64 = 0.02;

/// Which corpus workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh journal every request, prune off.
    Cold,
    /// Re-add one trace with new content, rerun with the analytic screen.
    RowEdit,
    /// Change one config file, rerun with the analytic screen.
    ColumnEdit,
}

/// One result cell, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// Replayed (or restored) counters, digested.
    Done(u64),
    /// Pruned, with the bits of the predicted miss ratio.
    Pruned(u64),
    /// Failed, degraded or quarantined: always a failure here.
    Other(String),
}

fn cell_of_outcome(c: &CellOutcome) -> Cell {
    match c {
        CellOutcome::Done { stats, .. } => Cell::Done(digest::of_model(stats)),
        CellOutcome::Pruned { predicted, .. } => Cell::Pruned(predicted.to_bits()),
        other => Cell::Other(format!("{other:?}")),
    }
}

fn cell_of_journal(stats: &ModelStats) -> Cell {
    if stats.extra(PRUNED_FLAG) == Some(1) {
        Cell::Pruned(stats.extra(PRUNED_PREDICTED).unwrap_or(0))
    } else if stats.extra(FAILED_FLAG) == Some(1) || stats.extra(DEGRADED_FLAG) == Some(1) {
        Cell::Other(format!("{:?}", stats.extras))
    } else {
        Cell::Done(digest::of_model(stats))
    }
}

/// Config variants: the example text and, for column edits, the edited
/// text (the primary cache's size changed).
struct ConfigText {
    stem: &'static str,
    base: String,
    edited: String,
}

/// Generates `ops` operations of `bench`.
fn generate(bench: SpecBenchmark, seed: u64, ops: usize) -> Vec<TraceOp> {
    bench.generator(seed).take(ops).collect()
}

/// Writes ops as a CACT v2 source file (the `cac trace gen` default).
pub fn write_source(path: &Path, ops: &[TraceOp]) -> R<()> {
    let f = fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let w = write_trace_binary(BufWriter::new(f), ops.iter().copied())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    w.into_inner()
        .map_err(|e| format!("{}: {e}", path.display()))?
        .sync_all()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads the 14 example configs from the checkout.
pub fn example_texts(root: &Path) -> R<Vec<(&'static str, String)>> {
    CONFIGS
        .iter()
        .map(|stem| {
            let p = root.join("examples").join(format!("{stem}.toml"));
            fs::read_to_string(&p)
                .map(|t| (*stem, t))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Sizes of one corpus workload.
#[derive(Debug, Clone)]
pub struct FleetSize {
    pub benches: Vec<SpecBenchmark>,
    pub ops: usize,
}

/// A set-up corpus workload.
pub struct Fleet {
    kind: Kind,
    corpus_dir: PathBuf,
    /// Config paths as passed to `run` (also the journal's column keys).
    config_paths: Vec<String>,
    configs: Vec<ConfigText>,
    names: Vec<String>,
    /// Every trace's references, kept in memory for the oracle.
    contents: Vec<Vec<MemRef>>,
    /// Row-edit replacement contents and their source files.
    alt_contents: Vec<Vec<MemRef>>,
    alt_sources: Vec<PathBuf>,
    /// Seed-derived order in which a cycle edits the traces or configs.
    order: Vec<usize>,
    /// Warm state the edit workloads reset to before every request.
    snapshot: Vec<(PathBuf, Vec<u8>)>,
    fs: Arc<CountingFs>,
    oracle: Oracle,
}

/// Fleet-level per-request counters, from the untraced path.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunCounts {
    pub summary: WorkSummary,
    pub invalidated: u64,
    pub fsyncs: u64,
    pub renames: u64,
}

impl Fleet {
    /// Builds the corpus under `work`: generates the traces, ingests
    /// them through `Corpus::add`, copies the configs and, for the edit
    /// workloads, warms the journal with one screened run.
    pub fn setup(
        kind: Kind,
        root: &Path,
        work: &Path,
        seed: u64,
        size: &FleetSize,
        fs_layer: Arc<CountingFs>,
    ) -> R<Fleet> {
        let src_dir = work.join("src");
        let cfg_dir = work.join("configs");
        let corpus_dir = work.join("corpus");
        for d in [&src_dir, &cfg_dir] {
            fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        let mut configs = Vec::new();
        let mut config_paths = Vec::new();
        for (stem, base) in example_texts(root)? {
            let edited = base.replacen("size = \"8KiB\"", "size = \"16KiB\"", 1);
            for text in [&base, &edited] {
                SimConfig::from_toml_str(text)
                    .and_then(|c| c.build().map(|_| ()))
                    .map_err(|e| format!("config {stem}: {e}"))?;
            }
            let path = cfg_dir.join(format!("{stem}.toml"));
            fs::write(&path, &base).map_err(|e| format!("{}: {e}", path.display()))?;
            config_paths.push(path.to_string_lossy().into_owned());
            configs.push(ConfigText { stem, base, edited });
        }

        let mut corpus = Corpus::init(&corpus_dir).map_err(|e| e.to_string())?;
        let mut names = Vec::new();
        let mut contents = Vec::new();
        let mut alt_contents = Vec::new();
        let mut alt_sources = Vec::new();
        for (i, &bench) in size.benches.iter().enumerate() {
            let name = format!("t{i}-{}", bench.name());
            let ops = generate(bench, mix_seed(seed, i as u64), size.ops);
            let src = src_dir.join(format!("{name}.cact"));
            write_source(&src, &ops)?;
            corpus
                .add_with(&name, &src, fs_layer.as_ref())
                .map_err(|e| e.to_string())?;
            contents.push(mem_refs(ops.into_iter()).collect());
            if kind == Kind::RowEdit {
                let alt = generate(bench, mix_seed(seed, 0x100 + i as u64), size.ops);
                let alt_src = src_dir.join(format!("{name}.edit.cact"));
                write_source(&alt_src, &alt)?;
                alt_contents.push(mem_refs(alt.into_iter()).collect());
                alt_sources.push(alt_src);
            }
            names.push(name);
        }

        let mut order: Vec<usize> = match kind {
            Kind::Cold => vec![0],
            Kind::RowEdit => (0..names.len()).collect(),
            Kind::ColumnEdit => (0..configs.len()).collect(),
        };
        for i in (1..order.len()).rev() {
            order.swap(
                i,
                (mix_seed(seed, 0x200 + i as u64) % (i as u64 + 1)) as usize,
            );
        }
        let mut fleet = Fleet {
            kind,
            order,
            corpus_dir,
            config_paths,
            configs,
            names,
            contents,
            alt_contents,
            alt_sources,
            snapshot: Vec::new(),
            fs: fs_layer,
            oracle: Oracle::default(),
        };
        if kind != Kind::Cold {
            let mut corpus = Corpus::open(&fleet.corpus_dir).map_err(|e| e.to_string())?;
            run(&mut corpus, &fleet.config_paths, &fleet.options()).map_err(|e| e.to_string())?;
            let mut keep: Vec<PathBuf> =
                vec![fleet.corpus_dir.join("corpus.toml"), corpus.results_path()];
            keep.extend(corpus.entries().iter().map(|e| corpus.trace_path(e)));
            keep.extend(fleet.config_paths.iter().map(PathBuf::from));
            for p in keep {
                let bytes = fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                fleet.snapshot.push((p, bytes));
            }
        }
        Ok(fleet)
    }

    fn options(&self) -> RunOptions {
        RunOptions {
            prune: self.kind != Kind::Cold,
            prune_band: PRUNE_BAND,
            fs: self.fs.clone(),
            ..RunOptions::default()
        }
    }

    /// Requests in one cycle: each trace (row edits) or each config
    /// (column edits) is edited once; a cold run is its own cycle.
    pub fn cycle_len(&self) -> usize {
        self.order.len()
    }

    /// Puts the corpus back into its pre-request state (not timed).
    pub fn reset(&self) -> R<()> {
        match self.kind {
            Kind::Cold => match fs::remove_file(self.corpus_dir.join("results.journal")) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e.to_string()),
            },
            _ => {
                for (p, bytes) in &self.snapshot {
                    fs::write(p, bytes).map_err(|e| format!("{}: {e}", p.display()))?;
                }
                Ok(())
            }
        }
    }

    /// Reads every stored trace once so the page cache is warm.
    pub fn warm_page_cache(&self) -> R<()> {
        for e in fs::read_dir(self.corpus_dir.join("traces")).map_err(|e| e.to_string())? {
            let p = e.map_err(|e| e.to_string())?.path();
            fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        }
        Ok(())
    }

    /// The edit of request `k`, applied with the user-visible steps
    /// (inside the timed region).
    fn apply_edit(&self, k: usize, corpus: &mut Corpus) -> R<()> {
        match self.kind {
            Kind::Cold => Ok(()),
            Kind::RowEdit => {
                let i = self.edited(k);
                spans::span("trace.columnar.encode", || {
                    corpus
                        .add_with(&self.names[i], &self.alt_sources[i], self.fs.as_ref())
                        .map(|_| ())
                })
                .map_err(|e| e.to_string())
            }
            Kind::ColumnEdit => {
                let j = self.edited(k);
                spans::span("sim.config.write", || {
                    fs::write(&self.config_paths[j], &self.configs[j].edited)
                })
                .map_err(|e| e.to_string())
            }
        }
    }

    /// The trace (row edits) or config (column edits) request `k` edits.
    fn edited(&self, k: usize) -> usize {
        self.order[k % self.order.len()]
    }

    /// Cells a request invalidates.
    fn invalidated(&self) -> u64 {
        match self.kind {
            Kind::Cold => (self.names.len() * self.configs.len()) as u64,
            Kind::RowEdit => self.configs.len() as u64,
            Kind::ColumnEdit => self.names.len() as u64,
        }
    }

    /// One untraced request: edit (if any), open, `run`. Returns the
    /// latency, the report's cells and its counters.
    pub fn request(&self, k: usize) -> R<(f64, Vec<Vec<Cell>>, RunCounts, u64)> {
        let fs_before = self.fs.counts();
        let start = Instant::now();
        let mut corpus = Corpus::open(&self.corpus_dir).map_err(|e| e.to_string())?;
        self.apply_edit(k, &mut corpus)?;
        let report =
            run(&mut corpus, &self.config_paths, &self.options()).map_err(|e| e.to_string())?;
        let latency = start.elapsed().as_secs_f64();
        let counts = RunCounts {
            summary: report.summary,
            invalidated: self.invalidated(),
            fsyncs: self.fs.counts().fsyncs - fs_before.fsyncs,
            renames: self.fs.counts().renames - fs_before.renames,
        };
        let events = self.model_refs(&corpus, &report);
        Ok((latency, cells_of(&report), counts, events))
    }

    /// References simulated for a report: trace refs × replayed cells,
    /// plus one stack pass per screened trace.
    fn model_refs(&self, corpus: &Corpus, report: &RunReport) -> u64 {
        let mut total = 0;
        for row in &report.rows {
            let refs = corpus.manifest().get(&row.trace).map_or(0, |e| e.refs);
            let fresh = |done: bool| {
                row.cells
                    .iter()
                    .filter(|c| match c {
                        CellOutcome::Done { restored, .. } => done && !restored,
                        CellOutcome::Pruned { restored, .. } => !done && !restored,
                        _ => false,
                    })
                    .count() as u64
            };
            let (replayed, pruned) = (fresh(true), fresh(false));
            // With the screen on, a trace with any fresh cell was screened.
            let screened = u64::from(self.kind != Kind::Cold && replayed + pruned > 0);
            total += refs * (replayed + screened);
        }
        total
    }

    /// One traced request: the same edit and run, with `run` decomposed
    /// into calls of each layer's public functions under spans. Kernel
    /// and decode costs are attributed by shadow passes that re-run
    /// them alone on the same trace; their results must match the
    /// sweep's.
    pub fn traced_request(&self, k: usize) -> R<(Vec<Vec<Cell>>, TracedCounts)> {
        spans::span("request", || {
            let mut corpus = spans::span("corpus.open", || Corpus::open(&self.corpus_dir))
                .map_err(|e| e.to_string())?;
            self.apply_edit(k, &mut corpus)?;
            self.decomposed_run(&corpus)
        })
    }

    /// `run` for a single runner, layer by layer.
    fn decomposed_run(&self, corpus: &Corpus) -> R<(Vec<Vec<Cell>>, TracedCounts)> {
        let prune = self.kind != Kind::Cold;
        let mut counts = TracedCounts::default();
        let dir = corpus.dir().to_path_buf();
        let _lease = spans::span("corpus.lease", || RunnerLease::acquire(&dir, "perfbench"))
            .map_err(|e| e.to_string())?;
        let configs: Vec<(String, SimConfig)> = spans::span("sim.config.load", || {
            self.config_paths
                .iter()
                .map(|p| {
                    let text = fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                    let cfg = SimConfig::from_toml_str(&text).map_err(|e| format!("{p}: {e}"))?;
                    Ok((format!("{p}@{:016x}", content_hash(text.as_bytes())), cfg))
                })
                .collect::<R<Vec<_>>>()
        })?;
        let prune_tag = if prune {
            format!("prune=analytic band={PRUNE_BAND:.6}")
        } else {
            "prune=none".to_owned()
        };
        let fp = fingerprint(&["cac corpus run", &prune_tag]);
        let journal_path = corpus.results_path();
        let load = |counts: &mut TracedCounts| {
            counts.journal_loads += 1;
            spans::span("sim.journal.load", || Journal::load(&journal_path, fp))
                .map_err(|e| e.to_string())
        };
        let save = |j: &Journal, counts: &mut TracedCounts| {
            let before = self.fs.counts().bytes;
            counts.journal_saves += 1;
            let out = spans::span("sim.journal.save", || {
                j.save_with(&journal_path, self.fs.as_ref())
            })
            .map_err(|e| e.to_string());
            counts.journal_bytes += self.fs.counts().bytes - before;
            out
        };

        let mut rows = Vec::new();
        for entry in corpus.entries() {
            let trace_key = format!("{}@{:016x}", entry.name, entry.hash);
            let mut cells: Vec<Option<Cell>> = vec![None; configs.len()];
            let mut mine = Vec::new();
            {
                let _lock = spans::span("corpus.lock", || CorpusLock::exclusive(&dir))
                    .map_err(|e| e.to_string())?;
                let mut journal = load(&mut counts)?;
                for (j, (key, _)) in configs.iter().enumerate() {
                    let key = format!("{trace_key}/{key}");
                    match journal.get(&key) {
                        Some(stats) => {
                            counts.summary.restored += 1;
                            cells[j] = Some(cell_of_journal(stats));
                        }
                        None => {
                            journal.claim(&key, "perfbench");
                            mine.push(j);
                        }
                    }
                }
                if !mine.is_empty() {
                    save(&journal, &mut counts)?;
                }
            }
            if mine.is_empty() {
                rows.push(cells.into_iter().map(|c| c.expect("restored")).collect());
                continue;
            }
            let path = corpus.trace_path(entry);
            let mut results: Vec<(usize, ModelStats, Cell)> = Vec::new();
            let mut to_replay = mine.clone();
            if prune {
                counts.summary.screened_traces += 1;
                let cfgs: Vec<&SimConfig> = configs.iter().map(|(_, c)| c).collect();
                let (predicted, pruned) = spans::span("sim.analytic.screen", || {
                    let mut reader = open_reader(&path)?;
                    screen(&cfgs, |stack| {
                        stack.run_source(&mut reader).map_err(|e| e.to_string())
                    })
                })?;
                to_replay.retain(|&j| !pruned[j]);
                for &j in mine.iter().filter(|&&j| pruned[j]) {
                    let p = predicted[j].expect("pruned implies predicted");
                    counts.summary.pruned += 1;
                    results.push((j, pruned_stats(p), Cell::Pruned(p.to_bits())));
                }
            }
            if !to_replay.is_empty() {
                let mut models: Vec<Box<dyn MemoryModel>> = Vec::new();
                for &j in &to_replay {
                    models.push(
                        spans::span("sim.config.build", || configs[j].1.build())
                            .map_err(|e| e.to_string())?,
                    );
                }
                let outcomes = spans::span("sim.replay", || -> R<Vec<ModelOutcome>> {
                    let mut reader = open_reader(&path)?;
                    let outcomes = spans::span("sim.sweep", || {
                        Sweep::new()
                            .workers(1)
                            .chunk_ops(DEFAULT_CHUNK_OPS)
                            .run_source_isolated(&mut models, &mut reader)
                    })
                    .map_err(|e| e.to_string())?;
                    // Shadow passes: the same decode and each kernel alone.
                    let refs = spans::shadow("trace.columnar.decode", || decode_refs(&path))?;
                    for (n, &j) in to_replay.iter().enumerate() {
                        let mut model = spans::shadow("shadow.build", || configs[j].1.build())
                            .map_err(|e| e.to_string())?;
                        let name = format!("sim.kernel.{}", self.configs[j].stem);
                        let alone = spans::shadow(&name, || run_chunked(model.as_mut(), &refs));
                        if outcomes[n].stats() != Some(&alone) {
                            counts.kernel_mismatches += 1;
                        }
                    }
                    Ok(outcomes)
                })?;
                for (&j, o) in to_replay.iter().zip(&outcomes) {
                    match o {
                        ModelOutcome::Completed(stats) => {
                            counts.summary.replayed += 1;
                            results.push((j, stats.clone(), Cell::Done(digest::of_model(stats))));
                        }
                        other => {
                            counts.summary.failed += 1;
                            results.push((
                                j,
                                ModelStats::default(),
                                Cell::Other(format!("{other:?}")),
                            ));
                        }
                    }
                }
            }
            {
                let _lock = spans::span("corpus.lock", || CorpusLock::exclusive(&dir))
                    .map_err(|e| e.to_string())?;
                let mut journal = load(&mut counts)?;
                for (j, stats, cell) in results {
                    journal.record(&format!("{trace_key}/{}", configs[j].0), &stats);
                    cells[j] = Some(cell);
                }
                save(&journal, &mut counts)?;
            }
            rows.push(cells.into_iter().map(|c| c.expect("resolved")).collect());
        }
        Ok((rows, counts))
    }

    /// The cells request `k` must report, from the oracle.
    pub fn expected(&mut self, k: usize) -> Vec<Vec<Cell>> {
        let prune = self.kind != Kind::Cold;
        let base_texts: Vec<&str> = self.configs.iter().map(|c| c.base.as_str()).collect();
        let mut rows = Vec::new();
        for t in 0..self.names.len() {
            let mut row = self
                .oracle
                .row(&self.contents[t], t as u64, &base_texts, prune);
            match self.kind {
                Kind::RowEdit if t == self.edited(k) => {
                    row = self.oracle.row(
                        &self.alt_contents[t],
                        0x100 + t as u64,
                        &base_texts,
                        prune,
                    );
                }
                Kind::ColumnEdit => {
                    let j = self.edited(k);
                    let mut texts = base_texts.clone();
                    texts[j] = &self.configs[j].edited;
                    row[j] = self.oracle.row(&self.contents[t], t as u64, &texts, prune)[j].clone();
                }
                _ => {}
            }
            rows.push(row);
        }
        rows
    }
}

/// Counters of a traced (decomposed) request.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedCounts {
    pub summary: WorkSummary,
    pub journal_loads: u64,
    pub journal_saves: u64,
    pub journal_bytes: u64,
    pub kernel_mismatches: u64,
}

fn cells_of(report: &RunReport) -> Vec<Vec<Cell>> {
    report
        .rows
        .iter()
        .map(|r| r.cells.iter().map(cell_of_outcome).collect())
        .collect()
}

/// Opens a stored trace for a lenient ref-mode pass, as `run` does.
pub fn open_reader(path: &Path) -> R<ColumnarTraceReader<std::io::BufReader<fs::File>>> {
    let f = fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ColumnarTraceReader::with_mode(std::io::BufReader::new(f), DecodeMode::Lenient)
        .map_err(|e| e.to_string())
}

/// A decode-only pass: every reference of a stored trace.
pub fn decode_refs(path: &Path) -> R<Vec<MemRef>> {
    let mut reader = open_reader(path)?;
    let mut all = Vec::new();
    let mut chunk = Vec::new();
    while reader
        .read_ref_chunk(&mut chunk, DEFAULT_CHUNK_OPS)
        .map_err(|e| e.to_string())?
        > 0
    {
        all.extend_from_slice(&chunk);
    }
    Ok(all)
}

/// Replays refs through one model in sweep-sized chunks.
pub fn run_chunked(model: &mut dyn MemoryModel, refs: &[MemRef]) -> ModelStats {
    let before = model.stats();
    for chunk in refs.chunks(DEFAULT_CHUNK_OPS) {
        model.run_refs(chunk);
    }
    model.stats() - before
}

/// A screen's predicted miss ratio per config and pruned mask.
pub type Screen = (Vec<Option<f64>>, Vec<bool>);

/// The analytic screen over one trace, as `run --prune analytic`
/// decides it. `feed` streams the trace into the stack sweep.
pub fn screen(configs: &[&SimConfig], feed: impl FnOnce(&mut LruStackSweep) -> R<()>) -> R<Screen> {
    let mut set_counts: Vec<u32> = vec![1];
    let mut line = None;
    for c in configs {
        if let Some(g) = c.primary_geometry() {
            if line.is_some_and(|l| l != g.block()) {
                return Err("the screen groups one line size; configs mix several".into());
            }
            line = Some(g.block());
            if !set_counts.contains(&g.num_sets()) {
                set_counts.push(g.num_sets());
            }
        }
    }
    let Some(line) = line else {
        return Ok((vec![None; configs.len()], vec![false; configs.len()]));
    };
    let mut stack = LruStackSweep::new(line, &set_counts).map_err(|e| e.to_string())?;
    feed(&mut stack)?;
    let model = AnalyticModel::from_sweep(&stack).ok_or("stack sweep has no 1-set family")?;
    let predicted: Vec<Option<f64>> = configs
        .iter()
        .map(|c| {
            let g = c.primary_geometry()?;
            if c.primary_index().is_some_and(|s| s.name() == "modulo") {
                stack.miss_ratio(g.num_sets(), g.ways())
            } else {
                model.predict(g.num_sets(), g.ways())
            }
        })
        .collect();
    let known: Vec<(usize, f64)> = predicted
        .iter()
        .enumerate()
        .filter_map(|(j, p)| p.map(|p| (j, p)))
        .collect();
    let keep = prune_dominated(
        &known.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
        PRUNE_BAND,
    );
    let mut pruned = vec![false; configs.len()];
    for (&(j, _), &k) in known.iter().zip(&keep) {
        pruned[j] = !k;
    }
    Ok((predicted, pruned))
}

/// Reference results computed without the corpus: generated refs
/// replayed straight through each model, and the screen priced from an
/// in-memory stack sweep. Memoised per (content, config text).
#[derive(Default)]
struct Oracle {
    replays: HashMap<(u64, u64), u64>,
    screens: HashMap<(u64, u64), Screen>,
}

impl Oracle {
    fn row(&mut self, refs: &[MemRef], content_id: u64, texts: &[&str], prune: bool) -> Vec<Cell> {
        let cfgs: Vec<SimConfig> = texts
            .iter()
            .map(|t| SimConfig::from_toml_str(t).expect("validated in setup"))
            .collect();
        let list = texts.iter().fold(digest::Digest::default(), |mut d, t| {
            d.str(t);
            d
        });
        let pruned_with = prune.then(|| {
            self.screens
                .entry((content_id, list.value()))
                .or_insert_with(|| {
                    let cfg_refs: Vec<&SimConfig> = cfgs.iter().collect();
                    screen(&cfg_refs, |stack| {
                        stack.run_refs(refs);
                        Ok(())
                    })
                    .expect("screen of validated configs")
                })
                .clone()
        });
        texts
            .iter()
            .zip(&cfgs)
            .enumerate()
            .map(|(j, (text, cfg))| {
                if let Some((predicted, pruned)) = &pruned_with {
                    if pruned[j] {
                        return Cell::Pruned(
                            predicted[j].expect("pruned implies predicted").to_bits(),
                        );
                    }
                }
                let key = (content_id, content_hash(text.as_bytes()));
                let d = *self.replays.entry(key).or_insert_with(|| {
                    let mut m = cfg.build().expect("validated in setup");
                    digest::of_model(&m.run_refs(refs))
                });
                Cell::Done(d)
            })
            .collect()
    }
}

/// Fixed-seed canary through `run`, digested: prune off, then on.
pub fn canary(root: &Path, work: &Path) -> R<u64> {
    let fs_layer = Arc::new(CountingFs::default());
    let size = FleetSize {
        benches: vec![SpecBenchmark::Swim, SpecBenchmark::Gcc],
        ops: 20_000,
    };
    let fleet = Fleet::setup(Kind::Cold, root, work, 12345, &size, fs_layer)?;
    let mut d = digest::Digest::default();
    for prune in [false, true] {
        fleet.reset()?;
        let mut corpus = Corpus::open(&fleet.corpus_dir).map_err(|e| e.to_string())?;
        let opts = RunOptions {
            prune,
            ..fleet.options()
        };
        let report = run(&mut corpus, &fleet.config_paths, &opts).map_err(|e| e.to_string())?;
        for row in &report.rows {
            for c in &row.cells {
                match cell_of_outcome(c) {
                    Cell::Done(x) => d.word(1).word(x),
                    Cell::Pruned(x) => d.word(2).word(x),
                    Cell::Other(s) => d.word(3).str(&s),
                };
            }
        }
    }
    Ok(d.value())
}
