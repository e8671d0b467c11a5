//! `perfbench`: the end-to-end and per-layer benchmark of the cac
//! workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Run from the repository root. Workloads (see `BENCHMARK.json`):
//!
//! * `fleet_cold` — `cac_corpus::run::run` with a fresh journal over 4
//!   stored traces (swim, tomcatv: high-conflict FP; gcc, go:
//!   low-conflict integer) × the 14 example organizations, prune off.
//!   Replay does nearly all the work.
//! * `row_edit` — a warm screened corpus of 10 traces (two each of five
//!   integer models); each request re-adds one trace with new content
//!   (14 cells invalidated) and reruns with `--prune analytic`.
//! * `column_edit` — a warm screened corpus of 8 short FP and integer
//!   traces; each request edits one config file (one cell per trace
//!   invalidated) and reruns. Mostly analytic re-screening, so a gain
//!   for one edit kind that costs the other shows.
//! * `timing_table2` — the 18 SPEC models × the Table 2 processor
//!   configurations through the out-of-order core, the whole table per
//!   request. Corpus, decode, sweep and journal do no work here.
//!
//! Requests are closed-loop from one caller on one thread. Simulated
//! caches start empty in every cell, as in the paper. Edit requests
//! start from the same warm state (restored untimed before each), so
//! samples are independent and the journal does not grow with the
//! number of requests. Every simulated result is checked: corpus cells
//! against an independent oracle, the first table against
//! `cac_bench::table2::run_benchmark`, plus fixed-seed canaries whose
//! digests were recorded when this benchmark was written. Mismatches
//! count as failures.
//!
//! Request latencies are reported in probe units (see `probe.rs`), so
//! that host contention cancels out; raw seconds are printed too.
//!
//! With `--trace 0` the result line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics: the workload's
//! requests repeated through each layer's public functions under
//! spans (self-time share per layer, residue against the untraced wall
//! time, tracing overhead), layer counters, and the layer ledger. The
//! last line of standard output is the JSON result; the lines before it
//! give the machine context and a readable table.

mod countfs;
mod digest;
mod fleet;
mod ledger;
mod probe;
mod report;
mod spans;
mod sys;
mod timing;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cac_trace::SpecBenchmark;

use countfs::CountingFs;
use fleet::{Cell, Fleet, FleetSize, Kind};
use probe::Probe;
use report::{json_str, median, result_line, tail, Metrics};

/// Error type of the benchmark: a message for standard error.
pub type R<T> = Result<T, String>;

/// Digest of the fleet canary (`fleet::canary`), recorded at the commit
/// that introduced this benchmark.
const FLEET_CANARY: u64 = 0x8d2d_ea9d_a637_ab54;
/// Digest of the Table 2 canary (`timing::canary`), recorded likewise.
const TABLE2_CANARY: u64 = 0x1612_7d90_bd31_bd52;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Seconds of untimed requests after the first set-up.
const WARMUP_S: f64 = 4.0;
/// Fewest untraced requests a run measures, so the tail has ten samples
/// beyond it.
const MIN_SAMPLES: usize = 11;

/// Layer groups of the traced attribution, in report order.
const GROUPS: [&str; 10] = [
    "trace.columnar.encode",
    "trace.columnar.decode",
    "trace.commitfs",
    "sim.config",
    "sim.kernel",
    "sim.sweep",
    "sim.analytic",
    "sim.journal",
    "corpus",
    "cpu.pipeline",
];

/// SplitMix64 of `seed` and a salt: every input derives from the seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    /// For the benchmark's own smoke test.
    Tiny,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> R<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {val}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--scale" => {
                a.scale = match val.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// One untraced request's latency and work.
struct Sample {
    latency_s: f64,
    events: u64,
}

/// One traced request's attribution.
#[derive(Default)]
struct Attribution {
    group_ns: Vec<u64>,
    /// The request span minus its shadow passes.
    instrumented_ns: u64,
    spans: u64,
}

/// A workload, set up and ready for requests.
trait Workload {
    /// Requests per cycle; the window ends only at a cycle boundary so
    /// every request kind is sampled equally.
    fn cycle_len(&self) -> usize;
    /// Restores the pre-request state (untimed).
    fn reset(&self) -> R<()>;
    /// One untraced request, timed from outside.
    fn request(&mut self, k: usize) -> R<Sample>;
    /// One traced request (spans are being recorded).
    fn traced(&mut self, k: usize) -> R<()>;
    /// Checks every result recorded so far: `(attempted, failed)`.
    fn verify(&mut self, notes: &mut Vec<String>) -> R<(u64, u64)>;
    /// Per-layer counters of the requests made. Every workload reports
    /// every counter; those of layers its requests never reach are 0.
    fn counters(&self, m: &mut Metrics);
    /// Input of the layer ledger.
    fn ledger_input(&self, scale: Scale) -> ledger::LedgerInput;
}

// ---------------------------------------------------------------- fleet

struct FleetWorkload {
    fleet: Fleet,
    reports: Vec<(usize, Vec<Vec<Cell>>)>,
    counts: Vec<fleet::RunCounts>,
    traced_counts: Vec<fleet::TracedCounts>,
    traced_reports: Vec<(usize, Vec<Vec<Cell>>)>,
    ledger_bench: SpecBenchmark,
    seed: u64,
}

impl Workload for FleetWorkload {
    fn cycle_len(&self) -> usize {
        self.fleet.cycle_len()
    }

    fn reset(&self) -> R<()> {
        self.fleet.reset()
    }

    fn request(&mut self, k: usize) -> R<Sample> {
        let (latency_s, cells, counts, events) = self.fleet.request(k)?;
        self.reports.push((k, cells));
        self.counts.push(counts);
        Ok(Sample { latency_s, events })
    }

    fn traced(&mut self, k: usize) -> R<()> {
        let (cells, counts) = self.fleet.traced_request(k)?;
        self.traced_reports.push((k, cells));
        self.traced_counts.push(counts);
        Ok(())
    }

    fn verify(&mut self, notes: &mut Vec<String>) -> R<(u64, u64)> {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut expected: std::collections::HashMap<usize, Vec<Vec<Cell>>> = Default::default();
        for (k, cells) in self.reports.iter().chain(&self.traced_reports) {
            let want = expected
                .entry(*k % self.fleet.cycle_len())
                .or_insert_with(|| self.fleet.expected(*k));
            for (t, (row, want_row)) in cells.iter().zip(want.iter()).enumerate() {
                for (j, (got, want)) in row.iter().zip(want_row).enumerate() {
                    attempted += 1;
                    if got != want {
                        failed += 1;
                        if notes.len() < 8 {
                            notes.push(format!(
                                "request {k} cell ({t},{j}): got {got:?}, want {want:?}"
                            ));
                        }
                    }
                }
            }
            if cells.len() != want.len()
                || cells
                    .iter()
                    .zip(want.iter())
                    .any(|(a, b)| a.len() != b.len())
            {
                failed += 1;
                notes.push(format!("request {k}: report shape differs from the fleet"));
            }
        }
        for c in &self.traced_counts {
            attempted += c.summary.replayed;
            if c.kernel_mismatches > 0 {
                failed += c.kernel_mismatches;
                notes.push(format!(
                    "{} kernel-alone passes disagree with the sweep",
                    c.kernel_mismatches
                ));
            }
        }
        Ok((attempted, failed))
    }

    fn counters(&self, m: &mut Metrics) {
        let n = self.counts.len().max(1) as f64;
        let sum =
            |f: &dyn Fn(&fleet::RunCounts) -> u64| self.counts.iter().map(f).sum::<u64>() as f64;
        let nt = self.traced_counts.len().max(1) as f64;
        let tsum = |f: &dyn Fn(&fleet::TracedCounts) -> u64| {
            self.traced_counts.iter().map(f).sum::<u64>() as f64
        };
        m.push(
            "sim.journal.loads",
            tsum(&|c| c.journal_loads) / nt,
            "count",
        );
        m.push(
            "sim.journal.saves",
            tsum(&|c| c.journal_saves) / nt,
            "count",
        );
        m.push("sim.journal.bytes", tsum(&|c| c.journal_bytes) / nt, "B");
        m.push("trace.commitfs.fsyncs", sum(&|c| c.fsyncs) / n, "count");
        m.push("trace.commitfs.renames", sum(&|c| c.renames) / n, "count");
        m.push(
            "corpus.run.cells_replayed",
            sum(&|c| c.summary.replayed) / n,
            "count",
        );
        m.push(
            "corpus.run.cells_restored",
            sum(&|c| c.summary.restored) / n,
            "count",
        );
        m.push(
            "corpus.run.cells_pruned",
            sum(&|c| c.summary.pruned) / n,
            "count",
        );
        m.push(
            "corpus.run.traces_screened",
            sum(&|c| c.summary.screened_traces) / n,
            "count",
        );
        let redone = sum(&|c| c.summary.replayed + c.summary.pruned);
        m.push(
            "corpus.run.replay_waste",
            redone / sum(&|c| c.invalidated).max(1.0),
            "ratio",
        );
        m.push("cpu.table2.ipc_mae", 0.0, "ipc");
        m.push("cpu.table2.miss_mae_pct", 0.0, "%");
    }

    fn ledger_input(&self, scale: Scale) -> ledger::LedgerInput {
        ledger_input(self.ledger_bench, mix_seed(self.seed, 0), scale)
    }
}

fn ledger_input(bench: SpecBenchmark, seed: u64, scale: Scale) -> ledger::LedgerInput {
    match scale {
        Scale::Full => ledger::LedgerInput {
            bench,
            seed,
            ops: 100_000,
            cpu_instr: 20_000,
            reps: 3,
        },
        Scale::Tiny => ledger::LedgerInput {
            bench,
            seed,
            ops: 6_000,
            cpu_instr: 1_000,
            reps: 1,
        },
    }
}

fn fleet_size(kind: Kind, scale: Scale) -> FleetSize {
    use SpecBenchmark::*;
    let (benches, ops) = match kind {
        Kind::Cold => (vec![Swim, Tomcatv, Gcc, Go], 600_000),
        // Two traces each of five integer models whose edits cost about
        // the same, so every edit in a cycle samples one latency mode.
        Kind::RowEdit => (
            vec![Gcc, Go, Li, Perl, Ijpeg, Gcc, Go, Li, Perl, Ijpeg],
            250_000,
        ),
        Kind::ColumnEdit => (
            vec![Swim, Tomcatv, Su2cor, Wave5, Gcc, Go, Li, Compress],
            60_000,
        ),
    };
    match scale {
        Scale::Full => FleetSize { benches, ops },
        Scale::Tiny => FleetSize {
            benches: benches[..2].to_vec(),
            ops: 4_000,
        },
    }
}

// --------------------------------------------------------------- timing

struct TimingWorkload {
    timing: timing::Timing,
    /// The first table, checked against `run_benchmark`.
    first: Option<Vec<timing::RowStats>>,
    /// Digests of every table simulated, traced or not.
    digests: Vec<u64>,
}

impl Workload for TimingWorkload {
    fn cycle_len(&self) -> usize {
        1
    }

    fn reset(&self) -> R<()> {
        Ok(())
    }

    fn request(&mut self, _k: usize) -> R<Sample> {
        let start = Instant::now();
        let table = self.timing.table()?;
        let latency_s = start.elapsed().as_secs_f64();
        let events = table.iter().flatten().map(|s| s.instructions).sum();
        self.digests.push(timing::table_digest(&table));
        self.first.get_or_insert(table);
        Ok(Sample { latency_s, events })
    }

    fn traced(&mut self, _k: usize) -> R<()> {
        let table = spans::span("request", || self.timing.table())?;
        self.digests.push(timing::table_digest(&table));
        Ok(())
    }

    fn verify(&mut self, notes: &mut Vec<String>) -> R<(u64, u64)> {
        let first = self.first.as_ref().ok_or("no table simulated")?;
        let per_table = first.iter().map(|r| r.len() as u64).sum::<u64>();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (bench, row) in self.timing.benches().into_iter().zip(first) {
            if !timing::matches_reference(bench, row, self.timing.ops, self.timing.seed) {
                failed += row.len() as u64;
                notes.push(format!("{}: differs from run_benchmark", bench.name()));
            }
        }
        let want = timing::table_digest(first);
        for &d in &self.digests {
            attempted += per_table;
            if d != want {
                failed += per_table;
                notes.push("a repeated table differs from the first".into());
            }
        }
        Ok((attempted, failed))
    }

    fn counters(&self, m: &mut Metrics) {
        for name in ["sim.journal.loads", "sim.journal.saves"] {
            m.push(name, 0.0, "count");
        }
        m.push("sim.journal.bytes", 0.0, "B");
        for name in [
            "trace.commitfs.fsyncs",
            "trace.commitfs.renames",
            "corpus.run.cells_replayed",
            "corpus.run.cells_restored",
            "corpus.run.cells_pruned",
            "corpus.run.traces_screened",
        ] {
            m.push(name, 0.0, "count");
        }
        m.push("corpus.run.replay_waste", 0.0, "ratio");
        let rows: Vec<_> = self
            .timing
            .benches()
            .into_iter()
            .zip(self.first.iter().flatten())
            .map(|(b, s)| timing::table2_row(b, s))
            .collect();
        let (ipc, miss) = timing::paper_error(&rows);
        m.push("cpu.table2.ipc_mae", ipc, "ipc");
        m.push("cpu.table2.miss_mae_pct", miss, "%");
    }

    fn ledger_input(&self, scale: Scale) -> ledger::LedgerInput {
        ledger_input(self.timing.benches()[0], self.timing.seed, scale)
    }
}

// ---------------------------------------------------------- measurement

/// Sorts a traced request's spans into layer groups. The replay span's
/// time is split by its shadow passes: decode, the kernels alone, and
/// the rest as sweep overhead.
fn attribute(spans: &[spans::Span]) -> Attribution {
    let selfs = spans::self_times(spans);
    let mut a = Attribution {
        group_ns: vec![0; GROUPS.len()],
        spans: spans.len() as u64,
        ..Attribution::default()
    };
    let group = |name: &str| {
        GROUPS
            .iter()
            .position(|g| name == *g || name.starts_with(&format!("{g}.")))
    };
    let mut shadow_ns = 0;
    let mut root_ns = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            root_ns += s.dur_ns();
        }
        if s.shadow {
            shadow_ns += s.dur_ns();
            continue;
        }
        if s.name == "sim.sweep" {
            let siblings = spans.iter().filter(|o| o.shadow && o.parent == s.parent);
            let (mut decode, mut kernels) = (0, 0);
            for o in siblings {
                if o.name == "trace.columnar.decode" {
                    decode += o.dur_ns();
                } else if o.name.starts_with("sim.kernel.") {
                    kernels += o.dur_ns();
                }
            }
            let idx = |g: &str| GROUPS.iter().position(|x| *x == g).expect("known group");
            let sweep = s.dur_ns();
            // Shadow passes that together outlast the sweep (noise) are
            // scaled to fit it, so the three parts sum to its duration.
            let split = (decode + kernels).min(sweep);
            let decode_part = (split * decode).checked_div(decode + kernels).unwrap_or(0);
            a.group_ns[idx("trace.columnar.decode")] += decode_part;
            a.group_ns[idx("sim.kernel")] += split - decode_part;
            a.group_ns[idx("sim.sweep")] += sweep - split;
            continue;
        }
        if let Some(g) = group(&s.name) {
            a.group_ns[g] += selfs[i];
        }
    }
    a.instrumented_ns = root_ns - shadow_ns;
    a
}

struct Outcome {
    e2e: Metrics,
    layers: Metrics,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    table: Vec<String>,
}

fn drive(
    w: &mut dyn Workload,
    setup: &SetupTimes,
    probe: &mut Probe,
    args: &Args,
    root: &Path,
    work: &Path,
) -> R<Outcome> {
    let mut notes = Vec::new();
    let mut table = Vec::new();
    // Warm-up request: the page cache, allocator and caches settle.
    w.reset()?;
    w.request(0)?;

    let n = w.cycle_len();
    let start = Instant::now();
    let mut lat = Vec::new();
    let mut probes = Vec::new();
    // Each request's latency in probe units (over the mean of the probes
    // just before and after it), and per cycle the events simulated per
    // probe unit: every cycle holds each request kind once.
    let mut cost = Vec::new();
    let mut rates = Vec::new();
    let mut before = probe.time_s();
    loop {
        let (mut events, mut cycle_cost) = (0u64, 0.0);
        for k in 0..n {
            w.reset()?;
            let s = w.request(k)?;
            let after = probe.time_s();
            let c = s.latency_s / ((before + after) / 2.0);
            before = after;
            probes.push(after);
            lat.push(s.latency_s);
            cost.push(c);
            events += s.events;
            cycle_cost += c;
        }
        rates.push(events as f64 / cycle_cost);
        if start.elapsed().as_secs_f64() >= args.seconds && lat.len() >= MIN_SAMPLES {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let busy: f64 = lat.iter().sum();
    let (tail_pct, tail_s) = tail(&lat);
    let probe_s = median(&probes);

    let mut layers = Metrics::default();
    if args.trace {
        let mut sum = Attribution {
            group_ns: vec![0; GROUPS.len()],
            ..Attribution::default()
        };
        let traced_n = n.max(3);
        let mut traced_probes = Vec::new();
        for k in 0..traced_n {
            w.reset()?;
            traced_probes.push(probe.time_s());
            spans::enable();
            let r = w.traced(k);
            let recorded = spans::take();
            r?;
            let a = attribute(&recorded);
            for (s, x) in sum.group_ns.iter_mut().zip(&a.group_ns) {
                *s += x;
            }
            sum.instrumented_ns += a.instrumented_ns;
            sum.spans += a.spans;
        }
        // Mean per request over whole cycles, on both sides; traced
        // times are scaled to the host speed of the untraced window.
        let untraced_ms = busy / lat.len() as f64 * 1e3;
        let speed = probe_s / median(&traced_probes);
        let per = |ns: u64| ns as f64 * speed / traced_n as f64 / 1e6;
        let mut attributed = 0.0;
        for (g, &ns) in GROUPS.iter().zip(&sum.group_ns) {
            attributed += per(ns);
            layers.push(format!("attr.{g}.share"), per(ns) / untraced_ms, "frac");
        }
        let residue_ms = untraced_ms - attributed;
        layers.push("residue_ms", residue_ms, "ms");
        layers.push("residue_share", residue_ms / untraced_ms, "frac");
        layers.push("wall.untraced_ms", untraced_ms, "ms");
        layers.push("wall.request_p50_ms", median(&lat) * 1e3, "ms");
        layers.push("wall.request_tail_ms", tail_s * 1e3, "ms");
        layers.push("wall.probe_ms", probe_s * 1e3, "ms");
        layers.push("wall.traced_ms", per(sum.instrumented_ns), "ms");
        layers.push(
            "trace.overhead_frac",
            per(sum.instrumented_ns) / untraced_ms - 1.0,
            "frac",
        );
        layers.push("trace.spans", sum.spans as f64 / traced_n as f64, "count");
        w.counters(&mut layers);
        let input = w.ledger_input(args.scale);
        let led = ledger::ledger(root, &work.join("ledger"), &input)?;
        layers.0.extend(led.0);
    }

    let (mut attempted, mut failed) = w.verify(&mut notes)?;
    let canary_dir = work.join("canary");
    let fleet_canary = fleet::canary(root, &canary_dir)?;
    let table2_canary = timing::canary();
    for (name, got, want) in [
        ("fleet", fleet_canary, FLEET_CANARY),
        ("table2", table2_canary, TABLE2_CANARY),
    ] {
        attempted += 1;
        if got != want {
            failed += 1;
            notes.push(format!(
                "{name} canary digest {got:016x}, recorded {want:016x}"
            ));
        }
    }

    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&setup.scaled), "s");
    e2e.push("request_p50_probes", median(&cost), "probe");
    e2e.push("request_tail_probes", tail(&cost).1, "probe");
    e2e.push("sim_events_per_probe", median(&rates), "1/probe");
    e2e.push("peak_rss_mb", sys::peak_rss_mb(), "MB");
    e2e.push(
        "pass_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "frac",
    );
    table.push(format!(
        "requests: {} in {window_s:.2} s ({n} per cycle); probe median {:.3} ms",
        lat.len(),
        probe_s * 1e3
    ));
    table.push(format!(
        "latency p50 {:.6} s, tail p{tail_pct:.1} (10 samples beyond) {tail_s:.6} s; \
         set-up {:.6} s",
        median(&lat),
        median(&setup.raw)
    ));
    table.push(format!(
        "failed_frac: {} of {attempted} checked results",
        failed
    ));
    Ok(Outcome {
        e2e,
        layers,
        attempted,
        failed,
        notes,
        table,
    })
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Sets up one workload under `dir`.
fn make_workload(args: &Args, root: &Path, dir: &Path) -> R<Box<dyn Workload>> {
    let kind = match args.workload.as_str() {
        "fleet_cold" => Kind::Cold,
        "row_edit" => Kind::RowEdit,
        "column_edit" => Kind::ColumnEdit,
        "timing_table2" => {
            let ops = match args.scale {
                Scale::Full => 20_000,
                Scale::Tiny => 1_000,
            };
            return Ok(Box::new(TimingWorkload {
                timing: timing::Timing::setup(mix_seed(args.seed, 2), ops)?,
                first: None,
                digests: Vec::new(),
            }));
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let size = fleet_size(kind, args.scale);
    let fleet = Fleet::setup(
        kind,
        root,
        dir,
        args.seed,
        &size,
        Arc::new(CountingFs::default()),
    )?;
    fleet.warm_page_cache()?;
    Ok(Box::new(FleetWorkload {
        fleet,
        reports: Vec::new(),
        counts: Vec::new(),
        traced_counts: Vec::new(),
        traced_reports: Vec::new(),
        ledger_bench: size.benches[0],
        seed: args.seed,
    }))
}

/// Set-up times of one run, in seconds: as measured, and scaled to the
/// probe's nominal speed (see [`probe::NOMINAL_S`]).
#[derive(Default)]
struct SetupTimes {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

/// Sets up [`SETUP_REPS`] times, timing each, and returns the last
/// set-up with the times. Shared machines run slowly for the first
/// seconds of sustained load, and the page cache and allocator settle:
/// the first set-up serves untimed requests for a while before the
/// others are made, and the median discounts its cold start.
fn set_up(
    args: &Args,
    root: &Path,
    work: &Path,
    probe: &mut Probe,
) -> R<(Box<dyn Workload>, SetupTimes)> {
    let warm_s = match args.scale {
        Scale::Full => WARMUP_S,
        Scale::Tiny => 0.1,
    };
    let mut times = SetupTimes::default();
    let mut made: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS {
        // Each set-up starts from nothing; the previous one is dropped.
        drop(made.take());
        if rep > 0 {
            std::fs::remove_dir_all(work.join(format!("setup-{}", rep - 1))).ok();
        }
        let before = probe.time_s();
        let start = Instant::now();
        let mut w = make_workload(args, root, &work.join(format!("setup-{rep}")))?;
        let t = start.elapsed().as_secs_f64();
        let after = probe.time_s();
        times.raw.push(t);
        times
            .scaled
            .push(t * probe::NOMINAL_S / ((before + after) / 2.0));
        if rep == 0 {
            let start = Instant::now();
            let mut k = 0;
            while start.elapsed().as_secs_f64() < warm_s {
                w.reset()?;
                w.request(k)?;
                k += 1;
            }
        }
        made = Some(w);
    }
    Ok((made.expect("at least one set-up"), times))
}

fn run_bench(args: &Args) -> R<()> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("examples").is_dir() || !root.join("crates").is_dir() {
        return Err("run from the repository root (examples/ and crates/ not found)".into());
    }
    let ctx = sys::Context::capture(&root);
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::remove_dir_all(&work.0).ok();
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    let mut probe = Probe::new();
    let (mut w, setup) = set_up(args, &root, &work.0, &mut probe)?;
    let out = drive(w.as_mut(), &setup, &mut probe, args, &root, &work.0)?;
    drop(w);

    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \"load_avg_start\": {}, \"load_avg_end\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        ctx.nproc,
        json_str(&ctx.cpu),
        ctx.load_start,
        sys::load_avg_1m(),
        json_str(&ctx.rustc),
        json_str(&ctx.commit),
        json_str(&ctx.source),
    );
    for line in &out.table {
        println!("# {line}");
    }
    for note in &out.notes {
        println!("# FAIL {note}");
    }
    let shown = if args.trace { &out.layers } else { &out.e2e };
    for m in &shown.0 {
        println!("# {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(out.failed == 0, out.attempted.max(1), out.failed, shown)
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run_bench(&a));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
