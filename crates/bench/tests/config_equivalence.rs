//! Equivalence guards for the declarative config layer.
//!
//! Four claims are load-bearing:
//!
//! 1. every organization in the paper's §2.1/§4 comparison matrix is
//!    expressible as a **shipped** `examples/*.toml` config, and the
//!    file builds the *same model* as the driver's in-code
//!    [`organization_matrix`] entry (identical counters on an identical
//!    reference stream);
//! 2. `cac run --config` on those files reproduces the counters the
//!    hand-wired constructions produce — including the retired
//!    write-skipping measurement loops of the old `organizations`
//!    experiment;
//! 3. the shipped virtual-real hierarchy config reproduces a hand-built
//!    [`TwoLevelHierarchy`] access for access.
//! 4. the `[victim]`, `[stream]` and `[jouppi]` sections keep their
//!    report shape — component name, demand counters, extras in order
//!    and `describe()` — pinned to literals on mixed read/write traffic.

use cac_bench::driver::experiments::organization_matrix;
use cac_bench::driver::{self};
use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::column::{ColumnAssociative, RehashKind};
use cac_sim::hierarchy::TwoLevelHierarchy;
use cac_sim::model::{extra, ComponentStats, MemoryModel, ModelStats};
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::stats::CacheStats;
use cac_sim::vm::PageMapper;
use cac_sim::SimConfig;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;
use std::path::PathBuf;

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    path.to_str().expect("utf-8 path").to_owned()
}

fn workload(ops: usize) -> Vec<MemRef> {
    mem_refs(SpecBenchmark::Tomcatv.generator(99).take(ops)).collect()
}

/// Matrix entry name → shipped config file.
const SHIPPED: &[(&str, &str)] = &[
    ("direct-mapped", "direct_mapped.toml"),
    ("2-way set-assoc", "two_way.toml"),
    ("4-way set-assoc", "four_way.toml"),
    ("victim (DM + 4 lines)", "victim.toml"),
    ("hash-rehash (bit flip)", "hash_rehash.toml"),
    ("column-assoc (I-Poly)", "column_ipoly.toml"),
    ("stream buffers (DM + 4x4)", "stream_buffers.toml"),
    ("Jouppi (DM + victim + stream)", "jouppi.toml"),
    ("2-way skewed XOR", "xor_skewed.toml"),
    ("2-way I-Poly", "ipoly.toml"),
    ("2-way skewed I-Poly", "ipoly_skewed.toml"),
    ("fully associative", "fully_assoc.toml"),
];

#[test]
fn every_matrix_organization_ships_as_an_equivalent_toml_config() {
    let matrix = organization_matrix();
    assert_eq!(matrix.len(), SHIPPED.len(), "matrix/file mapping drifted");
    let refs = workload(40_000);
    for (name, file) in SHIPPED {
        let (_, in_code) = matrix
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("matrix lost organization {name:?}"));
        let shipped = SimConfig::load(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let mut a = in_code.build().expect("in-code config builds");
        let mut b = shipped.build().unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(a.describe(), b.describe(), "{name} vs {file}");
        let da = a.run_refs(&refs);
        let db = b.run_refs(&refs);
        assert_eq!(da, db, "{name} vs {file}");
    }
}

/// The old `organizations` experiment hand-wired each model and skipped
/// stores before probing the read-only organizations. The config-built
/// models must reproduce those loops' counters exactly.
#[test]
fn configs_reproduce_the_hand_wired_measurement_loops() {
    let dm = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
    let w2 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let refs = workload(40_000);

    // Plain cache: full stream, write-through/no-allocate.
    let mut cache = Cache::build(w2, IndexSpec::ipoly_skewed()).unwrap();
    for r in &refs {
        cache.access(r.addr, r.is_write);
    }
    let mut model = SimConfig::load(&example("ipoly_skewed.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    assert_eq!(model.stats().demand, cache.stats());

    // Victim cache: the retired loop skipped writes entirely.
    let mut victim = Hierarchy::builder()
        .level(LevelBuilder::new(dm).victim_buffer(4))
        .build()
        .unwrap();
    let (mut reads, mut misses) = (0u64, 0u64);
    for r in refs.iter().filter(|r| !r.is_write) {
        reads += 1;
        if !victim.read(r.addr).hit {
            misses += 1;
        }
    }
    let mut model = SimConfig::load(&example("victim.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    let d = model.stats().demand;
    assert_eq!((d.reads, d.read_misses), (reads, misses), "victim");

    // Column-associative, polynomial rehash.
    let mut col = ColumnAssociative::with_rehash(dm, RehashKind::Polynomial).unwrap();
    let (mut reads, mut misses) = (0u64, 0u64);
    for r in refs.iter().filter(|r| !r.is_write) {
        reads += 1;
        if !col.read(r.addr).is_hit() {
            misses += 1;
        }
    }
    let mut model = SimConfig::load(&example("column_ipoly.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    let d = model.stats().demand;
    assert_eq!((d.reads, d.read_misses), (reads, misses), "column");

    // The full Jouppi organization.
    let mut jouppi = Hierarchy::builder()
        .level(LevelBuilder::new(dm).victim_buffer(4).stream_buffers(4, 4))
        .build()
        .unwrap();
    for r in refs.iter().filter(|r| !r.is_write) {
        jouppi.read(r.addr);
    }
    let mut model = SimConfig::load(&example("jouppi.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    let (d, hand) = (model.stats().demand, jouppi.demand_stats());
    assert_eq!(
        (d.reads, d.read_misses),
        (hand.reads, hand.misses),
        "jouppi"
    );
    let hand = MemoryModel::stats(&jouppi);
    assert_eq!(
        model.stats().extra("victim-hits"),
        hand.extra("l1-victim-hits")
    );
    assert_eq!(
        model.stats().extra("stream-hits"),
        hand.extra("l1-stream-hits")
    );
}

#[test]
fn shipped_virtual_real_config_matches_a_hand_built_hierarchy() {
    // ipoly_two_level.toml, hand-built: 8KB 2-way skewed-I-Poly L1 over
    // a 256KB 2-way conventional L2, randomized 4KB paging over 256MB,
    // seed 42.
    let mut reference = TwoLevelHierarchy::new(
        CacheGeometry::new(8 * 1024, 32, 2).unwrap(),
        IndexSpec::ipoly_skewed(),
        CacheGeometry::new(256 * 1024, 32, 2).unwrap(),
        IndexSpec::modulo(),
        PageMapper::randomized(4096, 256 << 20, 42),
    )
    .unwrap();
    let refs = workload(60_000);
    for r in &refs {
        reference.access(r.addr, r.is_write);
    }
    let mut model = SimConfig::load(&example("ipoly_two_level.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    let s = model.stats();
    assert_eq!(s.component("l1"), Some(&reference.l1_stats()));
    assert_eq!(s.component("l2"), Some(&reference.l2_stats()));
    assert_eq!(
        s.extra("holes-created"),
        Some(reference.stats().holes_created)
    );
    assert_eq!(
        s.extra("alias-invalidations"),
        Some(reference.stats().alias_invalidations)
    );
}

#[test]
fn cac_run_reports_the_same_counters_as_a_direct_replay() {
    let words: Vec<String> = vec![
        "--config".into(),
        example("ipoly_skewed.toml"),
        "--bench".into(),
        "swim".into(),
        "--ops".into(),
        "30000".into(),
        "--seed".into(),
        "7".into(),
    ];
    let report = driver::run_experiment("run", &words).expect("cac run succeeds");

    let mut reference = Cache::build(
        CacheGeometry::new(8 * 1024, 32, 2).unwrap(),
        IndexSpec::ipoly_skewed(),
    )
    .unwrap();
    let expect = reference.run_trace(SpecBenchmark::Swim.generator(7).take(30_000));

    let demand = &report.tables[0];
    let field = |name: &str| -> u64 {
        demand
            .rows
            .iter()
            .find(|row| row[0].render() == name)
            .and_then(|row| row[1].as_f64())
            .unwrap_or_else(|| panic!("row {name} missing")) as u64
    };
    assert_eq!(field("accesses"), expect.accesses);
    assert_eq!(field("reads"), expect.reads);
    assert_eq!(field("writes"), expect.writes);
    assert_eq!(field("misses"), expect.misses);
}

#[test]
fn config_validate_accepts_all_shipped_configs_and_rejects_rot() {
    let files: Vec<String> = SHIPPED
        .iter()
        .map(|(_, f)| example(f))
        .chain([
            example("ipoly_two_level.toml"),
            example("three_level_sidecars.toml"),
        ])
        .collect();
    let report = driver::run_experiment("config-validate", &files).expect("all shipped ok");
    assert_eq!(report.tables[0].rows.len(), files.len());

    // A rotten config fails the whole validation (the CI contract).
    let dir = std::env::temp_dir().join(format!("cac-config-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[cache]\nsize = \"8KiB\"\nindex = \"md5\"\n").unwrap();
    let words = vec![files[0].clone(), bad.display().to_string()];
    let got = driver::run_experiment("config-validate", &words);
    assert!(
        matches!(got, Err(driver::DriverError::Failed(ref m)) if m.contains("md5")),
        "{got:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The demand counters of a read-only organization: every read counted,
/// hits serviced anywhere before memory, nothing else touched.
fn reads_only(accesses: u64, misses: u64) -> CacheStats {
    CacheStats {
        accesses,
        hits: accesses - misses,
        misses,
        reads: accesses,
        read_misses: misses,
        ..CacheStats::default()
    }
}

/// One pinned report: config file, component name, `describe()`, read
/// misses, and every extra in order.
type Pin = (
    &'static str,
    &'static str,
    &'static str,
    u64,
    &'static [(&'static str, u64)],
);

/// The `[victim]`, `[stream]` and `[jouppi]` report shapes, pinned to
/// the literals the dedicated organization types produced on the mixed
/// read/write tomcatv workload: demand, the one named component, every
/// extra in order, and `describe()`.
#[test]
fn read_only_organizations_keep_their_report_shape() {
    let refs = workload(40_000);
    let cases: [Pin; 3] = [
        (
            "victim.toml",
            "victim",
            "victim cache: 8KB 1-way 32B-block (256 sets) + 4-line fully-associative buffer",
            5314,
            &[
                ("main-hits", 7416),
                ("victim-hits", 7271),
                ("stores-bypassed", 2222),
            ],
        ),
        (
            "stream_buffers.toml",
            "stream",
            "8KB 1-way 32B-block (256 sets), a1 placement + 4x4 stream buffers",
            12585,
            &[
                ("cache-hits", 7416),
                ("stream-hits", 0),
                ("flushed-unused", 50324),
                ("stores-bypassed", 2222),
            ],
        ),
        (
            "jouppi.toml",
            "jouppi",
            "Jouppi organization: 8KB 1-way 32B-block (256 sets) + 4-line victim buffer + \
             4x4 stream buffers",
            4018,
            &[
                ("main-hits", 7416),
                ("victim-hits", 7271),
                ("stream-hits", 1296),
                ("stores-bypassed", 2222),
            ],
        ),
    ];
    for (file, component, describe, misses, extras) in cases {
        let mut model = SimConfig::load(&example(file)).unwrap().build().unwrap();
        assert_eq!(model.describe(), describe, "{file}");
        model.run_refs(&refs);
        let demand = reads_only(20_001, misses);
        let expect = ModelStats {
            demand,
            components: vec![ComponentStats {
                name: component.to_owned(),
                stats: demand,
            }],
            extras: extras.iter().map(|&(n, v)| extra(n, v)).collect(),
        };
        assert_eq!(model.stats(), expect, "{file}");
    }
}
