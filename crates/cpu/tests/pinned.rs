//! Pins every `CpuStats` counter of the timing core on the paper's
//! configurations, so a rework of the pipeline must reproduce the
//! recorded results exactly.
//!
//! Each configuration runs all 18 SPEC models for 5,000 instructions
//! (seed 12345). The expected values are per-configuration sums of the
//! headline counters plus an FNV-1a digest over every field of every
//! model's stats, including predictor and TLB counters.

use cac_core::IndexSpec;
use cac_cpu::{CpuConfig, CpuStats, Processor, TranslationModel};
use cac_sim::stats::CacheStats;
use cac_sim::tlb::TlbStats;
use cac_trace::record::{OpClass, TraceOp};
use cac_trace::spec::SpecBenchmark;

const SEED: u64 = 12345;
const OPS: u64 = 5_000;

/// The six Table 2 configurations, `cac options`' physically-indexed
/// `opt1`, and a single-MSHR configuration in which loads block.
fn configs() -> Vec<(&'static str, CpuConfig)> {
    let conv8 = || CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap();
    let ipoly = || CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).unwrap();
    let mut one_mshr = conv8();
    one_mshr.mshrs = 1;
    vec![
        (
            "conv16",
            CpuConfig::paper_16kb(IndexSpec::modulo()).unwrap(),
        ),
        ("conv8", conv8()),
        ("conv8_pred", conv8().with_address_prediction()),
        ("ipoly", ipoly()),
        ("ipoly_cp", ipoly().with_xor_in_critical_path()),
        (
            "ipoly_cp_pred",
            ipoly()
                .with_xor_in_critical_path()
                .with_address_prediction(),
        ),
        (
            "opt1",
            ipoly().with_physical_indexing(TranslationModel::physically_indexed()),
        ),
        ("conv8_1mshr", one_mshr),
    ]
}

#[derive(Default)]
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Feeds every field of `s` to the digest. The destructuring is
/// exhaustive, so a new counter fails to compile until it is pinned too.
fn digest_stats(h: &mut Fnv, s: &CpuStats) {
    let CpuStats {
        instructions,
        cycles,
        loads,
        stores,
        branches,
        branch_mispredictions,
        memory_violations,
        forwarded_loads,
        rob_stall_cycles,
        fetch_stall_cycles,
        dcache,
        predictor,
        tlb,
    } = *s;
    for v in [
        instructions,
        cycles,
        loads,
        stores,
        branches,
        branch_mispredictions,
        memory_violations,
        forwarded_loads,
        rob_stall_cycles,
        fetch_stall_cycles,
    ] {
        h.word(v);
    }
    let CacheStats {
        accesses,
        hits,
        misses,
        reads,
        writes,
        read_misses,
        write_misses,
        evictions,
        invalidations,
        writebacks,
    } = dcache;
    for v in [
        accesses,
        hits,
        misses,
        reads,
        writes,
        read_misses,
        write_misses,
        evictions,
        invalidations,
        writebacks,
    ] {
        h.word(v);
    }
    match predictor {
        None => h.word(0),
        Some(p) => {
            h.word(1);
            for v in [
                p.observations,
                p.confident,
                p.confident_correct,
                p.raw_correct,
            ] {
                h.word(v);
            }
        }
    }
    match tlb {
        None => h.word(0),
        Some(TlbStats {
            accesses,
            misses,
            evictions,
        }) => {
            h.word(1);
            for v in [accesses, misses, evictions] {
                h.word(v);
            }
        }
    }
}

/// Per-configuration sums of the headline counters, and the digest.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    forwarded_loads: u64,
    memory_violations: u64,
    fetch_stall_cycles: u64,
    rob_stall_cycles: u64,
    read_misses: u64,
    digest: u64,
}

impl Pin {
    fn of(runs: impl IntoIterator<Item = CpuStats>) -> Pin {
        let mut h = Fnv::default();
        let mut pin = Pin {
            cycles: 0,
            forwarded_loads: 0,
            memory_violations: 0,
            fetch_stall_cycles: 0,
            rob_stall_cycles: 0,
            read_misses: 0,
            digest: 0,
        };
        for s in runs {
            assert!(s.instructions >= OPS, "{s:?}");
            digest_stats(&mut h, &s);
            pin.cycles += s.cycles;
            pin.forwarded_loads += s.forwarded_loads;
            pin.memory_violations += s.memory_violations;
            pin.fetch_stall_cycles += s.fetch_stall_cycles;
            pin.rob_stall_cycles += s.rob_stall_cycles;
            pin.read_misses += s.dcache.read_misses;
        }
        pin.digest = h.0;
        pin
    }
}

/// A trace over four hot words, a cold region and a few registers, so
/// that stores forward to loads, loads replay under the ARB, misses pile
/// up behind the MSHRs, branches mispredict and the unpipelined dividers
/// stay busy. The SPEC models exercise none of the first two.
fn aliasing_trace(n: usize) -> Vec<TraceOp> {
    let mut x = SEED;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 24;
            let pc = 0x400 + (i as u64 % 64) * 4;
            let reg = 1 + (r % 5) as u8;
            let base = Some(1 + ((r >> 12) % 5) as u8);
            let addr = if (r >> 16).is_multiple_of(4) {
                0x10_0000 + ((r >> 20) % 4096) * 32
            } else {
                0x8000 + ((r >> 8) % 4) * 8
            };
            match r % 16 {
                0..=4 => TraceOp::store(pc, addr, reg, base),
                5..=9 => TraceOp::load(pc, addr, reg, base),
                10 => TraceOp::compute(pc, OpClass::IntDiv, reg, [Some(reg), None]),
                11 => TraceOp::compute(pc, OpClass::FpDiv, 33, [Some(33), None]),
                12 => TraceOp::compute(pc, OpClass::FpSqrt, 34, [Some(33), None]),
                13 => TraceOp::branch(pc, r & (1 << 30) != 0, 0x400, Some(reg)),
                _ => TraceOp::compute(pc, OpClass::IntAlu, reg, [Some(reg), None]),
            }
        })
        .collect()
}

/// For each configuration: the 18 SPEC models, then the aliasing trace.
#[test]
fn every_counter_matches_the_recorded_results() {
    let expected: &[(&str, Pin, Pin)] = &[
        (
            "conv16",
            Pin {
                cycles: 79_482,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 15_843,
                rob_stall_cycles: 45_877,
                read_misses: 7492,
                digest: 0x9ed2579f865148d9,
            },
            Pin {
                cycles: 23_313,
                forwarded_loads: 690,
                memory_violations: 369,
                fetch_stall_cycles: 5532,
                rob_stall_cycles: 16_721,
                read_misses: 409,
                digest: 0x14e2813b691cdfb5,
            },
        ),
        (
            "conv8",
            Pin {
                cycles: 81_965,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 16_307,
                rob_stall_cycles: 47_950,
                read_misses: 9065,
                digest: 0x01f46aef09622827,
            },
            Pin {
                cycles: 23_313,
                forwarded_loads: 690,
                memory_violations: 369,
                fetch_stall_cycles: 5532,
                rob_stall_cycles: 16_721,
                read_misses: 410,
                digest: 0xb6739823e3d350b0,
            },
        ),
        (
            "conv8_pred",
            Pin {
                cycles: 81_804,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 16_270,
                rob_stall_cycles: 47_566,
                read_misses: 9065,
                digest: 0x0bf9726d4ba6c929,
            },
            Pin {
                cycles: 23_313,
                forwarded_loads: 690,
                memory_violations: 369,
                fetch_stall_cycles: 5532,
                rob_stall_cycles: 16_721,
                read_misses: 410,
                digest: 0x79f92f42e85d8c14,
            },
        ),
        (
            "ipoly",
            Pin {
                cycles: 77_458,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 16_091,
                rob_stall_cycles: 43_537,
                read_misses: 5832,
                digest: 0x8b4bb51ab60b7b92,
            },
            Pin {
                cycles: 23_313,
                forwarded_loads: 690,
                memory_violations: 369,
                fetch_stall_cycles: 5514,
                rob_stall_cycles: 16_739,
                read_misses: 410,
                digest: 0xd2b1b7b261de5e12,
            },
        ),
        (
            "ipoly_cp",
            Pin {
                cycles: 77_612,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 16_183,
                rob_stall_cycles: 43_827,
                read_misses: 5833,
                digest: 0x3918a38ef57afb73,
            },
            Pin {
                cycles: 23_349,
                forwarded_loads: 689,
                memory_violations: 372,
                fetch_stall_cycles: 5567,
                rob_stall_cycles: 16_724,
                read_misses: 410,
                digest: 0x57cb58dd9e9e90d1,
            },
        ),
        (
            "ipoly_cp_pred",
            Pin {
                cycles: 77_370,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 16_150,
                rob_stall_cycles: 43_136,
                read_misses: 5832,
                digest: 0xe2bcf156337b1222,
            },
            Pin {
                cycles: 23_349,
                forwarded_loads: 689,
                memory_violations: 372,
                fetch_stall_cycles: 5567,
                rob_stall_cycles: 16_724,
                read_misses: 410,
                digest: 0x32516787c05d93b8,
            },
        ),
        (
            "opt1",
            Pin {
                cycles: 83_090,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 17_381,
                rob_stall_cycles: 48_273,
                read_misses: 5634,
                digest: 0x0872dd9e98abce34,
            },
            Pin {
                cycles: 23_393,
                forwarded_loads: 687,
                memory_violations: 372,
                fetch_stall_cycles: 5676,
                rob_stall_cycles: 16_659,
                read_misses: 407,
                digest: 0x9a23c5421014b29b,
            },
        ),
        (
            "conv8_1mshr",
            Pin {
                cycles: 80_067,
                forwarded_loads: 0,
                memory_violations: 0,
                fetch_stall_cycles: 12_086,
                rob_stall_cycles: 48_988,
                read_misses: 102_331,
                digest: 0x331a3a223a0254ab,
            },
            Pin {
                cycles: 23_237,
                forwarded_loads: 693,
                memory_violations: 372,
                fetch_stall_cycles: 5439,
                rob_stall_cycles: 16_733,
                read_misses: 410,
                digest: 0x0fe966da109e60ba,
            },
        ),
    ];
    let trace = aliasing_trace(OPS as usize + 1000);
    let configs = configs();
    assert_eq!(configs.len(), expected.len());
    for ((name, config), (want_name, want_spec, want_aliasing)) in configs.into_iter().zip(expected)
    {
        assert_eq!(name, *want_name);
        let spec = SpecBenchmark::all().map(|b| {
            let mut cpu = Processor::new(config.clone()).unwrap();
            cpu.run(b.generator(SEED), OPS)
        });
        assert_eq!(Pin::of(spec), *want_spec, "{name}: SPEC models");
        let mut cpu = Processor::new(config).unwrap();
        let aliasing = cpu.run(trace.iter().copied(), OPS);
        assert_eq!(
            Pin::of([aliasing]),
            *want_aliasing,
            "{name}: aliasing trace"
        );
    }
}
