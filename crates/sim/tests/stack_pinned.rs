//! Pins the stack-distance histograms `LruStackSweep` records.
//!
//! Four SPEC-model traces (seed 12345, 100k ops, 32-byte lines) are fed
//! through the exact sweep and through 1-in-4 set sampling. For every
//! set count in {1, 64, 128, 256, 512} the test pins an FNV-1a digest of
//! the family's histogram (cold count, refs and every depth count), and
//! for each pass `refs_seen` and `refs_sampled`. Any change to how the
//! engine tracks reuse, exact or sampled, moves a digest.

use cac_sim::analytic::StackHistogram;
use cac_sim::sweep::LruStackSweep;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;

const SEED: u64 = 12345;
const OPS: usize = 100_000;
const LINE: u64 = 32;
const SETS: [u32; 5] = [1, 64, 128, 256, 512];

/// One pinned pass: trace, sampling factor, the two reference counters
/// and one histogram digest per entry of [`SETS`].
struct Pin {
    bench: SpecBenchmark,
    sampling: u32,
    refs_seen: u64,
    refs_sampled: u64,
    digests: [u64; 5],
}

const PINS: &[Pin] = &[
    Pin {
        bench: SpecBenchmark::Swim,
        sampling: 1,
        refs_seen: 55_559,
        refs_sampled: 55_559,
        digests: [
            0x8079_1424_c401_fc49,
            0xe7ea_9305_d002_46f4,
            0x4265_65a2_ca46_1443,
            0x5714_4672_2cf8_53f9,
            0x55bf_3417_2c42_606f,
        ],
    },
    Pin {
        bench: SpecBenchmark::Swim,
        sampling: 4,
        refs_seen: 55_559,
        refs_sampled: 13_911,
        digests: [
            0xa796_01a2_f748_b17e,
            0x665c_e62b_b0e9_dd19,
            0x0bbb_132e_8d80_eb45,
            0xa987_6c62_5336_ca88,
            0x852c_664d_ee0e_e77b,
        ],
    },
    Pin {
        bench: SpecBenchmark::Tomcatv,
        sampling: 1,
        refs_seen: 55_559,
        refs_sampled: 55_559,
        digests: [
            0x8928_45ba_12c6_8ac1,
            0x0050_f7fc_b18e_70a8,
            0x0dcd_ffbb_7d96_5023,
            0xf11c_95a2_1683_1a33,
            0x458e_1615_74c4_5ba5,
        ],
    },
    Pin {
        bench: SpecBenchmark::Tomcatv,
        sampling: 4,
        refs_seen: 55_559,
        refs_sampled: 13_911,
        digests: [
            0xbec4_0563_c9de_a503,
            0x7291_75f2_ea4d_7076,
            0x3877_0024_b0af_1eb0,
            0xb9ce_ee4f_0587_3c91,
            0xed8a_f44c_bebb_becf,
        ],
    },
    Pin {
        bench: SpecBenchmark::Gcc,
        sampling: 1,
        refs_seen: 50_000,
        refs_sampled: 50_000,
        digests: [
            0x82ea_7f9f_b3db_65a8,
            0x0137_0be3_d3ad_4779,
            0xee51_550b_c7a7_1a64,
            0x62ec_594a_5a55_06fd,
            0xdd91_a3b6_a64d_7697,
        ],
    },
    Pin {
        bench: SpecBenchmark::Gcc,
        sampling: 4,
        refs_seen: 50_000,
        refs_sampled: 12_563,
        digests: [
            0x7b13_e4a2_20c6_5dcb,
            0x4ca6_2988_fd4e_5b7d,
            0xcb92_1c0e_8428_f3cc,
            0xadb3_602e_c1e3_f576,
            0x14e1_c97b_7626_4ddf,
        ],
    },
    Pin {
        bench: SpecBenchmark::Compress,
        sampling: 1,
        refs_seen: 52_943,
        refs_sampled: 52_943,
        digests: [
            0x56a9_2cb0_109f_874a,
            0x1b06_d673_14f0_9003,
            0x44b9_8c6f_cbe9_157a,
            0x1a9a_6470_56c4_d7cb,
            0xcb87_3c96_e60f_6421,
        ],
    },
    Pin {
        bench: SpecBenchmark::Compress,
        sampling: 4,
        refs_seen: 52_943,
        refs_sampled: 13_288,
        digests: [
            0x49a4_31a4_24e6_8022,
            0x006c_ad3f_1b1e_469a,
            0x5b1e_b5c8_ebf2_8e49,
            0x55c3_3454_b8ed_8b1d,
            0x0a6d_a0a7_bb49_f737,
        ],
    },
];

fn fnv(h: &StackHistogram) -> u64 {
    let mut x: u64 = 0xcbf2_9ce4_8422_2325;
    let words = [h.cold, h.refs, h.depths.len() as u64];
    for w in words.iter().chain(&h.depths) {
        for b in w.to_le_bytes() {
            x ^= u64::from(b);
            x = x.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    x
}

fn refs(bench: SpecBenchmark) -> Vec<MemRef> {
    mem_refs(bench.generator(SEED).take(OPS)).collect()
}

#[test]
fn histograms_match_the_pins() {
    for pin in PINS {
        let mut sweep = LruStackSweep::new(LINE, &SETS)
            .unwrap()
            .with_set_sampling(pin.sampling)
            .unwrap();
        sweep.run_refs(&refs(pin.bench));
        let what = format!("{:?} sampled 1/{}", pin.bench, pin.sampling);
        assert_eq!(sweep.refs_seen(), pin.refs_seen, "{what}: refs_seen");
        assert_eq!(
            sweep.refs_sampled(),
            pin.refs_sampled,
            "{what}: refs_sampled"
        );
        for (&sets, &want) in SETS.iter().zip(&pin.digests) {
            let got = fnv(&sweep.histogram(sets).unwrap());
            assert_eq!(got, want, "{what}: {sets}-set histogram digest {got:#018x}");
        }
    }
}
