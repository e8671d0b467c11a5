//! `LruStackSweep` against the linear-scan engine it replaced
//! (`stack_reference`): every family's histogram, `misses`/`hits` at
//! any `(sets, ways)` and both reference counters must agree, exact or
//! set-sampled, however the stream is fed.
//!
//! Streams mix strided cyclic sweeps (deep reuse at a few distances),
//! random reuse over small and large pools, and footprints several
//! times the engine's initial slot capacity, so its slot table fills
//! and is renumbered many times per stream.

mod stack_reference;

use cac_sim::sweep::LruStackSweep;
use cac_trace::io::IterRefSource;
use cac_trace::MemRef;
use proptest::prelude::*;

/// Longest stream drawn; the reference scans up to the whole footprint
/// per reference, so this bounds the test's run time.
const MAX_REFS: usize = 12_000;

/// Block strides of the cyclic sweeps: unit, odd, and powers of two
/// that pile every block into few sets.
const STRIDES: [u64; 8] = [1, 2, 3, 7, 8, 64, 128, 256];

#[derive(Debug, Clone)]
enum Segment {
    /// `passes` cyclic sweeps over `count` blocks `stride` apart.
    Sweep {
        base: u64,
        stride: u64,
        count: u64,
        passes: u32,
    },
    /// `len` uniform draws from the `pool` blocks starting at `base`.
    Reuse {
        base: u64,
        pool: u64,
        len: u32,
        seed: u64,
    },
}

fn segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (0u64..4096, 0..STRIDES.len(), 1u64..3000, 1u32..4).prop_map(
            |(base, stride, count, passes)| Segment::Sweep {
                base,
                stride: STRIDES[stride],
                count,
                passes,
            }
        ),
        (0u64..4096, 1u64..64, 1u32..3000, any::<u64>()).prop_map(|(base, pool, len, seed)| {
            Segment::Reuse {
                base,
                pool,
                len,
                seed,
            }
        }),
        (0u64..4096, 64u64..6000, 1u32..4000, any::<u64>()).prop_map(|(base, pool, len, seed)| {
            Segment::Reuse {
                base,
                pool,
                len,
                seed,
            }
        }),
    ]
}

/// The block numbers a stream of segments touches, in order, capped at
/// [`MAX_REFS`].
fn blocks(segments: &[Segment]) -> Vec<u64> {
    let mut out = Vec::new();
    for s in segments {
        match *s {
            Segment::Sweep {
                base,
                stride,
                count,
                passes,
            } => {
                for _ in 0..passes {
                    out.extend((0..count).map(|i| base + i * stride));
                }
            }
            Segment::Reuse {
                base,
                pool,
                len,
                seed,
            } => {
                let mut x = seed | 1;
                for _ in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    out.push(base + x % pool);
                }
            }
        }
    }
    out.truncate(MAX_REFS);
    out
}

/// Set counts 2..=512 chosen by `mask`, plus the 1-set family when
/// `full` (the reference needs at least one family).
fn set_counts(mask: u16, full: bool) -> Vec<u32> {
    let mut counts: Vec<u32> = (1..10)
        .filter(|b| mask >> b & 1 == 1)
        .map(|b| 1 << b)
        .collect();
    if full || counts.is_empty() {
        counts.push(1);
    }
    counts
}

/// The largest of `want` that every multi-set family admits.
fn sampling(counts: &[u32], want: u32) -> u32 {
    let min_multi = counts.iter().copied().filter(|&s| s > 1).min();
    min_multi.map_or(want, |m| want.min(m))
}

fn compare(
    how: &str,
    got: &LruStackSweep,
    want: &stack_reference::LruStackSweep,
    counts: &[u32],
    ways: &[u32],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.refs_seen(), want.refs_seen(), "{}: refs_seen", how);
    prop_assert_eq!(
        got.refs_sampled(),
        want.refs_sampled(),
        "{}: refs_sampled",
        how
    );
    // An unconfigured set count is `None` in both.
    for sets in counts.iter().copied().chain([1024]) {
        prop_assert_eq!(
            got.histogram(sets),
            want.histogram(sets),
            "{}: {}-set histogram",
            how,
            sets
        );
        for &w in ways {
            prop_assert_eq!(
                got.misses(sets, w),
                want.misses(sets, w),
                "{}: misses({}, {})",
                how,
                sets,
                w
            );
            prop_assert_eq!(
                got.hits(sets, w),
                want.hits(sets, w),
                "{}: hits({}, {})",
                how,
                sets,
                w
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matches_the_linear_scan_reference(
        segments in proptest::collection::vec(segment(), 1..8),
        (line_bits, mask, full) in (1u32..8, any::<u16>(), 0u8..4),
        k_bits in 0u32..4,
        (random_ways, cuts) in (
            proptest::collection::vec(1u32..20_000, 4..5),
            proptest::collection::vec(0usize..MAX_REFS, 0..6),
        ),
    ) {
        let line = 1u64 << line_bits;
        let counts = set_counts(mask, full != 0);
        let k = sampling(&counts, 1 << k_bits);
        let refs: Vec<MemRef> = blocks(&segments)
            .into_iter()
            .enumerate()
            .map(|(i, b)| MemRef {
                pc: 0,
                addr: b * line + (i as u64 * 7) % line,
                is_write: i % 5 == 0,
            })
            .collect();
        let footprint = {
            let mut b: Vec<u64> = refs.iter().map(|r| r.addr / line).collect();
            b.sort_unstable();
            b.dedup();
            b.len() as u32
        };
        let mut ways = vec![0, 1, 2, 3, 4, 8, footprint, footprint + 1, u32::MAX];
        ways.extend(&random_ways);

        let mut want = stack_reference::LruStackSweep::new(line, &counts)
            .unwrap()
            .with_set_sampling(k)
            .unwrap();
        for r in &refs {
            want.observe(r.addr);
        }
        let fresh = || {
            LruStackSweep::new(line, &counts)
                .unwrap()
                .with_set_sampling(k)
                .unwrap()
        };

        let mut observed = fresh();
        for r in &refs {
            observed.observe(r.addr);
        }
        compare("observe", &observed, &want, &counts, &ways)?;

        let mut sliced = fresh();
        sliced.run_refs(&refs);
        compare("run_refs", &sliced, &want, &counts, &ways)?;

        // Several `run_source` calls, split at arbitrary points.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(refs.len())).collect();
        cuts.push(0);
        cuts.push(refs.len());
        cuts.sort_unstable();
        let mut streamed = fresh();
        for piece in cuts.windows(2) {
            let src = IterRefSource::new(refs[piece[0]..piece[1]].iter().copied());
            streamed.run_source(src).unwrap();
        }
        compare("run_source", &streamed, &want, &counts, &ways)?;
    }
}
