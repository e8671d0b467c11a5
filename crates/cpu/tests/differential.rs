//! The timing core against the scan-everything pipeline it replaced
//! (`reference`): every `CpuStats` counter must agree, on single runs and
//! on runs split at a resume point.

mod random;
mod reference;

use cac_cpu::{CpuStats, Processor};
use cac_trace::record::OpClass;
use proptest::prelude::*;
use proptest::test_runner::{Config, Runner};

/// Which of the behaviours the differential test is meant to reach a
/// case exercised.
#[derive(Debug, Default)]
struct Coverage {
    forwarded: bool,
    replayed: bool,
    blocked: bool,
    mispredicted: bool,
    int_div: bool,
    fp_div: bool,
    fp_sqrt: bool,
}

#[test]
fn matches_the_reference_pipeline() {
    let mut seen = Coverage::default();
    let cases = (
        random::config(),
        any::<u64>(),
        1usize..1500,
        0u64..1600,
        0u64..400,
    );
    Runner::new(Config::with_cases(160)).run(|rng| {
        let (config, seed, len, first, second) = cases.generate(rng);
        let trace = random::trace(seed, len);
        let whole = Processor::new(config.clone())
            .unwrap()
            .run(trace.iter().copied(), first);
        let want = reference::Processor::new(config.clone())
            .unwrap()
            .run(trace.iter().copied(), first);
        prop_assert_eq!(whole, want, "{:?}, {} ops, target {}", config, len, first);

        // Split runs resume exactly where the reference resumes.
        let mut a = Processor::new(config.clone()).unwrap();
        let mut b = reference::Processor::new(config.clone()).unwrap();
        let (mut ia, mut ib) = (trace.iter().copied(), trace.iter().copied());
        let splits: [(CpuStats, CpuStats); 2] = [
            (a.run(ia.by_ref(), first), b.run(ib.by_ref(), first)),
            (a.run(ia.by_ref(), second), b.run(ib.by_ref(), second)),
        ];
        for (got, want) in splits {
            prop_assert_eq!(got, want, "split {:?} at {}+{}", config, first, second);
        }

        let s = whole;
        let committed = &trace[..s.instructions as usize];
        let has = |class| committed.iter().any(|op| op.class == class);
        seen.forwarded |= s.forwarded_loads > 0;
        seen.replayed |= s.memory_violations > 0;
        // Every successful probe belongs to a committed or in-flight
        // load, so any surplus of cache reads is a blocked retry.
        seen.blocked |= s.dcache.reads > s.loads + config.rob_entries as u64;
        seen.mispredicted |= s.branch_mispredictions > 0;
        seen.int_div |= has(OpClass::IntDiv);
        seen.fp_div |= has(OpClass::FpDiv);
        seen.fp_sqrt |= has(OpClass::FpSqrt);
        Ok(())
    });
    let c = &seen;
    assert!(
        c.forwarded
            && c.replayed
            && c.blocked
            && c.mispredicted
            && c.int_div
            && c.fp_div
            && c.fp_sqrt,
        "the cases never reached some behaviour: {seen:?}"
    );
}
