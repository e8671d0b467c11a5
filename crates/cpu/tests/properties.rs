//! Invariants of the timing core on random configurations and traces.

mod random;

use cac_cpu::Processor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Commit stops at the target, at most `commit_width - 1` over it,
    /// unless the trace runs out first; and IPC never exceeds the commit
    /// width.
    #[test]
    fn commits_reach_the_target_at_commit_width_or_less(
        config in random::config(),
        seed in any::<u64>(),
        len in 0usize..1200,
        target in 0u64..1400,
    ) {
        let trace = random::trace(seed, len);
        let s = Processor::new(config.clone()).unwrap().run(trace.into_iter(), target);
        let width = u64::from(config.commit_width);
        let len = len as u64;
        prop_assert!(s.instructions >= target.min(len), "{s:?}");
        prop_assert!(s.instructions <= len.min(target + width - 1), "{s:?}");
        prop_assert!(s.instructions <= s.cycles * width, "{s:?}");
    }

    /// The same input gives the same result.
    #[test]
    fn runs_are_deterministic(
        config in random::config(),
        seed in any::<u64>(),
        len in 0usize..1200,
    ) {
        let trace = random::trace(seed, len);
        let run = || Processor::new(config.clone()).unwrap().run(trace.iter().copied(), len as u64);
        prop_assert_eq!(run(), run());
    }

    /// Stopping and resuming changes nothing: two runs over one iterator
    /// end where one run to the same instruction count ends.
    #[test]
    fn resuming_equals_one_run(
        config in random::config(),
        seed in any::<u64>(),
        a in 0u64..600,
        b in 0u64..600,
    ) {
        // Longer than both runs plus anything in flight, so neither run
        // sees the trace end.
        let trace = random::trace(seed, 1400);
        let mut split = Processor::new(config.clone()).unwrap();
        let mut it = trace.iter().copied();
        let first = split.run(it.by_ref(), a);
        let resumed = split.run(it.by_ref(), b);
        let whole = Processor::new(config.clone())
            .unwrap()
            .run(trace.iter().copied(), first.instructions + b);
        prop_assert_eq!(resumed, whole);
    }
}
