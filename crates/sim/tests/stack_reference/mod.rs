//! The linear-scan stack-distance engine `cac_sim::sweep::LruStackSweep`
//! used to be, kept as the reference the differential tests compare it
//! with. Every family, the 1-set (fully-associative) one included,
//! keeps per-set LRU stacks and finds a block by scanning its set's
//! stack, so a cold block costs a scan of the whole stack before it is
//! inserted. The code is the replaced engine's, minus the accessors the
//! tests do not call.

use cac_core::Error;
use cac_sim::analytic::StackHistogram;

#[derive(Debug, Clone)]
pub struct LruStackSweep {
    block_bits: u32,
    families: Vec<SetFamily>,
    /// Sampling modulus (1 = every block) and the kept residue.
    sample_k: u64,
    refs_seen: u64,
    refs_sampled: u64,
}

/// Per-set reuse stacks and the distance histogram for one set count.
#[derive(Debug, Clone)]
struct SetFamily {
    sets: u32,
    /// Per-set LRU stacks, MRU first. Sampled-out sets stay empty.
    stacks: Vec<Vec<u64>>,
    /// `hist[d]` = accesses that found their block at stack depth `d`.
    hist: Vec<u64>,
    /// Accesses whose block was not on the stack (compulsory for the
    /// whole family).
    cold: u64,
}

/// Where `block` sits in a reuse stack, if it is there.
#[inline]
fn stack_depth(stack: &[u64], block: u64) -> Option<usize> {
    let mut chunks = stack.chunks_exact(4);
    let base = match chunks.position(|c| c.contains(&block)) {
        Some(i) => 4 * i,
        None => stack.len() - chunks.remainder().len(),
    };
    stack[base..]
        .iter()
        .position(|&b| b == block)
        .map(|j| base + j)
}

impl LruStackSweep {
    pub fn new(line: u64, set_counts: &[u32]) -> Result<Self, Error> {
        if line < 2 || !line.is_power_of_two() {
            return Err(Error::config(format!(
                "stack-distance sweep needs a power-of-two line size of at least 2, got {line}"
            )));
        }
        let mut counts: Vec<u32> = set_counts.to_vec();
        counts.sort_unstable();
        counts.dedup();
        if counts.is_empty() {
            return Err(Error::config(
                "stack-distance sweep needs at least one set count",
            ));
        }
        if let Some(bad) = counts.iter().find(|c| **c == 0 || !c.is_power_of_two()) {
            return Err(Error::config(format!(
                "stack-distance sweep set counts must be powers of two (modulus \
                 indexing), got {bad}"
            )));
        }
        Ok(LruStackSweep {
            block_bits: line.trailing_zeros(),
            families: counts
                .into_iter()
                .map(|sets| SetFamily {
                    sets,
                    stacks: vec![Vec::new(); sets as usize],
                    hist: Vec::new(),
                    cold: 0,
                })
                .collect(),
            sample_k: 1,
            refs_seen: 0,
            refs_sampled: 0,
        })
    }

    pub fn with_set_sampling(mut self, k: u32) -> Result<Self, Error> {
        if k == 0 || !k.is_power_of_two() {
            return Err(Error::config(format!(
                "set-sampling factor must be a power of two, got {k}"
            )));
        }
        let min_sets = self
            .families
            .iter()
            .map(|f| f.sets)
            .find(|s| *s > 1)
            .unwrap_or(1);
        if k > min_sets && min_sets > 1 {
            return Err(Error::config(format!(
                "set-sampling factor {k} exceeds the smallest multi-set count {min_sets}; \
                 every configuration must retain at least one sampled set"
            )));
        }
        self.sample_k = u64::from(k);
        Ok(self)
    }

    pub fn refs_seen(&self) -> u64 {
        self.refs_seen
    }

    pub fn refs_sampled(&self) -> u64 {
        self.refs_sampled
    }

    pub fn observe(&mut self, addr: u64) {
        self.refs_seen += 1;
        let block = addr >> self.block_bits;
        if self.sample_k > 1 && !block.is_multiple_of(self.sample_k) {
            return;
        }
        self.refs_sampled += 1;
        for family in &mut self.families {
            let set = (block & u64::from(family.sets - 1)) as usize;
            let stack = &mut family.stacks[set];
            match stack_depth(stack, block) {
                Some(depth) => {
                    // Move-to-front; record the depth it was found at.
                    stack[..=depth].rotate_right(1);
                    if family.hist.len() <= depth {
                        family.hist.resize(depth + 1, 0);
                    }
                    family.hist[depth] += 1;
                }
                None => {
                    family.cold += 1;
                    stack.insert(0, block);
                }
            }
        }
    }

    fn family(&self, sets: u32) -> Option<&SetFamily> {
        self.families.iter().find(|f| f.sets == sets)
    }

    pub fn misses(&self, sets: u32, ways: u32) -> Option<u64> {
        if ways == 0 {
            return None;
        }
        let family = self.family(sets)?;
        let deep: u64 = family.hist.iter().skip(ways as usize).sum();
        Some(family.cold + deep)
    }

    pub fn hits(&self, sets: u32, ways: u32) -> Option<u64> {
        self.misses(sets, ways).map(|m| self.refs_sampled - m)
    }

    pub fn histogram(&self, sets: u32) -> Option<StackHistogram> {
        let family = self.family(sets)?;
        Some(StackHistogram {
            cold: family.cold,
            depths: family.hist.clone(),
            refs: self.refs_sampled,
        })
    }
}
