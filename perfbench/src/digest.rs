//! Digests of simulated results, for the correctness gate.
//!
//! A digest covers every counter a cell reports, so a change that is
//! faster only because it alters the simulated system changes a digest.

use cac_sim::model::ModelStats;
use cac_sim::stats::CacheStats;

/// FNV-1a over 64-bit words and strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    /// Mixes a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64).bytes(s.as_bytes())
    }

    /// Mixes every counter of a cache-stats block.
    pub fn cache(&mut self, c: &CacheStats) -> &mut Self {
        for w in [
            c.accesses,
            c.hits,
            c.misses,
            c.reads,
            c.writes,
            c.read_misses,
            c.write_misses,
            c.evictions,
            c.invalidations,
            c.writebacks,
        ] {
            self.word(w);
        }
        self
    }

    /// Mixes every counter of a model's stats.
    pub fn model(&mut self, m: &ModelStats) -> &mut Self {
        self.cache(&m.demand);
        self.word(m.components.len() as u64);
        for c in &m.components {
            self.str(&c.name).cache(&c.stats);
        }
        self.word(m.extras.len() as u64);
        for (name, v) in &m.extras {
            self.str(name).word(*v);
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of one model's stats.
pub fn of_model(m: &ModelStats) -> u64 {
    Digest::default().model(m).value()
}
