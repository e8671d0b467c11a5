//! The host-speed probe.
//!
//! On shared machines the speed of the same code swings by up to 2×
//! over phases of seconds to minutes (contention from other tenants),
//! which moves every absolute timing far more than the changes this
//! benchmark must detect. The probe is a fixed computation owned by the
//! benchmark — random read-modify-writes over a 4 MiB table, the access
//! pattern of a cache simulator — timed around every request. A
//! request's latency divided by the probe time measured beside it is
//! the request's cost in probe units: host slowdowns scale both and
//! cancel, while a change to the program moves only the request.
//!
//! A request evicts the table from the caches, and how much it evicts
//! depends on the request, so each measurement first runs one untimed
//! pass to bring the table back and then times a second pass.

use std::time::Instant;

/// The timed pass's duration on an idle server core, in seconds: set-up
/// times are reported scaled to it (`setup_s` must be in seconds).
pub const NOMINAL_S: f64 = 0.005;

/// Table entries: 4 MiB of `u32`.
const ENTRIES: usize = 1 << 20;
/// Updates per pass: about 5 ms on an idle server core.
const UPDATES: usize = 1_000_000;

/// The probe's table, allocated and faulted in once.
pub struct Probe {
    table: Vec<u32>,
}

impl Probe {
    /// Allocates the table and faults it in.
    pub fn new() -> Probe {
        let mut p = Probe {
            table: vec![0; ENTRIES],
        };
        p.pass();
        p
    }

    /// Warms the table, then times one pass: seconds.
    pub fn time_s(&mut self) -> f64 {
        self.pass();
        let start = Instant::now();
        self.pass();
        start.elapsed().as_secs_f64()
    }

    fn pass(&mut self) {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (ENTRIES - 1);
            self.table[i] = self.table[i].wrapping_add(x as u32);
        }
        std::hint::black_box(&self.table);
    }
}
