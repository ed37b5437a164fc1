//! A fixed workload that gauges the host's current speed.
//!
//! The benchmark runs on shared hosts whose speed for the simulator's kind
//! of code swings by tens of percent for minutes at a time, as neighbours
//! contend for the core's caches and the shared memory system; no run
//! length averages that out. So each measured pass runs this gauge once per
//! cell, between the timed windows, and the end-to-end host times are
//! restated at a reference speed: that of a host where a gauge step takes
//! [`REFERENCE_NS_PER_STEP`]. The raw host times are reported too.
//!
//! A gauge step allocates, fills, reads and drops a short-lived buffer of
//! random size, and inserts or removes a random key in an ordered map of
//! about 50 000 entries: the allocator and pointer-chasing work that the
//! simulator does for its per-transaction state and its tables. Of the
//! kernels tried (dependent loads in a cache-sized and a memory-sized
//! buffer, an ALU chain, hash-map churn, a cache model, buffer churn and
//! ordered-map churn), this pair followed the simulator's host time most
//! closely from one run to the next (`README.md` beside this crate has the
//! figures). The gauge shares no code with the simulator, so a change to
//! the simulator does not move it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Host nanoseconds per gauge step on the reference host: about what the
/// 2-CPU Xeon VM the benchmark was tuned on takes. Only ratios between runs
/// of the benchmark matter, so any fixed value would do.
pub const REFERENCE_NS_PER_STEP: f64 = 400.0;

/// Buffer sizes are drawn from this many 64-bit words upwards...
const MIN_WORDS: usize = 8;
/// ...to this many more.
const SPAN_WORDS: usize = 500;
/// Map keys are drawn below this; half the steps insert and half remove,
/// so the map holds about half of them.
const KEYS: u64 = 100_000;

/// The gauge's state. It persists across calls, so every call continues
/// one stream on warm structures.
pub struct Gauge {
    rng: u64,
    fold: u64,
    map: BTreeMap<u64, u64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A fresh gauge from a fixed seed. It holds no memory until it runs.
    pub fn new() -> Gauge {
        Gauge {
            rng: 1,
            fold: 0,
            map: BTreeMap::new(),
        }
    }

    /// The next value of the gauge's random stream (an LCG; only the high
    /// bits are used).
    fn next(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.rng
    }

    /// Host seconds of `steps` steps: the buffers first, then the map.
    pub fn seconds(&mut self, steps: u64) -> f64 {
        let t0 = Instant::now();
        for i in 0..steps {
            let n = MIN_WORDS + (self.next() >> 50) as usize % SPAN_WORDS;
            let buf: Vec<u64> = (0..n as u64).map(|j| j ^ i).collect();
            self.fold = self.fold.wrapping_add(buf[n / 2]);
        }
        for _ in 0..steps {
            let r = self.next();
            let key = (r >> 40) % KEYS;
            if r & 1 == 0 {
                self.map.insert(key, r);
            } else {
                self.map.remove(&key);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        self.fold = std::hint::black_box(self.fold);
        secs
    }

    /// A digest of the gauge's state: equal after equal calls.
    pub fn digest(&self) -> (u64, u64, usize) {
        (self.rng, self.fold, self.map.len())
    }
}

thread_local! {
    static GAUGE: RefCell<Gauge> = RefCell::new(Gauge::new());
}

/// Host seconds of `steps` steps on this thread's gauge.
pub fn measure(steps: u64) -> f64 {
    GAUGE.with(|g| g.borrow_mut().seconds(steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_is_deterministic_and_does_work() {
        let (mut a, mut b) = (Gauge::new(), Gauge::new());
        let fresh = a.digest();
        a.seconds(2_000);
        b.seconds(2_000);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), fresh);
        assert!(a.map.len() > 100);
    }
}
